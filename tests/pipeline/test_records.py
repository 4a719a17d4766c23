"""Scoring records: a warm sweep derives only what its records lack.

A spec whose cached record is complete generates nothing; a record
missing one format regenerates only that spec's structure; a record
missing one SIMD or imbalance memo regenerates only that spec's
declared-scale profile (its structure, when unscaled).  Specs of one
chunk that lack something structural are regenerated in one
``structure_batch`` wave.  Each case counts the generator calls and
requires the table bit-identical to the instance oracle, with the
grown record written back.  A cold sweep makes each full pass over a
declared-scale profile once, whatever the number of keys it scores, and
scores a 2M-row spec holding about two profile-sized arrays at most.
"""

import shutil
import tracemalloc
import weakref
from collections import Counter, defaultdict
from functools import cached_property

import pytest

import repro.devices.parallel as parallel
import repro.perfmodel.fused as fused
from repro.core.dataset import Dataset, fused_spec_table
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.devices.parallel import RowProfile
from repro.io.pack import Pack, append_entries
from repro.perfmodel.batch import _score_grid
from repro.perfmodel.fused import MAX_PROFILE_ROWS, FusedSpecSource
from repro.pipeline import InstanceCache, run_sweep, spec_key
from repro.pipeline.cache import PACK_NAME, decode_record, encode_record

from tests.oracles.sweep import instance_spec_table, instance_sweep
from tests.pipeline.golden import assert_bit_identical

# Alveo-U280 brings VSL, the density-corrected stats engine.
DEVICES = [TESTBEDS["Tesla-A100"], TESTBEDS["INTEL-XEON"],
           TESTBEDS["Alveo-U280"]]
MAX_NNZ = 5_000
SPECS = build_dataset_specs("tiny")[::29]  # 7 specs
VICTIM = 3
# Small enough to be scored unscaled: each profile is its structure's
# row lengths.
UNSCALED = [
    MatrixSpec(n_rows=300, n_cols=300, avg_nnz_per_row=4.0,
               skew_coeff=skew, seed=seed)
    for seed, skew in enumerate((0.0, 5.0, 40.0))
]


def dataset():
    return Dataset(SPECS, max_nnz=MAX_NNZ, name="tiny")


@pytest.fixture(scope="module")
def golden_and_warm_cache(tmp_path_factory):
    warm = tmp_path_factory.mktemp("record-cache")
    run_sweep(dataset(), DEVICES, best_only=False, cache_dir=str(warm))
    return instance_sweep(dataset(), DEVICES, best_only=False), warm


@pytest.fixture
def calls(monkeypatch):
    """The specs of each ``structure_batch`` call and the number of
    declared-scale profile regenerations, as the fused source makes
    them."""
    seen = {"structure": [], "profile": 0}
    structure_batch = fused.structure_batch
    row_length_profile = fused.row_length_profile

    def counting_structure_batch(specs, *args, **kwargs):
        seen["structure"].append(list(specs))
        return structure_batch(specs, *args, **kwargs)

    def counting_row_length_profile(*args, **kwargs):
        seen["profile"] += 1
        return row_length_profile(*args, **kwargs)

    monkeypatch.setattr(fused, "structure_batch", counting_structure_batch)
    monkeypatch.setattr(fused, "row_length_profile",
                        counting_row_length_profile)
    return seen


def _read_record(cache_dir, spec):
    key = spec_key(spec, MAX_NNZ)
    with Pack.open(cache_dir / PACK_NAME) as pack:
        return decode_record(key, pack.read(f"{key}.json"))


def _edit_record(cache_dir, spec, edit):
    """Append an edited copy of ``spec``'s record, shadowing the old
    one."""
    key = spec_key(spec, MAX_NNZ)
    record = _read_record(cache_dir, spec)
    edit(record)
    append_entries(cache_dir / PACK_NAME, [
        (f"{key}.json", "json", encode_record(key, record))
    ], compress=True)


def _warm_sweep(golden_and_warm_cache, tmp_path):
    golden, warm = golden_and_warm_cache
    cache_dir = tmp_path / "cache"
    shutil.copytree(warm, cache_dir)
    return golden, cache_dir


def test_complete_records_generate_nothing(golden_and_warm_cache,
                                           tmp_path, calls):
    golden, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    cache = InstanceCache(cache_dir)
    table = run_sweep(dataset(), DEVICES, best_only=False, cache=cache)
    assert_bit_identical(table, golden)
    assert calls == {"structure": [], "profile": 0}
    assert cache.hits_pack == len(SPECS) and cache.misses == 0


def test_missing_format_regenerates_only_that_structure(
        golden_and_warm_cache, tmp_path, calls):
    golden, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    spec = SPECS[VICTIM]
    _edit_record(cache_dir, spec, lambda rec: rec.formats.pop("Naive-CSR"))
    table = run_sweep(dataset(), DEVICES, best_only=False,
                      cache_dir=str(cache_dir))
    assert_bit_identical(table, golden)
    assert calls == {"structure": [[spec]], "profile": 0}
    assert "Naive-CSR" in _read_record(cache_dir, spec).formats


@pytest.mark.parametrize("fmt", ["Naive-CSR", "VSL"])
def test_missing_format_regenerated_in_one_wave(golden_and_warm_cache,
                                                tmp_path, calls, fmt):
    """Two records of one chunk missing a format: one ``structure_batch``
    call covers both specs (for the batched and the density-corrected
    stats engines alike)."""
    golden, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    cache = InstanceCache(cache_dir)
    records = [cache.fetch(spec, MAX_NNZ) for spec in SPECS]
    victims = [VICTIM, VICTIM + 2]
    for i in victims:
        del records[i].formats[fmt]
    table = fused_spec_table(dataset(), 0, len(SPECS), DEVICES,
                             best_only=False, records=records)
    assert_bit_identical(table, golden)
    assert calls == {"structure": [[SPECS[i] for i in victims]],
                     "profile": 0}
    assert [i for i, rec in enumerate(records) if rec.grown] == victims
    assert all(fmt in records[i].formats for i in victims)


@pytest.mark.parametrize("memo", ["imbalance", "simd"])
def test_missing_memo_regenerates_only_that_profile(
        golden_and_warm_cache, tmp_path, calls, memo):
    golden, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    spec = SPECS[VICTIM]
    # A scaled spec: its profile is regenerated at declared scale, not
    # read off the representative's structure.
    assert spec.representative(MAX_NNZ).n_rows < spec.n_rows
    dropped = []

    def drop_one(record):
        memos = getattr(record, memo)
        dropped.append(sorted(memos)[0])
        del memos[dropped[0]]

    _edit_record(cache_dir, spec, drop_one)
    table = run_sweep(dataset(), DEVICES, best_only=False,
                      cache_dir=str(cache_dir))
    assert_bit_identical(table, golden)
    assert calls == {"structure": [], "profile": 1}
    restored = _read_record(cache_dir, spec)
    assert dropped[0] in getattr(restored, memo)


@pytest.mark.parametrize("memo", ["imbalance", "simd"])
def test_unscaled_memos_regenerated_in_one_wave(calls, memo):
    """Unscaled specs missing a memo regenerate their structure (their
    profile is its row lengths), all in one ``structure_batch`` call."""
    data = Dataset(UNSCALED, max_nnz=MAX_NNZ, name="small")
    assert all(spec.representative(MAX_NNZ) is spec for spec in UNSCALED)
    golden = instance_spec_table(data, 0, len(UNSCALED), DEVICES,
                                 best_only=False)
    records = [None] * len(UNSCALED)
    fused_spec_table(data, 0, len(UNSCALED), DEVICES, best_only=False,
                     records=records)
    for rec in records:
        rec.grown = False
    victims = [0, 2]
    for i in victims:
        memos = getattr(records[i], memo)
        del memos[sorted(memos)[0]]
    calls["structure"].clear()
    table = fused_spec_table(data, 0, len(UNSCALED), DEVICES,
                             best_only=False, records=records)
    assert_bit_identical(table, golden)
    assert calls == {"structure": [[UNSCALED[i] for i in victims]],
                     "profile": 0}
    assert [i for i, rec in enumerate(records) if rec.grown] == victims


@pytest.mark.parametrize("mode", ["truncate", "flip"])
def test_damaged_record_is_rescored_and_rewritten(golden_and_warm_cache,
                                                  tmp_path, calls, mode):
    from repro.pipeline import corrupt_file

    golden, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    spec = SPECS[VICTIM]
    name = f"{spec_key(spec, MAX_NNZ)}.json"
    pack_path = cache_dir / PACK_NAME
    with Pack.open(pack_path) as pack:
        entry = pack.entry(name)
    corrupt_file(pack_path, mode=mode, region=(entry.offset, entry.csize))
    cache = InstanceCache(cache_dir)
    table = run_sweep(dataset(), DEVICES, best_only=False, cache=cache)
    assert_bit_identical(table, golden)
    assert cache.quarantined == 1
    assert [p.name for p in cache.quarantine_dir.iterdir()] == [name]
    # Only the damaged spec was rescored from scratch, and its record
    # is whole again.
    assert calls["structure"] == [[spec]]
    _read_record(cache_dir, spec)


def test_record_crc_catches_a_silent_digit_change(golden_and_warm_cache,
                                                  tmp_path):
    """A change that leaves valid JSON (one digit of a memo) is still
    caught by the record's checksum."""
    _, cache_dir = _warm_sweep(golden_and_warm_cache, tmp_path)
    spec = SPECS[VICTIM]
    name = f"{spec_key(spec, MAX_NNZ)}.json"
    pack_path = cache_dir / PACK_NAME
    with Pack.open(pack_path) as pack:
        data = pack.read(name)
    pos = data.index(b'"rows":') + len(b'"rows":')
    digit = data[pos:pos + 1]
    # Appended whole, so the pack's own checksums hold.
    append_entries(pack_path, [(name, "json", data[:pos] + (
        b"9" if digit != b"9" else b"8") + data[pos + 1:])], compress=True)
    cache = InstanceCache(cache_dir)
    assert cache.fetch(spec, MAX_NNZ) is None
    assert cache.quarantined == 1


@pytest.fixture
def passes(monkeypatch):
    """The declared-scale profiles the fused source regenerates, and the
    full passes made over each, keyed by its array's ``id``: prefix sums,
    SELL chunk-width calls, and per width the distinct warp-cycle arrays
    handed out and the number of warp queries.  Every array stays
    referenced, so no ``id`` is reused."""
    seen = {"profiles": [], "csum": Counter(), "sell": Counter(),
            "warp": defaultdict(list), "warp_queries": Counter()}
    row_length_profile = fused.row_length_profile
    csum = RowProfile.csum.func
    sell_chunk_widths = parallel.sell_chunk_widths
    warp_cycles = RowProfile.warp_cycles

    def recording_row_length_profile(*args, **kwargs):
        seen["profiles"].append(row_length_profile(*args, **kwargs))
        return seen["profiles"][-1]

    def counting_csum(self):
        seen["csum"][id(self.lengths)] += 1
        return csum(self)

    def counting_sell_chunk_widths(lengths, *args, **kwargs):
        seen["sell"][id(lengths)] += 1
        return sell_chunk_widths(lengths, *args, **kwargs)

    def recording_warp_cycles(self, width):
        cycles, longest = warp_cycles(self, width)
        key = (id(self.lengths), width)
        seen["warp_queries"][key] += 1
        if not any(c is cycles for c in seen["warp"][key]):
            seen["warp"][key].append(cycles)
        return cycles, longest

    counted_csum = cached_property(counting_csum)
    counted_csum.__set_name__(RowProfile, "csum")
    monkeypatch.setattr(fused, "row_length_profile",
                        recording_row_length_profile)
    monkeypatch.setattr(RowProfile, "csum", counted_csum)
    monkeypatch.setattr(parallel, "sell_chunk_widths",
                        counting_sell_chunk_widths)
    monkeypatch.setattr(RowProfile, "warp_cycles", recording_warp_cycles)
    return seen


def test_cold_sweep_passes_each_profile_once(passes):
    """A cold sweep of scaled specs on all nine testbeds: each
    declared-scale profile gets one prefix sum, one SELL chunk-width
    call and one warp-cycle array per SIMD width, however many worker
    counts score it."""
    assert all(spec.representative(MAX_NNZ).n_rows < spec.n_rows
               for spec in SPECS)
    fused_spec_table(dataset(), 0, len(SPECS), list(TESTBEDS.values()),
                     best_only=False)
    ids = [id(lengths) for lengths in passes["profiles"]]
    assert len(ids) == len(SPECS)
    assert passes["csum"] == Counter(ids)
    assert passes["sell"] == Counter(ids)
    widths = {width for _, width in passes["warp"]}
    assert passes["warp"].keys() == {(i, w) for i in ids for w in widths}
    assert all(len(arrays) == 1 for arrays in passes["warp"].values())
    # Several worker counts share one width's cycles.
    assert min(passes["warp_queries"].values()) > 1


def test_cold_pass_holds_one_profile_at_a_time(monkeypatch):
    """A cold pass of scaled specs on all nine testbeds keeps at most one
    declared-scale profile alive; a key queried after the pass
    regenerates the released profile bit-identically."""
    assert all(spec.representative(MAX_NNZ).n_rows < spec.n_rows
               for spec in SPECS)
    live = weakref.WeakSet()
    peak = []

    def tracked_row_profile(lengths):
        profile = RowProfile(lengths)
        live.add(profile)
        peak.append(len(live))
        return profile

    monkeypatch.setattr(fused, "RowProfile", tracked_row_profile)
    names = [f"tiny[{i}]" for i in range(len(SPECS))]
    source = FusedSpecSource(SPECS, names, max_nnz=MAX_NNZ)
    _score_grid(source, list(TESTBEDS.values()))
    assert len(peak) == len(SPECS)
    assert max(peak) == 1

    key = ("row_block", 3, 8)
    assert all(key not in rec.imbalance for rec in source.records)
    fresh = FusedSpecSource(SPECS[VICTIM:VICTIM + 1], names[:1],
                            max_nnz=MAX_NNZ)
    assert source.imbalance_factor(VICTIM, *key) == (
        fresh.imbalance_factor(0, *key)
    )


@pytest.mark.parametrize("avg, skew", [(5.0, 1000.0), (20.0, 10000.0),
                                       (10.0, 0.0)])
def test_declared_scale_spec_holds_two_profile_arrays(avg, skew):
    """Scoring one spec of 2M declared rows on all nine testbeds, from
    its profile's draw to its last imbalance key, traces a peak of at
    most 2.25 int64 profiles: the generator frees its head and body as
    it goes and draws the residual without indexing every row, and the
    spec's RowProfile holds one full-length pass at a time.  Keeping
    the head, the body and two row-index arrays beside the lengths
    traces over five.  The avg-10, skew-0 cell rounds most rows to the
    cap, so its residual rows are looked up from the movable side."""
    rows = MAX_PROFILE_ROWS
    spec = MatrixSpec(n_rows=rows, n_cols=rows, avg_nnz_per_row=avg,
                      skew_coeff=skew, seed=11)
    source = FusedSpecSource([spec], ["declared"], max_nnz=MAX_NNZ)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        _score_grid(source, list(TESTBEDS.values()))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert source.records[0].rows < rows
    assert peak <= 2.25 * rows * 8, f"{peak / (rows * 8):.2f} profiles"
