"""Pipeline engine + cache: determinism, round-trips, sharding.

The sweep tests run on a strided cross-section of the tiny preset (every
bin and feature axis is represented) so the suite stays fast; set
``REPRO_EXHAUSTIVE=1`` to run them on the full preset.
"""

import os

import pytest

import repro.pipeline.cache as cache_module
import repro.pipeline.engine as engine
from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.io.pack import Pack, append_entries
from repro.perfmodel.fused import FusedSpecSource
from repro.pipeline import (InstanceCache, RunJournal, corrupt_file,
                            run_sweep, resolve_jobs, spec_key)

from tests.oracles.sweep import scalar_sweep
from tests.pipeline.golden import assert_bit_identical

DEVICES = [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"]]
MAX_NNZ = 6_000

TINY = build_dataset_specs("tiny")
SPECS = TINY if os.environ.get("REPRO_EXHAUSTIVE") == "1" else TINY[::7]


def tiny_dataset(specs=None):
    return Dataset(
        SPECS if specs is None else specs, max_nnz=MAX_NNZ, name="tiny",
    )


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("sweep-cache"))


@pytest.fixture(scope="module")
def serial_table():
    return sweep(tiny_dataset(), DEVICES)


class TestSpecKey:
    def test_stable_across_equal_specs(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        b = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        assert spec_key(a, 100) == spec_key(b, 100)

    def test_sensitive_to_fields_and_cap(self):
        a = MatrixSpec.from_footprint(4.0, 10.0, seed=3)
        keys = {
            spec_key(a, 100),
            spec_key(a, 200),
            spec_key(MatrixSpec.from_footprint(4.0, 10.0, seed=4), 100),
            spec_key(MatrixSpec.from_footprint(8.0, 10.0, seed=3), 100),
        }
        assert len(keys) == 4


class TestParallelDeterminism:
    def test_parallel_equals_serial_rows(self, serial_table):
        par = sweep(tiny_dataset(), DEVICES, jobs=3)
        assert par.rows == serial_table.rows

    def test_precision_threads_through_every_engine(self, serial_table):
        """``precision`` reaches the in-process and crew paths alike and
        matches the scalar oracle — identical rows, different from fp64."""
        fp32 = sweep(tiny_dataset(), DEVICES, precision="fp32")
        assert fp32.rows != serial_table.rows
        assert sweep(
            tiny_dataset(), DEVICES, precision="fp32", jobs=2
        ).rows == fp32.rows
        assert scalar_sweep(
            tiny_dataset(), DEVICES, precision="fp32"
        ).rows == fp32.rows

    def test_progress_reports_monotonic_totals(self):
        seen = []
        sweep(
            tiny_dataset(specs=SPECS[:8]), DEVICES[:1], jobs=2,
            progress=lambda i, n: seen.append((i, n)),
        )
        assert seen, "progress callback never fired"
        assert all(n == 8 for _, n in seen)
        assert [i for i, _ in seen] == sorted(i for i, _ in seen)
        assert seen[-1][0] == 8

    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(5) == 5
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1


class TestChunkRule:
    """In-process, a sweep of up to 64 specs gets one scoring pass of at
    most 16 specs per chunk and a larger one four chunks, each scored in
    such passes; a crew keeps four chunks per worker."""

    @pytest.mark.parametrize("n, n_chunks, n_passes", [
        (3, 1, 1), (16, 1, 1), (17, 2, 2), (40, 3, 3), (80, 4, 8),
    ])
    def test_serial_chunks_and_passes(self, n, n_chunks, n_passes,
                                      tmp_path, monkeypatch):
        specs = [MatrixSpec(n_rows=100, n_cols=100, avg_nnz_per_row=3.0,
                            skew_coeff=float(seed % 3) * 20, seed=seed)
                 for seed in range(n)]
        passes = []
        fused_spec_table = engine.fused_spec_table

        def counting_fused_spec_table(dataset, lo, hi, *args, **kwargs):
            passes.append((lo, hi))
            return fused_spec_table(dataset, lo, hi, *args, **kwargs)

        monkeypatch.setattr(engine, "fused_spec_table",
                            counting_fused_spec_table)
        serial = run_sweep(tiny_dataset(specs=specs), DEVICES, jobs=1,
                           run_dir=tmp_path / "serial")
        bounds = RunJournal.load(tmp_path / "serial").bounds
        assert len(bounds) == n_chunks
        assert len(passes) == n_passes
        assert passes == [(lo, min(lo + 16, hi)) for first, hi in bounds
                          for lo in range(first, hi, 16)]

        crew = run_sweep(tiny_dataset(specs=specs), DEVICES, jobs=2,
                         run_dir=tmp_path / "crew")
        assert len(RunJournal.load(tmp_path / "crew").bounds) == min(n, 8)
        assert_bit_identical(crew, serial)


class TestCache:
    def test_cold_then_warm_rows_identical(self, serial_table, cache_dir):
        cold = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert cold.rows == serial_table.rows
        # A fresh dataset + fresh cache handle: everything reloads from
        # disk, nothing is regenerated.
        warm = sweep(tiny_dataset(), DEVICES, cache_dir=cache_dir)
        assert warm.rows == serial_table.rows
        assert len(InstanceCache(cache_dir)) == len(SPECS)

    def test_parallel_with_shared_cache_matches_serial(
        self, serial_table, cache_dir
    ):
        par = sweep(tiny_dataset(), DEVICES, jobs=2, cache_dir=cache_dir)
        assert par.rows == serial_table.rows

    def test_batched_sweep_persists_derived_state(self, tmp_path):
        """Cache entries are written *after* grid scoring, so the
        persisted records carry the features, format stats and
        SIMD/imbalance memos the scoring computed — otherwise every warm
        sweep re-derives all of it."""
        dev = TESTBEDS["INTEL-XEON"]
        sweep(tiny_dataset(specs=SPECS[:2]), [dev],
              cache_dir=str(tmp_path))
        for spec in SPECS[:2]:
            restored = InstanceCache(tmp_path).fetch(spec, MAX_NNZ)
            assert restored is not None
            assert restored.features is not None
            assert set(dev.formats) <= set(restored.formats)
            assert dev.simd_width_dp in restored.simd
            assert restored.imbalance

    def test_record_roundtrip_exact(self, tmp_path):
        spec = TINY[0]
        source = _scored_source(spec)
        record = source.records[0]
        assert record.grown
        cache = InstanceCache(tmp_path)
        assert cache.store([spec], MAX_NNZ, [record]) == 1
        assert not record.grown

        restored = InstanceCache(tmp_path).fetch(spec, MAX_NNZ)
        assert restored is not None and restored is not record
        assert restored == record
        assert restored.features == source.features(0)
        assert restored.formats["Naive-CSR"] == record.formats["Naive-CSR"]
        assert restored.simd[8] == source.simd_utilisation(0, 8)
        assert restored.imbalance[("row_block", 16, 8)] == (
            source.imbalance_factor(0, "row_block", 16, 8)
        )

    def test_store_skips_unchanged_entries(self, tmp_path):
        spec = TINY[1]
        cache = InstanceCache(tmp_path)
        source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ)
        record = source.records[0]
        source.features(0)
        assert cache.store([spec], MAX_NNZ, [record]) == 1
        assert cache.store([spec], MAX_NNZ, [record]) == 0  # nothing grew
        source.format_stats_columns("COO")  # new derived state -> grown
        assert cache.store([spec], MAX_NNZ, [record]) == 1

    def test_records_are_name_free(self, tmp_path):
        """Names label rows and seed the measurement noise, but records
        carry none: one dataset's records serve another dataset's warm
        sweep, which equals that dataset's own cold sweep."""
        specs = SPECS[:3]
        sweep(Dataset(specs, max_nnz=MAX_NNZ, name="a"), DEVICES,
              cache_dir=str(tmp_path))
        cold_b = sweep(Dataset(specs, max_nnz=MAX_NNZ, name="b"), DEVICES)
        cache = InstanceCache(tmp_path)
        warm_b = run_sweep(Dataset(specs, max_nnz=MAX_NNZ, name="b"),
                           DEVICES, cache=cache)
        assert cache.hits_pack == len(specs) and cache.misses == 0
        assert_bit_identical(warm_b, cold_b)
        assert warm_b.categories("matrix") == [f"b[{i}]" for i in range(3)]

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        cache.store([spec], MAX_NNZ, _scored_source(spec).records)
        # A record that does not parse: the pack's checksums hold, the
        # record's own check fails.
        append_entries(cache.pack_path,
                       [(f"{spec_key(spec, MAX_NNZ)}.json", "json",
                         b"{ not json")], compress=True)
        fresh = InstanceCache(tmp_path)
        assert fresh.fetch(spec, MAX_NNZ) is None

    def test_corrupt_record_is_a_miss_and_heals(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        record = _scored_source(spec).records[0]
        cache.store([spec], MAX_NNZ, [record])
        with Pack.open(cache.pack_path) as pack:
            entry = pack.entry(pack.keys()[0])
        corrupt_file(cache.pack_path, mode="truncate",
                     region=(entry.offset, entry.csize))
        fresh = InstanceCache(tmp_path)
        assert fresh.fetch(spec, MAX_NNZ) is None
        assert fresh.quarantined == 1
        assert len(fresh) == 0  # never re-read by this handle
        record.grown = True     # rescored
        assert fresh.store([spec], MAX_NNZ, [record]) == 1
        assert InstanceCache(tmp_path).fetch(spec, MAX_NNZ) == record

    def test_warm_sweep_keys_each_spec_once(self, tmp_path, monkeypatch):
        """Complete records grow nothing, so ``store`` keys none of them:
        one ``spec_key`` per spec, all from ``fetch``."""
        specs = SPECS[:4]
        sweep(tiny_dataset(specs=specs), DEVICES, cache_dir=str(tmp_path))
        keyed = []
        real_spec_key = cache_module.spec_key

        def counting_spec_key(spec, *args, **kwargs):
            keyed.append(spec)
            return real_spec_key(spec, *args, **kwargs)

        monkeypatch.setattr(cache_module, "spec_key", counting_spec_key)
        sweep(tiny_dataset(specs=specs), DEVICES, cache_dir=str(tmp_path))
        assert keyed == list(specs)

    def test_memo_change_rewrites_record(self, tmp_path):
        spec = TINY[3]
        cache = InstanceCache(tmp_path)
        cache.store([spec], MAX_NNZ, _scored_source(spec).records)
        warm = InstanceCache(tmp_path)
        got = warm.fetch(spec, MAX_NNZ)
        assert 32 not in got.simd
        source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ,
                                 records=[got])
        source.simd_utilisation(0, 8)  # memo hit: nothing grows
        assert not got.grown
        assert warm.store([spec], MAX_NNZ, [got]) == 0
        source.simd_utilisation(0, 32)  # derived memo only
        assert got.grown
        assert warm.store([spec], MAX_NNZ, [got]) == 1
        assert 32 in InstanceCache(tmp_path).fetch(spec, MAX_NNZ).simd


def _scored_source(spec):
    """A one-spec source that derived every kind of memo."""
    source = FusedSpecSource([spec], ["x[0]"], max_nnz=MAX_NNZ)
    source.scalar_arrays()
    source.format_stats_columns("Naive-CSR")
    source.simd_utilisation(0, 8)
    source.imbalance_factor(0, "row_block", 16, 8)
    return source


class TestRunSweepDirect:
    def test_run_sweep_accepts_cache_object(self, tmp_path):
        specs = SPECS[:6]
        reference = run_sweep(tiny_dataset(specs=specs), DEVICES)
        cache = InstanceCache(tmp_path)
        table = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert table.rows == reference.rows
        assert cache.misses > 0
        again = run_sweep(tiny_dataset(specs=specs), DEVICES, cache=cache)
        assert again.rows == reference.rows
        assert cache.hits_memory > 0

    def test_empty_dataset(self):
        table = run_sweep(
            Dataset([], max_nnz=MAX_NNZ, name="empty"), DEVICES, jobs=4
        )
        assert len(table) == 0
