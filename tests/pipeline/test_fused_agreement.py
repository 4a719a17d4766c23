"""Golden agreement: sweeps are bit-identical to the instance oracle.

Every sweep scores spec chunks through the fused path
(``repro.perfmodel.fused``); it must reproduce the instance-materialising
sweep (``tests/oracles/sweep.py``) row for row — same measurements, same
noise, same skip reasons, same category order — across execution
engines (serial / crew), cache states (cold / warm / partial records)
and every registered format, including the scalar fallback and
capacity-gated cells.  The hypothesis
section pins the ``stats_from_csr_batch`` contract itself: a batch entry
equals the scalar ``stats_from_csr`` outcome (errors included) and is
invariant under batch order.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import build_dataset_specs
from repro.core.dataset import Dataset, fused_spec_table
from repro.core.matrix import CSRStructBatch, csr_from_coo
from repro.devices import get_device
from repro.formats import FORMAT_REGISTRY, FormatError
from repro.perfmodel.batch import _score_grid, simulate_grid
from repro.perfmodel.fused import FusedSpecSource, ScoringRecord
from repro.pipeline.engine import run_sweep

from tests.oracles.sweep import instance_spec_table, instance_sweep

DEVICE_NAMES = ("AMD-EPYC-24", "Tesla-A100", "Alveo-U280")
MAX_NNZ = 60_000
# A cross-section of the tiny dataset: small, mid and the largest specs
# (the latter trip the Alveo capacity gate and the ELL/DIA refusals).
SPEC_INDICES = (0, 7, 23, 61, 96, 133, 158, 171, 179)


def _devices():
    return [get_device(name) for name in DEVICE_NAMES]


@pytest.fixture(scope="module")
def golden_specs():
    specs = build_dataset_specs("tiny")
    return [specs[i] for i in SPEC_INDICES]


def _dataset(specs):
    return Dataset(specs, max_nnz=MAX_NNZ, name="golden")


def _assert_tables_equal(a, b, context=""):
    assert a.names == b.names, context
    for name in a.names:
        assert np.array_equal(a.column(name), b.column(name)), (
            context, name,
        )
        assert a.is_categorical(name) == b.is_categorical(name), (
            context, name,
        )
        if a.is_categorical(name):
            assert a.categories(name) == b.categories(name), (
                context, name,
            )
            assert np.array_equal(a.codes(name), b.codes(name)), (
                context, name,
            )


# ---------------------------------------------------------------------------
# sweep-level golden agreement
# ---------------------------------------------------------------------------
def test_fused_equals_instance_serial(golden_specs):
    for best_only in (True, False):
        ref = instance_sweep(_dataset(golden_specs), _devices(),
                             best_only=best_only)
        got = run_sweep(_dataset(golden_specs), _devices(),
                        best_only=best_only)
        _assert_tables_equal(ref, got, f"best_only={best_only}")


def test_fused_equals_instance_under_pool(golden_specs):
    ref = instance_sweep(_dataset(golden_specs), _devices(),
                         best_only=False)
    got = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                    jobs=2)
    _assert_tables_equal(got, ref, "jobs=2")


def test_fused_agrees_with_cold_and_warm_cache(golden_specs, tmp_path):
    ref = instance_sweep(_dataset(golden_specs), _devices(),
                         best_only=False)
    cache_dir = str(tmp_path / "cache")
    cold = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                     cache_dir=cache_dir)
    warm = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                     cache_dir=cache_dir)
    crew = run_sweep(_dataset(golden_specs), _devices(), best_only=False,
                     cache_dir=cache_dir, jobs=2)
    _assert_tables_equal(ref, cold, "oracle vs cold")
    _assert_tables_equal(ref, warm, "oracle vs warm")
    _assert_tables_equal(ref, crew, "oracle vs warm crew")


def test_fused_covers_every_registered_format(golden_specs):
    """Explicit all-format sweep: the scalar-fallback formats (no
    vectorised ``stats_from_csr_batch`` override) must agree too."""
    formats = sorted(FORMAT_REGISTRY)
    ref = instance_spec_table(_dataset(golden_specs), 0,
                              len(golden_specs), _devices(),
                              best_only=False, formats=formats)
    got = fused_spec_table(_dataset(golden_specs), 0, len(golden_specs),
                           _devices(), best_only=False, formats=formats)
    _assert_tables_equal(ref, got, "all formats")
    scored = set(ref.categories("format"))
    # The fallback path is genuinely exercised, not vacuously green.
    assert {"VSL", "SparseX", "BCSR"} <= scored


def test_fused_grid_bit_identity_and_skip_sets(golden_specs):
    """Grid-level check, stronger than the table: every cell of the
    structured array (scored or skipped), every skip reason string and
    the capacity-skip set must match exactly."""
    dataset = _dataset(golden_specs)
    n = len(golden_specs)
    # Explicit all-formats grid: the device Table-II defaults exclude the
    # refusing formats (ELL/DIA), so only the full registry exercises
    # format_error cells alongside the capacity gate.
    formats = sorted(FORMAT_REGISTRY)
    instances = [dataset.instance(i) for i in range(n)]
    ref = simulate_grid(instances, _devices(), formats=formats)
    source = FusedSpecSource(
        golden_specs, [f"golden[{i}]" for i in range(n)], max_nnz=MAX_NNZ
    )
    got = _score_grid(source, _devices(), formats=formats)

    assert ref.instance_names == got.instance_names
    assert ref.device_names == got.device_names
    assert ref.format_names == got.format_names
    assert ref.device_slices == got.device_slices
    for field in ref.data.dtype.names:
        a, b = ref.data[field], got.data[field]
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), field
        else:
            assert np.array_equal(a, b), field
    assert ref.skip_reasons == got.skip_reasons
    assert ref.capacity_skip_set() == got.capacity_skip_set()
    # The golden spec selection must actually exercise both skip kinds.
    assert ref.skips(kind="capacity"), "no capacity skips in golden set"
    assert ref.skips(kind="format"), "no format refusals in golden set"


def _assert_grids_equal(ref, got):
    for field in ref.data.dtype.names:
        a, b = ref.data[field], got.data[field]
        if a.dtype.kind == "f":
            assert np.array_equal(a, b, equal_nan=True), field
        else:
            assert np.array_equal(a, b), field
    assert ref.skip_reasons == got.skip_reasons


def _partial(record: ScoringRecord, rng) -> ScoringRecord:
    """A copy of ``record`` with a random subset of its memos dropped
    (sometimes the features, and with them the representative shape)."""
    def keep(d):
        return {k: v for k, v in d.items() if rng.random() < 0.5}

    full = rng.random() < 0.5
    return ScoringRecord(
        rows=record.rows if full else None,
        nnz=record.nnz if full else None,
        features=record.features if full else None,
        formats=keep(record.formats), simd=keep(record.simd),
        imbalance=keep(record.imbalance),
    )


@pytest.mark.parametrize("seed", range(3))
def test_seeded_records_score_identically(golden_specs, seed):
    """A source seeded with complete, partial or missing records scores
    the full grid bit-identically to a cold source, and fills every
    record back up to the complete set of memos."""
    formats = sorted(FORMAT_REGISTRY)
    names = [f"golden[{i}]" for i in range(len(golden_specs))]
    cold = FusedSpecSource(golden_specs, names, max_nnz=MAX_NNZ)
    ref = _score_grid(cold, _devices(), formats=formats)
    rng = np.random.default_rng(seed)
    seeded = [
        None if rng.random() < 0.2 else _partial(rec, rng)
        for rec in cold.records
    ]
    source = FusedSpecSource(golden_specs, names, max_nnz=MAX_NNZ,
                             records=seeded)
    _assert_grids_equal(ref, _score_grid(source, _devices(),
                                         formats=formats))
    assert source.records == cold.records


# ---------------------------------------------------------------------------
# stats_from_csr_batch properties
# ---------------------------------------------------------------------------
@st.composite
def csr_matrix_lists(draw):
    """1-4 small random matrices, degenerate shapes included."""
    n_mats = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    mats = []
    for _ in range(n_mats):
        mode = draw(st.sampled_from(["random", "empty", "dense-rows"]))
        if mode == "empty":
            mats.append(csr_from_coo(draw(st.integers(1, 12)),
                                     draw(st.integers(1, 12)), [], [], []))
            continue
        if mode == "dense-rows":
            n_rows = draw(st.integers(1, 8))
            n_cols = draw(st.integers(1, 40))
            rows = np.repeat(np.arange(n_rows), n_cols)
            cols = np.tile(np.arange(n_cols), n_rows)
            mats.append(csr_from_coo(n_rows, n_cols, rows, cols,
                                     rng.uniform(1, 5, n_rows * n_cols)))
            continue
        n_rows = draw(st.integers(1, 20))
        n_cols = draw(st.integers(1, 20))
        nnz = draw(st.integers(0, 50))
        vals = rng.uniform(1, 5, nnz)
        mats.append(csr_from_coo(n_rows, n_cols,
                                 rng.integers(0, n_rows, nnz),
                                 rng.integers(0, n_cols, nnz), vals))
    return mats


def _scalar_outcome(cls, mat):
    try:
        return cls.stats_from_csr(mat), None
    except FormatError as exc:
        return None, str(exc)


@given(mats=csr_matrix_lists())
@settings(max_examples=30, deadline=None)
def test_batch_stats_equal_scalar_stats(mats):
    """Entry ``i`` of the batch equals the scalar call on matrix ``i`` —
    including batch-of-1 and the exact refusal message (error parity)."""
    batch = CSRStructBatch.from_matrices(mats)
    for name in sorted(FORMAT_REGISTRY):
        cls = FORMAT_REGISTRY[name]
        fsb = cls.stats_from_csr_batch(batch, matrices=mats)
        assert len(fsb) == len(mats), name
        for i, mat in enumerate(mats):
            ref, ref_err = _scalar_outcome(cls, mat)
            if ref_err is not None:
                assert bool(fsb.fail[i]), (name, i)
                assert fsb.fail_reason[i] == ref_err, (name, i)
                with pytest.raises(FormatError):
                    fsb.stats(i)
            else:
                assert not fsb.fail[i], (name, i)
                assert fsb.stats(i) == ref, (name, i)


@given(mats=csr_matrix_lists(), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_batch_stats_order_invariance(mats, seed):
    """Permuting the batch permutes the entries and nothing else."""
    perm = np.random.default_rng(seed).permutation(len(mats))
    batch = CSRStructBatch.from_matrices(mats)
    shuffled = CSRStructBatch.from_matrices([mats[p] for p in perm])
    for name in sorted(FORMAT_REGISTRY):
        cls = FORMAT_REGISTRY[name]
        fsb = cls.stats_from_csr_batch(batch, matrices=mats)
        fsb_p = cls.stats_from_csr_batch(
            shuffled, matrices=[mats[p] for p in perm]
        )
        for j, p in enumerate(perm):
            assert bool(fsb_p.fail[j]) == bool(fsb.fail[p]), (name, j)
            if fsb.fail[p]:
                assert fsb_p.fail_reason[j] == fsb.fail_reason[p], (name, j)
            else:
                assert fsb_p.stats(j) == fsb.stats(p), (name, j)


@given(mats=csr_matrix_lists())
@settings(max_examples=20, deadline=None)
def test_structure_batch_matrices_roundtrip(mats):
    """``CSRStructBatch.matrix(i)`` reproduces each matrix's structure
    (data is zeroed by design — stats and features never read it)."""
    batch = CSRStructBatch.from_matrices(mats)
    for i, mat in enumerate(mats):
        rebuilt = batch.matrix(i)
        assert rebuilt.n_rows == mat.n_rows
        assert rebuilt.n_cols == mat.n_cols
        assert np.array_equal(rebuilt.indptr, mat.indptr)
        assert np.array_equal(rebuilt.indices, mat.indices)
        assert not rebuilt.data.any()
