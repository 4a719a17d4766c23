"""Grid-vs-scalar agreement: the golden suite.

:func:`repro.perfmodel.simulate_grid` promises row-for-row *bit-identical*
output to the historical scalar simulator (``tests/oracles/model.py``)
over the full (testbed device x its Table-II format list x fp64/fp32)
grid — including which cells are capacity-gated, with the very same
reason strings.  The public one-triple entry points (``simulate_spmv``,
``simulate_best``, ``simulate_best_detailed``) are one-cell grid calls
and must equal the oracle field for field, exceptions included.  These
tests enforce that on a varied pool of generated instances; if a change
to the model breaks the lockstep, a cell here fails with the exact
coordinates.
"""

import numpy as np
import pytest

from repro.core.dataset import Dataset, sweep
from repro.core.feature_space import build_dataset_specs
from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.formats.base import CapacityError, FormatError
from repro.perfmodel import (
    MatrixInstance,
    simulate_best,
    simulate_best_detailed,
    simulate_grid,
    simulate_spmv,
)
from repro.perfmodel.batch import (
    BOTTLENECKS,
    STATUS_CAPACITY_ERROR,
    STATUS_FORMAT_ERROR,
    STATUS_OK,
)

from tests.oracles import model as oracle
from tests.oracles.sweep import grid_spec_rows, scalar_sweep, spec_rows

PRECISIONS = ("fp64", "fp32")
DEVICES = list(TESTBEDS.values())
SEED = 0

_DIAG_KEYS = (
    "t_mem", "t_comp", "t_lat", "imbalance", "utilisation", "bw_gbs",
    "miss_rate", "padding_ratio", "bytes_total", "simd_util",
)


def _inst(mb, avg, name, seed=0, max_nnz=20_000, **kw):
    spec = MatrixSpec.from_footprint(mb, avg, seed=seed, **kw)
    return MatrixInstance.from_spec(spec, max_nnz=max_nnz, name=name)


@pytest.fixture(scope="module")
def instances():
    """Eight structurally varied instances covering the paper's axes:
    cache-resident and DRAM-resident footprints, short and long rows,
    balanced and skewed profiles, regular and irregular access — plus an
    FPGA-capacity-overflowing one and an *unnamed* one (exercising the
    tuple-keyed noise path)."""
    return [
        _inst(4, 5, "small-short"),
        _inst(64, 50, "llc-medium", seed=1, skew_coeff=10.0,
              cross_row_sim=0.8),
        _inst(256, 100, "large-irregular", seed=2, cross_row_sim=0.05,
              avg_num_neigh=0.05),
        _inst(1024, 5, "fpga-overflow", seed=3),
        _inst(24, 500, "long-rows", seed=4, cross_row_sim=0.8,
              avg_num_neigh=1.4),
        _inst(128, 50, "skewed", seed=5, skew_coeff=1000.0),
        _inst(8, 10, "tiny-skewed", seed=6, skew_coeff=5000.0),
        _inst(64, 20, "", seed=7),  # unnamed
    ]


@pytest.fixture(scope="module")
def grid(instances):
    return simulate_grid(
        instances, DEVICES, precisions=PRECISIONS, seed=SEED
    )


def _scalar_cell(inst, fmt, dev, precision):
    """(status, payload) of the oracle: payload is the measurement or the
    reason str."""
    try:
        return STATUS_OK, oracle.simulate_spmv(
            inst, fmt, dev, seed=SEED, precision=precision
        )
    except CapacityError as exc:
        return STATUS_CAPACITY_ERROR, str(exc)
    except FormatError as exc:
        return STATUS_FORMAT_ERROR, str(exc)


@pytest.mark.parametrize("device_name", sorted(TESTBEDS))
def test_every_cell_matches_scalar(grid, instances, device_name):
    """Exact equality over every (instance, format, precision) cell of
    one device — measurements, diagnostics, bottleneck attribution and
    skip reasons alike."""
    d = [dev.name for dev in DEVICES].index(device_name)
    dev = DEVICES[d]
    lo, hi = grid.device_slices[d]
    checked = 0
    for p, precision in enumerate(grid.precisions):
        for i, inst in enumerate(instances):
            for off in range(lo, hi):
                idx = grid.cell_index(p, i, off)
                rec = grid.data[idx]
                fmt = grid.format_names[rec["format"]]
                status, payload = _scalar_cell(inst, fmt, dev, precision)
                cell = (inst.name, device_name, fmt, precision)
                assert rec["status"] == status, cell
                if status != STATUS_OK:
                    assert grid.skip_reasons[idx] == payload, cell
                    assert np.isnan(rec["gflops"]), cell
                    continue
                assert rec["gflops"] == payload.gflops, cell
                assert rec["time_s"] == payload.time_s, cell
                assert rec["watts"] == payload.watts, cell
                assert rec["gflops_per_watt"] == payload.gflops_per_watt, \
                    cell
                assert BOTTLENECKS[rec["bottleneck"]] == \
                    payload.bottleneck, cell
                for key in _DIAG_KEYS:
                    assert rec[key] == payload.diagnostics[key], (cell, key)
                checked += 1
    assert checked > 0, f"no scored cells on {device_name}"


def test_capacity_skip_sets_identical(grid, instances):
    """The set of capacity-gated cells is exactly the set of scalar
    CapacityError raises over the whole grid."""
    scalar_skips = set()
    for precision in PRECISIONS:
        for inst in instances:
            for d, dev in enumerate(DEVICES):
                for fmt in dev.formats:
                    status, _ = _scalar_cell(inst, fmt, dev, precision)
                    if status == STATUS_CAPACITY_ERROR:
                        scalar_skips.add(
                            (inst.name, dev.name, fmt, precision)
                        )
    assert grid.capacity_skip_set() == scalar_skips
    # The pool must actually exercise the gate (FPGA HBM overflow).
    assert any(s[1] == "Alveo-U280" for s in scalar_skips)


def test_best_per_matches_simulate_best(grid, instances):
    best = grid.best_per()
    for p, precision in enumerate(grid.precisions):
        for i, inst in enumerate(instances):
            for d, dev in enumerate(DEVICES):
                m = oracle.simulate_best(inst, dev, seed=SEED,
                                         precision=precision)
                idx = best[p, i, d]
                if m is None:
                    assert idx == -1, (inst.name, dev.name, precision)
                    continue
                rec = grid.data[idx]
                assert grid.format_names[rec["format"]] == m.format
                assert rec["gflops"] == m.gflops


def test_explicit_format_list_matches_scalar(instances):
    """An explicit ``formats`` list applies to every device and still
    mirrors the scalar path — including non-Table-II formats that refuse
    some matrices (the format_error path)."""
    formats = ["Naive-CSR", "ELL", "DIA", "COO"]
    devices = [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-V100"]]
    grid = simulate_grid(instances, devices, formats=formats)
    saw_format_error = False
    for i, inst in enumerate(instances):
        for d, dev in enumerate(devices):
            lo, hi = grid.device_slices[d]
            for off in range(lo, hi):
                idx = grid.cell_index(0, i, off)
                rec = grid.data[idx]
                fmt = grid.format_names[rec["format"]]
                status, payload = _scalar_cell(inst, fmt, dev, "fp64")
                assert rec["status"] == status
                if status == STATUS_OK:
                    assert rec["gflops"] == payload.gflops
                elif status == STATUS_FORMAT_ERROR:
                    saw_format_error = True
                    assert grid.skip_reasons[idx] == payload
    assert saw_format_error, "pool never exercised a format refusal"


def test_unknown_format_and_precision_rejected(instances):
    with pytest.raises(KeyError):
        simulate_grid(instances[:1], DEVICES[:1], formats=["NOPE"])
    with pytest.raises(ValueError, match="precision"):
        simulate_grid(instances[:1], DEVICES[:1], precisions=("fp16",))


def test_row_of_skipped_cell_raises(grid):
    """Skipped cells have no measurements; asking for their row must
    fail loudly, never return NaNs under a wrapped bottleneck label."""
    skipped = sorted(grid.skip_reasons)
    assert skipped, "pool produced no skipped cells"
    with pytest.raises(ValueError, match="skipped"):
        grid.row(skipped[0])


def test_grid_rows_schema_and_order(grid):
    rows = grid.to_rows()
    assert rows, "grid produced no scored rows"
    first = rows[0]
    for key in ("matrix", "instance", "device", "format", "precision",
                "gflops", "time_s", "watts", "gflops_per_watt",
                "bottleneck", "mem_footprint_mb", "avg_nnz_per_row",
                "skew_coeff", "cross_row_similarity",
                "avg_num_neighbours", "nnz", "n_rows"):
        assert key in first, key
    # Grid order: precision-major, then instance, then device blocks.
    precs = [r["precision"] for r in rows]
    assert precs == sorted(precs, key=list(PRECISIONS).index)


def _outcome(fn, *args, **kwargs):
    """``("ok", result)`` or ``("raised", class, message)``."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (KeyError, ValueError) as exc:  # FormatError is a ValueError
        return ("raised", type(exc), str(exc))


def _assert_python_floats(m):
    for value in (m.gflops, m.time_s, m.watts, m.gflops_per_watt,
                  *m.diagnostics.values()):
        assert type(value) is float, (m, value)
    assert tuple(m.diagnostics) == _DIAG_KEYS


@pytest.mark.parametrize("device_name", sorted(TESTBEDS))
def test_public_entry_points_equal_oracle(instances, device_name):
    """``simulate_spmv`` on every (instance, format, precision) cell of
    one device — its Table-II formats plus the refusing ELL and DIA —
    and ``simulate_best``/``simulate_best_detailed`` on every (instance,
    precision) equal the scalar oracle field for field: Python floats,
    every diagnostics key, exception class and message, and
    ``FormatSkip.capacity``."""
    dev = TESTBEDS[device_name]
    formats = list(dev.formats) + ["ELL", "DIA"]
    for precision in PRECISIONS:
        for inst in instances:
            for fmt in formats:
                got = _outcome(simulate_spmv, inst, fmt, dev, seed=SEED,
                               precision=precision)
                want = _outcome(oracle.simulate_spmv, inst, fmt, dev,
                                seed=SEED, precision=precision)
                assert got == want, (inst.name, fmt, precision)
                if got[0] == "ok":
                    _assert_python_floats(got[1])
            for fmts in (None, formats):
                got = simulate_best_detailed(inst, dev, formats=fmts,
                                             seed=SEED, precision=precision)
                want = oracle.simulate_best_detailed(
                    inst, dev, formats=fmts, seed=SEED, precision=precision
                )
                assert got == want, (inst.name, fmts, precision)
                for skip in got.skipped:
                    assert type(skip.capacity) is bool
                if got.best is not None:
                    _assert_python_floats(got.best)
                assert simulate_best(
                    inst, dev, formats=fmts, seed=SEED, precision=precision
                ) == want.best


def test_empty_format_list_attempts_nothing(instances):
    """``formats=[]`` scores nothing, although ``simulate_grid`` reads an
    empty list as "every device format"."""
    for dev in DEVICES:
        got = simulate_best_detailed(instances[0], dev, formats=[])
        assert got == oracle.simulate_best_detailed(
            instances[0], dev, formats=[]
        )
        assert got.attempted == () and got.best is None


class TestSweepEngines:
    """The pipeline's batched chunk scoring is row-for-row identical to
    the scalar ``spec_rows`` reference in ``tests/oracles/sweep.py``
    (scored by the oracle model) — the property that lets the grid path
    be the only sweep engine."""

    @pytest.fixture(scope="class")
    def dataset(self):
        specs = build_dataset_specs("tiny")[::31]  # strided cross-section
        return Dataset(specs, max_nnz=6_000, name="agree")

    @pytest.mark.parametrize("best_only", [True, False])
    def test_grid_spec_rows_equals_scalar(self, dataset, best_only):
        devices = [TESTBEDS["AMD-EPYC-24"], TESTBEDS["Tesla-A100"],
                   TESTBEDS["Alveo-U280"]]
        reference = []
        for i in range(len(dataset)):
            reference.extend(
                spec_rows(dataset, i, devices, best_only=best_only)
            )
        batched = grid_spec_rows(
            dataset, 0, len(dataset), devices, best_only=best_only
        )
        assert batched == reference

    def test_sweep_batch_equals_scalar_engine(self, dataset):
        devices = [TESTBEDS["INTEL-XEON"]]
        batch = sweep(dataset, devices)
        scalar = scalar_sweep(dataset, devices)
        assert batch.rows == scalar.rows


class TestBestDetailed:
    """simulate_best reports why formats were skipped (satellite: the
    all-formats-fail path must explain itself, not return a bare None)."""

    def test_all_formats_fail_reports_reasons(self):
        inst = _inst(1024, 5, "overflow", seed=3)
        dev = TESTBEDS["Alveo-U280"]
        outcome = simulate_best_detailed(inst, dev)
        assert outcome.best is None
        assert outcome.all_failed
        assert outcome.attempted == ("VSL",)
        assert [s.format for s in outcome.skipped] == ["VSL"]
        assert outcome.skipped[0].capacity
        assert "capacity" in outcome.skipped[0].reason
        assert outcome.skip_reasons["VSL"] == outcome.skipped[0].reason
        # The bare simulate_best keeps its None contract.
        assert simulate_best(inst, dev) is None

    def test_partial_skips_recorded_alongside_best(self):
        inst = _inst(8, 10, "tiny-skewed2", seed=6, skew_coeff=5000.0)
        dev = TESTBEDS["AMD-EPYC-24"]
        outcome = simulate_best_detailed(
            inst, dev, formats=["Naive-CSR", "ELL"]
        )
        assert outcome.best is not None
        assert outcome.best.format == "Naive-CSR"
        assert [s.format for s in outcome.skipped] == ["ELL"]
        assert not outcome.skipped[0].capacity
        assert not outcome.all_failed

    def test_no_formats_attempted_is_not_all_failed(self):
        inst = _inst(4, 5, "x")
        outcome = simulate_best_detailed(
            inst, TESTBEDS["AMD-EPYC-24"], formats=[]
        )
        assert outcome.best is None
        assert not outcome.all_failed
