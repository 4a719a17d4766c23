"""Hypothesis property tests for simulator invariants shared by the
historical scalar simulator (``tests/oracles/model.py``) and the grid.

Each property is asserted on *both* engines for the same randomly
generated instance, so a violation pinpoints whether the model or the
vectorisation broke it: more bandwidth can never slow SpMV down, fp32 on
a cache-resident working set buys exactly 1x in gather-bound GPU cells
and otherwise strictly more than 1x and at most 2x, the measured
imbalance factor is >= 1, noise is reproducible per seed, and the
capacity gate trips identically in both paths.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.generator import MatrixSpec, artificial_matrix_generation
from repro.devices import TESTBEDS
from repro.formats.base import CapacityError, FormatError
from repro.perfmodel import MatrixInstance, noise_factors, simulate_grid
from repro.perfmodel.batch import STATUS_CAPACITY_ERROR, STATUS_OK
from repro.perfmodel.noise import component_hash

from tests.oracles.model import (
    measurement_noise, simulate_spmv, x_access_model,
)

DEVICE_NAMES = sorted(TESTBEDS)

# Formats every testbed-relevant matrix can host, spanning row-block,
# nnz-balanced and SIMD-friendly partitioning.
SAFE_FORMATS = ("Naive-CSR", "COO", "Merge-CSR", "SELL-C-s")


@st.composite
def small_instances(draw):
    """Small fully-materialised instances (cache-resident by
    construction: a few hundred rows never leaves any testbed's LLC)."""
    n = draw(st.integers(50, 400))
    avg = draw(st.floats(2.0, 12.0))
    skew = draw(st.floats(0.0, 50.0))
    sim = draw(st.floats(0.0, 1.0))
    neigh = draw(st.floats(0.0, 2.0))
    seed = draw(st.integers(0, 2**31 - 1))
    mat = artificial_matrix_generation(
        n, n, avg, skew_coeff=skew, cross_row_sim=sim,
        avg_num_neigh=neigh, seed=seed,
    )
    assume(mat.nnz > 0)
    return MatrixInstance.from_matrix(mat, name=f"prop-{seed}")


def _cell(inst, fmt, dev, **kw):
    """Oracle + grid measurement of one cell (noise off by default)."""
    kw.setdefault("noise_sigma", 0.0)
    scalar = simulate_spmv(inst, fmt, dev, **kw)
    grid = simulate_grid(
        [inst], [dev], formats=[fmt],
        precisions=(kw.get("precision", "fp64"),),
        seed=kw.get("seed", 0), noise_sigma=kw["noise_sigma"],
    )
    rec = grid.data[0]
    assert rec["status"] == STATUS_OK
    return scalar, rec


@given(inst=small_instances(), device=st.sampled_from(DEVICE_NAMES),
       fmt=st.sampled_from(SAFE_FORMATS), factor=st.floats(1.1, 8.0))
@settings(max_examples=20, deadline=None)
def test_time_monotone_in_bandwidth(inst, device, fmt, factor):
    """Scaling LLC+DRAM bandwidth up never increases execution time."""
    dev = TESTBEDS[device]
    fast = dataclasses.replace(
        dev, llc_bw_gbs=dev.llc_bw_gbs * factor,
        dram_bw_gbs=dev.dram_bw_gbs * factor,
    )
    try:
        base_scalar, base_rec = _cell(inst, fmt, dev)
        fast_scalar, fast_rec = _cell(inst, fmt, fast)
    except FormatError:
        assume(False)
    assert fast_scalar.time_s <= base_scalar.time_s
    assert fast_rec["time_s"] <= base_rec["time_s"]


@given(inst=small_instances(), device=st.sampled_from(DEVICE_NAMES),
       fmt=st.sampled_from(SAFE_FORMATS))
@settings(max_examples=20, deadline=None)
def test_fp32_speedup_in_unit_interval(inst, device, fmt):
    """On a cache-resident working set fp32 buys exactly 1x in GPU cells
    whose gather pass paces the kernel, and strictly more than 1x (values
    halve) and at most 2x (index metadata does not shrink, the compute
    peak only doubles) everywhere else."""
    dev = TESTBEDS[device]
    try:
        f64_scalar, f64_rec = _cell(inst, fmt, dev, precision="fp64")
        f32_scalar, f32_rec = _cell(inst, fmt, dev, precision="fp32")
    except FormatError:
        assume(False)
    gather_bound = _gather_bound(inst, dev, f64_rec)
    for f64_t, f32_t in ((f64_scalar.time_s, f32_scalar.time_s),
                         (f64_rec["time_s"], f32_rec["time_s"])):
        speedup = f64_t / f32_t
        if gather_bound:
            assert speedup == 1.0, speedup
        else:
            assert 1.0 < speedup <= 2.0, speedup


def _gather_bound(inst, dev, f64_rec) -> bool:
    """A GPU cell whose neighbour feature is 0 and whose ``t_gather``
    exceeds both ``t_stream`` and ``t_comp`` at fp64.

    With no neighbours the spatial hit rate is 0, so every gather pulls a
    full sector at either precision and ``t_gather`` does not shrink
    under fp32; when it also paces the kernel (``t_mem = max(t_stream,
    t_gather)``), fp32 buys nothing.
    """
    feats = inst.features
    if not dev.is_gpu or feats.avg_num_neighbours != 0:
        return False
    gather = x_access_model(
        dev, inst.nnz, inst.n_cols, feats.avg_num_neighbours,
        feats.cross_row_similarity,
    ).gather_bytes / (dev.llc_bw_gbs * 0.35 * 1e9)
    # t_mem = max(t_stream, t_gather) on GPUs.
    return f64_rec["t_mem"] == gather and gather > f64_rec["t_comp"]


@pytest.mark.parametrize("device", ["Tesla-V100", "Tesla-P100"])
def test_fp32_buys_nothing_in_gather_bound_gpu_cell(device):
    """A deterministic gather-bound cell: 50 rows of 2 nonzeros, none of
    them adjacent, on a GPU with Naive-CSR."""
    mat = artificial_matrix_generation(
        50, 50, 2.0, skew_coeff=0.0, cross_row_sim=1.0,
        avg_num_neigh=0.0, seed=2147483646,
    )
    inst = MatrixInstance.from_matrix(mat, name="gather-bound")
    dev = TESTBEDS[device]
    f64_scalar, f64_rec = _cell(inst, "Naive-CSR", dev, precision="fp64")
    f32_scalar, f32_rec = _cell(inst, "Naive-CSR", dev, precision="fp32")
    assert _gather_bound(inst, dev, f64_rec)
    assert f64_scalar.time_s / f32_scalar.time_s == 1.0
    assert f64_rec["time_s"] / f32_rec["time_s"] == 1.0


@given(inst=small_instances(), device=st.sampled_from(DEVICE_NAMES),
       fmt=st.sampled_from(SAFE_FORMATS))
@settings(max_examples=20, deadline=None)
def test_imbalance_factor_at_least_one(inst, device, fmt):
    dev = TESTBEDS[device]
    try:
        scalar, rec = _cell(inst, fmt, dev)
    except FormatError:
        assume(False)
    assert scalar.diagnostics["imbalance"] >= 1.0
    assert rec["imbalance"] >= 1.0
    assert rec["imbalance"] == scalar.diagnostics["imbalance"]


@given(inst=small_instances(), device=st.sampled_from(DEVICE_NAMES),
       fmt=st.sampled_from(SAFE_FORMATS), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_noise_reproducible_per_seed(inst, device, fmt, seed):
    """Same seed -> bit-identical measurement, in and across both paths."""
    dev = TESTBEDS[device]
    try:
        a_scalar, a_rec = _cell(inst, fmt, dev, seed=seed,
                                noise_sigma=None)
        b_scalar, b_rec = _cell(inst, fmt, dev, seed=seed,
                                noise_sigma=None)
    except FormatError:
        assume(False)
    assert a_scalar.gflops == b_scalar.gflops
    assert a_rec["gflops"] == b_rec["gflops"]
    assert a_rec["gflops"] == a_scalar.gflops


@given(seed=st.integers(0, 2**63 - 1),
       parts=st.tuples(st.text(max_size=8), st.text(max_size=8),
                       st.text(max_size=8)))
@settings(max_examples=50, deadline=None)
def test_noise_scalar_equals_vectorised(seed, parts):
    """The oracle's scalar measurement_noise and noise_factors are one
    distribution: the Python-int mirror and the uint64 array path agree
    bitwise."""
    d, f, m = parts
    scalar = measurement_noise(d, f, m, seed)
    vec = noise_factors(
        np.array([component_hash(d)], dtype=np.uint64),
        np.array([component_hash(f)], dtype=np.uint64),
        np.array([component_hash(m)], dtype=np.uint64),
        seed=seed,
    )
    assert scalar == float(vec[0])


@given(mb=st.floats(1.0, 2048.0), avg=st.floats(3.0, 60.0),
       seed=st.integers(0, 2**31 - 1),
       precision=st.sampled_from(["fp64", "fp32"]))
@settings(max_examples=15, deadline=None)
def test_capacity_gate_consistent_between_paths(mb, avg, seed, precision):
    """The FPGA's HBM gate trips in the batched path exactly when the
    scalar path raises CapacityError, with the same message."""
    spec = MatrixSpec.from_footprint(mb, avg, seed=seed)
    inst = MatrixInstance.from_spec(spec, max_nnz=5_000,
                                    name=f"cap-{seed}")
    dev = TESTBEDS["Alveo-U280"]
    try:
        scalar = simulate_spmv(inst, "VSL", dev, precision=precision)
        scalar_status, reason = STATUS_OK, None
    except CapacityError as exc:
        scalar_status, reason = STATUS_CAPACITY_ERROR, str(exc)
    except FormatError:
        assume(False)
    grid = simulate_grid([inst], [dev], precisions=(precision,))
    rec = grid.data[0]
    assert rec["status"] == scalar_status
    if scalar_status == STATUS_CAPACITY_ERROR:
        assert grid.skip_reasons[0] == reason
    else:
        assert rec["gflops"] == scalar.gflops
