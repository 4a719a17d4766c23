"""Single-precision extension (the paper's deferred future work)."""

import pytest

from repro.core.generator import MatrixSpec
from repro.devices import TESTBEDS
from repro.perfmodel import MatrixInstance, simulate_best, simulate_spmv
from repro.perfmodel.batch import PRECISIONS


@pytest.fixture(scope="module")
def inst():
    spec = MatrixSpec.from_footprint(
        64, 50, skew_coeff=2, cross_row_sim=0.6, avg_num_neigh=1.0, seed=21
    )
    return MatrixInstance.from_spec(spec, max_nnz=80_000, name="prec")


def test_known_precisions():
    assert set(PRECISIONS) == {"fp64", "fp32"}


def test_unknown_precision_rejected(inst):
    with pytest.raises(ValueError, match="precision"):
        simulate_spmv(inst, "Naive-CSR", TESTBEDS["INTEL-XEON"],
                      precision="fp16")


@pytest.mark.parametrize(
    "device", ["AMD-EPYC-64", "Tesla-A100", "Alveo-U280"]
)
def test_fp32_speedup_bounded(inst, device):
    """fp32 halves value traffic but not index metadata, so the
    memory-bound speedup lies strictly between 1x and 2x."""
    dev = TESTBEDS[device]
    f64 = simulate_best(inst, dev, noise_sigma=0.0, precision="fp64")
    f32 = simulate_best(inst, dev, noise_sigma=0.0, precision="fp32")
    speedup = f32.gflops / f64.gflops
    assert 1.0 < speedup < 2.0


def test_fp32_helps_value_heavy_formats_most(inst):
    """COO carries 8 metadata bytes per nonzero vs CSR's ~4, so CSR's
    value fraction is higher and fp32 buys it more."""
    dev = TESTBEDS["AMD-EPYC-24"]

    def speedup(fmt):
        f64 = simulate_spmv(inst, fmt, dev, noise_sigma=0.0,
                            precision="fp64")
        f32 = simulate_spmv(inst, fmt, dev, noise_sigma=0.0,
                            precision="fp32")
        return f32.gflops / f64.gflops

    # COO is not in the EPYC format list but is still simulatable.
    assert speedup("Naive-CSR") > speedup("COO")


def test_fp32_capacity_gate_relaxes():
    """A matrix that overflows the FPGA in fp64 can fit in fp32."""
    spec = MatrixSpec.from_footprint(470, 100, seed=9)
    inst = MatrixInstance.from_spec(spec, max_nnz=80_000, name="cap")
    dev = TESTBEDS["Alveo-U280"]
    f64_bytes = inst.format_stats("VSL").memory_bytes * inst.scale
    # Only meaningful if fp64 sits near the 4 GiB matrix budget.
    if f64_bytes > dev.matrix_capacity_bytes:
        assert simulate_best(inst, dev, precision="fp32") is not None
