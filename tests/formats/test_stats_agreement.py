"""Analytic-vs-materialised stats: the golden agreement suite.

Every :class:`~repro.formats.base.SparseFormat` promises
``stats_from_csr(m) == from_csr(m).stats()`` — field for field, and
error for error (same exception type, same message) — because the
scoring path (:meth:`repro.perfmodel.MatrixInstance.format_stats`)
trusts the analytic engine without ever materialising a format.  These
tests enforce that promise over the full testbed x format grid on a
structurally varied instance pool, the archetype fixtures, and the
instance-level cache/density-hook plumbing, whose comparand is the
materialising engine in ``tests/oracles/stats.py``.
"""

import dataclasses

import pytest

from repro.core.generator import MatrixSpec, artificial_matrix_generation
from repro.devices import TESTBEDS
from repro.formats import FORMAT_REGISTRY, FormatError
from repro.formats.base import SparseFormat, get_format
from repro.perfmodel import MatrixInstance
from tests.conftest import empty_matrix
from tests.oracles.stats import materialised_format_stats

ALL_FORMATS = sorted(FORMAT_REGISTRY)
ARCHETYPES = ["tiny", "regular", "skewed", "irregular", "banded"]


def _outcome(fn, *args):
    """(stats, None) on success, (None, (type, message)) on refusal."""
    try:
        return fn(*args), None
    except FormatError as exc:
        return None, (type(exc), str(exc))


def assert_agreement(cls, mat, label):
    ref, ref_err = _outcome(lambda m: cls.from_csr(m).stats(), mat)
    got, got_err = _outcome(cls.stats_from_csr, mat)
    if ref_err is not None or got_err is not None:
        assert got_err == ref_err, (
            f"{label}: error parity broken — materialised raised "
            f"{ref_err}, analytic raised {got_err}"
        )
        return
    for f in dataclasses.fields(ref):
        assert getattr(got, f.name) == getattr(ref, f.name), (
            f"{label}: field {f.name!r} differs — "
            f"analytic {getattr(got, f.name)!r} "
            f"vs materialised {getattr(ref, f.name)!r}"
        )


def _inst(mb, avg, name, seed=0, max_nnz=20_000, **kw):
    spec = MatrixSpec.from_footprint(mb, avg, seed=seed, **kw)
    return MatrixInstance.from_spec(spec, max_nnz=max_nnz, name=name)


@pytest.fixture(scope="module")
def instances():
    """Varied pool covering the paper's structural axes, incl. scaled
    representatives (declared footprint >> representative) that trigger
    the density-correction hook."""
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
    ]


@pytest.mark.parametrize("device_name", sorted(TESTBEDS))
def test_full_testbed_grid_agrees(instances, device_name):
    """Every (instance, format) cell of one testbed device agrees."""
    dev = TESTBEDS[device_name]
    for inst in instances:
        for fmt_name in dev.formats:
            assert_agreement(
                get_format(fmt_name), inst.matrix,
                f"{inst.name} x {device_name} x {fmt_name}",
            )


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
@pytest.mark.parametrize("arch", ARCHETYPES)
def test_archetypes_agree(fmt_name, arch, all_archetypes):
    assert_agreement(
        FORMAT_REGISTRY[fmt_name], all_archetypes[arch],
        f"{arch} x {fmt_name}",
    )


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_empty_matrix_agrees(fmt_name):
    assert_agreement(
        FORMAT_REGISTRY[fmt_name], empty_matrix(6, 9), f"empty x {fmt_name}"
    )


@pytest.mark.parametrize("fmt_name", ALL_FORMATS)
def test_instance_engines_agree(instances, fmt_name):
    """`MatrixInstance.format_stats` returns the stats (or replays the
    failure) of the materialising oracle — including the
    density-corrected VSL estimate on scaled instances."""
    for inst in instances:
        analytic = MatrixInstance(matrix=inst.matrix, spec=inst.spec,
                                  name=inst.name)
        for attempt in range(2):  # second pass replays from the cache
            a, a_err = _outcome(analytic.format_stats, fmt_name)
            m, m_err = _outcome(materialised_format_stats, inst, fmt_name)
            assert a == m and a_err == m_err, (
                f"{inst.name} x {fmt_name} (attempt {attempt})"
            )


def test_density_hook_fires_and_agrees():
    """A scaled rectangular representative takes the `stats_at_density`
    branch; the analytic hook must agree with the materialised one *and*
    differ from the uncorrected stats (proving the branch ran)."""
    # Long rows + a capped representative: declared per-column density is
    # ~50x the representative's, so the correction must kick in.
    inst = _inst(256, 100, "scaled", seed=2, cross_row_sim=0.05,
                 avg_num_neigh=0.05)
    assert inst.scale > 1.5  # genuinely scaled representative
    vsl = get_format("VSL")
    corrected = inst.format_stats("VSL")
    uncorrected = vsl.stats_from_csr(inst.matrix)
    assert corrected != uncorrected
    assert materialised_format_stats(inst, "VSL") == corrected


@pytest.mark.parametrize("declared_cols,corrected", [
    (952, True),    # declared column density 1.0504x the representative's
    (953, False),   # 1.0493x
    (1052, False),  # 0.9506x
    (1053, True),   # 0.9497x
])
def test_density_tolerance_boundary_agrees(declared_cols, corrected):
    """Declared column densities just inside and just outside the 5%
    tolerance take the same branch in the analytic path as in the
    oracle's own copy of the rule."""
    mat = artificial_matrix_generation(1000, 1000, 10, seed=0)
    spec = MatrixSpec(n_rows=1000, n_cols=declared_cols,
                      avg_nnz_per_row=10)
    inst = MatrixInstance(matrix=mat, spec=spec, name="boundary")
    stats = inst.format_stats("VSL")
    assert stats == materialised_format_stats(inst, "VSL")
    assert (stats != get_format("VSL").stats_from_csr(mat)) == corrected


def test_third_party_format_falls_back_to_materialisation():
    """A subclass that never heard of the analytic engine still works:
    the base-class default converts and reduces."""
    from repro.formats.csr import NaiveCSR

    class LegacyFormat(SparseFormat):
        name = "legacy-test"

        @classmethod
        def from_csr(cls, mat):
            return cls(mat)

        def __init__(self, mat):
            self.mat = mat

        def to_csr(self):
            return self.mat

        def spmv(self, x):
            return self.mat.spmv(x)

        def stats(self):
            return NaiveCSR.stats_from_csr(self.mat)

        @property
        def shape(self):
            return self.mat.shape

        @property
        def nnz(self):
            return self.mat.nnz

    mat = empty_matrix(3, 4)
    assert LegacyFormat.stats_from_csr(mat) == LegacyFormat.from_csr(
        mat
    ).stats()
