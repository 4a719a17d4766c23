"""Down-scaled representatives stand for their declared matrix.

Structural statistics measured on a capped-nnz representative stand in
for the full-size matrix (``docs/cold_path.md``, "Representatives"):
scale-free features survive the down-scaling, the representative stays
inside the declared matrix, and its declared-scale nonzeros and
footprint match a full-size build.
"""

import pytest

from repro.core.feature_space import build_dataset_specs
from repro.core.features import extract_features
from repro.core.generator import MatrixSpec, structure_batch
from repro.perfmodel.instance import MatrixInstance


def _declared_longest(spec):
    """The longest row ``row_length_profile`` pins at declared scale."""
    return min(
        spec.n_cols,
        int(round(spec.avg_nnz_per_row * (1.0 + spec.skew_coeff))),
    )


@pytest.mark.parametrize(
    "avg,skew,sim,neigh",
    [
        (20, 0, 0.5, 1.0),
        (10, 100, 0.8, 1.4),
        (50, 0, 0.05, 0.05),
    ],
)
def test_representative_preserves_scale_free_features(avg, skew, sim, neigh):
    spec = MatrixSpec.from_footprint(
        128.0, avg, skew_coeff=skew, cross_row_sim=sim,
        avg_num_neigh=neigh, seed=5,
    )
    big = spec.representative(max_nnz=400_000).build()
    small = spec.representative(max_nnz=60_000).build()
    fb, fs = extract_features(big), extract_features(small)
    assert fs.avg_nnz_per_row == pytest.approx(fb.avg_nnz_per_row, rel=0.12)
    assert fs.cross_row_similarity == pytest.approx(
        fb.cross_row_similarity, abs=0.08
    )
    assert fs.avg_num_neighbours == pytest.approx(
        fb.avg_num_neighbours, abs=0.12
    )


def test_representative_noop_when_small():
    spec = MatrixSpec(n_rows=100, n_cols=100, avg_nnz_per_row=5)
    assert spec.representative(max_nnz=10_000) is spec


def test_representative_keeps_columns_for_skew_head():
    spec = MatrixSpec.from_footprint(512.0, 5, skew_coeff=10000, seed=1)
    rep = spec.representative(max_nnz=100_000)
    # The pinned maximum row (avg * (1 + skew)) must still fit.
    assert rep.n_cols >= 5 * 10001


def test_representative_row_floor():
    spec = MatrixSpec.from_footprint(2048.0, 500, seed=2)
    rep = spec.representative(max_nnz=1000)
    assert rep.n_rows >= 256


def test_declared_footprint_survives_scaling():
    spec = MatrixSpec.from_footprint(256.0, 20, seed=3)
    inst = MatrixInstance.from_spec(spec, max_nnz=50_000)
    assert inst.features.mem_footprint_mb == pytest.approx(256.0, rel=0.1)
    assert inst.matrix.nnz <= 80_000  # actually down-scaled


@pytest.mark.parametrize("max_nnz", [80_000, 100_000])
@pytest.mark.parametrize("preset", ["tiny", "small"])
def test_representative_inside_declared_matrix(preset, max_nnz):
    """No representative is wider or taller than its declared matrix,
    and each has rows enough that ``avg * rows`` holds the declared
    longest row (a head row cannot outweigh the whole representative)."""
    specs = build_dataset_specs(preset)
    reps = [(spec, spec.representative(max_nnz)) for spec in specs]
    wider = [s for s, r in reps if r.n_cols > s.n_cols]
    taller = [s for s, r in reps if r.n_rows > s.n_rows]
    head_heavy = [
        s for s, r in reps
        if r.avg_nnz_per_row * r.n_rows < _declared_longest(s)
    ]
    assert (len(wider), len(taller), len(head_heavy)) == (0, 0, 0), (
        wider[:3], taller[:3], head_heavy[:3]
    )


# Every tiny spec small enough to build at full size that still gets a
# down-scaled representative at this cap: 56 specs, 30 whose longest
# row's 4x placement window fits the declared columns.
FULL_SIZE_CAP = 80_000
FULL_SIZE_SPECS = [
    spec for spec in build_dataset_specs("tiny")
    if FULL_SIZE_CAP < spec.nnz_estimate <= 2_500_000
]


@pytest.fixture(scope="module")
def full_size_comparison():
    """``(spec, instance, full-size nnz)`` for every full-size spec."""
    return [
        (spec, MatrixInstance.from_spec(spec, max_nnz=FULL_SIZE_CAP),
         int(structure_batch([spec]).nnz[0]))
        for spec in FULL_SIZE_SPECS
    ]


def test_measured_longest_row_fits_declared_columns(full_size_comparison):
    too_long = [
        (spec, inst.features.max_nnz_per_row)
        for spec, inst, _ in full_size_comparison
        if inst.features.max_nnz_per_row > spec.n_cols
    ]
    assert not too_long, too_long


@pytest.mark.parametrize("head_fills_window,rel", [(False, 0.10),
                                                   (True, 0.30)])
def test_representative_matches_full_size_build(full_size_comparison,
                                                head_fills_window, rel):
    """Declared-scale nonzeros per row and footprint, as
    ``MatrixInstance`` derives them from the representative, match the
    full-size build: within 10% when the longest row's 4x placement
    window fits the declared columns, within 30% when the head row fills
    its window at full size (the nonzeros its collisions lose are a far
    larger share of the representative than of the full matrix)."""
    off = []
    checked = 0
    for spec, inst, full_nnz in full_size_comparison:
        if (4 * _declared_longest(spec) > spec.n_cols) != head_fills_window:
            continue
        checked += 1
        full_fp = (full_nnz * 12.0 + (spec.n_rows + 1) * 4.0) / 1024**2
        per_row = (inst.nnz / inst.n_rows) / (full_nnz / spec.n_rows)
        footprint = inst.features.mem_footprint_mb / full_fp
        if abs(per_row - 1) > rel or abs(footprint - 1) > rel:
            off.append((spec, round(per_row, 3), round(footprint, 3)))
    assert checked == (26 if head_fills_window else 30)
    assert not off, off
