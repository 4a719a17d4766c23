"""Property-based feature-extraction tests: bounds and invariances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import cross_row_similarity, extract_features
from repro.core.generator import artificial_matrix_generation
from repro.core.matrix import CSRMatrix, csr_from_coo

from tests.oracles import features as oracle


@st.composite
def random_csr(draw):
    n_rows = draw(st.integers(1, 30))
    n_cols = draw(st.integers(1, 30))
    nnz = draw(st.integers(0, 80))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    return csr_from_coo(
        n_rows, n_cols,
        rng.integers(0, n_rows, nnz), rng.integers(0, n_cols, nnz),
        rng.uniform(0.5, 1.5, nnz),
    )


@st.composite
def generated_csr(draw):
    n = draw(st.integers(40, 2000))
    return artificial_matrix_generation(
        n, n, draw(st.floats(1.0, 30.0)),
        cross_row_sim=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@given(mat=random_csr())
@settings(max_examples=60, deadline=None)
def test_feature_bounds(mat):
    f = extract_features(mat)
    assert f.mem_footprint_mb >= 0
    assert f.avg_nnz_per_row >= 0
    assert f.skew_coeff >= 0
    assert 0.0 <= f.cross_row_similarity <= 1.0
    assert 0.0 <= f.avg_num_neighbours <= 2.0
    assert 0.0 <= f.empty_row_fraction <= 1.0
    assert 0.0 <= f.bandwidth_scaled <= 1.0
    assert f.min_nnz_per_row <= f.avg_nnz_per_row <= f.max_nnz_per_row


@given(mat=random_csr(), factor=st.floats(0.1, 10.0))
@settings(max_examples=40, deadline=None)
def test_features_invariant_to_value_scaling(mat, factor):
    """Structural features only see the pattern, never the values."""
    scaled = CSRMatrix(
        mat.n_rows, mat.n_cols, mat.indptr.copy(), mat.indices.copy(),
        mat.data * factor,
    )
    a = extract_features(mat)
    b = extract_features(scaled)
    assert a == b


@given(mat=random_csr())
@settings(max_examples=40, deadline=None)
def test_skew_consistent_with_row_lengths(mat):
    f = extract_features(mat)
    if f.avg_nnz_per_row > 0:
        expected = (
            f.max_nnz_per_row - f.avg_nnz_per_row
        ) / f.avg_nnz_per_row
        assert abs(f.skew_coeff - expected) < 1e-9


@given(
    n=st.integers(2, 20),
    width=st.integers(1, 10),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_identical_banded_rows_are_fully_similar(n, width, seed):
    """A matrix whose rows all store the same columns has cross-row
    similarity exactly 1 and zero skew."""
    rng = np.random.default_rng(seed)
    n_cols = width + 5
    cols = np.sort(rng.choice(n_cols, size=width, replace=False))
    rows = np.repeat(np.arange(n), width)
    mat = csr_from_coo(
        n, n_cols, rows, np.tile(cols, n), np.ones(n * width)
    )
    f = extract_features(mat)
    assert f.cross_row_similarity == 1.0
    assert f.skew_coeff == 0.0


@given(mat=st.one_of(random_csr(), generated_csr()),
       distance=st.integers(0, 4))
@settings(max_examples=90, deadline=None)
def test_cross_row_similarity_matches_add_at_oracle(mat, distance):
    """The weighted ``bincount`` of per-row hits gives the ``np.add.at``
    form's feature bit for bit."""
    assert cross_row_similarity(mat, distance) == (
        oracle.cross_row_similarity(mat, distance)
    )
