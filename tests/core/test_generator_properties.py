"""Property-based generator tests: every parameter corner yields valid CSR
with in-range measured features, and the row-length profile equals its
full-length oracle bit for bit."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.features import extract_features
from repro.core.generator import (
    artificial_matrix_generation, row_length_profile,
)

from tests.oracles import generator as oracle


@given(
    n=st.integers(10, 400),
    avg=st.floats(1.0, 12.0),
    skew=st.sampled_from([0.0, 10.0, 100.0]),
    sim=st.floats(0.0, 1.0),
    neigh=st.floats(0.0, 2.0),
    bw=st.floats(0.05, 1.0),
    seed=st.integers(0, 2**31 - 1),
    method=st.sampled_from(["chain", "rowwise"]),
)
@settings(max_examples=40, deadline=None)
def test_generator_always_valid(n, avg, skew, sim, neigh, bw, seed, method):
    m = artificial_matrix_generation(
        n, n, avg, skew_coeff=skew, bw_scaled=bw,
        cross_row_sim=sim, avg_num_neigh=neigh, seed=seed, method=method,
    )
    m.validate()
    assert m.shape == (n, n)
    assert m.has_sorted_indices()
    f = extract_features(m)
    assert 0.0 <= f.cross_row_similarity <= 1.0
    assert 0.0 <= f.avg_num_neighbours <= 2.0
    assert f.skew_coeff >= 0.0
    assert 0.0 <= f.bandwidth_scaled <= 1.0


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=15, deadline=None)
def test_nnz_close_to_request(seed):
    m = artificial_matrix_generation(1500, 1500, 10, seed=seed)
    # Chain dedup loses a small fraction; never overshoots wildly.
    assert 0.8 * 15000 <= m.nnz <= 1.2 * 15000


@st.composite
def _profile_requests(draw):
    """``row_length_profile`` arguments, minus the RNG, in one of six
    corners, each with every distribution:

    * ``body`` — a requested maximum at most the body's natural
      ``avg + 3 std``, so no head;
    * ``head`` — a maximum above it, below ``n_cols``;
    * ``capped`` — ``avg * (1 + skew) >= n_cols``;
    * ``flat`` — ``std`` 0 (the constant gamma body, a head from any
      rounding up of the maximum);
    * ``empty`` — ``avg`` 0;
    * ``clamped`` — a head so flat that its cutoff row
      ``n * ln(2 * max) / C + 2`` is clamped at ``n_rows``.
    """
    corner = draw(st.sampled_from(
        ["body", "head", "capped", "flat", "empty", "clamped"]
    ))
    n_rows = draw(st.integers(1, 3000))
    dist = draw(st.sampled_from(["normal", "uniform", "gamma"]))
    avg = draw(st.floats(0.1, 300.0))
    std = draw(st.floats(0.01, 1.5)) * avg
    skew = draw(st.floats(0.0, 10_000.0))
    n_cols = draw(st.integers(1, 100_000))
    if corner == "body":
        skew = draw(st.floats(0.0, 3.0 * std / avg))
        n_cols = max(n_cols, math.ceil(avg + 3.0 * std))
    elif corner == "head":
        skew = 3.0 * std / avg + draw(st.floats(1.0, 10_000.0))
        n_cols = draw(st.integers(math.ceil(avg * (1.0 + skew)) + 1,
                                  10**7))
    elif corner == "capped":
        n_cols = draw(st.integers(1, max(1, math.floor(avg * (1.0 + skew)))))
    elif corner == "flat":
        std = 0.0
    elif corner == "empty":
        avg = 0.0
    elif corner == "clamped":
        # ln(2 * max) >= C = 10 * (1 + skew) once max >= 18,200 here.
        std, skew = 0.0, draw(st.floats(0.0, 0.05))
        avg = draw(st.integers(18_200, 60_000)) - 0.25
        n_cols = draw(st.integers(math.ceil(avg * 1.06), 10**6))
    return n_rows, n_cols, avg, std, skew, dist


def _assert_profile_matches_oracle(args, seed):
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = row_length_profile(*args[:5], rng, args[5])
    want = oracle.row_length_profile(*args[:5], ref_rng, args[5])
    assert got.dtype == want.dtype
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@given(args=_profile_requests(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_row_length_profile_matches_oracle(args, seed):
    """Production evaluates the head on its first rows only and works in
    place; values, dtype and the RNG state it leaves equal the
    full-length oracle's."""
    _assert_profile_matches_oracle(args, seed)


def test_row_length_profile_matches_oracle_at_declared_scale():
    """The heaviest declared-scale profile a sweep regenerates: 2M rows,
    avg 500, skew 10000."""
    _assert_profile_matches_oracle(
        (2_000_000, 2_000_000, 500.0, 50.0, 10_000.0, "normal"), seed=7
    )
