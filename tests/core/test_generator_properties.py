"""Property-based generator tests: every parameter corner yields valid CSR
with in-range measured features, and the row-length profile equals its
full-length oracle bit for bit."""

import math

import numpy as np
import pytest
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
    """``row_length_profile`` arguments, minus the RNG, in one of eight
    corners, each with every distribution but ``tail``:

    * ``body`` — a requested maximum at most the body's natural
      ``avg + 3 std``, so no head;
    * ``head`` — a maximum above it, below ``n_cols``;
    * ``capped`` — ``avg * (1 + skew) >= n_cols``;
    * ``flat`` — ``std`` 0 (the constant gamma body, a head from any
      rounding up of the maximum);
    * ``empty`` — ``avg`` 0;
    * ``clamped`` — a head so flat that its cutoff row
      ``n * ln(2 * max) / C + 2`` is clamped at ``n_rows``;
    * ``stuck`` — skew 0 and an integer ``avg``, so most rows round to
      the cap ``avg`` (as in a declared avg-10/skew-0 spec) and a
      deficit's movable rows are the minority;
    * ``tail`` — over 10,000 rows and a normal or uniform body with
      ``std >= avg`` and no head: its clip at 0 leaves a residual above
      2% of the rows, so ``Generator.choice`` shuffles the tail of an
      ``arange`` instead of running Floyd's algorithm.
    """
    corner = draw(st.sampled_from(
        ["body", "head", "capped", "flat", "empty", "clamped", "stuck",
         "tail"]
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
    elif corner == "stuck":
        avg, skew = float(draw(st.integers(1, 50))), 0.0
        std = draw(st.floats(0.02, 0.5)) * avg
        n_cols = max(n_cols, math.ceil(avg + 3.0 * std))
    elif corner == "tail":
        n_rows = draw(st.integers(10_002, 40_000))
        dist = draw(st.sampled_from(["normal", "uniform"]))
        avg = draw(st.floats(1.0, 50.0))
        std = draw(st.floats(1.0, 1.5)) * avg
        skew = draw(st.floats(0.0, 3.0 * std / avg))
        n_cols = max(n_cols, math.ceil(avg + 3.0 * std))
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


@given(args=_profile_requests(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_row_length_profile_total_is_exact_given_headroom(args, seed):
    """Row 0 holds the pinned maximum, and the residual pass misses
    ``round(avg * n_rows)`` only once rows ``1..n-1`` have no headroom
    left in its direction: all at the cap for a deficit, all empty for
    a surplus (vacuously so with one row)."""
    n_rows, n_cols, avg, std, skew, dist = args
    lengths = row_length_profile(n_rows, n_cols, avg, std, skew,
                                 np.random.default_rng(seed), dist)
    if avg <= 0:
        assert not lengths.any()
        return
    target_max = min(n_cols, max(1, round(avg * (1.0 + skew))))
    assert target_max <= lengths[0] <= n_cols
    total, target = int(lengths.sum()), round(avg * n_rows)
    if total < target:
        assert np.all(lengths[1:] >= target_max)
    elif total > target:
        assert not lengths[1:].any()


@pytest.mark.parametrize("args, want", [
    # One row: nothing but the pinned row 0 to spread a residual over.
    ((1, 100, 5.4, 0.54, 0.0), [7]),
    # Every row capped at n_cols = 3: 12 of the 40 requested.
    ((4, 3, 10.0, 1.0, 0.0), [3, 3, 3, 3]),
])
def test_row_length_profile_total_stops_short_without_headroom(args, want):
    lengths = row_length_profile(*args, np.random.default_rng(3))
    assert lengths.tolist() == want
    assert lengths.sum() != round(args[2] * args[0])


class _RecordingRng:
    """A ``Generator`` that records the population and sample size of
    each ``choice`` call."""

    def __init__(self, seed):
        self._rng = np.random.default_rng(seed)
        self.choices = []

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def choice(self, a, size, replace):
        self.choices.append((a, size))
        return self._rng.choice(a, size=size, replace=replace)


@pytest.mark.parametrize("corner, args, seed", [
    ("stuck", (3000, 100, 10.0, 1.0, 0.0, "normal"), 0),
    ("tail", (20_000, 1000, 5.0, 7.5, 0.0, "normal"), 0),
])
def test_corners_reach_their_residual_draws(corner, args, seed):
    """Inputs of the ``stuck`` corner draw the residual among a minority
    of movable rows, and those of the ``tail`` corner draw it by
    ``Generator.choice``'s tail shuffle (population above 10,000, sample
    above 1/50 of it); both still equal the oracle."""
    rng = _RecordingRng(seed)
    row_length_profile(*args[:5], rng, args[5])
    (population, size), *_ = rng.choices
    if corner == "stuck":
        assert population < (args[0] - 1) / 2
    else:
        assert population > 10_000 and size > population // 50
    _assert_profile_matches_oracle(args, seed)
