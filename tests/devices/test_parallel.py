"""Partitioners: conservation, factor bounds and strategy-specific shape."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.devices import TESTBEDS
from repro.devices.parallel import (
    PARTITION_STRATEGIES,
    RowProfile,
    element_balanced,
    imbalance_for_strategy,
    lockstep_channel_imbalance,
    merge_path_imbalance,
    nnz_balanced_rows,
    nnz_split,
    row_block_partition,
    sell_chunk_imbalance,
    sell_chunk_widths,
    warp_per_row,
)

from tests.oracles import model as oracle

# Large enough that tile/diagonal granularity effects are negligible.
UNIFORM = np.full(16384, 10, dtype=np.int64)


def _skewed(n=8192, heavy=50_000, base=5):
    lengths = np.full(n, base, dtype=np.int64)
    lengths[0] = heavy
    return lengths


class TestUniformLoads:
    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_uniform_is_nearly_balanced(self, strategy):
        stats = imbalance_for_strategy(strategy, UNIFORM, 16)
        assert 1.0 <= stats.factor <= 1.1


class TestSkewedLoads:
    def test_row_block_suffers(self):
        stats = row_block_partition(_skewed(), 16)
        assert stats.factor > 5.0

    def test_nnz_balanced_bounded_by_heavy_row(self):
        lengths = _skewed()
        stats = nnz_balanced_rows(lengths, 16)
        ideal = lengths.sum() / 16
        # The heavy row cannot be split: factor ~ heavy / ideal.
        assert stats.factor == pytest.approx(50_000 / ideal, rel=0.15)

    def test_merge_path_immune(self):
        stats = merge_path_imbalance(_skewed(), 16)
        assert stats.factor < 1.01

    def test_element_balanced_immune(self):
        stats = element_balanced(_skewed(), 16)
        assert stats.factor == 1.0

    def test_nnz_split_nearly_immune(self):
        stats = nnz_split(_skewed(), 16)
        assert stats.factor < 1.5

    def test_warp_row_bounded_by_longest(self):
        stats = warp_per_row(_skewed(), 64, simd_width=32)
        # Longest row alone: ceil(50000/32) cycles dominates.
        assert stats.max_load >= 50_000 / 32

    def test_lockstep_concentrates_on_one_channel(self):
        stats = lockstep_channel_imbalance(_skewed(), 16)
        assert stats.factor > 3.0  # the FPGA's Fig 5 sensitivity

    def test_ordering_matches_design(self):
        """Balance-aware strategies must beat naive row blocks on skew."""
        lengths = _skewed()
        naive = row_block_partition(lengths, 16).factor
        for strategy in ("merge_path", "nnz_split", "element"):
            assert (
                imbalance_for_strategy(strategy, lengths, 16).factor < naive
            )


class TestSellChunks:
    def test_sorting_scope_helps(self):
        rng = np.random.default_rng(3)
        lengths = rng.integers(1, 100, 2048)
        local = sell_chunk_imbalance(lengths, 8, C=16, sigma=16)
        scoped = sell_chunk_imbalance(lengths, 8, C=16, sigma=1024)
        # Snake dealing keeps both well balanced; wider sorting scope must
        # not make things worse.
        assert local.factor <= 1.15
        assert scoped.factor <= local.factor + 0.1


class TestEdgeCases:
    @pytest.mark.parametrize("strategy", sorted(PARTITION_STRATEGIES))
    def test_empty_profile(self, strategy):
        stats = imbalance_for_strategy(
            strategy, np.zeros(0, dtype=np.int64), 8
        )
        assert stats.factor == 1.0

    def test_unknown_strategy(self):
        with pytest.raises(KeyError, match="unknown partition"):
            imbalance_for_strategy("quantum", UNIFORM, 4)

    def test_single_worker(self):
        stats = row_block_partition(_skewed(), 1)
        assert stats.factor == 1.0


@given(
    lengths=st.lists(st.integers(0, 200), min_size=1, max_size=400),
    workers=st.integers(1, 64),
)
@settings(max_examples=50, deadline=None)
def test_factor_at_least_one_everywhere(lengths, workers):
    arr = np.array(lengths, dtype=np.int64)
    for strategy in PARTITION_STRATEGIES:
        stats = imbalance_for_strategy(strategy, arr, workers)
        assert stats.factor >= 1.0
        assert np.isfinite(stats.factor)


@given(
    lengths=st.lists(st.integers(0, 200), min_size=1, max_size=400),
    workers=st.integers(1, 64),
)
@settings(max_examples=50, deadline=None)
def test_contiguous_partitions_conserve_work(lengths, workers):
    arr = np.array(lengths, dtype=np.int64)
    for fn in (row_block_partition, nnz_balanced_rows):
        stats = fn(arr, workers)
        if arr.sum():
            assert stats.mean_load * stats.n_workers == pytest.approx(
                arr.sum(), rel=1e-9
            )


@given(
    lengths=st.lists(st.integers(0, 3000), min_size=1, max_size=3000),
    workers=st.integers(1, 64),
    layout=st.sampled_from([(32, 1024), (4, 16), (8, 8), (16, 48)]),
)
@settings(max_examples=60, deadline=None)
def test_sell_twin_matches_reference(lengths, workers, layout):
    """The SELL partitioner and its chunk widths equal the per-window
    reference loop bit for bit, full and partial tail windows alike."""
    C, sigma = layout
    arr = np.array(lengths, dtype=np.int64)
    ref = oracle.sell_chunk_imbalance(arr, workers, C=C, sigma=sigma)
    assert sell_chunk_imbalance(arr, workers, C=C, sigma=sigma) == ref
    widths = sell_chunk_widths(arr, C=C, sigma=sigma)
    assert widths.dtype == np.int64
    srt = arr.copy()
    for w0 in range(0, len(arr), sigma):
        srt[w0:w0 + sigma] = np.sort(srt[w0:w0 + sigma])[::-1]
    padded = np.zeros(-(-len(arr) // C) * C, dtype=np.int64)
    padded[:len(arr)] = srt
    np.testing.assert_array_equal(widths, padded.reshape(-1, C).max(axis=1))


@pytest.mark.parametrize("lengths, C, sigma, match", [
    ([1] * 100, 16, 24, "multiple of C"),
    ([1] * 100, 32, 16, "multiple of C"),
    ([1, 2**31], 32, 1024, r"2\*\*31"),
])
def test_sell_widths_reject_unsupported_input(lengths, C, sigma, match):
    with pytest.raises(ValueError, match=match):
        sell_chunk_widths(np.array(lengths, dtype=np.int64), C=C,
                          sigma=sigma)


_TESTBED_WORKERS = sorted({dev.n_workers for dev in TESTBEDS.values()})
_TESTBED_WIDTHS = sorted({dev.simd_width_dp for dev in TESTBEDS.values()})


@st.composite
def _profiles(draw):
    """Row-length profiles: empty, all-zero, shorter than most testbed
    worker counts, one heavy row over light ones, or arbitrary; as int32
    or int64."""
    kind = draw(st.sampled_from(["empty", "zeros", "short", "heavy",
                                 "any"]))
    if kind == "empty":
        n = 0
    else:
        n = draw(st.integers(1, 13 if kind == "short" else 3000))
    if kind in ("empty", "zeros"):
        lengths = [0] * n
    elif kind == "heavy":
        lengths = [draw(st.integers(0, 8))] * n
        lengths[draw(st.integers(0, n - 1))] = draw(
            st.integers(1_000, 2_000_000)
        )
    else:
        lengths = draw(st.lists(st.integers(0, 5_000), min_size=n,
                                max_size=n))
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    return np.array(lengths, dtype=dtype)


@given(
    profile=_profiles(),
    testbed_workers=st.lists(st.sampled_from(_TESTBED_WORKERS),
                             min_size=1, max_size=3, unique=True),
    odd_workers=st.integers(2, 97),
    widths=st.lists(st.sampled_from(_TESTBED_WIDTHS), min_size=1,
                    max_size=3, unique=True),
    order=st.randoms(use_true_random=False),
)
@settings(max_examples=150, deadline=None)
def test_dispatcher_matches_loop_partitioners(profile, testbed_workers,
                                              odd_workers, widths, order):
    """One :class:`RowProfile` per profile, shared by every strategy,
    worker count and width and queried in a shuffled key order, gives
    each key what the loop partitioner of the oracle gives, field for
    field — and what a plain array (a fresh memo per call) gives.

    Worker counts cover one worker, more workers than rows, counts that
    do not divide the row count (the remainder of the warp and lockstep
    interleaves) and the testbeds' own."""
    worker_counts = {1, len(profile) + 7, odd_workers, *testbed_workers}
    keys = [(strategy, workers, width)
            for strategy in PARTITION_STRATEGIES
            for workers in sorted(worker_counts) for width in widths]
    order.shuffle(keys)
    shared = RowProfile(profile)
    for strategy, workers, width in keys:
        want = oracle.imbalance_for_strategy(strategy, profile, workers,
                                             width)
        fresh = imbalance_for_strategy(strategy, profile, workers, width)
        got = imbalance_for_strategy(strategy, shared, workers, width)
        for result in (fresh, got):
            assert result == want, (strategy, workers, width, result, want)
            assert type(result.factor) is type(want.factor), strategy


@given(
    lengths=st.lists(st.integers(0, 2**34), max_size=2000),
    workers=st.one_of(st.sampled_from(_TESTBED_WORKERS),
                      st.integers(1, 5000)),
)
@settings(max_examples=150, deadline=None)
# The half-way target is 2**33 + 0.5: its floor is the first prefix sum
# and would move the 2**32 row into the second block.
@example(lengths=[2**32, 2**32 + 1], workers=2)
def test_nnz_row_integer_targets_beyond_32_bits(lengths, workers):
    """``nnz_row`` searches the prefix sum with the integer ceilings of
    its float targets; on totals above 2**32 (and below 2**53) the
    blocks equal the float64 search of the oracle."""
    arr = np.array([2**33] + lengths, dtype=np.int64)
    want = oracle.imbalance_for_strategy("nnz_row", arr, workers)
    assert imbalance_for_strategy("nnz_row", RowProfile(arr), workers) == want
    assert nnz_balanced_rows(arr, workers) == want
