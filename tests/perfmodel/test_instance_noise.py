"""MatrixInstance caching/scaling and the noise model."""

import warnings

import numpy as np
import pytest

from repro.core.generator import MatrixSpec
from repro.core.matrix import csr_from_dense
from repro.devices import TESTBEDS
from repro.formats import FormatError, NaiveCSR
from repro.perfmodel import (
    MatrixInstance, fused, simulate_best, simulate_spmv,
)
from repro.perfmodel.noise import component_hash, noise_factors

XEON = TESTBEDS["INTEL-XEON"]


class TestInstance:
    def test_unscaled_passthrough(self, regular_matrix):
        inst = MatrixInstance.from_matrix(regular_matrix, name="m")
        assert inst.scale == 1.0
        assert inst.nnz == regular_matrix.nnz
        assert inst.n_rows == regular_matrix.n_rows
        np.testing.assert_array_equal(
            inst.row_profile(), regular_matrix.row_lengths
        )

    def test_scaled_instance(self):
        spec = MatrixSpec.from_footprint(256.0, 20, seed=1)
        inst = MatrixInstance.from_spec(spec, max_nnz=50_000)
        assert inst.scale > 1.0
        assert inst.n_rows == spec.n_rows
        assert inst.nnz == pytest.approx(spec.nnz_estimate, rel=0.15)

    def test_scaled_row_profile_has_declared_rows(self):
        spec = MatrixSpec.from_footprint(64.0, 10, skew_coeff=100, seed=2)
        inst = MatrixInstance.from_spec(spec, max_nnz=30_000)
        profile = inst.row_profile()
        assert len(profile) == min(spec.n_rows, 2_000_000)
        # Heavy row fraction preserved at declared scale.
        assert profile.max() == pytest.approx(10 * 101, rel=0.1)

    def test_features_carry_declared_footprint(self):
        spec = MatrixSpec.from_footprint(128.0, 20, seed=3)
        inst = MatrixInstance.from_spec(spec, max_nnz=40_000)
        assert inst.features.mem_footprint_mb == pytest.approx(128.0,
                                                               rel=0.1)

    def test_format_stats_cached(self, regular_matrix, monkeypatch):
        # Scoring keeps the stats in the instance's record; a second
        # scoring call reads them from there and derives none.
        inst = MatrixInstance.from_matrix(regular_matrix)
        a = inst.format_stats("Naive-CSR")
        first = simulate_spmv(inst, "Naive-CSR", XEON)
        assert inst.record.formats["Naive-CSR"] == (
            a.stored_elements, a.padding_elements, a.memory_bytes,
            a.metadata_bytes, a.simd_friendly,
        )

        def underived(*args, **kwargs):
            raise AssertionError("stats derived again")

        monkeypatch.setattr(NaiveCSR, "stats_from_csr_batch", underived)
        assert simulate_spmv(inst, "Naive-CSR", XEON) == first

    def test_format_failure_cached_and_replayed(self):
        # Scattered matrix: DIA refuses; scoring keeps the refusal in the
        # record and replays it with the message ``format_stats`` raises.
        rng = np.random.default_rng(4)
        dense = (rng.random((60, 60)) < 0.05).astype(float)
        inst = MatrixInstance.from_matrix(csr_from_dense(dense))
        with pytest.raises(FormatError) as refusal:
            inst.format_stats("DIA")
        for _ in range(2):
            with pytest.raises(FormatError) as replay:
                simulate_spmv(inst, "DIA", XEON)
            assert str(replay.value) == str(refusal.value)
        assert inst.record.formats["DIA"] == str(refusal.value)

    def test_profile_generated_once_across_testbeds(self, monkeypatch):
        # The instance keeps its declared-scale profile between scoring
        # calls, so the best format on every testbed regenerates it once.
        calls = []
        real = fused.row_length_profile

        def counted(*args, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(fused, "row_length_profile", counted)
        spec = MatrixSpec.from_footprint(64.0, 10, skew_coeff=100, seed=2)
        inst = MatrixInstance.from_spec(spec, max_nnz=30_000)
        assert inst.scale > 1.0
        assert len(TESTBEDS) == 9
        for dev in TESTBEDS.values():
            simulate_best(inst, dev)
        assert calls == [spec.n_rows]

    def test_scoring_releases_the_profiles_pass(self):
        # The instance keeps its profile's lengths, but not the prefix
        # sum or warp cycles that scoring computed on it.
        spec = MatrixSpec.from_footprint(64.0, 10, skew_coeff=100, seed=2)
        inst = MatrixInstance.from_spec(spec, max_nnz=30_000)
        source = fused.FusedSpecSource.of_instances([inst])
        source.imbalance_factor(0, "nnz_row", 8, 8)
        assert "csum" in inst.profile.__dict__
        source.release(0)
        assert "csum" not in inst.profile.__dict__
        for dev in ("INTEL-XEON", "Tesla-A100"):
            simulate_spmv(inst, "Naive-CSR", TESTBEDS[dev])
            assert len(inst.profile) == spec.n_rows
            assert "csum" not in inst.profile.__dict__
            assert inst.profile._warp is None


def _noise(device, fmt, matrices, seed=0, **kwargs):
    """``noise_factors`` of one (device, format) over ``matrices``."""
    def hashes(parts):
        return np.array([component_hash(p) for p in parts], dtype=np.uint64)

    return noise_factors(
        hashes([device]), hashes([fmt]), hashes(matrices), seed=seed,
        **kwargs,
    )


class TestNoise:
    def test_median_one(self):
        samples = _noise("d", "f", range(500), seed=0)
        assert np.median(samples) == pytest.approx(1.0, abs=0.02)

    def test_deterministic(self):
        assert _noise("d", "f", ["m"], 1) == _noise("d", "f", ["m"], 1)

    def test_coordinates_decorrelate(self):
        a = _noise("d1", "f", ["m"], 0)
        b = _noise("d2", "f", ["m"], 0)
        assert a != b

    def test_sigma_zero_disables(self):
        assert _noise("d", "f", ["m"], 0, sigma=0.0) == 1.0

    def test_spread_matches_sigma(self):
        samples = _noise("d", "f", range(2000), 0, sigma=0.1)
        assert np.log(samples).std() == pytest.approx(0.1, rel=0.1)

    def test_scalar_hashes_mix_silently(self):
        """Scalar hashes give the 1-element-array factor, bit for bit,
        without a wrap-around warning from 0-d arithmetic."""
        parts = [component_hash(p) for p in ("d", "f", "m")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scalar = noise_factors(*parts, seed=3)
        array = noise_factors(*(np.array([h]) for h in parts), seed=3)
        assert np.shape(scalar) == ()
        assert array.shape == (1,)
        assert np.float64(scalar).tobytes() == array[0].tobytes()
