"""MatrixInstance caching/scaling and the noise model."""

import warnings

import numpy as np
import pytest

from repro.core.generator import MatrixSpec
from repro.core.matrix import csr_from_dense
from repro.formats import FormatError
from repro.perfmodel import MatrixInstance
from repro.perfmodel.noise import component_hash, noise_factors


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

    def test_format_stats_cached(self, regular_matrix):
        inst = MatrixInstance.from_matrix(regular_matrix)
        a = inst.format_stats("Naive-CSR")
        b = inst.format_stats("Naive-CSR")
        assert a is b

    def test_format_failure_cached_and_replayed(self):
        # Scattered matrix: DIA refuses; second call replays from cache.
        rng = np.random.default_rng(4)
        dense = (rng.random((60, 60)) < 0.05).astype(float)
        inst = MatrixInstance.from_matrix(csr_from_dense(dense))
        with pytest.raises(FormatError):
            inst.format_stats("DIA")
        with pytest.raises(FormatError):
            inst.format_stats("DIA")


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
