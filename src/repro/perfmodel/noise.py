"""Reproducible measurement noise.

Real SpMV timings jitter a few percent run-to-run (the paper averages 128
iterations x 5 experiments).  The simulator adds a small multiplicative
lognormal perturbation, deterministically seeded from the experiment
coordinates so every rerun of a bench reproduces the same "measurements".

The noise is *counter-based*: each experiment coordinate (device, format,
matrix) is hashed once with SHA-256, the per-run seed is folded in with a
splitmix64 finaliser chain, and the lognormal deviate comes from a
Box-Muller transform of two splitmix64-derived uniforms.  Unlike a
stateful RNG object, this pipeline is pure array arithmetic, so the
batched grid simulator (:mod:`repro.perfmodel.batch`) evaluates millions
of noise factors in one NumPy pass; a one-cell grid call draws its
single factor the same way.

The scalar model in ``tests/oracles/model.py`` keeps a Python-int mirror
of this pipeline with its own copies of the constants, so
``test_noise_scalar_equals_vectorised`` and the grid agreement suite
fail on any edit to the salts, the mixing constants or the
uniform/Box-Muller derivation.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = [
    "noise_factors",
    "component_hash",
    "NOISE_SIGMA",
]

NOISE_SIGMA = 0.04  # ~4% run-to-run spread

# splitmix64 finaliser constants (Steele et al., "Fast splittable
# pseudorandom number generators").
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Distinct salts decorrelate the two uniforms drawn from one seed.
_U1_SALT = np.uint64(0xD1B54A32D192ED03)
_U2_SALT = np.uint64(0x8BB84B93962EACC9)

_TWO_M53 = 2.0 ** -53


def _mix(x: np.ndarray) -> np.ndarray:
    """splitmix64 finaliser over a uint64 array (wrapping arithmetic)."""
    x = x + _GAMMA
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def component_hash(part) -> np.uint64:
    """Stable 64-bit hash of one experiment coordinate.

    Coordinates are stringified exactly as the historical seed derivation
    did, so any hashable/printable key (names, tuples, ints) works.
    """
    digest = hashlib.sha256(str(part).encode()).digest()
    return np.uint64(int.from_bytes(digest[:8], "little"))


def noise_factors(
    device_h,
    format_h,
    matrix_h,
    seed: int = 0,
    sigma: float = NOISE_SIGMA,
) -> np.ndarray:
    """Noise factors for arrays of hashed experiment coordinates.

    ``device_h``/``format_h``/``matrix_h`` are :func:`component_hash`
    values (uint64 scalars or arrays); they broadcast against each other,
    so a grid evaluation passes e.g. shapes ``(n_matrices, 1)`` and
    ``(n_cells,)``.  Lognormal with median 1; ``sigma <= 0`` returns ones.
    """
    device_h = np.asarray(device_h, dtype=np.uint64)
    format_h = np.asarray(format_h, dtype=np.uint64)
    matrix_h = np.asarray(matrix_h, dtype=np.uint64)
    shape = np.broadcast_shapes(device_h.shape, format_h.shape,
                                matrix_h.shape)
    if sigma <= 0:
        return np.ones(shape)
    # The mixing wraps by design.  Array arithmetic wraps silently, but
    # NumPy warns on every wrap of 0-d (scalar) operands.
    with np.errstate(over="ignore"):
        h = _mix(device_h)
        h = _mix(h ^ format_h)
        h = _mix(h ^ matrix_h)
        h = _mix(h ^ np.uint64(int(seed) % (1 << 64)))
        s1 = _mix(h ^ _U1_SALT)
        s2 = _mix(h ^ _U2_SALT)
    # 53-bit mantissas: u1 in (0, 1] (safe for log), u2 in [0, 1).
    u1 = ((s1 >> np.uint64(11)).astype(np.float64) + 1.0) * _TWO_M53
    u2 = (s2 >> np.uint64(11)).astype(np.float64) * _TWO_M53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    out = np.exp(sigma * z)
    return out.reshape(shape)
