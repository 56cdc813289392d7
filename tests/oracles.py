"""Reference routes that only the tests use, shared by several test modules."""
import numpy as np

from lagpc import lattice
from lagpc.channel import effective_interference_gain


def full_csit_alpha2(r, alpha1, pw):
    """Per-realization coefficient that recovers the interference-free rate."""
    sigma2 = (1.0 - alpha1) * pw.Pc
    hs = effective_interference_gain(r, alpha1, pw)
    return sigma2 * np.conj(r.h22) * hs / (np.abs(r.h22) ** 2 * sigma2 + pw.noise_s)


def sample_dither(pair, rng, shape=()):
    """Dithers (*shape, 8) uniform over the coarse cell.  A stack consumes the
    stream exactly as one call per row."""
    return lattice._fold_dither(pair, rng.random((*shape, lattice.N_DIM)))


def achievable_rate(filters):
    """Rate supported by the per-dimension error variance, bits per channel use."""
    if not filters.error_var > 0.0:
        raise ValueError("error variance not positive")
    return float(-1.0 - np.log2(filters.error_var))
