"""Reference routes that only the tests use, shared by several test modules."""
import numpy as np

from lagpc import design_fast, design_slow, lattice
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


def sequential_alpha2_slow(stats, alpha1, pw, r_cr, method="gamma", grid_n=41):
    """design_slow.solve_alpha2_slow with its coordinate descent scored one
    point per call, in the visiting order the batched descent reproduces."""
    def obj(a2):
        return design_slow.outage_surrogate(stats, alpha1, a2, pw, r_cr, method)

    best, points, dist, step = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)
    best_val, best_dist = np.inf, 0.0
    for a2, val, dst in zip(points.tolist(), obj(points).tolist(), dist.tolist()):
        if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15 and dst < best_dist):
            best_val, best, best_dist = val, a2, dst
    while step >= 1e-4:
        moved = False
        for d in (1.0, -1.0, 1j, -1j):
            cand = best + d * step
            val = obj(cand)
            if val < best_val - 1e-15:
                best_val, best = val, cand
                moved = True
        if not moved:
            step /= 2.0
    return complex(best), float(best_val)
