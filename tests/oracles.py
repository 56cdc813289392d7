"""Reference routes that only the tests use, shared by several test modules."""
import numpy as np
from scipy.special import gammaln

from lagpc import channel, design_fast, design_slow, lattice, montecarlo
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


def sequential_alpha2_slow(stats, alpha1, pw, r_cr, moves=None):
    """design_slow.solve_alpha2_slow with its coordinate descent scored one
    point per call, in the visiting order the batched descent reproduces.
    A list passed as moves receives each point the descent moves to."""
    moves = [] if moves is None else moves

    def obj(a2):
        return design_slow.outage_surrogate(stats, alpha1, a2, pw, r_cr)

    best, points, dist, step = design_fast.alpha2_disc(stats, alpha1, pw, design_slow._GRID_N)
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
                moves.append(cand)
        if not moved:
            step /= 2.0
    return complex(best), float(best_val)


def outage_alzer(c2, threshold):
    """Alzer's lower bound (1 - exp(-s x))^(w/2) on quadform.outage_gamma, x = threshold / (2 v), with
    s = 1 for w <= 2, else Gamma(1 + w/2)^(-2/w) (H. Alzer, Math. Comp. 66, 1997); exact at w = 2."""
    w, x = np.asarray(c2.w, dtype=float), np.asarray(threshold, dtype=float) / (2.0 * c2.v)
    s = np.where(w <= 2.0, 1.0, np.exp(-(2.0 / w) * gammaln(1.0 + w / 2.0)))
    with np.errstate(invalid="ignore"):  # x < 0 is masked below
        p = (1.0 - np.exp(-s * x)) ** (w / 2.0)
    return np.where(x <= 0, 0.0, p)


def scheme_rates(r, stats, params, pw, which):
    """Per-realization rate of one scheme (or the primary user's rate): cr_rate at
    montecarlo.scheme_params, except full_csit, whose precoder follows each realization."""
    return next(montecarlo._rates(r, stats, params, pw, (which,)))


def whole_sums(r, stats, params, pw, schemes, r_target):
    """montecarlo._sums over whole _CHUNKs: every scheme's rates of a chunk from one cr_forms call
    over all of it, summed (or counted) as they come."""
    def part(rates):  # through map, so each scheme's rates go before the next scheme's are computed
        return ((float(np.sum(rates)), float(np.sum(rates ** 2)), 0) if r_target is None
                else (0.0, 0.0, int(np.count_nonzero(rates < r_target))))
    chunks = range(0, len(r), montecarlo._CHUNK)
    return list(zip(*[list(map(part, montecarlo._rates(r[lo : lo + montecarlo._CHUNK], stats, params, pw, schemes)))
                      for lo in chunks]))


def whole_outage_counts(r, pw, r_p, grid_n):
    """montecarlo._outage_counts over the whole block at once: one reach, the largest guard of all
    samples, and one sort of all the interval ends."""
    a, b, c = channel.primary_forms(r, pw)
    amps = np.sqrt(np.linspace(0.0, 1.0, grid_n) * pw.Pc)
    u, big_t, t = 2.0 ** -53, 2.0 ** r_p, 2.0 ** r_p - 1.0
    qa, qc = c * big_t, a - t * (c * pw.Pc + pw.noise_p)
    eps = 64.0 * u * (a + np.abs(b) * amps[-1] + (1.0 + abs(t)) * (2.0 * c * pw.Pc + pw.noise_p))
    e_d = 4.0 * u * (b * b + 4.0 * np.abs(qa * qc))
    disc = b * b - 4.0 * qa * qc
    redo = np.abs(disc) <= 8.0 * (e_d + qa * eps)
    disc[redo | (disc < 0.0)] = np.nan
    w = np.sqrt(disc)
    np.copysign(w, b, out=w)
    w += b
    w *= -0.5
    ends = np.empty((2, len(r)))
    np.divide(w, qa, out=ends[1])
    np.divide(qc, w, out=w)
    np.minimum(ends[1], w, out=ends[0])
    np.maximum(ends[1], w, out=ends[1])
    disc -= e_d
    guard = np.divide(e_d, disc, out=e_d)
    guard += 4.0 * u
    guard *= 2.0
    guard *= np.fmax(np.abs(ends[0]), np.abs(ends[1]))
    eps *= 2.0
    eps /= np.sqrt(disc, out=disc)
    guard += eps
    reach = np.nanmax(guard, initial=0.0)
    srt = np.sort(ends, axis=1)
    counts = np.searchsorted(srt[0], amps) - np.searchsorted(srt[1], amps, side="right")
    near = []
    for e in srt:
        lo, hi = np.searchsorted(e, amps - reach), np.searchsorted(e, amps + reach, "right")
        lo[1:] = np.maximum(lo[1:], hi[:-1])
        size = np.maximum(hi - lo, 0)
        near.append(e[np.arange(size.sum()) + np.repeat(lo - np.cumsum(size) + size, size)])
    redo |= np.isin(ends, np.concatenate(near)).any(axis=0)
    if not redo.any():
        return counts
    counts -= np.sum((ends[0, redo, None] < amps) & (amps < ends[1, redo, None]), axis=0)
    again = montecarlo._alpha1_scan(channel.primary_forms(r[redo], pw), pw, np.linspace(0.0, 1.0, grid_n))
    return counts + [np.count_nonzero(1.0 + sig / den < big_t) for _, sig, den in again]


def block_bound_alpha2(r, stats, alpha1, pw, r_cr, grid_n, scored):
    """montecarlo.brute_force_alpha2 with its keys at one level: every product of each block of _BOUND_ROWS
    points that can win is scored, the blocks in descending key order.  The start of every product scored is
    appended to scored."""
    a2 = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)[1]
    key, score = montecarlo._disc_scorer(r, alpha1, pw, a2, r_cr)
    starts = range(0, len(a2), montecarlo._BOUND_ROWS)
    keys = np.array([key(lo, montecarlo._BOUND_ROWS) for lo in starts])
    scores = np.full(len(a2), -np.inf)
    for k in np.argsort(-keys, kind="stable"):
        if keys[k] < np.fmax.reduce(scores):
            break
        for lo in range(starts[k], min(starts[k] + montecarlo._BOUND_ROWS, len(a2)), montecarlo._DISC_ROWS):
            scores[lo : lo + montecarlo._DISC_ROWS] = score(lo)
            scored.append(lo)
    return complex(a2[np.nanargmax(scores)])
