"""Ground-truth Monte Carlo estimators and the brute-force grid searches that
the statistical designs are compared against.

`drawn_estimates` draws each chunk's standard normals once and rescales them to
every (stats, params) point's block, so every K and scheme reads the same
counter-based stream (common random numbers), and no estimate depends on the
chunking or the worker count.  `estimates` scores a block the caller holds.
"""
from __future__ import annotations

import functools
import os
import sys
from typing import NamedTuple

import numpy as np

from . import channel, design_fast
from .channel import ChannelStats, DesignParams, PowerConfig
from .design_fast import InfeasibleDesignError

# the cognitive-radio schemes, in figure 3's row order
CR_SCHEMES = ("la_gpc", "full_csit", "naive_dpc", "interference_as_noise")

_CHUNK = 1 << 20
_DISC_ROWS = 16  # alpha2 points per det product; a product's bits depend on its shape
_BOUND_ROWS = 8 * _DISC_ROWS  # alpha2 points per score bound: whole det products
_SCAN_BLOCK = 16  # grid alpha1 per rate bound in brute_force_alpha1_fast


def __getattr__(name):
    """ProcessPoolExecutor, imported on first read (PEP 562): concurrent.futures is costly to import and
    only drawn_estimates' pool branch, which builds its pool through this name, reads it."""
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor
    return ProcessPoolExecutor


class McEstimate(NamedTuple):
    value: float
    std_error: float


def scheme_params(which: str, stats: ChannelStats, params: DesignParams, pw: PowerConfig) -> DesignParams:
    """The design point one scheme transmits at, given the statistical design:
    naive_dpc precodes for the mean channel, interference_as_noise not at all."""
    if which == "la_gpc":
        return params
    if which == "naive_dpc":
        return DesignParams(params.alpha1, channel.naive_alpha2(stats, params.alpha1, pw))
    if which in ("interference_as_noise", "full_csit"):
        return DesignParams(params.alpha1, 0.0)
    raise ValueError(f"unknown scheme {which!r}")


def _rates(r, stats, params, pw, schemes):
    """Per-realization rate of each of schemes (or of the primary user) in turn: cr_rate at scheme_params,
    except full_csit, whose precoder follows each realization; the cr_rate schemes read one cr_forms call."""
    forms = None
    for which in schemes:
        if which in ("primary", "full_csit"):
            yield (channel.primary_rate if which == "primary" else channel.full_csit_rate)(r, params.alpha1, pw)
        elif params.alpha1 == 1.0:  # cr_rate's own rule
            yield channel.cr_rate(r, scheme_params(which, stats, params, pw), pw)
        else:
            forms = forms or channel.cr_forms(r, params.alpha1, pw)
            yield channel.cr_forms_rate(forms, scheme_params(which, stats, params, pw).alpha2)


def _sums(r, stats, params, pw, schemes, r_target):
    """Per scheme, (sum, sum of squares, count below r_target) of its rates over the block r, one entry
    per _CHUNK of it; with a target only the count is taken (the sums read 0), else only the sums.

    The rates are computed channel.PIECE samples at a time, one cr_forms per piece serving every
    scheme.  The counts are integers added per piece.  The rates of a chunk go into one chunk-long row
    per scheme, which is summed whole, so every float sum is taken in the same order as over the chunk.
    """
    parts = []
    for chunk in (r[lo : lo + _CHUNK] for lo in range(0, len(r), _CHUNK)):
        pieces = [(lo, chunk[lo : lo + channel.PIECE]) for lo in range(0, len(chunk), channel.PIECE)]
        if r_target is None:
            rates = np.empty((len(schemes), len(chunk)))
            for lo, piece in pieces:
                for row, x in zip(rates[:, lo : lo + len(piece)], _rates(piece, stats, params, pw, schemes)):
                    row[...] = x
            parts.append([(float(np.sum(x)), float(np.sum(np.square(x, out=x))), 0) for x in rates])
        else:
            below = np.zeros(len(schemes), dtype=np.int64)
            for _, piece in pieces:
                below += [np.count_nonzero(x < r_target) for x in _rates(piece, stats, params, pw, schemes)]
            parts.append([(0.0, 0.0, int(b)) for b in below])
    return list(zip(*parts))


def _estimate(parts, n: int, r_target: float | None) -> McEstimate:
    """Sample-mean rate with its standard error, or with a target the
    empirical P(rate < r_target) with its binomial standard error.

    The parts are added in chunk order, so the estimate depends neither on
    how the range was split over workers nor on whether it was drawn whole.
    """
    if r_target is not None:
        p = sum(below for _, _, below in parts) / n
        return McEstimate(p, float(np.sqrt(p * (1.0 - p) / n)))
    s1 = s2 = 0.0
    for p1, p2, _ in parts:
        s1 += p1
        s2 += p2
    mean = s1 / n
    var = max(s2 / n - mean ** 2, 0.0)
    return McEstimate(mean, float(np.sqrt(var / n)))


def _links(schemes) -> tuple:
    """The links (indices into channel.LINKS) that the rates of schemes read: h11 and h12 for the
    primary user, h21 and h22 for each cognitive-radio scheme."""
    return (channel.PRIMARY_LINKS * ("primary" in schemes)
            + channel.CR_LINKS * any(which != "primary" for which in schemes))


def _chunk_sums(points, pw, schemes, r_target, seed, chunks) -> list:
    """Per (start, size) chunk of the stream, the _sums of each (stats, params) point: the normals of the
    links the schemes read are drawn once per chunk and rescaled to one point's block at a time, each
    going before the next is built."""
    links = _links(schemes)

    def point_sums(z):  # z goes before the next chunk's normals are drawn
        return [_sums(channel.realizations(stats, z, links), stats, params, pw, schemes, r_target)
                for stats, params in points]
    return [point_sums(channel.standard_normals(m, seed, lo, links)) for lo, m in chunks]


def drawn_estimates(points, pw: PowerConfig, schemes, r_target: float | None, n: int, seed: int,
                    workers: int | None = None) -> list:
    """Per (stats, params) point, the estimate of each of schemes over the first n realizations of the
    stream at its stats (as estimates over sample_realizations(stats, n, seed), to the bit).  Each
    _CHUNK's normals are drawn once for every point and scheme (common random numbers), and only those
    of the links the schemes read.

    Workers take whole chunks; a run of fewer than two chunks stays in
    process, where it is faster than starting a pool.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    workers = default_workers() if workers is None else workers
    chunks = [(lo, min(_CHUNK, n - lo)) for lo in range(0, n, _CHUNK)]
    run = functools.partial(_chunk_sums, list(points), pw, tuple(schemes), r_target, seed)
    if workers < 2 or len(chunks) < 2:
        sums = run(chunks)
    else:
        per = -(-len(chunks) // workers)
        groups = [chunks[i : i + per] for i in range(0, len(chunks), per)]
        with sys.modules[__name__].ProcessPoolExecutor(max_workers=len(groups)) as ex:
            sums = [c for group in ex.map(run, groups) for c in group]
    # zip(*sums) is per point and zip(*point) per scheme: its parts in chunk order
    return [[_estimate([p for c in by_chunk for p in c], n, r_target) for by_chunk in zip(*point)]
            for point in zip(*sums)]


def default_workers() -> int:
    """Worker count from LAGPC_WORKERS (default 1); anything but a positive
    integer raises ValueError naming the value."""
    raw = os.environ.get("LAGPC_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"LAGPC_WORKERS must be a positive integer, got {raw!r}")
    return workers


def estimates(r: channel.ChannelRealization, stats, params, pw, schemes, r_target=None) -> list:
    """drawn_estimates of each of schemes at the one design point over the held block r, from one
    cr_forms per _CHUNK: the same bits when r is the first len(r) realizations of the stream."""
    return [_estimate(parts, len(r), r_target) for parts in _sums(r, stats, params, pw, schemes, r_target)]


def _alpha1_scan(forms, pw: PowerConfig, alpha1s, out=None):
    """(alpha1, signal, interference plus noise) of the primary link at each of alpha1s in turn, from
    channel.primary_sinr; given out, every pair is written into its two arrays and holds until the next."""
    return ((float(a1), *channel.primary_sinr(forms, a1, pw, out)) for a1 in alpha1s)


def _mean_rate(sig, den, out) -> float:
    """The mean of log2(1 + sig/den), the primary rate, written into out on the way."""
    np.divide(sig, den, out=out)
    out += 1.0
    return float(np.mean(np.log2(out, out=out)))


def brute_force_alpha1_fast(
    r: channel.ChannelRealization, pw: PowerConfig, r_target: float, grid_n: int = 201
) -> float:
    """Smallest grid alpha1 whose MC primary ergodic rate over r meets the target.

    Blocks of _SCAN_BLOCK grid points are skipped where a bound rules them out: sig = |h11 sqrt(Pp) +
    h12 amp|^2 is convex in amp and den falls as alpha1 grows, so no rate in a block exceeds log2(1 +
    max(sig at its ends) / its last den).  Guard: each 1 + sig/den >= 1 is within 13u (1 + S/noise_p)
    of its value (u = 2^-53, S = a + |b| sqrt(Pc) + c Pc), so with 4 ulp of log2 a rate or bound errs
    by under 32u (1 + S/noise_p), and two means of n rates below 1.5 S/noise_p and a sum add (3n + 2)
    u mean(1 + S/noise_p): guard = (3n + 70) u mean(1 + S/noise_p), rounded up.

    Every scanned alpha1 and every bound is written into three n-long arrays made once per search: the
    scan's sig and den, and the rates (or the bound's larger sig, copied out of the scan before the block's
    last alpha1 overwrites it).  sig and den come from channel.primary_sinr as primary_rate's do, and each
    mean is one np.mean over the n rates, so the guard holds as derived and every rate has primary_rate's
    bits.
    """
    if grid_n < 50:
        raise ValueError("grid_n too coarse")
    forms = a, b, c = channel.primary_forms(r, pw)
    mean_term = float(np.mean(1.0 + (a + np.abs(b) * np.sqrt(pw.Pc) + c * pw.Pc) / pw.noise_p))  # no n-long term kept
    guard = (3.0 * len(r) + 70.0) * 2.0 ** -53 * mean_term
    sig, den, rate = (np.empty(len(r)) for _ in range(3))
    for block in np.split(np.linspace(0.0, 1.0, grid_n), range(_SCAN_BLOCK, grid_n, _SCAN_BLOCK)):
        ends = _alpha1_scan(forms, pw, block[[0, -1]], (sig, den))
        np.copyto(rate, next(ends)[1])  # sig at the block's first alpha1, before its last overwrites it
        _, sig_hi, den_hi = next(ends)
        np.maximum(rate, sig_hi, out=rate)
        if _mean_rate(rate, den_hi, rate) + guard < r_target:
            continue
        for a1, s, d in _alpha1_scan(forms, pw, block, (sig, den)):
            if _mean_rate(s, d, rate) >= r_target:
                return a1
    raise InfeasibleDesignError("no grid alpha1 meets the ergodic target")


def _outage_counts(r: channel.ChannelRealization, pw: PowerConfig, r_p: float, grid_n: int):
    """Primary outages over r at each grid alpha1, exactly as the scan's 1 + sig/den < T counts them.

    A sample is out where q(amp) = cT amp^2 + b amp + a - t(c Pc + noise_p) < 0 (t = T - 1), on an
    open interval (lo, hi) of amp.  The scan and q round by under 20u S (u = 2^-53, S the term bound
    in eps), so only |q| <= eps sways the scan.  Off tangency those amps lie within 2 eps / sqrt(disc
    - e_d) of a root (e_d bounds the disc's rounding), and the computed roots are off by under
    rho |root|, rho = e_d / (disc - e_d) + 4u.  Samples with a grid amp inside that guard or near
    tangency (h12 = 0 gives disc = 0) are rescored with the scan's own expression.

    The intervals are found and counted channel.PIECE samples at a time, and the integer counts add.
    A piece's reach (its largest guard) is at most the block's and at least each of its samples' own
    guard, so every sample with a grid amp inside its guard is still rescored, and the counts stay exact.
    """
    u, big_t, t = 2.0 ** -53, 2.0 ** r_p, 2.0 ** r_p - 1.0
    amps = np.sqrt(np.linspace(0.0, 1.0, grid_n) * pw.Pc)
    counts, redo = np.zeros(grid_n, dtype=np.intp), np.zeros(len(r), dtype=bool)
    for lo in range(0, len(r), channel.PIECE):
        a, b, c = channel.primary_forms(r[lo : lo + channel.PIECE], pw)
        qa, qc = c * big_t, a - t * (c * pw.Pc + pw.noise_p)
        eps = 64.0 * u * (a + np.abs(b) * amps[-1] + (1.0 + abs(t)) * (2.0 * c * pw.Pc + pw.noise_p))
        e_d = 4.0 * u * (b * b + 4.0 * np.abs(qa * qc))
        disc = b * b - 4.0 * qa * qc
        rescore = np.abs(disc) <= 8.0 * (e_d + qa * eps)  # near tangency, then each end near an amp
        disc[rescore | (disc < 0.0)] = np.nan  # no interval to count: nan sorts past every amp
        w = np.sqrt(disc)
        np.copysign(w, b, out=w)
        w += b
        w *= -0.5
        ends = np.empty((2, len(w)))  # (lo, hi)
        np.divide(w, qa, out=ends[1])
        np.divide(qc, w, out=w)
        np.minimum(ends[1], w, out=ends[0])
        np.maximum(ends[1], w, out=ends[1])
        # the guard grows with |end|, so each sample's largest is at its end farther from 0
        disc -= e_d
        guard = np.divide(e_d, disc, out=e_d)
        guard += 4.0 * u
        guard *= 2.0
        guard *= np.fmax(np.abs(ends[0]), np.abs(ends[1]))
        eps *= 2.0
        eps /= np.sqrt(disc, out=disc)
        guard += eps
        reach = np.nanmax(guard, initial=0.0)  # an end inside its guard of an amp is within reach of it
        srt = np.sort(ends, axis=1)
        counts += np.searchsorted(srt[0], amps) - np.searchsorted(srt[1], amps, side="right")
        near = []
        for e in srt:  # the ends within reach of an amp: each amp's window starts where the last ended
            first, last = np.searchsorted(e, amps - reach), np.searchsorted(e, amps + reach, "right")
            first[1:] = np.maximum(first[1:], last[:-1])
            size = np.maximum(last - first, 0)
            near.append(e[np.arange(size.sum()) + np.repeat(first - np.cumsum(size) + size, size)])
        rescore |= np.isin(ends, np.concatenate(near)).any(axis=0)
        counts -= np.sum((ends[0, rescore, None] < amps) & (amps < ends[1, rescore, None]), axis=0)
        redo[lo : lo + channel.PIECE] = rescore
    if not redo.any():
        return counts
    again = _alpha1_scan(channel.primary_forms(r[redo], pw), pw, np.linspace(0.0, 1.0, grid_n))
    return counts + [np.count_nonzero(1.0 + sig / den < big_t) for _, sig, den in again]


def brute_force_alpha1_outage(
    r: channel.ChannelRealization, pw: PowerConfig, r_p: float, p_out: float, grid_n: int = 201
) -> float:
    """Smallest grid alpha1 whose MC primary outage over r is within the budget."""
    if grid_n < 2:
        raise ValueError("grid_n too coarse")
    fits = np.linspace(0.0, 1.0, grid_n)[_outage_counts(r, pw, r_p, grid_n) / len(r) <= p_out]
    if len(fits) == 0:
        raise InfeasibleDesignError("no grid alpha1 meets the outage target")
    return float(fits[0])


def _disc_scorer(r, alpha1, pw, a2, r_cr=None):
    """(key, score) of the alpha2 points a2, the whole disc, over r.

    score(lo) is the MC ergodic CR rate, or with r_cr minus the MC CR outage, at each point of a2[lo : lo
    + _DISC_ROWS].  The rate is log2(signal / det) per sample (channel.cr_forms), base the mean of
    log2(signal) (with r_cr, the limit: out where det exceeds it), and the dets of a block are one (points
    x 4) @ (4 x samples) product, forms = (A, B, -2 Re C, 2 Im C).

    key(lo, size) is brute_force_alpha2's bound on every score of a2[lo : lo + size], inf where its ergodic
    guard fails.  Every key is written into the same three n-long arrays.
    """
    signal, a, b, c = channel.cr_forms(r, alpha1, pw)
    forms = np.stack([a, b, -2.0 * c.real, 2.0 * c.imag])
    rows = np.stack([np.ones(len(a2)), np.abs(a2) ** 2, a2.real, a2.imag], axis=1)
    buf = np.empty((_DISC_ROWS, len(r)))  # every block's dets, so no block maps fresh pages
    a, b, f2, f3 = forms
    u, m = 2.0 ** -53, pw.noise_s * (1.0 - alpha1) * pw.Pc
    re, im = np.abs(a2.real).max(), np.abs(a2.imag).max()
    terms = a + b * (re * re + im * im) + np.abs(f2) * re + np.abs(f3) * im
    vx, vy = -0.5 * f2 / b, -0.5 * f3 / b  # the paraboloid's vertex
    x, y, t = (np.empty(len(r)) for _ in range(3))

    def dets(lo):
        block = rows[lo : lo + _DISC_ROWS]
        return np.matmul(block, forms, out=buf[: len(block)])

    def least_det(lo, size):  # d: a + x (b x + f2) + y (b y + f3) at the vertex clamped to the points' rectangle
        pts = a2[lo : lo + size]
        np.clip(vx, pts.real.min(), pts.real.max(), out=x)
        np.clip(vy, pts.imag.min(), pts.imag.max(), out=y)
        np.multiply(x, np.add(np.multiply(b, x, out=t), f2, out=t), out=x)
        np.multiply(y, np.add(np.multiply(b, y, out=t), f3, out=t), out=y)
        np.add(x, a, out=x)
        return np.add(x, y, out=x)

    if r_cr is not None:
        limit = signal * 2.0 ** -r_cr  # rate < r_cr  <=>  det > limit
        out = limit + 36.0 * u * terms  # d above this: the sample is out at every point of the rectangle
        return lambda lo, size: -np.mean(least_det(lo, size) > out), lambda lo: -np.mean(dets(lo) > limit, axis=1)
    base = float(np.mean(np.log2(signal)))
    guard = (2.0 * len(r) + 128.0) * u * (abs(np.log2(m)) + float(np.mean(terms)) / m + 1.0 + abs(base))
    if 68.0 * u * terms.max() <= m:
        key = lambda lo, size: base - float(np.mean(np.log2(d := least_det(lo, size), out=d))) + guard
    else:
        key = lambda lo, size: np.inf
    return key, lambda lo: base - np.mean(np.log2(d := dets(lo), out=d), axis=1)


def brute_force_alpha2(r: channel.ChannelRealization, stats: ChannelStats, alpha1: float, pw: PowerConfig,
                       r_cr: float | None = None, grid_n: int = 61) -> complex:
    """Grid search of alpha2: max MC ergodic rate over r, or with r_cr min MC outage.

    The disc is centred on the fast statistical design with radius twice its
    modulus, as in the designs (design_fast.alpha2_disc), so the two are
    comparable; the first point (dre-major) with the best score wins.  At
    alpha1 = 1 no own signal is left to precode: 0j, unscored (as alpha2_fast).

    Only det products that can win are scored, found by one key at two levels: blocks of _BOUND_ROWS
    points, then the _DISC_ROWS-point products of each block that can win.  A key bounds the scores of
    its points: det is a paraboloid in a2 (B > 0), at least d, its value at the vertex clamped to the
    points' bounding rectangle, so no ergodic score there exceeds base - mean log2 d, nor an outage score
    -(samples with d > limit + g)/n.  At each level the keys (the ergodic ones plus the guard) go in
    descending order until the next is below the best score, so every point that ties the best is scored,
    the full scan's point wins, and each scored product keeps its bits.  The product and d err by under
    17u T (u = 2^-53; T = A + B (max re^2 + max im^2) + |f2| max |re| + |f3| max |im| on the disc, forms =
    (A, B, f2, f3)).  Ergodic guard: det >= m = noise_s sigma2 (Cauchy-Schwarz), so log2 det errs by 100u
    T/m if 68u T <= m (else every key is inf and every product scored), plus 4 ulp; with |log2 det| <=
    |log2 m| + T/m + 1, two means of n terms and three roundings, guard = (2n + 128) u (|log2 m| + mean
    T/m + 1 + |base|), rounded up.  g: the computed vertex is within u |vertex|, so its clamp moves only
    if |vertex| < (1 + 2u) max |re| (|im|), by a step that raises the paraboloid under 2u^2 T; a scored
    det exceeds d - 34u T - 2u^2 T.  d > limit + g gives limit < (1 + 17u) T, so rounding g (T has 6
    roundings) and limit + g loses under u T + 310u^2 T: g = 36u T.  T is taken over the whole disc, so
    these derivations hold for any rectangle inside it, a block's or a product's, with the same guards.
    Every key is written into three n-long arrays, and every product's dets into one, made once per search.
    """
    if grid_n < 3:
        raise ValueError("grid_n too coarse: no grid point inside the disc")
    if alpha1 == 1.0:
        return 0j
    a2 = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)[1]
    key, score = _disc_scorer(r, alpha1, pw, a2, r_cr)
    scores = np.full(len(a2), -np.inf)  # -inf at every point left unscored

    # a generator, not a closure that calls itself: that would be a reference cycle holding the forms and
    # arrays of _disc_scorer until the cyclic GC ran, and the process would grow by them at every search
    def winnable(starts, size):  # the size-point blocks at starts, in descending key order while one can win
        keys = np.array([key(lo, size) for lo in starts])
        for k in np.argsort(-keys, kind="stable"):
            if keys[k] < np.fmax.reduce(scores):  # the best score so far; fmax passes over NaN
                return
            yield starts[k]

    for block in winnable(range(0, len(a2), _BOUND_ROWS), _BOUND_ROWS):
        for lo in winnable(range(block, min(block + _BOUND_ROWS, len(a2)), _DISC_ROWS), _DISC_ROWS):
            scores[lo : lo + _DISC_ROWS] = score(lo)
    return complex(a2[np.nanargmax(scores)])
