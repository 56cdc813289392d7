"""Ground-truth Monte Carlo estimators, brute-force searches, and the
comparison sweeps behind the rate/outage figures.

Sampling is counter-based (see channel.sample_realizations), so estimates are
identical however the index range is chunked; every scheme at a given
operating point reuses the same realizations (common random numbers).  The
figure sweeps draw one block per operating point, and every curve and grid
search reads a prefix of it.
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, design_fast, design_slow
from .channel import ChannelStats, DesignParams, PowerConfig
from .design_fast import InfeasibleDesignError

# the cognitive-radio schemes, in figure 3's row order
CR_SCHEMES = ("la_gpc", "full_csit", "naive_dpc", "interference_as_noise")
SCHEME_LABELS = CR_SCHEMES + ("full_search",)

_CHUNK = 1 << 20
_DISC_ROWS = 16  # alpha2 points per det product; a product's bits depend on its shape
_BOUND_ROWS = 8 * _DISC_ROWS  # alpha2 points per score bound: whole det products
_SCAN_BLOCK = 16  # grid alpha1 per rate bound in brute_force_alpha1_fast

# Slow-fading operating points: K_dB -> (R_P, P_out_P, R_CR)
SLOW_TARGETS = {
    0.0: (1.0, 0.1, 0.2),
    5.0: (2.0, 0.1, 0.5),
    10.0: (2.0, 0.01, 1.0),
    15.0: (2.0, 0.01, 1.5),
}

DEFAULT_K_GRID = (0.0, 5.0, 10.0, 15.0)


@dataclass(frozen=True)
class McEstimate:
    value: float
    std_error: float


@dataclass(frozen=True)
class SweepRecord:
    k_db: float
    scheme: str
    metric: str
    value: float
    std_error: float
    alpha1: float
    alpha2: complex
    seed: int

    def __post_init__(self):
        if self.scheme not in SCHEME_LABELS:
            raise ValueError(f"unknown scheme label {self.scheme!r}")


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


def scheme_rates(
    r: channel.ChannelRealization,
    stats: ChannelStats,
    params: DesignParams,
    pw: PowerConfig,
    which: str,
) -> np.ndarray:
    """Per-realization rate of one scheme (or the primary user's rate): cr_rate at
    scheme_params, except full_csit, whose precoder follows each realization."""
    if which == "primary":
        return channel.primary_rate(r, params.alpha1, pw)
    p = scheme_params(which, stats, params, pw)
    if which == "full_csit":
        sigma2 = (1.0 - p.alpha1) * pw.Pc
        return np.log2(1.0 + np.abs(r.h22) ** 2 * sigma2 / pw.noise_s)
    return channel.cr_rate(r, p, pw)


def _sums(r, stats, params, pw, which, r_target):
    """(sum, sum of squares, count below r_target) of one scheme's rates over
    the block r, one entry per _CHUNK of it; the count is 0 without a target."""
    parts = []
    for lo in range(0, len(r), _CHUNK):
        rates = scheme_rates(r[lo : lo + _CHUNK], stats, params, pw, which)
        below = 0 if r_target is None else int(np.count_nonzero(rates < r_target))
        parts.append((float(np.sum(rates)), float(np.sum(rates ** 2)), below))
    return parts


def _drawn_sums(stats, params, pw, which, r_target, seed, chunks):
    """_sums over the (start, size) chunks of the stream, each drawn on its own."""
    parts = []
    for lo, m in chunks:
        r = channel.sample_realizations(stats, m, seed, start=lo)
        parts += _sums(r, stats, params, pw, which, r_target)
    return parts


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


def _drawn_estimate(stats, params, pw, which, r_target, n, seed, workers) -> McEstimate:
    """_estimate over the first n realizations of the stream.

    Workers take whole chunks; a run of fewer than two chunks stays in
    process, where it is faster than starting a pool.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    workers = default_workers() if workers is None else workers
    chunks = [(lo, min(_CHUNK, n - lo)) for lo in range(0, n, _CHUNK)]
    if workers < 2 or len(chunks) < 2:
        parts = _drawn_sums(stats, params, pw, which, r_target, seed, chunks)
    else:
        per = -(-len(chunks) // workers)
        groups = [chunks[i : i + per] for i in range(0, len(chunks), per)]
        args = [(stats, params, pw, which, r_target, seed, g) for g in groups]
        with ProcessPoolExecutor(max_workers=len(groups)) as ex:
            parts = [part for group in ex.map(_drawn_sums, *zip(*args)) for part in group]
    return _estimate(parts, n, r_target)


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


def ergodic_capacity(
    stats: ChannelStats,
    params: DesignParams,
    pw: PowerConfig,
    n: int = 10 ** 5,
    seed: int = 0,
    which: str = "la_gpc",
    workers: int | None = None,
) -> McEstimate:
    """Sample-mean rate with its standard error."""
    return _drawn_estimate(stats, params, pw, which, None, n, seed, workers)


def outage_probability(
    stats: ChannelStats,
    params: DesignParams,
    pw: PowerConfig,
    r_target: float,
    which: str = "la_gpc",
    n: int = 10 ** 6,
    seed: int = 0,
    workers: int | None = None,
) -> McEstimate:
    """Empirical P(rate < r_target) with binomial standard error."""
    return _drawn_estimate(stats, params, pw, which, r_target, n, seed, workers)


def _alpha1_forms(r: channel.ChannelRealization, pw: PowerConfig):
    """(a, b, c): the primary signal power is a + b amp + c amp^2 at amp = sqrt(alpha1 Pc)."""
    a = np.abs(r.h11) ** 2 * pw.Pp
    return a, 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp), np.abs(r.h12) ** 2


def _alpha1_scan(forms, pw: PowerConfig, alpha1s):
    """(alpha1, signal, interference plus noise) of the primary link at each of alpha1s in turn."""
    a, b, c = forms
    for a1 in alpha1s:
        amp = np.sqrt(a1 * pw.Pc)
        yield float(a1), a + b * amp + c * amp ** 2, c * (1.0 - a1) * pw.Pc + pw.noise_p


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
    """
    if grid_n < 50:
        raise ValueError("grid_n too coarse")
    forms = a, b, c = _alpha1_forms(r, pw)
    terms = 1.0 + (a + np.abs(b) * np.sqrt(pw.Pc) + c * pw.Pc) / pw.noise_p
    guard = (3.0 * len(r) + 70.0) * 2.0 ** -53 * float(np.mean(terms))
    for block in np.split(np.linspace(0.0, 1.0, grid_n), range(_SCAN_BLOCK, grid_n, _SCAN_BLOCK)):
        (_, sig_lo, _), (_, sig_hi, den) = _alpha1_scan(forms, pw, block[[0, -1]])
        if float(np.mean(np.log2(1.0 + np.maximum(sig_lo, sig_hi) / den))) + guard < r_target:
            continue
        for a1, sig, den in _alpha1_scan(forms, pw, block):
            if float(np.mean(np.log2(1.0 + sig / den))) >= r_target:
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
    """
    a, b, c = forms = _alpha1_forms(r, pw)
    amps = np.sqrt(np.linspace(0.0, 1.0, grid_n) * pw.Pc)
    u, big_t, t = 2.0 ** -53, 2.0 ** r_p, 2.0 ** r_p - 1.0
    qa, qc = c * big_t, a - t * (c * pw.Pc + pw.noise_p)
    eps = 64.0 * u * (a + np.abs(b) * amps[-1] + (1.0 + abs(t)) * (2.0 * c * pw.Pc + pw.noise_p))
    e_d = 4.0 * u * (b * b + 4.0 * np.abs(qa * qc))
    disc = b * b - 4.0 * qa * qc
    redo = np.abs(disc) <= 8.0 * (e_d + qa * eps)
    disc[redo | (disc < 0.0)] = np.nan  # no interval to count: nan sorts past every amp
    w = -0.5 * (b + np.copysign(np.sqrt(disc), b))
    ends = np.array([np.minimum(w / qa, qc / w), np.maximum(w / qa, qc / w)])  # (lo, hi)
    del w, qa, qc  # three n-long arrays fewer at the peak below
    guard = 2.0 * (e_d / (disc - e_d) + 4.0 * u) * np.abs(ends) + 2.0 * eps / np.sqrt(disc - e_d)
    srt = np.sort(ends, axis=1)
    counts = np.searchsorted(srt[0], amps) - np.searchsorted(srt[1], amps, side="right")
    reach = np.nanmax(guard, initial=0.0)  # an end inside its guard of an amp is within reach of it
    near = [e[np.searchsorted(e, x - reach) : np.searchsorted(e, x + reach, "right")]
            for e in srt for x in amps]
    redo |= np.isin(ends, np.concatenate(near)).any(axis=0)
    counts -= np.sum((ends[0, redo, None] < amps) & (amps < ends[1, redo, None]), axis=0)
    again = _alpha1_scan(tuple(f[redo] for f in forms), pw, np.linspace(0.0, 1.0, grid_n))
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
    """(forms, base, score) of the alpha2 points a2 over r.

    score(lo) is the MC ergodic CR rate, or with r_cr minus the MC CR outage, at
    each point of a2[lo : lo + _DISC_ROWS].  The rate is log2(signal / det) per
    sample (channel.cr_rate), base the mean of log2(signal) (None with r_cr), and
    det = A + |a2|^2 B - 2 Re(a2) Re(C) + 2 Im(a2) Im(C), so the dets of a block
    are one (points x 4) @ (4 x samples) product, forms = (A, B, -2 Re C, 2 Im C).
    """
    sigma2 = (1.0 - alpha1) * pw.Pc
    hs = channel.effective_interference_gain(r, alpha1, pw)
    h22_pow = np.abs(r.h22) ** 2
    hs_pow = np.abs(hs) ** 2
    signal = sigma2 * (h22_pow * sigma2 + hs_pow * pw.Pp + pw.noise_s)  # sigma2 * ys_pow
    cross = r.h22 * np.conj(hs) * (sigma2 * pw.Pp)  # C
    forms = np.stack(
        [
            sigma2 * (hs_pow * pw.Pp + pw.noise_s),  # A
            pw.Pp * (h22_pow * sigma2 + pw.noise_s),  # B
            -2.0 * cross.real,
            2.0 * cross.imag,
        ]
    )
    rows = np.stack([np.ones(len(a2)), np.abs(a2) ** 2, a2.real, a2.imag], axis=1)
    if r_cr is not None:
        limit = signal * 2.0 ** -r_cr  # rate < r_cr  <=>  det > limit
        return forms, None, lambda lo: -np.mean(rows[lo : lo + _DISC_ROWS] @ forms > limit, axis=1)
    base = float(np.mean(np.log2(signal)))
    return forms, base, lambda lo: base - np.mean(np.log2(rows[lo : lo + _DISC_ROWS] @ forms), axis=1)


def brute_force_alpha2(
    r: channel.ChannelRealization,
    stats: ChannelStats,
    alpha1: float,
    pw: PowerConfig,
    r_cr: float | None = None,
    grid_n: int = 61,
) -> complex:
    """Grid search of alpha2: max MC ergodic rate over r, or with r_cr min MC outage.

    The disc is centred on the fast statistical design with radius twice its
    modulus, as in the designs (design_fast.alpha2_disc), so the two are
    comparable; the first point (dre-major) with the best score wins.  At
    alpha1 = 1 no own signal is left to precode: 0j, unscored (as alpha2_fast).

    The ergodic search scores only blocks of _BOUND_ROWS points that can win: det is a paraboloid in
    a2 (B > 0), at least d, its minimum on the block's bounding rectangle, so no score there exceeds
    base - mean log2 d.  Blocks go in descending order of that bound until the next bound plus guard
    is below the best score.  Guard: det >= m = noise_s sigma2 (Cauchy-Schwarz); the product and d err
    by under 17u T (u = 2^-53; T = A + B (max re^2 + max im^2) + |f2| max |re| + |f3| max |im| on the
    disc, with forms = (A, B, f2, f3)), so log2 det by 100u T/m if 68u T <= m, plus 4 ulp; with |log2
    det| <= |log2 m| + T/m + 1, two means of n terms and three roundings, guard = (2n + 128) u (|log2
    m| + mean T/m + 1 + |base|), rounded up.  Else, and for the outage objective, every block is scored.
    """
    if grid_n < 3:
        raise ValueError("grid_n too coarse: no grid point inside the disc")
    if alpha1 == 1.0:
        return 0j
    a2 = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)[1]
    (a, b, f2, f3), base, score = _disc_scorer(r, alpha1, pw, a2, r_cr)
    u, m = 2.0 ** -53, pw.noise_s * (1.0 - alpha1) * pw.Pc
    re, im = np.abs(a2.real).max(), np.abs(a2.imag).max()
    terms = a + b * (re * re + im * im) + np.abs(f2) * re + np.abs(f3) * im
    starts = range(0, len(a2), _BOUND_ROWS)
    keys = np.full(len(starts), np.inf)  # per block: its score bound plus the guard
    if r_cr is None and 68.0 * u * terms.max() <= m:
        guard = (2.0 * len(r) + 128.0) * u * (abs(np.log2(m)) + float(np.mean(terms)) / m + 1.0 + abs(base))
        vx, vy = -0.5 * f2 / b, -0.5 * f3 / b  # the paraboloid's vertex
        for k, lo in enumerate(starts):
            pts = a2[lo : lo + _BOUND_ROWS]
            x = np.clip(vx, pts.real.min(), pts.real.max())
            y = np.clip(vy, pts.imag.min(), pts.imag.max())
            keys[k] = base - float(np.mean(np.log2(a + x * (b * x + f2) + y * (b * y + f3)))) + guard
    scores = np.full(len(a2), -np.inf)  # -inf at every point left unscored
    for k in np.argsort(-keys, kind="stable"):
        if keys[k] < np.fmax.reduce(scores):  # the best score so far; fmax passes over NaN
            break
        for lo in range(starts[k], min(starts[k] + _BOUND_ROWS, len(a2)), _DISC_ROWS):
            scores[lo : lo + _DISC_ROWS] = score(lo)
    return complex(a2[np.nanargmax(scores)])


_FIGURE5_ORDER = ("la_gpc", "naive_dpc", "interference_as_noise", "full_csit")
_METRICS = {2: "primary_ergodic_rate", 3: "cr_ergodic_rate", 4: "primary_outage", 5: "cr_outage"}


def figure_sweep(
    figure_id: int,
    pw: PowerConfig | None = None,
    k_grid=DEFAULT_K_GRID,
    n_ergodic: int = 10 ** 5,
    n_outage: int = 10 ** 6,
    seed: int = 0,
    bf_grid_n: int = 61,
    bf_mc_n: int = 3 * 10 ** 4,
) -> list[SweepRecord]:
    """All curves of one comparison figure.

    2: primary ergodic rate, designed vs searched alpha1 vs no-interference
       reference; 3: CR ergodic rate across the five schemes; 4: primary
       outage versions of 2; 5: CR outage versions of 3.  In rate/outage
       tables the no-interference reference carries the full_csit label.
    """
    if pw is None:
        pw = PowerConfig(10.0, 10.0)
    if figure_id not in _METRICS:
        raise ValueError(f"unknown figure {figure_id}")
    metric = _METRICS[figure_id]
    ergodic = figure_id in (2, 3)
    primary = figure_id in (2, 4)
    n = n_ergodic if ergodic else n_outage
    rows: list[SweepRecord] = []
    for k_db in k_grid:
        stats = ChannelStats.from_k_factor(k_db)
        # one block per K: the estimates and the alpha1 search read its first
        # n realizations, the alpha2 search its first bf_mc_n
        block = channel.sample_realizations(stats, n if primary else max(n, bf_mc_n), seed)
        r = block[:n]
        if ergodic:
            reference = design_fast.primary_target_ergodic(stats, pw)
            des = design_fast.solve_alpha1_fast(stats, pw, reference)
            bf_a1 = brute_force_alpha1_fast(r, pw, reference)
            r_p = r_cr = None
        else:
            r_p, reference, r_cr = SLOW_TARGETS[k_db]
            des = design_slow.design(stats, pw, r_p, reference, r_cr)
            bf_a1 = brute_force_alpha1_outage(r, pw, r_p, reference)

        def record(scheme, which, p, r_target, shown=None):
            est = _estimate(_sums(r, stats, p, pw, which, r_target), n, r_target)
            shown = shown or p
            a1, a2 = shown.alpha1, complex(shown.alpha2)
            return SweepRecord(k_db, scheme, metric, est.value, est.std_error, a1, a2, seed)

        if primary:
            for scheme, a1 in (("la_gpc", des.alpha1), ("full_search", bf_a1)):
                rows.append(record(scheme, "primary", DesignParams(a1, 0.0), r_p))
            rows.append(SweepRecord(k_db, "full_csit", metric, reference, 0.0, 0.0, 0j, seed))
            continue
        # figure 3 prints the design's alpha2 on every row, figure 5 the alpha2 each scheme ran at
        for scheme in CR_SCHEMES if ergodic else _FIGURE5_ORDER:
            shown = des.params if ergodic else scheme_params(scheme, stats, des.params, pw)
            rows.append(record(scheme, scheme, des.params, r_cr, shown))
        bf_a2 = brute_force_alpha2(block[:bf_mc_n], stats, bf_a1, pw, r_cr, grid_n=bf_grid_n)
        rows.append(record("full_search", "la_gpc", DesignParams(bf_a1, bf_a2), r_cr))
    return rows
