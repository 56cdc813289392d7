"""Ground-truth Monte Carlo estimators, brute-force searches, and the
comparison sweeps behind the rate/outage figures.

Sampling is counter-based (see channel.sample_realizations), so estimates are
identical however the index range is chunked; every scheme at a given
operating point reuses the same realizations (common random numbers).
"""
from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel, design_fast, design_slow
from .channel import ChannelStats, DesignParams, PowerConfig
from .design_fast import InfeasibleDesignError

SCHEME_LABELS = ("la_gpc", "full_csit", "naive_dpc", "interference_as_noise", "full_search")

_CHUNK = 1 << 20

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
    n_samples: int
    seed: int


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


def scheme_rates(
    r: channel.ChannelRealization,
    stats: ChannelStats,
    params: DesignParams,
    pw: PowerConfig,
    which: str,
) -> np.ndarray:
    """Per-realization rate of one scheme (or the primary user's rate)."""
    if which == "la_gpc":
        return channel.cr_rate(r, params, pw)
    if which == "full_csit":
        sigma2 = (1.0 - params.alpha1) * pw.Pc
        return np.log2(1.0 + np.abs(r.h22) ** 2 * sigma2 / pw.noise_s)
    if which == "naive_dpc":
        naive = DesignParams(params.alpha1, channel.naive_alpha2(stats, params.alpha1, pw))
        return channel.cr_rate(r, naive, pw)
    if which == "interference_as_noise":
        sigma2 = (1.0 - params.alpha1) * pw.Pc
        hs = channel.effective_interference_gain(r, params.alpha1, pw)
        g22 = np.abs(r.h22) ** 2 * sigma2
        return np.log2(1.0 + g22 / (np.abs(hs) ** 2 * pw.Pp + pw.noise_s))
    if which == "primary":
        return channel.primary_rate(r, params.alpha1, pw)
    raise ValueError(f"unknown scheme {which!r}")


def rate_sums(stats, params, pw, which, n, seed, start=0):
    """(sum, sum of squares, count) of scheme rates over an index range."""
    s1 = s2 = 0.0
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        r = channel.sample_realizations(stats, m, seed, start=start + done)
        rates = scheme_rates(r, stats, params, pw, which)
        s1 += float(np.sum(rates))
        s2 += float(np.sum(rates ** 2))
        done += m
    return s1, s2, n


def outage_counts(stats, params, pw, r_target, which_user, n, seed, start=0):
    which = "la_gpc" if which_user == "cr" else which_user
    count = 0
    done = 0
    while done < n:
        m = min(_CHUNK, n - done)
        r = channel.sample_realizations(stats, m, seed, start=start + done)
        rates = scheme_rates(r, stats, params, pw, which)
        count += int(np.sum(rates < r_target))
        done += m
    return count


def _worker_ranges(n: int, workers: int):
    per = (n + workers - 1) // workers
    return [(i, min(per, n - i)) for i in range(0, n, per)]


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
    if n < 1:
        raise ValueError("n must be >= 1")
    workers = default_workers() if workers is None else workers
    ranges = _worker_ranges(n, workers)
    if len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=len(ranges)) as ex:
            parts = list(
                ex.map(
                    rate_sums,
                    *zip(*((stats, params, pw, which, m, seed, st) for st, m in ranges)),
                )
            )
    else:
        parts = [rate_sums(stats, params, pw, which, n, seed)]
    s1 = sum(p[0] for p in parts)
    s2 = sum(p[1] for p in parts)
    mean = s1 / n
    var = max(s2 / n - mean ** 2, 0.0)
    return McEstimate(mean, float(np.sqrt(var / n)), n, seed)


def outage_probability(
    stats: ChannelStats,
    params: DesignParams,
    pw: PowerConfig,
    r_target: float,
    which_user: str = "cr",
    n: int = 10 ** 6,
    seed: int = 0,
    workers: int | None = None,
) -> McEstimate:
    """Empirical P(rate < r_target) with binomial standard error."""
    if n < 1:
        raise ValueError("n must be >= 1")
    workers = default_workers() if workers is None else workers
    ranges = _worker_ranges(n, workers)
    if len(ranges) > 1:
        with ProcessPoolExecutor(max_workers=len(ranges)) as ex:
            counts = list(
                ex.map(
                    outage_counts,
                    *zip(*((stats, params, pw, r_target, which_user, m, seed, st) for st, m in ranges)),
                )
            )
    else:
        counts = [outage_counts(stats, params, pw, r_target, which_user, n, seed)]
    p = sum(counts) / n
    return McEstimate(p, float(np.sqrt(p * (1.0 - p) / n)), n, seed)


def brute_force_alpha1_fast(
    stats: ChannelStats,
    pw: PowerConfig,
    r_target: float,
    grid_n: int = 201,
    mc_n: int = 10 ** 5,
    seed: int = 0,
) -> float:
    """Smallest grid alpha1 whose MC primary ergodic rate meets the target."""
    if grid_n < 50:
        raise ValueError("grid_n too coarse")
    r = channel.sample_realizations(stats, mc_n, seed)
    # primary_rate as a function of alpha1 decomposes into three fixed forms
    a = np.abs(r.h11) ** 2 * pw.Pp
    b = 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp)
    c = np.abs(r.h12) ** 2
    for a1 in np.linspace(0.0, 1.0, grid_n):
        amp = np.sqrt(a1 * pw.Pc)
        sig = a + b * amp + c * amp ** 2
        mean = float(np.mean(np.log2(1.0 + sig / (c * (1.0 - a1) * pw.Pc + pw.noise_p))))
        if mean >= r_target:
            return float(a1)
    raise InfeasibleDesignError("no grid alpha1 meets the ergodic target")


def brute_force_alpha1_outage(
    stats: ChannelStats,
    pw: PowerConfig,
    r_p: float,
    p_out: float,
    grid_n: int = 201,
    mc_n: int = 10 ** 6,
    seed: int = 0,
) -> float:
    """Smallest grid alpha1 whose MC primary outage is within the budget."""
    r = channel.sample_realizations(stats, mc_n, seed)
    a = np.abs(r.h11) ** 2 * pw.Pp
    b = 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp)
    c = np.abs(r.h12) ** 2
    for a1 in np.linspace(0.0, 1.0, grid_n):
        amp = np.sqrt(a1 * pw.Pc)
        sig = a + b * amp + c * amp ** 2
        rates = np.log2(1.0 + sig / (c * (1.0 - a1) * pw.Pc + pw.noise_p))
        if float(np.mean(rates < r_p)) <= p_out:
            return float(a1)
    raise InfeasibleDesignError("no grid alpha1 meets the outage target")


def brute_force_alpha2(
    stats: ChannelStats,
    alpha1: float,
    pw: PowerConfig,
    objective: str = "ergodic",
    r_cr: float | None = None,
    center: complex | None = None,
    radius: float | None = None,
    grid_n: int = 61,
    mc_n: int = 10 ** 5,
    seed: int = 0,
) -> complex:
    """Grid search of alpha2: max MC ergodic rate or min MC outage.

    Same disc as the statistical alpha2 design so the two are comparable.
    """
    if objective not in ("ergodic", "outage"):
        raise ValueError("objective must be 'ergodic' or 'outage'")
    if objective == "outage" and r_cr is None:
        raise ValueError("outage objective needs r_cr")
    if center is None:
        center = complex(design_fast.alpha2_fast(stats, alpha1, pw))
    if radius is None:
        radius = 2.0 * abs(center) or 1.0
    r = channel.sample_realizations(stats, mc_n, seed)
    sigma2 = (1.0 - alpha1) * pw.Pc
    hs = channel.effective_interference_gain(r, alpha1, pw)
    ys_pow = np.abs(r.h22) ** 2 * sigma2 + np.abs(hs) ** 2 * pw.Pp + pw.noise_s
    w1 = np.conj(r.h22) * sigma2
    w2 = np.conj(hs) * pw.Pp
    offs = np.linspace(-radius, radius, grid_n)
    best = None
    best_score = -np.inf
    for dre in offs:
        for dim in offs:
            if np.hypot(dre, dim) > radius + 1e-12:
                continue
            a2 = center + dre + 1j * dim
            det = (sigma2 + abs(a2) ** 2 * pw.Pp) * ys_pow - np.abs(w1 + a2 * w2) ** 2
            rates = np.log2(sigma2 * ys_pow / det)
            if objective == "ergodic":
                score = float(np.mean(rates))
            else:
                score = -float(np.mean(rates < r_cr))
            if score > best_score:
                best_score, best = score, a2
    return complex(best)


def _record(k_db, scheme, metric, est: McEstimate, params: DesignParams) -> SweepRecord:
    return SweepRecord(
        k_db, scheme, metric, est.value, est.std_error, params.alpha1, complex(params.alpha2), est.seed
    )


def figure_sweep(
    figure_id: int,
    pw: PowerConfig | None = None,
    k_grid=DEFAULT_K_GRID,
    n_ergodic: int = 10 ** 5,
    n_outage: int = 10 ** 6,
    seed: int = 0,
    bf_grid_n: int = 61,
    bf_mc_n: int = 3 * 10 ** 4,
    slow_targets=None,
) -> list[SweepRecord]:
    """All curves of one comparison figure.

    2: primary ergodic rate, designed vs searched alpha1 vs no-interference
       reference; 3: CR ergodic rate across the five schemes; 4: primary
       outage versions of 2; 5: CR outage versions of 3.  In rate/outage
       tables the no-interference reference carries the full_csit label.
    """
    if pw is None:
        pw = PowerConfig(10.0, 10.0)
    if slow_targets is None:
        slow_targets = SLOW_TARGETS
    if figure_id not in (2, 3, 4, 5):
        raise ValueError(f"unknown figure {figure_id}")
    rows: list[SweepRecord] = []
    for k_db in k_grid:
        stats = ChannelStats.from_k_factor(k_db)
        if figure_id in (2, 3):
            target = design_fast.primary_target_ergodic(stats, pw)
            des = design_fast.solve_alpha1_fast(stats, pw, target)
            bf_a1 = brute_force_alpha1_fast(stats, pw, target, mc_n=n_ergodic, seed=seed)
            if figure_id == 2:
                metric = "primary_ergodic_rate"
                for scheme, a1 in (("la_gpc", des.alpha1), ("full_search", bf_a1)):
                    p = DesignParams(a1, 0.0)
                    est = ergodic_capacity(stats, p, pw, n_ergodic, seed, which="primary")
                    rows.append(_record(k_db, scheme, metric, est, p))
                rows.append(
                    SweepRecord(k_db, "full_csit", metric, target, 0.0, 0.0, 0j, seed)
                )
            else:
                metric = "cr_ergodic_rate"
                for scheme in ("la_gpc", "full_csit", "naive_dpc", "interference_as_noise"):
                    est = ergodic_capacity(stats, des.params, pw, n_ergodic, seed, which=scheme)
                    rows.append(_record(k_db, scheme, metric, est, des.params))
                bf_a2 = brute_force_alpha2(
                    stats, bf_a1, pw, "ergodic", grid_n=bf_grid_n, mc_n=bf_mc_n, seed=seed
                )
                p = DesignParams(bf_a1, bf_a2)
                est = ergodic_capacity(stats, p, pw, n_ergodic, seed, which="la_gpc")
                rows.append(_record(k_db, "full_search", metric, est, p))
        else:
            r_p, p_out, r_cr = slow_targets[k_db]
            st = design_slow.design(stats, pw, r_p, p_out, r_cr)
            bf_a1 = brute_force_alpha1_outage(stats, pw, r_p, p_out, mc_n=n_outage, seed=seed)
            if figure_id == 4:
                metric = "primary_outage"
                for scheme, a1 in (("la_gpc", st.alpha1), ("full_search", bf_a1)):
                    p = DesignParams(a1, 0.0)
                    est = outage_probability(stats, p, pw, r_p, "primary", n_outage, seed)
                    rows.append(_record(k_db, scheme, metric, est, p))
                rows.append(
                    SweepRecord(k_db, "full_csit", metric, p_out, 0.0, 0.0, 0j, seed)
                )
            else:
                metric = "cr_outage"
                for scheme in ("la_gpc", "naive_dpc", "interference_as_noise"):
                    if scheme == "la_gpc":
                        p = st.params
                    elif scheme == "naive_dpc":
                        p = DesignParams(st.alpha1, channel.naive_alpha2(stats, st.alpha1, pw))
                    else:
                        p = DesignParams(st.alpha1, 0.0)
                    est = outage_probability(stats, p, pw, r_cr, "cr", n_outage, seed)
                    rows.append(_record(k_db, scheme, metric, est, p))
                r = channel.sample_realizations(stats, n_outage, seed)
                csit = scheme_rates(r, stats, st.params, pw, "full_csit")
                pr = float(np.mean(csit < r_cr))
                se = float(np.sqrt(pr * (1.0 - pr) / n_outage))
                rows.append(
                    SweepRecord(k_db, "full_csit", metric, pr, se, st.alpha1, 0j, seed)
                )
                bf_a2 = brute_force_alpha2(
                    stats, bf_a1, pw, "outage", r_cr=r_cr, grid_n=bf_grid_n, mc_n=bf_mc_n, seed=seed
                )
                p = DesignParams(bf_a1, bf_a2)
                est = outage_probability(stats, p, pw, r_cr, "cr", n_outage, seed)
                rows.append(_record(k_db, "full_search", metric, est, p))
    return rows
