"""Slow-fading design: outage-constrained alpha1, outage-minimizing alpha2.

alpha1 comes from a one-sided tail bound on the interference-to-signal ratio
seen by the primary receiver; the bound's constant r sharpens from 1 to 2/9
when the ratio's density is believed unimodal-symmetric enough (high K) and
the deviation multiplier is large enough.  alpha2 minimizes a moment-matched
chi-square surrogate of the cognitive user's own outage, either through the
regularized incomplete gamma itself or through its exponential lower bound.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import quadform
from .channel import ChannelStats, DesignParams, PowerConfig, build_matrices, cr_outage_form
from .design_fast import InfeasibleDesignError, alpha1_root, alpha2_disc, cr_links, primary_links

_SHARP_R = 2.0 / 9.0
_MIN_DELTA_FOR_SHARP = 2.0 / np.sqrt(3.0)


@dataclass(frozen=True)
class SlowDesignResult:
    alpha1: float
    alpha2: complex
    objective_value: float  # the surrogate outage at (alpha1, alpha2)
    r_used: float  # the tail-bound constant alpha1 was designed with

    @property
    def params(self) -> DesignParams:
        return DesignParams(self.alpha1, self.alpha2)


def select_r(k_db: float, delta_candidate: float) -> float:
    """Tail-bound constant: 2/9 needs both K >= 10 dB and delta >= 2/sqrt(3)."""
    return _SHARP_R if k_db >= 10.0 and delta_candidate >= _MIN_DELTA_FOR_SHARP else 1.0


def ratio_stats(stats: ChannelStats, alpha1, pw: PowerConfig) -> quadform.RatioMoments:
    """Moments of (interference + noise) / coherent-signal power ratio.

    An array of alpha1 gives moments of that shape.
    """
    P, Q = build_matrices(alpha1, pw)
    return quadform.ratio_moments(primary_links(stats), P, Q, offset=pw.noise_p)


def solve_alpha1_slow(
    stats: ChannelStats, pw: PowerConfig, r_p: float, p_out: float
) -> tuple[float, float]:
    """(smallest alpha1 whose tail bound keeps primary outage under p_out, the bound's r)."""
    if not 0.0 < p_out < 1.0:
        raise ValueError("p_out must lie in (0, 1)")
    if r_p <= 0:
        raise ValueError("r_p must be positive")
    # r-selection uses the sharper candidate's multiplier for its own guard.
    k_db = 10.0 * np.log10(min(stats.k_factor("11"), stats.k_factor("12")))
    delta_sharp = np.sqrt(_SHARP_R / p_out - 1.0) if _SHARP_R / p_out > 1 else 0.0
    r = select_r(k_db, delta_sharp)
    if r / p_out <= 1.0:
        raise InfeasibleDesignError("outage target too loose for the bound (r/P_out <= 1)")
    rhs = 1.0 / (2.0 ** r_p - 1.0)
    root, _ = alpha1_root(
        lambda a1: rhs - quadform.cantelli_threshold(ratio_stats(stats, a1, pw), r, p_out),
        f"(R_P={r_p}, P_out={p_out}) unreachable even at alpha1 = 1",
    )
    return root, r


_OUTAGE = {"gamma": quadform.outage_gamma, "alzer": quadform.outage_alzer}


def outage_surrogate(
    stats: ChannelStats,
    alpha1,
    alpha2,
    pw: PowerConfig,
    r_cr: float,
    method: str = "gamma",
):
    """Chi-square-matched estimate of P(cognitive rate < r_cr).

    Arrays of alpha1 and/or alpha2 give an array of estimates, each element
    as the single point would: 0.0 where the matched threshold is nonpositive
    (every realization meets the target), 1.0 where the moment match is
    undefined (a hopeless point), the gamma or Alzer tail otherwise.
    """
    if method not in _OUTAGE:
        raise ValueError(f"unknown method {method!r}")
    E, threshold = cr_outage_form(DesignParams(alpha1, alpha2), pw, r_cr)
    shape = np.shape(threshold)
    threshold = np.reshape(threshold, -1)
    # always a stack, so an undefined match reads NaN instead of raising
    c2 = quadform.chi2_params(cr_links(stats), E.reshape(-1, 2, 2))
    tail = np.where(np.isnan(c2.w), 1.0, _OUTAGE[method](c2, threshold))
    p = np.where(threshold <= 0, 0.0, tail).reshape(shape)
    return float(p) if p.ndim == 0 else p


def solve_alpha2_slow(
    stats: ChannelStats,
    alpha1: float,
    pw: PowerConfig,
    r_cr: float,
    method: str = "gamma",
    grid_n: int = 41,
) -> tuple[complex, float]:
    """(alpha2, its surrogate outage): the surrogate minimized over complex alpha2.

    Coarse grid over a disc centered on the fast-fading closed form (the
    high-K optimum lands there), evaluated in one call, then coordinate
    descent with shrinking steps, one call per batch of steps.  Plateau ties
    resolve toward the disc center.
    """
    if not 0.0 <= alpha1 < 1.0:
        raise ValueError("alpha1 must lie in [0, 1)")
    if r_cr <= 0:
        raise ValueError("r_cr must be positive")

    def obj(a2):
        return outage_surrogate(stats, alpha1, a2, pw, r_cr, method)

    best, points, dist, step = alpha2_disc(stats, alpha1, pw, grid_n)  # best starts at the centre
    best_val, best_dist = np.inf, 0.0
    # sequential: which of two tied points wins depends on the visiting order
    for a2, val, dst in zip(points.tolist(), obj(points).tolist(), dist.tolist()):
        if val < best_val - 1e-15 or (abs(val - best_val) <= 1e-15 and dst < best_dist):
            best_val, best, best_dist = val, a2, dst
    # local refinement: a round steps +1, -1, +i, -i in turn from the best so
    # far.  One call scores the steps still to take; after the first improving
    # one the rest are scored again from the new best, so every move is the
    # one-point-at-a-time loop's.  A round without a move halves the step.
    while step >= 1e-4:
        todo, moved = (1.0, -1.0, 1j, -1j), False
        while todo:
            cands = [best + d * step for d in todo]
            vals = obj(np.array(cands)).tolist()
            i = next((k for k, val in enumerate(vals) if val < best_val - 1e-15), None)
            if i is None:
                break
            best_val, best, todo, moved = vals[i], cands[i], todo[i + 1 :], True
        if not moved:
            step /= 2.0
    return complex(best), float(best_val)


def design(
    stats: ChannelStats,
    pw: PowerConfig,
    r_p: float,
    p_out: float,
    r_cr: float,
    method: str = "gamma",
) -> SlowDesignResult:
    """Both stages: protect the primary, then minimize own outage."""
    alpha1, r = solve_alpha1_slow(stats, pw, r_p, p_out)
    alpha2, outage = solve_alpha2_slow(stats, alpha1, pw, r_cr, method=method)
    return SlowDesignResult(alpha1, alpha2, outage, r)
