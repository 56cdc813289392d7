"""Non-fading closed forms and convergence of the statistical designs.

As the K-factor grows the channels harden to their means and both designs
must approach the deterministic-channel solution: alpha1 from a quadratic in
sqrt(alpha1), alpha2 from the scaled MMSE coefficient.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import design_fast, design_slow
from .channel import ChannelStats, PowerConfig
from .design_fast import InfeasibleDesignError

DEFAULT_K_GRID = (0.0, 10.0, 20.0, 30.0, 40.0)


@dataclass(frozen=True)
class AsymptoticReport:
    k_db: tuple
    alpha1_limit: float
    alpha2_limit: complex
    alpha1_fast: tuple
    alpha2_fast: tuple
    slow_k_db: tuple = ()
    alpha1_slow: tuple = ()
    alpha2_slow: tuple = ()
    deviations: dict = field(default_factory=dict)


def nonfading_alpha1(pw: PowerConfig) -> float:
    """Deterministic-channel relaying ratio restoring the primary's rate.

    Solves (sqrt(Pp) + sqrt(alpha1 Pc))^2 / ((1-alpha1)Pc + noise) = Pp/noise,
    a quadratic in y = sqrt(alpha1 Pc); the positive root is unique.
    """
    rho = pw.Pp / pw.noise_p
    y = (-np.sqrt(pw.Pp) + np.sqrt(pw.Pp + rho * (1.0 + rho) * pw.Pc)) / (1.0 + rho)
    alpha1 = y ** 2 / pw.Pc
    if alpha1 > 1.0 + 1e-12:
        raise InfeasibleDesignError("deterministic protection needs alpha1 > 1")
    alpha1 = min(alpha1, 1.0)
    lhs = (np.sqrt(pw.Pp) + np.sqrt(alpha1 * pw.Pc)) ** 2 / (
        (1.0 - alpha1) * pw.Pc + pw.noise_p
    )
    if abs(lhs - rho) > 1e-12 * rho:
        raise RuntimeError("closed-form root failed back-substitution")
    return float(alpha1)


def nonfading_alpha2(alpha1: float, pw: PowerConfig) -> complex:
    """Deterministic-channel precoder: relay-boosted MMSE coefficient."""
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError("alpha1 outside [0, 1]")
    sigma2 = (1.0 - alpha1) * pw.Pc
    mmse = sigma2 / (sigma2 + pw.noise_s)
    return complex((1.0 + np.sqrt(alpha1 * pw.Pc / pw.Pp)) * mmse)


def convergence_sweep(
    pw: PowerConfig,
    modes=("fast", "slow"),
    k_grid=DEFAULT_K_GRID,
    slow_p_out: float = 0.1,
    slow_r_cr: float = 1.0,
) -> AsymptoticReport:
    """Designed (alpha1, alpha2) against their non-fading limits along K.

    The slow design targets R_P = log2(1 + Pp/noise) so its limit equation
    coincides with the fast one; its finite-K gap carries the Cantelli term
    delta*sigma and so decays like 10^(-K_dB/20), an order slower than the
    fast design's variance-driven gap, which decays like 10^(-K_dB/10).  Both
    alpha2 deviations, measured against nonfading_alpha2 at the designed
    alpha1, also decay like 10^(-K_dB/10) (a factor 10 per 10 dB from
    40 to 80 dB at Pc = Pp = 10).
    """
    if list(k_grid) != sorted(k_grid):
        raise ValueError("k_grid must ascend")
    a1_lim = nonfading_alpha1(pw)
    a2_lim = nonfading_alpha2(a1_lim, pw)
    r_p = float(np.log2(1.0 + pw.Pp / pw.noise_p))
    a1_fast, a2_fast, slow_ks, a1_slow, a2_slow = [], [], [], [], []
    for k_db in k_grid:
        stats = ChannelStats.from_k_factor(k_db)
        if "fast" in modes:
            res = design_fast.solve_alpha1_fast(stats, pw)
            a1_fast.append(res.alpha1)
            a2_fast.append(res.alpha2)
        if "slow" in modes:
            try:
                a1, _ = design_slow.solve_alpha1_slow(stats, pw, r_p, slow_p_out)
            except InfeasibleDesignError:
                # deep fades cannot support the deterministic-channel rate
                # at this outage level; the limit is approached from the
                # feasible side of the grid only
                continue
            slow_ks.append(k_db)
            a1_slow.append(a1)
            a2_slow.append(design_slow.solve_alpha2_slow(stats, a1, pw, slow_r_cr)[0])
    dev = {}
    if a1_fast:
        dev["alpha1_fast"] = tuple(abs(a - a1_lim) for a in a1_fast)
        dev["alpha2_fast"] = tuple(
            abs(a2 - nonfading_alpha2(a1, pw)) for a1, a2 in zip(a1_fast, a2_fast)
        )
    if a1_slow:
        dev["alpha1_slow"] = tuple(abs(a - a1_lim) for a in a1_slow)
        dev["alpha2_slow"] = tuple(
            abs(a2 - nonfading_alpha2(a1, pw)) for a1, a2 in zip(a1_slow, a2_slow)
        )
    return AsymptoticReport(
        k_db=tuple(k_grid),
        alpha1_limit=a1_lim,
        alpha2_limit=a2_lim,
        alpha1_fast=tuple(a1_fast),
        alpha2_fast=tuple(a2_fast),
        slow_k_db=tuple(slow_ks),
        alpha1_slow=tuple(a1_slow),
        alpha2_slow=tuple(a2_slow),
        deviations=dev,
    )
