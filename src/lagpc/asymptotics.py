"""Non-fading closed forms the statistical designs approach.

As the K-factor grows the channels harden to their means and both designs
must approach the deterministic-channel solution: alpha1 from a quadratic in
sqrt(alpha1), alpha2 from the scaled MMSE coefficient.
"""
from __future__ import annotations

import numpy as np

from .channel import PowerConfig
from .design_fast import InfeasibleDesignError


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
