"""Fast-fading design of (alpha1, alpha2) from channel statistics alone.

alpha1 is chosen so a second-order statistical surrogate of the primary
user's ergodic rate meets its no-cognitive-user target; the surrogate's
truncation directions make the result an over-design (the realized ergodic
rate is at least the target).  alpha2 then follows in closed form.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import quadform
from .channel import ChannelStats, DesignParams, PowerConfig, build_matrices

LOG2E = float(np.log2(np.e))
_PRESCAN_N = 200
_RESIDUAL_TOL = 1e-9
_U_WINDOW = 40.0  # standard deviations of |H11|; the tail beyond is ~e^-800
# Cephes' Chebyshev coefficients of i0e (scipy's), highest order first: A on [0, 8] in x/2 - 2, B (of
# sqrt(x) i0e) on (8, inf) in 32/x - 2, led by zeros to A's length, which leave Clenshaw's sums as they are
_I0E_A = (-4.4153416464793395e-18, 3.3307945188222384e-17, -2.431279846547955e-16, 1.715391285555133e-15,
          -1.1685332877993451e-14, 7.676185498604936e-14, -4.856446783111929e-13, 2.95505266312964e-12,
          -1.726826291441556e-11, 9.675809035373237e-11, -5.189795601635263e-10, 2.6598237246823866e-09,
          -1.300025009986248e-08, 6.046995022541919e-08, -2.670793853940612e-07, 1.1173875391201037e-06,
          -4.4167383584587505e-06, 1.6448448070728896e-05, -5.754195010082104e-05, 0.00018850288509584165,
          -0.0005763755745385824, 0.0016394756169413357, -0.004324309995050576, 0.010546460394594998,
          -0.02373741480589947, 0.04930528423967071, -0.09490109704804764, 0.17162090152220877,
          -0.3046826723431984, 0.6767952744094761)
_I0E_B = (-7.233180487874754e-18, -4.830504485944182e-18, 4.46562142029676e-17, 3.461222867697461e-17,
          -2.8276239805165836e-16, -3.425485619677219e-16, 1.7725601330565263e-15, 3.8116806693526224e-15,
          -9.554846698828307e-15, -4.150569347287222e-14, 1.54008621752141e-14, 3.8527783827421426e-13,
          7.180124451383666e-13, -1.7941785315068062e-12, -1.3215811840447713e-11, -3.1499165279632416e-11,
          1.1889147107846439e-11, 4.94060238822497e-10, 3.3962320257083865e-09, 2.266668990498178e-08,
          2.0489185894690638e-07, 2.8913705208347567e-06, 6.889758346916825e-05, 0.0033691164782556943,
          0.8044904110141088)
_I0E = np.array([_I0E_A, (0.0,) * 5 + _I0E_B])


class InfeasibleDesignError(Exception):
    """The protection target cannot be met even at full relaying."""


class FastDesignResult(NamedTuple):
    alpha1: float
    alpha2: complex
    r_target: float
    residual: float

    @property
    def params(self) -> DesignParams:
        return DesignParams(self.alpha1, self.alpha2)


def brentq(f, a, b, xtol, rtol, maxiter=100):
    """Root of f in [a, b] by Brent's method, step for step as scipy's brentq.c (same bracket, same float).
    ValueError when f(a) and f(b) share a sign or f returns NaN, RuntimeError after maxiter iterations."""
    def call(x):
        if np.isnan(fx := float(f(x))):
            raise ValueError(f"the function value at x={x:.6g} is NaN")
        return fx
    xpre, xcur = float(a), float(b)
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta, sbis = (xtol + rtol * abs(xcur)) / 2, (xblk - xcur) / 2  # tolerance 2 delta, bisection step
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        step = None  # bisect unless the interpolation step below is short enough
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                step = stry
        spre, scur = (sbis, sbis) if step is None else (scur, step)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = call(xcur)
    raise RuntimeError(f"brentq did not converge after {maxiter} iterations, value is {xcur!r}")


def alpha1_root(slack, infeasible_msg: str):
    """(smallest alpha1 in [0, 1] with slack >= 0, slack there), the search both designs share.

    A 200-point prescan of the vectorized slack finds the first grid point that
    meets the target (robust to non-monotone tails) and Brent's method refines
    the crossing before it; 0.0 when no relaying is needed.  A NaN on the grid
    raises quadform.DomainError, a grid that never meets the target
    InfeasibleDesignError(infeasible_msg).
    """
    grid = np.linspace(0.0, 1.0, _PRESCAN_N)
    vals = slack(grid)
    if np.isnan(vals).any():
        raise quadform.DomainError("slack is NaN on the alpha1 grid (a form with near-zero mean)")
    if vals[0] >= 0.0:
        return 0.0, vals[0]
    if np.all(vals < 0.0):
        raise InfeasibleDesignError(infeasible_msg)
    i = int(np.argmax(vals >= 0.0))
    root = brentq(slack, grid[i - 1], grid[i], xtol=1e-13, rtol=8.9e-16)
    residual = slack(root)
    if abs(residual) > _RESIDUAL_TOL:
        raise RuntimeError(f"root residual {residual:g} above tolerance")
    return float(root), residual


def _i0e(x):
    """exp(-x) I0(x) for an array x >= 0: Cephes' i0e (scipy's), its Clenshaw sums operation for operation."""
    small = x <= 8.0
    y = np.where(small, x / 2.0 - 2.0, 32.0 / np.maximum(x, 8.0) - 2.0)
    b0, b1 = np.where(small, *_I0E[:, 0]), 0.0
    for a_k, b_k in _I0E[:, 1:].T:
        b0, b1, b2 = y * b0 - b1 + np.where(small, a_k, b_k), b0, b1
    return 0.5 * (b0 - b2) / np.sqrt(np.where(small, 1.0, x))


def _gauss_legendre(f, windows):
    """Integral of the vectorized f over the (lo, hi) windows by the 192-node
    Gauss-Legendre rule, and its distance from the 96-node rule as the error."""
    lo, hi = np.array(windows).T[:, :, None]
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    (xc, wc), (xf, wf) = map(quadform.legendre_rule, (96, 192))
    vals = f(mid + half * np.concatenate([xc, xf]))  # f once, on both rules' nodes
    coarse, fine = np.sum(half * wc * vals[:, : len(xc)]), np.sum(half * wf * vals[:, len(xc) :])
    return float(fine), float(abs(fine - coarse))


# Built and checked once per ChannelStats: every surrogate evaluation asks again.
@lru_cache(maxsize=64)
def primary_links(stats: ChannelStats) -> quadform.GaussianVectorSpec:
    return quadform.GaussianVectorSpec.from_diag(
        [stats.mu11, stats.mu12], [stats.var11, stats.var12]
    )


@lru_cache(maxsize=64)
def cr_links(stats: ChannelStats) -> quadform.GaussianVectorSpec:
    return quadform.GaussianVectorSpec.from_diag(
        [stats.mu21, stats.mu22], [stats.var21, stats.var22]
    )


def primary_target_ergodic(stats: ChannelStats, pw: PowerConfig) -> float:
    """E[log2(1 + |H11|^2 Pp / noise)] by Gauss-Legendre quadrature over the Rician density.

    The integration variable is the standardized amplitude
    u = (|H11| - nu) / sigma with sigma^2 = var/2, on a finite window of
    +-40 around the peak (cut at |H11| = 0).  The density there is
    standard-normal-like at every K, so the quadrature cannot miss a narrow
    peak at high K the way an integral over the power on [0, inf) does.
    A result on which the 96- and 192-node rules disagree, or one outside
    (0, Jensen's bound], raises instead of passing as a valid target.
    """
    snr = pw.Pp / pw.noise_p
    nu2 = abs(stats.mu11) ** 2
    s2 = stats.var11
    if s2 == 0.0:
        return float(np.log2(1.0 + nu2 * snr))
    nu = np.sqrt(nu2)
    sigma = np.sqrt(s2 / 2.0)

    def integrand(u):
        # amplitude density times dr/du, with the exponentially scaled
        # Bessel function so nothing overflows; (r - nu)^2 / s2 = u^2 / 2
        # is written out to avoid cancellation when sigma << nu
        r = nu + sigma * u
        dens = (2.0 * r * sigma / s2) * np.exp(-0.5 * u * u) * _i0e(2.0 * nu * r / s2)
        return np.log2(1.0 + r * r * snr) * dens

    val, err = _gauss_legendre(integrand, ((max(-nu / sigma, -_U_WINDOW), 0.0), (0.0, _U_WINDOW)))
    if err > 1e-6 * max(abs(val), 1.0):
        raise RuntimeError(f"ergodic-rate quadrature did not converge (err={err:g})")
    jensen = float(np.log2(1.0 + (nu2 + s2) * snr))
    if not 0.0 < val <= jensen + err:
        raise RuntimeError(f"ergodic-rate quadrature gave {val!r}, outside (0, {jensen!r}] (Jensen)")
    return float(val)


def primary_rate_surrogate(stats: ChannelStats, alpha1, pw: PowerConfig):
    """Second-order lower estimate of the primary ergodic rate at alpha1.

    The signal+interference log term is expanded to second order around its
    mean (an under-estimate, concavity) while the interference-only term is
    replaced by Jensen's upper bound, so the difference under-estimates the
    true ergodic rate and designs on it are conservative.  An array of alpha1
    gives an array of rates.
    """
    g = primary_links(stats)
    P, Q = build_matrices(alpha1, pw)
    S = P + Q
    mu1 = quadform.qf_mean(g, S) / pw.noise_p
    var1 = quadform.qf_variance(g, S) / pw.noise_p ** 2
    mu2 = quadform.qf_mean(g, Q) / pw.noise_p
    rate = np.log2(1.0 + mu1) - 0.5 * LOG2E * var1 / np.square(1.0 + mu1) - np.log2(1.0 + mu2)
    return float(rate) if np.ndim(rate) == 0 else rate


def solve_alpha1_fast(
    stats: ChannelStats, pw: PowerConfig, r_target: float | None = None
) -> FastDesignResult:
    """Smallest alpha1 whose surrogate primary rate meets the target."""
    if r_target is None:
        r_target = primary_target_ergodic(stats, pw)
    root, residual = alpha1_root(
        lambda a1: primary_rate_surrogate(stats, a1, pw) - r_target,
        f"target {r_target:.4f} bpcu unreachable even at alpha1 = 1",
    )
    return FastDesignResult(root, alpha2_fast(stats, root, pw), r_target, residual)


def alpha2_fast(stats: ChannelStats, alpha1: float, pw: PowerConfig) -> complex:
    """Closed-form precoding coefficient for the fast-fading design."""
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError("alpha1 outside [0, 1]")
    if alpha1 == 1.0:
        return 0j  # no own signal left to precode
    sigma2 = (1.0 - alpha1) * pw.Pc
    lead = np.conj(stats.mu22) * stats.mu21 + np.sqrt(alpha1 * pw.Pc / pw.Pp)
    return complex(lead * sigma2 / (sigma2 + pw.noise_s))


def alpha2_disc(stats: ChannelStats, alpha1: float, pw: PowerConfig, grid_n: int):
    """(centre, points, their distances from it, grid step) of the alpha2 search disc.

    The centre is the fast closed form and the radius twice its modulus (1 when
    it is 0); the points are those of the grid_n x grid_n square grid that lie
    inside the disc, dre-major.
    """
    center = complex(alpha2_fast(stats, alpha1, pw))
    radius = 2.0 * abs(center) or 1.0
    offs = np.linspace(-radius, radius, grid_n)
    dre, dim = np.meshgrid(offs, offs, indexing="ij")
    dist = np.hypot(dre, dim)
    inside = dist <= radius + 1e-12
    step = offs[1] - offs[0] if grid_n > 1 else radius / 2
    return center, center + dre[inside] + 1j * dim[inside], dist[inside], step
