"""Channel model for a cognitive link that relays the primary signal.

The cognitive transmitter spends a fraction ``alpha1`` of its power budget
relaying the primary symbol and the rest on its own message, which is
precoded against the known interference with a linear-assignment coefficient
``alpha2``.  Everything here is per-realization and exact; statistical design
lives in :mod:`lagpc.design_fast` and :mod:`lagpc.design_slow`.

All logarithms are base 2 and all rates are in bits per channel use.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

_UNIT_TOL = 1e-6
_DRAW_PIECE = 1 << 18  # realizations per piece in sample_realizations


@dataclass(frozen=True)
class ChannelStats:
    """Rician statistics of the four links; unit mean-square per link."""

    mu11: complex
    mu12: complex
    mu21: complex
    mu22: complex
    var11: float
    var12: float
    var21: float
    var22: float

    def __post_init__(self):
        for name in ("11", "12", "21", "22"):
            mu = getattr(self, "mu" + name)
            var = getattr(self, "var" + name)
            if var < 0:
                raise ValueError(f"negative variance on link {name}")
            if abs(abs(mu) ** 2 + var - 1.0) > _UNIT_TOL:
                raise ValueError(
                    f"link {name}: |mu|^2 + var = {abs(mu)**2 + var:.8f}, expected 1"
                )

    @classmethod
    def from_k_factor(cls, k_db: float, phases=(0.0, 0.0, 0.0, 0.0)) -> "ChannelStats":
        """All four links Rician with the same K-factor (dB).

        |mu|^2 = K/(K+1) and var = 1/(K+1) so each link has unit mean-square
        gain.  Mean phases default to zero.
        """
        k = 10.0 ** (k_db / 10.0)
        mag = np.sqrt(k / (k + 1.0))
        var = 1.0 / (k + 1.0)
        mus = [mag * cmath.exp(1j * ph) for ph in phases]
        return cls(*mus, var, var, var, var)

    def k_factor(self, link: str) -> float:
        """Linear K-factor |mu|^2/var of one link ("11".."22")."""
        var = getattr(self, "var" + link)
        if var == 0:
            return np.inf
        return abs(getattr(self, "mu" + link)) ** 2 / var


@dataclass(frozen=True)
class PowerConfig:
    Pc: float
    Pp: float
    noise_p: float = 1.0
    noise_s: float = 1.0

    def __post_init__(self):
        if min(self.Pc, self.Pp, self.noise_p, self.noise_s) <= 0:
            raise ValueError("powers and noise variances must be positive")


@dataclass(frozen=True)
class DesignParams:
    """One design point, or a grid of them when alpha1 or alpha2 is an array."""

    alpha1: float
    alpha2: complex

    def __post_init__(self):
        _check_alpha1(self.alpha1)


def _check_alpha1(alpha1):
    """ValueError unless every alpha1 (a float or an array) lies in [0, 1]."""
    a1 = np.asarray(alpha1)
    if not ((0.0 <= a1) & (a1 <= 1.0)).all():
        raise ValueError(f"alpha1 = {alpha1} outside [0, 1]")


@dataclass(frozen=True)
class ChannelRealization:
    """One draw (or a vector of draws) of the four channel gains."""

    h11: np.ndarray
    h12: np.ndarray
    h21: np.ndarray
    h22: np.ndarray

    def __len__(self):
        return np.size(self.h11)

    def __getitem__(self, idx) -> "ChannelRealization":
        return ChannelRealization(
            self.h11[idx], self.h12[idx], self.h21[idx], self.h22[idx]
        )


def sample_realizations(
    stats: ChannelStats, n: int, seed: int, start: int = 0
) -> ChannelRealization:
    """Draw ``n`` iid channel realizations, reproducibly.

    Counter-based: realization index ``start + i`` always consumes the same
    8 uniforms regardless of how the index range is chunked, so partitioned
    calls tile into the unchunked stream exactly.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    bitgen = Philox(key=seed)
    # 8 doubles per realization = 2 Philox counter increments.
    bitgen.advance(2 * start)
    gen = Generator(bitgen)
    sd = np.sqrt(
        np.array([stats.var11, stats.var12, stats.var21, stats.var22]) / 2.0
    )
    mu = np.array([stats.mu11, stats.mu12, stats.mu21, stats.mu22])
    h = np.empty((n, 4), dtype=complex)
    # filled in place, piece by piece, so the temporaries stay one piece long
    for lo in range(0, n, _DRAW_PIECE):
        u = gen.random((min(_DRAW_PIECE, n - lo), 8))
        ndtri(np.maximum(u, 2.0 ** -53, out=u), out=u)  # normals in place; guard ndtri(0) = -inf
        piece = h[lo : lo + len(u)]
        np.multiply(sd, u.view(complex), out=piece)
        piece += mu
    return ChannelRealization(h[:, 0], h[:, 1], h[:, 2], h[:, 3])


def effective_interference_gain(r: ChannelRealization, alpha1: float, pw: PowerConfig):
    """Gain from the primary symbol to the CR receiver, direct plus relayed."""
    return r.h21 + np.sqrt(alpha1 * pw.Pc / pw.Pp) * r.h22


def cr_rate(r: ChannelRealization, p: DesignParams, pw: PowerConfig):
    """Rate of the cognitive user for given gains and design (vectorized).

    Computed from the 2x2 covariance of (U, Ys) with U = X + alpha2*S; equals
    I(U; Ys) - I(U; S), which can be negative for a poor alpha2.
    """
    sigma2 = (1.0 - p.alpha1) * pw.Pc
    if sigma2 == 0.0:
        if p.alpha2 != 0:
            raise ValueError("alpha1 = 1 with nonzero alpha2: degenerate covariance")
        return np.zeros(np.shape(r.h22)) if np.ndim(r.h22) else 0.0
    hs = effective_interference_gain(r, p.alpha1, pw)
    c0 = sigma2 + abs(p.alpha2) ** 2 * pw.Pp
    cross = np.conj(r.h22) * sigma2 + p.alpha2 * np.conj(hs) * pw.Pp
    ys_pow = (
        np.abs(r.h22) ** 2 * sigma2 + np.abs(hs) ** 2 * pw.Pp + pw.noise_s
    )
    det = c0 * ys_pow - np.abs(cross) ** 2
    return np.log2(sigma2 * ys_pow / det)


def primary_rate(r: ChannelRealization, alpha1: float, pw: PowerConfig):
    """Rate of the primary user under partial relaying (vectorized)."""
    if not 0.0 <= alpha1 <= 1.0:
        raise ValueError("alpha1 outside [0, 1]")
    sig = np.abs(r.h11 * np.sqrt(pw.Pp) + r.h12 * np.sqrt(alpha1 * pw.Pc)) ** 2
    intf = np.abs(r.h12) ** 2 * (1.0 - alpha1) * pw.Pc
    return np.log2(1.0 + sig / (intf + pw.noise_p))


def _outer(x, y):
    """v v^H for v = (x, y); y has the grid's shape and x broadcasts to it."""
    v = np.empty(np.shape(y) + (2,), dtype=complex)
    v[..., 0] = x
    v[..., 1] = y
    return v[..., :, None] * v[..., None, :].conj()


def build_matrices(alpha1, pw: PowerConfig):
    """(P, Q): the primary forms both designs read, in the gains g = (direct, cross).

    g^H P g is the coherent part of the received power and g^H Q g the
    self-interference part.  An array of alpha1 gives stacks [..., 2, 2].
    """
    _check_alpha1(alpha1)
    P = _outer(np.sqrt(pw.Pp), np.sqrt(alpha1 * pw.Pc))
    Q = np.zeros_like(P)
    Q[..., 1, 1] = (1.0 - alpha1) * pw.Pc
    return P, Q


def cr_outage_form(p: DesignParams, pw: PowerConfig, r_cr: float):
    """(E, threshold): cr_rate < r_cr exactly when g^H E g < threshold, g = (h21, h22).

    With c0 = var(U) and d = 2^r_cr / sigma2, E = (1 - c0 d) S + d D, where
    S = P + Q and the rank-one D completes the determinant of the (U, Ys)
    covariance.  Array-valued p.alpha1 and/or p.alpha2 broadcast to a grid of
    design points: E is then a stack [..., 2, 2] and the threshold an array.
    """
    P, Q = build_matrices(p.alpha1, pw)
    sigma2 = (1.0 - p.alpha1) * pw.Pc
    alpha2 = np.asarray(p.alpha2, dtype=complex)  # one ufunc route for a point and a grid
    c0 = sigma2 + np.square(abs(alpha2)) * pw.Pp
    D = _outer(alpha2 * pw.Pp, sigma2 + alpha2 * np.sqrt(p.alpha1 * pw.Pc * pw.Pp))
    d = 2.0 ** r_cr / sigma2
    E = np.asarray(1.0 - c0 * d)[..., None, None] * (P + Q) + np.asarray(d)[..., None, None] * D
    return E, (c0 * d - 1.0) * pw.noise_s


def naive_alpha2(stats: ChannelStats, alpha1: float, pw: PowerConfig) -> float:
    """Mean-channel precoding coefficient (ignores the fading spread)."""
    sigma2 = (1.0 - alpha1) * pw.Pc
    g = abs(stats.mu22) ** 2 * sigma2
    return g / (g + pw.noise_s)

