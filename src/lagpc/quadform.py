"""Moments of quadratic forms in complex Gaussian vectors, and tail bounds.

For H ~ CN(mu, Sigma) and Hermitian A, B, the forms H^H A H and H^H B H have

    E[H^H A H]                = mu^H A mu + tr(Sigma A)  = tr(A R)
    cov(H^H A H, H^H B H)     = tr(A Sigma B Sigma) + 2 Re{mu^H A Sigma B mu}
                              = Re tr(A Sigma B W)

with R = Sigma + mu mu^H and W = Sigma + 2 mu mu^H.  Both are fixed by the
spec, so every moment is a linear or bilinear function of the entries of the
forms: flattening A row-major to a, tr(A R) = a . vec(R^T) and
tr(A Sigma B W) = a^T G b with G[(i,j),(k,l)] = Sigma_jk W_li.

These feed three consumers: a second-order Taylor design equation (fast
fading), a delta-method ratio approximation (slow fading, alpha1), and a
moment-matched chi-square outage surrogate (slow fading, alpha2).

Every function takes a single 2x2 form, giving floats, or a stack
A[..., 2, 2] of forms, giving arrays of the stack's shape; a design scan is
then one call.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

_HERM_TOL = 1e-10  # on |A - A^H| per entry, relative to the entry where |A_ij| > 1
_RULE_N = 32  # Gauss-Legendre nodes per _gammainc window


class DomainError(ValueError):
    """Inputs outside the region where the approximation is defined."""


class GaussianVectorSpec:
    """H ~ CN(mean, cov); cov is diagonal in every scenario used here."""

    def __init__(self, mean, cov):
        # read-only copies: a spec may be cached and shared between callers
        self.mean = mu = np.array(mean, dtype=complex)
        self.cov = cov = np.array(cov, dtype=complex)
        mu.flags.writeable = cov.flags.writeable = False
        if np.max(np.abs(cov - cov.conj().T)) > _HERM_TOL:
            raise ValueError("covariance not Hermitian")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-9:
            raise ValueError("covariance not positive semi-definite")
        # the moment weights of the module docstring, vec(R^T) and G
        n = mu.size
        mu_mu = np.outer(mu, mu.conj())
        self._mean_weights = (cov + mu_mu).T.reshape(n * n)
        self._cov_kernel = np.einsum("jk,li->ijkl", cov, cov + 2.0 * mu_mu).reshape(n * n, n * n)

    @classmethod
    def from_diag(cls, mean, variances) -> "GaussianVectorSpec":
        return cls(np.asarray(mean, dtype=complex), np.diag(variances).astype(complex))


class RatioMoments(NamedTuple):
    mean: float
    std: float


class Chi2Approx(NamedTuple):
    v: float
    w: float


def _check_hermitian(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    err = np.abs(A - A.swapaxes(-1, -2).conj())  # at most _HERM_TOL passes whatever |A_ij|
    if err.max(initial=0.0) > _HERM_TOL and (err > _HERM_TOL * np.maximum(1.0, np.abs(A))).any():
        raise ValueError("matrix not Hermitian")
    return A


def _value(x):
    """A float for one form, the array of the stack's shape for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _flat(A):
    """Forms [..., n, n] flattened row-major to [..., n*n]."""
    return A.reshape(A.shape[:-2] + (-1,))


# The unchecked moments; the public functions check each form once.  Products
# summed over the last axes (np.add.reduce, np.sum less its wrapper), not BLAS's
# `@`, whose bits depend on the stack's shape: a stack's forms get the bits of
# their point calls.  Likewise squares are np.square (a numpy scalar's ** 2 is pow).
def _mean(g: GaussianVectorSpec, A):
    return np.real(np.add.reduce(_flat(A) * g._mean_weights, axis=-1))


def _covariance(g: GaussianVectorSpec, A, B):
    return np.real(np.add.reduce(_flat(A)[..., :, None] * g._cov_kernel * _flat(B)[..., None, :], axis=(-2, -1)))


def _variance(g: GaussianVectorSpec, A):
    return _covariance(g, A, A)


def qf_mean(g: GaussianVectorSpec, A):
    return _value(_mean(g, _check_hermitian(A)))


def qf_variance(g: GaussianVectorSpec, A):
    return _value(_variance(g, _check_hermitian(A)))


def _mask_undefined(bad, message: str, *moments):
    """One form raises DomainError(message) where ``bad``; a stack gets NaN there."""
    if np.ndim(bad) == 0:
        if bad:
            raise DomainError(message)
        return moments
    return tuple(np.where(bad, np.nan, m) for m in moments)


def ratio_moments(g: GaussianVectorSpec, P, Q, offset: float = 1.0) -> RatioMoments:
    """Second-order delta-method mean/std of (H^H Q H + offset) / (H^H P H),
    validated against Monte Carlo.

    Stacks of forms give arrays, NaN where the denominator form has
    (near-)zero mean; a single form raises DomainError there.
    """
    P = _check_hermitian(P)
    Q = _check_hermitian(Q)
    a = _mean(g, P)
    (a,) = _mask_undefined(a <= 1e-12, "denominator form has (near-)zero mean", a)
    vp = _variance(g, P)
    vq = _variance(g, Q)
    cov = _covariance(g, Q, P)
    b = _mean(g, Q) + offset
    mean = (b / a) * (1.0 - cov / (a * b) + vp / np.square(a))
    var = np.square(b / a) * (vq / np.square(b) - 2.0 * cov / (a * b) + vp / np.square(a))
    return RatioMoments(mean=_value(mean), std=_value(np.sqrt(np.maximum(var, 0.0))))


def chi2_params(g: GaussianVectorSpec, E) -> Chi2Approx:
    """Match v*chi2(w) to the first two moments of H^H E H.

    E need only be Hermitian; the match is usable whenever the form has
    positive mean and variance (at typical design points E is indefinite).
    A stack of forms gives arrays, NaN where the match is undefined; a single
    form raises DomainError there.
    """
    E = _check_hermitian(E)
    m1 = _mean(g, E)
    m2 = _variance(g, E)
    m1, m2 = _mask_undefined(
        (m1 <= 0) | (m2 <= 0), "quadratic form needs positive mean and variance", m1, m2
    )
    return Chi2Approx(v=_value(m2 / (2.0 * m1)), w=_value(2.0 * np.square(m1) / m2))


@lru_cache(maxsize=8)
def legendre_rule(n: int):
    """(nodes ascending, weights) of the n-node Gauss-Legendre rule on [-1, 1], without LAPACK.

    Newton's method on the three-term recurrence, from Tricomi's approximate nodes (Hale & Townsend,
    SIAM J. Sci. Comput. 35(2), 2013), for the nonnegative half; the weights are 2 / ((1 - x^2) P_n'^2).
    A step under 1e-12 leaves the next under an ulp, so P_n' is carried over it by Legendre's equation,
    (1 - x^2) P_n'' = 2 x P_n' - n (n + 1) P_n, in place of another pass.  The nodes lie within 2 ulps
    of numpy's leggauss, whose weights err by up to 4e-11 at 192 nodes.
    """
    theta = (4.0 * np.arange((n + 1) // 2, 0, -1) - 1.0) * (np.pi / (4.0 * n + 2.0))
    shift = (39.0 - 28.0 / np.square(np.sin(theta))) / (384.0 * n ** 4)
    x = (1.0 - (n - 1) / (8.0 * n ** 3) - shift) * np.cos(theta)
    steps = [((2 * k - 1) / k, (k - 1) / k) for k in range(2, n + 1)]
    dx = 1.0
    while np.max(np.abs(dx)) > 1e-12:
        p0, p1 = np.ones_like(x), x.copy()
        for a, b in steps:  # P_k = a x P_(k-1) - b P_(k-2), in place: the rule's cost is these passes
            t = x * p1
            t *= a
            p0 *= b
            t -= p0
            p0, p1 = p1, t
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        dx = p1 / dp
        x -= dx
    dp -= dx * (2.0 * x * dp - n * (n + 1) * p1) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x, w = np.concatenate([-x[::-1], x[n % 2 :]]), np.concatenate([w[::-1], w[n % 2 :]])
    x.flags.writeable = w.flags.writeable = False  # shared by every caller
    return x, w


def _gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0 and finite x >= 0 of one shape, NaN elsewhere;
    each element on its own, so a stack's elements equal their point calls.

    P(a, x) = x^a e^-x / Gamma(a + 1) sum_{k < m} x^k / ((a + 1) ... (a + k)) + P(a + m, x), in Cephes'
    order.  Below a = 20 and x = 16 the terms past max(x - a, 0) + 8 sqrt(x) + 20 are under 2^-54 of the
    sum (checked on a grid): it stops there, without P(a + m, x).  Else m = ceil(20 - a), or 0 above
    a = 20, and P(b, x), b = a + m >= 20, is one window of the integral of t^n e^-t / Gamma(b), n = b - 1,
    below x if x < n, else above (1 - P), by the _RULE_N-node rule in e, t = x (1 + e).  Over its value
    at x the integrand exp(n log1p(e) - x e) is under exp(-(x - n) e) and exp(-n e^2 / (2 + 2 e)) above
    x; below, under exp(-(n / x - 1)(x - t)) and, in u = (t - n) / sqrt(n), exp(-u^2 / 2) with slope
    |u_x| or more.  A window ends where its tighter bound is e^-40.
    """
    shape, a, x = np.shape(a), np.asarray(a, dtype=float).ravel(), np.asarray(x, dtype=float).ravel()
    p = np.where((x == 0.0) & (a > 0.0), 0.0, np.nan)
    i = ((a > 0.0) & (x > 0.0)).nonzero()[0]
    a, x = a[i], x[i]
    head = a <= 20.0
    near = head & (x < 16.0)
    j = (~near).nonzero()[0]
    if j.size:  # a far element's P(a + m, x) follows m = ceil(20 - a) terms, none above a = 20
        steps = np.where(near, np.inf, np.ceil(20.0 - a) * head)
    k = head.nonzero()[0]
    if k.size:
        ak, xk, top = a[k], x[k], float(np.max(np.where(near[k], x[k], 0.0)))
        rows = 21 + math.ceil(top + 8.0 * math.sqrt(top))  # past each near element's need
        terms = np.divide(xk, np.add.outer(np.arange(float(rows)), ak))
        terms[0] = 1.0
        terms *= np.arange(rows)[:, None] < steps[k] if j.size else 1.0
        np.multiply.accumulate(terms, axis=0, out=terms)  # x^k / ((a + 1) ... (a + k))
        gamma = ak * np.fromiter(map(math.gamma, ak.tolist()), float, k.size)  # Gamma(a + 1), a + 1 unrounded
        # in row order (numpy reduces 2+ columns row by row): later terms leave a near sum as the point call's
        total = np.add.reduce(terms, axis=0) if k.size > 1 else np.add.accumulate(terms, axis=0)[-1]
        p[i[k]] = np.power(xk, ak) * np.exp(-xk) / gamma * total
    if j.size:
        n, x = a[j] + steps[j] - 1.0, x[j]
        left = x < n
        z = 1.0 / np.square(n)  # Stirling: Gamma(n + 1) = sqrt(2 pi n) n^n e^(-n + stir)
        stir = (1/12 - z * (1/360 - z * (1/1260 - z * (1/1680 - z * (1/1188 - z * (691/360360 - z / 156)))))) / n
        d = np.maximum((x - n) / n, -0.5)  # log1p's branch is taken from x = n / 2 on
        log_x = np.where(x < 0.5 * n, n * np.log(x / n) - (x - n), n * (np.log1p(d) - d))  # at x over at n
        gap = np.maximum(n - x, 1e-300 * x)  # no slope bound where x >= n, whose windows start at x
        below = np.minimum(40.0 * x / gap, x - n + np.sqrt(np.square(x - n) + 80.0 * n))
        lo = np.where(left, np.maximum(-1.0, -below / x), 0.0)
        hi = np.where(left, 0.0, 40.0 / np.maximum(x - n, 40.0 * n / (40.0 + np.sqrt(1600.0 + 80.0 * n))))
        (nodes, weights), half = legendre_rule(_RULE_N), 0.5 * (hi - lo)
        e = (0.5 * (hi + lo))[:, None] + half[:, None] * nodes
        with np.errstate(divide="ignore"):  # a node that rounds onto t = 0 weighs exp(-inf) = 0
            f = np.exp(n[:, None] * np.log1p(e) - x[:, None] * e)
        share = np.exp(log_x - stir) / np.sqrt(2.0 * np.pi * n) * x * half * np.add.reduce(f * weights, axis=-1)
        p[i[j]] = np.where(head[j], p[i[j]], 0.0) + np.where(left, share, 1.0 - share)
    return p.reshape(shape)


def outage_gamma(c2: Chi2Approx, threshold):
    """P(v*chi2(w) < threshold), regularized lower incomplete gamma."""
    threshold = np.asarray(threshold, dtype=float)
    p = _gammainc(c2.w / 2.0, threshold / (2.0 * c2.v))
    return _value(np.where(threshold <= 0, 0.0, p))


def cantelli_threshold(rm: RatioMoments, r: float, p_out: float):
    """One-sided mean-plus-deviation design level mu + sqrt(r/P_out - 1) sigma."""
    if r / p_out <= 1.0:
        raise DomainError("requires r/P_out > 1")
    return rm.mean + np.sqrt(r / p_out - 1.0) * rm.std
