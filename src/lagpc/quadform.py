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

from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gammaln

_HERM_TOL = 1e-10


class DomainError(ValueError):
    """Inputs outside the region where the approximation is defined."""


@dataclass(frozen=True)
class GaussianVectorSpec:
    """H ~ CN(mean, cov); cov is diagonal in every scenario used here."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        # read-only copies: a spec may be cached and shared between callers
        mu = np.array(self.mean, dtype=complex)
        cov = np.array(self.cov, dtype=complex)
        mu.flags.writeable = cov.flags.writeable = False
        object.__setattr__(self, "mean", mu)
        object.__setattr__(self, "cov", cov)
        if np.max(np.abs(cov - cov.conj().T)) > _HERM_TOL:
            raise ValueError("covariance not Hermitian")
        if np.min(np.linalg.eigvalsh(cov)) < -1e-9:
            raise ValueError("covariance not positive semi-definite")
        # the moment weights of the module docstring, vec(R^T) and G
        n = mu.size
        mu_mu = np.outer(mu, mu.conj())
        object.__setattr__(self, "_mean_weights", (cov + mu_mu).T.reshape(n * n))
        kernel = np.einsum("jk,li->ijkl", cov, cov + 2.0 * mu_mu).reshape(n * n, n * n)
        object.__setattr__(self, "_cov_kernel", kernel)

    @classmethod
    def from_diag(cls, mean, variances) -> "GaussianVectorSpec":
        return cls(np.asarray(mean, dtype=complex), np.diag(variances).astype(complex))


@dataclass(frozen=True)
class RatioMoments:
    mean: float
    std: float


@dataclass(frozen=True)
class Chi2Approx:
    v: float
    w: float


def _check_hermitian(A) -> np.ndarray:
    A = np.asarray(A, dtype=complex)
    if np.abs(A - A.swapaxes(-1, -2).conj()).max(initial=0.0) > _HERM_TOL:
        raise ValueError("matrix not Hermitian")
    return A


def _value(x):
    """A float for one form, the array of the stack's shape for a stack."""
    return float(x) if np.ndim(x) == 0 else x


def _flat(A):
    """Forms [..., n, n] flattened row-major to [..., n*n]."""
    return A.reshape(A.shape[:-2] + (-1,))


# The unchecked moments; the public functions check each form once.  Products
# summed over the last axes, not BLAS's `@`, whose bits depend on the stack's
# shape: each form in a stack gets the bits of its point call.  For the same
# reason squares below are np.square (a numpy scalar's `** 2` calls pow).
def _mean(g: GaussianVectorSpec, A):
    return np.real(np.sum(_flat(A) * g._mean_weights, axis=-1))


def _covariance(g: GaussianVectorSpec, A, B):
    return np.real(np.sum(_flat(A)[..., :, None] * g._cov_kernel * _flat(B)[..., None, :], axis=(-2, -1)))


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


def outage_gamma(c2: Chi2Approx, threshold):
    """P(v*chi2(w) < threshold), regularized lower incomplete gamma."""
    threshold = np.asarray(threshold, dtype=float)
    p = gammainc(c2.w / 2.0, threshold / (2.0 * c2.v))
    return _value(np.where(threshold <= 0, 0.0, p))


def alzer_s(w):
    """Sharpness constant of the exponential lower bound on gammainc(w/2, .)."""
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise DomainError("w must be positive")
    return _value(np.where(w <= 2.0, 1.0, np.exp(-(2.0 / w) * gammaln(1.0 + w / 2.0))))


def outage_alzer(c2: Chi2Approx, threshold):
    """Lower bound (1 - exp(-s x))^(w/2) on outage_gamma; exact at w = 2."""
    threshold = np.asarray(threshold, dtype=float)
    x = threshold / (2.0 * c2.v)
    with np.errstate(invalid="ignore"):  # x < 0 is masked below
        p = (1.0 - np.exp(-alzer_s(c2.w) * x)) ** (c2.w / 2.0)
    return _value(np.where(threshold <= 0, 0.0, p))


def cantelli_threshold(rm: RatioMoments, r: float, p_out: float):
    """One-sided mean-plus-deviation design level mu + sqrt(r/P_out - 1) sigma."""
    if r / p_out <= 1.0:
        raise DomainError("requires r/P_out > 1")
    return rm.mean + np.sqrt(r / p_out - 1.0) * rm.std
