"""Moments of quadratic forms in complex Gaussian vectors, and tail bounds.

For H ~ CN(mu, Sigma) and Hermitian A, the form eps = H^H A H has

    E[eps]   = mu^H A mu + tr(Sigma A)
    var[eps] = tr(Sigma A Sigma A) + 2 Re{mu^H A Sigma A mu}

These feed three consumers: a second-order Taylor design equation (fast
fading), a delta-method ratio approximation (slow fading, alpha1), and a
moment-matched chi-square outage surrogate (slow fading, alpha2).
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
        object.__setattr__(self, "mean", np.asarray(self.mean, dtype=complex))
        object.__setattr__(self, "cov", np.asarray(self.cov, dtype=complex))
        if np.max(np.abs(self.cov - self.cov.conj().T)) > _HERM_TOL:
            raise ValueError("covariance not Hermitian")
        if np.min(np.linalg.eigvalsh(self.cov)) < -1e-9:
            raise ValueError("covariance not positive semi-definite")

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
    if np.max(np.abs(A - A.conj().T)) > _HERM_TOL:
        raise ValueError("matrix not Hermitian")
    return A


def qf_mean(g: GaussianVectorSpec, A) -> float:
    A = _check_hermitian(A)
    return float(np.real(g.mean.conj() @ A @ g.mean + np.trace(g.cov @ A)))


def qf_variance(g: GaussianVectorSpec, A) -> float:
    A = _check_hermitian(A)
    SA = g.cov @ A
    return float(
        np.real(np.trace(SA @ SA)) + 2.0 * np.real(g.mean.conj() @ A @ SA @ g.mean)
    )


def qf_covariance(g: GaussianVectorSpec, A, B) -> float:
    """cov(H^H A H, H^H B H) for Hermitian A, B."""
    A = _check_hermitian(A)
    B = _check_hermitian(B)
    return float(
        np.real(np.trace(A @ g.cov @ B @ g.cov))
        + 2.0 * np.real(g.mean.conj() @ A @ g.cov @ B @ g.mean)
    )


def ratio_moments(g: GaussianVectorSpec, P, Q, offset: float = 1.0) -> RatioMoments:
    """Second-order delta-method mean/std of (H^H Q H + offset) / (H^H P H),
    validated against Monte Carlo."""
    a = qf_mean(g, P)
    if a <= 1e-12:
        raise DomainError("denominator form has (near-)zero mean")
    vp = qf_variance(g, P)
    vq = qf_variance(g, Q)
    cov = qf_covariance(g, Q, P)
    b = qf_mean(g, Q) + offset
    mean = (b / a) * (1.0 - cov / (a * b) + vp / a ** 2)
    var = (b / a) ** 2 * (vq / b ** 2 - 2.0 * cov / (a * b) + vp / a ** 2)
    return RatioMoments(mean=float(mean), std=float(np.sqrt(max(var, 0.0))))


def chi2_params(g: GaussianVectorSpec, E) -> Chi2Approx:
    """Match v*chi2(w) to the first two moments of H^H E H.

    E need only be Hermitian; the match is usable whenever the form has
    positive mean and variance (at typical design points E is indefinite).
    """
    E = _check_hermitian(E)
    m1 = qf_mean(g, E)
    m2 = qf_variance(g, E)
    if m1 <= 0 or m2 <= 0:
        raise DomainError("quadratic form needs positive mean and variance")
    return Chi2Approx(v=m2 / (2.0 * m1), w=2.0 * m1 ** 2 / m2)


def eigh2x2(A):
    """Closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns (eigenvalues ascending, unitary V with columns as eigenvectors).
    """
    A = _check_hermitian(A)
    a, c = A[0, 0].real, A[1, 1].real
    b = A[0, 1]
    half_tr = 0.5 * (a + c)
    disc = np.sqrt(max((0.5 * (a - c)) ** 2 + abs(b) ** 2, 0.0))
    lam = np.array([half_tr - disc, half_tr + disc])
    if abs(b) < 1e-300:
        V = np.eye(2, dtype=complex) if a <= c else np.eye(2)[:, ::-1].astype(complex)
        return lam, V
    cols = []
    for lv in lam:
        # (A - lv I) v = 0; the larger of the two candidate solutions is
        # the numerically safe one.
        v1 = np.array([b, lv - a])
        v2 = np.array([lv - c, b.conjugate()])
        v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
        cols.append(v / np.linalg.norm(v))
    return lam, np.stack(cols, axis=1)


def _sqrtm2x2_psd(S):
    """Closed-form principal square root of a 2x2 PSD Hermitian matrix."""
    S = np.asarray(S, dtype=complex)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    s = np.sqrt(max(det.real, 0.0))
    tr = (S[0, 0] + S[1, 1]).real
    denom = np.sqrt(tr + 2.0 * s)
    if denom == 0:
        return np.zeros((2, 2), dtype=complex)
    return (S + s * np.eye(2)) / denom


def chi2_params_via_eigen(g: GaussianVectorSpec, E) -> Chi2Approx:
    """Same match through the eigenvalues of Sigma^(1/2) E Sigma^(1/2).

    The form is a weighted sum of noncentral chi-squares,
    sum_i lambda_i chi2(2, 2|mu3_i|^2)/2; its moments give identical (v, w).
    Requires nonsingular Sigma.
    """
    E = _check_hermitian(E)
    root = _sqrtm2x2_psd(g.cov)
    if abs(np.linalg.det(root)) < 1e-12:
        raise DomainError("eigen route needs a nonsingular covariance")
    lam, V = eigh2x2(root @ E @ root)
    mu3 = V.conj().T @ np.linalg.solve(root, g.mean)
    m1 = float(np.sum(lam * (1.0 + np.abs(mu3) ** 2)))
    m2 = float(np.sum(lam ** 2 * (1.0 + 2.0 * np.abs(mu3) ** 2)))
    if m1 <= 0 or m2 <= 0:
        raise DomainError("quadratic form needs positive mean and variance")
    return Chi2Approx(v=m2 / (2.0 * m1), w=2.0 * m1 ** 2 / m2)


def outage_gamma(c2: Chi2Approx, threshold: float) -> float:
    """P(v*chi2(w) < threshold), regularized lower incomplete gamma."""
    if threshold <= 0:
        return 0.0
    return float(gammainc(c2.w / 2.0, threshold / (2.0 * c2.v)))


def alzer_s(w: float) -> float:
    """Sharpness constant of the exponential lower bound on gammainc(w/2, .)."""
    if w <= 0:
        raise DomainError("w must be positive")
    if w <= 2.0:
        return 1.0
    return float(np.exp(-(2.0 / w) * gammaln(1.0 + w / 2.0)))


def outage_alzer(c2: Chi2Approx, threshold: float) -> float:
    """Lower bound (1 - exp(-s x))^(w/2) on outage_gamma; exact at w = 2."""
    if threshold <= 0:
        return 0.0
    x = threshold / (2.0 * c2.v)
    return float((1.0 - np.exp(-alzer_s(c2.w) * x)) ** (c2.w / 2.0))


def cantelli_threshold(rm: RatioMoments, r: float, p_out: float) -> float:
    """One-sided mean-plus-deviation design level mu + sqrt(r/P_out - 1) sigma."""
    if r / p_out <= 1.0:
        raise DomainError("requires r/P_out > 1")
    return rm.mean + np.sqrt(r / p_out - 1.0) * rm.std
