import contextlib
import io
import json

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc, gammaln

from lagpc import cli, quadform
from lagpc.quadform import (
    Chi2Approx,
    DomainError,
    GaussianVectorSpec,
    chi2_params,
    qf_mean,
    qf_variance,
    ratio_moments,
)


def qf_covariance(g, A, B):
    """cov(H^H A H, H^H B H) for Hermitian A, B (stacks broadcast together)."""
    check = quadform._check_hermitian
    return quadform._value(quadform._covariance(g, check(A), check(B)))


def _random_instance(rng, n=2, psd=False):
    mean = rng.normal(size=n) + 1j * rng.normal(size=n)
    variances = rng.uniform(0.2, 2.0, size=n)
    g = GaussianVectorSpec.from_diag(mean, variances)
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    A = A + A.conj().T
    if psd:
        A = A @ A.conj().T
    return g, A


def _draw(g, m, rng):
    n = len(g.mean)
    z = (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))) / np.sqrt(2.0)
    return g.mean[None, :] + z * np.sqrt(np.diag(g.cov).real)[None, :]


def _form(h, A):
    return np.real(np.einsum("ni,ij,nj->n", h.conj(), A, h))


def test_qf_mean_against_sampling():
    rng = np.random.default_rng(1)
    for _ in range(6):
        g, A = _random_instance(rng)
        h = _draw(g, 200000, rng)
        assert qf_mean(g, A) == pytest.approx(np.mean(_form(h, A)), rel=0.02, abs=0.02)


def test_qf_variance_against_sampling():
    rng = np.random.default_rng(2)
    for _ in range(6):
        g, A = _random_instance(rng)
        h = _draw(g, 200000, rng)
        assert qf_variance(g, A) == pytest.approx(np.var(_form(h, A)), rel=0.03)


def test_qf_covariance_against_sampling():
    rng = np.random.default_rng(3)
    for _ in range(6):
        g, A = _random_instance(rng)
        _, B = _random_instance(rng)
        h = _draw(g, 200000, rng)
        fa, fb = _form(h, A), _form(h, B)
        got = qf_covariance(g, A, B)
        want = np.mean(fa * fb) - np.mean(fa) * np.mean(fb)
        assert got == pytest.approx(want, rel=0.05, abs=0.05)


def test_qf_mean_known_case():
    # identity form: E|H|^2 = |mu|^2 + tr(cov)
    g = GaussianVectorSpec.from_diag([1.0 + 1.0j, 2.0], [0.5, 0.25])
    assert qf_mean(g, np.eye(2)) == pytest.approx(2.0 + 4.0 + 0.75)


def test_qf_rejects_non_hermitian():
    g = GaussianVectorSpec.from_diag([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        qf_mean(g, np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_check_scales_with_the_entries():
    """Complex products with entries near 1e6 are Hermitian only up to rounding, which can leave
    them asymmetric by more than 1e-10; a relative asymmetry of 1e-8 is still rejected."""
    g = GaussianVectorSpec.from_diag([0.5, 0.0], [1.0, 2.0])
    off = 3e5 + 2e5j
    exact = np.array([[6.9e5, off], [off.conjugate(), 4e5]])
    rounded = exact + np.array([[0.0, 0.0], [5e-10, 0.0]])
    assert qf_mean(g, rounded) == pytest.approx(qf_mean(g, exact), rel=1e-15)
    with pytest.raises(ValueError, match="not Hermitian"):
        qf_mean(g, exact + np.array([[0.0, 0.0], [1e-8 * abs(off), 0.0]]))


def _ratio_instance(rng):
    """LOS-dominated spec with a well-conditioned denominator form: the
    regime the second-order expansion is built for (and the one the slow
    design operates in)."""
    phases = np.exp(2j * np.pi * rng.random(2))
    mean = rng.uniform(1.5, 3.0, size=2) * phases
    g = GaussianVectorSpec.from_diag(mean, rng.uniform(0.1, 0.4, size=2))
    A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    P = A @ A.conj().T + 1.0 * np.eye(2)
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    Q = B @ B.conj().T
    return g, P, Q


def test_ratio_moments_delta_vs_sampling():
    """Delta-method mean within a few percent on well-conditioned ratios."""
    rng = np.random.default_rng(4)
    for _ in range(8):
        g, P, Q = _ratio_instance(rng)
        rm = ratio_moments(g, P, Q, offset=1.0)
        h = _draw(g, 300000, rng)
        ratio = (_form(h, Q) + 1.0) / _form(h, P)
        assert rm.mean == pytest.approx(np.mean(ratio), rel=0.05)
        assert rm.std == pytest.approx(np.std(ratio), rel=0.25)


def test_ratio_moments_zero_mean_denominator():
    g = GaussianVectorSpec.from_diag([0.0, 0.0], [1.0, 1.0])
    P = np.array([[1.0, 0.0], [0.0, -1.0]])  # mean form exactly zero
    with pytest.raises(DomainError):
        ratio_moments(g, P, np.eye(2))


def test_chi2_params_matches_form_moments():
    rng = np.random.default_rng(6)
    g, E = _random_instance(rng, psd=True)
    c2 = chi2_params(g, E)
    m1, m2 = qf_mean(g, E), qf_variance(g, E)
    assert c2.v * c2.w == pytest.approx(m1)
    assert 2.0 * c2.v ** 2 * c2.w == pytest.approx(m2)


def _eigh2x2(A):
    """Oracle: closed-form eigendecomposition of a 2x2 Hermitian matrix.

    Returns (eigenvalues ascending, unitary V with columns as eigenvectors).
    """
    A = np.asarray(A, dtype=complex)
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
    """Oracle: closed-form principal square root of a 2x2 PSD Hermitian matrix."""
    S = np.asarray(S, dtype=complex)
    det = S[0, 0] * S[1, 1] - S[0, 1] * S[1, 0]
    s = np.sqrt(max(det.real, 0.0))
    tr = (S[0, 0] + S[1, 1]).real
    denom = np.sqrt(tr + 2.0 * s)
    if denom == 0:
        return np.zeros((2, 2), dtype=complex)
    return (S + s * np.eye(2)) / denom


def _chi2_params_via_eigen(g, E):
    """Oracle: the chi-square match through the eigenvalues of
    Sigma^(1/2) E Sigma^(1/2).

    The form is a weighted sum of noncentral chi-squares,
    sum_i lambda_i chi2(2, 2|mu3_i|^2)/2; its moments give identical (v, w).
    Requires nonsingular Sigma.
    """
    E = np.asarray(E, dtype=complex)
    root = _sqrtm2x2_psd(g.cov)
    assert abs(np.linalg.det(root)) >= 1e-12, "eigen route needs a nonsingular covariance"
    lam, V = _eigh2x2(root @ E @ root)
    mu3 = V.conj().T @ np.linalg.solve(root, g.mean)
    m1 = float(np.sum(lam * (1.0 + np.abs(mu3) ** 2)))
    m2 = float(np.sum(lam ** 2 * (1.0 + 2.0 * np.abs(mu3) ** 2)))
    assert m1 > 0 and m2 > 0
    return Chi2Approx(v=m2 / (2.0 * m1), w=2.0 * m1 ** 2 / m2)


def test_chi2_params_two_routes_agree():
    """Moment matching and the eigen-decomposition route coincide for PSD
    forms with PSD covariance."""
    rng = np.random.default_rng(7)
    for _ in range(10):
        g, E = _random_instance(rng, psd=True)
        a = chi2_params(g, E)
        b = _chi2_params_via_eigen(g, E)
        assert a.v == pytest.approx(b.v, rel=1e-9)
        assert a.w == pytest.approx(b.w, rel=1e-9)


def test_chi2_params_indefinite_form_ok_when_moments_positive():
    g = GaussianVectorSpec.from_diag([2.0, 0.5], [0.3, 0.3])
    E = np.diag([1.0, -0.2])
    c2 = chi2_params(g, E)  # mean still positive
    assert c2.v > 0 and c2.w > 0


def test_chi2_params_rejects_negative_mean():
    g = GaussianVectorSpec.from_diag([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        chi2_params(g, -np.eye(2))


def test_eigh2x2_matches_numpy():
    rng = np.random.default_rng(8)
    for _ in range(200):
        A = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        A = A + A.conj().T
        vals, vecs = _eigh2x2(A)
        ref = np.linalg.eigvalsh(A)
        np.testing.assert_allclose(np.sort(vals), ref, atol=1e-10)
        # eigenvector property
        for i in range(2):
            np.testing.assert_allclose(A @ vecs[:, i], vals[i] * vecs[:, i], atol=1e-9)


def test_chi2_cdf_approximation_quality():
    """The gamma CDF with matched (v, w) tracks the true CDF of a PSD form
    well enough near its bulk; this is the approximation the outage
    surrogate runs on."""
    rng = np.random.default_rng(9)
    g, E = _random_instance(rng, psd=True)
    c2 = chi2_params(g, E)
    h = _draw(g, 400000, rng)
    vals = _form(h, E)
    for q in (0.1, 0.3, 0.5, 0.7):
        thr = np.quantile(vals, q)
        approx = quadform.outage_gamma(c2, thr)
        assert abs(approx - q) < 0.06


def test_outage_gamma_nonpositive_threshold():
    c2 = Chi2Approx(v=1.0, w=2.0)
    assert quadform.outage_gamma(c2, 0.0) == 0.0
    assert quadform.outage_gamma(c2, -3.0) == 0.0


def test_cantelli_threshold_value():
    rm = quadform.RatioMoments(mean=0.2, std=0.05)
    r = 2.0 / 9.0
    thr = quadform.cantelli_threshold(rm, r, 0.1)
    assert thr == pytest.approx(0.2 + np.sqrt(r / 0.1 - 1.0) * 0.05)


def test_cantelli_threshold_infeasible():
    rm = quadform.RatioMoments(mean=0.2, std=0.05)
    with pytest.raises(DomainError):
        quadform.cantelli_threshold(rm, 2.0 / 9.0, 0.5)  # r/p <= 1


def _hermitian_stack(rng, shape):
    A = rng.normal(size=shape + (2, 2)) + 1j * rng.normal(size=shape + (2, 2))
    return A + np.swapaxes(A, -1, -2).conj()


def _trace_moments(g, A, B):
    """Reference: mean of H^H A H and cov(H^H A H, H^H B H) by the trace
    formulas, one form at a time."""
    mu, S = g.mean, g.cov
    mean = np.real(mu.conj() @ A @ mu + np.trace(S @ A))
    cov = np.real(np.trace(A @ S @ B @ S) + 2.0 * (mu.conj() @ A @ S @ B @ mu))
    return mean, cov


@pytest.mark.parametrize("full_cov", [False, True])
def test_stacked_moments_match_single_forms(full_cov):
    """Every element of a stack's moments equals the single-form call, and
    the single form equals the trace formulas."""
    rng = np.random.default_rng(12)
    for shape in [(1,), (7,), (3, 4)] * 40:  # 120 stacks per covariance kind
        mean = rng.normal(size=2) + 1j * rng.normal(size=2)
        if full_cov:
            L = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            g = GaussianVectorSpec(mean, L @ L.conj().T)
        else:
            g = GaussianVectorSpec.from_diag(mean, rng.uniform(0.1, 2.0, size=2))
        A, B = _hermitian_stack(rng, shape), _hermitian_stack(rng, shape)
        got = (qf_mean(g, A), qf_variance(g, A), qf_covariance(g, A, B))
        for idx in np.ndindex(*shape):
            want = (qf_mean(g, A[idx]), qf_variance(g, A[idx]), qf_covariance(g, A[idx], B[idx]))
            for stack, single in zip(got, want):
                assert isinstance(single, float) and stack.shape == shape
                assert stack[idx] == pytest.approx(single, rel=1e-12, abs=1e-300)
            ref_mean, ref_cov = _trace_moments(g, A[idx], B[idx])
            _, ref_var = _trace_moments(g, A[idx], A[idx])
            # absolute floors at the rounding level of the entries involved
            c = np.linalg.norm(g.cov) + np.vdot(mean, mean).real
            ab = np.linalg.norm(A[idx]) + np.linalg.norm(B[idx])
            assert want[0] == pytest.approx(ref_mean, rel=1e-12, abs=1e-12 * ab * c)
            assert want[1] == pytest.approx(ref_var, rel=1e-12, abs=1e-12 * (ab * c) ** 2)
            assert want[2] == pytest.approx(ref_cov, rel=1e-12, abs=1e-12 * (ab * c) ** 2)


def test_stacked_matches_mark_undefined_elements_nan():
    """A stack gives NaN where the single form raises DomainError."""
    g = GaussianVectorSpec.from_diag([1.0, 0.5j], [0.5, 0.3])
    E = np.stack([np.eye(2), -np.eye(2), np.diag([1.0, -0.2])])
    c2 = chi2_params(g, E)
    assert np.isnan(c2.v[1]) and np.isnan(c2.w[1])
    for i in (0, 2):
        single = chi2_params(g, E[i])
        assert (c2.v[i], c2.w[i]) == pytest.approx((single.v, single.w), rel=1e-12)
    with pytest.raises(DomainError):
        chi2_params(g, E[1])
    zero = GaussianVectorSpec.from_diag([0.0, 0.0], [1.0, 1.0])
    P = np.stack([np.eye(2), np.diag([1.0, -1.0])])
    rm = ratio_moments(zero, P, np.eye(2))
    assert np.isnan(rm.mean[1]) and np.isnan(rm.std[1])
    assert rm.mean[0] == pytest.approx(ratio_moments(zero, P[0], np.eye(2)).mean, rel=1e-12)
    with pytest.raises(DomainError):
        ratio_moments(zero, P[1], np.eye(2))


# --- the in-repo special functions against scipy ----------------------------------

_EPS = 2.0 ** -52
# the CLI jobs whose chi-square surrogates the recorded inputs come from: design-map's slow jobs
# and figure 5 at the benchmark's sizes, less its Monte Carlo counts
_RECORDED_JOBS = (
    ("design-slow", {"k_db": [2.5 * i for i in range(9)], "r_p": 2.0, "p_out_p": 0.01, "r_cr": 1.0}),
    ("asymptotic-check", {}),
    ("reproduce-figure", {"figure": 5, "n_outage": 2000, "bf_grid_n": 5, "bf_mc_n": 1000}),
)


def _recorded_gammainc_inputs(tmp_path, monkeypatch):
    """(a, x) of every _gammainc call the _RECORDED_JOBS make, flattened."""
    calls, real = [], quadform._gammainc

    def spy(a, x):
        calls.append(np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float)))
        return real(a, x)

    monkeypatch.setattr(quadform, "_gammainc", spy)
    for i, (command, config) in enumerate(_RECORDED_JOBS):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--config", str(path), "--out", str(tmp_path / str(i))]) == 0
    monkeypatch.undo()
    return (np.concatenate([np.ravel(c[k]) for c in calls]) for k in (0, 1))


def _rounding_scale(a, x):
    """Rounding units a double-precision P(a, x) carries: its condition number in a and x,
    a |log(x/a)| + |x - a|, or where scipy's igam forms exp(a log x - x - lgamma(a)) directly
    (|x - a| > 0.4 a), the size of those terms if larger."""
    kappa = a * np.abs(np.log(x / a)) + np.abs(x - a)
    direct = a * np.abs(np.log(x)) + x + np.abs(gammaln(a))
    return np.where(np.abs(x - a) > 0.4 * a, np.maximum(kappa, direct), kappa)


def test_gammainc_matches_scipy_on_recorded_design_inputs(tmp_path, monkeypatch):
    """quadform._gammainc against scipy on the inputs design-map's slow jobs and figure 5 give it:
    the undefined matches (NaN) in the same places, and every value within 1e-14 relative plus
    4 ulps of the rounding either side carries (_rounding_scale).  Where that scale is large, scipy's
    own error dominates: 8.1e-12 against mpmath at a = 3354, x = 1922, where the port errs 1.7e-14."""
    a, x = _recorded_gammainc_inputs(tmp_path, monkeypatch)
    got, want = quadform._gammainc(a, x), gammainc(a, x)
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(a).any() and (a <= 20.0).sum() > 1000 and (a > 200.0).sum() > 100
    ok = ~np.isnan(want)
    a, x, got, want = a[ok], x[ok], got[ok], want[ok]
    tol = 1e-14 + 4.0 * _EPS * _rounding_scale(a, x)
    assert np.all(np.abs(got - want) <= tol * want + 1e-300)


def test_gammainc_masks_and_edges_match_scipy():
    """NaN shapes and nonpositive thresholds mask as scipy's did under outage_gamma, stacks equal
    point calls, and both routes (a <= 20 and above) meet scipy at their seam and far out."""
    w = np.array([np.nan, 4.0, 4.0, 4.0, 41.0, 40.0, 4e4, 2.4e-7, 1e3])
    threshold = np.array([1.0, -1.0, 0.0, 3.0, 35.0, 35.0, 3.9e4, 1e-3, 1e4])
    c2 = Chi2Approx(v=np.full(w.shape, 0.5), w=w)
    got = quadform.outage_gamma(c2, threshold)
    want = np.where(threshold <= 0, 0.0, gammainc(w / 2.0, threshold))
    assert np.array_equal(np.isnan(got), np.isnan(want))
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
    assert [quadform.outage_gamma(Chi2Approx(0.5, wi), ti) for wi, ti in zip(w[1:], threshold[1:])] == got[1:].tolist()
    assert quadform._gammainc(3.0, 150.0) == 1.0 and quadform._gammainc(30.0, 1e4) == 1.0
    assert quadform._gammainc(3.0, 0.0) == 0.0 and np.isnan(quadform._gammainc(-1.0, 2.0))


def test_legendre_rule_integrates_polynomials_to_the_last_digits():
    """The n-node rule integrates x^k, k < 2n, within tol relative: _gammainc's 32 nodes within 6e-15 and
    the fast target's 96 and 192 within 1e-14 and 8e-14, where numpy's leggauss misses by up to 2.5e-14,
    3.8e-13 and 3.7e-12.  At high k the sum rests on the few edge nodes, whose weights are the least exact."""
    for n, tol in ((32, 6e-15), (96, 1e-14), (192, 8e-14)):
        x, w = quadform.legendre_rule(n)
        for k in range(0, 2 * n, 2):
            assert abs(np.sum(w * x ** k) * (k + 1) / 2.0 - 1.0) < tol, (n, k)


def test_legendre_rule_nodes_lie_within_2_ulps_of_numpys():
    """The Newton nodes against numpy's leggauss (the companion matrix's eigenvalues, then one Newton step),
    odd n and n = 1 included; the rule is built once per n."""
    for n in (1, 2, 3, 7, 32, 33, 96, 192):
        x, want = quadform.legendre_rule(n)[0], leggauss(n)[0]
        assert np.all(np.abs(x - want) <= 2.0 * np.spacing(np.abs(want))), n
    assert quadform.legendre_rule(96) is quadform.legendre_rule(96)
