import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.integrate import quad
from scipy.optimize import brentq as scipy_brentq
from scipy.special import i0e

from lagpc import design_fast, design_slow, montecarlo, quadform
from lagpc.channel import (
    ChannelStats,
    DesignParams,
    PowerConfig,
    cr_rate,
    primary_rate,
    sample_realizations,
)
from lagpc.design_fast import (
    InfeasibleDesignError,
    alpha2_fast,
    brentq,
    primary_rate_surrogate,
    primary_target_ergodic,
    solve_alpha1_fast,
)

PW = PowerConfig(10.0, 10.0)


def _mc_primary(stats, alpha1, n=400000, seed=9):
    r = sample_realizations(stats, n, seed)
    rates = primary_rate(r, alpha1, PW)
    return float(np.mean(rates)), float(np.std(rates) / np.sqrt(rates.size))


def test_target_matches_sampling():
    """Quadrature target equals the sampled no-relay ergodic rate."""
    stats = ChannelStats.from_k_factor(10.0)
    target = primary_target_ergodic(stats, PW)
    r = sample_realizations(stats, 400000, 3)
    rates = np.log2(1.0 + np.abs(r.h11) ** 2 * PW.Pp / PW.noise_p)
    se = float(np.std(rates) / np.sqrt(rates.size))
    assert target == pytest.approx(float(np.mean(rates)), abs=4 * se)


def test_target_nonfading_link():
    stats = ChannelStats(1.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    assert primary_target_ergodic(stats, PW) == pytest.approx(np.log2(11.0))


def test_target_at_high_k_approaches_the_mean_link():
    # the power density's peak is narrower than 1e-3 here, too narrow for an
    # adaptive quadrature on [0, inf) to find; a target of 0 would make the
    # designer return alpha1 = 0 as "already protected"
    for k_db in (70.0, 80.0, 100.0):
        stats = ChannelStats.from_k_factor(k_db)
        want = np.log2(1.0 + abs(stats.mu11) ** 2 * PW.Pp / PW.noise_p)
        assert primary_target_ergodic(stats, PW) == pytest.approx(want, abs=1e-6)
        assert solve_alpha1_fast(stats, PW).alpha1 > 0.7


def test_target_outside_jensen_range_raises(monkeypatch):
    stats = ChannelStats.from_k_factor(10.0)
    for fake in (0.0, np.log2(1.0 + PW.Pp / PW.noise_p) + 1e-3):
        monkeypatch.setattr(design_fast, "_gauss_legendre", lambda *a, v=fake, **k: (v, 0.0))
        with pytest.raises(RuntimeError, match="Jensen"):
            primary_target_ergodic(stats, PW)


def _quad_target(stats, pw):
    """The target by scipy's adaptive quad over the same standardized-amplitude windows."""
    snr, nu, s2 = pw.Pp / pw.noise_p, abs(stats.mu11), stats.var11
    sigma = np.sqrt(s2 / 2.0)

    def integrand(u):
        r = nu + sigma * u
        dens = (2.0 * r * sigma / s2) * np.exp(-0.5 * u * u) * i0e(2.0 * nu * r / s2)
        return np.log2(1.0 + r * r * snr) * dens

    windows = ((max(-nu / sigma, -40.0), 0.0), (0.0, 40.0))
    return sum(quad(integrand, lo, hi, epsabs=1e-12, epsrel=1e-9, limit=400)[0] for lo, hi in windows)


def test_target_matches_adaptive_quadrature():
    for k_db in np.arange(-10.0, 100.1, 5.0):
        stats = ChannelStats.from_k_factor(float(k_db))
        for pp in (1.0, 10.0, 100.0, 1000.0):
            pw = PowerConfig(10.0, pp)
            assert primary_target_ergodic(stats, pw) == pytest.approx(_quad_target(stats, pw), rel=1e-12, abs=0)


def test_target_raises_when_the_rules_disagree(monkeypatch):
    # 3- and 6-node rules cannot resolve the peak on the 40-wide windows
    monkeypatch.setattr(quadform, "legendre_rule", lambda n: leggauss(n // 32))
    with pytest.raises(RuntimeError, match="did not converge"):
        primary_target_ergodic(ChannelStats.from_k_factor(10.0), PW)


def _scipy_checked_brentq(brackets):
    """brentq that also runs scipy.optimize.brentq on the same bracket and requires the same float."""
    def both(f, a, b, **tol):
        root = brentq(f, a, b, **tol)
        assert root == scipy_brentq(f, a, b, **tol)
        brackets.append((a, b))
        return root

    return both


def test_brentq_matches_scipy_on_both_design_objectives(monkeypatch):
    # both designs reach brentq through design_fast.alpha1_root, so each
    # design's solves run in their own phase to keep their brackets apart
    points = [
        (ChannelStats.from_k_factor(float(k_db)), pw)
        for k_db in np.arange(-5.0, 40.1, 2.5)
        for pw in (PW, PowerConfig(10.0, 100.0))
    ]
    fast, slow = [], []
    monkeypatch.setattr(design_fast, "brentq", _scipy_checked_brentq(fast))
    for stats, pw in points:
        solve_alpha1_fast(stats, pw)
    monkeypatch.setattr(design_fast, "brentq", _scipy_checked_brentq(slow))
    for stats, pw in points:
        design_slow.solve_alpha1_slow(stats, pw, 2.0, 0.05)
    assert len(fast) >= 30 and len(slow) >= 20


def test_brentq_matches_scipy_on_smooth_functions():
    rng = np.random.default_rng(4)
    checked = 0
    for _ in range(300):
        c, z = rng.normal(size=3), rng.uniform(-2.0, 2.0)

        def f(x):
            return np.tanh(c[0] * (x - z)) + 0.01 * c[1] * np.sin(5.0 * x) + c[2] * (x - z) ** 3

        a, b = z - rng.uniform(0.01, 3.0), z + rng.uniform(0.01, 3.0)
        if (f(a) < 0.0) == (f(b) < 0.0):
            continue
        for xtol, rtol in ((2e-12, 8.881784197001252e-16), (1e-13, 8.9e-16), (1e-6, 1e-10), (1e-3, 1e-8)):
            assert brentq(f, a, b, xtol=xtol, rtol=rtol) == scipy_brentq(f, a, b, xtol=xtol, rtol=rtol)
            checked += 1
    assert checked >= 400


def test_brentq_errors_match_scipy():
    cases = (
        (ValueError, "different signs", lambda x: x * x + 1.0, -1.0, 1.0, 100),
        (ValueError, "NaN", lambda x: np.nan if x > 0.9 else -1.0, 0.0, 1.0, 100),
        (ValueError, "NaN", lambda x: np.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, 100),
        (RuntimeError, "converge", lambda x: x ** 3 - 2.0, 0.0, 2.0, 3),
    )
    for err, match, f, a, b, maxiter in cases:
        for solver in (brentq, scipy_brentq):
            with pytest.raises(err, match=match):
                solver(f, a, b, xtol=1e-13, rtol=8.9e-16, maxiter=maxiter)


def test_surrogate_underestimates_rate():
    # truncation directions are one-sided, so the surrogate is conservative
    for k_db in (0.0, 10.0):
        stats = ChannelStats.from_k_factor(k_db)
        for a1 in (0.3, 0.75):
            mc, se = _mc_primary(stats, a1, n=200000)
            assert primary_rate_surrogate(stats, a1, PW) <= mc + 3 * se


def test_design_meets_target_by_simulation():
    """The designed alpha1 over-protects, and not by an absurd margin."""
    for k_db, slack in ((0.0, 0.20), (10.0, 0.10)):
        stats = ChannelStats.from_k_factor(k_db)
        res = solve_alpha1_fast(stats, PW)
        mc, se = _mc_primary(stats, res.alpha1)
        assert mc > res.r_target
        assert mc - res.r_target < slack


def test_designed_alpha1_is_tight_root():
    stats = ChannelStats.from_k_factor(10.0)
    res = solve_alpha1_fast(stats, PW)
    assert abs(res.residual) <= 1e-9
    assert primary_rate_surrogate(stats, res.alpha1, PW) == pytest.approx(
        res.r_target, abs=1e-8
    )
    # smallest root: a notch less relaying no longer protects
    assert primary_rate_surrogate(stats, res.alpha1 - 0.02, PW) < res.r_target


def test_known_design_points():
    # regression pins (correctness is carried by the sampling tests above)
    res0 = solve_alpha1_fast(ChannelStats.from_k_factor(0.0), PW)
    assert res0.alpha1 == pytest.approx(0.8084150705613715, rel=1e-10)
    assert res0.r_target == pytest.approx(3.000794060169302, rel=1e-10)
    res10 = solve_alpha1_fast(ChannelStats.from_k_factor(10.0), PW)
    assert res10.alpha1 == pytest.approx(0.7546556247396964, rel=1e-10)
    assert res10.alpha2 == pytest.approx(1.2630095677523232 + 0j, rel=1e-10)


def test_alpha2_matches_grid_search():
    stats = ChannelStats.from_k_factor(10.0)
    res = solve_alpha1_fast(stats, PW)
    best = montecarlo.brute_force_alpha2(
        sample_realizations(stats, 30000, 5), stats, res.alpha1, PW, grid_n=41
    )
    r = sample_realizations(stats, 100000, 17)
    rate_design = float(np.mean(cr_rate(r, DesignParams(res.alpha1, res.alpha2), PW)))
    rate_best = float(np.mean(cr_rate(r, DesignParams(res.alpha1, best), PW)))
    assert rate_design >= rate_best - 0.05


def test_tiny_target_needs_no_relaying():
    stats = ChannelStats.from_k_factor(10.0)
    res = solve_alpha1_fast(stats, PW, r_target=0.2)
    assert res.alpha1 == 0.0
    assert res.residual > 0.0
    assert res.alpha2 == alpha2_fast(stats, 0.0, PW)


def test_unreachable_target_raises():
    stats = ChannelStats.from_k_factor(10.0)
    with pytest.raises(InfeasibleDesignError):
        solve_alpha1_fast(stats, PW, r_target=8.0)


def test_alpha2_edges():
    stats = ChannelStats.from_k_factor(10.0)
    assert alpha2_fast(stats, 1.0, PW) == 0j
    for bad in (-0.1, 1.1):
        with pytest.raises(ValueError):
            alpha2_fast(stats, bad, PW)


def test_params_property_roundtrip():
    res = solve_alpha1_fast(ChannelStats.from_k_factor(5.0), PW)
    p = res.params
    assert p.alpha1 == res.alpha1 and p.alpha2 == res.alpha2


def test_array_surrogate_matches_point_calls():
    stats = ChannelStats.from_k_factor(10.0)
    grid = np.linspace(0.0, 1.0, 11)
    rates = primary_rate_surrogate(stats, grid, PW)
    assert rates.shape == grid.shape
    for a1, rate in zip(grid, rates):
        assert rate == pytest.approx(primary_rate_surrogate(stats, float(a1), PW), rel=1e-12)
    for bad in (-0.1, 1.1, np.array([0.5, 1.1])):
        with pytest.raises(ValueError, match="outside"):
            primary_rate_surrogate(stats, bad, PW)


def test_i0e_matches_scipy_to_the_bit():
    """design_fast._i0e repeats Cephes' Clenshaw sums with IEEE operations only, so it gives scipy's
    bits on every dispatch path, on [1e-4, 1e5] (design-map reaches 25,657) and at the x = 8 branch."""
    x = np.concatenate([np.geomspace(1e-4, 1e5, 200001), [0.0, 8.0, np.nextafter(8.0, 0.0), np.nextafter(8.0, 9.0)]])
    assert np.array_equal(design_fast._i0e(x).view(np.uint64), i0e(x).view(np.uint64))
    assert design_fast._i0e(np.array([25657.0]))[0] == i0e(25657.0)
