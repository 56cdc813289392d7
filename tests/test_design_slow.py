import numpy as np
import pytest

from lagpc import montecarlo, quadform
from lagpc.channel import ChannelStats, DesignParams, PowerConfig, cr_outage_form, sample_realizations
from lagpc.design_fast import InfeasibleDesignError, cr_links
from lagpc.design_slow import (
    design,
    outage_surrogate,
    ratio_stats,
    select_r,
    solve_alpha1_slow,
    solve_alpha2_slow,
)

PW = PowerConfig(10.0, 10.0)
SHARP = 2.0 / 9.0

# (k_db, r_p, p_out, r_cr) operating points used throughout
POINTS = (
    (0.0, 1.0, 0.1, 0.2),
    (5.0, 2.0, 0.1, 0.5),
    (10.0, 2.0, 0.01, 1.0),
    (15.0, 2.0, 0.01, 1.5),
)


def test_select_r_gates():
    assert select_r(10.0, 2.0) == SHARP
    assert select_r(9.99, 2.0) == 1.0
    # multiplier below 2/sqrt(3) voids the sharper constant
    assert select_r(20.0, 1.0) == 1.0
    assert select_r(20.0, 2.0 / np.sqrt(3.0)) == SHARP


def test_alpha1_slow_raises_on_an_undefined_prescan():
    # the denominator form has zero mean at alpha1 = 1, so the prescan reads NaN there
    stats = ChannelStats(1.0, -1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(quadform.DomainError):
        solve_alpha1_slow(stats, PW, 2.0, 0.05)


def test_alpha1_slow_keeps_primary_outage_under_target():
    for k_db, r_p, p_out, _ in POINTS:
        stats = ChannelStats.from_k_factor(k_db)
        alpha1, _ = solve_alpha1_slow(stats, PW, r_p, p_out)
        est = montecarlo.outage_probability(
            stats,
            DesignParams(alpha1, 0.0),
            PW,
            r_p,
            which="primary",
            n=200000,
            seed=2,
            workers=1,
        )
        assert est.value <= p_out


def test_alpha1_slow_is_tight_root():
    stats = ChannelStats.from_k_factor(10.0)
    alpha1, r = solve_alpha1_slow(stats, PW, 2.0, 0.01)
    assert r == pytest.approx(SHARP)
    rm = ratio_stats(stats, alpha1, PW)
    thr = quadform.cantelli_threshold(rm, r, 0.01)
    assert thr == pytest.approx(1.0 / (2.0 ** 2.0 - 1.0), abs=1e-8)


def test_loose_target_needs_no_relaying():
    alpha1, r = solve_alpha1_slow(ChannelStats.from_k_factor(10.0), PW, 0.5, 0.4)
    assert alpha1 == 0.0
    assert r == 1.0  # p_out = 0.4 voids the 2/9 multiplier


def test_infeasible_pair_raises():
    stats = ChannelStats.from_k_factor(10.0)
    with pytest.raises(InfeasibleDesignError):
        solve_alpha1_slow(stats, PW, 3.5, 0.001)
    with pytest.raises(ValueError):
        solve_alpha1_slow(stats, PW, 2.0, 0.0)
    with pytest.raises(ValueError):
        solve_alpha1_slow(stats, PW, -1.0, 0.1)


def _designed_outage(k_db, r_p, p_out, r_cr, n=200000, seed=1):
    stats = ChannelStats.from_k_factor(k_db)
    res = design(stats, PW, r_p, p_out, r_cr)
    est = montecarlo.outage_probability(
        stats, res.params, PW, r_cr, n=n, seed=seed, workers=1
    )
    return res, est.value


def test_surrogate_tracks_simulated_outage():
    for k_db, r_p, p_out, r_cr in POINTS[1:]:
        res, mc = _designed_outage(k_db, r_p, p_out, r_cr)
        assert abs(res.objective_value - mc) <= 0.05


@pytest.mark.xfail(
    reason="deep-fade regime: the chi-square match underestimates the tail",
    strict=True,
)
def test_surrogate_tracks_simulated_outage_rayleigh_like():
    res, mc = _designed_outage(*POINTS[0])
    assert abs(res.objective_value - mc) <= 0.05


def test_alpha2_slow_near_grid_search():
    k_db, r_p, p_out, r_cr = POINTS[2]
    stats = ChannelStats.from_k_factor(k_db)
    alpha1, _ = solve_alpha1_slow(stats, PW, r_p, p_out)
    alpha2, _ = solve_alpha2_slow(stats, alpha1, PW, r_cr)
    best = montecarlo.brute_force_alpha2(
        sample_realizations(stats, 30000, 5),
        stats,
        alpha1,
        PW,
        r_cr=r_cr,
        grid_n=41,
    )
    kw = dict(n=200000, seed=11, workers=1)
    p_design = montecarlo.outage_probability(
        stats, DesignParams(alpha1, alpha2), PW, r_cr, **kw
    ).value
    p_best = montecarlo.outage_probability(
        stats, DesignParams(alpha1, best), PW, r_cr, **kw
    ).value
    assert p_design <= p_best + 0.02


def test_known_design_points():
    # regression pins; correctness is carried by the simulation tests
    r0 = design(ChannelStats.from_k_factor(0.0), PW, 1.0, 0.1, 0.2)
    assert r0.alpha1 == pytest.approx(0.48075527429995213, rel=1e-9)
    assert r0.alpha2 == pytest.approx(0.3152445202862237 + 0j, rel=1e-6)
    assert r0.objective_value == pytest.approx(0.029787264119003617, rel=1e-6)
    r10 = design(ChannelStats.from_k_factor(10.0), PW, 2.0, 0.01, 1.0)
    assert r10.alpha1 == pytest.approx(0.6493958261002905, rel=1e-9)
    assert r10.alpha2 == pytest.approx(1.1401956518603162 + 0j, rel=1e-6)


def test_surrogate_edge_branches():
    stats = ChannelStats.from_k_factor(10.0)
    # moment match breaks down far outside the feasible disc: hopeless point
    assert outage_surrogate(stats, 0.3, 50.0 + 0j, PW, 1.0) == 1.0
    # nonpositive rate targets drive the matched threshold nonpositive;
    # the guard answers 0 without touching the moment match
    assert outage_surrogate(stats, 0.0, 0j, PW, -1.0) == 0.0


def test_alzer_method_lands_near_gamma():
    stats = ChannelStats.from_k_factor(10.0)
    alpha1, _ = solve_alpha1_slow(stats, PW, 2.0, 0.01)
    g, _ = solve_alpha2_slow(stats, alpha1, PW, 1.0)
    a, outage = solve_alpha2_slow(stats, alpha1, PW, 1.0, method="alzer", grid_n=21)
    assert outage == pytest.approx(outage_surrogate(stats, alpha1, a, PW, 1.0, "alzer"), rel=1e-12)
    assert abs(a - g) < 0.1


def test_solve_alpha2_validates():
    stats = ChannelStats.from_k_factor(10.0)
    with pytest.raises(ValueError):
        solve_alpha2_slow(stats, 1.0, PW, 1.0)
    with pytest.raises(ValueError):
        solve_alpha2_slow(stats, 0.5, PW, -1.0)
    with pytest.raises(ValueError):
        outage_surrogate(stats, 0.5, 0.5 + 0j, PW, 1.0, method="bogus")


def test_array_surrogates_match_point_calls():
    """One call over an alpha2 array applies the three branches per element:
    0.0 at a nonpositive threshold, 1.0 where the moment match is undefined,
    the gamma or Alzer tail otherwise."""
    stats = ChannelStats.from_k_factor(10.0)
    alpha1, r_cr = 0.3, -1.0
    a2 = np.array([0.0, 0.9, 1.2, 5.0, 1.5 + 0.5j, 0.3, 2.0, 50.0, 3.0])
    undefined = [3, 7]
    for i in undefined:  # these points take the fallback, not the tail
        E, _ = cr_outage_form(DesignParams(alpha1, a2[i]), PW, r_cr)
        with pytest.raises(quadform.DomainError):
            quadform.chi2_params(cr_links(stats), E)
    for method in ("gamma", "alzer"):
        got = outage_surrogate(stats, alpha1, a2, PW, r_cr, method)
        want = [outage_surrogate(stats, alpha1, complex(a), PW, r_cr, method) for a in a2]
        assert got.shape == a2.shape
        for i, (g, w) in enumerate(zip(got, want)):
            if i in (0, 5):
                assert g == w == 0.0
            elif i in undefined:
                assert g == w == 1.0
            else:
                assert 0.0 < w < 1.0
                assert g == pytest.approx(w, rel=1e-12)


def test_array_prescan_matches_point_calls():
    stats = ChannelStats.from_k_factor(10.0)
    grid = np.linspace(0.0, 1.0, 11)
    rm = ratio_stats(stats, grid, PW)
    for i, a1 in enumerate(grid):
        single = ratio_stats(stats, float(a1), PW)
        assert rm.mean[i] == pytest.approx(single.mean, rel=1e-12)
        assert rm.std[i] == pytest.approx(single.std, rel=1e-12)
    for bad in (-0.1, 1.1, np.array([0.5, 1.1])):
        with pytest.raises(ValueError, match="outside"):
            ratio_stats(stats, bad, PW)
