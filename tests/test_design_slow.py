from itertools import product

import numpy as np
import pytest
from scipy.special import gammainc

from lagpc import channel, design_slow, montecarlo, quadform
from lagpc.channel import ChannelStats, DesignParams, PowerConfig, cr_outage_form, sample_realizations
from lagpc.design_fast import InfeasibleDesignError, alpha2_disc, cr_links, primary_rate_surrogate
from lagpc.design_slow import (
    design,
    outage_surrogate,
    ratio_stats,
    select_r,
    solve_alpha1_slow,
    solve_alpha2_slow,
)
from oracles import sequential_alpha2_slow

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
        [[est]] = montecarlo.drawn_estimates(
            [(stats, DesignParams(alpha1, 0.0))],
            PW,
            ("primary",),
            r_p,
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
    [[est]] = montecarlo.drawn_estimates(
        [(stats, res.params)], PW, ("la_gpc",), r_cr, n=n, seed=seed, workers=1
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
    points = [(stats, DesignParams(alpha1, alpha2)), (stats, DesignParams(alpha1, best))]
    [[p_design], [p_best]] = montecarlo.drawn_estimates(points, PW, ("la_gpc",), r_cr, **kw)
    p_design, p_best = p_design.value, p_best.value
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


def test_solve_alpha2_validates():
    stats = ChannelStats.from_k_factor(10.0)
    with pytest.raises(ValueError):
        solve_alpha2_slow(stats, 1.0, PW, 1.0)
    with pytest.raises(ValueError):
        solve_alpha2_slow(stats, 0.5, PW, -1.0)


def test_array_surrogates_match_point_calls():
    """One call over an alpha2 array applies the three branches per element:
    0.0 at a nonpositive threshold, 1.0 where the moment match is undefined,
    the gamma tail otherwise."""
    stats = ChannelStats.from_k_factor(10.0)
    alpha1, r_cr = 0.3, -1.0
    a2 = np.array([0.0, 0.9, 1.2, 5.0, 1.5 + 0.5j, 0.3, 2.0, 50.0, 3.0])
    undefined = [3, 7]
    for i in undefined:  # these points take the fallback, not the tail
        E, _ = cr_outage_form(alpha1, a2[i], PW, r_cr)
        with pytest.raises(quadform.DomainError):
            quadform.chi2_params(cr_links(stats), E)
    got = outage_surrogate(stats, alpha1, a2, PW, r_cr)
    want = [outage_surrogate(stats, alpha1, complex(a), PW, r_cr) for a in a2]
    assert got.shape == a2.shape
    for i, (g, w) in enumerate(zip(got, want)):
        if i in (0, 5):
            assert g == w == 0.0
        elif i in undefined:
            assert g == w == 1.0
        else:
            assert 0.0 < w < 1.0
            assert g == w


def test_stacked_surrogate_checks_alpha1_once(monkeypatch):
    """One outage_surrogate call over an alpha2 stack checks its alpha1 once, in build_matrices."""
    calls = []
    check = channel._check_alpha1
    monkeypatch.setattr(channel, "_check_alpha1", lambda a1: calls.append(a1) or check(a1))
    outage_surrogate(ChannelStats.from_k_factor(10.0), 0.3, np.array([0.5, 0.9 + 0.1j, 1.2]), PW, 1.0)
    assert calls == [0.3]


def test_array_prescan_matches_point_calls():
    stats = ChannelStats.from_k_factor(10.0)
    grid = np.linspace(0.0, 1.0, 11)
    rm = ratio_stats(stats, grid, PW)
    for i, a1 in enumerate(grid):
        single = ratio_stats(stats, float(a1), PW)
        assert rm.mean[i] == single.mean
        assert rm.std[i] == single.std
    for bad in (-0.1, 1.1, np.array([0.5, 1.1])):
        with pytest.raises(ValueError, match="outside"):
            ratio_stats(stats, bad, PW)


def test_stack_elements_equal_point_calls_bit_for_bit():
    """Each element of a stack has its point call's bits, in stacks of 1-4
    points and over a whole 41-grid disc (the 200-point alpha1 prescan for the
    alpha1 moments): the batched descent and the prescans rest on it."""
    rng = np.random.default_rng(0)

    def check(f, xs, point=lambda x: x):
        want = [f(point(x)) for x in xs]
        for idx in [rng.integers(0, len(xs), n) for n in (1, 2, 3, 4) for _ in range(5)] + [np.arange(len(xs))]:
            assert f(xs[idx]).tolist() == [want[i] for i in idx]

    grid = np.linspace(0.0, 1.0, 200)
    for k_db, r_cr in ((0.0, 0.2), (15.0, 1.5)):
        stats = ChannelStats.from_k_factor(k_db)
        alpha1, _ = solve_alpha1_slow(stats, PW, 2.0, 0.01)
        disc = alpha2_disc(stats, alpha1, PW, 41)[1]
        check(lambda a2: outage_surrogate(stats, alpha1, a2, PW, r_cr), disc, complex)
        check(lambda a1: ratio_stats(stats, a1, PW).mean, grid, float)
        check(lambda a1: ratio_stats(stats, a1, PW).std, grid, float)
        check(lambda a1: primary_rate_surrogate(stats, a1, PW), grid, float)
        forms = cr_outage_form(alpha1, disc, PW, r_cr)[0]
        check(lambda E: quadform.qf_mean(cr_links(stats), E), forms)
        check(lambda E: quadform.qf_variance(cr_links(stats), E), forms)


def _descent_cases():
    """(stats, alpha1, pw, r_cr) of the descents the oracle tests run: design-slow's
    targets over K with real and with complex link means (the optimum then lies
    off the real axis, so a round can improve along both axes and the visiting
    order matters); lattice-sim's (alpha1 = 0, P_p = 100, rate 2 and 4 at 22-32
    dB, K 0 and 10 dB); asymptotic-check's (K 40-80 dB at P_out 0.1, r_cr 1)."""
    for phases, k_db in product(((0.0,) * 4, (0.0, 0.0, 0.4, -1.2)), (*np.arange(0.0, 20.1, 2.5), 40.0, 60.0, 80.0)):
        stats = ChannelStats.from_k_factor(k_db, phases)
        alpha1, _ = solve_alpha1_slow(stats, PW, 2.0, 0.01)
        for r_cr in (0.2, 1.0, 1.5):
            yield stats, alpha1, PW, r_cr
    for k_db, snr_db, rate in product((0.0, 10.0), range(22, 33, 2), (2.0, 4.0)):
        yield ChannelStats.from_k_factor(k_db), 0.0, PowerConfig(10.0 ** (snr_db / 10.0), 100.0), rate
    for k_db in range(40, 81, 10):
        stats = ChannelStats.from_k_factor(k_db)
        alpha1, _ = solve_alpha1_slow(stats, PW, float(np.log2(1.0 + PW.Pp / PW.noise_p)), 0.1)
        yield stats, alpha1, PW, 1.0


def test_batched_descent_equals_the_sequential_oracle():
    """One surrogate call per move returns exactly the (alpha2, outage) of the
    descent that scores one point per call."""
    for stats, alpha1, pw, r_cr in _descent_cases():
        want = sequential_alpha2_slow(stats, alpha1, pw, r_cr)
        assert solve_alpha2_slow(stats, alpha1, pw, r_cr) == want, (stats, alpha1, pw, r_cr)


def test_descent_picks_equal_those_on_scipys_gammainc(monkeypatch):
    """The in-repo incomplete gamma moves no pick: every descent case gives the alpha1 and alpha2 it
    gives with scipy's gammainc, and outages within 1e-13 relative (4.1e-14 at most, on an outage of
    6e-41, where scipy's own error is of that order; see test_quadform)."""
    ours = [(case[1], solve_alpha2_slow(*case)) for case in _descent_cases()]
    monkeypatch.setattr(quadform, "_gammainc", gammainc)
    theirs = [(case[1], solve_alpha2_slow(*case)) for case in _descent_cases()]
    assert [(a1, a2) for a1, (a2, _) in ours] == [(a1, a2) for a1, (a2, _) in theirs]
    np.testing.assert_allclose([v for _, (_, v) in ours], [v for _, (_, v) in theirs], rtol=1e-13, atol=0.0)


def test_descent_makes_one_surrogate_call_per_move(monkeypatch):
    """The grid takes one call, each move of the one-point-per-call descent
    one, and the call that finds no improving point ends the descent."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args[2])
        return outage_surrogate(*args, **kwargs)

    monkeypatch.setattr(design_slow, "outage_surrogate", spy)
    total_moves = 0
    for stats, alpha1, pw, r_cr in _descent_cases():
        moves = []
        want = sequential_alpha2_slow(stats, alpha1, pw, r_cr, moves=moves)
        calls.clear()
        assert solve_alpha2_slow(stats, alpha1, pw, r_cr) == want
        assert len(calls) == 1 + len(moves) + 1, (stats, alpha1, pw, r_cr)
        # each move's point, bit for bit, is in the call that found it
        for a2, moved_to in zip(calls[1:], moves):
            assert moved_to in a2.tolist()
        total_moves += len(moves)
    assert total_moves > 0
