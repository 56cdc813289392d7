import numpy as np
import pytest

from lagpc import channel, design_fast, design_slow, montecarlo
from lagpc.channel import ChannelStats, DesignParams, PowerConfig
from lagpc.design_fast import InfeasibleDesignError
from lagpc.montecarlo import (
    SweepRecord,
    brute_force_alpha1_fast,
    brute_force_alpha1_outage,
    brute_force_alpha2,
    ergodic_capacity,
    figure_sweep,
    outage_probability,
    scheme_rates,
)

PW = PowerConfig(10.0, 10.0)
STATS = ChannelStats.from_k_factor(10.0)
PARAMS = DesignParams(0.75, 1.26 + 0j)


def _oracle_alpha1_means(r, pw, grid_n):
    """(alpha1, MC primary ergodic rate) at each grid alpha1, in the scalar loop's arithmetic."""
    a = np.abs(r.h11) ** 2 * pw.Pp
    b = 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp)
    c = np.abs(r.h12) ** 2
    for a1 in np.linspace(0.0, 1.0, grid_n):
        amp = np.sqrt(a1 * pw.Pc)
        sig = a + b * amp + c * amp ** 2
        yield float(a1), float(np.mean(np.log2(1.0 + sig / (c * (1.0 - a1) * pw.Pc + pw.noise_p))))


def _oracle_alpha1_fast(r, pw, r_target, grid_n):
    """The scalar-loop alpha1 search the bounded one replaced: every grid point in turn."""
    for a1, mean in _oracle_alpha1_means(r, pw, grid_n):
        if mean >= r_target:
            return a1
    raise InfeasibleDesignError("no grid alpha1 meets the ergodic target")


def _oracle_alpha1_outage(r, pw, r_p, p_out, grid_n):
    a = np.abs(r.h11) ** 2 * pw.Pp
    b = 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp)
    c = np.abs(r.h12) ** 2
    for a1 in np.linspace(0.0, 1.0, grid_n):
        amp = np.sqrt(a1 * pw.Pc)
        sig = a + b * amp + c * amp ** 2
        rates = np.log2(1.0 + sig / (c * (1.0 - a1) * pw.Pc + pw.noise_p))
        if float(np.mean(rates < r_p)) <= p_out:
            return float(a1)
    raise InfeasibleDesignError("no grid alpha1 meets the outage target")


def _oracle_outage_counts(r, pw, r_p, grid_n):
    """The per-grid-point outage scan the interval counts replaced."""
    a = np.abs(r.h11) ** 2 * pw.Pp
    b = 2.0 * np.real(np.conj(r.h11) * r.h12) * np.sqrt(pw.Pp)
    c = np.abs(r.h12) ** 2
    counts = []
    for a1 in np.linspace(0.0, 1.0, grid_n):
        amp = np.sqrt(a1 * pw.Pc)
        sig = a + b * amp + c * amp ** 2
        counts.append(int(np.count_nonzero(1.0 + sig / (c * (1.0 - a1) * pw.Pc + pw.noise_p) < 2.0 ** r_p)))
    return counts


def _oracle_alpha2(r, stats, alpha1, pw, r_cr, grid_n):
    """The point-by-point disc search the batched one replaced: (best, scores).
    The ergodic search without r_cr, the outage search with it."""
    center = complex(design_fast.alpha2_fast(stats, alpha1, pw))
    radius = 2.0 * abs(center) or 1.0
    sigma2 = (1.0 - alpha1) * pw.Pc
    hs = channel.effective_interference_gain(r, alpha1, pw)
    ys_pow = np.abs(r.h22) ** 2 * sigma2 + np.abs(hs) ** 2 * pw.Pp + pw.noise_s
    w1 = np.conj(r.h22) * sigma2
    w2 = np.conj(hs) * pw.Pp
    offs = np.linspace(-radius, radius, grid_n)
    best = None
    best_score = -np.inf
    scores = []
    for dre in offs:
        for dim in offs:
            if np.hypot(dre, dim) > radius + 1e-12:
                continue
            a2 = center + dre + 1j * dim
            det = (sigma2 + abs(a2) ** 2 * pw.Pp) * ys_pow - np.abs(w1 + a2 * w2) ** 2
            rates = np.log2(sigma2 * ys_pow / det)
            if r_cr is None:
                score = float(np.mean(rates))
            else:
                score = -float(np.mean(rates < r_cr))
            scores.append((a2, score))
            if score > best_score:
                best_score, best = score, a2
    return complex(best), scores


def _disc_scores(r, alpha1, pw, a2, r_cr=None):
    """The full scan of the disc: every aligned _DISC_ROWS block of a2 scored in turn."""
    score = montecarlo._disc_scorer(r, alpha1, pw, a2, r_cr)[2]
    return np.concatenate([score(lo) for lo in range(0, len(a2), montecarlo._DISC_ROWS)])


def _oracle_disc_pick(r, stats, alpha1, pw, grid_n):
    """The full-disc ergodic search the bounded one replaced: the first best point of the full scan."""
    a2 = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)[1]
    return complex(a2[np.nanargmax(_disc_scores(r, alpha1, pw, a2))])


def _log_scale(r, alpha1):
    """Mean |log2(sigma2 * ys_pow)|, the size of the terms of an ergodic disc score."""
    sigma2 = (1.0 - alpha1) * PW.Pc
    hs = channel.effective_interference_gain(r, alpha1, PW)
    ys_pow = np.abs(r.h22) ** 2 * sigma2 + np.abs(hs) ** 2 * PW.Pp + PW.noise_s
    return float(np.mean(np.abs(np.log2(sigma2 * ys_pow))))


def test_sums_partition_independence():
    whole = montecarlo._drawn_sums(STATS, PARAMS, PW, "la_gpc", 1.0, 3, [(0, 500)])[0]
    head, tail = montecarlo._drawn_sums(STATS, PARAMS, PW, "la_gpc", 1.0, 3, [(0, 180), (180, 320)])
    assert whole[0] == pytest.approx(head[0] + tail[0], rel=1e-12)
    assert whole[1] == pytest.approx(head[1] + tail[1], rel=1e-12)
    assert whole[2] == head[2] + tail[2]


def test_workers_do_not_change_estimates():
    one = ergodic_capacity(STATS, PARAMS, PW, n=4000, seed=7, workers=1)
    three = ergodic_capacity(STATS, PARAMS, PW, n=4000, seed=7, workers=3)
    assert three.value == pytest.approx(one.value, rel=1e-12)
    assert three.std_error == pytest.approx(one.std_error, rel=1e-9)
    po1 = outage_probability(STATS, PARAMS, PW, 1.0, n=6000, seed=7, workers=1)
    po3 = outage_probability(STATS, PARAMS, PW, 1.0, n=6000, seed=7, workers=3)
    assert po3.value == po1.value  # integer counts partition exactly


def test_estimates_bit_identical_across_worker_counts(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    runs = [
        (
            ergodic_capacity(STATS, PARAMS, PW, n=4500, seed=7, workers=w),
            outage_probability(STATS, PARAMS, PW, 1.0, n=4500, seed=7, workers=w),
        )
        for w in (1, 2, 3)
    ]
    for erg, out in runs[1:]:
        assert (erg.value, erg.std_error) == (runs[0][0].value, runs[0][0].std_error)
        assert (out.value, out.std_error) == (runs[0][1].value, runs[0][1].std_error)


def test_determinism_and_seed_sensitivity():
    a = ergodic_capacity(STATS, PARAMS, PW, n=3000, seed=5, workers=1)
    b = ergodic_capacity(STATS, PARAMS, PW, n=3000, seed=5, workers=1)
    c = ergodic_capacity(STATS, PARAMS, PW, n=3000, seed=6, workers=1)
    assert (a.value, a.std_error) == (b.value, b.std_error)
    assert a.value != c.value


def test_scheme_rates_against_direct_formulas():
    r = channel.sample_realizations(STATS, 1000, 7)
    sigma2 = (1.0 - PARAMS.alpha1) * PW.Pc
    hs = r.h21 + np.sqrt(PARAMS.alpha1 * PW.Pc / PW.Pp) * r.h22
    np.testing.assert_allclose(
        scheme_rates(r, STATS, PARAMS, PW, "la_gpc"), channel.cr_rate(r, PARAMS, PW)
    )
    np.testing.assert_allclose(
        scheme_rates(r, STATS, PARAMS, PW, "full_csit"),
        np.log2(1.0 + np.abs(r.h22) ** 2 * sigma2 / PW.noise_s),
    )
    naive = DesignParams(PARAMS.alpha1, channel.naive_alpha2(STATS, PARAMS.alpha1, PW))
    np.testing.assert_allclose(
        scheme_rates(r, STATS, PARAMS, PW, "naive_dpc"), channel.cr_rate(r, naive, PW)
    )
    np.testing.assert_allclose(
        scheme_rates(r, STATS, PARAMS, PW, "interference_as_noise"),
        np.log2(1.0 + np.abs(r.h22) ** 2 * sigma2 / (np.abs(hs) ** 2 * PW.Pp + PW.noise_s)),
    )
    np.testing.assert_allclose(
        scheme_rates(r, STATS, PARAMS, PW, "primary"),
        channel.primary_rate(r, PARAMS.alpha1, PW),
    )
    with pytest.raises(ValueError):
        scheme_rates(r, STATS, PARAMS, PW, "bogus")


def test_outage_label_routing():
    """which names the scheme (or the primary user) whose rates are counted, la_gpc by default."""
    n, thr = 2000, 1.0
    r = channel.sample_realizations(STATS, n, 4)
    for which in ("la_gpc", "full_csit", "primary"):
        got = outage_probability(STATS, PARAMS, PW, thr, which, n, seed=4, workers=1).value
        want = int(np.sum(scheme_rates(r, STATS, PARAMS, PW, which) < thr))
        assert got * n == want
    default = outage_probability(STATS, PARAMS, PW, thr, n=n, seed=4, workers=1).value
    assert default == outage_probability(STATS, PARAMS, PW, thr, "la_gpc", n, seed=4, workers=1).value
    with pytest.raises(ValueError, match="unknown scheme"):
        outage_probability(STATS, PARAMS, PW, thr, "cr", n, seed=4, workers=1)


def test_binomial_std_error():
    est = outage_probability(STATS, PARAMS, PW, 1.0, n=5000, seed=1, workers=1)
    assert est.std_error == pytest.approx(
        np.sqrt(est.value * (1.0 - est.value) / 5000)
    )


def test_std_error_shrinks_with_n():
    small = ergodic_capacity(STATS, PARAMS, PW, n=2000, seed=9, workers=1)
    big = ergodic_capacity(STATS, PARAMS, PW, n=8000, seed=9, workers=1)
    assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


def test_sweep_record_rejects_unknown_scheme():
    with pytest.raises(ValueError):
        SweepRecord(0.0, "bogus", "m", 1.0, 0.0, 0.5, 0j, 0)
    SweepRecord(0.0, "full_search", "m", 1.0, 0.0, 0.5, 0j, 0)


def test_brute_force_alpha1_fast():
    target = 3.35
    r = channel.sample_realizations(STATS, 30000, 2)
    a1 = brute_force_alpha1_fast(r, PW, target, grid_n=101)
    assert float(np.mean(channel.primary_rate(r, a1, PW))) >= target
    step = 1.0 / 100
    if a1 >= step:  # smallest grid point that clears the bar
        assert float(np.mean(channel.primary_rate(r, a1 - step, PW))) < target
    with pytest.raises(InfeasibleDesignError):
        brute_force_alpha1_fast(channel.sample_realizations(STATS, 2000, 0), PW, 8.0, grid_n=60)
    with pytest.raises(ValueError):
        brute_force_alpha1_fast(channel.sample_realizations(STATS, 10 ** 5, 0), PW, target, grid_n=10)


def test_brute_force_alpha1_outage():
    r = channel.sample_realizations(STATS, 50000, 3)
    a1 = brute_force_alpha1_outage(r, PW, 2.0, 0.01, grid_n=101)
    rates = channel.primary_rate(r, a1, PW)
    assert float(np.mean(rates < 2.0)) <= 0.01


def test_brute_force_alpha2_validates():
    r = channel.sample_realizations(STATS, 10 ** 5, 0)
    # the 1x1 and 2x2 grids hold no point inside the disc
    for grid_n in (1, 2):
        for r_cr in (None, 1.0):
            with pytest.raises(ValueError, match="grid_n"):
                brute_force_alpha2(r[:2000], STATS, 0.5, PW, r_cr, grid_n=grid_n)
    assert np.isfinite(brute_force_alpha2(r[:2000], STATS, 0.5, PW, grid_n=3))


def _outage_counts_match(r, r_p, p_out, grid_n=201):
    """The interval counts equal the scan oracle's at every grid point, and
    brute_force_alpha1_outage picks the oracle's smallest alpha1 (or none)."""
    counts = montecarlo._outage_counts(r, PW, r_p, grid_n)
    oracle = _oracle_outage_counts(r, PW, r_p, grid_n)
    assert counts.tolist() == oracle
    fits = [a1 for a1, count in zip(np.linspace(0.0, 1.0, grid_n), oracle) if count / len(r) <= p_out]
    if fits:
        assert brute_force_alpha1_outage(r, PW, r_p, p_out, grid_n) == fits[0]
    else:
        with pytest.raises(InfeasibleDesignError):
            brute_force_alpha1_outage(r, PW, r_p, p_out, grid_n)


def test_brute_force_alpha1_outage_validates():
    r = channel.sample_realizations(STATS, 2000, 0)
    for grid_n in (0, 1):
        with pytest.raises(ValueError, match="grid_n"):
            brute_force_alpha1_outage(r, PW, 2.0, 0.01, grid_n=grid_n)
    _outage_counts_match(r, 2.0, 0.5, grid_n=2)  # the coarsest grid, alpha1 0 and 1
    # no power split protects an 8 bit/s/Hz primary link at 10 dB
    with pytest.raises(InfeasibleDesignError):
        brute_force_alpha1_outage(r, PW, 8.0, 0.01)


def test_outage_counts_match_the_scan_at_every_grid_point():
    """The interval counts equal the per-grid-point scan's, and pick its alpha1."""
    for k_db, (r_p, p_out, _) in montecarlo.SLOW_TARGETS.items():
        stats = ChannelStats.from_k_factor(k_db)
        for seed in range(6):
            _outage_counts_match(channel.sample_realizations(stats, 10 ** 5, seed), r_p, p_out)
    r_p, p_out, _ = montecarlo.SLOW_TARGETS[0.0]
    _outage_counts_match(channel.sample_realizations(ChannelStats.from_k_factor(0.0), 10 ** 6, 0), r_p, p_out)


def _scan_value(h11, h12, a1):
    """1 + sig/den of the scan for one sample at one grid alpha1."""
    a = abs(h11) ** 2 * PW.Pp
    b = 2.0 * (np.conj(h11) * h12).real * np.sqrt(PW.Pp)
    c = abs(h12) ** 2
    amp = np.sqrt(a1 * PW.Pc)
    return 1.0 + (a + b * amp + c * amp ** 2) / (c * (1.0 - a1) * PW.Pc + PW.noise_p)


def test_outage_counts_on_constructed_edge_samples(monkeypatch):
    """Samples whose outage interval ends exactly on a grid amp, samples at and
    near tangency, and samples with h12 = 0 are counted as the scan counts them."""
    r_p, grid_n = 2.0, 201
    big_t, lin = 2.0 ** r_p, np.linspace(0.0, 1.0, grid_n)
    # an end on grid amp 120: 1 + sig/den == 2^r_p there, in the scan's own arithmetic
    a1 = lin[120]
    den = (1.0 - a1) * PW.Pc + PW.noise_p
    x0 = (np.sqrt((big_t - 1.0) * den) - np.sqrt(a1 * PW.Pc)) / np.sqrt(PW.Pp)
    on_grid = x0 + np.arange(-40, 41) * np.spacing(x0) + 0j
    assert sum(_scan_value(h, 1.0, a1) == big_t for h in on_grid) >= 1
    # double roots at grid amps (disc = 0 with h12 = 1), nudged both ways in both parts
    nudges = np.concatenate([[0.0], 2.0 ** -np.arange(20.0, 60.0), -(2.0 ** -np.arange(20.0, 60.0))])
    tangent = []
    for k in (5, 13, 43):
        re = -big_t * np.sqrt(lin[k] * PW.Pc / PW.Pp)
        im = np.sqrt((big_t - 1.0) * (PW.Pc + PW.noise_p) / PW.Pp + re * re * (1.0 / big_t - 1.0))
        tangent += [re + 1j * im * (1.0 + nudges), re * (1.0 + nudges) + 1j * im]
        assert any(_scan_value(h, 1.0, lin[k]) < big_t for h in tangent[-2])  # out at the touching amp
    tangent = np.concatenate(tangent)
    no_cross = np.array([0.1, 0.5, np.sqrt(0.3), 1.0, 2.0]) + 0j  # h12 = 0: outage iff |h11|^2 Pp < 3
    edge = np.concatenate([on_grid, tangent, no_cross])
    h12 = np.concatenate([np.ones(len(on_grid) + len(tangent)), np.zeros(len(no_cross))]) + 0j
    rand = channel.sample_realizations(STATS, 5000, 1)
    zeros = np.zeros(len(rand) + len(edge))
    h11, h12 = np.concatenate([rand.h11, edge]), np.concatenate([rand.h12, h12])
    r = channel.ChannelRealization(h11, h12, zeros, zeros)
    rescored = []
    scan = montecarlo._alpha1_scan

    def spy(forms, pw, grid_n):
        rescored.append(len(forms[0]))
        return scan(forms, pw, grid_n)

    monkeypatch.setattr(montecarlo, "_alpha1_scan", spy)
    for p_out in (0.05, 0.2, 0.5):
        _outage_counts_match(r, r_p, p_out)
    assert min(rescored) >= len(no_cross) + 1  # the h12 = 0 samples and the tangent one at least


def test_scheme_params_pick_each_design_point():
    naive = channel.naive_alpha2(STATS, PARAMS.alpha1, PW)
    want = {"la_gpc": PARAMS.alpha2, "naive_dpc": naive, "interference_as_noise": 0.0, "full_csit": 0.0}
    assert set(want) == set(montecarlo.CR_SCHEMES)
    for which, alpha2 in want.items():
        assert montecarlo.scheme_params(which, STATS, PARAMS, PW) == DesignParams(PARAMS.alpha1, alpha2)
    with pytest.raises(ValueError):
        montecarlo.scheme_params("full_search", STATS, PARAMS, PW)


def test_batched_searches_match_the_scalar_oracles():
    """48 disc searches and 16 alpha1 scans pick the oracle's grid point."""
    cases = 0
    for k_db in (0.0, 5.0, 10.0, 15.0):
        stats = ChannelStats.from_k_factor(k_db)
        r_p, p_out, r_cr = montecarlo.SLOW_TARGETS[k_db]
        target = design_fast.primary_target_ergodic(stats, PW)
        for seed in (1, 2):
            r = channel.sample_realizations(stats, 3000, seed)
            assert brute_force_alpha1_fast(r, PW, target, grid_n=101) == _oracle_alpha1_fast(
                r, PW, target, 101
            )
            assert brute_force_alpha1_outage(r, PW, r_p, p_out, grid_n=101) == _oracle_alpha1_outage(
                r, PW, r_p, p_out, 101
            )
            for alpha1 in (0.3, 0.6, 0.8):
                oracle = {}
                for objective, target in (("ergodic", None), ("outage", r_cr)):
                    best, oracle[objective] = _oracle_alpha2(r, stats, alpha1, PW, target, 21)
                    assert brute_force_alpha2(r, stats, alpha1, PW, target, grid_n=21) == best
                    cases += 1
                a2 = np.array([p for p, _ in oracle["outage"]])
                outage = _disc_scores(r, alpha1, PW, a2, r_cr)
                assert outage.tolist() == [score for _, score in oracle["outage"]]
                ergodic = _disc_scores(r, alpha1, PW, a2)
                exact = [float(np.mean(channel.cr_rate(r, DesignParams(alpha1, p), PW))) for p in a2]
                # a score is a difference of two means of log2 terms of a few
                # bits each, and it crosses zero inside the disc: floor the
                # tolerance at the rounding level of those terms
                np.testing.assert_allclose(ergodic, exact, rtol=1e-12, atol=1e-12 * _log_scale(r, alpha1))
    assert cases >= 40


def test_bounded_searches_pick_the_full_scans_point():
    """The bounded alpha1 scan and ergodic disc search pick the full scans' grid
    points, on grids the block sizes do not divide and at the grid alpha1."""
    cases = 0
    for k_db in (0.0, 5.0, 10.0, 15.0):
        stats = ChannelStats.from_k_factor(k_db)
        target = design_fast.primary_target_ergodic(stats, PW)
        for seed in range(6):
            r = channel.sample_realizations(stats, 5 * 10 ** 4, seed)
            for grid_n in (50, 101, 201):
                grid_a1 = brute_force_alpha1_fast(r, PW, target, grid_n)
                assert grid_a1 == _oracle_alpha1_fast(r, PW, target, grid_n)
            for alpha1 in (0.3, 0.6, 0.8, grid_a1):
                for grid_n in (3, 21, 31, 61):
                    pick = brute_force_alpha2(r[: 10 ** 4], stats, alpha1, PW, grid_n=grid_n)
                    assert pick == _oracle_disc_pick(r[: 10 ** 4], stats, alpha1, PW, grid_n)
                    cases += 1
    assert cases == 384


def test_bounded_alpha1_scan_on_constructed_targets():
    """Targets equal to a grid point's computed mean (a tie on >=), targets met at
    alpha1 = 0 and targets just out of reach give the full scan's answer."""
    r = channel.sample_realizations(STATS, 5 * 10 ** 4, 4)
    for grid_n in (50, 201):
        grid, means = zip(*_oracle_alpha1_means(r, PW, grid_n))
        ties = 0
        for i in (0, 1, 15, 16, 17, 31, 33, grid_n // 2, grid_n - 1):  # block ends and middles
            a1 = brute_force_alpha1_fast(r, PW, means[i], grid_n)
            assert a1 == _oracle_alpha1_fast(r, PW, means[i], grid_n)
            ties += a1 == grid[i]  # met with equality at its own grid point
        assert ties >= 5
        for target in (means[0], 0.0):  # met at alpha1 = 0
            assert brute_force_alpha1_fast(r, PW, target, grid_n) == 0.0
        for target in (np.nextafter(max(means), np.inf), 8.0):
            for search in (brute_force_alpha1_fast, _oracle_alpha1_fast):
                with pytest.raises(InfeasibleDesignError):
                    search(r, PW, target, grid_n)


def test_bounded_disc_search_at_alpha1_one():
    """At alpha1 = 1 no own signal is left to precode: both objectives pick 0j
    without scoring, as alpha2_fast does, and la_gpc's rates there are zeros."""
    for k_db in (0.0, 10.0):
        stats = ChannelStats.from_k_factor(k_db)
        r = channel.sample_realizations(stats, 2000, 0)
        for grid_n in (3, 21):
            for r_cr in (None, 1.0):
                pick = brute_force_alpha2(r, stats, 1.0, PW, r_cr=r_cr, grid_n=grid_n)
                assert pick == 0j
                rates = montecarlo.scheme_rates(r, stats, DesignParams(1.0, pick), PW, "la_gpc")
                np.testing.assert_array_equal(rates, np.zeros(len(r)))


def test_scored_blocks_equal_the_full_scan_bit_for_bit(monkeypatch):
    """Each aligned _DISC_ROWS slice scored alone equals that slice of the full
    scan, and so does every block the bounded search scores."""
    rows, seen = montecarlo._DISC_ROWS, {}
    scorer = montecarlo._disc_scorer

    def spy(*args):
        forms, base, score = scorer(*args)
        return forms, base, lambda lo: seen.setdefault(lo, score(lo))

    for k_db, alpha1 in ((0.0, 0.75), (10.0, 0.3)):
        stats = ChannelStats.from_k_factor(k_db)
        r = channel.sample_realizations(stats, 10 ** 4, 3)
        a2 = design_fast.alpha2_disc(stats, alpha1, PW, 61)[1]
        for r_cr in (None, 1.0):
            full = _disc_scores(r, alpha1, PW, a2, r_cr)
            # the GEMM kernel's bits depend on the product's shape: one-row products move some scores
            for lo in range(0, len(a2), rows):
                alone = _disc_scores(r, alpha1, PW, a2[lo : lo + rows], r_cr)
                assert alone.tobytes() == full[lo : lo + rows].tobytes()
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_disc_scorer", spy)
            seen.clear()
            brute_force_alpha2(r, stats, alpha1, PW, grid_n=61)
        assert 0 < len(seen) < len(range(0, len(a2), rows))  # some blocks skipped
        full = _disc_scores(r, alpha1, PW, a2)
        assert all(scores.tobytes() == full[lo : lo + rows].tobytes() for lo, scores in seen.items())


def test_figure_sweep_rate_structure():
    rows = figure_sweep(2, k_grid=(0.0, 15.0), n_ergodic=8000, seed=0, bf_mc_n=8000)
    assert len(rows) == 6
    by_k = {}
    for r in rows:
        assert r.metric == "primary_ergodic_rate"
        by_k.setdefault(r.k_db, {})[r.scheme] = r
    for k_db, schemes in by_k.items():
        assert set(schemes) == {"la_gpc", "full_search", "full_csit"}
        # the reference row is the deterministic no-interference target
        assert schemes["full_csit"].std_error == 0.0
        # protection: designed and searched rates sit at or above the target
        assert schemes["la_gpc"].value >= schemes["full_csit"].value
        assert schemes["full_search"].value >= schemes["full_csit"].value - 0.02


def test_figure_sweep_outage_structure():
    rows = figure_sweep(
        5, k_grid=(10.0,), n_outage=20000, seed=0, bf_grid_n=21, bf_mc_n=5000
    )
    schemes = {r.scheme: r for r in rows}
    assert set(schemes) == {
        "la_gpc",
        "naive_dpc",
        "interference_as_noise",
        "full_csit",
        "full_search",
    }
    for r in rows:
        assert r.metric == "cr_outage"
        assert 0.0 <= r.value <= 1.0
    # a mean-channel precoder cannot beat the outage-designed one by much
    assert schemes["la_gpc"].value <= schemes["naive_dpc"].value + 0.02


def test_figure_sweeps_match_the_public_estimators():
    """Every CR_SCHEMES row of figures 3 and 5 is the public estimator of that
    scheme at the same n, seed and design, to the bit."""
    for k_db, seed in ((0.0, 3), (10.0, 4)):
        stats = ChannelStats.from_k_factor(k_db)
        target = design_fast.primary_target_ergodic(stats, PW)
        fast = design_fast.solve_alpha1_fast(stats, PW, target).params
        r_p, p_out, r_cr = montecarlo.SLOW_TARGETS[k_db]
        slow = design_slow.design(stats, PW, r_p, p_out, r_cr).params
        rows = figure_sweep(3, PW, (k_db,), n_ergodic=3000, seed=seed, bf_grid_n=5, bf_mc_n=2000)
        rows += figure_sweep(5, PW, (k_db,), n_outage=4000, seed=seed, bf_grid_n=5, bf_mc_n=2000)
        got = {(r.metric, r.scheme): (r.value, r.std_error) for r in rows}
        for scheme in montecarlo.CR_SCHEMES:
            erg = ergodic_capacity(stats, fast, PW, 3000, seed, which=scheme, workers=1)
            out = outage_probability(stats, slow, PW, r_cr, scheme, 4000, seed, workers=1)
            assert got["cr_ergodic_rate", scheme] == (erg.value, erg.std_error)
            assert got["cr_outage", scheme] == (out.value, out.std_error)


def test_figure_sweep_draws_one_block_per_k(monkeypatch):
    draws = []
    sample = channel.sample_realizations

    def counting(stats, n, seed, start=0):
        draws.append(n)
        return sample(stats, n, seed, start)

    monkeypatch.setattr(channel, "sample_realizations", counting)
    figure_sweep(3, k_grid=(5.0, 10.0), n_ergodic=4000, bf_grid_n=11, bf_mc_n=2000)
    assert draws == [4000, 4000]
    draws.clear()
    figure_sweep(5, k_grid=(5.0, 10.0), n_outage=20000, bf_grid_n=11, bf_mc_n=2000)
    assert draws == [20000, 20000]


def test_figure_sweep_rejects_unknown_figure():
    with pytest.raises(ValueError):
        figure_sweep(9)
