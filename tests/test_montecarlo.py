import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from lagpc import channel, cli, design_fast, design_slow, montecarlo
from lagpc.channel import ChannelStats, DesignParams, PowerConfig
from lagpc.cli import SLOW_TARGETS
from lagpc.design_fast import InfeasibleDesignError
from lagpc.montecarlo import (
    brute_force_alpha1_fast,
    brute_force_alpha1_outage,
    brute_force_alpha2,
    drawn_estimates,
)
from oracles import block_bound_alpha2, held_block_outage_rows, scheme_rates, whole_outage_counts, whole_sums

PW = PowerConfig(10.0, 10.0)
STATS = ChannelStats.from_k_factor(10.0)
PARAMS = DesignParams(0.75, 1.26 + 0j)

FigureRow = namedtuple("FigureRow", ("k_db",) + cli.FIXED_COLUMNS)


def figure_rows(figure, pw=PW, k_grid=None, **sizes):
    """The rows of `reproduce-figure` 2-5 at these powers, K grid and sizes, as named tuples."""
    powers = {"p_c": pw.Pc, "p_p": pw.Pp, "noise_p": pw.noise_p, "noise_s": pw.noise_s}
    config = {"figure": figure, **powers, "k_db": k_grid and list(k_grid), **sizes}
    return [FigureRow(*row) for row in cli._sweep_rows(cli.validate_config("reproduce-figure", config))]


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
    score = montecarlo._disc_scorer(r, alpha1, pw, a2, r_cr)[1]
    return np.concatenate([score(lo) for lo in range(0, len(a2), montecarlo._DISC_ROWS)])


def _oracle_disc_pick(r, stats, alpha1, pw, grid_n, r_cr=None):
    """The full-disc search the bounded one replaced, ergodic or with r_cr outage: the first best
    point of the full scan."""
    a2 = design_fast.alpha2_disc(stats, alpha1, pw, grid_n)[1]
    return complex(a2[np.nanargmax(_disc_scores(r, alpha1, pw, a2, r_cr))])


def _log_scale(r, alpha1):
    """Mean |log2(sigma2 * ys_pow)|, the size of the terms of an ergodic disc score."""
    sigma2 = (1.0 - alpha1) * PW.Pc
    hs = channel.effective_interference_gain(r, alpha1, PW)
    ys_pow = np.abs(r.h22) ** 2 * sigma2 + np.abs(hs) ** 2 * PW.Pp + PW.noise_s
    return float(np.mean(np.abs(np.log2(sigma2 * ys_pow))))


def _ergodic(n, seed, workers, which="la_gpc"):
    """The drawn_estimates ergodic rate of one scheme at STATS and PARAMS."""
    return drawn_estimates([(STATS, PARAMS)], PW, (which,), None, n, seed, workers)[0][0]


def _outage(r_target, n, seed, workers, which="la_gpc"):
    """The drawn_estimates outage of one scheme at STATS and PARAMS."""
    return drawn_estimates([(STATS, PARAMS)], PW, (which,), r_target, n, seed, workers)[0][0]


def test_sums_partition_independence():
    for r_target in (1.0, None):  # the outage counts, then the rate sums
        [[[(whole,)]]] = montecarlo._chunk_sums([(STATS, PARAMS)], PW, ("la_gpc",), r_target, 3, [(0, 500)])
        chunks = montecarlo._chunk_sums([(STATS, PARAMS)], PW, ("la_gpc",), r_target, 3, [(0, 180), (180, 320)])
        [[[(head,)]], [[(tail,)]]] = chunks
        assert whole[0] == pytest.approx(head[0] + tail[0], rel=1e-12)
        assert whole[1] == pytest.approx(head[1] + tail[1], rel=1e-12)
        assert whole[2] == head[2] + tail[2]


def test_workers_do_not_change_estimates():
    one = _ergodic(n=4000, seed=7, workers=1)
    three = _ergodic(n=4000, seed=7, workers=3)
    assert three.value == pytest.approx(one.value, rel=1e-12)
    assert three.std_error == pytest.approx(one.std_error, rel=1e-9)
    po1 = _outage(1.0, n=6000, seed=7, workers=1)
    po3 = _outage(1.0, n=6000, seed=7, workers=3)
    assert po3.value == po1.value  # integer counts partition exactly


def test_estimates_bit_identical_across_worker_counts(monkeypatch):
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    runs = [
        (
            _ergodic(n=4500, seed=7, workers=w),
            _outage(1.0, n=4500, seed=7, workers=w),
        )
        for w in (1, 2, 3)
    ]
    for erg, out in runs[1:]:
        assert (erg.value, erg.std_error) == (runs[0][0].value, runs[0][0].std_error)
        assert (out.value, out.std_error) == (runs[0][1].value, runs[0][1].std_error)


def test_pool_is_built_once_through_the_module_name(monkeypatch):
    """A pooled drawn_estimates builds its pool through montecarlo.ProcessPoolExecutor, so a rebinding of
    that name (as a tracer's counting pool) holds: 2 workers over 5 chunks build it once, with the one-worker
    bits."""
    built = []

    class CountingPool(montecarlo.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    one = _ergodic(n=4500, seed=7, workers=1)
    monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", CountingPool)
    two = _ergodic(n=4500, seed=7, workers=2)
    assert built == [{"max_workers": 2}]
    assert (two.value, two.std_error) == (one.value, one.std_error)


def test_every_point_and_scheme_equals_its_held_block_estimate(monkeypatch):
    """Every K and scheme of one drawn_estimates call, over several chunks and at any worker count,
    equals estimates over sample_realizations at that K to the bit."""
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    n, seed = 2500, 6
    schemes = ("la_gpc", "primary", "naive_dpc", "full_csit", "interference_as_noise")
    points = [(ChannelStats.from_k_factor(k), DesignParams(a1, a2))
              for k, a1, a2 in ((0.0, 0.2, 0.5 + 0.1j), (5.0, 0.5, 1.1 - 0.2j), (15.0, 0.75, 1.26 + 0j))]
    for r_target in (None, 1.0):
        blocks = [(channel.sample_realizations(stats, n, seed), stats, params) for stats, params in points]
        want = [montecarlo.estimates(r, stats, params, PW, schemes, r_target) for r, stats, params in blocks]
        for workers in (1, 2, 3):
            got = drawn_estimates(points, PW, schemes, r_target, n, seed, workers)
            assert [[(e.value, e.std_error) for e in row] for row in got] == \
                [[(e.value, e.std_error) for e in row] for row in want]


def test_drawn_estimates_draw_only_the_links_their_schemes_read(monkeypatch):
    """Over two chunks, the primary-only estimates draw h11 and h12 and the cognitive-radio ones h21 and
    h22, each chunk once, and both equal estimates over the all-links sample_realizations to the bit."""
    monkeypatch.setattr(montecarlo, "_CHUNK", channel.PIECE + 7)
    n, seed = 2 * channel.PIECE - 100, 5
    draws = []
    normals = channel.standard_normals

    def counting(n, seed, start=0, links=channel.LINKS):
        draws.append((start, links))
        return normals(n, seed, start, links)

    monkeypatch.setattr(channel, "standard_normals", counting)
    points = [(ChannelStats.from_k_factor(k), DesignParams(a1, a2))
              for k, a1, a2 in ((0.0, 0.2, 0.5 + 0.1j), (15.0, 0.75, 1.26 + 0j))]
    for schemes, links in ((("primary",), (0, 1)), (montecarlo.CR_SCHEMES, (2, 3))):
        for r_target in (None, 1.0):
            draws.clear()
            got = drawn_estimates(points, PW, schemes, r_target, n, seed, workers=1)
            assert draws == [(0, links), (montecarlo._CHUNK, links)]
            want = [montecarlo.estimates(channel.sample_realizations(stats, n, seed), stats, params, PW, schemes,
                                         r_target) for stats, params in points]
            assert [[(e.value, e.std_error) for e in row] for row in got] == \
                [[(e.value, e.std_error) for e in row] for row in want]


def test_determinism_and_seed_sensitivity():
    a = _ergodic(n=3000, seed=5, workers=1)
    b = _ergodic(n=3000, seed=5, workers=1)
    c = _ergodic(n=3000, seed=6, workers=1)
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
        got = _outage(thr, n, seed=4, workers=1, which=which).value
        want = int(np.sum(scheme_rates(r, STATS, PARAMS, PW, which) < thr))
        assert got * n == want
    default = _outage(thr, n=n, seed=4, workers=1).value
    assert default == _outage(thr, n, seed=4, workers=1, which="la_gpc").value
    with pytest.raises(ValueError, match="unknown scheme"):
        _outage(thr, n, seed=4, workers=1, which="cr")


def test_binomial_std_error():
    est = _outage(1.0, n=5000, seed=1, workers=1)
    assert est.std_error == pytest.approx(
        np.sqrt(est.value * (1.0 - est.value) / 5000)
    )


def test_std_error_shrinks_with_n():
    small = _ergodic(n=2000, seed=9, workers=1)
    big = _ergodic(n=8000, seed=9, workers=1)
    assert big.std_error == pytest.approx(small.std_error / 2.0, rel=0.2)


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


def test_primary_rate_is_the_scans_rate_bit_for_bit():
    """channel.primary_rate equals the alpha1 scan's log2(1 + sig/den) at every grid alpha1, with the scan
    writing every step into the same two arrays, so figure 2's full_search row, the mean rate at the
    searched alpha1, meets the target it was searched for."""
    for k_db in (0.0, 5.0, 10.0, 15.0):
        r = channel.sample_realizations(ChannelStats.from_k_factor(k_db), 2 * 10 ** 4, 5)
        scan = montecarlo._alpha1_scan(channel.primary_forms(r, PW), PW, np.linspace(0.0, 1.0, 201),
                                       tuple(np.empty((2, len(r)))))
        for a1, sig, den in scan:
            assert (channel.primary_rate(r, a1, PW) == np.log2(1.0 + sig / den)).all()
    rows = {(row.k_db, row.scheme): row.value for row in figure_rows(2, PW, n_ergodic=2 * 10 ** 4, seed=5)}
    for k_db in SLOW_TARGETS:  # the default K grid
        assert rows[k_db, "full_search"] >= rows[k_db, "full_csit"]


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
    counts = montecarlo._outage_scan(r, PW, r_p, grid_n).counts()
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


def _spy_rescoring(monkeypatch):
    """The list of the sizes of the blocks OutageScan rescores with the scan."""
    rescored = []
    scan = montecarlo._alpha1_scan

    def spy(forms, pw, grid):
        rescored.append(len(forms[0]))
        return scan(forms, pw, grid)

    monkeypatch.setattr(montecarlo, "_alpha1_scan", spy)
    return rescored


def test_outage_counts_match_the_scan_at_every_grid_point(monkeypatch):
    """The interval counts equal the per-grid-point scan's, and pick its alpha1,
    also on blocks where no sample is rescored."""
    rescored = _spy_rescoring(monkeypatch)
    none_rescored = 0
    for k_db, (r_p, p_out, _) in SLOW_TARGETS.items():
        stats = ChannelStats.from_k_factor(k_db)
        for seed in range(6):
            rescored.clear()
            _outage_counts_match(channel.sample_realizations(stats, 10 ** 5, seed), r_p, p_out)
            none_rescored += sum(rescored) == 0
    assert none_rescored > 0
    r_p, p_out, _ = SLOW_TARGETS[0.0]
    _outage_counts_match(channel.sample_realizations(ChannelStats.from_k_factor(0.0), 10 ** 6, 0), r_p, p_out)


def _scan_value(h11, h12, a1):
    """1 + sig/den of the scan for one sample at one grid alpha1."""
    a = abs(h11) ** 2 * PW.Pp
    b = 2.0 * (np.conj(h11) * h12).real * np.sqrt(PW.Pp)
    c = abs(h12) ** 2
    amp = np.sqrt(a1 * PW.Pc)
    return 1.0 + (a + b * amp + c * amp ** 2) / (c * (1.0 - a1) * PW.Pc + PW.noise_p)


def _edge_samples():
    """(h11, h12, core) of constructed samples for OutageScan at r_p = 2 on the 201-point grid; the
    mask core picks 17 of them: the 5 with h12 = 0, the 3 exact tangents and the 9 on-grid ends nearest
    to grid amp 120."""
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
    core = np.zeros(len(edge), dtype=bool)
    core[36:45] = True  # on_grid's middle 9
    core[len(on_grid) + len(nudges) * np.arange(0, 6, 2)] = True  # nudge 0 at each k
    core[-len(no_cross) :] = True
    return edge, h12, core


def test_outage_counts_on_constructed_edge_samples(monkeypatch):
    """Samples whose outage interval ends exactly on a grid amp, samples at and
    near tangency, and samples with h12 = 0 are counted as the scan counts them."""
    r_p = 2.0
    edge, h12, _ = _edge_samples()
    no_cross = np.count_nonzero(h12 == 0)
    rand = channel.sample_realizations(STATS, 5000, 1)
    zeros = np.zeros(len(rand) + len(edge))
    h11, h12 = np.concatenate([rand.h11, edge]), np.concatenate([rand.h12, h12])
    r = channel.ChannelRealization(h11, h12, zeros, zeros)
    rescored = _spy_rescoring(monkeypatch)
    for p_out in (0.05, 0.2, 0.5):
        _outage_counts_match(r, r_p, p_out)
    assert min(rescored) >= no_cross + 1  # the h12 = 0 samples and the tangent one at least


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_pieced_outage_counts_equal_the_whole_block(k_db, monkeypatch):
    """OutageScan, piece by piece, equals the whole-block count over three pieces and a short last
    one of 17 samples, which holds the core edge samples; the other edge samples end the third piece."""
    edge, h12, core = _edge_samples()
    n = 3 * channel.PIECE + 17
    rand = channel.sample_realizations(ChannelStats.from_k_factor(k_db), n - len(edge), 4)
    h11 = np.concatenate([rand.h11, edge[~core], edge[core]])
    h12 = np.concatenate([rand.h12, h12[~core], h12[core]])
    zeros = np.zeros(n, dtype=complex)
    r = channel.ChannelRealization(h11, h12, zeros, zeros)
    assert len(r[3 * channel.PIECE :]) == core.sum() == 17
    rescored = _spy_rescoring(monkeypatch)
    for r_p, grid_n in ((2.0, 201), (2.0, 31), (SLOW_TARGETS[k_db][0], 201)):
        counts = montecarlo._outage_scan(r, PW, r_p, grid_n).counts()
        assert counts.tolist() == whole_outage_counts(r, PW, r_p, grid_n).tolist()
    assert rescored[0] >= 6  # the h12 = 0 samples and an exact tangent at least, in the pieced call


@pytest.mark.parametrize("k_db", [0.0, 10.0])
def test_pieced_sums_equal_the_whole_chunks(k_db, monkeypatch):
    """The rate sums and counts taken piece by piece, and the estimates from them, equal the whole-chunk
    ones to the bit, over three pieces and a short last one, in one chunk and in chunks that end
    inside a piece."""
    stats = ChannelStats.from_k_factor(k_db)
    r = channel.sample_realizations(stats, 3 * channel.PIECE + 17, 6)
    schemes = ("la_gpc", "primary", "naive_dpc", "full_csit", "interference_as_noise")
    for chunk in (montecarlo._CHUNK, 2 * channel.PIECE + 5):
        monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        for params in (DesignParams(0.5, 1.1 + 0.1j), DesignParams(1.0, 0j)):
            for r_target in (None, 1.0, 3.0):
                whole = whole_sums(r, stats, params, PW, schemes, r_target)
                assert montecarlo._sums(r, stats, params, PW, schemes, r_target) == whole
                got = montecarlo.estimates(r, stats, params, PW, schemes, r_target)
                assert got == [montecarlo._estimate(parts, len(r), r_target) for parts in whole]


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
        r_p, p_out, r_cr = SLOW_TARGETS[k_db]
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


def test_bounded_outage_disc_search_picks_the_full_scans_point():
    """The pruned outage disc search picks the full scan's grid point, on grids the block sizes do not
    divide, at the grid alpha1 and at alpha1 = 0.99, where the guard is wide against the limit."""
    cases = 0
    for k_db in (0.0, 5.0, 10.0, 15.0):
        stats = ChannelStats.from_k_factor(k_db)
        r_p, p_out, r_cr = SLOW_TARGETS[k_db]
        for seed in range(3):
            r = channel.sample_realizations(stats, 10 ** 4, seed)
            for alpha1 in (0.3, 0.6, 0.8, brute_force_alpha1_outage(r, PW, r_p, p_out), 0.99):
                for grid_n in (3, 21, 31, 61):
                    pick = brute_force_alpha2(r, stats, alpha1, PW, r_cr, grid_n=grid_n)
                    assert pick == _oracle_disc_pick(r, stats, alpha1, PW, grid_n, r_cr)
                    cases += 1
    assert cases == 240


def test_outage_disc_search_on_constructed_ties():
    """Where no sample is out at any point, or every sample at every point, all scores tie and the
    first point (dre-major) wins, as in the full scan."""
    for k_db, alpha1 in ((0.0, 0.5), (10.0, 0.3)):
        stats = ChannelStats.from_k_factor(k_db)
        r = channel.sample_realizations(stats, 2000, 1)
        for grid_n in (21, 61):
            a2 = design_fast.alpha2_disc(stats, alpha1, PW, grid_n)[1]
            for r_cr, tie in ((-60.0, 0.0), (60.0, -1.0)):
                assert (_disc_scores(r, alpha1, PW, a2, r_cr) == tie).all()
                assert brute_force_alpha2(r, stats, alpha1, PW, r_cr, grid_n) == complex(a2[0])
                assert _oracle_disc_pick(r, stats, alpha1, PW, grid_n, r_cr) == complex(a2[0])


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


def test_alpha1_bound_where_the_rate_first_falls():
    """Where the primary rate first falls as alpha1 grows (h12 near -h11 / 2, so the relayed signal cancels
    part of the direct one), a block's larger sig is at its first alpha1, which the bound reads from the
    same scan as the last alpha1's sig and den: a target at any grid point's mean picks the full scan's
    alpha1, and one at the first mean picks alpha1 = 0 though the first block's last rate is below it."""
    z = channel.sample_realizations(STATS, 10 ** 4 + 7, 9)
    h11 = 1.0 + 0.1 * z.h11
    zeros = np.zeros(len(h11), dtype=complex)
    r = channel.ChannelRealization(h11, -0.5 * h11 + 0.1 * z.h12, zeros, zeros)
    for grid_n in (50, 201):
        grid, means = zip(*_oracle_alpha1_means(r, PW, grid_n))
        assert means[-1] > means[0] > means[montecarlo._SCAN_BLOCK - 1]  # falls over the first block, then rises
        assert brute_force_alpha1_fast(r, PW, means[0], grid_n) == 0.0
        for target in means:
            assert brute_force_alpha1_fast(r, PW, target, grid_n) == grid[np.argmax(np.array(means) >= target)]


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
                rates = scheme_rates(r, stats, DesignParams(1.0, pick), PW, "la_gpc")
                np.testing.assert_array_equal(rates, np.zeros(len(r)))


def test_scored_blocks_equal_the_full_scan_bit_for_bit(monkeypatch):
    """Each aligned _DISC_ROWS slice scored alone equals that slice of the full
    scan, and so does every block the bounded search scores."""
    rows, seen = montecarlo._DISC_ROWS, {}
    scorer = montecarlo._disc_scorer

    def spy(*args):
        key, score = scorer(*args)
        return key, lambda lo: seen.setdefault(lo, score(lo))

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
        for r_cr in (None, 1.0):
            with monkeypatch.context() as m:
                m.setattr(montecarlo, "_disc_scorer", spy)
                seen.clear()
                brute_force_alpha2(r, stats, alpha1, PW, r_cr, grid_n=61)
            assert 0 < len(seen) < len(range(0, len(a2), rows))  # some blocks skipped
            full = _disc_scores(r, alpha1, PW, a2, r_cr)
            assert all(scores.tobytes() == full[lo : lo + rows].tobytes() for lo, scores in seen.items())


def test_block_and_product_keys_bound_every_score_they_cover():
    """Each block key and each product key, on its own bounding rectangle, is at least every full-scan score
    of its points, for both objectives, on grids the block sizes do not divide, at the grid alpha1 and at
    alpha1 = 0.99, where the ergodic guard is wide; somewhere a product's key is below its block's."""
    n, block, rows = 10 ** 4 + 7, montecarlo._BOUND_ROWS, montecarlo._DISC_ROWS
    finite = tighter = 0
    for k_db in (0.0, 5.0, 10.0, 15.0):
        stats = ChannelStats.from_k_factor(k_db)
        r = channel.sample_realizations(stats, n, 8)
        r_p, p_out, r_cr = SLOW_TARGETS[k_db]
        grid_a1 = {None: brute_force_alpha1_fast(r, PW, design_fast.primary_target_ergodic(stats, PW)),
                   r_cr: brute_force_alpha1_outage(r, PW, r_p, p_out)}
        for objective, a1 in grid_a1.items():
            for alpha1 in (0.3, 0.8, a1, 0.99):
                for grid_n in (21, 61):
                    a2 = design_fast.alpha2_disc(stats, alpha1, PW, grid_n)[1]
                    key = montecarlo._disc_scorer(r, alpha1, PW, a2, objective)[0]
                    full = _disc_scores(r, alpha1, PW, a2, objective)
                    for lo in range(0, len(a2), block):
                        outer = key(lo, block)
                        assert not (full[lo : lo + block] > outer).any()
                        for sub in range(lo, min(lo + block, len(a2)), rows):
                            inner = key(sub, rows)
                            assert not (full[sub : sub + rows] > inner).any()
                            finite += np.isfinite(inner)
                            tighter += inner < outer
    assert finite > 0 and tighter > 0


def test_product_keys_halve_the_scored_products(monkeypatch):
    """At ergodic-sweep's sizes (figure 3 with n_ergodic 5 10^4, bf_grid_n 61 and bf_mc_n 10^4) the disc
    searches score at most half the products that keys on whole blocks alone score, and pick their points."""
    searches, scored = [], []
    search, scorer = montecarlo.brute_force_alpha2, montecarlo._disc_scorer

    def spy_search(*args, **kwargs):
        searches.append((args, kwargs, search(*args, **kwargs)))
        return searches[-1][2]

    def spy_scorer(*args):
        key, score = scorer(*args)
        return key, lambda lo: scored.append(lo) or score(lo)

    with monkeypatch.context() as m:
        m.setattr(montecarlo, "brute_force_alpha2", spy_search)
        m.setattr(montecarlo, "_disc_scorer", spy_scorer)
        figure_rows(3, n_ergodic=5 * 10 ** 4, bf_grid_n=61, bf_mc_n=10 ** 4, seed=0)
    block_only = []
    for (r, stats, alpha1, pw, r_cr), kwargs, pick in searches:
        assert block_bound_alpha2(r, stats, alpha1, pw, r_cr, kwargs["grid_n"], block_only) == pick
    assert len(searches) == 4
    assert 0 < 2 * len(scored) <= len(block_only)


def test_shared_forms_estimates_equal_the_one_scheme_estimates():
    """Each scheme's estimate from one estimates call, which computes cr_forms once per _CHUNK for
    every scheme at the design point, equals its one-scheme estimate to the bit, over two chunks."""
    r = channel.sample_realizations(STATS, montecarlo._CHUNK + 5, 2)
    schemes = ("la_gpc", "primary", "naive_dpc", "full_csit", "interference_as_noise")
    for params in (DesignParams(0.0, 0.9 - 0.2j), DesignParams(0.5, 1.1 + 0.1j), DesignParams(1.0, 0j)):
        for r_target in (None, 1.0):
            shared = montecarlo.estimates(r, STATS, params, PW, schemes, r_target)
            for which, est in zip(schemes, shared, strict=True):
                [one] = montecarlo.estimates(r, STATS, params, PW, (which,), r_target)
                assert (est.value, est.std_error) == (one.value, one.std_error)


def test_figure_rows_compute_cr_forms_twice_per_k(monkeypatch):
    """Figures 3 and 5 compute cr_forms at n twice per K, once for the four scheme rows at the design
    point and once for the full_search row, besides the disc search's own call at bf_mc_n.  Figure 5 runs
    every K's disc search first, then computes both per piece of its second pass at each K in turn."""
    sizes = []
    forms = channel.cr_forms
    monkeypatch.setattr(channel, "cr_forms", lambda r, *args: sizes.append(len(r)) or forms(r, *args))
    figure_rows(3, k_grid=(5.0, 10.0), n_ergodic=4000, bf_grid_n=11, bf_mc_n=2000)
    assert sizes == [4000, 2000, 4000] * 2
    sizes.clear()
    figure_rows(5, k_grid=(5.0, 10.0), n_outage=6000, bf_grid_n=11, bf_mc_n=2000)
    assert sizes == [2000] * 2 + [6000, 6000] * 2
    sizes.clear()
    figure_rows(5, k_grid=(5.0, 10.0), n_outage=channel.PIECE + 6000, bf_grid_n=11, bf_mc_n=2000)
    assert sizes == [2000] * 2 + [channel.PIECE] * 4 + [6000] * 4


def test_figure_sweep_rate_structure():
    rows = figure_rows(2, k_grid=(0.0, 15.0), n_ergodic=8000, seed=0, bf_mc_n=8000)
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
    rows = figure_rows(
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
        r_p, p_out, r_cr = SLOW_TARGETS[k_db]
        slow = design_slow.design(stats, PW, r_p, p_out, r_cr).params
        rows = figure_rows(3, PW, (k_db,), n_ergodic=3000, seed=seed, bf_grid_n=5, bf_mc_n=2000)
        rows += figure_rows(5, PW, (k_db,), n_outage=4000, seed=seed, bf_grid_n=5, bf_mc_n=2000)
        got = {(r.metric, r.scheme): (r.value, r.std_error) for r in rows}
        ergs = drawn_estimates([(stats, fast)], PW, montecarlo.CR_SCHEMES, None, 3000, seed, workers=1)[0]
        outs = drawn_estimates([(stats, slow)], PW, montecarlo.CR_SCHEMES, r_cr, 4000, seed, workers=1)[0]
        for scheme, erg, out in zip(montecarlo.CR_SCHEMES, ergs, outs, strict=True):
            assert got["cr_ergodic_rate", scheme] == (erg.value, erg.std_error)
            assert got["cr_outage", scheme] == (out.value, out.std_error)


def test_figure_sweep_draws_its_normals_once(monkeypatch):
    """Every K's block of figures 2 and 3 is rescaled from one draw of normals: of all four links for
    figure 3, of the primary links h11 and h12 for figure 2 (streamed from normal_pieces into the draw).
    Figures 4 and 5 stream every K from normal_pieces, each realization's links once per pass: figure 4
    h11 and h12; figure 5 all four links of the first bf_mc_n realizations and h11 and h12 of the rest,
    then h21 and h22 of all n."""
    draws, streams = [], []
    normals, pieces = channel.standard_normals, channel.normal_pieces

    def counting(n, seed, start=0, links=channel.LINKS):
        draws.append((n, tuple(links)))
        return normals(n, seed, start, links)

    def streaming(n, seed, start=0, links=channel.LINKS):
        streams.append((n, start, tuple(links)))
        return pieces(n, seed, start, links)

    monkeypatch.setattr(channel, "standard_normals", counting)
    monkeypatch.setattr(channel, "normal_pieces", streaming)
    figure_rows(3, k_grid=(5.0, 10.0), n_ergodic=4000, bf_grid_n=11, bf_mc_n=2000)
    assert (draws, streams) == ([(4000, channel.LINKS)], [])
    draws.clear()
    figure_rows(2, k_grid=(5.0, 10.0), n_ergodic=4000)
    assert (draws, streams) == ([(4000, (0, 1))], [(4000, 0, (0, 1))])
    draws.clear()
    streams.clear()
    figure_rows(5, k_grid=(5.0, 10.0), n_outage=20000, bf_grid_n=11, bf_mc_n=2000)
    assert (draws, streams) == ([], [(2000, 0, channel.LINKS), (18000, 2000, (0, 1)), (20000, 0, (2, 3))])
    streams.clear()
    figure_rows(4, k_grid=(5.0, 10.0), n_outage=20000)
    assert (draws, streams) == ([], [(20000, 0, (0, 1))])


@pytest.mark.parametrize("figure, sizes, piece", [
    (4, dict(n_outage=1), None),
    (5, dict(n_outage=1), None),
    (5, dict(n_outage=50, bf_mc_n=20000), None),
    (5, dict(n_outage=20000, bf_mc_n=5, bf_grid_n=3), None),
    (4, dict(n_outage=3 * 1024 + 17, seed=3), 1024),
    (5, dict(n_outage=3 * 1024 + 17, bf_mc_n=1500, bf_grid_n=7, seed=3), 1024),
])
def test_streamed_outage_rows_equal_the_held_block_rows(figure, sizes, piece, monkeypatch):
    """Figures 4 and 5, streamed piece by piece, print the rows of the held-block oracle byte for byte: at
    one realization, with an alpha2 block longer than n or of 5 realizations, and over pieces that n and
    bf_mc_n do not fill."""
    if piece:
        monkeypatch.setattr(channel, "PIECE", piece)
    config = cli.validate_config("reproduce-figure", {"figure": figure, **sizes})
    assert repr(cli._sweep_rows(config)) == repr(held_block_outage_rows(config))


def test_figure_5_memory_does_not_grow_with_n_outage(monkeypatch):
    """Figure 5 holds its piece buffers and one bf_mc_n block, whatever n_outage: the traced peaks at
    n_outage 2^13 and 2^15 differ by less than one piece's buffers (a held block differs by 3 MB)."""
    monkeypatch.setattr(channel, "PIECE", 1 << 10)
    work = montecarlo.PieceWork(channel.PIECE)
    piece_bytes = sum(a.nbytes for a in vars(work).values())
    figure_rows(5, n_outage=1 << 10, bf_grid_n=5, bf_mc_n=2000)  # every cache filled before the peaks
    peaks = []
    for n in (1 << 13, 1 << 15):
        tracemalloc.start()
        try:
            figure_rows(5, n_outage=n, bf_grid_n=5, bf_mc_n=2000)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < piece_bytes < ((1 << 15) - (1 << 13)) * 128


def test_scan_estimate_counts_the_rate_not_the_scan():
    """OutageScan.estimate, figure 4's full_search row, counts log2(1 + sig/den) < R_P at a grid alpha1 as
    estimates does, where the scan counts 1 + sig/den < 2^R_P: also on constructed samples whose 1 +
    sig/den sits 1 to 4 ulps below 2^R_P at grid alpha1, where the two tests can disagree."""
    grid, disagree = np.linspace(0.0, 1.0, 201), 0
    rand = channel.sample_realizations(STATS, 3000, 7, links=channel.PRIMARY_LINKS)
    for r_p in (1.0, 2.0, 2.5, 3.0, 9.0):
        big_t, edge = 2.0 ** r_p, []
        below = np.nextafter(big_t, 0.0) - np.arange(4) * np.spacing(np.nextafter(big_t, 0.0))
        for j in (40, 120, 200):
            den = (1.0 - grid[j]) * PW.Pc + PW.noise_p  # h12 = 1
            x0 = (np.sqrt((big_t - 1.0) * den) - np.sqrt(grid[j] * PW.Pc)) / np.sqrt(PW.Pp)
            h11 = x0 + np.arange(-1000, 1001) * np.spacing(x0) + 0j
            x = _scan_value(h11, 1.0, grid[j])
            edge.append(h11[np.isin(x, below)])
        edge = np.concatenate(edge)
        assert len(edge) >= 2
        h11, h12 = np.concatenate([rand.h11, edge]), np.concatenate([rand.h12, np.ones(len(edge), dtype=complex)])
        r = channel.ChannelRealization(h11, h12, None, None)
        scan = montecarlo._outage_scan(r, PW, r_p, 201)
        assert scan.counts().tolist() == _oracle_outage_counts(r, PW, r_p, 201)
        for a1, count in zip(grid, scan.counts()):
            [want] = montecarlo.estimates(r, STATS, DesignParams(float(a1), 0.0), PW, ("primary",), r_p)
            assert scan.estimate(float(a1)) == want
            disagree += count != round(want.value * len(r))
    assert disagree > 0
