import numpy as np
import pytest

from lagpc import channel, montecarlo
from lagpc.channel import ChannelStats, DesignParams, PowerConfig
from lagpc.design_fast import InfeasibleDesignError
from lagpc.montecarlo import (
    SweepRecord,
    brute_force_alpha1_fast,
    brute_force_alpha1_outage,
    brute_force_alpha2,
    ergodic_capacity,
    figure_sweep,
    outage_counts,
    outage_probability,
    rate_sums,
    scheme_rates,
)

PW = PowerConfig(10.0, 10.0)
STATS = ChannelStats.from_k_factor(10.0)
PARAMS = DesignParams(0.75, 1.26 + 0j)


def test_rate_sums_partition_independence():
    whole = rate_sums(STATS, PARAMS, PW, "la_gpc", 500, seed=3)
    head = rate_sums(STATS, PARAMS, PW, "la_gpc", 180, seed=3)
    tail = rate_sums(STATS, PARAMS, PW, "la_gpc", 320, seed=3, start=180)
    assert whole[0] == pytest.approx(head[0] + tail[0], rel=1e-12)
    assert whole[1] == pytest.approx(head[1] + tail[1], rel=1e-12)


def test_workers_do_not_change_estimates():
    one = ergodic_capacity(STATS, PARAMS, PW, n=4000, seed=7, workers=1)
    three = ergodic_capacity(STATS, PARAMS, PW, n=4000, seed=7, workers=3)
    assert three.value == pytest.approx(one.value, rel=1e-12)
    assert three.std_error == pytest.approx(one.std_error, rel=1e-9)
    po1 = outage_probability(STATS, PARAMS, PW, 1.0, n=6000, seed=7, workers=1)
    po3 = outage_probability(STATS, PARAMS, PW, 1.0, n=6000, seed=7, workers=3)
    assert po3.value == po1.value  # integer counts partition exactly


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


def test_outage_counts_label_routing():
    """"cr" means the proposed scheme; other labels pass through."""
    n, thr = 2000, 1.0
    r = channel.sample_realizations(STATS, n, 4)
    for label, which in (("cr", "la_gpc"), ("full_csit", "full_csit"), ("primary", "primary")):
        got = outage_counts(STATS, PARAMS, PW, thr, label, n, seed=4)
        want = int(np.sum(scheme_rates(r, STATS, PARAMS, PW, which) < thr))
        assert got == want


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
    a1 = brute_force_alpha1_fast(STATS, PW, target, grid_n=101, mc_n=30000, seed=2)
    r = channel.sample_realizations(STATS, 30000, 2)
    assert float(np.mean(channel.primary_rate(r, a1, PW))) >= target
    step = 1.0 / 100
    if a1 >= step:  # smallest grid point that clears the bar
        assert float(np.mean(channel.primary_rate(r, a1 - step, PW))) < target
    with pytest.raises(InfeasibleDesignError):
        brute_force_alpha1_fast(STATS, PW, 8.0, grid_n=60, mc_n=2000)
    with pytest.raises(ValueError):
        brute_force_alpha1_fast(STATS, PW, target, grid_n=10)


def test_brute_force_alpha1_outage():
    a1 = brute_force_alpha1_outage(STATS, PW, 2.0, 0.01, grid_n=101, mc_n=50000, seed=3)
    r = channel.sample_realizations(STATS, 50000, 3)
    rates = channel.primary_rate(r, a1, PW)
    assert float(np.mean(rates < 2.0)) <= 0.01


def test_brute_force_alpha2_validates():
    with pytest.raises(ValueError):
        brute_force_alpha2(STATS, 0.5, PW, objective="best")
    with pytest.raises(ValueError):
        brute_force_alpha2(STATS, 0.5, PW, objective="outage")  # r_cr missing


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


def test_figure_sweep_rejects_unknown_figure():
    with pytest.raises(ValueError):
        figure_sweep(9)
