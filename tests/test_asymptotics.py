import numpy as np
import pytest

from lagpc import cli
from lagpc.asymptotics import nonfading_alpha1, nonfading_alpha2
from lagpc.channel import PowerConfig

PW = PowerConfig(10.0, 10.0)  # asymptotic-check's default powers


def _legs(**config):
    """{metric: (K, values, alpha2)} of the asymptotic-check rows for config, one tuple entry per row."""
    rows = cli._cmd_asymptotic_check(cli.validate_config("asymptotic-check", config)).rows
    return {
        metric: tuple(zip(*[(k, value, complex(re, im)) for k, _, m, value, _, _, re, im, _ in rows if m == metric]))
        for metric in {row[2] for row in rows}
    }


def test_nonfading_alpha1_restores_the_rate():
    a1 = nonfading_alpha1(PW)
    lhs = (np.sqrt(PW.Pp) + np.sqrt(a1 * PW.Pc)) ** 2 / ((1.0 - a1) * PW.Pc + PW.noise_p)
    assert lhs == pytest.approx(PW.Pp / PW.noise_p, rel=1e-12)
    assert a1 == pytest.approx(0.7514767974735086, rel=1e-12)


def test_nonfading_alpha1_closed_form_everywhere():
    # full relaying kills the interference and adds power, so the
    # deterministic problem is feasible for any power split
    rng = np.random.default_rng(7)
    for _ in range(25):
        pw = PowerConfig(*rng.uniform(0.05, 200.0, size=2))
        a1 = nonfading_alpha1(pw)
        assert 0.0 <= a1 <= 1.0
        lhs = (np.sqrt(pw.Pp) + np.sqrt(a1 * pw.Pc)) ** 2 / (
            (1.0 - a1) * pw.Pc + pw.noise_p
        )
        assert lhs == pytest.approx(pw.Pp / pw.noise_p, rel=1e-10)


def test_nonfading_alpha2_value_and_domain():
    a1 = nonfading_alpha1(PW)
    assert nonfading_alpha2(a1, PW) == pytest.approx(1.3312238610429645 + 0j, rel=1e-12)
    with pytest.raises(ValueError):
        nonfading_alpha2(1.2, PW)


def test_fast_design_converges_to_the_limit():
    legs = _legs(modes=["fast"], k_db=[0.0, 10.0, 20.0, 30.0, 40.0])
    d1 = legs["alpha1_deviation_fast"][1]
    d2 = legs["alpha2_deviation_fast"][1]
    assert all(a > b for a, b in zip(d1, d1[1:]))  # strictly shrinking
    assert all(a > b for a, b in zip(d2, d2[1:]))
    assert d1[-1] < 1e-5
    assert d2[-1] < 1e-4
    assert max(d1) == d1[0]


def test_slow_design_converges_an_order_slower():
    slow_k_db, d1, _ = _legs(modes=["slow"], k_db=[0.0, 20.0, 30.0, 40.0])["alpha1_deviation_slow"]
    # the deterministic-channel rate is unreachable at 0 dB: skipped, not fatal
    assert slow_k_db == (20.0, 30.0, 40.0)
    assert all(a > b for a, b in zip(d1, d1[1:]))
    # the Cantelli margin decays ~10^(-K/20): still a few 1e-3 at 40 dB
    assert 1e-3 < d1[-1] < 2e-2
    fast = _legs(modes=["fast"], k_db=[40.0])
    assert d1[-1] > 10.0 * fast["alpha1_deviation_fast"][1][0]


def test_alpha2_approaches_the_limit_design():
    """Measured against the limit alpha2 itself, not nonfading_alpha2 at the
    designed alpha1, so an alpha1 fault shows in the alpha2 leg too."""
    k_grid = (40.0, 50.0, 60.0, 70.0, 80.0)
    legs = _legs(k_db=list(k_grid))
    limit = nonfading_alpha2(nonfading_alpha1(PW), PW)
    assert legs["alpha2_deviation_slow"][0] == k_grid
    for mode in ("fast", "slow"):
        gap = [abs(a2 - limit) for a2 in legs[f"alpha2_deviation_{mode}"][2]]
        assert all(a > b for a, b in zip(gap, gap[1:]))  # strictly shrinking


def test_slow_alpha1_crosses_below_1e3_by_60db():
    assert _legs(modes=["slow"], k_db=[60.0])["alpha1_deviation_slow"][1][0] < 1e-3
