import numpy as np
import pytest

from lagpc.asymptotics import convergence_sweep, nonfading_alpha1, nonfading_alpha2
from lagpc.channel import PowerConfig

PW = PowerConfig(10.0, 10.0)


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
    rep = convergence_sweep(PW, modes=("fast",), k_grid=(0.0, 10.0, 20.0, 30.0, 40.0))
    d1 = rep.deviations["alpha1_fast"]
    d2 = rep.deviations["alpha2_fast"]
    assert all(a > b for a, b in zip(d1, d1[1:]))  # strictly shrinking
    assert all(a > b for a, b in zip(d2, d2[1:]))
    assert d1[-1] < 1e-5
    assert d2[-1] < 1e-4
    assert max(d1) == d1[0]


def test_slow_design_converges_an_order_slower():
    rep = convergence_sweep(PW, modes=("slow",), k_grid=(0.0, 20.0, 30.0, 40.0))
    # the deterministic-channel rate is unreachable at 0 dB: skipped, not fatal
    assert rep.slow_k_db == (20.0, 30.0, 40.0)
    d1 = rep.deviations["alpha1_slow"]
    assert all(a > b for a, b in zip(d1, d1[1:]))
    # the Cantelli margin decays ~10^(-K/20): still a few 1e-3 at 40 dB
    assert 1e-3 < d1[-1] < 2e-2
    fast = convergence_sweep(PW, modes=("fast",), k_grid=(40.0,))
    assert d1[-1] > 10.0 * fast.deviations["alpha1_fast"][0]


def test_alpha2_approaches_the_limit_design():
    """Measured against the limit alpha2 itself, not nonfading_alpha2 at the
    designed alpha1, so an alpha1 fault shows in the alpha2 leg too."""
    rep = convergence_sweep(PW, k_grid=(40.0, 50.0, 60.0, 70.0, 80.0))
    assert rep.slow_k_db == rep.k_db
    for designed in (rep.alpha2_fast, rep.alpha2_slow):
        gap = [abs(a2 - rep.alpha2_limit) for a2 in designed]
        assert all(a > b for a, b in zip(gap, gap[1:]))  # strictly shrinking


def test_slow_alpha1_crosses_below_1e3_by_60db():
    rep = convergence_sweep(PW, modes=("slow",), k_grid=(60.0,))
    assert rep.deviations["alpha1_slow"][0] < 1e-3


def test_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        convergence_sweep(PW, k_grid=(10.0, 0.0))
