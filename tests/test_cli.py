import dataclasses
import hashlib
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lagpc
from lagpc.channel import ChannelStats
from lagpc.cli import (
    FIXED_COLUMNS,
    ConfigError,
    ResultTable,
    emit_plotdata,
    main,
    validate_config,
)


def _read_csv(path):
    """The ResultTable a CSV written by ResultTable.to_csv holds."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError("empty file")
    head = lines[0].split(",")
    if tuple(head[1:]) != FIXED_COLUMNS:
        raise ValueError("unexpected column set")
    rows = []
    for line in lines[1:]:
        x, scheme, metric, value, se, a1, a2r, a2i, seed = line.split(",")
        rows.append(
            (float(x), scheme, metric, float(value), float(se), float(a1), float(a2r), float(a2i), int(seed))
        )
    return ResultTable(head[0], rows)


def _row(x, scheme="la_gpc", metric="m", value=1.0, se=0.1, seed=0):
    return (x, scheme, metric, value, se, 0.5, 1.25, 0.0, seed)


# --- config validation -------------------------------------------------------


def test_unknown_keys_are_listed():
    with pytest.raises(ConfigError, match="unknown keys: zeta, zot"):
        validate_config("design-fast", {"zot": 1, "zeta": 2})


def test_field_errors_name_the_field():
    with pytest.raises(ConfigError, match=r"alpha1: must be within \[0, 1\]"):
        validate_config("simulate-ergodic", {"alpha1": 1.2, "alpha2": [1.0, 0.0]})
    with pytest.raises(ConfigError, match="seed: expected an integer"):
        validate_config("design-fast", {"seed": True})
    with pytest.raises(ConfigError, match="schemes"):
        validate_config("simulate-ergodic", {"schemes": ["bogus"]})
    with pytest.raises(ConfigError, match="figure: required"):
        validate_config("reproduce-figure", {})


def test_defaults_and_coercions():
    cfg = validate_config("design-fast", {})
    assert cfg["p_c"] == 10.0 and cfg["k_db"] == (0.0, 5.0, 10.0, 15.0)
    cfg = validate_config("simulate-ergodic", {"k_db": 5, "alpha1": 0.5, "alpha2": [1, -2]})
    assert cfg["k_db"] == (5.0,)
    assert cfg["alpha2"] == complex(1.0, -2.0)


# --- tables and plot files ----------------------------------------------------


def test_result_table_csv_roundtrip(tmp_path):
    rows = [
        _row(0.0, value=0.1 + 0.2, se=1e-17),
        _row(5.0, metric="other", value=-1.5e-300),
        _row(10.0, scheme="full_csit", value=123456.789012345),
    ]
    t = ResultTable("K_dB", rows)
    p = tmp_path / "t.csv"
    t.to_csv(p)
    back = _read_csv(p)
    assert back.x_name == "K_dB"
    assert back.rows == rows  # repr() floats survive the trip exactly


def test_result_table_rejects_bad_rows(tmp_path):
    with pytest.raises(ValueError, match="non-finite"):
        ResultTable("K_dB", [_row(0.0, value=float("nan"))]).to_csv(tmp_path / "x.csv")
    with pytest.raises(ValueError, match="width"):
        ResultTable("K_dB", [(1.0, "a", "b", 1.0)]).to_csv(tmp_path / "x.csv")


def test_emit_plotdata_files(tmp_path):
    rows = [
        _row(0.0), _row(5.0),
        _row(0.0, scheme="naive_dpc", metric="outage", value=0.25),
    ]
    paths = emit_plotdata(ResultTable("K_dB", rows), tmp_path)
    names = sorted(p.name for p in paths)
    assert names == ["la_gpc__m.dat", "naive_dpc__outage.dat"]
    lines = (tmp_path / "la_gpc__m.dat").read_text().splitlines()
    assert lines[0] == "# K_dB m std_error"
    assert len(lines) == 3
    x, y, se = (float(v) for v in lines[1].split())
    assert (x, y, se) == (0.0, 1.0, 0.1)


def test_emit_plotdata_rejects_degenerate_tables(tmp_path):
    with pytest.raises(ValueError, match="empty"):
        emit_plotdata(ResultTable("K_dB", []), tmp_path)
    with pytest.raises(ValueError, match="duplicate x"):
        emit_plotdata(ResultTable("K_dB", [_row(1.0), _row(1.0)]), tmp_path)


def test_single_row_table_gives_single_point_file(tmp_path):
    paths = emit_plotdata(ResultTable("SNR_dB", [_row(24.0)]), tmp_path)
    assert len(paths) == 1
    body = [l for l in paths[0].read_text().splitlines() if not l.startswith("#")]
    assert len(body) == 1


# --- the command-line entry point ----------------------------------------------


def _run(tmp_path, name, args=(), config=None):
    tmp_path.mkdir(parents=True, exist_ok=True)
    argv = [name, "--out", str(tmp_path / "out")]
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        argv += ["--config", str(cfg_path)]
    return main(argv + list(args)), tmp_path / "out"


def test_design_fast_end_to_end(tmp_path):
    rc, out = _run(tmp_path, "design-fast", config={"k_db": [0, 10]})
    assert rc == 0
    csv = (out / "design-fast.csv").read_text().splitlines()
    assert csv[0] == "K_dB,scheme,metric,value,std_error,alpha1,alpha2_re,alpha2_im,seed"
    assert len(csv) == 5  # two metrics per K point
    manifest = json.loads((out / "design-fast_manifest.json").read_text())
    assert set(manifest) == {"command", "version", "config", "columns", "outputs"}
    assert manifest["command"] == "design-fast"
    assert manifest["config"]["k_db"] == [0.0, 10.0]
    assert sorted(p.name for p in out.glob("*.dat")) == [
        "la_gpc__design_residual.dat",
        "la_gpc__primary_rate_target.dat",
    ]


def test_reruns_are_byte_identical(tmp_path):
    cfg = {"k_db": [10], "n": 3000, "schemes": ["la_gpc", "full_csit"]}
    rc1, out1 = _run(tmp_path / "a", "simulate-ergodic", config=cfg)
    rc2, out2 = _run(tmp_path / "b", "simulate-ergodic", config=cfg)
    assert rc1 == rc2 == 0
    files1 = sorted(p.name for p in out1.iterdir())
    assert files1 == sorted(p.name for p in out2.iterdir())
    for name in files1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_config_error_exit_code(tmp_path, capsys):
    rc, _ = _run(tmp_path, "simulate-ergodic", config={"alpha1": 1.2, "alpha2": [1, 0]})
    assert rc == 2
    assert "alpha1" in capsys.readouterr().err
    rc, _ = _run(tmp_path, "design-fast", config={"mystery": 1})
    assert rc == 2
    rc, _ = _run(tmp_path, "reproduce-figure", args=["9"])
    assert rc == 2


@pytest.mark.parametrize("name,args,config,key", [
    ("design-fast", [], {"k_db": [float("nan")], "r_target": 1}, "k_db"),
    ("reproduce-figure", ["2"], {"k_db": [float("nan")]}, "k_db"),
    ("lattice-sim", [], {"k_db": float("inf")}, "k_db"),
    ("lattice-sim", [], {"k_db": 10 ** 400}, "k_db"),
    ("lattice-sim", [], {"snr_db": [22, float("-inf")]}, "snr_db"),
    ("design-fast", [], {"p_c": float("inf")}, "p_c"),
    ("simulate-ergodic", [], {"alpha1": 0.5, "alpha2": [float("nan"), 0]}, "alpha2"),
])
def test_non_finite_numbers_are_config_errors(tmp_path, capsys, name, args, config, key):
    """json reads NaN, Infinity, -Infinity and integers past the float range; the schema rejects them
    and names the key."""
    rc, out = _run(tmp_path, name, args=args, config=config)
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"config error: {key}: expected")
    assert not out.exists()


@pytest.mark.parametrize("name,config", [
    ("design-fast", {"r_target": 1}),
    ("design-slow", {"r_p": 2, "p_out_p": 0.01, "r_cr": 1}),
    ("simulate-ergodic", {"n": 100}),
    ("simulate-outage", {"n": 100, "r_target": 1}),
    ("lattice-sim", {"trials": 1, "theory_n": 100}),
    ("asymptotic-check", {}),
    ("reproduce-figure", {"figure": 3, "n_ergodic": 100, "bf_mc_n": 100, "bf_grid_n": 3}),
])
def test_k_past_the_float_range_is_a_config_error(tmp_path, capsys, name, config):
    """A K whose 10^(K/10) overflows is a config error naming k_db on every command that reads k_db; a
    large negative K underflows to Rayleigh fading and stays valid."""
    scalar = name == "lattice-sim"
    for i, k_db in enumerate((3083, 4000, 10 ** 300)):
        rc, out = _run(tmp_path / str(i), name, config={**config, "k_db": k_db if scalar else [0, k_db]})
        assert rc == 2
        assert capsys.readouterr().err == "config error: k_db: 10^(K/10) overflows; must be below about 3082.55 dB\n"
        assert not out.exists()
    for k_db in (3082.5, -4000):
        assert validate_config(name, {**config, "k_db": k_db})["k_db"] == (k_db if scalar else (k_db,))
    assert ChannelStats.from_k_factor(-4000) == ChannelStats.from_k_factor(-np.inf)


def test_bad_worker_count_is_a_config_error(tmp_path, capsys, monkeypatch):
    for bad in ("abc", "0", "-3"):
        monkeypatch.setenv("LAGPC_WORKERS", bad)
        rc, out = _run(tmp_path / bad, "design-fast", config={"k_db": [10]})
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and repr(bad) in err
        assert not out.exists()
    monkeypatch.setenv("LAGPC_WORKERS", "2")
    rc, _ = _run(tmp_path / "ok", "design-fast", config={"k_db": [10]})
    assert rc == 0


def test_infeasible_exit_code(tmp_path, capsys):
    rc, _ = _run(
        tmp_path,
        "design-slow",
        config={"k_db": [10], "r_p": 3.5, "p_out_p": 0.001, "r_cr": 1.0},
    )
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err


def test_unknown_slow_k_is_a_config_error_before_sampling(tmp_path, capsys, monkeypatch):
    from lagpc import channel

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the K check")

    monkeypatch.setattr(channel, "standard_normals", no_sampling)
    for fig in ("4", "5"):
        rc, out = _run(tmp_path / fig, "reproduce-figure", args=[fig], config={"k_db": [10, 2.5]})
        assert rc == 2
        assert capsys.readouterr().err == "config error: k_db: no default targets for K = 2.5\n"
        assert not out.exists()
    rc, _ = _run(tmp_path / "slow", "design-slow", config={"k_db": [2.5]})
    assert rc == 2
    hint = "; set r_p, p_out_p, r_cr"
    assert capsys.readouterr().err == f"config error: k_db: no default targets for K = 2.5{hint}\n"


def test_design_slow_at_high_power(tmp_path):
    """Forms with entries near 1e6 are Hermitian only up to rounding; the design still runs."""
    for i, config in enumerate(({"k_db": [10], "r_p": 2, "p_out_p": 0.1, "r_cr": 2, "p_p": 1e4, "p_c": 1e4},
                                {"k_db": [5], "p_c": 1e6, "p_p": 1e6})):
        rc, out = _run(tmp_path / str(i), "design-slow", config=config)
        assert rc == 0
        assert len((out / "design-slow.csv").read_text().splitlines()) == 3


_NO_SIGNAL = "alpha2: must be 0 for la_gpc at alpha1 = 1, which leaves no signal to precode"


@pytest.mark.parametrize("name,config,error", [
    ("simulate-ergodic", {"schemes": ["naive_dpc", "la_gpc"]}, _NO_SIGNAL),
    ("simulate-outage", {"r_target": 1.0}, _NO_SIGNAL),
    ("lattice-sim", {"trials": 10, "theory_n": 100}, "alpha1: must be within [0, 1)"),
], ids=["simulate-ergodic", "simulate-outage", "lattice-sim"])
def test_alpha1_one_without_a_signal_is_a_config_error(tmp_path, capsys, monkeypatch, name, config, error):
    from lagpc import channel

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config check")

    monkeypatch.setattr(channel, "standard_normals", no_sampling)
    alpha = {} if name == "lattice-sim" else {"k_db": [10], "n": 1000, "alpha2": [0.5, 0.0]}
    rc, out = _run(tmp_path, name, config={"alpha1": 1.0, **alpha, **config})
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {error}\n"
    assert not out.exists()


def test_alpha1_one_still_runs_where_nothing_is_precoded(tmp_path):
    """At alpha1 = 1 the primary's rate, the other CR schemes and la_gpc at alpha2 = 0 are all defined."""
    base = {"k_db": [10], "n": 1000, "alpha1": 1.0, "alpha2": [0.5, 0.0]}
    others = ["naive_dpc", "full_csit", "interference_as_noise"]
    cases = [("simulate-ergodic", {"user": "primary", "schemes": ["la_gpc"]}),
             ("simulate-outage", {"r_target": 1.0, "schemes": others}),
             ("simulate-ergodic", {"alpha2": [0.0, 0.0]})]
    for i, (name, config) in enumerate(cases):
        rc, _ = _run(tmp_path / str(i), name, config={**base, **config})
        assert rc == 0, (name, config)


def test_lattice_figures_need_five_outage_samples(tmp_path, capsys):
    rc, out = _run(tmp_path / "7", "reproduce-figure", args=["7", "--samples", "4"])
    assert rc == 2
    assert capsys.readouterr().err == "config error: n_outage: must be at least 5 for figure 7\n"
    assert not out.exists()
    rc, _ = _run(tmp_path / "8", "reproduce-figure", args=["8"], config={"n_outage": 4, "trials": 5})
    assert rc == 2
    assert "n_outage" in capsys.readouterr().err


@pytest.mark.parametrize("fig,key,value", [(6, "k_db", [10]), (7, "k_db", [3]), (8, "k_db", 0),
                                           (2, "snr_db", [22]), (5, "snr_db", [22]), (6, "snr_db", 24),
                                           (7, "p_p", 50), (8, "noise_s", 2), (2, "trials", 10),
                                           (5, "n_frames", 100), (7, "bf_grid_n", 3), (6, "n_ergodic", 100),
                                           (2, "bf_mc_n", 2000), (4, "bf_grid_n", 5)])
def test_figures_reject_keys_they_do_not_read(tmp_path, capsys, fig, key, value):
    rc, out = _run(tmp_path, "reproduce-figure", args=[str(fig)], config={key: value})
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {key}: figure {fig} does not read it\n"
    assert not out.exists()


def test_alpha2_grid_below_three_is_a_config_error(tmp_path, capsys, monkeypatch):
    from lagpc import channel

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before the config check")

    monkeypatch.setattr(channel, "standard_normals", no_sampling)
    for fig in ("3", "5"):
        for grid_n in (1, 2):
            cfg = {"bf_grid_n": grid_n, "bf_mc_n": 2000, "k_db": [10]}
            rc, out = _run(tmp_path / f"{fig}-{grid_n}", "reproduce-figure", args=[fig], config=cfg)
            assert rc == 2
            assert capsys.readouterr().err == "config error: bf_grid_n: must be at least 3\n"
            assert not out.exists()


def test_figure_manifest_records_only_the_keys_read(tmp_path):
    power = ["noise_p", "noise_s", "p_c", "p_p"]
    cases = {
        2: ("2000", ["k_db", "n_ergodic"] + power),
        6: ("2000", ["n_frames"] + power),
        7: ("5", ["n_outage", "snr_db", "trials"]),
    }
    for fig, (samples, keys) in cases.items():
        rc, out = _run(tmp_path / str(fig), "reproduce-figure", args=[str(fig), "--samples", samples], config={})
        assert rc == 0
        config = json.loads((out / "reproduce-figure_manifest.json").read_text())["config"]
        assert sorted(config) == sorted(keys + ["figure", "seed"])
        assert config["figure"] == fig and config["seed"] == 0


def test_primary_outage_is_scored_at_r_p(tmp_path):
    from lagpc import design_slow, montecarlo
    from lagpc.channel import ChannelStats, PowerConfig

    cfg = {"k_db": [10], "n": 20000, "r_target": 1.0, "r_p": 2.0, "p_out_p": 0.01, "user": "primary"}
    rc, out = _run(tmp_path, "simulate-outage", config=cfg)
    assert rc == 0
    [row] = _read_csv(out / "simulate-outage.csv").rows
    stats, pw = ChannelStats.from_k_factor(10.0), PowerConfig(10.0, 10.0)
    params = design_slow.design(stats, pw, 2.0, 0.01, 1.0).params
    [[est]] = montecarlo.drawn_estimates([(stats, params)], pw, ("primary",), 2.0, 20000, 0)
    assert row[3] == est.value > 0.0


def test_simulate_draws_each_chunk_once_for_every_k_and_scheme(tmp_path, monkeypatch):
    """One draw of normals per chunk, of the links h21 and h22 that the schemes read, serves both K and
    all four schemes, with one cr_forms per (chunk, K) for the three schemes that read it."""
    from lagpc import channel, montecarlo

    draws, forms = [], []
    normals, cr_forms = channel.standard_normals, channel.cr_forms

    def counting(n, seed, start=0, links=channel.LINKS):
        draws.append((start, n, tuple(links)))
        return normals(n, seed, start, links)

    monkeypatch.delenv("LAGPC_WORKERS", raising=False)
    monkeypatch.setattr(montecarlo, "_CHUNK", 1000)
    monkeypatch.setattr(channel, "standard_normals", counting)
    monkeypatch.setattr(channel, "cr_forms", lambda r, *args: forms.append(len(r)) or cr_forms(r, *args))
    cfg = {"k_db": [5, 10], "n": 2000, "r_target": 1.0, "r_p": 2.0, "p_out_p": 0.1,
           "schemes": ["la_gpc", "full_csit", "naive_dpc", "interference_as_noise"]}
    rc, out = _run(tmp_path, "simulate-outage", config=cfg)
    assert rc == 0
    assert draws == [(0, 1000, (2, 3)), (1000, 1000, (2, 3))]
    assert forms == [1000] * 4  # (chunk, K) = (0, 5), (0, 10), (1, 5), (1, 10)
    assert len(_read_csv(out / "simulate-outage.csv").rows) == 8


def test_simulate_designs_every_k_before_the_first_draw(tmp_path, capsys, monkeypatch):
    from lagpc import channel

    def no_sampling(*args, **kwargs):
        raise AssertionError("sampled before every K was designed")

    monkeypatch.setattr(channel, "standard_normals", no_sampling)
    cfg = {"k_db": [10, 15, 0], "r_target": 1.0, "r_p": 3.0, "p_out_p": 0.01}
    rc, out = _run(tmp_path, "simulate-outage", config=cfg)
    assert rc == 3
    assert "infeasible" in capsys.readouterr().err
    assert not out.exists()


def test_samples_and_seed_overrides(tmp_path):
    cfg = {"k_db": [10], "schemes": ["la_gpc"]}
    rc, out = _run(
        tmp_path, "simulate-ergodic", args=["--samples", "2000", "--seed", "7"], config=cfg
    )
    assert rc == 0
    manifest = json.loads((out / "simulate-ergodic_manifest.json").read_text())
    assert manifest["config"]["n"] == 2000
    assert manifest["config"]["seed"] == 7
    table = _read_csv(out / "simulate-ergodic.csv")
    assert all(row[-1] == 7 for row in table.rows)


@pytest.mark.parametrize("name", ["design-fast", "design-slow", "asymptotic-check"])
def test_samples_is_an_option_only_where_a_count_is(tmp_path, capsys, name):
    with pytest.raises(SystemExit) as exc:
        _run(tmp_path, name, args=["--samples", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --samples 5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_lattice_sim_command(tmp_path):
    cfg = {
        "k_db": 10,
        "snr_db": [24],
        "trials": 50,
        "schemes": ["la_gpc"],
        "theory_n": 5000,
    }
    rc, out = _run(tmp_path, "lattice-sim", config=cfg)
    assert rc == 0
    table = _read_csv(out / "lattice-sim.csv")
    assert table.x_name == "SNR_dB"
    metrics = {row[2] for row in table.rows}
    assert metrics == {"codeword_error_rate", "theory_outage"}
    assert len(table.rows) == 2


def test_lattice_sim_draws_one_theory_block(tmp_path, monkeypatch):
    from lagpc import channel

    draws = []
    sample = channel.sample_realizations

    def counting(stats, n, seed, links=channel.LINKS):
        draws.append((n, tuple(links)))
        return sample(stats, n, seed, links)

    monkeypatch.setattr(channel, "sample_realizations", counting)
    cfg = {
        "k_db": 10,
        "snr_db": [22, 24, 26],
        "trials": 20,
        "schemes": ["la_gpc", "interference_as_noise"],
        "theory_n": 3000,
    }
    rc, out = _run(tmp_path, "lattice-sim", config=cfg)
    assert rc == 0
    assert draws == [(3000, (2, 3))]  # one block of h21 and h22, the links the outage reads, for 2 schemes x 3 SNRs
    table = _read_csv(out / "lattice-sim.csv")
    assert len(table.rows) == 12


def test_asymptotic_check_skips_an_infeasible_slow_k(tmp_path):
    """At K = 0 dB the slow alpha1 cannot reach the nonfading rate: that K keeps
    its nonfading and fast rows, and only the feasible K gets slow rows."""
    rc, out = _run(tmp_path, "asymptotic-check", config={"k_db": [0, 20]})
    assert rc == 0
    rows = _read_csv(out / "asymptotic-check.csv").rows
    metrics = {k: [row[2] for row in rows if row[0] == k] for k in (0.0, 20.0)}
    limits_and_fast = ["alpha1_nonfading", "alpha2_nonfading", "alpha1_deviation_fast", "alpha2_deviation_fast"]
    assert metrics[0.0] == limits_and_fast
    assert metrics[20.0] == limits_and_fast + ["alpha1_deviation_slow", "alpha2_deviation_slow"]


def test_transmit_statistics_figure(tmp_path):
    rc, out = _run(
        tmp_path, "reproduce-figure", args=["6", "--samples", "3000"], config={}
    )
    assert rc == 0
    table = _read_csv(out / "reproduce-figure.csv")
    assert table.x_name == "amplitude"
    metrics = [row[2] for row in table.rows]
    assert metrics.count("tx_density") == 81
    assert "tx_skew" in metrics and "tx_excess_kurtosis" in metrics
    kurt = next(row[3] for row in table.rows if row[2] == "tx_excess_kurtosis")
    assert abs(kurt) < 0.15  # near-Gaussian on-air signal at the design point
    # density integrates to one over the binned range
    dens = [row[3] for row in table.rows if row[2] == "tx_density"]
    assert sum(dens) * 0.1 == pytest.approx(1.0, abs=0.01)


@pytest.mark.parametrize("name,key,value,error", [
    ("design-fast", "k_db", [5, 5], "repeats a value"),
    ("lattice-sim", "snr_db", [22, 22], "repeats a value"),
    ("simulate-ergodic", "schemes", ["la_gpc", "la_gpc"], "repeats a value"),
    ("asymptotic-check", "modes", ["fast", "fast"], "repeats a value"),
    ("asymptotic-check", "k_db", [20, 0], "must ascend"),
])
def test_repeated_or_unordered_x_values_are_config_errors(tmp_path, capsys, monkeypatch, name, key, value, error):
    """Each value is one x of a curve: a repeat would fail the plot files only after the whole job ran."""
    from lagpc import asymptotics, channel, design_fast

    def no_work(*args, **kwargs):
        raise AssertionError("worked before the config check")

    for module, attr in ((design_fast, "solve_alpha1_fast"), (channel, "standard_normals"),
                         (asymptotics, "nonfading_alpha1")):
        monkeypatch.setattr(module, attr, no_work)
    rc, out = _run(tmp_path, name, config={key: value})
    assert rc == 2
    assert capsys.readouterr().err == f"config error: {key}: {error}\n"
    assert not out.exists()


def _cli_import_modules():
    """The modules a fresh process holds after `import lagpc.cli`."""
    code = "import sys, lagpc.cli; print(' '.join(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    return loaded.stdout.split()


def test_cli_import_loads_no_scipy():
    """`import lagpc.cli` loads numpy and the standard library only: no scipy module, and not
    numpy.f2py, which scipy's array-API layer pulled in."""
    modules = _cli_import_modules()
    assert "numpy" in modules
    assert [m for m in modules if m.startswith(("scipy", "numpy.f2py"))] == []


def test_cli_import_loads_no_pool_polynomial_or_dataclass_machinery():
    """Start-up pays for none of them: `import lagpc.cli` loads no concurrent, multiprocessing or
    numpy.polynomial module (a pooled drawn_estimates imports concurrent.futures itself), and no lagpc
    class is a dataclass."""
    modules = _cli_import_modules()
    assert "lagpc.montecarlo" in modules
    assert [m for m in modules if m.split(".")[0] in ("concurrent", "multiprocessing")
            or m.startswith("numpy.polynomial")] == []
    classes = {f"{info.name}.{name}": obj for info in pkgutil.iter_modules(lagpc.__path__)
               for name, obj in vars(importlib.import_module(f"lagpc.{info.name}")).items()
               if isinstance(obj, type) and obj.__module__.startswith("lagpc")}
    assert {"channel.ChannelStats", "cli.ResultTable", "quadform.GaussianVectorSpec"} <= set(classes)
    assert [name for name, cls in classes.items() if dataclasses.is_dataclass(cls)] == []


# --- recorded outputs ------------------------------------------------------------

_ALL_SIM = ["la_gpc", "full_csit", "naive_dpc", "interference_as_noise"]
_GOLDEN_CASES = {
    "design-fast": ("design-fast", [], {"k_db": [0, 10]}),
    "design-slow-default-targets": ("design-slow", [], {}),
    "ergodic-cr": ("simulate-ergodic", [], {"k_db": [10], "n": 2000, "schemes": _ALL_SIM}),
    "ergodic-primary": ("simulate-ergodic", [], {"k_db": [0, 10], "n": 2000, "user": "primary"}),
    "ergodic-explicit-alpha": (
        "simulate-ergodic", [],
        {"k_db": [5], "n": 2000, "alpha1": 0.6, "alpha2": [0.3, -0.2], "schemes": ["la_gpc", "naive_dpc"]},
    ),
    "outage-cr": (
        "simulate-outage", ["--seed", "3"],
        {"k_db": [10], "n": 4000, "r_target": 1.0, "r_p": 2.0, "p_out_p": 0.01, "schemes": _ALL_SIM},
    ),
    "outage-primary": (
        "simulate-outage", [],
        {"k_db": [0], "n": 4000, "r_target": 1.0, "user": "primary", "alpha1": 0.65, "alpha2": [1.14, 0.0]},
    ),
    "lattice-sim": (
        "lattice-sim", [],
        {"k_db": 10, "snr_db": [22, 24], "trials": 40, "theory_n": 3000,
         "schemes": ["la_gpc", "interference_as_noise"]},
    ),
    "asymptotic-check": ("asymptotic-check", [], {"modes": ["fast", "slow"], "k_db": [0, 20]}),
    "figure-2": ("reproduce-figure", ["2"], {"k_db": [5], "n_ergodic": 2000}),
    "figure-2-two-k": ("reproduce-figure", ["2"], {"k_db": [0, 10], "n_ergodic": 2000}),
    "figure-3": ("reproduce-figure", ["3"], {"n_ergodic": 2000, "bf_grid_n": 7, "bf_mc_n": 1000}),
    "figure-4": ("reproduce-figure", ["4"], {"k_db": [10], "n_outage": 3000}),
    "figure-4-two-k": ("reproduce-figure", ["4"], {"k_db": [0, 10], "n_outage": 3000}),
    "figure-5": ("reproduce-figure", ["5"], {"k_db": [10], "n_outage": 3000, "bf_grid_n": 5, "bf_mc_n": 2000}),
    "figure-5-two-k": (
        "reproduce-figure", ["5"], {"k_db": [0, 10], "n_outage": 3000, "bf_grid_n": 5, "bf_mc_n": 2000},
    ),
    # a disc of 45 blocks, so the outage search's prune skips blocks
    "figure-5-disc": (
        "reproduce-figure", ["5"], {"k_db": [0, 10], "n_outage": 3000, "bf_grid_n": 31, "bf_mc_n": 2000},
    ),
    "figure-6": ("reproduce-figure", ["6", "--samples", "2000"], {}),
    "figure-7": ("reproduce-figure", ["7", "--seed", "3"], {"trials": 30, "n_outage": 5000}),
}


def _output_digests(tmp_path):
    """{case: {file name: SHA-256 hex digest}} of every file each case writes."""
    out = {}
    for case, (name, args, config) in _GOLDEN_CASES.items():
        rc, out_dir = _run(tmp_path / case, name, args=args, config=config)
        assert rc == 0, case
        out[case] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}
    return out


def test_outputs_match_recorded_digests(tmp_path):
    """Every CSV, .dat and manifest file of the cases above is byte-identical to
    the recorded run in cli_output_digests.json.

    The digests were recorded before the config schema and the handlers were
    rewritten as tables and shared builders; the six cases downstream of the
    fast-fading target were re-recorded when that target moved to a fixed
    Gauss-Legendre rule; ergodic-cr when interference-as-noise became
    channel.cr_rate at alpha2 = 0 (one ulp), the four figure manifests
    when they were trimmed to the keys each figure reads, and the design,
    asymptotic and figure-2 rows when the quadratic-form moments moved from
    BLAS products to summed elementwise products (a few ulps, so a stack's
    elements equal point calls bit for bit); ergodic-cr, ergodic-primary and
    ergodic-explicit-alpha when channel.cr_rate and channel.primary_rate came
    to read the per-sample forms the grid searches score (at most 1.5e-15
    relative in a rate, 1.6e-14 in a std error); design-slow-default-targets' CSV and
    surrogate_outage curve when the incomplete gamma moved in-repo (1.2e-15 relative); and every case
    downstream of the fast-fading target (design-fast, ergodic-cr, ergodic-primary, asymptotic-check,
    figures 2, 3 and 6) plus design-slow-default-targets' K = 15 dB surrogate outage when the
    Gauss-Legendre rules moved from numpy's leggauss to quadform.legendre_rule (weights about 4e-11
    nearer the exact rule at 192 nodes; at most 3.1e-13 relative in a rate, 1.1e-15 in the outage).  A deliberate
    output change re-records them (write `_output_digests` to that file as
    JSON) and names the moved rows in CHANGES.md.
    """
    recorded = json.loads((Path(__file__).parent / "cli_output_digests.json").read_text())
    assert _output_digests(tmp_path) == recorded
