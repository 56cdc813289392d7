import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

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

    monkeypatch.setattr(channel, "sample_realizations", no_sampling)
    for fig in ("4", "5"):
        rc, out = _run(tmp_path / fig, "reproduce-figure", args=[fig], config={"k_db": [10, 2.5]})
        assert rc == 2
        assert capsys.readouterr().err == "config error: k_db: no default targets for K = 2.5\n"
        assert not out.exists()
    rc, _ = _run(tmp_path / "slow", "design-slow", config={"k_db": [2.5]})
    assert rc == 2
    hint = "; set r_p, p_out_p, r_cr"
    assert capsys.readouterr().err == f"config error: k_db: no default targets for K = 2.5{hint}\n"


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

    monkeypatch.setattr(channel, "sample_realizations", no_sampling)
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
    est = montecarlo.outage_probability(stats, params, pw, 2.0, "primary", 20000, 0)
    assert row[3] == est.value > 0.0


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

    def counting(stats, n, seed, start=0):
        draws.append(n)
        return sample(stats, n, seed, start)

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
    assert draws == [3000]  # one block for 2 schemes x 3 SNRs
    table = _read_csv(out / "lattice-sim.csv")
    assert len(table.rows) == 12


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


def test_cli_import_loads_only_scipy_special():
    code = "import sys, lagpc.cli; print(' '.join(sorted(sys.modules)))"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    modules = loaded.stdout.split()
    assert "scipy.special" in modules
    assert [m for m in modules if m.startswith(("scipy.optimize", "scipy.integrate"))] == []


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
    "figure-4": ("reproduce-figure", ["4"], {"k_db": [10], "n_outage": 3000}),
    "figure-5": ("reproduce-figure", ["5"], {"k_db": [10], "n_outage": 3000, "bf_grid_n": 5, "bf_mc_n": 2000}),
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
    elements equal point calls bit for bit).  A deliberate
    output change re-records them (write `_output_digests` to that file as
    JSON) and names the moved rows in CHANGES.md.
    """
    recorded = json.loads((Path(__file__).parent / "cli_output_digests.json").read_text())
    assert _output_digests(tmp_path) == recorded
