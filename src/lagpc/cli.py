"""Experiment runner: JSON scenario configs in, deterministic CSV tables out.

Every subcommand writes a 9-column result table, a manifest echoing the
effective config, and one gnuplot-ready file per (scheme, metric) curve.
Reruns with the same config and seed are byte-identical.  Exit codes: 0 ok,
2 config error, 3 infeasible design targets.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, channel, design_fast, design_slow, lattice, montecarlo
from .channel import ChannelStats, DesignParams, PowerConfig
from .design_fast import InfeasibleDesignError

FIXED_COLUMNS = ("scheme", "metric", "value", "std_error", "alpha1", "alpha2_re", "alpha2_im", "seed")


class ConfigError(Exception):
    pass


@dataclass
class ResultTable:
    x_name: str
    rows: list

    def header(self):
        return (self.x_name,) + FIXED_COLUMNS

    def validate(self):
        for row in self.rows:
            if len(row) != len(FIXED_COLUMNS) + 1:
                raise ValueError("row width mismatch")
            x, scheme, metric, *nums, seed = row
            for v in (x, *nums):
                if not np.isfinite(v):
                    raise ValueError(f"non-finite value in row for {scheme}/{metric}")

    def to_csv(self, path):
        self.validate()
        lines = [",".join(self.header())]
        for row in self.rows:
            x, scheme, metric, value, se, a1, a2r, a2i, seed = row
            lines.append(
                ",".join(
                    [repr(float(x)), scheme, metric]
                    + [repr(float(v)) for v in (value, se, a1, a2r, a2i)]
                    + [str(int(seed))]
                )
            )
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
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
        return cls(head[0], rows)

    def curves(self):
        """Rows grouped by (scheme, metric) in first-appearance order."""
        out: dict = {}
        for row in self.rows:
            out.setdefault((row[1], row[2]), []).append((row[0], row[3], row[4]))
        return out


def _slug(s: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", s)


def emit_plotdata(table: ResultTable, out_dir) -> list:
    """One x/y/std_error file per curve; x values must be distinct per curve."""
    if not table.rows:
        raise ValueError("empty table")
    out_dir = Path(out_dir)
    paths = []
    for (scheme, metric), pts in table.curves().items():
        xs = [p[0] for p in pts]
        if len(set(xs)) != len(xs):
            raise ValueError(f"duplicate x values in curve {scheme}/{metric}")
        path = out_dir / f"{_slug(scheme)}__{_slug(metric)}.dat"
        lines = [f"# {table.x_name} {metric} std_error"]
        for x, y, se in pts:
            lines.append(f"{x!r} {y!r} {se!r}")
        path.write_text("\n".join(lines) + "\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# config schemas

_MISSING = object()


@dataclass(frozen=True)
class _Field:
    kind: str  # number | int | str | num_list | str_list | pair
    default: object = _MISSING
    check: object = None

    def coerce(self, key, value, problems):
        if self.kind == "number":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problems.append(f"{key}: expected a number")
                return None
            value = float(value)
        elif self.kind == "int":
            if isinstance(value, bool) or not isinstance(value, int):
                problems.append(f"{key}: expected an integer")
                return None
        elif self.kind == "str":
            if not isinstance(value, str):
                problems.append(f"{key}: expected a string")
                return None
        elif self.kind == "num_list":
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                value = [value]
            if not isinstance(value, list) or not value or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
            ):
                problems.append(f"{key}: expected a number or nonempty list of numbers")
                return None
            value = tuple(float(v) for v in value)
        elif self.kind == "str_list":
            if not isinstance(value, list) or not value or any(not isinstance(v, str) for v in value):
                problems.append(f"{key}: expected a nonempty list of strings")
                return None
            value = tuple(value)
        elif self.kind == "pair":
            if not isinstance(value, list) or len(value) != 2 or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in value
            ):
                problems.append(f"{key}: expected [re, im]")
                return None
            value = complex(value[0], value[1])
        if self.check is not None:
            msg = self.check(value)
            if msg:
                problems.append(f"{key}: {msg}")
                return None
        return value


_field = _Field


def _positive(v):
    if not (isinstance(v, tuple) and all(x > 0 for x in v)) and not (
        isinstance(v, float) and v > 0
    ):
        return "must be positive"


def _unit_interval(v):
    if not 0.0 <= v <= 1.0:
        return "must be within [0, 1]"


def _open_unit(v):
    if not 0.0 < v < 1.0:
        return "must be strictly between 0 and 1"


def _in(options):
    def check(v):
        vals = v if isinstance(v, tuple) else (v,)
        bad = [x for x in vals if x not in options]
        if bad:
            return f"must be among {sorted(map(str, options))}"

    return check


def _nonneg_int(v):
    if v < 0:
        return "must be nonnegative"


def _pos_int(v):
    if v < 1:
        return "must be at least 1"


_POWER_FIELDS = {
    "p_c": _field("number", 10.0, _positive),
    "p_p": _field("number", 10.0, _positive),
    "noise_p": _field("number", 1.0, _positive),
    "noise_s": _field("number", 1.0, _positive),
}

_COMMON_FIELDS = {"seed": _field("int", 0, _nonneg_int)}

_SIM_SCHEMES = ("la_gpc", "full_csit", "naive_dpc", "interference_as_noise")
_LATTICE_SCHEMES = ("la_gpc", "no_interference", "interference_as_noise")

SCHEMAS = {
    "design-fast": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "k_db": _field("num_list", (0.0, 5.0, 10.0, 15.0)),
        "r_target": _field("number", None, _positive),
    },
    "design-slow": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "k_db": _field("num_list", (0.0, 5.0, 10.0, 15.0)),
        "r_p": _field("number", None, _positive),
        "p_out_p": _field("number", None, _open_unit),
        "r_cr": _field("number", None, _positive),
    },
    "simulate-ergodic": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "k_db": _field("num_list", (0.0, 5.0, 10.0, 15.0)),
        "n": _field("int", 10 ** 5, _pos_int),
        "schemes": _field("str_list", ("la_gpc",), _in(_SIM_SCHEMES)),
        "user": _field("str", "cr", _in(("cr", "primary"))),
        "alpha1": _field("number", None, _unit_interval),
        "alpha2": _field("pair", None),
    },
    "simulate-outage": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "k_db": _field("num_list", (0.0, 5.0, 10.0, 15.0)),
        "n": _field("int", 10 ** 6, _pos_int),
        "r_target": _field("number", _MISSING, _positive),
        "schemes": _field("str_list", ("la_gpc",), _in(_SIM_SCHEMES)),
        "user": _field("str", "cr", _in(("cr", "primary"))),
        "alpha1": _field("number", None, _unit_interval),
        "alpha2": _field("pair", None),
        "r_p": _field("number", None, _positive),
        "p_out_p": _field("number", None, _open_unit),
    },
    "lattice-sim": {
        **_COMMON_FIELDS,
        "k_db": _field("number", 10.0),
        "rate": _field("number", 2.0, _in((2.0, 4.0))),
        "snr_db": _field("num_list", (22.0, 24.0, 26.0)),
        "trials": _field("int", 3000, _pos_int),
        "schemes": _field("str_list", _LATTICE_SCHEMES, _in(_LATTICE_SCHEMES)),
        "p_p": _field("number", 100.0, _positive),
        "noise": _field("number", 1.0, _positive),
        "alpha1": _field("number", 0.0, _unit_interval),
        "theory_n": _field("int", 2 * 10 ** 5, _pos_int),
    },
    "asymptotic-check": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "k_db": _field("num_list", asymptotics.DEFAULT_K_GRID),
        "modes": _field("str_list", ("fast", "slow"), _in(("fast", "slow"))),
        "slow_p_out": _field("number", 0.1, _open_unit),
        "slow_r_cr": _field("number", 1.0, _positive),
    },
    "reproduce-figure": {
        **_COMMON_FIELDS,
        **_POWER_FIELDS,
        "figure": _field("int", _MISSING, lambda v: None if v in (2, 3, 4, 5, 6, 7, 8) else "must be 2..8"),
        "k_db": _field("num_list", None),
        "n_ergodic": _field("int", 10 ** 5, _pos_int),
        "n_outage": _field("int", 10 ** 6, _pos_int),
        "bf_grid_n": _field("int", 61, _pos_int),
        "bf_mc_n": _field("int", 3 * 10 ** 4, _pos_int),
        "trials": _field("int", 3000, _pos_int),
        "snr_db": _field("num_list", None),
        "n_frames": _field("int", 10 ** 5, _pos_int),
    },
}


def validate_config(command: str, config: dict) -> dict:
    schema = SCHEMAS[command]
    problems = []
    unknown = sorted(set(config) - set(schema))
    if unknown:
        problems.append("unknown keys: " + ", ".join(unknown))
    out = {}
    for key, fld in schema.items():
        if key in config and config[key] is not None:
            v = fld.coerce(key, config[key], problems)
            if v is not None:
                out[key] = v
        elif fld.default is _MISSING:
            problems.append(f"{key}: required")
        else:
            out[key] = fld.default
    if problems:
        raise ConfigError("; ".join(problems))
    return out


def _power_config(cfg) -> PowerConfig:
    return PowerConfig(cfg["p_c"], cfg["p_p"], cfg["noise_p"], cfg["noise_s"])


# ---------------------------------------------------------------------------
# subcommand handlers, each config -> ResultTable


def _cmd_design_fast(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    rows = []
    for k in cfg["k_db"]:
        stats = ChannelStats.from_k_factor(k)
        target = cfg["r_target"]
        if target is None:
            target = design_fast.primary_target_ergodic(stats, pw)
        res = design_fast.solve_alpha1_fast(stats, pw, target)
        a2 = res.alpha2
        base = (res.alpha1, a2.real, a2.imag, seed)
        rows.append((k, "la_gpc", "design_residual", res.residual, 0.0) + base)
        rows.append((k, "la_gpc", "primary_rate_target", res.r_target, 0.0) + base)
    return ResultTable("K_dB", rows)


def _slow_targets_for(k, cfg):
    explicit = [cfg["r_p"], cfg["p_out_p"], cfg["r_cr"]]
    if any(v is not None for v in explicit):
        if any(v is None for v in explicit):
            raise ConfigError("r_p, p_out_p, r_cr: all three required together")
        return tuple(explicit)
    if k not in montecarlo.SLOW_TARGETS:
        raise ConfigError(f"k_db: no default targets for K = {k:g}; set r_p, p_out_p, r_cr")
    return montecarlo.SLOW_TARGETS[k]


def _cmd_design_slow(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    rows = []
    for k in cfg["k_db"]:
        stats = ChannelStats.from_k_factor(k)
        r_p, p_out, r_cr = _slow_targets_for(k, cfg)
        res = design_slow.design(stats, pw, r_p, p_out, r_cr)
        a2 = complex(res.alpha2)
        base = (res.alpha1, a2.real, a2.imag, seed)
        rows.append((k, "la_gpc", "surrogate_outage", res.objective_value, 0.0) + base)
        rows.append((k, "la_gpc", "cantelli_r", res.r_used, 0.0) + base)
    return ResultTable("K_dB", rows)


def _designed_params(cfg, stats, pw, k) -> DesignParams:
    if cfg["alpha1"] is not None or cfg["alpha2"] is not None:
        if cfg["alpha1"] is None or cfg["alpha2"] is None:
            raise ConfigError("alpha1, alpha2: give both or neither")
        return DesignParams(cfg["alpha1"], cfg["alpha2"])
    if "r_target" in cfg:  # outage command: slow-fading design
        r_p = cfg.get("r_p")
        p_out = cfg.get("p_out_p")
        if r_p is None or p_out is None:
            raise ConfigError("r_p, p_out_p: required when alpha1/alpha2 absent")
        return design_slow.design(stats, pw, r_p, p_out, cfg["r_target"]).params
    target = design_fast.primary_target_ergodic(stats, pw)
    return design_fast.solve_alpha1_fast(stats, pw, target).params


def _cmd_simulate_ergodic(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    rows = []
    for k in cfg["k_db"]:
        stats = ChannelStats.from_k_factor(k)
        params = _designed_params(cfg, stats, pw, k)
        base = (params.alpha1, params.alpha2.real, params.alpha2.imag, seed)
        if cfg["user"] == "primary":
            est = montecarlo.ergodic_capacity(stats, params, pw, cfg["n"], seed, which="primary")
            rows.append((k, "la_gpc", "primary_ergodic_rate", est.value, est.std_error) + base)
            continue
        for scheme in cfg["schemes"]:
            est = montecarlo.ergodic_capacity(stats, params, pw, cfg["n"], seed, which=scheme)
            rows.append((k, scheme, "ergodic_rate", est.value, est.std_error) + base)
    return ResultTable("K_dB", rows)


def _cmd_simulate_outage(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    rows = []
    for k in cfg["k_db"]:
        stats = ChannelStats.from_k_factor(k)
        params = _designed_params(cfg, stats, pw, k)
        base = (params.alpha1, params.alpha2.real, params.alpha2.imag, seed)
        if cfg["user"] == "primary":
            est = montecarlo.outage_probability(
                stats, params, pw, cfg["r_target"], "primary", cfg["n"], seed
            )
            rows.append((k, "la_gpc", "primary_outage", est.value, est.std_error) + base)
            continue
        for scheme in cfg["schemes"]:
            est = montecarlo.outage_probability(
                stats, params, pw, cfg["r_target"], scheme, cfg["n"], seed
            )
            rows.append((k, scheme, "outage_probability", est.value, est.std_error) + base)
    return ResultTable("K_dB", rows)


def _lattice_rows(k_db, rate, snr_db, trials, schemes, p_p, noise, alpha1, theory_n, seed, label_suffix=""):
    # one theory-outage block per K, shared by every scheme and SNR
    block = channel.sample_realizations(ChannelStats.from_k_factor(k_db), theory_n, seed)
    rows = []
    for scheme in schemes:
        scenario = lattice.LatticeScenario(
            k_db=k_db,
            rate_bpcu=rate,
            snr_db=tuple(snr_db),
            trials=trials,
            seed=seed,
            p_p=p_p,
            noise=noise,
            alpha1=alpha1,
            scheme=scheme,
            theory_n=theory_n,
        )
        label = scheme + label_suffix
        for p in lattice.codeword_error_sim(scenario, block):
            base = (p.alpha1, p.alpha2.real, p.alpha2.imag, seed)
            rows.append(
                (p.snr_db, label, "codeword_error_rate", p.error_rate, p.ci95 / 1.96) + base
            )
            rows.append((p.snr_db, label, "theory_outage", p.theory_outage, 0.0) + base)
    return rows


def _cmd_lattice_sim(cfg) -> ResultTable:
    rows = _lattice_rows(
        cfg["k_db"], cfg["rate"], cfg["snr_db"], cfg["trials"], cfg["schemes"],
        cfg["p_p"], cfg["noise"], cfg["alpha1"], cfg["theory_n"], cfg["seed"],
    )
    return ResultTable("SNR_dB", rows)


def _cmd_asymptotic_check(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    rep = asymptotics.convergence_sweep(
        pw,
        modes=cfg["modes"],
        k_grid=cfg["k_db"],
        slow_p_out=cfg["slow_p_out"],
        slow_r_cr=cfg["slow_r_cr"],
    )
    rows = []
    lim = (rep.alpha1_limit, rep.alpha2_limit.real, rep.alpha2_limit.imag, seed)
    for k in rep.k_db:
        rows.append((k, "la_gpc", "alpha1_nonfading", rep.alpha1_limit, 0.0) + lim)
        rows.append((k, "la_gpc", "alpha2_nonfading", abs(rep.alpha2_limit), 0.0) + lim)
    for mode in cfg["modes"]:
        ks = rep.k_db if mode == "fast" else rep.slow_k_db
        a1s = rep.alpha1_fast if mode == "fast" else rep.alpha1_slow
        a2s = rep.alpha2_fast if mode == "fast" else rep.alpha2_slow
        for i, k in enumerate(ks):
            a2 = complex(a2s[i])
            base = (a1s[i], a2.real, a2.imag, seed)
            rows.append(
                (k, "la_gpc", f"alpha1_deviation_{mode}", rep.deviations[f"alpha1_{mode}"][i], 0.0)
                + base
            )
            rows.append(
                (k, "la_gpc", f"alpha2_deviation_{mode}", rep.deviations[f"alpha2_{mode}"][i], 0.0)
                + base
            )
    return ResultTable("K_dB", rows)


def _cmd_reproduce_figure(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    fig = cfg["figure"]
    if fig in (2, 3, 4, 5):
        k_grid = cfg["k_db"] or montecarlo.DEFAULT_K_GRID
        recs = montecarlo.figure_sweep(
            fig,
            pw,
            k_grid=k_grid,
            n_ergodic=cfg["n_ergodic"],
            n_outage=cfg["n_outage"],
            seed=seed,
            bf_grid_n=cfg["bf_grid_n"],
            bf_mc_n=cfg["bf_mc_n"],
        )
        rows = [
            (r.k_db, r.scheme, r.metric, r.value, r.std_error, r.alpha1, r.alpha2.real, r.alpha2.imag, r.seed)
            for r in recs
        ]
        return ResultTable("K_dB", rows)
    if fig == 6:
        # transmit histogram at the fast design for K = 10 dB; the filters come
        # from the mean channel, which only fixes the precoding rotation
        stats = ChannelStats.from_k_factor(10.0)
        target = design_fast.primary_target_ergodic(stats, pw)
        res = design_fast.solve_alpha1_fast(stats, pw, target)
        pair = lattice.build_nested(2)
        mean_r = channel.ChannelRealization(
            *(np.array([m]) for m in (stats.mu11, stats.mu12, stats.mu21, stats.mu22))
        )
        filters = lattice.build_filters(mean_r, res.params, pw)
        x = lattice.transmit_samples(pair, filters, res.alpha1, pw, cfg["n_frames"], seed)
        x = (x - x.mean()) / x.std()
        base = (res.alpha1, res.alpha2.real, res.alpha2.imag, seed)
        rows = [
            (0.0, "la_gpc", "tx_skew", float(np.mean(x ** 3)), 0.0) + base,
            (0.0, "la_gpc", "tx_excess_kurtosis", float(np.mean(x ** 4) - 3.0), 0.0) + base,
        ]
        dens, edges = np.histogram(x, bins=81, range=(-4.05, 4.05), density=True)
        for c, d in zip(0.5 * (edges[:-1] + edges[1:]), dens):
            rows.append((float(c), "la_gpc", "tx_density", float(d), 0.0) + base)
        return ResultTable("amplitude", rows)
    # figures 7 and 8: codeword error curves at both stated K factors
    rate = 2.0 if fig == 7 else 4.0
    snr_db = cfg["snr_db"] or ((22.0, 24.0, 26.0) if fig == 7 else (28.0, 30.0, 32.0))
    rows = []
    for k in (0.0, 10.0):
        rows.extend(
            _lattice_rows(
                k, rate, snr_db, cfg["trials"], _LATTICE_SCHEMES,
                100.0, 1.0, 0.0, cfg["n_outage"] // 5, seed,
                label_suffix=f"@K{k:g}",
            )
        )
    return ResultTable("SNR_dB", rows)


_HANDLERS = {
    "design-fast": _cmd_design_fast,
    "design-slow": _cmd_design_slow,
    "simulate-ergodic": _cmd_simulate_ergodic,
    "simulate-outage": _cmd_simulate_outage,
    "lattice-sim": _cmd_lattice_sim,
    "asymptotic-check": _cmd_asymptotic_check,
    "reproduce-figure": _cmd_reproduce_figure,
}


def _write_outputs(command, cfg, table, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = _slug(command)
    csv_path = out_dir / f"{stem}.csv"
    table.to_csv(csv_path)
    plot_paths = emit_plotdata(table, out_dir)
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: _jsonable(v) for k, v in sorted(cfg.items())},
        "columns": list(table.header()),
        "outputs": [csv_path.name] + [p.name for p in plot_paths],
    }
    man_path = out_dir / f"{stem}_manifest.json"
    man_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return csv_path, man_path, plot_paths


def _jsonable(v):
    if isinstance(v, tuple):
        return list(v)
    if isinstance(v, complex):
        return [v.real, v.imag]
    return v


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lagpc",
        description="Design and simulate precoded cognitive links over Rician fading.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        if name == "reproduce-figure":
            p.add_argument("figure", type=int, nargs="?", help="figure number (2-8)")
        p.add_argument("--config", help="JSON scenario file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--samples", type=int, help="override the sample/trial count")
    args = parser.parse_args(argv)

    try:
        try:
            montecarlo.default_workers()
        except ValueError as e:
            raise ConfigError(str(e)) from None
        raw = {}
        if args.config:
            try:
                raw = json.loads(Path(args.config).read_text())
            except (OSError, json.JSONDecodeError) as e:
                raise ConfigError(f"cannot read config: {e}")
            if not isinstance(raw, dict):
                raise ConfigError("config must be a JSON object")
        if getattr(args, "figure", None) is not None:
            raw["figure"] = args.figure
        if args.seed is not None:
            raw["seed"] = args.seed
        if args.samples is not None:
            for key in ("n", "trials", "n_ergodic", "n_outage", "n_frames"):
                if key in SCHEMAS[args.command]:
                    raw[key] = args.samples
        cfg = validate_config(args.command, raw)
        table = _HANDLERS[args.command](cfg)
        csv_path, man_path, plot_paths = _write_outputs(args.command, cfg, table, args.out)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as e:
        print(f"infeasible design: {e}", file=sys.stderr)
        return 3
    print(f"wrote {csv_path} ({len(table.rows)} rows), {man_path}, {len(plot_paths)} curve files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
