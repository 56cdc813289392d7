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
from pathlib import Path

import numpy as np

from . import __version__, asymptotics, channel, design_fast, design_slow, lattice, montecarlo
from .channel import ChannelStats, DesignParams, PowerConfig
from .design_fast import InfeasibleDesignError

FIXED_COLUMNS = ("scheme", "metric", "value", "std_error", "alpha1", "alpha2_re", "alpha2_im", "seed")

# the paper's slow-fading operating points, K_dB -> (R_P, P_out_P, R_CR); their K are the default K grid
SLOW_TARGETS = {
    0.0: (1.0, 0.1, 0.2),
    5.0: (2.0, 0.1, 0.5),
    10.0: (2.0, 0.01, 1.0),
    15.0: (2.0, 0.01, 1.5),
}


class ConfigError(Exception):
    pass


class ResultTable:
    def __init__(self, x_name: str, rows: list):
        self.x_name, self.rows = x_name, rows

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
            x, scheme, metric, *nums, seed = row
            nums = [repr(float(v)) for v in nums]
            lines.append(",".join([repr(float(x)), scheme, metric, *nums, str(int(seed))]))
        Path(path).write_text("\n".join(lines) + "\n")

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
# config schemas: each key maps to (kind, default, check).  A kind names a
# parser, which returns None for a value of the wrong shape, and the text that
# value gets; a check is a (predicate, message) pair that every element of the
# parsed value must pass.

_MISSING = object()
_COUNT_KEYS = ("n", "trials", "n_ergodic", "n_outage", "n_frames")  # what --samples sets


def _is_num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max  # no NaN or inf


def _list_of(ok, convert, size=None):
    """Parser of a nonempty list (of `size` elements, if given) whose elements all pass `ok`."""
    return lambda v: (
        convert(v) if isinstance(v, list) and v and all(map(ok, v)) and size in (None, len(v)) else None
    )


_floats = _list_of(_is_num, lambda v: tuple(map(float, v)))
_KINDS = {
    "number": (lambda v: float(v) if _is_num(v) else None, "expected a number"),
    "int": (lambda v: v if isinstance(v, int) and not isinstance(v, bool) else None, "expected an integer"),
    "str": (lambda v: v if isinstance(v, str) else None, "expected a string"),
    "num_list": (lambda v: _floats([v] if _is_num(v) else v), "expected a number or nonempty list of numbers"),
    "str_list": (_list_of(lambda x: isinstance(x, str), tuple), "expected a nonempty list of strings"),
    "pair": (_list_of(_is_num, lambda v: complex(*v), size=2), "expected [re, im]"),
}

_POSITIVE = (lambda x: x > 0, "must be positive")
_UNIT = (lambda x: 0.0 <= x <= 1.0, "must be within [0, 1]")
_OPEN_UNIT = (lambda x: 0.0 < x < 1.0, "must be strictly between 0 and 1")
_AT_LEAST_1 = (lambda x: x >= 1, "must be at least 1")


def _among(options):
    return (lambda x: x in options, f"must be among {sorted(map(str, options))}")


def _k_factor_fits(k_db):
    """Whether the linear K-factor 10^(K/10) that ChannelStats.from_k_factor takes is a float."""
    try:
        10.0 ** (k_db / 10.0)
    except OverflowError:
        return False
    return True


_K_DB = (_k_factor_fits, "10^(K/10) overflows; must be below about 3082.55 dB")
_K_GRID = ("num_list", tuple(SLOW_TARGETS), _K_DB)
_POWER_FIELDS = {key: ("number", default, _POSITIVE) for key, default in
                 (("p_c", 10.0), ("p_p", 10.0), ("noise_p", 1.0), ("noise_s", 1.0))}
_SEED = ("int", 0, (lambda x: x >= 0, "must be nonnegative"))
_COMMON_FIELDS = {"seed": _SEED, **_POWER_FIELDS}
_SIM_FIELDS = {
    "schemes": ("str_list", ("la_gpc",), _among(montecarlo.CR_SCHEMES)),
    "user": ("str", "cr", _among(("cr", "primary"))),
    "alpha1": ("number", None, _UNIT),
    "alpha2": ("pair", None, None),
}

SCHEMAS = {
    "design-fast": {**_COMMON_FIELDS, "k_db": _K_GRID, "r_target": ("number", None, _POSITIVE)},
    "design-slow": {
        **_COMMON_FIELDS,
        "k_db": _K_GRID,
        "r_p": ("number", None, _POSITIVE),
        "p_out_p": ("number", None, _OPEN_UNIT),
        "r_cr": ("number", None, _POSITIVE),
    },
    "simulate-ergodic": {**_COMMON_FIELDS, "k_db": _K_GRID, "n": ("int", 10 ** 5, _AT_LEAST_1), **_SIM_FIELDS},
    "simulate-outage": {
        **_COMMON_FIELDS,
        "k_db": _K_GRID,
        "n": ("int", 10 ** 6, _AT_LEAST_1),
        "r_target": ("number", _MISSING, _POSITIVE),
        **_SIM_FIELDS,
        "r_p": ("number", None, _POSITIVE),
        "p_out_p": ("number", None, _OPEN_UNIT),
    },
    "lattice-sim": {
        "seed": _SEED,
        "k_db": ("number", 10.0, _K_DB),
        "rate": ("number", 2.0, _among((2.0, 4.0))),
        "snr_db": ("num_list", (22.0, 24.0, 26.0), None),
        "trials": ("int", 3000, _AT_LEAST_1),
        "schemes": ("str_list", lattice.SCHEMES, _among(lattice.SCHEMES)),
        "p_p": ("number", 100.0, _POSITIVE),
        "noise": ("number", 1.0, _POSITIVE),
        "alpha1": ("number", 0.0, (lambda x: 0.0 <= x < 1.0, "must be within [0, 1)")),
        "theory_n": ("int", 2 * 10 ** 5, _AT_LEAST_1),
    },
    "asymptotic-check": {
        **_COMMON_FIELDS,
        "k_db": ("num_list", (0.0, 10.0, 20.0, 30.0, 40.0), _K_DB),
        "modes": ("str_list", ("fast", "slow"), _among(("fast", "slow"))),
        "slow_p_out": ("number", 0.1, _OPEN_UNIT),
        "slow_r_cr": ("number", 1.0, _POSITIVE),
    },
    "reproduce-figure": {
        **_COMMON_FIELDS,
        "figure": ("int", _MISSING, (lambda x: 2 <= x <= 8, "must be 2..8")),
        "k_db": ("num_list", None, _K_DB),
        "n_ergodic": ("int", 10 ** 5, _AT_LEAST_1),
        "n_outage": ("int", 10 ** 6, _AT_LEAST_1),
        "bf_grid_n": ("int", 61, (lambda x: x >= 3, "must be at least 3")),
        "bf_mc_n": ("int", 3 * 10 ** 4, _AT_LEAST_1),
        "trials": ("int", 3000, _AT_LEAST_1),
        "snr_db": ("num_list", None, None),
        "n_frames": ("int", 10 ** 5, _AT_LEAST_1),
    },
}


def validate_config(command: str, config: dict) -> dict:
    schema = SCHEMAS[command]
    problems = []
    unknown = sorted(set(config) - set(schema))
    if unknown:
        problems.append("unknown keys: " + ", ".join(unknown))
    out = {}
    for key, (kind, default, check) in schema.items():
        if config.get(key) is None:
            if default is _MISSING:
                problems.append(f"{key}: required")
            else:
                out[key] = default
            continue
        parse, expected = _KINDS[kind]
        value = parse(config[key])
        if value is None:
            problems.append(f"{key}: {expected}")
        elif check and not all(map(check[0], value if isinstance(value, tuple) else (value,))):
            problems.append(f"{key}: {check[1]}")
        elif isinstance(value, tuple) and len(set(value)) < len(value):  # each is one x of a curve
            problems.append(f"{key}: repeats a value")
        else:
            out[key] = value
    if problems:
        raise ConfigError("; ".join(problems))
    return out


def _power_config(cfg) -> PowerConfig:
    return PowerConfig(cfg["p_c"], cfg["p_p"], cfg["noise_p"], cfg["noise_s"])


def _row(x, scheme, metric, value, se, alpha1, alpha2, seed):
    a2 = complex(alpha2)
    return (x, scheme, metric, value, se, alpha1, a2.real, a2.imag, seed)


# ---------------------------------------------------------------------------
# subcommand handlers, each config -> ResultTable


def _cmd_design_fast(cfg) -> ResultTable:
    pw = _power_config(cfg)
    rows = []
    for k in cfg["k_db"]:
        res = design_fast.solve_alpha1_fast(ChannelStats.from_k_factor(k), pw, cfg["r_target"])
        for metric, value in (("design_residual", res.residual), ("primary_rate_target", res.r_target)):
            rows.append(_row(k, "la_gpc", metric, value, 0.0, res.alpha1, res.alpha2, cfg["seed"]))
    return ResultTable("K_dB", rows)


def _slow_targets(k, cfg):
    """(r_p, p_out_p, r_cr) from the config when it sets them, else the
    paper's targets at K; shared by design-slow and figures 4 and 5."""
    explicit = [cfg.get("r_p"), cfg.get("p_out_p"), cfg.get("r_cr")]
    if any(v is not None for v in explicit):
        if None in explicit:
            raise ConfigError("r_p, p_out_p, r_cr: all three required together")
        return tuple(explicit)
    if k not in SLOW_TARGETS:
        hint = "; set r_p, p_out_p, r_cr" if "r_p" in cfg else ""
        raise ConfigError(f"k_db: no default targets for K = {k:g}{hint}")
    return SLOW_TARGETS[k]


def _cmd_design_slow(cfg) -> ResultTable:
    pw = _power_config(cfg)
    rows = []
    for k in cfg["k_db"]:
        res = design_slow.design(ChannelStats.from_k_factor(k), pw, *_slow_targets(k, cfg))
        for metric, value in (("surrogate_outage", res.objective_value), ("cantelli_r", res.r_used)):
            rows.append(_row(k, "la_gpc", metric, value, 0.0, res.alpha1, res.alpha2, cfg["seed"]))
    return ResultTable("K_dB", rows)


def _cmd_simulate(cfg) -> ResultTable:
    """simulate-ergodic, or simulate-outage when the config has r_target.

    Without alpha1/alpha2 each K gets the fast design (ergodic) or the slow
    design for r_p, p_out_p and r_target (outage).  The primary's outage is
    scored at r_p when the config gives it, else at r_target."""
    pw = _power_config(cfg)
    seed = cfg["seed"]
    outage = "r_target" in cfg
    given = (cfg["alpha1"], cfg["alpha2"])
    if given.count(None) == 1:
        raise ConfigError("alpha1, alpha2: give both or neither")
    if given[0] == 1.0 and given[1] and cfg["user"] == "cr" and "la_gpc" in cfg["schemes"]:
        raise ConfigError("alpha2: must be 0 for la_gpc at alpha1 = 1, which leaves no signal to precode")
    if outage and None in given and (cfg["r_p"] is None or cfg["p_out_p"] is None):
        raise ConfigError("r_p, p_out_p: required when alpha1/alpha2 absent")
    if cfg["user"] == "primary":
        schemes, metric = ("primary",), ("primary_outage" if outage else "primary_ergodic_rate")
    else:
        schemes, metric = cfg["schemes"], ("outage_probability" if outage else "ergodic_rate")
    points = []  # every K's design is made before the first draw
    for k in cfg["k_db"]:
        stats = ChannelStats.from_k_factor(k)
        if None not in given:
            params = DesignParams(*given)
        elif outage:
            params = design_slow.design(stats, pw, cfg["r_p"], cfg["p_out_p"], cfg["r_target"]).params
        else:
            params = design_fast.solve_alpha1_fast(stats, pw).params
        points.append((stats, params))
    threshold = (cfg["user"] == "primary" and cfg.get("r_p")) or cfg.get("r_target")  # None: ergodic
    ests = montecarlo.drawn_estimates(points, pw, schemes, threshold, cfg["n"], seed)
    rows = []
    for k, (_, params), by_scheme in zip(cfg["k_db"], points, ests):
        for which, est in zip(schemes, by_scheme):
            label = "la_gpc" if which == "primary" else which
            rows.append(_row(k, label, metric, est.value, est.std_error, params.alpha1, params.alpha2, seed))
    return ResultTable("K_dB", rows)


def _lattice_rows(cfg, label_suffix=""):
    """Codeword error and theory outage rows for a lattice-sim config; figures
    7 and 8 pass one per K with the K in `label_suffix`."""
    seed = cfg["seed"]
    scenario = lattice.LatticeScenario(
        k_db=cfg["k_db"], rate_bpcu=cfg["rate"], snr_db=cfg["snr_db"], trials=cfg["trials"], seed=seed,
        p_p=cfg["p_p"], noise=cfg["noise"], alpha1=cfg["alpha1"], schemes=cfg["schemes"],
        theory_n=cfg["theory_n"],
    )
    rows = []
    for p in lattice.codeword_error_sim(scenario):
        for metric, value, se in (
            ("codeword_error_rate", p.error_rate, p.ci95 / 1.96), ("theory_outage", p.theory_outage, 0.0)
        ):
            rows.append(_row(p.snr_db, p.scheme + label_suffix, metric, value, se, p.alpha1, p.alpha2, seed))
    return rows


def _cmd_asymptotic_check(cfg) -> ResultTable:
    """Designed (alpha1, alpha2) against their nonfading limits along K.

    Each K gets the limits' rows, then each mode its deviations |alpha1 - alpha1_lim| and
    |alpha2 - nonfading_alpha2(alpha1)|.  The slow design targets R_P = log2(1 + Pp/noise_p), so its
    limit equation is the fast one; its finite-K gap carries the Cantelli term delta*sigma and decays
    like 10^(-K_dB/20), an order slower than the fast design's variance-driven 10^(-K_dB/10).  Both
    alpha2 deviations decay like 10^(-K_dB/10) (a factor 10 per 10 dB from 40 to 80 dB at
    Pc = Pp = 10).  A K whose slow alpha1 is infeasible (deep fades cannot carry the
    deterministic-channel rate at slow_p_out) gets no slow rows.
    """
    if list(cfg["k_db"]) != sorted(cfg["k_db"]):
        raise ConfigError("k_db: must ascend")
    pw, seed = _power_config(cfg), cfg["seed"]
    a1_lim = asymptotics.nonfading_alpha1(pw)
    a2_lim = asymptotics.nonfading_alpha2(a1_lim, pw)
    r_p = float(np.log2(1.0 + pw.Pp / pw.noise_p))
    rows = [
        _row(k, "la_gpc", metric, value, 0.0, a1_lim, a2_lim, seed)
        for k in cfg["k_db"]
        for metric, value in (("alpha1_nonfading", a1_lim), ("alpha2_nonfading", abs(a2_lim)))
    ]
    for mode in cfg["modes"]:
        for k in cfg["k_db"]:
            stats = ChannelStats.from_k_factor(k)
            if mode == "fast":
                res = design_fast.solve_alpha1_fast(stats, pw)
                a1, a2 = res.alpha1, res.alpha2
            else:
                try:
                    a1, _ = design_slow.solve_alpha1_slow(stats, pw, r_p, cfg["slow_p_out"])
                except InfeasibleDesignError:
                    continue
                a2 = design_slow.solve_alpha2_slow(stats, a1, pw, cfg["slow_r_cr"])[0]
            a2_dev = abs(a2 - asymptotics.nonfading_alpha2(a1, pw))
            for name, dev in (("alpha1", abs(a1 - a1_lim)), ("alpha2", a2_dev)):
                rows.append(_row(k, "la_gpc", f"{name}_deviation_{mode}", dev, 0.0, a1, a2, seed))
    return ResultTable("K_dB", rows)


_FIGURE5_ORDER = ("la_gpc", "naive_dpc", "interference_as_noise", "full_csit")
_METRICS = {2: "primary_ergodic_rate", 3: "cr_ergodic_rate", 4: "primary_outage", 5: "cr_outage"}


def _sweep_rows(cfg) -> list:
    """All curves of comparison figure 2, 3, 4 or 5 over the K grid.

    2: primary ergodic rate, designed vs searched alpha1 vs no-interference
       reference; 3: CR ergodic rate across the five schemes; 4: primary
       outage versions of 2; 5: CR outage versions of 3.  In rate/outage
       tables the no-interference reference carries the full_csit label.
    """
    pw, seed, fig = _power_config(cfg), cfg["seed"], cfg["figure"]
    if fig in (4, 5):
        return _outage_rows(cfg, pw, seed, fig)
    metric, primary, n, bf_mc_n = _METRICS[fig], fig == 2, cfg["n_ergodic"], cfg["bf_mc_n"]
    # one draw of normals, rescaled to a block at each K, whose float sums fix the rows' bits: the
    # estimates and the alpha1 search read the block's first n realizations, the alpha2 search its first bf_mc_n
    links = channel.PRIMARY_LINKS if primary else channel.LINKS
    z = channel.standard_normals(n if primary else max(n, bf_mc_n), seed, links=links)
    rows = []
    for k in cfg["k_db"] or SLOW_TARGETS:
        stats = ChannelStats.from_k_factor(k)
        block = r = None  # the last K's block goes before the next is built
        block = channel.realizations(stats, z, links)
        r = block[:n]
        reference = design_fast.primary_target_ergodic(stats, pw)
        des = design_fast.solve_alpha1_fast(stats, pw, reference)
        bf_a1 = montecarlo.brute_force_alpha1_fast(r, pw, reference)

        def row(scheme, est, shown):
            return _row(k, scheme, metric, est.value, est.std_error, shown.alpha1, shown.alpha2, seed)

        if primary:
            for scheme, a1 in (("la_gpc", des.alpha1), ("full_search", bf_a1)):
                p = DesignParams(a1, 0.0)
                rows.append(row(scheme, montecarlo.estimates(r, stats, p, pw, ("primary",))[0], p))
            rows.append(_row(k, "full_csit", metric, reference, 0.0, 0.0, 0j, seed))
            continue
        # figure 3 prints the design's alpha2 on every row
        schemes = montecarlo.CR_SCHEMES
        for scheme, est in zip(schemes, montecarlo.estimates(r, stats, des.params, pw, schemes)):
            rows.append(row(scheme, est, des.params))
        bf_a2 = montecarlo.brute_force_alpha2(block[:bf_mc_n], stats, bf_a1, pw, None, grid_n=cfg["bf_grid_n"])
        p = DesignParams(bf_a1, bf_a2)
        rows.append(row("full_search", montecarlo.estimates(r, stats, p, pw, ("la_gpc",))[0], p))
    return rows


def _primary_pieces(n, seed, cr_head):
    """The normals of h11 and h12 of realizations 0 .. n - 1 of the stream, a piece at a time; those of
    realizations 0 .. len(cr_head) - 1 are drawn with all four links, whose uniforms are filled anyway, and
    their h21 and h22 columns are written into cr_head on the way."""
    head = len(cr_head)
    for lo, z in zip(range(0, head, channel.PIECE), channel.normal_pieces(head, seed) if head else ()):
        cr_head[lo : lo + len(z)] = z[:, 4:]
        if lo < n:
            yield z[: n - lo, :4]
    if n > head:
        yield from channel.normal_pieces(n - head, seed, head, channel.PRIMARY_LINKS)


def _outage_rows(cfg, pw, seed, fig) -> list:
    """Figure 4 or 5, piece-major: every value they print from the draw is an integer count, so
    each piece of the draw is counted at every K and dropped, and no n-long block is held.

    Pass 1 draws h11 and h12 and scans the primary outage over the alpha1 grid at each K; figure 4 also
    counts its design row there and reads its full_search row from the scan.  Figure 5 keeps h21 and h22 of
    the first bf_mc_n realizations for the alpha2 search, and pass 2 draws h21 and h22 to count the scheme
    rows at the design point and the full_search row at the searched one."""
    n, metric, primary = cfg["n_outage"], _METRICS[fig], fig == 4
    # every K's targets are looked up before the first design, and every design is made before the first draw
    points = [(k, ChannelStats.from_k_factor(k), *_slow_targets(k, cfg)) for k in cfg["k_db"] or SLOW_TARGETS]
    designs = [design_slow.design(stats, pw, *targets).params for _, stats, *targets in points]
    pass1 = []
    for (_, stats, r_p, _, _), des in zip(points, designs):
        counters = [montecarlo.OutageScan(pw, r_p, 201)]
        if primary:  # figure 4's design row
            counters.append(montecarlo.OutageCounts(stats, DesignParams(des.alpha1, 0.0), pw, ("primary",), r_p))
        pass1.append((stats, counters))
    cr_head = np.empty((0 if primary else cfg["bf_mc_n"], 4))
    montecarlo.feed(_primary_pieces(n, seed, cr_head), channel.PRIMARY_LINKS, pass1)
    rows, pass2 = [], []
    for (k, stats, r_p, p_out, r_cr), des, (_, [scan, *counts]) in zip(points, designs, pass1):
        bf_a1 = scan.alpha1(p_out)
        if primary:
            for scheme, est, a1 in (("la_gpc", *counts[0].estimates(), des.alpha1),
                                    ("full_search", scan.estimate(bf_a1), bf_a1)):
                rows.append(_row(k, scheme, metric, est.value, est.std_error, a1, 0.0, seed))
            rows.append(_row(k, "full_csit", metric, p_out, 0.0, 0.0, 0j, seed))
            continue
        head = channel.realizations(stats, cr_head, channel.CR_LINKS)
        bf_a2 = montecarlo.brute_force_alpha2(head, stats, bf_a1, pw, r_cr, grid_n=cfg["bf_grid_n"])
        bf = DesignParams(bf_a1, bf_a2)
        shown = [montecarlo.scheme_params(scheme, stats, des, pw) for scheme in _FIGURE5_ORDER] + [bf]
        pass2.append((stats, [montecarlo.OutageCounts(stats, des, pw, _FIGURE5_ORDER, r_cr),
                              montecarlo.OutageCounts(stats, bf, pw, ("la_gpc",), r_cr)], k, shown))
    if primary:
        return rows
    cr_head = head = None
    montecarlo.feed(channel.normal_pieces(n, seed, links=channel.CR_LINKS), channel.CR_LINKS, [p[:2] for p in pass2])
    for _, (designed, searched), k, shown in pass2:
        ests = designed.estimates() + searched.estimates()
        for scheme, est, p in zip(_FIGURE5_ORDER + ("full_search",), ests, shown):
            rows.append(_row(k, scheme, metric, est.value, est.std_error, p.alpha1, p.alpha2, seed))
    return rows


# the figures that read each key besides seed; any other figure rejects it when the user's config sets it
_FIGURE_KEYS = {**dict.fromkeys(("p_c", "p_p", "noise_p", "noise_s"), (2, 3, 4, 5, 6)), "n_frames": (6,),
                "k_db": (2, 3, 4, 5), **dict.fromkeys(("bf_grid_n", "bf_mc_n"), (3, 5)), "n_ergodic": (2, 3),
                "n_outage": (4, 5, 7, 8), "trials": (7, 8), "snr_db": (7, 8)}


def _cmd_reproduce_figure(cfg) -> ResultTable:
    pw = _power_config(cfg)
    seed = cfg["seed"]
    fig = cfg["figure"]
    if fig in (2, 3, 4, 5):
        return ResultTable("K_dB", _sweep_rows(cfg))
    if fig == 6:
        # transmit histogram at the fast design for K = 10 dB
        res = design_fast.solve_alpha1_fast(ChannelStats.from_k_factor(10.0), pw)
        x = lattice.transmit_samples(lattice.build_nested(2), res.params, pw, cfg["n_frames"], seed)
        x = (x - x.mean()) / x.std()
        dens, edges = np.histogram(x, bins=81, range=(-4.05, 4.05), density=True)
        points = [(0.0, "tx_skew", np.mean(x ** 3)), (0.0, "tx_excess_kurtosis", np.mean(x ** 4) - 3.0)]
        points += [(c, "tx_density", d) for c, d in zip(0.5 * (edges[:-1] + edges[1:]), dens)]
        # plain floats: the .dat files print each value with repr
        rows = [_row(float(a), "la_gpc", m, float(v), 0.0, res.alpha1, res.alpha2, seed) for a, m, v in points]
        return ResultTable("amplitude", rows)
    # figures 7 and 8: codeword error curves at both stated K factors; the
    # theory outage of each K uses a fifth of n_outage
    if cfg["n_outage"] < 5:
        raise ConfigError(f"n_outage: must be at least 5 for figure {fig}")
    snr_db = cfg["snr_db"] or ((22.0, 24.0, 26.0) if fig == 7 else (28.0, 30.0, 32.0))
    rows = []
    for k in (0.0, 10.0):
        lattice_cfg = dict(
            seed=seed, k_db=k, rate=2.0 if fig == 7 else 4.0, snr_db=snr_db, trials=cfg["trials"],
            schemes=lattice.SCHEMES, p_p=100.0, noise=1.0, alpha1=0.0, theory_n=cfg["n_outage"] // 5,
        )
        rows.extend(_lattice_rows(lattice_cfg, label_suffix=f"@K{k:g}"))
    return ResultTable("SNR_dB", rows)


_HANDLERS = {
    "design-fast": _cmd_design_fast,
    "design-slow": _cmd_design_slow,
    "simulate-ergodic": _cmd_simulate,
    "simulate-outage": _cmd_simulate,
    "lattice-sim": lambda cfg: ResultTable("SNR_dB", _lattice_rows(cfg)),
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
        if set(_COUNT_KEYS) & set(SCHEMAS[name]):
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
        given = {k for k, v in raw.items() if v is not None}
        if getattr(args, "figure", None) is not None:
            raw["figure"] = args.figure
        if args.seed is not None:
            raw["seed"] = args.seed
        if getattr(args, "samples", None) is not None:
            for key in _COUNT_KEYS:
                if key in SCHEMAS[args.command]:
                    raw[key] = args.samples
        cfg = validate_config(args.command, raw)
        # a figure rejects, and its manifest omits, the keys it does not read
        unread = [key for key, figures in _FIGURE_KEYS.items() if cfg.get("figure") not in (None, *figures)]
        for key in unread:
            if key in given:
                raise ConfigError(f"{key}: figure {cfg['figure']} does not read it")
        table = _HANDLERS[args.command](cfg)
        cfg = {k: v for k, v in cfg.items() if k not in unread}
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
