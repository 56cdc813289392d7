"""Spans at lagpc's layer boundaries, recorded from outside the package.

`install` wraps every public function of each layer module (the modules of
LAYERS) plus `cli._write_outputs`, and rebinds each wrapper wherever a lagpc
module holds the original, including names imported with `from .x import f`.
Each call records a span: name, start, end, parent span and the exception
type it raised, if any.  Spans stay in memory until the run ends.  A layer's
self time is the sum of its spans' durations minus the part of each covered by
child spans.  Work done inside pool worker processes is not seen: there the
estimator span is the time spent waiting for the pool.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor

import numpy as np

LAYERS = ("channel", "quadform", "design_fast", "design_slow", "asymptotics", "montecarlo", "lattice", "cli")
PRIVATE_WRAPPED = {"cli": ("_write_outputs",)}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("channel.sample.calls", "count", "lower"),
    ("channel.sample.realizations", "count", "lower"),
    ("channel.sample.self_s", "s", "lower"),
    ("channel.sample.realizations_per_s", "1/s", "higher"),
    ("channel.rates.calls", "count", "lower"),
    ("channel.rates.self_s", "s", "lower"),
    ("channel.build_matrices.calls", "count", "lower"),
    ("channel.build_matrices.self_s", "s", "lower"),
    ("quadform.calls", "count", "lower"),
    ("quadform.self_s", "s", "lower"),
    ("quadform.domain_errors", "count", "lower"),
    ("design_fast.solve.calls", "count", "lower"),
    ("design_fast.solve.self_s", "s", "lower"),
    ("design_fast.surrogate_evals", "count", "lower"),
    ("design_fast.target.self_s", "s", "lower"),
    ("design_slow.alpha1.self_s", "s", "lower"),
    ("design_slow.alpha2.self_s", "s", "lower"),
    ("design_slow.ratio_evals", "count", "lower"),
    ("design_slow.surrogate_evals", "count", "lower"),
    ("design_slow.surrogate_fallbacks", "count", "lower"),
    ("asymptotics.sweep.self_s", "s", "lower"),
    ("asymptotics.skipped_k", "count", "lower"),
    ("montecarlo.estimator.calls", "count", "lower"),
    ("montecarlo.estimator.samples", "count", "lower"),
    ("montecarlo.estimator.self_s", "s", "lower"),
    ("montecarlo.pools", "count", "lower"),
    ("montecarlo.bf_alpha1.self_s", "s", "lower"),
    ("montecarlo.bf_alpha1.grid_evals", "count", "lower"),
    ("montecarlo.bf_alpha2.self_s", "s", "lower"),
    ("montecarlo.bf_alpha2.grid_points", "count", "lower"),
    ("lattice.build_nested.calls", "count", "lower"),
    ("lattice.build_nested.self_s", "s", "lower"),
    ("lattice.trials", "count", "higher"),
    ("lattice.filters.self_s", "s", "lower"),
    ("lattice.encode.self_s", "s", "lower"),
    ("lattice.decode.self_s", "s", "lower"),
    ("lattice.sphere_decode.self_s", "s", "lower"),
    ("lattice.trial_us", "us", "lower"),
    ("lattice.e8.calls", "count", "lower"),
    ("lattice.e8.points", "count", "lower"),
    ("lattice.filters_regularized", "count", "lower"),
    ("cli.validate.self_s", "s", "lower"),
    ("cli.write.self_s", "s", "lower"),
    ("cli.write.bytes", "bytes", "lower"),
    ("cli.rows_changed", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# metric prefix -> span names whose calls and self time it sums
GROUPS = {
    "channel.sample": ("channel.sample_realizations",),
    "channel.rates": ("channel.cr_rate", "channel.primary_rate", "channel.baseline_rates"),
    "channel.build_matrices": ("channel.build_matrices",),
    "design_fast.solve": ("design_fast.solve_alpha1_fast",),
    "design_fast.target": ("design_fast.primary_target_ergodic",),
    "design_slow.alpha1": ("design_slow.solve_alpha1_slow",),
    "design_slow.alpha2": ("design_slow.solve_alpha2_slow",),
    "asymptotics.sweep": ("asymptotics.convergence_sweep",),
    "montecarlo.estimator": ("montecarlo.ergodic_capacity", "montecarlo.outage_probability"),
    "montecarlo.bf_alpha1": ("montecarlo.brute_force_alpha1_fast", "montecarlo.brute_force_alpha1_outage"),
    "montecarlo.bf_alpha2": ("montecarlo.brute_force_alpha2",),
    "lattice.build_nested": ("lattice.build_nested",),
    "lattice.filters": ("lattice.build_filters",),
    "lattice.encode": ("lattice.encode",),
    "lattice.decode": ("lattice.decode",),
    "lattice.sphere_decode": ("lattice.sphere_decode",),
    "lattice.e8": ("lattice.e8_closest_point",),
    "cli.validate": ("cli.validate_config",),
    "cli.write": ("cli._write_outputs",),
}
CALL_COUNTS = {
    "design_fast.surrogate_evals": "design_fast.primary_rate_surrogate",
    "design_slow.ratio_evals": "design_slow.ratio_stats",
    "design_slow.surrogate_evals": "design_slow.outage_surrogate",
}
# child spans of codeword_error_sim that are not per-trial codec work
_NOT_TRIAL_WORK = ("lattice.build_nested", "design_slow.", "montecarlo.")


class Recorder:
    """In-memory spans and counts.

    Spans are kept column by column, so recording creates no container object
    per call for the garbage collector to scan; `spans` gives them as rows
    [name, start, end, parent index, error type] once the run is over.
    """

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.errors: dict = {}
        self.counts: defaultdict = defaultdict(int)
        self._stack: list = []

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int, error: str | None = None) -> None:
        self.ends[idx] = time.perf_counter()
        if error is not None:
            self.errors[idx] = error
        self._stack.pop()

    @property
    def spans(self) -> list:
        return [
            [n, s, e, p, self.errors.get(i)]
            for i, (n, s, e, p) in enumerate(zip(self.names, self.starts, self.ends, self.parents))
        ]


def _disc_points(grid_n: int) -> int:
    """Grid points brute_force_alpha2 evaluates: the grid_n^2 square cut to its disc."""
    offs = [-1.0 + 2.0 * i / (grid_n - 1) for i in range(grid_n)] if grid_n > 1 else [0.0]
    return sum(1 for a in offs for b in offs if a * a + b * b <= 1.0 + 1e-12)


def _trials(sc) -> int:
    return sc.trials * len(sc.snr_db)


def _written_bytes(out) -> int:
    csv_path, man_path, plot_paths = out
    return sum(p.stat().st_size for p in (csv_path, man_path, *plot_paths))


# span name -> (counter, its increment from the call's arguments and result)
INCREMENTS = {
    "channel.sample_realizations": ("channel.sample.realizations", lambda a, out: a["n"]),
    "montecarlo.ergodic_capacity": ("montecarlo.estimator.samples", lambda a, out: a["n"]),
    "montecarlo.outage_probability": ("montecarlo.estimator.samples", lambda a, out: a["n"]),
    "montecarlo.brute_force_alpha1_fast": (
        "montecarlo.bf_alpha1.grid_evals", lambda a, out: round(out * (a["grid_n"] - 1)) + 1
    ),
    "montecarlo.brute_force_alpha1_outage": (
        "montecarlo.bf_alpha1.grid_evals", lambda a, out: round(out * (a["grid_n"] - 1)) + 1
    ),
    "montecarlo.brute_force_alpha2": ("montecarlo.bf_alpha2.grid_points", lambda a, out: _disc_points(a["grid_n"])),
    "asymptotics.convergence_sweep": ("asymptotics.skipped_k", lambda a, out: len(out.k_db) - len(out.slow_k_db)),
    "lattice.codeword_error_sim": ("lattice.trials", lambda a, out: _trials(a["scenario"])),
    "lattice.e8_closest_point": ("lattice.e8.points", lambda a, out: np.size(a["x"]) // 8),
    "lattice.build_filters": ("lattice.filters_regularized", lambda a, out: int(out.regularized)),
    "cli._write_outputs": ("cli.write.bytes", lambda a, out: _written_bytes(out)),
}


def _wrap(name: str, fn, rec: Recorder):
    counter, increment = INCREMENTS.get(name, (None, None))
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.open(name)
        try:
            out = fn(*args, **kwargs)
        except BaseException as e:
            rec.close(idx, type(e).__name__)
            raise
        rec.close(idx)
        if counter is not None:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            rec.counts[counter] += increment(bound.arguments, out)
        return out

    return wrapper


class Patch:
    """Record of every rebinding `install` made; `restore` undoes them all."""

    def __init__(self):
        self._undo: list = []

    def set(self, owner, name, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def install(rec: Recorder) -> Patch:
    """Wrap the layer functions and count process pools; returns the undo record."""
    wrappers = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"lagpc.{layer}")
        for attr, obj in vars(mod).items():
            public = not attr.startswith("_") or attr in PRIVATE_WRAPPED.get(layer, ())
            if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                wrappers[obj] = _wrap(f"{layer}.{attr}", obj, rec)
    patch = Patch()
    modules = [m for n, m in list(sys.modules.items()) if n == "lagpc" or n.startswith("lagpc.")]
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrappers:
                patch.set(mod, attr, wrappers[obj])

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            rec.counts["montecarlo.pools"] += 1
            super().__init__(*args, **kwargs)

    patch.set(importlib.import_module("lagpc.montecarlo"), "ProcessPoolExecutor", CountingPool)
    return patch


def _children(spans) -> defaultdict:
    out = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            out[span[3]].append(i)
    return out


def self_times(spans, children=None) -> list:
    """Duration of each span minus the union of its children's intervals."""
    if children is None:
        children = _children(spans)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def layer_metrics(rec: Recorder) -> dict:
    """Every PER_LAYER metric that the spans and counts define (all but
    cli.rows_changed and trace.overhead_s, which the caller measures)."""
    spans = rec.spans
    children = _children(spans)
    selfs = self_times(spans, children)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for span, st in zip(spans, selfs):
        calls[span[0]] += 1
        self_s[span[0]] += st
    m = {}
    for prefix, names in GROUPS.items():
        m[f"{prefix}.calls"] = sum(calls[n] for n in names)
        m[f"{prefix}.self_s"] = sum(self_s[n] for n in names)
    m["quadform.calls"] = sum(c for n, c in calls.items() if n.startswith("quadform."))
    m["quadform.self_s"] = sum(s for n, s in self_s.items() if n.startswith("quadform."))
    for metric, name in CALL_COUNTS.items():
        m[metric] = calls[name]
    # a DomainError leaving the quadform layer; design_slow.outage_surrogate
    # turns the ones it receives into the 1.0 fallback
    m["quadform.domain_errors"] = 0
    m["design_slow.surrogate_fallbacks"] = 0
    for name, _, _, parent, error in spans:
        if error != "DomainError" or not name.startswith("quadform."):
            continue
        parent_name = spans[parent][0] if parent >= 0 else ""
        if not parent_name.startswith("quadform."):
            m["quadform.domain_errors"] += 1
        if parent_name == "design_slow.outage_surrogate":
            m["design_slow.surrogate_fallbacks"] += 1
    for key in {counter for counter, _ in INCREMENTS.values()} | {"montecarlo.pools"}:
        m[key] = rec.counts[key]
    sample_s = m["channel.sample.self_s"]
    m["channel.sample.realizations_per_s"] = m["channel.sample.realizations"] / sample_s if sample_s > 0 else 0.0
    codec_s = 0.0
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == "lattice.codeword_error_sim":
            codec_s += end - start - sum(
                spans[c][2] - spans[c][1] for c in children.get(i, ()) if spans[c][0].startswith(_NOT_TRIAL_WORK)
            )
    m["lattice.trial_us"] = 1e6 * codec_s / m["lattice.trials"] if m["lattice.trials"] else 0.0
    wanted = {name for name, _, _ in PER_LAYER} - {"cli.rows_changed", "trace.overhead_s"}
    return {k: v for k, v in m.items() if k in wanted}


def dump(rec: Recorder, path) -> None:
    with open(path, "w") as f:
        json.dump({"fields": ["name", "start", "end", "parent", "error"], "spans": rec.spans, "counts": rec.counts}, f)
