"""Benchmark of the lagpc CLI on one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lagpc checkout; the package is imported from its
src/ directory.  Each repetition runs every CLI job of the workload in a fresh
interpreter (perfbench/job.py) and its outputs are checked against the
reference tables (check.py).  Repetitions continue until the next one would
end after S seconds, with at least MIN_ROUNDS of them.

--trace 0 prints the end-to-end metrics: medians over repetitions of set-up
time, job wall time and peak memory, and the share of output checks passed.
--trace 1 alternates plain and traced repetitions and prints the per-layer
metrics of the traced ones (spans.py), medians over repetitions, plus the
tracing overhead and the speed-probe figures.  Every reported time is scaled
to the reference machine speed by the slowdown the speed probe measured
while it ran (calib.py); the raw times are in the record.  The last line of
standard output is the result as JSON; the full record, with the
environment, goes to perfbench/out/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import spans
from reps import BLAS_THREADS, RepError, run_rep
from workloads import WORKLOADS, cli_seed

MIN_ROUNDS = {0: 3, 1: 2}
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "check_pass_ratio": "ratio"}
# per-layer figures of the speed probe, from the plain repetitions
CALIB_LAYER = (
    ("calib.slowdown", "ratio", "lower"),
    ("calib.setup_raw_s", "s", "lower"),
    ("calib.wall_raw_s", "s", "lower"),
)
PER_LAYER = spans.PER_LAYER + CALIB_LAYER
SAMPLE_KEYS = (
    "scaled_setup_s", "scaled_wall_s", "setup_s", "wall_s",
    "slowdowns", "probe_units", "peak_rss_mb", "exit_codes",
)


def _commit(root: Path):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, env=env, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def environment(root: Path, wl, seed: int, rep: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": rep["python"],
        "numpy": rep["numpy"],
        "scipy": rep["scipy"],
        "blas": rep["blas"],
        "blas_threads": BLAS_THREADS,
        "lagpc_workers": wl.workers,
        "seed": seed,
        "cli_seed": cli_seed(seed),
        "sizes": {job.command: job.config for job in wl.jobs},
        "commit": _commit(root),
        "src_sha256": _src_digest(root),
    }


def measure(wl, seed: int, seconds: float, trace: int, root: Path) -> dict:
    """Repetitions of the workload, checked, until the time budget is spent."""
    reference = check.load_reference(wl.name)
    cseed = cli_seed(seed)
    work = root / "perfbench" / "out" / f"{wl.name}-seed{seed}-trace{trace}"
    checks = check.CheckResult()
    plain, traced = [], []
    start = time.monotonic()
    while True:
        for is_traced in (False, True) if trace else (False,):
            rep = run_rep(wl, cseed, work / ("traced" if is_traced else "plain"), root, traced=is_traced)
            result = check.check_rep(wl, rep, cseed, reference)
            checks.attempted += result.attempted
            checks.failed += result.failed
            checks.messages.extend(result.messages)
            if is_traced:
                rep["layers"]["cli.rows_changed"] = check.rows_changed(wl, rep["out"], cseed, reference)
                traced.append(rep)
            else:
                plain.append(rep)
        elapsed = time.monotonic() - start
        if len(plain) >= MIN_ROUNDS[trace] and elapsed * (1 + 1 / len(plain)) > seconds:
            break
    return {"plain": plain, "traced": traced, "checks": checks}


def _scaled_layers(rep: dict) -> dict:
    """The repetition's layer metrics with times scaled like its wall time."""
    factor = rep["scaled_wall_s"] / rep["wall_s"]
    units = {name: unit for name, unit, _ in spans.PER_LAYER}
    out = {}
    for name, value in rep["layers"].items():
        if units[name] in ("s", "us"):
            value *= factor
        elif units[name] == "1/s":
            value /= factor
        out[name] = value
    return out


def metrics(runs: dict, trace: int) -> dict:
    plain = runs["plain"]
    wall = statistics.median(r["scaled_wall_s"] for r in plain)
    if not trace:
        checks = runs["checks"]
        values = {
            "setup_s": statistics.median(r["scaled_setup_s"] for r in plain),
            "wall_s": wall,
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
            "check_pass_ratio": 1.0 - checks.failed / checks.attempted,
        }
        return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    traced = runs["traced"]
    layers = [_scaled_layers(r) for r in traced]
    calib_values = {
        "calib.slowdown": statistics.median(r["wall_s"] / r["scaled_wall_s"] for r in plain),
        "calib.setup_raw_s": statistics.median(r["setup_s"] for r in plain),
        "calib.wall_raw_s": statistics.median(r["wall_s"] for r in plain),
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(r["scaled_wall_s"] for r in traced) - wall
        elif name in calib_values:
            value = calib_values[name]
        else:
            value = statistics.median(m[name] for m in layers)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "lagpc" / "cli.py").is_file():
        print(f"perfbench: no lagpc sources under {root / 'src'}; run from a checkout root", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    try:
        runs = measure(wl, args.seed, args.seconds, args.trace, root)
    except RepError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    checks = runs["checks"]
    for msg in checks.messages[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics(runs, args.trace),
    }
    record = {
        "workload": wl.name,
        "trace": args.trace,
        "environment": environment(root, wl, args.seed, runs["plain"][0]),
        "samples": {
            kind: [{k: r[k] for k in SAMPLE_KEYS} for r in runs[kind]]
            for kind in ("plain", "traced")
        },
        "check_failures": checks.messages,
        "result": result,
    }
    results = root / "perfbench" / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(f"repetitions plain={len(runs['plain'])} traced={len(runs['traced'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
