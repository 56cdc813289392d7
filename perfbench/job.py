"""One repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src LAGPC_WORKERS=<w> python3 perfbench/job.py SPEC.json

SPEC.json holds {"jobs": [[command, config_path], ...], "seed": s, "out": dir,
"trace": bool, "report": path}.  The script imports `lagpc.cli` first, so the
parent can time set-up from its own spawn time to SETUP_END (both read
CLOCK_MONOTONIC), then runs each job through `lagpc.cli.main` as a user's
invocation would, and writes a JSON report.  The speed probe (calib.py) runs
from before the import until the last job ends; the report carries its ticks
and each job's start and end on the CLOCK_MONOTONIC timeline.  With "trace"
the layer wrappers from spans.py are installed after set-up and removed
before the report, and the spans are written to spans.json beside it.
"""
import time

import calib

PROBE = calib.Probe()
PROBE.start()

import lagpc.cli  # noqa: E402

SETUP_END = time.monotonic()
PROBE.use_numpy()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _run_jobs(spec) -> tuple[list, list]:
    """Each job's [start, end] and exit code; stops the probe after the last."""
    stages, codes = [], []
    for command, config in spec["jobs"]:
        argv = [command, "--config", config, "--seed", str(spec["seed"]), "--out", spec["out"]]
        start = time.monotonic()
        try:
            codes.append(lagpc.cli.main(argv))
        except Exception:  # a crashed job counts as a failed one, the rest still run
            traceback.print_exc()
            codes.append(1)
        stages.append([start, time.monotonic()])
    PROBE.stop()
    return stages, codes


def main(spec_path: str) -> int:
    with open(spec_path) as f:
        spec = json.load(f)
    report = {"setup_end": SETUP_END, "lagpc_file": lagpc.cli.__file__}
    if spec["trace"]:
        import spans

        recorder = spans.Recorder()
        patch = spans.install(recorder)
        try:
            stages, codes = _run_jobs(spec)
        finally:
            patch.restore()
        report["layers"] = spans.layer_metrics(recorder)
        spans.dump(recorder, os.path.join(os.path.dirname(spec["report"]), "spans.json"))
    else:
        stages, codes = _run_jobs(spec)
    import numpy
    import scipy

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(
        job_stages=stages,
        probe_ticks=PROBE.ticks,
        exit_codes=codes,
        peak_rss_mb=(self_kb + child_kb) / 1024.0,
        python=sys.version.split()[0],
        numpy=numpy.__version__,
        scipy=scipy.__version__,
        blas=_blas_name(numpy),
    )
    with open(spec["report"], "w") as f:
        json.dump(report, f)
    return 0


def _blas_name(numpy) -> str:
    try:
        return numpy.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError, TypeError):
        return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
