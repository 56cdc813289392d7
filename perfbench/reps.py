"""Launch one workload repetition (perfbench/job.py) in a fresh process."""
from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import calib
from workloads import Workload

HERE = Path(__file__).resolve().parent
JOB_TIMEOUT_S = 100
# lagpc's linear algebra runs on 2x2 and 8x8 matrices.  Over eight interleaved
# pairs of design-map repetitions on a 2-core box, the default BLAS threads
# made it 16% slower in median with a quartile spread about four times wider,
# so every job process, and the pool workers it forks, gets one BLAS thread.
BLAS_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RepError(RuntimeError):
    """The repetition's process died without a report (not a failed CLI job)."""


def run_rep(wl: Workload, seed: int, rep_dir: Path, root: Path, traced: bool = False) -> dict:
    """Run every job of `wl` at CLI seed `seed` in one fresh interpreter.

    Returns the job report plus `out`, the directory holding the CLI
    outputs, and the times: `setup_s` (spawn to `import lagpc.cli` done) and
    `wall_s` (the jobs) as measured, and `scaled_setup_s` and `scaled_wall_s`,
    each stage scaled by the slowdown the speed probe measured during it
    (calib.py).  `slowdowns` lists those of set-up and of each job.
    """
    if rep_dir.exists():
        shutil.rmtree(rep_dir)
    out = rep_dir / "out"
    out.mkdir(parents=True)
    jobs = []
    for job in wl.jobs:
        cfg = rep_dir / f"{job.command}.config.json"
        cfg.write_text(json.dumps(job.config))
        jobs.append([job.command, str(cfg)])
    report_path = rep_dir / "report.json"
    spec_path = rep_dir / "spec.json"
    spec = {"jobs": jobs, "seed": seed, "out": str(out), "trace": traced, "report": str(report_path)}
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    env["LAGPC_WORKERS"] = str(wl.workers)
    env.update(BLAS_THREADS)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "job.py"), str(spec_path)],
        cwd=root,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,  # pool workers share the group, so a timeout kills them too
    )
    try:
        stdout, stderr = proc.communicate(timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RepError(f"{wl.name}: repetition exceeded {JOB_TIMEOUT_S} s") from None
    (rep_dir / "stdout.txt").write_bytes(stdout)
    (rep_dir / "stderr.txt").write_bytes(stderr)
    if proc.returncode != 0 or not report_path.exists():
        tail = stderr.decode(errors="replace")[-2000:]
        raise RepError(f"{wl.name}: job process exited {proc.returncode}\n{tail}")
    report = json.loads(report_path.read_text())
    lagpc_file = Path(report["lagpc_file"]).resolve()
    if (root / "src") not in lagpc_file.parents:
        raise RepError(f"imported lagpc from {lagpc_file}, not from {root / 'src'}")
    ticks = report.pop("probe_ticks")
    stages = [[spawned, report["setup_end"]], *report["job_stages"]]
    _, overall = calib.scale(spawned, stages[-1][1], ticks)
    scaled = [calib.scale(begin, end, ticks, fallback=overall) for begin, end in stages]
    report["setup_s"] = report["setup_end"] - spawned
    report["wall_s"] = sum(end - begin for begin, end in report["job_stages"])
    report["scaled_setup_s"] = scaled[0][0] / scaled[0][1]
    report["scaled_wall_s"] = sum(length / slowdown for length, slowdown in scaled[1:])
    report["slowdowns"] = [slowdown for _, slowdown in scaled]
    report["probe_units"] = sum(unit is not None for _, _, unit in ticks)
    report["out"] = out
    return report
