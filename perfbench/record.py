"""Record the reference tables the output checks compare against.

    python3 perfbench/record.py [WORKLOAD ...]

Run from the repository root, at the commit that defines the references.  For
each workload it writes reference/<workload>/<job>.csv at REFERENCE_SEED and
reference/<workload>/row_digests.json, the digest of every CSV row at each CLI
seed in range(SEED_MODULUS).  Every table recorded is checked against the
reference at once, so a tolerance that a fresh seed would break shows here.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import check
from reps import HERE, run_rep
from workloads import REFERENCE_SEED, SEED_MODULUS, WORKLOADS


def record(name: str, root: Path) -> int:
    wl = WORKLOADS[name]
    ref_dir = HERE / "reference" / name
    work = root / "perfbench" / "out" / "record" / name
    digests = {job.command: {} for job in wl.jobs}
    failures = 0
    # reference seed first: the other seeds are checked against it
    for seed in [REFERENCE_SEED] + [s for s in range(SEED_MODULUS) if s != REFERENCE_SEED]:
        rep = run_rep(wl, seed, work / f"seed{seed}", root)
        if seed == REFERENCE_SEED:
            if ref_dir.exists():
                shutil.rmtree(ref_dir)
            ref_dir.mkdir(parents=True)
            for job in wl.jobs:
                shutil.copy(rep["out"] / f"{job.command}.csv", ref_dir / f"{job.command}.csv")
        for job in wl.jobs:
            lines = (rep["out"] / f"{job.command}.csv").read_text().splitlines()
            digests[job.command][str(seed)] = [check.row_digest(line) for line in lines[1:]]
        result = check.check_rep(wl, rep, seed, check.load_reference(name, with_digests=False))
        failures += result.failed
        for msg in result.messages:
            print(f"{name} seed {seed}: {msg}", file=sys.stderr)
        print(f"{name} seed {seed}: {result.attempted - result.failed}/{result.attempted} checks pass")
    (ref_dir / "row_digests.json").write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    return failures


def main(argv) -> int:
    root = Path.cwd()
    names = argv or list(WORKLOADS)
    failures = sum(record(n, root) for n in names)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
