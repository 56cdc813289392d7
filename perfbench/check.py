"""Output checks behind `check_pass_ratio`, and `cli.rows_changed`.

Every CLI job must exit 0 and write every file its manifest lists.  Every row
of the reference table (recorded at REFERENCE_SEED by record.py) must come
back, and no other row:

* Design quantities are deterministic, so they match to the tolerances of
  tests/test_design_slow.py::test_known_design_points: alpha1 to rel 1e-9,
  alpha2 and objectives to rel 1e-6.  A design residual only has to stay
  within the solver's own bound, 1e-9.
* A Monte Carlo or codec estimate must lie within MC_Z combined standard
  errors, sqrt(se_ref^2 + se_run^2), of the reference.  Rates use the
  table's std_error column.  Probabilities use the binomial error at the
  workload's sample count, floored at the error of a single event so that a
  zero count still has a width.  These checks therefore hold at any seed.
* The full_search rows come from grid searches over Monte Carlo objectives,
  so their alpha1 and alpha2 move by whole grid steps between seeds.  Over
  32 seeds, alpha1 moved by one step of its 201-point grid (0.005) and
  alpha2 by up to 0.19, one step of the 31-point disc grid, because the
  outage objective is flat near its optimum.  The bands SEARCH_A1_ABS and
  SEARCH_A2_ABS allow a few steps; the estimate at the searched point must lie
  within SEARCH_Z combined standard errors.
"""
from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from workloads import Workload

HERE = Path(__file__).resolve().parent

ALPHA1_REL = 1e-9
ALPHA2_REL = 1e-6
OBJECTIVE_REL = 1e-6
RESIDUAL_ABS = 1e-9
MC_Z = 5.0
SEARCH_A1_ABS = 0.025
SEARCH_A2_ABS = 0.5
SEARCH_Z = 8.0

DESIGN_REL = {
    "primary_rate_target": ALPHA1_REL,
    "surrogate_outage": OBJECTIVE_REL,
    "cantelli_r": OBJECTIVE_REL,
    "alpha1_nonfading": ALPHA1_REL,
    "alpha2_nonfading": ALPHA2_REL,
}
DEVIATION_REL = {
    "alpha1_deviation_fast": ALPHA1_REL,
    "alpha1_deviation_slow": ALPHA1_REL,
    "alpha2_deviation_fast": ALPHA2_REL,
    "alpha2_deviation_slow": ALPHA2_REL,
}
SE_COLUMN = {"cr_ergodic_rate"}
# probability metric -> config key holding its sample count
BINOMIAL_N = {"cr_outage": "n_outage", "codeword_error_rate": "trials", "theory_outage": "theory_n"}


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)


@dataclass(frozen=True)
class Row:
    x: str
    scheme: str
    metric: str
    value: float
    std_error: float
    alpha1: float
    alpha2: complex
    seed: int

    @property
    def key(self):
        return (self.x, self.scheme, self.metric)


def parse_rows(text: str) -> list:
    rows = []
    for line in text.splitlines()[1:]:
        x, scheme, metric, value, se, a1, a2r, a2i, seed = line.split(",")
        rows.append(
            Row(x, scheme, metric, float(value), float(se), float(a1), complex(float(a2r), float(a2i)), int(seed))
        )
    return rows


def row_digest(line: str) -> str:
    return hashlib.sha256(line.encode()).hexdigest()[:16]


def load_reference(name: str, with_digests: bool = True) -> dict:
    """{stem: {"rows": [Row], "digests": {seed: [hex]}}} for one workload."""
    ref_dir = HERE / "reference" / name
    digests = {}
    if with_digests:
        digests = json.loads((ref_dir / "row_digests.json").read_text())
    return {
        p.stem: {"rows": parse_rows(p.read_text()), "digests": digests.get(p.stem, {})}
        for p in sorted(ref_dir.glob("*.csv"))
    }


def _binomial_se(p: float, n: int) -> float:
    return math.sqrt(max(p * (1.0 - p), (1.0 / n) * (1.0 - 1.0 / n)) / n)


def _within(a: float, b: float, tol: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= tol


def check_row(ref: Row, run: Row, config: dict, seed: int) -> list:
    """Problems with one run row against its reference row (empty if none)."""
    problems = []
    if run.seed != seed:
        problems.append(f"seed column {run.seed}, expected {seed}")
    searched = ref.scheme == "full_search"
    if searched:
        if not _within(run.alpha1, ref.alpha1, SEARCH_A1_ABS):
            problems.append(f"searched alpha1 {run.alpha1!r} vs {ref.alpha1!r}")
        if not _within(abs(run.alpha2 - ref.alpha2), 0.0, SEARCH_A2_ABS):
            problems.append(f"searched alpha2 {run.alpha2!r} vs {ref.alpha2!r}")
    else:
        if not _within(run.alpha1, ref.alpha1, ALPHA1_REL * abs(ref.alpha1)):
            problems.append(f"alpha1 {run.alpha1!r} vs {ref.alpha1!r}")
        if not _within(abs(run.alpha2 - ref.alpha2), 0.0, ALPHA2_REL * abs(ref.alpha2)):
            problems.append(f"alpha2 {run.alpha2!r} vs {ref.alpha2!r}")
    m = ref.metric
    if m == "design_residual":
        ok = _within(run.value, 0.0, RESIDUAL_ABS)
    elif m in DESIGN_REL:
        ok = _within(run.value, ref.value, DESIGN_REL[m] * abs(ref.value))
    elif m in DEVIATION_REL:
        # |alpha - limit| moves by at most the tolerance of alpha and of the limit
        alpha = abs(ref.alpha1) if m.startswith("alpha1") else abs(ref.alpha2)
        ok = _within(run.value, ref.value, 2.0 * DEVIATION_REL[m] * max(1.0, alpha))
    elif m in SE_COLUMN or m in BINOMIAL_N:
        if m in SE_COLUMN:
            se = math.hypot(ref.std_error, run.std_error)
        else:
            n = config[BINOMIAL_N[m]]
            se = math.hypot(_binomial_se(ref.value, n), _binomial_se(run.value, n))
        ok = _within(run.value, ref.value, (SEARCH_Z if searched else MC_Z) * se)
    else:
        ok = False
        problems.append(f"no check defined for metric {m!r}")
    if not ok:
        problems.append(f"value {run.value!r} vs reference {ref.value!r}")
    if m not in SE_COLUMN and m not in BINOMIAL_N and run.std_error != ref.std_error:
        problems.append(f"std_error {run.std_error!r} vs {ref.std_error!r}")
    return problems


def check_rep(wl: Workload, rep: dict, seed: int, reference: dict) -> CheckResult:
    """All checks of one repetition's outputs (rep["out"], rep["exit_codes"])."""
    result = CheckResult()
    out = Path(rep["out"])
    for job, code in zip(wl.jobs, rep["exit_codes"]):
        ref_rows = reference[job.command]["rows"]
        n_checks = 2 + len(ref_rows)
        if code != 0:
            result.attempted += n_checks
            result.failed += n_checks
            result.messages.append(f"{job.command}: exit code {code}, all {n_checks} checks fail")
            continue
        result.add(True, f"{job.command}: exit code")
        manifest = out / f"{job.command}_manifest.json"
        try:
            listed = json.loads(manifest.read_text())["outputs"]
            missing = [f for f in listed if not (out / f).is_file()]
        except (OSError, ValueError, KeyError) as e:
            missing = [f"{manifest.name} ({e})"]
        result.add(not missing, f"{job.command}: missing outputs {missing}")
        csv = out / f"{job.command}.csv"
        try:
            run_rows = {r.key: r for r in parse_rows(csv.read_text())}
        except (OSError, ValueError) as e:
            run_rows = {}
            result.messages.append(f"{job.command}: unreadable table ({e})")
        for ref in ref_rows:
            run = run_rows.pop(ref.key, None)
            if run is None:
                result.add(False, f"{job.command}: row {ref.key} missing")
                continue
            problems = check_row(ref, run, job.config, seed)
            result.add(not problems, f"{job.command}: row {ref.key}: {'; '.join(problems)}")
        for key in run_rows:
            result.add(False, f"{job.command}: unexpected row {key}")
    return result


def rows_changed(wl: Workload, out: Path, seed: int, reference: dict) -> int:
    """CSV rows whose bytes differ from the reference table at the same seed."""
    changed = 0
    for job in wl.jobs:
        expected = reference[job.command]["digests"][str(seed)]
        csv = Path(out) / f"{job.command}.csv"
        lines = csv.read_text().splitlines()[1:] if csv.is_file() else []
        got = [row_digest(line) for line in lines]
        changed += sum(a != b for a, b in zip(got, expected)) + abs(len(got) - len(expected))
    return changed
