"""Tests of the benchmark itself:  python3 -m pytest perfbench/tests"""
import json
import shutil
from pathlib import Path

import pytest

import calib
import check
import run
import spans
from workloads import REFERENCE_SEED, WORKLOADS

from lagpc import channel, cli, design_slow
from lagpc.channel import ChannelStats, PowerConfig

ROOT = Path(__file__).resolve().parents[2]


def test_self_time_on_hand_built_tree():
    tree = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, None],
        ["b", 3.0, 6.0, 0, None],  # overlaps a: the union is counted once
        ["c", 2.0, 3.0, 1, None],
        ["d", 8.0, 12.0, 0, None],  # runs past its parent: clipped
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 3.0, 1.0, 4.0])


def test_scale_on_hand_built_ticks():
    ticks = [(1.0, 1.1, 4.0), (2.0, 2.05, None), (3.0, 3.1, 2.0), (9.5, 9.6, 6.0)]
    assert calib.scale(0.5, 4.0, ticks) == pytest.approx((3.25, 3.0))  # the skipped tick costs time too
    assert calib.scale(5.0, 9.0, ticks, fallback=2.0) == pytest.approx((4.0, 2.0))  # no unit ran
    assert calib.scale(9.0, 9.55, ticks) == pytest.approx((0.5, 6.0))  # a tick running past the end is clipped


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_configs_validate(name):
    for job in WORKLOADS[name].jobs:
        cli.validate_config(job.command, job.config)


def _reference_outputs(tmp_path, name):
    """The recorded reference tables laid out as a CLI run would leave them."""
    wl = WORKLOADS[name]
    for job in wl.jobs:
        src = check.HERE / "reference" / name / f"{job.command}.csv"
        shutil.copy(src, tmp_path / src.name)
        manifest = {"outputs": [src.name]}
        (tmp_path / f"{job.command}_manifest.json").write_text(json.dumps(manifest))
    return wl, {"out": tmp_path, "exit_codes": [0] * len(wl.jobs)}


def _tamper(path, metric, column, factor):
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines):
        fields = line.split(",")
        if fields[2] == metric:
            fields[column] = repr(float(fields[column]) * factor)
            lines[i] = ",".join(fields)
            break
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize(
    "name, stem, metric, column, factor",
    [
        ("ergodic-sweep", "reproduce-figure", "cr_ergodic_rate", 3, 1.2),  # Monte Carlo value
        ("design-map", "design-slow", "surrogate_outage", 5, 1 + 1e-8),  # designed alpha1
        ("lattice-codec", "lattice-sim", "theory_outage", 3, 1.5),  # binomial estimate
    ],
)
def test_checker_flags_tampered_value(tmp_path, name, stem, metric, column, factor):
    wl, rep = _reference_outputs(tmp_path, name)
    reference = check.load_reference(name)
    clean = check.check_rep(wl, rep, REFERENCE_SEED, reference)
    assert clean.failed == 0 and clean.attempted > 2
    assert check.rows_changed(wl, tmp_path, REFERENCE_SEED, reference) == 0
    _tamper(tmp_path / f"{stem}.csv", metric, column, factor)
    tampered = check.check_rep(wl, rep, REFERENCE_SEED, reference)
    assert tampered.failed == 1 and tampered.attempted == clean.attempted
    assert check.rows_changed(wl, tmp_path, REFERENCE_SEED, reference) == 1


def test_failed_job_fails_all_its_checks(tmp_path):
    wl, rep = _reference_outputs(tmp_path, "ergodic-sweep")
    result = check.check_rep(wl, {**rep, "exit_codes": [3]}, REFERENCE_SEED, check.load_reference(wl.name))
    assert result.failed == result.attempted > 2


def test_traced_call_is_bit_identical_and_restored():
    stats, pw = ChannelStats.from_k_factor(10.0), PowerConfig(10.0, 10.0)
    original = design_slow.build_matrices
    plain = design_slow.design(stats, pw, 2.0, 0.01, 1.0)
    rec = spans.Recorder()
    patch = spans.install(rec)
    try:
        assert design_slow.build_matrices is not original
        traced = design_slow.design(stats, pw, 2.0, 0.01, 1.0)
    finally:
        patch.restore()
    assert traced == plain
    assert design_slow.build_matrices is original is channel.build_matrices
    m = spans.layer_metrics(rec)
    assert m["design_slow.ratio_evals"] > 200 and m["design_slow.surrogate_evals"] > 0
    assert m["channel.build_matrices.calls"] >= m["design_slow.surrogate_evals"]
    assert m["quadform.domain_errors"] >= m["design_slow.surrogate_fallbacks"]


def test_benchmark_json_matches_the_code():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END_UNITS.items())
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
