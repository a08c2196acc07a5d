"""Guards for the benchmark itself; not part of the program's test suite.

    python3 -m pytest perfbench -q     (about a minute: one traced pass per
                                        workload, plus a second verbs pass)
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

cli, builtin_path = run.import_program()


def traced_pass(name: str, seed: int, work: Path) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[name](work, random.Random(seed), builtin_path)
    with Tracer() as tracer:
        result = run.run_pass(workload.next_pass(), cli.main, tracer)
    assert result.failures == []
    return {name: value for name, (value, _unit) in tracer.layer_metrics().items()}


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    return {
        name: traced_pass(name, 7, tmp_path_factory.mktemp(name))
        for name in workloads.WORKLOADS
    }


def test_each_layer_is_seen_where_predicted(layers):
    assert layers["verbs"]["gee.eval_calls"] > 0
    assert layers["fleet"]["gee.eval_calls"] == 0
    assert layers["fleet"]["packing.pairs_checked"] > 0
    assert layers["oracle"]["montecarlo.trials"] > 0


def test_eval_calls_repeat_exactly_for_a_seed(layers, tmp_path):
    again = traced_pass("verbs", 7, tmp_path)
    assert again["gee.eval_calls"] == layers["verbs"]["gee.eval_calls"]


def test_tracer_restores_the_program():
    from aapdeploy import gee

    original = gee.gee_value
    with Tracer():
        assert gee.gee_value is not original
    assert gee.gee_value is original


def test_reported_metrics_match_benchmark_json(layers):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.GATED_METRICS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert per_layer == set(layers["verbs"]) | {"trace.overhead_s"}


def _write_plan(out: Path, r_a: float, centers) -> None:
    out.mkdir(parents=True, exist_ok=True)
    plan = {"area_radius_m": 100.0, "r_a_m": r_a, "total_aaps": len(centers)}
    (out / "plan.json").write_text(json.dumps(plan))
    rows = ["level,ring_radius_m,index_in_level,x_m,y_m"]
    rows += [f"1,100,{i},{x!r},{y!r}" for i, (x, y) in enumerate(centers)]
    (out / "centers.csv").write_text("\n".join(rows) + "\n")


def test_center_check_accepts_tangent_and_rejects_overlap(tmp_path):
    _write_plan(tmp_path, 10.0, [(-10.0, 0.0), (10.0, 0.0)])
    workloads.verify_centers(tmp_path, 10.0, 2, 0.0)
    _write_plan(tmp_path, 10.0, [(-9.99, 0.0), (10.0, 0.0)])
    with pytest.raises(workloads.CheckFailed, match="pairwise"):
        workloads.verify_centers(tmp_path, 10.0, 2, 0.0)
    _write_plan(tmp_path, 10.0, [(0.0, 90.5)])
    with pytest.raises(workloads.CheckFailed, match="containment"):
        workloads.verify_centers(tmp_path, 10.0, 1, 0.0)


def test_solution_check_is_a_tolerance_not_a_golden(tmp_path):
    reference, binding = workloads.SOLVE_REFERENCE["baseline"]
    check = workloads.check_solution("baseline")
    for gee, ok in ((reference * (1 + 1e-6), True), (reference * (1 - 1e-8), False)):
        (tmp_path / "solution.json").write_text(
            json.dumps({"gee_bits_per_j": gee, "binding_constraint": binding})
        )
        if ok:
            check(tmp_path, "")
        else:
            with pytest.raises(workloads.CheckFailed):
                check(tmp_path, "")


def test_fails_without_printing_when_the_program_is_absent(tmp_path):
    shutil.copytree(run.HERE, tmp_path / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "verbs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
