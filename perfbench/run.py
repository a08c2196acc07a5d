"""Planner benchmark: closed-loop workloads over the aapdeploy CLI.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verbs --seed 1 --seconds 30 --trace 0

The program is imported from the checkout's ``src/`` (no install step) and
``aapdeploy.cli.main`` is called in-process by a single client, one op at a
time.  Set-up time is measured first, in fresh interpreters, one at a time.
Then whole passes of the workload's op list run until ``--seconds`` is
used up; each op's outputs are checked after its clock stops.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics (see
``tracing.py``) plus the tracing overhead.  The last line of standard
output is the result as one JSON object; the lines before it are a human
summary and a ``{"detail": ...}`` line with the environment, per-op medians
and exit codes.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 5
# The end-to-end metrics every workload reports on the result line (the
# ones BENCHMARK.json gates); the per-op metrics are printed above it.
GATED_METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SETUP_TIMEOUT_S = 120

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import aapdeploy.cli
aapdeploy.cli.load_scenario(sys.argv[1])
elapsed = time.perf_counter() - start
print(aapdeploy.cli.__file__)
print(repr(elapsed))
"""


class BenchError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


def _under_src(module_file: str) -> bool:
    return Path(module_file).resolve().is_relative_to(SRC.resolve())


def import_program():
    """Import aapdeploy from this checkout's src/, never from elsewhere."""
    if not (SRC / "aapdeploy" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    sys.path.insert(0, str(SRC))
    import aapdeploy.cli
    from aapdeploy.scenario import builtin_scenario_path

    if not _under_src(aapdeploy.cli.__file__):
        raise BenchError(f"imported aapdeploy from {aapdeploy.cli.__file__}, not {SRC}")
    return aapdeploy.cli, builtin_scenario_path


def environment() -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def measure_setup(scenario: Path) -> float:
    """Seconds for import aapdeploy.cli + load_scenario in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(scenario)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise BenchError(f"set-up interpreter failed: {proc.stderr.strip()}")
    module_file, elapsed = proc.stdout.split()
    if not _under_src(module_file):
        raise BenchError(f"set-up interpreter imported {module_file}, not {SRC}")
    return float(elapsed)


@dataclass
class PassResult:
    op_s: list = field(default_factory=list)  # (metric, seconds) in op order
    attempted: int = 0
    failures: list = field(default_factory=list)
    exits: dict = field(default_factory=dict)
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return sum(seconds for _, seconds in self.op_s)


def run_pass(ops, main, tracer=None) -> PassResult:
    """Run one pass of ops, timing each call and checking its outputs."""
    result = PassResult(tracer=tracer)
    call = main if tracer is None else tracer.timed("cli", main)
    for op in ops:
        for name in op.outputs:
            with contextlib.suppress(FileNotFoundError):
                (op.out / name).unlink()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                rc = call(op.argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a raising op is a failed op, not a crash
                rc = f"{type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        result.attempted += 1
        result.op_s.append((op.metric, elapsed))
        result.exits[op.label] = rc
        problem = None
        if rc != op.expect_rc:
            problem = f"exit {rc!r}, expected {op.expect_rc}"
        elif op.check is not None:
            try:
                op.check(op.out, captured.getvalue())
            except Exception as exc:  # CheckFailed, or outputs missing/malformed
                problem = f"{type(exc).__name__}: {exc}"
        if problem is not None:
            result.failures.append(f"{op.label}: {problem}")
    return result


def run_passes(workload, main, seconds: float, trace: bool):
    """Whole passes (trace: untraced + traced pairs) until seconds are used.

    Another unit starts only while the run would end at most half a unit
    past the budget, so a run never overshoots by more than that.
    """
    plain, traced, units = [], [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        plain.append(run_pass(workload.next_pass(), main))
        if trace:
            with Tracer() as tracer:
                traced.append(run_pass(workload.next_pass(), main, tracer))
        units.append(time.perf_counter() - unit_start)
        if time.perf_counter() - start + statistics.fmean(units) / 2 > seconds:
            return plain, traced


def op_medians(passes) -> dict[str, float]:
    """Per metric, the sum over its ops of each op's median across passes.

    Taking the median op by op filters a slow spell that hits one op of a
    pass better than the median of whole-pass sums does."""
    sums: dict[str, float] = defaultdict(float)
    for position, (metric, _) in enumerate(passes[0].op_s):
        sums[metric] += statistics.median(p.op_s[position][1] for p in passes)
    sums["wall_s"] = sum(sums.values())
    return sums


def end_to_end(workload, plain, setup) -> dict:
    medians = op_medians(plain)
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s", "samples": len(setup)}
    }
    for name in ("wall_s",) + workload.metrics:
        metrics[name] = {"value": medians[name], "unit": "s", "samples": len(plain)}
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = {"value": peak_kb / 1024.0, "unit": "MB", "samples": 1}
    return metrics


def per_layer(plain, traced) -> tuple[dict, dict]:
    """Counts and ratios from the first traced pass (they repeat exactly for
    a seed); times as the median over traced passes."""
    first = traced[0].tracer.layer_metrics()
    metrics = {}
    for name, (value, unit) in first.items():
        if unit == "s":
            value = statistics.median(p.tracer.layer_metrics()[name][0] for p in traced)
        metrics[name] = {"value": value, "unit": unit}
    overhead = op_medians(traced)["wall_s"] - op_medians(plain)["wall_s"]
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    wall = traced[0].wall_s
    shares = {
        layer: seconds / wall
        for layer, seconds in sorted(
            traced[0].tracer.self_time_by_layer().items(), key=lambda kv: -kv[1]
        )
    }
    return metrics, shares


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    try:
        cli, builtin_path = import_program()
    except (BenchError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](work, random.Random(args.seed), builtin_path)
        try:
            setup = [measure_setup(workload.setup_scenario) for _ in range(SETUP_SAMPLES)]
        except (BenchError, subprocess.TimeoutExpired) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        plain, traced = run_passes(workload, cli.main, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    e2e = end_to_end(workload, plain, setup)
    print(
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} passes={len(plain)}+{len(traced)} ops={attempted} "
        f"failed={len(failures)}"
    )
    for name, m in e2e.items():
        print(f"  {name:<18} {m['value']:12.6g} {m['unit']:<3} (n={m['samples']})")
    for failure in failures:
        print(f"  FAILED {failure}")
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "env": environment(),
        "setup_s_samples": setup,
        "pass_wall_s": [p.wall_s for p in plain],
        "end_to_end": e2e,
        "exit_codes": plain[0].exits,
    }
    if args.trace:
        layers, shares = per_layer(plain, traced)
        detail["traced_pass_wall_s"] = [p.wall_s for p in traced]
        detail["self_time_share"] = shares
        print("  self-time share of the first traced pass:")
        for layer, share in shares.items():
            print(f"    {layer:<12} {share:7.1%}")
        for name, m in layers.items():
            print(f"  {name:<30} {m['value']:14.6g} {m['unit']}")
        metrics = layers
    else:
        metrics = {
            name: {"value": e2e[name]["value"], "unit": e2e[name]["unit"]}
            for name in GATED_METRICS
        }
    print(json.dumps({"detail": detail}))
    correct = not failures
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
