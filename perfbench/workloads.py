"""Workload definitions: the op list of one pass, and each op's output check.

Every workload is a closed loop with one client: the next op starts only
after the previous one returned.  A pass is the workload's fixed op list;
inputs that vary between passes (Monte-Carlo seeds, the fleet's coverage
radius) are drawn from the run's seeded generator, so no result can be
reused from an earlier call, while the same ``--seed`` gives the same
inputs.

* ``verbs``  - all six verbs on both built-in scenarios as shipped: the
  paper's (h, delta) question as users run it.  Dominated by the GEE grid
  search; the control for packing and Monte-Carlo changes.
* ``fleet``  - ``place --ra`` and ``density-sweep --ra`` on a generated
  scenario at R/R_a of about 10, 30, 60 and 80 (75 to 5,005 AAPs).
  Dominated by the pairwise verifier; bypasses the GEE solver, so it is the
  control for solver changes.
* ``oracle`` - ``validate --trials 10000`` on both built-ins over a few
  seeds.  Dominated by the Monte-Carlo oracle and its quadrature.
"""

from __future__ import annotations

import csv
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BUILTINS = ("baseline", "no_vehicle_energy")

# Reference outputs of the built-in scenarios, checked by tolerance so that
# changes in the last digits (phi_opt 21.249999999999964 -> 21.25) pass.
SOLVE_REFERENCE = {
    "baseline": (12252.943560297776, "min_altitude"),
    "no_vehicle_energy": (886378.3202621555, "interior"),
}
GEE_REL_TOL = 1e-9
ALTITUDE_SWEEP_ROWS = {"baseline": 858, "no_vehicle_energy": 286}
THRESHOLD_SWEEP_ROWS = {"baseline": 221, "no_vehicle_energy": 221}
# Baseline placement: the solved R_a, and AAP counts that may not drop.
BASELINE_R_A = 38.57243600987305
BASELINE_PLACE_AAPS = 15
BASELINE_DENSITY_SWEEP_AAPS = (15, 32)
R_A_REL_TOL = 1e-6
# On no_vehicle_energy R_a = 453.117 m exceeds R = 180.48 m, so both
# placement verbs correctly exit 1 (infeasible).
EXIT_INFEASIBLE = 1

# Fleet scenario: one target radius for place and two for density-sweep,
# giving R/R_a of about 80 and 10 (place) and 30 and 60 (density-sweep).
# The largest case is R/R_a = 80 (5,005 AAPs), not 100 (7,828): at 100 one
# verify call takes 12-19 s, so only two passes fit in a run and the
# run-to-run spread of wall_s reached 0.2 on a shared 2-core host.
FLEET_AREA_RADIUS_M = 1000.0
FLEET_RATIOS = (80.0, 10.0)
FLEET_SWEEP_RADII_M = (30.0 * 1000.0 / 80.0, 60.0 * 1000.0 / 80.0)
FLEET_JITTER = 5e-4  # relative r_a jitter; keeps AAP counts near-constant
FLEET_MIN_DENSITY = 0.7

ORACLE_TRIALS = 10000
ORACLE_SEEDS_PER_PASS = 3


class CheckFailed(Exception):
    """An op's output failed the benchmark's correctness check."""


@dataclass
class Op:
    """One CLI invocation, the end-to-end metric it counts toward, its
    expected exit code and the check run on its outputs after it returns."""

    metric: str
    label: str
    argv: list[str]
    out: Path
    expect_rc: int
    outputs: tuple[str, ...]
    check: Callable[[Path, str], None] | None = None


# -- readers and checks -----------------------------------------------------


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def check_solution(name: str) -> Callable[[Path, str], None]:
    reference_gee, binding = SOLVE_REFERENCE[name]

    def check(out: Path, stdout: str) -> None:
        sol = json.loads((out / "solution.json").read_text())
        gee = sol["gee_bits_per_j"]
        _require(
            gee >= reference_gee * (1.0 - GEE_REL_TOL),
            f"{name}: GEE {gee!r} below reference {reference_gee!r}",
        )
        _require(
            sol["binding_constraint"] == binding,
            f"{name}: binding {sol['binding_constraint']!r} != {binding!r}",
        )

    return check


def check_sweep(filename: str, rows: int, gee_column: str) -> Callable[[Path, str], None]:
    def check(out: Path, stdout: str) -> None:
        table = _rows(out / filename)
        _require(len(table) == rows, f"{filename}: {len(table)} rows, expected {rows}")
        values = [float(row[gee_column]) for row in table]
        _require(
            all(math.isfinite(v) and v > 0.0 for v in values),
            f"{filename}: non-finite or non-positive GEE",
        )

    return check


def verify_centers(out: Path, r_a: float | None, min_aaps: int, min_density: float) -> None:
    """Re-check a plan from centers.csv: pairwise separation >= 2 r_a and
    containment in both the target disk and each level's own ring."""
    plan = json.loads((out / "plan.json").read_text())
    area_radius, plan_r_a = plan["area_radius_m"], plan["r_a_m"]
    if r_a is not None:
        _require(
            abs(plan_r_a - r_a) <= R_A_REL_TOL * r_a,
            f"plan r_a {plan_r_a!r} != requested {r_a!r}",
        )
    table = np.loadtxt(out / "centers.csv", delimiter=",", skiprows=1, ndmin=2)
    n = len(table)
    _require(n == plan["total_aaps"], f"centers.csv has {n} rows, plan says {plan['total_aaps']}")
    _require(n >= min_aaps, f"{n} AAPs, expected at least {min_aaps}")
    density = n * plan_r_a**2 / area_radius**2
    _require(density >= min_density, f"packing density {density:.4f} < {min_density}")

    # centers.csv holds 12 significant digits: allow for that rounding.
    tol = 1e-9 * plan_r_a + 1e-11 * area_radius
    ring, xy = table[:, 1], table[:, 3:5]
    norm = np.hypot(xy[:, 0], xy[:, 1])
    worst_contain = min(np.min(area_radius - norm - plan_r_a), np.min(ring - norm - plan_r_a))
    _require(worst_contain >= -tol, f"containment violated by {-worst_contain:.3e} m")

    worst_pair = math.inf
    block = 64  # keeps the checker's memory well below the program's
    for start in range(0, n - 1, block):
        a = xy[start : start + block]
        b = xy[start + 1 :]
        d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
        # Row i of the block pairs with b[i:], i.e. the centres after it.
        mask = np.arange(len(b))[None, :] >= np.arange(len(a))[:, None]
        worst_pair = min(worst_pair, float(np.min(d, where=mask, initial=math.inf)))
    if n > 1:
        margin = worst_pair - 2.0 * plan_r_a
        _require(margin >= -tol, f"pairwise separation violated by {-margin:.3e} m")


def check_place(r_a: float | None, min_aaps: int, min_density: float):
    return lambda out, stdout: verify_centers(out, r_a, min_aaps, min_density)


def check_density_sweep(r_a: float, radii, min_aaps, min_density: float):
    def check(out: Path, stdout: str) -> None:
        table = _rows(out / "density_sweep.csv")
        _require(len(table) == len(radii), f"density_sweep.csv: {len(table)} rows")
        for row, radius, floor in zip(table, radii, min_aaps):
            total = int(row["total_aaps"])
            density = float(row["packing_density"])
            _require(
                abs(float(row["area_radius_m"]) - radius) <= 1e-9 * radius
                and abs(float(row["r_a_m"]) - r_a) <= R_A_REL_TOL * r_a,
                f"density_sweep.csv: unexpected radii in {row}",
            )
            _require(total >= floor, f"density_sweep.csv: {total} AAPs < {floor}")
            _require(
                abs(density - total * r_a**2 / radius**2) <= 1e-6 * density
                and density >= min_density,
                f"density_sweep.csv: density {density} inconsistent or < {min_density}",
            )

    return check


def check_validate(out: Path, stdout: str) -> None:
    _require("[PASS]" in stdout, "validate printed no PASS line")
    _require("[FAIL]" not in stdout, "validate printed FAIL")


# -- workloads --------------------------------------------------------------


def make_op(metric, label, scenario: Path, out: Path, args, expect_rc=0, outputs=(), check=None) -> Op:
    argv = ["--scenario", str(scenario), "--out", str(out), *args]
    return Op(metric, label, argv, out, expect_rc, tuple(outputs), check)


def _draw_seed(rng: random.Random) -> int:
    return rng.randrange(2**31)


class Workload:
    """Builds the op list of each pass; subclasses define one workload."""

    name = ""
    #: the end-to-end op metrics this workload reports, in print order
    metrics: tuple[str, ...] = ()

    def __init__(self, work: Path, rng: random.Random, builtin_path) -> None:
        self.work = work
        self.rng = rng
        self.builtin = {name: Path(builtin_path(name)) for name in BUILTINS}
        #: scenario loaded by the set-up measurement
        self.setup_scenario = self.builtin["baseline"]

    def next_pass(self) -> list[Op]:
        raise NotImplementedError


class Verbs(Workload):
    name = "verbs"
    metrics = (
        "solve_pinned_s",
        "solve_fallback_s",
        "place_s",
        "density_sweep_s",
        "sweep_s",
        "validate_s",
    )

    def next_pass(self) -> list[Op]:
        seed = _draw_seed(self.rng)
        ops = []
        for name in BUILTINS:
            scn, out = self.builtin[name], self.work / name
            baseline = name == "baseline"
            place_rc = 0 if baseline else EXIT_INFEASIBLE
            ops += [
                make_op(
                    "solve_pinned_s" if baseline else "solve_fallback_s",
                    f"{name} solve", scn, out, ["solve"],
                    outputs=["solution.json"], check=check_solution(name),
                ),
                make_op(
                    "place_s", f"{name} place", scn, out, ["place"], place_rc,
                    ["plan.json", "centers.csv"],
                    check_place(BASELINE_R_A, BASELINE_PLACE_AAPS, 0.0) if baseline else None,
                ),
                make_op(
                    "density_sweep_s", f"{name} density-sweep", scn, out, ["density-sweep"],
                    place_rc, ["density_sweep.csv"],
                    check_density_sweep(
                        BASELINE_R_A, (180.48, 252.68), BASELINE_DENSITY_SWEEP_AAPS, 0.0
                    )
                    if baseline
                    else None,
                ),
                make_op(
                    "sweep_s", f"{name} altitude-sweep", scn, out, ["altitude-sweep"],
                    outputs=["altitude_sweep.csv"],
                    check=check_sweep("altitude_sweep.csv", ALTITUDE_SWEEP_ROWS[name], "gee_bits_per_j"),
                ),
                make_op(
                    "sweep_s", f"{name} threshold-sweep", scn, out, ["threshold-sweep"],
                    outputs=["threshold_sweep.csv"],
                    check=check_sweep("threshold_sweep.csv", THRESHOLD_SWEEP_ROWS[name], "gee_bits_per_j"),
                ),
                make_op(
                    "validate_s", f"{name} validate", scn, out,
                    ["--seed", str(seed), "validate"], check=check_validate,
                ),
            ]
        return ops


FLEET_SCENARIO_KEYS = {
    "area_radius_m": f"{FLEET_AREA_RADIUS_M:g}",
    "area_radius_list_m": ", ".join(f"{r:g}" for r in FLEET_SWEEP_RADII_M),
}


def fleet_scenario_text(baseline_text: str) -> str:
    """The shipped baseline with the fleet's target radii substituted."""
    text = baseline_text
    for key, value in FLEET_SCENARIO_KEYS.items():
        text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if count != 1:
            raise ValueError(f"baseline scenario has no unique {key!r} line")
    return text


class Fleet(Workload):
    name = "fleet"
    metrics = ("place_s", "density_sweep_s")

    def __init__(self, work, rng, builtin_path) -> None:
        super().__init__(work, rng, builtin_path)
        self.scenario = work / "fleet.ini"
        self.scenario.write_text(fleet_scenario_text(self.builtin["baseline"].read_text()))
        self.setup_scenario = self.scenario

    def _jittered(self, ratio: float) -> float:
        return FLEET_AREA_RADIUS_M / ratio * (1.0 + self.rng.uniform(-FLEET_JITTER, FLEET_JITTER))

    def next_pass(self) -> list[Op]:
        out = self.work / "fleet"
        ops = []
        for ratio in FLEET_RATIOS:
            r_a = self._jittered(ratio)
            ops.append(
                make_op(
                    "place_s", f"fleet place R/R_a={ratio:g}", self.scenario, out,
                    ["--ra", repr(r_a), "place"], 0, ["plan.json", "centers.csv"],
                    check_place(r_a, 1, FLEET_MIN_DENSITY),
                )
            )
        r_a = self._jittered(FLEET_RATIOS[0])
        ops.append(
            make_op(
                "density_sweep_s", "fleet density-sweep R/R_a=30,60", self.scenario, out,
                ["--ra", repr(r_a), "density-sweep"], 0, ["density_sweep.csv"],
                check_density_sweep(r_a, FLEET_SWEEP_RADII_M, (1, 1), FLEET_MIN_DENSITY),
            )
        )
        return ops


class Oracle(Workload):
    name = "oracle"
    metrics = ("validate_s",)

    def next_pass(self) -> list[Op]:
        ops = []
        for _ in range(ORACLE_SEEDS_PER_PASS):
            seed = _draw_seed(self.rng)
            for name in BUILTINS:
                ops.append(
                    make_op(
                        "validate_s", f"{name} validate --trials {ORACLE_TRIALS}",
                        self.builtin[name], self.work / name,
                        ["--trials", str(ORACLE_TRIALS), "--seed", str(seed), "validate"],
                        check=check_validate,
                    )
                )
        return ops


WORKLOADS = {cls.name: cls for cls in (Verbs, Fleet, Oracle)}
