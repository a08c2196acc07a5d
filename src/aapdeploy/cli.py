"""Scenario-driven command-line frontend.

Verbs: altitude-sweep | threshold-sweep | solve | place | density-sweep |
validate.  Sweep commands emit CSV, solve/place emit JSON (+ a centres CSV);
validate runs the Monte-Carlo oracle suite.  Exit codes: 0 success,
1 infeasible scenario, 2 configuration error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import channel, energy, gee, montecarlo, packing, uplink
from .errors import ConfigError, InfeasibleError, PlannerError
from .io_utils import write_csv_atomic, write_json_atomic
from .params import UavEnergyParams
from .scenario import Scenario, load_scenario

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_CONFIG = 2
EXIT_VALIDATION = 3

# Reported reference densities for two specific target radii.  The cell
# radius behind these figures is not stated, so they are indicative targets
# only, never acceptance values.
REFERENCE_DENSITIES = {180.48: 0.7896, 252.68: 0.6844}

ALTITUDE_SWEEP_COLUMNS = [
    "gamma",
    "h_m",
    "delta",
    "gee_bits_per_j",
    "sum_rate_bps",
    "energy_total_j",
    "energy_uav_j",
    "sum_power_w",
    "gee_ea_zero_bits_per_j",
    "energy_total_ea_zero_j",
]

THRESHOLD_SWEEP_COLUMNS = [
    "phi_deg",
    "delta",
    "gee_bits_per_j",
    "r_a_m",
    "n_ue",
    "gee_ea_zero_bits_per_j",
]

DENSITY_SWEEP_COLUMNS = [
    "area_radius_m",
    "r_a_m",
    "total_aaps",
    "packing_density",
    "level_counts",
    "reference_density",
]

CENTERS_COLUMNS = ["level", "ring_radius_m", "index_in_level", "x_m", "y_m"]


def altitude_sweep_rows(scn: Scenario) -> list[list]:
    """One row per (gamma, h); each gamma's altitude grid is one array call."""
    rows = []
    delta = scn.sweeps.delta
    phi = channel.phi_from_delta(delta, scn.environment)
    zero_uav = UavEnergyParams.zero()
    h_list = scn.sweeps.altitude_grid()
    h = np.array(h_list)
    for gamma in scn.sweeps.gamma_list:
        sys_g = scn.system.with_gamma(gamma)
        rate = uplink.sum_rate(h, phi, sys_g, scn.environment)
        power = uplink.expected_sum_power_closed_form(h, phi, sys_g, scn.environment)
        e_uav = energy.uav_only_energy(h, sys_g, scn.uav)
        e_total = energy.total_energy(h, power, sys_g, scn.uav)
        e_total_zero = energy.total_energy(h, power, sys_g, zero_uav)
        columns = (
            sys_g.service_time_t * rate / e_total,
            rate,
            e_total,
            e_uav,
            power,
            sys_g.service_time_t * rate / e_total_zero,
            e_total_zero,
        )
        rows.extend(
            [gamma, h_m, delta, *values]
            for h_m, *values in zip(h_list, *(c.tolist() for c in columns))
        )
    return rows


def cmd_altitude_sweep(scn: Scenario, out_dir: Path) -> int:
    write_csv_atomic(
        out_dir / "altitude_sweep.csv", ALTITUDE_SWEEP_COLUMNS, altitude_sweep_rows(scn)
    )
    print(f"wrote {out_dir / 'altitude_sweep.csv'}")
    return EXIT_OK


def threshold_sweep_rows(scn: Scenario) -> list[list]:
    rows = []
    h = scn.system.h_min
    zero_uav = UavEnergyParams.zero()
    for phi in scn.sweeps.phi_grid():
        r_a = channel.coverage_radius(h, phi, scn.environment)
        if r_a <= 0.0:
            continue
        rows.append(
            [
                phi,
                float(channel.los_probability(phi, scn.environment)),
                gee.gee_value(h, phi, scn.system, scn.environment, scn.uav),
                r_a,
                uplink.cell_ue_count(r_a, scn.system),
                gee.gee_value(h, phi, scn.system, scn.environment, zero_uav),
            ]
        )
    return rows


def cmd_threshold_sweep(scn: Scenario, out_dir: Path) -> int:
    write_csv_atomic(
        out_dir / "threshold_sweep.csv",
        THRESHOLD_SWEEP_COLUMNS,
        threshold_sweep_rows(scn),
    )
    print(f"wrote {out_dir / 'threshold_sweep.csv'}")
    return EXIT_OK


def solution_to_dict(solution: gee.DeploymentSolution) -> dict:
    return {
        "h_opt_m": solution.h_opt,
        "delta_opt": solution.delta_opt,
        "phi_opt_deg": solution.phi_opt_deg,
        "r_a_m": solution.r_a,
        "gee_bits_per_j": solution.gee,
        "binding_constraint": solution.binding_constraint.value,
        "monotone_audit_passed": solution.monotone_audit_passed,
    }


def solve_scenario(scn: Scenario) -> gee.DeploymentSolution:
    """Solve P1 on the scenario's threshold grid; the one solve path shared
    by solve, place and density-sweep."""
    return gee.solve_p1(scn.system, scn.environment, scn.uav, scn.sweeps.phi_grid())


def cmd_solve(scn: Scenario, out_dir: Path) -> int:
    solution = solve_scenario(scn)
    write_json_atomic(out_dir / "solution.json", solution_to_dict(solution))
    print(f"wrote {out_dir / 'solution.json'}")
    print(
        f"h_opt={solution.h_opt:g} m  phi_opt={solution.phi_opt_deg:g} deg  "
        f"R_a={solution.r_a:g} m  GEE={solution.gee:g} bit/J  "
        f"binding={solution.binding_constraint.value}  "
        f"audit_passed={solution.monotone_audit_passed}"
    )
    return EXIT_OK


def plan_to_dict(plan: packing.PlacementPlan) -> dict:
    return {
        "r_a_m": plan.r_a,
        "area_radius_m": plan.area_radius,
        "total_aaps": plan.total_aaps,
        "packing_density": plan.packing_density,
        "levels": [
            {
                "index": level.index,
                "ring_radius_m": level.ring_radius,
                "count": level.count,
                "center_radius_m": level.center_radius,
                "centers": [list(c) for c in level.centers],
                "area_count_bound": level.area_count_bound,
                "geometric_count_bound": level.geometric_count_bound,
            }
            for level in plan.levels
        ],
        "feasibility": asdict(plan.feasibility),
    }


def cmd_place(scn: Scenario, out_dir: Path, r_a_override: float | None) -> int:
    r_a = r_a_override if r_a_override is not None else solve_scenario(scn).r_a
    plan = packing.run_algorithm1(scn.system.area_radius_r, r_a)
    write_json_atomic(out_dir / "plan.json", plan_to_dict(plan))
    centers_rows = [
        [level.index, level.ring_radius, m, c[0], c[1]]
        for level in plan.levels
        for m, c in enumerate(level.centers)
    ]
    write_csv_atomic(out_dir / "centers.csv", CENTERS_COLUMNS, centers_rows)
    print(f"wrote {out_dir / 'plan.json'} and {out_dir / 'centers.csv'}")
    print(
        f"R={scn.system.area_radius_r:g} m  R_a={r_a:g} m  "
        f"levels={[level.count for level in plan.levels]}  "
        f"density={plan.packing_density:.4f}  "
        f"feasible={plan.feasibility.all_ok}"
    )
    return EXIT_OK


def density_sweep_rows(scn: Scenario, r_a: float) -> list[list]:
    rows = []
    for area_radius in scn.sweeps.area_radius_list:
        plan = packing.run_algorithm1(area_radius, r_a)
        if not plan.feasibility.all_ok:
            raise InfeasibleError(
                f"plan for R={area_radius:g} m failed feasibility checks"
            )
        reference = ""
        for ref_radius, ref_density in REFERENCE_DENSITIES.items():
            if abs(area_radius - ref_radius) < 1e-6:
                reference = ref_density
        rows.append(
            [
                area_radius,
                r_a,
                plan.total_aaps,
                plan.packing_density,
                ";".join(str(level.count) for level in plan.levels),
                reference,
            ]
        )
    return rows


def cmd_density_sweep(scn: Scenario, out_dir: Path, r_a_override: float | None) -> int:
    r_a = r_a_override if r_a_override is not None else solve_scenario(scn).r_a
    rows = density_sweep_rows(scn, r_a)
    write_csv_atomic(out_dir / "density_sweep.csv", DENSITY_SWEEP_COLUMNS, rows)
    print(f"wrote {out_dir / 'density_sweep.csv'}")
    if any(row[5] != "" for row in rows):
        print(
            "note: reference_density values come from a reported deployment "
            "whose cell radius is unstated; they are indicative only and not "
            "reconstructible exactly from this algorithm."
        )
    return EXIT_OK


def validation_checks(scn: Scenario, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run the oracle suite; returns (name, passed, detail) triples."""
    checks: list[tuple[str, bool, str]] = []
    env, sys_p = scn.environment, scn.system
    h, phi = sys_p.h_min, channel.phi_from_delta(scn.sweeps.delta, env)

    worst = 0.0
    for n in range(3, 51):
        lhs = n * packing.prop2_bracket(n)
        rhs = n * (math.pi + packing.void_edge(n) + packing.void_center(n))
        worst = max(worst, abs(lhs - rhs))
    checks.append(("void-algebra identity n in [3,50]", worst < 1e-12, f"worst |diff|={worst:.3e}"))

    worst = 0.0
    for d in np.linspace(0.2, 0.999, 25):
        phi_d = channel.phi_from_delta(float(d), env)
        worst = max(worst, abs(float(channel.los_probability(phi_d, env)) - float(d)))
    checks.append(("LoS threshold inversion round-trip", worst < 1e-9, f"worst |diff|={worst:.3e}"))

    closed = uplink.expected_sum_power_closed_form(h, phi, sys_p, env)
    edge_quad = uplink.expected_sum_power_edge_quadrature(h, phi, sys_p, env)
    rel = abs(closed - edge_quad) / closed
    checks.append(("closed form vs edge-frozen quadrature", rel < 1e-9, f"rel diff={rel:.3e}"))

    exact = uplink.expected_sum_power_exact(h, phi, sys_p, env)
    checks.append(
        (
            "exact sum power bounded by closed form",
            exact <= closed * (1.0 + 1e-12),
            f"exact={exact:.6e} W closed={closed:.6e} W",
        )
    )

    empirical = montecarlo.mean_sum_power(h, phi, sys_p, env, trials, seed).uncapped
    rel = abs(empirical - exact) / exact
    checks.append(
        (
            f"Monte-Carlo mean over {trials} trials vs quadrature",
            rel < 0.03,
            f"rel diff={rel:.3e}",
        )
    )

    repeat = montecarlo.mean_sum_power(h, phi, sys_p, env, min(trials, 100), seed)
    repeat2 = montecarlo.mean_sum_power(h, phi, sys_p, env, min(trials, 100), seed)
    checks.append(("seeded determinism", repeat == repeat2, "bit-exact re-run"))
    return checks


def cmd_validate(scn: Scenario, trials: int, seed: int) -> int:
    checks = validation_checks(scn, trials, seed)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if failed:
        print(f"{len(failed)} validation check(s) failed")
        return EXIT_VALIDATION
    print("all validation checks passed")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aapdeploy",
        description="Energy-efficient 3D deployment planner for aerial access points",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", default=None, help="output directory override")
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--trials", type=int, default=1000, help="Monte-Carlo trial count"
    )
    parser.add_argument(
        "--ra", type=float, default=None, help="coverage radius override (m)"
    )
    parser.add_argument(
        "command",
        choices=[
            "altitude-sweep",
            "threshold-sweep",
            "solve",
            "place",
            "density-sweep",
            "validate",
        ],
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.trials < 1:
            raise ConfigError(f"--trials must be at least 1, got {args.trials}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.ra is not None and not (math.isfinite(args.ra) and args.ra > 0):
            raise ConfigError(f"--ra must be a positive finite radius, got {args.ra}")
        scn = load_scenario(args.scenario)
        out_dir = Path(args.out) if args.out is not None else scn.output_dir
        if args.command == "altitude-sweep":
            return cmd_altitude_sweep(scn, out_dir)
        if args.command == "threshold-sweep":
            return cmd_threshold_sweep(scn, out_dir)
        if args.command == "solve":
            return cmd_solve(scn, out_dir)
        if args.command == "place":
            return cmd_place(scn, out_dir, args.ra)
        if args.command == "density-sweep":
            return cmd_density_sweep(scn, out_dir, args.ra)
        if args.command == "validate":
            return cmd_validate(scn, args.trials, args.seed)
        raise AssertionError(f"unhandled command {args.command}")
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InfeasibleError as exc:
        print(f"infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except PlannerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    raise SystemExit(main())
