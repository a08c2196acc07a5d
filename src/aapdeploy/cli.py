"""Scenario-driven command-line frontend.

Verbs: altitude-sweep | threshold-sweep | solve | place | density-sweep |
validate.  Sweep commands emit CSV, solve/place emit JSON (+ a centres CSV);
validate runs the Monte-Carlo oracle suite.  Exit codes: 0 success,
1 infeasible scenario, 2 configuration error, 3 validation failure (a
failed oracle check, or a plan that fails its own verification).  The
verbs read the grids and delta's angle that ``load_scenario`` resolved.

``place`` writes each AAP centre once, to the centres CSV: ``plan.json``
keeps each level's count n and centre radius c, which fix centre m as
(c cos(2 pi m / n), c sin(2 pi m / n)).  Every CSV table goes to the writer
as one mapping from column name to cells, the centres' straight from the
plan's arrays.  Verbs run with numpy's overflow, division by zero and
invalid operations raised, so scenario values that take a result beyond the
floating-point range exit 2 instead of writing a NaN or an infinity.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import asdict, replace
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

# Most Monte-Carlo trials validate runs, 100 times perfbench's oracle at 10^4.
# Each trial's sum is kept as a Python float and its UE count as a Python int
# in a list, then in 8 B, so 10^9 trials would hold 40-76 GB.
MAX_TRIALS = 10**6

# Reported reference densities for two specific target radii.  The cell
# radius behind these figures is not stated, so they are indicative targets
# only, never acceptance values.
REFERENCE_DENSITIES = {180.48: 0.7896, 252.68: 0.6844}


def altitude_sweep_table(scn: Scenario) -> dict[str, list]:
    """One row per (gamma, h): each gamma's altitude grid is one array call
    per column, and both GEE columns come from ``gee.gee_value``."""
    delta, phi, env = scn.sweeps.delta, scn.phi_deg, scn.environment
    zero_uav = UavEnergyParams.zero()
    h = np.array(scn.altitudes)
    table: dict[str, list] = {}
    for gamma in scn.sweeps.gamma_list:
        sys_g = replace(scn.system, gamma=gamma)
        power = uplink.expected_sum_power_closed_form(h, phi, sys_g, env)
        block = {
            "gamma": gamma,
            "h_m": h,
            "delta": delta,
            "gee_bits_per_j": gee.gee_value(h, phi, sys_g, env, scn.uav),
            "sum_rate_bps": uplink.sum_rate(h, phi, sys_g),
            "energy_total_j": energy.total_energy(h, power, sys_g, scn.uav),
            "energy_uav_j": energy.uav_only_energy(h, sys_g, scn.uav),
            "sum_power_w": power,
            "gee_ea_zero_bits_per_j": gee.gee_value(h, phi, sys_g, env, zero_uav),
            "energy_total_ea_zero_j": energy.total_energy(h, power, sys_g, zero_uav),
        }
        for name, cells in block.items():
            table.setdefault(name, []).extend(np.broadcast_to(cells, h.shape).tolist())
    return table


def threshold_sweep_table(scn: Scenario) -> dict[str, list]:
    """One row per non-degenerate threshold at h_min, from two GEE array
    calls over the thresholds.  ``h_ceiling_m`` is the altitude ceiling the
    solver uses, min(h_max, h'_max(phi)): a row whose ceiling lies below
    h_min is a threshold that ``solve`` rejects as infeasible."""
    h = scn.system.h_min_m
    phis = np.array(scn.phis_deg)
    r_a = channel.coverage_radius(h, phis)
    covered = r_a > 0.0
    phis, r_a = phis[covered], r_a[covered]
    env, zero_uav = scn.environment, UavEnergyParams.zero()
    columns = {
        "phi_deg": phis,
        "delta": channel.los_probability(phis, env),
        "gee_bits_per_j": gee.gee_value(h, phis, scn.system, env, scn.uav),
        "r_a_m": r_a,
        "n_ue": uplink.cell_ue_count(r_a, scn.system),
        "gee_ea_zero_bits_per_j": gee.gee_value(h, phis, scn.system, env, zero_uav),
        "h_ceiling_m": gee.altitude_ceiling(phis, scn.system, env),
    }
    return {name: column.tolist() for name, column in columns.items()}


def write_table(args: argparse.Namespace, name: str, table: dict[str, list]) -> int:
    """Write ``table`` to the CSV file ``name`` under --out and say so."""
    path = args.out / name
    write_csv_atomic(path, table)
    print(f"wrote {path}")
    return EXIT_OK


def solve_scenario(scn: Scenario) -> gee.DeploymentSolution:
    """The one solve path shared by solve, place and density-sweep: P1 on the scenario's grids."""
    return gee.solve_p1(scn.system, scn.environment, scn.uav, scn.phis_deg, scn.altitudes)


def cmd_solve(scn: Scenario, args: argparse.Namespace) -> int:
    solution = solve_scenario(scn)
    write_json_atomic(args.out / "solution.json", asdict(solution))
    print(f"wrote {args.out / 'solution.json'}")
    print(
        f"h_opt={solution.h_opt_m:g} m  phi_opt={solution.phi_opt_deg:g} deg  "
        f"R_a={solution.r_a_m:g} m  GEE={solution.gee_bits_per_j:g} bit/J  "
        f"binding={solution.binding_constraint.value}  "
        f"audit_passed={solution.monotone_audit_passed}"
    )
    return EXIT_OK


def plan_to_dict(plan: packing.PlacementPlan) -> dict:
    """``plan.json``: each key is the attribute of the same name."""
    return {
        "r_a_m": plan.r_a_m,
        "area_radius_m": plan.area_radius_m,
        "total_aaps": plan.total_aaps,
        "packing_density": plan.packing_density,
        "levels": [
            {
                "index": level.index,
                "ring_radius_m": level.ring_radius_m,
                "count": level.count,
                "center_radius_m": level.center_radius_m,
                "area_count_bound": level.area_count_bound,
                "geometric_count_bound": level.geometric_count_bound,
            }
            for level in plan.levels
        ],
        "feasibility": asdict(plan.feasibility),
    }


def placement_radius(scn: Scenario, args: argparse.Namespace) -> float:
    """The --ra override, or the coverage radius that ``solve`` finds."""
    return args.ra if args.ra is not None else solve_scenario(scn).r_a_m


def cmd_place(scn: Scenario, args: argparse.Namespace) -> int:
    r_a = placement_radius(scn, args)
    plan = packing.run_algorithm1(scn.system.area_radius_m, r_a)
    write_json_atomic(args.out / "plan.json", plan_to_dict(plan))
    levels = plan.levels
    counts = [level.count for level in levels]
    x, y = np.concatenate([level.centers for level in levels]).T.tolist()
    centers = {
        "level": np.repeat([level.index for level in levels], counts).tolist(),
        "ring_radius_m": np.repeat([level.ring_radius_m for level in levels], counts).tolist(),
        "index_in_level": [m for count in counts for m in range(count)],
        "x_m": x,
        "y_m": y,
    }
    write_csv_atomic(args.out / "centers.csv", centers)
    print(f"wrote {args.out / 'plan.json'} and {args.out / 'centers.csv'}")
    print(
        f"R={scn.system.area_radius_m:g} m  R_a={r_a:g} m  "
        f"levels={counts}  density={plan.packing_density:.4f}"
    )
    return EXIT_OK


def density_sweep_table(scn: Scenario, r_a: float) -> dict[str, list]:
    radii = scn.sweeps.area_radius_list_m
    plans = [packing.run_algorithm1(area_radius, r_a) for area_radius in radii]
    return {
        "area_radius_m": list(radii),
        "r_a_m": [r_a] * len(radii),
        "total_aaps": [plan.total_aaps for plan in plans],
        "packing_density": [plan.packing_density for plan in plans],
        "level_counts": [";".join(str(level.count) for level in plan.levels) for plan in plans],
        "reference_density": [
            next((d for ref, d in REFERENCE_DENSITIES.items() if abs(radius - ref) < 1e-6), "")
            for radius in radii
        ],
    }


def cmd_density_sweep(scn: Scenario, args: argparse.Namespace) -> int:
    table = density_sweep_table(scn, placement_radius(scn, args))
    write_table(args, "density_sweep.csv", table)
    if any(table["reference_density"]):
        print(
            "note: reference_density values come from a reported deployment "
            "whose cell radius is unstated; they are indicative only and not "
            "reconstructible exactly from this algorithm."
        )
    return EXIT_OK


def validation_checks(scn: Scenario, trials: int, seed: int) -> list[tuple[str, bool, str]]:
    """Run the oracle suite at the scenario's (h_min, phi(delta)) cell;
    returns (name, passed, detail) triples."""
    checks: list[tuple[str, bool, str]] = []
    env, sys_p = scn.environment, scn.system
    h, phi = sys_p.h_min_m, scn.phi_deg

    # The grid points inside the S-curve's image over (0, 90] deg, or the
    # scenario's own delta when none is.
    lowest = channel.delta_lower_bound(env)
    highest = float(channel.los_probability(90.0, env))
    deltas = [d for d in np.linspace(0.2, 0.999, 25).tolist() if lowest < d <= highest]
    worst = 0.0
    for d in deltas or [scn.sweeps.delta]:
        phi_d = channel.phi_from_delta(d, env)
        worst = max(worst, abs(float(channel.los_probability(phi_d, env)) - d))
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

    empirical = montecarlo.mean_sum_power(h, phi, sys_p, env, trials, seed)
    if empirical.mean == 0.0:
        # Every UE transmits a positive power, so no trial drew one: a mean
        # and a spread of 0 say nothing about the integral.
        mean_ues = uplink.cell_ue_count(channel.coverage_radius(h, phi), sys_p)
        raise ConfigError(
            f"the Monte-Carlo check drew no UE in {trials} trials: the cell "
            f"holds {mean_ues:.3g} UEs per trial on average"
        )
    rel = abs(empirical.mean - exact) / exact
    # 3%, or five standard errors when too few trials pin the mean that well.
    bound = max(0.03, 5.0 * empirical.stderr / exact)
    checks.append(
        (
            f"Monte-Carlo mean over {trials} trials vs quadrature",
            rel < bound,
            f"rel diff={rel:.3e}",
        )
    )
    return checks


def cmd_validate(scn: Scenario, args: argparse.Namespace) -> int:
    checks = validation_checks(scn, args.trials, args.seed)
    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    if failed:
        print(f"{len(failed)} validation check(s) failed")
        return EXIT_VALIDATION
    print("all validation checks passed")
    return EXIT_OK


# Each verb's handler, called with the loaded scenario and the parsed
# command line; the keys are the command choices.
VERBS = {
    "altitude-sweep": lambda scn, args: write_table(
        args, "altitude_sweep.csv", altitude_sweep_table(scn)
    ),
    "threshold-sweep": lambda scn, args: write_table(
        args, "threshold_sweep.csv", threshold_sweep_table(scn)
    ),
    "solve": cmd_solve,
    "place": cmd_place,
    "density-sweep": cmd_density_sweep,
    "validate": cmd_validate,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are one ``configuration error`` line,
    not a usage block."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="aapdeploy",
        description="Energy-efficient 3D deployment planner for aerial access points",
    )
    parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument(
        "--out", type=Path, default="out", help="output directory (default: out)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base RNG seed")
    parser.add_argument(
        "--trials", type=int, default=1000, help="Monte-Carlo trial count"
    )
    parser.add_argument(
        "--ra", type=float, default=None, help="coverage radius override (m)"
    )
    parser.add_argument("command", choices=VERBS)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.trials < 2:
            # one trial has no spread to bound the Monte-Carlo check with
            raise ConfigError(f"--trials must be at least 2, got {args.trials}")
        if args.trials > MAX_TRIALS:
            raise ConfigError(f"--trials must be at most {MAX_TRIALS:,}, got {args.trials}")
        if args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        if args.ra is not None and not (math.isfinite(args.ra) and args.ra > 0):
            raise ConfigError(f"--ra must be a positive finite radius, got {args.ra}")
        scn = load_scenario(args.scenario)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return VERBS[args.command](scn, args)
        except OSError as exc:
            raise ConfigError(f"cannot write output to {args.out}: {exc}") from exc
        except ArithmeticError as exc:
            # numpy's FloatingPointError, or Python's OverflowError (message
            # last, after an errno) and ZeroDivisionError
            raise ConfigError(
                "scenario values take a result out of the floating-point range: "
                f"{exc.args[-1]}"
            ) from exc
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
