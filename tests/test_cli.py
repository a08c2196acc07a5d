import configparser
import contextlib
import dataclasses
import errno
import json
import math
import os
import re
import string
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aapdeploy import cli, gee, montecarlo, packing, scenario, uplink
from aapdeploy.io_utils import write_csv_atomic
from aapdeploy.scenario import builtin_scenario_path, load_scenario
from conftest import BASELINE, COARSE_BASELINE, CliRun, calls_to, run_cli

ALL_VERBS = list(cli.VERBS)
ABLATION = builtin_scenario_path("no_vehicle_energy").read_text()
CURVE = "a = 4.88\nb = 0.43"


def test_csv_cell_format(tmp_path):
    # floats and float subclasses at 12 significant digits, the rest as str
    path = tmp_path / "cells.csv"
    cells = [7, 0.1, 1.0 / 3.0, "6;1", np.float64(2.0 / 3.0), True, "", 1e-300]
    write_csv_atomic(path, dict(zip("abcdefgh", zip(cells, cells[::-1]))))
    row = "7,0.1,0.333333333333,6;1,0.666666666667,True,,1e-300"
    assert path.read_text().splitlines()[1:] == [row, ",".join(row.split(",")[::-1])]


def test_write_csv_atomic_format(tmp_path):
    path = tmp_path / "out" / "table.csv"
    write_csv_atomic(path, {"a": [1, 2], "b": [0.5, 1.25]})
    content = path.read_text()
    assert content == "a,b\n1,0.5\n2,1.25\n"
    assert not list(path.parent.glob("*.tmp"))


def test_csv_writer_refuses_columns_of_unequal_length(tmp_path):
    # a bare zip would drop the cells past the shortest column
    with pytest.raises(ValueError):
        write_csv_atomic(tmp_path / "table.csv", {"a": [1, 2, 3], "b": [0.5]})
    assert not list(tmp_path.iterdir())  # no file, no temp file


def per_row_csv(header, rows):
    """The reference for the column writer: each row's own %-template, a
    float or float subclass at 12 significant digits and anything else as
    str, chosen cell by cell."""
    lines = [",".join(header)]
    for cells in rows:
        template = ",".join("%.12g" if issubclass(type(c), float) else "%s" for c in cells)
        lines.append(template % tuple(cells))
    return "\n".join(lines) + "\n"


CELLS = st.one_of(
    st.integers(),
    st.floats(),
    st.floats().map(np.float64),
    st.booleans(),
    st.text(string.printable),
    st.just(""),
)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=8)
    )
)
@example([[0.5, 1, "x"], [np.float64(2.0), 2, "y"]])
def test_column_writer_matches_the_per_row_rule(tmp_path_factory, rows):
    path = tmp_path_factory.getbasetemp() / "property.csv"
    header = [f"c{i}" for i in range(len(rows[0]) if rows else 1)]
    write_csv_atomic(path, {name: [row[i] for row in rows] for i, name in enumerate(header)})
    assert path.read_bytes() == per_row_csv(header, rows).encode()


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_outputs_keep_the_umask(tmp_path, umask):
    saved = os.umask(umask)
    try:
        run = run_cli(tmp_path, "place")
    finally:
        os.umask(saved)
    assert run.code == cli.EXIT_OK
    # the JSON and the CSV get 0o666 less the umask, and no temp file is left
    modes = {path.name: path.stat().st_mode & 0o777 for path in (tmp_path / "o").iterdir()}
    assert modes == {"plan.json": 0o666 & ~umask, "centers.csv": 0o666 & ~umask}


def test_infeasible_place_exit_code(tmp_path):
    # coverage radius override larger than the target area
    run = run_cli(tmp_path, "place", "--ra", "1000")
    assert run.code == cli.EXIT_INFEASIBLE
    assert "infeasible" in run.err[0]


def test_exhausted_quadrature_budget_fails_validate(tmp_path, monkeypatch):
    # one panel cannot resolve the steep S-curve's turn inside the cell
    monkeypatch.setattr(uplink, "LOS_BREAKS", ())
    monkeypatch.setattr(uplink, "QUAD_MAX_PANELS", 1)
    run = run_cli(tmp_path, "validate", "--trials", "100", edits={CURVE: "a = 30\nb = 24"})
    assert run.code == cli.EXIT_VALIDATION
    assert len(run.err) == 1, run.err
    assert run.err[0].startswith("error: sum-power quadrature achieved only")
    assert run.out == ""


@pytest.mark.parametrize("a,b", [(0.5, 2e6), (4.0, 2.5e5), (80.0, 12500.0)])
def test_s_curve_cap(tmp_path, a, b):
    # at a * b = MAX_S_CURVE_AB the round trip keeps about 2e-11, well
    # inside validate's 1e-9; a curve past the cap is refused at load
    assert a * b == scenario.MAX_S_CURVE_AB
    _accept(tmp_path, Accept(None, {CURVE: f"a = {a}\nb = {b}"}, args=TRIALS), "validate")
    past = Refusal(None, {CURVE: f"a = {a}\nb = {b * 1.001}"},
                   r"LoS S-curve a \* b = 1\.001e\+06 exceeds 1e\+06, beyond which its "
                   r"inversion loses precision", args=TRIALS)
    _refuse(tmp_path, past, "validate")


def test_solve_writes_solution(tmp_path):
    run = run_cli(tmp_path, "solve")
    assert run.code == cli.EXIT_OK
    payload = json.loads(run.files["solution.json"])
    assert payload["h_opt_m"] == 15.0
    assert payload["binding_constraint"] == "min_altitude"
    assert payload["monotone_audit_passed"] is True
    assert payload["r_a_m"] == pytest.approx(
        15.0 / math.tan(math.radians(payload["phi_opt_deg"]))
    )
    assert "h_opt=15" in run.out


def test_ablation_solve_uses_fallback(tmp_path):
    run = run_cli(tmp_path, "solve", text=ABLATION)
    assert run.code == cli.EXIT_OK
    payload = json.loads(run.files["solution.json"])
    assert payload["monotone_audit_passed"] is False
    assert payload["h_opt_m"] > 15.0


def test_place_and_plan_round_trip(tmp_path):
    run = run_cli(tmp_path, "place", "--ra", "38.57")
    assert run.code == cli.EXIT_OK
    payload = json.loads(run.files["plan.json"])
    plan = packing.run_algorithm1(payload["area_radius_m"], payload["r_a_m"])
    assert cli.plan_to_dict(plan) == payload  # the written plan is the rebuilt one
    assert packing.verify_levels(plan.levels, plan.r_a_m, plan.area_radius_m).all_ok
    # centres CSV has one row per AAP plus a header
    lines = run.files["centers.csv"].splitlines()
    assert len(lines) - 1 == plan.total_aaps


def test_plan_json_keys_are_the_record_fields(tmp_path):
    # one name per plan quantity, as asdict makes solution.json's keys
    # DeploymentSolution's fields
    run = run_cli(tmp_path, "place")
    assert run.code == cli.EXIT_OK
    payload = json.loads(run.files["plan.json"])

    def names(record):
        return {field.name for field in dataclasses.fields(record)}

    assert set(payload) == names(packing.PlacementPlan) | {"total_aaps", "packing_density"}
    for level in payload["levels"]:
        assert set(level) == names(packing.PackingLevel) - {"centers"} | {"count"}
    assert set(payload["feasibility"]) == names(packing.FeasibilityReport)


def test_altitude_sweep_output(tmp_path):
    run = run_cli(tmp_path, "altitude-sweep")
    assert run.code == cli.EXIT_OK
    lines = run.files["altitude_sweep.csv"].splitlines()
    # 3 gammas x 4 altitudes (15, 110, 205, 300)
    assert len(lines) - 1 == 12
    # GEE column strictly decreasing within each gamma block
    rows = [line.split(",") for line in lines[1:]]
    for g in {row[0] for row in rows}:
        gees = [float(row[3]) for row in rows if row[0] == g]
        assert all(b < a for a, b in zip(gees, gees[1:]))


def test_threshold_sweep_output(tmp_path):
    run = run_cli(tmp_path, "threshold-sweep")
    assert run.code == cli.EXIT_OK
    lines = run.files["threshold_sweep.csv"].splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 12  # 5..60 deg in 5-deg steps
    # the GEE curve over phi has an interior maximum (knee)
    gees = [float(row[2]) for row in rows]
    peak = gees.index(max(gees))
    assert 0 < peak < len(gees) - 1


def test_threshold_sweep_radius_is_h_cot_phi_up_to_the_zenith(tmp_path):
    # the S-curve is flat near 90 deg, so a radius rebuilt from the LoS
    # probability there lost most of its digits; the nadir-only 90 deg cell
    # has no row
    edits = {"phi_stop_deg = 60": "phi_stop_deg = 90"}
    run = run_cli(tmp_path, "threshold-sweep", text=BASELINE, edits=edits)
    assert run.code == cli.EXIT_OK
    scn = load_scenario(tmp_path / "scn.ini")
    lines = run.files["threshold_sweep.csv"].splitlines()[1:]
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert [row[0] for row in rows] == list(scn.phis_deg[:-1])
    for phi, _delta, _gee, r_a, *_ in rows:
        expected = scn.system.h_min_m / math.tan(math.radians(phi))
        assert r_a == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_solved_phi_is_a_grid_point(name):
    scn = load_scenario(builtin_scenario_path(name))
    assert cli.solve_scenario(scn).phi_opt_deg in scn.phis_deg


def solve_at_h_step(tmp_path, name, h_step):
    """The built-in scenario ``name`` at ``h_step_m = h_step``, and its solution."""
    path = tmp_path / f"{name}-{h_step}.ini"
    text = builtin_scenario_path(name).read_text()
    assert "h_step_m = 1\n" in text
    path.write_text(text.replace("h_step_m = 1\n", f"h_step_m = {h_step}\n"))
    scn = load_scenario(path)
    return scn, cli.solve_scenario(scn)


@pytest.mark.parametrize("name,h_step", [("baseline", "1"), ("no_vehicle_energy", "1"),
                                         ("no_vehicle_energy", "7"), ("no_vehicle_energy", "95")])
def test_solved_altitude_is_a_candidate(tmp_path, name, h_step):
    # the fallback searches h_min, the scenario's altitude grid and the
    # ceiling, and nothing else
    scn, sol = solve_at_h_step(tmp_path, name, h_step)
    ceiling = gee.altitude_ceiling(sol.phi_opt_deg, scn.system, scn.environment)
    assert sol.monotone_audit_passed == (name == "baseline")
    assert sol.h_opt_m in (scn.system.h_min_m, *scn.altitudes, ceiling)


def test_finer_altitude_grid_never_lowers_the_gee(tmp_path):
    # halving h_step_m keeps every point of the grid, so the ablation's
    # fallback searches a superset of altitudes and cannot find less
    runs = [solve_at_h_step(tmp_path, "no_vehicle_energy", step) for step in ("1", "0.5", "0.25")]
    for (coarse, low), (fine, high) in zip(runs, runs[1:]):
        assert set(coarse.altitudes) < set(fine.altitudes)
        assert not low.monotone_audit_passed
        assert high.gee_bits_per_j >= low.gee_bits_per_j


def test_density_sweep_output(tmp_path):
    run = run_cli(tmp_path, "density-sweep", "--ra", "38.57")
    assert run.code == cli.EXIT_OK
    lines = run.files["density_sweep.csv"].splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [180.48, 252.68]
    for row in rows:
        assert 0.5 < float(row[3]) <= 1.0
        assert row[5] != ""  # reference densities attached for both radii
    assert "indicative only" in run.out


def test_validate_passes(tmp_path):
    run = run_cli(tmp_path, "validate", "--trials", "400", "--seed", "1")
    assert run.code == cli.EXIT_OK
    assert "all validation checks passed" in run.out
    assert "[FAIL]" not in run.out


# validate's three numeric gates: the oracle a test moves and the relative
# bound, by the check's name.
GATES = {
    "closed form vs edge-frozen quadrature": ("expected_sum_power_edge_quadrature", 1e-9),
    "exact sum power bounded by closed form": ("expected_sum_power_exact", 1e-12),
    "Monte-Carlo mean": ("mean_sum_power", 0.03),
}


@pytest.mark.parametrize("factor", [1.1, 0.9])
@pytest.mark.parametrize("check", GATES)
def test_validate_fails_a_gate_just_past_its_bound(tmp_path, monkeypatch, check, factor):
    # The oracle is moved off the value it is checked against, the closed
    # form or the exact sum power, by factor x its bound.  The Monte-Carlo
    # mean is otherwise the exact sum power validate computes, so that a
    # moved exact value fails only its own check.
    oracle, bound = GATES[check]
    offset = 1.0 + factor * bound
    closed, exact = uplink.expected_sum_power_closed_form, uplink.expected_sum_power_exact
    if oracle == "mean_sum_power":
        mean = lambda *cell: exact(*cell) * offset
    else:
        monkeypatch.setattr(uplink, oracle, lambda *cell: closed(*cell) * offset)
        mean = uplink.expected_sum_power_exact
    monkeypatch.setattr(montecarlo, "mean_sum_power", lambda h, phi, sys_p, env, trials, seed:
                        montecarlo.MeanSumPower(mean(h, phi, sys_p, env), 0.0))
    run = run_cli(tmp_path, "validate")
    fails = [line for line in run.out.splitlines() if line.startswith("[FAIL]")]
    if factor > 1.0:
        assert run.code == cli.EXIT_VALIDATION
        assert len(fails) == 1 and fails[0].startswith(f"[FAIL] {check}")
    else:
        assert (run.code, fails) == (cli.EXIT_OK, [])


# Seeds spread over [0, 2**31), the range the benchmark draws validate's
# --seed from: the ends, and fifteen evenly spaced points between them.
BENCHMARK_RANGE_SEEDS = [0, 1, 2, 3, 2**31 - 1] + [
    (2**31 - 1) // 16 * k for k in range(1, 16)
]


@pytest.mark.parametrize("seed", BENCHMARK_RANGE_SEEDS)
@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_monte_carlo_check_passes_across_the_benchmark_seeds(name, seed):
    scn = load_scenario(builtin_scenario_path(name))
    checks = {check: ok for check, ok, _ in cli.validation_checks(scn, 1000, seed)}
    assert checks["Monte-Carlo mean over 1000 trials vs quadrature"]


def test_validate_with_no_ue_drawn_exits_config_error(tmp_path):
    # At 1e-150 UEs/m^2 no trial draws a UE; a mean and a stderr of 0 used to
    # fail the Monte-Carlo check (exit 3) with rel diff 1.0.
    row = Refusal(None, {"ue_density_per_m2 = 1e-2": "ue_density_per_m2 = 1e-150"},
                  r"the Monte-Carlo check drew no UE in 100 trials: the cell holds "
                  r"1\.19e-146 UEs per trial on average", args=TRIALS)
    assert "[FAIL]" not in _refuse(tmp_path, row, "validate").out


def test_place_deploys_the_solved_radius(tmp_path):
    # place and density-sweep must solve on the scenario's own threshold
    # grid, not a built-in default: with phi starting at 30 deg the solved
    # R_a (25.98 m) differs from the default-grid answer (38.57 m)
    edits = {"phi_start_deg = 5": "phi_start_deg = 30"}
    for verb in ("solve", "place", "density-sweep"):
        run = run_cli(tmp_path, verb, text=BASELINE, edits=edits)
        assert run.code == cli.EXIT_OK
    solved = json.loads(run.files["solution.json"])["r_a_m"]
    assert solved == pytest.approx(25.98, abs=0.01)
    assert json.loads(run.files["plan.json"])["r_a_m"] == solved
    rows = run.files["density_sweep.csv"].splitlines()[1:]
    assert all(float(row.split(",")[1]) == pytest.approx(solved, rel=1e-11) for row in rows)


def test_place_without_out_writes_to_out(tmp_path, monkeypatch):
    # the output directory comes from --out only, and defaults to ./out
    monkeypatch.chdir(tmp_path)
    assert run_cli(tmp_path, "place", out=False).code == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "scn.ini"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "centers.csv",
        "plan.json",
    ]


@pytest.mark.parametrize("verb", ["place", "density-sweep"])
def test_plan_failing_verification_exits_validation(tmp_path, monkeypatch, verb):
    # place wrote both files and exited 0 with feasible=False, and
    # density-sweep exited 1 as an infeasible scenario
    def failing(levels, r_a, area_radius):
        return packing.FeasibilityReport(False, True, -0.5, 1.0, 1e-9)

    monkeypatch.setattr(packing, "verify_levels", failing)
    run = run_cli(tmp_path, verb)
    assert run.code == cli.EXIT_VALIDATION
    assert len(run.err) == 1 and run.err[0].startswith("error: plan for R="), run.err
    assert "fails its own verification" in run.err[0]
    assert run.out == ""
    assert run.files is None


def test_unreadable_scenario_exits_config_error(tmp_path, monkeypatch):
    # ConfigParser.read skipped a file it could not open, so the error named
    # a missing [environment] section.  Permission bits do not stop a
    # superuser, so the refusal to read is simulated.
    real_open = Path.open

    def refuse(self, mode="r", *args, **kwargs):
        if self == tmp_path / "scn.ini" and mode == "r":
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse)
    row = Refusal(None, {}, r"cannot read scenario file .*scn\.ini: Permission denied")
    _refuse(tmp_path, row, "solve")


@pytest.mark.parametrize("verb", ["solve", "place"])
def test_out_that_is_a_file_exits_config_error(tmp_path, verb):
    # creating the output directory raised FileExistsError: a traceback and
    # exit 1, the code for an infeasible scenario
    out = tmp_path / "o"
    out.write_text("not a directory\n")
    row = Refusal(None, {}, rf"cannot write output to {re.escape(str(out))}: \[Errno 17\] .*")
    _refuse(tmp_path, row, verb)
    assert out.read_text() == "not a directory\n"


# Finite values so extreme that a result leaves the floating-point range,
# each with the verbs where it once escaped: an OverflowError or ValueError
# traceback from validate's oracle, NaN or infinite CSV cells with exit 0,
# or a validate run that failed (exit 3) on NaN figures.  A RuntimeWarning
# fails these tests too: pyproject.toml turns every warning into an error.
EXTREME_VALUES = {
    "gamma = 100": ("gamma = 1e300", {"validate"}),
    "g0 = 1.42e-4": ("g0 = 1e-300", {"validate"}),
    "bandwidth_hz = 20e6": ("bandwidth_hz = 1e300", {"validate"}),
    "eta_nlos_db = 21": ("eta_nlos_db = 3000", {"validate"}),
    "ue_density_per_m2 = 1e-2": (
        "ue_density_per_m2 = 1e300",
        {"validate", "altitude-sweep"},
    ),
    "noise_psd_w_per_hz = 4e-21": (
        "noise_psd_w_per_hz = 1e300",
        {"validate", "altitude-sweep", "threshold-sweep"},
    ),
    # the LoS round trip loses about 2e-17 a b: validate failed it (exit 3)
    "b = 0.43": ("b = 1e30", set(ALL_VERBS)),
}


def _assert_finite_outputs(files: dict[str, str]) -> None:
    for name, text in files.items():
        if name.endswith(".json"):
            json.loads(text, parse_constant=pytest.fail)
        else:
            for cell in ",".join(text.splitlines()[1:]).split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (name, cell)


@pytest.mark.parametrize("verb", ALL_VERBS)
@pytest.mark.parametrize("old", EXTREME_VALUES)
def test_extreme_finite_value_fails_closed(tmp_path, old, verb):
    new, refused = EXTREME_VALUES[old]
    run = run_cli(tmp_path, verb, "--trials", "100", edits={old: new})
    if verb in refused:
        assert run.code == cli.EXIT_CONFIG
    if run.code == cli.EXIT_OK:
        _assert_finite_outputs(run.files)
        return
    # solve, place and density-sweep may still find no feasible threshold
    prefix = {cli.EXIT_CONFIG: "configuration error:", cli.EXIT_INFEASIBLE: "infeasible"}
    assert len(run.err) == 1 and run.err[0].startswith(prefix[run.code]), run
    assert run.files is None


@pytest.mark.parametrize("ratio", [None, 10, 80])
def test_plan_json_fixes_every_centre(tmp_path, ratio):
    # plan.json holds no coordinates: a level's count n and centre radius c
    # give centre m as (c cos(2 pi m / n), c sin(2 pi m / n))
    ra = [] if ratio is None else ["--ra", repr(180.48 / ratio)]
    run = run_cli(tmp_path, "place", *ra, text=BASELINE)
    assert run.code == cli.EXIT_OK
    plan = json.loads(run.files["plan.json"])
    expected = packing.run_algorithm1(plan["area_radius_m"], plan["r_a_m"])
    rebuilt = []
    for level, reference in zip(plan["levels"], expected.levels, strict=True):
        assert "centers" not in level
        n, c = level["count"], level["center_radius_m"]
        centers = tuple(
            (c * math.cos(2.0 * math.pi * m / n), c * math.sin(2.0 * math.pi * m / n))
            for m in range(n)
        )
        assert centers == tuple(map(tuple, reference.centers.tolist()))
        rebuilt.extend(centers)
    table = run.files["centers.csv"].splitlines()[1:]
    rows = [row.split(",")[3:] for row in table]
    assert rows == [[format(x, ".12g"), format(y, ".12g")] for x, y in rebuilt]


# Every accepted edge case, as rows of one table beside REFUSALS.  A row
# edits a scenario, the coarse baseline unless it gives its own text, and
# runs cli.main once per verb; each run must exit 0 with an empty stderr,
# write only finite numbers and pass the row's own check, if it has one.
# ACCEPTS maps a test name to its rows as REFUSALS does.
SOLVE = ("solve",)
VALIDATE = ("validate",)
FINE_GRIDS = {"h_step_m = 95": "h_step_m = 0.003", "phi_step_deg = 5": "phi_step_deg = 0.01"}
TRIALS = ("--trials", "100")
ROUND_TRIP = "[PASS] LoS threshold inversion round-trip"


class Accept(NamedTuple):
    id: str | None  # the case id; None for a test of one case
    edits: dict[str, str]  # old text -> new text, applied in order
    verbs: tuple[str, ...] = tuple(ALL_VERBS)
    args: tuple[str, ...] = ()
    text: str = COARSE_BASELINE
    check: Callable[[CliRun, Path], bool] | None = None  # given the run and its scenario file


ACCEPTS = {
    # a * b = 720: exp(a * b) in the S-curve's infimum overflowed, and every
    # verb died with a traceback while the scenario loaded
    "test_steep_s_curve_runs_every_verb": [Accept("", {CURVE: "a = 30\nb = 24"})],
    # a = b = 30: exp(b (a - phi)) overflows below the knee, where the LoS
    # probability is 0; verbs run with overflow raised, and this one must
    # not count as a scenario beyond the floating-point range
    "test_steeper_s_curve_runs_every_verb": [Accept("", {CURVE: "a = 30\nb = 30"})],
    # a = b = 30 at phi = 6.4 deg: exp(b (a - phi)) is finite, but a times
    # it overflowed outside the ignored region, and the verbs that evaluate
    # that threshold exited 2 naming the floating-point range
    "test_s_curve_tail_past_the_float_range_runs_every_verb": [
        Accept("", {CURVE: "a = 30\nb = 30", "phi_start_deg = 5": "phi_start_deg = 6.4"}),
    ],
    # the mark was read as text before the first header: "File contains no
    # section headers", exit 2
    "test_utf8_bom_scenario_runs": [Accept(None, {}, SOLVE, text="\ufeff" + BASELINE)],
    # 5,501 thresholds x 95,003 altitudes, on the pinned path: one GEE point
    # per threshold, far inside the search budget
    "test_fine_grids_solve_on_the_pinned_path": [
        Accept(None, FINE_GRIDS, SOLVE, check=lambda run, _:
               json.loads(run.files["solution.json"])["monotone_audit_passed"]),
    ],
    # the round-trip check inverted thresholds the curve never reaches and
    # died with a traceback and the "infeasible" exit code
    "test_s_curve_below_the_round_trip_grid_validates": [
        # high-rise: P_LoS(90 deg) = 0.848, below the top of the check's grid
        Accept("high-rise", {CURVE: "a = 27.23\nb = 0.08", "delta = 0.9": "delta = 0.5"},
               VALIDATE, text=BASELINE, check=lambda run, _: ROUND_TRIP in run.out),
        # P_LoS(90 deg) = 0.014: no grid threshold is reachable, so the
        # check inverts the scenario's own delta
        Accept("no-grid-threshold", {CURVE: "a = 80\nb = 0.01", "delta = 0.9": "delta = 0.01"},
               VALIDATE, text=BASELINE, check=lambda run, _: ROUND_TRIP in run.out),
    ],
    # with b = 1 the LoS probability at 90 deg rounds to exactly 1.0, which
    # no threshold inverts; the grid holds angles, so nothing inverts it and
    # the solver skips the nadir-only 90 deg cell
    "test_phi_sweep_end_point_at_the_zenith_accepted": [
        Accept(None, {"b = 0.43": "b = 1", "phi_stop_deg = 60": "phi_stop_deg = 90"},
               ("solve", "place"), text=BASELINE,
               check=lambda run, scn: load_scenario(scn).phis_deg[-1] == 90.0
               and json.loads(run.files["solution.json"])["phi_opt_deg"] == 18.25),
    ],
}


# Every input the planner refuses, as rows of one table.  A row edits the
# coarse baseline and runs cli.main once per verb; each run must exit 2 with
# one stderr line "configuration error: M", where the row's pattern matches
# all of M, and must not create --out.  A row may name a function that the
# refusal comes before; it then fails if called.  REFUSALS maps a test name
# to its rows, and each entry becomes that test below, with one case per
# (row, verb) named by the row's id and, if the row has several verbs, the
# verb; a row whose id is None is one test that runs all its verbs.  A new
# refusal is one more row, under test_refusal if no test fits.
TOP = "# Suburban"
UAV = "[uav]\n"
ENV = "[environment]\na = 4.88\nb = 0.43\neta_los_db = 0.1\neta_nlos_db = 21\ng0 = 1.42e-4\n"
SWEEPS = COARSE_BASELINE[COARSE_BASELINE.index("[sweeps]"):]  # the last section, whole
INTERFERERS = "num_interferers = 6"
GAMMAS = "gamma_list = 10, 100, 1000"
RADII = "area_radius_list_m = 180.48, 252.68"
PHI = {"phi_start_deg = 5": "phi_start_deg = 90", "phi_stop_deg = 60": "phi_stop_deg = 90"}
NO_GAMMAS = r"key 'gamma_list' holds no numbers"
NO_RADII = r"key 'area_radius_list_m' holds no numbers"
NADIR_PHI = (
    r"sweep phi grid holds only nadir-only cells: every angle from phi_start_deg=90 lies "
    r"within 1e-09 deg of 90 deg, where a cell covers no area"
)
SUBNORMAL = r" W lies below the smallest normal float 2\.22507e-308"
DELTA_RANGE = r"sweep delta: delta must lie strictly between 0 and 1"
GRID_CAP = r" grid points, more than 100,000"
RA = r"--ra must be a positive finite radius, got "
ABLATION_PHYSICS = {
    "gamma = 100": "gamma = 0.01",
    "alpha_climb_j_per_m = 315": "alpha_climb_j_per_m = 0",
    "beta_climb_j = -211.261": "beta_climb_j = 0",
    "alpha_hover_w_per_m = 4.917": "alpha_hover_w_per_m = 0",
    "beta_hover_w = 275.204": "beta_hover_w = 0",
}

# the coarse baseline's own keys, found by parsing the text
KEYS = configparser.ConfigParser(interpolation=None)
KEYS.read_string(COARSE_BASELINE)


class Refusal(NamedTuple):
    id: str | None  # the case id; None for a test of one case
    edits: dict[str, str]  # old text -> new text, applied in order
    message: str  # a regular expression for the whole message
    verbs: tuple[str, ...] = SOLVE
    args: tuple[str, ...] = ()
    never: str | None = None  # an aapdeploy attribute the refusal precedes


def _required(*sections) -> list[Refusal]:
    """One row per key line of the sections: the line deleted, the key named."""
    return [
        Refusal(key, {f"\n{key} = {text}\n": "\n"}, rf"missing required key '{key}'")
        for section in sections
        for key, text in KEYS[section].items()
    ]


REFUSALS = {
    "test_missing_scenario_exits_config_error": [
        Refusal(None, {}, r"scenario file not found: /nonexistent/scenario\.ini",
                SOLVE, ("--scenario", "/nonexistent/scenario.ini")),  # argparse keeps the last
    ],
    "test_bad_scenario_exits_config_error": [
        Refusal(None, {"g0 = 1.42e-4": "g0 = 1.42e-4\nnot_a_key = 1"},
                r"unknown key\(s\) in \[environment\]: not_a_key"),
    ],
    # a UTF-16 byte-order mark ended in a UnicodeDecodeError traceback
    "test_non_utf8_scenario_exits_config_error": [
        Refusal(None, {TOP: "\udcff\udcfe" + TOP},
                r"scenario file .*scn\.ini is not UTF-8 text: invalid start byte at byte 0"),
    ],
    # configparser's own messages span up to three lines
    "test_unparsable_scenario_exits_with_one_line": [
        Refusal("no-section-header", {"[environment]\n": ""},
                r"cannot parse scenario file: File contains no section headers\. "
                r"file: '.*scn\.ini', line: \d+ 'a = 4\.88\\n'"),
        Refusal("duplicate-section", {UAV: UAV + UAV},
                r"cannot parse scenario file: While reading from '.*scn\.ini' \[line \d+\]: "
                r"section 'uav' already exists"),
        Refusal("line-without-key", {UAV: UAV + "garbage\n"},
                r"cannot parse scenario file: Source contains parsing errors: '.*scn\.ini' "
                r"\[line \d+\]: 'garbage\\n'"),
    ],
    # the output directory comes from the command line
    "test_output_section_exits_config_error": [
        Refusal(None, {UAV: "[output]\ndirectory = results\n" + UAV},
                r"unknown scenario section \[output\]", ("place", "solve")),
    ],
    # g0 is the one way to set the reference gain
    "test_carrier_frequency_key_is_unknown": [
        Refusal("", {"g0 = 1.42e-4": "g0 = 1.42e-4\ncarrier_frequency_hz = 2e9"},
                r"unknown key\(s\) in \[environment\]: carrier_frequency_hz",
                ("solve", "validate")),
    ],
    # The closed forms assume one resource block and full power control.
    # The first two keys once changed only the Monte-Carlo side, so solve
    # accepted a file that validate then failed (exit 3).  gamma is the one
    # way to set the target power.
    "test_oracle_only_power_keys_are_unknown": [
        Refusal(line, {INTERFERERS: f"{INTERFERERS}\n{line}"},
                rf"unknown key\(s\) in \[system\]: {line.split(' = ')[0]}", ("solve", "validate"))
        for line in ("resource_blocks = 2", "tpc_beta = 0.5", "p_target_w = 8e-12")
    ],
    "test_bad_scenario_value_exits_config_error": [
        # NaN passed "a <= 0" and the solver then found no threshold (exit 1)
        Refusal("a = 4.88-a = nan-solve", {"a = 4.88": "a = nan"},
                r"key 'a' must be finite, got 'nan'"),
        # delta_lower_bound is about 0.025 for this environment
        Refusal("delta = 0.9-delta = 0.01-altitude-sweep", {"delta = 0.9": "delta = 0.01"},
                r"sweep delta: delta=0\.01 at or below the minimum reachable LoS probability "
                r"0\.0245175", ("altitude-sweep",)),
        Refusal("phi_start_deg = 5-phi_start_deg = 0", {"phi_start_deg = 5": "phi_start_deg = 0"},
                r"sweep phi_start_deg=0 outside \(0, 90\] deg", ("threshold-sweep", "solve")),
        # a bad step fails at load on every verb, not only on the verb that
        # builds that grid
        Refusal("h_step_m = 95-h_step_m = -95", {"h_step_m = 95": "h_step_m = -95"},
                r"sweep h_step_m=-95 must be strictly positive",
                ("solve", "place", "threshold-sweep")),
        Refusal("phi_step_deg = 5-phi_step_deg = -5-altitude-sweep",
                {"phi_step_deg = 5": "phi_step_deg = -5"},
                r"sweep phi_step_deg=-5 must be strictly positive", ("altitude-sweep",)),
        # int() truncated: 2.7 interferers ran as M = 2
        Refusal("num_interferers = 6-num_interferers = 2.7-solve",
                {INTERFERERS: "num_interferers = 2.7"},
                r"key 'num_interferers' must be a whole number, got '2\.7'"),
        # gamma was turned into a target power before any check, and the error
        # named p_target_pa, a key the file does not hold
        Refusal("gamma = 100-gamma = -1-solve", {"gamma = 100": "gamma = -1"},
                r"gamma must be strictly positive, got -1\.0"),
        # an empty list wrote a header-only CSV and exited 0
        Refusal(f"{GAMMAS}-gamma_list = -altitude-sweep", {GAMMAS: "gamma_list = "}, NO_GAMMAS,
                ("altitude-sweep",)),
        Refusal(f"{RADII}-area_radius_list_m = ,-density-sweep", {RADII: "area_radius_list_m = ,"},
                NO_RADII, ("density-sweep",)),
    ],
    # configparser's interpolation raised outside the load's error handling:
    # a traceback and exit 1, the infeasible code
    "test_percent_in_a_value_exits_config_error": [
        Refusal("gamma = 100-gamma = 100%", {"gamma = 100": "gamma = 100%"},
                r"key 'gamma' is not a number: '100%'", ALL_VERBS),
        Refusal("gamma = 100-gamma = %(b)s", {"gamma = 100": "gamma = %(b)s"},
                r"key 'gamma' is not a number: '%\(b\)s'", ALL_VERBS),
        Refusal(f"{GAMMAS}-gamma_list = 10, 1%", {GAMMAS: "gamma_list = 10, 1%"},
                r"key 'gamma_list' is not a number list", ALL_VERBS),
    ],
    # T = 0 made the zero-vehicle-energy GEE 0/0: the sweeps wrote nan, exit 0
    "test_zero_service_time_exits_config_error": [
        Refusal("", {"service_time_s = 500": "service_time_s = 0"},
                r"service_time_s must be strictly positive, got 0\.0", ALL_VERBS),
    ],
    "test_value_beyond_float_range_exits_config_error": [
        # 10 ** 400 raised OverflowError while the file was loaded
        Refusal("eta_los_db = 0.1-eta_los_db = 4000", {"eta_los_db = 0.1": "eta_los_db = 4000"},
                r"eta_los_db = 4000 dB overflows the floating-point range"),
        # cot^2 of the first grid angle divided by a tan^2 that underflows to 0
        Refusal("phi_start_deg = 5-phi_start_deg = 1e-300",
                {"phi_start_deg = 5": "phi_start_deg = 1e-300"},
                r"scenario values take a result out of the floating-point range: "
                r"float division by zero"),
    ],
    "test_subnormal_power_exits_config_error": [
        # P_a = 4e-319: validate failed its quadrature check at 2.7e-7
        Refusal("bandwidth", {"bandwidth_hz = 20e6": "bandwidth_hz = 1e-300"},
                r"noise_psd_w_per_hz \* bandwidth_hz = 4\.00193e-321" + SUBNORMAL,
                ALL_VERBS, TRIALS),
        # sigma0^2 W = 4e-321 with a normal P_a = 4e-301
        Refusal("noise-power-only",
                {"bandwidth_hz = 20e6": "bandwidth_hz = 1e-300", "gamma = 100": "gamma = 1e20"},
                r"noise_psd_w_per_hz \* bandwidth_hz = 4\.00193e-321" + SUBNORMAL,
                ALL_VERBS, TRIALS),
        # a sweep gamma whose target power is subnormal
        Refusal("gamma-list", {GAMMAS: "gamma_list = 10, 1e-300"},
                r"sweep gamma_list: gamma \* noise_psd_w_per_hz \* bandwidth_hz = 8\.00386e-314"
                + SUBNORMAL,
                ALL_VERBS, TRIALS),
    ],
    # a = 1e300 puts the whole S-curve beyond 90 deg: the sweep delta has no
    # elevation angle, which is a configuration error, not an overflow
    "test_huge_s_curve_offset_exits_config_error": [
        Refusal("", {"a = 4.88": "a = 1e300"},
                r"sweep delta: delta=0\.9 maps to elevation 1e\+300 deg outside \(0, 90\]",
                ALL_VERBS),
    ],
    # 5.5e8 elevation thresholds: every grid verb ran until killed
    "test_too_fine_sweep_grid_exits_config_error": [
        Refusal("phi_step_deg = 5-phi_step_deg = 1e-7",
                {"phi_step_deg = 5": "phi_step_deg = 1e-7"},
                r"sweep phi_step_deg=1e-07 gives 5\.5e\+08" + GRID_CAP, ALL_VERBS,
                never="scenario._grid"),
        Refusal("h_step_m = 95-h_step_m = 1e-9", {"h_step_m = 95": "h_step_m = 1e-9"},
                r"sweep h_step_m=1e-09 gives 2\.85e\+11" + GRID_CAP, ALL_VERBS,
                never="scenario._grid"),
    ],
    # 5e-15 deg is below the float spacing near 60 deg (7.1e-15): the grid
    # repeated its points, and a finer range grew it past the point cap
    "test_sub_ulp_sweep_step_exits_config_error": [
        Refusal("", {"phi_start_deg = 5": "phi_start_deg = 60",
                     "phi_stop_deg = 60": "phi_stop_deg = 60.0000000001",
                     "phi_step_deg = 5": "phi_step_deg = 5e-15"},
                r"sweep phi_step_deg=5e-15 is below float spacing: points repeat", ALL_VERBS),
    ],
    "test_nadir_only_cell_exits_config_error": [
        # every angle within NADIR_TOL_DEG of 90 deg: solve, place and
        # density-sweep blamed the altitude range and the power limit (exit
        # 1), and threshold-sweep wrote a header-only CSV
        Refusal("phi-grid", PHI, NADIR_PHI, ALL_VERBS),
        # the S-curve's value at 90 deg for b = 0.05, which inverts to 90
        # deg: altitude-sweep and validate exited 3 on a degenerate cell
        Refusal("delta", {"b = 0.43": "b = 0.05", "delta = 0.9": "delta = 0.9352847880555638"},
                r"sweep delta: delta=0\.935285 maps to the nadir-only cell at 90 deg, "
                r"which covers no area", ALL_VERBS),
    ],
    "test_bad_ra_exits_config_error": [
        Refusal(ra, {}, RA + re.escape(repr(float(ra))), ("place",), ("--ra", ra))
        for ra in ("0", "-5", "nan", "inf")
    ],
    # R/R_a = 9,024: tens of millions of AAPs
    "test_absurd_area_ratio_exits_config_error": [
        Refusal("", {}, r"target radius 180\.48 m is more than 1000 coverage radii \(0\.02 m\): "
                r"too many AAPs to plan", ("place", "density-sweep"), ("--ra", "0.02"),
                never="packing._build_levels"),
    ],
    # the first radius is planned (R/R_a = 7), the second refused
    "test_absurd_sweep_radius_exits_config_error": [
        Refusal(None, {RADII: "area_radius_list_m = 180.48, 1e9"},
                r"target radius 1e\+09 m is more than 1000 coverage radii \(41\.2122 m\): "
                r"too many AAPs to plan", ("density-sweep",)),
    ],
    # the ablation's physics fails the audit, and the fallback would search
    # 5.2e8 GEE points, five times the budget
    "test_search_budget_exits_config_error": [
        Refusal(None, {**ABLATION_PHYSICS, **FINE_GRIDS},
                r"solve would search 5,501 feasible thresholds x 95,003 candidate altitudes "
                r"= 5\.23e\+08 GEE points, more than 100,000,000",
                ("solve", "place", "density-sweep")),
    ],
    # 10^6 trials of 955,031 UEs each: accepted, and estimated at hours
    "test_ue_budget_exits_config_error": [
        Refusal(None, {"ue_density_per_m2 = 1e-2": "ue_density_per_m2 = 80"},
                r"the Monte-Carlo check would draw 1,000,000 trials x 9\.55e\+05 UEs "
                r"= 9\.55e\+11 UEs on average, more than the 1e\+09 the oracle samples",
                VALIDATE, ("--trials", "1000000"), never="montecarlo.sample_ues"),
    ],
    # one trial has no spread to bound the Monte-Carlo check with
    "test_nonpositive_trials_exits_config_error": [
        Refusal(trials, {}, rf"--trials must be at least 2, got {trials}", VALIDATE,
                ("--trials", trials))
        for trials in ("1", "0", "-3")
    ],
    # numpy rejects a negative seed with a ValueError traceback
    "test_negative_seed_exits_config_error": [
        Refusal("", {}, r"--seed must be non-negative, got -1", ("validate", "solve"),
                ("--seed", "-1")),
    ],
    # argparse printed its three-line usage and "aapdeploy: error: ..."
    "test_malformed_flag_exits_with_one_line": [
        Refusal("trials-abc", {}, r"argument --trials: invalid int value: 'abc'", VALIDATE,
                ("--trials", "abc")),
        Refusal("seed-1.5", {}, r"argument --seed: invalid int value: '1\.5'", VALIDATE,
                ("--seed", "1.5")),
        Refusal("ra-x", {}, r"argument --ra: invalid float value: 'x'", ("place",), ("--ra", "x")),
        Refusal("unknown-verb", {}, r"argument command: invalid choice: 'bogus' \(choose from .*\)",
                ("bogus",)),
        Refusal("unknown-flag", {}, r"unrecognized arguments: --bogus", SOLVE, ("--bogus",)),
    ],
    # every key is required, a physics record's field or a sweep's:
    # deleting any one key line of the baseline is refused by that key
    "test_every_physics_key_is_required": _required("environment", "system", "uav"),
    "test_every_sweep_key_is_required": _required("sweeps"),
    "test_refusal": [
        Refusal("unknown-section", {UAV: "[extras]\nfoo = 1\n" + UAV},
                r"unknown scenario section \[extras\]"),
        # the Monte-Carlo seed comes from the command line
        Refusal("seeds-section", {UAV: "[seeds]\nseeds = 1, 2, 3\n" + UAV},
                r"unknown scenario section \[seeds\]"),
        # configparser's default section lent its keys to every other section
        Refusal("default-section", {TOP: "[DEFAULT]\ndelta = 0.5\n" + TOP},
                r"unknown scenario section \[DEFAULT\]"),
        Refusal("empty-default-section", {TOP: "[DEFAULT]\n" + TOP},
                r"unknown scenario section \[DEFAULT\]"),
        Refusal("missing-section", {ENV: ""}, r"missing scenario section \[environment\]"),
        Refusal("missing-sweeps-section", {SWEEPS: ""}, r"missing scenario section \[sweeps\]"),
        Refusal("misspelled-sweep-key", {"h_step_m = 95": "h_stp_m = 95"},
                r"unknown key\(s\) in \[sweeps\]: h_stp_m"),
        # [system] alone declares the altitude range: a [sweeps] range once
        # moved solve's optimum to the end of the plot
        Refusal("sweep-h-start", {"h_step_m = 95": "h_start_m = 15\nh_step_m = 95"},
                r"unknown key\(s\) in \[sweeps\]: h_start_m"),
        Refusal("sweep-h-stop", {"h_step_m = 95": "h_stop_m = 200\nh_step_m = 95"},
                r"unknown key\(s\) in \[sweeps\]: h_stop_m"),
        # keys are case-sensitive, like sections: GAMMA once loaded as gamma
        Refusal("upper-case-key", {"gamma = 100": "GAMMA = 100"},
                r"unknown key\(s\) in \[system\]: GAMMA"),
        Refusal("mixed-case-sweep-key", {"h_step_m = 95": "H_Step_M = 0"},
                r"unknown key\(s\) in \[sweeps\]: H_Step_M"),
        Refusal("non-numeric", {"gamma = 100": "gamma = lots"},
                r"key 'gamma' is not a number: 'lots'"),
        Refusal("gamma-inf", {"gamma = 100": "gamma = inf"},
                r"key 'gamma' must be finite, got 'inf'"),
        Refusal("h-max-minus-inf", {"h_max_m = 300": "h_max_m = -inf"},
                r"key 'h_max_m' must be finite, got '-inf'"),
        Refusal("beta-hover-nan", {"beta_hover_w = 275.204": "beta_hover_w = NaN"},
                r"key 'beta_hover_w' must be finite, got 'NaN'"),
        Refusal("list-entry-nan", {GAMMAS: "gamma_list = 10, nan, 1000"},
                r"key 'gamma_list' must hold finite numbers only"),
        # int() truncated: -0.5 interferers ran as M = 0
        Refusal("negative-fractional-count", {INTERFERERS: "num_interferers = -0.5"},
                r"key 'num_interferers' must be a whole number, got '-0\.5'"),
        Refusal("negative-count", {INTERFERERS: "num_interferers = -1"},
                r"num_interferers must be non-negative"),
        Refusal("h-min-above-h-max", {"h_min_m = 15": "h_min_m = 400"},
                r"h_min_m must not exceed h_max_m"),
        Refusal("negative-climb-slope",
                {"alpha_climb_j_per_m = 315": "alpha_climb_j_per_m = -315"},
                r"energy slopes alpha_climb_j_per_m, alpha_hover_w_per_m must be non-negative"),
        Refusal("excess-loss-order", {"eta_los_db = 0.1": "eta_los_db = 22"},
                r"excess losses must satisfy 0 <= eta_los_db <= eta_nlos_db"),
        Refusal("delta-1", {"delta = 0.9": "delta = 1"}, DELTA_RANGE),
        Refusal("delta-1.5", {"delta = 0.9": "delta = 1.5"}, DELTA_RANGE),
        Refusal("delta--0.9", {"delta = 0.9": "delta = -0.9"}, DELTA_RANGE),
        Refusal("delta-0", {"delta = 0.9": "delta = 0"}, DELTA_RANGE),
        Refusal("phi-start--5", {"phi_start_deg = 5": "phi_start_deg = -5"},
                r"sweep phi_start_deg=-5 outside \(0, 90\] deg"),
        Refusal("phi-stop-95", {"phi_stop_deg = 60": "phi_stop_deg = 95"},
                r"sweep phi_stop_deg=95 outside \(0, 90\] deg"),
        Refusal("h-step--1", {"h_step_m = 95": "h_step_m = -1"},
                r"sweep h_step_m=-1 must be strictly positive"),
        Refusal("h-step-0", {"h_step_m = 95": "h_step_m = 0"},
                r"sweep h_step_m=0 must be strictly positive"),
        Refusal("phi-step--0.25", {"phi_step_deg = 5": "phi_step_deg = -0.25"},
                r"sweep phi_step_deg=-0\.25 must be strictly positive"),
        Refusal("phi-step-0", {"phi_step_deg = 5": "phi_step_deg = 0"},
                r"sweep phi_step_deg=0 must be strictly positive"),
        Refusal("phi-start-above-stop",
                {"phi_start_deg = 5": "phi_start_deg = 40",
                 "phi_stop_deg = 60": "phi_stop_deg = 30"},
                r"sweep phi_start_deg=40 above phi_stop_deg=30"),
        Refusal("nadir-only-phi-grid-89.9999999995",
                {**PHI, "phi_start_deg = 5": "phi_start_deg = 89.9999999995"}, NADIR_PHI),
        Refusal("gamma-list-comma", {GAMMAS: "gamma_list = ,"}, NO_GAMMAS),
        Refusal("gamma-list-commas", {GAMMAS: "gamma_list =  , ,"}, NO_GAMMAS),
        Refusal("gamma-list-negative", {GAMMAS: "gamma_list = 10, -20"},
                r"sweep gamma_list must hold positive values only"),
        Refusal("radius-list-empty", {RADII: "area_radius_list_m = "}, NO_RADII),
        Refusal("radius-list-commas", {RADII: "area_radius_list_m =  , ,"}, NO_RADII),
        Refusal("radius-list-negative", {RADII: "area_radius_list_m = 10, -20"},
                r"sweep area_radius_list_m must hold positive values only"),
    ],
}


def _refuse(tmp, row, verb) -> CliRun:
    never = calls_to(f"aapdeploy.{row.never}", forbid=True) if row.never else None
    with never or contextlib.nullcontext():
        run = run_cli(tmp, verb, *row.args, edits=row.edits)
    assert run.code == cli.EXIT_CONFIG
    assert len(run.err) == 1 and run.err[0].startswith("configuration error: "), run.err
    message = run.err[0].removeprefix("configuration error: ")
    assert re.fullmatch(row.message, message), message
    assert run.files is None
    return run


def _accept(tmp, row, verb) -> None:
    run = run_cli(tmp, verb, *row.args, text=row.text, edits=row.edits)
    assert (run.code, run.err) == (cli.EXIT_OK, []), run
    _assert_finite_outputs(run.files or {})
    assert row.check is None or row.check(run, tmp / "scn.ini"), run.out


def _table_test(rows, harness):
    if rows[0].id is None:

        def test(tmp_path):
            for row in rows:
                for verb in row.verbs:
                    harness(tmp_path, row, verb)

        return test
    cases = [
        pytest.param(row, verb, id="-".join(filter(None, (row.id, len(row.verbs) > 1 and verb))))
        for row in rows
        for verb in row.verbs
    ]

    @pytest.mark.parametrize("row,verb", cases)
    def test(tmp_path, row, verb):
        harness(tmp_path, row, verb)

    return test


globals().update((name, _table_test(rows, _refuse)) for name, rows in REFUSALS.items())
globals().update((name, _table_test(rows, _accept)) for name, rows in ACCEPTS.items())


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["--help"])
    assert exit_.value.code == cli.EXIT_OK
    assert capsys.readouterr().out.startswith("usage: aapdeploy")


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS, cli.MAX_TRIALS + 1, 10**9])
def test_trials_cap_is_checked_before_any_trial(tmp_path, trials):
    # The oracle fails if called, so no large run starts: MAX_TRIALS reaches
    # it, and one trial more is refused before it.
    row = Refusal(None, {}, rf"--trials must be at most 1,000,000, got {trials}", VALIDATE,
                  ("--trials", str(trials)), never="montecarlo.mean_sum_power")
    if trials > cli.MAX_TRIALS:
        _refuse(tmp_path, row, "validate")
    else:
        with pytest.raises(AssertionError, match="reached a function"):
            _refuse(tmp_path, row, "validate")


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_builtins_at_the_trials_cap_are_within_the_ue_budget(tmp_path, name):
    # 10^6 trials of 119 UEs, 1.2e8 in all: the first draw is reached, and
    # fails the run there, so no large run starts.
    with (
        calls_to("aapdeploy.montecarlo.sample_ues", forbid=True),
        pytest.raises(AssertionError, match="reached a function"),
    ):
        run_cli(tmp_path, "validate", "--trials", str(cli.MAX_TRIALS),
                text=builtin_scenario_path(name).read_text())
