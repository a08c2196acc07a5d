import json
import math

import pytest

from aapdeploy import cli, packing
from aapdeploy.io_utils import fmt_value, write_csv_atomic
from aapdeploy.scenario import builtin_scenario_path, load_scenario

BASELINE = str(builtin_scenario_path("baseline"))
ABLATION = str(builtin_scenario_path("no_vehicle_energy"))


def run(args):
    return cli.main(args)


@pytest.fixture()
def small_scenario(tmp_path):
    """Baseline physics with tiny sweep grids so CLI tests stay fast."""
    text = builtin_scenario_path("baseline").read_text()
    text = text.replace("h_step_m = 1", "h_step_m = 95")
    text = text.replace("phi_step_deg = 0.25", "phi_step_deg = 5")
    path = tmp_path / "small.ini"
    path.write_text(text)
    return str(path)


def test_fmt_value():
    assert fmt_value(True) == "true"
    assert fmt_value(False) == "false"
    assert fmt_value(7) == "7"
    assert fmt_value(0.1) == "0.1"
    assert fmt_value(1.0 / 3.0) == "0.333333333333"
    assert fmt_value("6;1") == "6;1"


def test_write_csv_atomic_format(tmp_path):
    path = tmp_path / "out" / "table.csv"
    write_csv_atomic(path, ["a", "b"], [[1, 0.5], [2, 1.25]])
    content = path.read_text()
    assert content == "a,b\n1,0.5\n2,1.25\n"
    assert not list(path.parent.glob("*.tmp"))


def test_missing_scenario_exits_config_error(capsys):
    assert run(["--scenario", "/nope.ini", "solve"]) == cli.EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_bad_scenario_exits_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[environment]\nnot_a_key = 1\n")
    assert run(["--scenario", str(bad), "solve"]) == cli.EXIT_CONFIG


def test_infeasible_place_exit_code(small_scenario, tmp_path, capsys):
    # coverage radius override larger than the target area
    code = run(
        ["--scenario", small_scenario, "--out", str(tmp_path / "o"), "--ra", "1000", "place"]
    )
    assert code == cli.EXIT_INFEASIBLE
    assert "infeasible" in capsys.readouterr().err


@pytest.mark.parametrize(
    "old,new,verb",
    [
        # NaN passed "a <= 0" and the solver then found no threshold (exit 1)
        ("a = 4.88", "a = nan", "solve"),
        # each of these raises ValueError deep inside the verb if not caught
        ("delta = 0.9", "delta = 0.01", "altitude-sweep"),
        ("h_stop_m = 300", "h_stop_m = 400", "altitude-sweep"),
        ("phi_start_deg = 5", "phi_start_deg = 0", "threshold-sweep"),
        ("phi_start_deg = 5", "phi_start_deg = 0", "solve"),
        # a bad step fails at load on every verb, not only on the verb that
        # builds that grid
        ("h_step_m = 95", "h_step_m = -95", "solve"),
        ("h_step_m = 95", "h_step_m = -95", "place"),
        ("h_step_m = 95", "h_step_m = -95", "threshold-sweep"),
        ("phi_step_deg = 5", "phi_step_deg = -5", "altitude-sweep"),
        # a fractional count was truncated: 2.7 interferers ran as M = 2
        ("num_interferers = 6", "num_interferers = 2.7", "solve"),
        # gamma was turned into a target power before any check and the error
        # named p_target_pa, a key the file does not hold
        ("gamma = 100", "gamma = -1", "solve"),
    ],
)
def test_bad_scenario_value_exits_config_error(
    small_scenario, tmp_path, capsys, old, new, verb
):
    path = tmp_path / "bad.ini"
    text = (tmp_path / "small.ini").read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert new.split(" = ")[0] in err[0]  # the message names the bad key
    assert not out.exists()


@pytest.mark.parametrize("ra", ["0", "-5", "nan", "inf"])
def test_bad_ra_exits_config_error(small_scenario, tmp_path, capsys, ra):
    out = tmp_path / "o"
    code = run(["--scenario", small_scenario, "--out", str(out), "--ra", ra, "place"])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith("configuration error: --ra")
    assert not out.exists()


def test_solve_writes_solution(small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["--scenario", small_scenario, "--out", str(out), "solve"]) == cli.EXIT_OK
    payload = json.loads((out / "solution.json").read_text())
    assert payload["h_opt_m"] == 15.0
    assert payload["binding_constraint"] == "min_altitude"
    assert payload["monotone_audit_passed"] is True
    assert payload["r_a_m"] == pytest.approx(
        15.0 / math.tan(math.radians(payload["phi_opt_deg"]))
    )
    assert "h_opt=15" in capsys.readouterr().out


def test_ablation_solve_uses_fallback(tmp_path):
    out = tmp_path / "out"
    assert run(["--scenario", ABLATION, "--out", str(out), "solve"]) == cli.EXIT_OK
    payload = json.loads((out / "solution.json").read_text())
    assert payload["monotone_audit_passed"] is False
    assert payload["h_opt_m"] > 15.0


def test_place_and_plan_round_trip(small_scenario, tmp_path):
    out = tmp_path / "out"
    code = run(
        ["--scenario", small_scenario, "--out", str(out), "--ra", "38.57", "place"]
    )
    assert code == cli.EXIT_OK
    payload = json.loads((out / "plan.json").read_text())
    plan = packing.run_algorithm1(payload["area_radius_m"], payload["r_a_m"])
    assert cli.plan_to_dict(plan) == payload  # the written plan is the rebuilt one
    assert packing.verify_levels(plan.levels, plan.r_a, plan.area_radius).all_ok
    # centres CSV has one row per AAP plus a header
    lines = (out / "centers.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.CENTERS_COLUMNS)
    assert len(lines) - 1 == plan.total_aaps


def test_altitude_sweep_output(small_scenario, tmp_path):
    out = tmp_path / "out"
    code = run(["--scenario", small_scenario, "--out", str(out), "altitude-sweep"])
    assert code == cli.EXIT_OK
    lines = (out / "altitude_sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.ALTITUDE_SWEEP_COLUMNS)
    # 3 gammas x 4 altitudes (15, 110, 205, 300)
    assert len(lines) - 1 == 12
    # GEE column strictly decreasing within each gamma block
    rows = [line.split(",") for line in lines[1:]]
    for g in {row[0] for row in rows}:
        gees = [float(row[3]) for row in rows if row[0] == g]
        assert all(b < a for a, b in zip(gees, gees[1:]))


def test_threshold_sweep_output(small_scenario, tmp_path):
    out = tmp_path / "out"
    code = run(["--scenario", small_scenario, "--out", str(out), "threshold-sweep"])
    assert code == cli.EXIT_OK
    lines = (out / "threshold_sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.THRESHOLD_SWEEP_COLUMNS)
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
    text = builtin_scenario_path("baseline").read_text()
    path = tmp_path / "phi90.ini"
    path.write_text(text.replace("phi_stop_deg = 60", "phi_stop_deg = 90"))
    scn = load_scenario(path)
    out = tmp_path / "out"
    code = run(["--scenario", str(path), "--out", str(out), "threshold-sweep"])
    assert code == cli.EXIT_OK
    lines = (out / "threshold_sweep.csv").read_text().splitlines()[1:]
    rows = [[float(cell) for cell in line.split(",")] for line in lines]
    assert [row[0] for row in rows] == scn.sweeps.phi_grid()[:-1]
    for phi, _delta, _gee, r_a, *_ in rows:
        expected = scn.system.h_min / math.tan(math.radians(phi))
        assert r_a == pytest.approx(expected, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_solved_phi_is_a_grid_point(name):
    scn = load_scenario(builtin_scenario_path(name))
    assert cli.solve_scenario(scn).phi_opt_deg in scn.sweeps.phi_grid()


def test_density_sweep_output(small_scenario, tmp_path, capsys):
    out = tmp_path / "out"
    code = run(
        ["--scenario", small_scenario, "--out", str(out), "--ra", "38.57", "density-sweep"]
    )
    assert code == cli.EXIT_OK
    lines = (out / "density_sweep.csv").read_text().splitlines()
    assert lines[0] == ",".join(cli.DENSITY_SWEEP_COLUMNS)
    rows = [line.split(",") for line in lines[1:]]
    assert [float(r[0]) for r in rows] == [180.48, 252.68]
    for row in rows:
        assert 0.5 < float(row[3]) <= 1.0
        assert row[5] != ""  # reference densities attached for both radii
    assert "indicative only" in capsys.readouterr().out


def test_validate_passes(small_scenario, capsys):
    code = run(
        ["--scenario", small_scenario, "--trials", "400", "--seed", "1", "validate"]
    )
    assert code == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "all validation checks passed" in out
    assert "[FAIL]" not in out


def test_place_deploys_the_solved_radius(tmp_path):
    # place and density-sweep must solve on the scenario's own threshold
    # grid, not a built-in default: with phi starting at 30 deg the solved
    # R_a (25.98 m) differs from the default-grid answer (38.57 m)
    text = builtin_scenario_path("baseline").read_text()
    path = tmp_path / "phi30.ini"
    path.write_text(text.replace("phi_start_deg = 5", "phi_start_deg = 30"))
    out = tmp_path / "out"
    for verb in ("solve", "place", "density-sweep"):
        assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_OK
    solved = json.loads((out / "solution.json").read_text())["r_a_m"]
    assert solved == pytest.approx(25.98, abs=0.01)
    assert json.loads((out / "plan.json").read_text())["r_a_m"] == solved
    rows = (out / "density_sweep.csv").read_text().splitlines()[1:]
    assert all(float(row.split(",")[1]) == pytest.approx(solved, rel=1e-11) for row in rows)


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_nonpositive_trials_exits_config_error(small_scenario, trials, capsys):
    code = run(["--scenario", small_scenario, "--trials", trials, "validate"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("verb", ["validate", "solve"])
def test_negative_seed_exits_config_error(small_scenario, tmp_path, capsys, verb):
    # numpy rejects a negative seed with a ValueError traceback
    out = tmp_path / "o"
    code = run(["--scenario", small_scenario, "--out", str(out), "--seed", "-1", verb])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --seed")
    assert err.count("\n") == 1
    assert not out.exists()


def test_solve_respects_scenario_output_dir(tmp_path, monkeypatch, small_scenario):
    # without --out the scenario's own output directory is used
    monkeypatch.chdir(tmp_path)
    scn = load_scenario(small_scenario)
    assert run(["--scenario", small_scenario, "solve"]) == cli.EXIT_OK
    assert (tmp_path / scn.output_dir / "solution.json").is_file()
