import errno
import json
import math
from pathlib import Path

import numpy as np
import pytest

from aapdeploy import cli, packing, scenario, uplink
from aapdeploy.io_utils import write_csv_atomic
from aapdeploy.scenario import builtin_scenario_path, load_scenario

BASELINE = str(builtin_scenario_path("baseline"))
ALL_VERBS = list(cli.VERBS)
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


def test_csv_cell_format(tmp_path):
    # floats and float subclasses at 12 significant digits, the rest as str
    path = tmp_path / "cells.csv"
    cells = [7, 0.1, 1.0 / 3.0, "6;1", np.float64(2.0 / 3.0), True, "", 1e-300]
    write_csv_atomic(path, list("abcdefgh"), [cells, cells[::-1]])
    row = "7,0.1,0.333333333333,6;1,0.666666666667,True,,1e-300"
    assert path.read_text().splitlines()[1:] == [row, ",".join(row.split(",")[::-1])]


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
        # an empty sweep list wrote a header-only CSV and exited 0
        ("gamma_list = 10, 100, 1000", "gamma_list = ", "altitude-sweep"),
        ("area_radius_list_m = 180.48, 252.68", "area_radius_list_m = ,", "density-sweep"),
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


@pytest.mark.parametrize("verb", ["solve", "validate"])
@pytest.mark.parametrize(
    "line", ["resource_blocks = 2", "tpc_beta = 0.5", "p_target_w = 8e-12"]
)
def test_oracle_only_power_keys_are_unknown(small_scenario, tmp_path, capsys, line, verb):
    # The closed forms assume one resource block and full power control.
    # The first two keys once changed only the Monte-Carlo side, so solve
    # accepted a file (exit 0) that validate then failed (exit 3).  gamma is
    # the one way to set the target power, so p_target_w is unknown too.
    path = tmp_path / "bad.ini"
    text = (tmp_path / "small.ini").read_text()
    path.write_text(text.replace("num_interferers = 6", f"num_interferers = 6\n{line}"))
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"configuration error: unknown key(s) in [system]: {line.split(' = ')[0]}"
    ]


@pytest.mark.parametrize("verb", ["solve", "validate"])
def test_carrier_frequency_key_is_unknown(small_scenario, tmp_path, capsys, verb):
    # g0 is the one way to set the reference gain
    path = tmp_path / "bad.ini"
    text = (tmp_path / "small.ini").read_text()
    assert "g0 = 1.42e-4" in text
    path.write_text(
        text.replace("g0 = 1.42e-4", "g0 = 1.42e-4\ncarrier_frequency_hz = 2e9")
    )
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "configuration error: unknown key(s) in [environment]: carrier_frequency_hz"
    ]


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_zero_service_time_exits_config_error(small_scenario, tmp_path, capsys, verb):
    # T = 0 made the zero-vehicle-energy GEE 0/0: the sweeps wrote nan, exit 0
    path = tmp_path / "bad.ini"
    text = (tmp_path / "small.ini").read_text()
    assert "service_time_s = 500" in text
    path.write_text(text.replace("service_time_s = 500", "service_time_s = 0"))
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:")
    assert "service_time" in err[0]
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("verb", ALL_VERBS)
def test_steep_s_curve_runs_every_verb(small_scenario, tmp_path, capsys, verb):
    # a * b = 720: exp(a * b) in the S-curve's infimum overflowed, and every
    # verb died with a traceback while the scenario loaded
    path = tmp_path / "steep.ini"
    text = (tmp_path / "small.ini").read_text()
    assert "a = 4.88\nb = 0.43" in text
    path.write_text(text.replace("a = 4.88\nb = 0.43", "a = 30\nb = 24"))
    assert run(["--scenario", str(path), "--out", str(tmp_path / "o"), verb]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_steeper_s_curve_runs_every_verb(small_scenario, tmp_path, capsys, verb):
    # a = b = 30: exp(b (a - phi)) overflows below the knee, where the LoS
    # probability is 0; verbs run with overflow raised, and this one must
    # not count as a scenario beyond the floating-point range
    path = Path(small_scenario)
    path.write_text(path.read_text().replace("a = 4.88\nb = 0.43", "a = 30\nb = 30"))
    assert run(["--scenario", small_scenario, "--out", str(tmp_path / "o"), verb]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_s_curve_tail_past_the_float_range_runs_every_verb(
    small_scenario, tmp_path, capsys, verb
):
    # a = b = 30 at phi = 6.4 deg: exp(b (a - phi)) is finite, but a times
    # it overflowed outside the ignored region, and the verbs that evaluate
    # that threshold exited 2 naming the floating-point range
    path = Path(small_scenario)
    text = path.read_text().replace("a = 4.88\nb = 0.43", "a = 30\nb = 30")
    path.write_text(text.replace("phi_start_deg = 5", "phi_start_deg = 6.4"))
    assert run(["--scenario", small_scenario, "--out", str(tmp_path / "o"), verb]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""


def test_exhausted_quadrature_budget_fails_validate(
    small_scenario, capsys, monkeypatch
):
    # one panel cannot resolve the steep S-curve's turn inside the cell
    path = Path(small_scenario)
    path.write_text(path.read_text().replace("a = 4.88\nb = 0.43", "a = 30\nb = 24"))
    monkeypatch.setattr(uplink, "LOS_BREAKS", ())
    monkeypatch.setattr(uplink, "QUAD_MAX_PANELS", 1)
    code = run(["--scenario", small_scenario, "--trials", "100", "validate"])
    assert code == cli.EXIT_VALIDATION
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1, err
    assert err[0].startswith("error: sum-power quadrature achieved only")
    assert captured.out == ""


@pytest.mark.parametrize("verb", ALL_VERBS)
def test_huge_s_curve_offset_exits_config_error(small_scenario, tmp_path, capsys, verb):
    # a = 1e300 puts the whole S-curve beyond 90 deg: the sweep delta has no
    # elevation angle, which is a configuration error, not an overflow
    path = tmp_path / "huge.ini"
    text = (tmp_path / "small.ini").read_text()
    path.write_text(text.replace("a = 4.88", "a = 1e300"))
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: sweep delta: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "curve,delta",
    [
        # high-rise: P_LoS(90 deg) = 0.848, below the top of the check's grid
        ("a = 27.23\nb = 0.08", "0.5"),
        # P_LoS(90 deg) = 0.014: no grid threshold is reachable, so the
        # check inverts the scenario's own delta
        ("a = 80\nb = 0.01", "0.01"),
    ],
    ids=["high-rise", "no-grid-threshold"],
)
def test_s_curve_below_the_round_trip_grid_validates(tmp_path, capsys, curve, delta):
    # the round-trip check inverted thresholds the curve never reaches and
    # died with a traceback and the "infeasible" exit code
    text = Path(BASELINE).read_text().replace("a = 4.88\nb = 0.43", curve)
    path = tmp_path / "curve.ini"
    path.write_text(text.replace("delta = 0.9", f"delta = {delta}"))
    assert run(["--scenario", str(path), "validate"]) == cli.EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "[PASS] LoS threshold inversion round-trip" in captured.out


@pytest.mark.parametrize("a,b", [(0.5, 2e6), (4.0, 2.5e5), (80.0, 12500.0)])
def test_s_curve_cap(small_scenario, tmp_path, capsys, a, b):
    # at a * b = MAX_S_CURVE_AB the round trip keeps about 2e-11, well
    # inside validate's 1e-9; a curve past the cap is refused at load
    assert a * b == scenario.MAX_S_CURVE_AB
    text = Path(small_scenario).read_text()
    path = tmp_path / "cap.ini"
    path.write_text(text.replace("a = 4.88\nb = 0.43", f"a = {a}\nb = {b}"))
    assert run(["--scenario", str(path), "--trials", "100", "validate"]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    path.write_text(text.replace("a = 4.88\nb = 0.43", f"a = {a}\nb = {b * 1.001}"))
    assert run(["--scenario", str(path), "--trials", "100", "validate"]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error: LoS S-curve a * b")


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


def test_validate_with_no_ue_drawn_exits_config_error(small_scenario, capsys):
    # At 1e-150 UEs/m^2 no trial draws a UE; a mean and a stderr of 0 used to
    # fail the Monte-Carlo check (exit 3) with rel diff 1.0.
    path = Path(small_scenario)
    old = "ue_density_per_m2 = 1e-2"
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, "ue_density_per_m2 = 1e-150"))
    code = run(["--scenario", small_scenario, "--trials", "100", "validate"])
    assert code == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "[FAIL]" not in captured.out
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    assert "drew no UE in 100 trials" in err[0]
    assert "1.19e-146 UEs per trial on average" in err[0]


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


@pytest.mark.parametrize("trials", ["1", "0", "-3"])
def test_nonpositive_trials_exits_config_error(small_scenario, trials, capsys):
    code = run(["--scenario", small_scenario, "--trials", trials, "validate"])
    assert code == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("trials", [cli.MAX_TRIALS, cli.MAX_TRIALS + 1, 10**9])
def test_trials_cap_is_checked_before_any_trial(
    small_scenario, monkeypatch, capsys, trials
):
    # The oracle is replaced by one that fails if called, so no large run
    # starts: MAX_TRIALS reaches it, one trial more exits 2 before it.
    def never(*_args):
        raise AssertionError("ran the Monte-Carlo oracle")

    monkeypatch.setattr(cli.montecarlo, "mean_sum_power", never)
    args = ["--scenario", small_scenario, "--trials", str(trials), "validate"]
    if trials == cli.MAX_TRIALS:
        with pytest.raises(AssertionError, match="ran the Monte-Carlo oracle"):
            run(args)
        return
    assert run(args) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("configuration error: --trials must be at most 1,000,000")
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


def test_place_without_out_writes_to_out(tmp_path, monkeypatch, small_scenario):
    # the output directory comes from --out only, and defaults to ./out
    monkeypatch.chdir(tmp_path)
    assert run(["--scenario", small_scenario, "place"]) == cli.EXIT_OK
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out", "small.ini"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "centers.csv",
        "plan.json",
    ]


def test_output_section_exits_config_error(small_scenario, tmp_path, capsys):
    path = Path(small_scenario)
    path.write_text(path.read_text() + "\n[output]\ndirectory = results\n")
    out = tmp_path / "o"
    assert run(["--scenario", small_scenario, "--out", str(out), "place"]) == cli.EXIT_CONFIG
    line = config_error_line(capsys)
    assert line == "configuration error: unknown scenario section [output]"
    assert not out.exists()


def config_error_line(capsys) -> str:
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("configuration error:"), err
    return err[0]


def test_non_utf8_scenario_exits_config_error(tmp_path, capsys):
    # a UTF-16 byte-order mark used to end in a UnicodeDecodeError traceback
    path = tmp_path / "utf16.ini"
    path.write_bytes(b"\xff\xfe" + Path(BASELINE).read_bytes())
    out = tmp_path / "o"
    assert run(["--scenario", str(path), "--out", str(out), "solve"]) == cli.EXIT_CONFIG
    assert "not UTF-8" in config_error_line(capsys)
    assert not out.exists()


def test_unreadable_scenario_exits_config_error(small_scenario, tmp_path, monkeypatch, capsys):
    # ConfigParser.read skipped a file it could not open, so the error named
    # a missing [environment] section.  Permission bits do not stop a
    # superuser, so the refusal is simulated.
    locked = Path(small_scenario)
    real_open = Path.open

    def refuse(self, *args, **kwargs):
        if self == locked:
            raise PermissionError(errno.EACCES, "Permission denied", str(self))
        return real_open(self, *args, **kwargs)

    monkeypatch.setattr(Path, "open", refuse)
    out = tmp_path / "o"
    assert run(["--scenario", small_scenario, "--out", str(out), "solve"]) == cli.EXIT_CONFIG
    line = config_error_line(capsys)
    assert "cannot read scenario file" in line and "Permission denied" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "text",
    ["a = 1\n", "[uav]\n[uav]\n", "[uav]\ngarbage\n"],
    ids=["no-section-header", "duplicate-section", "line-without-key"],
)
def test_unparsable_scenario_exits_with_one_line(tmp_path, capsys, text):
    # configparser's own messages span up to three lines
    path = tmp_path / "bad.ini"
    path.write_text(text)
    assert run(["--scenario", str(path), "solve"]) == cli.EXIT_CONFIG
    assert "cannot parse scenario file" in config_error_line(capsys)


@pytest.mark.parametrize("verb", ["solve", "place"])
def test_out_that_is_a_file_exits_config_error(small_scenario, tmp_path, capsys, verb):
    # creating the output directory raised FileExistsError: a traceback and
    # exit 1, the code for an infeasible scenario
    out = tmp_path / "taken"
    out.write_text("not a directory\n")
    assert run(["--scenario", small_scenario, "--out", str(out), verb]) == cli.EXIT_CONFIG
    assert str(out) in config_error_line(capsys)
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


def _assert_finite_outputs(out: Path) -> None:
    for path in out.iterdir():
        text = path.read_text()
        if path.suffix == ".json":
            json.loads(text, parse_constant=pytest.fail)
        else:
            for cell in ",".join(text.splitlines()[1:]).split(","):
                try:
                    value = float(cell)
                except ValueError:
                    continue
                assert math.isfinite(value), (path.name, cell)


@pytest.mark.parametrize("verb", ALL_VERBS)
@pytest.mark.parametrize("old", EXTREME_VALUES)
def test_extreme_finite_value_fails_closed(
    small_scenario, tmp_path, capsys, old, verb
):
    new, refused = EXTREME_VALUES[old]
    path = Path(small_scenario)
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new))
    out = tmp_path / "o"
    code = run(
        ["--scenario", small_scenario, "--out", str(out), "--trials", "100", verb]
    )
    err = capsys.readouterr().err.splitlines()
    if verb in refused:
        assert code == cli.EXIT_CONFIG
    if code == cli.EXIT_OK:
        _assert_finite_outputs(out)
        return
    # solve, place and density-sweep may still find no feasible threshold
    prefix = {cli.EXIT_CONFIG: "configuration error:", cli.EXIT_INFEASIBLE: "infeasible"}
    assert len(err) == 1 and err[0].startswith(prefix[code]), (code, err)
    assert not out.exists()


@pytest.mark.parametrize("verb", ALL_VERBS)
@pytest.mark.parametrize(
    "edits,power",
    [
        # P_a = 4e-319: validate failed its quadrature check at 2.7e-7
        ({"bandwidth_hz = 20e6": "bandwidth_hz = 1e-300"}, "noise_psd * bandwidth"),
        # sigma0^2 W = 4e-321 with a normal P_a = 4e-301
        (
            {"bandwidth_hz = 20e6": "bandwidth_hz = 1e-300", "gamma = 100": "gamma = 1e20"},
            "noise_psd * bandwidth",
        ),
        # a sweep gamma whose target power is subnormal
        (
            {"gamma_list = 10, 100, 1000": "gamma_list = 10, 1e-300"},
            "sweep gamma_list: gamma * noise_psd * bandwidth",
        ),
    ],
    ids=["bandwidth", "noise-power-only", "gamma-list"],
)
def test_subnormal_power_exits_config_error(small_scenario, tmp_path, capsys, verb, edits, power):
    path = Path(small_scenario)
    text = path.read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path.write_text(text)
    out = tmp_path / "o"
    code = run(["--scenario", small_scenario, "--out", str(out), "--trials", "100", verb])
    assert code == cli.EXIT_CONFIG
    line = config_error_line(capsys)
    assert line.startswith(f"configuration error: {power} = ")
    assert "below the smallest normal float" in line
    assert not out.exists()


@pytest.mark.parametrize("verb", ALL_VERBS)
@pytest.mark.parametrize(
    "old,new",
    [
        # 5.5e8 elevation thresholds: every grid verb ran until killed
        ("phi_step_deg = 5", "phi_step_deg = 1e-7"),
        ("h_step_m = 95", "h_step_m = 1e-9"),
    ],
)
def test_too_fine_sweep_grid_exits_config_error(
    small_scenario, tmp_path, capsys, monkeypatch, verb, old, new
):
    def never(*_args):
        raise AssertionError("built a refused grid")

    monkeypatch.setattr(scenario, "_grid", never)
    path = Path(small_scenario)
    path.write_text(path.read_text().replace(old, new))
    out = tmp_path / "o"
    assert run(["--scenario", small_scenario, "--out", str(out), verb]) == cli.EXIT_CONFIG
    line = config_error_line(capsys)
    assert new.split(" = ")[0] in line and "grid points" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "old,new",
    [
        # 10 ** 400 raised OverflowError while the file was loaded
        ("eta_los_db = 0.1", "eta_los_db = 4000"),
        # cot^2 of the first grid angle divided by a tan^2 that underflows to 0
        ("phi_start_deg = 5", "phi_start_deg = 1e-300"),
    ],
)
def test_value_beyond_float_range_exits_config_error(
    small_scenario, tmp_path, capsys, old, new
):
    path = Path(small_scenario)
    path.write_text(path.read_text().replace(old, new))
    out = tmp_path / "o"
    assert run(["--scenario", small_scenario, "--out", str(out), "solve"]) == cli.EXIT_CONFIG
    assert "floating-point range" in config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        # R/R_a = 9,024: tens of millions of AAPs
        ["--ra", "0.02", "place"],
        ["--ra", "0.02", "density-sweep"],
    ],
)
def test_absurd_area_ratio_exits_config_error(
    small_scenario, tmp_path, capsys, monkeypatch, args
):
    def never(*_args):
        raise AssertionError("levels built for a refused ratio")

    monkeypatch.setattr(packing, "_build_levels", never)
    out = tmp_path / "o"
    assert run(["--scenario", small_scenario, "--out", str(out), *args]) == cli.EXIT_CONFIG
    assert "too many AAPs" in config_error_line(capsys)
    assert not out.exists()


def test_absurd_sweep_radius_exits_config_error(small_scenario, tmp_path, capsys):
    # the first radius is planned (R/R_a = 7), the second refused
    path = Path(small_scenario)
    old = "area_radius_list_m = 180.48, 252.68"
    path.write_text(path.read_text().replace(old, "area_radius_list_m = 180.48, 1e9"))
    out = tmp_path / "o"
    code = run(["--scenario", small_scenario, "--out", str(out), "density-sweep"])
    assert code == cli.EXIT_CONFIG
    assert "too many AAPs" in config_error_line(capsys)
    assert not out.exists()


@pytest.mark.parametrize("ratio", [None, 10, 80])
def test_plan_json_fixes_every_centre(tmp_path, ratio):
    # plan.json holds no coordinates: a level's count n and centre radius c
    # give centre m as (c cos(2 pi m / n), c sin(2 pi m / n))
    out = tmp_path / "o"
    ra = [] if ratio is None else ["--ra", repr(180.48 / ratio)]
    assert run(["--scenario", BASELINE, "--out", str(out), *ra, "place"]) == cli.EXIT_OK
    plan = json.loads((out / "plan.json").read_text())
    expected = packing.run_algorithm1(plan["area_radius_m"], plan["r_a_m"])
    rebuilt = []
    for level, reference in zip(plan["levels"], expected.levels, strict=True):
        assert "centers" not in level
        n, c = level["count"], level["center_radius_m"]
        centers = tuple(
            (c * math.cos(2.0 * math.pi * m / n), c * math.sin(2.0 * math.pi * m / n))
            for m in range(n)
        )
        assert centers == reference.centers
        rebuilt.extend(centers)
    table = (out / "centers.csv").read_text().splitlines()[1:]
    rows = [row.split(",")[3:] for row in table]
    assert rows == [[format(x, ".12g"), format(y, ".12g")] for x, y in rebuilt]
