import json

import pytest

from aapdeploy import cli
from aapdeploy.errors import ConfigError
from aapdeploy.scenario import builtin_scenario_path, load_scenario

BASE = """
[environment]
a = 4.88
b = 0.43
eta_los_db = 0.1
eta_nlos_db = 21
g0 = 1.42e-4

[system]
bandwidth_hz = 20e6
num_interferers = 6
circuit_power_w = 5
service_time_s = 500
p_max_w = 1e-3
gamma = 100
noise_psd_w_per_hz = 4e-21
ue_density_per_m2 = 1e-2
h_min_m = 15
h_max_m = 300
area_radius_m = 180.48

[uav]
alpha_climb_j_per_m = 315
beta_climb_j = -211.261
alpha_hover_w_per_m = 4.917
beta_hover_w = 275.204
"""


def write(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_minimal_scenario(tmp_path):
    scn = load_scenario(write(tmp_path, BASE))
    assert scn.system.gamma == pytest.approx(100.0)
    assert scn.system.p_target_pa == pytest.approx(100.0 * 4e-21 * 20e6)
    assert scn.environment.a == 4.88
    assert scn.uav.alpha_cl == 315.0
    # defaults kick in for the optional sections
    assert scn.sweeps.delta == 0.9
    assert scn.sweeps.gamma_list == (pytest.approx(100.0),)
    assert scn.sweeps.area_radius_list == (pytest.approx(180.48),)


def test_builtin_scenarios_load():
    baseline = load_scenario(builtin_scenario_path("baseline"))
    assert baseline.system.h_min == 15.0
    assert baseline.sweeps.gamma_list == (10.0, 100.0, 1000.0)
    ablation = load_scenario(builtin_scenario_path("no_vehicle_energy"))
    assert ablation.uav.alpha_cl == 0.0
    assert ablation.system.gamma == pytest.approx(0.01)
    with pytest.raises(ConfigError):
        builtin_scenario_path("nonexistent")


def test_missing_file():
    with pytest.raises(ConfigError):
        load_scenario("/nonexistent/scenario.ini")


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown key"):
        load_scenario(write(tmp_path, BASE + "\n[sweeps]\nh_strt_m = 15\n"))


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario section"):
        load_scenario(write(tmp_path, BASE + "\n[extras]\nfoo = 1\n"))


def test_missing_gamma_rejected(tmp_path):
    # gamma is the only way to set the target power
    with pytest.raises(ConfigError, match="missing required key 'gamma'"):
        load_scenario(write(tmp_path, BASE.replace("gamma = 100\n", "")))


def test_missing_required_section(tmp_path):
    text = BASE.replace("[uav]", "[sweeps]").replace("alpha_climb_j_per_m", "delta")
    with pytest.raises(ConfigError):
        load_scenario(write(tmp_path, text))


def test_non_numeric_value(tmp_path):
    with pytest.raises(ConfigError, match="not a number"):
        load_scenario(write(tmp_path, BASE.replace("gamma = 100", "gamma = lots")))


def test_excess_loss_ordering_enforced(tmp_path):
    bad = BASE.replace("eta_los_db = 0.1", "eta_los_db = 22")
    with pytest.raises(ConfigError):
        load_scenario(write(tmp_path, bad))


def test_missing_g0_rejected(tmp_path):
    # g0 is the only way to set the reference gain
    with pytest.raises(ConfigError, match="missing required key 'g0'"):
        load_scenario(write(tmp_path, BASE.replace("g0 = 1.42e-4\n", "")))


def test_sweep_grid_construction(tmp_path):
    text = BASE + "\n[sweeps]\nh_start_m = 15\nh_stop_m = 17\nh_step_m = 1\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.sweeps.altitude_grid() == [15.0, 16.0, 17.0]


def test_sweep_single_point_grid(tmp_path):
    text = BASE + "\n[sweeps]\nphi_start_deg = 45\nphi_stop_deg = 45\nphi_step_deg = 1\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.sweeps.phi_grid() == [45.0]


def test_sweep_bad_step(tmp_path):
    # rejected when the file is loaded, whichever verb would use the grid
    for sweep in ("h_step_m = -1", "h_step_m = 0", "phi_step_deg = -0.25", "phi_step_deg = 0"):
        with pytest.raises(ConfigError, match="must be strictly positive"):
            load_scenario(write(tmp_path, BASE + f"\n[sweeps]\n{sweep}\n"))


@pytest.mark.parametrize(
    "sweep",
    [
        "h_start_m = 200\nh_stop_m = 100",
        "phi_start_deg = 40\nphi_stop_deg = 30",
    ],
)
def test_sweep_start_above_stop(tmp_path, sweep):
    with pytest.raises(ConfigError, match="above"):
        load_scenario(write(tmp_path, BASE + f"\n[sweeps]\n{sweep}\n"))


def test_seeds_and_output(tmp_path):
    scn = load_scenario(write(tmp_path, BASE + "\n[output]\ndirectory = results\n"))
    assert str(scn.output_dir) == "results"
    # the Monte-Carlo seed is the --seed flag; a [seeds] section would be ignored
    text = BASE + "\n[seeds]\nseeds = 1, 2, 3\n"
    with pytest.raises(ConfigError, match="unknown scenario section"):
        load_scenario(write(tmp_path, text))


@pytest.mark.parametrize(
    "old,new",
    [
        ("a = 4.88", "a = nan"),
        ("gamma = 100", "gamma = inf"),
        ("h_max_m = 300", "h_max_m = -inf"),
        ("beta_hover_w = 275.204", "beta_hover_w = NaN"),
    ],
)
def test_non_finite_value_rejected(tmp_path, old, new):
    with pytest.raises(ConfigError, match="must be finite"):
        load_scenario(write(tmp_path, BASE.replace(old, new)))


@pytest.mark.parametrize(
    "old,new",
    [
        ("num_interferers = 6", "num_interferers = 2.7"),
        ("num_interferers = 6", "num_interferers = -0.5"),
    ],
)
def test_fractional_count_rejected(tmp_path, old, new):
    # int() would truncate: 2.7 interferers would load as M = 2, -0.5 as M = 0
    with pytest.raises(ConfigError, match="whole number"):
        load_scenario(write(tmp_path, BASE.replace(old, new)))


def test_whole_number_counts_accepted(tmp_path):
    text = BASE.replace("num_interferers = 6", "num_interferers = 6.0")
    assert load_scenario(write(tmp_path, text)).system.num_interferers_m == 6


def test_non_finite_list_entry_rejected(tmp_path):
    text = BASE + "\n[sweeps]\ngamma_list = 10, nan, 1000\n"
    with pytest.raises(ConfigError, match="finite numbers only"):
        load_scenario(write(tmp_path, text))


@pytest.mark.parametrize("delta", ["0.01", "1", "1.5", "-0.9", "0"])
def test_sweep_delta_outside_the_s_curve_rejected(tmp_path, delta):
    # delta_lower_bound is about 0.026 for this environment
    with pytest.raises(ConfigError, match="sweep delta"):
        load_scenario(write(tmp_path, BASE + f"\n[sweeps]\ndelta = {delta}\n"))


@pytest.mark.parametrize("key,value", [("h_stop_m", 400), ("h_start_m", 10)])
def test_altitude_sweep_outside_range_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=rf"sweep {key}=.*outside \[h_min, h_max\]"):
        load_scenario(write(tmp_path, BASE + f"\n[sweeps]\n{key} = {value}\n"))


@pytest.mark.parametrize(
    "key,value", [("phi_start_deg", 0), ("phi_start_deg", -5), ("phi_stop_deg", 95)]
)
def test_phi_sweep_outside_range_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=rf"sweep {key}=.*outside \(0, 90\]"):
        load_scenario(write(tmp_path, BASE + f"\n[sweeps]\n{key} = {value}\n"))


def test_phi_sweep_end_point_at_the_zenith_accepted(tmp_path, capsys):
    # with b = 1 the LoS probability at 90 deg rounds to exactly 1.0, which
    # no threshold inverts; the grid holds angles, so nothing inverts it and
    # the solver skips the nadir-only 90 deg cell
    text = BASE.replace("b = 0.43", "b = 1") + "\n[sweeps]\nphi_stop_deg = 90\n"
    path = write(tmp_path, text)
    assert load_scenario(path).sweeps.phi_grid()[-1] == 90.0
    out = tmp_path / "out"
    for verb in ("solve", "place"):
        assert cli.main(["--scenario", str(path), "--out", str(out), verb]) == cli.EXIT_OK
    assert json.loads((out / "solution.json").read_text())["phi_opt_deg"] == 18.25
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key", ["gamma_list", "area_radius_list_m"])
def test_non_positive_sweep_list_rejected(tmp_path, key):
    text = BASE + f"\n[sweeps]\n{key} = 10, -20\n"
    with pytest.raises(ConfigError, match=f"sweep {key} must hold positive"):
        load_scenario(write(tmp_path, text))


@pytest.mark.parametrize("key", ["gamma_list", "area_radius_list_m"])
@pytest.mark.parametrize("value", ["", ",", " , ,"])
def test_empty_sweep_list_rejected(tmp_path, key, value):
    # an empty list once loaded and the sweep wrote a header-only CSV
    text = BASE + f"\n[sweeps]\n{key} = {value}\n"
    with pytest.raises(ConfigError, match=f"key '{key}' holds no numbers"):
        load_scenario(write(tmp_path, text))


def test_sweep_grid_never_passes_its_stop(tmp_path):
    # 0.1 + 2 * 0.1 is 0.30000000000000004 in binary floating point
    text = BASE + "\n[sweeps]\nphi_start_deg = 0.1\nphi_stop_deg = 0.3\nphi_step_deg = 0.1\n"
    scn = load_scenario(write(tmp_path, text))
    assert scn.sweeps.phi_grid() == [0.1, 0.2, 0.3]
