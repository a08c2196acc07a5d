import configparser
import itertools
import math
import re
import sys
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aapdeploy import scenario
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

[sweeps]
h_step_m = 1
phi_start_deg = 5
phi_stop_deg = 60
phi_step_deg = 0.25
delta = 0.9
gamma_list = 100
area_radius_list_m = 180.48
"""


def with_keys(**values):
    """BASE with each given key set to its value."""
    text = BASE
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
        assert count == 1, key
    return text


def write(tmp_path, text, name="scn.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_minimal_scenario(tmp_path):
    scn = load_scenario(write(tmp_path, BASE))
    assert scn.system.gamma == 100.0
    assert scn.system.p_target_pa == 100.0 * 4e-21 * 20e6
    assert scn.environment.a == 4.88
    assert scn.uav.alpha_climb_j_per_m == 315.0
    assert scn.sweeps.delta == 0.9
    assert scn.sweeps.gamma_list == (100.0,)
    assert scn.sweeps.area_radius_list_m == (180.48,)


def test_builtin_scenarios_load():
    baseline = load_scenario(builtin_scenario_path("baseline"))
    assert baseline.system.h_min_m == 15.0
    assert baseline.sweeps.gamma_list == (10.0, 100.0, 1000.0)
    ablation = load_scenario(builtin_scenario_path("no_vehicle_energy"))
    assert ablation.uav.alpha_climb_j_per_m == 0.0
    assert ablation.system.gamma == 0.01
    with pytest.raises(ConfigError):
        builtin_scenario_path("nonexistent")


POSITIVE = st.floats(-324.0, 308.0).map(lambda e: 10.0**e) | st.floats(
    min_value=0.0, exclude_min=True, allow_infinity=False
)


@settings(max_examples=200, deadline=None)
@given(gamma=POSITIVE, noise=POSITIVE, bandwidth=POSITIVE)
def test_gamma_is_held_as_stated(tmp_path_factory, gamma, noise, bandwidth):
    # load accepts exactly the values whose noise power and target power
    # are finite normal floats, and keeps gamma as written
    text = with_keys(
        gamma=repr(gamma), gamma_list=repr(gamma), noise_psd_w_per_hz=repr(noise),
        bandwidth_hz=repr(bandwidth),
    )
    path = write(tmp_path_factory.getbasetemp(), text, "gamma.ini")
    power = gamma * noise * bandwidth
    if not (noise * bandwidth >= sys.float_info.min and sys.float_info.min <= power < math.inf):
        with pytest.raises(ConfigError):
            load_scenario(path)
        return
    system = load_scenario(path).system
    assert system.gamma == gamma
    assert system.p_target_pa == power


def test_sweep_grid_construction(tmp_path):
    scn = load_scenario(write(tmp_path, with_keys(h_max_m=17)))
    assert scn.altitudes == (15.0, 16.0, 17.0)


@settings(max_examples=100, deadline=None)
@given(
    h_min=st.floats(1.0, 1e4), span=st.floats(0.0, 1e3), h_step=st.floats(0.1, 2e3)
)
def test_altitude_grid_spans_the_system_range(tmp_path_factory, h_min, span, h_step):
    # [system] alone declares the altitude range: the grid starts at h_min_m
    # and ends within one h_step_m of h_max_m
    h_max = h_min + span
    text = with_keys(h_min_m=repr(h_min), h_max_m=repr(h_max), h_step_m=repr(h_step))
    path = write(tmp_path_factory.getbasetemp(), text, "range.ini")
    altitudes = load_scenario(path).altitudes
    assert altitudes[0] == h_min
    assert h_max - h_step < altitudes[-1] <= h_max


def test_sweep_single_point_grid(tmp_path):
    text = with_keys(phi_start_deg=45, phi_stop_deg=45, phi_step_deg=1)
    scn = load_scenario(write(tmp_path, text))
    assert scn.phis_deg == (45.0,)
    # one angle short of the nadir-only cell is enough; a grid of only
    # angles within NADIR_TOL_DEG of 90 deg is refused (test_cli.py)
    text = with_keys(phi_start_deg="89.999999998", phi_stop_deg=90)
    assert load_scenario(write(tmp_path, text)).phis_deg == (89.999999998,)


def test_sweep_tiny_step_single_point_grid(tmp_path):
    # every point within the 1e-9 band above stop used to be kept as a
    # copy of stop: 60,001 copies of 60 deg, and 60,001 identical rows
    text = with_keys(phi_start_deg=60, phi_stop_deg=60, phi_step_deg="1e-12")
    assert load_scenario(write(tmp_path, text)).phis_deg == (60.0,)


def test_sub_ulp_grid_step_rejected():
    # 5e-12 is below the float spacing near 1e5 (1.5e-11): the old loop
    # built 20,020,003 points, 6,873 of them distinct
    with pytest.raises(ConfigError, match="h_step_m=5e-12 is below float spacing"):
        scenario._grid(1e5, 1e5 + 1e-7, 5e-12, "h_step_m")


def _loop_grid(start, stop, step):
    """The grid as a scalar loop, one point at a time: start + k * step up
    to stop within 1e-9 (relative), each point clamped to stop."""
    k = 0
    while (v := start + k * step) <= stop + 1e-9 * stop:
        yield min(v, stop)
        k += 1


@settings(max_examples=300, deadline=None)
@given(
    start=st.one_of(st.floats(1.0, 1e6), st.sampled_from([15.0, 60.0, 1e5])),
    steps=st.floats(0.0, 2000.0),
    step=st.floats(1e-14, 100.0),
    ulps=st.none() | st.floats(0.1, 3.0),
)
def test_grid_matches_scalar_loop(start, steps, step, ulps):
    # the loop's distinct points, or a ConfigError when it repeats a point
    # below stop.  A step of a few float spacings at start or less repeats
    # points, and a step below the 1e-9 band repeats stop millions of times,
    # so the loop is cut two points past the last one below stop.
    if ulps is not None:
        step = ulps * math.ulp(start)
    stop = start + steps * step
    points = list(itertools.islice(_loop_grid(start, stop, step), math.ceil(steps) + 3))
    below = [v for v in points if v < stop]
    if len(set(below)) < len(below):
        with pytest.raises(ConfigError, match="below float spacing"):
            scenario._grid(start, stop, step, "step")
    else:
        assert scenario._grid(start, stop, step, "step") == tuple(dict.fromkeys(points))


def test_sweep_grid_point_cap(tmp_path):
    # 2^-12 deg steps are exact: (stop - start) / step + 1 is a whole number
    step, cap = 2.0**-12, scenario.MAX_GRID_POINTS

    def phi_sweep(points):
        stop = 1.0 + (points - 1) * step
        return write(tmp_path, with_keys(phi_start_deg=1, phi_stop_deg=repr(stop),
                                         phi_step_deg=repr(step)))

    assert len(load_scenario(phi_sweep(cap)).phis_deg) == cap
    with pytest.raises(ConfigError, match=r"phi_step_deg=.* 1e\+05 grid points"):
        load_scenario(phi_sweep(cap + 1))


def test_whole_number_counts_accepted(tmp_path):
    text = BASE.replace("num_interferers = 6", "num_interferers = 6.0")
    assert load_scenario(write(tmp_path, text)).system.num_interferers == 6


BASELINE_TEXT = builtin_scenario_path("baseline").read_text()


@pytest.mark.parametrize(
    "key", [key for keys in scenario._FIELDS.values() for key in keys]
)
def test_every_listed_key_is_read(tmp_path, key):
    # scaling the key's numbers by 1.5 in baseline changes the loaded
    # scenario or is refused; a listed key the loader never read would
    # leave the scenario as it was
    line = re.search(rf"(?m)^{key} = (.*)$", BASELINE_TEXT)
    assert line, f"baseline sets no {key}"
    scaled = ", ".join(repr(float(v) * 1.5) for v in line.group(1).split(","))
    path = write(tmp_path, BASELINE_TEXT.replace(line.group(0), f"{key} = {scaled}"))
    try:
        changed = load_scenario(path)
    except ConfigError:
        return
    assert changed != load_scenario(builtin_scenario_path("baseline"))


@pytest.mark.parametrize("name", ["baseline", "no_vehicle_energy"])
def test_every_physics_key_is_the_field_of_its_name(name):
    # the records take the scenario's keys and units: each key of the three
    # physics sections sets the field of the same name to the value the file
    # states, and each field is such a key
    path = builtin_scenario_path(name)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read(path, encoding="utf-8")
    scn = load_scenario(path)
    for section in ("environment", "system", "uav"):
        record = getattr(scn, section)
        assert set(parser[section]) == {field.name for field in fields(record)}
        for key, text in parser[section].items():
            assert getattr(record, key) == float(text), (section, key)


def test_sweep_grid_never_passes_its_stop(tmp_path):
    # 0.1 + 2 * 0.1 is 0.30000000000000004 in binary floating point
    text = with_keys(phi_start_deg=0.1, phi_stop_deg=0.3, phi_step_deg=0.1)
    scn = load_scenario(write(tmp_path, text))
    assert scn.phis_deg == (0.1, 0.2, 0.3)
