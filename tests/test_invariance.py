"""Exact invariance under a change of the unit of length, energy or time.

Each scenario key and each output is named after its unit, and
``conftest.unit_power`` reads from the name the power of k by which its
value changes when one unit shrinks by k = 2^j: every key is scaled so, and
every output is divided so, on the length, energy or time axis.  The same
deployment in another unit must then give the same outputs, bit for bit,
since multiplying by a power of two is exact in binary floating point.  A
tolerance, slack, cap or floor with an absolute value in metres, joules or
seconds (hertz, watts) breaks this.  On the length axis j is capped at 6
because load requires g0 < 1; the packing alone has no such bound, and
takes j from -40 to 40.
"""

import configparser
import dataclasses
import functools
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from aapdeploy import channel, cli, packing, uplink
from aapdeploy.scenario import builtin_scenario_path, load_scenario
from conftest import run_cli, unit_power

# Each case's built-in scenario and the key values it changes at k = 1.
# At h_max_m = 222 the ablation's optimum, 220.55 m, lies close below h_max;
# at h_max_m = 300.5 the altitude grid, from 15 m in 1 m steps, ends half a
# step short of h_max.
CASES = {
    "baseline": ("baseline", {}),
    "no_vehicle_energy": ("no_vehicle_energy", {}),
    "no_vehicle_energy_h_max_222": ("no_vehicle_energy", {"h_max_m": "222"}),
    "baseline_h_max_300.5": ("baseline", {"h_max_m": "300.5"}),
}

EXPONENTS = (-40, -32, -1, 4, 6)


def scaled_text(case, k, axis):
    """The case's scenario with every key scaled by k to its power on ``axis``."""
    name, overrides = CASES[case]
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None
    )
    parser.read_string(builtin_scenario_path(name).read_text())
    keys = {key for section in parser.sections() for key in parser[section]}
    assert keys >= overrides.keys(), overrides.keys() - keys
    for section in parser.sections():
        for key, text in parser[section].items():
            power, text = unit_power(key, axis), overrides.get(key, text)
            if power:
                text = ", ".join(repr(float(value) * k**power) for value in text.split(","))
            parser[section][key] = text
    text = io.StringIO()
    parser.write(text)
    return text.getvalue()


def unscaled(value, k, axis, name=""):
    """``value``, a JSON object, a table of columns or a cell of one, with
    each number divided by k to the power of its name on ``axis``."""
    if isinstance(value, dict):
        return {key: unscaled(item, k, axis, key) for key, item in value.items()}
    if isinstance(value, list):
        return [unscaled(item, k, axis, name) for item in value]
    power = unit_power(name, axis)
    return value / k**power if power else value


def scaled_outputs(tmp_path, case, j, axis="length"):
    """The outputs of all six verbs on the case with every key scaled by
    k = 2^j on ``axis``, brought back to k = 1 by ``unscaled``: exit codes,
    validate's stdout, and the solution, the plan and each CSV table by file
    name, the tables read from the columns the verbs pass to the writer
    before rounding to text.  density-sweep's reference_density is left
    out: it matches area radii in metres by design."""
    k = 2.0**j
    text, tables = scaled_text(case, k, axis), {}
    write_csv = cli.write_csv_atomic

    def capture(path, table):
        tables[path.name] = table
        write_csv(path, table)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "write_csv_atomic", capture)
        runs = {verb: run_cli(tmp_path, verb, text=text) for verb in cli.VERBS}
    tables.get("density_sweep.csv", {}).pop("reference_density", None)
    # the ablation's coverage radius exceeds its area radius: place and
    # density-sweep exit 1 and write nothing
    place = runs["place"]
    plan = json.loads(place.files["plan.json"]) if place.code == cli.EXIT_OK else None
    solution = json.loads(runs["solve"].files["solution.json"])
    return {
        "exit codes": {verb: run.code for verb, run in runs.items()},
        **unscaled({"solve": solution, "place": plan, **tables}, k, axis),
        "validate": runs["validate"].out,
    }


@pytest.fixture(scope="module")
def at_unit_scale(tmp_path_factory):
    @functools.cache
    def outputs(case):
        return scaled_outputs(tmp_path_factory.mktemp(case), case, 0)

    return outputs


@pytest.mark.parametrize(
    "case, j",
    [(case, j) for case in ("baseline", "no_vehicle_energy") for j in EXPONENTS]
    + [("no_vehicle_energy_h_max_222", -32), ("baseline_h_max_300.5", -32)],
)
def test_outputs_scale_with_the_unit_of_length(tmp_path, at_unit_scale, case, j):
    scaled, reference = scaled_outputs(tmp_path, case, j), at_unit_scale(case)
    for verb in reference:
        assert scaled[verb] == reference[verb], verb


# The unit of power changes with the unit of energy at fixed seconds, and
# with the unit of time at fixed joules; only the time cases' ids say so.
@pytest.mark.parametrize("j", EXPONENTS)
@pytest.mark.parametrize("axis, case", [
    pytest.param(axis, case, id=case if axis == "energy" else f"time-{case}")
    for axis in ("energy", "time") for case in ("baseline", "no_vehicle_energy")
])
def test_outputs_scale_with_the_unit_of_power(tmp_path, at_unit_scale, axis, case, j):
    k = 2.0**j
    reference = dict(at_unit_scale(case))
    # validate prints the exact and closed-form sum powers rounded, so the
    # scaled run must print the k = 1 library values times k to W's power
    watt = k ** unit_power("sum_power_w", axis)
    scn = load_scenario(builtin_scenario_path(case))
    cell = (scn.system.h_min_m, scn.phi_deg, scn.system, scn.environment)
    exact = uplink.expected_sum_power_exact(*cell)
    closed = uplink.expected_sum_power_closed_form(*cell)
    printed = f"exact={exact:.6e} W closed={closed:.6e} W"
    assert printed in reference["validate"]
    reference["validate"] = reference["validate"].replace(
        printed, f"exact={exact * watt:.6e} W closed={closed * watt:.6e} W"
    )
    scaled = scaled_outputs(tmp_path, case, j, axis)
    for verb in reference:
        assert scaled[verb] == reference[verb], verb


def test_binding_is_interior_at_unit_scale(at_unit_scale):
    # the two binding cases above compare against an interior optimum
    assert at_unit_scale("no_vehicle_energy")["solve"]["binding_constraint"] == "interior"
    assert (
        at_unit_scale("no_vehicle_energy_h_max_222")["solve"]["binding_constraint"]
        == "interior"
    )


@settings(max_examples=60, deadline=None)
@given(
    ratio=st.floats(min_value=1.0, max_value=60.0),
    r_a=st.floats(min_value=0.01, max_value=500.0),
    j=st.integers(min_value=-40, max_value=40),
)
# whole-number ratios, whose last ring is r_a or 2 r_a up to rounding
@example(ratio=3.0, r_a=1.0, j=-40)
@example(ratio=10.0, r_a=0.1, j=40)
# a density squared with ** (libm pow) moved in the last bit here
@example(ratio=16.720831892685045, r_a=16.720831892685045, j=-3)
def test_packing_alone_scales_with_the_unit_of_length(ratio, r_a, j):
    k = 2.0**j
    plan = packing.run_algorithm1(ratio * r_a, r_a)
    scaled = packing.run_algorithm1(ratio * r_a * k, r_a * k)
    # every field and property but the centres, each scaled as its name says
    assert unscaled(cli.plan_to_dict(scaled), k, "length") == cli.plan_to_dict(plan)
    for level, reference in zip(scaled.levels, plan.levels, strict=True):
        assert np.array_equal(level.centers, reference.centers * k)


@pytest.mark.parametrize("j", EXPONENTS)
def test_hypot_scales_exactly(j):
    # The verifier's distances and norms are np.hypot values, so its margins
    # scale with the plan only if np.hypot does.
    k = 2.0**j
    x, y = np.random.default_rng(j + 40).uniform(-1e3, 1e3, size=(2, 10**6))
    assert np.array_equal(np.hypot(x * k, y * k), np.hypot(x, y) * k)


@pytest.mark.parametrize("j", [-3, 4, -40, 40])
def test_mean_path_loss_scales_with_the_unit_of_length(suburban_env, j):
    # d^2 = r r + h h scales by k^2 exactly; Python's h**2 calls pow, which
    # moved 293 of these 1,001 losses in the last bit at j = -3.
    k = 2.0**j
    h = 68.70273494722166
    r = np.linspace(0.0, 300.0, 1001)
    assert np.array_equal(
        channel.mean_path_loss_rh(r * k, h * k, suburban_env),
        channel.mean_path_loss_rh(r, h, suburban_env) * k * k,
    )


@pytest.mark.parametrize("j,h", [(-3, 229.29968759423795), (4, 227.08588063078062)])
def test_closed_form_power_is_invariant_under_the_unit_of_length(
    suburban_env, baseline_system, j, h
):
    # rho / k^2 and g0 k^2 cancel (h k)^4 exactly when h^4 is (h h)(h h);
    # Python's h**4 calls pow, which moved the power in the last bit here.
    k = 2.0**j
    system = dataclasses.replace(
        baseline_system, ue_density_per_m2=baseline_system.ue_density_per_m2 / (k * k)
    )
    env = dataclasses.replace(suburban_env, g0=suburban_env.g0 * k * k)
    assert uplink.expected_sum_power_closed_form(
        h * k, 21.25, system, env
    ) == uplink.expected_sum_power_closed_form(h, 21.25, baseline_system, suburban_env)
