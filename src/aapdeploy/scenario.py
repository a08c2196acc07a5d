"""Scenario files: sectioned key-value configuration for the CLI.

The format is INI-style with four sections (environment, system, uav,
sweeps): the physics and the sweeps only.  Unknown sections or keys are
hard errors so a misspelled constant can never silently fall back to a
default.  Each quantity has one spelling: the target power is given as
``gamma`` and the reference gain as ``g0``, and both are required.  Every
number must be finite, the interferer count a whole number, and the noise
power noise_psd * bandwidth, like the target power that gamma and each
``gamma_list`` entry make of it, a normal float.  Each sweep list must be
non-empty, and the sweeps must lie where the model is defined: the
altitude grid inside [h_min, h_max], the elevation grid inside (0, 90] deg
and the LoS threshold delta inside the S-curve's image; each grid needs a
positive step, a start no greater than its stop and at most
MAX_GRID_POINTS points.  The S-curve's a * b may not exceed MAX_S_CURVE_AB.
A violation is a ConfigError when the file is loaded, never a failure
halfway through a verb.
The Monte-Carlo seed and the output directory come from the command line
only.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from . import channel
from .errors import ConfigError
from .params import EnvironmentParams, SystemParams, UavEnergyParams

# Largest a * b of the LoS S-curve a scenario may set.  Inverting the curve
# loses about 2e-17 a b of the threshold to rounding, so up to this cap the
# LoS threshold round trip that validate checks stays within 2e-11.
MAX_S_CURVE_AB = 1e6

# Most points a sweep grid may hold; the built-in scenarios use 221 and 286.
# At 10^5 points a grid verb already takes seconds.
MAX_GRID_POINTS = 100_000

_KNOWN_KEYS: dict[str, set[str]] = {
    "environment": {
        "a",
        "b",
        "eta_los_db",
        "eta_nlos_db",
        "g0",
    },
    "system": {
        "bandwidth_hz",
        "num_interferers",
        "circuit_power_w",
        "service_time_s",
        "p_max_w",
        "gamma",
        "noise_psd_w_per_hz",
        "ue_density_per_m2",
        "h_min_m",
        "h_max_m",
        "area_radius_m",
    },
    "uav": {
        "alpha_climb_j_per_m",
        "beta_climb_j",
        "alpha_hover_w_per_m",
        "beta_hover_w",
    },
    "sweeps": {
        "h_start_m",
        "h_stop_m",
        "h_step_m",
        "phi_start_deg",
        "phi_stop_deg",
        "phi_step_deg",
        "delta",
        "gamma_list",
        "area_radius_list_m",
    },
}


@dataclass(frozen=True)
class SweepSpec:
    """Grid definitions for the sweep commands."""

    h_start: float
    h_stop: float
    h_step: float
    phi_start_deg: float
    phi_stop_deg: float
    phi_step_deg: float
    delta: float
    gamma_list: tuple[float, ...]
    area_radius_list: tuple[float, ...]

    def altitude_grid(self) -> list[float]:
        return _grid(self.h_start, self.h_stop, self.h_step)

    def phi_grid(self) -> list[float]:
        return _grid(self.phi_start_deg, self.phi_stop_deg, self.phi_step_deg)


def _grid(start: float, stop: float, step: float) -> list[float]:
    """start, start + step, ... up to stop; load_scenario has checked that
    step > 0 and start <= stop, so the grid is finite and never empty."""
    values = []
    k = 0
    while True:
        v = start + k * step
        if v > stop + 1e-9 * max(1.0, abs(stop)):
            return values
        values.append(min(v, stop))
        k += 1


@dataclass(frozen=True)
class Scenario:
    environment: EnvironmentParams
    system: SystemParams
    uav: UavEnergyParams
    sweeps: SweepSpec


def _get_float(section, key, default=None):
    if key not in section:
        if default is None:
            raise ConfigError(f"missing required key '{key}'")
        return default
    try:
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a number: {section[key]!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {section[key]!r}")
    return value


def _get_int(section, key):
    value = _get_float(section, key)
    if not float(value).is_integer():
        raise ConfigError(f"key '{key}' must be a whole number, got {section[key]!r}")
    return int(value)


def _get_list(section, key, default):
    if key not in section:
        return tuple(default)
    try:
        values = tuple(float(part) for part in section[key].split(",") if part.strip())
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a number list") from exc
    if not values:
        raise ConfigError(f"key '{key}' holds no numbers")
    if not all(map(math.isfinite, values)):
        raise ConfigError(f"key '{key}' must hold finite numbers only")
    return values


def _check_sweeps(
    sweeps: SweepSpec, system: SystemParams, env: EnvironmentParams
) -> None:
    """Reject sweeps outside the model's domain.  The grids never pass their
    stop value, so checking the end points covers every grid point."""
    for name, value in (("h_start_m", sweeps.h_start), ("h_stop_m", sweeps.h_stop)):
        if not system.h_min <= value <= system.h_max:
            raise ConfigError(
                f"sweep {name}={value:g} outside [h_min, h_max] = "
                f"[{system.h_min:g}, {system.h_max:g}] m"
            )
    for name, value in (
        ("phi_start_deg", sweeps.phi_start_deg),
        ("phi_stop_deg", sweeps.phi_stop_deg),
    ):
        if not 0.0 < value <= 90.0:
            raise ConfigError(f"sweep {name}={value:g} outside (0, 90] deg")
    try:
        channel.phi_from_delta(sweeps.delta, env)
    except ValueError as exc:
        raise ConfigError(f"sweep delta: {exc}") from exc
    for name, values in (
        ("gamma_list", sweeps.gamma_list),
        ("area_radius_list_m", sweeps.area_radius_list),
    ):
        if not all(v > 0 for v in values):
            raise ConfigError(f"sweep {name} must hold positive values only")
    for gamma in sweeps.gamma_list:
        try:
            system.with_gamma(gamma)
        except ConfigError as exc:
            raise ConfigError(f"sweep gamma_list: {exc}") from None
    for axis, unit, start, stop, step in (
        ("h", "m", sweeps.h_start, sweeps.h_stop, sweeps.h_step),
        ("phi", "deg", sweeps.phi_start_deg, sweeps.phi_stop_deg, sweeps.phi_step_deg),
    ):
        if not step > 0:
            raise ConfigError(
                f"sweep {axis}_step_{unit}={step:g} must be strictly positive"
            )
        if start > stop:
            raise ConfigError(
                f"sweep {axis}_start_{unit}={start:g} above {axis}_stop_{unit}={stop:g}"
            )
        points = (stop - start) / step + 1.0
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                f"sweep {axis}_step_{unit}={step:g} gives {points:.3g} grid points, "
                f"more than {MAX_GRID_POINTS:,}"
            )


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle)
    except configparser.Error as exc:
        # configparser spreads some messages over several lines
        detail = " ".join(line.strip() for line in str(exc).splitlines())
        raise ConfigError(f"cannot parse scenario file: {detail}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"scenario file {path} is not UTF-8 text: {exc.reason} at byte {exc.start}"
        ) from exc
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc.strerror}") from exc

    for section in parser.sections():
        if section not in _KNOWN_KEYS:
            raise ConfigError(f"unknown scenario section [{section}]")
        unknown = set(parser[section]) - _KNOWN_KEYS[section]
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    for required in ("environment", "system", "uav"):
        if required not in parser:
            raise ConfigError(f"missing scenario section [{required}]")

    env_sec = parser["environment"]
    environment = EnvironmentParams.from_db(
        a=_get_float(env_sec, "a"),
        b=_get_float(env_sec, "b"),
        eta_los_db=_get_float(env_sec, "eta_los_db"),
        eta_nlos_db=_get_float(env_sec, "eta_nlos_db"),
        g0=_get_float(env_sec, "g0"),
    )

    sys_sec = parser["system"]
    system = SystemParams(
        bandwidth_w=_get_float(sys_sec, "bandwidth_hz"),
        num_interferers_m=_get_int(sys_sec, "num_interferers"),
        circuit_power_pc=_get_float(sys_sec, "circuit_power_w"),
        service_time_t=_get_float(sys_sec, "service_time_s"),
        p_max=_get_float(sys_sec, "p_max_w"),
        p_target_pa=1.0,  # placeholder; with_gamma sets it from gamma
        noise_psd_sigma0sq=_get_float(sys_sec, "noise_psd_w_per_hz"),
        ue_density_rho=_get_float(sys_sec, "ue_density_per_m2"),
        h_min=_get_float(sys_sec, "h_min_m"),
        h_max=_get_float(sys_sec, "h_max_m"),
        area_radius_r=_get_float(sys_sec, "area_radius_m"),
    ).with_gamma(_get_float(sys_sec, "gamma"))

    uav_sec = parser["uav"]
    uav = UavEnergyParams(
        alpha_cl=_get_float(uav_sec, "alpha_climb_j_per_m"),
        beta_cl=_get_float(uav_sec, "beta_climb_j"),
        alpha_ho=_get_float(uav_sec, "alpha_hover_w_per_m"),
        beta_ho=_get_float(uav_sec, "beta_hover_w"),
    )
    uav.validate_range(system.h_min, system.h_max)

    sweep_sec = parser["sweeps"] if "sweeps" in parser else {}
    sweeps = SweepSpec(
        h_start=_get_float(sweep_sec, "h_start_m", system.h_min),
        h_stop=_get_float(sweep_sec, "h_stop_m", system.h_max),
        h_step=_get_float(sweep_sec, "h_step_m", 1.0),
        phi_start_deg=_get_float(sweep_sec, "phi_start_deg", 5.0),
        phi_stop_deg=_get_float(sweep_sec, "phi_stop_deg", 60.0),
        phi_step_deg=_get_float(sweep_sec, "phi_step_deg", 0.25),
        delta=_get_float(sweep_sec, "delta", 0.9),
        gamma_list=_get_list(sweep_sec, "gamma_list", (system.gamma,)),
        area_radius_list=_get_list(
            sweep_sec, "area_radius_list_m", (system.area_radius_r,)
        ),
    )

    _check_sweeps(sweeps, system, environment)
    # After the sweeps, so that a delta beyond the curve's image is named
    # as such.
    if environment.a * environment.b > MAX_S_CURVE_AB:
        raise ConfigError(
            f"LoS S-curve a * b = {environment.a * environment.b:g} exceeds "
            f"{MAX_S_CURVE_AB:g}, beyond which its inversion loses precision"
        )

    return Scenario(
        environment=environment,
        system=system,
        uav=uav,
        sweeps=sweeps,
    )


def builtin_scenario_path(name: str) -> Path:
    """Path to one of the scenario files shipped with the package."""
    candidate = resources.files("aapdeploy").joinpath(f"data/{name}.ini")
    with resources.as_file(candidate) as path:
        if not path.is_file():
            raise ConfigError(f"no built-in scenario named {name!r}")
        return Path(path)
