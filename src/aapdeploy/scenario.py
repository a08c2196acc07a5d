"""Scenario files: sectioned key-value configuration for the CLI.

The format is INI-style with four sections (environment, system, uav,
sweeps): the physics and the sweeps only.  Each section's keys are the
fields of its record (``EnvironmentParams``, ``SystemParams``,
``UavEnergyParams``, ``SweepKeys``), and ``_FIELDS`` takes them from there.
Every section and every key is required: nothing has a default.  ``_FIELDS``
drives the reads and the check that makes an unknown section or key a hard
error (both are case-sensitive).  Values are read as written (no ``%``
interpolation).  Every number must be finite, the interferer count a
whole number, and the noise power
noise_psd_w_per_hz * bandwidth_hz, like the target power that gamma and
each ``gamma_list`` entry make of it, a normal float.  Each sweep list must
hold positive numbers.  [system] alone declares the altitude range: the
altitude grid runs from h_min_m to h_max_m in h_step_m steps.  The
elevation grid must lie inside (0, 90] deg with an angle short of the
nadir-only cell, its start no greater than its stop, and delta inside the
S-curve's image, short of its nadir-only top.  Each grid needs a positive
step and at most MAX_GRID_POINTS points, all distinct; the S-curve's
a * b may not exceed MAX_S_CURVE_AB.  A violation is a ConfigError when
the file is loaded, never a failure halfway through a verb.  Loading builds
both grids and inverts delta once, into ``Scenario``'s altitudes, phis_deg
and phi_deg beside the [sweeps] keys as written; the verbs read both.  The
Monte-Carlo seed and the output directory come from the command line only.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np

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


@dataclass(frozen=True)
class SweepKeys:
    """The [sweeps] section as the file states it; _resolve_sweeps checks it
    and builds the grids."""

    h_step_m: float
    phi_start_deg: float
    phi_stop_deg: float
    phi_step_deg: float
    delta: float
    gamma_list: tuple[float, ...]
    area_radius_list_m: tuple[float, ...]


# Each section's keys in reading order, with each value's kind: a float, a
# whole number (int) or a comma-separated list (tuple); every key is
# required.  A section's keys are the fields of its record, each a whole
# number if annotated "int" and a list if annotated as a tuple (params and
# this module postpone annotations, so a field's type is its annotation's
# text).
_RECORDS = {"environment": EnvironmentParams, "system": SystemParams, "uav": UavEnergyParams}
_KINDS = {"int": int, "tuple[float, ...]": tuple}
_FIELDS: dict[str, dict[str, type]] = {
    section: {f.name: _KINDS.get(f.type, float) for f in fields(record)}
    for section, record in {**_RECORDS, "sweeps": SweepKeys}.items()
}


def _grid(start: float, stop: float, step: float, name: str) -> tuple[float, ...]:
    """The points start + k * step below stop, then stop itself if a point
    reaches it within 1e-9 * stop; _resolve_sweeps has checked that
    step > 0, 0 < start <= stop and the point count.  A step too fine for the
    floats near the grid repeats points, which is a ConfigError."""
    values = start + step * np.arange(math.floor((stop - start) / step) + 3)
    below = values[values < stop]
    if values[below.size] <= stop + 1e-9 * stop:
        below = np.append(below, stop)
    if np.count_nonzero(below[1:] <= below[:-1]):
        raise ConfigError(f"sweep {name}={step:g} is below float spacing: points repeat")
    return tuple(below.tolist())


@dataclass(frozen=True)
class Scenario:
    """The file's four sections, and what loading resolves from the sweeps:
    both grids, and the LoS threshold delta inverted once to its elevation
    phi_deg."""

    environment: EnvironmentParams
    system: SystemParams
    uav: UavEnergyParams
    sweeps: SweepKeys
    altitudes: tuple[float, ...]
    phis_deg: tuple[float, ...]
    phi_deg: float


def _parse(key: str, text: str, kind: type):
    """One value of the given kind; a list must hold positive numbers."""
    if kind is tuple:
        try:
            values = tuple(float(part) for part in text.split(",") if part.strip())
        except ValueError as exc:
            raise ConfigError(f"key '{key}' is not a number list") from exc
        if not values:
            raise ConfigError(f"key '{key}' holds no numbers")
        if not all(map(math.isfinite, values)):
            raise ConfigError(f"key '{key}' must hold finite numbers only")
        if not all(v > 0 for v in values):
            raise ConfigError(f"sweep {key} must hold positive values only")
        return values
    try:
        value = float(text)
    except ValueError as exc:
        raise ConfigError(f"key '{key}' is not a number: {text!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key '{key}' must be finite, got {text!r}")
    if kind is int:
        if not value.is_integer():
            raise ConfigError(f"key '{key}' must be a whole number, got {text!r}")
        return int(value)
    return value


def _read(parser: configparser.ConfigParser, section: str) -> dict:
    """The section's values by key, read in table order; every key is
    required."""
    values = {}
    for key, kind in _FIELDS[section].items():
        if key not in parser[section]:
            raise ConfigError(f"missing required key '{key}'")
        values[key] = _parse(key, parser[section][key], kind)
    return values


def _resolve_sweeps(
    system: SystemParams, env: EnvironmentParams, keys: SweepKeys
) -> tuple[tuple[float, ...], tuple[float, ...], float]:
    """Reject sweeps outside the model's domain, then build both grids and
    invert delta: (altitudes, phis_deg, phi_deg).  The altitude grid runs
    over the system's [h_min_m, h_max_m], which SystemParams has checked.
    The grids never pass their stop value, so checking the elevation grid's
    end points covers every angle; both grids' point counts are checked
    before either grid is built."""
    for end, value in (("start", keys.phi_start_deg), ("stop", keys.phi_stop_deg)):
        if not 0.0 < value <= 90.0:
            raise ConfigError(f"sweep phi_{end}_deg={value:g} outside (0, 90] deg")
    try:
        phi_deg = channel.phi_from_delta(keys.delta, env)
    except ValueError as exc:
        raise ConfigError(f"sweep delta: {exc}") from exc
    if phi_deg >= 90.0 - channel.NADIR_TOL_DEG:
        raise ConfigError(
            f"sweep delta: delta={keys.delta:g} maps to the nadir-only cell at 90 deg, "
            "which covers no area"
        )
    for gamma in keys.gamma_list:
        try:
            replace(system, gamma=gamma)
        except ConfigError as exc:
            raise ConfigError(f"sweep gamma_list: {exc}") from None
    axes = (
        (system.h_min_m, system.h_max_m, keys.h_step_m, "h_step_m"),
        (keys.phi_start_deg, keys.phi_stop_deg, keys.phi_step_deg, "phi_step_deg"),
    )
    for start, stop, step, name in axes:
        if not step > 0:
            raise ConfigError(f"sweep {name}={step:g} must be strictly positive")
        points = (stop - start) / step + 1.0
        if points > MAX_GRID_POINTS:
            raise ConfigError(
                f"sweep {name}={step:g} gives {points:.3g} grid points, "
                f"more than {MAX_GRID_POINTS:,}"
            )
    if keys.phi_start_deg > keys.phi_stop_deg:
        raise ConfigError(
            f"sweep phi_start_deg={keys.phi_start_deg:g} above phi_stop_deg={keys.phi_stop_deg:g}"
        )
    # The start is the grid's smallest angle.
    if keys.phi_start_deg >= 90.0 - channel.NADIR_TOL_DEG:
        raise ConfigError(
            f"sweep phi grid holds only nadir-only cells: every angle from "
            f"phi_start_deg={keys.phi_start_deg:g} lies within {channel.NADIR_TOL_DEG:g} deg "
            "of 90 deg, where a cell covers no area"
        )
    altitudes, phis_deg = (_grid(*axis) for axis in axes)
    return altitudes, phis_deg, phi_deg


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"scenario file not found: {path}")
    # No default section: "[DEFAULT]" is a section like any other, and so
    # an unknown one.
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), interpolation=None, default_section=""
    )
    parser.optionxform = str  # keys are case-sensitive, like sections
    try:
        with path.open(encoding="utf-8-sig") as handle:
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
        if section not in _FIELDS:
            raise ConfigError(f"unknown scenario section [{section}]")
        unknown = set(parser[section]) - set(_FIELDS[section])
        if unknown:
            raise ConfigError(
                f"unknown key(s) in [{section}]: {', '.join(sorted(unknown))}"
            )
    for required in _FIELDS:
        if required not in parser:
            raise ConfigError(f"missing scenario section [{required}]")

    environment, system, uav = (
        record(**_read(parser, section)) for section, record in _RECORDS.items()
    )
    uav.validate_range(system.h_min_m, system.h_max_m)
    sweeps = SweepKeys(**_read(parser, "sweeps"))
    altitudes, phis_deg, phi_deg = _resolve_sweeps(system, environment, sweeps)
    # After the sweeps, so that a delta beyond the curve's image is named
    # as such.
    if environment.a * environment.b > MAX_S_CURVE_AB:
        raise ConfigError(
            f"LoS S-curve a * b = {environment.a * environment.b:g} exceeds "
            f"{MAX_S_CURVE_AB:g}, beyond which its inversion loses precision"
        )
    return Scenario(environment, system, uav, sweeps, altitudes, phis_deg, phi_deg)


def builtin_scenario_path(name: str) -> Path:
    """Path to one of the scenario files shipped with the package."""
    candidate = resources.files("aapdeploy").joinpath(f"data/{name}.ini")
    with resources.as_file(candidate) as path:
        if not path.is_file():
            raise ConfigError(f"no built-in scenario named {name!r}")
        return Path(path)
