import contextlib
import io
import math
import pkgutil
from pathlib import Path
from typing import NamedTuple

import pytest

from aapdeploy import channel, cli, packing
from aapdeploy.params import EnvironmentParams, SystemParams, UavEnergyParams
from aapdeploy.scenario import builtin_scenario_path

BASELINE = builtin_scenario_path("baseline").read_text()
# Baseline physics on coarse grids (4 altitudes, 12 elevation angles), so
# that a test running every verb stays fast.
COARSE_BASELINE = BASELINE.replace("h_step_m = 1", "h_step_m = 95").replace(
    "phi_step_deg = 0.25", "phi_step_deg = 5"
)

# A quantity's unit is read from its name: the (m, J, s) exponents of each
# unit token a name can end in.  Any other token (deg, db, bits) is a number.
UNIT_EXPONENTS = {"m": (1, 0, 0), "m2": (2, 0, 0), "j": (0, 1, 0), "w": (0, 1, -1),
                  "hz": (0, 0, -1), "s": (0, 0, 1), "bps": (0, 0, -1)}
AXES = ("length", "energy", "time")
# The one name that does not spell its unit: g0, the gain at a 1 m
# reference distance.
UNSPELLED_UNITS = {"g0": "m2"}


def unit_power(name: str, axis: str) -> int:
    """The power of k by which a quantity named ``name`` scales when the
    unit on ``axis`` shrinks by k: the exponent of its name's last token,
    minus that of the token after ``_per_``."""
    head, _, per = name.partition("_per_")
    unit = UNSPELLED_UNITS.get(name, head.rpartition("_")[2])
    i = AXES.index(axis)
    return UNIT_EXPONENTS.get(unit, (0, 0, 0))[i] - UNIT_EXPONENTS.get(per, (0, 0, 0))[i]


# One line per acceptance criterion, echoed after the test summary so the
# pass/fail verdicts survive pytest's output capture.
ACCEPTANCE_LINES: list[str] = []


class CliRun(NamedTuple):
    code: int  # the exit code
    out: str  # stdout
    err: list[str]  # the lines of stderr
    files: dict[str, str] | None  # name -> text under --out; None if no such directory


def run_cli(tmp: Path, verb: str, *args: str, text: str = COARSE_BASELINE,
            edits: dict[str, str] | None = None, out: bool = True) -> CliRun:
    """Write ``text`` to ``tmp/scn.ini``, each ``old -> new`` of ``edits``
    replaced in order (every ``old`` must occur), and run ``verb`` on it
    through ``cli.main`` with ``args`` and, if ``out``, ``--out tmp/o``.
    A lone surrogate "\\udcXX" in the text is written as the raw byte XX."""
    for old, new in (edits or {}).items():
        assert old in text, old
        text = text.replace(old, new)
    scenario, out_dir = tmp / "scn.ini", tmp / "o"
    scenario.write_bytes(text.encode("utf-8", "surrogateescape"))
    argv = ["--scenario", str(scenario), *(("--out", str(out_dir)) if out else ()), *args, verb]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = None
    if out_dir.is_dir():
        files = {path.name: path.read_bytes().decode() for path in sorted(out_dir.iterdir())}
    return CliRun(code, stdout.getvalue(), stderr.getvalue().splitlines(), files)


@contextlib.contextmanager
def calls_to(target: str, *, forbid: bool = False):
    """Wrap the function at the dotted path ``target`` for the block and
    yield the list of its results, one per call; with ``forbid``, a call
    fails the test instead."""
    function, results = pkgutil.resolve_name(target), []

    def wrapper(*args, **kwargs):
        if forbid:
            raise AssertionError(f"reached a function that must not run here: {target}")
        results.append(function(*args, **kwargs))
        return results[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(target, wrapper)
        yield results


def void_edge(n: int) -> float:
    """Void area around one boundary circle of an n-circle ring, in
    multiples of r_a^2.  With ``void_center`` it decomposes the per-circle
    area budget: pi + void_edge(n) + void_center(n) is
    ``packing.prop2_bracket(n)``, which the tests check term by term."""
    theta = packing.polygon_half_angle(n)
    alpha = math.pi / 2.0 - theta
    return (
        alpha * (1.0 + 1.0 / math.cos(theta)) ** 2
        - math.tan(theta)
        - math.sqrt(3.0) * (math.pi + 2.0 * alpha) / math.pi
    )


def void_center(n: int) -> float:
    """Void area toward the ring centre per circle, in multiples of r_a^2."""
    theta = packing.polygon_half_angle(n)
    return math.tan(theta) - theta


def pytest_terminal_summary(config, terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def suburban_env():
    return EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)


@pytest.fixture
def edge_phi(suburban_env):
    """Edge elevation (deg) at which the suburban LoS probability is 0.9."""
    return channel.phi_from_delta(0.9, suburban_env)


def make_system(gamma=100.0, **overrides):
    kwargs = dict(
        num_interferers=6,
        circuit_power_w=5.0,
        service_time_s=500.0,
        p_max_w=1e-3,
        ue_density_per_m2=1e-2,
        h_min_m=15.0,
        h_max_m=300.0,
        area_radius_m=180.48,
    )
    kwargs.update(overrides)
    noise, bandwidth = 4e-21, 20e6
    return SystemParams(
        bandwidth_hz=bandwidth,
        noise_psd_w_per_hz=noise,
        gamma=gamma,
        **kwargs,
    )


@pytest.fixture
def baseline_system():
    return make_system()


@pytest.fixture
def baseline_uav():
    return UavEnergyParams(315.0, -211.261, 4.917, 275.204)
