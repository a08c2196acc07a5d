"""Scenario-file fuzz through ``cli.main``.

Each example mutates a small copy of the baseline scenario (drop a key, a
non-finite value, a sign flip, an out-of-range sweep) and runs one verb.
Whatever the mutation, no exception may escape and the exit code must be
0, 1 or 2; a non-finite value or an out-of-range sweep must exit 2 with one
``configuration error:`` line.
"""

from __future__ import annotations

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from aapdeploy import cli
from aapdeploy.scenario import builtin_scenario_path

VERBS = ("solve", "place", "altitude-sweep", "threshold-sweep", "density-sweep")

# Baseline physics on coarse grids (4 altitudes, 12 elevation angles).
BASE = (
    builtin_scenario_path("baseline")
    .read_text()
    .replace("h_step_m = 1", "h_step_m = 95")
    .replace("phi_step_deg = 0.25", "phi_step_deg = 5")
)
KEYS = re.findall(r"(?m)^(\w+) = ", BASE.split("[output]")[0])

# Values outside the sweeps' domain: the altitude range is [15, 300] m, the
# elevation range (0, 90] deg and the LoS thresholds (0.026, 1).
OUT_OF_RANGE = {
    "h_start_m": ["10", "301"],
    "h_stop_m": ["400", "14"],
    "phi_start_deg": ["0", "95"],
    "phi_stop_deg": ["-60", "90.5"],
    "delta": ["0.01", "1", "1.5"],
    "gamma_list": ["10, -100"],
    "area_radius_list_m": ["0, 180.48"],
}
NON_FINITE = ["nan", "inf", "-inf", "NaN"]


def _flip(value: str) -> str:
    return ", ".join(
        part[1:] if part.startswith("-") else "-" + part
        for part in (p.strip() for p in value.split(","))
    )


@st.composite
def mutations(draw):
    """A list of (key, kind, new value or None to drop) on distinct keys."""
    keys = draw(st.lists(st.sampled_from(KEYS), min_size=1, max_size=3, unique=True))
    result = []
    for key in keys:
        kinds = ["drop", "non_finite", "flip"]
        if key in OUT_OF_RANGE:
            kinds.append("out_of_range")
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            value = None
        elif kind == "non_finite":
            value = draw(st.sampled_from(NON_FINITE))
        elif kind == "out_of_range":
            value = draw(st.sampled_from(OUT_OF_RANGE[key]))
        else:
            value = _flip(re.search(rf"(?m)^{key} = (.*)$", BASE).group(1))
        result.append((key, kind, value))
    return result


def mutate(text: str, key: str, value: str | None) -> str:
    replacement = "" if value is None else f"{key} = {value}\n"
    return re.sub(rf"(?m)^{key} = .*\n", replacement, text, count=1)


@settings(max_examples=120, deadline=None)
@given(mutations(), st.sampled_from(VERBS))
def test_mutated_scenarios_fail_closed(changes, verb):
    text = BASE
    for key, _kind, value in changes:
        text = mutate(text, key, value)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scn.ini"
        path.write_text(text)
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(["--scenario", str(path), "--out", str(Path(tmp) / "o"), verb])
    assert code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_CONFIG)
    if any(kind in ("non_finite", "out_of_range") for _key, kind, _v in changes):
        assert code == cli.EXIT_CONFIG
    if code == cli.EXIT_CONFIG:
        err = stderr.getvalue().splitlines()
        assert len(err) == 1 and err[0].startswith("configuration error:")
