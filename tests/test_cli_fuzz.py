"""Scenario-file fuzz through ``cli.main``.

Each example mutates a small copy of the baseline scenario (drop a key, a
non-finite value, a sign flip, an out-of-range sweep, a ``%`` in the value)
and runs one verb.  Whatever the mutation, no exception may escape and the
exit code must be 0, 1 or 2; a dropped key, a non-finite value, an
out-of-range sweep, a negative sweep step or a ``%`` must exit 2 with one
``configuration error:`` line.
"""

from __future__ import annotations

import re
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from aapdeploy import cli
from conftest import COARSE_BASELINE as BASE, run_cli

VERBS = ("solve", "place", "altitude-sweep", "threshold-sweep", "density-sweep")

KEYS = re.findall(r"(?m)^(\w+) = ", BASE)

# Values outside the sweeps' domain: the elevation range is (0, 90] deg and
# the LoS thresholds (0.026, 1); a sweep list must hold at least one number.
OUT_OF_RANGE = {
    "phi_start_deg": ["0", "95"],
    "phi_stop_deg": ["-60", "90.5"],
    "delta": ["0.01", "1", "1.5"],
    "gamma_list": ["10, -100", ""],
    "area_radius_list_m": ["0, 180.48", ""],
}
NON_FINITE = ["nan", "inf", "-inf", "NaN"]
# A negative step is rejected at load, whichever grid the verb builds.
STEP_KEYS = ("h_step_m", "phi_step_deg")


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
        kinds = ["drop", "non_finite", "flip", "percent"]
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
            value = re.search(rf"(?m)^{key} = (.*)$", BASE).group(1)
            if kind == "flip":
                value = _flip(value)
            else:
                value = draw(st.sampled_from([value + "%", f"%({key})s"]))
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
        run = run_cli(Path(tmp), verb, text=text)
    assert run.code in (cli.EXIT_OK, cli.EXIT_INFEASIBLE, cli.EXIT_CONFIG)
    if any(
        kind in ("drop", "non_finite", "out_of_range", "percent")
        or (kind == "flip" and key in STEP_KEYS)
        for key, kind, _v in changes
    ):
        assert run.code == cli.EXIT_CONFIG
    if run.code == cli.EXIT_CONFIG:
        assert len(run.err) == 1 and run.err[0].startswith("configuration error:")
