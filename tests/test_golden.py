"""Golden-output gate: every verb on both built-in scenarios.

Each case runs one verb through ``cli.main`` into an empty directory and
compares, byte for byte, the exit code, stdout, stderr and every file the
verb wrote against ``tests/golden/<scenario>/<verb>/``.  ``validate`` writes
no file and runs with the default ``--trials 1000 --seed 0``, so its case
pins the six check lines.  The output
directory in stdout is replaced by ``<out>`` so the files do not depend on
where the test runs.

A change that alters an output on purpose re-blesses the files with::

    PYTHONPATH=src python3 tests/test_golden.py

and records the diff in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from aapdeploy import cli
from aapdeploy.scenario import builtin_scenario_path

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("baseline", "no_vehicle_energy")
VERBS = (
    "solve",
    "place",
    "density-sweep",
    "altitude-sweep",
    "threshold-sweep",
    "validate",
)


def run_verb(scenario: str, verb: str, out: Path) -> dict[str, bytes]:
    """Run one verb into the empty directory ``out``; return name -> bytes
    for its outputs plus the exit code and the two captured streams."""
    argv = ["--scenario", str(builtin_scenario_path(scenario)), "--out", str(out), verb]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    result = {path.name: path.read_bytes() for path in sorted(out.iterdir())}
    result["exit_code"] = f"{code}\n".encode()
    result["stdout.txt"] = stdout.getvalue().replace(str(out), "<out>").encode()
    result["stderr.txt"] = stderr.getvalue().encode()
    return result


def read_golden(case_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(case_dir.iterdir())}


@pytest.mark.parametrize("verb", VERBS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_output(scenario, verb, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    actual = run_verb(scenario, verb, out)
    expected = read_golden(GOLDEN / scenario / verb)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{scenario} {verb}: {name} differs"


def bless() -> None:
    """Rewrite every golden case from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for verb in VERBS:
                out = Path(tmp) / scenario / verb
                out.mkdir(parents=True)
                case_dir = GOLDEN / scenario / verb
                shutil.rmtree(case_dir, ignore_errors=True)
                case_dir.mkdir(parents=True)
                for name, data in run_verb(scenario, verb, out).items():
                    (case_dir / name).write_bytes(data)
                print(f"blessed {case_dir}", file=sys.stderr)


if __name__ == "__main__":
    bless()
