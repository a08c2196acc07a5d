"""Golden-output gate: every verb on both built-in scenarios.

Each case runs one verb of ``cli.VERBS`` through ``cli.main``, by
conftest's ``run_cli``, into an empty directory and compares, byte for
byte, the exit code, stdout, stderr and every file the verb wrote against
``tests/golden/<scenario>/<verb>/``; a verb without golden files fails.
``validate`` writes no file and runs with the default ``--trials 1000
--seed 0``, so its case pins the four check lines and the summary.  The output directory
in stdout is replaced by ``<out>`` so the files do not depend on where the
test runs.

A change that alters an output on purpose re-blesses the files with::

    PYTHONPATH=src python3 tests/test_golden.py

and records the diff in CHANGES.md.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from aapdeploy import cli
from aapdeploy.scenario import builtin_scenario_path
from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"
SCENARIOS = ("baseline", "no_vehicle_energy")


def run_verb(scenario: str, verb: str, tmp: Path) -> dict[str, bytes]:
    """Run one verb into the empty directory ``tmp``; return name -> bytes
    for its outputs plus the exit code and the two captured streams."""
    run = run_cli(tmp, verb, text=builtin_scenario_path(scenario).read_text())
    result = {name: text.encode() for name, text in (run.files or {}).items()}
    result["exit_code"] = f"{run.code}\n".encode()
    result["stdout.txt"] = run.out.replace(str(tmp / "o"), "<out>").encode()
    result["stderr.txt"] = "".join(line + "\n" for line in run.err).encode()
    return result


def read_golden(case_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(case_dir.iterdir())}


@pytest.mark.parametrize("verb", cli.VERBS)
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_golden_output(scenario, verb, tmp_path):
    actual = run_verb(scenario, verb, tmp_path)
    expected = read_golden(GOLDEN / scenario / verb)
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name] == expected[name], f"{scenario} {verb}: {name} differs"


def bless() -> None:
    """Rewrite every golden case from the current code."""
    with tempfile.TemporaryDirectory() as tmp:
        for scenario in SCENARIOS:
            for verb in cli.VERBS:
                work = Path(tmp) / scenario / verb
                work.mkdir(parents=True)
                case_dir = GOLDEN / scenario / verb
                shutil.rmtree(case_dir, ignore_errors=True)
                case_dir.mkdir(parents=True)
                for name, data in run_verb(scenario, verb, work).items():
                    (case_dir / name).write_bytes(data)
                print(f"blessed {case_dir}", file=sys.stderr)


if __name__ == "__main__":
    bless()
