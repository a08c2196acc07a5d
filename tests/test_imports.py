"""Which optional modules each CLI path loads, checked in a fresh interpreter.

The planner, the placement verifier and the quadrature oracle behind
``validate`` are all numpy: no verb loads scipy, which serves the tests as
a reference only.  The quadrature builds its Legendre nodes on first use, so
importing the package and loading a scenario leave ``numpy.polynomial``
unloaded.  Each check starts a new interpreter, because this test process
has scipy loaded already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import aapdeploy

SRC = Path(aapdeploy.__file__).resolve().parent.parent

PRELUDE = """\
import json, sys
import aapdeploy
import aapdeploy.cli
from aapdeploy.scenario import builtin_scenario_path, load_scenario
baseline = str(builtin_scenario_path("baseline"))
load_scenario(baseline)
def modules(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))
"""


def run_fresh(tmp_path, body: str):
    """Run PRELUDE + body in a new interpreter and parse the JSON that body
    prints last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + body],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_load_and_solver_verbs_load_no_scipy(tmp_path):
    seen = run_fresh(
        tmp_path,
        """\
seen = {"import + load_scenario": modules("scipy")}
for verb in ("solve", "altitude-sweep", "threshold-sweep"):
    assert aapdeploy.cli.main(["--scenario", baseline, "--out", verb, verb]) == 0
    seen[verb] = modules("scipy")
print(json.dumps(seen))
""",
    )
    assert seen == {
        "import + load_scenario": [],
        "solve": [],
        "altitude-sweep": [],
        "threshold-sweep": [],
    }


def test_placement_verbs_load_no_scipy(tmp_path):
    seen = run_fresh(
        tmp_path,
        """\
seen = {}
for verb in ("place", "density-sweep"):
    assert aapdeploy.cli.main(["--scenario", baseline, "--out", verb, verb]) == 0
    seen[verb] = modules("scipy")
print(json.dumps(seen))
""",
    )
    assert seen == {"place": [], "density-sweep": []}


def test_import_and_load_leave_numpy_polynomial_unloaded(tmp_path):
    seen = run_fresh(tmp_path, 'print(json.dumps(modules("numpy.polynomial")))\n')
    assert seen == []


def test_validate_loads_no_scipy(tmp_path):
    # Ten trials keep the check fast; the Monte-Carlo bound widens to five
    # standard errors, so validate still passes.
    seen = run_fresh(
        tmp_path,
        """\
assert aapdeploy.cli.main(["--scenario", baseline, "--trials", "10", "validate"]) == 0
print(json.dumps({"scipy": modules("scipy"), "legendre": "numpy.polynomial.legendre" in sys.modules}))
""",
    )
    assert seen == {"scipy": [], "legendre": True}
