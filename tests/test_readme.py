"""README's library example runs as printed, in a fresh interpreter."""

import os
import re
import subprocess
import sys
from pathlib import Path

import aapdeploy

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(aapdeploy.__file__).resolve().parent.parent


def test_library_example_runs(tmp_path):
    (example,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.DOTALL)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", example],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    # h_opt, phi_opt, delta_opt and the AAP count on the baseline physics
    assert proc.stdout == "15.0 21.25 0.9957388874766102 15\n"
