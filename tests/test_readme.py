"""README's library example runs as printed, in a fresh interpreter, its
key table states each key's unit as the key's name does, and its [sweeps]
table lists the loader's sweep keys."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import aapdeploy
from aapdeploy import scenario
from aapdeploy.params import EnvironmentParams, SystemParams, UavEnergyParams
from conftest import AXES, UNIT_EXPONENTS, unit_power

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


def readme_exponents(unit):
    """The (m, J, s) exponents of a unit as README's key table writes it,
    such as ``W/Hz`` or ``1/m²``; – and dB are pure numbers."""

    def exponents(symbol):
        if symbol in ("–", "dB", "1", ""):
            return (0, 0, 0)
        return UNIT_EXPONENTS[symbol.lower().replace("²", "2")]

    top, _, bottom = unit.partition("/")
    return tuple(a - b for a, b in zip(exponents(top), exponents(bottom)))


def test_key_table_units_follow_the_names():
    # A row names one key or several, with one unit for all or one each.
    table = README.read_text().split("| section | key | symbol | unit |\n|---|---|---|---|\n")[1]
    listed = []
    for line in table.split("\n\n")[0].splitlines():
        _, keys, _, units = line.removesuffix(" |").split(" | ")
        keys, units = re.findall(r"`(\w+)`", keys), units.split(", ")
        for key, unit in zip(keys, units * len(keys) if len(units) == 1 else units, strict=True):
            assert readme_exponents(unit) == tuple(unit_power(key, axis) for axis in AXES), key
        listed += keys
    records = (EnvironmentParams, SystemParams, UavEnergyParams)
    assert listed == [field.name for record in records for field in dataclasses.fields(record)]


def test_sweep_table_lists_every_sweep_key():
    table = README.read_text().split("| key | sets | read by |\n|---|---|---|\n")[1]
    rows = table.split("\n\n")[0].splitlines()
    listed = [key for row in rows for key in re.findall(r"`(\w+)`", row.split(" | ")[0])]
    assert listed == list(scenario._FIELDS["sweeps"])
