"""The benchmark's tracer patches names of the program from outside.

``perfbench/tracing.py`` replaces module attributes such as
``packing.verify_levels`` and ``montecarlo.sample_ues`` by name.  A renamed
or deleted attribute, or a changed call pattern, would break the benchmark
while the program's own tests still passed; these tests load the tracer by
path and check its patch list against the program.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from aapdeploy import channel, montecarlo, packing
from aapdeploy.params import EnvironmentParams

from conftest import make_system

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_every_patched_attribute_exists_and_is_restored():
    tracer = load_tracer()
    try:
        # getattr raises AttributeError for a patched name that is gone
        tracer.__enter__()
        saved = list(tracer._saved)
        assert saved
        for module, attr, original in saved:
            assert getattr(module, attr) is not original, f"{module.__name__}.{attr}"
    finally:
        tracer.__exit__(None, None, None)
    for module, attr, original in saved:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"


def test_traced_calls_keep_their_pattern():
    # verify_levels(levels, r_a, area_radius) once per plan, and sample_ues
    # once per trial returning a sample with .realized_count
    env = EnvironmentParams(4.88, 0.43, 0.1, 21.0, g0=1.42e-4)
    phi = channel.phi_from_delta(0.9, env)
    tracer = load_tracer()
    with tracer:
        plan = packing.run_algorithm1(10.0, 1.0)
        montecarlo.mean_sum_power(15.0, phi, make_system(), env, trials=40)
    metrics = {name: value for name, (value, _unit) in tracer.layer_metrics().items()}
    assert metrics["packing.aaps"] == plan.total_aaps == 75
    assert metrics["packing.pairs_checked"] == 75 * 74 // 2
    assert metrics["montecarlo.trials"] == 40
    assert metrics["montecarlo.ues_sampled"] > 0
