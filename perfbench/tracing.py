"""Per-layer tracing installed from outside the program.

The tracer wraps the public functions of each aapdeploy module by replacing
the module attribute that callers look up, so nothing under ``src/`` changes.
``cli`` imports ``load_scenario``, ``write_csv_atomic`` and
``write_json_atomic`` by name, so those three are replaced on ``cli``.

Two kinds of wrapper keep the overhead small:

* timed spans, only at op and module boundaries (scenario load, the GEE
  solver and objective, the exact quadrature, packing, the Monte-Carlo
  oracle and the writers).  Spans nest on a stack, so each span's self time
  is its duration minus the time its child spans cover;
* count-only wrappers on the leaf functions called millions of times per
  pass (``channel.*``, ``uplink.sum_rate``, the closed-form sum power,
  ``energy.total_energy``).
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    """Counters and span times for one traced pass; a context manager that
    installs its wrappers on entry and restores the originals on exit."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self._cells: dict[str, list[int]] = {}
        self._stack = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def timed(self, name, fn, after=None):
        """Wrap fn in a span; after(args, result, exc) runs when it ends."""
        calls, total, self_s = self.calls, self.total_s, self.self_s
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            result = exc = None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_s[name] += elapsed - child
                if after is not None:
                    after(args, result, exc)

        return wrapper

    def _counted(self, name, fn):
        cell = self._cells[name] = [0, 0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_failures(self, name, fn):
        cell = self._cells[name] = [0, 0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            try:
                return fn(*args, **kwargs)
            except Exception:
                cell[1] += 1
                raise

        return wrapper

    def _counted_true(self, name, fn):
        cell = self._cells[name] = [0, 0]

        def wrapper(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            if result:
                cell[1] += 1
            return result

        return wrapper

    # -- per-layer extras -----------------------------------------------

    def _after_run(self, args, plan, exc):
        from aapdeploy.errors import InfeasibleError

        if plan is not None:
            self.extra["packing.aaps"] += plan.total_aaps
            if not plan.feasibility.all_ok:
                self.extra["packing.infeasible"] += 1
        elif isinstance(exc, InfeasibleError):
            self.extra["packing.infeasible"] += 1

    def _after_verify(self, args, report, exc):
        n = sum(level.count for level in args[0])
        self.extra["packing.pairs"] += n * (n - 1) // 2

    def _after_sample(self, args, sample, exc):
        if sample is not None:
            self.extra["montecarlo.ues"] += sample.realized_count

    def _after_write(self, args, result, exc):
        if exc is None:
            self.extra["io_utils.bytes"] += os.path.getsize(args[0])

    # -- install / remove -----------------------------------------------

    def __enter__(self) -> "Tracer":
        from aapdeploy import channel, cli, energy, gee, montecarlo, packing, uplink

        timed = [
            (cli, "load_scenario", "scenario.load", None),
            (gee, "solve_p1", "gee.solve", None),
            (gee, "gee_value", "gee.eval", None),
            (uplink, "expected_sum_power_exact", "uplink.exact", None),
            (packing, "run_algorithm1", "packing.run", self._after_run),
            (packing, "verify_levels", "packing.verify", self._after_verify),
            (montecarlo, "mean_sum_power", "montecarlo.mean", None),
            (montecarlo, "sample_ues", "montecarlo.sample", self._after_sample),
            (montecarlo, "empirical_sum_power", "montecarlo.power", None),
            (cli, "write_csv_atomic", "io_utils.write", self._after_write),
            (cli, "write_json_atomic", "io_utils.write", self._after_write),
        ]
        counted = [
            (channel, "los_probability", "channel.los", self._counted),
            (channel, "phi_from_delta", "channel.phi", self._counted),
            (channel, "require_coverage", "channel.coverage", self._counted_failures),
            (uplink, "sum_rate", "uplink.sum_rate", self._counted),
            (uplink, "expected_sum_power_closed_form", "uplink.closed_form", self._counted),
            (uplink, "h_max_power_constraint", "uplink.ceiling", self._counted),
            (energy, "total_energy", "energy.total", self._counted),
            # Private, but it is the only place the per-threshold audit
            # outcome is visible from outside.
            (gee, "_audit_monotone_decreasing", "gee.audit", self._counted_true),
        ]
        for module, attr, name, after in timed:
            self._patch(module, attr, self.timed(name, getattr(module, attr), after))
        for module, attr, name, wrap in counted:
            self._patch(module, attr, wrap(name, getattr(module, attr)))
        return self

    def _patch(self, module, attr, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def __exit__(self, *exc_info) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- results --------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far: name -> (value, unit)."""
        c, t, s, x = self.calls, self.total_s, self.self_s, self.extra

        def cell(name, i=0):
            return self._cells[name][i]

        def ratio(num, den):
            return num / den if den else 0.0

        return {
            "scenario.load_calls": (c["scenario.load"], "count"),
            "scenario.load_s": (t["scenario.load"], "s"),
            "gee.solve_calls": (c["gee.solve"], "count"),
            "gee.solve_s": (t["gee.solve"], "s"),
            "gee.solve_self_s": (s["gee.solve"], "s"),
            "gee.eval_calls": (c["gee.eval"], "count"),
            "gee.eval_s": (t["gee.eval"], "s"),
            "gee.audit_pass_ratio": (ratio(cell("gee.audit", 1), cell("gee.audit")), "ratio"),
            "uplink.closed_form_calls": (cell("uplink.closed_form"), "count"),
            "uplink.sum_rate_calls": (cell("uplink.sum_rate"), "count"),
            "uplink.ceiling_calls": (cell("uplink.ceiling"), "count"),
            "uplink.exact_calls": (c["uplink.exact"], "count"),
            "uplink.exact_s": (t["uplink.exact"], "s"),
            "channel.los_calls": (cell("channel.los"), "count"),
            "channel.phi_calls": (cell("channel.phi"), "count"),
            "channel.coverage_calls": (cell("channel.coverage"), "count"),
            "channel.coverage_fail_ratio": (
                ratio(cell("channel.coverage", 1), cell("channel.coverage")),
                "ratio",
            ),
            "energy.total_calls": (cell("energy.total"), "count"),
            "packing.run_calls": (c["packing.run"], "count"),
            "packing.run_s": (t["packing.run"], "s"),
            "packing.verify_s": (t["packing.verify"], "s"),
            "packing.aaps": (int(x["packing.aaps"]), "count"),
            "packing.pairs_checked": (int(x["packing.pairs"]), "count_computed"),
            "packing.infeasible_ratio": (
                ratio(x["packing.infeasible"], c["packing.run"]),
                "ratio",
            ),
            "montecarlo.trials": (c["montecarlo.sample"], "count"),
            "montecarlo.ues_sampled": (int(x["montecarlo.ues"]), "count"),
            "montecarlo.sample_s": (t["montecarlo.sample"], "s"),
            "montecarlo.power_s": (t["montecarlo.power"], "s"),
            "montecarlo.mean_s": (t["montecarlo.mean"], "s"),
            "io_utils.write_calls": (c["io_utils.write"], "count"),
            "io_utils.write_s": (t["io_utils.write"], "s"),
            "io_utils.bytes_written": (int(x["io_utils.bytes"]), "bytes"),
            "cli.self_s": (s["cli"], "s"),
        }

    def self_time_by_layer(self) -> dict[str, float]:
        """Self time of every span, summed per layer (the name before the dot)."""
        layers: dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            layers[name.split(".")[0]] += seconds
        return dict(layers)
