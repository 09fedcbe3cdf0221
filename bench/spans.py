"""Per-module spans recorded from outside the program.

``install`` replaces every public function of the six nlwlab modules with a
wrapper that records a span (layer, function, parent, start, end).  A name
can be bound in several modules (``cli`` binds ``save_state`` and
``load_state`` by ``from ... import``, ``norms`` binds ``characteristics``,
``bootstrap`` binds ``g_moduli``), so the wrapper goes into every module
namespace where the original object is found.  ``RadialState`` is built by
class lookup in several modules, so its construction is wrapped at the class
(``__init__``), as is ``StepLog.to_csv``.

Spans stay in memory with their parent's index and are written out once,
when the worker ends.  A span's self time is its duration minus the
durations of its direct children; summed per layer, the self times under a
``cli.run`` span add up to that span's duration by construction.

The single span stack is shared by all threads.  That is exact here because
the workloads run ``cli.run`` with ``threads=1``: the one pool thread of the
bootstrap scenario works while the main thread only waits for it.  Were two
threads to record spans at once, children would be charged to the wrong
parent and some self time would come out negative; ``min_self_s`` exposes
that for the parent's check.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time

LAYERS = ("core", "solver", "diagnostics", "norms", "bootstrap", "cli")

# span fields
LAYER, NAME, PARENT, START, END = range(5)


class Tracer:
    """Span store plus the exact counters taken at layer boundaries."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.node_steps = 0
        self.save_bytes = 0
        self.load_bytes = 0
        self.iterations = 0
        self.diag_nodes = 0

    def _wrap(self, layer: str, name: str, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, name, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    # counters: each runs after its call, outside the span

    def _count_evolve(self, args, result):
        config, initial = args[0], args[1]
        steps = int(round((config.t_final - initial.t) / config.grid.h))
        self.node_steps += (config.grid.n + 1) * steps

    def _count_save(self, args, result):
        self.save_bytes += os.path.getsize(args[1])

    def _count_load(self, args, result):
        self.load_bytes += os.path.getsize(args[0])

    def _count_iteration(self, args, result):
        self.iterations += len(result.beta) - 1

    def _count_diag(self, args, result):
        # nodes visited by the per-state functionals (energy, virial, ...);
        # calls on whole trajectories are covered by their nested calls
        state = args[0] if args else None
        if hasattr(state, "u") and hasattr(state, "grid"):
            self.diag_nodes += state.grid.n + 1

    def install(self):
        """Wrap the public functions of every nlwlab module in place."""
        modules = {layer: sys.modules[f"nlwlab.{layer}"] for layer in LAYERS}
        namespaces = [m for name, m in sys.modules.items()
                      if name == "nlwlab" or name.startswith("nlwlab.")]
        counters = {
            ("solver", "evolve"): self._count_evolve,
            ("core", "save_state"): self._count_save,
            ("core", "load_state"): self._count_load,
            ("bootstrap", "exponent_iteration"): self._count_iteration,
        }
        for layer, module in modules.items():
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                count = counters.get((layer, name))
                if layer == "diagnostics":
                    count = self._count_diag
                traced = self._wrap(layer, name, fn, count)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, traced)
        core = modules["core"]
        core.RadialState.__init__ = self._wrap(
            "core", "RadialState", core.RadialState.__init__)
        core.StepLog.to_csv = self._wrap("core", "StepLog.to_csv", core.StepLog.to_csv)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "name", "parent", "start", "end"],
                       "spans": self.spans}, fh)

    def _self_times(self) -> list:
        """Each span's duration minus its direct children's durations."""
        spans = self.spans
        own = [s[END] - s[START] for s in spans]
        for s in spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def min_self_s(self) -> float:
        """The smallest self time of any span (0.0 without spans)."""
        return min(self._self_times(), default=0.0)

    def metrics(self) -> dict:
        """Per-layer metrics over all spans recorded so far."""
        spans = self.spans
        own = self._self_times()
        # a span belongs to the run tree when its root is a cli.run span
        in_run = [False] * len(spans)
        for i, s in enumerate(spans):
            p = s[PARENT]
            in_run[i] = (s[NAME] == "run" and s[LAYER] == "cli") if p < 0 else in_run[p]
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        total = {}
        count = {}
        for i, s in enumerate(spans):
            dur = s[END] - s[START]
            key = f"{s[LAYER]}.{s[NAME]}"
            total[key] = total.get(key, 0.0) + dur
            count[key] = count.get(key, 0) + 1
            calls[s[LAYER]] += 1
            if in_run[i]:
                self_s[s[LAYER]] += own[i]
        run_s = total.get("cli.run", 0.0)
        node_steps = self.node_steps
        per_ns = lambda t, n: t / n * 1e9 if n else 0.0
        return {
            "solver.evolve_calls": count.get("solver.evolve", 0),
            "solver.node_steps": node_steps,
            "solver.self_s": self_s["solver"],
            "solver.ns_per_node_step": per_ns(self_s["solver"], node_steps),
            "solver.evolve_ns_per_node_step": per_ns(total.get("solver.evolve", 0.0),
                                                     node_steps),
            "diagnostics.calls": calls["diagnostics"],
            "diagnostics.self_s": self_s["diagnostics"],
            "diagnostics.ns_per_node": per_ns(self_s["diagnostics"], self.diag_nodes),
            "core.state_builds": count.get("core.RadialState", 0),
            "core.state_build_s": total.get("core.RadialState", 0.0),
            "core.save_calls": count.get("core.save_state", 0),
            "core.save_s": total.get("core.save_state", 0.0),
            "core.save_bytes": self.save_bytes,
            "core.load_calls": count.get("core.load_state", 0),
            "core.load_s": total.get("core.load_state", 0.0),
            "core.load_bytes": self.load_bytes,
            "core.csv_s": total.get("core.StepLog.to_csv", 0.0),
            "core.self_s": self_s["core"],
            "norms.sine_transform_calls": count.get("norms.sine_transform", 0),
            "norms.sine_transform_s": total.get("norms.sine_transform", 0.0),
            "norms.self_s": self_s["norms"],
            "bootstrap.calls": calls["bootstrap"],
            "bootstrap.iterations": self.iterations,
            "bootstrap.self_s": self_s["bootstrap"],
            "cli.run_s": run_s,
            "cli.self_s": self_s["cli"],
        }
