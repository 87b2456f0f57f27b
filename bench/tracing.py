"""Spans and counters around ctdkit's public functions, for traced runs.

`Tracer.install` replaces each function in `SPANS` at every name under
which a ctdkit module can look it up (its defining module, the modules that
imported it by name, the package namespace), so calls between layers are
seen without touching the library's source.  Each call records a span
(name, start, end, parent) kept in memory; `summary` turns them into
per-layer self times (span duration minus its children) and call counts.
A call that re-enters the function of the innermost open span (recursion,
as in `compile_expr`) is folded into that span.

Public `BDD` operations are counted, not spanned: there are hundreds of
thousands of them.  Each manager built while a span is open is held until
the outermost span closes, and its node count (`len(manager)`) is read
then and whenever a later outermost span closes while it is still alive.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref

import ctdkit  # noqa: F401  (loads every layer module into sys.modules)
from ctdkit import bdd

# (module, public name, layer metric it feeds)
SPANS = [
    ("model", "load_model", "model.load"),
    ("model", "validate_model", "model.validate"),
    ("model", "ModelSpace", "model.space"),
    ("constraints", "parse", "constraints.compile"),
    ("constraints", "typecheck", "constraints.compile"),
    ("constraints", "compile_expr", "constraints.compile"),
    ("coverage", "generate_requirements", "coverage.requirements"),
    ("coverage", "filter_feasible", "coverage.filter"),
    ("coverage", "coverage_of", "coverage.measure"),
    ("generator", "generate_plan", "generator.plan"),
    ("generator", "grow_tests", "generator.grow"),
    ("cycles", "augment_plan", "cycles.augment"),
    ("cycles", "run_cycles", "cycles.run"),
    ("plans", "read_plan_csv", "plans.read"),
    ("plans", "read_results_csv", "plans.read"),
    ("plans", "resolve_results", "plans.read"),
    ("plans", "write_plan_csv", "plans.write"),
    ("plans", "plan_csv_text", "plans.write"),
    ("plans", "plan_json_text", "plans.write"),
    ("instantiate", "instantiate", "instantiate.instantiate"),
    ("instantiate", "randomize_free", "instantiate.instantiate"),
    ("cli", "main", "cli.main"),
]

# per-layer call counts reported, by the span that is counted
CALLS = {
    "model.validate_calls": "model.validate_model",
    "model.space_calls": "model.ModelSpace",
    "constraints.compile_calls": "constraints.compile_expr",
    "coverage.filter_calls": "coverage.filter_feasible",
    "coverage.measure_calls": "coverage.coverage_of",
    "generator.grow_calls": "generator.grow_tests",
    "cycles.augment_calls": "cycles.augment_plan",
}

BDD_OPERATIONS = ("var", "const", "ite", "restrict", "exists", "evaluate",
                  "count", "satisfying", "pick", "support", "dump")


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self._open: list[tuple[int, str]] = []                # (span id, name)
        self.bdd_ops = 0
        self.bdd_nodes = 0
        self.requirements = 0
        self.feasible = 0
        self._managers: list = []   # built during the open operation
        self._alive: list = []      # weak references to earlier managers
        self._restore: list = []

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "ctdkit" or name.startswith("ctdkit.")]
        for module_name, attr, _ in SPANS:
            name = f"{module_name}.{attr}"
            original = getattr(sys.modules[f"ctdkit.{module_name}"], attr)
            if isinstance(original, type):
                self._patch(original, "__init__", self._spanned(name, original.__init__))
                continue
            wrapper = self._spanned(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for op in BDD_OPERATIONS:
            self._patch(bdd.BDD, op, self._counted(getattr(bdd.BDD, op)))
        self._patch(bdd.BDD, "__init__", self._keep_manager(bdd.BDD.__init__))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def _patch(self, owner, key, replacement) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, replacement)

    def _spanned(self, name: str, fn):
        spans, open_ = self.spans, self._open
        on_result = self._on_filter if name == "coverage.filter_feasible" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if open_ and open_[-1][1] == name:
                return fn(*args, **kwargs)
            parent = open_[-1][0] if open_ else -1
            span_id = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            open_.append((span_id, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                open_.pop()
                spans[span_id] = (name, start, end, parent)
                if not open_:
                    self._end_operation()
            if on_result is not None:
                on_result(result)
            return result
        return wrapper

    def _on_filter(self, reqs) -> None:
        self.requirements += len(reqs)
        self.feasible += len(reqs.feasible())

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.bdd_ops += 1
            return fn(*args, **kwargs)
        return wrapper

    def _keep_manager(self, init):
        @functools.wraps(init)
        def wrapper(manager, *args, **kwargs):
            init(manager, *args, **kwargs)
            self._managers.append(manager)
        return wrapper

    def _end_operation(self) -> None:
        alive = [m for m in (ref() for ref in self._alive) if m is not None]
        for manager in self._managers + alive:
            self.bdd_nodes = max(self.bdd_nodes, len(manager))
        self._alive = [weakref.ref(m) for m in alive + self._managers]
        self._managers.clear()

    # ------------------------------------------------------------------
    # results

    def root_seconds(self) -> float:
        """Time inside outermost spans: every traced call into ctdkit."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def summary(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as (value, unit): self time as a percentage of
        the time inside ctdkit, counts per round."""
        traced_s = self.root_seconds()
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        for name, start, end, parent in self.spans:
            self_time[name] = self_time.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                pname = self.spans[parent][0]
                self_time[pname] = self_time.get(pname, 0.0) - (end - start)
        layer_time: dict[str, float] = {}
        for module_name, attr, layer in SPANS:
            layer_time[layer] = (layer_time.get(layer, 0.0)
                                 + self_time.get(f"{module_name}.{attr}", 0.0))
        metrics = {f"{layer}_pct": (100.0 * s / traced_s, "%")
                   for layer, s in layer_time.items()}
        for metric, span in CALLS.items():
            metrics[metric] = (calls.get(span, 0) / rounds, "count")
        metrics["bdd.ops"] = (self.bdd_ops / rounds, "count")
        metrics["bdd.nodes"] = (self.bdd_nodes, "count")
        metrics["coverage.requirements"] = (self.requirements / rounds, "count")
        metrics["coverage.feasible_ratio"] = (
            self.feasible / self.requirements if self.requirements else 0.0, "ratio")
        return metrics

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
