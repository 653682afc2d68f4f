"""In-process span tracer around gaplearn's public functions and methods.

The tracer replaces each target with a wrapper that records one span
(name, parent span, start, end) per call in flat in-memory arrays, plus a
few work counters computed from the call's arguments or result.  Nothing
is written while items run; ``dump`` writes the spans out at the end.

Modules that bind a target at import time (``gaplearn.cli`` binds
``build_polytope``, ``estimate_gaps`` and the rest) are patched too: every
``gaplearn`` module attribute that *is* the original object is replaced.

Self time of a span is its duration minus the durations of its direct
children.  Spans of one item nest under one root span named ``item``, so
the self times of an item's spans add up to the root's duration; ``end_item``
checks that identity against the wall time measured outside the item.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _modulus_span(args: tuple, kwargs: dict) -> str:
    return "robust.modulus_" + _arg(args, kwargs, 3, "mode")


# Counter hooks run after the span closes: hook(tracer, args, kwargs, result).
def _on_answer(tr, args, kwargs, result):
    query = _arg(args, kwargs, 1, "query")
    tr.counters["oracle.entries"] += len(query)
    tr.answered.append((args[0], query))


def _on_enumerate(tr, args, kwargs, result):
    tr.counters["oracle.enumerated"] += len(result)


def _on_build(tr, args, kwargs, result):
    tr.counters["robust.constraints"] += len(result.constraints)


def _on_solve(tr, args, kwargs, result):
    tr.counters["robust.rounds"] += result.rounds


def _on_vertices(tr, args, kwargs, result):
    # ``vertices`` caches per polytope; count each polytope's vertices once.
    poly = args[0]
    if id(poly) not in tr.polytopes:
        tr.polytopes[id(poly)] = poly
        tr.counters["robust.vertices"] += len(result)


def _on_contains_array(tr, args, kwargs, result):
    tr.counters["robust.grid_points"] += len(_arg(args, kwargs, 1, "points"))


def _on_solve_lp(tr, args, kwargs, result):
    A, c = _arg(args, kwargs, 0, "A"), _arg(args, kwargs, 2, "c")
    tr.counters["simplexlp.tableau_cells"] += len(A) * len(c)


# (module, attribute or Class.method, span name or namer, counter hook)
TARGETS = (
    ("gaplearn.cli", "main", "cli.main", None),
    ("gaplearn.oracle", "ComparisonOracle.answer", "oracle.answer", _on_answer),
    ("gaplearn.oracle", "ComparisonOracle.truth", "oracle.truth", None),
    ("gaplearn.oracle", "enumerate_reduced_queries", "oracle.enumerate", _on_enumerate),
    ("gaplearn.elicitation", "estimate_gaps", "elicitation.estimate", None),
    ("gaplearn.elicitation", "estimate_gaps_noisy", "elicitation.estimate", None),
    ("gaplearn.learner", "plugin", "learner.plugin", None),
    ("gaplearn.learner", "bound_report", "learner.bound_report", None),
    ("gaplearn.instances", "excess_risk", "instances.excess_risk", None),
    ("gaplearn.generate", "random_instance", "generate.random_instance", None),
    ("gaplearn.hardness", "hard_pair_instance", "hardness.construct", None),
    ("gaplearn.hardness", "adaptivity_gap_instance", "hardness.construct", None),
    ("gaplearn.robust", "build_polytope", "robust.build_polytope", _on_build),
    ("gaplearn.robust", "solve_robust_policy", "robust.solve", _on_solve),
    ("gaplearn.robust", "ConsistentPolytope.maximize", "robust.maximize", None),
    ("gaplearn.robust", "ConsistentPolytope.vertices", "robust.vertices", _on_vertices),
    ("gaplearn.robust", "ConsistentPolytope.contains_array", "robust.contains_array",
     _on_contains_array),
    ("gaplearn.robust", "local_modulus", _modulus_span, None),
    ("gaplearn.robust", "grid_game_value", "robust.grid_game", None),
    ("gaplearn.simplexlp", "solve_lp", "simplexlp.solve_lp", _on_solve_lp),
    ("gaplearn.simplexlp", "solve_linear_system", "simplexlp.linear_system", None),
)

# Span name -> per-layer metric of its self time.
SELF_METRICS = {
    "oracle.answer": "oracle.answer_s",
    "oracle.truth": "oracle.truth_s",
    "oracle.enumerate": "oracle.enumerate_s",
    "elicitation.estimate": "elicitation.self_s",
    "learner.plugin": "learner.plugin_s",
    "learner.bound_report": "learner.bound_report_s",
    "instances.excess_risk": "instances.excess_risk_s",
    "generate.random_instance": "generate.random_instance_s",
    "hardness.construct": "hardness.construct_s",
    "robust.build_polytope": "robust.build_polytope_self_s",
    "robust.solve": "robust.solve_self_s",
    "robust.maximize": "robust.maximize_s",
    "robust.vertices": "robust.vertices_s",
    "robust.contains_array": "robust.contains_array_s",
    "robust.modulus_lower": "robust.modulus_lower_s",
    "robust.modulus_upper": "robust.modulus_upper_s",
    "robust.grid_game": "robust.grid_game_s",
    "simplexlp.solve_lp": "simplexlp.solve_lp_s",
    "simplexlp.linear_system": "simplexlp.linear_system_s",
    "cli.main": "cli.self_s",
    "item": "item.self_s",
}

# Span name -> per-layer metric of its call count.
CALL_METRICS = {
    "oracle.answer": "oracle.answer_calls",
    "elicitation.estimate": "elicitation.runs",
    "robust.maximize": "robust.maximize_calls",
    "simplexlp.solve_lp": "simplexlp.solve_lp_calls",
    "simplexlp.linear_system": "simplexlp.linear_system_calls",
    "learner.bound_report": "learner.bound_report_calls",
}

COUNTERS = (
    "oracle.entries",
    "oracle.enumerated",
    "robust.constraints",
    "robust.rounds",
    "robust.vertices",
    "robust.grid_points",
    "simplexlp.tableau_cells",
)

# Float rounding allowed between an item's wall time and its summed self times.
SELF_CHECK_SLACK_S = 1e-6


class Tracer:
    """Spans and counters of traced items; one per process."""

    def __init__(self) -> None:
        self.span_names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self._stack = [-1]
        self.items: list[tuple[int, int]] = []  # [root, end) span range per item
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.answered: list = []  # (oracle, query) per answer call of the open item
        self.polytopes: dict = {}
        self.missing: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers = self._build_wrappers()

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._ids[name]

    def _wrap(self, fn, span, hook):
        names, parents, t0s, t1s, stack = self.name, self.parent, self.t0, self.t1, self._stack
        clock = time.perf_counter
        fixed = None if callable(span) else self._name_id(span)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(fixed if fixed is not None else self._name_id(span(args, kwargs)))
            parents.append(stack[-1])
            t0s.append(0.0)
            t1s.append(0.0)
            stack.append(idx)
            t0s[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1s[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return wrapper

    def _build_wrappers(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every target present."""
        out = []
        for module_name, attr, span, hook in TARGETS:
            owner = importlib.import_module(module_name)
            *cls_path, leaf = attr.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            out.append((owner, leaf, original, self._wrap(original, span, hook)))
        return out

    def install(self) -> None:
        """Replace every target, and every gaplearn name bound to one."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "gaplearn" or n.startswith("gaplearn."))]
        for owner, leaf, original, wrapper in self._wrappers:
            self._patches.append((owner, leaf, original))
            setattr(owner, leaf, wrapper)
            for module in modules:
                if module is owner:
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def begin_item(self) -> None:
        """Open the item's root span; ``end_item`` sets its start and end."""
        root = len(self.name)
        self.name.append(self._name_id("item"))
        self.parent.append(-1)
        self.t0.append(0.0)
        self.t1.append(0.0)
        self._stack.append(root)
        self.items.append((root, -1))

    def end_item(self, started: float, ended: float) -> list[str]:
        """Close the item's root span on the item's own timer, fold in its spans.

        Returns the self-check problems: spans left open or outside their
        parent, or self times that do not add up to the item's wall time.
        """
        root = self.items[-1][0]
        self.t0[root], self.t1[root] = started, ended
        self._stack.pop()
        end = len(self.name)
        self.items[-1] = (root, end)

        # Slicing copies, so the arrays export no buffer and can keep growing.
        name = np.frombuffer(self.name[root:end], dtype=np.int32)
        parent = np.frombuffer(self.parent[root:end], dtype=np.int32) - root
        t0 = np.frombuffer(self.t0[root:end])
        t1 = np.frombuffer(self.t1[root:end])
        dur = t1 - t0
        problems = []
        if len(self._stack) != 1:
            problems.append(f"{len(self._stack) - 1} spans left open")
        kids = np.arange(1, end - root)
        par = parent[kids]
        if (par < 0).any():
            problems.append("a span has no parent inside the item")
            par = np.maximum(par, 0)
        if (t0[kids] < t0[par]).any() or (t1[kids] > t1[par]).any():
            problems.append("a span lies outside its parent")
        child = np.bincount(par, weights=dur[kids], minlength=end - root)
        self_s = dur - child
        covered = float(self_s.sum())
        if abs(covered - (ended - started)) > SELF_CHECK_SLACK_S:
            problems.append(
                f"span self times add to {covered:.9f} s, item wall time {ended - started:.9f} s"
            )

        by_name = np.bincount(name, weights=self_s, minlength=len(self.span_names))
        calls = np.bincount(name, minlength=len(self.span_names))
        for i, span in enumerate(self.span_names):
            if span in SELF_METRICS:
                self.totals[SELF_METRICS[span]] += float(by_name[i])
            if span in CALL_METRICS:
                self.totals[CALL_METRICS[span]] += int(calls[i])
        for key, value in self.counters.items():
            self.totals[key] += value
        by_object = {(id(o), id(q)): (o, q) for o, q in self.answered}
        distinct = len({(id(o), q) for o, q in by_object.values()})
        self.totals["oracle.distinct_queries"] += distinct
        self.counters.clear()
        self.answered.clear()
        self.polytopes.clear()
        return problems

    def item_answers(self) -> int:
        """Answer calls recorded in the last closed item."""
        root, end = self.items[-1]
        answer = self._ids.get("oracle.answer")
        if answer is None:
            return 0
        return self.name[root:end].count(answer)

    def per_item(self) -> dict[str, float]:
        """Every per-layer metric except the overhead ratio, per traced item."""
        n = max(len(self.items), 1)
        out = {metric: self.totals.get(metric, 0.0) / n for metric in SELF_METRICS.values()}
        for metric in CALL_METRICS.values():
            out[metric] = self.totals.get(metric, 0) / n
        for counter in COUNTERS:
            out[counter] = self.totals.get(counter, 0.0) / n
        distinct = self.totals.get("oracle.distinct_queries", 0)
        out["oracle.repeat_ratio"] = (
            self.totals.get("oracle.answer_calls", 0) / distinct if distinct else 0.0
        )
        return out

    def dump(self, path: Path) -> None:
        """Write every recorded span, with item boundaries, as one .npz file."""
        np.savez(
            path,
            span_names=np.array(self.span_names),
            name=np.array(self.name, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.t0),
            end=np.array(self.t1),
            items=np.array(self.items, dtype=np.int64).reshape(-1, 2),
        )
