"""Span tracer that wraps moutardkit's public layer functions from outside.

Each wrapped call records a span (name, start, end, parent span).  A
layer's self time is its spans' durations minus the time their child
spans cover.  Nothing under src/ is edited: the wrappers are installed by
rebinding names at run time.

Modules import with ``from .positivity import global_positivity``, so a
function is bound under its name in every importing module.  `install`
rebinds every such binding in every loaded moutardkit module, and
replaces methods on the class itself, so no caller reaches an unwrapped
original.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from typing import Callable, Dict, List, Optional

# (module, class or None, attribute, span name)
TARGETS = [
    ("polynomials", "BivariatePoly", "__mul__", "polynomials.mul"),
    ("polynomials", "BivariatePoly", "div_exact", "polynomials.div_exact"),
    ("polynomials", "BivariatePoly", "laplacian", "polynomials.laplacian"),
    ("sturm", None, "count_real_roots", "sturm.count_real_roots"),
    ("positivity", None, "global_positivity", "positivity.global_positivity"),
    ("positivity", None, "leading_dominance", "positivity.leading_dominance"),
    ("search", None, "min_positive_constant", "search.min_positive_constant"),
    ("construct", None, "double_transform", "construct.double_transform"),
    ("construct", None, "verify_lemma", "construct.verify_lemma"),
    ("construct", None, "transform_family", "construct.transform_family"),
    ("moutard", None, "verify_solution", "moutard.verify_solution"),
    ("decay", None, "decay_exponent", "decay.decay_exponent"),
    ("decay", None, "l2_membership", "decay.l2_membership"),
    ("numeric", None, "numeric_residual", "numeric.numeric_residual"),
    ("numeric", None, "numeric_l2_norm", "numeric.numeric_l2_norm"),
    ("serialization", None, "dumps", "serialization.dumps"),
]

SPAN_NAMES = [name for _, _, _, name in TARGETS]

# counters filled by observers; all are exact counts for a fixed input
COUNTERS = [
    "positivity.global_positivity.certified",
    "positivity.global_positivity.refuted",
    "positivity.global_positivity.inconclusive",
    "positivity.global_positivity.distinct",
    "positivity.global_positivity.nested_in_search",
    "positivity.cells",
    "positivity.boxes",
    "positivity.max_depth",
    "serialization.dumps.bytes",
]


def import_all_modules() -> List[object]:
    """Import every moutardkit submodule so that all bindings exist."""
    package = importlib.import_module("moutardkit")
    for info in pkgutil.iter_modules(package.__path__):
        if info.name != "__main__":
            importlib.import_module(f"moutardkit.{info.name}")
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "moutardkit" or name.startswith("moutardkit.")
    ]


class Tracer:
    """Records spans and counters of the wrapped functions in one process."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index]
        self.stack: List[int] = []
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.originals: Dict[str, Callable] = {}
        self.missing: List[str] = []
        self._distinct: set = set()

    # -- observers: they run outside the span they observe ----------------

    def _observe_positivity(self, args, result, error) -> None:
        c = self.counters
        key = tuple(args[0].items())
        if key not in self._distinct:
            self._distinct.add(key)
            c["positivity.global_positivity.distinct"] += 1
        if any(self.spans[i][0] == "search.min_positive_constant" for i in self.stack):
            c["positivity.global_positivity.nested_in_search"] += 1
        if error is not None:
            if type(error).__name__ == "Inconclusive":
                c["positivity.global_positivity.inconclusive"] += 1
            return
        cells = getattr(result, "cells", None)
        if cells is None:
            c["positivity.global_positivity.refuted"] += 1
            return
        c["positivity.global_positivity.certified"] += 1
        c["positivity.cells"] += len(cells)
        c["positivity.boxes"] += 2 * len(cells) - 1 if cells else 0
        c["positivity.max_depth"] = max(c["positivity.max_depth"], result.max_depth_used)

    def _observe_dumps(self, args, result, error) -> None:
        if error is None:
            self.counters["serialization.dumps.bytes"] += len(result.encode("utf-8"))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[2] = clock()
                stack.pop()
                if observe is not None:
                    observe(args, None, exc)
                raise
            span[2] = clock()
            stack.pop()
            if observe is not None:
                observe(args, result, None)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind it wherever moutardkit binds it."""
        modules = import_all_modules()
        observers = {
            "positivity.global_positivity": self._observe_positivity,
            "serialization.dumps": self._observe_dumps,
        }
        for module_name, class_name, attr, name in TARGETS:
            module = sys.modules.get(f"moutardkit.{module_name}")
            owner = getattr(module, class_name, None) if class_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.missing.append(name)
                continue
            self.originals[name] = original
            wrapper = self.wrap(name, original, observers.get(name))
            if class_name:
                # aliases such as __rmul__ = __mul__ share the function object
                for key, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, key, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def summary(self) -> dict:
        """Calls and self time per span name, plus the counters."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        layers = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = layers[name]
            entry["calls"] += 1
            entry["self_s"] += (end - start) - child_time[index]
        return {"layers": layers, "counters": dict(self.counters), "missing": self.missing}
