"""Spans around the package's public functions, and the call-counting hook.

Both act from outside the program.  The tracer swaps every module-level
binding of a public package function for a wrapper that records a span; a
name imported with ``from .x import f`` is looked up in the importing
module, so that module's binding is swapped too.  A layer is the module
that defines the function.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter
from pathlib import Path

# Per-layer metrics: (metric, unit).  ``<module>.<function>.calls`` and
# ``.self_ms`` come from spans of that function; ``<module>.self_ms`` sums a
# whole module; the threebraid counts are calls made directly by
# type1_recognize.  Every value is per operation.
FUNCTIONS_WITH_CALLS = (
    "garside.normal_form",
    "garside.conjugacy_decide",
    "quadform.congruence_diagonalize",
)
FUNCTIONS_SELF_ONLY = (
    "threebraid.type1_recognize",
    "alexander.burau_alexander",
    "alexander.alexander_from_seifert",
    "alexander.laurent_det",
    "seifert.seifert_matrix",
    "tau.family_tau",
    "report.family_report",
    "report.word_report",
)
MODULES = ("garside", "threebraid", "quadform", "alexander", "seifert", "tau", "report", "braid")
CANDIDATES = ("threebraid.type1_recognize", "threebraid.type1_word")
CANDIDATES_TESTED = ("threebraid.type1_recognize", "garside.conjugacy_decide")


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in FUNCTIONS_WITH_CALLS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in FUNCTIONS_SELF_ONLY:
        units[f"{name}.self_ms"] = "ms"
    units["threebraid.candidates"] = "count"
    units["threebraid.candidates_tested"] = "count"
    for module in MODULES:
        units[f"{module}.self_ms"] = "ms"
    units["op.traced_ms"] = "ms"
    return units


class Tracer:
    """Records nested spans; spans of one operation share its index."""

    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.self_s: Counter[str] = Counter()
        self.calls: Counter[str] = Counter()
        self.child_calls: Counter[tuple[str, str]] = Counter()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._bindings: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [len(self.spans) + len(stack), name, 0.0, 0.0]
            stack.append(frame)
            frame[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                self.self_s[name] += duration - frame[3]
                self.calls[name] += 1
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[3] += duration
                    self.child_calls[(parent[1], name)] += 1
                self.spans.append(
                    (frame[0], -1 if parent is None else parent[0], self.op, name, frame[2], end)
                )

        return traced

    def install(self, package: str) -> None:
        modules = [m for key, m in sys.modules.items() if key == package or key.startswith(package + ".")]
        defined_in = {m.__name__ for m in modules}
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if not (
                    inspect.isfunction(obj)
                    and obj.__module__ in defined_in
                    and not obj.__name__.startswith("_")
                ):
                    continue
                if id(obj) not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[-1]
                    wrappers[id(obj)] = self.wrap(obj, f"{layer}.{obj.__name__}")
                self._bindings.append((module, attr, obj))
                setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._bindings):
            setattr(module, attr, obj)
        self._bindings.clear()

    def metrics(self, ops: int, traced_s: float) -> dict[str, float]:
        def per_op_ms(seconds: float) -> float:
            return 1000.0 * seconds / ops

        out: dict[str, float] = {}
        for name in FUNCTIONS_WITH_CALLS:
            out[f"{name}.calls"] = self.calls[name] / ops
            out[f"{name}.self_ms"] = per_op_ms(self.self_s[name])
        for name in FUNCTIONS_SELF_ONLY:
            out[f"{name}.self_ms"] = per_op_ms(self.self_s[name])
        out["threebraid.candidates"] = self.child_calls[CANDIDATES] / ops
        out["threebraid.candidates_tested"] = self.child_calls[CANDIDATES_TESTED] / ops
        for module in MODULES:
            seconds = sum(s for name, s in self.self_s.items() if name.split(".", 1)[0] == module)
            out[f"{module}.self_ms"] = per_op_ms(seconds)
        out["op.traced_ms"] = per_op_ms(traced_s)
        return out

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent id (-1 at the top), op, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def count_calls(fn, args: tuple):
    """Run fn(*args) under a profile hook; return (result, Python and C calls made)."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    sys.setprofile(hook)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    # the hook also saw the c_call of sys.setprofile(None) itself
    return result, calls - 1
