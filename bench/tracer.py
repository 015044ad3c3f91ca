"""Span tracer for the benchmark's traced runs.

While installed, the tracer replaces a fixed list of public library
functions by wrappers in every ``gogmagog`` module namespace that binds
them, so calls between modules are caught as well as calls from the
benchmark.  Each call becomes one span (name, start, end, parent) kept
in memory; `write` dumps them when the run ends.  `uninstall` puts the
original objects back.  Untraced runs never install anything.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from array import array
from pathlib import Path

# The seven modules under src/gogmagog are the layers.  "Class.method"
# wraps a method on its class; the other names are module functions.
LAYERS: dict[str, tuple[str, ...]] = {
    "bijection": (
        "gog_to_gogam_n2",
        "gogam_to_gog_n2",
        "forward_step",
        "inverse_step",
        "BijectionState.check_invariants",
        "extract_diagonals",
    ),
    "schutzenberger": ("schutzenberger", "bender_knuth", "is_gogam", "schutzenberger_diagonal"),
    "tableaux": ("schutzenberger_via_words", "rsk_insertion_tableau"),
    "triangles": ("validate_gt", "is_trapezoid", "parse_triangle", "format_triangle"),
    "asm": ("gog_to_asm",),
    "enumeration": ("verify", "generate"),
    "cli": ("main", "build_parser"),
}

# These return iterators; every next() on the result is one span.
ITERATOR_FUNCTIONS = frozenset({"enumeration.generate"})

FUNCTIONS: tuple[str, ...] = tuple(
    f"{layer}.{name}" for layer, names in LAYERS.items() for name in names
)


class _TracedIterator:
    def __init__(self, tracer: "Tracer", name_id: int, it) -> None:
        self._tracer = tracer
        self._name_id = name_id
        self._it = it

    def __iter__(self) -> "_TracedIterator":
        return self

    def __next__(self):
        return self._tracer.call(self._name_id, next, self._it)


class Tracer:
    """Collects spans across several traced units of work.

    Span i is (names[name_id[i]], start[i], end[i], parent[i]); parent
    is the index of the enclosing span, or -1 for a root span.  Columns
    are kept as arrays so that long runs stay small in memory.
    """

    def __init__(self) -> None:
        self.names = FUNCTIONS
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.wall = 0.0  # summed wall time of the traced units
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def call(self, name_id: int, fn, *args, **kwargs):
        stack = self._stack
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter()
            stack.pop()

    def _wrapper(self, name: str, fn):
        name_id = self.names.index(name)
        if name in ITERATOR_FUNCTIONS:
            def traced(*args, **kwargs):
                return _TracedIterator(self, name_id, fn(*args, **kwargs))
        else:
            def traced(*args, **kwargs):
                return self.call(name_id, fn, *args, **kwargs)
        return functools.update_wrapper(traced, fn)

    def install(self) -> None:
        modules = [
            mod
            for key, mod in list(sys.modules.items())
            if (key == "gogmagog" or key.startswith("gogmagog."))
            and isinstance(mod, types.ModuleType)
        ]
        for name in FUNCTIONS:
            layer, _, attr = name.partition(".")
            module = importlib.import_module(f"gogmagog.{layer}")
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                self._patch(owner, method, self._wrapper(name, owner.__dict__[method]))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def run(self, fn):
        """Call ``fn()`` with the wrappers installed; return (result, seconds)."""
        self.install()
        try:
            start = time.perf_counter()
            result = fn()
            seconds = time.perf_counter() - start
        finally:
            self.uninstall()
        self.wall += seconds
        return result, seconds

    def summary(self, ops: int) -> dict[str, float]:
        """Per-function calls per op, inclusive us per call and self share.

        Self time is a span's duration minus the time its child spans
        cover.  The self times of all spans add up to the time covered
        by root spans; the rest of the traced wall time is unattributed.
        """
        count = len(self.names)
        durations = [e - s for s, e in zip(self.start, self.end)]
        child_time = [0.0] * len(durations)
        for duration, parent in zip(durations, self.parent):
            if parent >= 0:
                child_time[parent] += duration
        calls = [0] * count
        inclusive = [0.0] * count
        self_time = [0.0] * count
        rooted = 0.0
        for name_id, duration, child, parent in zip(self.name_id, durations, child_time, self.parent):
            calls[name_id] += 1
            inclusive[name_id] += duration
            self_time[name_id] += duration - child
            if parent < 0:
                rooted += duration
        unattributed = self.wall - rooted
        accounted = sum(self_time) + unattributed
        if abs(accounted - self.wall) > 1e-6 * self.wall:
            raise RuntimeError(
                f"self times plus unattributed time ({accounted:.6f} s) "
                f"do not add up to the traced wall time ({self.wall:.6f} s)"
            )
        out: dict[str, float] = {}
        for i, name in enumerate(self.names):
            out[f"{name}.calls_per_op"] = calls[i] / ops
            out[f"{name}.us_per_call"] = inclusive[i] / calls[i] * 1e6 if calls[i] else 0.0
            out[f"{name}.self_share"] = self_time[i] / self.wall
        out["unattributed_share"] = unattributed / self.wall
        return out

    def write(self, path: Path) -> None:
        """First line: the span names.  Then one JSON array per span:
        name index, start and end in us from the first span, parent line
        index among the spans (-1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.start[0] if self.start else 0.0
        with path.open("w") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for name_id, start, end, parent in zip(self.name_id, self.start, self.end, self.parent):
                fh.write(f"[{name_id},{(start - origin) * 1e6:.3f},{(end - origin) * 1e6:.3f},{parent}]\n")
