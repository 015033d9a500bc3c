"""Outside-in span tracer: wraps the public functions of sgcn's modules.

The program itself is not modified.  While a ``Tracer`` is active, every
public function of the traced modules (and ``training.Adam.step``) is
replaced by a wrapper that records a span -- name, parent, start, end --
in memory.  Functions imported by name into other modules
(``from .graphs import build_spatial_graph``) are replaced at every
module attribute that holds them, so each call site is seen.  Leaving
the ``with`` block restores every attribute to the original object.

Spans are recorded from one thread only; run threaded code untraced.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

from sgcn import autodiff, cli, data, evaluation, graphs, model, training

MODULES = {
    "data": data,
    "graphs": graphs,
    "model": model,
    "autodiff": autodiff,
    "training": training,
    "evaluation": evaluation,
    "cli": cli,
}
# as_tensor is called inside every primitive; it is a conversion, not a layer.
SKIPPED = {"autodiff.as_tensor"}
METHODS = [(training.Adam, "step", "training.Adam.step")]

# span fields
NAME, PARENT, START, END, CHILD = range(5)


def public_functions() -> dict:
    """Traced name -> function, for the public functions each module defines."""
    found = {}
    for short, module in MODULES.items():
        for attr, obj in vars(module).items():
            name = f"{short}.{attr}"
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in SKIPPED
            ):
                found[name] = obj
    return found


def is_primitive(name: str, function) -> bool:
    """Autodiff functions that return a new tape node."""
    return name.startswith("autodiff.") and function.__annotations__.get("return") == "Tensor"


class Tracer:
    """Context manager recording spans ``[name, parent, start, end, child_s]``.

    ``parent`` is the index of the enclosing span or -1; ``child_s`` is
    the time covered by direct children, so self time is
    ``end - start - child_s``.  ``observers`` maps a traced name to a
    function of the call's result returning counter increments, which
    accumulate in ``counts``.
    """

    def __init__(self, observers: dict | None = None):
        self.observers = observers or {}
        self.spans: list = []
        self.counts: dict = {}
        self._stack: list = []
        self._saved: list = []

    def _wrap(self, name: str, function):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = self.observers.get(name)

        @functools.wraps(function)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                end = span[END] = perf_counter()
                stack.pop()
                if span[PARENT] >= 0:
                    spans[span[PARENT]][CHILD] += end - span[START]
            if observe is not None:
                for key, value in observe(result).items():
                    counts[key] = counts.get(key, 0) + value
            return result

        return traced

    def __enter__(self):
        functions = public_functions()
        wrappers = {id(f): self._wrap(name, f) for name, f in functions.items()}
        for module in MODULES.values():
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])
        for owner, attr, name in METHODS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


def summarize(spans) -> dict:
    """Name -> [calls, total_s, self_s] over a list of spans."""
    table: dict = {}
    for name, _, start, end, child in spans:
        row = table.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child
    return table


def outermost(spans, names: set) -> int:
    """Spans named in ``names`` whose parent span is not also in ``names``."""
    return sum(
        1 for span in spans
        if span[NAME] in names and (span[PARENT] < 0 or spans[span[PARENT]][NAME] not in names)
    )
