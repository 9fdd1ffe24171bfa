"""Spans around the public functions of corrdil's layers.

corrdil's modules import each other's functions by name, so one function
object is bound in several modules (``op_norm`` lives in ``linalg`` and is
also bound in ``gauge``, ``representation``, ``dilation``, ``disc``, ``cli``
and the package root).  :meth:`Tracer.install` therefore rebinds every
module attribute that holds a wrapped function, not just the defining one.

A span records its name, start, end and parent span; spans stay in memory
and are written out by :meth:`Tracer.write` when the run ends.  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("linalg", "graph", "correspondence", "gauge", "representation",
          "dilation", "disc", "io", "cli")


def _svd_work(args, kwargs, result) -> int:
    """m n min(m, n) of the op_norm argument, computed from its shape."""
    shape = np.shape(args[0] if args else kwargs["M"])
    return shape[0] * shape[1] * min(shape) if len(shape) == 2 else 0


def _new_dim(args, kwargs, result) -> int:
    return result.new_dim


def _text_bytes(args, kwargs, result) -> int:
    return len((args[0] if args else kwargs["text"]).encode("utf-8"))


# Per-call amounts beside time and call count, keyed by traced name.
AMOUNTS = {
    "linalg.op_norm": ("svd_work", _svd_work),
    "linalg.orthonormal_closure": ("out_dim", lambda a, k, r: r.dim),
    "dilation.one_step_isometric": ("out_dim", _new_dim),
    "dilation.one_step_ck": ("out_dim", _new_dim),
    "dilation.minimal_reduce": ("out_dim", _new_dim),
    "io.parse_problem": ("bytes", _text_bytes),
    "io.problem_text": ("bytes", lambda a, k, r: len(r.encode("utf-8"))),
}


class Tracer:
    def __init__(self):
        self.spans = []     # (parent index or -1, name, start, end, amount)
        self._stack = []
        self._rebound = []

    def _wrap(self, name: str, fn):
        amount = AMOUNTS.get(name, (None, None))[1]
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (parent, name, start, end, 0)
            if amount is not None:
                spans[index] = (parent, name, start, end, amount(args, kwargs, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of each layer wherever it is bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"corrdil.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != "corrdil" and not modname.startswith("corrdil."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, attr, wrappers[value])
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._rebound:
            setattr(module, attr, value)
        self._rebound.clear()

    def summary(self, lo: int, hi: int) -> dict:
        """calls, self_s and amount per traced name over spans[lo:hi]."""
        child = defaultdict(float)
        for parent, _, start, end, _ in self.spans[lo:hi]:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "amount": 0})
        for i, (_, name, start, end, amount) in enumerate(self.spans[lo:hi], lo):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child[i]
            row["amount"] += amount
        return dict(out)

    def write(self, path: Path, origin: float) -> None:
        """One CSV line per span: index, parent, name, start and end in
        seconds after origin, and the per-call amount."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s,amount\n")
            for i, (parent, name, start, end, amount) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start - origin:.9f},{end - origin:.9f},{amount}\n")
