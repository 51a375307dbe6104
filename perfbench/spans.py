"""Outside-in span recorder for the traced run.

The recorder wraps functions of the torusdescent modules from outside:
every public function of each module, every function of `descent` (its
private helpers are the named stages), and the methods of `SurfaceSpec`.
Each wrapper is bound under every name that referred to the original in
any torusdescent module, so a call made through `from .arith import
hilbert_symbol` in `selmer` is recorded like a call made inside `arith`.
Nothing in `src/` changes; `uninstall` puts the originals back.

Spans are kept in memory as parallel arrays with parent links and are
written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time
from array import array
from collections import defaultdict
from typing import Dict, List, Tuple

MODULES = ("arith", "surface", "conditiond", "brauer", "selmer", "points", "gf2",
           "descent", "cli")
SPEC_METHODS = ("coeffs", "root", "factor_value", "product_value", "is_s0_integer")


class SpanRecorder:
    def __init__(self) -> None:
        self.names: List[str] = []
        self.name_of = array("l")
        self.parent_of = array("l")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self._stack = [-1]
        self._restore: List[Tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        name_of, parent_of = self.name_of, self.parent_of
        start_ns, end_ns, stack = self.start_ns, self.end_ns, self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            index = len(start_ns)
            name_of.append(name_id)
            parent_of.append(stack[-1])
            end_ns.append(0)
            stack.append(index)
            start_ns.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_ns[index] = clock()
                stack.pop()

        return span

    def install(self, package: str = "torusdescent") -> None:
        modules = {name: sys.modules[f"{package}.{name}"] for name in MODULES}
        wrapped: Dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and layer != "descent":
                    continue
                wrapped[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        namespaces = [sys.modules[package], *modules.values()]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrapped:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapped[id(obj)])
        spec_class = modules["surface"].SurfaceSpec
        for method in SPEC_METHODS:
            original = spec_class.__dict__[method]
            self._restore.append((spec_class, method, original))
            setattr(spec_class, method, self._wrap(f"surface.{method}", original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def summary(self) -> Dict[str, Dict[str, float]]:
        """calls, total_ms and self_ms per span name.

        Self time is the span's duration minus the durations of its direct
        children, so each nanosecond inside a span counts once.
        """
        child_ns = [0] * len(self.start_ns)
        for index, parent in enumerate(self.parent_of):
            if parent >= 0:
                child_ns[parent] += self.end_ns[index] - self.start_ns[index]
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        for index, name_id in enumerate(self.name_of):
            duration = self.end_ns[index] - self.start_ns[index]
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["total_ms"] += duration / 1e6
            entry["self_ms"] += (duration - child_ns[index]) / 1e6
        return dict(out)

    def write(self, path) -> None:
        """Gzipped TSV, one line per span: index, parent index, name, start
        and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for index, name_id in enumerate(self.name_of):
                fh.write(f"{index}\t{self.parent_of[index]}\t{self.names[name_id]}\t"
                         f"{self.start_ns[index]}\t{self.end_ns[index]}\n")
