"""Per-layer spans and exact work counters for the traced run.

``Tracer.install`` rebinds, for the duration of one traced round:

* the public functions of every gradedpi module,
* the ``from .x import f`` copies of them held by other gradedpi modules,
* the public methods of ``ElementaryGrading``,

to wrappers that record one span per call: name, start, end, parent span
and job id. Self time is a span's duration minus the time its child spans
cover. Spans stay in memory (up to a cap) and are written out at the end;
call counts, self times and work counters are aggregated as spans close, so
they do not depend on the cap. ``uninstall`` puts the originals back, so
untraced rounds run the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("grading", "freealg", "genericmodel", "rewrite", "bases", "suites", "cli")

#: spans under these ancestors are also counted per ancestor, for the ratios
ANCESTORS = ("bases.build_basis", "bases.basis_report")


def _sized(x) -> int:
    return len(x) if hasattr(x, "__len__") else 0


#: span name -> (args, result) -> [(counter, amount)]; call sites pass these
#: arguments positionally
COUNTERS: Dict[str, Callable] = {
    "grading.row_walk": lambda a, r: [("grading.row_walk.letters", len(a[1]))],
    "freealg.parse_polynomial": lambda a, r: [("freealg.parse_polynomial.chars", len(a[0]))],
    "freealg.classify": lambda a, r: [("freealg.classify.letters", len(a[0]))],
    "genericmodel.evaluate": lambda a, r: [("genericmodel.evaluate.terms", len(a[0].terms))],
    "genericmodel.monomial_product": lambda a, r: [("genericmodel.monomial_product.letters", _sized(a[1]))],
    "rewrite.find_congruence": lambda a, r: [
        ("rewrite.find_congruence.letters", len(a[0])),
        ("rewrite.proof_steps", len(r.steps) if r is not None else 0),
    ],
    "bases.build_basis": lambda a, r: [("bases.instances", len(r.instances) if r is not None else 0)],
    "suites.run_suite": lambda a, r: [("suites.items", len(r) if r is not None else 0)],
}


def _skip(layer: str, name: str) -> bool:
    # The batteries are reached only through suites.SUITES inside run_suite,
    # so their time is run_suite's own.
    return layer == "suites" and name.startswith("battery_")


class Tracer:
    def __init__(self, span_cap: int = 50_000):
        self.span_cap = span_cap
        self.job: Optional[str] = None
        self.calls: Counter = Counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.under: Counter = Counter()  # (ancestor, name) -> calls
        self.spans: List[Tuple] = []
        self.dropped = 0
        self._stack: List[list] = []
        self._open: Counter = Counter()
        self._next_id = 0
        self._restore: List[Tuple[object, str, object]] = []
        self._wrappers: Dict[object, Tuple[str, object]] = {}

    # -- spans ---------------------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._exit(frame)
                if counter is not None:
                    for key, amount in counter(args, result):
                        tracer.counts[key] += amount

        return wrapper

    def _enter(self, name: str) -> list:
        span_id = self._next_id
        self._next_id += 1
        for anc in ANCESTORS:
            if self._open[anc]:
                self.under[(anc, name)] += 1
        self._open[name] += 1
        parent = self._stack[-1][3] if self._stack else None
        frame = [name, 0.0, 0.0, span_id, parent]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list):
        end = time.perf_counter()
        name, start, child, span_id, parent = frame
        self._stack.pop()
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        self._open[name] -= 1
        if self._stack:
            self._stack[-1][2] += duration
        if len(self.spans) < self.span_cap:
            self.spans.append((span_id, name, start, end, parent, self.job))
        else:
            self.dropped += 1

    # -- installation ------------------------------------------------------------------

    def _build_wrappers(self):
        from gradedpi.grading import ElementaryGrading

        for layer in LAYERS:
            mod = importlib.import_module(f"gradedpi.{layer}")
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not _skip(layer, attr)
                ):
                    self._wrappers[obj] = (f"{layer}.{attr}", self._wrap(f"{layer}.{attr}", obj))
        for attr, obj in vars(ElementaryGrading).items():
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._wrappers[obj] = (f"grading.{attr}", self._wrap(f"grading.{attr}", obj))

    def install(self):
        """Rebind every public function, its imported copies and the
        ElementaryGrading methods to their span-recording wrappers."""
        from gradedpi.grading import ElementaryGrading

        if not self._wrappers:
            self._build_wrappers()
        targets = [importlib.import_module("gradedpi")]
        targets += [importlib.import_module(f"gradedpi.{layer}") for layer in LAYERS]
        targets.append(ElementaryGrading)
        for target in targets:
            for attr, obj in list(vars(target).items()):
                if inspect.isfunction(obj) and obj in self._wrappers:
                    self._restore.append((target, attr, obj))
                    setattr(target, attr, self._wrappers[obj][1])

    def uninstall(self):
        while self._restore:
            target, attr, obj = self._restore.pop()
            setattr(target, attr, obj)

    # -- results -----------------------------------------------------------------------

    def write_spans(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps([span_id, name, round(start, 9), round(end, 9), parent, job]) + "\n")

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_ms": {k: v * 1000.0 for k, v in self.self_s.items()},
            "counts": dict(self.counts),
            "under": {f"{a}>{n}": c for (a, n), c in self.under.items()},
            "spans": len(self.spans),
            "dropped_spans": self.dropped,
        }
