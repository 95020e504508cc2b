"""Span tracer that wraps prefalloc's public functions from outside the package.

Installing the tracer rebinds every public function of ``prefalloc.core``,
``.matching``, ``.solvers``, ``.instances``, ``.rng`` and ``.cli`` in every
``prefalloc`` namespace that holds it, so calls made inside the package are
seen too.  Removing it puts the original objects back.  Nothing in the
package source is edited.

A span is ``[name, start, end, parent, request]``; spans stay in memory until
the caller writes them out.  Functions called per agent-alternative pair
(``score``) or per random draw (the ``rng`` helpers) only count calls, since a
span per call would cost more than the call; their time stays in the caller's
self time.
"""

from __future__ import annotations

import importlib
import inspect
import math
import sys
import time
from collections import defaultdict

MODULES = ("core", "matching", "solvers", "instances", "rng", "cli")
COUNT_ONLY = {"core.score", "rng.derive_seed", "rng.shuffled", "rng.sample_distinct"}
FLOW_CALLS = {"matching.match_monroe_l1"}
MATCHING_CALLS = {
    "matching.match_monroe_l1",
    "matching.match_egalitarian",
    "matching.match_cc",
}


def _work_units(name, args):
    """Computed work base of one call: agent-member pairs of a flow solve,
    committees of an enumeration.  ``None`` when the call has no base."""
    if name in FLOW_CALLS:
        profile, _psf, committee = args[:3]
        return profile.n * len(committee)
    if name == "solvers.exact_enumeration":
        instance = args[0]
        if instance.committee_size is not None:
            return math.comb(instance.profile.m, instance.committee_size)
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.work: dict = {}
        self.counts = defaultdict(int)
        self.request = None
        self._stack: list = []
        self._saved: list = []

    def _span_wrapper(self, name, fn):
        spans, stack, work = self.spans, self._stack, self.work
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else None, self.request]
            spans.append(span)
            units = _work_units(name, args)
            if units is not None:
                work[index] = units
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for short in MODULES:
            module = importlib.import_module(f"prefalloc.{short}")
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                make = self._count_wrapper if name in COUNT_ONLY else self._span_wrapper
                wrappers[id(obj)] = (obj, make(name, obj))
        namespaces = [
            mod for key, mod in sys.modules.items()
            if key == "prefalloc" or key.startswith("prefalloc.")
        ]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._saved.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def remove(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def open_request(self, request_id):
        """Start a root span for one request; returns its span index."""
        self.request = request_id
        index = len(self.spans)
        self.spans.append(["request", time.perf_counter(), None, None, request_id])
        self._stack.append(index)
        return index

    def close_request(self, index) -> None:
        self._stack.pop()
        self.spans[index][2] = time.perf_counter()
        self.request = None

    def summary(self) -> dict:
        """Per-function call counts, self times and work totals."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        direct_matchings = defaultdict(int)
        has_cc_child = set()
        for span in spans:
            parent = span[3]
            if parent is None:
                continue
            child_time[parent] += span[2] - span[1]
            if spans[parent][0] == "solvers.exact_enumeration" and span[0] in MATCHING_CALLS:
                direct_matchings[parent] += 1
            if span[0] == "matching.match_cc":
                has_cc_child.add(parent)
        calls = defaultdict(int, self.counts)
        self_s = defaultdict(float)
        flow_s = flow_pairs = committees = matchings = 0
        request_s = unattributed_s = 0.0
        for index, span in enumerate(spans):
            name = span[0]
            own = span[2] - span[1] - child_time[index]
            if name == "request":
                request_s += span[2] - span[1]
                unattributed_s += own
                continue
            calls[name] += 1
            self_s[name] += own
            if name in FLOW_CALLS and index not in has_cc_child:
                flow_s += own
                flow_pairs += self.work[index]
            if name == "solvers.exact_enumeration" and index in self.work:
                committees += self.work[index]
                matchings += direct_matchings[index]
        return {
            "calls": calls,
            "self_s": self_s,
            "flow_s": flow_s,
            "flow_pairs": flow_pairs,
            "committees": committees,
            "enumeration_matchings": matchings,
            "request_s": request_s,
            "unattributed_s": unattributed_s,
        }
