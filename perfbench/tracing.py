"""Per-layer trace taken from outside the library.

While installed, the tracer replaces layer entry points with wrappers, as
attributes of the modules that call them (the library looks them up at call
time), and puts the originals back afterwards:

* ``scr.solve_relaxed``                  span "relaxation"
* ``relaxation.solve_standard_form``     span "ipm"
* ``scr.polish_schedule``                span "polish"
* ``_kernels.scan_range``                span "kernel" (runs on pool threads)
* every function ``scr`` imports from ``flows``, ``model`` and
  ``objectives``                          call counts only

The benchmark records one root span around each timed call; every span
carries the id of that call ("solve"). Spans stay in memory until the run
writes them out as JSONL.

Spans and call counts are taken in separate passes: the counted functions run
about two million times per pass inside polish, and a count wrapper in the
timed pass would add its cost to the polish and SCR self times.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

#: (module, attribute, span name, layer metrics lost when the entry point is gone)
SPAN_POINTS = (
    ("scr", "solve_relaxed", "relaxation",
     ("relaxation.calls", "relaxation.self_s", "relaxation.live_vars")),
    ("relaxation", "solve_standard_form", "ipm",
     ("ipm.s", "ipm.iterations", "ipm.s_per_iter")),
    ("scr", "polish_schedule", "polish",
     ("scr.polish_s", "scr.polish_calls", "scr.polish_distinct_frac")),
    ("_kernels", "scan_range", "kernel",
     ("kernels.busy_s", "kernels.calls", "kernels.evals",
      "kernels.evals_per_busy_s", "oracle.self_s", "oracle.parallel_eff")),
)
COUNTED_MODULES = ("flows", "model", "objectives")
#: metrics taken from the count pass, which covers the batch once
COUNT_METRICS = ("flows.load_profile_calls", "flows.calls", "model.total_energy_calls",
                 "model.calls", "objectives.calls")


@dataclass
class Span:
    id: int
    parent: int | None
    solve: int
    name: str
    start: float
    end: float
    info: dict

    @property
    def seconds(self) -> float:
        return self.end - self.start


def live_vars(instance, dropped) -> int:
    """Flow variables a relaxation of ``instance`` keeps after ``dropped``."""
    return sum(a.window_end - a.window_start - a.duration + 2
               for a in instance.appliances) - len(dropped)


def _relaxation_info(args, kwargs):
    dropped = args[2] if len(args) > 2 else kwargs.get("dropped", ())
    return {"live_vars": live_vars(args[0], dropped)}


def _polish_info(args, kwargs):
    return {"objective": str(getattr(args[1], "value", args[1])),
            "schedule": [int(s) for s in args[2]]}


def _kernel_info(args, kwargs):
    return {"evals": int(args[1]) - int(args[0])}


_BEFORE = {"relaxation": _relaxation_info, "polish": _polish_info, "kernel": _kernel_info}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        #: span id -> counted calls made while it was the innermost span
        self.charged: Counter = Counter()
        self.absent: list[str] = []
        #: metrics of absent entry points, left out of the result
        self.lost: set[str] = set()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._solve = 0
        self._root: int | None = None

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, fn, args, kwargs, info):
        stack = self._stack()
        # pool threads start with an empty stack: their parent is the root
        parent = stack[-1] if stack else self._root
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(span_id, parent, self._solve, name, start, end, info))
        if name == "ipm":
            info["iterations"] = int(getattr(result, "iterations", 0))
        return result

    def _span_wrapper(self, name, fn):
        before = _BEFORE.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            info = before(args, kwargs) if before else {}
            return self._record(name, fn, args, kwargs, info)

        return wrapper

    def _count_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                self.calls[name] += 1
                # the span this call's wrapper cost lands in, if spans are on
                self.charged[stack[-1] if stack else self._root] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self, am, spans: bool = True, counts: bool = False):
        """Wrap the span points, the counted functions, or both, for the
        duration of the block."""
        originals = []
        try:
            for module_name, attr, name, metrics in SPAN_POINTS if spans else ():
                module = getattr(am, module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(f"{module_name}.{attr}")
                    self.lost.update(metrics)
                    continue
                originals.append((module, attr, fn))
                setattr(module, attr, self._span_wrapper(name, fn))
            for attr, fn in list(vars(am.scr).items()) if counts else ():
                source = getattr(fn, "__module__", "") or ""
                short = source.rpartition(".")[2]
                if (callable(fn) and not isinstance(fn, type)
                        and source.startswith("atomsched.") and short in COUNTED_MODULES):
                    originals.append((am.scr, attr, fn))
                    setattr(am.scr, attr, self._count_wrapper(f"{short}.{attr}", fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def call(self, name: str, info: dict, fn, *args):
        """Time one call as the root span of a new solve."""
        self._solve += 1
        self._root = next(self._ids)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            self.spans.append(Span(self._root, None, self._solve, name, start, end, info))
            self._root = None

    def write_jsonl(self, path, origin: float) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for s in sorted(self.spans, key=lambda s: (s.start, s.id)):
                row = {"id": s.id, "parent": s.parent, "solve": s.solve, "name": s.name,
                       "start": s.start - origin, "end": s.end - origin, **s.info}
                out.write(json.dumps(row) + "\n")


def wrapper_costs(calls: int = 20000, repeats: int = 5) -> tuple[float, float]:
    """Seconds a span wrapper and a count wrapper add to one call: each
    wrapper around a no-op against the bare no-op, the least of ``repeats``
    timings of ``calls`` calls."""
    def noop():
        return None

    def best(fn) -> float:
        least = float("inf")
        for _ in range(repeats):
            started = time.perf_counter()
            for _ in range(calls):
                fn()
            least = min(least, time.perf_counter() - started)
            probe.spans.clear()
        return least / calls

    probe = Tracer()
    bare = best(noop)
    return (max(best(probe._span_wrapper("probe", noop)) - bare, 0.0),
            max(best(probe._count_wrapper("probe", noop)) - bare, 0.0))


def _union(intervals) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[Span]) -> tuple[dict[int, float], dict[int, float]]:
    """Per span: its time minus the part its children cover, and that part."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    own, covered = {}, {}
    for s in spans:
        inside = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
        covered[s.id] = _union([iv for iv in inside if iv[1] > iv[0]])
        own[s.id] = s.seconds - covered[s.id]
    return own, covered


def layer_metrics(tracer: Tracer, counter: Tracer, passes: int, wall: float,
                  workers: int, costs: tuple[float, float]) -> dict:
    """Per-layer values from the spans of ``tracer`` (``passes`` passes over
    the batch, ``wall`` seconds), the roots "scr", "relaxation" and "oracle",
    and the call counts of ``counter`` (one pass). Times and counts are per
    pass. ``costs`` are the wrapper costs from ``wrapper_costs``."""
    spans = tracer.spans
    own, covered = self_times(spans)

    def self_s(name):
        return sum(own[s.id] for s in spans if s.name == name)

    def ratio(a, b):
        return a / b if b else 0.0

    polish = [s for s in spans if s.name == "polish"]
    distinct = {(s.solve, s.info["objective"], tuple(s.info["schedule"])) for s in polish}
    relax = [s for s in spans if s.name == "relaxation"]
    ipm = [s for s in spans if s.name == "ipm"]
    kernels = [s for s in spans if s.name == "kernel"]
    oracle_wall = sum(s.seconds for s in spans if s.name == "oracle")
    busy = sum(s.seconds for s in kernels)
    evals = sum(s.info["evals"] for s in kernels)
    iterations = sum(s.info.get("iterations", 0) for s in ipm)
    ipm_s = self_s("ipm")
    calls = counter.calls
    # kernel spans overlap on pool threads: they count once, as the union
    accounted = sum(own[s.id] for s in spans if s.name != "kernel")
    accounted += sum(covered[s.id] for s in spans if s.name == "oracle")
    # what the wrappers of the timed passes add to each layer's self time: a
    # wrapped call's own cost lands in the span that was open around it
    name_of = {s.id: s.name for s in spans}
    added = Counter()
    for s in spans:
        if s.parent is not None:
            added[name_of[s.parent]] += costs[0]
    for span_id, made in tracer.charged.items():
        if span_id is not None:
            added[name_of[span_id]] += made * costs[1]
    # a layer under 1% of the wall cannot move the breakdown by a visible share
    cost_frac = max((added[name] / self_s(name) for name in added
                     if self_s(name) >= 0.01 * wall), default=0.0)

    totals = {
        "scr.self_s": self_s("scr"),
        "scr.polish_s": self_s("polish"),
        "scr.polish_calls": len(polish),
        "flows.load_profile_calls": calls["flows.load_profile_from_schedule"],
        "flows.calls": sum(v for k, v in calls.items() if k.startswith("flows.")),
        "model.total_energy_calls": calls["model.instance_total_energy"],
        "model.calls": sum(v for k, v in calls.items() if k.startswith("model.")),
        "objectives.calls": sum(v for k, v in calls.items() if k.startswith("objectives.")),
        "relaxation.calls": len(relax),
        "relaxation.self_s": self_s("relaxation"),
        "ipm.s": ipm_s,
        "ipm.iterations": iterations,
        "kernels.busy_s": busy,
        "kernels.calls": len(kernels),
        "kernels.evals": evals,
        "oracle.self_s": self_s("oracle"),
        "trace.wall_s": wall,
    }
    values = {k: v / passes for k, v in totals.items()}
    values.update({k: v for k, v in totals.items() if k in COUNT_METRICS})
    values.update({
        "scr.polish_distinct_frac": ratio(len(distinct), len(polish)),
        "relaxation.live_vars": ratio(sum(s.info["live_vars"] for s in relax), len(relax)),
        "ipm.s_per_iter": ratio(ipm_s, iterations),
        "kernels.evals_per_busy_s": ratio(evals, busy),
        "oracle.parallel_eff": ratio(busy, workers * oracle_wall),
        "trace.coverage": ratio(accounted, wall),
        "trace.cost_frac": cost_frac,
    })
    return {k: v for k, v in values.items() if k not in tracer.lost}
