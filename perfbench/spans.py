"""In-memory spans around the program's public functions, and the per-layer
sums the benchmark reports from them.

A span records its name, the span that caused it, its thread, and its start
and end on the monotonic clock. Spans opened by a job that `pmap` runs on a
worker thread take the `pmap` span as their parent, so a layer's self time
(its span minus the union of its children's intervals) stays correct when
children overlap on several threads.
"""

from __future__ import annotations

import functools
import resource
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any thread; parents follow a per-thread stack."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs):
        stack = self._stack()
        with self._lock:
            s = Span(len(self.spans), name, stack[-1] if stack else None, threading.get_ident(), 0.0, attrs=attrs)
            self.spans.append(s)
        stack.append(s.sid)
        s.start = self._clock()
        try:
            yield s
        finally:
            s.end = self._clock()
            stack.pop()

    def under(self, parent_sid: int, fn):
        """fn, made to open its spans as children of parent_sid on any thread."""

        def job(*args, **kwargs):
            stack = self._stack()
            saved = stack[:]
            stack[:] = [parent_sid]
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return job


def _union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """sid -> span duration minus the part of its interval its children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    return {
        s.sid: s.duration - _union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children.get(s.sid, ())
        )
        for s in spans
    }


# --- instrumentation --------------------------------------------------------
# Nominal real flop counts (a complex flop counts as 4 real ones):
# eigenvalues only 4/3 n^3, with vectors 9 n^3 (Golub & Van Loan, symmetric
# QR); resolvent = complex LU (2/3 m^3) plus two triangular solves with m
# right-hand sides (2 m^3).


def _entries(h):
    return getattr(h, "entries", h)


def _eigh_attrs(args, kwargs):
    a = _entries(args[0])
    n = a.shape[0]
    vectors = kwargs.get("compute_vectors", args[1] if len(args) > 1 else True)
    flops = (9.0 if vectors else 4.0 / 3.0) * n**3 * (4 if a.dtype.kind == "c" else 1)
    return {"gflop": flops / 1e9}


def _resolvent_attrs(args, kwargs):
    n = _entries(args[0]).shape[0]
    removed = kwargs.get("t", args[2] if len(args) > 2 else ())
    m = n - len(set(removed))
    return {"gflop": 4 * (2.0 / 3.0 + 2.0) * m**3 / 1e9}


def _draw_attrs(args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    count = 1
    for k in size if isinstance(size, tuple) else (size,):
        count *= int(k)
    return {"entries": count}


# (module, attribute, span name, attrs from the call's arguments): the
# functions the three workloads call, at the attribute their caller looks up.
TARGETS = [
    ("runner", "wigner_profile", "ensembles.profile", None),
    ("runner", "sample_matrix", "ensembles.sample", None),
    ("locallaw", "sample_matrix", "ensembles.sample", None),
    ("ensembles", "EntryDistribution.sample", "ensembles.draw", _draw_attrs),
    ("runner", "eigh", "linalg.eigh", _eigh_attrs),
    ("locallaw", "resolvent", "linalg.resolvent", _resolvent_attrs),
    ("locallaw", "diagnostics", "locallaw.diagnostics", None),
    ("dbm", "flow_interpolate", "dbm.flow", None),
    ("stats", "unfold", "stats.unfold", None),
    ("stats", "ks_distance", "stats.ks", None),
    ("moments", "match_four_moments", "moments.match", None),
]


def cpu_s() -> float:
    """User + system CPU seconds of this process, all threads."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _wrap(tracer: Tracer, fn, name: str, attrs_fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        attrs = attrs_fn(args, kwargs) if attrs_fn else {}
        with tracer.span(name, **attrs):
            return fn(*args, **kwargs)

    return traced


def _wrap_pmap(tracer: Tracer, fn, default_workers):
    @functools.wraps(fn)
    def traced(job_fn, jobs, workers=None):
        jobs = list(jobs)
        w = workers if workers is not None else default_workers()
        used = 1 if w <= 1 or len(jobs) <= 1 else min(w, len(jobs))
        with tracer.span("parallel.pmap", jobs=len(jobs), workers=used) as s:
            cpu0 = cpu_s()
            try:
                return fn(tracer.under(s.sid, job_fn), jobs, workers)
            finally:
                s.attrs["cpu_s"] = cpu_s() - cpu0

    return traced


def instrument(tracer: Tracer, modules: dict) -> list:
    """Replace each TARGETS attribute (and every module's `pmap`) by a traced
    wrapper. modules maps a short name to the imported module. Returns the
    (owner, attribute, original) triples that undo it."""
    undo = []
    for mod, attr, name, attrs_fn in TARGETS:
        owner = modules[mod]
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        undo.append((owner, leaf, original))
        setattr(owner, leaf, _wrap(tracer, original, name, attrs_fn))
    parallel = modules["parallel"]
    for mod in ("runner", "locallaw"):
        owner = modules[mod]
        undo.append((owner, "pmap", owner.pmap))
        owner.pmap = _wrap_pmap(tracer, owner.pmap, parallel.default_workers)
    return undo


def restore(undo) -> None:
    for owner, leaf, original in reversed(undo):
        setattr(owner, leaf, original)


# --- per-layer sums ---------------------------------------------------------

_DURATION_SUMS = {
    "ensembles.profile_s": "ensembles.profile",
    "ensembles.draw_s": "ensembles.draw",
    "linalg.eigh_s": "linalg.eigh",
    "linalg.resolvent_s": "linalg.resolvent",
    "dbm.flow_s": "dbm.flow",
    "stats.unfold_s": "stats.unfold",
    "stats.ks_s": "stats.ks",
    "moments.match_s": "moments.match",
    "parallel.pmap_wall_s": "parallel.pmap",
}
_SELF_SUMS = {
    "ensembles.sample_self_s": "ensembles.sample",
    "locallaw.diagnostics_self_s": "locallaw.diagnostics",
    "runner.self_s": "runner.run",
}
_CALL_COUNTS = {
    "ensembles.profile_calls": "ensembles.profile",
    "ensembles.matrices_sampled": "ensembles.sample",
    "linalg.eigh_calls": "linalg.eigh",
    "linalg.resolvent_calls": "linalg.resolvent",
    "locallaw.diagnostics_calls": "locallaw.diagnostics",
    "moments.match_calls": "moments.match",
}
_ATTR_SUMS = {
    "ensembles.entries_drawn": ("ensembles.draw", "entries"),
    "linalg.eigh_gflop": ("linalg.eigh", "gflop"),
    "linalg.resolvent_gflop": ("linalg.resolvent", "gflop"),
    "parallel.pmap_cpu_s": ("parallel.pmap", "cpu_s"),
    "parallel.jobs": ("parallel.pmap", "jobs"),
}


def layer_metrics(spans) -> dict:
    """Per-layer sums over one traced round. parallel.workers is the largest
    worker count of any pmap call, not a sum."""
    selfs = self_times(spans)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    out = {}
    for metric, name in _DURATION_SUMS.items():
        out[metric] = sum(s.duration for s in by_name.get(name, ()))
    for metric, name in _SELF_SUMS.items():
        out[metric] = sum(selfs[s.sid] for s in by_name.get(name, ()))
    for metric, name in _CALL_COUNTS.items():
        out[metric] = len(by_name.get(name, ()))
    for metric, (name, key) in _ATTR_SUMS.items():
        out[metric] = sum(s.attrs[key] for s in by_name.get(name, ()))
    out["parallel.workers"] = max((s.attrs["workers"] for s in by_name.get("parallel.pmap", ())), default=0)
    return out
