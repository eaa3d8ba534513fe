"""Span tracing around each layer's public entry points, from outside.

:func:`instrument` patches each layer's entry point (one span name per
entry point, below) for the duration of a ``with`` block.  Each call then
records one span: name, start, end, parent span, request id, and a small
per-call note such as nodes visited or the ladder rung.  No program file
is touched: the patches are undone on exit.  Spans live in per-thread lists in memory and
are written out once, by :meth:`Tracer.dump`, when the run ends.

A span's self time is its duration minus that of its child spans.
Children run nested on the parent's own thread, so their durations never
overlap and the subtraction is exact.  The one cross-thread link, a
service request's ``submit`` on the event loop and its ``handle`` in an
executor thread, is joined by request id instead.
"""

from __future__ import annotations

import contextlib
import json
import threading
import time
from pathlib import Path
from typing import IO, Any, Callable, Iterator, Protocol, Sequence

from gates import KernelProxy
from measure import percentile
from repro.core import ckernel, scheduler
from repro.core.deltascore import JobArrays
from repro.core.objective import DynamicBound
from repro.core.profile import AvailabilityProfile
from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import DiscrepancySearch
from repro.service.executor import DecisionLadder
from repro.service.tenant import TenantEngine
from repro.simulator.engine import Simulation

#: Span names, one per traced entry point (``layer.function``).
KERNEL = "ckernel.run_search"
SEARCH = "search.search"
DECIDE = "scheduler.decide"
ORDER = "branching.order_jobs"
PROFILE = "profile.from_running"
BOUND = "objective.bound_value"
ARRAYS = "deltascore.build"
ENGINE = "engine.consume_batch"
HANDLE = "tenant.handle"
LADDER = "executor.decide"
SUBMIT = "service.submit"

#: Per-layer metrics the traced run reports, with their units.  A layer
#: that does not run on a workload reports 0 for its metrics.
PER_LAYER_UNITS: dict[str, str] = {
    "ckernel.calls": "count",
    "ckernel.busy_s": "s",
    "ckernel.nodes_per_s": "1/s",
    "ckernel.fallback_frac": "fraction",
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.limit_hit_frac": "fraction",
    "search.improved_frac": "fraction",
    "scheduler.calls": "count",
    "scheduler.self_s": "s",
    "scheduler.queue_len.p50": "jobs",
    "scheduler.queue_len.max": "jobs",
    "branching.order_s": "s",
    "profile.build_s": "s",
    "objective.bound_s": "s",
    "deltascore.arrays_s": "s",
    "engine.decisions": "count",
    "engine.self_s": "s",
    "tenant.handle_ms.p50": "ms",
    "tenant.handle_ms.p99": "ms",
    "tenant.self_s": "s",
    "tenant.decisions_per_request": "count",
    "executor.calls": "count",
    "executor.self_s": "s",
    "executor.rung.search": "count",
    "executor.rung.anytime": "count",
    "executor.rung.heuristic": "count",
    "executor.rung.noop": "count",
    "service.requests": "count",
    "service.wait_ms.p50": "ms",
    "service.wait_ms.p99": "ms",
    "trace.overhead_frac": "fraction",
}

# Span record layout (a list, so the end time can be filled in place).
_NAME, _START, _END, _PARENT, _RID, _NOTE = range(6)


class Tracer:
    """In-memory span store; one list and one open-span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.threads: list[list[list[Any]]] = []
        #: ``id(request)`` -> request id, filled in by the service workload.
        self.request_ids: dict[int, int] = {}

    def _state(self) -> "tuple[list[list[Any]], list[int]]":
        local = self._local
        try:
            return local.spans, local.stack
        except AttributeError:
            local.spans, local.stack = [], []
            with self._lock:
                self.threads.append(local.spans)
            return local.spans, local.stack

    def record(self, name: str, start_ns: int, end_ns: int, rid: int) -> None:
        """Add a finished root span measured by the caller (no nesting)."""
        spans, _ = self._state()
        spans.append([name, start_ns, end_ns, -1, rid, None])

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        note: "Callable[[tuple[Any, ...], Any], Any] | None" = None,
        rid_of: "Callable[[tuple[Any, ...]], int | None] | None" = None,
    ) -> Callable[..., Any]:
        """``fn`` recording one span per call, nested under the open span."""
        state = self._state
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            spans, stack = state()
            parent = stack[-1] if stack else -1
            if rid_of is not None:
                rid = rid_of(args)
            else:
                rid = spans[parent][_RID] if parent >= 0 else None
            rec = [name, clock(), 0, parent, rid, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    rec[_NOTE] = note(args, result)
                return result
            finally:
                rec[_END] = clock()
                stack.pop()

        return traced

    def dump(self, out: IO[str], label: str) -> None:
        """Write every span as one JSON array per line.

        Fields: label, thread, name, start_ns, end_ns, parent (index in the
        same thread, -1 for none), request id, note.
        """
        for thread, spans in enumerate(self.threads):
            for rec in spans:
                out.write(json.dumps([label, thread, *rec]) + "\n")


def _search_note(args: "tuple[Any, ...]", result: Any) -> "tuple[int, bool, bool]":
    return (result.nodes_visited, result.limit_hit, result.improved_after_first)


@contextlib.contextmanager
def instrument(tracer: Tracer) -> Iterator[None]:
    """Trace every layer entry point inside the block."""
    wrap = tracer.wrap
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, attr: str, replacement: Any) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_classmethod(owner: type, attr: str, name: str) -> None:
        func = owner.__dict__[attr].__func__
        patch(owner, attr, classmethod(wrap(name, func)))

    if ckernel._impl is not None:
        patch(
            ckernel,
            "_impl",
            KernelProxy(
                ckernel._impl,
                wrap(KERNEL, ckernel._impl.run_search, note=lambda a, r: r[5]),
            ),
        )
    patch(DiscrepancySearch, "search", wrap(SEARCH, DiscrepancySearch.search, _search_note))
    patch(
        SearchSchedulingPolicy,
        "decide",
        wrap(DECIDE, SearchSchedulingPolicy.decide, note=lambda a, r: len(a[2])),
    )
    patch(scheduler, "order_jobs", wrap(ORDER, scheduler.order_jobs))
    patch_classmethod(AvailabilityProfile, "from_running", PROFILE)
    patch(DynamicBound, "value", wrap(BOUND, DynamicBound.value))
    patch_classmethod(JobArrays, "build", ARRAYS)
    patch(Simulation, "consume_batch", wrap(ENGINE, Simulation.consume_batch))
    patch(
        TenantEngine,
        "handle",
        wrap(
            HANDLE,
            TenantEngine.handle,
            note=lambda a, r: len(r),
            rid_of=lambda a: tracer.request_ids.get(id(a[1])),
        ),
    )
    patch(DecisionLadder, "decide", wrap(LADDER, DecisionLadder.decide, note=lambda a, r: r[1]))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, overhead_frac: float) -> "dict[str, float]":
    """Derive every :data:`PER_LAYER_UNITS` metric from the recorded spans."""
    total: dict[str, float] = {}  # name -> summed duration (s)
    self_s: dict[str, float] = {}  # name -> summed self time (s)
    calls: dict[str, int] = {}
    notes: dict[str, list[Any]] = {}
    searches_with_kernel = 0
    handle_ms: dict[int, float] = {}
    submit_ms: dict[int, float] = {}
    for spans in tracer.threads:
        child_ns = [0] * len(spans)
        kernel_child = [False] * len(spans)
        for rec in spans:
            parent = rec[_PARENT]
            if parent >= 0:
                child_ns[parent] += rec[_END] - rec[_START]
                if rec[_NAME] == KERNEL:
                    kernel_child[parent] = True
        for i, rec in enumerate(spans):
            name = rec[_NAME]
            dur = rec[_END] - rec[_START]
            total[name] = total.get(name, 0.0) + dur / 1e9
            self_s[name] = self_s.get(name, 0.0) + (dur - child_ns[i]) / 1e9
            calls[name] = calls.get(name, 0) + 1
            notes.setdefault(name, []).append(rec[_NOTE])
            if name == SEARCH and kernel_child[i]:
                searches_with_kernel += 1
            elif name == HANDLE and rec[_RID] is not None:
                handle_ms[rec[_RID]] = dur / 1e6
            elif name == SUBMIT:
                submit_ms[rec[_RID]] = dur / 1e6

    def frac(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    kernel_busy = total.get(KERNEL, 0.0)
    search_notes = notes.get(SEARCH, [])
    n_search = len(search_notes)
    queue = [float(n) for n in notes.get(DECIDE, [])]
    rungs = notes.get(LADDER, [])
    n_handle = calls.get(HANDLE, 0)
    waits = [submit_ms[rid] - handle_ms[rid] for rid in submit_ms if rid in handle_ms]
    return {
        "ckernel.calls": calls.get(KERNEL, 0),
        "ckernel.busy_s": kernel_busy,
        "ckernel.nodes_per_s": frac(sum(notes.get(KERNEL, [])), kernel_busy),
        "ckernel.fallback_frac": frac(n_search - searches_with_kernel, n_search),
        "search.calls": n_search,
        "search.self_s": self_s.get(SEARCH, 0.0),
        "search.nodes": sum(n[0] for n in search_notes),
        "search.limit_hit_frac": frac(sum(n[1] for n in search_notes), n_search),
        "search.improved_frac": frac(sum(n[2] for n in search_notes), n_search),
        "scheduler.calls": calls.get(DECIDE, 0),
        "scheduler.self_s": self_s.get(DECIDE, 0.0),
        "scheduler.queue_len.p50": percentile(queue, 0.50),
        "scheduler.queue_len.max": max(queue, default=0.0),
        "branching.order_s": total.get(ORDER, 0.0),
        "profile.build_s": total.get(PROFILE, 0.0),
        "objective.bound_s": total.get(BOUND, 0.0),
        "deltascore.arrays_s": total.get(ARRAYS, 0.0),
        "engine.decisions": calls.get(ENGINE, 0),
        "engine.self_s": self_s.get(ENGINE, 0.0),
        "tenant.handle_ms.p50": percentile(list(handle_ms.values()), 0.50),
        "tenant.handle_ms.p99": percentile(list(handle_ms.values()), 0.99),
        "tenant.self_s": self_s.get(HANDLE, 0.0),
        "tenant.decisions_per_request": frac(sum(notes.get(HANDLE, [])), n_handle),
        "executor.calls": len(rungs),
        "executor.self_s": self_s.get(LADDER, 0.0),
        "executor.rung.search": sum(1 for r in rungs if r in ("search", "search:pool")),
        "executor.rung.anytime": rungs.count("anytime"),
        "executor.rung.heuristic": rungs.count("heuristic"),
        "executor.rung.noop": rungs.count("noop"),
        "service.requests": calls.get(SUBMIT, 0),
        "service.wait_ms.p50": percentile(waits, 0.50),
        "service.wait_ms.p99": percentile(waits, 0.99),
        "trace.overhead_frac": overhead_frac,
    }


class Pass(Protocol):
    """What :func:`run_passes` needs from one pass of a workload."""

    #: Which jittered copy of the inputs the pass replayed.
    variant: int
    #: Wall time of the pass.
    wall_s: float
    #: Process CPU time the pass used (all threads).
    cpu_s: float
    #: The tracer that recorded the pass, ``None`` when untraced.
    tracer: "Tracer | None"


#: Trace-mode pass order: untraced, traced, traced, untraced, so that a
#: steady drift in machine speed cancels out of ``trace.overhead_frac``.
TRACE_ORDER = (False, True, True, False)


def run_passes(
    one_pass: "Callable[[Tracer | None, int], Pass]",
    seconds: float,
    trace: bool,
    variants: int,
) -> "list[Pass]":
    """Run the passes of one workload run.

    Untraced, passes cycle through the input variants until every variant
    has run and the passes' wall time adds up to ``seconds`` (gate work
    between passes does not count).  Traced, the passes follow
    :data:`TRACE_ORDER` on variant 0, so each does the same work.
    """
    if trace:
        return [one_pass(Tracer() if traced else None, 0) for traced in TRACE_ORDER]
    passes: list[Pass] = []
    while len(passes) < variants or sum(p.wall_s for p in passes) < seconds:
        passes.append(one_pass(None, len(passes) % variants))
    return passes


def per_variant_rate(passes: "Sequence[Pass]", count: "Callable[[Any], float]") -> float:
    """Mean over variants of ``count`` per second of wall time.

    Pooling within a variant and then averaging keeps the mix of inputs
    fixed however many passes fit in the run.
    """
    rates = []
    for variant in sorted({p.variant for p in passes}):
        same = [p for p in passes if p.variant == variant]
        rates.append(sum(count(p) for p in same) / sum(p.wall_s for p in same))
    return sum(rates) / len(rates)


def traced_metrics(passes: "Sequence[Pass]", spans_path: Path) -> "dict[str, float]":
    """Per-layer metrics averaged over the traced passes; spans written out.

    ``trace.overhead_frac`` is the traced passes' CPU time over the
    untraced passes' CPU time, minus one (each pass does the same work).
    """
    tracers = [p.tracer for p in passes if p.tracer is not None]
    traced_cpu = sum(p.cpu_s for p in passes if p.tracer is not None)
    overhead = traced_cpu / sum(p.cpu_s for p in passes if p.tracer is None) - 1.0
    per_pass = [layer_metrics(tracer, overhead) for tracer in tracers]
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    with spans_path.open("w") as out:
        for i, tracer in enumerate(tracers):
            tracer.dump(out, f"traced-pass-{i}")
    return {name: sum(m[name] for m in per_pass) / len(per_pass) for name in PER_LAYER_UNITS}
