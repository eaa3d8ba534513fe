"""``batch-deep``: one calibrated month through the batch simulator.

Month 2004-03 at ρ = 0.9, scheduled by DDS/lxf/dynB at L = 10K through
``Simulation.run``: about 10.2K decisions with queues up to about 100
jobs.  This workload is where the compiled search kernel dominates; no
service layer runs.

A run is: set-up, timed for ``setup_s``; one gate pass over input
variant 0 that re-solves a seeded sample of searches with the reference
engine, then timed passes of the whole month, cycling through the input
variants, until every variant has run and ``--seconds`` have elapsed.
Each pass must reproduce the first run of its variant exactly.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import mean
from typing import Any

from gates import ResolveGate, schedule_diff, starts_of
from inputs import month_trace
from measure import RunResult, setup_seconds, windowed_percentile, windows
from repro.core.scheduler import make_policy
from repro.metrics.measures import compute_metrics
from repro.simulator.engine import Simulation, SimulationResult
from spans import Tracer, instrument, per_variant_rate, run_passes, traced_metrics

MONTH = "2004-03"
NODE_LIMIT = 10_000
#: Each search is re-solved with this probability: about 12 of a month's.
RESOLVE_PROBABILITY = 0.0015
#: Jittered copies of the month per run (at least one pass each).
VARIANTS = 5


@dataclass
class _Pass:
    variant: int
    wall_s: float
    cpu_s: float
    decision_ms: "list[float]"
    result: SimulationResult
    jobs: int
    tracer: "Tracer | None"


def _setup(seed: int, variant: int) -> Simulation:
    workload = month_trace(MONTH, seed, variant)
    policy = make_policy("dds", "lxf", node_limit=NODE_LIMIT)
    if policy.searcher.engine != "compiled":
        raise RuntimeError(f"policy runs engine {policy.searcher.engine!r}, not the kernel")
    return Simulation(
        jobs=workload.jobs,
        policy=policy,
        cluster_config=workload.cluster,
        window=workload.window,
    )


def _timed_pass(sim: Simulation, variant: int, tracer: "Tracer | None") -> _Pass:
    """``sim.run()``, timing the whole run and each decision."""
    decision_ms: list[float] = []
    clock = time.perf_counter
    with instrument(tracer) if tracer is not None else contextlib.nullcontext():
        consume = sim.consume_batch  # bound inside, so a traced pass sees the span

        def timed_consume(*args: Any) -> Any:
            t0 = clock()
            started = consume(*args)
            decision_ms.append((clock() - t0) * 1e3)
            return started

        sim.consume_batch = timed_consume  # type: ignore[method-assign]
        cpu0, t0 = time.process_time(), clock()
        result = sim.run()
        wall, cpu = clock() - t0, time.process_time() - cpu0
    return _Pass(variant, wall, cpu, decision_ms, result, len(sim.jobs), tracer)


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> RunResult:
    setup_s = setup_seconds(lambda: _setup(seed, 0))
    failures: list[str] = []

    gate = ResolveGate(seed, RESOLVE_PROBABILITY)
    sim = _setup(seed, 0)
    with gate.installed():
        gated = sim.run()
    failures += gate.mismatches
    if gate.checked == 0:
        failures.append("the re-solve gate sampled no search")

    passes = run_passes(
        lambda tracer, v: _timed_pass(_setup(seed, v), v, tracer),
        seconds,
        trace,
        VARIANTS,
    )
    # The first run of each variant is its reference; variant 0's is the
    # gate pass.  Every later pass must reproduce it exactly.
    first: dict[int, SimulationResult] = {0: gated}
    for i, p in enumerate(passes):
        want = first.setdefault(p.variant, p.result)
        if want is not p.result and schedule_diff(starts_of(p.result.jobs), starts_of(want.jobs)):
            kind = "traced" if p.tracer is not None else "untraced"
            failures.append(
                f"{kind} pass {i} (variant {p.variant}) schedule differs from its first run"
            )

    latencies = [p.decision_ms for p in passes]
    quality = [compute_metrics(r.jobs_in_window()) for r in first.values()]
    metrics = {
        "setup_s": setup_s,
        "decisions_per_s": per_variant_rate(passes, lambda p: p.result.decision_count),
        "avg_bsld": mean(q.avg_bounded_slowdown for q in quality),
        "avg_wait_h": mean(q.avg_wait_hours for q in quality),
        "max_wait_h": mean(q.max_wait_hours for q in quality),
        "throughput_rps": per_variant_rate(passes, lambda p: p.jobs),
        "latency_p50_ms": windowed_percentile(latencies, 0.50),
        "latency_p99_ms": windowed_percentile(latencies, 0.99),
        # Every decision is answered, by the full policy.
        "ok_frac": 1.0,
        "undegraded_frac": 1.0,
    }
    report: dict[str, Any] = {
        "policy": f"DDS/lxf/dynB@L={NODE_LIMIT}",
        "month": MONTH,
        "passes": len(passes),
        "variants": sorted(first),
        "pass_variants": [p.variant for p in passes],
        "pass_decisions_per_s": [p.result.decision_count / p.wall_s for p in passes],
        "latency_samples": sum(len(s) for s in latencies),
        "latency_windows": windows(latencies),
        "gate_searches": gate.searches,
        "gate_resolved": gate.checked,
        "ckernel.fallback_frac": gate.fallback_frac,
        "max_queue_length": max(r.extra.get("max_queue_length", 0) for r in first.values()),
    }
    if trace:
        metrics = traced_metrics(passes, out_dir / "spans-batch-deep.jsonl")
    return RunResult(
        attempted=sum(p.result.decision_count for p in passes),
        failed=0,
        metrics=metrics,
        gate_failures=failures,
        report=report,
    )
