"""``service-closed``: an in-process ``DecisionService`` under closed-loop load.

Two tenants, matching the two cores the benchmark was sized on, each with
its own cluster, window and calibrated month at ρ = 0.9:

==========  =========  ===============  =====
tenant      month      policy           L
==========  =========  ===============  =====
dds-lxf     2004-01    DDS/lxf/dynB     1K
lds-fcfs    2004-02    LDS/fcfs/dynB    1K
==========  =========  ===============  =====

Each tenant sends one ``submit`` per distinct submit instant of its month,
with default ``ServiceConfig`` and ``TenantSLO`` (queue limit 64), and
awaits the reply before sending the next (two concurrent clients).  A
pass is both whole months of one input variant; passes cycle through the
variants until each has run and ``--seconds`` have elapsed.  Latency is
the ``submit`` call.

Every attempted request counts: shed, rejected and errored ones count as
failed.  Gate: a tenant whose requests were all ``ok`` and none degraded
must have started every job exactly when a batch ``Simulation.run`` of
the same trace and policy did, up to its last request's instant.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean
from typing import Any

from gates import ResolveGate, schedule_diff, starts_of
from inputs import month_trace, tenant_requests
from measure import RunResult, setup_seconds, windowed_percentile, windows
from repro.core.scheduler import SearchSchedulingPolicy, make_policy
from repro.metrics.measures import compute_metrics
from repro.service.api import DecisionRequest
from repro.service.service import DecisionService, ServiceConfig
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.workloads.trace import Workload
from spans import SUBMIT, Tracer, instrument, per_variant_rate, run_passes, traced_metrics

#: tenant id -> (month, algorithm, heuristic)
TENANTS: dict[str, tuple[str, str, str]] = {
    "dds-lxf": ("2004-01", "dds", "lxf"),
    "lds-fcfs": ("2004-02", "lds", "fcfs"),
}
NODE_LIMIT = 1_000
#: Re-solve probability of the batch reference runs: a few per tenant and variant.
RESOLVE_PROBABILITY = 0.0005
#: Jittered copies of the months per run (at least one pass each).  Two,
#: not three: each variant also costs a batch reference run per tenant.
VARIANTS = 2


def _policy(tenant: str) -> SearchSchedulingPolicy:
    _, algorithm, heuristic = TENANTS[tenant]
    policy = make_policy(algorithm, heuristic, node_limit=NODE_LIMIT)
    if policy.searcher.engine != "compiled":
        raise RuntimeError(f"policy runs engine {policy.searcher.engine!r}, not the kernel")
    return policy


@dataclass
class _Setup:
    service: DecisionService
    workloads: dict[str, Workload]
    requests: dict[str, list[DecisionRequest]]


def _setup(seed: int, variant: int) -> _Setup:
    workloads = {
        tenant: month_trace(month, seed, variant) for tenant, (month, _, _) in TENANTS.items()
    }
    requests = {tenant: tenant_requests(tenant, w) for tenant, w in workloads.items()}
    service = DecisionService(_policy, ServiceConfig())
    for tenant, workload in workloads.items():
        service.register_tenant(tenant, cluster_config=workload.cluster, window=workload.window)
    return _Setup(service, workloads, requests)


@dataclass
class _Pass:
    wall_s: float = 0.0
    latency_ms: list[float] = field(default_factory=list)
    statuses: Counter[str] = field(default_factory=Counter)
    degraded: int = 0
    decisions: int = 0
    #: tenant -> every response ok and none degraded
    clean: dict[str, bool] = field(default_factory=dict)
    #: Every job the tenants started, for the schedule-quality metrics.
    started: list[Job] = field(default_factory=list)
    cpu_s: float = 0.0
    tracer: "Tracer | None" = None
    variant: int = 0

    @property
    def attempted(self) -> int:
        return sum(self.statuses.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.statuses["ok"]

    def answer(self, tenant: str, response: Any, latency_ms: float) -> None:
        if response.status != "ok":
            # A failed request misses every latency limit, the deadline too.
            latency_ms = max(latency_ms, response.deadline_seconds * 1e3)
        self.latency_ms.append(latency_ms)
        self.statuses[response.status] += 1
        ok = response.status == "ok" and not response.degraded
        self.clean[tenant] = self.clean.get(tenant, True) and ok
        self.degraded += response.degraded
        if response.status == "ok":
            self.decisions += len(response.decisions)


async def _closed_pass(setup: _Setup, tracer: Tracer | None) -> _Pass:
    service, out = setup.service, _Pass()
    clock = time.perf_counter_ns

    async def client(tenant: str, requests: list[DecisionRequest]) -> None:
        for request in requests:
            t0 = clock()
            response = await service.submit(request)
            t1 = clock()
            out.answer(tenant, response, (t1 - t0) / 1e6)
            if tracer is not None:
                tracer.record(SUBMIT, t0, t1, tracer.request_ids[id(request)])

    start = time.perf_counter()
    await asyncio.gather(*(client(t, reqs) for t, reqs in setup.requests.items()))
    out.wall_s = time.perf_counter() - start
    await service.close()
    return out


def run(seed: int, seconds: float, trace: bool, out_dir: Path) -> RunResult:
    setup_s = setup_seconds(lambda: _setup(seed, 0))
    failures: list[str] = []

    # Batch references for the gate, outside set-up and the timed window.
    gate = ResolveGate(seed, RESOLVE_PROBABILITY)
    references: dict[tuple[str, int], dict[int, float]] = {}

    def reference(tenant: str, variant: int) -> dict[int, float]:
        if (tenant, variant) not in references:
            trace_ = month_trace(TENANTS[tenant][0], seed, variant)
            sim = Simulation(
                jobs=trace_.jobs,
                policy=_policy(tenant),
                cluster_config=trace_.cluster,
                window=trace_.window,
            )
            with gate.installed():
                references[tenant, variant] = starts_of(sim.run().jobs)
        return references[tenant, variant]

    checked = skipped = 0

    def one_pass(tracer: "Tracer | None", variant: int) -> _Pass:
        nonlocal checked, skipped
        setup = _setup(seed, variant)
        if tracer is not None:
            for requests in setup.requests.values():
                tracer.request_ids.update((id(r), len(tracer.request_ids)) for r in requests)
        cpu0 = time.process_time()
        with instrument(tracer) if tracer is not None else contextlib.nullcontext():
            p = asyncio.run(_closed_pass(setup, tracer))
        p.cpu_s = time.process_time() - cpu0
        p.tracer, p.variant = tracer, variant
        for tenant in TENANTS:
            engine = setup.service.tenant(tenant)
            started = [j for j in engine.jobs.values() if j.start_time is not None]
            p.started += started
            if not p.clean.get(tenant, False):
                skipped += 1
                continue
            checked += 1
            want = {
                j: s for j, s in reference(tenant, variant).items() if s <= engine.decided_through
            }
            mismatched = schedule_diff(starts_of(started), want)
            if mismatched:
                failures.append(f"tenant {tenant}: {mismatched} job starts differ from batch")
        return p

    passes = run_passes(one_pass, seconds, trace, VARIANTS)
    failures += gate.mismatches

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    degraded = sum(p.degraded for p in passes)
    latencies = [p.latency_ms for p in passes]
    first = {p.variant: p for p in reversed(passes)}
    quality = [compute_metrics(p.started) for p in first.values()]
    metrics = {
        "setup_s": setup_s,
        "decisions_per_s": per_variant_rate(passes, lambda p: p.decisions),
        "avg_bsld": mean(q.avg_bounded_slowdown for q in quality),
        "avg_wait_h": mean(q.avg_wait_hours for q in quality),
        "max_wait_h": mean(q.max_wait_hours for q in quality),
        "throughput_rps": per_variant_rate(passes, lambda p: p.attempted),
        "latency_p50_ms": windowed_percentile(latencies, 0.50),
        "latency_p99_ms": windowed_percentile(latencies, 0.99),
        "ok_frac": (attempted - failed) / attempted,
        "undegraded_frac": 1.0 - degraded / attempted,
    }
    report: dict[str, Any] = {
        "loop": "closed, 2 clients",
        "tenants": {
            t: f"{m} {a.upper()}/{h}/dynB@L={NODE_LIMIT}" for t, (m, a, h) in TENANTS.items()
        },
        "passes": len(passes),
        "variants": sorted(first),
        "pass_variants": [p.variant for p in passes],
        "pass_throughput_rps": [p.attempted / p.wall_s for p in passes],
        "latency_samples": sum(len(s) for s in latencies),
        "latency_windows": windows(latencies),
        "statuses": dict(sum((p.statuses for p in passes), Counter())),
        "failed_frac": failed / attempted,
        "degraded_frac": degraded / attempted,
        "gate_tenant_passes_checked": checked,
        "gate_tenant_passes_skipped": skipped,
        "gate_reference_resolved": gate.checked,
        "ckernel.fallback_frac": gate.fallback_frac,
        "quality_jobs": sum(len(p.started) for p in first.values()),
    }
    if trace:
        metrics = traced_metrics(passes, out_dir / "spans-service-closed.jsonl")
    return RunResult(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        gate_failures=failures,
        report=report,
    )
