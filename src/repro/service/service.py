"""The asyncio decision service: many tenants, one promise each.

:class:`DecisionService` multiplexes independent :class:`~repro.service
.tenant.TenantEngine` instances behind an async API.  Each tenant gets a
bounded request queue drained by one consumer task — per-tenant requests
are strictly serialized (which keeps the decision sequence deterministic)
while tenants proceed independently.  The robustness machinery, outermost
to innermost:

- **Admission control**: tenants are registered explicitly (bounded by
  ``max_tenants``, filesystem-safe ids); :meth:`DecisionService.submit`
  applies *backpressure* (awaits queue space — an accepted request is
  always answered), while :meth:`try_submit` *sheds* instead: a full
  queue returns an immediate ``status="shed"`` response and touches no
  tenant state.
- **Intake retry**: the ``service.request`` fault site models transient
  intake failures; they are retried up to the SLO's ``max_retries`` with
  the worker pool's deterministic :func:`~repro.util.workerpool
  .retry_backoff` pacing, then surface as ``status="error"`` — never a
  hang, never a lost request.
- **Deadline pressure**: a request's budget starts when it is *enqueued*,
  so a backlog eats into the budget and pushes the degradation ladder
  (:mod:`repro.service.executor`) down to cheaper rungs until the queue
  drains — the service trades decision quality, never availability.
- **Recovery**: when a snapshot root is configured, tenant state is
  persisted every ``snapshot_every_decisions`` decisions and re-admitted
  tenants resume from the newest loadable snapshot (see
  :mod:`repro.service.recovery`).

The engine work itself runs on the event loop's default thread-pool
executor so intake stays responsive while a decision computes.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.service.api import (
    Decision,
    DecisionRequest,
    DecisionResponse,
    TenantSLO,
)
from repro.service.executor import CircuitBreaker, DecisionLadder, LadderConfig
from repro.service.recovery import (
    latest_tenant_snapshot,
    snapshot_tenant,
    valid_tenant_id,
)
from repro.service.tenant import TenantEngine, TenantError
from repro.simulator.cluster import ClusterConfig
from repro.simulator.policy import SchedulingPolicy
from repro.util import faults
from repro.util.workerpool import retry_backoff

#: Builds a fresh primary policy for a newly registered tenant.
PolicyFactory = Callable[[str], SchedulingPolicy]


class AdmissionError(ValueError):
    """The service refused to admit a tenant or accept a request."""


@dataclass
class ServiceConfig:
    """Service-wide knobs (per-tenant knobs live in :class:`TenantSLO`)."""

    max_tenants: int = 64
    default_slo: TenantSLO = field(default_factory=TenantSLO)
    ladder: LadderConfig = field(default_factory=LadderConfig)
    #: Directory for tenant snapshots; ``None`` disables persistence.
    snapshot_root: str | Path | None = None
    snapshot_every_decisions: int = 64
    snapshot_keep: int = 2

    def __post_init__(self) -> None:
        if self.max_tenants < 1:
            raise ValueError(f"max_tenants must be >= 1, got {self.max_tenants}")
        if self.snapshot_every_decisions < 1:
            raise ValueError(
                "snapshot_every_decisions must be >= 1, "
                f"got {self.snapshot_every_decisions}"
            )


@dataclass
class _Tenant:
    """Book-keeping for one registered tenant."""

    engine: TenantEngine
    slo: TenantSLO
    ladder: DecisionLadder
    queue: "asyncio.Queue[_Pending | None]"
    consumer: "asyncio.Task[None] | None" = None
    snapshotted_at: int = 0


@dataclass
class _Pending:
    """One enqueued request plus its response future and budget clock."""

    request: DecisionRequest
    future: "asyncio.Future[DecisionResponse]"
    enqueued_at: float  # perf_counter timestamp; the budget starts here


class DecisionService:
    """The scheduler-as-a-service front end.  One instance per event loop."""

    def __init__(
        self,
        policy_factory: PolicyFactory,
        config: ServiceConfig | None = None,
        cluster_config: ClusterConfig | None = None,
    ) -> None:
        self.policy_factory = policy_factory
        self.config = config or ServiceConfig()
        self.cluster_config = cluster_config
        self._tenants: dict[str, _Tenant] = {}
        #: Pool health is a process-wide property, so one breaker guards
        #: the pool rung across every tenant's ladder.
        self.breaker = CircuitBreaker(
            threshold=self.config.ladder.breaker_threshold,
            probe_after=self.config.ladder.breaker_probe_after,
        )
        self._closed = False
        self.stats: dict[str, int] = {
            "requests": 0,
            "ok": 0,
            "shed": 0,
            "rejected": 0,
            "errors": 0,
            "degraded": 0,
            "recovered_tenants": 0,
            "snapshots": 0,
        }

    # ------------------------------------------------------------------
    # Tenant lifecycle
    # ------------------------------------------------------------------
    def register_tenant(
        self,
        tenant_id: str,
        slo: TenantSLO | None = None,
        cluster_config: ClusterConfig | None = None,
        window: "tuple[float, float] | None" = None,
        resume: bool = True,
    ) -> TenantEngine:
        """Admit a tenant; resumes from its newest snapshot when present.

        Raises :class:`AdmissionError` on an invalid id, a duplicate
        registration, or a full service.
        """
        if self._closed:
            raise AdmissionError("service is closed")
        if not valid_tenant_id(tenant_id):
            raise AdmissionError(f"invalid tenant id {tenant_id!r}")
        if tenant_id in self._tenants:
            raise AdmissionError(f"tenant {tenant_id!r} already registered")
        if len(self._tenants) >= self.config.max_tenants:
            raise AdmissionError(
                f"service is full ({self.config.max_tenants} tenants)"
            )
        engine: TenantEngine | None = None
        if resume and self.config.snapshot_root is not None:
            engine = latest_tenant_snapshot(self.config.snapshot_root, tenant_id)
            if engine is not None:
                self.stats["recovered_tenants"] += 1
        if engine is None:
            engine = TenantEngine(
                tenant_id,
                self.policy_factory(tenant_id),
                cluster_config=(
                    cluster_config
                    if cluster_config is not None
                    else self.cluster_config
                ),
                window=window,
            )
        slo = slo or self.config.default_slo
        self._tenants[tenant_id] = _Tenant(
            engine=engine,
            slo=slo,
            ladder=DecisionLadder(
                engine.sim.policy, self.config.ladder, breaker=self.breaker
            ),
            queue=asyncio.Queue(maxsize=slo.queue_limit),
            snapshotted_at=engine.decision_count,
        )
        return engine

    def tenant(self, tenant_id: str) -> TenantEngine:
        return self._require(tenant_id).engine

    def _require(self, tenant_id: str) -> _Tenant:
        tenant = self._tenants.get(tenant_id)
        if tenant is None:
            raise AdmissionError(f"unknown tenant {tenant_id!r}")
        return tenant

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    async def submit(self, request: DecisionRequest) -> DecisionResponse:
        """Enqueue with backpressure: waits for queue space, then for the
        response.  An awaited submission is always answered."""
        tenant = self._require(request.tenant)
        pending = self._pending(request)
        await tenant.queue.put(pending)
        self._ensure_consumer(tenant)
        return await pending.future

    async def try_submit(self, request: DecisionRequest) -> DecisionResponse:
        """Enqueue without waiting: a full queue sheds the request.

        Shedding is admission control doing its job under overload — the
        response says so (``status="shed"``) and tenant state is
        untouched; the client retries when the backlog clears.
        """
        tenant = self._require(request.tenant)
        pending = self._pending(request)
        try:
            tenant.queue.put_nowait(pending)
        except asyncio.QueueFull:
            self.stats["requests"] += 1
            self.stats["shed"] += 1
            return DecisionResponse(
                tenant=request.tenant,
                status="shed",
                deadline_seconds=tenant.slo.deadline_seconds,
                error="tenant queue full",
            )
        self._ensure_consumer(tenant)
        return await pending.future

    def _pending(self, request: DecisionRequest) -> _Pending:
        loop = asyncio.get_running_loop()
        return _Pending(
            request=request,
            future=loop.create_future(),
            enqueued_at=time.perf_counter(),
        )

    def _ensure_consumer(self, tenant: _Tenant) -> None:
        if tenant.consumer is None or tenant.consumer.done():
            tenant.consumer = asyncio.get_running_loop().create_task(
                self._consume(tenant)
            )

    async def _consume(self, tenant: _Tenant) -> None:
        """Drain one tenant's queue; one request at a time, in order."""
        while True:
            pending = await tenant.queue.get()
            if pending is None:
                return
            try:
                response = await self._process(tenant, pending)
            except Exception as exc:  # the consumer must never die
                response = self._finish(
                    tenant, pending, status="error", error=str(exc)
                )
            self.stats["requests"] += 1
            self.stats[
                {"ok": "ok", "shed": "shed", "rejected": "rejected"}.get(
                    response.status, "errors"
                )
            ] += 1
            if response.degraded:
                self.stats["degraded"] += 1
            if not pending.future.done():
                pending.future.set_result(response)

    async def _process(
        self, tenant: _Tenant, pending: _Pending
    ) -> DecisionResponse:
        request = pending.request
        slo = tenant.slo
        deadline_at = pending.enqueued_at + slo.deadline_seconds

        # Intake: transient failures (the service.request site) are
        # retried with deterministic backoff, then reported — the one
        # response per request is delivered no matter what.
        intake_error: str | None = None
        for attempt in range(slo.max_retries + 1):
            try:
                faults.fire("service.request")
                intake_error = None
                break
            except faults.InjectedFault as exc:
                intake_error = str(exc)
                if attempt < slo.max_retries:
                    await asyncio.sleep(retry_backoff(attempt))
        if intake_error is not None:
            return self._finish(
                tenant, pending, status="error",
                error=f"intake failed after {slo.max_retries} retries: "
                f"{intake_error}",
            )

        ladder = tenant.ladder

        def handle() -> "list[Decision]":
            return tenant.engine.handle(
                request,
                decide=lambda now, waiting, running, cluster: ladder.decide(
                    now, waiting, running, cluster, deadline_at
                ),
            )

        loop = asyncio.get_running_loop()
        try:
            decisions = await loop.run_in_executor(None, handle)
        except TenantError as exc:
            return self._finish(
                tenant, pending, status="rejected", error=str(exc)
            )
        except Exception as exc:
            return self._finish(tenant, pending, status="error", error=str(exc))

        self._maybe_snapshot(tenant)
        return self._finish(
            tenant, pending, status="ok", decisions=tuple(decisions)
        )

    def _finish(
        self,
        tenant: _Tenant,
        pending: _Pending,
        status: str,
        decisions: "tuple[Decision, ...]" = (),
        error: str | None = None,
    ) -> DecisionResponse:
        latency = time.perf_counter() - pending.enqueued_at
        return DecisionResponse(
            tenant=pending.request.tenant,
            status=status,
            decisions=decisions,
            degraded=any(d.degraded for d in decisions),
            latency_seconds=latency,
            deadline_seconds=tenant.slo.deadline_seconds,
            deadline_exceeded=latency > tenant.slo.deadline_seconds,
            error=error,
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _maybe_snapshot(self, tenant: _Tenant) -> None:
        root = self.config.snapshot_root
        if root is None:
            return
        count = tenant.engine.decision_count
        if count - tenant.snapshotted_at < self.config.snapshot_every_decisions:
            return
        self.snapshot_now(tenant.engine.tenant_id)

    def snapshot_now(self, tenant_id: str) -> Path | None:
        """Persist one tenant snapshot immediately (also used at close).

        A failed save is logged by the recovery layer's caller contract —
        it must not fail the request that triggered it; the previous
        snapshot is still on disk.
        """
        root = self.config.snapshot_root
        if root is None:
            return None
        tenant = self._require(tenant_id)
        try:
            path = snapshot_tenant(
                tenant.engine, root, keep=self.config.snapshot_keep
            )
        except Exception:
            # A failed save must not fail the request that triggered it;
            # the previous snapshot is still on disk.
            return None
        tenant.snapshotted_at = tenant.engine.decision_count
        self.stats["snapshots"] += 1
        return path

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    async def close(self, final_snapshot: bool = True) -> None:
        """Drain every queue, stop consumers, and snapshot every tenant."""
        if self._closed:
            return
        self._closed = True
        for tenant in self._tenants.values():
            if tenant.consumer is not None and not tenant.consumer.done():
                await tenant.queue.put(None)
                await tenant.consumer
        if final_snapshot:
            for tenant_id in sorted(self._tenants):
                self.snapshot_now(tenant_id)

    async def __aenter__(self) -> "DecisionService":
        return self

    async def __aexit__(self, *exc: object) -> None:
        await self.close()
