"""The resumable per-tenant incremental engine.

A :class:`TenantEngine` is one tenant's cluster, policy and in-flight
:class:`~repro.simulator.engine.LoopState`, driven one event batch at a
time through :meth:`Simulation.consume_batch` — the *same* loop body the
batch simulator runs.  That sharing is the whole design: a fault-free
tenant fed the arrivals of a trace produces decisions bit-identical to a
batch :meth:`Simulation.run` over that trace, and because the state is
held between requests, no request ever replays the trace.

The contract with clients is a **watermark**: each request carries the
tenant's current time ``now``, and once a request at ``now`` has been
processed the clock never moves back — a later submission at or before
the watermark is rejected (:class:`TenantError`) rather than silently
reordered, because in batch mode those events would have shared the
already-made decision.  Same-instant arrivals must therefore travel in
one request, mirroring how the event queue batches simultaneous events.

Completions are *internally generated* (a started job finishes at
``start + runtime``, exactly as in the simulator); a request's
``finished`` list is advance-and-confirm only — the engine checks the
named jobs really do complete by ``now`` and never takes the client's
word for a completion time.
"""

from __future__ import annotations

from typing import Callable

from repro.metrics.timeseries import StateTimeSeries
from repro.service.api import Decision, DecisionRequest
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.engine import LoopState, Simulation
from repro.simulator.events import EventKind, EventQueue
from repro.simulator.job import Job, JobState
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util.timeunits import time_le

#: A degradation-ladder hook: same inputs as ``SchedulingPolicy.decide``,
#: but also reports which rung answered and whether that is a degraded
#: answer.  ``None`` means "consult the tenant's primary policy".
LadderFn = Callable[
    [float, "tuple[Job, ...]", "tuple[RunningJob, ...]", Cluster],
    "tuple[list[Job], str, bool]",
]

#: ``mode`` recorded when the primary policy answered directly.
PRIMARY_MODE = "policy"


class TenantError(ValueError):
    """A request violated the tenant contract; tenant state is untouched."""


class TenantEngine:
    """One tenant's resumable scheduling state.

    Not thread-safe and not async — the service serializes access per
    tenant (one queue consumer per tenant), which is also what keeps the
    decision sequence deterministic.
    """

    def __init__(
        self,
        tenant_id: str,
        policy: SchedulingPolicy,
        cluster_config: ClusterConfig | None = None,
        window: tuple[float, float] | None = None,
        record_timeseries: bool = False,
    ) -> None:
        self.tenant_id = tenant_id
        self.sim = Simulation.open_ended(
            policy,
            cluster_config=cluster_config,
            window=window,
            record_timeseries=record_timeseries,
        )
        self.loop_state = LoopState(
            events=EventQueue(),
            waiting=[],
            completed=[],
            timeseries=StateTimeSeries() if record_timeseries else None,
        )
        #: Every job ever submitted to this tenant, by id (ids are unique
        #: for the tenant's lifetime, exactly like within one workload).
        self.jobs: dict[int, Job] = {}
        #: The watermark: no event at or before this instant is accepted.
        self.decided_through: float = float("-inf")
        policy.reset()
        policy.runtime_source.reset()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def decision_count(self) -> int:
        return self.loop_state.decision_count

    @property
    def waiting_count(self) -> int:
        return len(self.loop_state.waiting)

    @property
    def running_count(self) -> int:
        return len(self.sim.cluster.running_jobs)

    @property
    def completed_jobs(self) -> list[Job]:
        return self.loop_state.completed

    # ------------------------------------------------------------------
    # Request validation (pure — raises before any state is mutated)
    # ------------------------------------------------------------------
    def validate_request(self, request: DecisionRequest) -> None:
        """Raise :class:`TenantError` unless ``request`` is acceptable.

        Everything is checkable up front: completions are internally
        generated, so a job's finish time is known the moment it starts
        and the ``finished`` confirmations can be validated before the
        clock moves.
        """
        now = request.now
        if time_le(now, self.decided_through):
            raise TenantError(
                f"tenant {self.tenant_id}: request at t={now} is at or "
                f"before the decided watermark t={self.decided_through}; "
                "same-instant events must share one request"
            )
        seen: set[int] = set()
        for spec in request.arrivals:
            if spec.job_id in self.jobs or spec.job_id in seen:
                raise TenantError(
                    f"tenant {self.tenant_id}: duplicate job id {spec.job_id}"
                )
            seen.add(spec.job_id)
            probe = spec.to_job(now)
            if not self.sim.cluster.admits(probe):
                raise TenantError(
                    f"tenant {self.tenant_id}: job {spec.job_id} "
                    f"(N={probe.nodes}, R={probe.requested_runtime}) "
                    "violates cluster limits"
                )
        for job_id in request.finished:
            job = self.jobs.get(job_id)
            if job is None:
                raise TenantError(
                    f"tenant {self.tenant_id}: unknown finished job {job_id}"
                )
            if job.end_time is None:
                raise TenantError(
                    f"tenant {self.tenant_id}: job {job_id} has not started; "
                    "it cannot have finished"
                )
            if not time_le(job.end_time, now):
                raise TenantError(
                    f"tenant {self.tenant_id}: job {job_id} finishes at "
                    f"t={job.end_time}, after the request's t={now}"
                )

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def handle(
        self, request: DecisionRequest, decide: LadderFn | None = None
    ) -> list[Decision]:
        """Validate, ingest arrivals, advance to ``request.now``, confirm.

        Returns one :class:`Decision` per distinct event time drained.
        ``decide`` (the service's degradation ladder) overrides only the
        policy consultation; all state transitions stay the engine's.
        """
        self.validate_request(request)
        now = request.now
        for spec in request.arrivals:
            job = spec.to_job(now)
            self.jobs[job.job_id] = job
            self.loop_state.events.push(now, EventKind.ARRIVAL, job)
        decisions = self.advance(now, decide=decide)
        for job_id in request.finished:
            job = self.jobs[job_id]
            if job.state is not JobState.COMPLETED:
                raise AssertionError(
                    f"tenant {self.tenant_id}: job {job_id} passed "
                    "confirmation but did not complete during advance"
                )
        self.decided_through = max(self.decided_through, now)
        return decisions

    def advance(
        self, now: float, decide: LadderFn | None = None
    ) -> list[Decision]:
        """Consume every pending event batch at or before ``now``.

        Events must be consumed in order (a completion releases the nodes
        a later arrival's decision sees), so advancing always drains the
        queue up to ``now`` — one decision per distinct event time,
        exactly like the batch loop.
        """
        decisions: list[Decision] = []
        st = self.loop_state
        while st.events:
            head = st.events.peek_time()
            if head is None or not time_le(head, now):
                break
            batch = st.events.pop_simultaneous()
            mode = PRIMARY_MODE
            degraded = False
            if decide is None:
                started = self.sim.consume_batch(st, batch)
            else:
                outcome: dict[str, object] = {}

                def _decide(
                    t: float,
                    waiting: tuple[Job, ...],
                    running: tuple[RunningJob, ...],
                    cluster: Cluster,
                ) -> list[Job]:
                    jobs, outcome["mode"], outcome["degraded"] = decide(
                        t, waiting, running, cluster
                    )
                    return jobs

                started = self.sim.consume_batch(st, batch, _decide)
                mode = str(outcome.get("mode", PRIMARY_MODE))
                degraded = bool(outcome.get("degraded", False))
            decisions.append(
                Decision(
                    seq=st.decision_count,
                    time=st.prev_time,
                    started=tuple(job.job_id for job in started),
                    mode=mode,
                    degraded=degraded,
                )
            )
            self.decided_through = max(self.decided_through, st.prev_time)
        return decisions

    # ------------------------------------------------------------------
    # Snapshot / restore (see repro.service.recovery for the disk format)
    # ------------------------------------------------------------------
    def snapshot_record(self) -> dict[str, object]:
        """Everything needed to rebuild this engine, as one record.

        The record is pickled as a unit by the recovery layer, so the
        aliasing between ``jobs``, the event queue, the cluster's running
        set and the completed list is preserved exactly — the same
        property the batch checkpoint format relies on.
        """
        return {
            "tenant_id": self.tenant_id,
            "simulation": self.sim,
            "state": self.loop_state,
            "jobs": self.jobs,
            "decided_through": self.decided_through,
        }

    @classmethod
    def from_snapshot_record(cls, record: dict[str, object]) -> "TenantEngine":
        """Rebuild an engine from :meth:`snapshot_record` output."""
        sim = record["simulation"]
        if not isinstance(sim, Simulation):
            raise TypeError("snapshot record does not hold a Simulation")
        engine = cls.__new__(cls)
        engine.tenant_id = str(record["tenant_id"])
        engine.sim = sim
        state = record["state"]
        assert isinstance(state, LoopState)
        engine.loop_state = state
        jobs = record["jobs"]
        assert isinstance(jobs, dict)
        engine.jobs = jobs
        engine.decided_through = float(record["decided_through"])  # type: ignore[arg-type]
        # Mirror the batch resume path: the policy's mid-run state rode
        # along in the snapshot, so no reset.
        return engine
