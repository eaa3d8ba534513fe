"""The event-driven simulation engine.

Drives a :class:`~repro.simulator.policy.SchedulingPolicy` over a workload on
a :class:`~repro.simulator.cluster.Cluster`: arrivals and completions are the
only events; after the state update at each distinct event time the policy is
consulted once and the jobs it returns are started.

The engine also accumulates the time-integrals the evaluation needs (average
queue length, utilization) restricted to a measurement window, which is how
the paper excludes the warm-up/cool-down weeks from each month's statistics.

Long runs can be made interrupt-safe: give :class:`Simulation` a
:class:`~repro.simulator.checkpoint.CheckpointConfig` and the whole loop
state (event queue, cluster, queue, accumulators, policy, RNG stream) is
snapshotted every N decisions; :func:`repro.simulator.checkpoint.resume`
continues an interrupted run to a bit-identical finish (see
``docs/robustness.md``).

The loop body itself is one method — :meth:`Simulation.consume_batch`
processes a single simultaneous event batch (accounting, completions
before arrivals, exactly one policy decision, job starts) — so a caller
that receives events incrementally can drive the very same code the batch
loop runs.  :meth:`Simulation.open_ended` builds a :class:`Simulation`
without a pre-declared workload for exactly that purpose: the
scheduler-as-a-service tenant engine (:mod:`repro.service.tenant`) feeds
arrival events as they come and stays bit-identical to a batch run over
the same trace because both paths share :meth:`consume_batch`.
"""

from __future__ import annotations

import time as _wallclock
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.metrics.timeseries import StateTimeSeries
from repro.simulator.checkpoint import CheckpointConfig, save_checkpoint
from repro.simulator.cluster import Cluster, ClusterConfig
from repro.simulator.events import Event, EventKind, EventQueue
from repro.simulator.job import Job, JobState
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util import faults
from repro.util.sanitize import require, sanitize_enabled


@dataclass
class SimulationResult:
    """Everything a simulation run produces.

    ``jobs`` contains *all* completed jobs (including warm-up/cool-down);
    metrics code filters on the window itself so different windows can be
    evaluated from one run.
    """

    jobs: list[Job]
    window: tuple[float, float]
    avg_queue_length: float
    utilization: float
    decision_count: int
    sim_end_time: float
    wall_seconds: float
    policy_name: str
    extra: dict[str, object] = field(default_factory=dict)
    #: Per-event state samples; ``None`` unless the simulation was created
    #: with ``record_timeseries=True``.
    timeseries: "StateTimeSeries | None" = None

    def jobs_in_window(self) -> list[Job]:
        """Jobs submitted inside the measurement window."""
        lo, hi = self.window
        return [j for j in self.jobs if lo <= j.submit_time < hi]


@dataclass
class LoopState:
    """Everything the event loop mutates, gathered for checkpointing.

    A :class:`Simulation` is immutable once constructed except for the
    policy (which pickles alongside the simulation object); the loop's own
    progress lives here so one snapshot of ``(simulation, state)`` is the
    complete resume point.  ``saved_at`` records the decision count of the
    last snapshot so a resumed run does not immediately re-save.
    """

    events: EventQueue
    waiting: list[Job]
    completed: list[Job]
    timeseries: StateTimeSeries | None
    decision_count: int = 0
    queue_integral: float = 0.0
    busy_integral: float = 0.0
    prev_time: float = 0.0
    saved_at: int = -1


#: Signature of a decision override handed to :meth:`Simulation.consume_batch`
#: — same contract as :meth:`~repro.simulator.policy.SchedulingPolicy.decide`.
#: The service layer uses it to route a decision through its degradation
#: ladder while everything else (state update, validation, job starts)
#: stays the engine's.
DecideFn = Callable[
    [float, "tuple[Job, ...]", "tuple[RunningJob, ...]", Cluster], "list[Job]"
]


class Simulation:
    """One simulation run.

    Parameters
    ----------
    jobs:
        The workload.  Jobs must satisfy the cluster's admission limits.
    policy:
        The scheduling policy under test.
    cluster_config:
        Machine description; defaults to the 128-node Titan configuration.
    window:
        ``(lo, hi)`` measurement window for time-averaged statistics.
        Defaults to the full span of the workload.
    checkpoint:
        Optional :class:`~repro.simulator.checkpoint.CheckpointConfig`;
        when set, the loop snapshots itself every ``every_decisions``
        scheduling decisions so an interrupted run can be resumed.
    """

    def __init__(
        self,
        jobs: Iterable[Job],
        policy: SchedulingPolicy,
        cluster_config: ClusterConfig | None = None,
        window: tuple[float, float] | None = None,
        record_timeseries: bool = False,
        checkpoint: CheckpointConfig | None = None,
    ) -> None:
        self.jobs = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
        if not self.jobs:
            raise ValueError("cannot simulate an empty workload")
        ids = [j.job_id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate job ids in workload")
        self.policy = policy
        self.cluster = Cluster(cluster_config)
        for job in self.jobs:
            if not self.cluster.admits(job):
                raise ValueError(
                    f"job {job.job_id} (N={job.nodes}, "
                    f"R={job.requested_runtime}) violates cluster limits"
                )
        if window is None:
            window = (self.jobs[0].submit_time, self.jobs[-1].submit_time + 1.0)
        self.window = window
        self.record_timeseries = record_timeseries
        self.checkpoint = checkpoint

    @classmethod
    def open_ended(
        cls,
        policy: SchedulingPolicy,
        cluster_config: ClusterConfig | None = None,
        window: tuple[float, float] | None = None,
        record_timeseries: bool = False,
    ) -> "Simulation":
        """A :class:`Simulation` with no pre-declared workload.

        The batch constructor validates and sorts a complete job list up
        front; an online driver (the service tenant engine) has no such
        list — jobs arrive one event at a time and are admission-checked
        at the door instead.  An open-ended simulation therefore starts
        with an empty workload and is driven exclusively through
        :meth:`consume_batch`; :meth:`run` would be meaningless (there is
        no event horizon) and must not be called on it.  ``window``
        defaults to ``(0, +inf)`` so the accumulated integrals cover the
        whole stream; pass the batch run's window to reproduce its
        accounting exactly.
        """
        sim = cls.__new__(cls)
        sim.jobs = []
        sim.policy = policy
        sim.cluster = Cluster(cluster_config)
        sim.window = window if window is not None else (0.0, float("inf"))
        sim.record_timeseries = record_timeseries
        sim.checkpoint = None
        return sim

    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Run to completion of every job and return the results."""
        self.policy.reset()
        self.policy.runtime_source.reset()
        return self._execute(self._fresh_state())

    def resume_from(self, state: LoopState) -> SimulationResult:
        """Continue an interrupted run from a restored :class:`LoopState`.

        Unlike :meth:`run` this does **not** reset the policy or the
        runtime source — their mid-run state travelled inside the
        checkpoint and resetting it would diverge from the uninterrupted
        run.  Normally reached via
        :func:`repro.simulator.checkpoint.resume`.
        """
        return self._execute(state)

    def _fresh_state(self) -> LoopState:
        events = EventQueue()
        for job in self.jobs:
            job.reset_lifecycle()
            events.push(job.submit_time, EventKind.ARRIVAL, job)
        return LoopState(
            events=events,
            waiting=[],
            completed=[],
            timeseries=StateTimeSeries() if self.record_timeseries else None,
            prev_time=events.peek_time() or 0.0,
        )

    def _execute(self, st: LoopState) -> SimulationResult:
        wall_start = _wallclock.perf_counter()
        ckpt = self.checkpoint
        win_lo, win_hi = self.window

        while st.events:
            # Snapshot *before* consuming the next batch, so an injected
            # or real crash right after loses at most the work since the
            # previous snapshot and the resumed loop re-enters here with
            # the queue intact.
            if (
                ckpt is not None
                and st.decision_count > 0
                and st.decision_count % ckpt.every_decisions == 0
                and st.decision_count != st.saved_at
            ):
                save_checkpoint(self, st)
                st.saved_at = st.decision_count
            faults.fire("engine.step")

            self.consume_batch(st, st.events.pop_simultaneous())

        window_span = max(win_hi - win_lo, 1e-12)
        result = SimulationResult(
            jobs=st.completed,
            window=self.window,
            avg_queue_length=st.queue_integral / window_span,
            utilization=st.busy_integral / (window_span * self.cluster.capacity),
            decision_count=st.decision_count,
            sim_end_time=st.prev_time,
            wall_seconds=_wallclock.perf_counter() - wall_start,
            policy_name=self.policy.name,
            extra=dict(getattr(self.policy, "stats", {}) or {}),
            timeseries=st.timeseries,
        )
        if len(st.completed) != len(self.jobs):
            raise AssertionError(
                f"simulation ended with {len(self.jobs) - len(st.completed)} "
                "unfinished jobs (policy starvation or engine bug)"
            )
        return result

    # ------------------------------------------------------------------
    def consume_batch(
        self,
        st: LoopState,
        batch: list[Event],
        decide: DecideFn | None = None,
    ) -> list[Job]:
        """Process one simultaneous event batch; returns the jobs started.

        This is the loop body of :meth:`run`, factored out so an
        incremental driver (the service tenant engine) can feed batches as
        they arrive and still execute the exact batch-loop semantics:
        time-weighted accounting over ``[prev_time, now)``, completions
        released before arrivals are queued, exactly one scheduling
        decision per distinct event time, and engine-side validation of
        the chosen jobs.  ``decide`` overrides *only* the policy
        consultation (same signature and contract as
        :meth:`~repro.simulator.policy.SchedulingPolicy.decide`); the
        ``on_start``/``on_finish``/runtime-source hooks still go to
        ``self.policy``, so tenant-held policy state stays consistent no
        matter which rung of a degradation ladder answered.
        """
        sanitize = sanitize_enabled()
        win_lo, win_hi = self.window
        now = batch[0].time
        if sanitize:
            self._sanitize_batch(batch, now, st.prev_time)

        # Accumulate time-weighted statistics over [prev_time, now),
        # clipped to the measurement window.
        overlap = min(now, win_hi) - max(st.prev_time, win_lo)
        if overlap > 0:
            st.queue_integral += len(st.waiting) * overlap
            st.busy_integral += self.cluster.used_nodes * overlap
        st.prev_time = now

        # State update: completions release nodes before arrivals are
        # queued, mirroring the deterministic tie-break of the queue.
        batch.sort(key=lambda e: (e.kind is not EventKind.FINISH, e.seq))
        for event in batch:
            job = event.payload
            if event.kind is EventKind.FINISH:
                self.cluster.finish(job, now)
                st.completed.append(job)
                # Learning runtime sources (predictors) observe every
                # completion before the policy's own hook runs.
                self.policy.runtime_source.observe_completion(job, now)
                self.policy.on_finish(job, now)
            else:
                job.mark_waiting()
                st.waiting.append(job)

        # One scheduling decision per distinct event time.
        st.decision_count += 1
        if sanitize:
            self._sanitize_queue(st.waiting, now)
        running_view = self._running_view(now)
        if decide is None:
            to_start = self.policy.decide(
                now, tuple(st.waiting), running_view, self.cluster
            )
        else:
            to_start = decide(now, tuple(st.waiting), running_view, self.cluster)
        started = list(to_start)
        self._start_jobs(started, st.waiting, st.events, now)

        if st.timeseries is not None:
            backlog = sum(j.nodes * j.runtime for j in st.waiting)
            st.timeseries.record(
                now, len(st.waiting), self.cluster.used_nodes, backlog
            )
        return started

    # ------------------------------------------------------------------
    # Debug-mode invariant checks (see repro.util.sanitize); all read-only.
    # ------------------------------------------------------------------
    def _sanitize_batch(
        self, batch: Sequence[Event], now: float, prev_time: float
    ) -> None:
        """Event times must be monotone non-decreasing across the run."""
        require(
            now >= prev_time - 1e-9,
            f"time travel: event batch at {now} after clock reached {prev_time}",
        )
        for event in batch:
            require(
                event.time >= prev_time - 1e-9,
                f"time travel: {event.kind.value} event at {event.time} "
                f"after clock reached {prev_time}",
            )

    def _sanitize_queue(self, waiting: Sequence[Job], now: float) -> None:
        """The queue holds only un-started WAITING jobs; nodes conserve."""
        for job in waiting:
            require(
                job.state is JobState.WAITING,
                f"queue contains job {job.job_id} in state {job.state.value} "
                f"at t={now}",
            )
            require(
                job.start_time is None,
                f"queue contains started job {job.job_id} "
                f"(start_time={job.start_time}) at t={now}",
            )
        cluster = self.cluster
        require(
            0 <= cluster.free_nodes <= cluster.capacity,
            f"free-node count {cluster.free_nodes} outside "
            f"[0, {cluster.capacity}] at t={now}",
        )
        occupied = sum(j.nodes for j in cluster.running_jobs)
        require(
            cluster.free_nodes + occupied == cluster.capacity,
            f"node accounting broken at t={now}: {cluster.free_nodes} free "
            f"+ {occupied} running != capacity {cluster.capacity}",
        )

    # ------------------------------------------------------------------
    def _running_view(self, now: float) -> tuple[RunningJob, ...]:
        """Build the policy's view of running jobs with believed releases."""
        source = self.policy.runtime_source
        views = []
        for job in self.cluster.running_jobs:
            assert job.start_time is not None and job.end_time is not None
            if source.is_actual:
                release = job.end_time
            else:
                release = source.believed_release(job, now)
            # An over-estimating source (R >= T) always yields a future
            # release.  An optimistic predictor can believe the release is
            # already past; the job is nonetheless still occupying its
            # nodes *right now*, so clamp the belief to "imminently" —
            # strictly after now — or the planner would hand those nodes
            # to someone else this instant.
            views.append(
                RunningJob(job=job, release_time=max(release, now + 1.0))
            )
        views.sort(key=lambda r: (r.release_time, r.job.job_id))
        return tuple(views)

    def _start_jobs(
        self,
        to_start: Sequence[Job],
        waiting: list[Job],
        events: EventQueue,
        now: float,
    ) -> None:
        """Validate and start the policy's chosen jobs."""
        seen: set[int] = set()
        for job in to_start:
            if job.job_id in seen:
                raise ValueError(f"policy returned job {job.job_id} twice")
            seen.add(job.job_id)
            if job.state is not JobState.WAITING:
                raise ValueError(
                    f"policy returned job {job.job_id} in state {job.state}"
                )
            end = self.cluster.start(job, now)  # raises if over capacity
            waiting.remove(job)
            events.push(end, EventKind.FINISH, job)
            self.policy.on_start(job, now)
