"""The degradation ladder: always answer, label anything weaker.

One scheduling decision can be arbitrarily expensive (the search tree
grows with the queue), but the service promises an answer within the
tenant's deadline.  The ladder resolves that tension by descending
through progressively cheaper rungs until one fits the remaining budget:

====================  =====================================================
rung / ``mode``       what answers
====================  =====================================================
``search:pool``       the tenant's full search policy, offloaded to the
                      supervised :mod:`repro.util.workerpool` with a
                      result deadline (not degraded — same deterministic
                      answer as inline, just on another process)
``search``            the full policy inline, taken only when the EWMA
                      cost estimate says it fits the budget (not degraded)
``anytime``           the same searcher with ``time_limit_seconds`` set to
                      a slice of the remaining budget — best-so-far at the
                      deadline (**degraded**: the node-limit guarantee is
                      waived even if the search happened to finish)
``heuristic``         plain FCFS backfill sharing the primary policy's
                      runtime source (**degraded**)
``noop``              start nothing — always valid, the rung of last
                      resort (**degraded**)
====================  =====================================================

Worker-pool failures feed a count-based :class:`CircuitBreaker` (count-
based, not wall-clock-based, so chaos runs replay deterministically):
after ``threshold`` consecutive failures the pool rung is skipped
entirely until a probe is allowed again, and the pool's own bounded
respawn budget (``REPRO_POOL_RESPAWNS``) decides whether the executor is
ever revived.  The injected-fault sites ``service.decide`` (primary path
fails) and ``worker.result`` (result transport fails) let the chaos suite
drive every rung transition on demand.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.backfill import fcfs_backfill
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy
from repro.util import faults
from repro.util.workerpool import WorkerPool, get_pool

#: Modes the ladder can emit (closed set; tests assert membership).
MODES: tuple[str, ...] = ("search:pool", "search", "anytime", "heuristic", "noop")

#: Modes that are *not* degraded: the primary policy answered in full.
FULL_MODES: frozenset[str] = frozenset({"search:pool", "search"})


def _pool_decide(
    policy: SchedulingPolicy,
    now: float,
    waiting: "tuple[Job, ...]",
    running: "tuple[RunningJob, ...]",
    cluster: Cluster,
) -> list[int]:
    """Worker-side decision: run the policy, ship job ids back.

    Only ids cross the process boundary — the leader re-maps them onto
    its own :class:`Job` objects, so entity identity (and the SIM004
    lifecycle discipline) never leaks across pickling.
    """
    return [job.job_id for job in policy.decide(now, waiting, running, cluster)]


class CircuitBreaker:
    """Count-based breaker over the pool rung.

    ``threshold`` consecutive failures open the circuit; while open,
    every consult is rejected until ``probe_after`` rejections have
    accumulated, at which point exactly one probe is let through
    (half-open).  A probe success closes the circuit, a probe failure
    re-opens it.  Counting consults instead of wall time keeps chaos
    replays deterministic.
    """

    def __init__(self, threshold: int = 3, probe_after: int = 8) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if probe_after < 1:
            raise ValueError(f"probe_after must be >= 1, got {probe_after}")
        self.threshold = threshold
        self.probe_after = probe_after
        self.phase = "closed"
        self.failures = 0
        self._rejections = 0

    def allow(self) -> bool:
        """Whether the protected rung may be attempted right now."""
        if self.phase == "closed":
            return True
        if self.phase == "open":
            self._rejections += 1
            if self._rejections >= self.probe_after:
                self.phase = "half-open"
                return True
            return False
        # half-open: one probe is already in flight this consult cycle.
        return False

    def record_success(self) -> None:
        self.phase = "closed"
        self.failures = 0
        self._rejections = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.phase == "half-open" or self.failures >= self.threshold:
            self.phase = "open"
            self._rejections = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CircuitBreaker {self.phase} failures={self.failures}>"


@dataclass
class LadderConfig:
    """Tuning of the degradation ladder.

    ``pool_workers=0`` (the default) disables the pool rung entirely —
    the right setting for bit-identity replays and single-core hosts.
    ``inline_safety`` scales the EWMA cost estimate when deciding whether
    a full inline search still fits the budget; the estimate starts at
    zero (optimistic), so a fresh tenant with a generous deadline always
    gets the full policy — which is what keeps fault-free replays on the
    primary path.
    """

    pool_workers: int = 0
    pool_budget_fraction: float = 0.6
    inline_safety: float = 3.0
    ewma_alpha: float = 0.3
    anytime_fraction: float = 0.5
    min_anytime_budget: float = 0.01
    breaker_threshold: int = 3
    breaker_probe_after: int = 8


class DecisionLadder:
    """Per-tenant decision executor descending the degradation ladder.

    The primary ``policy`` is the tenant's own (the one whose hooks the
    engine drives), so full-mode answers are exactly what a batch run
    would have decided.  The heuristic rung shares that policy's runtime
    source, so even degraded answers plan with the same runtime beliefs.
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        config: LadderConfig | None = None,
        breaker: CircuitBreaker | None = None,
    ) -> None:
        self.policy = policy
        self.config = config or LadderConfig()
        self.breaker = breaker or CircuitBreaker(
            threshold=self.config.breaker_threshold,
            probe_after=self.config.breaker_probe_after,
        )
        self.heuristic = fcfs_backfill(runtime_source=policy.runtime_source)
        #: EWMA of observed inline full-search cost (seconds); starts
        #: optimistic so the first decision tries the full policy.
        self.inline_cost = 0.0
        #: Decisions answered per mode, plus failure tallies.
        self.stats: dict[str, int] = {mode: 0 for mode in MODES}
        self.stats["pool_failures"] = 0
        self.stats["primary_failures"] = 0

    # ------------------------------------------------------------------
    def decide(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        deadline_at: float | None = None,
    ) -> "tuple[list[Job], str, bool]":
        """Answer one decision within the budget; never raises.

        ``deadline_at`` is a :func:`time.perf_counter` timestamp; ``None``
        means "no deadline" (batch-style replay), which always takes the
        full primary path.
        """
        try:
            faults.fire("service.decide")
            jobs, mode = self._full(now, waiting, running, cluster, deadline_at)
            self.stats[mode] += 1
            return jobs, mode, False
        except Exception:
            self.stats["primary_failures"] += 1

        remaining = self._remaining(deadline_at)
        if remaining is None or remaining > self.config.min_anytime_budget:
            try:
                jobs = self._anytime(now, waiting, running, cluster, remaining)
                self.stats["anytime"] += 1
                return jobs, "anytime", True
            except Exception:
                pass
        try:
            jobs = self.heuristic.decide(now, waiting, running, cluster)
            self.stats["heuristic"] += 1
            return jobs, "heuristic", True
        except Exception:
            # Starting nothing is always a valid decision: the queue is
            # untouched and the next event gets another chance.
            self.stats["noop"] += 1
            return [], "noop", True

    # ------------------------------------------------------------------
    def _remaining(self, deadline_at: float | None) -> float | None:
        if deadline_at is None:
            return None
        return deadline_at - time.perf_counter()

    def _full(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        deadline_at: float | None,
    ) -> "tuple[list[Job], str]":
        """The primary policy, pool-offloaded when configured and healthy."""
        remaining = self._remaining(deadline_at)
        if self.config.pool_workers > 0 and self.breaker.allow():
            try:
                jobs = self._pool_round_trip(
                    now, waiting, running, cluster, remaining
                )
            except Exception:
                self.stats["pool_failures"] += 1
                self.breaker.record_failure()
                self._retire_pool()
            else:
                self.breaker.record_success()
                return jobs, "search:pool"
            remaining = self._remaining(deadline_at)
        if remaining is not None and remaining <= (
            self.inline_cost * self.config.inline_safety
        ):
            raise TimeoutError(
                f"inline search projected at {self.inline_cost:.3f}s won't "
                f"fit the remaining {remaining:.3f}s budget"
            )
        t0 = time.perf_counter()
        jobs = self.policy.decide(now, waiting, running, cluster)
        cost = time.perf_counter() - t0
        alpha = self.config.ewma_alpha
        self.inline_cost = (1 - alpha) * self.inline_cost + alpha * cost
        return jobs, "search"

    def _pool(self) -> WorkerPool:
        return get_pool(self.config.pool_workers)

    def _pool_round_trip(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        remaining: float | None,
    ) -> list[Job]:
        pool = self._pool()
        if not pool.ensure_started(warm=True):
            raise RuntimeError("worker pool unavailable")
        if faults.should_fire("worker.crash"):
            pool.crash_worker()
        future = pool.submit(
            _pool_decide, self.policy, now, waiting, running, cluster
        )
        timeout = None
        if remaining is not None:
            timeout = max(remaining * self.config.pool_budget_fraction, 0.05)
        ids = future.result(timeout=timeout)
        faults.fire("worker.result")
        by_id = {job.job_id: job for job in waiting}
        return [by_id[job_id] for job_id in ids]

    def _retire_pool(self) -> None:
        """Tear down the broken executor; spend one respawn credit if any.

        After :meth:`WorkerPool.respawn` returns ``False`` the pool is
        permanently failed and every later ``ensure_started`` is an
        immediate, cheap ``False`` — the ladder keeps consulting the
        breaker, but the pool rung can never slow a request down again.
        """
        pool = self._pool()
        pool.mark_broken()
        pool.respawn()

    def _anytime(
        self,
        now: float,
        waiting: "tuple[Job, ...]",
        running: "tuple[RunningJob, ...]",
        cluster: Cluster,
        remaining: float | None,
    ) -> list[Job]:
        """The primary searcher in anytime mode: best-so-far at the limit."""
        searcher = getattr(self.policy, "searcher", None)
        if searcher is None:
            raise RuntimeError("primary policy has no anytime searcher")
        budget = self.config.min_anytime_budget
        if remaining is not None:
            budget = max(
                remaining * self.config.anytime_fraction,
                self.config.min_anytime_budget,
            )
        prev_limit = searcher.time_limit_seconds
        try:
            searcher.time_limit_seconds = budget
            return self.policy.decide(now, waiting, running, cluster)
        finally:
            searcher.time_limit_seconds = prev_limit
