"""The search-based on-line scheduling policy (paper §2.3).

At every decision point the policy (1) orders the waiting jobs by its
branching heuristic, (2) resolves the target wait bound, (3) runs a
node-limited LDS or DDS over candidate orders, and (4) starts exactly the
jobs whose planned start in the best schedule is *now*.  Nothing about the
best schedule survives to the next decision point — the search reruns from
scratch, which is how it adapts to new arrivals and early completions.

Factory naming follows the paper: ``DDS/lxf/dynB`` is
``make_policy("dds", "lxf", DynamicBound(), node_limit=1000)``.
"""

from __future__ import annotations

import sys
from typing import Sequence

from repro.core.branching import HEURISTICS, order_jobs
from repro.core.objective import (
    DynamicBound,
    FixedBound,
    ObjectiveConfig,
    TargetBound,
)
from repro.core.criteria import (
    Criterion,
    CriteriaEvaluator,
    DecisionContext,
    UsageTracker,
)
from repro.core.ckernel import default_engine
from repro.core.profile import AvailabilityProfile
from repro.core.search import DiscrepancySearch, SearchProblem
from repro.predict.source import RuntimeSource, resolve_runtime_source
from repro.util.sanitize import require, sanitize_enabled
from repro.util.timeunits import WEEK
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.policy import RunningJob, SchedulingPolicy


class SearchSchedulingPolicy(SchedulingPolicy):
    """Goal-oriented scheduling via complete discrepancy search.

    Parameters
    ----------
    algorithm:
        ``"dds"`` or ``"lds"``.
    heuristic:
        Branching heuristic name (``"fcfs"``, ``"lxf"``, ``"sjf"``).
    bound:
        Target wait bound for the first objective level.
    node_limit:
        Search budget ``L`` per decision point.
    runtime_source:
        How planning runtimes resolve: ``True``/``"actual"`` for R* = T
        (default), ``False``/``"requested"`` for R* = R, or any
        :class:`~repro.predict.source.RuntimeSource` (e.g. a predictor).
    prune:
        Enable branch-and-bound pruning (extension; off in the paper).
    criteria:
        A custom lexicographic objective as an ordered sequence of
        :class:`~repro.core.criteria.Criterion` levels (fairshare,
        weighted priorities, max-wait, ...).  ``None`` (default) uses the
        paper's two-level objective with ``bound``.  The target bound
        still resolves ω for any :class:`TotalExcessiveWait` level.
    fairshare_half_life:
        Decay half-life of the per-user usage tracker (only relevant when
        some criterion ``needs_usage``).
    """

    def __init__(
        self,
        algorithm: str = "dds",
        heuristic: str = "lxf",
        bound: TargetBound | None = None,
        node_limit: int | None = 1000,
        runtime_source: "RuntimeSource | bool | str | None" = None,
        prune: bool = False,
        criteria: "Sequence[Criterion] | None" = None,
        fairshare_half_life: float | None = None,
        local_search_fraction: float = 0.0,
        record_anytime: bool = False,
        engine: str = "fast",
    ) -> None:
        if heuristic not in HEURISTICS:
            raise ValueError(
                f"unknown heuristic {heuristic!r}; choose from {sorted(HEURISTICS)}"
            )
        self.bound = bound if bound is not None else DynamicBound()
        self.searcher = DiscrepancySearch(
            algorithm=algorithm,
            node_limit=node_limit,
            prune=prune,
            local_search_fraction=local_search_fraction,
            record_anytime=record_anytime,
            engine=engine,
        )
        self.heuristic = heuristic
        self.objective = ObjectiveConfig(bound=self.bound)
        self.runtime_source = resolve_runtime_source(runtime_source)
        self.criteria = tuple(criteria) if criteria is not None else None
        self.usage_tracker: UsageTracker | None = None
        if self.criteria and any(c.needs_usage for c in self.criteria):
            self.usage_tracker = UsageTracker(
                half_life=fairshare_half_life if fairshare_half_life else WEEK
            )
        self.name = f"{algorithm.upper()}/{heuristic}/{self.bound.label}"
        if self.criteria is not None:
            self.name += "[" + "+".join(c.name for c in self.criteria) + "]"
        if not self.runtime_source.is_actual:
            self.name += f"[R*={self.runtime_source.label}]"
        self.stats: dict[str, float] = {}
        self.reset()

    def reset(self) -> None:
        if self.usage_tracker is not None:
            self.usage_tracker.reset()
        #: Per-decision (queue length, nodes until final best) pairs,
        #: populated only with ``record_anytime=True`` — the empirical
        #: basis for choosing the node limit L.
        self.anytime_nodes: list[tuple[int, int]] = []
        self.stats = {
            "decisions": 0,
            "searched_decisions": 0,
            "total_nodes_visited": 0,
            "max_queue_length": 0,
            "limit_hits": 0,
            "improved_decisions": 0,
        }

    # ------------------------------------------------------------------
    def decide(
        self,
        now: float,
        waiting: Sequence[Job],
        running: Sequence[RunningJob],
        cluster: Cluster,
    ) -> list[Job]:
        self.stats["decisions"] += 1
        if not waiting:
            return []
        self.stats["max_queue_length"] = max(
            self.stats["max_queue_length"], len(waiting)
        )

        runtimes = {job.job_id: self.runtime_of(job) for job in waiting}
        ordered = order_jobs(
            waiting, self.heuristic, now, runtime_of=lambda j: runtimes[j.job_id]
        )
        omega = self.bound.value(now, waiting)
        profile = AvailabilityProfile.from_running(cluster.capacity, now, running)
        sanitize = sanitize_enabled()
        if sanitize:
            profile.check_invariants()
            require(
                omega >= 0,
                f"target wait bound must be >= 0, got omega={omega} at t={now}",
            )
        evaluator = None
        if self.criteria is not None:
            overuse: dict[str, float] = {}
            if self.usage_tracker is not None:
                active = [j.user for j in waiting if j.user is not None]
                active += [r.job.user for r in running if r.job.user is not None]
                overuse = self.usage_tracker.overuse(now, active)
            context = DecisionContext(
                now=now,
                omega=omega,
                runtimes=runtimes,
                floor=self.objective.slowdown_floor,
                user_overuse=overuse,
            )
            evaluator = CriteriaEvaluator(self.criteria, context)
        problem = SearchProblem(
            jobs=tuple(ordered),
            profile=profile,
            now=now,
            omega=omega,
            objective=self.objective,
            use_actual_runtime=self.use_actual_runtime,
            runtimes=runtimes,
            evaluator=evaluator,
        )

        # The DFS recurses one level per waiting job; make sure deep queues
        # cannot hit the interpreter's recursion limit.  The raised limit is
        # scoped to this decision — leaking it would let inflated interpreter
        # state bleed across runs and into experiment worker processes.
        needed = len(ordered) * 3 + 100
        prior_limit = sys.getrecursionlimit()
        try:
            if prior_limit < needed:
                sys.setrecursionlimit(needed)
            result = self.searcher.search(problem)
        finally:
            if sys.getrecursionlimit() != prior_limit:
                sys.setrecursionlimit(prior_limit)
        self.stats["searched_decisions"] += 1
        self.stats["total_nodes_visited"] += result.nodes_visited
        if result.limit_hit:
            self.stats["limit_hits"] += 1
        if result.improved_after_first:
            self.stats["improved_decisions"] += 1
        if result.anytime:
            self.anytime_nodes.append((len(ordered), result.anytime[-1][0]))
        startable = result.jobs_startable_now(now)
        if sanitize:
            # The search must leave the profile exactly as it found it
            # (LIFO release discipline) and may only start jobs that fit
            # the nodes free at this instant.
            profile.check_invariants()
            demanded = sum(job.nodes for job in startable)
            require(
                demanded <= cluster.free_nodes,
                f"search chose jobs needing {demanded} nodes with only "
                f"{cluster.free_nodes} free at t={now}",
            )
        return startable

    def on_start(self, job: Job, now: float) -> None:
        if self.usage_tracker is not None:
            self.usage_tracker.record_start(job, now, self.runtime_of(job))


def make_policy(
    algorithm: str,
    heuristic: str,
    bound: TargetBound | float | None = None,
    node_limit: int | None = 1000,
    runtime_source: "RuntimeSource | bool | str | None" = None,
    prune: bool = False,
    criteria: "Sequence[Criterion] | None" = None,
) -> SearchSchedulingPolicy:
    """Convenience factory.

    ``bound`` may be a :class:`TargetBound`, a number of **seconds** for a
    fixed bound, or ``None`` for the dynamic bound (dynB).
    ``runtime_source`` follows
    :func:`repro.predict.source.resolve_runtime_source`.
    The engine defaults to the compiled kernel when it is built
    (:func:`repro.core.ckernel.default_engine` — bit-identical results,
    silent fallback, ``REPRO_PURE_PYTHON=1`` opts out).
    """
    if bound is None:
        resolved: TargetBound = DynamicBound()
    elif isinstance(bound, TargetBound):
        resolved = bound
    else:
        resolved = FixedBound(float(bound))
    return SearchSchedulingPolicy(
        algorithm=algorithm,
        heuristic=heuristic,
        bound=resolved,
        node_limit=node_limit,
        runtime_source=runtime_source,
        prune=prune,
        criteria=criteria,
        engine=default_engine(),
    )
