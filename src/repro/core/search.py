"""Node-limited anytime LDS / DDS over candidate schedules (paper §2.2-2.3).

One :class:`DiscrepancySearch` run explores orderings of the waiting jobs.
Each tree node places the next job of the ordering at its earliest feasible
start on the availability profile (list scheduling along the path); each
leaf is a complete candidate schedule scored with the hierarchical
objective.  Iterations follow exactly the permutation orders defined in
:mod:`repro.core.search_tree`; prefixes are shared within an iteration via
depth-first reserve/release on the profile, and every placement counts as
one node visit against the limit ``L``.

The search is *anytime*: the best complete schedule found so far is always
available.  The pure-heuristic path (iteration 0) is completed even when
``L`` is smaller than the queue length, so a valid schedule always exists.

Objectives come in two forms: the paper's two-level objective runs through
a specialized fast path, and arbitrary lexicographic objectives (fairshare,
priorities, max-wait — see :mod:`repro.core.criteria`) plug in via
``SearchProblem.evaluator``.

Branch-and-bound pruning is OFF by default — the paper explicitly leaves it
to future work and its node accounting would differ — but is available via
``prune=True`` for the ablation benchmarks.

Three engines implement the identical traversal:

- ``engine="fast"`` (the default) — the allocation-free hot path: the
  remaining-jobs set is an in-place index array threaded into a linked
  list (O(1) unlink/relink per visit instead of an O(n) list slice), and
  placements go through :class:`~repro.core.profile.SearchProfile`, whose
  ``place``/``unplace`` never pay ``insert``/``del`` memmoves or
  ``bisect`` calls (see ``docs/performance.md``).
- ``engine="reference"`` — the original list-slicing DFS over
  :class:`~repro.core.profile.AvailabilityProfile`, kept as the executable
  specification.  Every :class:`SearchResult` field (order, starts, score,
  node accounting) must be bit-identical between the two engines; the
  differential tests in ``tests/test_search_fastpath.py`` and the
  ``repro bench`` harness both hold the fast path to that contract.
- ``engine="compiled"`` — the fast engine's delta kernel transcribed to C
  (:mod:`repro.core.ckernel`), held to the same bit-identity contract and
  silently falling back to ``engine="fast"`` when the extension is absent
  or the search needs a facility the kernel omits.
"""

from __future__ import annotations

import time as _wallclock

from dataclasses import dataclass
from typing import Any, Callable, Union

from repro.core import deltascore
from repro.core.criteria import CriteriaEvaluator, MultiScore
from repro.core.deltascore import JobArrays, fold_chain_terms
from repro.core.objective import ObjectiveConfig, ScheduleScore
from repro.core.profile import AvailabilityProfile
from repro.core.search_tree import max_discrepancies
from repro.simulator.job import Job

_ALGORITHMS = ("dds", "lds")

#: A search score: the paper's two-level score or a general N-level one.
Score = Union[ScheduleScore, MultiScore]


class _StopSearch(Exception):
    """Raised internally when the node budget is exhausted."""


def resolve_runtimes(problem: "SearchProblem") -> dict[int, float]:
    """The planning runtime of every job in ``problem``."""
    if problem.runtimes is not None:
        rt = dict(problem.runtimes)
        missing = {j.job_id for j in problem.jobs} - set(rt)
        if missing:
            raise ValueError(f"runtimes missing for jobs {sorted(missing)}")
        return rt
    use_actual = problem.use_actual_runtime
    return {j.job_id: j.scheduler_runtime(use_actual) for j in problem.jobs}


def build_strategy(
    problem: "SearchProblem", rt: dict[int, float]
) -> "tuple[tuple[float, ...], Callable[..., Any], Callable[..., Any], Callable[..., Any]]":
    """The scoring strategy for a problem: ``(acc0, extend, score, lower)``.

    Shared by the tree search and the local-search improver so both score
    schedules identically.
    """
    evaluator = problem.evaluator
    if evaluator is not None:
        return (
            evaluator.start(),
            evaluator.extend,
            evaluator.score,
            evaluator.lower_bound,
        )
    omega = problem.omega
    floor = problem.objective.slowdown_floor

    def extend(acc: tuple[float, ...], job: Job, start: float) -> tuple[float, ...]:
        wait = start - job.submit_time
        denom = rt[job.job_id]
        if denom < floor:
            denom = floor
        excess = wait - omega
        return (
            acc[0] + (excess if excess > 0.0 else 0.0),
            acc[1] + (wait + denom) / denom,
        )

    def score(acc: tuple[float, ...], n_jobs: int) -> ScheduleScore:
        return ScheduleScore(acc[0], acc[1], n_jobs)

    def lower(acc: tuple[float, ...], left: int) -> ScheduleScore:
        # Unplaced jobs add >= 0 excess and >= 1 slowdown each.
        return ScheduleScore(acc[0], acc[1] + left, 0)

    return (0.0, 0.0), extend, score, lower


@dataclass(frozen=True)
class SearchProblem:
    """One scheduling decision point, ready to be searched.

    ``jobs`` must already be in branching-heuristic order; ``profile`` must
    be rooted at ``now`` and reflect the running jobs.  ``omega`` is the
    resolved target wait bound for this decision.
    """

    jobs: tuple[Job, ...]
    profile: AvailabilityProfile
    now: float
    omega: float
    objective: ObjectiveConfig
    use_actual_runtime: bool = True
    #: Pre-resolved planning runtimes per job id (overrides
    #: ``use_actual_runtime``); how policies with predictors or other
    #: custom :class:`~repro.predict.source.RuntimeSource` objects feed
    #: their estimates into the search.
    runtimes: dict[int, float] | None = None
    #: General N-level objective; when set it supersedes ``objective`` /
    #: ``omega`` for scoring (placement is unaffected).
    evaluator: CriteriaEvaluator | None = None


@dataclass
class SearchResult:
    """Outcome of one search."""

    best_order: tuple[Job, ...]
    best_starts: dict[int, float]  # job_id -> planned start time
    best_score: Score
    nodes_visited: int
    leaves_evaluated: int
    iterations_started: int
    limit_hit: bool
    improved_after_first: bool = False
    #: Anytime profile: ``(nodes_visited, score)`` at every improvement,
    #: recorded only when the search ran with ``record_anytime=True``.
    anytime: list[tuple[int, Score]] | None = None

    def jobs_startable_now(self, now: float) -> list[Job]:
        """Jobs whose planned start in the best schedule is at or before
        ``now``.

        The comparison is ``start <= now`` with **no epsilon tolerance**,
        on purpose: the profile returns either ``now`` itself or a strictly
        later breakpoint, and a release can occur arbitrarily soon after
        ``now`` — any epsilon grace *above* ``now`` could start a job
        before its nodes exist.  Starts strictly below ``now`` never come
        out of ``earliest_start`` (it clamps to the profile origin) but are
        reachable via float drift in hand-built results; ``<=`` treats them
        as what they claim — a plan that holds the nodes from no later
        than ``now`` — so the job starts now, not in the past.
        """
        return [
            job for job in self.best_order if self.best_starts[job.job_id] <= now
        ]


@dataclass
class DiscrepancySearch:
    """A configured search algorithm.

    Parameters
    ----------
    algorithm:
        ``"dds"`` or ``"lds"``.
    node_limit:
        Maximum node visits ``L`` per search (paper varies 1K-100K); ``None``
        means exhaustive.
    prune:
        Optional branch-and-bound pruning (extension; default off).
    """

    algorithm: str = "dds"
    node_limit: int | None = 1000
    prune: bool = False
    #: Fraction of the node budget reserved for a hill-climbing pass over
    #: the tree search's best order (the paper's local-search future work;
    #: see :mod:`repro.core.local_search`).  0 disables it.
    local_search_fraction: float = 0.0
    #: Record the anytime profile (score vs. nodes visited at every
    #: improvement) in the result — the empirical basis for choosing L.
    record_anytime: bool = False
    #: Wall-clock budget per search.  The paper imposes a node limit "for
    #: comparison purposes, rather than a time limit" (§2.2); production
    #: deployments want the time limit.  Both may be set; whichever is
    #: exhausted first stops the search.
    time_limit_seconds: float | None = None
    #: ``"fast"`` (allocation-free hot path, the default), ``"reference"``
    #: (the executable specification), or ``"compiled"`` (the C kernel,
    #: falling back to ``"fast"``).  All return bit-identical results; the
    #: knob exists for differential testing and the ``repro bench``
    #: speedup measurement.
    engine: str = "fast"

    def __post_init__(self) -> None:
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {self.algorithm!r}; choose from {_ALGORITHMS}"
            )
        if self.node_limit is not None and self.node_limit < 1:
            raise ValueError("node_limit must be >= 1 or None")
        if not 0.0 <= self.local_search_fraction < 1.0:
            raise ValueError("local_search_fraction must be in [0, 1)")
        if self.time_limit_seconds is not None and self.time_limit_seconds <= 0:
            raise ValueError("time_limit_seconds must be > 0 or None")
        engines = (*_ENGINES, "compiled")
        if self.engine not in engines:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {engines}"
            )

    # ------------------------------------------------------------------
    def search(self, problem: SearchProblem) -> SearchResult:
        """Run the search and return the best schedule found."""
        tree_budget = self.node_limit
        if self.node_limit is not None and self.local_search_fraction > 0.0:
            tree_budget = max(
                1, round(self.node_limit * (1.0 - self.local_search_fraction))
            )
        runner: Any
        if self.engine == "compiled":
            # Imported lazily: the wrapper falls back to _FastSearchRun
            # when the extension is absent or the search needs a facility
            # the kernel omits.
            from repro.core.ckernel import _CompiledSearchRun

            runner = _CompiledSearchRun(
                problem,
                self.algorithm,
                tree_budget,
                self.prune,
                self.record_anytime,
                self.time_limit_seconds,
            )
        else:
            runner = _ENGINES[self.engine](
                problem,
                self.algorithm,
                tree_budget,
                self.prune,
                self.record_anytime,
                self.time_limit_seconds,
            )
        result = runner.run()
        if self.local_search_fraction <= 0.0 or not result.best_order:
            return result
        # Spend what's left of the full budget on hill climbing.
        from repro.core.local_search import hill_climb

        remaining = (
            None
            if self.node_limit is None
            else max(0, self.node_limit - result.nodes_visited)
        )
        if remaining is not None and remaining < len(result.best_order) * 2:
            return result  # not enough budget for even one neighbour
        climb = hill_climb(problem, result.best_order, remaining)
        result.nodes_visited += climb.nodes_visited
        if climb.improved and climb.best_score < result.best_score:
            result.best_order = climb.best_order
            result.best_starts = climb.best_starts
            result.best_score = climb.best_score  # type: ignore[assignment]
            result.improved_after_first = True
            if result.anytime is not None:
                # The climb's improvement is part of the anytime story too:
                # it became known after all tree + climb visits so far.
                result.anytime.append((result.nodes_visited, result.best_score))
        return result


class _SearchRunBase:
    """Mutable state shared by both engines for one search invocation.

    The DFS threads an opaque accumulator ``acc`` down each path; the
    strategy closures (``_acc0``/``_extend``/``_score_of``/``_lower_of``)
    are bound in ``__init__`` to either the fast two-level path or the
    general criteria evaluator.  Subclasses implement ``_iterate`` — one
    full DFS for one discrepancy iteration.
    """

    def __init__(
        self,
        problem: SearchProblem,
        algorithm: str,
        node_limit: int | None,
        prune: bool,
        record_anytime: bool = False,
        time_limit_seconds: float | None = None,
    ) -> None:
        self.problem = problem
        self.algorithm = algorithm
        self.node_limit = node_limit
        self.prune = prune
        self.anytime: list[tuple[int, Score]] | None = (
            [] if record_anytime else None
        )
        self.time_limit_seconds = time_limit_seconds
        self._deadline: float | None = None
        if time_limit_seconds is not None:
            self._deadline = _wallclock.perf_counter() + time_limit_seconds

        self.nodes_visited = 0
        self.leaves_evaluated = 0
        self.iterations_started = 0
        self.limit_hit = False
        self.improved_after_first = False
        #: Budget-check invocations, counted independently of
        #: ``nodes_visited``: the wall-clock poll keys off this counter so
        #: batched node accounting (which advances ``nodes_visited`` in
        #: strides) can never skip every poll.
        self._checks = 0

        self.best_score: Score | None = None
        self.best_order: tuple[Job, ...] = ()
        self.best_starts: dict[int, float] = {}

        # Per-job planning runtimes, resolved once for the whole search.
        self._rt = resolve_runtimes(problem)
        self._now = problem.now
        self._prefix: list[tuple[Job, float]] = []
        self._acc0, self._extend, self._score_of, self._lower_of = build_strategy(
            problem, self._rt
        )

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        # n == 0 deliberately takes the normal path: ``max_discrepancies(0)
        # == 0`` so iteration 0 runs, evaluates the single (empty) leaf,
        # and the result honours every convention of the n >= 1 path —
        # ``iterations_started == 1``, ``leaves_evaluated == 1``, and an
        # anytime record when requested — instead of a bespoke early
        # return that bypassed ``_leaf`` entirely.
        n = len(self.problem.jobs)
        try:
            for iteration in range(0, max_discrepancies(n) + 1):
                self.iterations_started += 1
                self._iterate(iteration)
        except _StopSearch:
            self.limit_hit = True
        assert self.best_score is not None  # iteration 0 always completes
        return SearchResult(
            best_order=self.best_order,
            best_starts=self.best_starts,
            best_score=self.best_score,
            nodes_visited=self.nodes_visited,
            leaves_evaluated=self.leaves_evaluated,
            iterations_started=self.iterations_started,
            limit_hit=self.limit_hit,
            improved_after_first=self.improved_after_first,
            anytime=self.anytime,
        )

    def _iterate(self, iteration: int) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Shared node machinery
    # ------------------------------------------------------------------
    def _check_budget(self) -> None:
        """Raise once a budget is gone — but never during the first leaf."""
        if self.leaves_evaluated == 0:
            return  # the heuristic schedule always completes
        if self.node_limit is not None and self.nodes_visited >= self.node_limit:
            raise _StopSearch
        # The wall clock is polled sparsely: every 64 *checks*.  The poll
        # cadence must not key off ``nodes_visited`` — engines that batch
        # node accounting advance it in strides, and a strided counter
        # can miss every ``% 64 == 0`` residue and never poll at all.
        if self._deadline is not None:
            self._checks += 1
            if (self._checks & 63) == 0:
                if _wallclock.perf_counter() >= self._deadline:
                    raise _StopSearch

    def _leaf(self, acc: tuple[float, ...]) -> None:
        self.leaves_evaluated += 1
        score = self._score_of(acc, len(self._prefix))
        if self.best_score is None or score < self.best_score:
            if self.best_score is not None:
                self.improved_after_first = True
            self.best_score = score
            self.best_order = tuple(job for job, _ in self._prefix)
            self.best_starts = {job.job_id: start for job, start in self._prefix}
            if self.anytime is not None:
                self.anytime.append((self.nodes_visited, score))

    def _prune_child(self, acc: tuple[float, ...], left: int) -> bool:
        """Branch-and-bound: can this partial schedule still beat the best?"""
        if not self.prune or self.best_score is None:
            return False
        return not (self._lower_of(acc, left) < self.best_score)


class _ReferenceSearchRun(_SearchRunBase):
    """The original list-slicing DFS: the fast engine's executable spec.

    Each recursion level materialises the child's remaining-jobs list with
    an O(n) slice, and placements pay the reference profile's
    ``bisect``/``insert``/``del`` costs.  Kept verbatim so differential
    tests (and ``repro bench``) can hold the fast engine to bit-identical
    results and measure its speedup against the pre-optimisation baseline.
    """

    def __init__(
        self,
        problem: SearchProblem,
        algorithm: str,
        node_limit: int | None,
        prune: bool,
        record_anytime: bool = False,
        time_limit_seconds: float | None = None,
    ) -> None:
        super().__init__(
            problem, algorithm, node_limit, prune, record_anytime, time_limit_seconds
        )
        self.profile = problem.profile.copy()  # never mutate the caller's

    def _iterate(self, iteration: int) -> None:
        jobs = list(self.problem.jobs)
        if self.algorithm == "lds":
            self._dfs_lds(jobs, iteration, self._acc0)
        elif iteration == 0:
            # DDS iteration 0 == LDS iteration 0: heuristic path.
            self._dfs_lds(jobs, 0, self._acc0)
        else:
            self._dfs_dds(jobs, iteration, 1, self._acc0)

    def _visit(self, job: Job) -> tuple[object, float]:
        """Place ``job`` at its earliest start; returns (undo token, start)."""
        self.nodes_visited += 1
        rt = self._rt[job.job_id]
        start = self.profile.earliest_start(job.nodes, rt, self.problem.now)
        token = self.profile.reserve(start, rt, job.nodes, check=False)
        self._prefix.append((job, start))
        return token, start

    def _unvisit(self, token: object) -> None:
        self._prefix.pop()
        self.profile.release(token)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # LDS: iteration k explores paths with exactly k discrepancies.
    # ------------------------------------------------------------------
    def _dfs_lds(self, remaining: list[Job], k_left: int, acc: tuple[float, ...]) -> None:
        if not remaining:
            if k_left == 0:
                self._leaf(acc)
            return
        m = len(remaining)
        for idx in range(m):
            cost = 1 if idx > 0 else 0
            if cost > k_left:
                break
            if k_left - cost > max(0, m - 2):
                continue
            self._check_budget()
            job = remaining[idx]
            token, start = self._visit(job)
            try:
                new_acc = self._extend(acc, job, start)
                if not self._prune_child(new_acc, m - 1):
                    rest = remaining[:idx] + remaining[idx + 1 :]
                    self._dfs_lds(rest, k_left - cost, new_acc)
            finally:
                self._unvisit(token)

    # ------------------------------------------------------------------
    # DDS: iteration i forces a discrepancy at level i, allows anything
    # above, prohibits any below (levels are 1-based).
    # ------------------------------------------------------------------
    def _dfs_dds(
        self, remaining: list[Job], iteration: int, level: int, acc: tuple[float, ...]
    ) -> None:
        if not remaining:
            self._leaf(acc)
            return
        m = len(remaining)
        if level < iteration:
            indices = range(m)
        elif level == iteration:
            if m < 2:
                return  # no discrepancy possible; iteration covers nothing here
            indices = range(1, m)
        else:
            indices = range(1)
        for idx in indices:
            self._check_budget()
            job = remaining[idx]
            token, start = self._visit(job)
            try:
                new_acc = self._extend(acc, job, start)
                if not self._prune_child(new_acc, m - 1):
                    rest = remaining[:idx] + remaining[idx + 1 :]
                    self._dfs_dds(rest, iteration, level + 1, new_acc)
            finally:
                self._unvisit(token)


class _FastSearchRun(_SearchRunBase):
    """The allocation-free hot path.

    The remaining-jobs set is the problem's job tuple plus two flat index
    arrays (``_nxt``/``_prv``) linking the un-placed indices in heuristic
    order, with sentinel ``n``: choosing a job unlinks its index (O(1)),
    backtracking relinks it (O(1)), and no per-level list is ever built.
    The relative order of the remaining jobs — which defines what counts
    as a discrepancy — is preserved exactly, so the traversal visits the
    same (job, position) sequence as the reference engine.  Placements go
    through :class:`~repro.core.profile.SearchProfile.place`/``unplace``:
    one call per visit, no bisects, no token objects, no memmoves.

    For the paper's two-level objective (no custom evaluator) the run
    additionally specialises the whole per-node pipeline into a **delta
    kernel** (the ``*2`` methods; see ``docs/performance.md``):

    - the objective accumulators are two plain floats threaded down the
      recursion (``exc``/``slow``) instead of a tuple allocated per node;
      backtracking "undoes" a contribution by dropping the callee's
      locals, so the float association order is *exactly* the reference
      tuple fold's and bit-identity is preserved by construction;
    - per-job submit/nodes/runtime and the floor-clamped slowdown
      denominator live in flat :class:`~repro.core.deltascore.JobArrays`
      indexed by dense job index — no ``Job`` attribute reads or
      ``job_id``-keyed dict lookups per visit;
    - the path is a pair of preallocated arrays (``_path_i``/``_path_s``)
      written at the current depth — every leaf sits at depth n, so
      backtracking never needs to pop them;
    - heuristic-completion chains (``_chain2``) batch all remaining
      placements through :meth:`SearchProfile.place_run` bracketed by one
      ``checkpoint``/``rollback`` pair — no per-node budget-check calls
      (the allowance is computed up front), no undo frames, no linked-list
      unlink/relink (a chain never branches, so walking ``_nxt`` without
      mutating it is enough) — and score the tail with
      :func:`~repro.core.deltascore.fold_chain_terms` (numpy-vectorized
      above its crossover, pure-python fold below it).

    A custom ``problem.evaluator`` keeps the generic tuple-accumulator
    methods (``_chain``/``_dfs_lds``/``_dfs_dds``).
    """

    def __init__(
        self,
        problem: SearchProblem,
        algorithm: str,
        node_limit: int | None,
        prune: bool,
        record_anytime: bool = False,
        time_limit_seconds: float | None = None,
    ) -> None:
        super().__init__(
            problem, algorithm, node_limit, prune, record_anytime, time_limit_seconds
        )
        self.profile = problem.profile.search_view()
        n = len(problem.jobs)
        self._jobs = problem.jobs
        self._head = n
        self._nxt = list(range(1, n + 1)) + [0]
        self._prv = [n] + list(range(0, n))
        # Delta-kernel state (two-level objective only).
        self._ja: JobArrays | None = None
        self._omega = problem.omega
        self._path_i: list[int] = [0] * n
        self._path_s: list[float] = [0.0] * n
        self._sanitizing = self.profile.sanitizing
        if problem.evaluator is None:
            self._ja = JobArrays.build(
                problem.jobs, self._rt, problem.objective.slowdown_floor
            )
            self._sa_submit = self._ja.submit
            self._sa_nodes = self._ja.nodes
            self._sa_rt = self._ja.runtime
            self._sa_denom = self._ja.denom
        else:
            self._sa_submit = self._sa_rt = self._sa_denom = []
            self._sa_nodes = []

    def _iterate(self, iteration: int) -> None:
        n = len(self._jobs)
        if self._ja is not None:
            exc0, slow0 = self._acc0[0], self._acc0[1]
            if self.algorithm == "lds":
                self._dfs_lds2(n, iteration, exc0, slow0, 0)
            elif iteration == 0:
                # DDS iteration 0 == LDS iteration 0: heuristic path.
                self._dfs_lds2(n, 0, exc0, slow0, 0)
            else:
                self._dfs_dds2(n, iteration, 1, exc0, slow0, 0)
            return
        if self.algorithm == "lds":
            self._dfs_lds(n, iteration, self._acc0)
        elif iteration == 0:
            # DDS iteration 0 == LDS iteration 0: heuristic path.
            self._dfs_lds(n, 0, self._acc0)
        else:
            self._dfs_dds(n, iteration, 1, self._acc0)

    # ------------------------------------------------------------------
    # The delta kernel: two-level objective specialisations
    # ------------------------------------------------------------------
    def _leaf2(self, exc: float, slow: float, d: int) -> None:
        """Leaf evaluation fed by the delta accumulators and path arrays.

        ``d`` is the leaf depth — always the full job count, since every
        complete schedule places every job — and doubles as the score's
        ``n_jobs``.  The order/starts are only materialised on
        improvement, exactly like the generic ``_leaf``.
        """
        self.leaves_evaluated += 1
        best = self.best_score
        # Float-pair comparison, identical to ``ScheduleScore.__lt__``'s
        # lexicographic key compare but without allocating a score for the
        # (overwhelmingly common) non-improving leaf.
        if best is not None:
            b_exc = best.total_excessive_wait
            if exc > b_exc or (exc == b_exc and slow >= best.total_slowdown):
                return
            self.improved_after_first = True
        score = ScheduleScore(exc, slow, d)
        self.best_score = score
        jobs, path_i, path_s = self._jobs, self._path_i, self._path_s
        order = tuple(jobs[path_i[p]] for p in range(d))
        self.best_order = order
        self.best_starts = {order[p].job_id: path_s[p] for p in range(d)}
        if self.anytime is not None:
            self.anytime.append((self.nodes_visited, score))

    def _prune_child2(self, exc: float, slow: float, left: int) -> bool:
        """`_prune_child` on the delta accumulators (same lower bound:
        each unplaced job adds >= 0 excess and >= 1 slowdown)."""
        best = self.best_score
        if best is None:
            return False
        b_exc = best.total_excessive_wait
        if exc > b_exc:
            return True
        if exc < b_exc:
            return False
        return slow + left >= best.total_slowdown

    def _chain_allowance(self, m: int) -> int:
        """How many of the next ``m`` chain placements the budget allows,
        committed as one batch with accounting applied once; -1 demands
        the per-node slow path (wall-clock deadline polling).

        Mirrors ``_check_budget`` exactly: no limit or the first leaf
        still pending allows everything; otherwise the batch is clamped
        to the visits left, and the caller raises ``_StopSearch`` after
        committing a short batch — the same state the serial per-node
        check sequence reaches, at a fraction of the cost.
        """
        if self._deadline is not None:
            return -1
        limit = self.node_limit
        if limit is None or self.leaves_evaluated == 0:
            return m
        left = limit - self.nodes_visited
        if left >= m:
            return m
        return left if left > 0 else 0

    def _chain2(self, m: int, exc: float, slow: float, d: int) -> None:
        """Heuristic completion, batched: the delta kernel's `_chain`.

        A chain never branches, so the linked list is walked without
        unlink/relink, placements commit through ``place_run`` with one
        ``checkpoint``/``rollback`` bracket instead of ``m`` undo frames,
        and the tail's objective terms fold in one pass.
        """
        if m == 0:
            self._leaf2(exc, slow, d)
            return
        if self.prune or self._sanitizing:
            # Pruning needs per-step bound checks; the sanitizer needs
            # per-mutation invariant checks.  Both take the per-node path.
            self._chain2_slow(m, exc, slow, d)
            return
        k = self._chain_allowance(m)
        if k < 0:
            self._chain2_slow(m, exc, slow, d)
            return
        if k == 0:
            raise _StopSearch  # budget gone before the first placement
        if k < m:
            # Truncated chain: the k placements would be rolled back
            # unread (no leaf is reached, starts are never consulted), so
            # only the node accounting is observable.  Commit it and stop
            # exactly where the serial per-node sequence stops: k
            # placements visited, the (k+1)-th check raises.
            self.nodes_visited += k
            raise _StopSearch
        ja = self._ja
        assert ja is not None  # callers dispatch on it
        nxt, path_i, path_s = self._nxt, self._path_i, self._path_s
        i = self._head
        for p in range(d, d + k):
            i = nxt[i]
            path_i[p] = i
        profile = self.profile
        ck = profile.checkpoint()
        try:
            self.nodes_visited += k
            # Attribute read, not an import-time binding: tests and the
            # REPRO_CHAIN_VECTOR_MIN override retune the crossover live.
            if k >= deltascore.CHAIN_VECTOR_MIN:
                profile.place_run(
                    path_i, d, k, self._sa_nodes, self._sa_rt, self._now, path_s
                )
                exc, slow = fold_chain_terms(
                    exc, slow, path_i, path_s, d, k, ja, self._omega
                )
            else:
                # Short chains fold inside the placement loop itself —
                # ``place_run_fold`` performs the same float ops in the
                # same order as ``place_run`` + the scalar fold, saving a
                # second pass over the path arrays per leaf.
                exc, slow = profile.place_run_fold(
                    path_i,
                    d,
                    k,
                    self._sa_nodes,
                    self._sa_rt,
                    self._now,
                    path_s,
                    self._sa_submit,
                    self._sa_denom,
                    self._omega,
                    exc,
                    slow,
                )
            self._leaf2(exc, slow, d + k)
        finally:
            profile.rollback(ck)

    def _chain2_slow(self, m: int, exc: float, slow: float, d: int) -> None:
        """Per-node chain for the cases batching must not paper over:
        wall-clock deadlines (poll cadence), pruning (per-step bounds),
        and the sanitizer (per-mutation checks).
        Still delta-scored and unlink-free; undo is one rollback."""
        nxt = self._nxt
        submit, denom = self._sa_submit, self._sa_denom
        nodes_a, rt_a = self._sa_nodes, self._sa_rt
        place = self.profile.place
        path_i, path_s = self._path_i, self._path_s
        omega, now = self._omega, self._now
        prune = self.prune
        i = self._head
        p, end = d, d + m
        ck = self.profile.checkpoint()
        try:
            while p < end:
                self._check_budget()
                i = nxt[i]
                self.nodes_visited += 1
                start = place(nodes_a[i], rt_a[i], now)
                path_i[p] = i
                path_s[p] = start
                wait = start - submit[i]
                e = wait - omega
                if e > 0.0:
                    exc += e
                den = denom[i]
                slow += (wait + den) / den
                p += 1
                if prune and self._prune_child2(exc, slow, end - p):
                    return
            self._leaf2(exc, slow, end)
        finally:
            self.profile.rollback(ck)

    # ------------------------------------------------------------------
    # LDS (delta kernel): iteration k explores paths with exactly k
    # discrepancies.  Same traversal as ``_dfs_lds`` below, with the
    # accumulator threaded as two floats and the path in flat arrays.
    # ------------------------------------------------------------------
    def _dfs_lds2(
        self, m: int, k_left: int, exc: float, slow: float, d: int
    ) -> None:
        if k_left == 0:
            # No discrepancies left: only the heuristic completion remains.
            self._chain2(m, exc, slow, d)
            return
        if m == 0:
            return  # budget k_left > 0 unspent: not a valid leaf
        nxt, prv = self._nxt, self._prv
        submit, denom = self._sa_submit, self._sa_denom
        nodes_a, rt_a = self._sa_nodes, self._sa_rt
        place, unplace = self.profile.place, self.profile.unplace
        path_i, path_s = self._path_i, self._path_s
        omega, now = self._omega, self._now
        prune = self.prune
        check_budget = self._check_budget
        cap = m - 2 if m > 2 else 0  # == max(0, m - 2)
        i = nxt[self._head]
        for idx in range(m):
            if idx:
                if k_left < 1:  # a discrepancy costs 1 we don't have
                    break
                child_k = k_left - 1
            else:
                child_k = k_left
            if child_k <= cap:  # enough levels left to spend child_k
                check_budget()
                pi, ni = prv[i], nxt[i]
                nxt[pi] = ni
                prv[ni] = pi
                self.nodes_visited += 1
                start = place(nodes_a[i], rt_a[i], now)
                path_i[d] = i
                path_s[d] = start
                try:
                    wait = start - submit[i]
                    e = wait - omega
                    nexc = exc + e if e > 0.0 else exc
                    den = denom[i]
                    nslow = slow + (wait + den) / den
                    if not prune or not self._prune_child2(nexc, nslow, m - 1):
                        self._dfs_lds2(m - 1, child_k, nexc, nslow, d + 1)
                finally:
                    unplace()
                    nxt[pi] = i
                    prv[ni] = i
                i = ni
            else:
                i = nxt[i]

    # ------------------------------------------------------------------
    # DDS (delta kernel): iteration i forces a discrepancy at level i,
    # allows anything above, prohibits any below (levels are 1-based).
    # ------------------------------------------------------------------
    def _dfs_dds2(
        self, m: int, iteration: int, level: int, exc: float, slow: float, d: int
    ) -> None:
        if level > iteration:
            # Below the discrepancy level only the heuristic child is
            # allowed, all the way down: run the batched chain.
            self._chain2(m, exc, slow, d)
            return
        if m == 0:
            self._leaf2(exc, slow, d)
            return
        if level < iteration:
            lo, hi = 0, m
        else:  # level == iteration
            if m < 2:
                return  # no discrepancy possible; iteration covers nothing here
            lo, hi = 1, m
        nxt, prv = self._nxt, self._prv
        submit, denom = self._sa_submit, self._sa_denom
        nodes_a, rt_a = self._sa_nodes, self._sa_rt
        place, unplace = self.profile.place, self.profile.unplace
        path_i, path_s = self._path_i, self._path_s
        omega, now = self._omega, self._now
        prune = self.prune
        check_budget = self._check_budget
        i = nxt[self._head]
        for _ in range(lo):
            i = nxt[i]
        for _pos in range(lo, hi):
            check_budget()
            pi, ni = prv[i], nxt[i]
            nxt[pi] = ni
            prv[ni] = pi
            self.nodes_visited += 1
            start = place(nodes_a[i], rt_a[i], now)
            path_i[d] = i
            path_s[d] = start
            try:
                wait = start - submit[i]
                e = wait - omega
                nexc = exc + e if e > 0.0 else exc
                den = denom[i]
                nslow = slow + (wait + den) / den
                if not prune or not self._prune_child2(nexc, nslow, m - 1):
                    self._dfs_dds2(m - 1, iteration, level + 1, nexc, nslow, d + 1)
            finally:
                unplace()
                nxt[pi] = i
                prv[ni] = i
            i = ni

    # ------------------------------------------------------------------
    def _chain(self, m: int, acc: tuple[float, ...]) -> None:
        """Heuristic completion: place the ``m`` remaining jobs first-child
        all the way down, as a loop instead of ``m`` recursion frames.

        Both algorithms bottom out here — DDS below its discrepancy level
        and LDS once its discrepancy budget is spent permit only the
        heuristic-order child — and these chains carry most of the node
        visits at practical budgets, so they are worth the tight loop.
        Node accounting, budget checks, pruning, and the leaf evaluation
        are exactly the recursive engine's.
        """
        nxt, prv = self._nxt, self._prv
        jobs, rt = self._jobs, self._rt
        place, unplace = self.profile.place, self.profile.unplace
        prefix, extend, now = self._prefix, self._extend, self._now
        prune = self.prune
        head = self._head
        chain: list[int] = []
        try:
            pruned = False
            while m:
                self._check_budget()
                i = nxt[head]
                job = jobs[i]
                ni = nxt[i]
                nxt[head] = ni
                prv[ni] = head
                self.nodes_visited += 1
                start = place(job.nodes, rt[job.job_id], now)
                prefix.append((job, start))
                chain.append(i)
                acc = extend(acc, job, start)
                m -= 1
                if prune and self._prune_child(acc, m):
                    pruned = True
                    break
            if not pruned:
                self._leaf(acc)
        finally:
            for i in reversed(chain):
                prefix.pop()
                unplace()
                prv[nxt[i]] = i
                nxt[head] = i

    # ------------------------------------------------------------------
    # LDS: iteration k explores paths with exactly k discrepancies.
    # ------------------------------------------------------------------
    def _dfs_lds(self, m: int, k_left: int, acc: tuple[float, ...]) -> None:
        if k_left == 0:
            # No discrepancies left: only the heuristic completion remains.
            self._chain(m, acc)
            return
        if m == 0:
            return  # budget k_left > 0 unspent: not a valid leaf
        nxt, prv = self._nxt, self._prv
        jobs, rt = self._jobs, self._rt
        place, unplace = self.profile.place, self.profile.unplace
        prefix, extend, now = self._prefix, self._extend, self._now
        prune = self.prune
        cap = m - 2 if m > 2 else 0  # == max(0, m - 2)
        i = nxt[self._head]
        for idx in range(m):
            if idx:
                if k_left < 1:  # a discrepancy costs 1 we don't have
                    break
                child_k = k_left - 1
            else:
                child_k = k_left
            if child_k <= cap:  # enough levels left to spend child_k
                self._check_budget()
                job = jobs[i]
                pi, ni = prv[i], nxt[i]
                nxt[pi] = ni
                prv[ni] = pi
                self.nodes_visited += 1
                start = place(job.nodes, rt[job.job_id], now)
                prefix.append((job, start))
                try:
                    new_acc = extend(acc, job, start)
                    if not prune or not self._prune_child(new_acc, m - 1):
                        self._dfs_lds(m - 1, child_k, new_acc)
                finally:
                    prefix.pop()
                    unplace()
                    nxt[pi] = i
                    prv[ni] = i
                i = ni
            else:
                i = nxt[i]

    # ------------------------------------------------------------------
    # DDS: iteration i forces a discrepancy at level i, allows anything
    # above, prohibits any below (levels are 1-based).
    # ------------------------------------------------------------------
    def _dfs_dds(
        self, m: int, iteration: int, level: int, acc: tuple[float, ...]
    ) -> None:
        if level > iteration:
            # Below the discrepancy level only the heuristic child is
            # allowed, all the way down: run the chain as a loop.
            self._chain(m, acc)
            return
        if m == 0:
            self._leaf(acc)
            return
        if level < iteration:
            lo, hi = 0, m
        else:  # level == iteration
            if m < 2:
                return  # no discrepancy possible; iteration covers nothing here
            lo, hi = 1, m
        nxt, prv = self._nxt, self._prv
        jobs, rt = self._jobs, self._rt
        place, unplace = self.profile.place, self.profile.unplace
        prefix, extend, now = self._prefix, self._extend, self._now
        prune = self.prune
        i = nxt[self._head]
        for _ in range(lo):
            i = nxt[i]
        for _pos in range(lo, hi):
            self._check_budget()
            job = jobs[i]
            pi, ni = prv[i], nxt[i]
            nxt[pi] = ni
            prv[ni] = pi
            self.nodes_visited += 1
            start = place(job.nodes, rt[job.job_id], now)
            prefix.append((job, start))
            try:
                new_acc = extend(acc, job, start)
                if not prune or not self._prune_child(new_acc, m - 1):
                    self._dfs_dds(m - 1, iteration, level + 1, new_acc)
            finally:
                prefix.pop()
                unplace()
                nxt[pi] = i
                prv[ni] = i
            i = ni


#: Engine name -> run class (the ``DiscrepancySearch.engine`` knob).
#: ``"compiled"`` is dispatched separately (its runner lives in
#: :mod:`repro.core.ckernel` and falls back to ``"fast"``).
_ENGINES: dict[str, type[_SearchRunBase]] = {
    "fast": _FastSearchRun,
    "reference": _ReferenceSearchRun,
}

