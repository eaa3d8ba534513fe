"""Correctness gates, run outside every timed window.

- :class:`ResolveGate` re-solves a seeded sample of a run's searches with
  the pure-python ``reference`` engine and requires the same best order,
  starts, score and ``nodes_visited`` as the engine the policy used.  It
  also counts how many searches reached the compiled kernel.
- :func:`schedule_diff` compares two schedules as job id -> start time.
"""

from __future__ import annotations

import contextlib
import dataclasses
from typing import Any, Iterable, Iterator

from repro.core import ckernel
from repro.core.search import DiscrepancySearch, SearchProblem, SearchResult
from repro.simulator.job import Job
from repro.util.rng import RngStream


class ResolveGate:
    """Checks sampled searches against the reference engine.

    Each search is sampled with ``probability``, drawn from a stream of
    ``seed``, so a seed fixes the sampled decision points.
    """

    def __init__(self, seed: int, probability: float) -> None:
        self.rng = RngStream(seed, "perfbench/resolve-gate")
        self.probability = probability
        self.searches = 0
        self.kernel_calls = 0
        self.checked = 0
        self.mismatches: list[str] = []

    @property
    def fallback_frac(self) -> float:
        """Share of searches that never reached the compiled kernel."""
        if not self.searches:
            return 0.0
        return (self.searches - self.kernel_calls) / self.searches

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        search = DiscrepancySearch.__dict__["search"]
        impl = ckernel._impl

        def counted_run_search(*args: Any) -> Any:
            self.kernel_calls += 1
            return impl.run_search(*args)

        def checked_search(searcher: DiscrepancySearch, problem: SearchProblem) -> SearchResult:
            result = search(searcher, problem)
            self.searches += 1
            if self.rng.uniform() < self.probability:
                reference = search(dataclasses.replace(searcher, engine="reference"), problem)
                self._compare(problem, result, reference)
            return result

        proxy = KernelProxy(impl, counted_run_search) if impl is not None else None
        DiscrepancySearch.search = checked_search  # type: ignore[method-assign]
        ckernel._impl = proxy
        try:
            yield
        finally:
            DiscrepancySearch.search = search  # type: ignore[method-assign]
            ckernel._impl = impl

    def _compare(self, problem: SearchProblem, got: SearchResult, ref: SearchResult) -> None:
        self.checked += 1
        fields = {
            "best order": (
                [job.job_id for job in got.best_order],
                [job.job_id for job in ref.best_order],
            ),
            "starts": (got.best_starts, ref.best_starts),
            "score": (got.best_score, ref.best_score),
            "nodes_visited": (got.nodes_visited, ref.nodes_visited),
        }
        for field, (a, b) in fields.items():
            if a != b:
                self.mismatches.append(
                    f"search at t={problem.now} ({len(problem.jobs)} jobs): "
                    f"{field} differs from the reference engine"
                )


class KernelProxy:
    """Stands in for the ``_ckernel`` module with a wrapped ``run_search``."""

    def __init__(self, impl: Any, run_search: Any) -> None:
        self._impl = impl
        self.run_search = run_search

    def __getattr__(self, attr: str) -> Any:
        return getattr(self._impl, attr)


def starts_of(jobs: Iterable[Job]) -> "dict[int, float]":
    """Job id -> start time of every started job."""
    return {job.job_id: job.start_time for job in jobs if job.start_time is not None}


def schedule_diff(got: "dict[int, float]", want: "dict[int, float]") -> int:
    """Number of jobs whose start differs (or that only one side started)."""
    return sum(1 for job_id in got.keys() | want.keys() if got.get(job_id) != want.get(job_id))
