"""The conformance harness: every oracle the differential tests share.

Three oracle layers validate the search engines (see ``docs/testing.md``):

1. **Optimality** — :func:`optimal_score` wraps the exact solver
   (:mod:`repro.core.exact`): no engine may ever return a score *below*
   it, and an exhaustive run must return exactly it.
2. **Bit-identity** — :func:`fingerprint` projects a ``SearchResult``
   onto every field of the engines' bit-identity contract;
   :class:`RecordingSearcher` + :func:`replay_workload` extend the check
   from one decision to every decision of a month-long simulation.
3. **Instance generation** — :func:`instance_specs` (a Hypothesis
   strategy over :class:`InstanceSpec`, shrink-friendly) for fuzzing, and
   the fixed :func:`build_problem` decision point (re-exported from
   :mod:`repro.experiments.bench`) for head-to-head tests.

``test_search_fastpath.py``, ``test_compiled_kernel.py``,
``test_engine_conformance.py`` and ``test_exact.py`` all draw from here —
one definition of "identical" and one of "optimal", not four.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from hypothesis import strategies as st

from repro.core.branching import order_jobs
from repro.core.ckernel import have_compiled
from repro.core.exact import solve_exact
from repro.core.objective import FixedBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.scheduler import SearchSchedulingPolicy
from repro.core.search import DiscrepancySearch, Score, SearchProblem, SearchResult
from repro.experiments.bench import build_problem
from repro.simulator.engine import Simulation
from repro.simulator.job import Job
from repro.util.timeunits import HOUR

__all__ = [
    "build_problem",
    "CONFORMANCE_ENGINES",
    "fingerprint",
    "instance_specs",
    "InstanceSpec",
    "optimal_score",
    "RecordingSearcher",
    "replay_workload",
]

#: Every engine the differential tests hold to the bit-identity contract,
#: resolved once for the whole suite.  The compiled kernel joins only
#: when its extension is importable: without it ``engine="compiled"``
#: silently falls back to ``"fast"``, which would make its inclusion
#: vacuous rather than wrong (the fallback itself is covered explicitly
#: in ``test_compiled_kernel.py``).
CONFORMANCE_ENGINES: tuple[str, ...] = ("fast", "reference") + (
    ("compiled",) if have_compiled() else ()
)


def fingerprint(result: SearchResult) -> tuple[Any, ...]:
    """Every field of the engines' bit-identity contract, as one tuple."""
    return (
        tuple(j.job_id for j in result.best_order),
        tuple(sorted(result.best_starts.items())),
        result.best_score,
        result.nodes_visited,
        result.leaves_evaluated,
        result.iterations_started,
        result.limit_hit,
        result.improved_after_first,
        # ``None`` unless the search ran with ``record_anytime=True``;
        # when recorded, the improvement trace — every (nodes_visited,
        # score) step — must also match across engines.
        None if result.anytime is None else tuple(result.anytime),
    )


def optimal_score(problem: SearchProblem, max_jobs: int = 10) -> Score:
    """The provably optimal score for ``problem`` (exact-solver oracle)."""
    return solve_exact(problem, max_jobs=max_jobs).best_score


class RecordingSearcher:
    """Wraps a ``DiscrepancySearch`` and fingerprints every decision."""

    def __init__(self, searcher: DiscrepancySearch) -> None:
        self._searcher = searcher
        self.decisions: list[tuple[Any, ...]] = []

    def __getattr__(self, name: str) -> Any:
        return getattr(self._searcher, name)

    def search(self, problem: SearchProblem) -> SearchResult:
        result = self._searcher.search(problem)
        self.decisions.append(fingerprint(result))
        return result


def replay_workload(
    engine: str,
    algorithm: str = "dds",
    heuristic: str = "lxf",
    node_limit: int = 300,
    month: str = "2003-07",
    seed: int = 11,
    scale: float = 0.02,
) -> tuple[list[tuple[Any, ...]], Any]:
    """Replay a scaled synthetic month, fingerprinting every decision.

    Returns ``(decisions, simulation_result)`` — compare both across
    engines: the decisions prove per-decision bit-identity, the result
    proves nothing downstream diverged either.
    """
    from repro.workloads.synthetic import generate_month

    workload = generate_month(month, seed=seed, scale=scale)
    policy = SearchSchedulingPolicy(
        algorithm=algorithm,
        heuristic=heuristic,
        node_limit=node_limit,
        engine=engine,
    )
    recorder = RecordingSearcher(policy.searcher)
    policy.searcher = recorder  # type: ignore[assignment]
    result = Simulation(
        workload.fresh_jobs(), policy, workload.cluster, window=workload.window
    ).run()
    return recorder.decisions, result


# ----------------------------------------------------------------------
# Random small instances (Hypothesis)
# ----------------------------------------------------------------------
#: All decision points happen at this instant; submits lie at or before it
#: and the profile's origin sits exactly on it (mirrors ``build_problem``).
NOW = 4.0 * HOUR


@dataclass(frozen=True)
class InstanceSpec:
    """A small decision point as plain data — the fuzzer's draw unit.

    Times are plain numbers of seconds, so a shrunk failing example
    prints as something a human can re-type into a regression test
    verbatim.  ``jobs`` rows are ``(submit_time, nodes, runtime)`` with
    ``submit_time <= NOW``; ``segments`` rows are ``(time, free)``
    availability breakpoints — the first at ``NOW``, strictly increasing,
    the machine back to full capacity at the last one, exactly the
    :meth:`AvailabilityProfile.from_segments` contract.
    """

    capacity: int
    jobs: tuple[tuple[float, int, float], ...]
    segments: tuple[tuple[float, int], ...]
    omega: float
    heuristic: str

    def to_problem(self) -> SearchProblem:
        jobs = []
        for i, (submit, nodes, runtime) in enumerate(self.jobs):
            job = Job(
                job_id=i, submit_time=float(submit), nodes=nodes, runtime=float(runtime)
            )
            job.mark_waiting()
            jobs.append(job)
        profile = AvailabilityProfile.from_segments(
            self.capacity, [(float(t), f) for t, f in self.segments]
        )
        ordered = order_jobs(jobs, self.heuristic, NOW)
        return SearchProblem(
            jobs=tuple(ordered),
            profile=profile,
            now=NOW,
            omega=float(self.omega),
            objective=ObjectiveConfig(bound=FixedBound(float(self.omega))),
        )


@st.composite
def instance_specs(
    draw: st.DrawFn, min_jobs: int = 1, max_jobs: int = 6
) -> InstanceSpec:
    """Random :class:`InstanceSpec` values, sized for the exact solver.

    Integer-valued times (whole seconds) keep shrunk examples readable
    and make every instance eligible for the CP-SAT backend; the
    ``TIME_EPS`` boundary behaviour gets dedicated deterministic
    regressions in ``test_exact.py`` instead of relying on the fuzzer
    stumbling onto a half-nanosecond tie.
    """
    capacity = draw(st.integers(min_value=2, max_value=16))
    n = draw(st.integers(min_value=min_jobs, max_value=max_jobs))
    jobs = tuple(
        (
            float(draw(st.integers(min_value=0, max_value=int(NOW)))),
            draw(st.integers(min_value=1, max_value=capacity)),
            float(draw(st.integers(min_value=60, max_value=12 * 3600))),
        )
        for _ in range(n)
    )
    # A machine recovering to full capacity over 0..3 breakpoints after
    # NOW: strictly increasing times, non-decreasing free counts ending
    # at ``capacity`` (the from_segments contract).
    k = draw(st.integers(min_value=0, max_value=3))
    if k:
        offsets = sorted(
            draw(
                st.lists(
                    st.integers(min_value=1, max_value=9 * 3600),
                    min_size=k,
                    max_size=k,
                    unique=True,
                )
            )
        )
        frees = sorted(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=capacity),
                    min_size=k,
                    max_size=k,
                )
            )
        )
        segments = tuple([(NOW, frees[0])]) + tuple(
            (NOW + float(off), free) for off, free in zip(offsets, frees[1:])
        ) + ((NOW + float(offsets[-1]) + HOUR, capacity),)
    else:
        segments = ((NOW, capacity),)
    omega = float(draw(st.sampled_from([900, 3600, 7200])))
    heuristic = draw(st.sampled_from(["fcfs", "lxf", "sjf"]))
    return InstanceSpec(
        capacity=capacity, jobs=jobs, segments=segments, omega=omega, heuristic=heuristic
    )
