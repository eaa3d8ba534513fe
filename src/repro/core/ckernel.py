"""Optional compiled search kernel: probe, wrapper, and silent fallback.

``engine="compiled"`` routes a search through ``repro.core._ckernel`` — a
C transcription of the fast engine's delta kernel (the DFS loops, the
fused chain place+fold, and the flat-array ``SearchProfile``).  This
module is the boundary that keeps the pure-python engines the single
source of truth:

- :func:`have_compiled` probes for the built extension, mirroring the
  optional-ortools pattern of :mod:`repro.core.exact`;
- :class:`_CompiledSearchRun` mirrors the engine runner API and
  **silently falls back** to ``engine="fast"`` whenever the kernel is
  absent or the search needs a facility the kernel deliberately omits
  (wall-clock deadlines, custom criteria evaluators, the runtime
  sanitizer's per-mutation checks) — the results are bit-identical
  either way, so the fallback is unobservable except in wall time.

Build it with ``pip install -e .[compiled]`` or, for a ``PYTHONPATH=src``
checkout, ``python setup.py build_ext --inplace`` (see
``docs/performance.md``).  The extension is declared ``optional``: a
missing C toolchain degrades the install to pure python, never fails it.

Bit-identity (same ``SearchResult`` bits as ``engine="fast"`` at any
node budget, including the anytime trace) is enforced by the oracle
fingerprints and the Hypothesis engine-conformance fuzzer in
``tests/``; the kernel is never trusted beyond what those pin down.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any

from repro.core.deltascore import JobArrays
from repro.core.objective import ScheduleScore
from repro.util.sanitize import sanitize_enabled
from repro.util.timeunits import TIME_EPS

if TYPE_CHECKING:  # pragma: no cover - type-only imports
    from repro.core.search import SearchProblem, SearchResult

try:  # the extension is an optional build artifact
    from repro.core import _ckernel as _impl
except Exception:  # pragma: no cover - exercised on pure-python installs
    _impl = None  # type: ignore[assignment]


def have_compiled() -> bool:
    """Whether the compiled search kernel is importable in this install."""
    return _impl is not None


def pure_python_requested() -> bool:
    """Whether ``REPRO_PURE_PYTHON=1`` opts this process out of the kernel."""
    return os.environ.get("REPRO_PURE_PYTHON", "").strip() == "1"


def default_engine() -> str:
    """The sequential engine a policy should default to in this install.

    ``"compiled"`` when the extension is importable — results are
    bit-identical to ``"fast"`` by the conformance harness, so the faster
    engine is safe to prefer — and ``"fast"`` otherwise, or when the
    ``REPRO_PURE_PYTHON=1`` escape hatch asks for the pure-python path
    (debugging, profiling the reference implementation, bisecting a
    suspected kernel discrepancy).  Read at policy-construction time, so
    tests can flip the environment per policy.
    """
    if have_compiled() and not pure_python_requested():
        return "compiled"
    return "fast"


def _kernel_eligible(problem: "SearchProblem", time_limit_seconds: float | None) -> bool:
    """Can this search run in the C kernel with bit-identical results?

    Anything the kernel deliberately omits routes to the fast engine:
    wall-clock deadlines (sparse poll cadence), custom evaluators
    (arbitrary Python accumulators), sanitized runs (per-mutation Python
    invariant checks), and malformed inputs whose error behaviour the
    pure engines define (over-capacity jobs, a profile without its
    all-free tail segment).
    """
    if _impl is None:
        return False
    if time_limit_seconds is not None:
        return False
    if problem.evaluator is not None:
        return False
    if sanitize_enabled():
        return False
    profile = problem.profile
    if not profile.free or profile.free[-1] != profile.capacity:
        return False
    capacity = profile.capacity
    return all(job.nodes <= capacity for job in problem.jobs)


def _job_arrays(problem: "SearchProblem") -> JobArrays:
    runtimes = problem.runtimes
    if runtimes is None:
        from repro.core.search import resolve_runtimes

        runtimes = resolve_runtimes(problem)
    try:
        return JobArrays.build(
            problem.jobs, runtimes, problem.objective.slowdown_floor
        )
    except KeyError:
        missing = sorted(
            {j.job_id for j in problem.jobs if j.job_id not in runtimes}
        )
        raise ValueError(f"runtimes missing for jobs {missing}") from None


def _as_list(seq: Any) -> list[Any]:
    """``seq`` itself when it is already a list (the kernel copies it
    before searching), else a list copy."""
    return seq if isinstance(seq, list) else list(seq)


def _anytime_scores(
    raw: list[tuple[int, float, float, int]] | None,
) -> list[tuple[int, ScheduleScore]] | None:
    if raw is None:
        return None
    return [(nodes, ScheduleScore(exc, slow, d)) for nodes, exc, slow, d in raw]


class _CompiledSearchRun:
    """``engine="compiled"`` runner: C kernel when possible, fast engine
    otherwise.  Same constructor/``run()`` surface as the engine classes
    in :mod:`repro.core.search`."""

    def __init__(
        self,
        problem: "SearchProblem",
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
        self.record_anytime = record_anytime
        self.time_limit_seconds = time_limit_seconds

    def run(self) -> "SearchResult":
        problem = self.problem
        if not _kernel_eligible(problem, self.time_limit_seconds):
            # Silent fallback: bit-identical results, pure-python speed.
            from repro.core.search import _FastSearchRun

            return _FastSearchRun(
                problem,
                self.algorithm,
                self.node_limit,
                self.prune,
                self.record_anytime,
                self.time_limit_seconds,
            ).run()
        from repro.core.search import SearchResult

        ja = _job_arrays(problem)
        assert _impl is not None  # _kernel_eligible checked
        (
            b_exc,
            b_slow,
            b_d,
            idxs,
            starts,
            nodes_visited,
            leaves,
            iterations,
            limit_hit,
            improved,
            anytime,
        ) = _impl.run_search(
            1 if self.algorithm == "lds" else 0,
            -1 if self.node_limit is None else self.node_limit,
            1 if self.prune else 0,
            1 if self.record_anytime else 0,
            problem.profile.capacity,
            TIME_EPS,
            _as_list(problem.profile.times),
            _as_list(problem.profile.free),
            ja.submit,
            ja.nodes,
            ja.runtime,
            ja.denom,
            problem.now,
            problem.omega,
        )
        jobs = problem.jobs
        order = tuple(jobs[i] for i in idxs)
        return SearchResult(
            best_order=order,
            best_starts={
                order[p].job_id: starts[p] for p in range(len(order))
            },
            best_score=ScheduleScore(b_exc, b_slow, b_d),
            nodes_visited=nodes_visited,
            leaves_evaluated=leaves,
            iterations_started=iterations,
            limit_hit=bool(limit_hit),
            improved_after_first=bool(improved),
            anytime=_anytime_scores(anytime),
        )

