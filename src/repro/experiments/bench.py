"""Search hot-path benchmark: the ``BENCH_search.json`` perf trajectory.

The scheduler's cost is dominated by the per-decision discrepancy search
(the paper's §2.3 overhead measurement), so this module times exactly that
operation: one node-limited search over a fixed 30-job decision point on a
partially busy 128-node machine — the same scenario as
``benchmarks/bench_overhead.py`` — for the paper's two flagship policies
(``DDS/lxf/dynB`` and ``LDS/fcfs/dynB``) at L ∈ {1K, 10K, 100K}.

Each configuration is timed for:

- both serial search engines (the allocation-free ``"fast"`` hot path and
  the ``"reference"`` executable spec; see :mod:`repro.core.search`),
  asserted bit-identical — a perf number measured against a wrong result
  is worthless;
- a ``prune=True`` ablation of the fast engine, measuring what the
  branch-and-bound extension buys (no identity assert: pruning legitimately
  changes node accounting);
- the ``"compiled"`` engine when the optional C kernel is importable
  (``repro.core.ckernel.have_compiled``), asserted bit-identical to
  ``"fast"`` — reports record an honest ``compiled_available`` flag so a
  pure-python report is never mistaken for a compiled one.

The report records nodes/sec and wall seconds per decision per row, plus
per-config speedup ratios: ``fast`` over ``reference``, ``prune`` over
``fast``, and ``compiled`` over ``reference`` (the compiled floor, ``COMPILED_FLOOR_RATIO`` in
``benchmarks/bench_search_hotpath.py``, is stated against the reference
spec).  A ``queue_length`` section times the reference and
compiled engines on DDS/lxf at L = 10K over longer queues
(:data:`QUEUE_LENGTHS` jobs, ``build_problem(n_jobs=...)``), because the
kernel's nodes/sec falls as the queue and its profile grow.  A final
``e2e`` section replays the first :data:`E2E_DECISIONS` decision points
of a real simulated month and records whole-run decisions/sec per
engine, so kernel wins are measured end-to-end and not just in the raw
node loop.

``repro bench`` writes the report to ``BENCH_search.json`` at the repo
root so future perf PRs have a committed baseline to beat; the
``bench-smoke`` CI job regenerates it with ``--quick`` on every push.
"""

from __future__ import annotations

import platform
import sys
import time
from pathlib import Path
from typing import Any, Callable

from repro.core.branching import order_jobs
from repro.core.ckernel import have_compiled
from repro.core.objective import DynamicBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.search import DiscrepancySearch, SearchProblem, SearchResult
from repro.simulator.job import Job
from repro.util.atomio import atomic_write_json
from repro.util.rng import RngStream
from repro.util.timeunits import HOUR

#: Report format version (bump on incompatible layout changes).
#: v2: per-row ``prune``/worker-count fields, parallel-engine rows,
#: prune-ablation rows, and the new speedup key families.
#: v3: honest ``compiled_available`` field, compiled-engine rows and the
#: ``:compiled`` speedup family (present only when the extension is
#: built), and the end-to-end ``e2e`` decisions/sec section (simulator
#: replay, not just the raw node loop) with its own tolerance band.
#: v4: the ``queue_length`` rows and their ``queue_speedups`` ratios.
#: v5: the parallel-engine rows, the ``:parallel[w=N]`` speedup family
#: and the worker-count fields are gone with the engine.
SCHEMA = "repro-bench-search/v5"

#: The two flagship policy shapes the paper benchmarks (§2.3, §3).
POLICIES: tuple[tuple[str, str], ...] = (("dds", "lxf"), ("lds", "fcfs"))

FULL_LIMITS: tuple[int, ...] = (1_000, 10_000, 100_000)
#: ``--quick`` keeps CI smoke runs in seconds, not minutes.
QUICK_LIMITS: tuple[int, ...] = (1_000, 10_000)

#: End-to-end replay slice: the first N decision points of a real
#: simulated month at this scale/budget.  Small enough to keep the whole
#: section under ~2s per engine, long enough to average over genuinely
#: different queue states.
E2E_DECISIONS = 120
E2E_SCALE = 0.05
E2E_NODE_LIMIT = 1_000
E2E_MONTH = "2003-07"

#: Queue-length sweep: DDS/lxf at L = 10K on ``build_problem(n_jobs=n)``.
#: The NCSA months and the service benchmark reach 100-250 waiting jobs.
QUEUE_LENGTHS: tuple[int, ...] = (30, 120, 240)
QUEUE_POLICY: tuple[str, str] = ("dds", "lxf")
QUEUE_NODE_LIMIT = 10_000


def build_problem(heuristic: str = "lxf", n_jobs: int = 30) -> SearchProblem:
    """A fixed, deterministic decision point: ``n_jobs`` waiting jobs
    ordered by ``heuristic`` on a partially busy 128-node machine.

    Mirrors the 30-job scenario of ``benchmarks/bench_overhead.py`` (the
    paper's own overhead measurement uses a 30-job tree) but routes the
    consideration order through the real branching heuristic, so lxf and
    fcfs benchmarks explore genuinely different trees.
    """
    rng = RngStream(7, "overhead")
    jobs = []
    for i in range(n_jobs):
        job = Job(
            job_id=i,
            submit_time=float(rng.uniform(0, 4 * HOUR)),
            nodes=int(rng.integers(1, 65)),
            runtime=float(rng.uniform(600, 12 * HOUR)),
        )
        job.mark_waiting()
        jobs.append(job)
    now = 4 * HOUR
    bound = DynamicBound()
    ordered = order_jobs(jobs, heuristic, now)
    profile = AvailabilityProfile.from_segments(
        128, [(4 * HOUR, 40), (6 * HOUR, 90), (9 * HOUR, 128)]
    )
    return SearchProblem(
        jobs=tuple(ordered),
        profile=profile,
        now=now,
        omega=bound.value(now, ordered),
        objective=ObjectiveConfig(bound=bound),
    )


def _fingerprint(result: SearchResult) -> tuple[Any, ...]:
    """The fields the ISSUE's bit-identity contract covers."""
    return (
        tuple(j.job_id for j in result.best_order),
        tuple(sorted(result.best_starts.items())),
        result.best_score,
        result.nodes_visited,
        result.leaves_evaluated,
    )


def time_search(
    problem: SearchProblem,
    algorithm: str,
    node_limit: int,
    engine: str,
    repeats: int = 3,
    prune: bool = False,
) -> tuple[SearchResult, float]:
    """Run the search ``repeats`` times; return (result, best wall seconds)."""
    searcher = DiscrepancySearch(
        algorithm, node_limit=node_limit, engine=engine, prune=prune
    )
    best = float("inf")
    result: SearchResult | None = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = searcher.search(problem)
        best = min(best, time.perf_counter() - t0)
    assert result is not None
    return result, best


def time_end_to_end(
    engine: str, repeats: int = 2, decisions: int = E2E_DECISIONS
) -> dict[str, Any]:
    """Whole-run throughput: replay a slice of a simulated month and
    measure decisions/sec *including* the simulator's event loop and the
    scheduler's bookkeeping — the number a kernel win must move for users,
    as opposed to the raw node-loop rows above.  Best-of-``repeats``."""
    from repro.core.scheduler import SearchSchedulingPolicy
    from repro.experiments.profiling import time_decision_slice
    from repro.workloads.synthetic import generate_month

    workload = generate_month(E2E_MONTH, seed=2005, scale=E2E_SCALE)
    best = float("inf")
    ran = 0
    for _ in range(repeats):
        policy = SearchSchedulingPolicy(
            "dds", "lxf", node_limit=E2E_NODE_LIMIT, engine=engine
        )
        ran, seconds = time_decision_slice(workload, policy, decisions)
        best = min(best, seconds)
    return {
        "policy": f"DDS/lxf/dynB@L={E2E_NODE_LIMIT}",
        "engine": engine,
        "month": E2E_MONTH,
        "scale": E2E_SCALE,
        "decisions": ran,
        "seconds": best,
        "decisions_per_second": ran / best,
    }


def time_queue_lengths(
    compiled_available: bool,
    repeats: int,
    say: Callable[[str], None],
) -> tuple[list[dict[str, Any]], dict[str, float]]:
    """Reference and compiled rows for each of :data:`QUEUE_LENGTHS`, and
    the compiled/reference ratio per length (compiled asserted
    bit-identical to reference)."""
    algorithm, heuristic = QUEUE_POLICY
    policy_name = f"{algorithm.upper()}/{heuristic}/dynB"
    engines = ("reference", "compiled") if compiled_available else ("reference",)
    rows: list[dict[str, Any]] = []
    ratios: dict[str, float] = {}
    for n_jobs in QUEUE_LENGTHS:
        problem = build_problem(heuristic, n_jobs=n_jobs)
        timed = {
            engine: time_search(
                problem, algorithm, QUEUE_NODE_LIMIT, engine, repeats=repeats
            )
            for engine in engines
        }
        for engine, (result, seconds) in timed.items():
            rows.append(
                {
                    "policy": policy_name,
                    "n_jobs": n_jobs,
                    "node_limit": QUEUE_NODE_LIMIT,
                    "engine": engine,
                    "nodes_visited": result.nodes_visited,
                    "leaves_evaluated": result.leaves_evaluated,
                    "seconds_per_decision": seconds,
                    "nodes_per_second": result.nodes_visited / seconds,
                }
            )
        if "compiled" not in timed:
            continue
        (ref, ref_s), (comp, comp_s) = timed["reference"], timed["compiled"]
        if _fingerprint(comp) != _fingerprint(ref):
            raise AssertionError(
                f"compiled engine disagrees with reference on {policy_name} "
                f"with {n_jobs} jobs: results must be bit-identical"
            )
        key = f"{policy_name}@L={QUEUE_NODE_LIMIT}[n={n_jobs}]:compiled"
        ratios[key] = ref_s / comp_s
        say(
            f"{key}: {comp.nodes_visited / comp_s:,.0f} n/s "
            f"({ratios[key]:.2f}x over reference)"
        )
    return rows, ratios


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
    limits: tuple[int, ...] | None = None,
) -> dict[str, Any]:
    """Time every (policy, L, variant) combination and build the report.

    ``limits`` overrides the budget sweep (tests use tiny budgets so the
    full report machinery — every row family, every identity assert —
    runs in milliseconds); by default ``quick`` picks between
    :data:`QUICK_LIMITS` and :data:`FULL_LIMITS`.
    """
    from repro.util.workerpool import available_cores

    if limits is None:
        limits = QUICK_LIMITS if quick else FULL_LIMITS
    say = progress if progress is not None else (lambda _msg: None)
    compiled_available = have_compiled()
    configs: list[dict[str, Any]] = []
    speedups: dict[str, float] = {}
    for algorithm, heuristic in POLICIES:
        problem = build_problem(heuristic)
        policy_name = f"{algorithm.upper()}/{heuristic}/dynB"
        for node_limit in limits:

            def row(
                engine: str,
                result: SearchResult,
                seconds: float,
                prune: bool = False,
            ) -> None:
                configs.append(
                    {
                        "policy": policy_name,
                        "algorithm": algorithm,
                        "heuristic": heuristic,
                        "bound": "dynB",
                        "node_limit": node_limit,
                        "engine": engine,
                        "prune": prune,
                        "nodes_visited": result.nodes_visited,
                        "leaves_evaluated": result.leaves_evaluated,
                        "seconds_per_decision": seconds,
                        "nodes_per_second": result.nodes_visited / seconds,
                    }
                )

            per_engine: dict[str, tuple[SearchResult, float]] = {}
            for engine in ("fast", "reference"):
                result, seconds = time_search(
                    problem, algorithm, node_limit, engine, repeats=repeats
                )
                per_engine[engine] = (result, seconds)
                row(engine, result, seconds)
            fast, reference = per_engine["fast"], per_engine["reference"]
            if _fingerprint(fast[0]) != _fingerprint(reference[0]):
                raise AssertionError(
                    f"engines disagree on {policy_name} at L={node_limit}: "
                    "fast and reference results must be bit-identical"
                )
            key = f"{policy_name}@L={node_limit}"
            speedups[key] = reference[1] / fast[1]
            say(
                f"{key}: fast {fast[0].nodes_visited / fast[1]:,.0f} n/s, "
                f"reference {reference[0].nodes_visited / reference[1]:,.0f} n/s "
                f"({speedups[key]:.2f}x)"
            )

            # Branch-and-bound ablation: prune=True legitimately changes
            # node accounting (it skips dominated subtrees), so there is
            # no identity assert — the measurement is wall time to decide.
            prune_result, prune_seconds = time_search(
                problem, algorithm, node_limit, "fast", repeats=repeats, prune=True
            )
            row("fast", prune_result, prune_seconds, prune=True)
            prune_key = f"{key}:prune"
            speedups[prune_key] = fast[1] / prune_seconds
            say(
                f"{prune_key}: {speedups[prune_key]:.2f}x over fast "
                f"({prune_result.nodes_visited:,} of "
                f"{fast[0].nodes_visited:,} nodes visited)"
            )

            # Compiled kernel: same bit-identity contract as the serial
            # engines.  Rows and the ":compiled" family exist only when
            # the extension is importable — the ``compiled_available``
            # field below says which kind of report this is.  The ratio
            # is over *reference* (the compiled floor's baseline),
            # unlike the over-fast ":prune" family.
            if compiled_available:
                comp_result, comp_seconds = time_search(
                    problem, algorithm, node_limit, "compiled", repeats=repeats
                )
                row("compiled", comp_result, comp_seconds)
                if _fingerprint(comp_result) != _fingerprint(fast[0]):
                    raise AssertionError(
                        f"compiled engine disagrees with fast on {policy_name} "
                        f"at L={node_limit}: results must be bit-identical"
                    )
                comp_key = f"{key}:compiled"
                speedups[comp_key] = reference[1] / comp_seconds
                say(
                    f"{comp_key}: "
                    f"{comp_result.nodes_visited / comp_seconds:,.0f} n/s "
                    f"({speedups[comp_key]:.2f}x over reference)"
                )

    queue_rows, queue_speedups = time_queue_lengths(
        compiled_available, repeats, say
    )

    e2e = [time_end_to_end("fast")]
    say(
        f"e2e fast: {e2e[0]['decisions_per_second']:,.1f} decisions/s "
        f"({e2e[0]['decisions']} decisions)"
    )
    if compiled_available:
        e2e.append(time_end_to_end("compiled"))
        say(
            f"e2e compiled: {e2e[-1]['decisions_per_second']:,.1f} decisions/s "
            f"({e2e[-1]['decisions_per_second'] / e2e[0]['decisions_per_second']:.2f}x "
            "over fast)"
        )
    return {
        "schema": SCHEMA,
        "benchmark": "search-hotpath-30-jobs",
        "quick": quick,
        "repeats": repeats,
        # Honest host field: raw nodes/sec and e2e rows move with it.
        "cores": available_cores(),
        # Honest capability flag (cf. ``cores``): whether the compiled
        # kernel was importable when this report was measured — rows and
        # speedup families for it exist exactly when this is true.
        "compiled_available": compiled_available,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "configs": configs,
        "speedups": speedups,
        "queue_length": queue_rows,
        "queue_speedups": queue_speedups,
        "e2e": e2e,
        "tolerance": TOLERANCE,
    }


#: The ``--check`` band a fresh smoke run is judged against.  The
#: fast/reference *ratio* is machine-independent (both engines share the
#: interpreter and the cache behaviour), so it gets the tight band; raw
#: nodes/sec moves with the builder's hardware and load, so its floor
#: only catches collapses, not drift.
TOLERANCE: dict[str, float] = {
    # fresh fast/reference speedup >= committed speedup x this
    "min_speedup_frac": 0.65,
    # fresh fast-engine nodes/sec >= committed nodes/sec x this
    "min_nodes_per_second_frac": 0.40,
    # fresh compiled/reference speedup >= committed speedup x this
    # (compared only when both reports were measured with the kernel)
    "min_compiled_speedup_frac": 0.50,
    # fresh e2e decisions/sec >= committed decisions/sec x this, per
    # engine (whole-run replay: noisier than the node loop, wider band)
    "min_e2e_decisions_per_second_frac": 0.35,
}


def check_bench(
    fresh: dict[str, Any], committed: dict[str, Any]
) -> list[str]:
    """Judge a fresh (usually ``--quick``) run against the committed
    report's tolerance band; return human-readable failures (empty ==
    within tolerance).  Only configurations present in both reports are
    compared, so a quick run checks cleanly against a full baseline."""
    tol = committed.get("tolerance", TOLERANCE)
    failures: list[str] = []
    min_speedup = tol["min_speedup_frac"]
    # Compiled rows are compared only when both reports actually measured
    # the kernel; a pure-python smoke against a compiled baseline (or vice
    # versa) skips the family rather than failing spuriously.
    both_compiled = bool(
        fresh.get("compiled_available") and committed.get("compiled_available")
    )
    min_compiled = tol.get(
        "min_compiled_speedup_frac", TOLERANCE["min_compiled_speedup_frac"]
    )
    for key, fresh_ratio in fresh["speedups"].items():
        if key.endswith(":compiled"):
            if not both_compiled:
                continue
            committed_ratio = committed["speedups"].get(key)
            if committed_ratio is None:
                continue
            if fresh_ratio < committed_ratio * min_compiled:
                failures.append(
                    f"{key}: compiled/reference speedup {fresh_ratio:.2f}x "
                    f"below {min_compiled:.0%} of committed "
                    f"{committed_ratio:.2f}x"
                )
            continue
        if ":" in key:  # the prune ablation is measured, never banded
            continue
        committed_ratio = committed["speedups"].get(key)
        if committed_ratio is None:
            continue
        if fresh_ratio < committed_ratio * min_speedup:
            failures.append(
                f"{key}: fast/reference speedup {fresh_ratio:.2f}x below "
                f"{min_speedup:.0%} of committed {committed_ratio:.2f}x"
            )
    if both_compiled:
        committed_queue = committed.get("queue_speedups", {})
        for key, fresh_ratio in fresh.get("queue_speedups", {}).items():
            committed_ratio = committed_queue.get(key)
            if committed_ratio is None:  # v3 baselines have no queue rows
                continue
            if fresh_ratio < committed_ratio * min_compiled:
                failures.append(
                    f"{key}: compiled/reference speedup {fresh_ratio:.2f}x "
                    f"below {min_compiled:.0%} of committed "
                    f"{committed_ratio:.2f}x"
                )
    min_e2e = tol.get(
        "min_e2e_decisions_per_second_frac",
        TOLERANCE["min_e2e_decisions_per_second_frac"],
    )
    committed_e2e = {
        (r["policy"], r["engine"]): r for r in committed.get("e2e", [])
    }
    for row in fresh.get("e2e", []):
        if row["engine"] == "compiled" and not both_compiled:
            continue
        base = committed_e2e.get((row["policy"], row["engine"]))
        if base is None:  # v2 baselines have no e2e section
            continue
        if (
            row["decisions_per_second"]
            < base["decisions_per_second"] * min_e2e
        ):
            failures.append(
                f"e2e {row['policy']} [{row['engine']}]: "
                f"{row['decisions_per_second']:,.1f} decisions/s below "
                f"{min_e2e:.0%} of committed "
                f"{base['decisions_per_second']:,.1f}"
            )
    min_nps = tol["min_nodes_per_second_frac"]

    def rowkey(row: dict[str, Any]) -> tuple[Any, ...]:
        return (
            row["policy"],
            row["node_limit"],
            row["engine"],
            row["prune"],
        )

    committed_rows = {rowkey(r): r for r in committed["configs"]}
    for row in fresh["configs"]:
        if row["engine"] != "fast" or row["prune"]:
            continue
        base = committed_rows.get(rowkey(row))
        if base is None:
            continue
        if row["nodes_per_second"] < base["nodes_per_second"] * min_nps:
            failures.append(
                f"{row['policy']}@L={row['node_limit']}: fast engine "
                f"{row['nodes_per_second']:,.0f} nodes/s below {min_nps:.0%} "
                f"of committed {base['nodes_per_second']:,.0f}"
            )
    return failures


def write_bench(
    path: str | Path,
    quick: bool = False,
    repeats: int = 3,
    progress: Callable[[str], None] | None = None,
) -> dict[str, Any]:
    """Run the benchmark and write the JSON report to ``path``."""
    report = run_bench(quick=quick, repeats=repeats, progress=progress)
    out = Path(path)
    # Atomic: a crash mid-write must not leave a torn BENCH_search.json
    # that downstream tooling would try to parse.
    atomic_write_json(out, report, indent=2, sort_keys=True)
    return report


def main() -> int:  # pragma: no cover - thin wrapper for ``python -m``
    write_bench("BENCH_search.json", progress=print)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
