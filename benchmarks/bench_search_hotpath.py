"""The search hot path: allocation-free engine vs the reference spec.

The per-decision discrepancy search is where the scheduler spends its
time (paper §2.3), so this harness times one search over the fixed
30-job decision point from :mod:`repro.experiments.bench` for the two
flagship policies (DDS/lxf/dynB, LDS/fcfs/dynB) at L ∈ {1K, 10K, 100K},
on both engines.  The ``"fast"`` engine must beat the ``"reference"``
engine by :data:`FLOOR_RATIO` nodes/sec at L=10K *with bit-identical
results* — the ratcheted perf floor of this repo's BENCH_search.json
trajectory.

Run directly (``pytest benchmarks/bench_search_hotpath.py``) or via the
CLI report writer (``python -m repro bench``), which archives the same
measurement to ``BENCH_search.json`` at the repo root.
"""

import time

import pytest

from repro.core.ckernel import have_compiled
from repro.core.search import DiscrepancySearch
from repro.experiments.bench import POLICIES, _fingerprint, build_problem

LIMITS = [1_000, 10_000, 100_000]

#: The ratcheted speed floor: fast must beat reference by this factor at
#: L=10K.  Ratchet workflow (docs/performance.md): measure the worst
#: config's fast/reference ratio over several runs, subtract the shared
#: runner's timing noise (~15%), and raise this floor to match — never
#: lower it to make CI pass.  History: 2.0x (delta-kernel seed) → 3.0x
#: (SoA flat-array profile + fused chain fold; worst measured ~3.5x).
#: This floor stays at the *pure-python* level even when the compiled
#: kernel is importable — it guards the fallback path every install has.
FLOOR_RATIO = 3.0

#: The compiled kernel's own floor, asserted only when the extension is
#: importable (CI's ``compiled`` job; tier-1 stays pure-python).  Ratchet:
#: at most a third of the slowest compiled/reference ratio in the
#: committed ``BENCH_search.json``, queue-length rows included.  History:
#: 6.0x (first compiled milestone) → 20.0x (packed profile segments and
#: copy-on-chain; slowest measured 66.0x, DDS/lxf at L=10K with 120 jobs,
#: 2-vCPU x86-64).
COMPILED_FLOOR_RATIO = 20.0


@pytest.mark.parametrize("algorithm,heuristic", POLICIES)
@pytest.mark.parametrize("L", LIMITS)
@pytest.mark.parametrize("engine", ["fast", "reference"])
def test_search_hotpath(benchmark, algorithm, heuristic, L, engine):
    problem = build_problem(heuristic)
    search = DiscrepancySearch(algorithm, node_limit=L, engine=engine)

    result = benchmark(lambda: search.search(problem))
    # The budget is actually consumed (the 30-job tree dwarfs every limit).
    assert result.nodes_visited == L
    benchmark.extra_info["nodes_per_second"] = L / benchmark.stats["mean"]
    benchmark.extra_info["engine"] = engine


@pytest.mark.parametrize("algorithm,heuristic", POLICIES)
def test_fast_engine_floor_at_10k(benchmark, algorithm, heuristic):
    """The ratcheted floor: ≥FLOOR_RATIO x nodes/sec at L=10K, identical
    results."""
    problem = build_problem(heuristic)
    fast = DiscrepancySearch(algorithm, node_limit=10_000, engine="fast")
    reference = DiscrepancySearch(algorithm, node_limit=10_000, engine="reference")

    result_fast = benchmark(lambda: fast.search(problem))
    result_ref = reference.search(problem)
    assert _fingerprint(result_fast) == _fingerprint(result_ref)

    best_ref = min(
        _timed(reference, problem, time.perf_counter) for _ in range(3)
    )
    assert benchmark.stats["min"] * FLOOR_RATIO <= best_ref, (
        f"fast engine must be >={FLOOR_RATIO}x reference at L=10K: "
        f"fast {benchmark.stats['min']:.4f}s vs reference {best_ref:.4f}s"
    )


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
@pytest.mark.parametrize("algorithm,heuristic", POLICIES)
def test_compiled_engine_floor_at_10k(benchmark, algorithm, heuristic):
    """The compiled kernel's floor: ≥COMPILED_FLOOR_RATIO x reference
    nodes/sec at L=10K, identical results — only when the extra is built."""
    problem = build_problem(heuristic)
    compiled = DiscrepancySearch(algorithm, node_limit=10_000, engine="compiled")
    reference = DiscrepancySearch(algorithm, node_limit=10_000, engine="reference")

    result_compiled = benchmark(lambda: compiled.search(problem))
    result_ref = reference.search(problem)
    assert _fingerprint(result_compiled) == _fingerprint(result_ref)

    best_ref = min(
        _timed(reference, problem, time.perf_counter) for _ in range(3)
    )
    assert benchmark.stats["min"] * COMPILED_FLOOR_RATIO <= best_ref, (
        f"compiled engine must be >={COMPILED_FLOOR_RATIO}x reference at L=10K: "
        f"compiled {benchmark.stats['min']:.4f}s vs reference {best_ref:.4f}s"
    )


def _timed(searcher, problem, clock):
    t0 = clock()
    searcher.search(problem)
    return clock() - t0
