"""Regression pins for DiscrepancySearch node accounting.

The paper's central independent variable is the node budget L: every
figure sweeps or fixes it, so a silent change in what counts as a "node
visit" would skew the whole reproduction while keeping every behavioural
test green.  This module pins the *exact* counts for one fixed 6-job
queue — empirically derived once, then frozen.

The invariants under test:

- every placement (job at earliest start) is exactly one node visit;
- the budget is enforced before each visit, so a limited search performs
  exactly ``L`` visits (never more, never fewer while work remains);
- iteration 0 — the pure heuristic schedule — always completes, even
  with ``L`` below the queue length, so an anytime answer always exists.
"""

from __future__ import annotations

import pytest

from repro.core.objective import FixedBound, ObjectiveConfig
from repro.core.profile import AvailabilityProfile
from repro.core.search import DiscrepancySearch, SearchProblem
from repro.util.timeunits import HOUR

from tests.conftest import make_job

N_JOBS = 6
#: Distinct prefixes across all iterations' permutation paths, for this
#: queue, both algorithms (each iteration is its own DFS trie; see
#: test_search.py::test_exhaustive_node_accounting_matches_trie_reference
#: for the generic cross-check against the pure generators).
EXHAUSTIVE_NODES = 2670
EXHAUSTIVE_LEAVES = 720  # 6!


def _queue() -> list:
    """A fixed mix of wide/narrow, long/short jobs (reordering matters)."""
    return [
        make_job(job_id=1, submit=0.0, nodes=3, runtime=4 * HOUR, waiting=True),
        make_job(job_id=2, submit=0.0, nodes=1, runtime=HOUR, waiting=True),
        make_job(job_id=3, submit=0.0, nodes=2, runtime=2 * HOUR, waiting=True),
        make_job(job_id=4, submit=0.0, nodes=1, runtime=HOUR / 2, waiting=True),
        make_job(job_id=5, submit=0.0, nodes=4, runtime=HOUR, waiting=True),
        make_job(job_id=6, submit=0.0, nodes=2, runtime=3 * HOUR, waiting=True),
    ]


def _search(algorithm: str, node_limit: int | None):
    problem = SearchProblem(
        jobs=tuple(_queue()),
        profile=AvailabilityProfile(4, origin=0.0),
        now=0.0,
        omega=0.0,
        objective=ObjectiveConfig(bound=FixedBound(0.0)),
        use_actual_runtime=True,
    )
    return DiscrepancySearch(algorithm, node_limit=node_limit).search(problem)


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("limit", [1, 2, 5, 6])
def test_iteration0_always_completes_below_queue_length(algorithm, limit):
    """L <= n: exactly the heuristic path's n placements, nothing more."""
    result = _search(algorithm, limit)
    assert result.nodes_visited == N_JOBS
    assert result.leaves_evaluated == 1
    assert result.limit_hit
    assert len(result.best_order) == N_JOBS
    assert len(result.best_starts) == N_JOBS


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("limit", [7, 25, 100, 500])
def test_intermediate_budget_is_spent_exactly(algorithm, limit):
    """n < L < exhaustive: the search performs exactly L placements."""
    result = _search(algorithm, limit)
    assert result.nodes_visited == limit
    assert result.limit_hit
    assert len(result.best_starts) == N_JOBS


@pytest.mark.parametrize(
    "algorithm,limit,leaves",
    [
        ("dds", 25, 4),
        ("dds", 100, 18),
        ("dds", 500, 106),
        ("lds", 25, 5),
        ("lds", 100, 21),
        ("lds", 500, 120),
    ],
)
def test_leaf_counts_pin_iteration_order(algorithm, limit, leaves):
    """DDS and LDS spend the same budget on different leaves; pin both."""
    result = _search(algorithm, limit)
    assert result.leaves_evaluated == leaves


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("limit", [None, EXHAUSTIVE_NODES, 10_000])
def test_exhaustive_totals(algorithm, limit):
    """Unlimited (or big-enough) budgets visit the exact trie size."""
    result = _search(algorithm, limit)
    assert result.nodes_visited == EXHAUSTIVE_NODES
    assert result.leaves_evaluated == EXHAUSTIVE_LEAVES
    assert result.iterations_started == N_JOBS  # max_discrepancies(6) + 1
    assert not result.limit_hit


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_exact_budget_completes_without_limit_flag(algorithm):
    """L == exhaustive total: the search finishes with budget spent and
    the limit never tripped (checks happen *before* each visit)."""
    result = _search(algorithm, EXHAUSTIVE_NODES)
    assert result.nodes_visited == EXHAUSTIVE_NODES
    assert not result.limit_hit


def _problem(jobs=()):
    return SearchProblem(
        jobs=tuple(jobs),
        profile=AvailabilityProfile(4, origin=0.0),
        now=0.0,
        omega=0.0,
        objective=ObjectiveConfig(bound=FixedBound(0.0)),
        use_actual_runtime=True,
    )


@pytest.mark.parametrize("engine", ["fast", "reference"])
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_empty_queue_follows_every_result_convention(engine, algorithm):
    """n = 0 takes the normal iteration-0 path, not a bespoke early
    return: one iteration starts, the single empty leaf is evaluated,
    zero nodes are visited, and an anytime record exists — identically
    on every engine (regression: the fast engine once returned a
    hand-built SearchResult that skipped ``record_anytime`` and
    reported ``iterations_started == 0``)."""
    search = DiscrepancySearch(
        algorithm,
        node_limit=10,
        engine=engine,
        record_anytime=True,
    )
    result = search.search(_problem())
    assert result.best_order == ()
    assert result.best_starts == {}
    assert result.nodes_visited == 0
    assert result.leaves_evaluated == 1
    assert result.iterations_started == 1
    assert not result.limit_hit
    assert not result.improved_after_first
    assert result.anytime == [(0, result.best_score)]
    assert result.best_score.n_jobs == 0
    assert result.best_score.avg_slowdown == 0.0


def test_deadline_poll_independent_of_node_counter_stride():
    """The wall-clock poll fires every 64 *checks*, not every 64 nodes.

    Regression: the poll used to key off ``nodes_visited % 64 == 0``.
    Engines that batch node accounting advance the counter in strides,
    and a strided counter can miss every residue — e.g. odd-only values
    never satisfy ``% 64 == 0`` — so an expired deadline was never
    noticed.  Drive the shared ``_check_budget`` with such a stride and
    demand it raises within one poll period."""
    from repro.core.search import _SearchRunBase, _StopSearch

    run = _SearchRunBase(
        _problem([make_job(job_id=1, submit=0.0, nodes=1, runtime=60.0)]),
        "dds",
        node_limit=None,
        prune=False,
        time_limit_seconds=0.0,  # deadline already expired
    )
    run.leaves_evaluated = 1  # past the first-leaf exemption
    run.nodes_visited = 1
    with pytest.raises(_StopSearch):
        for _ in range(64):
            run._check_budget()
            run.nodes_visited += 2  # stays odd: never % 64 == 0
    # One poll period at most: the raise must land on the 64th check.
    assert run.nodes_visited == 1 + 2 * 63


@pytest.mark.parametrize("algorithm", ["dds", "lds"])
def test_expired_time_limit_is_bit_identical_across_serial_engines(algorithm):
    """A wall-clock deadline in the past: both serial engines must stop
    at the same node (the 64th budget check after the exempt first
    leaf), yielding identical fingerprints.  The compiled engine hands
    time-limited searches to the fast engine, so the pair is the whole
    domain."""
    from tests.oracles import fingerprint

    jobs = [
        make_job(job_id=i, submit=0.0, nodes=1 + i % 3, runtime=HOUR, waiting=True)
        for i in range(1, 9)
    ]
    prints = {}
    for engine in ("fast", "reference"):
        search = DiscrepancySearch(
            algorithm,
            node_limit=None,
            engine=engine,
            record_anytime=True,
            time_limit_seconds=1e-9,
        )
        result = search.search(_problem(jobs))
        assert result.limit_hit
        prints[engine] = fingerprint(result)
    assert prints["fast"] == prints["reference"]
