"""Differential chaos tests: injected faults must not change any result.

This is the acceptance suite of the fault-tolerance layer
(``docs/robustness.md``): with a seeded :class:`FaultPlan` killing pool
workers, failing result transport, refusing pool spawns, and corrupting
run-cache entries, every ``PolicyRun`` and every decision of the
service's degradation ladder must come out **bit-identical** to its
fault-free twin — recovery may cost wall time, never correctness.  Cache corruption must additionally be
*quarantined*: logged with a reason, moved aside, counted, and never
served as a hit.
"""

from __future__ import annotations

import json

import pytest

from repro.core.scheduler import make_policy
from repro.experiments.cache import QUARANTINE_DIR, RunCache
from repro.experiments.parallel import PolicySpec, RunSpec, WorkloadSpec, run_grid
from repro.service.executor import FULL_MODES, DecisionLadder, LadderConfig
from repro.service.tenant import TenantEngine
from repro.util import workerpool
from repro.util.faults import FaultPlan, faults_suppressed, injected_faults
from repro.workloads.synthetic import generate_month
from tests.test_service_tenant import _grouped_requests

WORKLOADS = [
    WorkloadSpec("2003-06", seed=11, scale=0.03),
    WorkloadSpec("2003-07", seed=11, scale=0.03),
]
POLICIES = [
    PolicySpec("fcfs-bf", node_limit=0),
    PolicySpec("dds/lxf/dynB", node_limit=64),
]
GRID = [RunSpec(w, p) for w in WORKLOADS for p in POLICIES]


def grid_signatures(outcome) -> list[tuple]:
    assert not outcome.errors
    return [
        (
            r.workload_name,
            r.policy_name,
            r.offered_load,
            tuple(sorted(r.metrics.as_dict().items())),
            r.avg_queue_length,
            r.utilization,
            tuple((j.job_id, j.start_time, j.end_time) for j in r.jobs),
        )
        for r in outcome.runs
    ]


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Chaos kills pools; never leak a broken one into another test."""
    workerpool.shutdown_all()
    yield
    workerpool.shutdown_all()


# ----------------------------------------------------------------------
# Worker-pool faults: the decision service's pool rung
# ----------------------------------------------------------------------
def _ladder_decisions(pool_workers: int = 2) -> list:
    """Every decision of a small trace, answered by a ladder whose pool
    rung offloads DDS/lxf to ``pool_workers`` worker processes."""
    workload = generate_month("2003-07", seed=2005, scale=0.02)
    policy = make_policy("dds", "lxf", node_limit=200)
    ladder = DecisionLadder(policy, LadderConfig(pool_workers=pool_workers))
    engine = TenantEngine(
        "chaos", policy, cluster_config=workload.cluster, window=workload.window
    )
    decisions = []
    for request in _grouped_requests("chaos", workload.fresh_jobs()):
        decisions.extend(engine.handle(request, decide=ladder.decide))
    return decisions


@pytest.fixture(scope="module")
def clean_ladder():
    with faults_suppressed():
        decisions = _ladder_decisions()
    workerpool.shutdown_all()
    assert decisions and all(d.mode == "search:pool" for d in decisions)
    return decisions


def _assert_ladder_unchanged(chaotic, clean) -> None:
    assert [d.started for d in chaotic] == [d.started for d in clean]
    assert all(d.mode in FULL_MODES and not d.degraded for d in chaotic)


def test_pool_rung_answers_like_inline_under_the_ambient_plan(clean_ladder):
    """The pool rung decides exactly what the inline policy decides.  No
    plan is injected here, so under the chaos CI job's ambient
    ``REPRO_FAULTS`` the ``worker.crash``/``worker.result`` sites hit
    this real pool — and the decisions still may not change."""
    with faults_suppressed():
        inline = _ladder_decisions(pool_workers=0)
    assert all(d.mode == "search" for d in inline)
    assert [d.started for d in inline] == [d.started for d in clean_ladder]
    _assert_ladder_unchanged(_ladder_decisions(), clean_ladder)


def test_ladder_identical_with_worker_crash_every_dispatch(clean_ladder):
    """Kill a real pool worker before every dispatch (until the respawn
    budget runs dry and the ladder answers inline): same decisions, and
    every one still a full, undegraded search."""
    with injected_faults(FaultPlan.parse("seed=5,worker.crash=1.0")) as injector:
        chaotic = _ladder_decisions()
    assert injector.fired["worker.crash"] >= 1
    _assert_ladder_unchanged(chaotic, clean_ladder)


def test_ladder_identical_with_transport_faults(clean_ladder):
    with injected_faults(FaultPlan.parse("seed=5,worker.result=0.5")) as injector:
        chaotic = _ladder_decisions()
    assert injector.checked["worker.result"] >= 1
    _assert_ladder_unchanged(chaotic, clean_ladder)


def test_ladder_identical_when_pool_cannot_spawn(clean_ladder):
    """worker.spawn always failing exhausts the respawn budget and lands
    on the permanent inline fallback — still the same decisions."""
    with injected_faults(FaultPlan.parse("seed=5,worker.spawn=1.0")) as injector:
        chaotic = _ladder_decisions()
    assert injector.fired["worker.spawn"] >= 1
    pool = workerpool.get_pool(2)
    assert pool.failed and pool.respawns_used == pool.max_respawns
    _assert_ladder_unchanged(chaotic, clean_ladder)


# ----------------------------------------------------------------------
# Cache corruption: quarantine semantics
# ----------------------------------------------------------------------
def test_corrupt_cache_entries_are_quarantined_not_served(tmp_path):
    """Every entry of a grid written under cache.write=1.0 is corrupt; a
    warm re-read must quarantine all of them, log reasons, recompute, and
    still produce the exact fault-free results.

    The warm/healed phases assert exact *operational* accounting, so they
    run under :func:`faults_suppressed` — an ambient ``REPRO_FAULTS`` plan
    (the chaos CI job) must not re-corrupt the recovery we are verifying."""
    with faults_suppressed():
        clean = run_grid(GRID, max_workers=1)

    cache = RunCache(tmp_path / "cache")
    with injected_faults(FaultPlan.parse("seed=3,cache.write=1.0")) as injector:
        first = run_grid(GRID, max_workers=1, cache=cache)
    assert injector.fired["cache.write"] == len(GRID)
    assert grid_signatures(first) == grid_signatures(clean)

    with faults_suppressed():
        warm = run_grid(GRID, max_workers=1, cache=cache)
    assert warm.cache_hits == 0  # nothing corrupt may count as a hit
    assert warm.executed == len(GRID)
    assert cache.quarantined == len(GRID)
    assert grid_signatures(warm) == grid_signatures(clean)

    qdir = tmp_path / "cache" / QUARANTINE_DIR
    moved = list(qdir.glob("*.quarantined"))
    assert len(moved) == len(GRID)
    ledger = [
        json.loads(line)
        for line in (qdir / "ledger.jsonl").read_text().splitlines()
    ]
    assert len(ledger) == len(GRID)
    assert all(entry["reason"] for entry in ledger)

    # After quarantine + recompute the cache is healthy again.
    with faults_suppressed():
        healed = run_grid(GRID, max_workers=1, cache=cache)
    assert healed.cache_hits == len(GRID)
    assert grid_signatures(healed) == grid_signatures(clean)


def test_injected_torn_reads_read_as_misses(tmp_path):
    cache = RunCache(tmp_path / "cache")
    with faults_suppressed():  # seed the cache with two healthy entries
        run_grid(GRID[:2], max_workers=1, cache=cache)
    with injected_faults(FaultPlan.parse("seed=3,cache.read=1.0/1")):
        warm = run_grid(GRID[:2], max_workers=1, cache=cache)
    assert warm.cache_hits == 1  # one read torn, one served
    assert warm.executed == 1
    assert cache.quarantined == 1


def test_hand_corrupted_entry_never_crashes_or_hits(tmp_path):
    """Foreign corruption (not injected): flip bytes on disk by hand."""
    cache = RunCache(tmp_path / "cache")
    with faults_suppressed():
        run_grid(GRID[:1], max_workers=1, cache=cache)
    (entry,) = (tmp_path / "cache").glob("*/*.json")
    entry.write_text(entry.read_text()[:-40] + "}")  # structural damage

    with faults_suppressed():
        clean = run_grid(GRID[:1], max_workers=1)
        warm = run_grid(GRID[:1], max_workers=1, cache=cache)
    assert warm.cache_hits == 0
    assert cache.quarantined == 1
    assert grid_signatures(warm) == grid_signatures(clean)


# ----------------------------------------------------------------------
# The combined acceptance scenario from the ISSUE
# ----------------------------------------------------------------------
@pytest.mark.tier2
def test_acceptance_combined_fault_plan(tmp_path):
    """One plan corrupting cache entries across a grid: results
    bit-identical, corruption quarantined, no crash."""
    grid = [
        RunSpec(w, p)
        for w in WORKLOADS
        for p in (
            PolicySpec("fcfs-bf", node_limit=0),
            PolicySpec("dds/lxf/dynB", node_limit=64),
        )
    ]
    clean = run_grid(grid, max_workers=1)
    cache = RunCache(tmp_path / "cache")
    plan = FaultPlan.parse("seed=2005,cache.write=0.5")
    with injected_faults(plan) as injector:
        first = run_grid(grid, max_workers=1, cache=cache)
        warm = run_grid(grid, max_workers=1, cache=cache)
    assert injector.fired["cache.write"] >= 1
    assert grid_signatures(first) == grid_signatures(clean)
    assert grid_signatures(warm) == grid_signatures(clean)
    assert cache.quarantined >= 1
