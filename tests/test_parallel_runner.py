"""The parallel executor and run cache (repro.experiments.parallel/cache).

The acceptance bar for the executor is strict: a process pool must
produce *byte-identical* results to the serial path, a failing cell must
not take its siblings down, and a warm cache must answer a repeat grid
without simulating anything.
"""

from __future__ import annotations

import pytest

from repro.experiments.cache import RunCache
from repro.experiments.parallel import (
    GridOutcome,
    PolicySpec,
    RunError,
    RunSpec,
    WorkloadSpec,
    cache_key,
    configure,
    resolve_workers,
    run_all,
    run_grid,
)
from repro.experiments.runner import PolicyRun, run_matrix
from repro.simulator.policy import SchedulingPolicy
from repro.workloads.synthetic import generate_month


# A small grid that still exercises both backfill and search policies.
WORKLOADS = [
    WorkloadSpec("2003-06", seed=11, scale=0.03),
    WorkloadSpec("2003-07", seed=11, scale=0.03),
]
POLICIES = [
    PolicySpec("fcfs-bf", node_limit=0),
    PolicySpec("dds/lxf/dynB", node_limit=64),
]
GRID = [RunSpec(w, p) for w in WORKLOADS for p in POLICIES]


class ExplodingPolicy(SchedulingPolicy):
    """Raises at the first decision point; must be module-level to pickle."""

    name = "Exploding"

    def decide(self, now, waiting, running, cluster):
        raise RuntimeError("boom")


def exploding_factory() -> SchedulingPolicy:
    return ExplodingPolicy()


def run_signature(run: PolicyRun) -> tuple:
    """Everything observable about a run, for exact equality checks."""
    return (
        run.workload_name,
        run.policy_name,
        run.offered_load,
        tuple(sorted(run.metrics.as_dict().items())),
        run.avg_queue_length,
        run.utilization,
        tuple((j.job_id, j.start_time, j.end_time) for j in run.jobs),
        tuple(sorted((k, v) for k, v in run.policy_stats.items())),
    )


def grid_signatures(outcome: GridOutcome) -> list[tuple]:
    assert not outcome.errors
    return [run_signature(r) for r in outcome.runs]


# ----------------------------------------------------------------------
# Determinism: pool == serial
# ----------------------------------------------------------------------
def test_parallel_grid_matches_serial_exactly():
    serial = run_grid(GRID, max_workers=1)
    pooled = run_grid(GRID, max_workers=2)
    assert pooled.workers == 2
    assert grid_signatures(pooled) == grid_signatures(serial)


def test_run_matrix_parallel_matches_serial():
    workloads = [generate_month("2003-06", seed=7, scale=0.03)]
    policies = {
        "FCFS-BF": PolicySpec("fcfs-bf", node_limit=0),
        "DDS": PolicySpec("dds/lxf/dynB", node_limit=64),
    }
    serial = run_matrix(workloads, policies, max_workers=1)
    pooled = run_matrix(workloads, policies, max_workers=2)
    assert serial.keys() == pooled.keys()
    for key in serial:
        assert run_signature(serial[key]) == run_signature(pooled[key])


def test_non_picklable_policy_falls_back_to_serial():
    # A lambda factory cannot cross a process boundary; the pool path must
    # quietly run it in-process instead of crashing.
    specs = GRID + [
        RunSpec(WORKLOADS[0], lambda: PolicySpec("lxf-bf", node_limit=0).build())
    ]
    outcome = run_grid(specs, max_workers=2)
    assert not outcome.errors
    assert len(outcome.runs) == len(specs)
    assert outcome.runs[-1].policy_name == "LXF-backfill"


# ----------------------------------------------------------------------
# Failure isolation
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [1, 2])
def test_failed_run_yields_error_record_not_abort(workers):
    specs = [
        RunSpec(WORKLOADS[0], POLICIES[0]),
        RunSpec(WORKLOADS[0], exploding_factory, label="exploding"),
        RunSpec(WORKLOADS[1], POLICIES[0]),
    ]
    outcome = run_grid(specs, max_workers=workers)
    assert isinstance(outcome.entries[0], PolicyRun)
    assert isinstance(outcome.entries[2], PolicyRun)
    error = outcome.entries[1]
    assert isinstance(error, RunError)
    assert error.error_type == "RuntimeError"
    assert error.message == "boom"
    assert "boom" in error.traceback
    assert error.policy_key == "exploding"
    with pytest.raises(RuntimeError, match="1/3 runs failed"):
        outcome.raise_errors()


def test_run_matrix_raises_after_grid_completes():
    workloads = [generate_month("2003-06", seed=7, scale=0.03)]
    policies = {"FCFS-BF": POLICIES[0], "BAD": exploding_factory}
    with pytest.raises(RuntimeError, match="BAD"):
        run_matrix(workloads, policies)


# ----------------------------------------------------------------------
# The run cache
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive  # exact hit counts; injected cache faults turn hits into misses
def test_warm_cache_skips_all_simulations(tmp_path):
    cache = RunCache(tmp_path / "cache")
    cold = run_grid(GRID, max_workers=1, cache=cache)
    assert cold.executed == len(GRID)
    assert cold.cache_hits == 0
    assert len(cache) == len(GRID)

    warm = run_grid(GRID, max_workers=1, cache=cache)
    assert warm.executed == 0
    assert warm.cache_hits == len(GRID)
    assert grid_signatures(warm) == grid_signatures(cold)
    # Derived measures survive the JSON round-trip too.
    for fresh, cached in zip(cold.runs, warm.runs):
        assert fresh.excessive(0.0).total_hours == cached.excessive(0.0).total_hours


def test_factory_cells_are_never_cached(tmp_path):
    cache = RunCache(tmp_path / "cache")
    spec = RunSpec(WORKLOADS[0], lambda: PolicySpec("fcfs-bf", node_limit=0).build())
    assert cache_key(spec) is None
    outcome = run_grid([spec], max_workers=1, cache=cache)
    assert not outcome.errors
    assert len(cache) == 0


def test_cache_key_is_sensitive_to_spec_changes():
    base = RunSpec(WORKLOADS[0], POLICIES[0])
    assert cache_key(base) == cache_key(RunSpec(WORKLOADS[0], POLICIES[0]))
    variants = [
        RunSpec(WorkloadSpec("2003-06", seed=12, scale=0.03), POLICIES[0]),
        RunSpec(WorkloadSpec("2003-06", seed=11, scale=0.04), POLICIES[0]),
        RunSpec(WorkloadSpec("2003-07", seed=11, scale=0.03), POLICIES[0]),
        RunSpec(WORKLOADS[0], PolicySpec("lxf-bf", node_limit=0)),
        RunSpec(WORKLOADS[0], PolicySpec("fcfs-bf", node_limit=0, use_actual_runtime=False)),
        RunSpec(WORKLOADS[0], PolicySpec("dds/lxf/dynB", node_limit=65)),
    ]
    keys = {cache_key(base), *(cache_key(v) for v in variants)}
    assert len(keys) == len(variants) + 1  # all distinct


def test_cached_run_equals_fresh_run(tmp_path):
    cache = RunCache(tmp_path / "cache")
    spec = RunSpec(WORKLOADS[0], POLICIES[1])
    fresh = run_grid([spec], cache=cache).runs[0]
    cached = run_grid([spec], cache=cache).runs[0]
    assert run_signature(cached) == run_signature(fresh)
    assert cached.metrics.as_dict() == fresh.metrics.as_dict()


# ----------------------------------------------------------------------
# Session configuration
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive  # asserts a minimum cache-hit count
def test_run_all_honours_configured_cache(tmp_path):
    configure(max_workers=1, cache=RunCache(tmp_path / "cache"))
    first = run_all(GRID[:2])
    second = run_all(GRID[:2])
    assert [run_signature(r) for r in first] == [run_signature(r) for r in second]
    from repro.experiments.parallel import session_stats

    stats = session_stats()
    assert stats.cache_hits >= 2


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers("") == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1
    assert resolve_workers(-1) == resolve_workers(0)
