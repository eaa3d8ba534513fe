"""The resumable tenant engine (``repro.service.tenant`` / ``.recovery``).

The acceptance bar from the service design (``docs/service.md``): a
fault-free tenant fed the arrivals of a trace, request by request, must
be **bit-identical** to a batch :meth:`Simulation.run` over that trace —
same decisions, same job start/end times, same accumulated integrals —
because both paths share :meth:`Simulation.consume_batch`.  Around that
sit the request-contract checks (watermark, duplicates, admission,
finish confirmation) and the checksummed snapshot/restore cycle.
"""

from __future__ import annotations

import pytest

from repro.cli import parse_policy
from repro.backfill import fcfs_backfill
from repro.service.api import DecisionRequest, JobSpec
from repro.service.recovery import (
    latest_tenant_snapshot,
    list_tenants,
    restore_tenant,
    snapshot_tenant,
    valid_tenant_id,
)
from repro.service.tenant import PRIMARY_MODE, TenantEngine, TenantError
from repro.simulator.engine import Simulation
from repro.util.timeunits import HOUR, time_eq
from repro.workloads.synthetic import generate_month
from tests.conftest import small_cluster


def _workload():
    return generate_month("2003-07", seed=2005, scale=0.02)


def _search_policy():
    return parse_policy("dds/lxf/dynB", 200, True)


def _grouped_requests(tenant_id, jobs):
    """One request per distinct submit instant, as the contract demands."""
    ordered = sorted(jobs, key=lambda j: (j.submit_time, j.job_id))
    groups: list[list] = []
    for job in ordered:
        if groups and time_eq(job.submit_time, groups[-1][0].submit_time):
            groups[-1].append(job)
        else:
            groups.append([job])
    return [
        DecisionRequest(
            tenant=tenant_id,
            now=group[0].submit_time,
            arrivals=tuple(JobSpec.from_job(j) for j in group),
        )
        for group in groups
    ]


def _job_times(jobs):
    return {j.job_id: (j.start_time, j.end_time) for j in jobs}


# ----------------------------------------------------------------------
# Bit-identity with the batch simulator
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive  # injected decide/step faults change decisions
def test_fault_free_replay_is_bit_identical_to_batch_run():
    workload = _workload()
    batch = Simulation(
        workload.fresh_jobs(), _search_policy(), workload.cluster,
        window=workload.window,
    ).run()

    engine = TenantEngine(
        "replay", _search_policy(),
        cluster_config=workload.cluster, window=workload.window,
    )
    decisions = []
    for request in _grouped_requests("replay", workload.fresh_jobs()):
        decisions.extend(engine.handle(request))
    # Drain the completions still pending after the last arrival.
    decisions.extend(
        engine.handle(
            DecisionRequest(tenant="replay", now=batch.sim_end_time + 1.0)
        )
    )

    assert len(decisions) == batch.decision_count
    assert all(d.mode == PRIMARY_MODE and not d.degraded for d in decisions)
    assert [d.seq for d in decisions] == list(range(1, len(decisions) + 1))
    assert _job_times(engine.completed_jobs) == _job_times(batch.jobs)

    # Same accounting, computed by the same code over the same window.
    lo, hi = workload.window
    span = max(hi - lo, 1e-12)
    st = engine.loop_state
    assert st.queue_integral / span == batch.avg_queue_length
    capacity = engine.sim.cluster.capacity
    assert st.busy_integral / (span * capacity) == batch.utilization


def test_decide_override_labels_the_decision(cluster4):
    engine = TenantEngine("t", fcfs_backfill(), cluster_config=cluster4)
    request = DecisionRequest(
        tenant="t", now=0.0, arrivals=(JobSpec(job_id=1, nodes=1, runtime=HOUR),)
    )
    decisions = engine.handle(
        request, decide=lambda now, w, r, c: ([], "heuristic", True)
    )
    assert [(d.mode, d.degraded) for d in decisions] == [("heuristic", True)]
    assert engine.waiting_count == 1  # the noop-ish answer started nothing


# ----------------------------------------------------------------------
# The request contract
# ----------------------------------------------------------------------
def _engine(cluster=None):
    return TenantEngine(
        "t", fcfs_backfill(), cluster_config=cluster or small_cluster(4)
    )


def _arrival(job_id, now, nodes=1, runtime=HOUR):
    return DecisionRequest(
        tenant="t", now=now,
        arrivals=(JobSpec(job_id=job_id, nodes=nodes, runtime=runtime),),
    )


def test_watermark_rejects_stale_and_same_instant_requests():
    engine = _engine()
    engine.handle(_arrival(1, now=100.0))
    with pytest.raises(TenantError, match="watermark"):
        engine.validate_request(_arrival(2, now=100.0))
    with pytest.raises(TenantError, match="watermark"):
        engine.validate_request(_arrival(2, now=50.0))
    engine.handle(_arrival(2, now=101.0))  # strictly later: accepted
    assert engine.decided_through == 101.0


def test_duplicate_job_ids_rejected_without_state_change():
    engine = _engine()
    engine.handle(_arrival(7, now=0.0))
    before = engine.decision_count
    with pytest.raises(TenantError, match="duplicate"):
        engine.handle(_arrival(7, now=10.0))
    twice = DecisionRequest(
        tenant="t", now=10.0,
        arrivals=(
            JobSpec(job_id=8, nodes=1, runtime=HOUR),
            JobSpec(job_id=8, nodes=1, runtime=HOUR),
        ),
    )
    with pytest.raises(TenantError, match="duplicate"):
        engine.handle(twice)
    assert engine.decision_count == before
    assert 8 not in engine.jobs


def test_admission_limits_enforced_at_the_door():
    engine = _engine(small_cluster(4))
    with pytest.raises(TenantError, match="cluster limits"):
        engine.handle(_arrival(1, now=0.0, nodes=8))
    assert not engine.jobs and engine.waiting_count == 0


def test_finished_confirmation_contract():
    engine = _engine(small_cluster(4))
    engine.handle(_arrival(1, now=0.0, nodes=1, runtime=100.0))
    job = engine.jobs[1]
    assert time_eq(job.start_time, 0.0) and time_eq(job.end_time, 100.0)

    with pytest.raises(TenantError, match="unknown finished job"):
        engine.validate_request(
            DecisionRequest(tenant="t", now=50.0, finished=(99,))
        )
    with pytest.raises(TenantError, match="finishes at"):
        engine.validate_request(
            DecisionRequest(tenant="t", now=50.0, finished=(1,))
        )
    decisions = engine.handle(
        DecisionRequest(tenant="t", now=150.0, finished=(1,))
    )
    assert len(decisions) == 1  # the internally generated completion
    assert _job_times(engine.completed_jobs) == {1: (0.0, 100.0)}


def test_confirming_a_never_started_job_is_rejected():
    engine = _engine(small_cluster(4))
    engine.handle(
        DecisionRequest(
            tenant="t", now=0.0,
            arrivals=(
                JobSpec(job_id=1, nodes=4, runtime=1000.0),
                JobSpec(job_id=2, nodes=4, runtime=1000.0),
            ),
        )
    )
    assert engine.jobs[2].start_time is None  # queued behind job 1
    with pytest.raises(TenantError, match="has not started"):
        engine.validate_request(
            DecisionRequest(tenant="t", now=10.0, finished=(2,))
        )


# ----------------------------------------------------------------------
# Snapshot / restore
# ----------------------------------------------------------------------
@pytest.mark.fault_sensitive  # an injected service.snapshot tear breaks restore
def test_snapshot_restore_midstream_continues_bit_identically(tmp_path):
    workload = _workload()
    requests = _grouped_requests("t", workload.fresh_jobs())
    split = len(requests) // 2

    original = TenantEngine(
        "t", _search_policy(),
        cluster_config=workload.cluster, window=workload.window,
    )
    for request in requests[:split]:
        original.handle(request)
    snapshot_tenant(original, tmp_path)

    restored = restore_tenant(tmp_path, "t")
    assert restored.decision_count == original.decision_count
    assert restored.decided_through == original.decided_through

    tail_a, tail_b = [], []
    for request in requests[split:]:
        tail_a.extend(original.handle(request))
        tail_b.extend(restored.handle(request))
    assert tail_a == tail_b
    assert _job_times(original.jobs.values()) == _job_times(
        restored.jobs.values()
    )


def test_snapshot_rotation_keeps_newest(tmp_path):
    engine = _engine()
    for i, now in enumerate((10.0, 20.0, 30.0), start=1):
        engine.handle(_arrival(i, now=now))
        snapshot_tenant(engine, tmp_path, keep=2)
    files = sorted((tmp_path / "t").glob("snap-*.pkl"))
    assert len(files) == 2
    counts = [int(p.stem.split("-")[1]) for p in files]
    assert counts == sorted(counts)
    assert counts[-1] == engine.decision_count


@pytest.mark.fault_sensitive  # relies on the older snapshot being intact
def test_latest_snapshot_skips_a_torn_newest(tmp_path):
    engine = _engine()
    engine.handle(_arrival(1, now=10.0))
    snapshot_tenant(engine, tmp_path, keep=4)
    older_count = engine.decision_count
    engine.handle(_arrival(2, now=20.0))
    newest = snapshot_tenant(engine, tmp_path, keep=4)
    torn = newest.read_bytes()
    newest.write_bytes(torn[: len(torn) // 2])

    recovered = latest_tenant_snapshot(tmp_path, "t")
    assert recovered is not None
    assert recovered.decision_count == older_count


def test_restore_tenant_without_snapshots_raises(tmp_path):
    assert latest_tenant_snapshot(tmp_path, "ghost") is None
    with pytest.raises(FileNotFoundError):
        restore_tenant(tmp_path, "ghost")


def test_tenant_id_hygiene_and_listing(tmp_path):
    assert valid_tenant_id("tenant-01.a_b")
    assert not valid_tenant_id("")
    assert not valid_tenant_id("../escape")
    assert not valid_tenant_id("a" * 65)
    with pytest.raises(ValueError, match="filesystem-safe"):
        snapshot_tenant(
            TenantEngine("no/slash", fcfs_backfill(), small_cluster(4)),
            tmp_path,
        )
    engine = _engine()
    engine.handle(_arrival(1, now=1.0))
    snapshot_tenant(engine, tmp_path)
    assert list_tenants(tmp_path) == ["t"]
    assert list_tenants(tmp_path / "missing") == []
