"""Tests of the persistent worker pool (``repro.util.workerpool``).

The pool's contract toward the decision service's pool rung: lazily
spawned, persistent across uses, registry-deduplicated per worker count,
and degrades (never raises) into "unavailable" when broken — the ladder
then answers inline.
"""

from __future__ import annotations

import pytest

from repro.util import workerpool
from repro.util.workerpool import (
    WorkerPool,
    available_cores,
    get_pool,
    shutdown_all,
)


def _square(x: int) -> int:
    return x * x


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with an empty pool registry."""
    shutdown_all()
    yield
    shutdown_all()


def test_available_cores_positive():
    assert available_cores() >= 1


def test_pool_rejects_bad_size():
    with pytest.raises(ValueError):
        WorkerPool(0)


def test_pool_lifecycle_and_submit():
    pool = WorkerPool(2)
    assert not pool.started
    assert pool.ensure_started()
    assert pool.started
    assert pool.submit(_square, 7).result(timeout=60) == 49
    # ensure_started is idempotent: same executor, no respawn.
    assert pool.ensure_started()
    pool.shutdown()
    assert not pool.started
    # A plain shutdown leaves the pool reusable.
    assert pool.ensure_started(warm=False)
    assert pool.submit(_square, 3).result(timeout=60) == 9
    pool.shutdown()


def test_mark_broken_is_terminal():
    pool = WorkerPool(1)
    assert pool.ensure_started(warm=False)
    pool.mark_broken()
    assert not pool.started
    assert not pool.ensure_started()
    with pytest.raises(RuntimeError):
        pool.submit(_square, 1)


def test_registry_deduplicates_by_worker_count():
    a = get_pool(2)
    b = get_pool(2)
    c = get_pool(3)
    assert a is b
    assert a is not c
    assert a.workers == 2 and c.workers == 3
    shutdown_all()
    # After shutdown_all the registry is empty: a fresh object is handed out.
    assert get_pool(2) is not a


# ----------------------------------------------------------------------
# Supervision: crash, respawn budget, deadlines
# ----------------------------------------------------------------------
def test_crash_worker_breaks_the_executor():
    """crash_worker produces the *real* failure mode supervision must
    handle: the executor goes broken and subsequent futures raise."""
    pool = WorkerPool(1)
    assert pool.ensure_started()
    assert pool.crash_worker()
    with pytest.raises(Exception):  # BrokenProcessPool, surfaced on result
        pool.submit(_square, 2).result(timeout=60)
    pool.mark_broken()
    assert pool.failed


def test_respawn_budget_is_bounded_then_permanent():
    pool = WorkerPool(1, max_respawns=2)
    for expected in (1, 2):
        pool.mark_broken()
        assert pool.failed
        assert pool.respawn()
        assert pool.respawns_used == expected
        assert not pool.failed
        assert pool.ensure_started(warm=False)
    pool.mark_broken()
    assert not pool.respawn()  # budget spent: permanently failed
    assert pool.failed
    assert not pool.ensure_started()
    pool.shutdown()


def test_respawned_pool_actually_works_again():
    pool = WorkerPool(1, max_respawns=1)
    assert pool.ensure_started(warm=False)
    assert pool.crash_worker()
    pool.mark_broken()
    assert pool.respawn()
    assert pool.ensure_started(warm=False)
    assert pool.submit(_square, 6).result(timeout=60) == 36
    pool.shutdown()


def test_warmup_deadline_overrun_marks_pool_broken_not_raises():
    """Satellite fix for the hard-coded 60 s warm-up: an impossible
    deadline degrades into the inline fallback instead of raising."""
    pool = WorkerPool(2, warmup_deadline=1e-9)
    assert not pool.ensure_started(warm=True)
    assert pool.failed
    with pytest.raises(RuntimeError):
        pool.submit(_square, 1)


def test_zero_respawn_budget_is_immediately_permanent(monkeypatch):
    """``REPRO_POOL_RESPAWNS=0`` means the first breakage is the last:
    no credit is ever available, so callers drop straight into the
    permanent inline fallback."""
    monkeypatch.setenv("REPRO_POOL_RESPAWNS", "0")
    pool = WorkerPool(1)
    assert pool.max_respawns == 0
    assert pool.ensure_started(warm=False)
    pool.mark_broken()
    assert not pool.respawn()
    assert pool.respawns_used == 0
    assert pool.failed
    assert not pool.ensure_started()
    with pytest.raises(RuntimeError):
        pool.submit(_square, 1)


def test_deadline_expiring_during_warmup_degrades_then_respawns():
    """A result deadline that expires while the warm-up wave is still
    forking workers breaks the pool (callers fall back inline) rather
    than raising — and a respawn credit plus a sane deadline revives it."""
    pool = WorkerPool(1, warmup_deadline=1e-4, max_respawns=1)
    assert not pool.ensure_started(warm=True)  # forking takes > 0.1 ms
    assert pool.failed
    assert pool.respawn()
    pool.warmup_deadline = workerpool.DEFAULT_WARMUP_TIMEOUT
    assert pool.ensure_started(warm=True)
    assert pool.submit(_square, 5).result(timeout=60) == 25
    pool.shutdown()


def test_warmup_deadline_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_WARMUP_TIMEOUT", "123.5")
    assert WorkerPool(1).warmup_deadline == 123.5
    monkeypatch.setenv("REPRO_POOL_WARMUP_TIMEOUT", "not-a-number")
    assert WorkerPool(1).warmup_deadline == workerpool.DEFAULT_WARMUP_TIMEOUT


def test_respawn_budget_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_POOL_RESPAWNS", "5")
    assert WorkerPool(1).max_respawns == 5


def test_retry_backoff_is_deterministic_and_capped():
    delays = [workerpool.retry_backoff(a) for a in range(8)]
    assert delays == sorted(delays)
    assert delays[0] == pytest.approx(0.05)
    assert max(delays) == 0.5
    assert [workerpool.retry_backoff(a) for a in range(8)] == delays


def test_spawn_fault_degrades_to_unavailable():
    from repro.util.faults import FaultPlan, injected_faults

    pool = WorkerPool(1)
    with injected_faults(FaultPlan.parse("seed=1,worker.spawn=1.0")):
        assert not pool.ensure_started()
    assert pool.failed
