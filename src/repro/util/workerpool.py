"""Persistent, supervised process worker pool shared across decisions.

The decision service's pool rung (:mod:`repro.service.executor`) offloads
whole scheduling decisions to worker processes.  Decisions are frequent
and individually small (milliseconds), so paying a fork + warm-up per
decision would drown the work itself.  This module therefore keeps **one
pool per worker count alive for the whole process**:

- :func:`get_pool` returns the registered :class:`WorkerPool` for a size,
  creating the object lazily; the underlying executor is spawned on first
  use, or eagerly via :meth:`WorkerPool.ensure_started`;
- pools stay warm across decisions, and are torn down at interpreter exit
  (or explicitly via :func:`shutdown_all`, which tests use).

Supervision (the fault-tolerance layer, see ``docs/robustness.md``): a
pool that breaks — a worker dies mid-task (``BrokenProcessPool``), the
warm-up exceeds its deadline, the executor cannot spawn — is marked
broken, and callers may :meth:`~WorkerPool.respawn` it a bounded number
of times (``REPRO_POOL_RESPAWNS``).  Once the respawn budget is spent the
pool is permanently failed and callers run inline instead — nothing here
ever raises for "no parallelism available".  Fault injection
(:mod:`repro.util.faults`) hooks the spawn path (``worker.spawn``) and
can kill a live worker for real (:meth:`~WorkerPool.crash_worker`), so
the whole recovery ladder is exercised deterministically in tests and in
the chaos CI job.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import time
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Any, Callable, TypeVar

from repro.util import faults

_T = TypeVar("_T")

#: Default warm-up deadline (seconds); override per pool or via
#: ``REPRO_POOL_WARMUP_TIMEOUT``.
DEFAULT_WARMUP_TIMEOUT = 60.0

#: Default number of times a broken pool may be respawned before it is
#: permanently failed; override per pool or via ``REPRO_POOL_RESPAWNS``.
DEFAULT_MAX_RESPAWNS = 2


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return float(raw)
    except ValueError:
        return default


def _env_int(name: str, default: int) -> int:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        return default


def warmup_timeout() -> float:
    """The configured pool warm-up deadline in seconds."""
    return _env_float("REPRO_POOL_WARMUP_TIMEOUT", DEFAULT_WARMUP_TIMEOUT)


def retry_backoff(attempt: int, base: float = 0.05, cap: float = 0.5) -> float:
    """Deterministic exponential backoff delay (seconds) for retry ``attempt``.

    Purely a pacing aid between retries — it cannot affect results, only
    wall time, so there is no jitter to keep replay exact.
    """
    return min(base * (2.0 ** max(0, attempt)), cap)


def _warm(index: int, naptime: float) -> int:
    """No-op warm-up task; the sleep keeps early workers busy so the
    executor actually spawns one process per outstanding task."""
    if naptime > 0.0:
        time.sleep(naptime)
    return index


def _abrupt_exit(code: int) -> None:
    """Kill the calling worker without cleanup (crash_worker payload)."""
    os._exit(code)


def available_cores() -> int:
    """CPUs this process may actually use (affinity-aware)."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


class WorkerPool:
    """A lazily-spawned, persistent process pool of a fixed size.

    Instances are cheap until :meth:`ensure_started` (or the first
    :meth:`submit`) actually creates the executor.  A pool that fails to
    start marks itself broken; callers should run inline, or ask for a
    bounded :meth:`respawn` first.
    """

    def __init__(
        self,
        workers: int,
        warmup_deadline: float | None = None,
        max_respawns: int | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.workers = workers
        #: Seconds the warm-up wave may take before the pool is declared
        #: broken (satellite fix: this used to be a hard-coded 60).
        self.warmup_deadline = (
            warmup_deadline if warmup_deadline is not None else warmup_timeout()
        )
        self.max_respawns = (
            max_respawns
            if max_respawns is not None
            else _env_int("REPRO_POOL_RESPAWNS", DEFAULT_MAX_RESPAWNS)
        )
        self._executor: ProcessPoolExecutor | None = None
        self._failed = False
        self._respawns = 0

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._executor is not None

    @property
    def failed(self) -> bool:
        """Whether the pool is currently marked broken."""
        return self._failed

    @property
    def respawns_used(self) -> int:
        return self._respawns

    def ensure_started(self, warm: bool = True) -> bool:
        """Spawn the executor if needed; ``False`` if unavailable.

        With ``warm`` (the default) a wave of trivial tasks is pushed
        through so every worker process exists before real work arrives.
        A warm-up that exceeds :attr:`warmup_deadline` (or a worker that
        dies during it) marks the pool broken instead of raising; callers
        fall back inline, exactly as for any other unavailable pool.
        """
        if self._failed:
            return False
        if self._executor is None:
            try:
                faults.fire("worker.spawn")
                self._executor = ProcessPoolExecutor(
                    max_workers=self.workers, mp_context=mp.get_context()
                )
                if warm:
                    naptime = 0.005 if self.workers > 1 else 0.0
                    futures = [
                        self._executor.submit(_warm, i, naptime)
                        for i in range(self.workers)
                    ]
                    for future in futures:
                        future.result(timeout=self.warmup_deadline)
            except Exception:
                # Covers spawn failure, a worker dying during warm-up
                # (BrokenProcessPool) and a warm-up deadline overrun
                # (TimeoutError): the pool is broken, not the caller.
                self.shutdown(wait=False)
                self._failed = True
                return False
        return True

    # ------------------------------------------------------------------
    def submit(self, fn: Callable[..., _T], /, *args: Any) -> "Future[_T]":
        """Submit one task; raises ``RuntimeError`` if the pool is down."""
        if not self.ensure_started(warm=False) or self._executor is None:
            raise RuntimeError("worker pool is not available")
        return self._executor.submit(fn, *args)

    def crash_worker(self, code: int = 1) -> bool:
        """Kill one live worker abruptly (fault injection / chaos tests).

        Returns whether a kill task could be submitted.  The dying worker
        breaks the executor, so in-flight and subsequent futures raise
        ``BrokenProcessPool`` — the exact failure mode supervision must
        recover from.
        """
        if self._executor is None:
            return False
        try:
            self._executor.submit(_abrupt_exit, code)
            return True
        except Exception:
            return False

    def mark_broken(self) -> None:
        """Record a transport failure: tear down and stop accepting work.

        Tear-down does not wait for workers (a hung worker must not hang
        the supervisor too).  The pool stays failed until — and unless —
        :meth:`respawn` grants another attempt.
        """
        self.shutdown(wait=False)
        self._failed = True

    def respawn(self) -> bool:
        """Clear the broken flag if the respawn budget allows another try.

        Returns ``True`` when the caller may ``ensure_started`` again;
        ``False`` once the budget is spent — the pool is then permanently
        failed and every caller runs inline (the escape hatch that
        guarantees forward progress under arbitrarily hostile faults).
        """
        if self._respawns >= self.max_respawns:
            return False
        self._respawns += 1
        self._failed = False
        return True

    def shutdown(self, wait: bool = True) -> None:
        """Terminate the workers (the pool object itself stays reusable
        unless it was marked broken)."""
        if self._executor is not None:
            self._executor.shutdown(wait=wait, cancel_futures=True)
            self._executor = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "failed" if self._failed else ("up" if self.started else "idle")
        return (
            f"<WorkerPool workers={self.workers} {state} "
            f"respawns={self._respawns}/{self.max_respawns}>"
        )


# ----------------------------------------------------------------------
# Process-wide registry: one pool per worker count, torn down atexit.
# ----------------------------------------------------------------------
_pools: dict[int, WorkerPool] = {}


def get_pool(workers: int) -> WorkerPool:
    """The process-wide persistent pool for ``workers`` workers."""
    pool = _pools.get(workers)
    if pool is None:
        pool = WorkerPool(workers)
        _pools[workers] = pool
    return pool


def shutdown_all() -> None:
    """Shut down and forget every registered pool (tests, atexit)."""
    for pool in list(_pools.values()):
        pool.shutdown()
    _pools.clear()


atexit.register(shutdown_all)
