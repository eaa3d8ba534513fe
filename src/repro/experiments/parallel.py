"""Process-pool experiment executor with a deterministic run cache.

The paper's evaluation is a grid of independent (workload, policy)
simulations, which makes it embarrassingly parallel: this module fans a
list of picklable :class:`RunSpec` cells across ``os.cpu_count()`` worker
processes and layers the content-addressed :class:`~repro.experiments
.cache.RunCache` on top, so a figure grid is only ever simulated once per
spec — and the first time, as wide as the hardware allows.

Design constraints, in order:

1. **Bit-identical results.**  A worker resolves its workload from the
   same deterministic generator inputs the serial path uses and installs a
   per-run :class:`~repro.util.rng.RngStream` derived from the spec hash
   (never the global RNG state), so ``max_workers=N`` produces exactly the
   metrics of ``max_workers=1`` — asserted by
   ``tests/test_parallel_runner.py``.
2. **Failure isolation.**  A run that raises returns a structured
   :class:`RunError` (type, message, traceback) in its grid slot instead
   of killing sibling runs.
3. **Graceful degradation.**  ``max_workers=1`` and non-picklable specs
   (e.g. lambda policy factories) run serially in-process through the
   identical code path; nothing requires a pool.
4. **Bounded self-healing.**  Failed cells are retried up to a per-run
   retry budget (``retries=`` / ``REPRO_RUN_RETRIES``, default 1) — runs
   are deterministic, so a retry only helps against *transient* failures
   (a broken process pool, an interrupted worker), which is exactly the
   class worth absorbing.  Every failure, recovered or not, is recorded
   in the grid's :class:`FailureLedger`, the machine-readable account of
   what failed, how often it was attempted, and why.

``run_grid`` is the primitive; ``run_all`` is the figure/claims-facing
wrapper that honours the session-wide :class:`ExecutionConfig` (set by
the CLI's ``--workers``/``--no-cache`` flags, ``REPRO_WORKERS``/
``REPRO_CACHE`` env vars, or ``benchmarks/conftest.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.experiments.cache import CACHE_VERSION, RunCache
from repro.experiments.runner import PolicyRun, simulate
from repro.util.rng import derive_run_stream, set_run_stream
from repro.simulator.policy import SchedulingPolicy
from repro.workloads.estimates import (
    MenuEstimates,
    UniformFactorEstimates,
    apply_estimates,
)
from repro.workloads.scaling import scale_to_load
from repro.workloads.synthetic import generate_month
from repro.workloads.trace import Workload

_ESTIMATE_MODELS = {"menu": MenuEstimates, "uniform": UniformFactorEstimates}


# ----------------------------------------------------------------------
# Picklable run specs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """Deterministic recipe for a synthetic workload.

    Cheap to pickle (a few scalars instead of thousands of jobs); workers
    rebuild and memoize the workload locally.  ``build()`` applies the
    same pipeline the figures use: generate, then scale to ``load``, then
    synthesize runtime ``estimates`` (menu/uniform) — order matters.
    """

    month: str
    seed: int = 2005
    scale: float = 1.0
    load: float | None = None
    estimates: str | None = None
    estimates_seed: int = 0

    def __post_init__(self) -> None:
        if self.estimates is not None and self.estimates not in _ESTIMATE_MODELS:
            raise ValueError(
                f"unknown estimate model {self.estimates!r}; "
                f"choose from {sorted(_ESTIMATE_MODELS)}"
            )

    @property
    def name(self) -> str:
        return self.month

    def build(self) -> Workload:
        return _build_workload(self)


@lru_cache(maxsize=32)
def _build_workload(spec: WorkloadSpec) -> Workload:
    """Per-process workload memo: a month is generated once per worker."""
    workload = generate_month(spec.month, seed=spec.seed, scale=spec.scale)
    if spec.load is not None:
        workload = scale_to_load(workload, spec.load)
    if spec.estimates is not None:
        model = _ESTIMATE_MODELS[spec.estimates]()
        workload = apply_estimates(workload, model, seed=spec.estimates_seed)
    return workload


@dataclass(frozen=True)
class PolicySpec:
    """Picklable policy description using the CLI spec grammar.

    ``spec`` accepts everything ``repro run --policy`` does: ``fcfs-bf``,
    ``lxf-bf``, ``lookahead``, ``selective``, ``dds/lxf/dynB``,
    ``lds/fcfs/fixB50h``, ...  ``node_limit`` only matters for search
    specs; pass 0 for backfill policies so cache keys don't fragment.
    """

    spec: str
    node_limit: int = 1000
    use_actual_runtime: bool = True

    def build(self) -> SchedulingPolicy:
        from repro.cli import parse_policy  # deferred: cli imports experiments

        return parse_policy(self.spec, self.node_limit, self.use_actual_runtime)


#: Alternative to :class:`PolicySpec`: any zero-argument policy factory.
PolicyFactory = Callable[[], SchedulingPolicy]


@dataclass(frozen=True)
class RunSpec:
    """One grid cell: a workload and the policy to simulate on it.

    ``workload`` may be a :class:`WorkloadSpec` (preferred — cheap to ship
    to workers, cacheable) or a concrete :class:`Workload`.  ``policy``
    may be a :class:`PolicySpec` or any factory callable; factory-based
    cells are never cached and fall back to serial execution when the
    factory cannot be pickled.
    """

    workload: "WorkloadSpec | Workload"
    policy: "PolicySpec | PolicyFactory"
    label: str | None = None

    @property
    def workload_name(self) -> str:
        return self.workload.name

    @property
    def policy_key(self) -> str:
        if self.label is not None:
            return self.label
        if isinstance(self.policy, PolicySpec):
            return self.policy.spec
        return getattr(self.policy, "__name__", repr(self.policy))


@dataclass(frozen=True)
class RunError:
    """Structured record of one failed run; siblings are unaffected."""

    workload_name: str
    policy_key: str
    error_type: str
    message: str
    traceback: str

    def __str__(self) -> str:
        return (
            f"{self.workload_name}/{self.policy_key}: "
            f"{self.error_type}: {self.message}"
        )


@dataclass(frozen=True)
class FailureRecord:
    """One grid cell's failure history across its retry attempts."""

    index: int
    workload_name: str
    policy_key: str
    #: Total executions of the cell (first attempt + retries).
    attempts: int
    #: Whether a retry eventually produced a :class:`PolicyRun`.
    recovered: bool
    #: The error of every *failed* attempt, in order.
    errors: tuple[RunError, ...]


@dataclass
class FailureLedger:
    """Machine-readable account of everything that failed in a grid.

    A grid under faults completes with partial results; this ledger is
    the other half of the contract — a durable, structured record of
    which cells failed, how many attempts each consumed, and the error of
    every failed attempt.  ``write()`` persists it atomically as JSON.
    """

    retry_budget: int
    records: list[FailureRecord] = field(default_factory=list)

    def __bool__(self) -> bool:
        return bool(self.records)

    @property
    def recovered(self) -> list[FailureRecord]:
        return [r for r in self.records if r.recovered]

    @property
    def unrecovered(self) -> list[FailureRecord]:
        return [r for r in self.records if not r.recovered]

    def to_payload(self) -> dict[str, Any]:
        return {
            "retry_budget": self.retry_budget,
            "failed_cells": len(self.records),
            "recovered": len(self.recovered),
            "unrecovered": len(self.unrecovered),
            "records": [
                {
                    "index": r.index,
                    "workload": r.workload_name,
                    "policy": r.policy_key,
                    "attempts": r.attempts,
                    "recovered": r.recovered,
                    "errors": [
                        {"type": e.error_type, "message": e.message}
                        for e in r.errors
                    ],
                }
                for r in self.records
            ],
        }

    def write(self, path: "str | Path") -> "Path":
        """Atomically persist the ledger as JSON; returns the path."""
        from repro.util.atomio import atomic_write_json

        return atomic_write_json(path, self.to_payload(), indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# Cache keys
# ----------------------------------------------------------------------
def _workload_fingerprint(workload: "WorkloadSpec | Workload") -> dict[str, Any]:
    if isinstance(workload, WorkloadSpec):
        return {"kind": "synthetic", **asdict(workload)}
    digest = hashlib.sha256()
    for j in workload.jobs:
        digest.update(
            f"{j.job_id},{j.submit_time!r},{j.nodes},"
            f"{j.runtime!r},{j.requested_runtime!r},{j.user}\n".encode()
        )
    limits = workload.cluster.limits
    return {
        "kind": "trace",
        "name": workload.name,
        "window": list(workload.window),
        "nodes": workload.cluster.nodes,
        "max_nodes": limits.max_nodes,
        "max_runtime": limits.max_runtime,
        "jobs_sha": digest.hexdigest(),
        "n_jobs": len(workload.jobs),
    }


def cache_payload(spec: RunSpec) -> dict[str, Any] | None:
    """The spec's full cache-key contents, or ``None`` if uncacheable.

    A cell is cacheable iff its policy is a declarative :class:`PolicySpec`
    (an opaque factory cannot be fingerprinted safely).  The payload hashes
    the workload recipe (or trace content), the complete policy config, and
    :data:`~repro.experiments.cache.CACHE_VERSION` for simulation
    semantics.
    """
    if not isinstance(spec.policy, PolicySpec):
        return None
    return {
        "version": CACHE_VERSION,
        "workload": _workload_fingerprint(spec.workload),
        "policy": asdict(spec.policy),
    }


def cache_key(spec: RunSpec) -> str | None:
    """Content hash of a cacheable spec, or ``None``."""
    payload = cache_payload(spec)
    if payload is None:
        return None
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------
def _run_seed(spec: RunSpec) -> int:
    """Deterministic per-run seed, independent of worker assignment."""
    if isinstance(spec.policy, PolicySpec):
        policy_token: object = asdict(spec.policy)
    else:
        policy_token = getattr(spec.policy, "__qualname__", repr(spec.policy))
    text = json.dumps(
        ["run-seed", _workload_fingerprint(spec.workload), policy_token],
        sort_keys=True,
        default=str,
    )
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def _execute(item: tuple[int, RunSpec]) -> "tuple[int, PolicyRun | RunError]":
    """Run one cell; never raises (exceptions become :class:`RunError`)."""
    index, spec = item
    # Per-run randomness goes through a derived stream, never the global
    # random/np.random state (simlint SIM002): the stream is a pure
    # function of the spec, so results are identical regardless of which
    # worker — or how many — executes the cell.
    previous = set_run_stream(derive_run_stream(_run_seed(spec)))
    try:
        workload = (
            spec.workload if isinstance(spec.workload, Workload) else spec.workload.build()
        )
        policy = (
            spec.policy.build() if isinstance(spec.policy, PolicySpec) else spec.policy()
        )
        return index, simulate(workload, policy)
    except Exception as exc:
        return index, RunError(
            workload_name=spec.workload_name,
            policy_key=spec.policy_key,
            error_type=type(exc).__name__,
            message=str(exc),
            traceback=traceback.format_exc(),
        )
    finally:
        set_run_stream(previous)


def _picklable(spec: RunSpec) -> bool:
    try:
        pickle.dumps(spec)
        return True
    except Exception:
        return False


# ----------------------------------------------------------------------
# The grid executor
# ----------------------------------------------------------------------
@dataclass
class GridOutcome:
    """Results of one grid, aligned with its input specs.

    ``entries[i]`` is the :class:`PolicyRun` for ``specs[i]`` or a
    :class:`RunError` if that run failed.  ``executed`` counts the
    simulations actually performed (cache hits excluded), which is what a
    warm-cache rerun drives to zero.
    """

    specs: list[RunSpec]
    entries: "list[PolicyRun | RunError]"
    elapsed_seconds: float
    workers: int
    executed: int
    cache_hits: int
    #: Failure history of every cell that ever failed (incl. recovered).
    ledger: FailureLedger = field(default_factory=lambda: FailureLedger(0))

    @property
    def errors(self) -> list[RunError]:
        return [e for e in self.entries if isinstance(e, RunError)]

    @property
    def runs(self) -> list[PolicyRun]:
        return [e for e in self.entries if isinstance(e, PolicyRun)]

    @property
    def sim_seconds(self) -> float:
        """Total single-core simulation time across successful runs."""
        return sum(r.wall_seconds for r in self.runs)

    @property
    def speedup(self) -> float:
        """Aggregate speedup: simulation seconds delivered per wall second."""
        if self.elapsed_seconds <= 0:
            return 1.0
        return self.sim_seconds / self.elapsed_seconds

    def by_key(self) -> "dict[tuple[str, str], PolicyRun]":
        """Successful runs keyed by ``(workload_name, policy_key)``."""
        return {
            (spec.workload_name, spec.policy_key): entry
            for spec, entry in zip(self.specs, self.entries)
            if isinstance(entry, PolicyRun)
        }

    def raise_errors(self) -> None:
        """Raise ``RuntimeError`` summarizing failures, if any."""
        errors = self.errors
        if errors:
            summary = "; ".join(str(e) for e in errors[:3])
            if len(errors) > 3:
                summary += f"; ... {len(errors) - 3} more"
            raise RuntimeError(
                f"{len(errors)}/{len(self.entries)} runs failed: {summary}\n"
                f"first traceback:\n{errors[0].traceback}"
            )


def resolve_workers(value: "int | str | None") -> int:
    """Normalize a worker-count request: ``None``/'' -> 1, 0 -> all cores."""
    if value is None or value == "":
        return 1
    count = int(value)
    if count <= 0:
        return os.cpu_count() or 1
    return count


#: Default per-cell retry budget when neither the ``retries`` argument nor
#: ``REPRO_RUN_RETRIES`` says otherwise.
DEFAULT_RUN_RETRIES = 1


def resolve_retries(value: "int | str | None" = None) -> int:
    """Normalize a retry-budget request (``None`` -> env -> default)."""
    if value is None or value == "":
        raw = os.environ.get("REPRO_RUN_RETRIES", "").strip()
        if not raw:
            return DEFAULT_RUN_RETRIES
        value = raw
    try:
        return max(0, int(value))
    except ValueError:
        return DEFAULT_RUN_RETRIES


def run_grid(
    specs: Iterable[RunSpec],
    max_workers: "int | None" = None,
    cache: RunCache | None = None,
    retries: "int | None" = None,
) -> GridOutcome:
    """Execute a grid of runs, in parallel where possible.

    Cache hits are resolved first; the remaining cells go to a process
    pool when ``max_workers`` resolves above 1 (0 means all cores), with
    non-picklable cells — and everything, when the pool is unavailable —
    executed serially through the identical worker function.  Failed
    cells are retried serially up to ``retries`` times (``None`` defers
    to ``REPRO_RUN_RETRIES``), and every failure lands in the outcome's
    :class:`FailureLedger`.  Results are returned in spec order
    regardless of completion order.
    """
    specs = list(specs)
    started = time.perf_counter()
    workers = resolve_workers(max_workers)
    entries: "list[PolicyRun | RunError | None]" = [None] * len(specs)
    keys: list[str | None] = [None] * len(specs)

    pending: list[int] = []
    cache_hits = 0
    for i, spec in enumerate(specs):
        if cache is not None:
            keys[i] = cache_key(spec)
            if keys[i] is not None:
                hit = cache.get(keys[i])
                if hit is not None:
                    entries[i] = hit
                    cache_hits += 1
                    continue
        pending.append(i)

    serial = pending
    if workers > 1 and len(pending) > 1:
        pooled = [i for i in pending if _picklable(specs[i])]
        serial = [i for i in pending if i not in set(pooled)]
        if pooled:
            with ProcessPoolExecutor(max_workers=min(workers, len(pooled))) as pool:
                futures = [pool.submit(_execute, (i, specs[i])) for i in pooled]
                for i, future in zip(pooled, futures):
                    try:
                        _, outcome = future.result()
                    except Exception as exc:  # pool/transport failure
                        outcome = RunError(
                            workload_name=specs[i].workload_name,
                            policy_key=specs[i].policy_key,
                            error_type=type(exc).__name__,
                            message=str(exc),
                            traceback=traceback.format_exc(),
                        )
                    entries[i] = outcome
    for i in serial:
        _, entries[i] = _execute((i, specs[i]))

    # Bounded self-healing: re-execute failed cells serially (the identical
    # worker function, so a recovered retry is bit-identical to a clean
    # first attempt) and keep a ledger of every failure either way.
    retry_budget = resolve_retries(retries)
    ledger = FailureLedger(retry_budget=retry_budget)
    failed = [i for i in pending if isinstance(entries[i], RunError)]
    history: dict[int, list[RunError]] = {
        i: [entries[i]] for i in failed  # type: ignore[list-item]
    }
    for _attempt in range(retry_budget):
        if not failed:
            break
        still_failed: list[int] = []
        for i in failed:
            _, outcome = _execute((i, specs[i]))
            entries[i] = outcome
            if isinstance(outcome, RunError):
                history[i].append(outcome)
                still_failed.append(i)
        failed = still_failed
    for i in sorted(history):
        errors = history[i]
        recovered = not isinstance(entries[i], RunError)
        ledger.records.append(
            FailureRecord(
                index=i,
                workload_name=specs[i].workload_name,
                policy_key=specs[i].policy_key,
                attempts=len(errors) + (1 if recovered else 0),
                recovered=recovered,
                errors=tuple(errors),
            )
        )

    if cache is not None:
        for i in pending:
            entry = entries[i]
            if keys[i] is not None and isinstance(entry, PolicyRun):
                cache.put(keys[i], entry, spec_note=cache_payload(specs[i]))

    result = GridOutcome(
        specs=specs,
        entries=entries,  # type: ignore[arg-type]  # every slot is filled
        elapsed_seconds=time.perf_counter() - started,
        workers=workers,
        executed=len(pending),
        cache_hits=cache_hits,
        ledger=ledger,
    )
    _session_stats.record(result)
    return result


# ----------------------------------------------------------------------
# Session-wide execution configuration (CLI / env / benchmark harness)
# ----------------------------------------------------------------------
@dataclass
class ExecutionConfig:
    """How ``run_all`` executes grids for the rest of the session."""

    max_workers: int = 1
    cache: RunCache | None = None
    retries: int = DEFAULT_RUN_RETRIES


_active_config: ExecutionConfig | None = None


def default_execution() -> ExecutionConfig:
    """Config from the environment: ``REPRO_WORKERS``, ``REPRO_CACHE[_DIR]``,
    ``REPRO_RUN_RETRIES``."""
    cache = None
    if os.environ.get("REPRO_CACHE", "").strip() in {"1", "true", "yes"}:
        cache = RunCache(os.environ.get("REPRO_CACHE_DIR") or None)
    return ExecutionConfig(
        max_workers=resolve_workers(os.environ.get("REPRO_WORKERS")),
        cache=cache,
        retries=resolve_retries(),
    )


def configure(
    max_workers: "int | None" = None,
    cache: RunCache | None = None,
    retries: "int | None" = None,
) -> ExecutionConfig:
    """Set the session execution config (CLI flags, benchmark harness)."""
    global _active_config
    _active_config = ExecutionConfig(
        max_workers=resolve_workers(max_workers),
        cache=cache,
        retries=resolve_retries(retries),
    )
    return _active_config


def reset_execution() -> None:
    """Drop any ``configure()`` override, returning to env defaults."""
    global _active_config
    _active_config = None


def active_execution() -> ExecutionConfig:
    return _active_config if _active_config is not None else default_execution()


def run_all(specs: Sequence[RunSpec]) -> list[PolicyRun]:
    """Run a grid under the active config; raise if any cell failed.

    This is what the figure and claims builders call: success means a
    full list of runs in spec order, failure means a ``RuntimeError``
    carrying every error record.
    """
    config = active_execution()
    outcome = run_grid(
        specs,
        max_workers=config.max_workers,
        cache=config.cache,
        retries=config.retries,
    )
    outcome.raise_errors()
    return outcome.entries  # type: ignore[return-value]  # no errors left


# ----------------------------------------------------------------------
# Session accounting: per-run wall time and aggregate speedup
# ----------------------------------------------------------------------
@dataclass
class SessionStats:
    """Accumulated grid statistics for the run report."""

    grids: int = 0
    runs: int = 0
    executed: int = 0
    cache_hits: int = 0
    errors: int = 0
    elapsed_seconds: float = 0.0
    sim_seconds: float = 0.0
    max_workers: int = 1

    def record(self, outcome: GridOutcome) -> None:
        self.grids += 1
        self.runs += len(outcome.entries)
        self.executed += outcome.executed
        self.cache_hits += outcome.cache_hits
        self.errors += len(outcome.errors)
        self.elapsed_seconds += outcome.elapsed_seconds
        self.sim_seconds += outcome.sim_seconds
        self.max_workers = max(self.max_workers, outcome.workers)

    @property
    def speedup(self) -> float:
        if self.elapsed_seconds <= 0:
            return 1.0
        return self.sim_seconds / self.elapsed_seconds

    def summary(self) -> str:
        return (
            f"{self.runs} runs ({self.executed} executed, "
            f"{self.cache_hits} cache hits, {self.errors} errors) in "
            f"{self.elapsed_seconds:.1f} s wall; {self.sim_seconds:.1f} s of "
            f"simulation -> speedup x{self.speedup:.2f} "
            f"(workers <= {self.max_workers})"
        )


_session_stats = SessionStats()


def session_stats() -> SessionStats:
    """Statistics accumulated by every ``run_grid`` since the last reset."""
    return _session_stats


def reset_session_stats() -> SessionStats:
    global _session_stats
    _session_stats = SessionStats()
    return _session_stats
