"""Benchmark inputs: calibrated NCSA months at the paper's high load.

Every workload replays a synthetic month generated from the paper's
calibration (Tables 2-4) with the fixed trace seed :data:`TRACE_SEED`, so
each run sees the same job mix and the same depth of queue.  ``--seed``
then shifts every submit time by a seeded offset in ``[0, JITTER_S)``
before the month is scaled to ρ = 0.9 (``scale_to_load``, the paper's
Fig. 4 high load).  The jitter is enough to change every schedule yet
keeps the month's character (whole fresh months move average bounded
slowdown by a factor of two between seeds).  Even so, one jittered month
moves the schedule-quality metrics by about 10% between seeds, so the
workloads replay several independently jittered copies (``variant``) of
their months and report the mean.

Submit times are rounded to whole seconds before scaling so that two
distinct submit instants are never within the event queue's batching
tolerance of each other: one request per distinct instant then maps onto
exactly one batch-simulator decision point.
"""

from __future__ import annotations

from repro.service.api import DecisionRequest, JobSpec
from repro.simulator.job import Job
from repro.util.rng import RngStream
from repro.workloads.scaling import scale_to_load
from repro.workloads.synthetic import generate_month
from repro.workloads.trace import Workload

#: Generator seed of every calibrated month the benchmark replays.
TRACE_SEED = 2005
#: The paper's artificially high offered load (§4, Fig. 4).
LOAD = 0.9
#: Upper bound of the per-job submit-time offset drawn from ``--seed``.
JITTER_S = 60.0


def month_trace(month: str, seed: int, variant: int) -> Workload:
    """Calibrated ``month`` with seed-jittered submits, scaled to :data:`LOAD`."""
    base = generate_month(month, seed=TRACE_SEED)
    offsets = RngStream(seed, f"perfbench/jitter/{month}/{variant}").uniform(
        0.0, JITTER_S, size=len(base.jobs)
    )
    jobs = [
        Job(
            job_id=job.job_id,
            submit_time=float(round(job.submit_time + float(offset))),
            nodes=job.nodes,
            runtime=job.runtime,
            requested_runtime=job.requested_runtime,
            user=job.user,
        )
        for job, offset in zip(base.jobs, offsets)
    ]
    return scale_to_load(base.with_jobs(jobs), LOAD)


def tenant_requests(tenant: str, workload: Workload) -> "list[DecisionRequest]":
    """One request per distinct submit instant, carrying that instant's arrivals."""
    by_instant: dict[float, list[JobSpec]] = {}
    for job in workload.jobs:  # Workload keeps jobs sorted by submit time
        by_instant.setdefault(job.submit_time, []).append(JobSpec.from_job(job))
    return [
        DecisionRequest(tenant=tenant, now=now, arrivals=tuple(specs))
        for now, specs in by_instant.items()
    ]
