"""Struct-of-arrays instance view and delta leaf scoring for the search.

The fast engine's per-node hot path (see :mod:`repro.core.search`) scores
candidate schedules *incrementally*: instead of threading a freshly
allocated accumulator tuple through every recursion level and re-reading
job attributes and a ``job_id``-keyed runtime dict at each placement, it
keeps every per-job quantity in flat arrays indexed by the job's **dense
index** (its position in ``SearchProblem.jobs``) and threads two plain
floats — the accumulated excessive wait and the accumulated bounded
slowdown — down the path.  This module owns that representation:

- :class:`JobArrays` — the struct-of-arrays view of one decision point's
  job set (submit times, node counts, planning runtimes, and the
  floor-clamped slowdown denominators), with numpy mirrors for the
  vectorized leaf fold;
- :func:`fold_chain_terms` — the delta leaf scorer: add ``m`` placements'
  objective terms to the running ``(excess, slowdown)`` accumulators.

**The association-order contract.**  Every total this module produces
must be **bit-equal** (ulp-exact, not approximately equal) to the
reference engine's tuple accumulation, which folds jobs strictly
left-to-right in placement order::

    acc_excess   = ((0.0 + e_1) + e_2) + ... + e_m
    acc_slowdown = ((0.0 + s_1) + s_2) + ... + s_m

Floating-point addition is not associative, so any re-association — a
pairwise numpy ``sum``, ``math.fsum``, accumulating the chain tail
separately and adding it to the prefix — would drift from the spec by
ulps and break the engines' bit-identity contract.  The pure-python path
folds left-to-right by construction; the vectorized path seeds a buffer
with the incoming accumulator and takes the last element of
``np.add.accumulate``, which is defined as the same sequential
left-to-right fold.  A Hypothesis property in
``tests/test_deltascore.py`` pins both paths to the reference tuple-sum
bit-for-bit.

The per-term arithmetic also replicates the reference operations exactly
(:func:`repro.core.search.build_strategy`)::

    wait  = start - submit          # seconds waited
    e     = max(0.0, wait - omega)  # level 1: excessive wait
    s     = (wait + denom) / denom  # level 2: bounded slowdown

with ``denom`` pre-clamped to the slowdown floor (the clamp is
placement-independent, so it is hoisted into :class:`JobArrays` once per
search).  Skipping the ``+ 0.0`` when ``e`` is not positive is exact:
the accumulator starts at ``+0.0`` and never goes negative, and
``x + 0.0 == x`` bit-for-bit for every non-negative ``x``.

Vectorization only pays for itself on long chains — numpy call overhead
dominates below :data:`CHAIN_VECTOR_MIN` elements, where the kernel uses
the pure-python loop instead (measured crossover; see
``docs/performance.md``).
"""

from __future__ import annotations

import os
from typing import Any, Mapping, Sequence

from repro.simulator.job import Job

try:  # numpy is a hard dependency, but degrade gracefully if absent
    import numpy as _np
except Exception:  # pragma: no cover - exercised only on stripped installs
    _np = None  # type: ignore[assignment]

def _chain_vector_min() -> int:
    """The numpy crossover, overridable via ``REPRO_CHAIN_VECTOR_MIN``.

    Hosts differ (numpy build, allocator, core speed), so the measured
    default can be re-tuned per machine without editing code — run
    ``benchmarks/bench_chain_crossover.py`` to measure, then export the
    result.  Unparseable or negative values fall back to the default.
    """
    raw = os.environ.get("REPRO_CHAIN_VECTOR_MIN")
    if raw is not None:
        try:
            value = int(raw)
        except ValueError:
            return 96
        if value >= 0:
            return value
    return 96


#: Minimum chain length for the vectorized leaf fold.  Below this the
#: pure-python loop wins (numpy's per-call overhead — array creation,
#: fancy-index gathers, ufunc dispatch — outweighs the loop savings).
#: Measured on the 30-job bench decision point and synthetic long queues
#: (re-measure on your host with ``benchmarks/bench_chain_crossover.py``);
#: typical per-decision queues sit well under it.  Read once at import;
#: set ``REPRO_CHAIN_VECTOR_MIN`` before importing (or monkeypatch this
#: attribute — the engines read it dynamically) to override.
CHAIN_VECTOR_MIN = _chain_vector_min()


class JobArrays:
    """Flat per-job arrays for one decision point, dense-index addressed.

    ``submit[i]``, ``nodes[i]``, ``runtime[i]`` mirror
    ``SearchProblem.jobs[i]``; ``denom[i]`` is the slowdown denominator
    with the floor clamp already applied (identical bits to clamping at
    every visit, hoisted because it never changes within a search).
    ``np_submit``/``np_denom`` are numpy mirrors for the vectorized leaf
    fold, built on first read (only that fold reads them) and ``None``
    when numpy is unavailable.
    """

    __slots__ = ("submit", "nodes", "runtime", "denom", "_np_submit", "_np_denom")

    def __init__(
        self,
        submit: list[float],
        nodes: list[int],
        runtime: list[float],
        denom: list[float],
    ) -> None:
        self.submit = submit
        self.nodes = nodes
        self.runtime = runtime
        self.denom = denom
        self._np_submit: Any = None
        self._np_denom: Any = None

    @property
    def np_submit(self) -> Any:
        if self._np_submit is None and _np is not None:
            self._np_submit = _np.asarray(self.submit, dtype=_np.float64)
        return self._np_submit

    @property
    def np_denom(self) -> Any:
        if self._np_denom is None and _np is not None:
            self._np_denom = _np.asarray(self.denom, dtype=_np.float64)
        return self._np_denom

    @classmethod
    def build(
        cls, jobs: Sequence[Job], rt: Mapping[int, float], floor: float
    ) -> "JobArrays":
        """The SoA view of ``jobs`` with planning runtimes ``rt``.

        ``floor`` is ``ObjectiveConfig.slowdown_floor``; the clamp below
        matches ``build_strategy``'s ``if denom < floor: denom = floor``
        branch bit-for-bit (same comparison, same chosen value).
        """
        submit = [job.submit_time for job in jobs]
        nodes = [job.nodes for job in jobs]
        runtime = [rt[job.job_id] for job in jobs]
        denom = [r if r >= floor else floor for r in runtime]
        return cls(submit, nodes, runtime, denom)


def fold_chain_terms(
    exc: float,
    slow: float,
    idxs: Sequence[int],
    starts: Sequence[float],
    d0: int,
    m: int,
    arrays: JobArrays,
    omega: float,
    vector: bool | None = None,
) -> tuple[float, float]:
    """Fold ``m`` placements' objective terms into ``(exc, slow)``.

    The placements are ``idxs[d0:d0+m]`` (dense job indices) started at
    ``starts[d0:d0+m]``.  Returns the accumulated totals, bit-equal to
    extending the reference tuple accumulator job-by-job in the same
    order.  ``vector`` forces the numpy (``True``) or pure-python
    (``False``) path; ``None`` picks by :data:`CHAIN_VECTOR_MIN`.
    """
    if vector is None:
        vector = _np is not None and m >= CHAIN_VECTOR_MIN
    if vector and _np is not None and arrays.np_submit is not None:
        idx = _np.asarray(idxs[d0 : d0 + m], dtype=_np.intp)
        s = _np.asarray(starts[d0 : d0 + m], dtype=_np.float64)
        wait = s - arrays.np_submit[idx]
        e = wait - omega
        _np.maximum(e, 0.0, out=e)
        den = arrays.np_denom[idx]
        sl = (wait + den) / den
        # Seed element 0 with the incoming accumulator so accumulate()'s
        # sequential fold reproduces ((exc + t_1) + t_2) + ... exactly.
        eb = _np.empty(m + 1, dtype=_np.float64)
        eb[0] = exc
        eb[1:] = e
        sb = _np.empty(m + 1, dtype=_np.float64)
        sb[0] = slow
        sb[1:] = sl
        return (
            float(_np.add.accumulate(eb)[-1]),
            float(_np.add.accumulate(sb)[-1]),
        )
    submit, denom = arrays.submit, arrays.denom
    for d in range(d0, d0 + m):
        i = idxs[d]
        wait = starts[d] - submit[i]
        e = wait - omega
        if e > 0.0:
            exc += e
        den = denom[i]
        slow += (wait + den) / den
    return exc, slow
