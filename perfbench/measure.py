"""Shared measurement helpers: percentiles, set-up timing, the run result."""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Set-up is timed this many times per run; ``setup_s`` is the median.
SETUP_REPS = 9
#: Latency percentiles are taken per window of this many consecutive
#: samples; the reported value is the median over windows, so a machine
#: hiccup of a second or so moves one window, not the whole run.
LATENCY_WINDOW = 1000


def percentile(values: "list[float]", q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


def _windows(passes: "list[list[float]]") -> "list[list[float]]":
    """Consecutive :data:`LATENCY_WINDOW`-sample windows, never across passes.

    A pass's short tail joins its last full window.
    """
    out = []
    for samples in passes:
        chunks = [
            samples[i : i + LATENCY_WINDOW] for i in range(0, len(samples), LATENCY_WINDOW)
        ]
        if len(chunks) > 1 and len(chunks[-1]) < LATENCY_WINDOW:
            tail = chunks.pop()
            chunks[-1] += tail
        out += chunks
    return out


def windows(passes: "list[list[float]]") -> int:
    """How many windows :func:`windowed_percentile` takes the median over."""
    return len(_windows(passes))


def windowed_percentile(passes: "list[list[float]]", q: float) -> float:
    """Median over latency windows of each window's ``q`` percentile."""
    return statistics.median(percentile(w, q) for w in _windows(passes))


def setup_seconds(build: Callable[[], Any]) -> float:
    """Median wall time of :data:`SETUP_REPS` calls of ``build``.

    Runs before any pass, each call after a full collection, so every
    sample starts from the same heap and pays only its own garbage.
    """
    samples = []
    for _ in range(SETUP_REPS):
        gc.collect()
        t0 = time.perf_counter()
        build()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    attempted: int
    failed: int
    #: metric name -> value (units live in run.py and spans.py)
    metrics: "dict[str, float]"
    #: Correctness-gate failures; empty means every gate passed.
    gate_failures: "list[str]" = field(default_factory=list)
    #: Everything else worth recording (sample counts, gate tallies, ...).
    report: "dict[str, Any]" = field(default_factory=dict)
