"""The optional compiled search kernel: probe, fallback, eligibility,
and bit-identity on fixed instances.

The random-instance sweep lives in ``test_engine_conformance.py`` (the
compiled engine joins ``CONFORMANCE_ENGINES`` whenever the extension is
importable); this file owns everything about the *boundary*:

- ``engine="compiled"`` without the extension silently falls back to the
  fast engine with bit-identical results (the ISSUE picked fallback over
  raising, mirroring ``core/exact.py``'s optional-ortools pattern);
- searches needing facilities the kernel omits — wall-clock deadlines,
  criteria evaluators, the runtime sanitizer — route to the fast engine
  even when the kernel is present;
- fixed-instance fingerprint identity at edge budgets (empty problem,
  single job, exhaustive, prune, anytime traces), and on long queues
  over profiles with hundreds of segments, where budgets cut chains
  partway through;
- every engine rejects a problem whose ``runtimes`` lacks a job;
- ``make_policy`` defaults to the compiled engine when it is built and
  honours the ``REPRO_PURE_PYTHON=1`` opt-out;
- the ``CHAIN_VECTOR_MIN`` crossover override (env + live retune) never
  changes results, only which fold path runs.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core import ckernel, deltascore
from repro.core.ckernel import _kernel_eligible, default_engine, have_compiled
from repro.core.criteria import (
    CriteriaEvaluator,
    DecisionContext,
    paper_objective,
)
from repro.core.scheduler import make_policy
from repro.core.search import DiscrepancySearch, resolve_runtimes
from repro.util.rng import RngStream
from repro.util.sanitize import sanitized
from repro.util.timeunits import HOUR
from tests.oracles import NOW, InstanceSpec, build_problem, fingerprint

needs_kernel = pytest.mark.skipif(
    not have_compiled(), reason="compiled kernel not built"
)

#: A small fixed decision point exercising a busy profile and job
#: diversity (shrunk-style literal, re-typeable).
SMALL = InstanceSpec(
    capacity=8,
    jobs=(
        (0.0, 3, 3600.0),
        (600.0, 8, 900.0),
        (1200.0, 1, 7200.0),
        (9000.0, 5, 600.0),
    ),
    segments=((14400.0, 2), (18000.0, 5), (25200.0, 8)),
    omega=900.0,
    heuristic="lxf",
)


def _search(engine, problem, algorithm="dds", node_limit=64, **kw):
    return DiscrepancySearch(
        algorithm, node_limit=node_limit, engine=engine, **kw
    ).search(problem)


# ----------------------------------------------------------------------
# Fallback: engine="compiled" must work on every install
# ----------------------------------------------------------------------
def test_compiled_engine_without_extension_falls_back_silently(monkeypatch):
    """With the extension absent, ``engine="compiled"`` is the fast
    engine: same result bits, no error, no warning."""
    monkeypatch.setattr(ckernel, "_impl", None)
    assert not have_compiled()
    problem = SMALL.to_problem()
    compiled = _search("compiled", problem, record_anytime=True)
    fast = _search("fast", problem, record_anytime=True)
    assert fingerprint(compiled) == fingerprint(fast)


def test_probe_matches_impl_presence():
    assert have_compiled() == (ckernel._impl is not None)


def test_make_policy_defaults_to_install_engine():
    policy = make_policy("dds", "lxf", node_limit=500)
    # The default is install-dependent: the compiled kernel when built
    # (bit-identical, faster), the pure fast engine otherwise.
    assert policy.searcher.engine == default_engine()
    assert policy.searcher.engine in ("fast", "compiled")


def test_make_policy_honours_pure_python_opt_out(monkeypatch):
    monkeypatch.setenv("REPRO_PURE_PYTHON", "1")
    assert default_engine() == "fast"
    assert make_policy("dds", "lxf", node_limit=500).searcher.engine == "fast"


@needs_kernel
def test_time_limited_search_routes_to_fast_engine():
    """Wall-clock deadlines poll ``perf_counter`` on a sparse cadence the
    kernel deliberately omits; the wrapper must hand the whole search to
    the fast engine rather than drop the deadline."""
    problem = SMALL.to_problem()
    assert not _kernel_eligible(problem, time_limit_seconds=30.0)
    result = DiscrepancySearch(
        "dds", node_limit=None, engine="compiled", time_limit_seconds=30.0
    ).search(problem)
    fast = DiscrepancySearch(
        "dds", node_limit=None, engine="fast", time_limit_seconds=30.0
    ).search(problem)
    # A 30s limit never fires on a 4-job tree, so both runs are the
    # deterministic exhaustive search and must agree exactly.
    assert fingerprint(result) == fingerprint(fast)


@needs_kernel
def test_evaluator_and_sanitizer_disqualify_the_kernel():
    """Both states pinned explicitly so the test also holds when the
    whole suite runs under ``REPRO_SANITIZE=1`` (the chaos CI job)."""
    problem = SMALL.to_problem()
    ctx = DecisionContext(
        now=problem.now,
        omega=problem.omega,
        runtimes=resolve_runtimes(problem),
    )
    with_eval = dataclasses.replace(
        problem, evaluator=CriteriaEvaluator(paper_objective(), ctx)
    )
    with sanitized(False):
        assert _kernel_eligible(problem, None)
        assert not _kernel_eligible(with_eval, None)
        with sanitized(True):
            assert not _kernel_eligible(problem, None)
        assert _kernel_eligible(problem, None)


@needs_kernel
def test_malformed_profiles_and_oversized_jobs_route_to_python():
    """The pure engines define the error behaviour for jobs that exceed
    capacity; the C walk would run off the profile, so the wrapper must
    keep such problems (and profiles without the all-free tail) on the
    python path."""
    problem = SMALL.to_problem()
    big = dataclasses.replace(
        problem.jobs[0], nodes=problem.profile.capacity + 1
    )
    oversized = dataclasses.replace(
        problem, jobs=(big,) + problem.jobs[1:]
    )
    assert not _kernel_eligible(oversized, None)


# ----------------------------------------------------------------------
# Fixed-instance bit-identity (skip-if-unavailable)
# ----------------------------------------------------------------------
@needs_kernel
@pytest.mark.parametrize("algorithm", ["dds", "lds"])
@pytest.mark.parametrize("node_limit", [1, 3, 24, None])
@pytest.mark.parametrize("prune", [False, True])
def test_small_instance_identity(algorithm, node_limit, prune):
    problem = SMALL.to_problem()
    compiled = _search(
        "compiled", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    fast = _search(
        "fast", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    assert fingerprint(compiled) == fingerprint(fast)


@needs_kernel
@pytest.mark.parametrize("n_jobs", [0, 1, 2])
def test_degenerate_queue_sizes(n_jobs):
    spec = InstanceSpec(
        capacity=8,
        jobs=SMALL.jobs[:n_jobs],
        segments=((14400.0, 8),),
        omega=600.0,
        heuristic="fcfs",
    )
    problem = spec.to_problem()
    for algorithm in ("dds", "lds"):
        compiled = _search(
            "compiled", problem, algorithm, None, record_anytime=True
        )
        fast = _search("fast", problem, algorithm, None, record_anytime=True)
        assert fingerprint(compiled) == fingerprint(fast)


@needs_kernel
@pytest.mark.parametrize("algorithm,heuristic", [("dds", "lxf"), ("lds", "fcfs")])
def test_bench_decision_point_identity(algorithm, heuristic):
    """The 30-job benchmark instance at a mid-iteration truncating budget
    — the exact scenario every committed perf number is measured on."""
    problem = build_problem(heuristic)
    for prune in (False, True):
        compiled = _search(
            "compiled", problem, algorithm, 2_000,
            prune=prune, record_anytime=True,
        )
        fast = _search(
            "fast", problem, algorithm, 2_000,
            prune=prune, record_anytime=True,
        )
        assert fingerprint(compiled) == fingerprint(fast)


def test_missing_runtime_raises_in_every_engine():
    """A ``runtimes`` override that lacks a job is an error naming the
    missing ids, whichever engine runs the search."""
    problem = SMALL.to_problem()
    rt = resolve_runtimes(problem)
    del rt[1], rt[3]
    partial = dataclasses.replace(problem, runtimes=rt)
    for engine in ("reference", "fast", "compiled"):
        with pytest.raises(ValueError) as info:
            _search(engine, partial)
        assert str(info.value) == "runtimes missing for jobs [1, 3]"


#: Job 0 ends 1.0000000010004442 s after NOW, 1.0004e-9 s past the
#: breakpoint at NOW + 1: ``time_eq`` keeps the two apart, but
#: ``end - TIME_EPS`` rounds onto the breakpoint, so the earliest-fit scan
#: never checks the sliver between them.
EPS_BAND = InstanceSpec(
    capacity=8,
    jobs=((0.0, 8, 1.0000000010004442), (600.0, 2, 3600.0)),
    segments=((NOW, 8), (NOW + 1.0, 2), (NOW + 5 * HOUR, 8)),
    omega=600.0,
    heuristic="fcfs",
)


def test_claims_end_where_the_fit_window_ends_in_every_engine():
    """A placement claims exactly the segments its fit checked, so job 0
    leaves no unchecked sliver behind NOW + 1 and job 1 starts there."""
    problem = EPS_BAND.to_problem()
    prints = {
        engine: fingerprint(_search(engine, problem, node_limit=None, record_anytime=True))
        for engine in ("reference", "fast", "compiled")
    }
    assert prints["fast"] == prints["reference"] == prints["compiled"]
    best = _search("compiled", problem, node_limit=None)
    assert best.best_starts == {0: NOW, 1: NOW + 1.0}


# ----------------------------------------------------------------------
# Long queues on long profiles
# ----------------------------------------------------------------------
def _long_problem(n_jobs: int, heuristic: str):
    """``n_jobs`` waiting jobs on a 256-node machine that stays mostly
    busy for hundreds of breakpoints, so chains scan, split and shift
    long segment arrays."""
    rng = RngStream(12, f"long-profile-{n_jobs}")
    capacity = 256
    segments = []
    t = NOW
    for _ in range(300):
        segments.append((t, int(rng.integers(0, 97))))
        t += float(rng.uniform(60, 1800))
    segments.append((t, capacity))
    jobs = tuple(
        (
            float(rng.uniform(0, NOW)),
            int(rng.integers(1, 129)),
            float(rng.uniform(600, 12 * HOUR)),
        )
        for _ in range(n_jobs)
    )
    spec = InstanceSpec(
        capacity=capacity,
        jobs=jobs,
        segments=tuple(segments),
        omega=HOUR,
        heuristic=heuristic,
    )
    return spec.to_problem()


@needs_kernel
@pytest.mark.parametrize("n_jobs", [120, 240])
@pytest.mark.parametrize("algorithm,heuristic", [("dds", "lxf"), ("lds", "fcfs")])
@pytest.mark.parametrize("node_limit", [137, 2_503, 10_000])
@pytest.mark.parametrize("prune", [False, True])
def test_long_profile_identity(n_jobs, algorithm, heuristic, node_limit, prune):
    problem = _long_problem(n_jobs, heuristic)
    assert len(problem.profile.times) > 300
    compiled = _search(
        "compiled", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    fast = _search(
        "fast", problem, algorithm, node_limit,
        prune=prune, record_anytime=True,
    )
    assert fingerprint(compiled) == fingerprint(fast)
    if not prune:
        # Every budget above lands mid-tree, most of them mid-chain.
        assert compiled.limit_hit


# ----------------------------------------------------------------------
# CHAIN_VECTOR_MIN crossover override
# ----------------------------------------------------------------------
def test_chain_vector_min_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_CHAIN_VECTOR_MIN", "192")
    assert deltascore._chain_vector_min() == 192
    monkeypatch.setenv("REPRO_CHAIN_VECTOR_MIN", "0")
    assert deltascore._chain_vector_min() == 0
    monkeypatch.setenv("REPRO_CHAIN_VECTOR_MIN", "not-a-number")
    assert deltascore._chain_vector_min() == 96
    monkeypatch.setenv("REPRO_CHAIN_VECTOR_MIN", "-5")
    assert deltascore._chain_vector_min() == 96
    monkeypatch.delenv("REPRO_CHAIN_VECTOR_MIN")
    assert deltascore._chain_vector_min() == 96


def test_crossover_retune_never_changes_results(monkeypatch):
    """Forcing every chain through the vectorized fold (crossover 0) and
    none of them (huge crossover) gives bit-identical searches — the
    association-order contract makes the knob purely about wall time."""
    problem = build_problem("lxf")
    baseline = fingerprint(_search("fast", problem, "dds", 500))
    monkeypatch.setattr(deltascore, "CHAIN_VECTOR_MIN", 0)
    assert fingerprint(_search("fast", problem, "dds", 500)) == baseline
    monkeypatch.setattr(deltascore, "CHAIN_VECTOR_MIN", 10**9)
    assert fingerprint(_search("fast", problem, "dds", 500)) == baseline
