"""The ``repro bench`` report machinery, exercised at toy budgets.

``run_bench`` is the committed-baseline writer: every perf claim in
``BENCH_search.json`` (and the README table derived from it) flows
through it, so its row families, identity asserts, and the ``--check``
tolerance band get tier-1 coverage here — at L small enough to run in
milliseconds.  ``search_workers=1`` keeps the parallel rows on the
in-process sharding path, which is also exactly what a 1-core CI host
measures: the ``cores`` field must then report that host honestly so the
archived parallel "speedups" are read as the slowdowns they are.
"""

from __future__ import annotations

import json

import pytest

from repro.core.ckernel import have_compiled
from repro.experiments import bench as bench_mod
from repro.experiments.bench import POLICIES, check_bench, run_bench
from repro.util.workerpool import available_cores

#: Small enough for milliseconds, big enough to truncate mid-iteration
#: (the 30-job decision point's iteration 0 alone costs 30 nodes).
TOY_LIMITS = (40, 80)


@pytest.fixture(scope="module")
def report():
    return run_bench(repeats=1, search_workers=1, limits=TOY_LIMITS)


def test_report_has_every_row_family(report):
    """Per (policy, L): fast, reference, parallel, prune-ablation — and a
    compiled row exactly when the kernel is importable on this host."""
    assert report["schema"] == bench_mod.SCHEMA
    rows = report["configs"]
    expected = [
        ("fast", False),
        ("fast", True),
        ("parallel", False),
        ("reference", False),
    ]
    if have_compiled():
        expected.insert(0, ("compiled", False))
    for algorithm, heuristic in POLICIES:
        for L in TOY_LIMITS:
            match = [
                r
                for r in rows
                if r["algorithm"] == algorithm and r["node_limit"] == L
            ]
            engines = sorted((r["engine"], r["prune"]) for r in match)
            assert engines == expected
    for row in rows:
        assert row["nodes_per_second"] > 0
        if row["engine"] == "parallel":
            assert row["search_workers"] == 1


def test_cores_field_reports_this_host_honestly(report):
    """The report pins the measuring host's usable core count — on a
    1-core builder the parallel rows then read as the honest slowdowns
    they are, not as broken speedups."""
    assert report["cores"] == available_cores()
    assert report["search_workers"] == 1


def test_speedup_key_families_are_complete(report):
    plain = {k for k in report["speedups"] if ":" not in k}
    parallel = {k for k in report["speedups"] if ":parallel" in k}
    prune = {k for k in report["speedups"] if ":prune" in k}
    compiled = {k for k in report["speedups"] if k.endswith(":compiled")}
    assert len(plain) == len(POLICIES) * len(TOY_LIMITS)
    assert len(parallel) == len(plain)
    assert len(prune) == len(plain)
    assert len(compiled) == (len(plain) if have_compiled() else 0)
    assert all(v > 0 for v in report["speedups"].values())


def test_compiled_available_field_is_honest(report):
    """Like ``cores``: the report records whether the kernel measured,
    and compiled rows exist exactly when it says so."""
    assert report["compiled_available"] == have_compiled()
    has_rows = any(r["engine"] == "compiled" for r in report["configs"])
    assert has_rows == report["compiled_available"]


def test_e2e_section_measures_whole_run_throughput(report):
    """The v3 end-to-end section: a fast-engine replay row always, plus a
    compiled row exactly when the kernel is importable."""
    engines = [r["engine"] for r in report["e2e"]]
    assert engines == (["fast", "compiled"] if have_compiled() else ["fast"])
    for row in report["e2e"]:
        assert row["decisions"] > 0
        assert row["decisions_per_second"] > 0
        assert row["policy"].startswith("DDS/lxf/dynB")


def test_queue_length_rows_cover_long_queues(report):
    """The v4 queue-length section: a reference row per queue length at
    L = 10K, plus a compiled row and ratio exactly when the kernel is
    importable."""
    engines = ["reference", "compiled"] if have_compiled() else ["reference"]
    rows = report["queue_length"]
    assert [(r["n_jobs"], r["engine"]) for r in rows] == [
        (n, engine) for n in bench_mod.QUEUE_LENGTHS for engine in engines
    ]
    for row in rows:
        assert row["policy"] == "DDS/lxf/dynB"
        assert row["node_limit"] == bench_mod.QUEUE_NODE_LIMIT
        assert row["nodes_per_second"] > 0
    ratios = report["queue_speedups"]
    assert len(ratios) == (len(bench_mod.QUEUE_LENGTHS) if have_compiled() else 0)
    assert all(key.endswith(":compiled") for key in ratios)


def test_parallel_identity_assert_fires_on_divergence(monkeypatch):
    """A parallel result that differs from fast by one field must abort
    the report — a speedup over a different answer is meaningless."""
    real = bench_mod.time_search

    def skewed(problem, algorithm, node_limit, engine, **kwargs):
        result, seconds = real(problem, algorithm, node_limit, engine, **kwargs)
        if engine == "parallel":
            result.nodes_visited += 1
        return result, seconds

    monkeypatch.setattr(bench_mod, "time_search", skewed)
    with pytest.raises(AssertionError, match="parallel engine disagrees"):
        run_bench(repeats=1, search_workers=1, limits=(40,))


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
def test_compiled_identity_assert_fires_on_divergence(monkeypatch):
    """Same contract as the parallel rows: a compiled result differing
    from fast by one field aborts the report."""
    real = bench_mod.time_search

    def skewed(problem, algorithm, node_limit, engine, **kwargs):
        result, seconds = real(problem, algorithm, node_limit, engine, **kwargs)
        if engine == "compiled":
            result.nodes_visited += 1
        return result, seconds

    monkeypatch.setattr(bench_mod, "time_search", skewed)
    with pytest.raises(AssertionError, match="compiled engine disagrees"):
        run_bench(repeats=1, search_workers=1, limits=(40,))


def test_check_bench_accepts_itself(report):
    assert check_bench(report, report) == []


def test_check_bench_flags_collapsed_throughput(report):
    degraded = json.loads(json.dumps(report))  # deep copy
    for row in degraded["configs"]:
        row["nodes_per_second"] *= 0.2
    for key in degraded["speedups"]:
        degraded["speedups"][key] *= 0.2
    failures = check_bench(degraded, report)
    assert failures
    assert any("nodes/s below" in f for f in failures)
    assert any("speedup" in f for f in failures)


def test_check_bench_ignores_machine_dependent_families(report):
    """Parallel/prune ratios move with the host's core count; the serial
    fast/reference and compiled/reference families are the banded ones."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["speedups"]:
        if ":parallel" in key or ":prune" in key:
            degraded["speedups"][key] *= 0.01
    assert check_bench(degraded, report) == []


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
def test_check_bench_bands_the_compiled_family(report):
    """A collapsed compiled/reference ratio must fail the check — but only
    when both reports actually measured the kernel."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["speedups"]:
        if key.endswith(":compiled"):
            degraded["speedups"][key] *= 0.01
    failures = check_bench(degraded, report)
    assert any("compiled/reference" in f for f in failures)
    # A pure-python fresh run never fails against a compiled baseline.
    degraded["compiled_available"] = False
    assert check_bench(degraded, report) == []


@pytest.mark.skipif(not have_compiled(), reason="compiled kernel not built")
def test_check_bench_bands_queue_length_ratios(report):
    """Queue-length compiled/reference ratios share the compiled band; a
    v3 baseline without them checks cleanly."""
    degraded = json.loads(json.dumps(report))
    for key in degraded["queue_speedups"]:
        degraded["queue_speedups"][key] *= 0.01
    failures = check_bench(degraded, report)
    assert len(failures) == len(bench_mod.QUEUE_LENGTHS)
    assert all("[n=" in f and "compiled/reference" in f for f in failures)
    v3 = json.loads(json.dumps(report))
    del v3["queue_speedups"]
    assert check_bench(degraded, v3) == []


def test_check_bench_bands_e2e_throughput(report):
    degraded = json.loads(json.dumps(report))
    for row in degraded["e2e"]:
        row["decisions_per_second"] *= 0.01
    failures = check_bench(degraded, report)
    assert any("decisions/s below" in f for f in failures)


def test_check_bench_tolerates_v2_baseline_without_e2e(report):
    """Old committed reports predate the e2e section and the compiled
    family; a fresh v3 run must check cleanly against them."""
    v2 = json.loads(json.dumps(report))
    del v2["e2e"]
    del v2["compiled_available"]
    v2["speedups"] = {
        k: v for k, v in v2["speedups"].items() if not k.endswith(":compiled")
    }
    v2["configs"] = [r for r in v2["configs"] if r["engine"] != "compiled"]
    v2["tolerance"] = {
        "min_speedup_frac": 0.65,
        "min_nodes_per_second_frac": 0.40,
    }
    assert check_bench(report, v2) == []


def test_quick_run_checks_against_full_baseline(report):
    """A fresh quick run (fewer budgets) must compare cleanly against a
    committed full report — missing configurations are skipped, not
    failed."""
    fresh = json.loads(json.dumps(report))
    fresh["configs"] = [r for r in fresh["configs"] if r["node_limit"] == 40]
    fresh["speedups"] = {
        k: v for k, v in fresh["speedups"].items() if "L=40" in k
    }
    assert check_bench(fresh, report) == []
