"""Cross-engine differential fuzzer: random small instances, every
oracle at once.

Each Hypothesis draw is an :class:`tests.oracles.InstanceSpec` — plain
data with a readable repr, so a shrunk counterexample can be pasted
straight into a deterministic regression test.  For every instance the
three engines must agree bit-for-bit (fingerprint identity), and none of
them may ever report a score better than the exact solver's provable
optimum; with no node budget they must attain it exactly.

The fixed-problem and full-replay differential tests live in
``test_search_fastpath.py`` / ``test_compiled_kernel.py``; the exact
solver's own certificate lives in ``test_exact.py``.  This file is the
random-instance sweep tying them together.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exact import solve_exact
from repro.core.search import DiscrepancySearch
from tests.oracles import (
    CONFORMANCE_ENGINES,
    InstanceSpec,
    fingerprint,
    instance_specs,
)

FUZZ = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([7, 64, None]),
)
@FUZZ
def test_engines_bit_identical_on_random_instances(
    spec: InstanceSpec, algorithm: str, node_limit: int | None
):
    """fast == reference == compiled on arbitrary instances — at a budget
    that truncates mid-iteration, a roomier one, and exhaustively.
    ``min_jobs=0`` keeps the empty decision point in the fuzzed domain
    (every engine must normalise it through the ordinary leaf path, not a
    bespoke early return), and ``record_anytime=True`` extends identity to
    the improvement trace.  The compiled kernel participates whenever its
    extension is importable (``CONFORMANCE_ENGINES`` resolves that once
    for the suite)."""
    problem = spec.to_problem()
    prints = {
        engine: fingerprint(
            DiscrepancySearch(
                algorithm,
                node_limit=node_limit,
                engine=engine,
                record_anytime=True,
            ).search(problem)
        )
        for engine in CONFORMANCE_ENGINES
    }
    reference = prints["fast"]
    assert all(p == reference for p in prints.values()), prints


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
    node_limit=st.sampled_from([3, 25, 200]),
)
@FUZZ
def test_search_never_beats_the_exact_oracle(
    spec: InstanceSpec, algorithm: str, node_limit: int
):
    """At any budget, search-best >= exact-optimal (as raw floats, no
    tolerance): a single violation would mean the oracle is not an
    oracle or an engine scored a schedule it never built."""
    problem = spec.to_problem()
    optimal = solve_exact(problem).best_score
    result = DiscrepancySearch(
        algorithm, node_limit=node_limit, engine="fast"
    ).search(problem)
    assert not (result.best_score < optimal)


@given(
    spec=instance_specs(min_jobs=0, max_jobs=5),
    algorithm=st.sampled_from(["dds", "lds"]),
)
@FUZZ
def test_exhaustive_search_attains_the_optimum(spec: InstanceSpec, algorithm: str):
    """Unbudgeted search minimises over exactly the oracle's leaf set, so
    the scores are equal as floats on every random instance."""
    problem = spec.to_problem()
    optimal = solve_exact(problem).best_score
    result = DiscrepancySearch(algorithm, node_limit=None, engine="fast").search(
        problem
    )
    assert result.best_score == optimal
