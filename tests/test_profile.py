"""Unit tests for the availability profile."""

import pytest

from repro.core.profile import AvailabilityProfile
from repro.simulator.policy import RunningJob

from tests.conftest import make_job


def test_empty_profile_is_flat_capacity():
    p = AvailabilityProfile(8, origin=100.0)
    assert p.free_at(100.0) == 8
    assert p.free_at(1e9) == 8
    assert p.earliest_start(8, 50.0, 100.0) == 100.0
    p.check_invariants()


def test_from_running_builds_step_function():
    a = make_job(nodes=3, runtime=100, waiting=True)
    b = make_job(nodes=2, runtime=200, waiting=True)
    running = [
        RunningJob(job=a, release_time=100.0),
        RunningJob(job=b, release_time=200.0),
    ]
    p = AvailabilityProfile.from_running(8, 0.0, running)
    assert p.segments() == [(0.0, 3), (100.0, 6), (200.0, 8)]
    p.check_invariants()


def test_from_running_merges_equal_release_times():
    jobs = [make_job(nodes=1, waiting=True) for _ in range(3)]
    running = [RunningJob(job=j, release_time=50.0) for j in jobs]
    p = AvailabilityProfile.from_running(4, 0.0, running)
    assert p.segments() == [(0.0, 1), (50.0, 4)]


def test_from_running_rejects_overcommit():
    a = make_job(nodes=5, waiting=True)
    with pytest.raises(ValueError, match="capacity"):
        AvailabilityProfile.from_running(4, 0.0, [RunningJob(job=a, release_time=10.0)])


def test_earliest_start_waits_for_nodes():
    p = AvailabilityProfile.from_segments(4, [(0.0, 1), (100.0, 4)])
    assert p.earliest_start(1, 10.0, 0.0) == 0.0
    assert p.earliest_start(2, 10.0, 0.0) == 100.0
    assert p.earliest_start(4, 10.0, 0.0) == 100.0


def test_earliest_start_skips_too_short_holes():
    # 3 nodes free on [0, 50), 1 free on [50, 100), 4 free after.
    p = AvailabilityProfile.from_segments(4, [(0.0, 3), (50.0, 1), (100.0, 4)])
    # A 2-node 40s job fits in the first hole.
    assert p.earliest_start(2, 40.0, 0.0) == 0.0
    # A 2-node 60s job does not (blocked at t=50); must wait until 100.
    assert p.earliest_start(2, 60.0, 0.0) == 100.0


def test_earliest_start_respects_earliest_bound():
    p = AvailabilityProfile(4, origin=0.0)
    assert p.earliest_start(1, 10.0, 500.0) == 500.0


def test_earliest_start_rejects_over_capacity():
    p = AvailabilityProfile(4)
    with pytest.raises(ValueError, match="capacity"):
        p.earliest_start(5, 10.0, 0.0)


def test_reserve_and_free_at():
    p = AvailabilityProfile(4, origin=0.0)
    p.reserve(10.0, 20.0, 3)
    assert p.free_at(5.0) == 4
    assert p.free_at(10.0) == 1
    assert p.free_at(29.9) == 1
    assert p.free_at(30.0) == 4
    p.check_invariants()


def test_reserve_rejects_infeasible():
    p = AvailabilityProfile(4, origin=0.0)
    p.reserve(0.0, 100.0, 3)
    with pytest.raises(ValueError, match="insufficient"):
        p.reserve(50.0, 10.0, 2)
    # Failed reserve must not leave stray breakpoints behind.
    assert p.segments() == [(0.0, 1), (100.0, 4)]


def test_reserve_release_roundtrip_restores_exactly():
    p = AvailabilityProfile.from_segments(8, [(0.0, 5), (100.0, 8)])
    before = p.segments()
    token = p.reserve(20.0, 30.0, 2)
    assert p.free_at(25.0) == 3
    p.release(token)
    assert p.segments() == before
    p.check_invariants()


def test_nested_lifo_reserve_release():
    p = AvailabilityProfile(4, origin=0.0)
    t1 = p.reserve(0.0, 100.0, 1)
    t2 = p.reserve(50.0, 100.0, 2)
    t3 = p.reserve(0.0, 25.0, 1)
    p.release(t3)
    p.release(t2)
    p.release(t1)
    assert p.segments() == [(0.0, 4)]


def test_release_with_stale_token_raises():
    p = AvailabilityProfile(4, origin=0.0)
    token = p.reserve(0.0, 10.0, 1)
    p.release(token)
    with pytest.raises(ValueError, match="token"):
        p.release(token)


def test_min_free():
    p = AvailabilityProfile.from_segments(4, [(0.0, 3), (50.0, 1), (100.0, 4)])
    assert p.min_free(0.0, 50.0) == 3
    assert p.min_free(0.0, 60.0) == 1
    assert p.min_free(100.0, 200.0) == 4
    with pytest.raises(ValueError, match="empty"):
        p.min_free(10.0, 10.0)


def test_claim_covers_exactly_the_fit_window_at_the_eps_boundary():
    """``1e-9 + 1.0 - TIME_EPS`` rounds onto the breakpoint at 1.0, so the
    fit and ``min_free`` treat 1.0 as the end of ``[1e-9, 1e-9 + 1.0)``
    while ``time_eq`` keeps it apart.  The claim must still end there: a
    sliver ``[1.0, 1e-9 + 1.0)`` would be claimed unchecked and go
    negative."""
    p = AvailabilityProfile(16, origin=0.0)
    p.reserve(1.0, 1.0, 1)
    before = p.segments()
    start = p.earliest_start(16, 1.0, 1e-9)
    assert p.min_free(start, start + 1.0) == 16
    token = p.reserve(start, 1.0, 16)
    assert p.segments() == [(0.0, 0), (1.0, 15), (2.0, 16)]
    p.check_invariants()
    p.release(token)
    assert p.segments() == before

    view = AvailabilityProfile.from_segments(16, before).search_view()
    assert view.place(16, 1.0, 1e-9) == start  # simlint: skip=SIM003 (bit-identity)
    assert view.segments() == [(0.0, 0), (1.0, 15), (2.0, 16)]


def test_copy_is_independent():
    p = AvailabilityProfile(4, origin=0.0)
    q = p.copy()
    q.reserve(0.0, 10.0, 2)
    assert p.free_at(5.0) == 4
    assert q.free_at(5.0) == 2
    assert p != q


def test_from_segments_validation():
    with pytest.raises(ValueError, match="increasing"):
        AvailabilityProfile.from_segments(4, [(0.0, 4), (0.0, 4)])
    with pytest.raises(ValueError, match="final segment"):
        AvailabilityProfile.from_segments(4, [(0.0, 2)])
    with pytest.raises(ValueError, match="outside"):
        AvailabilityProfile.from_segments(4, [(0.0, 5), (1.0, 4)])


def test_reserve_before_origin_raises():
    p = AvailabilityProfile(4, origin=100.0)
    with pytest.raises(ValueError, match="precedes"):
        p.reserve(50.0, 10.0, 1)
