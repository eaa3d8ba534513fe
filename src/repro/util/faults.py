"""Deterministic, plan-driven fault injection for the robustness layer.

Production failures — a pool worker segfaulting mid-decision, a run-cache
entry truncated by a power loss, a simulation process OOM-killed a week
into a month — are rare, uncorrelated, and miserable to reproduce.  This
module makes them *first-class, replayable inputs*: a :class:`FaultPlan`
names the injection sites, their firing probabilities, and a seed; every
probabilistic decision draws from a per-site :class:`~repro.util.rng
.RngStream`, so the same plan replays the exact same fault sequence,
byte for byte, on every run.

Injection sites (all consulted on the *leader/driver* side, so a plan's
draws never depend on worker scheduling):

========================  ====================================================
site                      what firing means
========================  ====================================================
``worker.spawn``          the worker pool fails to start its executor
``worker.crash``          a live pool worker is killed abruptly (the real
                          ``BrokenProcessPool`` path, not a simulation of it)
``worker.result``         result transport from a pool worker fails
``cache.read``            a run-cache read observes torn/corrupt content
``cache.write``           a run-cache write persists corrupted bytes
``engine.step``           the simulation engine dies at a decision point
``service.request``       decision-service request intake fails transiently
                          (retried with backoff before the tenant loop
                          answers; see ``docs/service.md``)
``service.decide``        the service's primary decision path fails for one
                          request (the degradation ladder must still answer)
``service.snapshot``      a tenant-state snapshot persists corrupted bytes
                          (recovery must fall back to an older snapshot)
========================  ====================================================

Enable via the ``REPRO_FAULTS`` environment variable or
:func:`set_fault_plan` / :func:`injected_faults` from code.  The plan
grammar is comma- or whitespace-separated tokens::

    REPRO_FAULTS="seed=2005,worker.crash=0.4,cache.write=1.0/3,engine.step=1@120"

- ``seed=N`` seeds every site's stream (default 0);
- ``site=rate`` fires with probability ``rate`` per consultation;
- an optional ``/limit`` caps the total number of firings at a site;
- an optional ``@after`` suppresses the first ``after`` consultations
  (e.g. ``engine.step=1@120`` crashes exactly at the 121st decision).

The injected failures are indistinguishable from real ones to the code
under test — the fault layer's contract (see ``docs/robustness.md``) is
that results stay **bit-identical** to a fault-free run as long as every
fault is of a recoverable kind.
"""

from __future__ import annotations

import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from repro.util.rng import RngStream

#: Every valid injection site (typo guard for plans).
SITES: tuple[str, ...] = (
    "worker.spawn",
    "worker.crash",
    "worker.result",
    "cache.read",
    "cache.write",
    "engine.step",
    "service.request",
    "service.decide",
    "service.snapshot",
)


class InjectedFault(RuntimeError):
    """An artificial failure raised by the injector at an injection site."""

    def __init__(self, site: str, ordinal: int) -> None:
        super().__init__(f"injected fault at {site} (firing #{ordinal})")
        self.site = site
        self.ordinal = ordinal


@dataclass(frozen=True)
class SiteSpec:
    """Firing behaviour of one site: probability, cap, and warm-up grace."""

    rate: float
    limit: int | None = None
    after: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")
        if self.limit is not None and self.limit < 0:
            raise ValueError(f"fault limit must be >= 0, got {self.limit}")
        if self.after < 0:
            raise ValueError(f"fault 'after' must be >= 0, got {self.after}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative description of which faults fire where."""

    seed: int = 0
    sites: Mapping[str, SiteSpec] = field(default_factory=dict)

    def __post_init__(self) -> None:
        unknown = sorted(set(self.sites) - set(SITES))
        if unknown:
            raise ValueError(
                f"unknown fault sites {unknown}; choose from {list(SITES)}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        """Parse the ``REPRO_FAULTS`` grammar (see module docstring)."""
        seed = 0
        sites: dict[str, SiteSpec] = {}
        for token in text.replace(",", " ").split():
            name, sep, value = token.partition("=")
            if not sep:
                raise ValueError(f"cannot parse fault token {token!r}")
            name = name.strip()
            if name == "seed":
                seed = int(value)
                continue
            after = 0
            limit: int | None = None
            if "@" in value:
                value, _, after_text = value.partition("@")
                after = int(after_text)
            if "/" in value:
                value, _, limit_text = value.partition("/")
                limit = int(limit_text)
            sites[name] = SiteSpec(rate=float(value), limit=limit, after=after)
        return cls(seed=seed, sites=sites)

    def describe(self) -> str:
        """The plan back in its parseable grammar (stable ordering)."""
        parts = [f"seed={self.seed}"]
        for name in sorted(self.sites):
            spec = self.sites[name]
            token = f"{name}={spec.rate:g}"
            if spec.limit is not None:
                token += f"/{spec.limit}"
            if spec.after:
                token += f"@{spec.after}"
            parts.append(token)
        return ",".join(parts)


class FaultInjector:
    """Replays a :class:`FaultPlan`; every decision is a seeded stream draw.

    Each site owns an independent child stream (``faults/<site>``), so
    consultations at one site never perturb the draw sequence of another
    — adding a new site to a plan cannot change when existing sites fire.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self._streams: dict[str, RngStream] = {}
        #: Consultations per site (fired or not), for diagnostics/tests.
        self.checked: Counter[str] = Counter()
        #: Firings per site.
        self.fired: Counter[str] = Counter()

    def should_fire(self, site: str) -> bool:
        """Record one consultation of ``site``; ``True`` if the fault fires."""
        spec = self.plan.sites.get(site)
        self.checked[site] += 1
        if spec is None or spec.rate <= 0.0:
            return False
        if self.checked[site] <= spec.after:
            return False
        if spec.limit is not None and self.fired[site] >= spec.limit:
            return False
        if spec.rate < 1.0:
            stream = self._streams.get(site)
            if stream is None:
                stream = RngStream(self.plan.seed, f"faults/{site}")
                self._streams[site] = stream
            if float(stream.uniform()) >= spec.rate:
                return False
        self.fired[site] += 1
        return True

    def fire(self, site: str) -> None:
        """Raise :class:`InjectedFault` if the plan says ``site`` fails now."""
        if self.should_fire(site):
            raise InjectedFault(site, self.fired[site])


# ----------------------------------------------------------------------
# Process-wide active injector (mirrors repro.util.sanitize's tri-state).
# ----------------------------------------------------------------------
#: Explicit override: a plan, explicitly disabled (None after set), or
#: "defer to the environment" (the _UNSET sentinel).
_UNSET = object()
_override: object = _UNSET
#: Cached injector built from REPRO_FAULTS; invalidated by set_fault_plan.
_env_injector: FaultInjector | None = None
_env_read = False


def plan_from_env() -> FaultPlan | None:
    """The plan described by ``REPRO_FAULTS``, or ``None`` when unset."""
    text = os.environ.get("REPRO_FAULTS", "").strip()
    if not text:
        return None
    return FaultPlan.parse(text)


def set_fault_plan(plan: FaultPlan | None) -> FaultInjector | None:
    """Install ``plan`` as the active fault plan (``None`` disables faults).

    Returns the new active injector.  Use :func:`reset_faults` to go back
    to deferring to ``REPRO_FAULTS``.
    """
    global _override, _env_injector, _env_read
    _override = FaultInjector(plan) if plan is not None else None
    _env_injector = None
    _env_read = False
    return _override if isinstance(_override, FaultInjector) else None


def reset_faults() -> None:
    """Forget any override *and* the cached env injector (re-read next use)."""
    global _override, _env_injector, _env_read
    _override = _UNSET
    _env_injector = None
    _env_read = False


def active_injector() -> FaultInjector | None:
    """The injector in effect, or ``None`` when fault injection is off."""
    global _env_injector, _env_read
    if _override is not _UNSET:
        return _override if isinstance(_override, FaultInjector) else None
    if not _env_read:
        plan = plan_from_env()
        _env_injector = FaultInjector(plan) if plan is not None else None
        _env_read = True
    return _env_injector


@contextmanager
def injected_faults(plan: FaultPlan) -> Iterator[FaultInjector]:
    """Scope a fault plan to a ``with`` block (tests, targeted chaos)."""
    global _override
    previous = _override
    injector = FaultInjector(plan)
    _override = injector
    try:
        yield injector
    finally:
        _override = previous


@contextmanager
def faults_suppressed() -> Iterator[None]:
    """Scope with fault injection disabled (exact-accounting test paths)."""
    global _override
    previous = _override
    _override = None
    try:
        yield
    finally:
        _override = previous


def should_fire(site: str) -> bool:
    """Module-level convenience: consult the active injector, if any."""
    injector = active_injector()
    return injector is not None and injector.should_fire(site)


def fire(site: str) -> None:
    """Raise :class:`InjectedFault` if the active plan fails ``site`` now."""
    injector = active_injector()
    if injector is not None:
        injector.fire(site)
