"""The simlint rule set: determinism and invariant hazards specific to
this codebase.

Each rule encodes one way a past (or plausible future) change could
silently break bit-determinism or corrupt simulator state:

- **SIM001 — wall-clock reads.**  ``time.time()`` / ``datetime.now()``
  inside the library makes results depend on when they were computed.
  (``time.perf_counter`` is fine: it only feeds wall-time *reporting*,
  never simulation state.)
- **SIM002 — global RNG state.**  ``random.*`` / ``np.random.*`` module
  functions share hidden process-global state; any library call in
  between perturbs the stream.  All randomness must flow through the
  named, seeded streams in :mod:`repro.util.rng` (the one sanctioned
  module).
- **SIM003 — raw float-time equality.**  ``==`` / ``!=`` between float
  simulation times differs in the last bit across arithmetic orders; use
  the tolerance helpers in :mod:`repro.util.timeunits`.
- **SIM004 — job lifecycle mutation.**  ``job.state`` / ``start_time`` /
  ``end_time`` assigned outside :mod:`repro.simulator.job` bypasses the
  validated state machine.
- **SIM005 — raw Event construction.**  :class:`Event` built outside
  :mod:`repro.simulator.events` bypasses the monotone seq counter that
  makes simultaneous-event ordering deterministic.

Rules are pure functions over the AST; the traversal and suppression
machinery lives in :mod:`repro.lint.engine`.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

__all__ = [
    "LintContext",
    "RawFinding",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "build_context",
    "run_rules",
]


@dataclass(frozen=True)
class Rule:
    """Static description of one simlint rule."""

    rule_id: str
    title: str
    rationale: str
    #: Path suffixes (posix) where the flagged construct is sanctioned.
    allowed_paths: tuple[str, ...] = ()


RULES: tuple[Rule, ...] = (
    Rule(
        "SIM001",
        "no wall-clock reads",
        "time.time()/datetime.now() make simulation results depend on when "
        "they ran; simulations must be a pure function of their inputs",
    ),
    Rule(
        "SIM002",
        "no global RNG state",
        "random.*/np.random.* share hidden process-global state; draw from "
        "a named repro.util.rng stream instead",
        allowed_paths=("repro/util/rng.py",),
    ),
    Rule(
        "SIM003",
        "no raw float-time equality",
        "==/!= between float simulation times differs in the last bit "
        "across arithmetic orders; use repro.util.timeunits.time_eq/"
        "time_lt/time_le",
    ),
    Rule(
        "SIM004",
        "no job lifecycle mutation",
        "Job.state/start_time/end_time must change only through the "
        "lifecycle methods in repro.simulator.job",
        allowed_paths=("repro/simulator/job.py",),
    ),
    Rule(
        "SIM005",
        "no raw Event construction",
        "Event objects must come from EventQueue.push, whose seq counter "
        "makes simultaneous-event ordering deterministic",
        allowed_paths=("repro/simulator/events.py",),
    ),
    # -- flow-sensitive rules (repro.lint.flowrules) --------------------
    Rule(
        "SIM006",
        "no determinism taint into scores/results",
        "values from wall-clock, global RNG, os.environ or PID sources "
        "must not flow (through any number of assignments) into search "
        "scores or SearchResult fields",
    ),
    Rule(
        "SIM007",
        "no unordered iteration in replay paths",
        "iterating a set or an unsorted os.listdir/glob result yields a "
        "process-dependent order; wrap in sorted(...) so merges and "
        "scores replay bit-identically",
    ),
    Rule(
        "SIM008",
        "no unpicklable values across process/checkpoint boundaries",
        "lambdas, nested functions, generators, open handles and "
        "module-level mutable state cannot round-trip through worker-pool "
        "submissions or LoopState checkpoint snapshots",
    ),
    Rule(
        "SIM010",
        "fault sites must come from the declared registry",
        "faults.fire/should_fire call sites must name a literal from "
        "repro.util.faults.SITES, otherwise a chaos plan can silently "
        "never fire",
        allowed_paths=("repro/util/faults.py",),
    ),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in RULES}


@dataclass
class RawFinding:
    """A rule hit before suppression/sanctioning filters are applied."""

    rule_id: str
    line: int
    col: int
    message: str


# ----------------------------------------------------------------------
# SIM001 / SIM002: calls resolved against the import-alias table
# ----------------------------------------------------------------------
_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.ctime",
    "time.localtime",
    "time.gmtime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: numpy.random attributes that are *constructors* of independent
#: generators rather than draws from the hidden global state.
_NP_RANDOM_OK = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
}


@dataclass
class LintContext:
    """Per-file state shared by all rules during one AST pass."""

    #: local name -> fully dotted origin ("np" -> "numpy",
    #: "datetime" -> "datetime.datetime", "Event" -> "repro.simulator.events.Event")
    aliases: dict[str, str] = field(default_factory=dict)

    def record_import(self, node: ast.Import | ast.ImportFrom) -> None:
        if isinstance(node, ast.Import):
            for name in node.names:
                self.aliases[name.asname or name.name.split(".")[0]] = (
                    name.name if name.asname else name.name.split(".")[0]
                )
            return
        if node.module is None or node.level:  # relative imports stay local
            return
        for name in node.names:
            if name.name == "*":
                continue
            self.aliases[name.asname or name.name] = f"{node.module}.{name.name}"

    def resolve(self, node: ast.expr) -> str | None:
        """Fully dotted path of a Name/Attribute chain, or ``None``."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


def _check_call(node: ast.Call, ctx: LintContext) -> Iterator[RawFinding]:
    path = ctx.resolve(node.func)
    if path is None:
        return
    if path in _WALL_CLOCK_CALLS:
        yield RawFinding(
            "SIM001",
            node.lineno,
            node.col_offset,
            f"wall-clock read `{path}()` — simulations must not depend on "
            "real time",
        )
    if path.startswith("random.") or path == "random":
        yield RawFinding(
            "SIM002",
            node.lineno,
            node.col_offset,
            f"global RNG call `{path}()` — use a repro.util.rng stream",
        )
    if path.startswith("numpy.random."):
        tail = path.rsplit(".", 1)[1]
        if tail not in _NP_RANDOM_OK:
            yield RawFinding(
                "SIM002",
                node.lineno,
                node.col_offset,
                f"global NumPy RNG call `{path}()` — use a repro.util.rng "
                "stream (or np.random.default_rng)",
            )
    if path.endswith("simulator.events.Event"):
        yield RawFinding(
            "SIM005",
            node.lineno,
            node.col_offset,
            "raw Event construction — events must go through "
            "EventQueue.push so the seq counter stays monotone",
        )


def _check_import(
    node: ast.Import | ast.ImportFrom, ctx: LintContext
) -> Iterator[RawFinding]:
    if isinstance(node, ast.ImportFrom) and not node.level:
        if node.module == "random":
            yield RawFinding(
                "SIM002",
                node.lineno,
                node.col_offset,
                "import from the global `random` module — use a "
                "repro.util.rng stream",
            )
        elif node.module == "numpy.random":
            for name in node.names:
                if name.name not in _NP_RANDOM_OK:
                    yield RawFinding(
                        "SIM002",
                        node.lineno,
                        node.col_offset,
                        f"import of global NumPy RNG `{name.name}` — use a "
                        "repro.util.rng stream",
                    )
        elif node.module == "time":
            for name in node.names:
                if f"time.{name.name}" in _WALL_CLOCK_CALLS:
                    yield RawFinding(
                        "SIM001",
                        node.lineno,
                        node.col_offset,
                        f"import of wall-clock `time.{name.name}` — "
                        "simulations must not depend on real time",
                    )


# ----------------------------------------------------------------------
# SIM003: float-time equality
# ----------------------------------------------------------------------
_TIME_WORDS = {
    "time",
    "times",
    "start",
    "end",
    "begin",
    "finish",
    "arrival",
    "arrivals",
    "submit",
    "release",
    "deadline",
    "omega",
    "now",
    "wait",
    "load",
    "instant",
    "makespan",
}


_T_NAME = re.compile(r"^t\d*$")  # t, t0, t1, ... are always times here


def _is_timeish(node: ast.expr) -> bool:
    """Whether an expression names a simulation time/load quantity."""
    if isinstance(node, ast.Name):
        words = node.id.lower().split("_")
    elif isinstance(node, ast.Attribute):
        words = node.attr.lower().split("_")
    elif isinstance(node, ast.Subscript):
        return _is_timeish(node.value)
    elif isinstance(node, ast.UnaryOp):
        return _is_timeish(node.operand)
    else:
        return False
    return any(word in _TIME_WORDS or _T_NAME.match(word) for word in words)


def _check_compare(node: ast.Compare, ctx: LintContext) -> Iterator[RawFinding]:
    left = node.left
    for op, right in zip(node.ops, node.comparators):
        if isinstance(op, (ast.Eq, ast.NotEq)) and (
            _is_timeish(left) or _is_timeish(right)
        ):
            # `x == None`-style identity checks use `is`, and string/enum
            # discriminators compare non-floats: only flag when neither
            # side is an obvious non-float constant.
            if not (_non_float_const(left) or _non_float_const(right)):
                symbol = "==" if isinstance(op, ast.Eq) else "!="
                yield RawFinding(
                    "SIM003",
                    node.lineno,
                    node.col_offset,
                    f"raw `{symbol}` between float simulation times — use "
                    "repro.util.timeunits.time_eq (or int/exact types)",
                )
        left = right


def _non_float_const(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and (
        node.value is None or isinstance(node.value, (str, bytes, bool))
    )


# ----------------------------------------------------------------------
# SIM004: job lifecycle mutation
# ----------------------------------------------------------------------
_LIFECYCLE_ATTRS = {"state", "start_time", "end_time"}


def _assignment_targets(node: ast.AST) -> Iterator[ast.expr]:
    if isinstance(node, ast.Assign):
        stack = list(node.targets)
    elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
        stack = [node.target]
    else:
        return
    while stack:
        target = stack.pop()
        if isinstance(target, (ast.Tuple, ast.List)):
            stack.extend(target.elts)
        elif isinstance(target, ast.Starred):
            stack.append(target.value)
        else:
            yield target


def _check_assignment(node: ast.AST, ctx: LintContext) -> Iterator[RawFinding]:
    for target in _assignment_targets(node):
        if isinstance(target, ast.Attribute) and target.attr in _LIFECYCLE_ATTRS:
            yield RawFinding(
                "SIM004",
                target.lineno,
                target.col_offset,
                f"assignment to `.{target.attr}` outside repro.simulator.job "
                "— use the Job lifecycle methods (mark_started, "
                "mark_finished, ...)",
            )


# ----------------------------------------------------------------------
# Single-pass driver
# ----------------------------------------------------------------------
def build_context(tree: ast.AST) -> LintContext:
    """A :class:`LintContext` with the module's full import-alias table."""
    ctx = LintContext()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            ctx.record_import(node)
    return ctx


def run_rules(tree: ast.AST, ctx: LintContext | None = None) -> list[RawFinding]:
    """Apply every *syntactic* rule (SIM001-SIM005) over ``tree``.

    Imports are recorded in a first pass so the alias table is complete
    regardless of where in the file (or how deep in a function) an import
    statement sits relative to the code that uses it.  The flow-sensitive
    rules live in :func:`repro.lint.flowrules.run_flow_rules` and share
    the same ``ctx``.
    """
    if ctx is None:
        ctx = LintContext()
    findings: list[RawFinding] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            ctx.record_import(node)
            findings.extend(_check_import(node, ctx))
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            findings.extend(_check_call(node, ctx))
        elif isinstance(node, ast.Compare):
            findings.extend(_check_compare(node, ctx))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            findings.extend(_check_assignment(node, ctx))
    return findings
