"""The flow-sensitive simlint rules (SIM006-SIM008, SIM010).

Where :mod:`repro.lint.rules` pattern-matches single statements, the rules
here follow *values* through the function via
:mod:`repro.lint.dataflow`:

- **SIM006 — determinism taint.**  A value originating from wall-clock,
  global-RNG, ``os.environ``/PID, or similar per-process sources must not
  flow into a search score or a ``SearchResult`` — however
  many local assignments it launders through.
- **SIM007 — unordered iteration.**  Iterating a ``set`` (or an unsorted
  ``os.listdir``/``glob`` result) yields a process-dependent order; when
  that order can reach scores or merge results the replay contract dies.
- **SIM008 — pickle-boundary safety.**  Lambdas, nested functions,
  generators, open handles and module-level mutable state must not cross
  into worker-pool submissions or checkpoint snapshots.
- **SIM010 — fault-site conformance.**  Every fault-injection call names
  a site declared in :data:`repro.util.faults.SITES`, so a typo cannot
  make a chaos plan silently no-op.

Each rule reports through the same :class:`~repro.lint.rules.RawFinding`
channel as the syntactic rules; suppression, sanctioned paths, baselines
and output formats all live in :mod:`repro.lint.engine`.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.cfg import Element
from repro.lint.dataflow import (
    FunctionUnit,
    TaintAnalysis,
    TaintPolicy,
    analyze_module,
    dotted_name,
    local_tainted_returns,
)
from repro.lint.rules import (
    _NP_RANDOM_OK,
    _WALL_CLOCK_CALLS,
    LintContext,
    RawFinding,
    _assignment_targets,
)

__all__ = ["run_flow_rules", "fault_sites"]


# ----------------------------------------------------------------------
# SIM006: determinism taint
# ----------------------------------------------------------------------
#: Monotonic clocks are fine for *reporting* (SIM001 allows them) but a
#: value read from any clock is still nondeterministic state if it lands
#: in a score — the flow rule is stricter than the syntactic one.
_CLOCK_SOURCES = _WALL_CLOCK_CALLS | {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
}

_PROCESS_SOURCES = {
    "os.getpid",
    "os.getppid",
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}

#: Identifier words that mark a name as score-like (assignment sinks).
_SCORE_WORDS = {"score", "scores", "incumbent", "objective"}

#: Constructors whose fields are the replay-visible search outcome.
_RESULT_CTORS = {
    "SearchResult",
    "ScheduleScore",
}


def _words(identifier: str) -> set[str]:
    return set(identifier.lower().split("_"))


def _is_score_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name) and _words(node.id) & _SCORE_WORDS:
        return node.id
    if isinstance(node, ast.Attribute) and _words(node.attr) & _SCORE_WORDS:
        return node.attr
    return None


class _DeterminismTaint(TaintPolicy):
    def call_source(self, resolved: str | None, call: ast.Call) -> str | None:
        if resolved is None:
            return None
        if resolved in _CLOCK_SOURCES:
            return f"wall-clock `{resolved}()`"
        if resolved in _PROCESS_SOURCES:
            return f"process-dependent `{resolved}()`"
        if resolved.startswith("random.") or resolved == "random":
            return f"global RNG `{resolved}()`"
        if resolved.startswith("numpy.random."):
            if resolved.rsplit(".", 1)[1] not in _NP_RANDOM_OK:
                return f"global NumPy RNG `{resolved}()`"
        if resolved in ("os.environ.get", "os.getenv"):
            return f"environment read `{resolved}()`"
        return None

    def expr_source(self, expr: ast.expr, resolve) -> str | None:
        if isinstance(expr, ast.Subscript):
            base = resolve(expr.value)
            if base == "os.environ":
                return "environment read `os.environ[...]`"
        return None


def _check_sim006(
    unit: FunctionUnit, analysis: TaintAnalysis, ctx: LintContext
) -> Iterator[RawFinding]:
    for element in unit.dataflow.elements():
        node = element.node
        # Assignment sinks: anything score-named absorbing a tainted value.
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            value = node.value
            if value is not None:
                taint = analysis.expr_taint(value, element)
                if taint is None and isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    taint = analysis.name_taint(element, node.target.id)
                if taint is not None:
                    for target in _assignment_targets(node):
                        sink = _is_score_name(target)
                        if sink is not None:
                            yield RawFinding(
                                "SIM006",
                                node.lineno,
                                node.col_offset,
                                f"nondeterministic value ({taint}) flows into "
                                f"score-bearing `{sink}`",
                            )
        # Result-constructor sinks.
        for use in element.uses:
            for call in ast.walk(use):
                if not isinstance(call, ast.Call):
                    continue
                resolved = ctx.resolve(call.func) or ""
                ctor = resolved.rsplit(".", 1)[-1]
                if ctor not in _RESULT_CTORS:
                    continue
                for arg in [*call.args, *[k.value for k in call.keywords]]:
                    taint = analysis.expr_taint(arg, element)
                    if taint is not None:
                        yield RawFinding(
                            "SIM006",
                            arg.lineno,
                            arg.col_offset,
                            f"nondeterministic value ({taint}) flows into "
                            f"`{ctor}(...)` — search outcomes must replay "
                            "bit-identically",
                        )
        # Return sinks in score-computing functions.
        if (
            isinstance(node, ast.Return)
            and node.value is not None
            and not unit.is_module
            and _words(unit.name) & {"score", "objective"}
        ):
            taint = analysis.expr_taint(node.value, element)
            if taint is not None:
                yield RawFinding(
                    "SIM006",
                    node.lineno,
                    node.col_offset,
                    f"nondeterministic value ({taint}) returned from "
                    f"score function `{unit.name}()`",
                )


# ----------------------------------------------------------------------
# SIM007: unordered iteration
# ----------------------------------------------------------------------
_FS_ENUM_CALLS = {"os.listdir", "os.scandir", "glob.glob", "glob.iglob"}
_FS_ENUM_METHODS = {"glob", "rglob", "iterdir"}
_ORDER_SANITIZERS = {"sorted", "len", "min", "max", "any", "all"}


class _OrderTaint(TaintPolicy):
    def call_source(self, resolved: str | None, call: ast.Call) -> str | None:
        if resolved in ("set", "frozenset"):
            return f"`{resolved}(...)` (unordered)"
        if resolved in _FS_ENUM_CALLS:
            return f"unsorted `{resolved}(...)`"
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in _FS_ENUM_METHODS
        ):
            return f"unsorted `.{call.func.attr}(...)`"
        return None

    def expr_source(self, expr: ast.expr, resolve) -> str | None:
        if isinstance(expr, ast.Set):
            return "a set literal (unordered)"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension (unordered)"
        return None

    def is_sanitizer(self, resolved: str | None, call: ast.Call) -> bool:
        return resolved in _ORDER_SANITIZERS

    def propagate_compare(self) -> bool:
        return False  # membership tests are order-blind

    def propagate_iteration(self, reason: str | None) -> str | None:
        return None  # the *elements* of an unordered set are plain values

    def propagate_elements(self) -> bool:
        return False  # `{k: frozenset()}` still iterates in insertion order


def _check_sim007(
    unit: FunctionUnit, analysis: TaintAnalysis
) -> Iterator[RawFinding]:
    def flag(where: ast.AST, taint: str) -> RawFinding:
        return RawFinding(
            "SIM007",
            where.lineno,
            where.col_offset,
            f"iteration over {taint} — order differs across processes; "
            "wrap in sorted(...)",
        )

    for element in unit.dataflow.elements():
        node = element.node
        if isinstance(node, (ast.For, ast.AsyncFor)):
            taint = analysis.expr_taint(node.iter, element)
            if taint is not None:
                yield flag(node, taint)
        for use in element.uses:
            for sub in ast.walk(use):
                if isinstance(
                    sub, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
                ):
                    for generator in sub.generators:
                        taint = analysis.expr_taint(generator.iter, element)
                        if taint is not None:
                            yield flag(generator.iter, taint)
                elif isinstance(sub, ast.YieldFrom):
                    taint = analysis.expr_taint(sub.value, element)
                    if taint is not None:
                        yield flag(sub, taint)


# ----------------------------------------------------------------------
# SIM008: pickle-boundary safety
# ----------------------------------------------------------------------
class _PickleTaint(TaintPolicy):
    def call_source(self, resolved: str | None, call: ast.Call) -> str | None:
        if resolved in ("open", "io.open", "gzip.open", "tempfile.NamedTemporaryFile"):
            return f"open file handle from `{resolved}(...)`"
        return None

    def is_sanitizer(self, resolved: str | None, call: ast.Call) -> bool:
        # Materializing a generator makes it picklable again.
        return resolved in ("tuple", "list", "set", "frozenset", "dict", "sorted")

    def expr_source(self, expr: ast.expr, resolve) -> str | None:
        if isinstance(expr, ast.Lambda):
            return "a lambda"
        if isinstance(expr, ast.GeneratorExp):
            return "a generator expression"
        return None

    def def_source(
        self, name: str, value: ast.AST | None, unit: FunctionUnit
    ) -> str | None:
        if (
            isinstance(value, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not unit.is_module
        ):
            return f"nested function `{name}`"
        return None


def _module_mutable_globals(module_unit: FunctionUnit) -> set[str]:
    """Module-level names bound to mutable literals (lists/dicts/sets)."""
    mutable: set[str] = set()
    for element in module_unit.dataflow.elements():
        for name, value in element.defs:
            if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)):
                mutable.add(name)
            elif isinstance(value, ast.Call):
                callee = dotted_name(value.func)
                if callee in ("list", "dict", "set", "defaultdict", "Counter"):
                    mutable.add(name)
    return mutable


def _is_pool_submit(call: ast.Call, unit: FunctionUnit, element: Element) -> bool:
    if not (isinstance(call.func, ast.Attribute) and call.func.attr == "submit"):
        return False
    receiver = dotted_name(call.func.value) or ""
    lowered = receiver.lower()
    if "pool" in lowered or "executor" in lowered:
        return True
    # Alias check: was the receiver bound from get_pool()/an Executor?
    if isinstance(call.func.value, ast.Name):
        for definition in unit.dataflow.defs_of(element, call.func.value.id):
            value = definition.value
            if isinstance(value, ast.Call):
                callee = dotted_name(value.func) or ""
                if callee.endswith("get_pool") or callee.endswith("Executor"):
                    return True
    return False


def _check_sim008(
    unit: FunctionUnit,
    analysis: TaintAnalysis,
    ctx: LintContext,
    mutable_globals: set[str],
) -> Iterator[RawFinding]:
    local_names = set(unit.dataflow.param_defs)
    for element in unit.dataflow.elements():
        for name, _value in element.defs:
            local_names.add(name)
    for element in unit.dataflow.elements():
        for use in element.uses:
            for call in ast.walk(use):
                if not isinstance(call, ast.Call):
                    continue
                resolved = ctx.resolve(call.func) or ""
                args: list[ast.expr] = []
                boundary = ""
                if _is_pool_submit(call, unit, element):
                    boundary = "worker-pool submission"
                    args = [*call.args, *[k.value for k in call.keywords]]
                elif resolved in ("pickle.dumps", "pickle.dump") and call.args:
                    boundary = f"`{resolved}(...)`"
                    args = [call.args[0]]
                elif resolved.rsplit(".", 1)[-1] in ("save_checkpoint", "LoopState"):
                    boundary = f"`{resolved.rsplit('.', 1)[-1]}(...)`"
                    args = [*call.args, *[k.value for k in call.keywords]]
                if not boundary:
                    continue
                for arg in args:
                    taint = analysis.expr_taint(arg, element)
                    if taint is not None:
                        yield RawFinding(
                            "SIM008",
                            arg.lineno,
                            arg.col_offset,
                            f"{taint} crosses a pickle boundary "
                            f"({boundary}) — it cannot round-trip",
                        )
                    elif (
                        boundary == "worker-pool submission"
                        and isinstance(arg, ast.Name)
                        and arg.id in mutable_globals
                        and arg.id not in local_names
                    ):
                        yield RawFinding(
                            "SIM008",
                            arg.lineno,
                            arg.col_offset,
                            f"module-level mutable `{arg.id}` crosses into a "
                            "worker-pool submission — workers see a pickled "
                            "snapshot, not shared state",
                        )


# ----------------------------------------------------------------------
# SIM010: fault-site registry conformance
# ----------------------------------------------------------------------
#: Frozen fallback if the live registry cannot be imported (e.g. linting
#: from a checkout without the package importable).
_SITES_FALLBACK = (
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


def fault_sites() -> tuple[str, ...]:
    """The declared fault-site registry (live from ``repro.util.faults``)."""
    try:
        from repro.util.faults import SITES
    except Exception:  # pragma: no cover - import-degraded environments
        return _SITES_FALLBACK
    return tuple(SITES)


def _is_fault_call(call: ast.Call, ctx: LintContext) -> bool:
    resolved = ctx.resolve(call.func) or ""
    if resolved.endswith("faults.fire") or resolved.endswith("faults.should_fire"):
        return True
    if isinstance(call.func, ast.Attribute) and call.func.attr in (
        "fire",
        "should_fire",
    ):
        receiver = (dotted_name(call.func.value) or "").lower()
        return "injector" in receiver
    return False


def _site_derived_from_registry(
    unit: FunctionUnit, element: Element, name: str
) -> bool:
    """Whether ``name``'s reaching definitions all come from SITES itself."""
    defs = unit.dataflow.defs_of(element, name)
    if not defs:
        return False
    for definition in defs:
        value = definition.value
        if value is None:
            return False
        if isinstance(value, (ast.For, ast.AsyncFor)):
            value = value.iter
        found = any(
            isinstance(node, (ast.Name, ast.Attribute))
            and (dotted_name(node) or "").split(".")[-1] == "SITES"
            for node in ast.walk(value)
            if isinstance(node, ast.expr)
        )
        if not found:
            return False
    return True


def _check_sim010(
    unit: FunctionUnit, ctx: LintContext, sites: tuple[str, ...]
) -> Iterator[RawFinding]:
    for element in unit.dataflow.elements():
        for use in element.uses:
            for call in ast.walk(use):
                if not isinstance(call, ast.Call) or not _is_fault_call(call, ctx):
                    continue
                if not call.args:
                    continue
                site = call.args[0]
                if isinstance(site, ast.Constant) and isinstance(site.value, str):
                    if site.value not in sites:
                        yield RawFinding(
                            "SIM010",
                            site.lineno,
                            site.col_offset,
                            f"fault site {site.value!r} is not declared in "
                            "repro.util.faults.SITES — the plan would "
                            "silently never fire",
                        )
                elif isinstance(site, ast.Name) and _site_derived_from_registry(
                    unit, element, site.id
                ):
                    continue
                else:
                    yield RawFinding(
                        "SIM010",
                        site.lineno,
                        site.col_offset,
                        "fault site must be a string literal from "
                        "repro.util.faults.SITES (or iterate SITES itself)",
                    )


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_flow_rules(tree: ast.Module, ctx: LintContext) -> list[RawFinding]:
    """Apply SIM006-SIM008, SIM010 over one module's dataflow units."""
    units = analyze_module(tree)
    resolve = ctx.resolve
    findings: list[RawFinding] = []

    determinism = _DeterminismTaint()
    local6 = local_tainted_returns(units, determinism, resolve)
    order = _OrderTaint()
    local7 = local_tainted_returns(units, order, resolve)
    pickle_policy = _PickleTaint()
    mutable_globals = _module_mutable_globals(units[0])
    sites = fault_sites()

    for unit in units:
        taint6 = TaintAnalysis(unit, determinism, resolve, local6)
        findings.extend(_check_sim006(unit, taint6, ctx))
        taint7 = TaintAnalysis(unit, order, resolve, local7)
        findings.extend(_check_sim007(unit, taint7))
        taint8 = TaintAnalysis(unit, pickle_policy, resolve)
        findings.extend(_check_sim008(unit, taint8, ctx, mutable_globals))
        findings.extend(_check_sim010(unit, ctx, sites))
    return findings
