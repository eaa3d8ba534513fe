"""Per-function control-flow graphs over ``ast``.

simlint's flow-sensitive rules (SIM006-SIM008 and SIM010,
:mod:`repro.lint.flowrules`) need to know *which definition of a name an expression actually reads* —
``t = time.time(); score += t`` is a determinism bug even though neither
line is one in isolation.  That question is answered by reaching
definitions over a control-flow graph, and this module builds the graph.

The CFG is deliberately lightweight: a function body becomes **blocks** of
:class:`Element`\\ s (one per evaluated statement-or-expression, each
carrying its name *defs* and the expressions it *uses*) joined by
successor edges.  Branches (``if``/``match``), loops (``for``/``while``
with ``break``/``continue``), ``with``, and ``try``/``except``/``finally``
are modelled; exception edges are over-approximated (every block of a
``try`` body may reach every handler), which can only make the downstream
analyses *more* conservative, never unsound for lint purposes.

Nested ``def``/``class`` bodies are *not* inlined — each gets its own CFG
via :func:`repro.lint.dataflow.analyze_module` — but the statement that
creates them is an :class:`Element` defining the name (which is exactly
what the pickle-boundary rule needs to spot a nested function escaping
into a pool submission).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Sequence

__all__ = ["Element", "Block", "CFG", "build_cfg", "element_defs", "element_uses"]


@dataclass(eq=False)  # identity-hashed: Definitions key on *which* element
class Element:
    """One evaluated unit: a simple statement, or a compound's header expr.

    ``defs`` are the names this element (re)binds, paired with the AST node
    the binding's *value* comes from (the assigned expression, the ``for``
    statement for loop targets, the ``FunctionDef`` for a nested def, or
    ``None`` for pure kills like ``del``).  ``uses`` are the expressions
    evaluated by the element, in evaluation order.
    """

    node: ast.AST
    defs: tuple[tuple[str, ast.AST | None], ...] = ()
    uses: tuple[ast.expr, ...] = ()

    @property
    def lineno(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class Block:
    """A straight-line run of elements with a single entry."""

    block_id: int
    elements: list[Element] = field(default_factory=list)
    successors: set[int] = field(default_factory=set)
    predecessors: set[int] = field(default_factory=set)


class CFG:
    """The control-flow graph of one function (or module) body."""

    def __init__(self) -> None:
        self.blocks: dict[int, Block] = {}
        self._next_id = 0
        self.entry = self.new_block().block_id
        #: Synthetic sink reached by fall-through, ``return`` and ``raise``.
        self.exit = self.new_block().block_id

    def new_block(self) -> Block:
        block = Block(self._next_id)
        self.blocks[block.block_id] = block
        self._next_id += 1
        return block

    def add_edge(self, src: int, dst: int) -> None:
        self.blocks[src].successors.add(dst)
        self.blocks[dst].predecessors.add(src)

    def elements(self) -> Iterator[Element]:
        """Every element, in block-id order (stable, roughly source order)."""
        for block_id in sorted(self.blocks):
            yield from self.blocks[block_id].elements


# ----------------------------------------------------------------------
# Defs and uses of a single evaluated node
# ----------------------------------------------------------------------
def _target_names(target: ast.expr) -> Iterator[str]:
    """Plain names bound by an assignment target (attr/subscript excluded)."""
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)


def _target_use_exprs(target: ast.expr) -> Iterator[ast.expr]:
    """Expressions *read* while storing to a target (attr/subscript bases)."""
    stack = [target]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Tuple, ast.List)):
            stack.extend(node.elts)
        elif isinstance(node, ast.Starred):
            stack.append(node.value)
        elif isinstance(node, ast.Attribute):
            yield node.value
        elif isinstance(node, ast.Subscript):
            yield node.value
            yield node.slice


def _walrus_defs(exprs: Sequence[ast.expr]) -> Iterator[tuple[str, ast.AST | None]]:
    """``NamedExpr`` bindings anywhere in ``exprs`` (they bind in the
    enclosing function scope, even from inside a comprehension)."""
    for expr in exprs:
        for node in ast.walk(expr):
            if isinstance(node, ast.NamedExpr) and isinstance(node.target, ast.Name):
                yield node.target.id, node.value


def _element(
    node: ast.AST,
    defs: Sequence[tuple[str, ast.AST | None]] = (),
    uses: Sequence[ast.expr] = (),
) -> Element:
    all_defs = tuple(defs) + tuple(_walrus_defs(uses))
    return Element(node, all_defs, tuple(uses))


def make_element(stmt: ast.stmt) -> Element:
    """The :class:`Element` for one *simple* statement."""
    if isinstance(stmt, ast.Assign):
        defs = [(n, stmt.value) for t in stmt.targets for n in _target_names(t)]
        uses = [stmt.value]
        for target in stmt.targets:
            uses.extend(_target_use_exprs(target))
        return _element(stmt, defs, uses)
    if isinstance(stmt, ast.AugAssign):
        uses = [stmt.value]
        if isinstance(stmt.target, ast.Name):
            # x += v both reads and redefines x; the def's value is the
            # whole statement so taint merges target and value.
            read = ast.Name(id=stmt.target.id, ctx=ast.Load())
            ast.copy_location(read, stmt.target)
            uses.append(read)
            return _element(stmt, [(stmt.target.id, stmt)], uses)
        uses.extend(_target_use_exprs(stmt.target))
        return _element(stmt, [], uses)
    if isinstance(stmt, ast.AnnAssign):
        if stmt.value is None:
            return _element(stmt)
        defs = [(n, stmt.value) for n in _target_names(stmt.target)]
        uses = [stmt.value, *_target_use_exprs(stmt.target)]
        return _element(stmt, defs, uses)
    if isinstance(stmt, ast.Expr):
        return _element(stmt, [], [stmt.value])
    if isinstance(stmt, ast.Return):
        return _element(stmt, [], [stmt.value] if stmt.value else [])
    if isinstance(stmt, ast.Raise):
        uses = [e for e in (stmt.exc, stmt.cause) if e is not None]
        return _element(stmt, [], uses)
    if isinstance(stmt, ast.Assert):
        uses = [stmt.test] + ([stmt.msg] if stmt.msg else [])
        return _element(stmt, [], uses)
    if isinstance(stmt, ast.Delete):
        defs = [(n, None) for t in stmt.targets for n in _target_names(t)]
        return _element(stmt, defs, list(stmt.targets))
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        uses: list[ast.expr] = list(stmt.decorator_list)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            uses.extend(d for d in stmt.args.defaults)
            uses.extend(d for d in stmt.args.kw_defaults if d is not None)
        else:
            uses.extend(stmt.bases)
            uses.extend(k.value for k in stmt.keywords)
        return _element(stmt, [(stmt.name, stmt)], uses)
    if isinstance(stmt, ast.Import):
        defs = [
            (alias.asname or alias.name.split(".")[0], stmt) for alias in stmt.names
        ]
        return _element(stmt, defs)
    if isinstance(stmt, ast.ImportFrom):
        defs = [
            (alias.asname or alias.name, stmt)
            for alias in stmt.names
            if alias.name != "*"
        ]
        return _element(stmt, defs)
    # Pass, Global, Nonlocal, Break, Continue (headers handled by builder)
    return _element(stmt)


def element_defs(element: Element) -> tuple[tuple[str, ast.AST | None], ...]:
    return element.defs


def element_uses(element: Element) -> tuple[ast.expr, ...]:
    return element.uses


# ----------------------------------------------------------------------
# Graph construction
# ----------------------------------------------------------------------
class _Builder:
    def __init__(self) -> None:
        self.cfg = CFG()
        #: (header_block, after_block) per enclosing loop, innermost last.
        self.loops: list[tuple[int, int]] = []

    # Each handler takes the id of the block control is in and returns the
    # id control falls out of, or None when the path terminated (return/
    # raise/break/continue).
    def build(self, body: Sequence[ast.stmt]) -> CFG:
        out = self._sequence(self.cfg.entry, body)
        if out is not None:
            self.cfg.add_edge(out, self.cfg.exit)
        return self.cfg

    def _sequence(self, current: int | None, body: Sequence[ast.stmt]) -> int | None:
        for stmt in body:
            if current is None:
                return None  # unreachable code after a terminator
            current = self._statement(current, stmt)
        return current

    def _statement(self, current: int, stmt: ast.stmt) -> int | None:
        cfg = self.cfg
        if isinstance(stmt, ast.If):
            cfg.blocks[current].elements.append(_element(stmt, [], [stmt.test]))
            after = cfg.new_block()
            then_entry = cfg.new_block()
            cfg.add_edge(current, then_entry.block_id)
            then_out = self._sequence(then_entry.block_id, stmt.body)
            if then_out is not None:
                cfg.add_edge(then_out, after.block_id)
            if stmt.orelse:
                else_entry = cfg.new_block()
                cfg.add_edge(current, else_entry.block_id)
                else_out = self._sequence(else_entry.block_id, stmt.orelse)
                if else_out is not None:
                    cfg.add_edge(else_out, after.block_id)
            else:
                cfg.add_edge(current, after.block_id)
            return after.block_id

        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            header = cfg.new_block()
            after = cfg.new_block()
            cfg.add_edge(current, header.block_id)
            if isinstance(stmt, ast.While):
                header.elements.append(_element(stmt, [], [stmt.test]))
            else:
                defs = [(n, stmt) for n in _target_names(stmt.target)]
                uses = [stmt.iter, *_target_use_exprs(stmt.target)]
                header.elements.append(_element(stmt, defs, uses))
            cfg.add_edge(header.block_id, after.block_id)  # zero iterations
            body_entry = cfg.new_block()
            cfg.add_edge(header.block_id, body_entry.block_id)
            self.loops.append((header.block_id, after.block_id))
            body_out = self._sequence(body_entry.block_id, stmt.body)
            self.loops.pop()
            if body_out is not None:
                cfg.add_edge(body_out, header.block_id)
            if stmt.orelse:
                else_out = self._sequence(after.block_id, stmt.orelse)
                if else_out is None:
                    return None
                return else_out
            return after.block_id

        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                defs = (
                    [(n, item.context_expr) for n in _target_names(item.optional_vars)]
                    if item.optional_vars is not None
                    else []
                )
                cfg.blocks[current].elements.append(
                    _element(stmt, defs, [item.context_expr])
                )
            return self._sequence(current, stmt.body)

        if isinstance(stmt, ast.Try):
            after = cfg.new_block()
            body_entry = cfg.new_block()
            cfg.add_edge(current, body_entry.block_id)
            before_ids = set(cfg.blocks)
            body_out = self._sequence(body_entry.block_id, stmt.body)
            body_ids = sorted({body_entry.block_id} | (set(cfg.blocks) - before_ids))
            handler_outs: list[int] = []
            for handler in stmt.handlers:
                h_entry = cfg.new_block()
                if handler.type is not None or handler.name is not None:
                    defs = [(handler.name, handler)] if handler.name else []
                    uses = [handler.type] if handler.type is not None else []
                    h_entry.elements.append(_element(handler, defs, uses))
                # Conservative: an exception may surface from any point of
                # the try body — including before any element ran, which is
                # the edge from `current` (the state at try entry).
                for block_id in [current, *body_ids]:
                    cfg.add_edge(block_id, h_entry.block_id)
                h_out = self._sequence(h_entry.block_id, handler.body)
                if h_out is not None:
                    handler_outs.append(h_out)
            if stmt.orelse and body_out is not None:
                body_out = self._sequence(body_out, stmt.orelse)
            exits = handler_outs + ([body_out] if body_out is not None else [])
            if stmt.finalbody:
                f_entry = cfg.new_block()
                for src in exits:
                    cfg.add_edge(src, f_entry.block_id)
                # An unhandled exception also runs the finally, carrying
                # partial-body state — join try entry and every body block.
                for block_id in [current, *body_ids]:
                    cfg.add_edge(block_id, f_entry.block_id)
                f_out = self._sequence(f_entry.block_id, stmt.finalbody)
                if f_out is None:
                    return None
                cfg.add_edge(f_out, after.block_id)
            else:
                if not exits:
                    return None
                for src in exits:
                    cfg.add_edge(src, after.block_id)
            return after.block_id

        if isinstance(stmt, ast.Match):
            cfg.blocks[current].elements.append(_element(stmt, [], [stmt.subject]))
            after = cfg.new_block()
            fell_through = False
            for case in stmt.cases:
                case_entry = cfg.new_block()
                cfg.add_edge(current, case_entry.block_id)
                defs = [
                    (n.name, case.pattern)
                    for n in ast.walk(case.pattern)
                    if isinstance(n, (ast.MatchAs, ast.MatchStar)) and n.name
                ]
                uses = [case.guard] if case.guard is not None else []
                case_entry.elements.append(_element(case, defs, uses))
                case_out = self._sequence(case_entry.block_id, case.body)
                if case_out is not None:
                    cfg.add_edge(case_out, after.block_id)
                    fell_through = True
            cfg.add_edge(current, after.block_id)  # no case matched
            return after.block_id if (fell_through or stmt.cases) else after.block_id

        if isinstance(stmt, (ast.Return, ast.Raise)):
            cfg.blocks[current].elements.append(make_element(stmt))
            cfg.add_edge(current, cfg.exit)
            return None

        if isinstance(stmt, ast.Break):
            if self.loops:
                cfg.add_edge(current, self.loops[-1][1])
            return None

        if isinstance(stmt, ast.Continue):
            if self.loops:
                cfg.add_edge(current, self.loops[-1][0])
            return None

        cfg.blocks[current].elements.append(make_element(stmt))
        return current


def build_cfg(body: Sequence[ast.stmt]) -> CFG:
    """Build the CFG of one function (or module) body."""
    return _Builder().build(body)
