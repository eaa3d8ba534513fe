"""simlint driver: file walking, suppression, baselines, reporting.

Usage::

    python -m repro.lint [paths...]                # default: src
    python -m repro.lint --format json src tests
    python -m repro.lint --format sarif --out simlint.sarif src
    python -m repro.lint --write-baseline .simlint-baseline.json src tests
    python -m repro.lint --baseline .simlint-baseline.json src tests

Exit status is 0 when the tree is clean (after suppressions and the
baseline), 1 when any new finding survives, and 2 on syntax/usage errors.
Text findings print as ``path:line:col: RULE message`` so editors and CI
annotate them directly.

Two escape hatches, with different jobs:

- **Suppressions** are per-line, reviewed, and permanent: a trailing
  ``# simlint: skip=SIM003`` comment (with a rationale!) marks a construct
  as deliberately exempt.  ``# simlint: skip`` (no rules) skips every rule.
- The **baseline** (``--baseline``; auto-discovered as
  ``.simlint-baseline.json`` in the working directory) is temporary debt:
  pre-existing findings recorded at rule-introduction time that are
  tolerated — not endorsed — so new rules can gate immediately.  See
  :mod:`repro.lint.output` and ``docs/linting.md``.

Both run the same rule set: the per-statement rules of
:mod:`repro.lint.rules` (SIM001-SIM005) and the dataflow rules of
:mod:`repro.lint.flowrules` (SIM006-SIM008, SIM010) built on the
CFG/def-use framework in :mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow`.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from repro.lint import output as output_mod
from repro.lint.flowrules import run_flow_rules
from repro.lint.rules import RULES, RULES_BY_ID, build_context, run_rules

__all__ = ["Finding", "lint_source", "lint_file", "lint_paths", "main"]

_SKIP_RE = re.compile(r"#\s*simlint:\s*skip(?:=(?P<rules>[A-Z0-9,\s]+))?")


@dataclass(frozen=True, order=True)
class Finding:
    """One confirmed lint finding."""

    path: str
    line: int
    col: int
    rule_id: str
    message: str
    #: Content fingerprint for baseline matching (not part of ordering
    #: in any meaningful way; it is derived from rule + line text).
    fingerprint: str = field(default="", compare=False)

    def __str__(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} {self.message}"


def _suppressions(source: str) -> dict[int, set[str] | None]:
    """Map line number -> suppressed rule ids (``None`` = every rule)."""
    table: dict[int, set[str] | None] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SKIP_RE.search(line)
        if not match:
            continue
        rules = match.group("rules")
        if rules is None:
            table[lineno] = None
        else:
            table[lineno] = {r.strip() for r in rules.split(",") if r.strip()}
    return table


def _sanctioned(rule_id: str, path: str) -> bool:
    """Whether ``path`` is an allowed home for the rule's construct."""
    posix = Path(path).as_posix()
    return any(
        posix.endswith(suffix) for suffix in RULES_BY_ID[rule_id].allowed_paths
    )


def lint_source(source: str, path: str = "<string>") -> list[Finding]:
    """Lint one unit of Python source; raises ``SyntaxError`` on bad input."""
    tree = ast.parse(source, filename=path)
    skip = _suppressions(source)
    lines = source.splitlines()
    ctx = build_context(tree)
    raw_findings = run_rules(tree, ctx) + run_flow_rules(tree, ctx)
    findings = []
    for raw in raw_findings:
        if _sanctioned(raw.rule_id, path):
            continue
        if raw.line in skip:
            suppressed = skip[raw.line]  # None means "every rule"
            if suppressed is None or raw.rule_id in suppressed:
                continue
        line_text = lines[raw.line - 1] if 0 < raw.line <= len(lines) else ""
        findings.append(
            Finding(
                path,
                raw.line,
                raw.col,
                raw.rule_id,
                raw.message,
                output_mod.fingerprint(raw.rule_id, line_text),
            )
        )
    return sorted(findings)


def lint_file(path: "str | Path") -> list[Finding]:
    text = Path(path).read_text(encoding="utf-8")
    return lint_source(text, str(path))


def iter_python_files(paths: Iterable["str | Path"]) -> Iterator[Path]:
    """Expand files/directories into a sorted stream of ``.py`` files."""
    for entry in paths:
        p = Path(entry)
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p
        else:
            raise FileNotFoundError(f"not a Python file or directory: {p}")


def lint_paths(paths: Sequence["str | Path"]) -> list[Finding]:
    """Lint every Python file under ``paths``; sorted, suppression-filtered."""
    findings: list[Finding] = []
    for file in iter_python_files(paths):
        findings.extend(lint_file(file))
    return sorted(findings)


def _resolve_baseline(args: argparse.Namespace) -> "Path | None":
    if args.no_baseline or args.write_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(output_mod.DEFAULT_BASELINE)
    return default if default.exists() else None


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="determinism/invariant static analysis for the repro tree",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help="tolerate findings recorded in FILE (default: "
        f"{output_mod.DEFAULT_BASELINE} when it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file, report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="FILE",
        help="record the current findings as the new baseline and exit 0",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(f"{rule.rule_id}  {rule.title}")
            print(f"        {rule.rationale}")
            if rule.allowed_paths:
                print(f"        sanctioned in: {', '.join(rule.allowed_paths)}")
        return 0

    try:
        findings = lint_paths(args.paths)
    except SyntaxError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.write_baseline:
        entries = output_mod.write_baseline(args.write_baseline, findings)
        print(
            f"simlint: baselined {len(findings)} finding(s) "
            f"({entries} fingerprint(s)) to {args.write_baseline}",
            file=sys.stderr,
        )
        return 0

    baselined = 0
    baseline_path = _resolve_baseline(args)
    if baseline_path is not None:
        try:
            baseline = output_mod.load_baseline(baseline_path)
        except output_mod.BaselineError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        findings, baselined = output_mod.apply_baseline(findings, baseline)

    if args.format == "json":
        report = output_mod.render_json(findings, baselined)
    elif args.format == "sarif":
        report = output_mod.render_sarif(findings, baselined)
    else:
        report = "\n".join(str(f) for f in findings)
    if args.out:
        Path(args.out).write_text(report + "\n", encoding="utf-8")
    elif report:
        print(report)

    if findings:
        summary = (
            f"simlint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s)"
        )
        if baselined:
            summary += f" ({baselined} baselined)"
        print(summary, file=sys.stderr)
        return 1
    if baselined:
        print(f"simlint: clean ({baselined} baselined)", file=sys.stderr)
    return 0
