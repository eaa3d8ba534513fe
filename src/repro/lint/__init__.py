"""simlint: determinism/invariant static analysis for the repro tree.

Run as ``python -m repro.lint [paths...]`` or through
``tests/test_simlint.py`` (which also keeps the real tree clean in CI).
See :mod:`repro.lint.rules` for the syntactic rule set (SIM001-SIM005),
:mod:`repro.lint.flowrules` for the dataflow rules (SIM006-SIM008,
SIM010) built on :mod:`repro.lint.cfg` / :mod:`repro.lint.dataflow`, and
:mod:`repro.lint.engine` for suppression and baseline syntax.
"""

from repro.lint.engine import (
    Finding,
    lint_file,
    lint_paths,
    lint_source,
    main,
)
from repro.lint.output import (
    apply_baseline,
    fingerprint,
    load_baseline,
    render_json,
    render_sarif,
    write_baseline,
)
from repro.lint.rules import RULES, RULES_BY_ID, Rule

__all__ = [
    "Finding",
    "Rule",
    "RULES",
    "RULES_BY_ID",
    "apply_baseline",
    "fingerprint",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "main",
    "render_json",
    "render_sarif",
    "write_baseline",
]
