"""Tests for the command-line interface."""

import pytest

from repro.backfill import BackfillPolicy
from repro.backfill.variants import LookaheadPolicy, SelectiveBackfillPolicy
from repro.cli import CliError, main, parse_policy
from repro.core.scheduler import SearchSchedulingPolicy
from repro.util.timeunits import HOUR


# ----------------------------------------------------------------------
# Policy-spec parsing
# ----------------------------------------------------------------------
def test_parse_backfill_specs():
    assert parse_policy("fcfs-bf", 100, True).name == "FCFS-backfill"
    assert parse_policy("lxf-bf", 100, True).name == "LXF-backfill"
    assert parse_policy("sjf-bf", 100, True).name == "SJF-backfill"
    assert parse_policy("lxfw-bf", 100, True).name == "LXF&W-backfill"


def test_parse_variant_specs():
    assert isinstance(parse_policy("lookahead", 100, True), LookaheadPolicy)
    assert isinstance(parse_policy("selective", 100, True), SelectiveBackfillPolicy)


def test_parse_search_specs():
    policy = parse_policy("dds/lxf/dynB", 500, True)
    assert isinstance(policy, SearchSchedulingPolicy)
    assert policy.name == "DDS/lxf/dynB"
    assert policy.searcher.node_limit == 500

    fixed = parse_policy("lds/fcfs/fixB50h", 100, True)
    assert fixed.name == "LDS/fcfs/fixB50h"
    assert fixed.bound.omega == 50 * HOUR


def test_parse_requested_runtime_mode():
    policy = parse_policy("dds/lxf/dynB", 100, False)
    assert policy.use_actual_runtime is False


@pytest.mark.parametrize(
    "bad",
    ["magic", "zzz-bf", "dds/lxf", "dds/lxf/fixBxh", "dds/lxf/weird", "bfs/lxf/dynB"],
)
def test_parse_rejects_bad_specs(bad):
    with pytest.raises(CliError):
        parse_policy(bad, 100, True)


# ----------------------------------------------------------------------
# Subcommands (invoked through main)
# ----------------------------------------------------------------------
def test_months_command(capsys):
    assert main(["months"]) == 0
    out = capsys.readouterr().out
    assert "2003-07" in out
    assert "89%" in out  # July's load
    assert "12 h" in out and "24 h" in out


def test_run_command(capsys):
    code = main(
        [
            "run",
            "--month",
            "2003-06",
            "--policy",
            "fcfs-bf",
            "--scale",
            "0.03",
            "--seed",
            "7",
            "--excess-threshold",
            "1",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "FCFS-backfill" in out
    assert "avg wait" in out and "max wait" in out
    assert "excess" in out


def test_run_command_search_policy_high_load(capsys):
    code = main(
        [
            "run",
            "--month",
            "2003-06",
            "--policy",
            "dds/lxf/dynB",
            "--scale",
            "0.03",
            "--node-limit",
            "50",
            "--load",
            "0.9",
        ]
    )
    assert code == 0
    assert "DDS/lxf/dynB" in capsys.readouterr().out


def test_run_command_estimates(capsys):
    code = main(
        [
            "run",
            "--month",
            "2003-06",
            "--policy",
            "lxf-bf",
            "--scale",
            "0.03",
            "--estimates",
            "menu",
            "--requested-runtimes",
        ]
    )
    assert code == 0


def test_run_rejects_unknown_month(capsys):
    assert main(["run", "--month", "1999-01", "--policy", "fcfs-bf"]) == 2
    assert "unknown month" in capsys.readouterr().err


def test_run_rejects_bad_policy(capsys):
    assert main(["run", "--month", "2003-06", "--policy", "nope"]) == 2
    assert "policy" in capsys.readouterr().err


def test_figure_command_fig1(capsys):
    assert main(["figure", "fig1"]) == 0
    assert "DDS visit order" in capsys.readouterr().out


def test_swf_convert_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "month.swf"
    code = main(
        [
            "swf-convert",
            "--month",
            "2003-06",
            "--output",
            str(out_file),
            "--scale",
            "0.02",
        ]
    )
    assert code == 0
    assert out_file.exists()
    # And the written trace runs through the CLI again.
    code = main(
        ["run", "--swf", str(out_file), "--policy", "fcfs-bf", "--scale", "1"]
    )
    assert code == 0


@pytest.mark.tier2
def test_claims_command_reduced(monkeypatch, capsys):
    # Shrink the scale so the claims run stays fast in tests.
    monkeypatch.setenv("REPRO_SCALE", "0.04")
    monkeypatch.setenv("REPRO_L_FACTOR", "0.02")
    code = main(["claims", "--months", "2003-07", "2003-08", "2004-01"])
    out = capsys.readouterr().out
    assert "Reproduction certificate" in out
    assert "[PASS]" in out
    assert code in (0, 1)  # claims may flip at this tiny scale


def test_claims_rejects_unknown_month(capsys):
    assert main(["claims", "--months", "1999-01"]) == 2
    assert "unknown months" in capsys.readouterr().err


def test_gantt_command(capsys):
    code = main(
        [
            "gantt",
            "--month",
            "2003-06",
            "--policy",
            "fcfs-bf",
            "--scale",
            "0.01",
            "--width",
            "40",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "legend" in out
    assert "util:" in out


def test_all_examples_compile():
    """Every example script parses (smoke guard against API drift)."""
    import pathlib
    import py_compile

    examples = sorted(pathlib.Path("examples").glob("*.py"))
    assert len(examples) >= 7
    for path in examples:
        py_compile.compile(str(path), doraise=True)


# ----------------------------------------------------------------------
# repro lint
# ----------------------------------------------------------------------
def test_lint_subcommand_clean_src(capsys):
    assert main(["lint", "src"]) == 0
    assert capsys.readouterr().out == ""


def test_lint_subcommand_finds_and_formats(tmp_path, capsys):
    import json

    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(0)\n")
    assert main(["lint", "--no-baseline", "--format", "json", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["findings"][0]["rule"] == "SIM002"


def test_lint_subcommand_baseline_passthrough(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import random\nrandom.seed(0)\n")
    baseline = tmp_path / "bl.json"
    assert main(["lint", "--write-baseline", str(baseline), str(bad)]) == 0
    capsys.readouterr()
    assert main(["lint", "--baseline", str(baseline), str(bad)]) == 0
    assert "baselined" in capsys.readouterr().err
