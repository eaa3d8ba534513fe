"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``months``
    List the calibrated NCSA IA-64 months with their published statistics.
``run``
    Simulate one policy on one month (or an SWF trace) and print the
    paper's headline measures.
``figure``
    Regenerate one of the paper's figures (fig1 ... fig8) at the active
    experiment scale and print its series.
``tables``
    Regenerate Tables 3 and 4 from the synthetic traces.
``swf-convert``
    Export a synthetic month as a Standard Workload Format file.
``bench``
    Time the search hot path (both engines, bit-identity checked) and
    write the ``BENCH_search.json`` perf report.
``optgap``
    Measure DDS/LDS gap-to-optimal against the exact small-instance
    solver and write the ``BENCH_optgap.json`` quality report.
``profile``
    cProfile the first N decision points of a run and print the top-k
    cumulative hot spots (optionally dumping pstats) — the attribution
    tool behind the compiled-kernel work.
``serve``
    Run the resilient scheduler-as-a-service over JSONL stdio: register
    tenants, stream job arrivals, get SLO-bounded (possibly degraded,
    always labeled) decisions back (see ``docs/service.md``).
``loadgen``
    Benchmark the decision service with a deterministic multi-tenant
    closed-loop workload and write the ``BENCH_service.json`` report
    (throughput, p50/p99 latency, degradation counts).
``lint``
    Run simlint (``python -m repro.lint``) over the tree; all simlint
    flags pass through (see ``docs/linting.md``).

Policy specs accepted by ``run --policy``:

- ``fcfs-bf`` / ``lxf-bf`` / ``sjf-bf`` / ``lxfw-bf`` — priority backfill;
- ``lookahead`` / ``selective`` / ``slack`` — the §3.2 variants;
- ``dds/lxf/dynB`` (and any ``<algo>/<heuristic>/<bound>`` combination,
  bounds ``dynB`` or ``fixB<hours>h``) — search-based policies.

The grid-running commands (``figure``, ``claims``, ``reproduce``) accept
``--workers N`` (0 = all cores) to fan simulations across a process pool,
``--cache-dir``/``--no-cache`` to control the on-disk run cache, and
``--retries K`` to bound the per-cell retry budget; see
:mod:`repro.experiments.parallel`.  ``run`` additionally supports
``--checkpoint-dir``/``--checkpoint-every``/``--resume`` for
interrupt-safe long simulations (:mod:`repro.simulator.checkpoint`).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.backfill import BackfillPolicy, fcfs_backfill, lxf_backfill
from repro.backfill.priorities import PRIORITIES
from repro.backfill.variants import (
    LookaheadPolicy,
    SelectiveBackfillPolicy,
    SlackBackfillPolicy,
)
from repro.core.scheduler import make_policy
from repro.experiments.config import current_scale
from repro.experiments import figures as fig_mod
from repro.experiments.runner import PolicyRun, resume_run, simulate
from repro.metrics.excessive import excessive_wait_stats
from repro.simulator.policy import SchedulingPolicy
from repro.util.timeunits import HOUR
from repro.workloads.calibration import MONTH_ORDER, MONTHS
from repro.workloads.estimates import MenuEstimates, UniformFactorEstimates, apply_estimates
from repro.workloads.scaling import scale_to_load
from repro.workloads.swf import read_swf, write_swf
from repro.workloads.synthetic import generate_month

_FIGURES = {
    "fig1": fig_mod.fig1_tree,
    "fig2": fig_mod.fig2_fixed_bound_sensitivity,
    "fig3": fig_mod.fig3_original_load,
    "fig4": fig_mod.fig4_high_load,
    "fig5": fig_mod.fig5_job_classes,
    "fig6": fig_mod.fig6_node_limit,
    "fig7": fig_mod.fig7_algorithms,
    "fig8": fig_mod.fig8_requested_runtimes,
}

_ESTIMATES = {
    "menu": MenuEstimates,
    "uniform": UniformFactorEstimates,
}


class CliError(Exception):
    """User-facing CLI error (bad spec, unknown month, ...)."""


def parse_policy(spec: str, node_limit: int, runtime_source: bool) -> SchedulingPolicy:
    """Build a policy from a CLI spec string (see module docstring)."""
    lowered = spec.strip().lower()
    simple = {
        "fcfs-bf": lambda: fcfs_backfill(runtime_source),
        "lxf-bf": lambda: lxf_backfill(runtime_source),
        "lookahead": lambda: LookaheadPolicy(runtime_source),
        "selective": lambda: SelectiveBackfillPolicy(runtime_source=runtime_source),
        "slack": lambda: SlackBackfillPolicy(runtime_source=runtime_source),
    }
    if lowered in simple:
        return simple[lowered]()
    if lowered.endswith("-bf"):
        priority_name = lowered[:-3]
        if priority_name in PRIORITIES:
            return BackfillPolicy(
                PRIORITIES[priority_name], runtime_source=runtime_source
            )
        raise CliError(
            f"unknown backfill priority {priority_name!r}; "
            f"choose from {sorted(PRIORITIES)}"
        )
    parts = lowered.split("/")
    if len(parts) == 3:
        algorithm, heuristic, bound_spec = parts
        if bound_spec == "dynb":
            bound = None
        elif bound_spec.startswith("fixb") and bound_spec.endswith("h"):
            try:
                bound = float(bound_spec[4:-1]) * HOUR
            except ValueError:
                raise CliError(f"cannot parse bound {bound_spec!r}") from None
        else:
            raise CliError(
                f"unknown bound {bound_spec!r}; use dynB or fixB<hours>h"
            )
        try:
            return make_policy(
                algorithm,
                heuristic,
                bound=bound,
                node_limit=node_limit,
                runtime_source=runtime_source,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
    raise CliError(
        f"cannot parse policy spec {spec!r}; examples: fcfs-bf, lxf-bf, "
        "lookahead, dds/lxf/dynB, lds/fcfs/fixB50h"
    )


def _add_execution_args(sub: argparse.ArgumentParser) -> None:
    """Attach the parallel-runner / run-cache flags to a subcommand."""
    sub.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="process-pool size for simulation grids (0 = all cores; "
        "default: REPRO_WORKERS or serial)",
    )
    sub.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="persist finished runs under DIR (default: REPRO_CACHE_DIR "
        "or .repro-cache when caching is enabled)",
    )
    sub.add_argument(
        "--no-cache",
        action="store_true",
        help="never read or write the run cache for this invocation",
    )
    sub.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="K",
        help="re-attempt each failed grid cell up to K times before "
        "reporting it (default: REPRO_RUN_RETRIES or 1)",
    )


def _configure_execution(args: argparse.Namespace) -> None:
    """Apply ``--workers``/``--cache-dir``/``--no-cache`` for this command.

    With no flags given the environment defaults (``REPRO_WORKERS``,
    ``REPRO_CACHE``, ``REPRO_CACHE_DIR``) stay in effect.
    """
    from repro.experiments import parallel
    from repro.experiments.cache import RunCache

    if (
        args.workers is None
        and args.cache_dir is None
        and not args.no_cache
        and args.retries is None
    ):
        return
    base = parallel.default_execution()
    workers = base.max_workers if args.workers is None else args.workers
    if args.no_cache:
        cache = None
    elif args.cache_dir is not None:
        cache = RunCache(args.cache_dir)
    else:
        cache = base.cache
    retries = base.retries if args.retries is None else args.retries
    parallel.configure(max_workers=workers, cache=cache, retries=retries)


def _load_workload(args: argparse.Namespace):
    if args.swf:
        workload = read_swf(args.swf)
    else:
        if args.month not in MONTHS:
            raise CliError(
                f"unknown month {args.month!r}; choose from {list(MONTH_ORDER)}"
            )
        workload = generate_month(args.month, seed=args.seed, scale=args.scale)
    if args.load is not None:
        workload = scale_to_load(workload, args.load)
    if args.estimates:
        model = _ESTIMATES[args.estimates]()
        workload = apply_estimates(workload, model, seed=args.seed)
    return workload


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_months(args: argparse.Namespace) -> int:
    print(f"{'month':>9} {'label':>6} {'jobs':>6} {'load':>6} {'runtime limit':>14}")
    for name in MONTH_ORDER:
        cal = MONTHS[name]
        print(
            f"{name:>9} {cal.label:>6} {cal.total_jobs:>6} "
            f"{cal.load * 100:>5.0f}% {cal.limits.max_runtime / HOUR:>12.0f} h"
        )
    return 0


def _print_run(run: PolicyRun, excess_threshold: float | None) -> None:
    print(f"workload : {run.workload_name} ({run.metrics.n_jobs} in-window jobs)")
    print(f"policy   : {run.policy_name}")
    print(f"load     : {run.offered_load:.2f} offered, {run.utilization:.2f} achieved")
    print(f"avg wait : {run.metrics.avg_wait_hours:.2f} h")
    print(f"max wait : {run.metrics.max_wait_hours:.2f} h")
    print(f"p98 wait : {run.metrics.p98_wait_hours:.2f} h")
    print(f"slowdown : {run.metrics.avg_bounded_slowdown:.2f} avg bounded")
    print(f"queue    : {run.avg_queue_length:.2f} jobs (time average)")
    if excess_threshold is not None:
        stats = excessive_wait_stats(run.jobs, excess_threshold * HOUR)
        print(
            f"excess   : {stats.total_hours:.2f} h total over "
            f"{stats.count} jobs (t={excess_threshold:g} h)"
        )


def cmd_run(args: argparse.Namespace) -> int:
    if args.resume:
        try:
            run = resume_run(args.resume)
        except (FileNotFoundError, OSError) as exc:
            raise CliError(str(exc)) from None
        _print_run(run, args.excess_threshold)
        return 0
    workload = _load_workload(args)
    policy = parse_policy(args.policy, args.node_limit, not args.requested_runtimes)
    checkpoint = None
    if args.checkpoint_dir:
        from repro.simulator.checkpoint import CheckpointConfig

        try:
            checkpoint = CheckpointConfig(
                directory=args.checkpoint_dir,
                every_decisions=args.checkpoint_every,
            )
        except ValueError as exc:
            raise CliError(str(exc)) from None
    run = simulate(workload, policy, checkpoint=checkpoint)
    _print_run(run, args.excess_threshold)
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    _configure_execution(args)
    fig = _FIGURES[args.name]()
    print(fig.render())
    return 0


def cmd_tables(args: argparse.Namespace) -> int:
    print(fig_mod.table3_job_mix().render())
    print()
    print(fig_mod.table4_runtimes().render())
    return 0


def cmd_claims(args: argparse.Namespace) -> int:
    from repro.experiments.claims import build_context, evaluate_claims, render_claims

    _configure_execution(args)
    months = args.months or None
    if months:
        unknown = [m for m in months if m not in MONTHS]
        if unknown:
            raise CliError(f"unknown months {unknown}; choose from {list(MONTH_ORDER)}")
    context = build_context(current_scale(), months=months)
    results = evaluate_claims(context)
    print(render_claims(results))
    return 0 if all(r.passed for r in results) else 1


def cmd_gantt(args: argparse.Namespace) -> int:
    from repro.metrics.gantt import describe_schedule
    from repro.simulator.engine import Simulation

    if args.month not in MONTHS:
        raise CliError(
            f"unknown month {args.month!r}; choose from {list(MONTH_ORDER)}"
        )
    workload = generate_month(args.month, seed=args.seed, scale=args.scale)
    policy = parse_policy(args.policy, args.node_limit, True)
    result = Simulation(
        workload.fresh_jobs(), policy, workload.cluster, window=workload.window
    ).run()
    print(f"{workload.name} under {policy.name}:")
    print(describe_schedule(result.jobs_in_window(), workload.cluster.nodes))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments.report import reproduce_all

    _configure_execution(args)
    try:
        report = reproduce_all(
            args.out,
            only=args.only,
            with_claims=not args.no_claims,
            progress=print,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(f"report written to {report}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    from repro.experiments.bench import check_bench, run_bench, write_bench

    if args.check:
        # Smoke mode: re-measure and judge against the committed report's
        # tolerance band — nothing is overwritten (mirrors optgap --check).
        committed_path = Path(args.out)
        if not committed_path.exists():
            raise CliError(f"no committed report at {committed_path} to check against")
        committed = json.loads(committed_path.read_text())
        fresh = run_bench(quick=args.quick, repeats=args.repeats, progress=print)
        failures = check_bench(fresh, committed)
        for failure in failures:
            print(f"TOLERANCE FAIL: {failure}")
        if failures:
            return 1
        print(f"within tolerance of {committed_path}")
        return 0
    report = write_bench(
        args.out, quick=args.quick, repeats=args.repeats, progress=print
    )
    # The speedups dict holds one family per variant; the fast/reference
    # keys are the ones without a ":variant" suffix.
    worst = min(v for k, v in report["speedups"].items() if ":" not in k)
    print(f"wrote {args.out} (worst fast/reference speedup {worst:.2f}x)")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    import pstats

    from repro.experiments.profiling import profile_decisions

    workload = _load_workload(args)
    policy = parse_policy(args.policy, args.node_limit, not args.requested_runtimes)
    try:
        profiler, ran = profile_decisions(workload, policy, args.decisions)
    except ValueError as exc:
        raise CliError(str(exc)) from None
    print(
        f"profiled {ran} decision point(s) of {policy.name} "
        f"on {workload.name} (requested {args.decisions})"
    )
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats("cumulative")
    stats.print_stats(args.top)
    if args.out:
        stats.dump_stats(args.out)
        print(f"pstats dump written to {args.out} (open with pstats/snakeviz)")
    return 0


def cmd_optgap(args: argparse.Namespace) -> int:
    from repro.experiments.optgap import check_report, run_optgap, write_optgap

    if args.check:
        # Smoke mode: re-measure (quick by default) and judge against the
        # committed report's tolerance block — nothing is overwritten.
        committed_path = Path(args.out)
        if not committed_path.exists():
            raise CliError(f"no committed report at {committed_path} to check against")
        committed = json.loads(committed_path.read_text())
        fresh = run_optgap(
            quick=args.quick, n_instances=args.instances, seed=args.seed,
            progress=print,
        )
        failures = check_report(fresh, committed)
        for failure in failures:
            print(f"TOLERANCE FAIL: {failure}")
        if failures:
            return 1
        print(f"within tolerance of {committed_path}")
        return 0
    report = write_optgap(
        args.out,
        quick=args.quick,
        n_instances=args.instances,
        seed=args.seed,
        progress=print,
    )
    top = report["budgets"][-1]
    fracs = ", ".join(
        f"{r['algorithm']}/{r['heuristic']} {r['frac_optimal']:.0%}"
        for r in report["rows"]
        if r["node_limit"] == top
    )
    print(f"wrote {args.out} (optimal at L={top}: {fracs})")
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.experiments.loadgen import check_loadgen, run_loadgen, write_loadgen

    if args.check:
        # Smoke mode: re-measure and judge against the committed report's
        # tolerance band — nothing is overwritten (mirrors bench --check).
        committed_path = Path(args.out)
        if not committed_path.exists():
            raise CliError(f"no committed report at {committed_path} to check against")
        committed = json.loads(committed_path.read_text())
        fresh = run_loadgen(
            quick=args.quick,
            tenants=args.tenants,
            requests=args.requests,
            seed=args.seed,
            deadline=args.deadline,
        )
        failures = check_loadgen(fresh, committed)
        for failure in failures:
            print(f"TOLERANCE FAIL: {failure}")
        if failures:
            return 1
        print(f"within tolerance of {committed_path}")
        return 0
    report = write_loadgen(
        args.out,
        quick=args.quick,
        tenants=args.tenants,
        requests=args.requests,
        seed=args.seed,
        deadline=args.deadline,
    )
    results = report["results"]
    lat = results["latency_seconds"]
    print(
        f"wrote {args.out} ({results['total_requests']} requests, "
        f"{results['throughput_rps']:,.1f} req/s, "
        f"p50 {lat['p50'] * 1000:.1f}ms, p99 {lat['p99'] * 1000:.1f}ms, "
        f"{results['degraded_responses']} degraded)"
    )
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """JSONL-over-stdio decision service (see ``docs/service.md``).

    One JSON object per input line; one JSON response object per line on
    stdout.  ``{"op": "register", "tenant": ...}`` admits a tenant,
    ``{"op": "decide", ...}`` (a :class:`DecisionRequest` payload) asks
    for decisions, ``{"op": "close"}`` (or EOF) shuts down cleanly.
    """
    import asyncio

    from repro.service.api import DecisionRequest, TenantSLO
    from repro.service.service import (
        AdmissionError,
        DecisionService,
        ServiceConfig,
    )
    from repro.service.tenant import TenantError

    config = ServiceConfig(
        snapshot_root=args.snapshot_dir,
        snapshot_every_decisions=args.snapshot_every,
    )
    service = DecisionService(
        lambda tenant_id: parse_policy(args.policy, args.node_limit, True),
        config=config,
    )

    def emit(payload: dict) -> None:
        print(json.dumps(payload), flush=True)

    async def serve() -> int:
        loop = asyncio.get_running_loop()
        async with service:
            while True:
                line = await loop.run_in_executor(None, sys.stdin.readline)
                if not line:
                    break
                line = line.strip()
                if not line:
                    continue
                try:
                    message = json.loads(line)
                    op = message.get("op", "decide")
                    if op == "close":
                        break
                    if op == "register":
                        slo = (
                            TenantSLO.from_dict(message["slo"])
                            if "slo" in message
                            else None
                        )
                        service.register_tenant(message["tenant"], slo=slo)
                        emit({"tenant": message["tenant"], "status": "registered"})
                        continue
                    if op != "decide":
                        emit({"status": "error", "error": f"unknown op {op!r}"})
                        continue
                    request = DecisionRequest.from_dict(message)
                    response = await service.submit(request)
                    emit(response.to_dict())
                except (AdmissionError, TenantError, KeyError, ValueError) as exc:
                    emit({"status": "error", "error": str(exc)})
        return 0

    return asyncio.run(serve())


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import main as lint_main

    forwarded: list[str] = []
    if args.list_rules:
        forwarded.append("--list-rules")
    if args.format != "text":
        forwarded += ["--format", args.format]
    if args.out:
        forwarded += ["--out", args.out]
    if args.baseline:
        forwarded += ["--baseline", args.baseline]
    if args.no_baseline:
        forwarded.append("--no-baseline")
    if args.write_baseline:
        forwarded += ["--write-baseline", args.write_baseline]
    return lint_main(forwarded + list(args.paths))


def cmd_swf_convert(args: argparse.Namespace) -> int:
    if args.month not in MONTHS:
        raise CliError(
            f"unknown month {args.month!r}; choose from {list(MONTH_ORDER)}"
        )
    workload = generate_month(args.month, seed=args.seed, scale=args.scale)
    write_swf(
        workload,
        args.output,
        comments=[f"synthetic month {args.month}, seed {args.seed}, scale {args.scale}"],
    )
    print(f"wrote {len(workload.jobs)} jobs to {args.output}")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Search-based job scheduling (CLUSTER 2005) reproduction",
    )
    parser.add_argument(
        "--sanitize",
        action="store_true",
        help="enable debug-mode invariant checking for every simulation "
        "(equivalent to REPRO_SANITIZE=1; goes before the subcommand)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("months", help="list the calibrated months").set_defaults(
        func=cmd_months
    )

    run = sub.add_parser("run", help="simulate one policy on one workload")
    run.add_argument("--month", default="2003-07", help="calibrated month name")
    run.add_argument("--swf", default=None, help="SWF trace file instead of a month")
    run.add_argument("--policy", default="dds/lxf/dynB", help="policy spec")
    run.add_argument("--seed", type=int, default=2005)
    run.add_argument("--scale", type=float, default=0.1, help="job-count scale")
    run.add_argument("--load", type=float, default=None, help="target offered load")
    run.add_argument("--node-limit", type=int, default=1000, help="search budget L")
    run.add_argument(
        "--requested-runtimes",
        action="store_true",
        help="plan with R* = R instead of R* = T",
    )
    run.add_argument(
        "--estimates",
        choices=sorted(_ESTIMATES),
        default=None,
        help="synthesize user runtime estimates with this model",
    )
    run.add_argument(
        "--excess-threshold",
        type=float,
        default=None,
        help="also report excessive wait beyond this many hours",
    )
    run.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot the simulation into DIR so an interrupted run can "
        "be finished with --resume DIR",
    )
    run.add_argument(
        "--checkpoint-every",
        type=int,
        default=256,
        metavar="N",
        help="decisions between snapshots (default 256)",
    )
    run.add_argument(
        "--resume",
        default=None,
        metavar="DIR",
        help="resume the newest usable checkpoint under DIR instead of "
        "starting a run (other workload/policy flags are ignored)",
    )
    run.set_defaults(func=cmd_run)

    figure = sub.add_parser("figure", help="regenerate one paper figure")
    figure.add_argument("name", choices=sorted(_FIGURES))
    _add_execution_args(figure)
    figure.set_defaults(func=cmd_figure)

    sub.add_parser("tables", help="regenerate Tables 3 and 4").set_defaults(
        func=cmd_tables
    )

    claims = sub.add_parser(
        "claims", help="evaluate the reproduction certificate"
    )
    claims.add_argument(
        "--months",
        nargs="*",
        default=None,
        help="restrict to these months (default: all ten)",
    )
    _add_execution_args(claims)
    claims.set_defaults(func=cmd_claims)

    gantt = sub.add_parser("gantt", help="render a schedule as a text Gantt chart")
    gantt.add_argument("--month", default="2003-06")
    gantt.add_argument("--policy", default="dds/lxf/dynB")
    gantt.add_argument("--seed", type=int, default=2005)
    gantt.add_argument("--scale", type=float, default=0.02)
    gantt.add_argument("--node-limit", type=int, default=200)
    gantt.add_argument("--width", type=int, default=72)
    gantt.set_defaults(func=cmd_gantt)

    reproduce = sub.add_parser(
        "reproduce", help="regenerate every table, figure and claim to a directory"
    )
    reproduce.add_argument("--out", required=True, help="output directory")
    reproduce.add_argument(
        "--only",
        nargs="*",
        default=None,
        help="subset of artifacts (table3 table4 fig1 ... fig8)",
    )
    reproduce.add_argument(
        "--no-claims", action="store_true", help="skip the claims certificate"
    )
    _add_execution_args(reproduce)
    reproduce.set_defaults(func=cmd_reproduce)

    bench = sub.add_parser(
        "bench", help="time the search hot path and write BENCH_search.json"
    )
    bench.add_argument(
        "--quick",
        action="store_true",
        help="skip L=100K (CI smoke mode; report marks quick=true)",
    )
    bench.add_argument(
        "--repeats", type=int, default=3, help="timing repeats per config (best-of)"
    )
    bench.add_argument(
        "--out", default="BENCH_search.json", help="report path (default: repo root)"
    )
    bench.add_argument(
        "--check",
        action="store_true",
        help="re-measure and verify against the committed --out report's "
        "tolerance band instead of overwriting it (exit 1 on violation)",
    )
    bench.set_defaults(func=cmd_bench)

    profile = sub.add_parser(
        "profile",
        help="cProfile the first N decisions of a run (hot-spot attribution)",
        description="Simulate a policy and profile its first N decision "
        "points: print the top-K cumulative hot spots and optionally dump "
        "pstats for offline analysis — the attribution tool for deciding "
        "what to compile next (docs/performance.md).",
    )
    profile.add_argument("--month", default="2003-07", help="calibrated month name")
    profile.add_argument("--swf", default=None, help="SWF trace file instead of a month")
    profile.add_argument("--policy", default="dds/lxf/dynB", help="policy spec")
    profile.add_argument("--seed", type=int, default=2005)
    profile.add_argument("--scale", type=float, default=0.1, help="job-count scale")
    profile.add_argument("--load", type=float, default=None, help="target offered load")
    profile.add_argument("--node-limit", type=int, default=1000, help="search budget L")
    profile.add_argument(
        "--requested-runtimes",
        action="store_true",
        help="plan with R* = R instead of R* = T",
    )
    profile.add_argument(
        "--estimates",
        choices=sorted(_ESTIMATES),
        default=None,
        help="synthesize user runtime estimates with this model",
    )
    profile.add_argument(
        "--decisions",
        type=int,
        default=50,
        metavar="N",
        help="profile the first N decision points (default 50)",
    )
    profile.add_argument(
        "--top",
        type=int,
        default=20,
        metavar="K",
        help="print the top K functions by cumulative time (default 20)",
    )
    profile.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also dump raw pstats to FILE for offline analysis",
    )
    profile.set_defaults(func=cmd_profile)

    optgap = sub.add_parser(
        "optgap",
        help="measure search gap-to-optimal and write BENCH_optgap.json",
    )
    optgap.add_argument(
        "--quick",
        action="store_true",
        help="fewer instances and budgets (CI smoke mode; report marks "
        "quick=true)",
    )
    optgap.add_argument(
        "--out", default="BENCH_optgap.json", help="report path (default: repo root)"
    )
    optgap.add_argument(
        "--instances",
        type=int,
        default=None,
        metavar="N",
        help="override the instance count (default 24, or 8 with --quick)",
    )
    optgap.add_argument("--seed", type=int, default=2005)
    optgap.add_argument(
        "--check",
        action="store_true",
        help="re-measure and verify against the committed --out report's "
        "tolerance block instead of overwriting it (exit 1 on violation)",
    )
    optgap.set_defaults(func=cmd_optgap)

    loadgen = sub.add_parser(
        "loadgen",
        help="benchmark the decision service and write BENCH_service.json",
        description="Drive the scheduler-as-a-service stack with a "
        "deterministic multi-tenant closed-loop workload and record "
        "throughput and p50/p99 decision latency (docs/service.md).",
    )
    loadgen.add_argument(
        "--quick",
        action="store_true",
        help="fewer tenants/requests (CI smoke mode; report marks quick=true)",
    )
    loadgen.add_argument(
        "--out", default="BENCH_service.json", help="report path (default: repo root)"
    )
    loadgen.add_argument(
        "--tenants", type=int, default=None, help="override the tenant count"
    )
    loadgen.add_argument(
        "--requests", type=int, default=None, help="requests per tenant"
    )
    loadgen.add_argument("--seed", type=int, default=2005)
    loadgen.add_argument(
        "--deadline",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="per-request SLO deadline (default 2.0)",
    )
    loadgen.add_argument(
        "--check",
        action="store_true",
        help="re-measure and verify against the committed --out report's "
        "tolerance band instead of overwriting it (exit 1 on violation)",
    )
    loadgen.set_defaults(func=cmd_loadgen)

    serve = sub.add_parser(
        "serve",
        help="run the decision service over JSONL stdio",
        description="Read JSON requests line by line from stdin and write "
        "one JSON response per line to stdout; see docs/service.md for "
        "the register/decide/close protocol and the SLO semantics.",
    )
    serve.add_argument("--policy", default="dds/lxf/dynB", help="policy spec")
    serve.add_argument("--node-limit", type=int, default=1000, help="search budget L")
    serve.add_argument(
        "--snapshot-dir",
        default=None,
        metavar="DIR",
        help="persist tenant snapshots under DIR (enables crash recovery)",
    )
    serve.add_argument(
        "--snapshot-every",
        type=int,
        default=64,
        metavar="N",
        help="snapshot a tenant every N decisions (default 64)",
    )
    serve.set_defaults(func=cmd_serve)

    lint = sub.add_parser(
        "lint",
        help="run simlint (determinism/invariant static analysis)",
        description="Thin wrapper over `python -m repro.lint`; flags pass "
        "through unchanged (see docs/linting.md).",
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"], help="files/directories (default: src)"
    )
    lint.add_argument("--list-rules", action="store_true")
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint.add_argument("--out", default=None, metavar="FILE")
    lint.add_argument("--baseline", default=None, metavar="FILE")
    lint.add_argument("--no-baseline", action="store_true")
    lint.add_argument("--write-baseline", default=None, metavar="FILE")
    lint.set_defaults(func=cmd_lint)

    convert = sub.add_parser("swf-convert", help="export a synthetic month as SWF")
    convert.add_argument("--month", required=True)
    convert.add_argument("--output", required=True)
    convert.add_argument("--seed", type=int, default=2005)
    convert.add_argument("--scale", type=float, default=1.0)
    convert.set_defaults(func=cmd_swf_convert)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.sanitize:
        from repro.util.sanitize import set_sanitize

        set_sanitize(True)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
