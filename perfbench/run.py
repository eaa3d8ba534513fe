"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload batch-deep --seed 1 --seconds 30 --trace 0

Set-up first rebuilds the compiled search kernel from this checkout's
``src/repro/core/_ckernel.c`` (``python setup.py build_ext --inplace
--force``, after deleting any prebuilt copy), so a kernel built from other
sources is never measured.  A run whose kernel is not importable fails.
``REPRO_*`` environment variables (fault plans, the sanitizer, the
pure-python opt-out) are cleared first: the program receives only the
generated jobs and requests.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` runs four passes (untraced, traced, traced, untraced),
reports the per-layer metrics, and writes the spans to
``.perfbench-out/``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it is a JSON
report with the platform, the kernel build, sample counts and gate
tallies.  Exit status: 0 when every correctness gate passed, 1 when a gate
failed or the kernel is missing, 2 on any other error.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
WORKLOADS = ("batch-deep", "service-closed")

#: End-to-end metrics every workload reports, with their units.
END_TO_END_UNITS: dict[str, str] = {
    "setup_s": "s",
    "decisions_per_s": "1/s",
    "avg_bsld": "ratio",
    "avg_wait_h": "h",
    "max_wait_h": "h",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "ok_frac": "fraction",
    "undegraded_frac": "fraction",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is reported."""


def build_kernel() -> float:
    """Rebuild ``repro.core._ckernel`` in place; returns the build time."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src/repro/core/_ckernel.c").is_file():
        raise BenchError(f"no repro sources (setup.py, src/repro) under {ROOT}")
    for stale in (ROOT / "src/repro/core").glob("_ckernel*.so"):
        stale.unlink()
    t0 = time.perf_counter()
    build = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace", "--force"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    if build.returncode != 0:
        raise BenchError(f"kernel build failed:\n{build.stdout}\n{build.stderr}")
    return time.perf_counter() - t0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    build_s = build_kernel()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import ckernel
    from repro.util.workerpool import available_cores

    if not ckernel.have_compiled():
        print("compiled kernel is not importable after the build", file=sys.stderr)
        return 1
    kernel_file = Path(ckernel._impl.__file__).resolve()
    if ROOT / "src" not in kernel_file.parents:
        raise BenchError(f"imported kernel {kernel_file} is not this checkout's")

    if args.workload == "batch-deep":
        import batch_deep

        result = batch_deep.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)
    else:
        import service_load

        result = service_load.run(args.seed, args.seconds, bool(args.trace), OUT_DIR)

    if args.trace:
        from spans import PER_LAYER_UNITS as units
    else:
        units = END_TO_END_UNITS
    metrics = {
        name: {"value": float(result.metrics[name]), "unit": unit} for name, unit in units.items()
    }
    correct = not result.gate_failures
    for failure in result.gate_failures:
        print(f"GATE FAILED: {failure}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{args.workload:>14}  {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "compiled_available": ckernel.have_compiled(),
        "kernel_build_s": build_s,
        "nproc": available_cores(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        **result.report,
    }
    print(json.dumps({"report": report}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
    except Exception:
        traceback.print_exc()
        sys.exit(2)
