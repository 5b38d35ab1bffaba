"""Run one benchmark workload and print its metrics as one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload scan --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the
first pass of ops twice, untraced and traced, checks that the two agree
and that the trace reconciles with the engine's I/O counters, and
reports the per-layer metrics.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".perfbench")


def units_of(section: str, metrics: dict) -> dict[str, str]:
    """Units from BENCHMARK.json, which must name exactly these metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        units = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    if set(units) != set(metrics):
        sys.exit(f"perfbench: BENCHMARK.json {section} and the measured metrics differ: "
                 f"{sorted(set(units) ^ set(metrics))}")
    return units


def import_engine() -> None:
    """Put the checkout's engine on the path, pinned to the NumPy backend."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        sys.exit(f"perfbench: no engine sources at {src}; run from a full checkout")
    os.environ["REPRO_KERNEL_BACKEND"] = "numpy"
    sys.path[:0] = [src, ROOT]
    from repro import kernels

    if kernels.get_backend().name != "numpy":
        sys.exit("perfbench: the NumPy kernel backend is not available")


def guards() -> None:
    """Refuse to time debug-mode or fault-injected runs."""
    from benchmarks import _support

    _support.ensure_checks_disabled()
    _support.ensure_fault_free()


def provenance(args: argparse.Namespace) -> dict:
    import numpy

    from repro import kernels

    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": kernels.get_backend().name,
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def measure(workload, seconds: float) -> tuple[dict, dict, "Phase"]:
    """Reference-host metrics, the same metrics unscaled, and the records."""
    from harness import end_to_end, host_scale, run_phase

    world, phase = run_phase(workload, seconds=seconds, segments=workload.setups)
    phase.probe = workload.probe(world)
    return end_to_end(phase, host_scale(phase)), end_to_end(phase), phase


def traced(workload_cls, args) -> tuple[dict, "Phase", "Tracer"]:
    import gc

    from harness import compare_runs, per_layer, run_phase
    from tracing import Tracer

    reference_workload = workload_cls(args.seed, args.size, args.seconds)
    with Tracer(full=False) as registry:
        world, reference = run_phase(reference_workload, seconds=None, segments=1,
                                     tracer=registry)
    del world
    gc.collect()
    workload = workload_cls(args.seed, args.size, args.seconds)
    with Tracer() as tracer:
        world, phase = run_phase(workload, seconds=None, segments=1, tracer=tracer)
    phase.probe = workload.probe(world)
    compare_runs(phase, reference)
    metrics = per_layer(tracer, tracer.phases["setup"], tracer.phases["ops"], phase,
                        reference, workload)
    return metrics, phase, tracer


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "join", "ingest"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long smoke size (tests only)")
    args = parser.parse_args(argv)

    import_engine()
    guards()
    from workloads import WORKLOADS

    meta = provenance(args)
    workload_cls = WORKLOADS[args.workload]
    if args.trace:
        metrics, phase, tracer = traced(workload_cls, args)
        units = units_of("per_layer", metrics)
    else:
        metrics, unscaled, phase = measure(
            workload_cls(args.seed, args.size, args.seconds), args.seconds)
        units = units_of("end_to_end", metrics)
    guards()  # re-checked before anything is reported

    from harness import samples

    first_pass = phase.records[: phase.pass_len]
    failed = sum(not r.ok for r in phase.records)
    probe = phase.probe
    probe_ok = probe.error is None or probe.error.startswith("ValueError")
    record = {
        **meta,
        **samples(phase),
        "failures_by_type": dict(phase.failures),
        "first_pass_failures": sum(not r.ok for r in first_pass),
        "probe": {"description": probe.description, "oracle_rows": probe.oracle_rows,
                  "error": probe.error},
        "metrics": metrics,
    }
    if not args.trace:
        record["unscaled_metrics"] = unscaled
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, "trajectory.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record) + "\n")
    if args.trace:
        tracer.dump(os.path.join(RESULTS, f"trace-{args.workload}-seed{args.seed}.json"), meta)
    print(json.dumps({k: v for k, v in record.items() if k != "metrics"}))
    print(json.dumps({
        "correct": failed == 0 and probe_ok,
        "attempted": len(phase.records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
