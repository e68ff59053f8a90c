"""Benchmark of the gbst package: four closed-loop workloads, one BLAS thread.

Run from the root of a checkout (the package is imported from ``src/``):

    python3 perfbench/run.py --workload desk_pretrain --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced items and reports the per-layer
metrics, with the tracing overhead. ``--workload all`` runs every workload
in one process and then prints the paper's speed claim as measured ratios.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workload_names, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")
    return args


def report(result) -> list[str]:
    w = result.workload
    lines = []
    names = result.names()
    width = max(len(n) for n in names.values())
    for metric, value in result.metrics.items():
        lines.append(f"  {names[metric]:<{width}}  {value:.6g} {result.units[metric]}")
        if metric == "iter_ms_tail":
            kind = "examples" if w.decode else "steps"
            lines[-1] += f"  (p{result.notes['tail_percentile']:.1f} of {result.notes['samples']} {kind})"
        elif metric == "setup_s":
            lines[-1] += (f"  (imports {result.notes['import_s']:.4f} s + corpus and model "
                          f"{result.notes['build_s']:.4f} s, medians)")
        elif metric == "nats_per_byte":
            lines[-1] += "  (first item, model at init)"
    rate = result.failed / result.attempted
    lines.append(f"  {'error_rate':<{width}}  {rate:.6g}  ({result.failed} of {result.attempted} failed)")
    lines.extend(f"  problem: {p}" for p in result.notes["problems"])
    return lines


def main(argv=None) -> int:
    # pin BLAS and OpenMP before numpy is imported anywhere in this process
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isfile(os.path.join(SRC, "gbst", "__init__.py")):
        print(f"error: no gbst package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402 -- needs the pinned threads and src/ on the path

    args = parse_args(argv, workloads.WORKLOADS)
    print("env " + json.dumps(workloads.environment(), sort_keys=True))
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = workloads.run(workloads.WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        results[name] = result
        print(f"{name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        print("\n".join(report(result)), flush=True)
    if args.workload == "all" and not args.trace:
        print("\n".join(workloads.paper_claim(results)))

    def metrics(result, prefix=""):
        return {prefix + m: {"value": v, "unit": result.units[m]} for m, v in result.metrics.items()}

    if len(results) == 1:
        (result,) = results.values()
        merged = metrics(result)
    else:
        merged = {k: v for name, r in results.items() for k, v in metrics(r, name + ".").items()}
    print(json.dumps({
        "correct": all(r.correct for r in results.values()),
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": merged,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
