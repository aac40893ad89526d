"""The repository benchmark: one workload per call, one JSON result line.

    python3 perfbench/run.py --workload paper-corpus --seed 0 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with no tracing; ``--trace 1`` is the separate traced run that measures
its per-layer metrics.  Every output is checked against an independent
reference; the last stdout line is the result object, and the exit code
is nonzero when any check failed.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import sys

from common import BenchError, bootstrap, load_benchmark_spec

WORKLOADS = ("paper-corpus", "generated-jobs2", "serve-mixed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: per workload)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: one set-up sample, run in a fresh interpreter
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bootstrap()
    from inputs import seed_or_default

    seed = seed_or_default(args.workload, args.seed)
    if args.probe_setup:
        from workloads import probe_setup

        probe_setup(args.workload, seed)
        return 0

    spec = load_benchmark_spec()
    if args.trace:
        from traced import run_trace

        result = run_trace(args.workload, seed, args.seconds)
        names = [m["name"] for m in spec["per_layer"]]
    elif args.workload == "serve-mixed":
        from workloads import run_serve

        result = run_serve(seed, args.seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        from workloads import run_corpus

        result = run_corpus(args.workload, seed, args.seconds)
        names = [m["name"] for m in spec["end_to_end"]]
    return result.emit(args.workload, names)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        sys.exit(2)
