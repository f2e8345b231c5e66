"""Benchmark of the twins forecaster: one workload per process.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload {train-gate,train-wide,infer}] \
        --seed N --seconds S --trace {0,1}

Without ``--workload`` the three workloads run one after the other, each in
a fresh process.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (see BENCHMARK.json for both lists). Human-readable
lines come first; the last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``. Each run
also writes ``.perfbench_out/<workload>.seed<N>.trace<T>.json`` with the
machine information, and a traced run writes its spans next to it as CSV.

The program is imported from ``src/`` of the checkout; without it the run
exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("train-gate", "train-wide", "infer")

# One BLAS thread: the runs share a small machine, and a training step takes
# the same time with two (only batched scoring gains from them).
BLAS_THREADS = 1


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="default: all, each in a fresh process")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        status = 0
        for name in WORKLOAD_NAMES:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)])
            status = status or proc.returncode
        return status
    threads = str(min(BLAS_THREADS, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    package = os.path.join(SRC, "twins")
    if not os.path.isfile(os.path.join(package, "__init__.py")):
        print(f"perfbench: no twins package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    t0 = time.perf_counter()
    import twins.training  # noqa: F401  (numpy and scipy come with it)
    import_s = time.perf_counter() - t0
    import twins
    if os.path.dirname(os.path.abspath(twins.__file__)) != package:
        print(f"perfbench: imported twins from {twins.__file__}, "
              f"not from {package}", file=sys.stderr)
        return 2

    import workloads
    result = workloads.run(args.workload, args.seed, args.seconds,
                           bool(args.trace), import_s, OUT_DIR)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
