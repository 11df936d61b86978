"""Solver benchmark: times the public blocktoeplitz API on one workload.

    python3 perfbench/run.py --workload warm-stream --seed 1 --seconds 10 --trace 0

Run from the repository root; the package is imported from ./src. The
last line of stdout is the result,
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics of BENCHMARK.json under --trace 0 and the per-layer metrics
under --trace 1. The line before it records the inputs, versions and
thread settings; both, plus the spans of a traced run, are also written
to perfbench/out/. --smoke runs the same code at tiny sizes, for the
benchmark's own tests (python3 -m pytest perfbench/tests).
"""

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("warm-stream", "cold-fit")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads():
    """Run BLAS/OpenMP on one thread, which is at most nproc; must run
    before numpy is imported. The solver's BLAS calls are on d x d
    blocks, so more threads add nothing but waits on the slowest core
    of a shared host."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    nproc = pin_threads()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    result, detail, spans = harness.run(args.workload, args.seed,
                                        args.seconds, bool(args.trace),
                                        args.smoke)
    detail["nproc"] = nproc
    detail["threads"] = {var: os.environ[var] for var in THREAD_VARS}
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(out / f"{tag}.json", "w") as fh:
        json.dump({"result": result, "detail": detail, "spans": spans}, fh)
    print(json.dumps(detail))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
