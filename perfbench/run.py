"""Repository benchmark: four serving mixes through ``repro.serve.ServingEngine``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload chat-small --seed 1 --seconds 15 --trace 0

Workloads (see ``perfbench/workloads.py`` and ``BENCHMARK.json``):
``chat-small`` (open loop on the engine's step clock), ``rag-prefix-small``,
``mcbp-llama-mini`` and ``spec-codegen-tiny`` (offline bursts).
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run and writes its spans to ``perfbench/out/`` as Chrome
trace-event JSON.

This parent process imports nothing heavy: it runs ``perfbench/bench.py`` in
a child process whose environment pins every BLAS thread pool to one thread,
so each workload gets its own process, its own ``peak_rss_mb`` and the same
threading on every machine.  Options this parent does not know
(``--report``, ``--extra-act``) go to the child unchanged.  The child's exit
code is passed through; a child still running after ``CHILD_TIMEOUT_S`` is
killed and the run fails.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = parser.parse_known_args()

    here = Path(__file__).resolve().parent
    env = dict(os.environ, **{var: "1" for var in BLAS_THREAD_VARS})
    cmd = [
        sys.executable,
        str(here / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        *extra,
    ]
    try:
        return subprocess.run(cmd, env=env, cwd=here.parent, timeout=CHILD_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
