"""Benchmark entry point: run one workload in its own single-BLAS-thread process.

    python3 perfbench/run.py --workload bif_lsred --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout.  The workload process imports the
package from `src/`, so nothing needs installing or building.  Its last line
of output is the JSON result; the lines before it name every metric with its
unit and record the environment.

Each workload process runs with one BLAS thread.  On a 2-core machine one
thread was faster and steadier than two (bif_lsred at N=256: 0.89-0.94 s on
one, 1.05-1.33 s on two); outputs are byte-identical across processes only at
a fixed thread count (at N=512 the fitted exponent was 3.9988 on one thread
and 3.9510 on two); and the default-tolerance N=512 bifurcation run converges
on two threads but not on one, so the thread count must be pinned for the
convergence figures to mean anything.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TIMEOUT_S = 175

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "yamstab", "__init__.py")):
        print("run.py: no src/yamstab here; run from the root of a yamstab checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "bench.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, env=env, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: workload process killed after {TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
