"""Fast self-test of the benchmark at small N (about 10 s on one core).

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/selftest.py

For every workload at N/4 it traces the same config twice and checks that
the dense-kernel counts, span counts and iteration counts repeat exactly,
that the traced outputs pass the workload's checks, and that leaving the
tracer restores every binding it replaced.  It also checks that the metric
names and units in BENCHMARK.json are the ones the benchmark reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import scipy.linalg

import bench
from workloads import WORKLOADS
from yamstab import cli, minimize

SEED = 7


def check_counts_repeat(wl, tmp: str) -> list[str]:
    errors = []
    prefix = os.path.join(tmp, wl.name)
    signatures = []
    for _ in range(2):
        tracer, run = bench.traced_experiment(wl, SEED, prefix, N=wl.N // 4)
        errors += [f"{wl.name}: {e}" for e in bench.judge(wl, run)[0]]
        signatures.append(bench.repeat_signature(tracer))
    if signatures[0] != signatures[1]:
        errors.append(f"{wl.name}: counts differ between two traced runs")
    if not signatures[0]["linalg"] or not signatures[0]["minimize_iters"]:
        errors.append(f"{wl.name}: trace recorded no dense kernels or iterations")
    return errors


def check_restored() -> list[str]:
    before = (cli.main, cli.RUNNERS["lsred"], minimize.assemble_operators, scipy.linalg.solve)
    with bench.Tracer().installed():
        inside = (cli.main, cli.RUNNERS["lsred"], minimize.assemble_operators, scipy.linalg.solve)
    after = (cli.main, cli.RUNNERS["lsred"], minimize.assemble_operators, scipy.linalg.solve)
    errors = []
    if any(a is b for a, b in zip(before, inside)):
        errors.append("tracer left a binding unwrapped")
    if any(a is not b for a, b in zip(before, after)):
        errors.append("tracer did not restore every binding")
    return errors


def check_benchmark_json(path: str) -> list[str]:
    with open(path) as fh:
        spec = json.load(fh)
    errors = []
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if declared != bench.END_TO_END:
        errors.append(f"end_to_end in {path} differs from bench.END_TO_END")
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != bench.PER_LAYER:
        errors.append(f"per_layer in {path} differs from bench.PER_LAYER")
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        errors.append(f"workloads in {path} differ from workloads.WORKLOADS")
    return errors


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    errors = check_restored()
    errors += check_benchmark_json(os.path.join(here, "..", "BENCHMARK.json"))
    tmp = os.path.join(bench.OUT_ROOT, "selftest")
    for wl in WORKLOADS.values():
        errors += check_counts_repeat(wl, tmp)
    shutil.rmtree(tmp, ignore_errors=True)
    for err in errors:
        print("FAIL", err)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
