"""Workload process of the benchmark: measures one workload and prints JSON.

Started by `run.py` with one BLAS thread and `src` on the import path; see
README.md for the metrics.  With `--trace 0` it runs experiments closed-loop
(one at a time, the next config only after the previous one's outputs are
written) for `--seconds` and reports the end-to-end metrics.  With
`--trace 1` it runs the same loop, then traces the first config twice, sweeps
N over {N/4, N/2, N} and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

from yamstab import cli, disc, model

from tracer import Tracer
from workloads import WORKLOADS, Workload, check

OUT_ROOT = ".bench_out"
SETUP_REPS = 3

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "y_rel_err_digits": "digits"}

MODULES = ("model", "disc", "energy", "minimize", "spectrum", "lsred",
           "stability", "cli", "linalg")


# in report order
PER_LAYER = {"disc.assemble_s": "s",
             "energy.s": "s", "energy.quotient_calls": "count",
             "energy.normalize_calls": "count", "energy.gradient_calls": "count",
             "energy.hessian_calls": "count",
             "minimize.s": "s", "minimize.iters": "count",
             "minimize.qr_calls": "count", "minimize.solve_calls": "count",
             "minimize.cho_solve_calls": "count", "minimize.cho_factor_calls": "count",
             "minimize.dense_n3": "n3", "minimize.starts_converged_frac": "frac",
             "minimize.grad_norm": "dual_norm", "minimize.default_tol_converged": "count",
             "minimize.default_tol_starts_converged_frac": "frac",
             "spectrum.s": "s", "spectrum.qr_calls": "count", "spectrum.eigh_calls": "count",
             "lsred.s": "s", "lsred.chart_build_s": "s", "lsred.samples": "count",
             "lsred.newton_iters": "count", "lsred.solve_calls": "count",
             "lsred.dense_n3": "n3", "lsred.chart_error_frac": "frac",
             "lsred.max_residual": "norm",
             "stability.sample_s": "s", "stability.coercivity_s": "s",
             "stability.family_s": "s", "stability.cho_factor_calls": "count",
             "stability.skipped_frac": "frac",
             "cli.write_s": "s",
             "linalg.s": "s", "linalg.dense_n3": "n3",
             "trace.overhead_s": "s", "trace.spans": "count",
             **{f"{mod}.self_s": "s" for mod in MODULES},
             **{f"{mod}.n_exp": "exp" for mod in MODULES}}


# ---------------------------------------------------------------------------
# environment

def blas_runtime() -> list[dict]:
    """Config string and thread count of each OpenBLAS loaded in this process."""
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    info["config"] = get_config().decode()
                    info["threads"] = int(get_threads())
        out.append(info)
    return out


def environment() -> dict:
    blas = {"numpy": np.show_config(mode="dicts")["Build Dependencies"]["blas"],
            "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_build": {k: f"{v.get('name')} {v.get('version')}" for k, v in blas.items()},
        "blas_runtime": blas_runtime(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


# ---------------------------------------------------------------------------
# one experiment through the CLI

def run_experiment(raw: dict) -> dict:
    """Write the config, run the CLI on it, and read back its outputs."""
    cfg_path = raw["output"] + ".config.json"
    os.makedirs(os.path.dirname(cfg_path), exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(raw, fh, indent=2)
    log = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main([raw["experiment"], "--config", cfg_path])
        except Exception:  # an uncaught program error fails this experiment only
            code = None
            traceback.print_exc()
    wall = time.perf_counter() - start
    out = {"wall": wall, "code": code, "log": log.getvalue().strip(), "bytes": None}
    if code == 0:
        with open(raw["output"] + ".json", "rb") as fh:
            report = fh.read()
        with open(raw["output"] + ".csv", "rb") as fh:
            out["bytes"] = report + fh.read()
        out["results"] = json.loads(report)["results"]
    return out


def judge(wl: Workload, run: dict) -> tuple[list[str], dict]:
    """Failed checks and accuracy figures of one experiment."""
    if run["code"] != 0:
        return [f"exit {run['code']}: {run['log'].splitlines()[-1:]}"], {}
    return check(wl, run["results"])


# ---------------------------------------------------------------------------
# measurements

def setup_once(wl: Workload) -> float:
    """Seconds for make_model + build_grid + assemble_operators at the workload's N."""
    start = time.perf_counter()
    m = model.make_model(wl.kind, **wl.params)
    disc.assemble_operators(m, disc.build_grid(m, wl.N))
    return time.perf_counter() - start


def closed_loop(wl: Workload, seeds, seconds: float, out_dir: str) -> dict:
    """Run the workload's configs round-robin until `seconds` have passed.

    The run draws `wl.configs` config seeds and runs one experiment at a time,
    the next only after the previous one's outputs are written, in rounds over
    all configs.  There are at least two rounds, so every config runs at
    least twice, and later rounds start only while, at the last round's pace,
    they would reach their midpoint before the deadline.  Each repeat must be
    byte-identical to the config's first run.  Each run is timed from config
    to outputs written.
    Set-up is timed SETUP_REPS times before the loop and after every
    experiment, so that its median samples the same stretch of machine time.
    """
    config_seeds = [next(seeds) for _ in range(wl.configs)]
    walls = [[] for _ in config_seeds]
    first_bytes, accuracy, failures = [], [], []
    setups = [setup_once(wl) for _ in range(SETUP_REPS)]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while True:
        round_start = time.perf_counter()
        for i, seed in enumerate(config_seeds):
            run = run_experiment(wl.config(seed, os.path.join(out_dir, f"c{i}")))
            walls[i].append(run["wall"])
            setups += [setup_once(wl) for _ in range(SETUP_REPS)]
            errors, acc = judge(wl, run)
            if rounds == 0:
                first_bytes.append(run["bytes"])
                if not errors:
                    accuracy.append(acc)
            elif run["bytes"] != first_bytes[i]:
                errors.append("rerun of a config is not byte-identical")
            if errors:
                failures.append({"seed": seed, "errors": errors})
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now + (now - round_start) / 2 > deadline:
            break
    return {"walls": walls, "rounds": rounds, "setups": setups, "accuracy": accuracy,
            "failures": failures, "first_seed": config_seeds[0],
            "first_bytes": first_bytes[0]}


def seed_stream(seed: int):
    rng = random.Random(seed)
    while True:
        yield rng.randrange(2**31)


def trimmed_mean(values: list[float]) -> float:
    """Mean without the smallest and the largest value (the median of three)."""
    values = sorted(values)
    return statistics.fmean(values[1:-1] if len(values) > 2 else values)


def end_to_end(loop: dict) -> tuple[dict, dict]:
    """End-to-end metrics of the closed loop, and the figures printed beside them."""
    walls = loop["walls"]
    every = [w for ws in walls for w in ws]
    acc = {key: statistics.median(a[key] for a in loop["accuracy"])
           for key in ("y_rel_err", "exponent_err", "lambda1_rel_err")
           if loop["accuracy"] and key in loop["accuracy"][0]}
    # digits of agreement with the closed form; errors below one ulp count as one ulp
    y_err = max(acc.get("y_rel_err", 1.0), np.finfo(float).eps)
    metrics = {
        "wall_s": trimmed_mean([statistics.median(ws) for ws in walls]),
        "setup_s": statistics.median(loop["setups"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "y_rel_err_digits": -math.log10(y_err),
    }
    detail = {"wall_median_s": statistics.median(every), "experiments": len(every),
              "configs": len(walls), "rounds": loop["rounds"],
              "setup_reps": len(loop["setups"]), **acc}
    return metrics, detail


def traced_experiment(wl: Workload, seed: int, out: str, **overrides):
    tracer = Tracer()
    with tracer.installed():
        run = run_experiment(wl.config(seed, out, **overrides))
    return tracer, run


def fraction(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced experiment."""
    inclusive, self_s = tracer.module_times()
    lin = tracer.linalg
    reports = tracer.results["minimize.minimize_energy"]
    samples = tracer.results["lsred.reduced_energy"]
    batches = tracer.results["stability.sample_deficit_distance"]
    kept = sum(len(b.records) for b in batches)
    skipped = sum(b.n_skipped for b in batches)
    out = {
        "disc.assemble_s": tracer.span_seconds("disc.assemble_operators"),
        "energy.quotient_calls": tracer.calls("energy.yamabe_quotient"),
        "energy.normalize_calls": tracer.calls("energy.normalize"),
        "energy.gradient_calls": tracer.calls("energy.gradient") + tracer.calls("energy.raw_gradient"),
        "energy.hessian_calls": tracer.calls("energy.hessian_form") + tracer.calls("energy.raw_hessian"),
        "minimize.iters": sum(r.iterations for r in reports),
        "minimize.starts_converged_frac": fraction(sum(r.converged for r in reports), len(reports)),
        "minimize.grad_norm": min((r.grad_norm for r in reports), default=0.0),
        "spectrum.eigh_calls": lin["spectrum"]["eigh_calls"],
        "lsred.chart_build_s": tracer.span_seconds("lsred.ReductionChart"),
        "lsred.samples": len(samples),
        "lsred.newton_iters": sum(s.newton_iters for s in samples),
        "lsred.chart_error_frac": fraction(
            tracer.calls("lsred.solve_correction_full", "ChartError"),
            tracer.calls("lsred.solve_correction_full")),
        "lsred.max_residual": max((s.residual for s in samples), default=0.0),
        "stability.sample_s": tracer.span_seconds("stability.sample_deficit_distance"),
        "stability.coercivity_s": tracer.span_seconds("stability.coercivity_data"),
        "stability.family_s": tracer.span_seconds("stability.single_family"),
        "stability.cho_factor_calls": lin["stability"]["cho_factor_calls"],
        "stability.skipped_frac": fraction(skipped, kept + skipped),
        "cli.write_s": tracer.span_seconds("cli.write_outputs"),
        "linalg.dense_n3": sum(c["dense_n3"] for c in lin.values()),
        "trace.spans": len(tracer.spans),
    }
    for mod in ("energy", "minimize", "spectrum", "lsred", "linalg"):
        out[f"{mod}.s"] = inclusive.get(mod, 0.0)
    for kernel in ("qr", "solve", "cho_solve", "cho_factor"):
        out[f"minimize.{kernel}_calls"] = lin["minimize"][f"{kernel}_calls"]
    out["minimize.dense_n3"] = lin["minimize"]["dense_n3"]
    out["spectrum.qr_calls"] = lin["spectrum"]["qr_calls"]
    out["lsred.solve_calls"] = lin["lsred"]["solve_calls"]
    out["lsred.dense_n3"] = lin["lsred"]["dense_n3"]
    for mod in MODULES:
        out[f"{mod}.self_s"] = self_s.get(mod, 0.0)
    return out


def repeat_signature(tracer: Tracer) -> dict:
    """Counts that must repeat exactly between two traced runs of one config."""
    sig = tracer.signature()
    sig["minimize_iters"] = [r.iterations for r in tracer.results["minimize.minimize_energy"]]
    sig["lsred_newton_iters"] = [s.newton_iters for s in tracer.results["lsred.reduced_energy"]]
    return sig


def scaling_exponents(self_by_n: dict) -> dict:
    """Slope of log self time against log N per module; 0 where a module idles."""
    sizes = sorted(self_by_n)
    out = {}
    for mod in MODULES:
        times = [self_by_n[n].get(mod, 0.0) for n in sizes]
        if min(times) > 0:
            out[f"{mod}.n_exp"] = float(np.polyfit(np.log(sizes), np.log(times), 1)[0])
        else:
            out[f"{mod}.n_exp"] = 0.0
    return out


def traced_report(wl: Workload, loop: dict, out_dir: str) -> tuple[dict, list[str]]:
    """Per-layer metrics, with the checks that the trace itself must pass."""
    errors = []
    seed = loop["first_seed"]
    prefix = os.path.join(out_dir, "c0")   # same config, so same output bytes
    untraced, traces = [], []
    for _ in range(2):   # alternate, so both sides see the same machine load
        untraced.append(run_experiment(wl.config(seed, prefix))["wall"])
        traces.append(traced_experiment(wl, seed, prefix))
    for tracer, run in traces:
        errs, _ = judge(wl, run)
        errors += [f"traced run: {e}" for e in errs]
        if run["bytes"] is not None and run["bytes"] != loop["first_bytes"]:
            errors.append("traced outputs differ from untraced outputs")
    if repeat_signature(traces[0][0]) != repeat_signature(traces[1][0]):
        errors.append("linalg or iteration counts differ between two traced runs")
    tracer = traces[0][0]
    metrics = per_layer(tracer)
    metrics["trace.overhead_s"] = (statistics.fmean(run["wall"] for _, run in traces)
                                   - statistics.fmean(untraced))

    self_by_n = {wl.N: tracer.module_times()[1]}
    for n in (wl.N // 4, wl.N // 2):
        small, run = traced_experiment(wl, seed, os.path.join(out_dir, f"n{n}"), N=n)
        errors += [f"sweep N={n}: {e}" for e in judge(wl, run)[0]]
        self_by_n[n] = small.module_times()[1]
    metrics.update(scaling_exponents(self_by_n))

    # roadmap item 3: how this workload's first config fares at the default
    # grad_tol, and whether the N=512 bifurcation run converges there at all
    own, own_run = traced_experiment(wl, seed, os.path.join(out_dir, "default_tol"),
                                     tolerances={})
    reports = own.results["minimize.minimize_energy"]
    metrics["minimize.default_tol_starts_converged_frac"] = fraction(
        sum(r.converged for r in reports), len(reports))
    if wl.name != "bif_lsred":
        bif = WORKLOADS["bif_lsred"]
        own_run = run_experiment(bif.config(seed, os.path.join(out_dir, "bif_default_tol"),
                                            tolerances={}))
    metrics["minimize.default_tol_converged"] = int(own_run["code"] == 0)
    tracer.write(os.path.join(OUT_ROOT, f"spans_{wl.name}_seed{seed}.jsonl"))
    return metrics, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    out_dir = os.path.join(OUT_ROOT, f"{wl.name}_seed{args.seed}_trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    seeds = seed_stream(args.seed)
    # warm lazy imports and first-call set-up outside the timed region
    run_experiment(wl.config(next(seeds), os.path.join(out_dir, "warm"), N=wl.N // 4))
    loop = closed_loop(wl, seeds, args.seconds, out_dir)
    e2e, detail = end_to_end(loop)
    attempted = sum(len(ws) for ws in loop["walls"])
    failed = len(loop["failures"])
    errors = [f"seed {f['seed']}: {e}" for f in loop["failures"] for e in f["errors"]]

    if args.trace:
        metrics, trace_errors = traced_report(wl, loop, out_dir)
        errors += trace_errors
        units = PER_LAYER
    else:
        metrics, units = e2e, END_TO_END

    env = environment()
    result = {"correct": not errors, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                          for name in units}}
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": env, "end_to_end": e2e,
              "detail": detail, "walls": loop["walls"], "fail_frac": failed / attempted,
              "errors": errors,
              "result": result}
    with open(os.path.join(OUT_ROOT, f"result_{wl.name}_seed{args.seed}_trace{args.trace}.json"),
              "w") as fh:
        json.dump(record, fh, indent=2)
    shutil.rmtree(out_dir, ignore_errors=True)

    print_summary(record)
    print(json.dumps(result))
    return 0


def print_summary(record: dict):
    env = record["environment"]
    blas = "; ".join(f"{b['library']}: {b.get('config', '?')}, threads={b.get('threads', '?')}"
                     for b in env["blas_runtime"])
    print(f"env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}; {blas}")
    e2e, detail = record["end_to_end"], record["detail"]
    print(f"workload {record['workload']} seed {record['seed']}: "
          f"{detail['experiments']} experiments in a closed loop, "
          f"{detail['rounds']} rounds over {detail['configs']} configs")
    rows = [("wall_s", e2e["wall_s"], "s",
             f"trimmed mean over configs of the median repeat; median of all "
             f"{detail['wall_median_s']:.4f} s"),
            ("setup_s", e2e["setup_s"], "s", f"median of {detail['setup_reps']}"),
            ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "workload process"),
            ("fail_frac", record["fail_frac"], "frac",
             f"{record['result']['failed']}/{record['result']['attempted']}")]
    for key in ("exponent_err", "y_rel_err", "lambda1_rel_err"):
        value = detail.get(key)
        rows.append((key, value, "1" if key == "exponent_err" else "rel",
                     "median over passing experiments" if value is not None
                     else "not defined on this workload"))
    rows.append(("y_rel_err_digits", e2e["y_rel_err_digits"], "digits", "-log10 y_rel_err"))
    for name, value, unit, note in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:18s} {shown:>12s} {unit:6s} {note}")
    if record["trace"]:
        for name, m in record["result"]["metrics"].items():
            print(f"  {name:34s} {m['value']:14.6g} {m['unit']}")
    for err in record["errors"]:
        print(f"  FAILED {err}")


if __name__ == "__main__":
    sys.exit(main())
