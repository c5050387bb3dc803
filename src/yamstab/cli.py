"""Config-driven experiment runner with deterministic machine-readable output.

Each run reads one JSON config, dispatches to the named experiment, and
writes a JSON report plus a CSV table under the output prefix.  Identical
configs (seed included) produce byte-identical files; writes go through a
temporary file and an atomic rename so partial outputs never appear.

Exit codes: 0 success, 2 config error, 3 convergence failure, an
untrustworthy kernel threshold, eigenpairs that could not be certified or a
second variation that is not positive off its kernel, 4 fit rejection.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .model import MODEL_KINDS, conformal_deform, make_model
from .disc import MIN_NODES, assemble_operators, build_grid, low_modes
from . import energy, lsred, minimize, spectrum, stability
from .minimize import ConvergenceError
from .lsred import ChartError, FitRejectedError, InsufficientDataError
from .spectrum import KernelThresholdError, SpectrumError
from .stability import CoercivityError

EXPERIMENTS = ("minimize", "spectrum", "lsred", "stability", "covariance")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_CONVERGENCE = 3
EXIT_FIT = 4


class ConfigError(ValueError):
    pass


# exit code and stderr label of each failure that ends a run
FAILURES = {
    ConfigError: (EXIT_CONFIG, "config error"),  # also a setting a run's results rule out
    ConvergenceError: (EXIT_CONVERGENCE, "convergence failure"),
    ChartError: (EXIT_CONVERGENCE, "convergence failure"),
    KernelThresholdError: (EXIT_CONVERGENCE, "kernel threshold failure"),
    SpectrumError: (EXIT_CONVERGENCE, "spectrum failure"),
    CoercivityError: (EXIT_CONVERGENCE, "coercivity failure"),
    FitRejectedError: (EXIT_FIT, "fit rejected"),
    InsufficientDataError: (EXIT_FIT, "fit rejected"),
}


DEFAULT_TOLERANCES = {"grad_tol": 1e-11, "kernel_tol": 1e-6, "newton_tol": 1e-11}
DEFAULT_SAMPLING = {"directions": 2, "scales": [], "count": 4, "kinds": []}
# default scale ladders when sampling.scales is empty: along a Hessian kernel
# (lsred, and stability at a degenerate minimizer), and transverse to it
KERNEL_SCALES = tuple(np.geomspace(1e-3, 1e-1, 8))
TRANSVERSE_SCALES = tuple(np.geomspace(1e-3, 1.5e-2, 8))


@dataclass(frozen=True)
class ExperimentConfig:
    model_kind: str
    model_params: dict
    N: int
    experiment: str
    seed: int
    output: str
    tolerances: dict = field(default_factory=dict)
    sampling: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(raw: dict) -> "ExperimentConfig":
        diags = validate_dict(raw)
        if diags:
            raise ConfigError("; ".join(diags))
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(raw.get("tolerances", {}))
        samp = dict(DEFAULT_SAMPLING)
        samp.update(raw.get("sampling", {}))
        return ExperimentConfig(
            model_kind=raw["model"]["kind"],
            model_params=dict(raw["model"].get("params", {})),
            N=int(raw["N"]),
            experiment=raw["experiment"],
            seed=int(raw["seed"]),
            output=raw["output"],
            tolerances=tol,
            sampling=samp,
        )

    def to_dict(self) -> dict:
        return {
            "model": {"kind": self.model_kind, "params": self.model_params},
            "N": self.N,
            "experiment": self.experiment,
            "seed": self.seed,
            "output": self.output,
            "tolerances": self.tolerances,
            "sampling": self.sampling,
        }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    """A finite JSON number; json.load also yields booleans, NaN and Infinity."""
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def validate_dict(raw: dict) -> list[str]:
    """Schema diagnostics with field paths; empty list means valid.

    The model is built here, so bad params and pole models fail before a run.
    """
    diags: list[str] = []
    if not isinstance(raw, dict):
        return ["config: expected a JSON object"]

    built = None
    model = raw.get("model")
    if model is None:
        diags.append("model: missing required field")
    elif not isinstance(model, dict):
        diags.append("model: expected an object {kind, params}")
    else:
        kind = model.get("kind")
        if kind is None:
            diags.append("model.kind: missing required field")
        elif kind not in MODEL_KINDS:
            diags.append(f"model.kind: unknown kind {kind!r}; "
                         f"choose from {sorted(MODEL_KINDS)}")
        params = model.get("params", {})
        if not isinstance(params, dict):
            diags.append("model.params: expected an object")
        elif not all(_is_number(val) for val in params.values()):
            diags.append("model.params: expected finite numbers")
        elif kind in MODEL_KINDS:
            try:
                built = make_model(kind, **params)
            except (TypeError, ValueError) as exc:
                diags.append(f"model.params: {exc}")

    N = raw.get("N")
    if N is None:
        diags.append("N: missing required field")
    elif not _is_int(N):
        diags.append("N: expected an integer")
    elif N < MIN_NODES:
        diags.append(f"N: below minimum {MIN_NODES}")
    elif N % 2 and built is not None and built.topology == "circle":
        diags.append(f"N: {built.label} is periodic and needs an even N, got {N}")

    exp = raw.get("experiment")
    if exp is None:
        diags.append("experiment: missing required field")
    elif exp not in EXPERIMENTS:
        diags.append(f"experiment: unknown experiment {exp!r}; "
                     f"choose from {sorted(EXPERIMENTS)}")
    elif exp in ("spectrum", "lsred", "stability") and built is not None \
            and any(built.pole_endpoints()):
        diags.append(f"experiment: {exp} needs a positive-definite mass matrix; "
                     f"{built.label} has a pole endpoint with zero mass")

    if "seed" not in raw:
        diags.append("seed: missing required field")
    elif not _is_int(raw["seed"]) or raw["seed"] < 0:
        diags.append("seed: expected a non-negative integer")

    if "output" not in raw:
        diags.append("output: missing required field")
    elif not isinstance(raw["output"], str) or not raw["output"]:
        diags.append("output: expected a nonempty path prefix")

    tol = raw.get("tolerances", {})
    if not isinstance(tol, dict):
        diags.append("tolerances: expected an object")
    else:
        for key, val in tol.items():
            if key not in DEFAULT_TOLERANCES:
                diags.append(f"tolerances.{key}: unknown tolerance")
            elif not _is_number(val) or val <= 0:
                diags.append(f"tolerances.{key}: expected a positive finite number")

    samp = raw.get("sampling", {})
    if not isinstance(samp, dict):
        diags.append("sampling: expected an object")
    else:
        for key in samp:
            if key not in DEFAULT_SAMPLING:
                diags.append(f"sampling.{key}: unknown sampling field")
        for key in ("directions", "count"):
            if key in samp and (not _is_int(samp[key]) or samp[key] < 1):
                diags.append(f"sampling.{key}: expected a positive integer")
        if "scales" in samp:
            scl = samp["scales"]
            if not isinstance(scl, list) or any(not _is_number(s) or s <= 0 for s in scl):
                diags.append("sampling.scales: expected a list of positive finite numbers")
        if "kinds" in samp:
            kinds = samp["kinds"]
            ok = isinstance(kinds, list) and all(
                k in ("kernel", "transverse", "mixed") for k in kinds)
            if not ok:
                diags.append("sampling.kinds: expected a list drawn from "
                             "kernel/transverse/mixed")
    return diags


# ---------------------------------------------------------------------------
# deterministic serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def config_hash(cfg: ExperimentConfig) -> str:
    canon = json.dumps(cfg.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = path + ".tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_outputs(cfg: ExperimentConfig, results: dict, columns: list[str],
                  rows: list[list]):
    report = {
        "config": cfg.to_dict(),
        "config_hash": config_hash(cfg),
        "version": __version__,
        "results": results,
    }
    _atomic_write(cfg.output + ".json",
                  json.dumps(report, sort_keys=True, indent=2) + "\n")
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    _atomic_write(cfg.output + ".csv", "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# experiment bodies
# ---------------------------------------------------------------------------

def _opts(cfg: ExperimentConfig) -> minimize.MinimizeOptions:
    return minimize.MinimizeOptions(grad_tol=cfg.tolerances["grad_tol"],
                                    seed=cfg.seed)


def _model(cfg: ExperimentConfig):
    return make_model(cfg.model_kind, **cfg.model_params)


def _multistart(cfg: ExperimentConfig):
    m = _model(cfg)
    reports = minimize.run_multistart(m, cfg.N, cfg.sampling["count"], _opts(cfg))
    return m, reports, minimize.best_converged(reports, m, cfg.N)


def run_minimize(cfg: ExperimentConfig):
    m, reports, best = _multistart(cfg)
    rows = [[r.start_index, r.converged, r.coarse_iterations, r.iterations, r.Y_est, r.grad_norm,
             r.residual.interior, r.residual.boundary] for r in reports]
    results = {
        "Y_est": best.Y_est,
        "grad_norm": best.grad_norm,
        "iterations": best.iterations,
        "coarse_iterations": best.coarse_iterations,
        "converged": best.converged,
        "start_index": best.start_index,
        "residual_interior": best.residual.interior,
        "residual_boundary": best.residual.boundary,
        "halfsphere_reference": minimize.hemisphere_comparison_value(m.n),
    }
    summary = f"Y_est={_fmt(best.Y_est)}"
    cols = ["start_index", "converged", "coarse_iterations", "iterations", "Y_est", "grad_norm",
            "residual_interior", "residual_boundary"]
    return results, cols, rows, summary


def _spectral_pipeline(cfg: ExperimentConfig):
    _, _, best = _multistart(cfg)
    spec = spectrum.eigen_decompose(best.v, min(12, cfg.N - 2))
    split = spectrum.kernel_split(spec, cfg.tolerances["kernel_tol"])
    return best, spec, split


def run_spectrum(cfg: ExperimentConfig):
    best, spec, split = _spectral_pipeline(cfg)
    p = energy.volume_covector(best.v)
    rows = []
    for j, lam in enumerate(spec.eigenvalues):
        tang = abs(float(p @ spec.eigenvectors[:, j]))
        rows.append([j, lam, tang, bool(abs(lam) <= split.threshold)])
    results = {
        "Y_est": best.Y_est,
        "grad_norm": best.grad_norm,
        "kernel_dim": split.kernel_dim,
        "lambda1": split.lambda1,
        "threshold": split.threshold,
        "eigenvalues": [float(x) for x in spec.eigenvalues],
        "spectrum_sweeps": spec.sweeps,
    }
    summary = f"kernel_dim={split.kernel_dim} lambda1={_fmt(split.lambda1)}"
    cols = ["index", "eigenvalue", "tangency", "in_kernel"]
    return results, cols, rows, summary


def _unit_directions(dim: int, count: int, seed: int) -> list[np.ndarray]:
    rows = np.random.default_rng(seed).standard_normal((count - 1, dim))
    return [np.eye(dim)[:, 0], *(row / np.linalg.norm(row) for row in rows)]


def run_lsred(cfg: ExperimentConfig):
    best, spec, split = _spectral_pipeline(cfg)
    cols = ["direction_index", "scale", "q_value", "deficit",
            "correction_norm", "newton_iters", "residual"]
    if split.kernel_dim == 0:
        classification = lsred.detect_integrability(
            [], q0=best.Y_est, kernel_dim=0)
        results = {
            "Y_est": best.Y_est,
            "kernel_dim": 0,
            "classification": classification,
            "exponent": None,
            "lambda1": split.lambda1,
            "spectrum_sweeps": spec.sweeps,
        }
        return results, cols, [], f"classification={classification}"

    chart = lsred.ReductionChart(v=best.v, split=split,
                                 newton_tol=cfg.tolerances["newton_tol"])
    scales = cfg.sampling["scales"] or KERNEL_SCALES
    dirs = _unit_directions(split.kernel_dim, cfg.sampling["directions"], cfg.seed)
    samples = lsred.sample_reduced(chart, dirs, scales)
    fit = lsred.fit_growth_exponent(samples)
    classification = lsred.detect_integrability(
        samples, q0=chart.q0, kernel_dim=split.kernel_dim)
    rows = [[s.direction_index, s.scale, s.q_value, s.deficit,
             s.correction_norm, s.newton_iters, s.residual] for s in samples]
    results = {
        "Y_est": best.Y_est,
        "kernel_dim": split.kernel_dim,
        "lambda1": split.lambda1,
        "chart_radius": chart.radius,
        "classification": classification,
        "exponent": fit.exponent,
        "constant": fit.constant,
        "r2": fit.r2,
        "window": list(fit.window),
        "n_below_floor": fit.n_below_floor,
        "max_dual_residual": max(s.dual_residual for s in samples),
        "spectrum_sweeps": spec.sweeps,
    }
    summary = f"exponent={_fmt(fit.exponent)} classification={classification}"
    return results, cols, rows, summary


def run_stability(cfg: ExperimentConfig):
    best, spec, split = _spectral_pipeline(cfg)
    kinds = tuple(cfg.sampling["kinds"]) or (
        ("kernel",) if split.kernel_dim > 0 else ("transverse",))
    if split.kernel_dim == 0:
        flat = [k for k in kinds if k in ("kernel", "mixed")]
        if flat:
            raise ConfigError(
                f"sampling.kinds: {', '.join(flat)} sampling needs a Hessian "
                "kernel, and this minimizer has kernel_dim 0")
    scales = tuple(cfg.sampling["scales"]) or (
        KERNEL_SCALES if split.kernel_dim > 0 else TRANSVERSE_SCALES)
    batch = stability.sample_deficit_distance(
        best.v, split, spec,
        stability.SampleSpec(kinds=kinds, scales=scales,
                             count=cfg.sampling["count"], seed=cfg.seed),
        member_tol=1e4 * cfg.tolerances["grad_tol"])
    fit = stability.fit_stability_exponent(batch.records)
    coer = stability.coercivity_data(best.v, split, spec)
    rows = [[r.sample_id, r.perturbation_kind, r.direction_index, r.scale,
             r.deficit, r.distance] for r in batch.records]
    results = {
        "Y_est": best.Y_est,
        "kernel_dim": split.kernel_dim,
        "lambda1": coer.lambda1_m,
        "lambda1_sobolev": coer.lambda1_w,
        "coercivity_floor": coer.floor,
        "norm_conversion": coer.conversion,
        "coercivity_sweeps": coer.sweeps,
        "spectrum_sweeps": spec.sweeps,
        "exponent": fit.exponent,
        "c_lower": fit.c_lower,
        "r2": fit.r2,
        "window": list(fit.window),
        "n_records": fit.n_records,
        "n_below_floor": fit.n_below_floor,
        "n_skipped": batch.n_skipped,
    }
    summary = f"exponent={_fmt(fit.exponent)} c_lower={_fmt(fit.c_lower)}"
    cols = ["sample_id", "kind", "direction_index", "scale", "deficit", "distance"]
    return results, cols, rows, summary


COVARIANCE_AMPLITUDES = (0.2, 0.35, 0.5)


def run_covariance(cfg: ExperimentConfig):
    m = _model(cfg)
    grid = build_grid(m, cfg.N)
    ops = assemble_operators(m, grid)
    rng = np.random.default_rng(cfg.seed)
    modes = low_modes(grid, 3)
    rows = []
    worst = 0.0
    for f_idx, amp in enumerate(COVARIANCE_AMPLITUDES):
        w = np.exp(amp * modes[:, 0])
        ops_def = assemble_operators(conformal_deform(m, w, grid), grid)
        for s_idx in range(cfg.sampling["count"]):
            coeffs = rng.standard_normal(3)
            pert = sum(c * modes[:, j] for j, c in enumerate(coeffs))
            u = np.clip(1.0 + 0.3 * pert / max(1.0, np.max(np.abs(pert))), 0.1, None)
            q_def = energy.yamabe_quotient(ops_def, u)
            q_pull = energy.yamabe_quotient(ops, u * w)
            rel = abs(q_def - q_pull) / abs(q_pull)
            worst = max(worst, rel)
            rows.append([f_idx, s_idx, q_def, q_pull, rel])
    results = {"max_rel_err": worst, "amplitudes": list(COVARIANCE_AMPLITUDES)}
    summary = f"max_rel_err={_fmt(worst)}"
    cols = ["factor_index", "sample_index", "q_deformed", "q_pullback", "rel_err"]
    return results, cols, rows, summary


RUNNERS = {
    "minimize": run_minimize,
    "spectrum": run_spectrum,
    "lsred": run_lsred,
    "stability": run_stability,
    "covariance": run_covariance,
}


def run(cfg: ExperimentConfig) -> int:
    """Execute one experiment config; writes outputs, prints the summary."""
    results, cols, rows, summary = RUNNERS[cfg.experiment](cfg)
    write_outputs(cfg, results, cols, rows)
    print(summary)
    return EXIT_OK


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def _read_json(path: str):
    """The parsed config file; ConfigError if it cannot be read or parsed."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")


def _load_config(path: str, experiment: str | None, out: str | None,
                 seed: int | None) -> ExperimentConfig:
    raw = _read_json(path)
    if not isinstance(raw, dict):
        raise ConfigError("config: expected a JSON object")
    if experiment is not None:
        stated = raw.get("experiment")
        if stated is not None and stated != experiment:
            raise ConfigError(
                f"experiment: config says {stated!r} but the "
                f"{experiment!r} subcommand was invoked")
        raw = dict(raw)
        raw["experiment"] = experiment
    if out is not None:
        raw = dict(raw)
        raw["output"] = out
    if seed is not None:
        raw = dict(raw)
        raw["seed"] = seed
    return ExperimentConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="yamstab",
        description="boundary Yamabe stability experiments on model manifolds")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in EXPERIMENTS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", help="output prefix override")
        p.add_argument("--seed", type=int, help="seed override")
    pv = sub.add_parser("validate", help="check a config without computing")
    pv.add_argument("--config", required=True, help="JSON config path")

    args = parser.parse_args(argv)

    if args.command == "validate":
        try:
            raw = _read_json(args.config)
        except ConfigError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        diags = validate_dict(raw)
        for d in diags:
            print(d)
        return EXIT_CONFIG if diags else EXIT_OK

    try:
        return run(_load_config(args.config, args.command, args.out, args.seed))
    except tuple(FAILURES) as exc:
        code, label = next(v for t, v in FAILURES.items() if isinstance(exc, t))
        print(f"{label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
