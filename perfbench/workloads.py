"""The three benchmark workloads, their configs and their correctness checks.

Every workload drives the `yamstab` CLI on a generated JSON config.  The
checks reuse the acceptance thresholds of `tests/test_acceptance.py`
unchanged, against closed forms computed here independently of the package:
the minimizer on all three models is the constant state, whose quotient is
c_n R vol^(2/n), and on `frank_product(d, r)` the second variation at the
constant has circle-mode eigenvalues 2((k/r)^2 - (d-2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    params: dict
    N: int
    experiment: str
    sampling: dict
    configs: int                       # configs a run cycles through (README)
    tolerances: dict = field(default_factory=dict)
    exponent: float | None = None      # expected stability/growth exponent
    exponent_tol: float | None = None  # acceptance bound on |exponent - target|
    kernel_dim: int | None = None
    mode: int | None = None            # circle mode that sets lambda1

    def config(self, seed: int, output: str, N: int | None = None,
               tolerances: dict | None = None) -> dict:
        """The CLI config of one experiment of this workload."""
        return {"model": {"kind": self.kind, "params": dict(self.params)},
                "N": self.N if N is None else N,
                "experiment": self.experiment,
                "seed": seed,
                "output": output,
                "tolerances": dict(self.tolerances if tolerances is None else tolerances),
                "sampling": dict(self.sampling)}


SQRT3 = math.sqrt(3.0)

WORKLOADS = {wl.name: wl for wl in (
    # exponent-4 path: Newton polish (QR frame and B'HB per iteration) and the
    # correction Newton (Z'HZ per iteration); the only workload where lsred
    # works.  grad_tol 5e-11 is the acceptance suite's _grad_tol(512): with the
    # default 1e-11 this run exits 3 on one BLAS thread (roadmap item 3), which
    # the traced run reports as minimize.default_tol_converged.
    Workload(name="bif_lsred",
             kind="frank_product", params={"d": 5, "r": 1.0 / SQRT3}, N=512,
             experiment="lsred", sampling={"count": 2, "directions": 2}, configs=3,
             tolerances={"grad_tol": 5e-11},
             exponent=4.0, exponent_tol=0.2, kernel_dim=2, mode=2),
    # exponent-2 path: minimize converges cleanly and spectrum, coercivity_data
    # and single_family take a larger share; an lsred-only change predicts no
    # change here
    Workload(name="sub_stability",
             kind="frank_product", params={"d": 5, "r": 0.8 / SQRT3}, N=512,
             experiment="stability", sampling={"count": 2}, configs=10,
             exponent=2.0, exponent_tol=0.1, kernel_dim=0, mode=1),
    # descent phase: line searches with many Riesz cho_solves on small
    # matrices, the Chebyshev interval with boundary terms; O(N^3) kernels are
    # a small share, so a Newton-kernel change predicts little change here.
    # At the default grad_tol the constant start stalls at a dual gradient
    # norm of 2.4e-11 on this grid and in 2 of 40 seeds no start of 8
    # converged (exit 3, roadmap item 3); 5e-11, the suite's tolerance for its
    # finer grid, clears that floor.  The descent phase, which switches to
    # Newton at 1e-2, does not depend on it.  The traced run reports the
    # default-tolerance outcome as minimize.default_tol_starts_converged_frac.
    Workload(name="cyl_multistart",
             kind="cylinder", params={"n": 3, "length": 1.0}, N=128,
             experiment="minimize", sampling={"count": 8}, configs=16,
             tolerances={"grad_tol": 5e-11}),
)}


def sphere_area(k: int) -> float:
    """Measure of the unit k-sphere."""
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


def constant_quotient(wl: Workload) -> float:
    """Quotient of the constant state, c_n R vol^(2/n); minimal ends add nothing."""
    if wl.kind == "frank_product":
        n, vol = wl.params["d"], math.pi * wl.params["r"] * sphere_area(wl.params["d"] - 1)
    else:
        n, vol = wl.params["n"], wl.params["length"] * sphere_area(wl.params["n"] - 1)
    return (n - 2) / (4.0 * (n - 1)) * (n - 1) * (n - 2) * vol ** (2.0 / n)


def check(wl: Workload, results: dict) -> tuple[list[str], dict]:
    """Failed checks and accuracy figures of one experiment's results."""
    errors = []
    y_ref = constant_quotient(wl)
    acc = {"y_rel_err": abs(results["Y_est"] - y_ref) / y_ref}
    if acc["y_rel_err"] > 1e-7:                      # criterion 3
        errors.append(f"Y_est relative error {acc['y_rel_err']:.2e} > 1e-7")
    if wl.experiment == "minimize" and results["converged"] is not True:
        errors.append("best start not converged")
    if wl.kernel_dim is not None and results["kernel_dim"] != wl.kernel_dim:
        errors.append(f"kernel_dim {results['kernel_dim']} != {wl.kernel_dim}")
    if wl.mode is not None:
        d, r = wl.params["d"], wl.params["r"]
        lam_ref = 2.0 * ((wl.mode / r) ** 2 - (d - 2))
        acc["lambda1_rel_err"] = abs(results["lambda1"] - lam_ref) / lam_ref
        if acc["lambda1_rel_err"] > 1e-6:            # criterion 4
            errors.append(f"lambda1 relative error {acc['lambda1_rel_err']:.2e} > 1e-6")
    if wl.exponent is not None:
        acc["exponent_err"] = abs(results["exponent"] - wl.exponent)
        if acc["exponent_err"] > wl.exponent_tol:    # criteria 6 and 7
            errors.append(f"|exponent - {wl.exponent:g}| = {acc['exponent_err']:.3g} "
                          f"> {wl.exponent_tol:g}")
    if wl.experiment == "lsred":                     # criterion 6
        if results["r2"] < 0.999:
            errors.append(f"r2 {results['r2']:.6f} < 0.999")
        if results["classification"] != "nonintegrable":
            errors.append(f"classification {results['classification']}")
    if wl.experiment == "stability":                 # criterion 7
        floor = 0.9 * (results["lambda1"] / 4.0) * results["norm_conversion"]
        if results["c_lower"] < floor:
            errors.append(f"c_lower {results['c_lower']:.4f} < {floor:.4f}")
    return errors, acc
