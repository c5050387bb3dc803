import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from yamstab import cli, lsred, spectrum
from conftest import BIF_RADIUS, SUB_RADIUS
from test_energy import frank_constant_quotient


def base_config(tmp_path, experiment, r=SUB_RADIUS, N=128, **extra):
    cfg = {
        "model": {"kind": "frank_product", "params": {"d": 5, "r": r}},
        "N": N,
        "experiment": experiment,
        "seed": 1,
        "sampling": {"count": 2},
        "output": str(tmp_path / f"out_{experiment}"),
    }
    cfg.update(extra)
    path = tmp_path / f"{experiment}.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def test_validate_accepts_well_formed(tmp_path, capsys):
    path, _ = base_config(tmp_path, "minimize")
    assert cli.main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == ""


def test_validate_reports_field_paths(tmp_path, capsys):
    bad = {"model": {"kind": "frank_product"}, "N": 8,
           "experiment": "minimize", "output": "x"}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    out = capsys.readouterr().out
    assert "seed: missing required field" in out
    assert "N: below minimum 16" in out


@pytest.mark.parametrize("field, value, diag", [
    ("tolerances", {"grad_tol": True}, "tolerances.grad_tol:"),
    ("tolerances", {"grad_tol": float("nan")}, "tolerances.grad_tol:"),
    ("tolerances", {"newton_tol": float("inf")}, "tolerances.newton_tol:"),
    ("sampling", {"count": True}, "sampling.count:"),
    ("sampling", {"scales": [1e-3, True]}, "sampling.scales:"),
    ("sampling", {"scales": [1e-3, float("nan")]}, "sampling.scales:"),
    ("sampling", {"scales": [float("inf")]}, "sampling.scales:"),
    ("N", 33, "N:"),         # odd on a circle model: the periodic grid needs even N
    ("seed", -1, "seed:"),   # numpy's generators take no negative seed
])
def test_validate_rejects_bools_and_nonfinite(tmp_path, capsys, field, value, diag):
    # json.load parses true, NaN and Infinity; none of them is a usable number
    path, _ = base_config(tmp_path, "minimize", **{field: value})
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert diag in capsys.readouterr().out
    assert cli.main(["minimize", "--config", str(path)]) == cli.EXIT_CONFIG


@pytest.mark.parametrize("params", [{"d": 5, "radius": 0.5}, {"d": 5, "r": -0.5},
                                    {"d": 5, "r": 0.0}, {"d": 5.5, "r": 0.5}])
def test_bad_model_params_are_config_errors(tmp_path, capsys, params):
    path, _ = base_config(tmp_path, "minimize",
                          model={"kind": "frank_product", "params": params})
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().out.startswith("model.params:")
    assert cli.main(["minimize", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "model.params:" in capsys.readouterr().err


@pytest.mark.parametrize("kind, params", [("hemisphere", {"n": 3}), ("ball", {"n": 3}),
                                          ("spherical_cap", {"n": 3, "t0": 1.0})])
@pytest.mark.parametrize("experiment", ["spectrum", "lsred", "stability"])
def test_pole_models_refuse_mass_geometry_experiments(tmp_path, capsys, monkeypatch,
                                                      kind, params, experiment):
    # refused before any minimization starts
    monkeypatch.setattr(cli.minimize, "run_multistart", None)
    path, _ = base_config(tmp_path, experiment, model={"kind": kind, "params": params})
    assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "pole" in capsys.readouterr().out
    assert cli.main([experiment, "--config", str(path)]) == cli.EXIT_CONFIG
    assert "pole" in capsys.readouterr().err


def test_validate_unreadable_file(tmp_path):
    assert cli.main(["validate", "--config", str(tmp_path / "nope.json")]) == \
        cli.EXIT_CONFIG


def test_minimize_summary_matches_formula(tmp_path, capsys):
    path, _ = base_config(tmp_path, "minimize")
    assert cli.main(["minimize", "--config", str(path)]) == 0
    summary = capsys.readouterr().out.strip()
    assert summary.startswith("Y_est=")
    val = float(summary.split("=")[1])
    assert val == pytest.approx(frank_constant_quotient(5, SUB_RADIUS), rel=1e-7)


def test_byte_identical_reruns(tmp_path):
    path, cfg = base_config(tmp_path, "stability")
    assert cli.main(["stability", "--config", str(path)]) == 0
    j1 = (tmp_path / "out_stability.json").read_bytes()
    c1 = (tmp_path / "out_stability.csv").read_bytes()
    assert cli.main(["stability", "--config", str(path)]) == 0
    assert (tmp_path / "out_stability.json").read_bytes() == j1
    assert (tmp_path / "out_stability.csv").read_bytes() == c1


def test_spectrum_csv_kernel_entries(tmp_path, monkeypatch):
    splits, kernel_split = [], spectrum.kernel_split
    monkeypatch.setattr(spectrum, "kernel_split",
                        lambda *a: splits.append(kernel_split(*a)) or splits[-1])
    path, cfg = base_config(tmp_path, "spectrum", r=BIF_RADIUS, N=128)
    assert cli.main(["spectrum", "--config", str(path)]) == 0
    lines = (tmp_path / "out_spectrum.csv").read_text().strip().split("\n")
    assert lines[0] == "index,eigenvalue,tangency,in_kernel"
    rows = [ln.split(",") for ln in lines[1:]]
    eigs = np.array([float(r[1]) for r in rows])
    scale = np.max(np.abs(eigs))
    kernel = np.sort(np.abs(eigs))[:2]
    assert np.all(kernel <= 1e-6 * scale)
    assert sum(r[3] == "true" for r in rows) == 2
    # the column is the split's own kernel mask
    assert [r[3] == "true" for r in rows] == splits[0].in_kernel.tolist()


def test_json_round_trips_config(tmp_path):
    path, cfg = base_config(tmp_path, "minimize")
    cli.main(["minimize", "--config", str(path)])
    report = json.loads((tmp_path / "out_minimize.json").read_text())
    # the report embeds the run's one config, defaults filled in, which
    # loads back to itself
    assert report["config"] == cli.load_config(cfg)
    assert cli.load_config(report["config"]) == report["config"]
    assert report["version"]
    assert report["config_hash"] == cli.config_hash(report["config"])
    assert len(report["config_hash"]) == 64


def test_seed_and_out_overrides(tmp_path):
    path, _ = base_config(tmp_path, "minimize")
    out2 = str(tmp_path / "elsewhere")
    assert cli.main(["minimize", "--config", str(path), "--out", out2,
                     "--seed", "42"]) == 0
    report = json.loads((tmp_path / "elsewhere.json").read_text())
    assert report["config"]["seed"] == 42
    assert report["config"]["output"] == out2


def test_experiment_mismatch_is_config_error(tmp_path, capsys):
    path, _ = base_config(tmp_path, "minimize")
    assert cli.main(["spectrum", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "subcommand" in capsys.readouterr().err


def test_invalid_json_is_config_error(tmp_path, capsys):
    # validate and the experiments read the file through one JSON reader
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    for command in ("minimize", "validate"):
        assert cli.main([command, "--config", str(path)]) == cli.EXIT_CONFIG
        assert "not valid JSON" in capsys.readouterr().err


def test_fit_rejection_exit_code(tmp_path, capsys):
    # a sub-decade ladder cannot support a power-law fit
    path, _ = base_config(tmp_path, "stability",
                          sampling={"count": 2, "scales": [1e-3, 2e-3, 4e-3]})
    assert cli.main(["stability", "--config", str(path)]) == cli.EXIT_FIT
    assert "fit rejected" in capsys.readouterr().err


def test_kernel_threshold_failure_exit_code(tmp_path, capsys):
    # a threshold of half the top eigenvalue cuts through the circle modes
    path, _ = base_config(tmp_path, "spectrum", r=0.5, N=64,
                          tolerances={"kernel_tol": 0.5})
    assert cli.main(["spectrum", "--config", str(path)]) == cli.EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("kernel threshold failure:") and err.count("\n") == 1
    assert not (tmp_path / "out_spectrum.json").exists()


def test_spectrum_failure_exit_code(tmp_path, capsys, monkeypatch):
    # a start block without the lowest circle modes cos t, sin t puts the
    # shift above them, and the engine refuses it
    engine = spectrum.lowest_pairs

    def blind(H, B, C, X, k, **kwargs):
        return engine(H, B, C, X[:, 2:8], min(k, 6))

    monkeypatch.setattr(spectrum, "lowest_pairs", blind)
    path, _ = base_config(tmp_path, "spectrum", N=64)
    assert cli.main(["spectrum", "--config", str(path)]) == cli.EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("spectrum failure:") and "misses the lowest mode" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "out_spectrum.json").exists()


def test_spectrum_reports_its_sweeps(tmp_path, capsys):
    path, _ = base_config(tmp_path, "spectrum", N=64)
    assert cli.main(["spectrum", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out_spectrum.json").read_text())
    assert report["results"]["spectrum_sweeps"] == 1


@pytest.mark.parametrize("kind", ["kernel", "mixed"])
def test_kernel_sampling_on_nondegenerate_minimizer_is_config_error(tmp_path, capsys,
                                                                    kind):
    path, _ = base_config(tmp_path, "stability", N=64,
                          sampling={"count": 2, "kinds": ["transverse", kind]})
    assert cli.main(["stability", "--config", str(path)]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: sampling.kinds: {kind} ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out_stability.json").exists()


def test_lsred_nondegenerate_short_circuit(tmp_path, capsys):
    path, _ = base_config(tmp_path, "lsred")
    assert cli.main(["lsred", "--config", str(path)]) == 0
    assert "classification=nondegenerate" in capsys.readouterr().out
    report = json.loads((tmp_path / "out_lsred.json").read_text())
    assert report["results"]["exponent"] is None
    csv_text = (tmp_path / "out_lsred.csv").read_text().strip().split("\n")
    assert len(csv_text) == 1  # header only


def test_lsred_degenerate_run(tmp_path, capsys):
    path, _ = base_config(tmp_path, "lsred", r=BIF_RADIUS,
                          sampling={"count": 2, "directions": 2})
    assert cli.main(["lsred", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "classification=nonintegrable" in out
    report = json.loads((tmp_path / "out_lsred.json").read_text())
    assert report["results"]["exponent"] == pytest.approx(4.0, abs=0.2)
    header = (tmp_path / "out_lsred.csv").read_text().split("\n")[0]
    assert header == ("direction_index,scale,q_value,deficit,"
                      "correction_norm,newton_iters,residual")


def test_singular_chart_factor_exit_code(tmp_path, capsys, monkeypatch):
    def singular(*args):
        raise np.linalg.LinAlgError("bordered system is singular (zero pivot 3)")

    monkeypatch.setattr(lsred, "BorderedFactor", singular)
    path, _ = base_config(tmp_path, "lsred", r=BIF_RADIUS)
    assert cli.main(["lsred", "--config", str(path)]) == cli.EXIT_CONVERGENCE
    err = capsys.readouterr().err
    assert err.startswith("convergence failure: the bordered second variation is singular")
    assert err.count("\n") == 1
    assert not (tmp_path / "out_lsred.json").exists()


def test_covariance_experiment(tmp_path, capsys):
    path, _ = base_config(tmp_path, "covariance", N=256,
                          sampling={"count": 5})
    assert cli.main(["covariance", "--config", str(path)]) == 0
    report = json.loads((tmp_path / "out_covariance.json").read_text())
    assert report["results"]["max_rel_err"] <= 1e-6
    header = (tmp_path / "out_covariance.csv").read_text().split("\n")[0]
    assert header == "factor_index,sample_index,q_deformed,q_pullback,rel_err"


def test_stability_csv_columns(tmp_path):
    path, _ = base_config(tmp_path, "stability")
    cli.main(["stability", "--config", str(path)])
    header = (tmp_path / "out_stability.csv").read_text().split("\n")[0]
    assert header == "sample_id,kind,direction_index,scale,deficit,distance"


def test_minimize_csv_columns(tmp_path):
    path, _ = base_config(tmp_path, "minimize")
    cli.main(["minimize", "--config", str(path)])
    header = (tmp_path / "out_minimize.csv").read_text().split("\n")[0]
    assert header == ("start_index,converged,coarse_iterations,iterations,Y_est,grad_norm,"
                      "residual_interior,residual_boundary")


def test_cli_import_loads_no_optimizer():
    # scipy.optimize adds about 20 MB of resident memory to every CLI process,
    # and no stage needs it
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    code = "import sys, yamstab.cli; print('scipy.optimize' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
