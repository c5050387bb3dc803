import json
import runpy
import sys
from pathlib import Path

from yamstab import cli

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_bifurcation_sweep_kernel_column(monkeypatch, capsys):
    # below r* the constant is nondegenerate, at r* the kernel is the first
    # circle-mode pair, above it the broken-symmetry minimizer keeps the
    # one-dimensional rotational kernel
    main = runpy.run_path(str(SCRIPTS / "bifurcation_sweep.py"))["main"]
    monkeypatch.setattr(sys, "argv", ["bifurcation_sweep.py", "--N", "32", "--steps", "5"])
    main()
    rows = capsys.readouterr().out.strip().splitlines()[2:]
    assert [int(row.split()[-1]) for row in rows] == [0, 0, 0, 2, 1]


def test_output_digest_ignores_output_path(tmp_path, monkeypatch, capsys):
    # two runs of one config, written under different prefixes, digest alike
    main = runpy.run_path(str(SCRIPTS / "output_digest.py"))["main"]
    paths = []
    for name in ("a", "b"):
        cfg = {"model": {"kind": "frank_product", "params": {"d": 5, "r": 0.5}},
               "N": 32, "experiment": "minimize", "seed": 1,
               "output": str(tmp_path / name), "sampling": {"count": 2}}
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(cfg))
    monkeypatch.setattr(sys, "argv", ["output_digest.py", *map(str, paths)])
    main()
    lines = [row.split() for row in capsys.readouterr().out.strip().splitlines()]
    assert [row[1] for row in lines] == ["exit=0", "exit=0"]
    assert lines[0][0] == lines[1][0] and len(lines[0][0]) == 64


def test_output_digest_expect_mode(tmp_path, monkeypatch, capsys):
    # the expected line comes from a first run in this process, so the check
    # does not depend on the BLAS thread count
    main = runpy.run_path(str(SCRIPTS / "output_digest.py"))["main"]
    cfg = {"model": {"kind": "frank_product", "params": {"d": 5, "r": 0.5}},
           "N": 32, "experiment": "minimize", "seed": 1,
           "output": str(tmp_path / "run"), "sampling": {"count": 2}}
    config, expect = tmp_path / "c.json", tmp_path / "digests.txt"
    config.write_text(json.dumps(cfg))
    monkeypatch.setattr(sys, "argv", ["output_digest.py", str(config)])
    assert main() == 0
    line = capsys.readouterr().out
    monkeypatch.setattr(sys, "argv", ["output_digest.py", "--expect", str(expect), str(config)])
    for text, code, verdict in ((line, 0, "same"), ("0" * 64 + line[64:], 1, "moved"),
                                (line.replace("c.json", "d.json"), 1, "missing")):
        expect.write_text(text)
        assert main() == code
        assert capsys.readouterr().out == f"{verdict}  {line}"


def test_reference_experiments_write_four_reports(tmp_path, monkeypatch, capsys):
    # the script writes under ./reference_runs/, so it runs in a scratch cwd
    main = runpy.run_path(str(SCRIPTS / "run_reference_experiments.py"))["main"]
    monkeypatch.chdir(tmp_path)
    main()
    out = tmp_path / "reference_runs"
    names = ("quadratic_stability", "quartic_reduction", "quartic_stability",
             "covariance_check")
    reports = [p.stem for p in out.glob("*.json") if not p.stem.endswith("_config")]
    assert sorted(reports) == sorted(names)
    results = {name: json.loads((out / f"{name}.json").read_text())["results"]
               for name in names}
    assert abs(results["quadratic_stability"]["exponent"] - 2.0) <= 0.1
    for name in ("quartic_reduction", "quartic_stability"):
        assert abs(results[name]["exponent"] - 4.0) <= 0.2



def test_parity_configs_validate(capsys):
    # the committed byte-identity set (README, Scripts): every config is valid
    paths = sorted((SCRIPTS / "parity").glob("*.json"))
    assert len(paths) == 14
    for path in paths:
        assert cli.main(["validate", "--config", str(path)]) == cli.EXIT_OK, path
    assert capsys.readouterr().out == ""
