import runpy
import sys
from pathlib import Path

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
