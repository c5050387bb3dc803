"""Print one sha256 per CLI config over everything its run writes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digest.py CONFIG...

Each config runs through the `yamstab` CLI with its output redirected to a
temporary directory.  The digest covers the exit code, the JSON report
without `config.output` and `config_hash` (the only fields that depend on the
output path), and the CSV bytes.  Two checkouts give the same digest for a
config exactly when they write the same numbers, so pointing PYTHONPATH at
another checkout's `src` shows byte identity against it in one command.
Byte identity across processes holds at a fixed BLAS thread count.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import tempfile

from yamstab import cli


def digest(config_path: str) -> tuple[str, int]:
    """(sha256 hex digest, exit code) of one CLI run of the config."""
    with open(config_path) as fh:
        experiment = json.load(fh)["experiment"]
    with tempfile.TemporaryDirectory() as tmp:
        prefix = os.path.join(tmp, "run")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([experiment, "--config", config_path, "--out", prefix])
        h = hashlib.sha256(f"exit {code}\n".encode())
        if code == cli.EXIT_OK:
            with open(prefix + ".json") as fh:
                report = json.load(fh)
            del report["config"]["output"], report["config_hash"]
            h.update(json.dumps(report, sort_keys=True).encode())
            with open(prefix + ".csv", "rb") as fh:
                h.update(fh.read())
    return h.hexdigest(), code


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+", metavar="CONFIG", help="JSON config paths")
    args = ap.parse_args()
    for path in args.configs:
        hexdigest, code = digest(path)
        print(f"{hexdigest}  exit={code}  {path}")


if __name__ == "__main__":
    main()
