"""Print one sha256 per CLI config over everything its run writes.

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digest.py CONFIG...
    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/output_digest.py \
        --expect scripts/parity/digests.txt scripts/parity/*.json

Each config runs through the `yamstab` CLI with its output redirected to a
temporary directory.  The digest covers the exit code, the JSON report
without `config.output` and `config_hash` (the only fields that depend on the
output path), and the CSV bytes.  Two checkouts give the same digest for a
config exactly when they write the same numbers, so pointing PYTHONPATH at
another checkout's `src` shows byte identity against it in one command.
Byte identity across processes holds at a fixed BLAS thread count.

With --expect FILE, a file of lines as this script prints them, each config
is reported as `same` (its line is in the file), `moved` (its path is, with
another digest or exit code) or `missing`, and the exit status is 1 unless
every config is the same.  `scripts/parity/digests.txt` holds the lines of
the committed parity set at one BLAS thread.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("configs", nargs="+", metavar="CONFIG", help="JSON config paths")
    ap.add_argument("--expect", metavar="FILE",
                    help="digest lines to check each config against")
    args = ap.parse_args()
    expected = None
    if args.expect is not None:
        with open(args.expect) as fh:
            expected = {line.split(None, 2)[2]: line for line in fh.read().splitlines()}
    status = 0
    for path in args.configs:
        hexdigest, code = digest(path)
        line = f"{hexdigest}  exit={code}  {path}"
        if expected is None:
            print(line)
            continue
        verdict = ("same" if expected.get(path) == line
                   else "moved" if path in expected else "missing")
        if verdict != "same":
            status = 1
        print(f"{verdict}  {line}")
    return status


if __name__ == "__main__":
    sys.exit(main())
