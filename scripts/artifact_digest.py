#!/usr/bin/env python3
"""Print the sha256 of every artifact of a seeded toy run, to compare two commits.

Generates the synthetic dataset, then runs ``sgcn train``, ``eval``,
``predict`` and ``dump-graphs`` in a temporary directory, and prints one
``sha256  name`` line for each of checkpoint.ckpt, loss_log.csv,
metrics.csv, predictions.csv and graphs.txt.  Runs are seeded, so two
checkouts that print the same lines wrote byte-identical artifacts:

    PYTHONPATH=src python3 scripts/artifact_digest.py
"""

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgcn import cli
from sgcn.synthetic import write_dataset

ARTIFACTS = ("checkpoint.ckpt", "loss_log.csv", "metrics.csv", "predictions.csv", "graphs.txt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=120, help="recorded steps per generated scene")
    parser.add_argument("--epochs", type=int, default=3)
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory() as scratch:
        root, out = Path(scratch) / "data", Path(scratch) / "run"
        write_dataset(root, n_steps=args.steps)
        checkpoint = out / "checkpoint.ckpt"
        common = ["--data-root", str(root), "--out", str(out), "--seed", str(args.seed)]
        commands = [
            ["train", *common, "--epochs", str(args.epochs), "--batch-size", str(args.batch_size)],
            ["eval", *common, "--checkpoint", str(checkpoint)],
            ["predict", *common, "--checkpoint", str(checkpoint), "--scene-file", str(root / "zara2.txt")],
            ["dump-graphs", *common, "--checkpoint", str(checkpoint), "--scene-file", str(root / "zara2.txt")],
        ]
        for command in commands:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(command)
            if code:
                print(f"sgcn {command[0]} exited with {code}", file=sys.stderr)
                return code
        for name in ARTIFACTS:
            print(f"{hashlib.sha256((out / name).read_bytes()).hexdigest()}  {name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
