#!/usr/bin/env python3
"""Print the sha256 of every artifact of three seeded toy runs, to compare two commits.

For each run in RUNS, generates the synthetic dataset, then runs
``sgcn train``, ``eval``, ``predict`` and ``dump-graphs`` in a temporary
directory, and prints one ``sha256  run/name`` line for each of
checkpoint.ckpt, loss_log.csv, metrics.csv, predictions.csv and
graphs.txt: 15 lines in all.  Runs are seeded, so two checkouts that
print the same lines wrote byte-identical artifacts.  It takes no options:

    python3 scripts/artifact_digest.py
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

# name, recorded steps per generated scene, epochs, batch size, seed
RUNS = (
    ("default", 120, 3, 64, 0),  # the default run: 384 training windows, six full batches
    ("seed3", 80, 2, 64, 3),  # a second seed, over two epochs
    ("batch7", 60, 1, 7, 11),  # a ragged last batch: 157 windows, the 23rd batch holds 3
)


def main(argv=None) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        for name, steps, epochs, batch_size, seed in RUNS:
            root, out = Path(scratch) / name / "data", Path(scratch) / name / "run"
            write_dataset(root, n_steps=steps)
            checkpoint, scene = out / "checkpoint.ckpt", root / "zara2.txt"
            common = ["--data-root", str(root), "--out", str(out), "--seed", str(seed)]
            commands = [
                ["train", *common, "--epochs", str(epochs), "--batch-size", str(batch_size)],
                ["eval", *common, "--checkpoint", str(checkpoint)],
                ["predict", *common, "--checkpoint", str(checkpoint), "--scene-file", str(scene)],
                ["dump-graphs", *common, "--checkpoint", str(checkpoint), "--scene-file", str(scene)],
            ]
            for command in commands:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(command)
                if code:
                    print(f"{name}: sgcn {command[0]} exited with {code}", file=sys.stderr)
                    return code
            for artifact in ARTIFACTS:
                print(f"{hashlib.sha256((out / artifact).read_bytes()).hexdigest()}  {name}/{artifact}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
