"""Fixed end-to-end output check against stored reference values.

Runs ``sgcn train``, ``sgcn eval`` and ``sgcn predict`` in process on a
small fixed synthetic dataset (independent of the workload seed) and
compares the artifacts with ``reference.json``: the first and final
``loss_log.csv`` NLL, the ``metrics.csv`` ADE/FDE rows, and every number
in ``predictions.csv``.  The tolerance admits summation-order changes
but not a change to the model math.

Regenerate the reference after a deliberate change to model outputs:

    python3 bench/reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sgcn import cli, synthetic  # noqa: E402

REFERENCE = HERE / "reference.json"
RTOL = 1e-9
ATOL = 1e-9
N_STEPS = 48
EPOCHS = "2"
BATCH = "32"


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _number(text: str) -> float:
    # metrics.csv per-scene rows are written as repr(np.float64), which
    # reads "np.float64(1.25)" under numpy 2; accept both spellings.
    return float(text.removeprefix("np.float64(").removesuffix(")"))


def produce(work) -> dict:
    """Run train/eval/predict through the CLI and collect the checked numbers."""
    work = Path(work)
    root, out = work / "reference_data", work / "reference_run"
    synthetic.write_dataset(root, n_steps=N_STEPS)
    clip = work / "reference_clip.txt"  # the first 8 frames of the held-out scene
    rows = synthetic.generate_scene_rows(synthetic.SCENE_SEEDS["ZARA2"], n_steps=N_STEPS)
    synthetic.write_scene_file(clip, [row for row in rows if row[0] < 8 * synthetic.FRAME_STEP])
    ckpt = out / "checkpoint.ckpt"
    common = ["--seed", "0", "--out", str(out)]
    codes = [
        _cli(["train", "--data-root", str(root), "--epochs", EPOCHS, "--batch-size", BATCH] + common),
        _cli(["eval", "--data-root", str(root), "--checkpoint", str(ckpt), "--num-samples", "20"] + common),
        _cli(["predict", "--checkpoint", str(ckpt), "--scene-file", str(clip), "--num-samples", "20"] + common),
    ]
    if any(codes):
        raise RuntimeError(f"sgcn train/eval/predict exit codes {codes}")
    nll = [float(line.split(",")[2]) for line in (out / "loss_log.csv").read_text().splitlines()[1:]]
    metrics = {}
    for line in (out / "metrics.csv").read_text().splitlines()[1:]:
        scope, a, f, count = line.split(",")
        metrics[scope] = [_number(a), _number(f), int(count)]
    predictions = [
        float(field)
        for line in (out / "predictions.csv").read_text().splitlines()[1:]
        for field in line.split(",")
        if field and field not in ("obs", "mu", "sample")
    ]
    return {"nll_first": nll[0], "nll_final": nll[-1], "metrics": metrics, "predictions": predictions}


def mismatches(got: dict, want: dict) -> list:
    """Human-readable differences beyond the tolerance (empty when they agree)."""
    problems = []

    def close(label, a, b):
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if a.shape != b.shape:
            problems.append(f"{label}: shape {a.shape} != reference {b.shape}")
        elif not np.allclose(a, b, rtol=RTOL, atol=ATOL):
            worst = int(np.argmax(np.abs(a - b)))
            problems.append(f"{label}: {a.flat[worst]!r} != reference {b.flat[worst]!r}")

    close("loss_log first nll", got["nll_first"], want["nll_first"])
    close("loss_log final nll", got["nll_final"], want["nll_final"])
    if sorted(got["metrics"]) != sorted(want["metrics"]):
        problems.append(f"metrics.csv scopes {sorted(got['metrics'])} != {sorted(want['metrics'])}")
    else:
        for scope, values in want["metrics"].items():
            close(f"metrics.csv {scope}", got["metrics"][scope], values)
    close("predictions.csv", got["predictions"], want["predictions"])
    return problems


def check(work) -> list:
    """Produce the artifacts under ``work`` and compare them with the stored reference."""
    return mismatches(produce(work), json.loads(REFERENCE.read_text()))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        values = produce(tmp)
    REFERENCE.write_text(json.dumps(values) + "\n")
    print(f"wrote {REFERENCE} ({len(values['predictions'])} prediction numbers)")
