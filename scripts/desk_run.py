#!/usr/bin/env python3
"""End-to-end desk-scale experiment: generate data, train, evaluate.

Runs a shortened leave-one-out protocol sized for a laptop CPU: a
subsampled training set, a few epochs, then best-of-20 evaluation on a
subsample of the holdout windows.  Finishes in a few seconds with the
defaults (4 s on a 2-core Xeon VM) and prints ADE/FDE against the
untrained baseline.
"""

import argparse
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sgcn import evaluation, synthetic, training
from sgcn.config import ModelConfig, TrainConfig
from sgcn.data import leave_one_out_split, load_dataset
from sgcn.model import init_weights, save_checkpoint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data-root", default="", help="trajectory files; generated if omitted")
    parser.add_argument("--holdout", default="ZARA2", help="scene held out for evaluation")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--batch-size", type=int, default=16)
    parser.add_argument("--lr", type=float, default=1e-3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--train-fraction", type=float, default=0.2,
                        help="fraction of training windows kept")
    parser.add_argument("--test-windows", type=int, default=200,
                        help="holdout windows evaluated (capped at available)")
    parser.add_argument("--out", default="", help="write checkpoint/metrics here if set")
    args = parser.parse_args(argv)

    started = time.monotonic()
    with tempfile.TemporaryDirectory() as scratch:
        data_root = args.data_root or scratch
        if not args.data_root:
            print("no --data-root given; generating synthetic scenes")
            synthetic.write_dataset(data_root, n_steps=520)
        tables = load_dataset(data_root)
        cfg = ModelConfig()
        split = leave_one_out_split(tables, args.holdout, cfg.t_obs, cfg.t_pred)

    rng = np.random.default_rng(7)
    keep = max(1, int(len(split.train_scenes) * args.train_fraction))
    train_idx = rng.choice(len(split.train_scenes), size=keep, replace=False)
    train_scenes = [split.train_scenes[i] for i in train_idx]
    n_test = min(args.test_windows, len(split.test_scenes))
    test_idx = rng.choice(len(split.test_scenes), size=n_test, replace=False)
    test_scenes = [split.test_scenes[i] for i in test_idx]
    print(f"training on {len(train_scenes)} windows, evaluating {len(test_scenes)} "
          f"({args.holdout} held out)")

    baseline = evaluation.evaluate_best_of_k(
        init_weights(cfg, seed=args.seed), cfg, test_scenes, k=20, seed=args.seed
    )
    print(f"untrained  ADE {baseline.ade:.3f}  FDE {baseline.fde:.3f}")

    train_cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                            lr=args.lr, seed=args.seed)
    weights, rows = training.train(train_scenes, cfg, train_cfg)
    print(f"trained {args.epochs} epochs ({len(rows)} steps), "
          f"final NLL {rows[-1][2]:.3f}")

    report = evaluation.evaluate_best_of_k(weights, cfg, test_scenes, k=20, seed=args.seed)
    print(f"trained    ADE {report.ade:.3f}  FDE {report.fde:.3f}  "
          f"({report.n_pedestrians} pedestrians, best of {report.k})")
    print(f"wall time {time.monotonic() - started:.1f}s")

    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        save_checkpoint(out / "checkpoint.ckpt", weights, cfg)
        training.write_loss_log(rows, out / "loss_log.csv")
        evaluation.write_metrics_csv(report, out / "metrics.csv")
        evaluation.write_summary(report, out / "summary.txt")
        print(f"artifacts written to {out.resolve()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
