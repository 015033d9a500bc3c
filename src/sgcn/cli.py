"""Operator entry point: train, evaluate, predict, and graph dumps.

Configuration precedence, lowest to highest: built-in defaults, the
``SGCN_DATA_ROOT`` environment variable (data root only), values from a
``--config`` key=value file, then the command-line flags.  Every run
loads and checks its inputs, then echoes its fully resolved configuration
(with the xi it used) into the output directory so a later ``--config
resolved.cfg`` reproduces it.
"""

from __future__ import annotations

import argparse
import functools
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from .config import ModelConfig, RunConfig, TrainConfig, read_config_file, write_config_file
from .data import holdout_table, last_observation, load_dataset, load_scene_file, training_windows, window_scenes
from .errors import ConfigError, SgcnError
from .evaluation import evaluate_best_of_k, write_metrics_csv, write_summary
from .model import forward, load_checkpoint, map_groups, mu_trajectory, predict, sample_trajectory
from .training import train

logger = logging.getLogger(__name__)

# RunConfig key -> value type; an optional key (xi) parses as its non-None type
_KEY_TYPES = {key: (get_args(kind) or (kind,))[0] for key, kind in get_type_hints(RunConfig).items()}
# RunConfig keys settable by flag -> help text; each flag's type is its key's.
_FLAGS = {
    "data_root": "directory of *.txt scene files",
    "holdout": "scene held out of training / evaluated",
    "epochs": None, "batch_size": None, "lr": None,
    "xi": "graph sparsity threshold in [0, 1]",
    "seed": None, "num_samples": None,
    "out": "output directory for artifacts",
    "checkpoint": "model checkpoint path",
    "scene_file": "single trajectory file to run on",
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process; parsing leaves it unchanged, so calls share it."""
    parser = argparse.ArgumentParser(
        prog="sgcn",
        description="Sparse-graph trajectory predictor: training, evaluation, and inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in (
        ("train", "fit a model with leave-one-out holdout and write a checkpoint"),
        ("eval", "best-of-K displacement metrics for a checkpoint on the holdout scene"),
        ("predict", "export observed points, mu-path, per-step Gaussians, and samples as CSV"),
        ("dump-graphs", "export learned spatial/temporal adjacency matrices as labeled text"),
    ):
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="key=value file; flags override its entries")
        for key, text in _FLAGS.items():
            p.add_argument("--" + key.replace("_", "-"), dest=key, type=_KEY_TYPES[key], help=text)
    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, environment, config file, and flags."""
    values = RunConfig(command=args.command).as_dict()
    env_root = os.environ.get("SGCN_DATA_ROOT")
    if env_root:
        values["data_root"] = env_root
    if args.config is not None:
        for key, text in read_config_file(args.config).items():
            if key == "command":
                continue  # the subcommand on the command line governs
            if key not in values:
                raise ConfigError(f"{args.config}: unknown config key {key!r}")
            try:
                values[key] = _KEY_TYPES[key](text)
            except ValueError as err:
                raise ConfigError(f"config key {key}: {err}") from err
    for key in _FLAGS:
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return RunConfig(**values)


def _prepare_out(run: RunConfig, cfg: ModelConfig) -> Path:
    """Create the output directory; the echo carries the xi the run used."""
    out = Path(run.out)
    out.mkdir(parents=True, exist_ok=True)
    write_config_file(out / "resolved.cfg", replace(run, xi=cfg.xi).as_dict())
    return out


def _require(value: str, what: str) -> str:
    if not value:
        raise ConfigError(f"{what} not set; pass --{what.replace('_', '-')}"
                          + (" or set SGCN_DATA_ROOT" if what == "data_root" else ""))
    return value


def _load_tables(run: RunConfig) -> dict:
    return load_dataset(_require(run.data_root, "data_root"))


def _load_scene_input(run: RunConfig, t_obs: int):
    """Observation window of ``--scene-file`` for predict/dump-graphs."""
    path = _require(run.scene_file, "scene_file")
    scene, dropped = last_observation(load_scene_file(path), t_obs, path)
    if dropped:
        logger.warning("%s: dropping pedestrians with incomplete observation: %s", path, dropped)
    return scene


def _load_weights(run: RunConfig) -> tuple:
    weights, cfg = load_checkpoint(_require(run.checkpoint, "checkpoint"))
    if run.xi is not None:
        cfg = replace(cfg, xi=run.xi)
    return weights, cfg


def cmd_train(run: RunConfig) -> int:
    model_cfg = ModelConfig() if run.xi is None else ModelConfig(xi=run.xi)
    train_cfg = TrainConfig(epochs=run.epochs, batch_size=run.batch_size, lr=run.lr, seed=run.seed)
    scenes = training_windows(_load_tables(run), run.holdout, model_cfg.t_obs, model_cfg.t_pred)
    if not scenes:
        raise ConfigError(f"no scene other than the holdout {run.holdout!r} has a complete window to train on")
    out = _prepare_out(run, model_cfg)
    checkpoint = out / "checkpoint.ckpt"
    train(
        scenes,
        model_cfg,
        train_cfg,
        checkpoint_path=checkpoint,
        loss_log_path=out / "loss_log.csv",
    )
    print(f"checkpoint: {checkpoint}")
    return 0


def cmd_eval(run: RunConfig) -> int:
    if run.num_samples < 1:
        raise ConfigError(f"num_samples must be >= 1, got {run.num_samples}")
    weights, cfg = _load_weights(run)
    scenes = window_scenes(holdout_table(_load_tables(run), run.holdout), cfg.t_obs, cfg.t_pred)
    if not scenes:
        raise ConfigError(f"the holdout {run.holdout!r} has no complete window to evaluate")
    report = evaluate_best_of_k(weights, cfg, scenes, k=run.num_samples, seed=run.seed)
    out = _prepare_out(run, cfg)
    write_metrics_csv(report, out / "metrics.csv")
    write_summary(report, out / "summary.txt")
    print(f"ADE {report.ade:.4f} FDE {report.fde:.4f} "
          f"({report.n_pedestrians} pedestrians, {report.k} samples)")
    return 0


def cmd_predict(run: RunConfig) -> int:
    if run.num_samples < 0:
        raise ConfigError(f"num_samples must be >= 0, got {run.num_samples}")
    weights, cfg = _load_weights(run)
    scene = _load_scene_input(run, cfg.t_obs)
    [params] = map_groups(lambda _: [predict(scene.displacements_obs, weights, cfg)], [scene])
    out = _prepare_out(run, cfg)
    last = scene.positions_obs[-1]
    samples = sample_trajectory(params, last, np.random.default_rng(run.seed), run.num_samples)
    path = out / "predictions.csv"
    path.write_text(predictions_text(scene.pedestrian_ids, scene.positions_obs, mu_trajectory(params, last),
                                     params, samples))
    print(f"predictions: {path} ({scene.n_pedestrians} pedestrians, {run.num_samples} samples)")
    return 0


def predictions_text(ids, obs, mu_path, params, samples) -> str:
    """``predictions.csv``: per pedestrian, obs steps, mu steps (with the Gaussian), then each sample's steps.

    ``obs`` is [T_obs, N, 2], ``mu_path`` [T_pred, N, 2] and ``samples``
    [K, T_pred, N, 2].  One row template serves every pedestrian: its id
    is spliced in, then one ``%`` fills the ``%r`` cells from a
    ``tolist()`` of that pedestrian's values, so each float reads as its
    ``repr``.
    """
    k, t_pred, n, _ = samples.shape
    rows = [f",obs,,{t},%r,%r,,," for t in range(len(obs))]
    rows += [f",mu,,{t},%r,%r,%r,%r,%r" for t in range(t_pred)]
    rows += [f",sample,{s},{t},%r,%r,,," for s in range(1, k + 1) for t in range(t_pred)]
    pieces = [""] + [row + "\n" for row in rows]  # joined by an id, each row starts with it
    mu = np.concatenate([mu_path, params.sigma, params.rho[..., None]], axis=-1)  # x, y, sigma_x, sigma_y, rho
    parts = [obs.transpose(1, 0, 2), mu.transpose(1, 0, 2), samples.transpose(2, 0, 1, 3)]
    values = np.concatenate([part.reshape(n, -1) for part in parts], axis=1)  # one row per pedestrian
    chunks = ["ped_id,kind,sample,step,x,y,sigma_x,sigma_y,rho\n"]
    for pid, row in zip(ids, values):
        chunks.append(str(pid).join(pieces) % tuple(row.tolist()))
    return "".join(chunks)


def cmd_dump_graphs(run: RunConfig) -> int:
    weights, cfg = _load_weights(run)
    scene = _load_scene_input(run, cfg.t_obs)
    [(_, spatial, temporal)] = map_groups(lambda _: [forward(scene.displacements_obs, weights, cfg)], [scene])
    out = _prepare_out(run, cfg)
    ids = scene.pedestrian_ids

    def matrix_lines(m: np.ndarray):
        return [" ".join(map(repr, row)) for row in m.tolist()]

    lines = [f"# pedestrians: {' '.join(str(p) for p in ids)}"]
    for t in range(cfg.t_obs):
        lines.append(f"# spatial step {t}")
        lines.extend(matrix_lines(spatial.normalized.data[t]))
    for ni, pid in enumerate(ids):
        lines.append(f"# temporal pedestrian {pid}")
        lines.extend(matrix_lines(temporal.normalized.data[ni]))
    path = out / "graphs.txt"
    path.write_text("\n".join(lines) + "\n")
    print(f"graphs: {path}")
    return 0


_COMMANDS = {
    "train": cmd_train,
    "eval": cmd_eval,
    "predict": cmd_predict,
    "dump-graphs": cmd_dump_graphs,
}


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](resolve_config(args))
    except (SgcnError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
