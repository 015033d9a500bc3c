"""Displacement-error metrics and best-of-K sampled evaluation.

ADE is the mean Euclidean distance over all predicted steps and
pedestrians; FDE the mean distance at the final step.  Evaluation draws
K trajectories per scene and keeps, per pedestrian, the sample with the
smallest ADE; that same sample supplies the pedestrian's FDE.  Each
scene owns a spawned child seed, so results are independent of
evaluation order and of the number of worker threads.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import ModelConfig
from .errors import ConfigError
from .model import mu_trajectory, predict, sample_trajectory


def ade(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean L2 distance over steps and pedestrians, in meters."""
    if pred.shape != gt.shape:
        raise ConfigError(f"prediction shape {pred.shape} != ground truth {gt.shape}")
    return float(np.linalg.norm(pred - gt, axis=-1).mean())


def fde(pred: np.ndarray, gt: np.ndarray) -> float:
    """Mean L2 distance at the final step only."""
    if pred.shape != gt.shape:
        raise ConfigError(f"prediction shape {pred.shape} != ground truth {gt.shape}")
    return float(np.linalg.norm(pred[-1] - gt[-1], axis=-1).mean())


@dataclass
class MetricsReport:
    ade: float
    fde: float
    n_pedestrians: int
    n_scenes: int
    k: int
    seed: int
    per_scene: dict = field(default_factory=dict)
    wall_clock_s: float = 0.0


def _path_errors(paths: np.ndarray, gt: np.ndarray) -> tuple:
    """Per-pedestrian (ADE, FDE) of paths [..., T, N, 2] against ground truth [T, N, 2]."""
    dist = np.linalg.norm(paths - gt, axis=-1)
    return dist.mean(axis=-2), dist[..., -1, :]


def _scene_best_of_k(scene, weights, cfg, k, child_seed):
    """Per-pedestrian (best ADE, its FDE) for one scene."""
    params = predict(scene.displacements_obs, weights, cfg)
    samples = sample_trajectory(params, scene.positions_obs[-1], np.random.default_rng(child_seed), k)
    ade_kn, fde_kn = _path_errors(samples, scene.positions_fut)
    best = np.argmin(ade_kn, axis=0)
    picked = np.arange(scene.n_pedestrians)
    return ade_kn[best, picked], fde_kn[best, picked]


def evaluate_best_of_k(weights, cfg: ModelConfig, scenes, k: int = 20, seed: int = 0, jobs: int = 1) -> MetricsReport:
    """Best-of-K metrics over test scenes; deterministic for a given seed."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if not scenes:
        raise ConfigError("evaluation requires at least one scene window")
    start = time.monotonic()
    children = np.random.SeedSequence(seed).spawn(len(scenes))

    def run(pair):
        scene, child = pair
        return _scene_best_of_k(scene, weights, cfg, k, child)

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run, zip(scenes, children)))
    else:
        results = [run(pair) for pair in zip(scenes, children)]

    all_ade = np.concatenate([r[0] for r in results])
    all_fde = np.concatenate([r[1] for r in results])
    per_scene: dict = {}
    for scene, (a, f) in zip(scenes, results):
        entry = per_scene.setdefault(scene.scene_name, [0.0, 0.0, 0])
        entry[0] += a.sum()
        entry[1] += f.sum()
        entry[2] += len(a)
    per_scene = {
        name: (float(total_a / count), float(total_f / count), count)
        for name, (total_a, total_f, count) in per_scene.items()
    }
    return MetricsReport(
        ade=float(all_ade.mean()),
        fde=float(all_fde.mean()),
        n_pedestrians=int(len(all_ade)),
        n_scenes=len(scenes),
        k=k,
        seed=seed,
        per_scene=per_scene,
        wall_clock_s=time.monotonic() - start,
    )


def mu_path_metrics(weights, cfg: ModelConfig, scenes) -> tuple:
    """(ADE, FDE) of the deterministic mean path, no sampling."""
    if not scenes:
        raise ConfigError("evaluation requires at least one scene window")
    ades, fdes = zip(*(
        _path_errors(mu_trajectory(predict(scene.displacements_obs, weights, cfg), scene.positions_obs[-1]),
                     scene.positions_fut)
        for scene in scenes
    ))
    return float(np.concatenate(ades).mean()), float(np.concatenate(fdes).mean())


def write_metrics_csv(report: MetricsReport, path) -> None:
    """Deterministic CSV: overall row plus one row per scene (no timestamps)."""
    lines = ["scope,ade,fde,pedestrians"]
    lines.append(f"overall,{report.ade!r},{report.fde!r},{report.n_pedestrians}")
    for name in sorted(report.per_scene):
        a, f, count = report.per_scene[name]
        lines.append(f"{name},{float(a)!r},{float(f)!r},{count}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_summary(report: MetricsReport, path) -> None:
    """Human-readable summary; the only metrics artifact carrying wall clock."""
    lines = [
        f"scenes evaluated: {report.n_scenes}",
        f"pedestrians evaluated: {report.n_pedestrians}",
        f"samples per pedestrian: {report.k}",
        f"seed: {report.seed}",
        f"ADE: {report.ade:.4f} m",
        f"FDE: {report.fde:.4f} m",
        f"wall clock: {report.wall_clock_s:.2f} s",
    ]
    Path(path).write_text("\n".join(lines) + "\n")
