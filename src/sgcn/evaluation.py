"""Displacement-error metrics and best-of-K sampled evaluation.

ADE is the mean Euclidean distance over all predicted steps and
pedestrians; FDE the mean distance at the final step.  Evaluation draws
K trajectories per scene and keeps, per pedestrian, the sample with the
smallest ADE; that same sample supplies the pedestrian's FDE.

``model.map_groups`` groups scenes of equal pedestrian count (see
``model.GROUP_PEDESTRIANS``) and each group runs one forward pass on
constant weights, so inference records no autodiff tape.  Each group is
then scored in one vectorized pass: its K samples per window, their
paths, errors and best-of-K pick are each one array operation over the
whole group.  Each scene still draws its normals from its own spawned
child seed, and its forward output and every scoring step are
elementwise or per-window reductions, so results are identical for any
grouping and evaluation order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, scope
from .config import ModelConfig, TrainConfig, write_atomically
from .errors import ConfigError
from .model import map_groups, mu_trajectory, predict, sample_trajectory


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
    """Per-pedestrian (ADE, FDE) of paths [..., T, N, 2] against ground truth that broadcasts to them.

    The distance is ``np.linalg.norm(axis=-1)``'s to the bit (a two-term
    sum has one rounding order), without its slow length-2 reduction.
    """
    offset = paths - gt
    dist = np.sqrt(offset[..., 0] * offset[..., 0] + offset[..., 1] * offset[..., 1])
    return dist.mean(axis=-2), dist[..., -1, :]


def _per_scene(score, weights, cfg: ModelConfig, scenes) -> list:
    """One result per scene, in scene order, from ``score(group, params)`` on each ``model.map_groups`` group.

    ``group`` is an equal-N group's scene indices and ``params`` its
    BiGaussianParams [B, T_pred, N, ...] from one tape-free forward pass;
    ``score`` returns one result per index, in group order.  The pass
    reads constant weight copies, so records no tape; a non-finite weight
    fails its exit checks, and ``map_groups``' rerun names the op.
    """
    if not scenes:
        raise ConfigError("evaluation requires at least one scene window")
    with scope(deferred=True):
        frozen = {name: Tensor(p.data) for name, p in weights.items()}

    def run(group):
        return score(group, predict(np.stack([scenes[i].displacements_obs for i in group]), frozen, cfg))

    return map_groups(run, scenes)


def _group_truth(scenes, group) -> tuple:
    """A group's last observed positions [B, N, 2] and future ground truth [B, T_pred, N, 2]."""
    return (np.stack([scenes[i].positions_obs[-1] for i in group]),
            np.stack([scenes[i].positions_fut for i in group]))


def evaluate_best_of_k(weights, cfg: ModelConfig, scenes, k: int = 20, seed: int = 0, jobs: int = 1) -> MetricsReport:
    """Best-of-K metrics over test scenes; deterministic for a given seed.

    ``jobs`` changes nothing: every pass runs on the caller's thread.  It
    stays only because ``bench/run.py`` passes it; ROADMAP item 6 deletes
    it with its bench change.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    TrainConfig(seed=seed)  # TrainConfig states the seed rule
    start = time.monotonic()
    children = np.random.SeedSequence(seed).spawn(len(scenes))

    def best_of_k(group, params):
        """Per-pedestrian (best ADE, its FDE) for each scene of the group."""
        last, gt = _group_truth(scenes, group)
        rngs = [np.random.default_rng(children[i]) for i in group]
        ade_bkn, fde_bkn = _path_errors(sample_trajectory(params, last, rngs, k), gt[:, None])
        best = np.argmin(ade_bkn, axis=1)[:, None]  # [B, 1, N]
        return list(zip(np.take_along_axis(ade_bkn, best, axis=1)[:, 0],
                        np.take_along_axis(fde_bkn, best, axis=1)[:, 0]))

    results = _per_scene(best_of_k, weights, cfg, scenes)

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
    def mu_path(group, params):
        last, gt = _group_truth(scenes, group)
        return list(zip(*_path_errors(mu_trajectory(params, last), gt)))

    ades, fdes = zip(*_per_scene(mu_path, weights, cfg, scenes))
    return float(np.concatenate(ades).mean()), float(np.concatenate(fdes).mean())


def write_metrics_csv(report: MetricsReport, path) -> None:
    """Deterministic CSV: overall row plus one row per scene (no timestamps), through ``write_atomically``."""
    lines = ["scope,ade,fde,pedestrians"]
    lines.append(f"overall,{report.ade!r},{report.fde!r},{report.n_pedestrians}")
    for name in sorted(report.per_scene):
        a, f, count = report.per_scene[name]
        lines.append(f"{name},{float(a)!r},{float(f)!r},{count}")
    write_atomically(path, ("\n".join(lines) + "\n").encode())


def write_summary(report: MetricsReport, path) -> None:
    """Human-readable summary, through ``write_atomically``; the only metrics artifact carrying wall clock."""
    lines = [
        f"windows evaluated: {report.n_scenes}",
        f"pedestrians evaluated: {report.n_pedestrians}",
        f"samples per pedestrian: {report.k}",
        f"seed: {report.seed}",
        f"ADE: {report.ade:.4f} m",
        f"FDE: {report.fde:.4f} m",
        f"wall clock: {report.wall_clock_s:.2f} s",
    ]
    write_atomically(path, ("\n".join(lines) + "\n").encode())
