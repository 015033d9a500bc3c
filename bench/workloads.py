"""Seeded synthetic inputs for the three benchmark workloads.

Every workload is a five-scene dataset in sgcn's ``frame id x y`` text
format, written by the program's own crowd generator
(``synthetic.generate_scene_rows``) with scene seeds drawn from the
benchmark seed, so one seed always gives the same files.  ZARA2 is the
held-out scene, as in ``sgcn train``'s default.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from sgcn import synthetic

SCENES = ("ETH", "HOTEL", "UNIV", "ZARA1", "ZARA2")
HOLDOUT = "ZARA2"
# Pedestrian ids of overlay k are shifted by k * ID_STRIDE; the generator
# numbers pedestrians from 1 and spawns at most one per step, so ids of
# different overlays never meet while n_steps < ID_STRIDE.
ID_STRIDE = 100_000
# Pedestrian counts of the default crowd's windows at quantiles
# (i + 0.5) / 16, pooled over seeds 100-103; mean 2.28.  The dense mix
# below is measured the same way (mean 45.6).
CROWD_SIZES = (1, 1, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 4, 5)


@dataclass(frozen=True)
class Workload:
    """Input shape and the amount of work in one measurement round."""

    n_steps: int          # recorded steps per scene
    spawn_prob: float     # per-step chance a pedestrian enters
    overlays: int         # recordings superimposed per scene
    sizes: tuple          # pedestrian counts at 16 quantiles of the typical window
    train_chunk: int      # windows per timed training.train call (one epoch)
    eval_chunk: int       # windows per timed evaluate_best_of_k call
    requests: int         # predict requests per round
    whole_recordings: bool  # predict on whole scene files instead of 8-frame clips
    repeats: int = 1      # back-to-back sends per predict request; its latency is their median


WORKLOADS = {
    # The default synthetic crowd: about two pedestrians per window, so
    # per-op tape overhead dominates training, eval and predict.  Its
    # predict requests take about 12 ms, short enough for one host hiccup
    # of a few ms to decide a request's time, so each is sent three times
    # back to back and the median send counts.
    "sparse-crowd": Workload(
        n_steps=520, spawn_prob=0.35, overlays=1, sizes=CROWD_SIZES, train_chunk=128, eval_chunk=64,
        requests=24, whole_recordings=False, repeats=3,
    ),
    # Eight always-spawning crowds per scene: about 45 pedestrians per
    # window and few windows sharing a pedestrian count, so the N^2 graph
    # tensors and conv/matmul FLOPs dominate.  Eval chunks are as large as
    # the ~101 test windows allow (4 x 24), so that eval windows/s is
    # measured over enough of a run to be steady.
    "dense-crowd": Workload(
        n_steps=120, spawn_prob=1.0, overlays=8,
        sizes=(31, 38, 40, 42, 43, 44, 45, 46, 47, 47, 48, 49, 50, 51, 53, 55), train_chunk=32, eval_chunk=24,
        requests=8, whole_recordings=False,
    ),
    # generate_data.py-sized scenes; each predict request parses a whole
    # recording, so parsing and the observation window dominate predict.
    "long-recording": Workload(
        n_steps=2000, spawn_prob=0.35, overlays=1, sizes=CROWD_SIZES, train_chunk=128, eval_chunk=96,
        requests=8, whole_recordings=True,
    ),
}


def scene_seeds(seed: int, count: int) -> list:
    """``count`` generator seeds derived from the benchmark seed."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def scene_rows(seeds, n_steps: int, spawn_prob: float) -> list:
    """One scene's rows: the recordings of ``seeds`` overlaid, ids kept disjoint."""
    rows = []
    for k, seed in enumerate(seeds):
        for frame, pid, x, y in synthetic.generate_scene_rows(seed, n_steps=n_steps, spawn_prob=spawn_prob):
            rows.append((frame, pid + k * ID_STRIDE, x, y))
    rows.sort(key=lambda row: (row[0], row[1]))
    return rows


def write_dataset(workload: Workload, seed: int, root) -> dict:
    """Write the workload's scene files under ``root``; returns scene name -> path."""
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    seeds = scene_seeds(seed, len(SCENES) * workload.overlays)
    paths = {}
    for i, name in enumerate(SCENES):
        own = seeds[i * workload.overlays:(i + 1) * workload.overlays]
        path = root / f"{name.lower()}.txt"
        synthetic.write_scene_file(path, scene_rows(own, workload.n_steps, workload.spawn_prob))
        paths[name] = path
    return paths


def write_clip(scene, path) -> None:
    """The observed 8 frames of one window as a scene file for ``sgcn predict``."""
    rows = []
    for t in range(scene.positions_obs.shape[0]):
        for n, pid in enumerate(scene.pedestrian_ids):
            x, y = scene.positions_obs[t, n]
            rows.append((scene.start_frame + t * synthetic.FRAME_STEP, pid, float(x), float(y)))
    synthetic.write_scene_file(path, rows)


def chunks_by_size(scenes, sizes, length: int, count: int, rng) -> list:
    """``count`` disjoint chunks of ``length`` windows that follow a size mix.

    ``sizes`` lists pedestrian counts at evenly spaced quantiles of the
    workload's typical distribution; each chunk takes, for every target
    count, a random unused window whose count is nearest to it.  The mix
    is fixed, so every seed and every chunk asks for the same amount of
    work while the trajectories differ.
    """
    buckets: dict = {}
    for i in rng.permutation(len(scenes)):
        buckets.setdefault(scenes[i].n_pedestrians, []).append(scenes[i])
    targets = [sizes[i * len(sizes) // length] for i in range(length)]
    chunks = []
    for _ in range(count):
        chunk = []
        for target in targets:
            n = min((n for n, bucket in buckets.items() if bucket), key=lambda n: (abs(n - target), n))
            chunk.append(buckets[n].pop())
        chunks.append(chunk)
    return chunks
