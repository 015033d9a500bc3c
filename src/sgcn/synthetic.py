"""Deterministic synthetic pedestrian scenes in the trajectory file format.

The real benchmark recordings are not bundled, so tests and desk-scale
runs use generated crowds: goal-directed walkers crossing a shared area
at ~1.3 m/s with heading noise, sampled every 0.4 s (10 raw frames).
Coordinates are snapped to a 1/64 m grid so displacement round-trips
are exact in double precision and text round-trips are exact via repr.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

SCENE_SEEDS = {"ETH": 11, "HOTEL": 22, "UNIV": 33, "ZARA1": 44, "ZARA2": 55}
FRAME_STEP = 10  # raw frames between recorded observations (0.4 s at 25 fps)
GRID = 64  # coordinates are multiples of 1/64 m
_AREA = (15.0, 12.0)
_EDGES = 4


def _snap(value: np.ndarray) -> np.ndarray:
    return np.round(value * GRID) / GRID


def _edge_point(rng, edge: int) -> np.ndarray:
    w, h = _AREA
    u = rng.uniform(0.08, 0.92)
    return np.array(
        [(u * w, 0.0), (u * w, h), (0.0, u * h), (w, u * h)][edge]
    )


class _Walker:
    def __init__(self, rng, pid: int, born: int):
        self.pid = pid
        self.born = born
        edge = rng.integers(_EDGES)
        self.pos = _edge_point(rng, edge)
        exit_edge = (edge + rng.integers(1, _EDGES)) % _EDGES
        self.goal = _edge_point(rng, exit_edge)
        self.speed = float(np.clip(rng.normal(1.3, 0.2), 0.6, 2.0))
        self.steps = 0

    def advance(self, rng) -> bool:
        """Move one recorded step; False when the walker leaves the scene."""
        to_goal = self.goal - self.pos
        dist = float(np.hypot(*to_goal))
        if dist < 0.6 or self.steps >= 45:
            return False
        heading = np.arctan2(to_goal[1], to_goal[0]) + rng.normal(0.0, 0.15)
        step = self.speed * 0.4
        self.pos = self.pos + step * np.array([np.cos(heading), np.sin(heading)])
        self.steps += 1
        return True


def generate_scene_rows(seed: int, n_steps: int = 520, spawn_prob: float = 0.35):
    """Rows (frame, pedestrian, x, y) for one synthetic crowd recording."""
    rng = np.random.default_rng(seed)
    rows = []
    walkers = []
    next_pid = 1
    for _ in range(3):  # initial crowd
        walkers.append(_Walker(rng, next_pid, 0))
        next_pid += 1
    for t in range(n_steps):
        if rng.uniform() < spawn_prob or not walkers:
            walkers.append(_Walker(rng, next_pid, t))
            next_pid += 1
        for w in walkers:
            p = _snap(w.pos)
            rows.append((t * FRAME_STEP, w.pid, float(p[0]), float(p[1])))
        walkers = [w for w in walkers if w.advance(rng)]
    return rows


def write_scene_file(path, rows) -> None:
    # repr keeps the 1/64-grid coordinates exact through the text round-trip.
    with open(path, "w", newline="\n") as fh:
        for frame, pid, x, y in rows:
            fh.write(f"{frame} {pid} {x!r} {y!r}\n")


def write_dataset(data_root, n_steps: int = 520) -> dict:
    """Write one file per scene under ``data_root``; returns name -> path."""
    root = Path(data_root)
    root.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name, seed in SCENE_SEEDS.items():
        path = root / f"{name.lower()}.txt"
        write_scene_file(path, generate_scene_rows(seed, n_steps=n_steps))
        paths[name] = path
    return paths
