"""Trajectory file parsing, windowing, displacement conversion, and splits.

Input files are plain text, one observation per line, whitespace-separated
fields `frame_id pedestrian_id x y` in that order, positions in meters.
Windowing slices each scene into fixed-length observation + prediction
samples; the model consumes per-step displacements and absolute
positions are recovered by cumulative summation.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RawTrajectoryTable:
    """Parsed scene file, sorted by (frame, pedestrian)."""

    name: str
    frames: np.ndarray
    ped_ids: np.ndarray
    xy: np.ndarray


@dataclass(frozen=True)
class TrajectoryScene:
    """One windowed sample: N pedestrians over t_obs + t_pred frames."""

    pedestrian_ids: tuple
    positions_obs: np.ndarray
    positions_fut: np.ndarray
    start_frame: int = 0
    scene_name: str = ""

    @property
    def n_pedestrians(self) -> int:
        return len(self.pedestrian_ids)

    @property
    def displacements_obs(self) -> np.ndarray:
        """Per-step observation deltas; the first step is the zero vector."""
        disp = np.zeros_like(self.positions_obs)
        disp[1:] = self.positions_obs[1:] - self.positions_obs[:-1]
        return disp


@dataclass(frozen=True)
class DatasetSplit:
    train_scenes: list
    test_scenes: list


def _parse_int_field(token: str, what: str, where: str) -> int:
    # int() keeps ids beyond 2**53 exact; float() accepts exports that write ids as "1.0".
    shown = repr(token if len(token) <= 40 else token[:40] + "...")
    try:
        value = int(token)
    except ValueError:
        try:
            value = float(token)
        except ValueError:
            raise DataError(f"{where}: {what} {shown} is not numeric") from None
        if token.lstrip("+-").lower() in ("inf", "infinity") or not (math.isinf(value) or value.is_integer()):
            raise DataError(f"{where}: {what} {shown} is not integral")  # nan, inf, 10.5
    if abs(value) >= 2**63:  # inf here: more digits than int() reads (4,300)
        raise DataError(f"{where}: {what} {shown} is outside the int64 range")
    return int(value)


def _read_records(path: Path) -> tuple | None:
    """(frames, ids, xy) from one ``np.loadtxt`` pass, or None where only :func:`_read_lines` can decide.

    Every field is read as float64, so ids spelled "10" and "10.0" both pass; the file is
    refused unless each frame and id is integral and below 2**53 in magnitude, where
    float64 holds it exactly, and each position is finite.  loadtxt refuses every other
    row the per-line rules refuse.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns on a file with no rows
            table = np.loadtxt(fh, dtype=np.float64, comments=None, ndmin=2)
    except (ValueError, Warning):  # UnicodeDecodeError is a ValueError
        return None
    if table.shape[1] != 4:
        return None
    ids, xy = table[:, :2], table[:, 2:]
    if not ((np.abs(ids) < 2**53) & (ids == np.floor(ids))).all() or not np.isfinite(xy).all():  # nan, inf
        return None
    return ids[:, 0].astype(np.int64), ids[:, 1].astype(np.int64), xy


def _read_lines(path: Path) -> tuple:
    """(frames, ids, xy) line by line; the only reader that names the line of a fault."""
    frames, ped_ids, xs, ys = [], [], [], []
    with open(path, errors="surrogateescape") as fh:  # an undecodable byte reads as one lone surrogate
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            where = f"{path}:{lineno}"
            if not stripped.isascii():
                bad = [ord(c) - 0xDC00 for c in stripped if "\udc80" <= c <= "\udcff"]
                if bad:
                    raise DataError(f"{where}: byte {bad[0]:#04x} is not {fh.encoding} text")
            tokens = stripped.split()
            if len(tokens) != 4:
                raise DataError(f"{where}: expected 4 fields, got {len(tokens)}")
            frames.append(_parse_int_field(tokens[0], "frame_id", where))
            ped_ids.append(_parse_int_field(tokens[1], "pedestrian_id", where))
            try:
                x, y = float(tokens[2]), float(tokens[3])
            except ValueError:
                raise DataError(f"{where}: position fields must be numeric") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise DataError(f"{where}: position fields must be finite")
            xs.append(x)
            ys.append(y)

    if not frames:
        raise DataError(f"{path}: no trajectory rows")
    xy = np.column_stack([xs, ys]).astype(np.float64)
    return np.asarray(frames, dtype=np.int64), np.asarray(ped_ids, dtype=np.int64), xy


def _record_lines(path: Path, records: list) -> list:
    """File line numbers of ``records``, indices among the non-blank lines, which both readers read as rows."""
    with open(path, errors="surrogateescape") as fh:
        rows = [lineno for lineno, line in enumerate(fh, start=1) if line.strip()]
    return [rows[r] for r in records]


def load_scene_file(path) -> RawTrajectoryTable:
    """Parse one scene file into a table named by its upper-cased stem; errors carry line numbers.

    One ``np.loadtxt`` pass reads the file; a file it cannot vouch for is read
    again by the per-line rules, which name the file and line of a fault.
    """
    path = Path(path)
    frames, ped_ids, xy = _read_records(path) or _read_lines(path)
    order_idx = np.lexsort((ped_ids, frames))
    frames, ped_ids, xy = frames[order_idx], ped_ids[order_idx], xy[order_idx]

    repeated = (frames[1:] == frames[:-1]) & (ped_ids[1:] == ped_ids[:-1])
    if repeated.any():
        i = int(np.argmax(repeated))
        first, again = _record_lines(path, order_idx[i:i + 2].tolist())  # the stable sort keeps file order
        raise DataError(
            f"{path}:{again}: duplicate (frame, pedestrian) observation ({frames[i]}, {ped_ids[i]}) of line {first}"
        )

    return RawTrajectoryTable(name=path.stem.upper(), frames=frames, ped_ids=ped_ids, xy=xy)


def _distinct_frames(frames: np.ndarray) -> np.ndarray:
    """Sorted distinct frames of a table's frame column, which the table keeps sorted."""
    first = np.ones(len(frames), bool)
    first[1:] = frames[1:] != frames[:-1]  # `!=` cannot wrap as an int64 difference can
    return frames[first]


def _frame_step(distinct: list) -> int:
    """Smallest gap between consecutive ``distinct`` frames (1 for one frame), in Python ints, which cannot wrap."""
    return min((b - a for a, b in zip(distinct, distinct[1:])), default=1)


def reconstruct_positions(origin: np.ndarray, displacements: np.ndarray) -> np.ndarray:
    """Invert displacement conversion: origin + running sum of deltas.

    ``origin`` is [N, 2]; ``displacements`` is [T, N, 2], or [K, T, N, 2]
    for K sampled sequences, where step 0 is the delta from the origin.
    Any origin that broadcasts against them works, such as a group's
    [B, 1, 1, N, 2] against [B, K, T, N, 2].
    Exact inverse of the conversion on data whose coordinates are
    representable sums (binary-fraction grids).
    """
    return origin + np.cumsum(displacements, axis=-3)


def future_displacements(scene: TrajectoryScene) -> np.ndarray:
    """Training targets: per-step deltas of the future, anchored at the last observation."""
    fut = scene.positions_fut
    out = np.empty_like(fut)
    out[0] = fut[0] - scene.positions_obs[-1]
    out[1:] = fut[1:] - fut[:-1]
    return out


def _runs(frames: np.ndarray, ped_ids: np.ndarray, unique: np.ndarray, length: int) -> tuple:
    """(start, rows) of every run of ``length`` consecutive ``unique`` frames one pedestrian is present at.

    The rows must be in the table's (frame, pedestrian) order.  ``rows[r]`` holds run r's indices into
    ``frames`` in frame order, ``start[r]`` the index in ``unique`` (the sorted distinct frames) of its
    first frame.  Runs are ordered by (start, pedestrian).
    """
    order = np.argsort(ped_ids, kind="stable")  # (pedestrian, frame) order, since the rows are in frame order
    at = np.searchsorted(unique, frames[order])
    peds = ped_ids[order]
    follows = (peds[1:] == peds[:-1]) & (at[1:] == at[:-1] + 1)  # row i + 1 continues row i's run
    done = np.concatenate(([0], np.cumsum(follows)))
    first = np.arange(len(order) - length + 1)
    first = first[done[first + length - 1] - done[first] == length - 1]
    first = first[np.argsort(at[first], kind="stable")]  # runs with one start stay in pedestrian order
    return at[first], order[first[:, None] + np.arange(length)]


def _cut(table: RawTrajectoryTable, rows: np.ndarray, edges: list, t_obs: int) -> list:
    """Scenes of the runs ``rows[a:b]`` between consecutive ``edges``; runs share each scene's first frame.

    One gather reads every run's positions; each scene copies its slice, so it owns
    C-contiguous arrays and keeps no other scene's positions alive.  The first ``t_obs``
    frames are observed, the rest future.
    """
    block = table.xy[rows.T]  # [T, runs, 2]
    ids = table.ped_ids[rows[:, 0]].tolist()
    starts = table.frames[rows[edges[:-1], 0]].tolist()
    scenes = []
    for a, b, start_frame in zip(edges, edges[1:], starts):
        pos = block[:, a:b].copy()
        scenes.append(TrajectoryScene(tuple(ids[a:b]), pos[:t_obs], pos[t_obs:], start_frame, table.name))
    return scenes


def window_scenes(table: RawTrajectoryTable, t_obs: int, t_pred: int) -> list:
    """Slice a table into complete observation+prediction windows.

    A window starts at every distinct frame whose next t_obs + t_pred
    distinct frames are uniformly spaced by the dataset frame step.  A
    pedestrian joins a window only when present at every one of its
    frames; windows with no qualifying pedestrian are dropped.  Relies on
    the table's (frame, pedestrian) row order.
    """
    if t_obs < 1 or t_pred < 1:
        raise ConfigError(f"t_obs, t_pred must be >= 1, got {t_obs}, {t_pred}")
    total = t_obs + t_pred
    unique = _distinct_frames(table.frames)
    distinct = unique.tolist()  # spacing in Python ints, which cannot wrap as int64 differences can
    span = (total - 1) * _frame_step(distinct)
    uniform = np.array([last - first == span for first, last in zip(distinct, distinct[total - 1:])], bool)
    start, rows = _runs(table.frames, table.ped_ids, unique, total)
    keep = uniform[start]  # a recording gap interrupts the others
    start, rows = start[keep], rows[keep]
    edges = np.flatnonzero(np.diff(start, prepend=-1)).tolist() + [len(start)]
    return _cut(table, rows, edges, t_obs)


def last_observation(table: RawTrajectoryTable, t_obs: int, source) -> tuple:
    """(observation-only scene of the last ``t_obs`` frames, sorted ids left out).

    Same rules and the same cut as :func:`window_scenes`.  The ids left out
    are those seen in the last ``t_obs`` frames but not at every one of
    them.  Too few frames, a gap, or nobody present at every frame raise a
    DataError naming ``source``.
    """
    unique = _distinct_frames(table.frames)
    distinct = unique.tolist()
    if len(distinct) < t_obs:
        raise DataError(f"{source}: needs at least {t_obs} distinct frames, found {len(distinct)}")
    if distinct[-1] - distinct[-t_obs] != (t_obs - 1) * _frame_step(distinct):
        raise DataError(f"{source}: recording gap inside the last {t_obs} frames")
    lo = int(np.searchsorted(table.frames, unique[-t_obs]))
    rows = lo + _runs(table.frames[lo:], table.ped_ids[lo:], unique[-t_obs:], t_obs)[1]
    ids = table.ped_ids[rows[:, 0]].tolist()
    dropped = sorted(set(table.ped_ids[lo:].tolist()).difference(ids))
    if not ids:
        raise DataError(
            f"{source}: no pedestrian observed at all of the last {t_obs} frames; "
            f"dropped pedestrians {dropped}"
        )
    return _cut(table, rows, [0, len(rows)], t_obs)[0], dropped


def load_dataset(data_root) -> dict:
    """Map scene name -> table for every *.txt file under ``data_root``.

    A scene name holding a comma is refused: it would split its row of
    the comma-separated ``metrics.csv``.
    """
    root = Path(data_root)
    if not root.is_dir():
        raise DataError(f"data root {root} is not a directory")
    tables, sources = {}, {}
    for path in sorted(root.glob("*.txt")):
        if "," in path.stem:
            raise DataError(f"{path}: scene name {path.stem.upper()!r} holds a ',', the field separator of metrics.csv")
        table = load_scene_file(path)
        if table.name in tables:
            raise DataError(f"{sources[table.name]} and {path} both name scene {table.name}")
        tables[table.name], sources[table.name] = table, path
    if not tables:
        raise DataError(f"no *.txt scene files under {root}")
    return tables


def holdout_table(tables: dict, holdout: str) -> RawTrajectoryTable:
    """The table of scene ``holdout``; a ConfigError lists the scenes when there is none."""
    if holdout not in tables:
        raise ConfigError(f"holdout {holdout!r} not among scenes {sorted(tables)}")
    return tables[holdout]


def training_windows(tables: dict, holdout: str, t_obs: int, t_pred: int) -> list:
    """Windows of every scene except ``holdout``, which must be one of ``tables``; it is not windowed."""
    holdout_table(tables, holdout)
    train = [w for name, table in tables.items() if name != holdout for w in window_scenes(table, t_obs, t_pred)]
    if not train:
        logger.warning("split with holdout %s has no training scenes", holdout)
    return train


def leave_one_out_split(tables: dict, holdout: str, t_obs: int, t_pred: int) -> DatasetSplit:
    """Train on every scene except ``holdout``; test on the holdout's windows."""
    test = window_scenes(holdout_table(tables, holdout), t_obs, t_pred)
    train = training_windows(tables, holdout, t_obs, t_pred)
    return DatasetSplit(train_scenes=train, test_scenes=test)
