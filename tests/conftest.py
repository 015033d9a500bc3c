"""Shared fixtures and oracles.

Small deterministic scenes, one session-wide overfit run, the fused
layers' PReLU oracle, the one finite-difference gradient checker and a
disk that fills up on the first write.
"""

import builtins
import errno
import io
import time
from types import SimpleNamespace

import numpy as np
import pytest

from sgcn import autodiff as ad
from sgcn import data as sgcn_data
from sgcn import model as sgcn_model
from sgcn import training as sgcn_training
from sgcn.config import ModelConfig, TrainConfig


def prelu(x, slope):
    """Parametric ReLU with a scalar slope as one tape node: identity for x >= 0, slope * x otherwise.

    The oracle of ``ad.gcn_layer``, ``ad.conv2d_prelu`` and ``ad.conv_cascade``.
    It is built from the fused layers' own ``_prelu_factor`` and ``_prelu_vjp``,
    so composed forms round as they do; ``add`` and ``mul`` would round differently.
    """
    x, slope = ad.as_tensor(x), ad.as_tensor(slope)
    neg = x.data < 0
    out = x.data * ad._prelu_factor(neg, slope)

    def vjp(g):
        return ad._prelu_vjp(g, x.data, neg, slope)

    return ad.Tensor(out, _parents=(x, slope), _vjp=vjp, _op="prelu")


def finite_diff_check_params(loss_fn, params) -> dict:
    """Compare analytic gradients of the one-element ``loss_fn()`` against central differences.

    ``params`` maps name -> leaf Tensor; each is marked requires_grad and
    every element is perturbed in place by +-1e-4 and restored.  Returns
    name -> max over elements of |analytic - central| / (|central| + 1e-8).
    """
    h = 1e-4
    for p in params.values():
        p.requires_grad = True
        p.grad = None
    ad.backward(loss_fn())
    errors = {}
    for name, p in params.items():
        analytic = np.zeros(p.shape) if p.grad is None else p.grad
        central = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn().data.item()
            flat[i] = orig - h
            lo = loss_fn().data.item()
            flat[i] = orig
            central.reshape(-1)[i] = (hi - lo) / (2.0 * h)
        rel = np.abs(analytic - central) / (np.abs(central) + 1e-8)
        errors[name] = float(rel.max()) if rel.size else 0.0
    return errors


@pytest.fixture
def fill_disk(monkeypatch):
    """A function that makes every later ``open`` for writing succeed, then fail with ENOSPC.

    The file opens (and truncates) for writing, as on a full disk; its
    first write then finds no space.
    """
    real_open = io.open

    def open_then_fill_disk(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            fh.close()
            raise OSError(errno.ENOSPC, "No space left on device")
        return fh

    def fill():
        monkeypatch.setattr(io, "open", open_then_fill_disk)
        monkeypatch.setattr(builtins, "open", open_then_fill_disk)

    return fill


# Overfit recipe, frozen after a weight-seed robustness scan: seeds 0-4 all
# reach mu-path ADE < 0.05 on the fixtures below, seed 3 lands near 0.006
# with the largest margin.  One optimizer step per epoch (batch covers both
# scenes), so 500 epochs == 500 optimizer steps.
OVERFIT_WEIGHT_SEED = 3
OVERFIT_MODEL = ModelConfig()
OVERFIT_TRAIN = TrainConfig(
    epochs=500,
    batch_size=2,
    lr=3e-3,
    lr_decay_factor=0.3,
    lr_decay_interval=150,
    seed=0,
)

# Two three-pedestrian constant-velocity scenes.  The 0.01 m positional
# jitter is load-bearing: exactly collinear points let the bi-Gaussian
# NLL push sigma to its floor, and the exploding curvature then stalls
# the optimizer short of the ADE target.
FIXTURE_SCENES = (
    ("fix1", [[0.5, 0.0], [0.0, 0.4], [-0.4, 0.1]], [[0.0, 2.0], [3.0, 0.0], [9.0, 5.0]], 2),
    ("fix2", [[-0.3, 0.3], [0.4, -0.2], [0.2, 0.4]], [[8.0, 1.0], [1.0, 6.0], [0.0, 0.0]], 102),
)
FIXTURE_JITTER = 0.01
FIXTURE_FRAME_STEP = 10


def fixture_positions(velocities, origins, seed, jitter=FIXTURE_JITTER, steps=20):
    """[steps, N, 2] jittered straight-line walks."""
    vel = np.asarray(velocities, dtype=np.float64)
    org = np.asarray(origins, dtype=np.float64)
    rng = np.random.default_rng(seed)
    pos = org[None] + np.arange(steps)[:, None, None] * vel[None]
    return pos + rng.normal(scale=jitter, size=pos.shape)


def write_trajectory_file(path, positions, frame_step=FIXTURE_FRAME_STEP, ids=None):
    """Write [T, N, 2] positions as `frame id x y` rows, ids 1..N unless given."""
    ids = range(1, positions.shape[1] + 1) if ids is None else ids
    lines = []
    for t in range(positions.shape[0]):
        for n, pid in enumerate(ids):
            x, y = float(positions[t, n, 0]), float(positions[t, n, 1])
            lines.append(f"{t * frame_step} {pid} {x!r} {y!r}")
    path.write_text("\n".join(lines) + "\n")


def write_fixture_dataset(root):
    """Fixture scene files plus a one-pedestrian DUMMY holdout scene."""
    for name, vel, org, seed in FIXTURE_SCENES:
        write_trajectory_file(root / f"{name}.txt", fixture_positions(vel, org, seed))
    write_trajectory_file(root / "dummy.txt", fixture_positions([[0.3, 0.2]], [[1.0, 1.0]], 7))


def overfit_training_scenes(root):
    """The two fixture windows, parsed back from disk (one window per file)."""
    tables = sgcn_data.load_dataset(root)
    scenes = []
    for name, _, _, _ in FIXTURE_SCENES:
        windows = sgcn_data.window_scenes(tables[name.upper()], OVERFIT_MODEL.t_obs, OVERFIT_MODEL.t_pred)
        assert len(windows) == 1
        scenes.extend(windows)
    return scenes


@pytest.fixture(scope="session")
def fixture_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("fixture_data")
    write_fixture_dataset(root)
    return root


@pytest.fixture(scope="session")
def overfit_run(fixture_root, tmp_path_factory):
    """Weights trained to convergence on the two fixture scenes.

    Trained once per session; the namespace carries everything the
    consumers need (weights, configs, scenes, loss rows, checkpoint
    path, data root, wall-clock seconds of the training call).
    """
    scenes = overfit_training_scenes(fixture_root)
    checkpoint = tmp_path_factory.mktemp("overfit") / "checkpoint.ckpt"
    weights = sgcn_model.init_weights(OVERFIT_MODEL, seed=OVERFIT_WEIGHT_SEED)
    start = time.monotonic()
    weights, rows = sgcn_training.train(
        scenes, OVERFIT_MODEL, OVERFIT_TRAIN, weights=weights, checkpoint_path=checkpoint
    )
    train_seconds = time.monotonic() - start
    return SimpleNamespace(
        weights=weights,
        rows=rows,
        scenes=scenes,
        model_cfg=OVERFIT_MODEL,
        train_cfg=OVERFIT_TRAIN,
        checkpoint=checkpoint,
        data_root=fixture_root,
        train_seconds=train_seconds,
    )
