"""Negative-log-likelihood training with Adam and stepped lr decay.

Scenes have variable pedestrian counts, so a "batch" is a gradient
accumulation window: ``model.map_groups`` splits its scenes into groups
of equal pedestrian count, each group's backward pass adds in place into
``Adam``'s flat gradient, and Adam steps once per window on its average;
a parameter backward never reaches moves by exactly 0.  The objective
per scene is the bi-variate Gaussian NLL of the ground-truth future
displacements, summed over future steps and averaged over pedestrians.
"""

from __future__ import annotations

import ctypes
import functools
import logging

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .data import future_displacements
from .errors import ConfigError
from .model import forward, gaussian_terms, init_weights, map_groups, save_checkpoint, write_atomically

logger = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))
# Adam moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def nll_loss(raw: Tensor, gt_displacements: np.ndarray) -> Tensor:
    """Loss per window: -sum over steps, mean over pedestrians, of the log density.

    ``raw`` is the head output [T_pred, N, 5] (a scalar loss) or a group's
    [B, T_pred, N, 5] (losses [B]), mapped to a density by
    ``model.gaussian_terms``, as predictions are.
    """
    gt = np.asarray(gt_displacements, dtype=np.float64)
    n = raw.shape[-2]
    mu_x, mu_y, sigma_x, sigma_y, rho = gaussian_terms(raw)

    dx = (gt[..., 0] - mu_x) / sigma_x
    dy = (gt[..., 1] - mu_y) / sigma_y
    one_minus_r2 = 1.0 - rho * rho
    z = dx * dx - 2.0 * rho * dx * dy + dy * dy
    log_pdf = (
        -LOG_2PI
        - ad.log(sigma_x)
        - ad.log(sigma_y)
        - 0.5 * ad.log(one_minus_r2)
        - z / (2.0 * one_minus_r2)
    )
    return -ad.tsum(log_pdf, axis=(-2, -1)) / float(n)


class Adam:
    """Adam with bias correction over flat float64 arrays ``data``, ``grad``, ``m`` and ``v``.

    The arrays follow sorted-name order, the checkpoint payload's order.  Each
    parameter is marked trainable, and its ``data`` and ``grad`` become views
    into them, which ``backward`` adds into in place.  A parameter backward
    never reaches keeps a zero gradient and moments, so it moves by exactly 0.
    Setting a parameter's ``grad`` to None detaches it from ``grad``.
    """

    def __init__(self, weights: dict):
        params = [weights[name] for name in sorted(weights)]
        self.data = np.concatenate([p.data.ravel() for p in params])
        self.grad, self.m, self.v = (np.zeros_like(self.data) for _ in range(3))
        self.step_count = 0
        bounds = np.cumsum([p.data.size for p in params])[:-1]
        for p, data, grad in zip(params, np.split(self.data, bounds), np.split(self.grad, bounds)):
            p.data, p.grad = data.reshape(p.shape), grad.reshape(p.shape)
            p.requires_grad = True

    def step(self, lr: float, grad_scale: float = 1.0) -> None:
        """One update from ``grad * grad_scale``; then zeroes ``grad``.

        The update runs in place: ``grad`` holds g, then g * g, then the
        denominator, and one temporary holds (1 - b1) * g, then the update.
        Each operation rounds as in ``m = b1 * m + (1 - b1) * g`` and the
        other whole-array formulas.
        """
        self.step_count += 1
        g = self.grad
        g *= grad_scale
        work = (1.0 - ADAM_BETA1) * g
        self.m *= ADAM_BETA1
        self.m += work
        g *= g
        g *= 1.0 - ADAM_BETA2
        self.v *= ADAM_BETA2
        self.v += g
        denominator = np.sqrt(np.divide(self.v, 1.0 - ADAM_BETA2 ** self.step_count, out=g), out=g)
        denominator += ADAM_EPS
        update = np.divide(self.m, 1.0 - ADAM_BETA1 ** self.step_count, out=work)
        update *= lr
        update /= denominator
        self.data -= update
        g.fill(0.0)


def write_loss_log(rows, path) -> None:
    """CSV ``epoch,step,nll,lr``, written atomically; floats via repr for byte-stable output."""
    lines = ["epoch,step,nll,lr"]
    for epoch, step, nll, lr in rows:
        lines.append(f"{epoch},{step},{nll!r},{lr!r}")
    write_atomically(path, ("\n".join(lines) + "\n").encode())


def group_loss(scenes, weights: dict, model_cfg: ModelConfig) -> Tensor:
    """Losses [B] of equal-N scenes from one forward pass; each equals its group-of-one loss bit for bit."""
    raw, _, _ = forward(np.stack([s.displacements_obs for s in scenes]), weights, model_cfg)
    with ad.scope(stage="loss"):
        return nll_loss(raw, np.stack([future_displacements(s) for s in scenes]))


@functools.cache
def _keep_freed_memory() -> None:
    """Keep freed heap memory in the process instead of returning it to the kernel.

    Each training group frees its tape after ``backward``.  By default
    glibc trims the freed top of the heap and unmaps large chunks, so the
    next group takes a minor page fault per 4 KB page to get them back
    (about 2,400 on one N = 40 window).  Raising glibc's trim threshold to
    1 GiB and its mmap threshold to 32 MiB keeps that memory for reuse.
    The setting applies to the whole process and lasts until it exits.
    It works only with glibc; where the C library has no ``mallopt``,
    this does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library to open
        return
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD: trim the heap's top only above 1 GiB free
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: mmap only chunks of 32 MiB and up


def train(
    train_scenes,
    model_cfg: ModelConfig,
    train_cfg: TrainConfig,
    weights: dict | None = None,
    checkpoint_path=None,
    loss_log_path=None,
):
    """Optimize over windows; returns (weights, loss rows).

    Loss rows are (epoch, optimizer_step, mean window NLL, lr).  When
    paths are given, the checkpoint and then the loss log are rewritten
    atomically after every epoch, so both are usable mid-run.  A
    NumericsError names the window that fails alone
    (``model.map_groups``); windows rerun before it also run
    ``backward``, which is harmless, as the run aborts.
    The first call sets glibc to keep freed memory for the rest of the
    process (``_keep_freed_memory``), so later groups reuse the freed
    tapes of earlier ones; with another C library it changes nothing.
    """
    if not train_scenes:
        raise ConfigError("training requires at least one scene window")
    _keep_freed_memory()
    if weights is None:
        weights = init_weights(model_cfg, seed=train_cfg.seed)
    optimizer = Adam(weights)  # loaded checkpoints hold constants: Adam marks them trainable
    order_rng = np.random.default_rng(train_cfg.seed)
    rows = []
    for epoch in range(train_cfg.epochs):
        lr = train_cfg.lr_at(epoch)
        order = order_rng.permutation(len(train_scenes))
        for start in range(0, len(order), train_cfg.batch_size):  # the last window may be short
            window = [train_scenes[int(i)] for i in order[start : start + train_cfg.batch_size]]

            def backward_group(group):
                losses = group_loss([window[i] for i in group], weights, model_cfg)
                ad.backward(ad.tsum(losses))
                return losses.data

            # permutation order: the row mean ignores the grouping
            losses = map_groups(backward_group, window)
            optimizer.step(lr, grad_scale=1.0 / len(window))
            rows.append((epoch, len(rows) + 1, float(np.mean(losses)), lr))
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, weights, model_cfg)
        if loss_log_path is not None:
            write_loss_log(rows, loss_log_path)
        logger.info("epoch %d done, lr %.2e, last window nll %.4f", epoch, lr, rows[-1][2])
    return weights, rows
