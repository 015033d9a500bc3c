"""Negative-log-likelihood training with Adam and stepped lr decay.

Scenes have variable pedestrian counts, so a "batch" is a gradient
accumulation window: ``model.map_groups`` splits its scenes into groups
of equal pedestrian count, each group runs one forward and one backward
pass, accumulated gradients are averaged over the window, and Adam steps
once per window.  The objective per scene is the bi-variate Gaussian
NLL of the ground-truth future displacements, summed over future steps
and averaged over pedestrians.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .data import future_displacements
from .errors import ConfigError
from .model import forward, gaussian_scales, init_weights, map_groups, save_checkpoint, zero_grads

logger = logging.getLogger(__name__)

LOG_2PI = float(np.log(2.0 * np.pi))
# Adam moment decay rates and denominator guard
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
# Cap on the window-pedestrians (sum of N) of one training group.  A
# training tape holds about 188 KB per window-pedestrian (tracemalloc,
# default ModelConfig, N = 6-12), so 24 caps a group's tape near 4.5 MB.
# Larger groups pay only while freed tapes stay in the process
# (_keep_freed_memory); without that, caps of 12/24/48 measured within
# noise.  On the bench's sparse-crowd workload (N ~ 2, 2-core VM, 16
# interleaved 10-s runs), a cap of 12 with memory returned gave 764
# train windows/s at 50.9 MB peak RSS; 24 with memory kept gave 1057 at
# 53.8 MB, and 48 about 1300 at 61 MB, over the bench's 10% RSS bound.
TRAIN_GROUP_PEDESTRIANS = 24


def nll_loss(raw: Tensor, gt_displacements: np.ndarray) -> Tensor:
    """Loss per window: -sum over steps, mean over pedestrians, of the log density.

    ``raw`` is the head output [T_pred, N, 5] (a scalar loss) or a group's
    [B, T_pred, N, 5] (losses [B]), mapped to a density by
    ``model.gaussian_scales``, as predictions are.
    """
    gt = np.asarray(gt_displacements, dtype=np.float64)
    n = raw.shape[-2]
    mu_x, mu_y = raw[..., 0], raw[..., 1]
    sigma_x, sigma_y, rho = gaussian_scales(raw)

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
    """Standard Adam with bias correction over a name -> Tensor dict.

    Parameters whose grad is None (never touched by backward) are left
    untouched; their moment buffers stay zero.
    """

    def __init__(self, weights: dict):
        self.step_count = 0
        self.m = {name: np.zeros(t.shape) for name, t in weights.items()}
        self.v = {name: np.zeros(t.shape) for name, t in weights.items()}

    def step(self, weights: dict, lr: float, grad_scale: float = 1.0) -> None:
        self.step_count += 1
        correct1 = 1.0 - ADAM_BETA1 ** self.step_count
        correct2 = 1.0 - ADAM_BETA2 ** self.step_count
        for name, p in weights.items():
            if p.grad is None:
                continue
            g = p.grad * grad_scale
            self.m[name] = ADAM_BETA1 * self.m[name] + (1.0 - ADAM_BETA1) * g
            self.v[name] = ADAM_BETA2 * self.v[name] + (1.0 - ADAM_BETA2) * (g * g)
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def write_loss_log(rows, path) -> None:
    """CSV ``epoch,step,nll,lr``; floats via repr for byte-stable output."""
    lines = ["epoch,step,nll,lr"]
    for epoch, step, nll, lr in rows:
        lines.append(f"{epoch},{step},{nll!r},{lr!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def group_loss(scenes, weights: dict, model_cfg: ModelConfig) -> Tensor:
    """Losses [B] of equal-N scenes from one forward pass; each equals its group-of-one loss bit for bit.

    The loss checks every primitive, so a non-finite loss never reaches ``backward`` or Adam.
    """
    raw, _, _ = forward(np.stack([s.displacements_obs for s in scenes]), weights, model_cfg)
    with ad.scope(deferred=False, stage="loss"):
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
    paths are given, a checkpoint is rewritten after every epoch and the
    loss log at the end, both usable mid-run.  A NumericsError names the
    window that fails alone (``model.map_groups``); windows rerun before
    it also run ``backward``, which is harmless, as the run aborts.
    The first call sets glibc to keep freed memory for the rest of the
    process (``_keep_freed_memory``), so later groups reuse the freed
    tapes of earlier ones; with another C library it changes nothing.
    """
    if not train_scenes:
        raise ConfigError("training requires at least one scene window")
    _keep_freed_memory()
    if weights is None:
        weights = init_weights(model_cfg, seed=train_cfg.seed)
    for p in weights.values():  # loaded checkpoints hold constants
        p.requires_grad = True
    optimizer = Adam(weights)
    order_rng = np.random.default_rng(train_cfg.seed)
    rows = []
    zero_grads(weights)
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
            losses = map_groups(backward_group, window, TRAIN_GROUP_PEDESTRIANS)
            optimizer.step(weights, lr, grad_scale=1.0 / len(window))
            rows.append((epoch, len(rows) + 1, float(np.mean(losses)), lr))
            zero_grads(weights)
        if checkpoint_path is not None:
            save_checkpoint(checkpoint_path, weights, model_cfg)
        logger.info("epoch %d done, lr %.2e, last window nll %.4f", epoch, lr, rows[-1][2])
    if loss_log_path is not None:
        write_loss_log(rows, loss_log_path)
    return weights, rows
