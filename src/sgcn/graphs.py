"""Sparse directed graph learning for pedestrian interactions and motion tendency.

Two branches score pairwise influence with single-layer self-attention
over the observed displacements, each lifted to D features by one
``autodiff.linear``: the spatial branch relates pedestrians within each
observed time step, the temporal branch relates time steps within each
pedestrian (causally masked so no past step attends to the future) and
adds a sinusoidal position table to its lift.  The spatial branch first
mixes its per-step scores with a 1x1 conv over time channels.  Both then
gate by one rule, ``sparsify``: entries whose asymmetric row/column conv
features have sigmoid below the threshold xi are pruned (self-loops
stay), and a zero-preserving renormalization yields asymmetric,
row-normalized, genuinely sparse adjacency tensors.  Backward never
crosses the gate, so its features (``autodiff.conv_cascade``) are
computed off the tape.

Windows with the same pedestrian count N stack along a leading batch
axis: displacements [B, T_obs, N, 2] give spatial slices [B, T_obs, N, N]
and temporal slices [B*N, T_obs, T_obs], pedestrian-major.  A single
window [T_obs, N, 2] takes the same path with no leading axis.
``pedestrian_major`` and ``step_major`` convert between the two layouts,
each one ``autodiff.swapaxes`` of axes -3 and -2 and one reshape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig

ZERO_SOFTMAX_EPS = 1e-12


@dataclass
class SparseAdjacency:
    """Learned adjacency: ``normalized`` drives the GCN, ``mask`` aids inspection.

    ``mask`` is the kept pattern, forced diagonal included.  Entries read
    as (i, j) = influence of node i on node j, so rows index influencers.
    """

    normalized: Tensor
    mask: np.ndarray


def position_encoding_table(length: int, dim: int) -> np.ndarray:
    """Fixed sinusoidal table: sin on even feature indices, cos on odd; ``dim`` is even (see ``ModelConfig``)."""
    pos = np.arange(length)[:, None]
    freq = np.power(10000.0, -np.arange(0, dim, 2) / dim)[None, :]
    table = np.empty((length, dim))
    table[:, 0::2] = np.sin(pos * freq)
    table[:, 1::2] = np.cos(pos * freq)
    return table


def attention_scores(embeddings: Tensor, w_q, b_q, w_k, mask: np.ndarray | bool = True) -> Tensor:
    """Row-stochastic scaled dot-product scores over the second-to-last axis.

    Masked (False) positions get score exactly 0; rows renormalize over
    what remains.  Entry (i, j) is the influence of node i on node j.
    Keys carry no bias: it would add q_i.b_k to all of row i, which the
    row softmax cancels.
    """
    q = ad.linear(embeddings, w_q, b_q)
    k = ad.matmul(embeddings, w_k)
    scale = float(np.sqrt(q.shape[-1]))
    logits = ad.matmul(q, ad.swapaxes(k, -1, -2)) / scale
    return ad.softmax_lastdim(logits, mask=mask)


def _sigmoid(data: np.ndarray) -> np.ndarray:
    # one exp(-|x|), which never overflows: 1 / (1 + e) for x >= 0 and e / (1 + e) below
    e = np.exp(-np.abs(data))
    return np.maximum(e, data >= 0) / (1.0 + e)  # e <= 1, so the max picks 1 where x >= 0


def zero_softmax(x: Tensor) -> Tensor:
    """Row renormalization mapping exact zeros to exact zeros.

    y_i = (exp(x_i) - 1)^2 / (sum_j (exp(x_j) - 1)^2 + eps), with eps =
    ZERO_SOFTMAX_EPS.  The input is not bounded: the temporal branch passes
    gated row-stochastic attention scores (in [0, 1]), but the spatial
    branch passes the gated output of the 1x1 fusion conv, a learned
    linear map of those scores.  Nothing guards exp: an entry above about
    355 overflows the square (several entries just below it, the row sum),
    and one above about 709 overflows exp itself.  The NumericsError names
    the op that overflowed ('mul', 'sum' or 'exp').
    """
    squashed = ad.exp(x) - 1.0
    squared = squashed * squashed
    return squared / (ad.tsum(squared, axis=-1, keepdims=True) + ZERO_SOFTMAX_EPS)


def sparsify(scores: Tensor, features: np.ndarray, xi: float, allowed=True) -> SparseAdjacency:
    """Gate dense [..., n, n] scores into a sparse, row-normalized adjacency.

    An entry is kept where sigmoid(features) >= xi or it lies on the
    diagonal, and only where ``allowed`` (a bool pattern broadcast
    against the scores) permits; pruned entries are exactly 0 after
    zero_softmax.  ``allowed`` must include the diagonal.  xi = 1 keeps
    only the diagonal: sigmoid stays below 1 for finite features, though
    in float64 it rounds to 1.0 above about 36.7.  ``features``
    leave the tape here, so they are checked even when per-op checks are
    deferred: sigmoid(NaN) >= xi is False, so a NaN would otherwise prune
    its edge without an error.
    """
    ad._check_finite(features, "gate features")
    keep = (((_sigmoid(features) >= xi) & (xi < 1)) | np.eye(scores.shape[-1], dtype=bool)) & allowed
    return SparseAdjacency(normalized=zero_softmax(scores * keep), mask=keep)


def _conv_stack(weights: dict, prefix: str, n_layers: int):
    return [
        (
            weights[f"{prefix}_conv{layer}_row_k"],
            weights[f"{prefix}_conv{layer}_row_b"],
            weights[f"{prefix}_conv{layer}_col_k"],
            weights[f"{prefix}_conv{layer}_col_b"],
            weights[f"{prefix}_conv{layer}_slope"],
        )
        for layer in range(n_layers)
    ]


def pedestrian_major(x: Tensor) -> Tensor:
    """Step-major [..., T, N, D] -> pedestrian-major [(...)*N, T, D]."""
    return ad.reshape(ad.swapaxes(x, -3, -2), (-1, x.shape[-3], x.shape[-1]))


def step_major(x: Tensor, lead_shape: tuple, n: int) -> Tensor:
    """Pedestrian-major [(...)*N, T, D] -> step-major [..., T, N, D]; inverse of pedestrian_major."""
    return ad.swapaxes(ad.reshape(x, tuple(lead_shape) + (n,) + x.shape[-2:]), -3, -2)


def build_spatial_graph(displacements, weights: dict, cfg: ModelConfig):
    """Learn the pedestrian-interaction adjacency of one window or an equal-N group.

    ``displacements`` is a plain array [T_obs, N, 2] or [B, T_obs, N, 2]; ``model.forward`` checks T_obs.
    Returns (SparseAdjacency with [..., T_obs, N, N] slices, node embeddings
    [..., T_obs, N, D] for the GCN).
    """
    h0 = ad.linear(displacements, weights["spa_embed_w"], weights["spa_embed_b"])
    scores = attention_scores(h0, weights["spa_query_w"], weights["spa_query_b"], weights["spa_key_w"])
    fused = ad.conv2d_zero_pad(scores, weights["spa_fuse_k"], weights["spa_fuse_b"])
    features = ad.conv_cascade(fused.data, _conv_stack(weights, "spa", cfg.conv_layers))
    return sparsify(fused, features, cfg.xi), h0


def build_temporal_graph(displacements, weights: dict, cfg: ModelConfig):
    """Learn each pedestrian's motion-tendency adjacency over time steps.

    ``displacements`` is a plain array [T_obs, N, 2] or [B, T_obs, N, 2]; ``model.forward`` checks T_obs.
    Returns (SparseAdjacency with [B*N, T_obs, T_obs] slices, embeddings
    [B*N, T_obs, D]), pedestrian-major; B is 1 for a single window.
    Slices are upper triangular: a step only influences itself and later
    steps.  The score stack is used directly, with no channel fusion,
    because the pedestrian count varies scene to scene.
    """
    t_obs = displacements.shape[-3]
    per_pedestrian = np.swapaxes(displacements, -3, -2).reshape(-1, t_obs, displacements.shape[-1])
    h0 = ad.linear(per_pedestrian, weights["tmp_embed_w"], weights["tmp_embed_b"])
    h0 = h0 + position_encoding_table(t_obs, cfg.embed_dim)
    causal = np.triu(np.ones((t_obs, t_obs), dtype=bool))
    scores = attention_scores(h0, weights["tmp_query_w"], weights["tmp_query_b"], weights["tmp_key_w"], mask=causal)
    stacked = scores.data.reshape(-1, 1, t_obs, t_obs)
    features = ad.conv_cascade(stacked, _conv_stack(weights, "tmp", cfg.conv_layers))
    return sparsify(scores, features.reshape(scores.shape), cfg.xi, causal), h0
