"""Dual-branch graph aggregation, temporal conv head, and the Gaussian output.

The learned spatial and temporal adjacencies each drive a one-layer GCN;
one branch mixes pedestrians first and time steps second, the other the
reverse, and their summed features feed a stack of time-channel convs
that maps 8 observed steps to 12 future steps of bi-variate Gaussian
displacement parameters.  Every stage takes a single window or a group
of windows with equal pedestrian count stacked on a leading axis (see
graphs.py for the layouts).  Also home to weight init, the one runner of
grouped passes (``map_groups``), sampling, and the checkpoint format.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig
from .data import reconstruct_positions
from .errors import CheckpointError, ConfigError, NumericsError, ShapeError
from .graphs import build_spatial_graph, build_temporal_graph, pedestrian_major, step_major

CHECKPOINT_MAGIC = "SGCNCKPT"
CHECKPOINT_VERSION = 1
_CONFIG_KINDS = get_type_hints(ModelConfig)  # checkpoint header field -> type
SIGMA_FLOOR = 1e-8
# exp argument ceiling: keeps sigma finite under transient optimizer
# excursions without affecting any realistic scale (e^30 ~ 1e13 meters)
LOG_SIGMA_MAX = 30.0
RHO_LIMIT = 1.0 - 1e-6


@dataclass
class BiGaussianParams:
    """Per-step, per-pedestrian displacement distribution (plain arrays)."""

    mu: np.ndarray       # [..., T_pred, N, 2]
    sigma: np.ndarray    # [..., T_pred, N, 2], positive
    rho: np.ndarray      # [..., T_pred, N], in (-1, 1)

    def window(self, b: int) -> "BiGaussianParams":
        """Window ``b`` of a group's parameters."""
        return BiGaussianParams(self.mu[b], self.sigma[b], self.rho[b])


def _glorot(rng, shape, fan_in, fan_out) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def _layout(cfg: ModelConfig) -> list:
    """(name, shape, init) per parameter in draw order; init is Glorot (fan_in, fan_out) or a constant."""
    d, t, p, s = cfg.embed_dim, cfg.t_obs, cfg.t_pred, cfg.conv_kernel
    layout: list = []

    def linear(name, n_in, n_out):
        layout.append((f"{name}_w", (n_in, n_out), (n_in, n_out)))
        layout.append((f"{name}_b", (n_out,), 0.0))

    def conv(name, c_out, c_in, kh, kw):
        layout.append((f"{name}_k", (c_out, c_in, kh, kw), (c_in * kh * kw, c_out * kh * kw)))
        layout.append((f"{name}_b", (c_out,), 0.0))

    def slope(name):
        layout.append((name, (), 0.25))

    for prefix, channels in (("spa", t), ("tmp", 1)):
        linear(f"{prefix}_embed", 2, d)
        linear(f"{prefix}_query", d, d)
        layout.append((f"{prefix}_key_w", (d, d), (d, d)))  # no key bias: the row softmax cancels it
        if prefix == "spa":
            conv(f"{prefix}_fuse", t, t, 1, 1)
        for layer in range(cfg.conv_layers):
            conv(f"{prefix}_conv{layer}_row", channels, channels, 1, s)
            conv(f"{prefix}_conv{layer}_col", channels, channels, s, 1)
            slope(f"{prefix}_conv{layer}_slope")

    for name in ("gcn_spa1", "gcn_tmp1", "gcn_tmp2", "gcn_spa2"):
        layout.append((f"{name}_w", (d, d), (d, d)))
        slope(f"{name}_slope")

    for layer in range(cfg.tcn_layers):
        conv(f"tcn_conv{layer}", p, p if layer else t, 1, s)
        slope(f"tcn_slope{layer}")
    linear("out_proj", d, 5)
    return layout


def init_weights(cfg: ModelConfig, seed: int = 0) -> dict:
    """All trainable parameters, name -> leaf Tensor, deterministic in seed."""
    rng = np.random.default_rng(seed)
    w = {
        name: Tensor(_glorot(rng, shape, *init) if isinstance(init, tuple) else np.full(shape, init),
                     requires_grad=True)
        for name, shape, init in _layout(cfg)
    }
    # damp the head so initial outputs sit near (mu=0, sigma=1, rho=0)
    # instead of an arbitrarily sharp or inflated density
    w["out_proj_w"] = Tensor(w["out_proj_w"].data * 0.1, requires_grad=True)
    return w


def zero_grads(weights: dict) -> None:
    for tensor in weights.values():
        tensor.zero_grad()


def group_by_size(sizes, budget: int) -> list:
    """Split window indices into groups of equal size, each summing to at most ``budget``.

    ``sizes[i]`` is window i's pedestrian count.  Groups are listed in
    order of their first window and hold their windows in input order; a
    window larger than the budget forms a group of its own.
    """
    groups, open_groups = [], {}
    for i, n in enumerate(sizes):
        group = open_groups.get(n)
        if group is None or (len(group) + 1) * n > budget:
            group = open_groups[n] = []
            groups.append(group)
        group.append(i)
    return groups


def map_groups(fn, scenes, budget: int, jobs: int = 1) -> list:
    """``fn(group)`` on each equal-N group of ``scenes`` (``group_by_size``); the results in scene order.

    ``fn`` gets a group's window indices and returns one result per index.
    It runs inside ``autodiff.scope(deferred=True)``, so only the arrays
    that leave the tape are checked; ``jobs`` threads take whole groups.
    If a group raises NumericsError, its windows are rerun one at a time
    with per-op checks on, and the first that fails alone raises its
    error (op and stage) prefixed with ``scene NAME@frameF (N=n): ``;
    else the group's error is re-raised.  The rerun calls the same
    ``fn``, so windows that pass alone repeat its side effects.
    """
    def run(group):
        try:
            with ad.scope(deferred=True):
                return fn(group)
        except NumericsError:
            for i in group:  # outside the deferred scope: per-op checks are on
                try:
                    fn([i])
                except NumericsError as err:
                    scene = scenes[i]
                    raise NumericsError(
                        f"scene {scene.scene_name}@frame{scene.start_frame} (N={scene.n_pedestrians}): {err}"
                    ) from err
            raise

    groups = group_by_size([s.n_pedestrians for s in scenes], budget)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            outputs = list(pool.map(run, groups))
    else:
        outputs = [run(group) for group in groups]
    results = [None] * len(scenes)
    for group, output in zip(groups, outputs):
        for i, result in zip(group, output):
            results[i] = result
    return results


def gcn_layer(adjacency: Tensor, features: Tensor, weight: Tensor, slope: Tensor) -> Tensor:
    """One propagation step: receivers aggregate their influencers.

    Adjacency entry (i, j) weights i's influence on j, so features are
    premultiplied by the transposed slices.
    """
    if adjacency.shape[-1] != features.shape[-2]:
        raise ShapeError(f"adjacency {adjacency.shape} cannot aggregate features {features.shape}")
    return ad.prelu(ad.matmul(ad.matmul(ad.swap_last2(adjacency), features), weight), slope)


def interaction_tendency_branch(spa_adj: Tensor, tmp_adj: Tensor, h0_spa: Tensor, w: dict) -> Tensor:
    """Pedestrian mixing per time step, then step mixing per pedestrian -> [B*N, T, D]."""
    spatial = gcn_layer(spa_adj, h0_spa, w["gcn_spa1_w"], w["gcn_spa1_slope"])
    return gcn_layer(tmp_adj, pedestrian_major(spatial), w["gcn_tmp1_w"], w["gcn_tmp1_slope"])


def tendency_interaction_branch(spa_adj: Tensor, tmp_adj: Tensor, h0_tmp: Tensor, w: dict) -> Tensor:
    """Step mixing per pedestrian, then pedestrian mixing per time step -> [..., T, N, D]."""
    temporal = gcn_layer(tmp_adj, h0_tmp, w["gcn_tmp2_w"], w["gcn_tmp2_slope"])
    per_step = step_major(temporal, spa_adj.shape[:-3], spa_adj.shape[-1])
    return gcn_layer(spa_adj, per_step, w["gcn_spa2_w"], w["gcn_spa2_slope"])


def fuse_branches(h_itf: Tensor, h_tif: Tensor) -> Tensor:
    """Elementwise sum in time-major layout [..., T, N, D]."""
    return step_major(h_itf, h_tif.shape[:-3], h_tif.shape[-2]) + h_tif


def tcn_head(h: Tensor, weights: dict, cfg: ModelConfig) -> Tensor:
    """Map fused features [..., T_obs, N, D] to raw outputs [..., T_pred, N, 5].

    Time steps act as conv channels; kernels are 1 wide on the pedestrian
    axis (order must not matter) and ``conv_kernel`` wide on features.
    Equal-shape layers carry residual connections.
    """
    x = ad.prelu(ad.conv2d_zero_pad(h, weights["tcn_conv0_k"], weights["tcn_conv0_b"]), weights["tcn_slope0"])
    for layer in range(1, cfg.tcn_layers):
        conv = ad.conv2d_zero_pad(x, weights[f"tcn_conv{layer}_k"], weights[f"tcn_conv{layer}_b"])
        x = ad.prelu(conv, weights[f"tcn_slope{layer}"]) + x
    return ad.matmul(x, weights["out_proj_w"]) + weights["out_proj_b"]


def forward(displacements, weights: dict, cfg: ModelConfig):
    """Full pass: observed displacements [..., T_obs, N, 2] -> raw head output [..., T_pred, N, 5].

    The leading axis, if any, stacks windows of equal N; each window's
    output is bit-identical to its own single-window pass.

    Every primitive checks its output unless ``map_groups`` defers the
    checks; the head output and the two graphs' gate features (in
    ``sparsify``) leave the tape and are checked either way.

    Returns (raw, spatial SparseAdjacency, temporal SparseAdjacency).
    """
    with ad.scope(stage="spatial_graph"):
        spa, h0_spa = build_spatial_graph(displacements, weights, cfg)
    with ad.scope(stage="temporal_graph"):
        tmp, h0_tmp = build_temporal_graph(displacements, weights, cfg)
    with ad.scope(stage="branches"):
        h_itf = interaction_tendency_branch(spa.normalized, tmp.normalized, h0_spa, weights)
        h_tif = tendency_interaction_branch(spa.normalized, tmp.normalized, h0_tmp, weights)
        fused = fuse_branches(h_itf, h_tif)
    with ad.scope(stage="tcn_head"):
        raw = tcn_head(fused, weights, cfg)
    ad._check_finite(raw.data, "tcn_head")
    return raw, spa, tmp


def gaussian_scales(raw: Tensor) -> tuple:
    """(sigma_x, sigma_y, rho) of head output [..., 5]: the one map that both the loss and predictions use.

    Sigma is the exp of the raw log-sigma clamped to [log 1e-8, 30] and rho
    the tanh clamped to |rho| <= 1 - 1e-6, so the density stays finite and
    nonsingular; gradients are exact away from the clamps.
    """
    log_floor = float(np.log(SIGMA_FLOOR))
    sigma_x = ad.exp(ad.clamp(raw[..., 2], lo=log_floor, hi=LOG_SIGMA_MAX))
    sigma_y = ad.exp(ad.clamp(raw[..., 3], lo=log_floor, hi=LOG_SIGMA_MAX))
    return sigma_x, sigma_y, ad.clamp(ad.tanh(raw[..., 4]), lo=-RHO_LIMIT, hi=RHO_LIMIT)


def to_gaussian(raw) -> BiGaussianParams:
    """Split raw 5-vectors into plain-array (mu, sigma, rho) through :func:`gaussian_scales`."""
    values = raw.data if isinstance(raw, Tensor) else np.asarray(raw)
    sigma_x, sigma_y, rho = gaussian_scales(Tensor(values))
    return BiGaussianParams(
        mu=values[..., 0:2].copy(),
        sigma=np.stack([sigma_x.data, sigma_y.data], axis=-1),
        rho=rho.data,
    )


def predict(displacements, weights: dict, cfg: ModelConfig) -> BiGaussianParams:
    raw, _, _ = forward(displacements, weights, cfg)
    return to_gaussian(raw)


def sample_displacements(params: BiGaussianParams, rng, k: int) -> np.ndarray:
    """``k`` correlated draws per (step, pedestrian) -> [k, T_pred, N, 2].

    The covariance [[sx^2, r sx sy], [r sx sy, sy^2]] factors as L =
    [[sx, 0], [r sy, sy sqrt(1 - r^2)]], so two standard normals suffice.
    All draws come from one generator call, so draw s equals the s-th of
    k successive single draws from the same generator.
    """
    eps = rng.standard_normal((k,) + params.mu.shape)
    sx, sy = params.sigma[..., 0], params.sigma[..., 1]
    r = params.rho
    out = np.empty_like(eps)
    out[..., 0] = params.mu[..., 0] + sx * eps[..., 0]
    out[..., 1] = params.mu[..., 1] + sy * (r * eps[..., 0] + np.sqrt(1.0 - r * r) * eps[..., 1])
    return out


def sample_trajectory(params: BiGaussianParams, last_observed: np.ndarray, rng, k: int) -> np.ndarray:
    """Absolute future positions of ``k`` sampled displacement sequences -> [k, T_pred, N, 2]."""
    return reconstruct_positions(last_observed, sample_displacements(params, rng, k))


def mu_trajectory(params: BiGaussianParams, last_observed: np.ndarray) -> np.ndarray:
    """Deterministic mean path (the zero-noise sample)."""
    return reconstruct_positions(last_observed, params.mu)


# ---------------------------------------------------------------------------
# checkpoint format: text header (version, config, shape table) + raw payload


def save_checkpoint(path, weights: dict, cfg: ModelConfig) -> None:
    """Write header + row-major little-endian float64 payloads atomically."""
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    for key, value in asdict(cfg).items():
        lines.append(f"{key}={value!r}" if isinstance(value, float) else f"{key}={value}")
    names = sorted(weights)
    for name in names:
        dims = " ".join(str(d) for d in weights[name].shape)
        lines.append(f"param {name} {dims}".rstrip())
    lines.append("END")
    payload = b"".join(
        np.ascontiguousarray(weights[name].data, dtype="<f8").tobytes() for name in names
    )
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(("\n".join(lines) + "\n").encode())
        fh.write(payload)
    os.replace(tmp, path)


def load_checkpoint(path) -> tuple:
    """Read (constant weights, ModelConfig); malformed files raise CheckpointError."""
    with open(path, "rb") as fh:
        blob = fh.read()
    head, sep, _ = blob.partition(b"\nEND\n")
    if not sep:
        raise CheckpointError(f"{path}: missing END marker in header")
    header_lines = head.decode(errors="replace").splitlines()
    if not header_lines:
        raise CheckpointError(f"{path}: empty header")
    magic = header_lines[0].split()
    if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"{path}: bad version line {header_lines[0]!r}, expected '{CHECKPOINT_MAGIC} <version>'")
    if magic[1] != str(CHECKPOINT_VERSION):
        raise CheckpointError(f"{path}: unsupported version {magic[1]!r} (supported: {CHECKPOINT_VERSION})")

    fields: dict = {}
    shapes: dict = {}
    for number, line in enumerate(header_lines[1:], start=2):
        where = f"{path}: header line {number}"
        key, eq, value = line.partition("=")
        if line.startswith("param "):
            try:
                _, name, *dims = line.split()
                shape = tuple(int(d) for d in dims)
            except ValueError:
                raise CheckpointError(f"{where}: malformed shape line {line!r}") from None
            if name in shapes:
                raise CheckpointError(f"{where}: parameter {name} listed twice in shape table")
            shapes[name] = shape
        elif eq and key in _CONFIG_KINDS:
            if key in fields:
                raise CheckpointError(f"{where}: config field {key} given twice")
            fields[key] = value
        else:
            raise CheckpointError(f"{where}: {line!r} is neither a config field nor a param line")
    try:
        cfg = ModelConfig(**{key: kind(fields[key]) for key, kind in _CONFIG_KINDS.items()})
    except KeyError as err:
        raise CheckpointError(f"{path}: header missing config field {err}") from None
    except (ValueError, ConfigError) as err:
        raise CheckpointError(f"{path}: bad config header: {err}") from None

    expected_shapes = sorted((name, shape) for name, shape, _ in _layout(cfg))
    if sorted(shapes.items()) != expected_shapes:
        for name, shape in expected_shapes:
            if name not in shapes:
                raise CheckpointError(f"{path}: parameter {name} missing from shape table")
            if shapes[name] != shape:
                raise CheckpointError(
                    f"{path}: parameter {name} has shape {shapes[name]}, config implies {shape}"
                )
        extra = set(shapes) - {n for n, _ in expected_shapes}
        raise CheckpointError(f"{path}: unexpected parameters {sorted(extra)}")

    payload = memoryview(blob)[len(head) + len(b"\nEND\n"):]
    sizes = [math.prod(shape) for shape in shapes.values()]
    ends = list(itertools.accumulate(sizes))
    if len(payload) != ends[-1] * 8:
        raise CheckpointError(f"{path}: payload holds {len(payload)} bytes, shape table implies {ends[-1] * 8}")

    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)  # one native array; parameters are views of it
    finite = np.isfinite(flat)
    if not finite.all():
        name = list(shapes)[bisect.bisect_right(ends, int(np.argmin(finite)))]
        raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
    with ad.scope(deferred=True):  # checked above, in one pass
        return {
            name: Tensor(flat[end - size:end].reshape(shape))
            for (name, shape), size, end in zip(shapes.items(), sizes, ends)
        }, cfg
