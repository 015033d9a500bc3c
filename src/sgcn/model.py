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

import functools
import math
from dataclasses import asdict, dataclass
from typing import get_type_hints

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, write_atomically
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
# Cap on the window-pedestrians (sum of N) of one map_groups group, in
# training and inference alike.  Per window-pedestrian, a training tape
# peaks near 170 KB in backward and a tape-free forward pass near 51 KB
# (tracemalloc, default ModelConfig, a 12-window N = 2 group), so 48 caps
# a training group near 8 MB.  Larger groups pay only while freed tapes
# stay in the process (training._keep_freed_memory).  On the bench's
# sparse-crowd workload (N ~ 2, 2-core VM, interleaved 30-s runs), 48 gave
# a median 1327 train windows/s at 57.5 MB peak RSS against 1052 at 54.9
# MB with 24; caps of 24/48/96 gave 1092/1283/1270 eval windows/s at
# equal peak RSS.
GROUP_PEDESTRIANS = 48


@dataclass
class BiGaussianParams:
    """Per-step, per-pedestrian displacement distribution (plain arrays) of a window, or of a group on a leading axis."""

    mu: np.ndarray       # [..., T_pred, N, 2]
    sigma: np.ndarray    # [..., T_pred, N, 2], positive
    rho: np.ndarray      # [..., T_pred, N], in (-1, 1)


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


def _layout_mismatch(shapes: dict, cfg: ModelConfig, source: str) -> str | None:
    """The first way ``shapes`` (name -> shape, read from ``source``) differs from ``_layout(cfg)``, or None."""
    expected = {name: shape for name, shape, _ in _layout(cfg)}
    if shapes == expected:
        return None
    for name, shape in sorted(expected.items()):
        if name not in shapes:
            return f"parameter {name} missing from {source}"
        if shapes[name] != shape:
            return f"parameter {name} has shape {shapes[name]}, config implies {shape}"
    return f"unexpected parameters {sorted(set(shapes) - set(expected))}"


def _views(flat: np.ndarray, table) -> dict:
    """name -> view of ``flat`` per (name, shape) of ``table``, back to back: the one owner of parameter offsets."""
    end = 0  # each slice starts where the one before it ended
    return {name: flat[end:(end := end + math.prod(shape))].reshape(shape) for name, shape in table}


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


def map_groups(fn, scenes) -> list:
    """``fn(group)`` on each equal-N group of ``scenes``; the results in scene order.

    Groups come from ``group_by_size`` at ``GROUP_PEDESTRIANS``, so a lone
    window of any size is one group.  ``fn`` gets a group's window
    indices and returns one result per index.  It runs inside
    ``autodiff.scope(deferred=True)``, so only the arrays that leave the
    tape are checked.  Groups run one after another on the caller's
    thread.  If a group raises NumericsError, its windows are rerun one at
    a time with per-op checks on, and the first that fails alone raises
    its error (op and stage) prefixed with ``scene NAME@frameF (N=n): ``;
    else the group's error is re-raised.  The rerun calls the same ``fn``,
    so windows that pass alone repeat its side effects.
    """
    results = [None] * len(scenes)
    for group in group_by_size([s.n_pedestrians for s in scenes], GROUP_PEDESTRIANS):
        try:
            with ad.scope(deferred=True):
                output = fn(group)
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
        for i, result in zip(group, output):
            results[i] = result
    return results


def interaction_tendency_branch(spa_adj: Tensor, tmp_adj: Tensor, h0_spa: Tensor, w: dict) -> Tensor:
    """Pedestrian mixing per time step, then step mixing per pedestrian -> [B*N, T, D]."""
    spatial = ad.gcn_layer(spa_adj, h0_spa, w["gcn_spa1_w"], w["gcn_spa1_slope"])
    return ad.gcn_layer(tmp_adj, pedestrian_major(spatial), w["gcn_tmp1_w"], w["gcn_tmp1_slope"])


def tendency_interaction_branch(spa_adj: Tensor, tmp_adj: Tensor, h0_tmp: Tensor, w: dict) -> Tensor:
    """Step mixing per pedestrian, then pedestrian mixing per time step -> [..., T, N, D]."""
    temporal = ad.gcn_layer(tmp_adj, h0_tmp, w["gcn_tmp2_w"], w["gcn_tmp2_slope"])
    per_step = step_major(temporal, spa_adj.shape[:-3], spa_adj.shape[-1])
    return ad.gcn_layer(spa_adj, per_step, w["gcn_spa2_w"], w["gcn_spa2_slope"])


def fuse_branches(h_itf: Tensor, h_tif: Tensor) -> Tensor:
    """Elementwise sum in time-major layout [..., T, N, D]."""
    return step_major(h_itf, h_tif.shape[:-3], h_tif.shape[-2]) + h_tif


def tcn_head(h: Tensor, weights: dict, cfg: ModelConfig) -> Tensor:
    """Map fused features [..., T_obs, N, D] to raw outputs [..., T_pred, N, 5].

    Time steps act as conv channels; kernels are 1 wide on the pedestrian
    axis (order must not matter) and ``conv_kernel`` wide on features.
    Equal-shape layers carry residual connections.
    """
    x = ad.conv2d_prelu(h, weights["tcn_conv0_k"], weights["tcn_conv0_b"], weights["tcn_slope0"])
    for layer in range(1, cfg.tcn_layers):
        x = ad.conv2d_prelu(x, weights[f"tcn_conv{layer}_k"], weights[f"tcn_conv{layer}_b"],
                            weights[f"tcn_slope{layer}"], residual=True)
    return ad.linear(x, weights["out_proj_w"], weights["out_proj_b"])


def forward(displacements, weights: dict, cfg: ModelConfig):
    """Full pass: observed displacements [..., T_obs, N, 2] -> raw head output [..., T_pred, N, 5].

    The leading axis, if any, stacks windows of equal N; each window's
    output is bit-identical to its own single-window pass.

    Every primitive checks its output unless ``map_groups`` defers the
    checks; the head output and the two graphs' gate features (in
    ``sparsify``) leave the tape and are checked either way.

    Returns (raw, spatial SparseAdjacency, temporal SparseAdjacency).
    """
    if displacements.shape[-3] != cfg.t_obs:  # the one check for both graph builders
        raise ConfigError(f"window has {displacements.shape[-3]} observed steps, config expects {cfg.t_obs}")
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


def gaussian_terms(raw: Tensor) -> tuple:
    """(mu_x, mu_y, sigma_x, sigma_y, rho) of head output [..., 5]: the one map that both the loss and predictions use.

    Mu is the raw mean, sigma the exp of the raw log-sigma clamped to
    [log 1e-8, 30] and rho the tanh clamped to |rho| <= 1 - 1e-6, so the
    density stays finite and nonsingular; gradients are exact away from
    the clamps.
    """
    log_floor = float(np.log(SIGMA_FLOOR))
    sigma_x = ad.exp(ad.clamp(raw[..., 2], lo=log_floor, hi=LOG_SIGMA_MAX))
    sigma_y = ad.exp(ad.clamp(raw[..., 3], lo=log_floor, hi=LOG_SIGMA_MAX))
    return raw[..., 0], raw[..., 1], sigma_x, sigma_y, ad.clamp(ad.tanh(raw[..., 4]), lo=-RHO_LIMIT, hi=RHO_LIMIT)


def to_gaussian(raw: Tensor) -> BiGaussianParams:
    """Split the head output's raw 5-vectors into plain-array (mu, sigma, rho) through :func:`gaussian_terms`."""
    mu_x, mu_y, sigma_x, sigma_y, rho = gaussian_terms(raw)
    return BiGaussianParams(
        mu=np.stack([mu_x.data, mu_y.data], axis=-1),
        sigma=np.stack([sigma_x.data, sigma_y.data], axis=-1),
        rho=rho.data,
    )


def predict(displacements, weights: dict, cfg: ModelConfig) -> BiGaussianParams:
    raw, _, _ = forward(displacements, weights, cfg)
    return to_gaussian(raw)


def sample_displacements(params: BiGaussianParams, rng, k: int) -> np.ndarray:
    """``k`` correlated draws per (step, pedestrian) -> [..., k, T_pred, N, 2].

    ``params`` is one window's ([T_pred, N, 2] means) with one Generator,
    or a group's ([B, T_pred, N, 2]) with B generators, one per window:
    window b's normals are filled by ``rng[b]`` alone, so they equal
    ``rng[b].standard_normal((k, T_pred, N, 2))`` whatever the group.
    The covariance [[sx^2, r sx sy], [r sx sy, sy^2]] factors as L =
    [[sx, 0], [r sy, sy sqrt(1 - r^2)]], so two standard normals suffice;
    each draw is mu + L eps, elementwise.  Draw s of a window equals the
    s-th of k successive single draws from its generator.
    """
    shape = (k,) + params.mu.shape[-3:]
    if isinstance(rng, np.random.Generator):
        eps = rng.standard_normal(shape)
    else:
        eps = np.empty((len(rng),) + shape)
        for generator, out in zip(rng, eps):
            generator.standard_normal(out=out)
    if eps.shape[:-4] != params.mu.shape[:-3]:
        raise ShapeError(f"normals {eps.shape} do not match the windows of means {params.mu.shape}")
    mu = params.mu[..., None, :, :, :]  # a draw axis before [T_pred, N, 2]
    sx, sy = params.sigma[..., None, :, :, 0], params.sigma[..., None, :, :, 1]
    r = params.rho[..., None, :, :]
    out = np.empty_like(eps)
    out[..., 0] = mu[..., 0] + sx * eps[..., 0]
    out[..., 1] = mu[..., 1] + sy * (r * eps[..., 0] + np.sqrt(1.0 - r * r) * eps[..., 1])
    return out


def sample_trajectory(params: BiGaussianParams, last_observed: np.ndarray, rng, k: int) -> np.ndarray:
    """Absolute future positions of ``k`` sampled displacement sequences -> [..., k, T_pred, N, 2].

    ``last_observed`` is [N, 2], or [B, N, 2] for a group; ``params`` and
    ``rng`` as in :func:`sample_displacements`.
    """
    return reconstruct_positions(last_observed[..., None, None, :, :], sample_displacements(params, rng, k))


def mu_trajectory(params: BiGaussianParams, last_observed: np.ndarray) -> np.ndarray:
    """Deterministic mean path (the zero-noise sample) -> [..., T_pred, N, 2]; last_observed [..., N, 2]."""
    return reconstruct_positions(last_observed[..., None, :, :], params.mu)


# ---------------------------------------------------------------------------
# checkpoint format: text header (version, config, shape table) + raw payload


def save_checkpoint(path, weights: dict, cfg: ModelConfig) -> None:
    """Write header + row-major little-endian float64 payloads atomically.

    The header is the version line, one ``key=repr`` line per config field
    in field order, one ``param NAME D1 D2...`` line per parameter in name
    order, and END; the payloads follow in the same name order.
    """
    lines = [f"{CHECKPOINT_MAGIC} {CHECKPOINT_VERSION}"]
    for key, value in asdict(cfg).items():
        lines.append(f"{key}={value!r}")  # repr and str agree on an int, and repr keeps every bit of a float
    names = sorted(weights)
    for name in names:
        dims = " ".join(str(d) for d in weights[name].shape)
        lines.append(f"param {name} {dims}".rstrip())
    lines.append("END")
    payloads = [np.ascontiguousarray(weights[name].data, dtype="<f8").tobytes() for name in names]
    write_atomically(path, b"".join([("\n".join(lines) + "\n").encode()] + payloads))


@functools.lru_cache(maxsize=8)
def _read_header(head: bytes) -> tuple:
    """(ModelConfig, table, total) of the header ``head``, the bytes before END, read line by line.

    The table lists (name, shape) in file order, the order in which the
    parameters are stored back to back; total counts their float64 values.
    A malformed header raises CheckpointError naming the line, a shape table
    that differs from the config's layout one naming the first difference
    ``_layout_mismatch`` finds; the caller names the file.  The last 8
    headers read are kept by their bytes, so only repeated reads in one
    process (the benchmark's predict probe) skip the parse: one ``sgcn
    predict`` reads its header once.  A header that raised is not kept.
    """
    header_lines = head.decode(errors="replace").split("\n")  # never empty; splitlines would also break at \x0c, \x1c, ...
    magic = header_lines[0].split()
    if len(magic) != 2 or magic[0] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad version line {header_lines[0]!r}, expected '{CHECKPOINT_MAGIC} <version>'")
    if magic[1] != str(CHECKPOINT_VERSION):
        raise CheckpointError(f"unsupported version {magic[1]!r} (supported: {CHECKPOINT_VERSION})")

    fields: dict = {}
    shapes: dict = {}
    for number, line in enumerate(header_lines[1:], start=2):
        where = f"header line {number}"
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
        elif eq and (kind := _CONFIG_KINDS.get(key)):
            if key in fields:
                raise CheckpointError(f"{where}: config field {key} given twice")
            try:  # a written value has no surrounding whitespace, and "" reads as neither kind
                fields[key] = kind(value if value == value.strip() else "")
            except ValueError:
                raise CheckpointError(f"{where}: config field {key} expects {kind.__name__}, got {value!r}") from None
        else:
            raise CheckpointError(f"{where}: {line!r} is neither a config field nor a param line")
    try:
        cfg = ModelConfig(**{key: fields[key] for key in _CONFIG_KINDS})
    except KeyError as err:
        raise CheckpointError(f"header missing config field {err}") from None
    except ConfigError as err:
        raise CheckpointError(f"bad config header: {err}") from None

    if mismatch := _layout_mismatch(shapes, cfg, "shape table"):
        raise CheckpointError(mismatch)
    return cfg, tuple(shapes.items()), sum(math.prod(shape) for shape in shapes.values())


def load_checkpoint(path) -> tuple:
    """Read (constant weights, ModelConfig); a malformed file raises a CheckpointError naming it.

    ``_read_header`` reads the header.  Then the payload's size and
    finiteness are checked; a non-finite value names the first parameter in
    the file's table order that holds one.  The parameters become views of
    one native array, cut by ``_views`` over the file's own table, so a
    reordered shape table loads in its order.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        split = blob.find(b"\nEND\n")  # find, not partition: the payload is not copied
        if split < 0:
            raise CheckpointError("missing END marker in header")
        cfg, table, total = _read_header(blob[:split])
        payload = memoryview(blob)[split + len(b"\nEND\n"):]
        if len(payload) != total * 8:
            raise CheckpointError(f"payload holds {len(payload)} bytes, shape table implies {total * 8}")

        flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)  # one native array; parameters are views of it
        finite = np.isfinite(flat)
        if not finite.all():
            name = next(name for name, ok in _views(finite, table).items() if not ok.all())
            raise CheckpointError(f"parameter {name} holds non-finite values")
    except CheckpointError as err:
        raise CheckpointError(f"{path}: {err}") from None
    with ad.scope(deferred=True):  # checked above, in one pass
        return {name: Tensor(view) for name, view in _views(flat, table).items()}, cfg
