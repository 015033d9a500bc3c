"""Reverse-mode automatic differentiation on dense float64 arrays.

Every operation records its inputs and a vector-Jacobian product (vjp)
closure on the output tensor; ``backward`` replays those records in
reverse execution order and accumulates gradients into the leaves.
The primitive set is exactly what the trajectory model needs: batched
matmul, zero-padded 2-d convolution, masked softmax, and a handful of
pointwise functions.

By default every primitive checks its output for NaN/Inf, so a numerical
failure surfaces at its source.  That check took about a tenth of
evaluation time, so ``model.map_groups`` runs every model pass inside
``scope(deferred=True)``, where only the arrays that leave the tape are
checked; if one fails, it reruns the windows one at a time with per-op
checks on to name the first non-finite op and the scene.
``scope(stage=...)`` names the model stage that a NumericsError reports.
Both settings are per thread, so concurrent passes do not see each other's.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ConfigError, NumericsError, ShapeError


class _CheckState(threading.local):
    deferred = False  # skip the per-primitive check; the caller checks the pass's exits
    stage = None      # model stage named in NumericsError messages


_state = _CheckState()


class scope:
    """``with scope(stage="branches")`` or ``with scope(deferred=True)``.

    Sets this thread's check state for the block and restores the
    previous values on exit, also when the block raises.
    """

    def __init__(self, **state):
        self._state = state

    def __enter__(self):
        self._saved = {key: getattr(_state, key) for key in self._state}
        for key, value in self._state.items():
            setattr(_state, key, value)
        return self

    def __exit__(self, *exc):
        for key, value in self._saved.items():
            setattr(_state, key, value)


def _check_finite(data: np.ndarray, op: str) -> None:
    if not np.isfinite(data).all():
        where = f" in stage '{_state.stage}'" if _state.stage else ""
        raise NumericsError(f"non-finite values produced by '{op}'{where}")


class Tensor:
    """Dense n-d float64 array participating in reverse-mode differentiation.

    Leaves are created directly from data; every primitive returns a new
    Tensor that remembers its parent tensors and the vjp closure needed to
    push gradients back to them.  ``grad`` is populated on requires_grad
    leaves by :func:`backward` and accumulates across calls until
    :meth:`zero_grad`.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_vjp", "_op")

    # Keep numpy from absorbing Tensor operands elementwise; mixed
    # expressions must dispatch to the reflected operators below.
    __array_ufunc__ = None

    def __init__(self, data, requires_grad=False, _parents=(), _vjp=None, _op="tensor"):
        self.data = np.asarray(data, dtype=np.float64)
        if not _state.deferred:
            _check_finite(self.data, _op)
        self.requires_grad = bool(requires_grad) or any(p.requires_grad for p in _parents)
        self.grad = None
        self._parents = _parents if self.requires_grad else ()
        self._vjp = _vjp if self.requires_grad else None
        self._op = _op

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, op={self._op!r}, requires_grad={self.requires_grad})"

    # Operator sugar; the module-level functions do the real work.
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __rtruediv__(self, other):
        return div(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return take(self, key)


def as_tensor(value) -> Tensor:
    """Wrap plain data in a constant (non-differentiable) Tensor."""
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = grad.ndim - len(shape)
    if extra:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


# ---------------------------------------------------------------------------
# elementwise primitives


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        ga = g / b.data
        gb = -g * a.data / (b.data * b.data)
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="div")


def exp(x) -> Tensor:
    x = as_tensor(x)
    out = np.exp(x.data)

    def vjp(g):
        return (g * out,)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="exp")


def log(x) -> Tensor:
    x = as_tensor(x)
    if (x.data <= 0.0).any():
        raise NumericsError("log of non-positive value")
    out = np.log(x.data)

    def vjp(g):
        return (g / x.data,)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="log")


def tanh(x) -> Tensor:
    x = as_tensor(x)
    out = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out * out),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="tanh")


def _sigmoid(data: np.ndarray) -> np.ndarray:
    # Split by sign to avoid exp overflow on large negative inputs.
    out = np.empty_like(data)
    pos = data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-data[pos]))
    e = np.exp(data[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def prelu(x, slope) -> Tensor:
    """Parametric ReLU: identity for x >= 0, slope * x otherwise."""
    x, slope = as_tensor(x), as_tensor(slope)
    neg = x.data < 0
    out = np.where(neg, slope.data * x.data, x.data)

    def vjp(g):
        gx = np.where(neg, slope.data, 1.0) * g
        gs = _unbroadcast(np.where(neg, x.data, 0.0) * g, slope.shape)
        return gx, gs

    return Tensor(out, _parents=(x, slope), _vjp=vjp, _op="prelu")


def clamp(x, lo: float, hi: float) -> Tensor:
    """Clip values to [lo, hi]; gradient is zero outside the interval."""
    x = as_tensor(x)
    out = np.clip(x.data, lo, hi)
    inside = (x.data >= lo) & (x.data <= hi)

    def vjp(g):
        return (np.where(inside, g, 0.0),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="clamp")


# ---------------------------------------------------------------------------
# shape and reduction primitives


def take(x, key) -> Tensor:
    """Basic indexing/slicing; backward scatters the gradient back."""
    x = as_tensor(x)
    out = x.data[key]

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[key] += g
        return (gx,)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="take")


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    out = x.data.reshape(shape)

    def vjp(g):
        return (g.reshape(x.shape),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="reshape")


def permute(x, axes) -> Tensor:
    x = as_tensor(x)
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    inverse = tuple(np.argsort(axes))

    def vjp(g):
        return (np.transpose(g, inverse),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="permute")


def swap_last2(x) -> Tensor:
    """Transpose the trailing two axes (matrix transpose per batch slice)."""
    x = as_tensor(x)
    axes = tuple(range(x.ndim - 2)) + (x.ndim - 1, x.ndim - 2)
    return permute(x, axes)


def tsum(x, axis=None, keepdims=False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="sum")


# ---------------------------------------------------------------------------
# linear-algebra primitives


def matmul(a, b) -> Tensor:
    """Batched matrix product a[.., m, k] @ b[.., k, n]."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        out = a.data @ b.data
    except ValueError as err:
        raise ShapeError(f"matmul batch extents incompatible: {a.shape} @ {b.shape}") from err

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
        if b.ndim == 2:  # a shared weight: one gemm over every row of every slice
            gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
        else:
            gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
        return ga, gb

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="matmul")


def _columns(x: np.ndarray, kh: int, kw: int) -> np.ndarray:
    """im2col: zero-padded x [B, C, H, W] -> [B, C*kh*kw, H*W], rows in (c, i, j) order."""
    n_b, c, height, width = x.shape
    ph, pw = kh // 2, kw // 2
    padded = np.zeros((n_b, c, height + 2 * ph, width + 2 * pw))
    padded[:, :, ph : ph + height, pw : pw + width] = x
    sb, sc, sh, sw = padded.strides
    taps = np.lib.stride_tricks.as_strided(
        padded, (n_b, c, kh, kw, height, width), (sb, sc, sh, sw, sh, sw), writeable=False
    )
    return taps.reshape(n_b, c * kh * kw, height * width)


def _correlate(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Zero-padded correlation of x [B, C_in, H, W] with [C_out, C_in, kh, kw] -> [B, C_out, H, W].

    One im2col gemm per window, so a window's result does not depend on B.
    """
    n_b, _, height, width = x.shape
    out = kernels.reshape(len(kernels), -1) @ _columns(x, *kernels.shape[2:])
    return out.reshape(n_b, -1, height, width)


def conv2d_zero_pad(x, kernels, bias) -> Tensor:
    """Zero-padded cross-correlation plus a per-output-channel bias.

    ``x`` is [..., C_in, H, W] (any leading axes); ``kernels`` is
    [C_out, C_in, kh, kw] with odd kh, kw so symmetric padding keeps H
    and W unchanged; ``bias`` is [C_out].  Covers 1x1 channel fusion, the
    (1xS)/(Sx1) asymmetric pairs, and the prediction head's temporal
    convolutions.  The input gradient is the correlation of the output
    gradient with the flipped, channel-swapped kernels.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-d, got {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"kernel extents must be odd, got {kh}x{kw}")
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
    if x.ndim < 3 or x.shape[-3] != c_in:
        raise ShapeError(f"conv input must be [..., {c_in}, H, W] for kernel C_in {c_in}, got {x.shape}")
    height, width = x.shape[-2:]
    out = _correlate(x.data.reshape(-1, c_in, height, width), kernels.data)
    out += bias.data[:, None, None]

    def vjp(g):
        g = g.reshape(-1, c_out, height, width)
        gx = _correlate(g, np.swapaxes(kernels.data[:, :, ::-1, ::-1], 0, 1))
        cols = _columns(x.data.reshape(-1, c_in, height, width), kh, kw)
        gk = np.tensordot(g.reshape(len(g), c_out, -1), cols, axes=([0, 2], [0, 2]))
        return gx.reshape(x.shape), gk.reshape(kernels.shape), g.sum(axis=(0, 2, 3))

    return Tensor(out.reshape(x.shape[:-3] + out.shape[1:]), _parents=(x, kernels, bias), _vjp=vjp, _op="conv2d")


def softmax_lastdim(x, mask: np.ndarray | None = None) -> Tensor:
    """Numerically stable softmax over the last axis.

    ``mask`` is a constant boolean array broadcastable to x's shape;
    False positions get probability exactly 0 and the remaining entries
    of each row renormalize.  Every row must keep at least one entry: a
    fully masked row divides 0 by 0, and the NaN it yields fails the
    'softmax' op's finiteness check.
    """
    x = as_tensor(x)
    if mask is None:
        shifted = x.data - x.data.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
    else:
        mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
        masked = np.where(mask, x.data, -np.inf)
        e = np.where(mask, np.exp(x.data - masked.max(axis=-1, keepdims=True)), 0.0)
    out = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=-1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, _parents=(x,), _vjp=vjp, _op="softmax")


# ---------------------------------------------------------------------------
# backward pass


def _toposort(root: Tensor) -> list:
    """Tensors reachable from root, parents before children."""
    order, seen, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            stack.append((parent, False))
    return order


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf.

    Repeated calls without zero_grad accumulate, which is what gradient
    accumulation over a batch of scenes relies on.
    """
    if loss.data.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order = _toposort(loss)
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(order):
        g = grads.pop(id(node), None)
        if g is None or not node.requires_grad:
            continue
        if node._vjp is None:
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# finite-difference self-check


def finite_diff_check_params(loss_fn, params, h: float = 1e-4) -> dict:
    """Compare analytic gradients of scalar ``loss_fn()`` against central differences.

    ``params`` maps name -> leaf Tensor; each is marked requires_grad and
    every element is perturbed in place and restored.  Returns name -> max
    over elements of |analytic - central| / (|central| + 1e-8).
    """
    for p in params.values():
        p.requires_grad = True
        p.zero_grad()
    backward(loss_fn())
    errors = {}
    for name, p in params.items():
        analytic = np.zeros(p.shape) if p.grad is None else p.grad
        central = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_fn().item()
            flat[i] = orig - h
            lo = loss_fn().item()
            flat[i] = orig
            central.reshape(-1)[i] = (hi - lo) / (2.0 * h)
        rel = np.abs(analytic - central) / (np.abs(central) + 1e-8)
        errors[name] = float(rel.max()) if rel.size else 0.0
    return errors
