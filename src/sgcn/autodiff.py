"""Reverse-mode automatic differentiation on dense float64 arrays.

Every operation records its inputs and a vector-Jacobian product (vjp)
closure on the output tensor; ``backward`` replays those records in
reverse execution order and accumulates gradients into the leaves.
The primitive set is exactly what the trajectory model needs: batched
matmul, zero-padded 2-d convolution, masked softmax, a handful of
pointwise functions, ``take``, ``reshape``, ``tsum``, one transpose
(``swapaxes``, which swaps two axes) and three fused layers, each one
tape node with a hand-written vjp: ``linear`` (``x @ w + b``),
``gcn_layer`` (a graph convolution: ``(A^T H) W`` then PReLU) and
``conv2d_prelu`` (a temporal-conv block: conv, PReLU and an optional
residual).  A fused layer keeps only what its vjp reads and recomputes
the rest, so a training tape stays small; its outputs and gradients
equal those of the composed primitives bit for bit.  ``conv_cascade``
(the gate's features) maps plain arrays to plain arrays and records no
node.  No other module builds tape nodes or im2col buffers.

PReLU's select is a gather, not ``np.where``.  The sign of a
pre-activation is data-dependent, and a select on a random mask cost
about 5 ns per element on a 25k-element array (2-core Xeon VM), against
under 2 ns to gather each element's factor (1.0 or the slope) from a
two-entry table by the mask's bytes and multiply.  The product keeps
every bit: ``x * 1.0`` is x and ``x * slope`` is ``slope * x``.  The
slope is a scalar, as every model slope is.

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


def _check_op(data: np.ndarray, op: str) -> None:
    """The per-primitive check of ``op``'s output, skipped while this thread defers checks."""
    if not _state.deferred:
        _check_finite(data, op)


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
        _check_op(self.data, _op)
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

    def __neg__(self):
        return mul(self, -1.0)

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
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(g, b.shape) if b.requires_grad else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="add")


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def vjp(g):
        return (_unbroadcast(g, a.shape) if a.requires_grad else None,
                _unbroadcast(-g, b.shape) if b.requires_grad else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="sub")


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def vjp(g):
        return (_unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(g * a.data, b.shape) if b.requires_grad else None)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="mul")


def div(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def vjp(g):
        return (_unbroadcast(g / b.data, a.shape) if a.requires_grad else None,
                _unbroadcast(-g * a.data / (b.data * b.data), b.shape) if b.requires_grad else None)

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


def _prelu_factor(neg: np.ndarray, slope: Tensor) -> np.ndarray:
    """PReLU's per-element factor: the scalar slope where ``neg``, else 1.0."""
    if slope.shape != ():
        raise ShapeError(f"PReLU slope must be a scalar, got shape {slope.shape}")
    return np.array((1.0, slope.data)).take(neg.view(np.uint8))


def _prelu_vjp(g: np.ndarray, pre: np.ndarray, neg: np.ndarray, slope: Tensor) -> tuple:
    """Gradients (input, slope) of PReLU at pre-activation ``pre`` with sign mask ``neg``."""
    gx = _prelu_factor(neg, slope) * g
    gs = ((pre * neg + 0.0) * g).sum()  # + 0.0: a pre of -0.0 gives np.where's +0.0 term, whatever zero the sum starts from
    return gx, gs


def prelu(x, slope) -> Tensor:
    """Parametric ReLU with a scalar slope: identity for x >= 0, slope * x otherwise."""
    x, slope = as_tensor(x), as_tensor(slope)
    neg = x.data < 0
    out = x.data * _prelu_factor(neg, slope)

    def vjp(g):
        return _prelu_vjp(g, x.data, neg, slope)

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


def swapaxes(x, a: int, b: int) -> Tensor:
    """Swap axes ``a`` and ``b``, as an ``np.swapaxes`` view; backward swaps the gradient back."""
    x = as_tensor(x)

    def vjp(g):
        return (np.swapaxes(g, a, b),)

    return Tensor(np.swapaxes(x.data, a, b), _parents=(x,), _vjp=vjp, _op="swapaxes")


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


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched ``a @ b``; operands that cannot multiply raise ShapeError."""
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul needs >= 2-d operands, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} @ {b.shape}")
    try:
        return a @ b
    except ValueError as err:
        raise ShapeError(f"matmul batch extents incompatible: {a.shape} @ {b.shape}") from err


def _product_vjp(g: np.ndarray, a: np.ndarray, b: np.ndarray, wrt_a: bool = True) -> tuple:
    """Gradients (a, b) of ``a @ b`` from the output gradient ``g``; the first is None unless ``wrt_a``."""
    ga = _unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape) if wrt_a else None
    if b.ndim == 2:  # a shared weight: one gemm over every row of every slice
        gb = a.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
    else:
        gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
    return ga, gb


def matmul(a, b) -> Tensor:
    """Batched matrix product a[.., m, k] @ b[.., k, n]."""
    a, b = as_tensor(a), as_tensor(b)
    out = _product(a.data, b.data)

    def vjp(g):
        return _product_vjp(g, a.data, b.data)

    return Tensor(out, _parents=(a, b), _vjp=vjp, _op="matmul")


def linear(x, w, b) -> Tensor:
    """``x @ w + b`` as one node: x [..., m, k], weight w [k, n], bias b [n].

    It keeps nothing but its operands, and computes no gradient for a
    constant ``x``.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if b.shape != w.shape[-1:]:
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[-1]},)")
    out = _product(x.data, w.data)
    out += b.data

    def vjp(g):
        gx, gw = _product_vjp(g, x.data, w.data, wrt_a=x.requires_grad)
        return gx, gw, _unbroadcast(g, b.shape)

    return Tensor(out, _parents=(x, w, b), _vjp=vjp, _op="linear")


def gcn_layer(adjacency: Tensor, features: Tensor, weight: Tensor, slope: Tensor) -> Tensor:
    """One propagation step, ``prelu((A^T H) W, slope)``, as one node: receivers aggregate their influencers.

    Adjacency entry (i, j) weights i's influence on j, so features are
    premultiplied by the transposed slices.  The node keeps A^T H and the
    sign mask; its vjp recomputes the pre-activation (A^T H) W.
    """
    if adjacency.shape[-1] != features.shape[-2]:
        raise ShapeError(f"adjacency {adjacency.shape} cannot aggregate features {features.shape}")
    aggregated = _product(np.swapaxes(adjacency.data, -1, -2), features.data)
    out = _product(aggregated, weight.data)
    neg = out < 0
    out *= _prelu_factor(neg, slope)

    def vjp(g):
        g_pre, g_slope = _prelu_vjp(g, aggregated @ weight.data, neg, slope)
        g_aggregated, g_weight = _product_vjp(g_pre, aggregated, weight.data)
        g_transposed, g_features = _product_vjp(g_aggregated, np.swapaxes(adjacency.data, -1, -2), features.data)
        return np.swapaxes(g_transposed, -1, -2), g_features, g_weight, g_slope

    return Tensor(out, _parents=(adjacency, features, weight, slope), _vjp=vjp, _op="gcn_layer")


def _padder(shape: tuple, kh: int, kw: int):
    """A function that pads an x of ``shape`` [B, C, H, W] and returns its im2col columns [B, C*kh*kw, H*W].

    Each call writes x into the interior of one zero-bordered buffer,
    kh // 2 rows and kw // 2 columns wide, and reshapes one read-only taps
    view [B, C, kh, kw, H, W] of that buffer into columns, rows in
    (c, i, j) order.  numpy makes the reshape a view where the strides
    allow it (a 1x1 kernel, or one channel's Sx1 kernel, whose rows then
    overlap) and a copy elsewhere; a view follows the next call's write.
    """
    n_b, c, height, width = shape
    padded = np.zeros((n_b, c, height + kh - 1, width + kw - 1))
    taps = np.ndarray((n_b, c, kh, kw, height, width), padded.dtype, padded, strides=padded.strides + padded.strides[2:])
    taps.flags.writeable = False
    interior = padded[:, :, kh // 2 : kh // 2 + height, kw // 2 : kw // 2 + width]

    def columns(x: np.ndarray) -> np.ndarray:
        interior[...] = x
        return taps.reshape(n_b, c * kh * kw, height * width)

    return columns


def _correlate(x: np.ndarray, kernels: np.ndarray, cols: np.ndarray | None = None) -> np.ndarray:
    """Zero-padded correlation of x [B, C_in, H, W] with [C_out, C_in, kh, kw] -> [B, C_out, H, W].

    One im2col gemm per window, so a window's result does not depend on B.
    ``cols`` are x's im2col columns, when the caller has them already.
    """
    n_b, _, height, width = x.shape
    if cols is None:
        cols = _padder(x.shape, *kernels.shape[2:])(x)
    out = kernels.reshape(len(kernels), -1) @ cols
    return out.reshape(n_b, -1, height, width)


def _conv_vjp(g: np.ndarray, kernels: np.ndarray, cols: np.ndarray) -> tuple:
    """Gradients (input, kernels, bias) of a conv from its output gradient g [B, C_out, H, W] and input columns.

    The input gradient is the correlation of g with the flipped,
    channel-swapped kernels.
    """
    gx = _correlate(g, np.swapaxes(kernels[:, :, ::-1, ::-1], 0, 1))
    gk = np.tensordot(g.reshape(len(g), len(kernels), -1), cols, axes=([0, 2], [0, 2]))
    return gx, gk.reshape(kernels.shape), g.sum(axis=(0, 2, 3))


def _check_conv(x: Tensor, kernels: Tensor, bias: Tensor) -> None:
    """The operand checks of a zero-padded conv; see :func:`conv2d_zero_pad`."""
    if kernels.ndim != 4:
        raise ShapeError(f"kernels must be 4-d, got {kernels.shape}")
    c_out, c_in, kh, kw = kernels.shape
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"kernel extents must be odd, got {kh}x{kw}")
    if bias.shape != (c_out,):
        raise ShapeError(f"bias shape {bias.shape} != ({c_out},)")
    if x.ndim < 3 or x.shape[-3] != c_in:
        raise ShapeError(f"conv input must be [..., {c_in}, H, W] for kernel C_in {c_in}, got {x.shape}")


def conv2d_zero_pad(x, kernels, bias) -> Tensor:
    """Zero-padded cross-correlation plus a per-output-channel bias.

    ``x`` is [..., C_in, H, W] (any leading axes); ``kernels`` is
    [C_out, C_in, kh, kw] with odd kh, kw so symmetric padding keeps H
    and W unchanged; ``bias`` is [C_out].  Covers the spatial graph's 1x1
    channel fusion; the gate's (1xS)/(Sx1) pairs run through
    :func:`conv_cascade` and the prediction head's convolutions through
    :func:`conv2d_prelu`.
    """
    x, kernels, bias = as_tensor(x), as_tensor(kernels), as_tensor(bias)
    _check_conv(x, kernels, bias)
    c_out, c_in, kh, kw = kernels.shape
    height, width = x.shape[-2:]
    flat = x.data.reshape(-1, c_in, height, width)
    out = _correlate(flat, kernels.data)
    out += bias.data[:, None, None]

    def vjp(g):
        cols = _padder(flat.shape, kh, kw)(flat)
        gx, gk, gb = _conv_vjp(g.reshape(-1, c_out, height, width), kernels.data, cols)
        return gx.reshape(x.shape), gk, gb

    return Tensor(out.reshape(x.shape[:-3] + out.shape[1:]), _parents=(x, kernels, bias), _vjp=vjp, _op="conv2d")


def conv2d_prelu(x, kernels, bias, slope, residual: bool = False) -> Tensor:
    """``prelu(conv2d_zero_pad(x, kernels, bias), slope)``, plus ``x`` when ``residual``, as one node.

    The prediction head's temporal-conv block.  The node keeps its input
    and the sign mask; its vjp builds the im2col columns once, recomputes
    the pre-activation from them and reuses them for the kernel gradient.
    A residual block needs C_out == C_in.
    """
    x, kernels, bias, slope = as_tensor(x), as_tensor(kernels), as_tensor(bias), as_tensor(slope)
    _check_conv(x, kernels, bias)
    c_out, c_in, kh, kw = kernels.shape
    if residual and c_out != c_in:
        raise ShapeError(f"a residual block needs C_out == C_in, got kernels {kernels.shape}")
    height, width = x.shape[-2:]
    flat = x.data.reshape(-1, c_in, height, width)
    out_shape = x.shape[:-3] + (c_out, height, width)

    def pre_activation(cols=None):
        pre = _correlate(flat, kernels.data, cols)
        pre += bias.data[:, None, None]
        return pre.reshape(out_shape)

    out = pre_activation()
    neg = out < 0
    out *= _prelu_factor(neg, slope)
    if residual:
        out += x.data

    def vjp(g):
        cols = _padder(flat.shape, kh, kw)(flat)
        g_pre, g_slope = _prelu_vjp(g, pre_activation(cols), neg, slope)
        gx, gk, gb = _conv_vjp(g_pre.reshape(-1, c_out, height, width), kernels.data, cols)
        gx = gx.reshape(x.shape)
        return (g + gx if residual else gx), gk, gb, g_slope

    return Tensor(out, _parents=(x, kernels, bias, slope), _vjp=vjp, _op="conv2d_prelu")


def conv_cascade(x: np.ndarray, layers) -> np.ndarray:
    """Cascade of paired (1xS) row and (Sx1) column convs, summed then PReLU'd, on plain arrays.

    ``x`` is [..., C, H, W] and the output has its shape; ``layers`` is a
    sequence of (row_k, row_b, col_k, col_b, slope) Tensors whose kernels
    keep the C channels.  The gate features it computes only feed a hard
    threshold that backward never crosses, so it records no node.  Each
    kernel extent gets one padder per call.  The gemms, bias adds, sum
    and PReLU are those of ``conv2d_zero_pad``, ``add`` and ``prelu``, so
    the output is the same to the bit; the padding matters too, as the
    columns' strides pick numpy's matmul path: one channel's (Sx1)
    columns are an overlapping view that numpy multiplies without BLAS.
    Unless checks are deferred, each conv, sum and PReLU output is
    checked under that primitive's name.
    """
    c, height, width = x.shape[-3:]
    out = x.reshape(-1, c, height, width)
    padders = {}  # (kh, kw) -> the padder of that kernel extent

    def conv(layer_in, kernels, bias):
        _check_conv(x, kernels, bias)
        if kernels.shape[0] != c:
            raise ShapeError(f"cascade kernels must keep the {c} channels, got {kernels.shape}")
        extent = kernels.shape[2:]
        if extent not in padders:
            padders[extent] = _padder(layer_in.shape, *extent)
        f = _correlate(layer_in, kernels.data, padders[extent](layer_in))
        f += bias.data[:, None, None]
        _check_op(f, "conv2d")
        return f

    for row_k, row_b, col_k, col_b, slope in layers:
        out, f_col = conv(out, row_k, row_b), conv(out, col_k, col_b)
        out += f_col
        _check_op(out, "add")
        out *= _prelu_factor(out < 0, slope)
        _check_op(out, "prelu")
    return out.reshape(x.shape)


def softmax_lastdim(x, mask: np.ndarray | bool = True) -> Tensor:
    """Numerically stable softmax over the last axis.

    ``mask`` is a constant boolean array broadcastable to x's shape (by
    default nothing is masked); False positions get probability exactly
    0 and the remaining entries of each row renormalize.  Every row must
    keep at least one entry: a fully masked row divides 0 by 0, and the
    NaN it yields fails the 'softmax' op's finiteness check.
    """
    x = as_tensor(x)
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

    Repeated calls without zero_grad accumulate, in place once a leaf has
    a grad, which is what gradient accumulation over a batch relies on.
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
            if node.grad is None:
                node.grad = g.copy()
            else:  # in place: training.Adam's parameters hold views of its flat gradient
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not parent.requires_grad:
                continue
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg


# ---------------------------------------------------------------------------
# finite-difference self-check


def finite_diff_check_params(loss_fn, params) -> dict:
    """Compare analytic gradients of scalar ``loss_fn()`` against central differences.

    ``params`` maps name -> leaf Tensor; each is marked requires_grad and
    every element is perturbed in place by +-1e-4 and restored.  Returns
    name -> max over elements of |analytic - central| / (|central| + 1e-8).
    """
    h = 1e-4
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
