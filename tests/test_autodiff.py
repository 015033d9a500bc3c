"""Oracle and property tests for the reverse-mode engine."""

import ast
import threading
import zlib
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgcn import autodiff as ad
from sgcn import graphs as gg
from sgcn.errors import ConfigError, NumericsError, ShapeError

from conftest import finite_diff_check_params, prelu


def rand(rng, *shape):
    return ad.Tensor(rng.uniform(-1.0, 1.0, shape), requires_grad=True)


class TestMatmul:
    def test_identity(self):
        eye = ad.Tensor(np.eye(2))
        m = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose(ad.matmul(eye, m).data, m.data)

    def test_hand_product(self):
        a = ad.Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = ad.Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose(ad.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_grad_sum_of_product(self):
        a = ad.Tensor([[1.0, 1.0]], requires_grad=True)
        b = ad.Tensor([[2.0], [3.0]])
        ad.backward(ad.tsum(ad.matmul(a, b)))
        assert_allclose(a.grad, [[2.0, 3.0]])

    def test_inner_extent_mismatch(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones((2, 3))), ad.Tensor(np.ones((2, 3))))

    def test_vector_operand_rejected(self):
        with pytest.raises(ShapeError):
            ad.matmul(ad.Tensor(np.ones(3)), ad.Tensor(np.ones((3, 2))))

    def test_batch_extent_mismatch(self):
        with pytest.raises(ShapeError, match=r"batch extents incompatible: \(2, 2, 3\) @ \(3, 3, 4\)"):
            ad.matmul(ad.Tensor(np.ones((2, 2, 3))), ad.Tensor(np.ones((3, 3, 4))))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(4, 2, 3))
        b = rng.normal(size=(4, 3, 5))
        out = ad.matmul(ad.Tensor(a), ad.Tensor(b)).data
        for t in range(4):
            assert_allclose(out[t], a[t] @ b[t])

    def test_broadcast_grad_shapes(self):
        rng = np.random.default_rng(1)
        a = rand(rng, 4, 2, 3)
        b = rand(rng, 3, 5)
        ad.backward(ad.tsum(ad.matmul(a, b)))
        assert a.grad.shape == (4, 2, 3)
        assert b.grad.shape == (3, 5)


class TestConv2d:
    def test_zero_input(self):
        k = ad.Tensor(np.ones((2, 1, 3, 3)))
        out = ad.conv2d_zero_pad(ad.Tensor(np.zeros((1, 4, 4))), k, np.zeros(2))
        assert_allclose(out.data, 0.0)

    def test_identity_kernel(self):
        x = ad.Tensor(np.arange(12.0).reshape(1, 3, 4))
        k = ad.Tensor(np.ones((1, 1, 1, 1)))
        assert_allclose(ad.conv2d_zero_pad(x, k, np.zeros(1)).data, x.data)

    def test_shifting_kernel(self):
        # [0,0,1] picks the right neighbor; zero pad supplies the trailing 0.
        x = ad.Tensor(np.array([1.0, 2.0, 3.0]).reshape(1, 1, 3))
        k = ad.Tensor(np.array([0.0, 0.0, 1.0]).reshape(1, 1, 1, 3))
        assert_allclose(ad.conv2d_zero_pad(x, k, np.zeros(1)).data, [[[2.0, 3.0, 0.0]]])

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 4, 5))
        k = rng.normal(size=(3, 2, 1, 3))
        b = rng.normal(size=3)
        out = ad.conv2d_zero_pad(ad.Tensor(x), ad.Tensor(k), ad.Tensor(b)).data

        xp = np.pad(x, ((0, 0), (0, 0), (1, 1)))
        want = np.zeros((3, 4, 5))
        for o in range(3):
            for c in range(2):
                for h in range(4):
                    for w in range(5):
                        for j in range(3):
                            want[o, h, w] += k[o, c, 0, j] * xp[c, h, w + j]
            want[o] += b[o]
        assert_allclose(out, want, atol=1e-12)

    def test_even_kernel_rejected(self):
        with pytest.raises(ConfigError):
            ad.conv2d_zero_pad(ad.Tensor(np.ones((1, 3, 3))), ad.Tensor(np.ones((1, 1, 2, 2))), np.zeros(1))

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.conv2d_zero_pad(ad.Tensor(np.ones((2, 3, 3))), ad.Tensor(np.ones((1, 3, 1, 1))), np.zeros(1))

    @pytest.mark.parametrize("kernel_shape, bias_shape, match", [
        ((1, 1, 3), (1,), r"kernels must be 4-d, got \(1, 1, 3\)"),
        ((1, 1, 1, 3, 1), (1,), r"kernels must be 4-d, got \(1, 1, 1, 3, 1\)"),
        ((2, 1, 1, 3), (1,), r"bias shape \(1,\) != \(2,\)"),
        ((2, 1, 1, 3), (2, 1), r"bias shape \(2, 1\) != \(2,\)"),
    ])
    def test_kernel_rank_and_bias_shape_rejected(self, kernel_shape, bias_shape, match):
        with pytest.raises(ShapeError, match=match):
            ad.conv2d_zero_pad(ad.Tensor(np.ones((1, 3, 3))), ad.Tensor(np.ones(kernel_shape)), np.zeros(bias_shape))

    def test_batched_equals_per_sample(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(3, 2, 4, 4))
        k = ad.Tensor(rng.normal(size=(2, 2, 3, 1)))
        b = ad.Tensor(rng.normal(size=2))
        batched = ad.conv2d_zero_pad(ad.Tensor(x), k, b).data
        for i in range(3):
            single = ad.conv2d_zero_pad(ad.Tensor(x[i]), k, b).data
            assert np.array_equal(batched[i], single)

    def test_leading_axes_equal_per_slice(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 3, 2, 4, 5))
        k = ad.Tensor(rng.normal(size=(3, 2, 3, 3)))
        b = ad.Tensor(rng.normal(size=3))
        out = ad.conv2d_zero_pad(ad.Tensor(x), k, b).data
        assert out.shape == (2, 3, 3, 4, 5)
        for i in range(2):
            for j in range(3):
                assert np.array_equal(out[i, j], ad.conv2d_zero_pad(ad.Tensor(x[i, j]), k, b).data)

    def test_columns_match_sliding_window_oracle(self):
        # one channel's 5x1 columns are a view of the padded buffer, three channels' a copy
        rng = np.random.default_rng(3)
        for x in rng.normal(size=(2, 1, 4, 6)), rng.normal(size=(2, 3, 4, 6)):
            padded = np.pad(x, ((0, 0), (0, 0), (2, 2), (0, 0)))
            taps = np.lib.stride_tricks.sliding_window_view(padded, (5, 1), axis=(2, 3))
            oracle = taps.transpose(0, 1, 4, 5, 2, 3).reshape(2, x.shape[1] * 5, 24)
            assert np.array_equal(ad._columns(x, 5, 1), oracle)

    @pytest.mark.parametrize("kh, kw, c, is_view", [(5, 1, 1, True), (1, 5, 1, False), (5, 1, 3, False), (1, 1, 3, True)])
    def test_columns_copy_or_view_as_the_strides_allow(self, kh, kw, c, is_view):
        # a one-channel (Sx1) kernel's columns stay an overlapping view of the
        # padded buffer: numpy multiplies it without BLAS, and its bits differ
        # from a copy's; a reshape that must copy owns a [B, C, kh, kw, H, W] base
        x = np.random.default_rng(7).normal(size=(2, c, 4, 6))
        cols = ad._columns(x, kh, kw)
        assert cols.shape == (2, c * kh * kw, 24)
        assert (cols.base.shape == (2, c, 4 + kh - 1, 6 + kw - 1)) == is_view

    @pytest.mark.parametrize("wrt", ["input", "kernel"])
    def test_multichannel_3x3_gradients(self, wrt):
        # a square kernel with C_in != C_out exercises the flip and the
        # channel swap of the input gradient
        rng = np.random.default_rng(6)
        x = rand(rng, 2, 2, 4, 5)
        k = rand(rng, 3, 2, 3, 3)
        weights = rng.normal(size=(2, 3, 4, 5))
        param = x if wrt == "input" else k
        errors = finite_diff_check_params(
            lambda: ad.tsum(ad.conv2d_zero_pad(x, k, np.zeros(3)) * weights), {wrt: param}
        )
        assert errors[wrt] < 1e-4


def composed_linear(x, w, b):
    """The composed form of ``ad.linear``: the oracle for its output and gradients."""
    return ad.matmul(x, w) + b


def composed_conv2d_prelu(x, kernels, bias, slope, residual=False):
    """The composed form of ``ad.conv2d_prelu``: the oracle for its output and gradients."""
    out = prelu(ad.conv2d_zero_pad(x, kernels, bias), slope)
    return out + x if residual else out


FUSED = {
    "linear": (ad.linear, composed_linear),
    "linear_constant_input": (ad.linear, composed_linear),
    "conv2d_prelu": (ad.conv2d_prelu, composed_conv2d_prelu),
    "conv2d_prelu_residual": (partial(ad.conv2d_prelu, residual=True), partial(composed_conv2d_prelu, residual=True)),
}


def fused_operands(name, seed):
    """Operands of one FUSED case for a group of 3 windows; every leaf is trainable but a constant input's."""
    rng = np.random.default_rng(seed)
    if name.startswith("linear"):
        x = ad.Tensor(rng.uniform(-1.0, 1.0, (3, 4, 2, 5)), requires_grad=name == "linear")
        return [x, rand(rng, 5, 6), rand(rng, 6)]
    c_out = 4 if name.endswith("residual") else 6  # the head's first block maps T_obs to T_pred channels
    return [rand(rng, 3, 4, 2, 5), rand(rng, c_out, 4, 1, 3), rand(rng, c_out), ad.Tensor(0.25, requires_grad=True)]


class TestFusedLayers:
    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_gradients_match_central_differences(self, name):
        fused, _ = FUSED[name]
        operands = fused_operands(name, seed=zlib.crc32(name.encode()))
        if name.startswith("conv2d_prelu"):  # both PReLU branches, so the slope gradient is exercised
            pre = ad.conv2d_zero_pad(*operands[:3]).data
            assert (pre < 0).any() and (pre > 0).any()
        weights = np.random.default_rng(1).normal(size=fused(*operands).shape)
        params = {f"operand{i}": op for i, op in enumerate(operands) if op.requires_grad}
        errors = finite_diff_check_params(lambda: ad.tsum(fused(*operands) * weights), params)
        assert max(errors.values()) < 1e-4, errors

    @pytest.mark.parametrize("name", sorted(FUSED))
    def test_equals_the_composed_layer_bit_for_bit(self, name):
        fused, composed = FUSED[name]
        got, want = fused_operands(name, seed=2), fused_operands(name, seed=2)
        out, ref = fused(*got), composed(*want)
        assert np.array_equal(out.data, ref.data)
        weights = np.random.default_rng(3).normal(size=out.shape)
        ad.backward(ad.tsum(out * weights))
        ad.backward(ad.tsum(ref * weights))
        for i, (a, b) in enumerate(zip(got, want)):
            assert (a.grad is None) == (b.grad is None) == (not a.requires_grad), i
            assert a.grad is None or np.array_equal(a.grad, b.grad), i

    def test_linear_computes_no_gradient_for_a_constant_input(self):
        x, w, b = fused_operands("linear_constant_input", seed=4)
        out = ad.linear(x, w, b)
        gx, gw, gb = out._vjp(np.ones(out.shape))
        assert gx is None and gw.shape == w.shape and gb.shape == b.shape

    def test_operand_checks(self):
        x = ad.Tensor(np.ones((2, 3, 3)))
        with pytest.raises(ConfigError):  # conv2d_zero_pad's checks
            ad.conv2d_prelu(x, ad.Tensor(np.ones((2, 2, 2, 2))), np.zeros(2), 0.25)
        with pytest.raises(ShapeError):
            ad.conv2d_prelu(x, ad.Tensor(np.ones((2, 3, 1, 1))), np.zeros(2), 0.25)
        with pytest.raises(ShapeError, match="residual"):
            ad.conv2d_prelu(x, ad.Tensor(np.ones((3, 2, 1, 1))), np.zeros(3), 0.25, residual=True)
        with pytest.raises(ShapeError):
            ad.linear(x, ad.Tensor(np.ones((3, 4))), np.zeros(3))
        with pytest.raises(ShapeError):
            ad.linear(x, ad.Tensor(np.ones((2, 4))), np.zeros(4))


class TestSoftmax:
    def test_uniform(self):
        out = ad.softmax_lastdim(ad.Tensor([0.0, 0.0, 0.0]))
        assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3])

    def test_scalar_oracle(self):
        x = ad.Tensor([1.0 / np.sqrt(2.0), 0.0])
        out = ad.softmax_lastdim(x).data
        e = np.exp(1.0 / np.sqrt(2.0))
        assert_allclose(out, [e / (e + 1.0), 1.0 / (e + 1.0)])
        assert_allclose(out, [0.6698, 0.3302], atol=5e-5)

    def test_single_unmasked_entry(self):
        out = ad.softmax_lastdim(ad.Tensor([5.0, 1.0]), mask=np.array([False, True]))
        assert_allclose(out.data, [0.0, 1.0])

    def test_masked_rows_renormalize(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(6, 5))
        mask = rng.uniform(size=(6, 5)) > 0.3
        mask[:, 0] = True
        out = ad.softmax_lastdim(ad.Tensor(x), mask=mask).data
        assert_allclose(out.sum(axis=-1), 1.0)
        assert np.all(out[~mask] == 0.0)

    def test_fully_masked_row_raises(self):
        mask = np.array([[False, False], [True, True]])
        with np.errstate(invalid="ignore"), pytest.raises(NumericsError, match="'softmax'"):
            ad.softmax_lastdim(ad.Tensor(np.ones((2, 2))), mask=mask)

    def test_large_logits_stable(self):
        out = ad.softmax_lastdim(ad.Tensor([1000.0, 1000.0, 0.0]))
        assert_allclose(out.data[:2], [0.5, 0.5])


class TestPointwise:
    def test_sigmoid_at_zero(self):
        assert gg._sigmoid(np.array([0.0]))[0] == 0.5

    def test_sigmoid_extreme_inputs(self):
        out = gg._sigmoid(np.array([-1000.0, 1000.0]))
        assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_prelu_negative_branch(self):
        assert prelu(ad.Tensor(-2.0), ad.Tensor(0.25)).data.item() == -0.5

    def test_prelu_positive_branch(self):
        assert prelu(ad.Tensor(3.0), ad.Tensor(0.7)).data.item() == 3.0

    def test_prelu_slope_grad(self):
        x = ad.Tensor([-2.0, 3.0])
        slope = ad.Tensor(0.25, requires_grad=True)
        ad.backward(ad.tsum(prelu(x, slope)))
        assert_allclose(slope.grad, -2.0)

    def test_log_rejects_nonpositive(self):
        with pytest.raises(NumericsError, match=r"^non-finite values produced by 'log'$"), np.errstate(divide="ignore"):
            ad.log(ad.Tensor([1.0, 0.0]))

    def test_repr_names_shape_op_and_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        assert repr(ad.exp(x)) == "Tensor(shape=(2,), op='exp', requires_grad=True)"
        assert repr(ad.Tensor(0.0)) == "Tensor(shape=(), op='tensor', requires_grad=False)"

    def test_clamp_values_and_grad(self):
        x = ad.Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        ad.backward(ad.tsum(ad.clamp(x, lo=-1.0, hi=1.0)))
        assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_broadcast_add_grad(self):
        a = ad.Tensor(np.ones((3, 4)), requires_grad=True)
        b = ad.Tensor(np.ones(4), requires_grad=True)
        ad.backward(ad.tsum(a + b))
        assert_allclose(a.grad, np.ones((3, 4)))
        assert_allclose(b.grad, 3.0 * np.ones(4))

    def test_overflow_surfaces(self):
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            ad.exp(ad.Tensor(1000.0))

    def test_divide_by_zero_surfaces(self):
        with pytest.raises((NumericsError, FloatingPointError)):
            with np.errstate(divide="raise", invalid="raise"):
                ad.div(ad.Tensor(1.0), ad.Tensor(0.0))


def where_sigmoid(data):
    """The split-by-sign sigmoid that ``gg._sigmoid`` replaced: the oracle for its bits."""
    out = np.empty_like(data)
    pos = data >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-data[pos]))
    e = np.exp(data[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def where_prelu_vjp(g, pre, slope):
    """The ``np.where`` PReLU gradients that ``ad._prelu_vjp`` replaced: the oracle for their bits."""
    neg = pre < 0
    return np.where(neg, slope, 1.0) * g, ad._unbroadcast(np.where(neg, pre, 0.0) * g, ())


TINY = np.nextafter(0.0, 1.0)  # the smallest subnormal
EDGES = np.array([0.0, -0.0, TINY, -TINY, 1e-310, -1e-310, 2.2250738585072014e-308, -1.0, 1.0, 1e300, -1e300])
SELECT_INPUTS = [EDGES, np.random.default_rng(11).normal(size=(3, 4, 5, 6)),
                 np.random.default_rng(12).normal(scale=50.0, size=(7, 64))]


class TestBranchFreeSelects:
    """The gather-based PReLU and the exp(-|x|) sigmoid keep every bit of the np.where forms they replaced."""

    @pytest.mark.parametrize("slope", [0.25, 0.0, -0.7, 1.3, 1e-300])
    @pytest.mark.parametrize("case", range(len(SELECT_INPUTS) + 1))
    def test_prelu_forward_bits(self, case, slope):
        x = SELECT_INPUTS[case] if case < len(SELECT_INPUTS) else np.array([np.inf, -np.inf, np.nan, -np.nan])
        with np.errstate(all="ignore"), ad.scope(deferred=True):
            out = prelu(ad.Tensor(x), ad.Tensor(slope)).data
            want = np.where(x < 0, slope * x, x)
        assert out.tobytes() == want.tobytes()

    @pytest.mark.parametrize("slope", [0.25, 0.0, -0.7, 1e-300])
    @pytest.mark.parametrize("case", range(len(SELECT_INPUTS)))
    def test_prelu_gradient_bits(self, case, slope):
        pre = SELECT_INPUTS[case]
        g = np.random.default_rng(13).normal(size=pre.shape)
        for upstream in (np.ones_like(pre), g, np.asfortranarray(g)):  # the last laid out as a transposed gradient
            with np.errstate(all="ignore"):
                gx, gs = ad._prelu_vjp(upstream, pre, pre < 0, ad.Tensor(slope))
                want_x, want_s = where_prelu_vjp(upstream, pre, slope)
            assert gx.tobytes() == want_x.tobytes()
            assert np.float64(gs).tobytes() == np.float64(want_s).tobytes()

    @pytest.mark.parametrize("case", range(len(SELECT_INPUTS) + 1))
    def test_sigmoid_bits(self, case):
        extremes = np.array([800.0, -800.0, np.inf, -np.inf, 745.0, -745.0])
        x = SELECT_INPUTS[case] if case < len(SELECT_INPUTS) else extremes
        with np.errstate(all="ignore"):
            assert gg._sigmoid(x).tobytes() == where_sigmoid(x).tobytes()

    def test_non_scalar_slope_rejected(self):
        with pytest.raises(ShapeError, match="scalar"):
            ad.conv2d_prelu(np.ones((1, 3, 3)), np.ones((1, 1, 1, 1)), np.zeros(1), np.full(3, 0.25))


class TestConstantOperands:
    @pytest.mark.parametrize("op", [ad.add, ad.sub, ad.mul, ad.div])
    def test_elementwise_vjp_skips_a_constant_operand(self, op):
        rng = np.random.default_rng(14)
        trainable, constant = rand(rng, 3, 4), ad.Tensor(rng.uniform(1.0, 2.0, 4))
        for a, b in ((trainable, constant), (constant, trainable)):
            out = op(a, b)
            grads = out._vjp(rng.normal(size=out.shape))
            assert [g is None for g in grads] == [not a.requires_grad, not b.requires_grad]
            got = grads[0] if a.requires_grad else grads[1]
            assert got.shape == trainable.shape


class TestCheckScope:
    def test_stage_is_named_in_the_message(self):
        with pytest.raises(NumericsError, match=r"^non-finite values produced by 'exp' in stage 'branches'$"):
            with ad.scope(stage="branches"), np.errstate(over="ignore"):
                ad.exp(ad.Tensor(1000.0))

    def test_deferred_block_skips_per_op_checks(self):
        with ad.scope(deferred=True), np.errstate(over="ignore"):
            out = ad.exp(ad.Tensor(1000.0))
        assert np.isinf(out.data.item())

    def test_state_restored_after_a_raise(self):
        with pytest.raises(NumericsError, match="planted"):
            with ad.scope(deferred=True, stage="spatial_graph"):
                raise NumericsError("planted")
        with pytest.raises(NumericsError, match=r"^non-finite values produced by 'exp'$"), np.errstate(over="ignore"):
            ad.exp(ad.Tensor(1000.0))

    def test_scopes_nest(self):
        with ad.scope(stage="outer"):
            with ad.scope(stage="inner"):
                pass
            with pytest.raises(NumericsError, match="in stage 'outer'"), np.errstate(over="ignore"):
                ad.exp(ad.Tensor(1000.0))

    def test_deferral_is_per_thread(self):
        # another thread holding a deferred scope leaves this thread's checks on
        entered, release = threading.Event(), threading.Event()
        seen = []

        def hold():
            with ad.scope(deferred=True, stage="other"), np.errstate(over="ignore"):
                entered.set()
                release.wait(10)
                seen.append(ad.exp(ad.Tensor(1000.0)).data.item())

        worker = threading.Thread(target=hold)
        worker.start()
        try:
            assert entered.wait(10)
            with pytest.raises(NumericsError, match=r"^non-finite values produced by 'exp'$"), np.errstate(over="ignore"):
                ad.exp(ad.Tensor(1000.0))
        finally:
            release.set()
            worker.join()
        assert seen == [np.inf]


class TestBackward:
    def test_sum_gives_ones(self):
        x = ad.Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        ad.backward(ad.tsum(x))
        assert_allclose(x.grad, np.ones((2, 3)))

    def test_sum_of_squares(self):
        x = ad.Tensor([1.0, 2.0, 3.0], requires_grad=True)
        ad.backward(ad.tsum(x * x))
        assert_allclose(x.grad, [2.0, 4.0, 6.0])

    def test_nonscalar_loss_rejected(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ShapeError):
            ad.backward(x * x)

    def test_accumulation_across_calls(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        ad.backward(ad.tsum(x * x))
        ad.backward(ad.tsum(x * x))
        assert_allclose(x.grad, [4.0, 8.0])

    def test_reused_tensor_accumulates_once_per_use(self):
        x = ad.Tensor(2.0, requires_grad=True)
        y = x * x  # d/dx = 2x through two uses of the same leaf
        ad.backward(ad.tsum(y))
        assert_allclose(x.grad, 4.0)

    def test_three_op_chain_matches_symbolic(self):
        # loss = sum(log(1 + exp(x))) has d/dx = sigmoid(x).
        rng = np.random.default_rng(5)
        x = ad.Tensor(rng.uniform(-2, 2, size=7), requires_grad=True)
        ad.backward(ad.tsum(ad.log(ad.exp(x) + 1.0)))
        assert_allclose(x.grad, 1.0 / (1.0 + np.exp(-x.data)), atol=1e-12)

    def test_constant_branch_gets_no_grad(self):
        x = ad.Tensor([1.0, 2.0], requires_grad=True)
        c = ad.Tensor([3.0, 4.0])
        ad.backward(ad.tsum(x * c))
        assert c.grad is None


class TestFiniteDiffCheck:
    def test_linear_exact(self):
        x = ad.Tensor(np.arange(4.0))
        assert finite_diff_check_params(lambda: ad.tsum(x), {"x": x})["x"] < 1e-10

    def test_threshold_constant_path(self):
        # Hard-threshold masks are constants: the analytic gradient through
        # the surviving values must still match central differences.
        rng = np.random.default_rng(7)
        x = ad.Tensor(rng.uniform(0.5, 1.5, size=6))

        def f(t):
            keep = ad.Tensor((gg._sigmoid(t.data) >= 0.5).astype(float))
            return ad.tsum(t * keep)

        assert finite_diff_check_params(lambda: f(x), {"x": x})["x"] < 1e-8


PRIMITIVE_CASES = {
    "add": lambda t: ad.tsum(t + np.arange(6.0)),
    "sub": lambda t: ad.tsum(ad.sub(t, 0.5) * 2.0),
    "mul": lambda t: ad.tsum(t * t),
    "div": lambda t: ad.tsum(ad.div(t, 2.5)),
    "div_denominator": lambda t: ad.tsum(ad.div(1.0, t + 3.0)),
    "matmul": lambda t: ad.tsum(ad.matmul(ad.reshape(t, (2, 3)), ad.reshape(t, (3, 2)))),
    "exp": lambda t: ad.tsum(ad.exp(t)),
    "log": lambda t: ad.tsum(ad.log(t + 3.0)),
    "tanh": lambda t: ad.tsum(ad.tanh(t)),
    "prelu": lambda t: ad.tsum(prelu(t, ad.Tensor(0.25))),
    "take": lambda t: ad.tsum(t[1:4] * 2.0),
    "reshape": lambda t: ad.tsum(ad.reshape(t, (3, 2)) * np.arange(6.0).reshape(3, 2)),
    "swapaxes": lambda t: ad.tsum(ad.swapaxes(ad.reshape(t, (1, 2, 3)), -1, -3) * np.arange(6.0).reshape(3, 2, 1)),
    "sum_axis": lambda t: ad.tsum(ad.tsum(ad.reshape(t, (2, 3)), axis=0) * np.array([1.0, 2.0, 3.0])),
    "softmax": lambda t: ad.tsum(ad.softmax_lastdim(t) * np.arange(6.0)),
    "softmax_masked": lambda t: ad.tsum(
        ad.softmax_lastdim(ad.reshape(t, (2, 3)), mask=np.array([[True, False, True]] * 2))
        * np.arange(6.0).reshape(2, 3)
    ),
    "conv2d": lambda t: ad.tsum(
        ad.conv2d_zero_pad(ad.reshape(t, (1, 2, 3)), ad.Tensor([[[[0.5, 1.0, -0.5]]]]), np.zeros(1))
    ),
    "conv2d_kernel": lambda t: ad.tsum(
        ad.conv2d_zero_pad(ad.Tensor(np.arange(6.0).reshape(1, 2, 3)), ad.reshape(t, (2, 1, 3, 1)), np.zeros(2))
    ),
    "clamp": lambda t: ad.tsum(ad.clamp(t, lo=-0.9, hi=0.9)),
}


def check_primitive_gradient(name):
    """Central-difference check of one PRIMITIVE_CASES entry at 10 points seeded by its name."""
    f = PRIMITIVE_CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))  # str hash() changes per process
    for _ in range(10):
        x = ad.Tensor(rng.uniform(-1.0, 1.0, size=6))
        if name == "clamp":  # keep away from the clip kinks
            x = ad.Tensor(np.where(np.abs(x.data) > 0.85, 0.0, x.data))
        if name == "prelu":  # keep away from the kink at 0
            x = ad.Tensor(np.where(np.abs(x.data) < 0.05, 0.5, x.data))
        assert finite_diff_check_params(lambda: f(x), {"x": x})["x"] < 1e-4, name


@pytest.mark.parametrize("name", sorted(PRIMITIVE_CASES))
def test_primitive_gradients_match_central_differences(name):
    check_primitive_gradient(name)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_primitives_deterministic(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 4))
    a = ad.softmax_lastdim(ad.tanh(ad.Tensor(x)) * 2.0).data
    b = ad.softmax_lastdim(ad.tanh(ad.Tensor(x)) * 2.0).data
    assert np.array_equal(a, b)


@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_softmax_rows_stochastic(rows, cols, seed):
    rng = np.random.default_rng(seed)
    out = ad.softmax_lastdim(ad.Tensor(rng.normal(scale=3.0, size=(rows, cols)))).data
    assert np.all(out >= 0.0)
    assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)


EXIT_CHECK = "_check_finite"  # the one private autodiff name other modules may call


def autodiff_internals(source: str) -> list:
    """Where ``source`` builds a tape node or reads a private autodiff name, as "line: what" strings.

    A tape node is a ``Tensor(...)`` call that passes ``_parents`` or
    ``_vjp``, by keyword or by position.
    """
    tree = ast.parse(source)
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {alias.asname or alias.name for node in imports if node.module in (None, "sgcn")
               for alias in node.names if alias.name == "autodiff"}
    found = [f"{node.lineno}: imports {alias.name}" for node in imports if node.module in ("autodiff", "sgcn.autodiff")
             for alias in node.names if alias.name.startswith("_") and alias.name != EXIT_CHECK]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules
                and node.attr.startswith("_") and node.attr != EXIT_CHECK):
            found.append(f"{node.lineno}: {node.value.id}.{node.attr}")
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Tensor":
            if len(node.args) > 2 or {"_parents", "_vjp"} & {k.arg for k in node.keywords}:
                found.append(f"{node.lineno}: builds a tape node")
    return found


def test_boundary_scan_finds_tape_nodes_and_private_names():
    source = """
from . import autodiff as ad
from .autodiff import Tensor, _check_finite, _columns
a = Tensor(x, _parents=(x,), _vjp=vjp)
b = ad.Tensor(x, False, (x,), vjp)
c = ad._correlate(x, k)
ad._check_finite(c, "exit")
d = Tensor(x, requires_grad=True)
"""
    assert autodiff_internals(source) == ["3: imports _columns", "4: builds a tape node",
                                          "5: builds a tape node", "6: ad._correlate"]


def test_only_autodiff_builds_tape_nodes():
    # every other module reaches the tape through public primitives and
    # calls no private autodiff name but the exit check
    package = Path(ad.__file__).parent
    found = {path.name: autodiff_internals(path.read_text())
             for path in sorted(package.glob("*.py")) if path.name != "autodiff.py"}
    assert len(found) > 5
    assert not any(found.values()), found


# Public names under src/sgcn that no command runs yet, each with the reason it stays.
UNUSED_ALLOWED = {
    "evaluation.mu_path_metrics": "the mean-path ADE/FDE that ROADMAP items 1 and 7 report",
}


def sgcn_module(node: ast.ImportFrom):
    """The sgcn module an import reads names from: "" for the package itself, None outside sgcn."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module == "sgcn":
        return ""
    if node.level == 0 and node.module and node.module.startswith("sgcn."):
        return node.module[len("sgcn."):]
    return None


def name_uses(tree, module=None) -> list:
    """(key, node) for each use in ``tree``, the code of sgcn module ``module`` (None outside the package).

    Keys: "mod.name" for a load of ``name`` inside ``mod``, an import of
    it from ``mod``, or an attribute read on a name bound to ``mod``;
    ".attr" for any attribute access, which is how a method is used.
    """
    bound, found = {}, []  # bound: local name -> the sgcn module it names
    for node in ast.walk(tree):
        source = sgcn_module(node) if isinstance(node, ast.ImportFrom) else None
        for alias in node.names if source is not None else ():
            if source:
                found.append((f"{source}.{alias.name}", node))
            else:
                bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.append((f".{node.attr}", node))
            if isinstance(node.value, ast.Name) and node.value.id in bound:
                found.append((f"{bound[node.value.id]}.{node.attr}", node))
        elif module is not None and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.append((f"{module}.{node.id}", node))
    return found


def public_definitions(tree):
    """(name, node) of each public module-level function and class, and ("Class.method", node) of its public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def unused_public_names(package: dict, others: list) -> list:
    """Public definitions in ``package`` (module -> source) with no use in it or in ``others`` outside themselves."""
    trees = {module: ast.parse(source) for module, source in package.items()}
    parsed = [(tree, module) for module, tree in trees.items()] + [(ast.parse(source), None) for source in others]
    uses = {}  # key -> the nodes that use it
    for tree, module in parsed:
        for key, node in name_uses(tree, module):
            uses.setdefault(key, []).append(node)
    unused = []
    for module, tree in trees.items():
        for name, definition in public_definitions(tree):
            key = f".{name.split('.')[1]}" if "." in name else f"{module}.{name}"
            inside = {id(node) for node in ast.walk(definition)}
            if all(id(node) in inside for node in uses.get(key, ())):
                unused.append(f"{module}.{name}")
    return unused


def test_unused_name_scan_counts_only_uses_of_the_module():
    package = {"evaluation": """
class Report:
    ade: float

    def rows(self):
        return self.rows()

def ade(pred):
    return ade(pred)

def fde(pred):
    return pred

def scored(pred):
    return fde(pred)
"""}
    user = """
from sgcn import evaluation as ev
from sgcn.evaluation import scored
report = ev.Report()
print(report.ade, scored(0))
"""
    assert unused_public_names(package, [user]) == ["evaluation.Report.rows", "evaluation.ade"]


def test_every_public_name_under_src_has_a_caller():
    # src/ holds what train, eval, predict, dump-graphs, the scripts and the
    # benchmark run; code only tests call lives under tests/
    root = Path(__file__).resolve().parent.parent
    package = {path.stem: path.read_text() for path in sorted((root / "src" / "sgcn").glob("*.py"))}
    others = [path.read_text() for folder in ("scripts", "bench") for path in sorted((root / folder).glob("*.py"))]
    assert len(package) > 5 and len(others) > 5
    # an exemption that gains a caller is stale: delete it from UNUSED_ALLOWED
    unused = unused_public_names(package, others)
    assert sorted(unused) == sorted(UNUSED_ALLOWED), unused
