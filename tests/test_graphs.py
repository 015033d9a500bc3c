"""Sparse graph construction: oracles, invariants, and ablation behavior."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from sgcn import autodiff as ad
from sgcn import graphs as gg
from sgcn import model as mm
from sgcn.autodiff import Tensor
from sgcn.config import ModelConfig
from sgcn.errors import ConfigError, NumericsError, ShapeError

from conftest import prelu

CFG = ModelConfig()


def small_cfg(**kw):
    base = dict(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)
    base.update(kw)
    return ModelConfig(**base)


def scene(rng, t_obs, n):
    return rng.normal(scale=0.4, size=(t_obs, n, 2))


class TestPositionEncoding:
    def test_shape_and_range(self):
        table = gg.position_encoding_table(8, 64)
        assert table.shape == (8, 64)
        assert np.all(np.abs(table) <= 1.0)

    def test_first_row_alternates(self):
        table = gg.position_encoding_table(4, 6)
        assert_allclose(table[0], [0.0, 1.0, 0.0, 1.0, 0.0, 1.0])

    def test_known_entry(self):
        table = gg.position_encoding_table(3, 4)
        assert_allclose(table[2, 0], np.sin(2.0))
        assert_allclose(table[2, 2], np.sin(2.0 / 100.0))

    def test_odd_dim_rejected(self):
        # the one parity rule, which every position table's dim passes through
        with pytest.raises(ConfigError, match="embed_dim must be even for the sin/cos position table, got 5"):
            small_cfg(embed_dim=5)


class TestEmbedNodes:
    """The node lift h0 that each graph builder returns: ``autodiff.linear``, plus the position table for the temporal graph."""

    def test_zero_nodes_zero_bias(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)  # random embedding weights, zero biases
        spatial_h0 = gg.build_spatial_graph(np.zeros((4, 3, 2)), w, cfg)[1]
        assert np.array_equal(spatial_h0.data, np.zeros((4, 3, 16)))
        w["tmp_embed_w"].data[...] = 0.0
        w["tmp_embed_b"].data[...] = 0.0
        temporal_h0 = gg.build_temporal_graph(np.zeros((4, 3, 2)), w, cfg)[1]
        assert np.array_equal(temporal_h0.data, np.broadcast_to(gg.position_encoding_table(4, 16), (3, 4, 16)))

    def test_encoding_breaks_coordinate_ties(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        disp = np.ones((4, 2, 2))  # the same displacement at every step
        spatial_h0 = gg.build_spatial_graph(disp, w, cfg)[1]
        temporal_h0 = gg.build_temporal_graph(disp, w, cfg)[1]
        assert np.array_equal(spatial_h0.data[0, 0], spatial_h0.data[1, 0])
        assert not np.allclose(temporal_h0.data[0, 0], temporal_h0.data[0, 1])

    def test_zero_weights_pass_encoding_through(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        w["tmp_embed_w"].data[...] = 0.0
        w["tmp_embed_b"].data[...] = 0.0
        table = gg.position_encoding_table(4, 16)
        disp = np.random.default_rng(1).normal(size=(2, 4, 3, 2))  # a group of 2 windows, 3 pedestrians each
        h0 = gg.build_temporal_graph(disp, w, cfg)[1]
        assert h0.shape == (6, 4, 16)
        for row in h0.data:
            assert np.array_equal(row, table)

    def test_temporal_lift_is_pedestrian_major(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=1)
        disp = np.random.default_rng(2).normal(size=(2, 4, 3, 2))
        h0 = gg.build_temporal_graph(disp, w, cfg)[1]
        table = gg.position_encoding_table(4, 16)
        for b in range(2):
            for i in range(3):
                lift = ad.linear(disp[b, :, i], w["tmp_embed_w"], w["tmp_embed_b"]).data + table
                assert_allclose(h0.data[b * 3 + i], lift, rtol=0, atol=1e-12)


class TestAttentionScores:
    def linear(self, d, rng=None, zero=False):
        if zero:
            return Tensor(np.zeros((d, d))), Tensor(np.zeros(d))
        return Tensor(rng.normal(size=(d, d))), Tensor(np.zeros(d))

    def test_identical_rows_give_uniform_scores(self):
        rng = np.random.default_rng(1)
        e = Tensor(np.tile(rng.normal(size=(1, 16)), (5, 1)))
        wq, bq = self.linear(16, rng)
        wk, _ = self.linear(16, rng)
        out = gg.attention_scores(e, wq, bq, wk)
        assert_allclose(out.data, 1.0 / 5.0)

    def test_hand_two_node_case(self):
        # Q and K engineered so row 0 logits are [1/sqrt(2), 0].
        e = Tensor(np.eye(2))
        wq = Tensor(np.array([[1.0, 0.0], [0.0, 0.0]]))
        wk = Tensor(np.eye(2))
        zero_b = Tensor(np.zeros(2))
        out = gg.attention_scores(e, wq, zero_b, wk).data
        assert_allclose(out[0], [0.6698, 0.3302], atol=5e-5)
        assert_allclose(out[1], [0.5, 0.5])

    def test_triangular_mask_renormalizes(self):
        rng = np.random.default_rng(2)
        e = Tensor(rng.normal(size=(4, 3, 16)))
        wq, bq = self.linear(16, rng)
        wk, _ = self.linear(16, rng)
        causal = np.triu(np.ones((3, 3), dtype=bool))
        out = gg.attention_scores(e, wq, bq, wk, mask=causal).data
        lower = np.tril(np.ones((3, 3), dtype=bool), k=-1)
        assert np.all(out[:, lower] == 0.0)
        assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=30, deadline=None)
    def test_rows_stochastic(self, seed, n):
        rng = np.random.default_rng(seed)
        e = Tensor(rng.normal(size=(n, 8)))
        wq, bq = self.linear(8, rng)
        wk, _ = self.linear(8, rng)
        out = gg.attention_scores(e, wq, bq, wk).data
        assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)


class TestFuseSpatialTemporal:
    def test_identity_kernels(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(4, 3, 3)))
        k = Tensor(np.eye(4).reshape(4, 4, 1, 1))
        out = ad.conv2d_zero_pad(x, k, Tensor(np.zeros(4)))
        assert_allclose(out.data, x.data, atol=1e-15)

    def test_averaging_kernels(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(4, 2, 2)))
        k = Tensor(np.full((4, 4, 1, 1), 0.25))
        out = ad.conv2d_zero_pad(x, k, Tensor(np.zeros(4)))
        mean_slice = x.data.mean(axis=0)
        for t in range(4):
            assert_allclose(out.data[t], mean_slice, atol=1e-12)

    def test_shape_preserved(self):
        x = Tensor(np.zeros((8, 5, 5)))
        k = Tensor(np.zeros((8, 8, 1, 1)))
        assert ad.conv2d_zero_pad(x, k, Tensor(np.zeros(8))).shape == (8, 5, 5)


def conv_layer(c, s, row=None, col=None, slope=0.25):
    row_k = np.zeros((c, c, 1, s)) if row is None else row
    col_k = np.zeros((c, c, s, 1)) if col is None else col
    return (Tensor(row_k), Tensor(np.zeros(c)), Tensor(col_k), Tensor(np.zeros(c)), Tensor(slope))


def naive_cascade(x, layers):
    """Nested-loop restatement of ``ad.conv_cascade`` on x [C, H, W]: (1xS) row plus (Sx1) column conv, then PReLU."""
    cur = x
    for row_k, row_b, col_k, col_b, slope in layers:
        c, _, _, s = row_k.shape
        p = s // 2
        h = np.zeros_like(cur)
        pad = np.pad(cur, ((0, 0), (p, p), (p, p)))
        for o in range(c):
            for ci in range(c):
                for i in range(cur.shape[1]):
                    for j in range(cur.shape[2]):
                        for t in range(s):
                            h[o, i, j] += row_k.data[o, ci, 0, t] * pad[ci, i + p, j + t]
                            h[o, i, j] += col_k.data[o, ci, t, 0] * pad[ci, i + t, j + p]
        h += (row_b.data + col_b.data)[:, None, None]
        cur = np.where(h < 0, slope.data * h, h)
    return cur


class TestAsymmetricConv:
    def test_zero_input_zero_biases(self):
        rng = np.random.default_rng(5)
        layers = [
            conv_layer(2, 3, row=rng.normal(size=(2, 2, 1, 3)), col=rng.normal(size=(2, 2, 3, 1)))
            for _ in range(2)
        ]
        out = ad.conv_cascade(np.zeros((2, 4, 4)), layers)
        assert_allclose(out, 0.0)

    def test_identity_configuration(self):
        # centered-delta row kernel, zero column kernel, nonneg input
        delta = np.zeros((1, 1, 1, 3))
        delta[0, 0, 0, 1] = 1.0
        x = np.abs(np.random.default_rng(6).normal(size=(1, 4, 4)))
        out = ad.conv_cascade(x, [conv_layer(1, 3, row=delta)])
        assert_allclose(out, x)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        c, s, n = 2, 3, 4
        x = rng.normal(size=(c, n, n))
        layers = [
            conv_layer(
                c, s,
                row=rng.normal(size=(c, c, 1, s)),
                col=rng.normal(size=(c, c, s, 1)),
                slope=0.3,
            )
            for _ in range(2)
        ]
        out = ad.conv_cascade(x, layers)
        assert_allclose(out, naive_cascade(x, layers), atol=1e-12)

    # (prefix, N, B): the bench's window sizes, N = 1..5 in groups of
    # B * N <= 48 pedestrians and a dense-crowd N = 45 alone
    BENCH_SHAPES = [(prefix, n, 48 // n) for prefix in ("spa", "tmp") for n in range(1, 6)]
    BENCH_SHAPES += [("spa", 45, 1), ("tmp", 45, 1)]

    @pytest.mark.parametrize("prefix, n, b", BENCH_SHAPES)
    def test_equals_the_composed_cascade_bit_for_bit(self, prefix, n, b):
        layers = gg._conv_stack(mm.init_weights(CFG, seed=n), prefix, CFG.conv_layers)
        rng = np.random.default_rng(100 * n + b)
        t = CFG.t_obs
        # the spatial cascade reads fused scores [B, T, N, N]; the temporal one
        # each pedestrian's scores [B*N, 1, T, T], in [0, 1]
        x = rng.normal(scale=0.5, size=(b, t, n, n)) if prefix == "spa" else rng.uniform(size=(b * n, 1, t, t))
        got = ad.conv_cascade(x, layers)
        want = composed_cascade(Tensor(x), layers).data
        assert (want < 0).any() and (want > 0).any()  # both PReLU branches
        assert got.tobytes() == want.tobytes()

    def test_unbatched_input_equals_the_composed_cascade(self):
        layers = gg._conv_stack(mm.init_weights(CFG, seed=1), "spa", CFG.conv_layers)
        x = np.random.default_rng(8).normal(size=(CFG.t_obs, 3, 3))
        got = ad.conv_cascade(x, layers)
        assert got.shape == x.shape
        assert got.tobytes() == composed_cascade(Tensor(x), layers).data.tobytes()

    def test_trainable_weights_leave_no_tape(self):
        weights = mm.init_weights(CFG, seed=2)
        layers = gg._conv_stack(weights, "spa", CFG.conv_layers)
        x = np.random.default_rng(9).normal(size=(2, CFG.t_obs, 3, 3))
        out = ad.conv_cascade(x, layers)
        assert all(p.requires_grad for layer in layers for p in layer)
        assert type(out) is np.ndarray and out.shape == x.shape

    def test_kernels_must_keep_the_channels(self):
        layer = conv_layer(2, 3)
        narrowing = (Tensor(np.zeros((1, 2, 1, 3))), Tensor(np.zeros(1))) + layer[2:]
        with pytest.raises(ShapeError, match="keep the 2 channels"):
            ad.conv_cascade(np.zeros((2, 4, 4)), [narrowing])


def composed_cascade(x, layers):
    """The cascade as tape primitives: the oracle for ``ad.conv_cascade``'s bits."""
    for row_k, row_b, col_k, col_b, slope in layers:
        x = prelu(ad.conv2d_zero_pad(x, row_k, row_b) + ad.conv2d_zero_pad(x, col_k, col_b), slope)
    return x


def gate_mask(features, xi):
    """``sparsify``'s keep pattern off the diagonal it always keeps, row by row."""
    mask = gg.sparsify(Tensor(np.zeros(features.shape)), features, xi).mask
    return mask[~np.eye(features.shape[-1], dtype=bool)]


class TestSparseMask:
    def test_boundary_included(self):
        assert gate_mask(np.zeros((2, 2)), 0.5).all()

    def test_sign_split(self):
        mask = gate_mask(np.array([[0.0, 2.0], [-2.0, 0.0]]), 0.5)
        assert mask.tolist() == [True, False]

    def test_xi_one_blocks_everything(self):
        # sigmoid(40.0) rounds to exactly 1.0 in float64, yet lies below xi = 1
        rng = np.random.default_rng(8)
        for features in rng.normal(size=(5, 5)), np.full((2, 2), 40.0):
            assert not gate_mask(features, 1.0).any()

    def test_xi_zero_blocks_nothing(self):
        rng = np.random.default_rng(9)
        assert gate_mask(rng.normal(size=(5, 5)), 0.0).all()

    def test_out_of_range_xi_rejected(self):
        # sparsify takes xi from ModelConfig, which owns the range check
        with pytest.raises(ConfigError, match="xi must lie in"):
            ModelConfig(xi=1.5)


class TestSparseAdjacency:
    def test_all_ones_mask_passes_scores(self):
        rng = np.random.default_rng(10)
        scores = Tensor(rng.normal(size=(3, 3)))
        adj = gg.sparsify(scores, np.ones((3, 3)), 0.5)
        assert adj.mask.all()
        assert np.array_equal(adj.normalized.data, gg.zero_softmax(scores).data)

    def test_all_zero_mask_keeps_diagonal_only(self):
        rng = np.random.default_rng(11)
        scores = Tensor(rng.normal(size=(4, 4)))
        adj = gg.sparsify(scores, np.full((4, 4), -1.0), 0.5)
        assert np.array_equal(adj.mask, np.eye(4, dtype=bool))
        assert np.array_equal(adj.normalized.data, gg.zero_softmax(Tensor(np.diag(np.diag(scores.data)))).data)

    def test_diagonal_multiplier_clamped_to_one(self):
        scores = Tensor(np.full((2, 2), 3.0))
        adj = gg.sparsify(scores, np.ones((2, 2)), 0.5)
        assert_allclose(adj.normalized.data, 0.5, atol=1e-12)  # a doubled diagonal would outweigh the rest


class TestZeroSoftmax:
    def test_zeros_map_to_zeros(self):
        out = gg.zero_softmax(Tensor([0.0, 0.0, 0.0]))
        assert np.array_equal(out.data, np.zeros(3))

    def test_ln2_oracle(self):
        out = gg.zero_softmax(Tensor([np.log(2.0), 0.0]))
        assert_allclose(out.data[0], 1.0 / (1.0 + 1e-12), atol=1e-12)
        assert out.data[1] == 0.0

    def test_symmetry(self):
        out = gg.zero_softmax(Tensor([1.0, 1.0, 1.0, 1.0]))
        assert_allclose(out.data, 0.25, atol=1e-9)

    def test_formula_row_sum(self):
        rng = np.random.default_rng(12)
        x = rng.uniform(0.1, 1.0, size=(4, 5))
        out = gg.zero_softmax(Tensor(x)).data
        s = ((np.exp(x) - 1.0) ** 2).sum(axis=-1)
        assert_allclose(out.sum(axis=-1), s / (s + 1e-12), atol=1e-15)
        assert_allclose(out.sum(axis=-1), 1.0, atol=1e-6)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_zero_preservation_iff(self, seed, n):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0, size=n)
        x[rng.uniform(size=n) < 0.4] = 0.0
        out = gg.zero_softmax(Tensor(x)).data
        assert np.all(out >= 0.0)
        assert np.array_equal(out == 0.0, x == 0.0)

    @pytest.mark.parametrize("row, op", [
        ([400.0, 0.0, 1.0], "mul"),
        ([354.5, 354.5, 354.5], "sum"),
        ([1000.0, 0.0, 1.0], "exp"),
    ])
    def test_unbounded_input_overflow_raises(self, row, op):
        # the spatial branch feeds unbounded fused features; nothing guards exp
        with pytest.raises(NumericsError, match=f"'{op}'"), np.errstate(over="ignore"):
            gg.zero_softmax(Tensor([row]))


class TestLayouts:
    @pytest.mark.parametrize("lead", [(), (1,), (3,)], ids=["window", "group_of_1", "group_of_3"])
    def test_step_major_inverts_pedestrian_major(self, lead):
        rng = np.random.default_rng(len(lead) + sum(lead))
        x = Tensor(rng.normal(size=lead + (4, 5, 6)), requires_grad=True)  # [..., T, N, D]
        per_pedestrian = gg.pedestrian_major(x)
        assert per_pedestrian.shape == (int(np.prod(lead)) * 5, 4, 6)
        for b in range(int(np.prod(lead))):
            for i in range(5):
                assert np.array_equal(per_pedestrian.data[b * 5 + i], x.data.reshape(-1, 4, 5, 6)[b, :, i])
        back = gg.step_major(per_pedestrian, lead, 5)
        assert back.data.tobytes() == x.data.tobytes()
        upstream = rng.normal(size=x.shape)
        ad.backward(ad.tsum(back * upstream))
        assert x.grad.tobytes() == upstream.tobytes()


class TestBuildSpatialGraph:
    def test_shapes_and_h0(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        adj, h0 = gg.build_spatial_graph(scene(np.random.default_rng(13), 4, 5), w, cfg)
        assert adj.normalized.shape == (4, 5, 5)
        assert adj.mask.shape == (4, 5, 5)
        assert h0.shape == (4, 5, 16)

    def test_single_pedestrian_self_loop(self):
        # Hand-set weights: identity fusion and an identity conv path make
        # the lone self-score exactly 1 before renormalization.
        cfg = small_cfg(conv_layers=1)
        w = mm.init_weights(cfg, seed=0)
        t = cfg.t_obs
        w["spa_fuse_k"] = Tensor(np.eye(t).reshape(t, t, 1, 1), requires_grad=True)
        w["spa_fuse_b"] = Tensor(np.zeros(t), requires_grad=True)
        delta = np.zeros((t, t, 1, 3))
        for c in range(t):
            delta[c, c, 0, 1] = 1.0
        w["spa_conv0_row_k"] = Tensor(delta, requires_grad=True)
        w["spa_conv0_col_k"] = Tensor(np.zeros((t, t, 3, 1)), requires_grad=True)
        adj, _ = gg.build_spatial_graph(scene(np.random.default_rng(14), t, 1), w, cfg)
        e1 = (np.e - 1.0) ** 2
        assert_allclose(adj.normalized.data, e1 / (e1 + 1e-12), atol=1e-12)

    def test_sparsity_survives_normalization(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=1)
        adj, _ = gg.build_spatial_graph(scene(np.random.default_rng(15), 4, 6), w, cfg)
        assert np.all(adj.normalized.data[~adj.mask] == 0.0)

    def test_masked_entry_forced_by_hostile_conv(self):
        # Biasing the conv stack hard negative turns every off-diagonal
        # entry off; only self-loops survive.
        cfg = small_cfg(conv_layers=1)
        w = mm.init_weights(cfg, seed=2)
        t = cfg.t_obs
        w["spa_conv0_row_k"] = Tensor(np.zeros((t, t, 1, 3)), requires_grad=True)
        w["spa_conv0_col_k"] = Tensor(np.zeros((t, t, 3, 1)), requires_grad=True)
        w["spa_conv0_row_b"] = Tensor(np.full(t, -50.0), requires_grad=True)
        w["spa_conv0_col_b"] = Tensor(np.zeros(t), requires_grad=True)
        adj, _ = gg.build_spatial_graph(scene(np.random.default_rng(16), t, 4), w, cfg)
        off_diag = ~np.eye(4, dtype=bool)
        assert np.all(adj.normalized.data[:, off_diag] == 0.0)
        assert np.all(np.abs(adj.normalized.data[:, np.eye(4, dtype=bool)]) >= 0.0)

    def test_wrong_window_length_rejected(self):
        # model.forward, the one caller of both builders, checks the window length once: a single window
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        with pytest.raises(ConfigError, match="window has 6 observed steps, config expects 4"):
            mm.forward(scene(np.random.default_rng(17), 6, 3), w, cfg)


class TestBuildTemporalGraph:
    def test_wrong_window_length_rejected(self):
        # the same check in model.forward, for a group of 3 windows
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        group = np.random.default_rng(17).normal(scale=0.4, size=(3, 6, 3, 2))
        with pytest.raises(ConfigError, match="window has 6 observed steps, config expects 4"):
            mm.forward(group, w, cfg)

    def test_shapes(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=3)
        adj, h0 = gg.build_temporal_graph(scene(np.random.default_rng(18), 4, 5), w, cfg)
        assert adj.normalized.shape == (5, 4, 4)
        assert h0.shape == (5, 4, 16)

    def test_strictly_lower_exactly_zero(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=4)
        adj, _ = gg.build_temporal_graph(scene(np.random.default_rng(19), 4, 5), w, cfg)
        lower = np.tril(np.ones((4, 4), dtype=bool), k=-1)
        assert np.all(adj.normalized.data[:, lower] == 0.0)
        assert not adj.mask[:, lower].any()

    def test_single_step_window(self):
        cfg = small_cfg(t_obs=1, conv_layers=1)
        w = mm.init_weights(cfg, seed=5)
        adj, _ = gg.build_temporal_graph(scene(np.random.default_rng(20), 1, 3), w, cfg)
        assert adj.normalized.shape == (3, 1, 1)
        # sparsify always keeps the diagonal, so the lone causal score renormalizes to ~1
        assert adj.mask.all()
        vals = adj.normalized.data.ravel()
        assert np.all(np.abs(vals - 1.0) < 1e-6)

    def test_straight_vs_turning_differ(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=6)
        straight = np.zeros((4, 1, 2))
        straight[:, 0, 0] = [0.0, 0.5, 0.5, 0.5]
        turn = np.zeros((4, 1, 2))
        turn[:, 0, 0] = [0.0, 0.5, 0.0, -0.5]
        turn[:, 0, 1] = [0.0, 0.0, 0.5, 0.5]
        a, _ = gg.build_temporal_graph(straight, w, cfg)
        b, _ = gg.build_temporal_graph(turn, w, cfg)
        assert not np.allclose(a.normalized.data, b.normalized.data)


class TestStructuralInvariants:
    @given(st.integers(0, 2**32 - 1), st.integers(1, 7))
    @settings(max_examples=30, deadline=None)
    def test_random_scene_contracts(self, seed, n):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        disp = scene(np.random.default_rng(seed), cfg.t_obs, n)
        spa, _ = gg.build_spatial_graph(disp, w, cfg)
        tmp, _ = gg.build_temporal_graph(disp, w, cfg)
        assert spa.normalized.shape == (cfg.t_obs, n, n)
        assert tmp.normalized.shape == (n, cfg.t_obs, cfg.t_obs)
        assert np.all(spa.normalized.data >= 0.0)
        assert np.all(tmp.normalized.data >= 0.0)
        assert np.all(spa.normalized.data.sum(axis=-1) <= 1.0 + 1e-12)
        lower = np.tril(np.ones((cfg.t_obs, cfg.t_obs), dtype=bool), k=-1)
        assert np.all(tmp.normalized.data[:, lower] == 0.0)
        # diagonal always unmasked
        assert np.all(spa.mask[:, np.eye(n, dtype=bool)])
        assert np.all(tmp.mask[:, np.eye(cfg.t_obs, dtype=bool)])

    def test_xi_monotone_sparsity(self):
        rng = np.random.default_rng(21)
        disp = scene(rng, 4, 5)
        previous = None
        for xi in (0.0, 0.25, 0.5, 0.75, 1.0):
            cfg = small_cfg(xi=xi)
            w = mm.init_weights(cfg, seed=7)
            adj, _ = gg.build_spatial_graph(disp, w, cfg)
            nonzero = set(map(tuple, np.argwhere(adj.normalized.data != 0.0)))
            if previous is not None:
                assert nonzero <= previous, f"xi={xi} added entries"
            previous = nonzero

    def test_asymmetry_occurs(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=8)
        adj, _ = gg.build_spatial_graph(scene(np.random.default_rng(22), 4, 4), w, cfg)
        a = adj.normalized.data
        assert not np.allclose(a, np.swapaxes(a, -1, -2))
