"""Aggregation branches, prediction head, the grouped-pass runner, sampling, and checkpoints."""

import errno
import os
from collections import Counter
from dataclasses import replace
from unittest import mock

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
from sgcn.data import TrajectoryScene
from sgcn.errors import CheckpointError, ConfigError, NumericsError, ShapeError

from conftest import finite_diff_check_params, prelu


def small_cfg(**kw):
    base = dict(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)
    base.update(kw)
    return ModelConfig(**base)


def observed_windows(sizes, seed, t_obs=4):
    """Observation-only windows with the given pedestrian counts; window i starts at frame i."""
    rng = np.random.default_rng(seed)
    return [
        TrajectoryScene(tuple(range(n)), np.cumsum(rng.normal(scale=0.4, size=(t_obs, n, 2)), axis=0),
                        np.zeros((0, n, 2)), start_frame=i, scene_name="S")
        for i, n in enumerate(sizes)
    ]


def prelu_np(x, slope):
    return np.where(x < 0, slope * x, x)


def composed_gcn_layer(adjacency, features, weight, slope):
    """The composed form of ``ad.gcn_layer``: the oracle for its output and gradients."""
    return prelu(ad.matmul(ad.matmul(ad.swapaxes(adjacency, -1, -2), features), weight), slope)


def gcn_operands(seed):
    """Trainable GCN operands for a group of 2 windows: adjacency [2, T=3, N=4, N], features [2, 3, 4, D=5]."""
    rng = np.random.default_rng(seed)
    return [Tensor(rng.uniform(0.0, 1.0, (2, 3, 4, 4)), requires_grad=True),
            Tensor(rng.normal(size=(2, 3, 4, 5)), requires_grad=True),
            Tensor(rng.normal(size=(5, 5)) * 0.5, requires_grad=True),
            Tensor(0.25, requires_grad=True)]


def damaged_blobs(blob: bytes) -> list:
    """Damaged copies of a saved checkpoint: truncations, bit flips, separator, sign and digit bytes, inf or nan.

    Every header byte is damaged, and a sample of the payload's.
    """
    header = blob.index(b"\nEND\n") + len(b"\nEND\n")

    def put(at, byte):
        return blob[:at] + bytes([byte]) + blob[at + 1:]

    cases = [blob[:n] for n in [*range(header + 16), *range(header + 16, len(blob), 64)]]
    flips = (0x01, 0x10, 0x80, 0xFF)
    cases += [put(at, blob[at] ^ flips[at % 4]) for at in [*range(header), *range(header, len(blob), 41)]]
    cases += [put(at, b"\n =-09"[at % 6]) for at in range(header)]  # separators, signs and digits
    cases += [blob[:at] + b"\xf0\x7f" + blob[at + 2:] for at in range(header + 6, len(blob), 1000)]  # inf or nan
    return cases


@pytest.mark.parametrize("field, value, match", [
    ("conv_kernel", 4, "conv_kernel must be odd and >= 1, got 4"),
    ("tcn_layers", 1, r"tcn_layers must be >= 2 \(head needs an entry layer\), got 1"),
    ("tcn_layers", 0, r"tcn_layers must be >= 2 \(head needs an entry layer\), got 0"),
    ("embed_dim", 15, "embed_dim must be even for the sin/cos position table, got 15"),
])
def test_model_config_rejects_out_of_range_fields(field, value, match):
    with pytest.raises(ConfigError, match=match):
        ModelConfig(**{field: value})


class TestGcnLayer:
    def test_gradients_match_central_differences(self):
        operands = gcn_operands(seed=10)
        pre = np.swapaxes(operands[0].data, -1, -2) @ operands[1].data @ operands[2].data
        assert (pre < 0).any() and (pre > 0).any()  # both PReLU branches, so the slope gradient is exercised
        weights = np.random.default_rng(11).normal(size=pre.shape)
        params = dict(zip(("adjacency", "features", "weight", "slope"), operands))
        errors = finite_diff_check_params(lambda: ad.tsum(ad.gcn_layer(*operands) * weights), params)
        assert max(errors.values()) < 1e-4, errors

    def test_equals_the_composed_layer_bit_for_bit(self):
        got, want = gcn_operands(seed=12), gcn_operands(seed=12)
        out, ref = ad.gcn_layer(*got), composed_gcn_layer(*want)
        assert np.array_equal(out.data, ref.data)
        weights = np.random.default_rng(13).normal(size=out.shape)
        ad.backward(ad.tsum(out * weights))
        ad.backward(ad.tsum(ref * weights))
        for i, (a, b) in enumerate(zip(got, want)):
            assert np.array_equal(a.grad, b.grad), i

    def test_identity_propagation(self):
        h = Tensor(np.abs(np.random.default_rng(0).normal(size=(3, 4))))
        out = ad.gcn_layer(Tensor(np.eye(3)), h, Tensor(np.eye(4)), Tensor(0.25))
        assert_allclose(out.data, h.data)

    def test_one_hot_row_copies_influencer(self):
        # A[i, j] means i influences j: column j of A selects j's sources.
        a = np.eye(3)
        a[:, 2] = [1.0, 0.0, 0.0]  # node 2 aggregates node 0 only
        a[2, 2] = 0.0
        h = Tensor(np.abs(np.random.default_rng(1).normal(size=(3, 4))))
        out = ad.gcn_layer(Tensor(a), h, Tensor(np.eye(4)), Tensor(0.25))
        assert_allclose(out.data[2], h.data[0])

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        a, h, w = rng.normal(size=(3, 3)), rng.normal(size=(3, 4)), rng.normal(size=(4, 4))
        out = ad.gcn_layer(Tensor(a), Tensor(h), Tensor(w), Tensor(0.3)).data
        assert_allclose(out, naive_gcn_layer(a[None], h[None], w, 0.3)[0], atol=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ad.gcn_layer(Tensor(np.eye(3)), Tensor(np.zeros((4, 4))), Tensor(np.eye(4)), Tensor(0.25))


def branch_fixture(seed, n=3, t=4, d=8):
    rng = np.random.default_rng(seed)
    spa = Tensor(rng.uniform(0, 1, size=(t, n, n)))
    tmp = Tensor(np.triu(rng.uniform(0, 1, size=(n, t, t))))
    h0_spa = Tensor(rng.normal(size=(t, n, d)))
    h0_tmp = Tensor(rng.normal(size=(n, t, d)))
    w = {
        name: Tensor(rng.normal(size=(d, d)) * 0.3)
        for name in ("gcn_spa1_w", "gcn_tmp1_w", "gcn_tmp2_w", "gcn_spa2_w")
    }
    for name in ("gcn_spa1", "gcn_tmp1", "gcn_tmp2", "gcn_spa2"):
        w[f"{name}_slope"] = Tensor(0.25)
    return spa, tmp, h0_spa, h0_tmp, w


def naive_gcn_layer(a_slices, h_slices, weight, slope):
    """Loop-nest restatement of ``ad.gcn_layer``: receivers sum influencer features, slice by slice."""
    out = np.zeros((h_slices.shape[0], h_slices.shape[1], weight.shape[1]))
    for s in range(a_slices.shape[0]):
        for j in range(a_slices.shape[1]):
            agg = np.zeros(h_slices.shape[2])
            for i in range(a_slices.shape[1]):
                agg += a_slices[s, i, j] * h_slices[s, i]
            out[s, j] = prelu_np(agg @ weight, slope)
    return out


def naive_branches(spa, tmp, h0_spa, h0_tmp, w):
    """Loop-nest restatement of both branches, one ``naive_gcn_layer`` per GCN layer."""
    s1 = naive_gcn_layer(spa, h0_spa, w["gcn_spa1_w"].data, 0.25)                      # [T,N,D]
    itf = naive_gcn_layer(tmp, np.swapaxes(s1, 0, 1), w["gcn_tmp1_w"].data, 0.25)      # [N,T,D]
    t1 = naive_gcn_layer(tmp, h0_tmp, w["gcn_tmp2_w"].data, 0.25)                      # [N,T,D]
    tif = naive_gcn_layer(spa, np.swapaxes(t1, 0, 1), w["gcn_spa2_w"].data, 0.25)      # [T,N,D]
    return itf, tif


class TestBranches:
    def test_loop_oracle_equality(self):
        spa, tmp, h0_spa, h0_tmp, w = branch_fixture(3)
        itf = mm.interaction_tendency_branch(spa, tmp, h0_spa, w)
        tif = mm.tendency_interaction_branch(spa, tmp, h0_tmp, w)
        want_itf, want_tif = naive_branches(spa.data, tmp.data, h0_spa.data, h0_tmp.data, w)
        assert_allclose(itf.data, want_itf, atol=1e-10)
        assert_allclose(tif.data, want_tif, atol=1e-10)

    def test_branch_orders_differ(self):
        spa, tmp, h0_spa, h0_tmp, w = branch_fixture(4)
        itf = mm.interaction_tendency_branch(spa, tmp, h0_spa, w)
        tif = mm.tendency_interaction_branch(spa, tmp, h0_tmp, w)
        assert not np.allclose(np.swapaxes(itf.data, 0, 1), tif.data)

    def test_degenerate_single_node_single_step(self):
        _, _, _, _, w = branch_fixture(5, n=1, t=1)
        one = Tensor(np.ones((1, 1, 1)))
        h0 = Tensor(np.random.default_rng(6).normal(size=(1, 1, 8)))
        itf = mm.interaction_tendency_branch(one, one, h0, w)
        inner = prelu_np(h0.data[0] @ w["gcn_spa1_w"].data, 0.25)
        want = prelu_np(inner @ w["gcn_tmp1_w"].data, 0.25)
        assert_allclose(itf.data[0], want, atol=1e-12)

    def test_identity_spatial_slices_do_not_mix_pedestrians(self):
        spa, tmp, h0_spa, _, w = branch_fixture(7)
        eye = Tensor(np.tile(np.eye(3), (4, 1, 1)))
        out = ad.gcn_layer(eye, h0_spa, w["gcn_spa1_w"], w["gcn_spa1_slope"])
        for t in range(4):
            for n in range(3):
                want = prelu_np(h0_spa.data[t, n] @ w["gcn_spa1_w"].data, 0.25)
                assert_allclose(out.data[t, n], want, atol=1e-12)

    def test_fuse_is_commutative_sum(self):
        rng = np.random.default_rng(8)
        a = Tensor(rng.normal(size=(3, 4, 8)))
        b = Tensor(rng.normal(size=(4, 3, 8)))
        out = mm.fuse_branches(a, b)
        assert_allclose(out.data, np.swapaxes(a.data, 0, 1) + b.data, atol=1e-15)
        zero = Tensor(np.zeros((4, 3, 8)))
        assert_allclose(mm.fuse_branches(a, zero).data, np.swapaxes(a.data, 0, 1))


@given(st.lists(st.integers(1, 9), max_size=40), st.integers(1, 30))
@settings(max_examples=200, deadline=None)
def test_group_by_size_partitions_into_equal_size_groups(sizes, budget):
    groups = mm.group_by_size(sizes, budget)
    assert sorted(i for group in groups for i in group) == list(range(len(sizes)))
    for group in groups:
        assert len({sizes[i] for i in group}) == 1
        assert len(group) == 1 or sum(sizes[i] for i in group) <= budget
        assert group == sorted(group)
    assert [group[0] for group in groups] == sorted(group[0] for group in groups)  # first-appearance order
    assert mm.group_by_size(sizes, budget) == groups


def test_group_by_size_fills_groups_in_order():
    assert mm.group_by_size([2, 3, 2, 2, 50, 3, 2, 50], 4) == [[0, 2], [1], [3, 6], [4], [5], [7]]


@given(st.lists(st.integers(1, 6), max_size=30), st.integers(1, 20))
@settings(max_examples=100, deadline=None)
def test_map_groups_returns_the_per_window_loop_in_scene_order(sizes, budget):
    scenes = observed_windows(sizes, seed=len(sizes))
    deferred = []

    def fn(group):
        deferred.append(ad._state.deferred)
        stacked = np.stack([scenes[i].displacements_obs for i in group])  # equal N, or this raises
        return [(i, stacked[b].tobytes()) for b, i in enumerate(group)]

    with mock.patch.object(mm, "GROUP_PEDESTRIANS", budget):  # a monkeypatch fixture trips Hypothesis' health check
        got = mm.map_groups(fn, scenes)
    assert deferred == [True] * len(mm.group_by_size(sizes, budget))
    assert not ad._state.deferred
    assert got == [fn([i])[0] for i in range(len(scenes))]


def test_nan_window_in_a_later_group_is_named():
    cfg = small_cfg()
    weights = mm.init_weights(cfg, seed=3)
    scenes = observed_windows([2, 3, 2, 3, 4, 4], seed=5)
    scenes[5] = replace(scenes[5], positions_obs=np.full_like(scenes[5].positions_obs, np.nan), scene_name="BAD")
    assert mm.group_by_size([s.n_pedestrians for s in scenes], mm.GROUP_PEDESTRIANS) == [[0, 2], [1, 3], [4, 5]]

    def fn(group):
        params = mm.predict(np.stack([scenes[i].displacements_obs for i in group]), weights, cfg)
        return list(params.mu)

    with pytest.raises(NumericsError, match=(
        r"^scene BAD@frame5 \(N=4\): non-finite values produced by 'tensor' in stage 'spatial_graph'$"
    )):
        mm.map_groups(fn, scenes)


def test_group_error_is_reraised_when_no_window_fails_alone():
    def fn(group):
        if len(group) > 1:
            raise NumericsError("only together")
        return group

    with pytest.raises(NumericsError, match="^only together$"):
        mm.map_groups(fn, observed_windows([2, 2], seed=1))


class TestTcnHead:
    def test_zero_weights_give_standard_gaussian(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=0)
        for name, tensor in w.items():
            if name.startswith(("tcn_", "out_proj")) and "slope" not in name:
                w[name] = Tensor(np.zeros(tensor.shape), requires_grad=True)
        h = Tensor(np.random.default_rng(9).normal(size=(4, 3, 16)))
        params = mm.to_gaussian(mm.tcn_head(h, w, cfg))
        assert_allclose(params.mu, 0.0)
        assert_allclose(params.sigma, 1.0)
        assert_allclose(params.rho, 0.0)

    def test_output_shape_contract(self):
        cfg = ModelConfig()
        w = mm.init_weights(cfg, seed=1)
        h = Tensor(np.random.default_rng(10).normal(size=(8, 5, 64)))
        raw = mm.tcn_head(h, w, cfg)
        assert raw.shape == (12, 5, 5)
        params = mm.to_gaussian(raw)
        assert params.mu.shape == (12, 5, 2)
        assert params.sigma.shape == (12, 5, 2)
        assert params.rho.shape == (12, 5)

    def test_parameter_ranges_over_many_inputs(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=2)
        rng = np.random.default_rng(11)
        for _ in range(1000):
            raw = Tensor(rng.normal(scale=3.0, size=(3, 2, 5)))
            params = mm.to_gaussian(raw)
            assert np.all(params.sigma > 0.0)
            assert np.all(np.abs(params.rho) < 1.0)

    def test_residual_layers_change_output(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=3)
        h = Tensor(np.random.default_rng(12).normal(size=(4, 3, 16)))
        full = mm.tcn_head(h, w, cfg).data
        cfg2 = small_cfg(tcn_layers=2)
        full2 = mm.tcn_head(h, w, cfg2).data
        assert not np.allclose(full, full2)


class TestForward:
    def test_shape_contract_and_adjacencies(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=4)
        disp = np.random.default_rng(13).normal(scale=0.3, size=(4, 6, 2))
        raw, spa, tmp = mm.forward(disp, w, cfg)
        assert raw.shape == (3, 6, 5)
        assert spa.normalized.shape == (4, 6, 6)
        assert tmp.normalized.shape == (6, 4, 4)

    def test_aggregation_head_is_permutation_equivariant(self):
        # Given consistently permuted adjacencies and features, branch and
        # head outputs permute identically (head kernels are 1 wide on the
        # pedestrian axis).
        cfg = small_cfg(embed_dim=8)
        w = mm.init_weights(cfg, seed=5)
        spa, tmp, h0_spa, h0_tmp, bw = branch_fixture(14, n=4, t=4, d=8)
        w.update(bw)

        def head(spa_t, tmp_t, h0s, h0t):
            itf = mm.interaction_tendency_branch(spa_t, tmp_t, h0s, w)
            tif = mm.tendency_interaction_branch(spa_t, tmp_t, h0t, w)
            return mm.tcn_head(mm.fuse_branches(itf, tif), w, cfg).data

        base = head(spa, tmp, h0_spa, h0_tmp)
        perm = np.random.default_rng(15).permutation(4)
        spa_p = Tensor(spa.data[:, perm][:, :, perm])
        tmp_p = Tensor(tmp.data[perm])
        permuted = head(spa_p, tmp_p, Tensor(h0_spa.data[:, perm]), Tensor(h0_tmp.data[perm]))
        assert_allclose(permuted, base[:, perm], atol=1e-12)

    def test_branch_and_head_weights_all_receive_gradient(self):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=6)
        disp = np.random.default_rng(16).normal(scale=0.4, size=(4, 3, 2))
        raw, _, _ = mm.forward(disp, w, cfg)
        ad.backward(ad.tsum(raw * raw))
        for name, tensor in w.items():
            if name.startswith(("gcn_", "tcn_", "out_proj")):
                assert tensor.grad is not None and np.any(tensor.grad != 0.0), name

    def test_mask_path_weights_receive_no_gradient(self):
        # The threshold is a constant to backward: conv-stack weights only
        # shape the keep-pattern and take no value-path gradient.
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=7)
        disp = np.random.default_rng(17).normal(scale=0.4, size=(4, 3, 2))
        raw, _, _ = mm.forward(disp, w, cfg)
        ad.backward(ad.tsum(raw * raw))
        for name, tensor in w.items():
            if "_conv" in name and name.startswith(("spa_", "tmp_")):
                assert tensor.grad is None or not np.any(tensor.grad != 0.0), name


class TestFiniteExits:
    """Passes run by map_groups defer per-op checks and check only the arrays that leave the tape."""

    def test_one_pass_makes_three_checks(self, monkeypatch):
        # the head output and the two graphs' gate features, in a pass run
        # through map_groups, which defers the per-op checks
        cfg = ModelConfig()
        w = mm.init_weights(cfg, seed=8)
        scenes = observed_windows([3, 3], seed=18, t_obs=cfg.t_obs)
        checked, groups = [], []
        check = ad._check_finite

        def spy(data, op):
            checked.append(op)
            check(data, op)

        def one_pass(group):
            groups.append(group)
            mm.forward(np.stack([scenes[i].displacements_obs for i in group]), w, cfg)
            return group

        monkeypatch.setattr(ad, "_check_finite", spy)
        mm.map_groups(one_pass, scenes)
        assert groups == [[0, 1]]
        assert sorted(checked) == ["gate features", "gate features", "tcn_head"]
        # outside the runner, each Tensor checks its output once, where it is
        # made; the same three exits are the only other checks
        checked.clear()
        created = []
        init = Tensor.__init__

        def spy_init(self, data, requires_grad=False, _parents=(), _vjp=None, _op="tensor"):
            created.append(_op)
            init(self, data, requires_grad, _parents, _vjp, _op)

        monkeypatch.setattr(Tensor, "__init__", spy_init)
        raw, _, _ = mm.forward(scenes[0].displacements_obs, w, cfg)
        on_tape = Counter(node._op for node in ad._toposort(raw) if node._vjp is not None)
        assert {"linear", "gcn_layer", "conv2d_prelu"} <= set(on_tape)
        assert not on_tape - Counter(created)
        assert Counter(checked) == Counter(created) + Counter({"gate features": 2, "tcn_head": 1})

    @pytest.mark.parametrize("param, op, stage", [
        # the cascade runs off the tape: its output is checked where it leaves
        ("spa_conv6_col_b", "gate features", "spatial_graph"),
        ("spa_conv3_row_k", "gate features", "spatial_graph"),
        ("tmp_conv6_col_b", "gate features", "temporal_graph"),
        ("tmp_conv2_slope", "gate features", "temporal_graph"),
        ("spa_fuse_k", "conv2d", "spatial_graph"),  # a tape node, checked as it is made
        ("gcn_tmp2_w", "gcn_layer", "branches"),
        ("tcn_conv3_b", "conv2d_prelu", "tcn_head"),
    ])
    def test_nan_parameter_names_op_and_stage(self, param, op, stage):
        cfg = ModelConfig()
        w = mm.init_weights(cfg, seed=9)
        w[param].data.reshape(-1)[0] = np.nan
        disp = np.random.default_rng(19).normal(scale=0.4, size=(8, 3, 2))
        with pytest.raises(NumericsError, match=rf"^non-finite values produced by '{op}' in stage '{stage}'$"):
            mm.forward(disp, w, cfg)
        # per-op checks are back on in this thread
        with pytest.raises(NumericsError, match=r"^non-finite values produced by 'exp'$"), np.errstate(over="ignore"):
            ad.exp(Tensor(1000.0))

    def test_nan_gate_features_would_prune_every_edge(self):
        # why the gate features are an exit: an unchecked NaN keeps only the diagonal
        assert not (gg._sigmoid(np.full((3, 3), np.nan)) >= 0.0).any()
        with pytest.raises(NumericsError, match="'gate features'"):
            gg.sparsify(Tensor(np.ones((3, 3))), np.full((3, 3), np.nan), 0.5)


class TestSampling:
    def params(self, t=3, n=2):
        rng = np.random.default_rng(18)
        return mm.BiGaussianParams(
            mu=rng.normal(size=(t, n, 2)),
            sigma=np.full((t, n, 2), 0.5),
            rho=np.full((t, n), 0.3),
        )

    def test_degenerate_variance_recovers_mu_path(self):
        p = self.params()
        p.sigma[:] = 1e-8
        p.rho[:] = 0.0
        last = np.array([[1.0, 2.0], [3.0, 4.0]])
        sample = mm.sample_trajectory(p, last, np.random.default_rng(19), k=1)[0]
        assert_allclose(sample, mm.mu_trajectory(p, last), atol=1e-6)

    def test_fixed_seed_bit_identical(self):
        p = self.params()
        last = np.zeros((2, 2))
        a = mm.sample_trajectory(p, last, np.random.default_rng(42), k=1)[0]
        b = mm.sample_trajectory(p, last, np.random.default_rng(42), k=1)[0]
        assert np.array_equal(a, b)

    def test_k_draws_equal_successive_single_draws(self):
        # prefix property: draw s of one k-draw call is the s-th k=1 draw
        p = self.params(t=4, n=5)
        last = np.arange(10.0).reshape(5, 2)
        batch = mm.sample_trajectory(p, last, np.random.default_rng(23), k=6)
        rng = np.random.default_rng(23)
        singles = [mm.sample_trajectory(p, last, rng, k=1)[0] for _ in range(6)]
        assert batch.shape == (6, 4, 5, 2)
        assert np.array_equal(batch, np.stack(singles))

    @pytest.mark.parametrize("n, b_size", [(1, 48), (3, 4)])
    def test_group_draws_equal_each_windows_own_draws(self, n, b_size):
        # a group's leading window axis: window b's k draws come from its own
        # generator alone and map exactly as a lone window's do
        rng = np.random.default_rng(n)
        p = mm.BiGaussianParams(mu=rng.normal(size=(b_size, 12, n, 2)),
                                sigma=rng.uniform(0.1, 2.0, size=(b_size, 12, n, 2)),
                                rho=rng.uniform(-0.9, 0.9, size=(b_size, 12, n)))
        last = rng.normal(size=(b_size, n, 2))
        seeds = np.random.SeedSequence(6).spawn(b_size)
        got = mm.sample_trajectory(p, last, [np.random.default_rng(s) for s in seeds], k=20)
        assert got.shape == (b_size, 20, 12, n, 2)
        for b, s in enumerate(seeds):
            window = mm.BiGaussianParams(p.mu[b], p.sigma[b], p.rho[b])
            assert got[b].tobytes() == mm.sample_trajectory(window, last[b], np.random.default_rng(s), 20).tobytes()

    def test_draw_normals_fills_each_window_from_its_own_generator(self):
        # mu 0, sigma 1 and rho 0 map each normal to itself, bit for bit
        p = mm.BiGaussianParams(mu=np.zeros((2, 2, 1, 2)), sigma=np.ones((2, 2, 1, 2)), rho=np.zeros((2, 2, 1)))
        eps = mm.sample_displacements(p, [np.random.default_rng(s) for s in (3, 4)], 5)
        assert eps.shape == (2, 5, 2, 1, 2)
        for b, s in enumerate((3, 4)):
            assert eps[b].tobytes() == np.random.default_rng(s).standard_normal((5, 2, 1, 2)).tobytes()

    def test_one_generator_for_a_group_is_refused(self):
        p = self.params()
        group = mm.BiGaussianParams(p.mu[None], p.sigma[None], p.rho[None])
        with pytest.raises(ShapeError, match="normals"):
            mm.sample_displacements(group, np.random.default_rng(0), k=2)

    def test_monte_carlo_moments(self):
        n_draws = 100_000
        p = mm.BiGaussianParams(
            mu=np.tile(np.array([0.3, -0.2]), (n_draws, 1, 1)),
            sigma=np.tile(np.array([1.0, 2.0]), (n_draws, 1, 1)),
            rho=np.full((n_draws, 1), 0.5),
        )
        draws = mm.sample_displacements(p, np.random.default_rng(20), k=1)[0][:, 0, :]
        assert_allclose(draws.mean(axis=0), [0.3, -0.2], atol=0.02)
        assert_allclose(draws.std(axis=0), [1.0, 2.0], atol=0.03)
        assert_allclose(np.corrcoef(draws.T)[0, 1], 0.5, atol=0.02)

    def test_cumsum_anchoring(self):
        p = self.params(t=2, n=1)
        p.sigma[:] = 1e-12
        p.rho[:] = 0.0
        last = np.array([[10.0, 20.0]])
        out = mm.sample_trajectory(p, last, np.random.default_rng(21), k=1)[0]
        assert_allclose(out[0], last + p.mu[0], atol=1e-9)
        assert_allclose(out[1], last + p.mu[0] + p.mu[1], atol=1e-9)

    def test_mu_trajectory_of_a_group_equals_each_windows(self):
        p = self.params(t=12, n=1)
        group = mm.BiGaussianParams(np.stack([p.mu, -p.mu]), np.stack([p.sigma] * 2), np.stack([p.rho] * 2))
        last = np.array([[[1.0, 2.0]], [[3.0, 4.0]]])
        got = mm.mu_trajectory(group, last)
        for b in range(2):
            window = mm.BiGaussianParams(group.mu[b], group.sigma[b], group.rho[b])
            assert got[b].tobytes() == mm.mu_trajectory(window, last[b]).tobytes()


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=8)
        path = tmp_path / "model.ckpt"
        mm.save_checkpoint(path, w, cfg)
        loaded, cfg2 = mm.load_checkpoint(path)
        assert cfg2 == cfg
        assert sorted(loaded) == sorted(w)
        for name in w:
            assert np.array_equal(loaded[name].data, w[name].data), name
            assert not loaded[name].requires_grad

    def test_no_temp_file_left(self, tmp_path):
        cfg = small_cfg()
        mm.save_checkpoint(tmp_path / "m.ckpt", mm.init_weights(cfg, seed=9), cfg)
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_failed_rename_keeps_the_old_checkpoint(self, tmp_path, monkeypatch):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=9), cfg)
        before = path.read_bytes()

        def refuse(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="cross-device"):
            mm.save_checkpoint(path, mm.init_weights(cfg, seed=10), cfg)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]

    def test_corrupted_version_line(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=10), cfg)
        blob = path.read_bytes()
        path.write_bytes(b"BOGUS 9\n" + blob.split(b"\n", 1)[1])
        with pytest.raises(CheckpointError, match="version"):
            mm.load_checkpoint(path)

    @pytest.mark.parametrize("old, new, match", [
        (b"t_obs=4\n", b"t_obs=abc\n", "header line 2: config field t_obs expects int, got 'abc'"),
        (b"t_obs=4\n", b"t_obs=4.5\n", "header line 2: config field t_obs expects int, got '4.5'"),
        (b"xi=0.5\n", b"xi=zz\n", "header line 8: config field xi expects float, got 'zz'"),
        # bytes str.splitlines breaks at, but the header's lines end only at \n
        *((b"t_obs=4\n", b"t_obs=4" + sep + b"\n", "header line 2: config field t_obs expects int")
          for sep in (b"\r", b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", "\x85".encode())),
        (b"t_obs=4\n", b"t_obs=4\x1c5\n", "header line 2: config field t_obs expects int"),
        (b"param out_proj_b 5\n", b"param out_proj_b x\n", "out_proj_b x"),
        (b"t_obs=4\n", b"t_obs=0\n", "t_obs must be >= 1"),
        (b"xi=0.5\n", b"xi=0.9\nxi=0.5\n", "header line 9: config field xi given twice"),
        (b"xi=0.5\n", b"xi=0.5\nbogus=1\n", "header line 9: 'bogus=1' is neither a config field nor a param line"),
        (b"xi=0.5\n", b"xi=0.5\nstray\n", "header line 9: 'stray' is neither a config field nor a param line"),
        (b"xi=0.5\n", b"", "header missing config field 'xi'"),
    ])
    def test_malformed_header_value_names_file(self, tmp_path, old, new, match):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=10), cfg)
        blob = path.read_bytes()
        assert old in blob
        path.write_bytes(blob.replace(old, new, 1))
        with pytest.raises(CheckpointError, match=match) as info:
            mm.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_unsupported_version_number(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=11), cfg)
        blob = path.read_bytes()
        path.write_bytes(blob.replace(b"SGCNCKPT 1\n", b"SGCNCKPT 2\n", 1))
        with pytest.raises(CheckpointError, match="unsupported version"):
            mm.load_checkpoint(path)

    def test_shape_mismatch_is_descriptive(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=12), cfg)
        blob = path.read_bytes()
        corrupted = blob.replace(b"param out_proj_w 16 5", b"param out_proj_w 16 7", 1)
        path.write_bytes(corrupted)
        with pytest.raises(CheckpointError, match="out_proj_w"):
            mm.load_checkpoint(path)

    def test_duplicated_param_line_named(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=12), cfg)
        line = b"param out_proj_w 16 5\n"
        path.write_bytes(path.read_bytes().replace(line, line + line, 1))
        with pytest.raises(CheckpointError, match="parameter out_proj_w listed twice") as info:
            mm.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_key_bias_checkpoint_names_file(self, tmp_path):
        # checkpoints written before the key biases were deleted carry two more parameters
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=12)
        for prefix in ("spa", "tmp"):
            w[f"{prefix}_key_b"] = Tensor(np.zeros(cfg.embed_dim))
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, w, cfg)
        with pytest.raises(CheckpointError, match=r"unexpected parameters \['spa_key_b', 'tmp_key_b'\]") as info:
            mm.load_checkpoint(path)
        assert str(path) in str(info.value)

    def test_truncated_payload_rejected(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=13), cfg)
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(CheckpointError, match="payload"):
            mm.load_checkpoint(path)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_payload_names_file_and_parameter(self, tmp_path, value):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=14)
        w["out_proj_b"].data[0] = value
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, w, cfg)
        with pytest.raises(CheckpointError, match="parameter out_proj_b holds non-finite values") as info:
            mm.load_checkpoint(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("element", [0, -1], ids=["first_element", "last_element"])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_first_non_finite_parameter_named(self, tmp_path, where, element, value):
        cfg = small_cfg()
        w = mm.init_weights(cfg, seed=16)
        names = sorted(w)  # the payload's order
        name = names[{"first": 0, "middle": len(names) // 2, "last": -1}[where]]
        w[name].data.reshape(-1)[element] = value
        w[names[-1]].data.reshape(-1)[-1] = np.nan  # a later non-finite parameter is not the one named
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, w, cfg)
        with pytest.raises(CheckpointError) as info:
            mm.load_checkpoint(path)
        assert str(info.value) == f"{path}: parameter {name} holds non-finite values"

    def test_loaded_parameters_do_not_overlap(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=17), cfg)
        loaded, _ = mm.load_checkpoint(path)
        for tensor in loaded.values():
            tensor.data += 1.0  # in place: a shared element would move twice
        fresh, _ = mm.load_checkpoint(path)
        for name, tensor in loaded.items():
            assert np.array_equal(tensor.data, fresh[name].data + 1.0), name
            assert tensor.data.flags.writeable and tensor.data.shape == fresh[name].shape

    def test_truncations_and_byte_flips_load_or_name_file(self, tmp_path):
        # A bare ValueError, KeyError, IndexError or UnicodeDecodeError escapes and fails the test.
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=15), cfg)
        cases = damaged_blobs(path.read_bytes())
        loaded = 0
        for damaged in cases:
            path.write_bytes(damaged)
            try:
                mm.load_checkpoint(path)
            except CheckpointError as err:
                assert str(path) in str(err), err
            else:
                loaded += 1
        assert 0 < loaded < len(cases)

    def test_a_header_read_before_is_not_parsed_again(self, tmp_path, monkeypatch):
        paths = {}
        for cfg in (ModelConfig(), small_cfg()):  # both headers kept in one process
            paths[cfg] = tmp_path / f"{cfg.t_obs}.ckpt"
            mm.save_checkpoint(paths[cfg], mm.init_weights(cfg, seed=18), cfg)
            mm.load_checkpoint(paths[cfg])

        def line_reader(path, head):
            raise AssertionError(f"{path} was read line by line")

        monkeypatch.setattr(mm, "_read_header", line_reader)
        for cfg, path in paths.items():
            w = mm.init_weights(cfg, seed=19)  # new weights behind the same header
            mm.save_checkpoint(path, w, cfg)
            loaded, got = mm.load_checkpoint(path)
            assert got == cfg
            assert list(loaded) == sorted(w)
            for name, tensor in loaded.items():
                assert tensor.data.tobytes() == w[name].data.tobytes(), name

    def test_kept_header_changes_no_outcome_on_damaged_blobs(self, tmp_path):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=15), cfg)
        blob = path.read_bytes()
        with mock.patch.dict(mm._headers, clear=True):
            mm.load_checkpoint(path)
            kept = dict(mm._headers)
        [head] = kept

        def outcome(headers):
            with mock.patch.dict(mm._headers, headers, clear=True):
                try:
                    weights, got = mm.load_checkpoint(path)
                except CheckpointError as err:
                    return str(err)
                return repr(got), [(name, tensor.data.tobytes()) for name, tensor in weights.items()]

        hits = 0
        for damaged in damaged_blobs(blob):
            path.write_bytes(damaged)
            hits += damaged.startswith(head + b"\nEND\n")
            assert outcome(kept) == outcome({})
        assert hits > 0  # payload flips and truncations keep the saved header

    @pytest.mark.parametrize("rewrite", ["shuffled_manifest", "config_line_after_manifest", "xi_exponent"])
    def test_non_canonical_header_loads_like_the_saved_one(self, tmp_path, rewrite):
        cfg = small_cfg()
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, mm.init_weights(cfg, seed=19), cfg)
        blob = path.read_bytes()
        want, _ = mm.load_checkpoint(path)
        head, end, payload = blob.partition(b"\nEND\n")
        version, *lines = head.split(b"\n")
        config, manifest = lines[:7], lines[7:]
        if rewrite == "shuffled_manifest":
            manifest = [manifest[i] for i in np.random.default_rng(0).permutation(len(manifest))]
            # the payload follows the shape table's order
            payload = b"".join(want[line.split()[1].decode()].data.tobytes() for line in manifest)
        elif rewrite == "config_line_after_manifest":
            manifest.append(config.pop(1))
        else:
            assert config[-1] == b"xi=0.5"
            config[-1] = b"xi=5e-1"
        path.write_bytes(b"\n".join([version, *config, *manifest]) + end + payload)
        loaded, got = mm.load_checkpoint(path)
        assert repr(got) == repr(cfg)
        assert sorted(loaded) == sorted(want)
        for name, tensor in loaded.items():
            assert tensor.data.tobytes() == want[name].data.tobytes(), name
        if rewrite == "shuffled_manifest":  # the first non-finite parameter is named in the file's order
            order = [line.split()[1].decode() for line in manifest]
            first, later = order[len(order) // 2], min(order[len(order) // 2 + 1:])
            assert later < first  # stored after `first`, sorted before it
            want[first].data.reshape(-1)[-1] = np.nan  # its last value: the next parameter's neighbour
            want[later].data.reshape(-1)[0] = np.inf
            payload = b"".join(want[name].data.tobytes() for name in order)
            path.write_bytes(b"\n".join([version, *config, *manifest]) + end + payload)
            with pytest.raises(CheckpointError) as info:
                mm.load_checkpoint(path)
            assert str(info.value) == f"{path}: parameter {first} holds non-finite values"

    def test_missing_end_marker(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"SGCNCKPT 1\nt_obs=4\n")
        with pytest.raises(CheckpointError, match="END"):
            mm.load_checkpoint(path)
