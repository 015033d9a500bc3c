"""Loss, optimizer, schedule, and training-loop behavior."""

import math
import platform
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from sgcn import autodiff as ad
from sgcn import data as sgcn_data
from sgcn import model as mm
from sgcn import training as tr
from sgcn.autodiff import Tensor
from sgcn.config import ModelConfig, TrainConfig
from sgcn.errors import ConfigError, NumericsError
from sgcn.model import forward, group_by_size, init_weights, load_checkpoint

from conftest import FIXTURE_SCENES, finite_diff_check_params, fixture_positions

SMALL_CFG = ModelConfig(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)


def small_scenes():
    out = []
    for name, vel, org, seed in FIXTURE_SCENES:
        pos = fixture_positions(vel, org, seed, steps=7)
        out.append(sgcn_data.TrajectoryScene(
            pedestrian_ids=(1, 2, 3),
            positions_obs=pos[:4],
            positions_fut=pos[4:],
            scene_name=name.upper(),
        ))
    return out


def nll_reference(raw: np.ndarray, gt: np.ndarray) -> float:
    """Independent elementwise reimplementation of the loss."""
    mu = raw[..., 0:2]
    sigma = np.exp(np.clip(raw[..., 2:4], np.log(mm.SIGMA_FLOOR), mm.LOG_SIGMA_MAX))
    rho = np.clip(np.tanh(raw[..., 4]), -mm.RHO_LIMIT, mm.RHO_LIMIT)
    dx = (gt[..., 0] - mu[..., 0]) / sigma[..., 0]
    dy = (gt[..., 1] - mu[..., 1]) / sigma[..., 1]
    z = dx**2 - 2.0 * rho * dx * dy + dy**2
    log_pdf = (
        -tr.LOG_2PI
        - np.log(sigma[..., 0])
        - np.log(sigma[..., 1])
        - 0.5 * np.log(1.0 - rho**2)
        - z / (2.0 * (1.0 - rho**2))
    )
    return float(-log_pdf.sum() / raw.shape[1])


class TestNllOracles:
    def test_standard_normal_at_mean(self):
        # zero raw output decodes to (mu=0, sigma=1, rho=0); hitting the
        # mean costs exactly log(2*pi) per step
        raw = Tensor(np.zeros((12, 3, 5)))
        loss = tr.nll_loss(raw, np.zeros((12, 3, 2)))
        assert loss.data.item() == pytest.approx(12 * tr.LOG_2PI, abs=1e-12)

    def test_unit_offset_adds_half(self):
        raw = Tensor(np.zeros((12, 2, 5)))
        gt = np.zeros((12, 2, 2))
        gt[..., 0] = 1.0
        loss = tr.nll_loss(raw, gt)
        assert loss.data.item() == pytest.approx(12 * (tr.LOG_2PI + 0.5), abs=1e-12)

    def test_correlation_term_hand_case(self):
        raw = np.zeros((1, 1, 5))
        raw[0, 0, 4] = 1.0
        gt = np.array([[[0.3, -0.2]]])
        r = math.tanh(1.0)
        z = 0.3**2 - 2 * r * 0.3 * (-0.2) + 0.2**2
        expected = tr.LOG_2PI + 0.5 * math.log(1 - r**2) + z / (2 * (1 - r**2))
        loss = tr.nll_loss(Tensor(raw), gt)
        assert loss.data.item() == pytest.approx(expected, abs=1e-12)

    def test_matches_independent_formula(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(4, 3, 5))
        gt = rng.normal(size=(4, 3, 2))
        loss = tr.nll_loss(Tensor(raw), gt)
        assert loss.data.item() == pytest.approx(nll_reference(raw, gt), abs=1e-10)

    def test_sigma_floor_keeps_loss_finite(self):
        raw = np.zeros((2, 1, 5))
        raw[..., 2:4] = -1000.0  # decodes to sigma = 1e-8, not 0
        loss = tr.nll_loss(Tensor(raw), np.zeros((2, 1, 2)))
        assert np.isfinite(loss.data.item())

    def test_extreme_correlation_is_clamped(self):
        raw = np.zeros((2, 2, 5))
        raw[..., 4] = 50.0  # tanh saturates at 1; clamp keeps 1 - rho^2 > 0
        t = Tensor(raw, requires_grad=True)
        loss = tr.nll_loss(t, np.ones((2, 2, 2)))
        ad.backward(loss)
        assert np.isfinite(loss.data.item())
        assert np.all(np.isfinite(t.grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        raw = Tensor(rng.normal(scale=0.5, size=(3, 2, 5)), requires_grad=True)
        gt = rng.normal(size=(3, 2, 2))
        errors = finite_diff_check_params(lambda: tr.nll_loss(raw, gt), {"raw": raw})
        assert errors["raw"] < 1e-5


class TestAdam:
    def test_zero_gradient_leaves_weights(self):
        w = {"a": Tensor(np.array([1.0, 2.0]))}
        before = w["a"].data.copy()
        opt = tr.Adam(w)
        w["a"].grad[:] = 0.0
        opt.step(lr=0.1)
        assert np.array_equal(w["a"].data, before)

    def test_unreached_parameter_keeps_its_bytes(self):
        # backward never reaches "frozen" (as with the gate cascade); it keeps zero moments and moves by exactly 0
        w = {"moving": Tensor(np.array([1.0, -2.0])), "frozen": Tensor(np.array([0.5, -0.0, -3.25]))}
        frozen = w["frozen"].data.tobytes()
        opt = tr.Adam(w)
        unreached = slice(0, 3)  # sorted-name order: "frozen" comes first
        for _ in range(5):
            ad.backward(ad.tsum(w["moving"] * w["moving"]))
            opt.step(lr=0.1, grad_scale=0.5)
            assert w["frozen"].data.tobytes() == frozen
            assert not np.any(opt.m[unreached]) and not np.any(opt.v[unreached])
        assert np.all(w["moving"].data != np.array([1.0, -2.0]))
        assert w["frozen"].requires_grad and w["moving"].requires_grad

    def test_first_gradient_negative_zero(self):
        # a free leaf keeps a first gradient of -0.0 (g.copy()); an adopted one adds it into +0.0
        free = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        ad.backward(ad.tsum(free * np.array([-0.0, 3.0])))
        assert np.signbit(free.grad[0])
        w = {"x": Tensor(np.array([1.0, -2.0]))}
        opt = tr.Adam(w)
        ad.backward(ad.tsum(w["x"] * np.array([-0.0, 3.0])))
        assert w["x"].grad.tolist() == [0.0, 3.0] and not np.signbit(w["x"].grad[0])
        opt.step(lr=0.1)
        assert w["x"].data[0] == 1.0 and w["x"].data[1] == pytest.approx(-2.1, abs=1e-7)
        assert opt.m[0] == opt.v[0] == 0.0 and not np.signbit(opt.m[0])
        assert not np.any(opt.grad)  # step zeroes the flat gradient

    def test_first_step_moves_by_lr(self):
        # biased-corrected first step is lr * g / (|g| + eps) ~= lr * sign(g)
        w = {"x": Tensor(np.array([5.0]))}
        opt = tr.Adam(w)
        w["x"].grad[:] = 2.0
        opt.step(lr=0.1)
        assert w["x"].data[0] == pytest.approx(4.9, abs=1e-7)

    def test_quadratic_descent(self):
        w = {"x": Tensor(np.array([5.0]))}
        opt = tr.Adam(w)
        for _ in range(200):
            w["x"].grad[:] = 2.0 * w["x"].data
            opt.step(lr=0.1)
        assert abs(w["x"].data[0]) < 0.05

    def test_grad_scale_equals_prescaled_gradients(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=4)
        w1 = {"x": Tensor(np.ones(4))}
        w2 = {"x": Tensor(np.ones(4))}
        o1, o2 = tr.Adam(w1), tr.Adam(w2)
        for _ in range(5):
            w1["x"].grad[:] = g
            o1.step(lr=0.01, grad_scale=0.5)
            w2["x"].grad[:] = 0.5 * g
            o2.step(lr=0.01)
        assert np.allclose(w1["x"].data, w2["x"].data, atol=1e-14)

    def test_step_rounds_as_the_array_expressions(self):
        # the in-place update against Adam's formulas written as whole-array expressions
        rng = np.random.default_rng(5)
        w = {"a": Tensor(rng.normal(size=(3, 2))), "b": Tensor(rng.normal(size=4))}
        opt = tr.Adam(w)
        data, m, v = opt.data.copy(), np.zeros_like(opt.data), np.zeros_like(opt.data)
        arrays = opt.data, opt.grad, opt.m, opt.v
        for t in range(1, 6):
            grad = rng.normal(size=data.shape) * 10.0 ** rng.integers(-8, 3, size=data.shape)
            opt.grad[:] = grad
            opt.step(lr=1e-3 * t, grad_scale=1.0 / 3.0)
            g = grad * (1.0 / 3.0)
            m = tr.ADAM_BETA1 * m + (1.0 - tr.ADAM_BETA1) * g
            v = tr.ADAM_BETA2 * v + (1.0 - tr.ADAM_BETA2) * (g * g)
            m_hat, v_hat = m / (1.0 - tr.ADAM_BETA1 ** t), v / (1.0 - tr.ADAM_BETA2 ** t)
            data -= 1e-3 * t * m_hat / (np.sqrt(v_hat) + tr.ADAM_EPS)
            assert opt.data.tobytes() == data.tobytes() and opt.m.tobytes() == m.tobytes()
            assert opt.v.tobytes() == v.tobytes() and not np.any(opt.grad)
        assert all(a is b for a, b in zip((opt.data, opt.grad, opt.m, opt.v), arrays))

    def test_flat_data_is_the_checkpoint_payload(self, tmp_path):
        w = init_weights(SMALL_CFG, seed=4)
        path = tmp_path / "m.ckpt"
        mm.save_checkpoint(path, w, SMALL_CFG)
        payload = path.read_bytes().partition(b"\nEND\n")[2]
        opt = tr.Adam(w)
        assert opt.data.tobytes() == payload
        for name, p in w.items():
            assert np.shares_memory(p.data, opt.data) and np.shares_memory(p.grad, opt.grad), name
        assert (opt.grad.shape, opt.m.shape, opt.v.shape) == (opt.data.shape,) * 3


class TestTrainConfig:
    @pytest.mark.parametrize("lr", [float("nan"), float("inf")])
    def test_non_finite_lr_rejected(self, lr):
        with pytest.raises(ConfigError, match="lr must be positive and finite"):
            TrainConfig(lr=lr)

    @pytest.mark.parametrize("factor", [0.0, -0.5, 1.5, float("nan")])
    def test_decay_factor_outside_unit_interval_rejected(self, factor):
        with pytest.raises(ConfigError, match=r"lr_decay_factor must lie in \(0, 1\]"):
            TrainConfig(lr_decay_factor=factor)


class TestSchedule:
    def test_stepped_decay_values(self):
        cfg = TrainConfig(lr=1e-3, lr_decay_factor=0.1, lr_decay_interval=50)
        assert cfg.lr_at(0) == pytest.approx(1e-3)
        assert cfg.lr_at(49) == pytest.approx(1e-3)
        assert cfg.lr_at(50) == pytest.approx(1e-4)
        assert cfg.lr_at(99) == pytest.approx(1e-4)
        assert cfg.lr_at(100) == pytest.approx(1e-5)

    def test_other_factor(self):
        cfg = TrainConfig(lr=2e-3, lr_decay_factor=0.5, lr_decay_interval=10)
        assert cfg.lr_at(35) == pytest.approx(2e-3 * 0.5**3)


class TestTrainLoop:
    def test_deterministic_repeat(self):
        scenes = small_scenes()
        cfg = TrainConfig(epochs=3, batch_size=2, lr=1e-3, seed=4)
        w1, rows1 = tr.train(scenes, SMALL_CFG, cfg)
        w2, rows2 = tr.train(scenes, SMALL_CFG, cfg)
        assert rows1 == rows2
        assert sorted(w1) == sorted(w2)
        for name in w1:
            assert np.array_equal(w1[name].data, w2[name].data)

    def test_loss_decreases_on_fixtures(self):
        scenes = small_scenes()
        cfg = TrainConfig(epochs=40, batch_size=2, lr=3e-3, seed=0)
        _, rows = tr.train(scenes, SMALL_CFG, cfg)
        assert rows[-1][2] < rows[0][2]

    def test_empty_scene_list_raises(self):
        with pytest.raises(ConfigError, match="at least one scene"):
            tr.train([], SMALL_CFG, TrainConfig(epochs=1))

    def test_negative_seed_rejected_before_training(self):
        # TrainConfig states the seed rule, so train never reaches numpy's bare ValueError
        with pytest.raises(ConfigError, match="^seed must be >= 0, got -1$"):
            tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=1, seed=-1))

    def test_full_sparsity_threshold_still_runs(self):
        # xi=1 prunes every learned edge; the forced self-loops must keep
        # the graphs (and the loss) usable
        cfg = ModelConfig(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2, xi=1.0)
        _, rows = tr.train(small_scenes(), cfg, TrainConfig(epochs=1, batch_size=2))
        assert np.isfinite(rows[-1][2])

    def test_checkpoint_matches_returned_weights(self, tmp_path):
        path = tmp_path / "w.ckpt"
        weights, _ = tr.train(
            small_scenes(), SMALL_CFG, TrainConfig(epochs=2, batch_size=2), checkpoint_path=path
        )
        loaded, cfg = load_checkpoint(path)
        assert cfg == SMALL_CFG
        for name in weights:
            assert np.array_equal(loaded[name].data, weights[name].data)

    def test_run_stopped_mid_way_leaves_the_last_epochs_checkpoint_and_log(self, tmp_path, monkeypatch):
        # the second epoch's checkpoint write fails: the first epoch's checkpoint and log rows remain
        saves = []

        def fail_second_save(path, weights, cfg):
            saves.append(path)
            if len(saves) == 2:
                raise OSError("disk full")
            mm.save_checkpoint(path, weights, cfg)

        monkeypatch.setattr(tr, "save_checkpoint", fail_second_save)
        ckpt, log = tmp_path / "w.ckpt", tmp_path / "loss_log.csv"
        with pytest.raises(OSError, match="disk full"):
            tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=3, batch_size=1),
                     checkpoint_path=ckpt, loss_log_path=log)
        weights, rows = tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=1, batch_size=1))
        assert [r[:2] for r in rows] == [(0, 1), (0, 2)]
        tr.write_loss_log(rows, tmp_path / "want.csv")
        assert log.read_bytes() == (tmp_path / "want.csv").read_bytes()
        loaded, _ = load_checkpoint(ckpt)
        for name in weights:
            assert np.array_equal(loaded[name].data, weights[name].data), name

    def test_training_from_loaded_checkpoint_learns(self, tmp_path):
        # loaded weights are constants; train() makes them trainable again
        path = tmp_path / "w.ckpt"
        tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=1, batch_size=2), checkpoint_path=path)
        loaded, cfg = load_checkpoint(path)
        fresh = {name: Tensor(w.data.copy(), requires_grad=True) for name, w in loaded.items()}
        before = {name: w.data.copy() for name, w in loaded.items()}
        resumed, _ = tr.train(small_scenes(), cfg, TrainConfig(epochs=1, batch_size=2), weights=loaded)
        want, _ = tr.train(small_scenes(), cfg, TrainConfig(epochs=1, batch_size=2), weights=fresh)
        assert any(not np.array_equal(resumed[name].data, before[name]) for name in before)
        for name in before:
            assert np.array_equal(resumed[name].data, want[name].data), name

    @pytest.mark.parametrize("case", ["extra_layer", "missing", "mis_shaped"])
    def test_weights_that_do_not_fit_the_config_are_refused(self, tmp_path, case):
        message = {
            "extra_layer": r"unexpected parameters \['spa_conv2_col_b', 'spa_conv2_col_k', ",
            "missing": r"parameter spa_conv1_row_b missing from weights$",
            "mis_shaped": r"parameter out_proj_w has shape \(16, 7\), config implies \(16, 5\)$",
        }[case]
        if case == "extra_layer":
            weights = init_weights(replace(SMALL_CFG, conv_layers=3), seed=0)
        else:
            weights = init_weights(SMALL_CFG, seed=0)
            if case == "missing":
                del weights["spa_conv1_row_b"]
            else:
                weights["out_proj_w"] = Tensor(np.zeros((16, 7)))
        ckpt, log = tmp_path / "w.ckpt", tmp_path / "loss_log.csv"
        with pytest.raises(ConfigError, match="^weights do not fit the model config: " + message):
            tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=1, batch_size=2), weights=weights,
                     checkpoint_path=ckpt, loss_log_path=log)
        assert list(tmp_path.iterdir()) == []

    def test_numerics_error_names_scene(self):
        scene = small_scenes()[0]
        bad = sgcn_data.TrajectoryScene(
            pedestrian_ids=scene.pedestrian_ids,
            positions_obs=np.full_like(scene.positions_obs, np.nan),
            positions_fut=scene.positions_fut,
            scene_name="BADSCENE",
        )
        with pytest.raises(NumericsError, match="BADSCENE"):
            tr.train([bad], SMALL_CFG, TrainConfig(epochs=1, batch_size=1))

    def test_numerics_error_in_group_names_failing_scene(self):
        # three N=3 windows share one group; only the failing one is named
        good = small_scenes()
        bad = sgcn_data.TrajectoryScene(
            pedestrian_ids=good[0].pedestrian_ids,
            positions_obs=np.full_like(good[0].positions_obs, np.nan),
            positions_fut=good[0].positions_fut,
            scene_name="BADSCENE",
        )
        assert len(group_by_size([3, 3, 3], mm.GROUP_PEDESTRIANS)) == 1
        with pytest.raises(NumericsError, match=r"^scene BADSCENE@frame0 \(N=3\)"):
            tr.train(good + [bad], SMALL_CFG, TrainConfig(epochs=1, batch_size=8))

    def test_nan_mid_model_names_op_stage_and_scene(self):
        weights = init_weights(SMALL_CFG, seed=1)
        weights["gcn_spa1_w"].data[0, 0] = np.nan
        with pytest.raises(NumericsError, match=(
            r"^scene FIX1@frame0 \(N=3\): non-finite values produced by 'gcn_layer' in stage 'branches'$"
        )):
            tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=1, batch_size=8), weights=weights)

    def test_nan_target_names_loss_stage_and_scene(self):
        good = small_scenes()
        bad = sgcn_data.TrajectoryScene(
            pedestrian_ids=good[0].pedestrian_ids,
            positions_obs=good[0].positions_obs,
            positions_fut=np.full_like(good[0].positions_fut, np.nan),
            start_frame=40,
            scene_name="BADSCENE",
        )
        with pytest.raises(NumericsError, match=r"^scene BADSCENE@frame40 \(N=3\): .* in stage 'loss'$"):
            tr.train(good + [bad], SMALL_CFG, TrainConfig(epochs=1, batch_size=8))

    def test_group_checks_only_its_exits(self, monkeypatch):
        # the loss runs deferred like the rest of the pass: no per-op check,
        # only the head output, both gate features and the loss in backward
        scenes = small_scenes()
        weights = init_weights(SMALL_CFG, seed=2)
        checked = []
        check = ad._check_finite

        def spy(data, op):
            checked.append(op)
            check(data, op)

        def backward_group(group):
            losses = tr.group_loss([scenes[i] for i in group], weights, SMALL_CFG)
            ad.backward(ad.tsum(losses))
            return losses.data

        monkeypatch.setattr(ad, "_check_finite", spy)
        mm.map_groups(backward_group, scenes)
        assert sorted(checked) == ["gate features", "gate features", "loss", "tcn_head"]

    def test_nan_loss_stops_backward_before_any_vjp(self):
        scene = small_scenes()[0]
        bad = sgcn_data.TrajectoryScene(scene.pedestrian_ids, scene.positions_obs,
                                        np.full_like(scene.positions_fut, np.nan))
        weights = init_weights(SMALL_CFG, seed=2)
        optimizer = tr.Adam(weights)
        with ad.scope(deferred=True):
            loss = ad.tsum(tr.group_loss([bad], weights, SMALL_CFG))
        with pytest.raises(NumericsError, match=r"^non-finite values produced by 'loss'$"):
            ad.backward(loss)
        assert not optimizer.grad.any()

    def test_remainder_window_still_steps(self):
        # 2 scenes with batch_size 8: the undersized epoch-end window must
        # produce an optimizer step rather than dropping its gradients
        _, rows = tr.train(small_scenes(), SMALL_CFG, TrainConfig(epochs=2, batch_size=8))
        assert [r[:2] for r in rows] == [(0, 1), (1, 2)]

    def test_loss_rows_track_schedule(self):
        cfg = TrainConfig(epochs=4, batch_size=2, lr=1e-2, lr_decay_factor=0.1, lr_decay_interval=2)
        _, rows = tr.train(small_scenes(), SMALL_CFG, cfg)
        lrs = [r[3] for r in rows]
        assert lrs == [1e-2, 1e-2, pytest.approx(1e-3), pytest.approx(1e-3)]


class TestLossLog:
    def test_format_and_bytes(self, tmp_path):
        rows = [(0, 1, 1.5, 0.001), (0, 2, 0.75, 0.001)]
        path = tmp_path / "loss.csv"
        tr.write_loss_log(rows, path)
        assert path.read_text() == "epoch,step,nll,lr\n0,1,1.5,0.001\n0,2,0.75,0.001\n"

    def test_repr_floats_round_trip(self, tmp_path):
        nll = 1.0 / 3.0
        path = tmp_path / "loss.csv"
        tr.write_loss_log([(0, 1, nll, 1e-3)], path)
        text = path.read_text().splitlines()[1]
        assert float(text.split(",")[2]) == nll


def test_training_respects_initial_weights():
    # passing explicit weights must bypass seed-based init
    scenes = small_scenes()
    w0 = init_weights(SMALL_CFG, seed=9)
    frozen = {k: v.data.copy() for k, v in w0.items()}
    w1, _ = tr.train(scenes, SMALL_CFG, TrainConfig(epochs=1, batch_size=2, seed=0), weights=w0)
    assert w1 is w0
    changed = [k for k in frozen if not np.array_equal(frozen[k], w1[k].data)]
    assert changed  # training moved something


def test_forward_raw_shape_matches_loss_contract():
    scenes = small_scenes()
    weights = init_weights(SMALL_CFG, seed=0)
    raw, _, _ = forward(scenes[0].displacements_obs, weights, SMALL_CFG)
    assert raw.shape == (SMALL_CFG.t_pred, 3, 5)


def test_gate_cascade_parameters_never_learn():
    # The asymmetric conv cascade only feeds the hard mask, which is a
    # constant to backward: its parameters get no gradient, every other one does.
    name, vel, org, seed = FIXTURE_SCENES[0]
    pos = fixture_positions(vel, org, seed)
    cfg = ModelConfig()
    scene = sgcn_data.TrajectoryScene((1, 2, 3), pos[: cfg.t_obs], pos[cfg.t_obs :], scene_name=name)
    weights = init_weights(cfg, seed=0)
    ad.backward(tr.group_loss([scene], weights, cfg))
    no_grad = {n for n, w in weights.items() if w.grad is None}
    assert no_grad == {n for n in weights if n.startswith(("spa_conv", "tmp_conv"))}
    assert (len(no_grad), len(weights)) == (70, 104)
    assert sum(weights[n].data.size for n in no_grad) == 2870


def mixed_scenes(sizes, seed):
    rng = np.random.default_rng(seed)
    scenes = []
    for i, n in enumerate(sizes):
        pos = np.cumsum(rng.normal(scale=0.3, size=(20, n, 2)), axis=0)
        scenes.append(sgcn_data.TrajectoryScene(tuple(range(n)), pos[:8], pos[8:], start_frame=i, scene_name="MIX"))
    return scenes


def test_group_losses_and_gradients_match_per_window():
    # mixed N, a split N=2 run (two windows more than one group holds), and one window above the training budget
    cfg = ModelConfig()
    budget = mm.GROUP_PEDESTRIANS
    sizes = [2, 3, 2, 1, 2, budget + 1, 3, 2, 2, 1, 2, 2, 2, 3] + [2] * (budget // 2 - 6)
    scenes = mixed_scenes(sizes, seed=21)
    groups = group_by_size(sizes, budget)
    assert [5] in groups and max(len(g) for g in groups) == budget // 2
    assert sorted(len(g) for g in groups if sizes[g[0]] == 2) == [2, budget // 2]
    weights = init_weights(cfg, seed=5)

    singles = []
    for scene in scenes:
        loss = tr.group_loss([scene], weights, cfg)
        ad.backward(loss)
        singles.append(loss.data.item())
    want = {name: w.grad for name, w in weights.items()}
    for w in weights.values():
        w.grad = None
    for group in groups:
        losses = tr.group_loss([scenes[i] for i in group], weights, cfg)
        assert losses.shape == (len(group),)
        assert losses.data.tolist() == [singles[i] for i in group]  # bit for bit
        ad.backward(ad.tsum(losses))
    for name, w in weights.items():
        if want[name] is None:
            assert w.grad is None, name
            continue
        assert np.abs(w.grad - want[name]).max() <= 1e-12 * np.abs(want[name]).max(), name

    # a training step's loss row averages the window losses in permutation order
    order = np.random.default_rng(3).permutation(len(scenes))
    _, rows = tr.train(scenes, cfg, TrainConfig(epochs=1, batch_size=len(scenes), seed=3), weights=weights)
    assert rows[0][2] == float(np.mean([singles[i] for i in order]))


def test_training_tape_stays_small():
    # the tape a 12-window N=2 group holds after forward, per window-pedestrian
    # (sum of N): 184 KB with composed linear, GCN and TCN-block layers, 109 KB
    # with each fused into one node; a regrown tape would cost training memory
    cfg = ModelConfig()
    scenes = mixed_scenes([2] * 12, seed=4)
    weights = init_weights(cfg, seed=0)
    tracemalloc.start()
    try:
        losses = tr.group_loss(scenes, weights, cfg)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert losses.shape == (12,)
    assert held / 24 < 130 * 1024


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="keeping freed memory needs glibc's mallopt")
def test_repeated_training_reuses_freed_tape_memory():
    # one N=40 window, a group of its own: at glibc's default thresholds every call faulted
    # its freed tape back in (2,400-3,200 minor faults); with the memory kept, 0-70
    import resource

    scenes = mixed_scenes([40], seed=4)
    cfgs = ModelConfig(), TrainConfig(epochs=1, batch_size=1)
    tr.train(scenes, *cfgs)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    tr.train(scenes, *cfgs)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 400


def _no_c_library(name):
    raise OSError("cannot open the C library")


@pytest.mark.parametrize("cdll", [_no_c_library, lambda name: object()], ids=["no-c-library", "no-mallopt"])
def test_keep_freed_memory_without_mallopt_does_nothing(monkeypatch, cdll):
    # where the C library cannot be opened or has no mallopt, training runs without the setting
    monkeypatch.setattr(tr.ctypes, "CDLL", cdll)
    assert tr._keep_freed_memory.__wrapped__() is None
