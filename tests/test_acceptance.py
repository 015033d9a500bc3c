"""Top-level acceptance gate: one test per release criterion.

Each test prints as a single pass/fail line under ``pytest -v``.  The
tolerances and runtime budgets are part of the contract; helpers from
the unit suites are reused so the oracles stay in one place.
"""

import tempfile
import time

import numpy as np
import pytest

from sgcn import autodiff as ad
from sgcn import cli
from sgcn import data as sgcn_data
from sgcn import evaluation as ev
from sgcn import graphs as gg
from sgcn import model as mm
from sgcn import synthetic
from sgcn import training as tr
from sgcn.autodiff import Tensor
from sgcn.config import ModelConfig, TrainConfig

from conftest import finite_diff_check_params, fixture_positions
from test_autodiff import PRIMITIVE_CASES, check_primitive_gradient
from test_evaluation import mean_errors
from test_graphs import naive_cascade
from test_model import branch_fixture, naive_branches, naive_gcn_layer

# Full-model gradient check point, frozen after a margin scan.  Biases
# initialize to zero and the first displacement row is zero by
# convention, which parks first-step GCN pre-activations exactly on the
# activation kink; checking at a jittered parameter point keeps central
# differences valid.  The pinned seeds also keep every activation and
# every threshold comparison farther from its discontinuity than an
# h=1e-4 perturbation can reach.
GRAD_CFG = ModelConfig(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)
GRAD_WEIGHT_SEED = 4
GRAD_JITTER_SEED = 1004
GRAD_SCENE_SEED = 101


def gradcheck_scene(seed):
    rng = np.random.default_rng(seed)
    vel = rng.normal(scale=0.4, size=(3, 2))
    org = rng.uniform(0, 6, size=(3, 2))
    pos = org[None] + np.arange(7)[:, None, None] * vel[None]
    pos += rng.normal(scale=0.05, size=pos.shape)
    return sgcn_data.TrajectoryScene((1, 2, 3), pos[:4], pos[4:], scene_name="GRAD")


def test_c1_gradient_correctness_primitives_and_full_model():
    start = time.monotonic()
    for name in sorted(PRIMITIVE_CASES):
        check_primitive_gradient(name)

    scene = gradcheck_scene(GRAD_SCENE_SEED)
    weights = mm.init_weights(GRAD_CFG, seed=GRAD_WEIGHT_SEED)
    rng = np.random.default_rng(GRAD_JITTER_SEED)
    for p in weights.values():
        p.data += rng.uniform(-0.2, 0.2, size=p.shape)
    errors = finite_diff_check_params(lambda: tr.group_loss([scene], weights, GRAD_CFG), weights)
    worst = max(errors, key=errors.get)
    assert errors[worst] < 1e-4, f"{worst}: {errors[worst]:.3e}"
    assert time.monotonic() - start < 60.0


def test_c2_zero_softmax_suite():
    zeros = gg.zero_softmax(Tensor(np.zeros((3, 5))))
    assert np.array_equal(zeros.data, np.zeros((3, 5)))  # exact, not approximate

    rng = np.random.default_rng(0)
    out = gg.zero_softmax(Tensor(rng.normal(size=(6, 8))))
    assert np.all(out.data >= 0.0)

    quart = gg.zero_softmax(Tensor(np.ones((1, 4))))
    assert np.max(np.abs(quart.data - 0.25)) < 1e-9

    # sparsity survival: entries pruned by the hard mask stay exactly 0
    # after normalization
    scores = Tensor(rng.uniform(0.5, 2.0, size=(4, 5, 5)))
    mask = rng.uniform(size=(4, 5, 5)) < 0.4
    adj = gg.sparsify(scores, np.where(mask, 1.0, -1.0), 0.5)
    keep = mask | np.eye(5, dtype=bool)
    assert np.array_equal(adj.mask, keep)
    assert np.all(adj.normalized.data[~keep] == 0.0)
    assert np.all(adj.normalized.data[keep] > 0.0)


def test_c3_structural_invariants_hundred_scenes():
    cfg = ModelConfig(embed_dim=16)
    weights = mm.init_weights(cfg, seed=0)
    rng = np.random.default_rng(33)
    xis = (0.75, 0.5, 0.25, 0.0)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        disp = rng.normal(scale=0.3, size=(cfg.t_obs, n, 2))
        disp[0] = 0.0

        spa, h_spa = gg.build_spatial_graph(disp, weights, cfg)
        tmp, _ = gg.build_temporal_graph(disp, weights, cfg)
        assert spa.normalized.shape == (8, n, n)
        assert tmp.normalized.shape == (n, 8, 8)
        lower = np.tril(np.ones((8, 8), dtype=bool), k=-1)
        assert np.all(tmp.normalized.data[:, lower] == 0.0)

        scores = gg.attention_scores(h_spa, weights["spa_query_w"], weights["spa_query_b"], weights["spa_key_w"])
        assert np.max(np.abs(scores.data.sum(axis=-1) - 1.0)) < 1e-9

        nonzero = []
        for xi in xis:
            xcfg = ModelConfig(embed_dim=16, xi=xi)
            s, _ = gg.build_spatial_graph(disp, weights, xcfg)
            t, _ = gg.build_temporal_graph(disp, weights, xcfg)
            nonzero.append((s.normalized.data != 0.0, t.normalized.data != 0.0))
        for tighter, looser in zip(nonzero, nonzero[1:]):
            assert not np.any(tighter[0] & ~looser[0])  # spatial nesting
            assert not np.any(tighter[1] & ~looser[1])  # temporal nesting


def test_c4_oracle_equivalence():
    # dual-branch computation against the loop-nest restatement
    spa, tmp, h0_spa, h0_tmp, w = branch_fixture(11, n=4, t=4, d=8)
    itf = mm.interaction_tendency_branch(spa, tmp, h0_spa, w)
    tif = mm.tendency_interaction_branch(spa, tmp, h0_tmp, w)
    want_itf, want_tif = naive_branches(spa.data, tmp.data, h0_spa.data, h0_tmp.data, w)
    assert np.max(np.abs(itf.data - want_itf)) < 1e-10
    assert np.max(np.abs(tif.data - want_tif)) < 1e-10

    # single aggregation layer against an explicit receiver-by-receiver sum
    out = ad.gcn_layer(spa, h0_spa, w["gcn_spa1_w"], w["gcn_spa1_slope"])
    want = naive_gcn_layer(spa.data, h0_spa.data, w["gcn_spa1_w"].data, 0.25)
    assert np.max(np.abs(out.data - want)) < 1e-10

    # asymmetric conv stack against a nested-loop convolution
    rng = np.random.default_rng(12)
    c, s, n = 3, 3, 5
    x = rng.normal(size=(c, n, n))
    layers = []
    for _ in range(2):
        layers.append((
            Tensor(rng.normal(size=(c, c, 1, s))), Tensor(rng.normal(size=c)),
            Tensor(rng.normal(size=(c, c, s, 1))), Tensor(rng.normal(size=c)),
            Tensor(0.3),
        ))
    got = ad.conv_cascade(x, layers)
    assert np.max(np.abs(got - naive_cascade(x, layers))) < 1e-12


def test_c5_metric_oracles_and_best_of_k_monotonicity():
    gt = np.arange(24, dtype=float).reshape(4, 3, 2)
    assert mean_errors(gt.copy(), gt) == (0.0, 0.0)

    offset = gt.copy()
    offset[..., 1] += 1.0
    assert mean_errors(offset, gt) == pytest.approx((1.0, 1.0), abs=1e-12)

    mixed = np.zeros((6, 2, 2))
    mixed[:, 0, 0] = 3.0
    mixed[:, 1, 1] = 4.0
    assert mean_errors(mixed, np.zeros((6, 2, 2)))[0] == pytest.approx(3.5, abs=1e-12)

    cfg = ModelConfig(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)
    weights = mm.init_weights(cfg, seed=1)
    scenes = []
    rng = np.random.default_rng(5)
    for i in range(3):
        n = int(rng.integers(2, 5))
        pos = fixture_positions(rng.normal(scale=0.4, size=(n, 2)),
                                rng.uniform(0, 8, size=(n, 2)), seed=400 + i, steps=7)
        scenes.append(
            sgcn_data.TrajectoryScene(tuple(range(1, n + 1)), pos[:4], pos[4:], scene_name="M")
        )
    for eval_seed in range(20):
        single = ev.evaluate_best_of_k(weights, cfg, scenes, k=1, seed=eval_seed)
        best20 = ev.evaluate_best_of_k(weights, cfg, scenes, k=20, seed=eval_seed)
        assert best20.ade <= single.ade


def test_c6_overfit_smoke(overfit_run):
    rows = overfit_run.rows
    assert len(rows) <= 500  # optimizer steps, one per epoch here
    first, last = rows[0][2], rows[-1][2]
    assert first > 0
    assert last <= 0.5 * first  # NLL reduced by at least half
    ade, fde = ev.mu_path_metrics(overfit_run.weights, overfit_run.model_cfg, overfit_run.scenes)
    assert ade < 0.05
    assert overfit_run.train_seconds < 300.0


def test_c7_desk_scale_training_loose_bound():
    # the desk-scale leave-one-out protocol; the planned scripts/ablate.py reuses its subsampling
    start = time.monotonic()
    with tempfile.TemporaryDirectory() as td:
        synthetic.write_dataset(td, n_steps=520)
        tables = sgcn_data.load_dataset(td)
        split = sgcn_data.leave_one_out_split(tables, "ZARA2", 8, 12)
    rng = np.random.default_rng(7)
    sub = rng.choice(len(split.train_scenes), size=len(split.train_scenes) // 5, replace=False)
    train_scenes = [split.train_scenes[i] for i in sub]
    test_idx = rng.choice(len(split.test_scenes), size=200, replace=False)
    test_scenes = [split.test_scenes[i] for i in test_idx]

    cfg = ModelConfig()
    weights, _ = tr.train(train_scenes, cfg, TrainConfig(epochs=10, batch_size=16, lr=1e-3, seed=0))
    report = ev.evaluate_best_of_k(weights, cfg, test_scenes, k=20, seed=0)
    untrained = ev.evaluate_best_of_k(mm.init_weights(cfg, seed=0), cfg, test_scenes, k=20, seed=0)
    assert report.ade < 1.5
    assert report.ade < 0.5 * untrained.ade  # observed 0.366 against 1.733
    assert time.monotonic() - start < 7200.0


def test_c8_sampling_statistics():
    n = 100_000
    params = mm.BiGaussianParams(
        mu=np.broadcast_to(np.array([0.3, -0.2]), (1, n, 2)).copy(),
        sigma=np.broadcast_to(np.array([1.0, 2.0]), (1, n, 2)).copy(),
        rho=np.full((1, n), 0.5),
    )
    draws = mm.sample_displacements(params, np.random.default_rng(17), k=1)[0][0]
    assert abs(draws[:, 0].mean() - 0.3) < 0.02
    assert abs(draws[:, 1].mean() + 0.2) < 0.02
    assert abs(draws[:, 0].std() - 1.0) < 0.03
    assert abs(draws[:, 1].std() - 2.0) < 0.03
    assert abs(np.corrcoef(draws[:, 0], draws[:, 1])[0, 1] - 0.5) < 0.02


def test_c9_byte_identical_reruns(fixture_root, tmp_path):
    train_args = [
        "train", "--data-root", str(fixture_root), "--holdout", "DUMMY",
        "--epochs", "2", "--batch-size", "2", "--seed", "3",
    ]
    logs = []
    for name in ("t1", "t2"):
        out = tmp_path / name
        assert cli.main(train_args + ["--out", str(out)]) == 0
        logs.append((out / "loss_log.csv").read_bytes())
    assert logs[0] == logs[1]

    metrics = []
    for name in ("e1", "e2"):
        out = tmp_path / name
        assert cli.main([
            "eval", "--checkpoint", str(tmp_path / "t1" / "checkpoint.ckpt"),
            "--data-root", str(fixture_root), "--holdout", "FIX1",
            "--num-samples", "5", "--seed", "3", "--out", str(out),
        ]) == 0
        metrics.append((out / "metrics.csv").read_bytes())
    assert metrics[0] == metrics[1]
