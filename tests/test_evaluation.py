"""Displacement-error metrics and the best-of-K evaluation protocol."""

import threading
from contextlib import contextmanager
from dataclasses import asdict, replace
from unittest import mock

import numpy as np
import pytest

from sgcn import autodiff as ad
from sgcn import data as sgcn_data
from sgcn import evaluation as ev
from sgcn import model as mm
from sgcn.config import ModelConfig
from sgcn.errors import ConfigError, NumericsError
from sgcn.model import init_weights, mu_trajectory, predict, sample_trajectory

from conftest import fixture_positions

SMALL_CFG = ModelConfig(t_obs=4, t_pred=3, embed_dim=16, conv_layers=2)
# 12 future steps, as the default config: a mean over 8 or more steps is where
# numpy's pairwise summation can tell one reduction layout from another
LONG_CFG = replace(SMALL_CFG, t_pred=12)


def random_scenes(n_scenes=4, seed=0):
    rng = np.random.default_rng(seed)
    scenes = []
    for i in range(n_scenes):
        n = int(rng.integers(2, 5))
        vel = rng.normal(scale=0.4, size=(n, 2))
        org = rng.uniform(0, 8, size=(n, 2))
        pos = fixture_positions(vel, org, seed=100 + i, steps=7)
        scenes.append(sgcn_data.TrajectoryScene(
            pedestrian_ids=tuple(range(1, n + 1)),
            positions_obs=pos[:4],
            positions_fut=pos[4:],
            scene_name=f"S{i % 2}",
        ))
    return scenes


def sized_scenes(sizes):
    """One window per size, 4 observed and 12 future steps, names cycling over three scenes."""
    scenes = []
    for i, n in enumerate(sizes):
        pos = fixture_positions(np.full((n, 2), 0.3), np.arange(2.0 * n).reshape(n, 2), seed=i, steps=16)
        scenes.append(sgcn_data.TrajectoryScene(tuple(range(n)), pos[:4], pos[4:], scene_name=f"S{i % 3}"))
    return scenes


@contextmanager
def recorded_scores():
    """Collect each ``ev._per_scene`` call's per-window results, in call order."""
    calls, per_scene = [], ev._per_scene

    def record(*args, **kwargs):
        calls.append(per_scene(*args, **kwargs))
        return calls[-1]

    with mock.patch.object(ev, "_per_scene", record):
        yield calls


def scored(*args, **kwargs):
    """``ev.evaluate_best_of_k``'s report and each window's per-pedestrian (ADE, FDE) bytes."""
    with recorded_scores() as scores:
        report = ev.evaluate_best_of_k(*args, **kwargs)
    return report, [(a.tobytes(), f.tobytes()) for a, f in scores[0]]


def mean_errors(pred, gt):
    """(ADE, FDE) over all pedestrians from ``ev._path_errors``, the function behind ``metrics.csv``."""
    ade_n, fde_n = ev._path_errors(pred, gt)
    return ade_n.mean(), fde_n.mean()


class TestMetricOracles:
    def test_identical_paths_score_zero(self):
        gt = np.arange(24, dtype=float).reshape(4, 3, 2)
        assert mean_errors(gt.copy(), gt) == (0.0, 0.0)

    def test_unit_offset_scores_one(self):
        gt = np.zeros((5, 2, 2))
        pred = gt.copy()
        pred[..., 0] += 1.0
        assert mean_errors(pred, gt) == pytest.approx((1.0, 1.0), abs=1e-12)

    def test_mixed_distances_average(self):
        # pedestrian 0 constantly 3 m off, pedestrian 1 constantly 4 m off
        gt = np.zeros((6, 2, 2))
        pred = np.zeros((6, 2, 2))
        pred[:, 0, 0] = 3.0
        pred[:, 1, 1] = 4.0
        assert mean_errors(pred, gt) == pytest.approx((3.5, 3.5), abs=1e-12)

    def test_fde_only_reads_final_step(self):
        gt = np.zeros((4, 2, 2))
        pred = np.zeros((4, 2, 2))
        pred[-1, 0, 0] = 1.0
        pred[-1, 1, 1] = 3.0
        assert mean_errors(pred, gt) == pytest.approx(((1.0 + 3.0) / 2 / 4, 2.0), abs=1e-12)

    @pytest.mark.parametrize("shape", [(12, 1, 2), (20, 12, 1, 2), (3, 20, 12, 4, 2)])
    def test_path_errors_equal_the_norm_bit_for_bit(self, shape):
        rng = np.random.default_rng(len(shape))
        paths, gt = rng.normal(scale=3.0, size=shape), rng.normal(scale=3.0, size=shape[-3:])
        dist = np.linalg.norm(paths - gt, axis=-1)
        ade_n, fde_n = ev._path_errors(paths, gt)
        assert ade_n.tobytes() == dist.mean(axis=-2).tobytes() and fde_n.tobytes() == dist[..., -1, :].tobytes()


class TestBestOfK:
    def test_k1_equals_plain_single_sample(self):
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=1)
        seed = 17
        # independent replication: one draw per scene, no argmin machinery
        children = np.random.SeedSequence(seed).spawn(len(scenes))
        ades, fdes = [], []
        for scene, child in zip(scenes, children):
            params = predict(scene.displacements_obs, weights, SMALL_CFG)
            sample = sample_trajectory(params, scene.positions_obs[-1], np.random.default_rng(child), k=1)[0]
            dist = np.linalg.norm(sample - scene.positions_fut, axis=-1)
            ades.append(dist.mean(axis=0))
            fdes.append(dist[-1])
        report = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=1, seed=seed)
        assert report.ade == pytest.approx(float(np.concatenate(ades).mean()), abs=1e-12)
        assert report.fde == pytest.approx(float(np.concatenate(fdes).mean()), abs=1e-12)

    def test_best_of_k_matches_per_sample_loop(self):
        # reference: K successive single draws, each pedestrian scored on its own
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=1)
        k, seed = 6, 13
        children = np.random.SeedSequence(seed).spawn(len(scenes))
        ades, fdes = [], []
        for scene, child in zip(scenes, children):
            params = predict(scene.displacements_obs, weights, SMALL_CFG)
            rng = np.random.default_rng(child)
            samples = [sample_trajectory(params, scene.positions_obs[-1], rng, k=1)[0] for _ in range(k)]
            scores = [ev._path_errors(s, scene.positions_fut) for s in samples]
            for i in range(scene.n_pedestrians):
                best_ade, best_fde = min((a[i], f[i]) for a, f in scores)
                ades.append(best_ade)
                fdes.append(best_fde)
        report = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=k, seed=seed)
        assert report.ade == pytest.approx(float(np.mean(ades)), abs=1e-12)
        assert report.fde == pytest.approx(float(np.mean(fdes)), abs=1e-12)

    def test_more_samples_never_hurt(self):
        # per scene the rng draws sample s identically regardless of k, so
        # k=5 picks over a prefix of k=20's candidates
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=1)
        a1 = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=1, seed=3).ade
        a5 = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=5, seed=3).ade
        a20 = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=20, seed=3).ade
        assert a20 <= a5 <= a1
        assert a20 < a1

    def test_tiny_variance_recovers_mu_path(self):
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=1)
        weights["out_proj_b"].data[2:4] = -18.0  # sigma = e^-18 in both axes
        mu_ade, mu_fde = ev.mu_path_metrics(weights, SMALL_CFG, scenes)
        report = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=3, seed=0)
        assert report.ade == pytest.approx(mu_ade, abs=1e-6)
        assert report.fde == pytest.approx(mu_fde, abs=1e-6)

    def test_same_seed_repeats_exactly(self):
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=2)
        r1, bytes1 = scored(weights, SMALL_CFG, scenes, k=4, seed=9)
        r2, bytes2 = scored(weights, SMALL_CFG, scenes, k=4, seed=9)
        assert r1.ade == r2.ade
        assert r1.fde == r2.fde
        assert r1.per_scene == r2.per_scene
        assert bytes1 == bytes2

    def test_jobs_starts_no_thread(self, tmp_path):
        # jobs is kept for bench/run.py's keyword only: jobs=2 runs on the
        # caller's thread and reports what jobs=1 does, to the byte
        scenes = random_scenes(n_scenes=8, seed=3)
        weights = init_weights(SMALL_CFG, seed=2)
        with mock.patch.object(threading.Thread, "start", side_effect=AssertionError("a thread was started")):
            reports = [ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=3, seed=5, jobs=jobs) for jobs in (1, 2)]
        for jobs, report in zip((1, 2), reports):
            ev.write_metrics_csv(report, tmp_path / f"jobs{jobs}.csv")
        one, two = (asdict(replace(r, wall_clock_s=0.0)) for r in reports)
        assert one == two
        assert (tmp_path / "jobs2.csv").read_bytes() == (tmp_path / "jobs1.csv").read_bytes()

    def test_nan_window_names_scene_op_and_stage(self):
        scenes = random_scenes(n_scenes=8, seed=3)
        bad = replace(scenes[5], positions_obs=np.full_like(scenes[5].positions_obs, np.nan),
                      start_frame=70, scene_name="BADSCENE")
        scenes[5] = bad
        assert sum(s.n_pedestrians == bad.n_pedestrians for s in scenes) > 1  # bad shares its group
        weights = init_weights(SMALL_CFG, seed=2)
        with pytest.raises(NumericsError, match=(
            rf"^scene BADSCENE@frame70 \(N={bad.n_pedestrians}\): "
            r"non-finite values produced by 'tensor' in stage 'spatial_graph'$"
        )):
            ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=3, seed=5)
        with pytest.raises(NumericsError), np.errstate(over="ignore"):
            ad.exp(ad.Tensor(1000.0))

    def test_nan_weight_names_scene_op_and_stage(self):
        # the constant weight copies are not checked one by one: the pass's
        # exit check fails and the per-op rerun names the op of the bad weight
        scenes = random_scenes(n_scenes=8, seed=3)
        weights = init_weights(SMALL_CFG, seed=2)
        weights["gcn_tmp2_w"].data[0, 0] = np.nan
        first = scenes[0]
        with pytest.raises(NumericsError, match=(
            rf"^scene {first.scene_name}@frame{first.start_frame} \(N={first.n_pedestrians}\): "
            r"non-finite values produced by 'gcn_layer' in stage 'branches'$"
        )):
            ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=3, seed=5)

    def test_grouped_report_matches_per_scene_loop(self, tmp_path):
        # equal-N groups, one split by the budget, one window above it and a
        # full-cap group of 48 N = 1 windows, against one single-window forward
        # pass and one k-draw per scene, bytes included
        sizes = [2, 3, 2, 2, 3] * 10 + [mm.GROUP_PEDESTRIANS + 1, 2, 3] + [1] * mm.GROUP_PEDESTRIANS
        scenes = sized_scenes(sizes)
        groups = mm.group_by_size(sizes, mm.GROUP_PEDESTRIANS)
        assert [50] in groups and list(range(53, 101)) in groups and max(len(g) for g in groups) == 48
        weights = init_weights(LONG_CFG, seed=4)
        k, seed = 5, 8
        children = np.random.SeedSequence(seed).spawn(len(scenes))
        ades, fdes, per_scene = [], [], {}
        for scene, child in zip(scenes, children):
            params = predict(scene.displacements_obs, weights, LONG_CFG)
            samples = sample_trajectory(params, scene.positions_obs[-1], np.random.default_rng(child), k)
            dist = np.linalg.norm(samples - scene.positions_fut, axis=-1)
            best = np.argmin(dist.mean(axis=-2), axis=0)
            picked = np.arange(scene.n_pedestrians)
            a, f = dist.mean(axis=-2)[best, picked], dist[:, -1][best, picked]
            ades.append(a)
            fdes.append(f)
            entry = per_scene.setdefault(scene.scene_name, [0.0, 0.0, 0])
            entry[0] += a.sum()
            entry[1] += f.sum()
            entry[2] += len(a)
        want = ev.MetricsReport(
            ade=float(np.concatenate(ades).mean()), fde=float(np.concatenate(fdes).mean()),
            n_pedestrians=sum(sizes), n_scenes=len(scenes), k=k, seed=seed,
            per_scene={name: (float(a / c), float(f / c), c) for name, (a, f, c) in per_scene.items()},
        )
        with recorded_scores() as scores:
            got = ev.evaluate_best_of_k(weights, LONG_CFG, scenes, k=k, seed=seed)
        assert [(a.tobytes(), f.tobytes()) for a, f in scores[0]] == [(a.tobytes(), f.tobytes()) for a, f in zip(ades, fdes)]
        assert (got.ade, got.fde, got.per_scene) == (want.ade, want.fde, want.per_scene)
        ev.write_metrics_csv(want, tmp_path / "want.csv")
        ev.write_metrics_csv(got, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_reports_do_not_depend_on_the_group_cap(self, tmp_path):
        # N = 1..5 in shuffled order and one window above every cap: caps of
        # 1 (every window alone), 7 and 48 score the same windows in
        # different groups and must agree to the bit, per pedestrian too (a
        # report's means can absorb a last-bit change in one pedestrian)
        sizes = [1] * 50 + [2, 3, 4, 5] * 6 + [49]
        sizes = [sizes[i] for i in np.random.default_rng(12).permutation(len(sizes))]
        scenes = sized_scenes(sizes)
        weights = init_weights(LONG_CFG, seed=6)
        outcomes = []
        for cap in (1, 7, 48):
            with mock.patch.object(mm, "GROUP_PEDESTRIANS", cap), recorded_scores() as scores:
                report = ev.evaluate_best_of_k(weights, LONG_CFG, scenes, k=20, seed=14)
                mu_path = ev.mu_path_metrics(weights, LONG_CFG, scenes)
            ev.write_metrics_csv(report, tmp_path / f"metrics{cap}.csv")
            per_pedestrian = [[(a.tobytes(), f.tobytes()) for a, f in results] for results in scores]
            outcomes.append(((report.ade, report.fde, report.n_pedestrians, report.per_scene), mu_path,
                             (tmp_path / f"metrics{cap}.csv").read_bytes(), per_pedestrian))
        assert max(len(g) for g in mm.group_by_size(sizes, 48)) == 48
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_evaluation_records_no_tape(self, monkeypatch):
        weights = init_weights(SMALL_CFG, seed=2)
        outputs = []
        forward = mm.forward

        def spy(*args):
            result = forward(*args)
            outputs.append(result)
            return result

        monkeypatch.setattr(mm, "forward", spy)
        ev.evaluate_best_of_k(weights, SMALL_CFG, random_scenes(), k=2, seed=0)
        ev.mu_path_metrics(weights, SMALL_CFG, random_scenes())
        assert outputs
        for raw, spa, tmp in outputs:
            assert not (raw.requires_grad or spa.normalized.requires_grad or tmp.normalized.requires_grad)
        assert all(w.grad is None for w in weights.values())

    def test_seed_changes_draws(self):
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=2)
        r1 = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=2, seed=0)
        r2 = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=2, seed=1)
        assert r1.ade != r2.ade

    def test_invalid_inputs(self):
        weights = init_weights(SMALL_CFG, seed=0)
        with pytest.raises(ConfigError, match="k must be"):
            ev.evaluate_best_of_k(weights, SMALL_CFG, random_scenes(), k=0)
        with pytest.raises(ConfigError, match="at least one scene"):
            ev.evaluate_best_of_k(weights, SMALL_CFG, [])
        with pytest.raises(ConfigError, match="at least one scene"):
            ev.mu_path_metrics(weights, SMALL_CFG, [])


class TestMuPath:
    def test_zero_head_predicts_hold_position(self):
        # zeroed projection decodes to mu=0 displacements: the prediction
        # freezes every pedestrian at the last observed point
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=1)
        weights["out_proj_w"].data[:] = 0.0
        weights["out_proj_b"].data[:] = 0.0
        ades, fdes = [], []
        for scene in scenes:
            hold = np.repeat(scene.positions_obs[-1][None], SMALL_CFG.t_pred, axis=0)
            dist = np.linalg.norm(hold - scene.positions_fut, axis=-1)
            ades.append(dist.mean(axis=0))
            fdes.append(dist[-1])
        expected_ade = float(np.concatenate(ades).mean())
        expected_fde = float(np.concatenate(fdes).mean())
        got_ade, got_fde = ev.mu_path_metrics(weights, SMALL_CFG, scenes)
        assert got_ade == pytest.approx(expected_ade, abs=1e-12)
        assert got_fde == pytest.approx(expected_fde, abs=1e-12)

    def test_mu_trajectory_anchors_at_last_observation(self):
        scenes = random_scenes(n_scenes=1)
        weights = init_weights(SMALL_CFG, seed=0)
        params = predict(scenes[0].displacements_obs, weights, SMALL_CFG)
        path = mu_trajectory(params, scenes[0].positions_obs[-1])
        expected_first = scenes[0].positions_obs[-1] + params.mu[0]
        assert np.allclose(path[0], expected_first, atol=1e-12)


class TestReports:
    def test_per_scene_partitions_overall(self):
        scenes = random_scenes(n_scenes=5)
        weights = init_weights(SMALL_CFG, seed=1)
        report = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=2, seed=0)
        counts = sum(c for _, _, c in report.per_scene.values())
        assert counts == report.n_pedestrians
        assert all(type(a) is float and type(f) is float for a, f, _ in report.per_scene.values())
        weighted = sum(a * c for a, _, c in report.per_scene.values()) / counts
        assert report.ade == pytest.approx(weighted, abs=1e-12)

    def test_metrics_csv_exact_bytes(self, tmp_path):
        # np.float64 too: NumPy 2 reprs it as "np.float64(0.5)", which must not leak
        for scalar in (float, np.float64):
            report = ev.MetricsReport(
                ade=0.5, fde=1.25, n_pedestrians=7, n_scenes=3, k=20, seed=0,
                per_scene={
                    "ZARA1": (scalar(0.5), scalar(1.0), 4),
                    "ETH": (scalar(0.25), scalar(2.0), 3),
                },
            )
            path = tmp_path / "metrics.csv"
            ev.write_metrics_csv(report, path)
            assert path.read_text() == (
                "scope,ade,fde,pedestrians\n"
                "overall,0.5,1.25,7\n"
                "ETH,0.25,2.0,3\n"
                "ZARA1,0.5,1.0,4\n"
            ), scalar

    def test_csv_repeat_runs_byte_identical(self, tmp_path):
        scenes = random_scenes()
        weights = init_weights(SMALL_CFG, seed=3)
        blobs = []
        for i in range(2):
            report = ev.evaluate_best_of_k(weights, SMALL_CFG, scenes, k=3, seed=21)
            path = tmp_path / f"m{i}.csv"
            ev.write_metrics_csv(report, path)
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1]

    def test_summary_carries_counts_and_clock(self, tmp_path):
        report = ev.MetricsReport(ade=0.1, fde=0.2, n_pedestrians=9, n_scenes=4, k=20, seed=1, wall_clock_s=2.5)
        ev.write_summary(report, tmp_path / "summary.txt")
        text = (tmp_path / "summary.txt").read_text()
        assert "windows evaluated: 4" in text
        assert "pedestrians evaluated: 9" in text
        assert "samples per pedestrian: 20" in text
        assert "wall clock" in text
