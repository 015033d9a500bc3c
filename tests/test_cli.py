"""End-to-end command-line behavior: config resolution, artifacts, exit codes."""

import argparse
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import sgcn
from sgcn import cli
from sgcn import data as sgcn_data
from sgcn import evaluation as ev
from sgcn import model as sgcn_model
from sgcn import synthetic
from sgcn import training as tr
from sgcn.autodiff import Tensor
from sgcn.config import ModelConfig, RunConfig, TrainConfig, read_config_file, write_config_file
from sgcn.model import init_weights, load_checkpoint, save_checkpoint

from conftest import fixture_positions, write_trajectory_file


def run_cli(args):
    return cli.main([str(a) for a in args])


def per_scalar_predictions_text(ids, obs, mu_path, params, samples) -> str:
    """``predictions.csv`` as the writer first built it: one row and one ``repr(float(...))`` at a time."""
    def xy(arr, t, ni):
        return f"{float(arr[t, ni, 0])!r},{float(arr[t, ni, 1])!r}"

    lines = ["ped_id,kind,sample,step,x,y,sigma_x,sigma_y,rho"]
    for ni, pid in enumerate(ids):
        for t in range(obs.shape[0]):
            lines.append(f"{pid},obs,,{t},{xy(obs, t, ni)},,,")
        for t in range(mu_path.shape[0]):
            lines.append(
                f"{pid},mu,,{t},{xy(mu_path, t, ni)},"
                f"{float(params.sigma[t, ni, 0])!r},{float(params.sigma[t, ni, 1])!r},"
                f"{float(params.rho[t, ni])!r}"
            )
        for s, sample in enumerate(samples, start=1):
            for t in range(mu_path.shape[0]):
                lines.append(f"{pid},sample,{s},{t},{xy(sample, t, ni)},,,")
    return "\n".join(lines) + "\n"


def per_scalar_graphs_text(ids, spatial, temporal) -> str:
    """``graphs.txt`` as the dump first built it: one ``repr(float(v))`` per matrix entry."""
    def matrix_lines(m):
        return [" ".join(repr(float(v)) for v in row) for row in m]

    lines = [f"# pedestrians: {' '.join(str(p) for p in ids)}"]
    for t in range(spatial.shape[0]):
        lines.append(f"# spatial step {t}")
        lines.extend(matrix_lines(spatial[t]))
    for ni, pid in enumerate(ids):
        lines.append(f"# temporal pedestrian {pid}")
        lines.extend(matrix_lines(temporal[ni]))
    return "\n".join(lines) + "\n"


# ids at and beyond float64's exact range and at the int64 limits, plus any other int64
EDGE_IDS = [0, -1, -7, 2**53, 2**53 + 1, -(2**53 + 1), 2**63 - 1, -(2**63 - 1)]
PED_IDS = st.one_of(st.sampled_from(EDGE_IDS), st.integers(-(2**63 - 1), 2**63 - 1))
# N from 1 to 50: drawn first, so large N is not left to how Hypothesis sizes lists
ID_LISTS = st.integers(1, 50).flatmap(lambda n: st.lists(PED_IDS, min_size=n, max_size=n, unique=True))
# floats whose repr changes form: signed zero, exponent notation both ways, subnormal, largest finite
REPR_EDGES = [-0.0, 1e16, 1e-5, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


class TestConfigResolution:
    def test_defaults_materialized(self):
        args = cli.build_parser().parse_args(["train"])
        run = cli.resolve_config(args)
        assert run.command == "train"
        assert run.holdout == "ZARA2"
        assert run.batch_size == 128
        assert run.num_samples == 20
        assert run.xi is None  # unset: train's default, else the checkpoint's

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=5\nlr=0.01\n")
        args = cli.build_parser().parse_args(["train", "--config", str(cfg), "--epochs", "9"])
        run = cli.resolve_config(args)
        assert run.epochs == 9
        assert run.lr == 0.01

    def test_byte_order_mark_is_skipped(self, tmp_path):
        # editors on Windows may save utf-8 with a BOM; it is not part of the first key
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfepochs=3\n")
        run = cli.resolve_config(cli.build_parser().parse_args(["train", "--config", str(cfg)]))
        assert run.epochs == 3

    def test_env_fills_data_root(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SGCN_DATA_ROOT", str(tmp_path))
        args = cli.build_parser().parse_args(["train"])
        run = cli.resolve_config(args)
        assert run.data_root == str(tmp_path)

    def test_file_overrides_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("SGCN_DATA_ROOT", "/env/root")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("data_root=/file/root\n")
        args = cli.build_parser().parse_args(["train", "--config", str(cfg)])
        run = cli.resolve_config(args)
        assert run.data_root == "/file/root"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("learning_rate=0.01\n")
        assert run_cli(["train", "--config", cfg]) == 2
        assert "learning_rate" in capsys.readouterr().err

    def test_malformed_number_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("epochs=ten\n")
        assert run_cli(["train", "--config", cfg]) == 2
        assert "epochs" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval", "predict"])
    def test_negative_seed_exits_2(self, command, tmp_path, capsys):
        out = tmp_path / "o"
        assert run_cli([command, "--seed", "-1", "--out", out]) == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval", "predict", "dump-graphs"])
    def test_xi_out_of_range_exits_2_before_loading(self, command, tmp_path, capsys):
        # checked as the run resolves: the missing checkpoint is never opened
        out = tmp_path / "o"
        assert run_cli([command, "--xi", "2", "--checkpoint", tmp_path / "missing.ckpt", "--out", out]) == 2
        assert "error: xi must lie in [0, 1], got 2.0" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_xi_from_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xi=nan\n")
        assert run_cli(["eval", "--config", cfg, "--checkpoint", tmp_path / "missing.ckpt"]) == 2
        assert "error: xi must lie in [0, 1], got nan" in capsys.readouterr().err

    def test_repeated_key_exits_2(self, fixture_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root={fixture_root}\nepochs=5\n# a form\x0cfeed ends no line\nepochs=9\n")
        out = tmp_path / "o"
        assert run_cli(["train", "--config", cfg, "--holdout", "DUMMY", "--out", out]) == 2
        assert f"{cfg}:4: key epochs given twice (first on line 2)" in capsys.readouterr().err
        assert not out.exists()

    def test_line_without_equals_exits_2(self, fixture_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root={fixture_root}\n\n# a comment\nepochs 5\n")
        out = tmp_path / "o"
        assert run_cli(["train", "--config", cfg, "--holdout", "DUMMY", "--out", out]) == 2
        assert f"{cfg}:4: expected key=value, got 'epochs 5'" in capsys.readouterr().err
        assert not out.exists()

    def test_undecodable_byte_exits_2(self, fixture_root, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(f"data_root={fixture_root}\n".encode() + b"holdout=\xff\n")
        out = tmp_path / "o"
        assert run_cli(["train", "--config", cfg, "--out", out]) == 2
        assert f"{cfg}:2: byte 0xff is not utf-8 text" in capsys.readouterr().err
        assert not out.exists()

    def test_field_order_key_exits_2(self, fixture_root, tmp_path, capsys):
        # scene files have one column layout; a resolved.cfg from before that holds field_order=
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root={fixture_root}\nholdout=DUMMY\nfield_order=frame id x y\n")
        out = tmp_path / "o"
        assert run_cli(["train", "--config", cfg, "--epochs", "1", "--out", out]) == 2
        assert "unknown config key 'field_order'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("suffix, problem", [
        (" ", "surrounding whitespace"),
        ("\nx", "line break"),
        ("\udcff", "utf-8 cannot encode"),  # how Python hands over an undecodable argv byte
    ], ids=["trailing-space", "newline", "undecodable-byte"])
    def test_value_resolved_cfg_cannot_carry_exits_2(self, fixture_root, tmp_path, capsys, suffix, problem):
        out = str(tmp_path / "o") + suffix
        args = ["train", "--data-root", fixture_root, "--holdout", "DUMMY", "--epochs", "1", "--out", out]
        assert run_cli(args) == 2
        err = capsys.readouterr().err
        assert f"error: out {out!r}" in err and problem in err
        assert not any(tmp_path.iterdir())


class TestParser:
    def test_built_once_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_share_no_state(self, overfit_run, tmp_path):
        # the first call's --xi must not leak into the second through the shared parser
        first, second = tmp_path / "first", tmp_path / "second"
        for out, extra in ((first, ["--xi", "0.3"]), (second, [])):
            assert run_cli([
                "predict", "--checkpoint", overfit_run.checkpoint,
                "--scene-file", overfit_run.data_root / "fix1.txt", "--out", out, *extra,
            ]) == 0
        assert read_config_file(first / "resolved.cfg")["xi"] == "0.3"
        assert read_config_file(second / "resolved.cfg")["xi"] == repr(overfit_run.model_cfg.xi)

    def test_every_config_key_is_a_flag(self):
        # a key only --config can set is a second way in that the flags do not show
        keys = {f.name for f in fields(RunConfig)} - {"command"}
        [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        for command, parser in subparsers.choices.items():
            flags = {action.dest for action in parser._actions if action.option_strings} - {"help", "config"}
            assert flags == keys, command

    def test_readme_flag_table_matches_parser(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        documented = set(re.findall(r"^\| `(--[a-z-]+)` \|", readme, flags=re.MULTILINE))
        [subparsers] = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {"train", "eval", "predict", "dump-graphs"}
        for command, parser in subparsers.choices.items():
            options = {o for action in parser._actions for o in action.option_strings} - {"-h", "--help"}
            assert options == documented, command


class TestResolvedConfig:
    @pytest.mark.parametrize("command", ["train", "eval", "predict", "dump-graphs"])
    def test_fixed_point_for_every_command(self, command, overfit_run, tmp_path):
        # resolved.cfg passed back with --config resolves to itself, apart from the new out=
        argv = {
            "train": ["--data-root", overfit_run.data_root, "--holdout", "DUMMY", "--epochs", "1",
                      "--batch-size", "2", "--lr", "0.002", "--xi", "0.4", "--seed", "5"],
            "eval": ["--checkpoint", overfit_run.checkpoint, "--data-root", overfit_run.data_root,
                     "--holdout", "FIX1", "--num-samples", "3", "--seed", "4"],
            "predict": ["--checkpoint", overfit_run.checkpoint, "--scene-file", overfit_run.data_root / "fix1.txt",
                        "--num-samples", "2", "--xi", "0.3"],
            "dump-graphs": ["--checkpoint", overfit_run.checkpoint,
                            "--scene-file", overfit_run.data_root / "fix2.txt"],
        }[command]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli([command, *argv, "--out", first]) == 0
        assert run_cli([command, "--config", first / "resolved.cfg", "--out", second]) == 0

        def echoed(out):
            lines = (out / "resolved.cfg").read_text().splitlines()
            assert f"out={out}" in lines
            return [line for line in lines if not line.startswith("out=")]

        assert echoed(second) == echoed(first)


class TestTrainCommand:
    def test_smoke_writes_artifacts(self, fixture_root, tmp_path):
        out = tmp_path / "run"
        code = run_cli([
            "train", "--data-root", fixture_root, "--holdout", "DUMMY",
            "--epochs", "1", "--batch-size", "2", "--out", out, "--seed", "0",
        ])
        assert code == 0
        assert (out / "checkpoint.ckpt").exists()
        assert (out / "loss_log.csv").exists()
        assert (out / "resolved.cfg").exists()
        weights, cfg = load_checkpoint(out / "checkpoint.ckpt")
        assert cfg == ModelConfig()
        assert set(weights) == set(init_weights(ModelConfig(), seed=0))

    def test_windows_only_the_training_tables(self, fixture_root, tmp_path, monkeypatch):
        cut = []
        window_scenes = sgcn_data.window_scenes

        def spy(table, t_obs, t_pred):
            cut.append(table.name)
            return window_scenes(table, t_obs, t_pred)

        monkeypatch.setattr(sgcn_data, "window_scenes", spy)
        assert run_cli([
            "train", "--data-root", fixture_root, "--holdout", "FIX2",
            "--epochs", "1", "--batch-size", "2", "--out", tmp_path / "o",
        ]) == 0
        assert cut == ["DUMMY", "FIX1"]

    def test_unknown_holdout_lists_scenes(self, fixture_root, tmp_path, capsys):
        code = run_cli([
            "train", "--data-root", fixture_root, "--holdout", "FOO", "--epochs", "1", "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "holdout 'FOO' not among scenes ['DUMMY', 'FIX1', 'FIX2']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_nan_lr_exits_2(self, fixture_root, tmp_path, capsys):
        out = tmp_path / "run"
        code = run_cli(["train", "--data-root", fixture_root, "--holdout", "DUMMY", "--lr", "nan", "--out", out])
        assert code == 2
        assert "lr must be positive and finite" in capsys.readouterr().err
        assert not (out / "checkpoint.ckpt").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["train", "--holdout", "SHORT", "--epochs", "0"], id="--epochs-0"),
        pytest.param(["train", "--holdout", "SHORT", "--batch-size", "0"], id="--batch-size-0"),
        pytest.param(["train", "--holdout", "NOPE"], id="--holdout-NOPE"),
        pytest.param(["train", "--holdout", "FIX1"], id="train-without-training-window"),
        pytest.param(["eval", "--holdout", "FIX1", "--num-samples", "0"], id="eval---num-samples-0"),
        pytest.param(["eval", "--holdout", "SHORT"], id="eval-without-holdout-window"),
    ])
    def test_rejected_run_creates_no_directory(self, overfit_run, tmp_path, argv):
        # FIX1 holds one window; SHORT's 5 frames hold none
        root = tmp_path / "data"
        root.mkdir()
        (root / "fix1.txt").write_bytes((overfit_run.data_root / "fix1.txt").read_bytes())
        write_trajectory_file(root / "short.txt", fixture_positions([[0.3, 0.0]], [[0.0, 0.0]], 1, steps=5))
        out = tmp_path / "run"
        code = run_cli(argv + ["--data-root", root, "--checkpoint", overfit_run.checkpoint, "--out", out])
        assert code == 2
        assert not out.exists()

    def test_missing_data_root_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nowhere"
        code = run_cli(["train", "--data-root", missing, "--out", tmp_path / "o"])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_unset_data_root_mentions_env_var(self, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("SGCN_DATA_ROOT", raising=False)
        code = run_cli(["train", "--out", tmp_path / "o"])
        assert code == 2
        assert "SGCN_DATA_ROOT" in capsys.readouterr().err

    def test_xi_recorded_verbatim(self, fixture_root, tmp_path):
        out = tmp_path / "run"
        code = run_cli([
            "train", "--data-root", fixture_root, "--holdout", "DUMMY",
            "--epochs", "1", "--batch-size", "2", "--xi", "0.75", "--out", out,
        ])
        assert code == 0
        echoed = read_config_file(out / "resolved.cfg")
        assert echoed["xi"] == "0.75"
        _, cfg = load_checkpoint(out / "checkpoint.ckpt")
        assert cfg.xi == 0.75

    def test_value_splits_at_first_equals(self, fixture_root, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"data_root={fixture_root}\nholdout=DUMMY\nepochs=1\nbatch_size=2\nout=runs/a=b\n")
        run = cli.resolve_config(cli.build_parser().parse_args(["train", "--config", str(cfg)]))
        assert run.out == "runs/a=b"
        assert run_cli(["train", "--config", cfg]) == 0
        echoed = tmp_path / "runs" / "a=b" / "resolved.cfg"
        # the echo records the xi the run used: train's default
        assert cli.resolve_config(cli.build_parser().parse_args(["train", "--config", str(echoed)])) == replace(run, xi=0.5)

    def test_resolved_config_reproduces_run(self, fixture_root, tmp_path):
        first = tmp_path / "first"
        args = [
            "train", "--data-root", fixture_root, "--holdout", "DUMMY",
            "--epochs", "2", "--batch-size", "2", "--lr", "0.002", "--seed", "5",
        ]
        assert run_cli(args + ["--out", first]) == 0
        second = tmp_path / "second"
        assert run_cli(["train", "--config", first / "resolved.cfg", "--out", second]) == 0
        assert (first / "loss_log.csv").read_bytes() == (second / "loss_log.csv").read_bytes()
        assert (first / "checkpoint.ckpt").read_bytes() == (second / "checkpoint.ckpt").read_bytes()


class TestEvalCommand:
    def test_overfit_checkpoint_on_own_fixtures(self, overfit_run, tmp_path, capsys):
        out = tmp_path / "eval"
        code = run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint,
            "--data-root", overfit_run.data_root, "--holdout", "FIX1",
            "--seed", "0", "--out", out,
        ])
        assert code == 0
        assert "ADE" in capsys.readouterr().out
        rows = (out / "metrics.csv").read_text().splitlines()
        overall = rows[1].split(",")
        assert overall[0] == "overall"
        assert float(overall[1]) < 0.05
        assert (out / "summary.txt").exists()

    def test_num_samples_one_equals_single_sample_path(self, overfit_run, tmp_path):
        out = tmp_path / "eval1"
        code = run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint,
            "--data-root", overfit_run.data_root, "--holdout", "FIX2",
            "--num-samples", "1", "--seed", "11", "--out", out,
        ])
        assert code == 0
        overall = (out / "metrics.csv").read_text().splitlines()[1].split(",")
        tables = sgcn_data.load_dataset(overfit_run.data_root)
        scenes = sgcn_data.window_scenes(tables["FIX2"], 8, 12)
        report = ev.evaluate_best_of_k(overfit_run.weights, overfit_run.model_cfg, scenes, k=1, seed=11)
        assert float(overall[1]) == report.ade
        assert float(overall[2]) == report.fde

    def test_windows_only_the_holdout(self, overfit_run, tmp_path, monkeypatch):
        cut = []

        def spy(table, t_obs, t_pred):
            cut.append(table.name)
            return sgcn_data.window_scenes(table, t_obs, t_pred)

        monkeypatch.setattr(cli, "window_scenes", spy)
        assert run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint,
            "--data-root", overfit_run.data_root, "--holdout", "FIX2", "--out", tmp_path / "o",
        ]) == 0
        assert cut == ["FIX2"]

    def test_holdout_without_window_is_named(self, overfit_run, tmp_path, capsys):
        # two frames hold no 8 + 12 step window
        root = tmp_path / "data"
        root.mkdir()
        write_trajectory_file(root / "tiny.txt", fixture_positions([[0.3, 0.0]], [[0.0, 0.0]], 1, steps=2))
        out = tmp_path / "o"
        code = run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint, "--data-root", root, "--holdout", "TINY", "--out", out,
        ])
        assert code == 2
        assert "the holdout 'TINY' has no complete window to evaluate" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_samples_exits_2_before_loading(self, tmp_path, capsys):
        # checked first: the missing checkpoint is never opened
        out = tmp_path / "o"
        code = run_cli([
            "eval", "--checkpoint", tmp_path / "missing.ckpt", "--data-root", tmp_path,
            "--num-samples", "0", "--out", out,
        ])
        assert code == 2
        assert "error: num_samples must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_comma_in_scene_name_exits_2(self, overfit_run, tmp_path, capsys):
        # the name would split its metrics.csv row into one field too many
        root = tmp_path / "data"
        root.mkdir()
        write_trajectory_file(root / "za,ra.txt", fixture_positions([[0.3, 0.0]], [[0.0, 0.0]], 1, steps=25))
        out = tmp_path / "o"
        code = run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint, "--data-root", root, "--holdout", "ZA,RA", "--out", out,
        ])
        assert code == 2
        assert f"{root / 'za,ra.txt'}: scene name 'ZA,RA' holds a ','" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_holdout_lists_scenes(self, overfit_run, tmp_path, capsys):
        code = run_cli([
            "eval", "--checkpoint", overfit_run.checkpoint,
            "--data-root", overfit_run.data_root, "--holdout", "FOO", "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "holdout 'FOO' not among scenes ['DUMMY', 'FIX1', 'FIX2']" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_corrupted_checkpoint_names_version(self, overfit_run, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        blob = overfit_run.checkpoint.read_bytes()
        bad.write_bytes(blob.replace(b" 1\n", b" 9\n", 1))
        code = run_cli([
            "eval", "--checkpoint", bad, "--data-root", overfit_run.data_root,
            "--holdout", "FIX1", "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "version" in capsys.readouterr().err

    def test_missing_checkpoint_flag(self, overfit_run, tmp_path, capsys):
        code = run_cli([
            "eval", "--data-root", overfit_run.data_root, "--holdout", "FIX1",
            "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "checkpoint" in capsys.readouterr().err

    def test_resolved_config_keeps_checkpoint_xi(self, overfit_run, tmp_path):
        # the echo carries the checkpoint's xi, so passing it back overrides nothing
        checkpoint = tmp_path / "xi.ckpt"
        save_checkpoint(checkpoint, overfit_run.weights, replace(overfit_run.model_cfg, xi=0.25))
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli([
            "eval", "--checkpoint", checkpoint, "--data-root", overfit_run.data_root,
            "--holdout", "FIX1", "--seed", "4", "--out", first,
        ]) == 0
        assert read_config_file(first / "resolved.cfg")["xi"] == "0.25"
        assert run_cli(["eval", "--config", first / "resolved.cfg", "--out", second]) == 0
        assert (first / "metrics.csv").read_bytes() == (second / "metrics.csv").read_bytes()

    def test_byte_identical_reruns(self, overfit_run, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli([
                "eval", "--checkpoint", overfit_run.checkpoint,
                "--data-root", overfit_run.data_root, "--holdout", "FIX1",
                "--seed", "3", "--out", out,
            ]) == 0
            blobs.append((out / "metrics.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestPredictCommand:
    def test_row_count_formula(self, overfit_run, tmp_path):
        out = tmp_path / "pred"
        k = 4
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt",
            "--num-samples", k, "--seed", "0", "--out", out,
        ])
        assert code == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        n, t_obs, t_pred = 3, 8, 12
        assert len(lines) == n * (t_obs + t_pred * (1 + k)) + 1
        assert lines[0] == "ped_id,kind,sample,step,x,y,sigma_x,sigma_y,rho"
        kinds = {line.split(",")[1] for line in lines[1:]}
        assert kinds == {"obs", "mu", "sample"}

    @pytest.mark.parametrize("command", ["predict", "dump-graphs"])
    def test_checkpoint_weights_record_no_tape(self, command, overfit_run, tmp_path, monkeypatch):
        taped = []
        forward = sgcn_model.forward

        def spy(displacements, weights, cfg):
            outputs = forward(displacements, weights, cfg)
            taped.append([t.requires_grad for t in (outputs[0], outputs[1].normalized, outputs[2].normalized)])
            return outputs

        monkeypatch.setattr(sgcn_model, "forward", spy)
        monkeypatch.setattr(cli, "forward", spy)
        assert run_cli([
            command, "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt", "--out", tmp_path / "o",
        ]) == 0
        assert taped == [[False, False, False]]

    def test_deterministic_with_fixed_seed(self, overfit_run, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli([
                "predict", "--checkpoint", overfit_run.checkpoint,
                "--scene-file", overfit_run.data_root / "fix2.txt",
                "--num-samples", "3", "--seed", "8", "--out", out,
            ]) == 0
            blobs.append((out / "predictions.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_mu_rows_carry_distribution(self, overfit_run, tmp_path):
        out = tmp_path / "pred"
        assert run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt",
            "--num-samples", "1", "--out", out,
        ]) == 0
        mu_rows = [l.split(",") for l in (out / "predictions.csv").read_text().splitlines()
                   if l.split(",")[1] == "mu"]
        assert len(mu_rows) == 3 * 12
        for row in mu_rows:
            assert float(row[6]) > 0 and float(row[7]) > 0
            assert -1 < float(row[8]) < 1

    def test_stationary_pedestrian_overfit_holds_position(self, tmp_path):
        # a model overfit on a single stationary walker must keep its
        # mu-path near the last observed point
        rng = np.random.default_rng(40)
        pos = np.full((20, 1, 2), [2.0, 3.0]) + rng.normal(scale=0.01, size=(20, 1, 2))
        scene_file = tmp_path / "stationary.txt"
        write_trajectory_file(scene_file, pos)
        scene = sgcn_data.window_scenes(sgcn_data.load_scene_file(scene_file), 8, 12)[0]
        cfg = ModelConfig()
        weights, _ = tr.train(
            [scene], cfg,
            TrainConfig(epochs=500, batch_size=1, lr=3e-3, lr_decay_factor=0.3,
                        lr_decay_interval=150, seed=0),
            weights=init_weights(cfg, seed=3),
        )
        ckpt = tmp_path / "stationary.ckpt"
        save_checkpoint(ckpt, weights, cfg)
        out = tmp_path / "pred"
        assert run_cli([
            "predict", "--checkpoint", ckpt, "--scene-file", scene_file,
            "--num-samples", "1", "--out", out,
        ]) == 0
        hold = pos[7, 0]
        mu_xy = np.array([
            [float(parts[4]), float(parts[5])]
            for parts in (l.split(",") for l in (out / "predictions.csv").read_text().splitlines())
            if parts[1] == "mu"
        ])
        assert np.linalg.norm(mu_xy - hold, axis=-1).max() < 0.5

    def test_zero_samples_writes_obs_and_mu_rows(self, overfit_run, tmp_path):
        out = tmp_path / "pred"
        assert run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt",
            "--num-samples", "0", "--out", out,
        ]) == 0
        lines = (out / "predictions.csv").read_text().splitlines()
        assert len(lines) == 3 * (8 + 12) + 1
        assert {line.split(",")[1] for line in lines[1:]} == {"obs", "mu"}

    def test_huge_log_sigma_stays_finite(self, tmp_path):
        # a finite checkpoint whose head emits log-sigma 800: sigma takes the loss's clamp at e^30
        synthetic.write_dataset(tmp_path / "data", n_steps=40)
        weights = init_weights(ModelConfig(), seed=0)
        weights["out_proj_b"].data[2] = 800.0
        ckpt = tmp_path / "huge.ckpt"
        save_checkpoint(ckpt, weights, ModelConfig())
        assert run_cli([
            "predict", "--checkpoint", ckpt, "--scene-file", tmp_path / "data" / "zara2.txt", "--out", tmp_path / "p",
        ]) == 0
        rows = [line.split(",") for line in (tmp_path / "p" / "predictions.csv").read_text().splitlines()[1:]]
        cells = np.array([float(c) for row in rows for c in row[4:] if c])
        assert np.isfinite(cells).all()
        sigma_x = np.array([float(row[6]) for row in rows if row[1] == "mu"])
        assert sigma_x.max() == np.exp(30.0)
        assert run_cli([
            "eval", "--checkpoint", ckpt, "--data-root", tmp_path / "data", "--out", tmp_path / "e",
        ]) == 0
        overall = (tmp_path / "e" / "metrics.csv").read_text().splitlines()[1].split(",")
        assert np.isfinite([float(overall[1]), float(overall[2])]).all()

    def test_negative_samples_rejected(self, overfit_run, tmp_path, capsys):
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt",
            "--num-samples", "-1", "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "num_samples must be >= 0, got -1" in capsys.readouterr().err

    def test_malformed_checkpoint_header_exits_2(self, overfit_run, tmp_path, capsys):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(overfit_run.checkpoint.read_bytes().replace(b"t_obs=8\n", b"t_obs=abc\n", 1))
        code = run_cli([
            "predict", "--checkpoint", bad,
            "--scene-file", overfit_run.data_root / "fix1.txt", "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "bad.ckpt" in capsys.readouterr().err

    def test_non_finite_checkpoint_payload_exits_2(self, overfit_run, tmp_path, capsys):
        weights = {name: Tensor(w.data.copy()) for name, w in overfit_run.weights.items()}
        weights["out_proj_b"].data[0] = np.nan
        bad = tmp_path / "nan.ckpt"
        save_checkpoint(bad, weights, overfit_run.model_cfg)
        code = run_cli([
            "predict", "--checkpoint", bad,
            "--scene-file", overfit_run.data_root / "fix1.txt", "--out", tmp_path / "o",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "nan.ckpt" in err and "out_proj_b" in err

    def test_id_beyond_int64_exits_2(self, overfit_run, tmp_path, capsys):
        huge = tmp_path / "huge.txt"
        huge.write_text("0 10000000000000000000 1.0 1.0\n")
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", huge, "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "huge.txt:1: pedestrian_id" in capsys.readouterr().err

    def test_undecodable_byte_exits_2(self, overfit_run, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"0 1 1.0 1.0\n0 2 1.0 \xff\n")
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", bad, "--out", tmp_path / "o",
        ])
        assert code == 2
        assert "bad.txt:2: byte 0xff is not" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["predict", "dump-graphs"])
    def test_attention_overflow_names_scene_op_and_stage(self, command, overfit_run, tmp_path, capsys):
        scene = tmp_path / "overflow.txt"
        scene.write_text("".join(f"{t} {pid} {0.0 if t % 2 == 0 else 1e300!r} {float(pid)!r}\n"
                                 for t in range(8) for pid in (1, 2)))
        out = tmp_path / "o"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli([command, "--checkpoint", overfit_run.checkpoint, "--scene-file", scene, "--out", out])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: scene OVERFLOW@frame0 (N=2): non-finite values produced by 'matmul' in stage 'spatial_graph'\n"
        )
        assert not out.exists()

    def test_short_file_errors_with_path(self, overfit_run, tmp_path, capsys):
        short = tmp_path / "short.txt"
        write_trajectory_file(short, fixture_positions([[0.3, 0.0]], [[0.0, 0.0]], 1, steps=5))
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", short, "--out", tmp_path / "o",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "short.txt" in err and "8" in err

    def test_incomplete_pedestrian_dropped_with_warning(self, overfit_run, tmp_path, caplog):
        pos = fixture_positions([[0.3, 0.0], [0.0, 0.3]], [[0.0, 0.0], [5.0, 5.0]], 1, steps=20)
        lines = []
        for t in range(20):
            lines.append(f"{t * 10} 1 {float(pos[t, 0, 0])!r} {float(pos[t, 0, 1])!r}")
            if t < 14:  # pedestrian 2 leaves before the observation window
                lines.append(f"{t * 10} 2 {float(pos[t, 1, 0])!r} {float(pos[t, 1, 1])!r}")
        scene_file = tmp_path / "partial.txt"
        scene_file.write_text("\n".join(lines) + "\n")
        out = tmp_path / "pred"
        with caplog.at_level("WARNING", logger="sgcn.cli"):
            code = run_cli([
                "predict", "--checkpoint", overfit_run.checkpoint,
                "--scene-file", scene_file, "--num-samples", "2", "--out", out,
            ])
        assert code == 0
        assert any("incomplete observation: [2]" in rec.getMessage() for rec in caplog.records)
        body = (out / "predictions.csv").read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in body} == {"1"}

    def test_pedestrian_gone_before_window_not_named(self, overfit_run, tmp_path, caplog):
        # pedestrian 2 leaves at frame 40, long before the last 8 frames (120-190):
        # nobody seen in the window is cut, so nothing is reported
        lines = [f"{t * 10} 1 {0.3 * t!r} 0.0" for t in range(20)]
        lines += [f"{t * 10} 2 5.0 {0.3 * t!r}" for t in range(5)]
        scene_file = tmp_path / "gone.txt"
        scene_file.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="sgcn.cli"):
            code = run_cli([
                "predict", "--checkpoint", overfit_run.checkpoint,
                "--scene-file", scene_file, "--num-samples", "2", "--out", tmp_path / "o",
            ])
        assert code == 0
        assert not any("incomplete observation" in rec.getMessage() for rec in caplog.records)

    def test_all_pedestrians_incomplete_errors(self, overfit_run, tmp_path, capsys):
        # every pedestrian misses at least one frame of the window
        lines = []
        for t in range(20):
            if t != 19:
                lines.append(f"{t * 10} 1 {float(t)!r} 0.0")
            if t != 15:
                lines.append(f"{t * 10} 2 0.0 {float(t)!r}")
        scene_file = tmp_path / "gappy.txt"
        scene_file.write_text("\n".join(lines) + "\n")
        code = run_cli([
            "predict", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", scene_file, "--out", tmp_path / "o",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "dropped pedestrians" in err and "[1, 2]" in err

    @given(
        st.integers(1, 10), st.integers(1, 14), st.integers(0, 25), ID_LISTS, st.integers(0, 2**32 - 1),
        st.lists(st.integers(0, 2**20), min_size=len(REPR_EDGES), max_size=len(REPR_EDGES)),
    )
    @settings(max_examples=40, deadline=None)
    def test_writer_matches_per_scalar_rows(self, t_obs, t_pred, k, ids, seed, edge_at):
        n = len(ids)
        rng = np.random.default_rng(seed)
        sizes = [t_obs * n * 2, t_pred * n * 2, t_pred * n * 2, t_pred * n, k * t_pred * n * 2]
        flat = rng.standard_normal(sum(sizes)) * 10.0 ** rng.integers(-30, 30, sum(sizes))
        for at, value in zip(edge_at, REPR_EDGES):  # every form of repr in every case
            flat[at % len(flat)] = value
        obs, mu_path, sigma, rho, samples = np.split(flat, np.cumsum(sizes)[:-1])
        params = sgcn_model.BiGaussianParams(
            np.zeros((t_pred, n, 2)), sigma.reshape(t_pred, n, 2), rho.reshape(t_pred, n))
        args = (tuple(ids), obs.reshape(t_obs, n, 2), mu_path.reshape(t_pred, n, 2), params,
                samples.reshape(k, t_pred, n, 2))
        assert cli.predictions_text(*args) == per_scalar_predictions_text(*args)

    @given(st.integers(1, 9), st.integers(1, 13), st.integers(0, 25), ID_LISTS, st.integers(0, 2**32 - 1))
    @example(8, 12, 2, list(range(sgcn_model.GROUP_PEDESTRIANS + 2)), 5)  # a window above the group cap
    @settings(max_examples=12, deadline=None)
    def test_predictions_csv_matches_per_scalar_rows(self, t_obs, t_pred, k, ids, seed):
        # t_obs and t_pred come from the checkpoint's config, not the defaults
        cfg = ModelConfig(t_obs=t_obs, t_pred=t_pred, embed_dim=8, conv_layers=2, tcn_layers=2)
        rng = np.random.default_rng(seed)
        positions = rng.uniform(-20, 20, (1, len(ids), 2)) + np.cumsum(rng.normal(0, 0.4, (t_obs, len(ids), 2)), 0)
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            save_checkpoint(tmp / "m.ckpt", init_weights(cfg, seed=seed % 97), cfg)
            write_trajectory_file(tmp / "scene.txt", positions, ids=ids)
            assert run_cli([
                "predict", "--checkpoint", tmp / "m.ckpt", "--scene-file", tmp / "scene.txt",
                "--num-samples", k, "--seed", seed, "--out", tmp / "o",
            ]) == 0
            weights, loaded = load_checkpoint(tmp / "m.ckpt")
            assert loaded == cfg
            scene, _ = sgcn_data.last_observation(sgcn_data.load_scene_file(tmp / "scene.txt"), t_obs, "scene")
            params = sgcn_model.predict(scene.displacements_obs, weights, cfg)
            last = scene.positions_obs[-1]
            samples = sgcn_model.sample_trajectory(params, last, np.random.default_rng(seed), k)
            expected = per_scalar_predictions_text(
                scene.pedestrian_ids, scene.positions_obs, sgcn_model.mu_trajectory(params, last), params, samples)
            assert (tmp / "o" / "predictions.csv").read_text() == expected
            assert sorted(ids) == list(scene.pedestrian_ids)


class TestDumpGraphsCommand:
    def test_block_layout_and_triangular_zeros(self, overfit_run, tmp_path):
        out = tmp_path / "dump"
        assert run_cli([
            "dump-graphs", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt", "--out", out,
        ]) == 0
        text = (out / "graphs.txt").read_text()
        spatial = [b for b in text.split("# ") if b.startswith("spatial")]
        temporal = [b for b in text.split("# ") if b.startswith("temporal")]
        assert len(spatial) == 8
        assert len(temporal) == 3
        for block in spatial:
            rows = block.strip().splitlines()[1:]
            assert len(rows) == 3 and all(len(r.split()) == 3 for r in rows)
        for block in temporal:
            # one T_obs x T_obs matrix per pedestrian
            rows = [r.split() for r in block.strip().splitlines()[1:]]
            assert len(rows) == 8 and len(rows[0]) == 8
            for i in range(8):
                for j in range(i):
                    assert rows[i][j] == "0.0"  # exact text, not 1e-30 noise

    def test_masked_entries_exact_zero_text(self, overfit_run, tmp_path):
        # xi=1 prunes every learned edge: off-diagonal spatial entries
        # must print as exact 0.0
        out = tmp_path / "dump"
        assert run_cli([
            "dump-graphs", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", overfit_run.data_root / "fix1.txt",
            "--xi", "1.0", "--out", out,
        ]) == 0
        text = (out / "graphs.txt").read_text()
        spatial = [b for b in text.split("# ") if b.startswith("spatial")]
        for block in spatial:
            rows = [r.split() for r in block.strip().splitlines()[1:]]
            for i in range(3):
                for j in range(3):
                    if i != j:
                        assert rows[i][j] == "0.0"

    def test_crossing_pair_asymmetric(self, overfit_run, tmp_path):
        pos = fixture_positions([[0.4, 0.4], [-0.4, 0.4]], [[0.0, 0.0], [8.0, 0.2]], 31, steps=20)
        scene_file = tmp_path / "crossing.txt"
        write_trajectory_file(scene_file, pos)
        out = tmp_path / "dump"
        assert run_cli([
            "dump-graphs", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", scene_file, "--out", out,
        ]) == 0
        text = (out / "graphs.txt").read_text()
        asym = []
        for block in (b for b in text.split("# ") if b.startswith("spatial")):
            rows = [r.split() for r in block.strip().splitlines()[1:]]
            asym.append(float(rows[0][1]) != float(rows[1][0]))
        assert any(asym)

    @pytest.mark.parametrize("n", [1, 3, 45, sgcn_model.GROUP_PEDESTRIANS + 2])  # the last is above the group cap
    def test_graphs_txt_matches_per_scalar_entries(self, overfit_run, tmp_path, n):
        rng = np.random.default_rng(n)
        ids = sorted(rng.choice(2**62, n, replace=False).tolist())
        positions = rng.uniform(-10, 10, (1, n, 2)) + np.cumsum(rng.normal(0, 0.4, (8, n, 2)), 0)
        write_trajectory_file(tmp_path / "scene.txt", positions, ids=ids)
        assert run_cli([
            "dump-graphs", "--checkpoint", overfit_run.checkpoint,
            "--scene-file", tmp_path / "scene.txt", "--out", tmp_path / "o",
        ]) == 0
        weights, cfg = load_checkpoint(overfit_run.checkpoint)
        scene, _ = sgcn_data.last_observation(sgcn_data.load_scene_file(tmp_path / "scene.txt"), cfg.t_obs, "scene")
        _, spatial, temporal = sgcn_model.forward(scene.displacements_obs, weights, cfg)
        expected = per_scalar_graphs_text(ids, spatial.normalized.data, temporal.normalized.data)
        assert (tmp_path / "o" / "graphs.txt").read_text() == expected


def metrics_report(ade):
    return ev.MetricsReport(ade=ade, fde=2 * ade, n_pedestrians=3, n_scenes=1, k=20, seed=0,
                            per_scene={"ZARA2": (ade, 2 * ade, 3)})


def run_command(command, run, path, version):
    """``command`` on the overfit checkpoint and the first fixture scene, writing into ``path``'s directory."""
    cli._COMMANDS[command](RunConfig(command=command, checkpoint=str(run.checkpoint), num_samples=2, seed=version,
                                     scene_file=str(run.data_root / "fix1.txt"), out=str(path.parent)))


# artifact -> write(path, overfit_run, version): every artifact writer of the package, library and CLI
ARTIFACT_WRITERS = {
    "checkpoint.ckpt": lambda path, run, v: save_checkpoint(path, init_weights(run.model_cfg, seed=v), run.model_cfg),
    "loss_log.csv": lambda path, run, v: tr.write_loss_log(run.rows[: v + 1], path),
    "metrics.csv": lambda path, run, v: ev.write_metrics_csv(metrics_report(0.5 + v), path),
    "summary.txt": lambda path, run, v: ev.write_summary(metrics_report(0.5 + v), path),
    "resolved.cfg": lambda path, run, v: write_config_file(path, RunConfig(seed=v).as_dict()),
    "predictions.csv": lambda path, run, v: run_command("predict", run, path, v),
    "graphs.txt": lambda path, run, v: run_command("dump-graphs", run, path, v),
}


class TestArtifactWriters:
    @pytest.mark.parametrize("artifact", sorted(ARTIFACT_WRITERS))
    def test_full_disk_keeps_the_previous_artifact(self, artifact, overfit_run, tmp_path, fill_disk):
        write = ARTIFACT_WRITERS[artifact]
        path = tmp_path / artifact
        write(path, overfit_run, 0)
        before = path.read_bytes()
        assert before
        fill_disk(artifact)  # predict and dump-graphs write resolved.cfg first: only the artifact's opens fail
        with pytest.raises(OSError, match="No space left"):
            write(path, overfit_run, 1)
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_bytes_do_not_depend_on_the_locale(self, tmp_path):
        # an ASCII locale without UTF-8 mode: a platform-encoded write of the scene name would fail
        path = tmp_path / "metrics.csv"
        code = ("import sys\n"
                "from sgcn import evaluation as ev\n"
                "report = ev.MetricsReport(ade=0.5, fde=1.0, n_pedestrians=3, n_scenes=1, k=20, seed=0,\n"
                "                          per_scene={'Z\\u00dcRICH': (0.5, 1.0, 3)})\n"
                "ev.write_metrics_csv(report, sys.argv[1])\n")
        env = dict(os.environ, PYTHONPATH=str(Path(sgcn.__file__).resolve().parent.parent),
                   PYTHONUTF8="0", PYTHONCOERCECLOCALE="0", LC_ALL="C")
        result = subprocess.run([sys.executable, "-c", code, str(path)],
                                capture_output=True, text=True, timeout=60, env=env)
        assert result.returncode == 0, result.stderr
        data = path.read_bytes()
        assert "Z\u00dcRICH".encode("utf-8") in data
        assert b"\r" not in data


def test_console_script_entry_point(tmp_path):
    """The `sgcn` command runs the entry point pyproject.toml declares.

    Rather than relying on an installed `sgcn` on PATH, the test writes the
    same wrapper pip generates for `[project.scripts]` and runs it against
    the package under test, so a misnamed entry or a `main` that cannot be
    called without arguments still fails here.
    """
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        entry = tomllib.load(fh)["project"]["scripts"]["sgcn"]
    module, attr = entry.split(":")
    script = tmp_path / "sgcn"
    script.write_text(
        f"#!{sys.executable}\n"
        "import re\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        "if __name__ == '__main__':\n"
        "    sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
        f"    sys.exit({attr}())\n"
    )
    script.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(Path(sgcn.__file__).resolve().parent.parent))
    result = subprocess.run(
        [str(script), "train", "--help"], capture_output=True, text=True, timeout=60, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("usage: sgcn train")
    assert "--holdout" in result.stdout


def test_module_invocation_reports_errors(tmp_path):
    result = subprocess.run(
        [sys.executable, "-m", "sgcn.cli", "eval", "--checkpoint", str(tmp_path / "none.ckpt"),
         "--data-root", str(tmp_path), "--out", str(tmp_path / "o")],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2
    assert "none.ckpt" in result.stderr
