"""Self-tests of the benchmark's input generation and tracer.

Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import dataclasses
import filecmp
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workloads  # noqa: E402
from sgcn import autodiff, data, model, synthetic, training  # noqa: E402
from sgcn.config import ModelConfig, TrainConfig  # noqa: E402

SMALL_DENSE = workloads.Workload(
    n_steps=40, spawn_prob=1.0, overlays=3, sizes=(5,), train_chunk=1, eval_chunk=1,
    requests=1, whole_recordings=False,
)


@pytest.mark.parametrize("name", ["sparse-crowd", "dense-crowd"])
def test_inputs_are_deterministic_per_seed(tmp_path, name):
    small = dataclasses.replace(workloads.WORKLOADS[name], n_steps=60)
    first = workloads.write_dataset(small, 7, tmp_path / "a")
    again = workloads.write_dataset(small, 7, tmp_path / "b")
    other = workloads.write_dataset(small, 8, tmp_path / "c")
    assert sorted(first) == list(sorted(workloads.SCENES))
    for scene in workloads.SCENES:
        assert filecmp.cmp(first[scene], again[scene], shallow=False)
    assert any(not filecmp.cmp(first[s], other[s], shallow=False) for s in workloads.SCENES)


def test_chunks_are_deterministic_and_disjoint(tmp_path):
    workloads.write_dataset(SMALL_DENSE, 3, tmp_path)
    split = data.leave_one_out_split(data.load_dataset(tmp_path), workloads.HOLDOUT, 8, 12)

    def chunks():
        return workloads.chunks_by_size(split.train_scenes, (2, 6), 4, 3, np.random.default_rng(3))

    first, again = chunks(), chunks()
    key = [[(s.scene_name, s.start_frame) for s in chunk] for chunk in first]
    assert key == [[(s.scene_name, s.start_frame) for s in chunk] for chunk in again]
    assert all(len(chunk) == 4 for chunk in first)
    picked = [k for chunk in key for k in chunk]
    assert len(set(picked)) == len(picked)


def test_dense_overlay_ids_are_disjoint():
    seeds = workloads.scene_seeds(5, 3)
    rows = workloads.scene_rows(seeds, n_steps=60, spawn_prob=1.0)
    recordings = [synthetic.generate_scene_rows(seed, n_steps=60, spawn_prob=1.0) for seed in seeds]
    ids = [{pid for _, pid, _, _ in recording} for recording in recordings]
    assert len(rows) == sum(len(r) for r in recordings)
    assert len({pid for _, pid, _, _ in rows}) == sum(len(i) for i in ids)
    keys = [(frame, pid) for frame, pid, _, _ in rows]
    assert len(set(keys)) == len(keys)


def test_tracer_restores_every_wrapped_attribute():
    modules = list(tracer.MODULES.values())
    before = [dict(vars(m)) for m in modules]
    step = vars(training.Adam)["step"]
    with tracer.Tracer() as trace:
        assert model.forward is not before[modules.index(model)]["forward"]
        assert training.forward is not before[modules.index(training)]["forward"]
        assert vars(training.Adam)["step"] is not step
        assert autodiff.as_tensor is before[modules.index(autodiff)]["as_tensor"]
    assert [dict(vars(m)) for m in modules] == before
    assert vars(training.Adam)["step"] is step
    assert trace.spans == []


def test_tracer_records_nested_spans_and_keeps_results(tmp_path):
    workloads.write_dataset(SMALL_DENSE, 4, tmp_path)
    split = data.leave_one_out_split(data.load_dataset(tmp_path), workloads.HOLDOUT, 8, 12)
    scenes = split.train_scenes[:3]
    cfg = TrainConfig(epochs=1, batch_size=2, seed=0)
    _, plain = training.train(scenes, ModelConfig(), cfg)
    with tracer.Tracer() as trace:
        _, traced = training.train(scenes, ModelConfig(), cfg)
    assert traced == plain
    table = tracer.summarize(trace.spans)
    assert table["training.train"][0] == 1
    assert table["model.forward"][0] == 3
    assert table["training.Adam.step"][0] == 2
    spans = trace.spans
    for span in spans:
        if span[tracer.PARENT] >= 0:
            parent = spans[span[tracer.PARENT]]
            assert parent[tracer.START] <= span[tracer.START] <= span[tracer.END] <= parent[tracer.END]
    root = table["training.train"]
    assert sum(row[2] for row in table.values()) == pytest.approx(root[1], rel=1e-9)
