#!/usr/bin/env python3
"""sgcn benchmark: training, best-of-20 evaluation and predict speed.

Run from the repository root:

    python3 bench/run.py --workload sparse-crowd --seed 1 --seconds 30 --trace 0

The benchmark writes a seeded synthetic dataset (see workloads.py), then
times sgcn only through its public functions: ``data.load_dataset`` and
``data.leave_one_out_split`` (set-up), ``training.train``,
``evaluation.evaluate_best_of_k`` and ``cli.main(["predict", ...])``.
One client runs them in a closed loop, one after another, in this one
process, and end-to-end times are scaled to a fixed host speed by a
probe timed around every operation.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` replays the same operations under the
span tracer (tracer.py) and reports per-layer metrics.  The last line of standard output is the
result as JSON; the lines before it name every metric with its unit and
record the environment.  See README.md in this directory.
"""

from __future__ import annotations

import os
import sys

# One client, no extra threads: keep BLAS single-threaded unless the
# caller chose otherwise.  Must happen before numpy is imported.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
PRESET_THREAD_ENV = {var: os.environ.get(var) for var in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402
from typing import NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Benchmark the checkout's own sources, never an installed copy.
if not (ROOT / "src" / "sgcn" / "__init__.py").is_file():
    sys.exit(f"error: no sgcn sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from sgcn import cli, data, evaluation, model, training  # noqa: E402
from sgcn.config import ModelConfig, TrainConfig  # noqa: E402

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

BATCH_SIZE = 128        # TrainConfig default, as `sgcn train` runs
K_SAMPLES = 20          # best-of-20, the paper's protocol
CHUNKS = 4              # distinct train/eval chunks cycled through the rounds
CLIPS = 16              # distinct predict clips
TRACE_SHARE = 0.4       # share of --seconds for the untraced pass of a traced run
JOBS2_REPEATS = 3
MODEL_CFG = ModelConfig()
# Nominal probe time: end-to-end times are reported as if the probe had
# taken this long, i.e. scaled to one fixed host speed.  About the probe
# time of a 2.1 GHz Xeon VM at its faster level.
PROBE_REF_S = 1e-3

END_TO_END = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "eval_windows_per_s": "windows/s",
    "predict_p50_ms": "ms",
    "predict_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Primitive groups for the per-layer autodiff metrics; every other
# Tensor-returning autodiff function counts as elementwise.
SHAPE_OPS = {"autodiff.take", "autodiff.reshape", "autodiff.permute", "autodiff.swap_last2"}
NAMED_OPS = {"autodiff.matmul", "autodiff.conv2d_zero_pad", "autodiff.softmax_lastdim"}
BRANCHES = ("model.interaction_tendency_branch", "model.tendency_interaction_branch", "model.fuse_branches")


class Ops:
    """Counts attempted and failed operations and checks reruns.

    An operation fails when it raises, when its own output check
    reports a problem, or when its output differs from the first output
    recorded for the same key (same input, same seed).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}
        self.problems: list = []

    def run(self, key, count: int, op):
        """Run ``op() -> (seconds, output, problem)``; returns seconds or None on failure."""
        self.attempted += count
        try:
            seconds, output, problem = op()
        except Exception:  # noqa: BLE001 - any error is a failed operation, reported below
            seconds, output, problem = None, None, traceback.format_exc()
        if problem is None and self.first.setdefault(key, output) != output:
            problem = "output differs from the first run of the same input"
        if problem is not None:
            self.failed += count
            self.problems.append(f"{key}: {problem}")
            return None
        return seconds

    def count_checks(self, label: str, problems: list, count: int) -> None:
        self.attempted += count
        if problems:
            self.failed += count
            self.problems.extend(f"{label}: {p}" for p in problems)


def train_op(chunk, seed: int, ckpt: Path):
    """One ``training.train`` epoch over ``chunk``, rewriting ``ckpt`` as ``sgcn train`` does."""

    def op():
        cfg = TrainConfig(epochs=1, batch_size=BATCH_SIZE, seed=seed)
        start = perf_counter()
        _, rows = training.train(chunk, MODEL_CFG, cfg, checkpoint_path=ckpt)
        seconds = perf_counter() - start
        problem = None
        if len(rows) != math.ceil(len(chunk) / BATCH_SIZE) or not all(math.isfinite(r[2]) for r in rows):
            problem = f"unexpected loss rows {rows!r}"
        return seconds, (tuple(rows), hashlib.sha256(ckpt.read_bytes()).hexdigest()), problem

    return op


def eval_op(weights, cfg, chunk, seed: int, jobs: int = 1):
    def op():
        start = perf_counter()
        report = evaluation.evaluate_best_of_k(weights, cfg, chunk, k=K_SAMPLES, seed=seed, jobs=jobs)
        seconds = perf_counter() - start
        output = (report.ade, report.fde, report.n_pedestrians, tuple(sorted(report.per_scene.items())))
        problem = None
        if report.n_pedestrians != sum(s.n_pedestrians for s in chunk) or not (
            0.0 < report.ade < math.inf and 0.0 < report.fde < math.inf
        ):
            problem = f"implausible report ade={report.ade!r} fde={report.fde!r} n={report.n_pedestrians}"
        return seconds, output, problem

    return op


def predict_op(ckpt: Path, scene_file: Path, out: Path, seed: int, repeats: int):
    """One predict request, sent ``repeats`` times back to back; its time is their median.

    A host hiccup of a few ms decides the time of one short call but
    rarely of most of them, while a cost the program pays on every call
    stays in the median.
    """
    argv = ["predict", "--checkpoint", str(ckpt), "--scene-file", str(scene_file),
            "--num-samples", str(K_SAMPLES), "--seed", str(seed), "--out", str(out)]

    def op():
        times, texts = [], set()
        for _ in range(repeats):
            with contextlib.redirect_stdout(io.StringIO()):
                start = perf_counter()
                code = cli.main(argv)
                times.append(perf_counter() - start)
            if code != 0:
                return None, None, f"exit code {code}"
            texts.add((out / "predictions.csv").read_text())
        if len(texts) != 1:
            return None, None, "repeated sends gave different predictions"
        text = texts.pop()
        return statistics.median(times), text, predictions_problem(text)

    return op


def predictions_problem(text: str):
    """Each pedestrian has 8 obs, 12 mu and 20 x 12 sample rows, all finite."""
    lines = text.splitlines()[1:]
    per_ped: dict = {}
    for line in lines:
        fields = line.split(",")
        per_ped[fields[0]] = per_ped.get(fields[0], 0) + 1
        if not all(math.isfinite(float(f)) for f in fields[4:] if f):
            return f"non-finite values in {line!r}"
    expected = MODEL_CFG.t_obs + MODEL_CFG.t_pred * (1 + K_SAMPLES)
    if not per_ped or any(n != expected for n in per_ped.values()):
        return f"rows per pedestrian {sorted(set(per_ped.values()))} != {expected}"
    return None


def load_split(root: Path):
    tables = data.load_dataset(root)
    return data.leave_one_out_split(tables, workloads.HOLDOUT, MODEL_CFG.t_obs, MODEL_CFG.t_pred)


def setup_op(root: Path, seed: int):
    """The set-up a training run pays: parse, window and split, init weights."""

    def op():
        start = perf_counter()
        split = load_split(root)
        model.init_weights(MODEL_CFG, seed=seed)
        seconds = perf_counter() - start
        windows = [(s.scene_name, s.start_frame, s.pedestrian_ids) for s in split.train_scenes + split.test_scenes]
        problem = None if split.train_scenes and split.test_scenes else "empty train or test split"
        return seconds, (len(split.train_scenes), tuple(windows)), problem

    return op


class Plan:
    """The workload's operations: chunks of windows, predict inputs, checkpoints."""

    def __init__(self, workload, split, seed: int, work: Path, paths: dict):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.data_root = work / "data"
        self.train_chunks = workloads.chunks_by_size(
            split.train_scenes, workload.sizes, workload.train_chunk, CHUNKS, rng)
        self.eval_chunks = workloads.chunks_by_size(
            split.test_scenes, workload.sizes, workload.eval_chunk, CHUNKS, rng)
        if workload.whole_recordings:
            self.inputs = [paths[name] for name in workloads.SCENES]
        else:
            clips = workloads.chunks_by_size(split.test_scenes, workload.sizes, CLIPS, 1, rng)[0]
            self.inputs = []
            for i, scene in enumerate(clips):
                path = work / f"clip{i}.txt"
                workloads.write_clip(scene, path)
                self.inputs.append(path)
        self.requests = workload.requests
        self.repeats = workload.repeats
        self.model_ckpt = work / "model.ckpt"
        self.train_ckpt = work / "train.ckpt"
        self.predict_out = work / "predict"
        self.weights = self.cfg = None

    def warm_up(self, ops: Ops) -> None:
        """Train the eval/predict checkpoint and run each kind of operation once."""
        ops.run(("train", 0), len(self.train_chunks[0]), train_op(self.train_chunks[0], self.seed, self.model_ckpt))
        self.weights, self.cfg = model.load_checkpoint(self.model_ckpt)
        for kind, key, count, op in self.round(0):
            if kind != "train":
                ops.run(key, count, op)

    def round(self, r: int) -> list:
        """Operations of round ``r``: a set-up, a train call, an eval call, predict requests.

        Every round repeats the set-up, so set-up samples spread over the
        whole run like the others.
        """
        train_chunk = self.train_chunks[r % len(self.train_chunks)]
        eval_chunk = self.eval_chunks[r % len(self.eval_chunks)]
        ops = [
            ("setup", ("setup", 0), 1, setup_op(self.data_root, self.seed)),
            ("train", ("train", r % len(self.train_chunks)), len(train_chunk),
             train_op(train_chunk, self.seed, self.train_ckpt)),
            ("eval", ("eval", r % len(self.eval_chunks)), len(eval_chunk),
             eval_op(self.weights, self.cfg, eval_chunk, self.seed)),
        ]
        for i in range(self.requests):
            j = (r * self.requests + i) % len(self.inputs)
            ops.append(("predict", ("predict", j), self.repeats,
                        predict_op(self.model_ckpt, self.inputs[j], self.predict_out, self.seed, self.repeats)))
        return ops


class Done(NamedTuple):
    """One successful operation."""

    kind: str
    key: tuple
    count: int
    op: object
    seconds: float    # wall time as measured
    scale: float      # PROBE_REF_S / probe time around the operation


def probe() -> float:
    """Wall time of a fixed kernel of small NumPy calls and one small einsum.

    It stands for the host's current speed, which on small shared VMs
    switches between levels far apart (see README.md, "Noise").
    """
    small = np.arange(64.0).reshape(8, 8)
    rng = np.random.default_rng(0)
    kernel, image = rng.standard_normal((8, 8)), rng.standard_normal((8, 24, 24))
    start = perf_counter()
    for i in range(200):
        ((small + i) * 0.5).sum()
    for _ in range(20):
        np.einsum("oc,chw->ohw", kernel, image)
    return perf_counter() - start


def run_probed(ops: Ops, items) -> list:
    """Run ``(kind, key, count, op)`` items with a probe before each and after the last.

    Returns a ``Done`` per successful operation; its scale uses the mean
    of the two probes around it.
    """
    probes, done = [probe()], []
    for kind, key, count, op in items:
        took = ops.run(key, count, op)
        probes.append(probe())
        if took is not None:
            done.append(Done(kind, key, count, op, took, PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)))
    return done


def measure(plan: Plan, ops: Ops, seconds: float) -> list:
    """Run whole rounds until ``seconds`` have passed; returns a ``Done`` per operation."""
    done = []
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or perf_counter() < deadline:
        done += run_probed(ops, plan.round(r))
        r += 1
    return done


def tail(values) -> tuple:
    """(percentile, value): the highest percentile with at least 10 samples above it.

    With 10 samples or fewer no percentile qualifies; the maximum stands in.
    """
    ordered = sorted(values)
    rank = len(ordered) - 11 if len(ordered) > 10 else len(ordered) - 1
    return 100.0 * (rank + 1) / len(ordered), ordered[rank]


def end_to_end(done, adjusted: bool) -> dict:
    """End-to-end values from host-speed-adjusted (or raw) operation times."""
    def seconds(kind):
        return [d.seconds * (d.scale if adjusted else 1.0) for d in done if d.kind == kind]

    def rate(kind):  # total windows / total time over all calls of one kind
        return sum(d.count for d in done if d.kind == kind) / sum(seconds(kind))

    latencies = [s * 1e3 for s in seconds("predict")]
    return {
        "setup_s": statistics.median(seconds("setup")),
        "train_windows_per_s": rate("train"),
        "eval_windows_per_s": rate("eval"),
        "predict_p50_ms": statistics.median(latencies),
        "predict_tail_ms": tail(latencies)[1],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def prepare(args, workload, work: Path, ops: Ops):
    """Write the inputs, check outputs against the reference, warm up; untimed."""
    paths = workloads.write_dataset(workload, args.seed, work / "data")
    ops.count_checks("reference", reference.check(work), 3)
    plan = Plan(workload, load_split(work / "data"), args.seed, work, paths)
    plan.warm_up(ops)
    return plan


def timed_run(args, workload, work: Path, ops: Ops, notes: list) -> dict:
    plan = prepare(args, workload, work, ops)
    done = measure(plan, ops, args.seconds)
    if {d.kind for d in done} != {"setup", "train", "eval", "predict"}:
        raise RuntimeError("a phase completed no operation")
    values = end_to_end(done, adjusted=True)
    raw = end_to_end(done, adjusted=False)
    latencies = [d.seconds for d in done if d.kind == "predict"]
    notes.append(f"predict_tail_ms is p{tail(latencies)[0]:.2f} of {len(latencies)} requests, "
                 f"each the median of {plan.repeats} back-to-back send(s)")
    notes.append(f"host speed scale: median {statistics.median(d.scale for d in done):.4f} "
                 f"(probe {PROBE_REF_S * 1e3:g} ms reference / probe as measured)")
    notes.append("unadjusted: " + ", ".join(f"{name} {raw[name]:.6g}" for name in END_TO_END))
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def graph_observers() -> dict:
    """Kept vs scored edges: every spatial (i, j) pair, every causal temporal pair."""

    def spatial(result):
        mask = result[0].mask
        return {"spatial_kept": int(mask.sum()), "spatial_scored": mask.size}

    def temporal(result):
        mask = result[0].mask
        n, t, _ = mask.shape
        return {"temporal_kept": int(mask.sum()), "temporal_scored": n * t * (t + 1) // 2}

    return {"graphs.build_spatial_graph": spatial, "graphs.build_temporal_graph": temporal}


def traced_run(args, workload, work: Path, ops: Ops, notes: list) -> dict:
    plan = prepare(args, workload, work, ops)
    done = measure(plan, ops, args.seconds * TRACE_SHARE)

    # Replay the same operations phase by phase under the tracer; Ops
    # compares every output with the untraced one, bit for bit.  Both
    # passes are host-speed adjusted, so the overhead is not host drift.
    traces, units, untraced_s, traced_s = {}, {}, 0.0, 0.0
    for kind in ("setup", "train", "eval", "predict"):
        observers = graph_observers() if kind == "train" else {}
        kind_done = [d for d in done if d.kind == kind]
        with tracer.Tracer(observers) as trace:
            replayed = run_probed(ops, [(d.kind, d.key, d.count, d.op) for d in kind_done])
        traces[kind] = trace
        units[kind] = sum(d.count for d in kind_done)
        untraced_s += sum(d.seconds * d.scale for d in kind_done)
        traced_s += sum(d.seconds * d.scale for d in replayed)
    notes.append(f"tracing overhead {traced_s / untraced_s - 1:.1%} over {untraced_s:.2f} s of untraced work")

    # jobs=2 against jobs=1 on the same windows, untraced (spans are single-threaded).
    chunk = plan.eval_chunks[0]
    times = {1: [], 2: []}
    for _ in range(JOBS2_REPEATS):
        for jobs in (1, 2):
            took = ops.run(("eval", 0), len(chunk), eval_op(plan.weights, plan.cfg, chunk, args.seed, jobs))
            if took is not None:
                times[jobs].append(took)
    speedup = statistics.median(times[1]) / statistics.median(times[2]) if times[1] and times[2] else 0.0

    values = layer_metrics(traces, units, load_split(plan.data_root))
    values["evaluation.jobs2_speedup"] = (speedup, "ratio")
    values["trace.overhead_ratio"] = (traced_s / untraced_s - 1.0, "ratio")
    for kind, trace in traces.items():
        notes.append(f"{kind}: top spans by self time")
        table = sorted(tracer.summarize(trace.spans).items(), key=lambda item: -item[1][2])
        for name, (calls, total, own) in table[:8]:
            notes.append(f"  {name:40s} calls {calls:8d}  total {total * 1e3:10.2f} ms  self {own * 1e3:10.2f} ms")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_metrics(traces: dict, units: dict, split) -> dict:
    """Per-layer metrics, per unit of work of the phase that runs the layer."""
    tables = {kind: tracer.summarize(trace.spans) for kind, trace in traces.items()}

    def calls(kind, *names):
        return sum(tables[kind].get(n, (0, 0.0, 0.0))[0] for n in names)

    def total_ms(kind, *names):
        return 1e3 * sum(tables[kind].get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_ms(kind, *names):
        return 1e3 * sum(tables[kind].get(n, (0, 0.0, 0.0))[2] for n in names)

    def per(kind, value, count=None):
        count = units[kind] if count is None else count
        return value / count if count else 0.0

    functions = tracer.public_functions()
    primitives = {name for name, f in functions.items() if tracer.is_primitive(name, f)}
    elementwise = primitives - SHAPE_OPS - NAMED_OPS
    evaluation_names = [n for n in functions if n.startswith("evaluation.")]
    cli_names = [n for n in functions if n.startswith("cli.")]
    counts = traces["train"].counts
    pedestrians = [s.n_pedestrians for s in split.train_scenes + split.test_scenes]
    conv, mm, soft = "autodiff.conv2d_zero_pad", "autodiff.matmul", "autodiff.softmax_lastdim"
    return {
        "autodiff.primitive_calls": (per("train", tracer.outermost(traces["train"].spans, primitives)), "calls/window"),
        "autodiff.backward_ms": (per("train", total_ms("train", "autodiff.backward")), "ms/window"),
        "autodiff.conv2d_zero_pad_ms": (per("train", self_ms("train", conv)), "ms/window"),
        "autodiff.conv2d_zero_pad_calls": (per("train", calls("train", conv)), "calls/window"),
        "autodiff.matmul_ms": (per("train", self_ms("train", mm)), "ms/window"),
        "autodiff.matmul_calls": (per("train", calls("train", mm)), "calls/window"),
        "autodiff.softmax_lastdim_ms": (per("train", self_ms("train", soft)), "ms/window"),
        "autodiff.elementwise_ms": (per("train", self_ms("train", *elementwise)), "ms/window"),
        "autodiff.shape_ms": (per("train", self_ms("train", *SHAPE_OPS)), "ms/window"),
        "graphs.spatial_ms": (per("train", total_ms("train", "graphs.build_spatial_graph")), "ms/window"),
        "graphs.temporal_ms": (per("train", total_ms("train", "graphs.build_temporal_graph")), "ms/window"),
        "graphs.spatial_kept_fraction": (
            per("train", counts.get("spatial_kept", 0), counts.get("spatial_scored", 0)), "ratio"),
        "graphs.temporal_kept_fraction": (
            per("train", counts.get("temporal_kept", 0), counts.get("temporal_scored", 0)), "ratio"),
        "model.forward_ms": (per("eval", total_ms("eval", "model.forward")), "ms/window"),
        "model.forward_self_ms": (per("eval", self_ms("eval", "model.forward")), "ms/window"),
        "model.branches_ms": (per("eval", total_ms("eval", *BRANCHES)), "ms/window"),
        "model.tcn_head_ms": (per("eval", total_ms("eval", "model.tcn_head")), "ms/window"),
        "model.sample_trajectory_ms": (per("eval", total_ms("eval", "model.sample_trajectory")), "ms/window"),
        "model.sample_trajectory_calls": (per("eval", calls("eval", "model.sample_trajectory")), "calls/window"),
        "evaluation.self_ms": (per("eval", self_ms("eval", *evaluation_names)), "ms/window"),
        "model.load_checkpoint_ms": (per("predict", total_ms("predict", "model.load_checkpoint")), "ms/request"),
        "cli.predict_self_ms": (per("predict", self_ms("predict", *cli_names)), "ms/request"),
        "data.load_scene_file_ms": (per("predict", total_ms("predict", "data.load_scene_file")), "ms/request"),
        "data.load_dataset_ms": (per("setup", total_ms("setup", "data.load_dataset")), "ms/setup"),
        "data.split_ms": (per("setup", total_ms("setup", "data.leave_one_out_split")), "ms/setup"),
        "model.save_checkpoint_ms": (
            per("train", total_ms("train", "model.save_checkpoint"), calls("train", "model.save_checkpoint")),
            "ms/call"),
        "training.nll_loss_ms": (per("train", total_ms("train", "training.nll_loss")), "ms/window"),
        "training.adam_step_ms": (
            per("train", total_ms("train", "training.Adam.step"), calls("train", "training.Adam.step")),
            "ms/step"),
        "data.windows_train": (len(split.train_scenes), "windows"),
        "data.windows_test": (len(split.test_scenes), "windows"),
        "data.mean_pedestrians": (statistics.fmean(pedestrians), "pedestrians"),
        "data.n_buckets": (len({s.n_pedestrians for s in split.train_scenes}), "count"),
    }


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # older numpy without mode="dicts"
        return {"name": "unknown"}
    return {"name": blas.get("name"), "version": blas.get("version"),
            "config": blas.get("openblas configuration")}


def environment(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "blas_threads_env_preset": PRESET_THREAD_ENV,
        "platform": platform.platform(),
    }


@contextlib.contextmanager
def work_directory():
    parent = ROOT / ".bench_work"
    parent.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(dir=parent))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            parent.rmdir()


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced replay instead of end-to-end metrics")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    print("env " + json.dumps(environment(args), sort_keys=True), flush=True)
    ops, notes = Ops(), []
    with work_directory() as work:
        metrics = (traced_run if args.trace else timed_run)(args, workload, work, ops, notes)
    for problem in ops.problems[:5]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, metric in metrics.items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    for note in notes:
        print(note)
    print(f"failed_ops_ratio {ops.failed / ops.attempted:.6g} ({ops.failed} of {ops.attempted} operations)")
    result = {"correct": ops.failed == 0, "attempted": ops.attempted, "failed": ops.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
