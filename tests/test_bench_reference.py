"""The benchmark's end-to-end output check, run as part of the test suite."""

import importlib.util
from pathlib import Path

REFERENCE_SCRIPT = Path(__file__).resolve().parents[1] / "bench" / "reference.py"


def test_bench_reference_outputs_match(tmp_path):
    # train/eval/predict artifacts must match bench/reference.json to 1e-9
    spec = importlib.util.spec_from_file_location("bench_reference", REFERENCE_SCRIPT)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    assert reference.check(tmp_path) == []
