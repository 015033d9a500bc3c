"""The command-line scripts under scripts/, run in-process at toy scale.

The artifact writes of a training and evaluation run are tested where the
CLI makes them: TestTrainCommand and TestEvalCommand in tests/test_cli.py,
and test_metrics_csv_exact_bytes and test_summary_carries_counts_and_clock
in tests/test_evaluation.py.  The desk-scale experiment runs in tier-1 as
tests/test_acceptance.py::test_c7_desk_scale_training_loose_bound.
"""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generate_data_is_byte_identical(tmp_path):
    generate_data = load_script("generate_data")
    for name in ("a", "b"):
        assert generate_data.main(["--steps", "40", "--out", str(tmp_path / name)]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["eth.txt", "hotel.txt", "univ.txt", "zara1.txt", "zara2.txt"]
    for f in files:  # a regenerated tree is byte-identical
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()


def test_artifact_digest_repeats(capsys):
    artifact_digest = load_script("artifact_digest")
    digests = []
    for _ in range(2):
        assert artifact_digest.main([]) == 0
        digests.append(capsys.readouterr().out)
    lines = digests[0].splitlines()
    assert [line.split("  ")[1] for line in lines] == [
        f"{run[0]}/{artifact}" for run in artifact_digest.RUNS for artifact in artifact_digest.ARTIFACTS
    ]
    assert len(lines) == 15 and all(len(line.split("  ")[0]) == 64 for line in lines)
    assert digests[0] == digests[1]
    with pytest.raises(SystemExit) as exit_info:  # the run set is fixed: an old flag is an error
        artifact_digest.main(["--steps", "80"])
    assert exit_info.value.code == 2
