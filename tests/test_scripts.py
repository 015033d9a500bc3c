"""The command-line scripts under scripts/, run in-process at toy scale."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generate_data_then_desk_run(tmp_path, capsys):
    generate_data, desk_run = load_script("generate_data"), load_script("desk_run")
    for name in ("a", "b"):
        assert generate_data.main(["--steps", "40", "--out", str(tmp_path / name)]) == 0
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == ["eth.txt", "hotel.txt", "univ.txt", "zara1.txt", "zara2.txt"]
    for f in files:  # a regenerated tree is byte-identical
        assert (tmp_path / "a" / f).read_bytes() == (tmp_path / "b" / f).read_bytes()

    out = tmp_path / "run"
    code = desk_run.main([
        "--data-root", str(tmp_path / "a"), "--epochs", "1", "--test-windows", "20", "--out", str(out),
    ])
    assert code == 0
    assert "evaluating 20 (ZARA2 held out)" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == ["checkpoint.ckpt", "loss_log.csv", "metrics.csv", "summary.txt"]
    assert len((out / "loss_log.csv").read_text().splitlines()) == 2  # header + one optimizer step
    assert (out / "metrics.csv").read_text().startswith("scope,ade,fde,pedestrians\noverall,")
    assert "scenes evaluated: 20" in (out / "summary.txt").read_text()


def test_artifact_digest_repeats(capsys):
    artifact_digest = load_script("artifact_digest")
    digests = []
    for _ in range(2):
        assert artifact_digest.main(["--steps", "40", "--epochs", "1", "--batch-size", "16"]) == 0
        digests.append(capsys.readouterr().out)
    lines = digests[0].splitlines()
    assert [line.split("  ")[1] for line in lines] == list(artifact_digest.ARTIFACTS)
    assert all(len(line.split("  ")[0]) == 64 for line in lines)
    assert digests[0] == digests[1]
