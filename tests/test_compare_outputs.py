import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_gives_identical_outputs(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "CONFIGS", (("pure", 300), ("mixed", 300)))
    assert tool.main([str(ROOT), str(ROOT / "src"), "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all("CSVs identical" in line for line in lines)
    assert all(line.endswith("at most 0 (relative)") for line in lines)


def test_differing_csv_and_means_are_reported(tool, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir()
    for name in tool.CSV_FILES:
        (a / name).write_text("x,1\n")
    (a / "summary.json").write_text('{"mean_e0": 0.5, "mean_ef": 0.25, "mean_delta": -0.25}')
    shutil.copytree(a, b)
    assert tool.compare(a, b) == ([], 0.0)
    (b / "e0_hist.csv").write_text("x,2\n")
    (b / "summary.json").write_text('{"mean_e0": 0.5, "mean_ef": 0.25, "mean_delta": -0.2500001}')
    differ, rel = tool.compare(a, b)
    assert differ == ["e0_hist.csv"] and rel == pytest.approx(4e-7, rel=1e-6)


def test_failed_run_exits_2(tool, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(tool, "CONFIGS", (("pure", 10),))
    (tmp_path / "entlab").mkdir()
    (tmp_path / "entlab" / "cli.py").write_text("raise SystemExit(3)\n")
    assert tool.main([str(ROOT), str(tmp_path), "--workers", "1"]) == 2
    assert "exited 3" in capsys.readouterr().err
