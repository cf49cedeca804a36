import importlib.util
import re
import shutil
from pathlib import Path

import pytest

from entlab.experiment import available_cpus

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_same_tree_gives_identical_outputs(tool, monkeypatch, capsys):
    monkeypatch.setattr(tool, "CONFIGS", (("pure", 300, 100, 50), ("mixed", 300, 7, 3)))
    assert tool.main([str(ROOT), str(ROOT / "src"), "--workers", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and all("CSVs identical" in line for line in lines)
    assert all(line.endswith("at most 0 (relative)") for line in lines)
    for line in lines:  # each run's cost, parent first
        usage = re.search(r"max RSS (\S+) -> (\S+) MiB, minor faults (\d+) -> (\d+);", line)
        assert usage, line
        assert all(float(mib) > 10 for mib in usage.group(1, 2))  # at least the interpreter and numpy
        assert all(int(faults) > 0 for faults in usage.group(3, 4))


@pytest.mark.skipif(available_cpus() < 2, reason="a run forks workers only where it may use 2 CPUs")
def test_usage_counts_forked_workers(tool, tmp_path):
    """A run's faults include those of the workers the CLI forks: two
    processes over four chunks fault in more pages than one does."""
    serial, parallel = (tool.run_cli(ROOT / "src", tmp_path / str(w), "pure", 4 * 8192, 11, w) for w in (1, 2))
    assert serial.max_rss_mib > 10 and parallel.max_rss_mib > 10
    assert parallel.minor_faults > serial.minor_faults


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
    monkeypatch.setattr(tool, "CONFIGS", (("pure", 10, 100, 50),))
    (tmp_path / "entlab").mkdir()
    (tmp_path / "entlab" / "cli.py").write_text("raise SystemExit(3)\n")
    assert tool.main([str(ROOT), str(tmp_path), "--workers", "1"]) == 2
    assert "exited 3" in capsys.readouterr().err
