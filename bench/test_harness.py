"""Self-test of the benchmark harness, at a few thousand trials per run.

    PYTHONPATH=src python3 -m pytest -q bench/test_harness.py

Checks that every metric in BENCHMARK.json is printed with its unit, that
exact counts repeat, that the output check rejects tampered CSVs, and that
the harness refuses to run without the entlab sources.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
TINY = 2 * 8192 + 5  # two full chunks and a partial one, so the pool is used


def tiny(name: str) -> bench.Workload:
    w = bench.WORKLOADS[name]
    return dataclasses.replace(w, trials=TINY, rss_trials=w.rss_trials and 2 * TINY)


def printed(lines: list[str], workload: str, name: str, unit: str) -> float:
    hits = [line.split() for line in lines if line.startswith(f"{workload} {name} ")]
    assert len(hits) == 1, f"{name} printed {len(hits)} times"
    assert hits[0][3] == unit
    return float(hits[0][2])


def test_spec_matches_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_end_to_end_metrics_are_printed_with_units(name):
    res = bench.measure(tiny(name), seed=3, seconds=0, trace=False)
    lines = bench.report(res)
    assert res.failed == 0, lines
    for metric, unit in {**bench.END_TO_END, **bench.FAILURE_METRICS}.items():
        value = printed(lines, name, metric, unit)
        assert math.isfinite(value)
    assert printed(lines, name, "failed_fraction", "fraction") == 0.0
    out = res.metrics_json()
    assert set(out) == set(bench.END_TO_END)
    assert all(v["value"] > 0 for v in out.values())


def test_traced_run_prints_every_layer_and_repeats_exact_counts():
    w = tiny("pure-parallel")
    first = bench.measure(w, seed=5, seconds=0, trace=True)
    second = bench.measure(w, seed=5, seconds=0, trace=True)
    lines = bench.report(first)
    assert first.failed == 0 and second.failed == 0, lines
    for metric, unit in bench.PER_LAYER.items():
        assert math.isfinite(printed(lines, w.name, metric, unit))
    assert set(first.metrics_json()) == set(bench.PER_LAYER)
    for name in bench.EXACT_COUNTS:
        assert first.metrics[name] == second.metrics[name], name
    assert first.metrics["entanglement.states"] == 2 * TINY
    assert first.metrics["experiment.chunks"] == 3
    assert first.metrics["experiment.worker_busy_fraction"] > 0.0


def test_output_check_rejects_tampered_csv(tmp_path):
    w = tiny("pure-serial")
    run = bench.Run(*bench.spawn([sys.executable, "-m", "entlab.cli", *w.argv(11)], tmp_path), TINY, False)
    outputs = bench.read_outputs(tmp_path / "out")
    bench.check_run(run, w.ensemble, outputs, reference=outputs)
    assert run.problems == []

    rows = outputs["delta_hist.csv"].decode().splitlines()
    lo, hi, count, density = rows[60].split(",")
    # a changed density: the counts still add up, only the reference catches it
    changed = dict(outputs, **{"delta_hist.csv": outputs["delta_hist.csv"].replace(
        rows[60].encode(), f"{lo},{hi},{count},{density}1".encode())})
    # a moved count: caught by the sum check even without a reference
    moved = dict(outputs, **{"delta_hist.csv": outputs["delta_hist.csv"].replace(
        rows[60].encode(), f"{lo},{hi},{int(count) + 1},{density}".encode())})
    for tampered, reference in ((changed, outputs), (moved, None)):
        bad = bench.Run(run.wall_s, run.rss_mib, 0, TINY, False)
        bench.check_run(bad, w.ensemble, tampered, reference)
        assert any("delta_hist.csv" in p for p in bad.problems), bad.problems


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(bench.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pure-serial", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
