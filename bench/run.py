#!/usr/bin/env python3
"""End-to-end benchmark of the entlab CLI, with an optional traced run.

Usage (from the repository root):

    python3 bench/run.py --workload pure-serial --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --seed 1                      # every workload in turn

Each run starts the real CLI (`python3 -m entlab.cli`, sources from `src/`)
as a fresh process, one at a time, with the same inputs: a closed loop with
one client. With `--trace 0` it reports the end-to-end metrics; with
`--trace 1` it alternates plain runs with runs under `bench/tracer.py` and
reports per-layer metrics from the spans, plus the tracing overhead. Every
CLI run is checked (see `check_run`), and the last line printed is one JSON
object: {"correct", "attempted", "failed", "metrics"}. See bench/NOTES.md for
why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACER = Path(__file__).resolve().parent / "tracer.py"

CSV_FILES = ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv")
OUTPUT_FILES = CSV_FILES + ("summary.json",)
FAILURE_BUDGET = 1e-6  # the CLI's own per-trial numeric failure budget
PURE_MEAN_E0 = 1.0 / (3.0 * math.log(2.0))  # mean EoF of Haar-random pure two-qubit states
SETUP_REPEATS = 7
# The speed of a shared machine can drift by +-25% within minutes, far more
# than one run averages out. So a reference probe that does not touch the
# repository (a fresh interpreter importing numpy) runs next to each set-up
# probe between CLI runs, and every timing is rescaled by the median of the
# reference probes around it, to a machine on which the reference takes
# REFERENCE_S. Raw values are printed alongside.
REFERENCE_CODE = "import numpy"
REFERENCE_S = 0.15
# The parallel workload is cross-checked against a serial run at this size:
# three full chunks and one partial one, so chunk edges and several workers
# are exercised in a few seconds.
CHECK_TRIALS = 3 * 8192 + 1001
# BLAS/OpenMP pools are pinned to one thread so that the process count
# (1 or `workers`) is the thread count, and stays <= nproc.
THREAD_PINNING = {
    var: "1"
    for var in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "BLIS_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
        "NUMEXPR_NUM_THREADS",
    )
}

END_TO_END = {  # name: unit
    "trials_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}
# Failures are reported too, but not as bounded metrics: both are 0 on a
# healthy run. `failed_fraction` is also `failed` / `attempted` in the result.
FAILURE_METRICS = {
    "failed_fraction": "fraction",
    "numeric_failures_per_trial": "1/trial",
}
PER_LAYER = {
    "sampling.substream_us": "us/trial",
    "sampling.draw_us": "us/trial",
    "sampling.qr_us": "us/trial",
    "entanglement.eof_us": "us/state",
    "entanglement.states": "count",
    "gates.conjugate_us": "us/trial",
    "experiment.chunk_ms_p50": "ms",
    "experiment.chunk_ms_p90": "ms",
    "experiment.chunks": "count",
    "experiment.retries": "count",
    "experiment.pool_wait_s": "s",
    "experiment.worker_busy_fraction": "fraction",
    "experiment.concat_s": "s",
    "experiment.result_bytes": "bytes_computed",
    "experiment.reduce_us": "us/trial",
    "cli.write_ms": "ms",
    "cli.bytes_written": "bytes",
    "trace.trials_per_s": "1/s",
    "trace.overhead_fraction": "fraction",
}
# Counts that must come out identical from every run of one workload and seed.
EXACT_COUNTS = (
    "entanglement.states",
    "experiment.chunks",
    "experiment.retries",
    "experiment.result_bytes",
    "cli.bytes_written",
)


@dataclass(frozen=True)
class Workload:
    name: str
    ensemble: str
    workers: int
    trials: int  # per timed CLI run
    # When set, peak_rss_mb comes from one extra CLI run of this many trials
    # instead of from the timed runs.
    rss_trials: int | None = None

    def argv(self, seed: int, trials: int | None = None, workers: int | None = None) -> list[str]:
        return [
            "--ensemble", self.ensemble,
            "--workers", str(workers or self.workers),
            "--trials", str(trials or self.trials),
            "--seed", str(seed),
            "--output-dir", "out",
        ]


NPROC = len(os.sched_getaffinity(0))
WORKLOADS = {
    w.name: w
    for w in (
        Workload("pure-serial", "pure", 1, 16384),
        Workload("mixed-serial", "mixed", 1, 16384),
        Workload("pure-parallel", "pure", NPROC, 32768, rss_trials=524288),
    )
}


@dataclass
class Run:
    """One CLI run: what it cost and what it produced."""

    wall_s: float
    rss_mib: float
    status: int
    trials: int
    traced: bool
    problems: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    failures: int = 0


@dataclass
class Result:
    workload: str
    seed: int
    trace: bool
    metrics: dict[str, float]
    raw: dict[str, float]  # medians before rescaling to reference speed
    runs: list[Run]  # the measured runs
    checks: list[Run]  # untimed runs: the peak-RSS run and the parallel cross-check
    setup_samples: int
    rss_trials: int
    provenance: dict

    @property
    def attempted(self) -> int:
        return len(self.runs) + len(self.checks)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.runs + self.checks if r.problems)

    def metrics_json(self) -> dict:
        units = PER_LAYER if self.trace else END_TO_END
        return {k: {"value": self.metrics.get(k, math.nan), "unit": u} for k, u in units.items()}


def child_env() -> dict[str, str]:
    env = dict(os.environ, **THREAD_PINNING)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env


def spawn(argv: list[str], cwd: Path) -> tuple[float, float, int]:
    """Run a child to completion; returns (wall s, max RSS MiB, exit status).

    `os.wait4` reports the largest max-RSS of the child and of every
    descendant it waited for, so pool workers are included.
    """
    with open(cwd / "child.log", "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=log, stderr=subprocess.STDOUT)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def probe(code: str, cwd: Path) -> float:
    """Wall time of a fresh interpreter running `code`."""
    wall, _, status = spawn([sys.executable, "-c", code], cwd)
    if status != 0:
        raise RuntimeError(f"probe {code!r} exited with {status}: {(cwd / 'child.log').read_text()}")
    return wall


def setup_code(w: Workload, seed: int) -> str:
    """The set-up probe: import entlab.cli and parse the workload's flags."""
    return f"import entlab.cli as cli; cli.parse_args({w.argv(seed)!r})"


def _block_refs(timeline: list[tuple[str, float]], i: int, step: int) -> list[float]:
    """Reference probes from entry i outwards (step -1 or 1) up to the next
    CLI run: the probe block on that side."""
    refs = []
    i += step
    while 0 <= i < len(timeline) and timeline[i][0] != "cli":
        if timeline[i][0] == "ref":
            refs.append(timeline[i][1])
        i += step
    return refs


def rescaled(timeline: list[tuple[str, float]], kind: str) -> list[float]:
    """The wall time of each `kind` entry of the timeline ("setup" or "cli"),
    rescaled by the median reference of the probe blocks next to it."""
    out = []
    for i, (k, wall) in enumerate(timeline):
        if k == kind:
            refs = _block_refs(timeline, i, -1) + _block_refs(timeline, i, 1)
            out.append(wall * REFERENCE_S / statistics.median(refs))
    return out


def read_outputs(out: Path) -> dict[str, bytes]:
    return {name: (out / name).read_bytes() for name in OUTPUT_FILES if (out / name).exists()}


def _csv_rows(data: bytes) -> list[list[str]]:
    return [line.split(",") for line in data.decode().splitlines()[1:]]


def bytes_written(outputs: dict[str, bytes]) -> int:
    """Output bytes, less the digits of `wall_time_s`, whose count varies
    with timing; everything else is a function of the configuration."""
    size = sum(len(v) for v in outputs.values())
    m = re.search(rb'"wall_time_s": ([^,\n}]+)', outputs.get("summary.json", b""))
    return size - (len(m.group(1)) if m else 0)


def check_run(run: Run, ensemble: str, outputs: dict[str, bytes], reference: dict[str, bytes] | None) -> None:
    """Append to `run.problems` every way in which the run is wrong."""
    if run.status != 0:
        run.problems.append(f"exit status {run.status}")
        return
    missing = [n for n in OUTPUT_FILES if n not in outputs]
    if missing:
        run.problems.append(f"missing outputs {missing}")
        return
    summary = json.loads(outputs["summary.json"])
    run.failures = summary["failures"]
    if summary["failures"] > FAILURE_BUDGET * run.trials:
        run.problems.append(f"{summary['failures']} numeric failures exceed the budget")
    count_col = {"delta_hist.csv": 2, "e0_hist.csv": 2, "conditional_mean.csv": 3}
    for name, col in count_col.items():
        total = sum(int(row[col]) for row in _csv_rows(outputs[name]))
        if total != run.trials:
            run.problems.append(f"{name} counts sum to {total}, not {run.trials}")
    if reference is not None:
        for name in CSV_FILES:
            if outputs[name] != reference[name]:
                run.problems.append(f"{name} differs from the reference run")
    if ensemble == "pure":
        rows = _csv_rows(outputs["e0_hist.csv"])
        mids = [(float(r[0]) + float(r[1])) / 2.0 for r in rows]
        counts = [int(r[2]) for r in rows]
        mean = sum(m * c for m, c in zip(mids, counts)) / run.trials
        sd = math.sqrt(sum(c * (m - mean) ** 2 for m, c in zip(mids, counts)) / run.trials)
        se = sd / math.sqrt(run.trials)
        if abs(summary["mean_e0"] - PURE_MEAN_E0) > 5.0 * se:
            run.problems.append(f"mean_e0 {summary['mean_e0']:.6f} is over 5 SE from {PURE_MEAN_E0:.6f}")
    run.counts["cli.bytes_written"] = bytes_written(outputs)
    run.counts["experiment.retries"] = summary["failures"]


def _percentile(values: list[float], q: float) -> float:
    """Linear-interpolation percentile, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


class Span(NamedTuple):
    pid: int
    id: int
    parent: int
    name: str
    t0: int  # ns
    t1: int
    size: int

    @property
    def ns(self) -> int:
        return self.t1 - self.t0


class Sum(NamedTuple):
    """Summed per-trial calls under one span (see bench/tracer.py)."""

    pid: int
    parent: int
    name: str
    calls: int
    ns: int
    t0: int  # start of the first call
    t1: int  # end of the last call


def layer_metrics(trace_dir: Path, trials: int, workers: int) -> tuple[dict[str, float], dict[str, int]]:
    """Per-layer times and exact counts from the span files of one traced run."""
    spans: list[Span] = []
    sums: list[Sum] = []
    for path in trace_dir.glob("spans-*.json"):
        d = json.loads(path.read_text())
        spans += [Span(d["pid"], *s) for s in d["spans"]]
        sums += [Sum(d["pid"], *s) for s in d["sums"]]
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> int:
        return sum(s.ns for s in by_name.get(name, []))

    draw = 0
    for chunk in by_name.get("_sample_chunk", []):
        loop = [s for s in sums if s.pid == chunk.pid and s.parent == chunk.id]
        if loop:
            draw += max(s.t1 for s in loop) - chunk.t0 - sum(s.ns for s in loop if s.name == "generator")
    conjugate = 0
    for task in by_name["_chunk_task"]:
        kernels = [s for s in by_name["eof_batch"] if s.pid == task.pid and task.t0 <= s.t0 and s.t1 <= task.t1]
        first, second = sorted(kernels, key=lambda s: s.t0)[:2]
        conjugate += second.t0 - first.t1
    states = sum(s.size for s in by_name["eof_batch"]) + len(by_name.get("eof", []))
    (engine,) = by_name["run_ensemble"]
    (execute,) = by_name["execute"]
    (reduced,) = by_name["conditional_mean"]
    in_engine = sum(s.ns for s in spans if s.pid == engine.pid and s.parent == engine.id)
    chunk_ms = [s.ns / 1e6 for s in by_name["_chunk_task"]]
    per_trial_us = 1e-3 / trials
    layers = {
        "sampling.substream_us": sum(s.ns for s in sums if s.name == "generator") * per_trial_us,
        "sampling.draw_us": draw * per_trial_us,
        "sampling.qr_us": (total("qr") + total("haar_phase_fix")) * per_trial_us,
        "entanglement.eof_us": (total("eof_batch") + total("eof")) * 1e-3 / states,
        "gates.conjugate_us": conjugate * per_trial_us,
        "experiment.chunk_ms_p50": _percentile(chunk_ms, 0.5),
        "experiment.chunk_ms_p90": _percentile(chunk_ms, 0.9),
        "experiment.pool_wait_s": (engine.ns - in_engine) * 1e-9,
        "experiment.worker_busy_fraction": total("_chunk_task") / (workers * engine.ns),
        "experiment.concat_s": total("concatenate") * 1e-9,
        "experiment.reduce_us": sum(
            total(n) for n in ("histogram_delta", "entanglement_histogram", "conditional_mean")
        ) * per_trial_us,
        "cli.write_ms": (execute.t1 - reduced.t1) * 1e-6,
    }
    counts = {
        "entanglement.states": states,
        "experiment.chunks": len(by_name["_chunk_task"]),
        "experiment.result_bytes": engine.size + sum(s.size for s in by_name["_chunk_task"]),
    }
    return layers, counts


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def provenance() -> dict:
    return {
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity_cpus": NPROC,
        "thread_pinning": THREAD_PINNING,
        "loadavg_before": list(os.getloadavg()),
    }


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> Result:
    """One benchmark run of workload `w`; the CLI seed is derived from `seed`."""
    cli_seed = random.Random(seed).getrandbits(64)
    prov = provenance()
    cwd = WORK / f"{w.name}-{seed}-{os.getpid()}"
    if cwd.exists():
        shutil.rmtree(cwd)
    cwd.mkdir(parents=True)
    out, trace_dir = cwd / "out", cwd / "trace"
    runs: list[Run] = []

    def cli_run(traced: bool, reference: dict | None, trials: int = w.trials, workers: int = w.workers):
        for d in (out, trace_dir):
            if d.exists():
                shutil.rmtree(d)
        argv = [sys.executable, "-m", "entlab.cli", *w.argv(cli_seed, trials, workers)]
        if traced:
            trace_dir.mkdir()
            argv[1:3] = [str(TRACER), str(trace_dir)]
        run = Run(*spawn(argv, cwd), trials=trials, traced=traced)
        outputs = read_outputs(out)
        check_run(run, w.ensemble, outputs, reference)
        if traced and not run.problems:
            try:
                run.layers, counts = layer_metrics(trace_dir, trials, workers)
            except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
                run.problems.append(f"unreadable trace: {exc!r}")
            else:
                run.counts.update(counts)
        runs.append(run)
        return run, outputs

    # ("ref" | "setup" | "cli", wall seconds) in the order they ran
    timeline: list[tuple[str, float]] = []

    def probe_block() -> None:
        timeline.append(("ref", probe(REFERENCE_CODE, cwd)))
        timeline.append(("setup", probe(setup_code(w, cli_seed), cwd)))

    try:
        probe(setup_code(w, cli_seed), cwd)  # warm the file cache and bytecode before timing
        reference = None  # CSVs of the first good run; later runs must match them
        start = time.perf_counter()
        longest = 0.0
        while True:
            n_plain = sum(1 for r in runs if not r.traced)
            n_traced = len(runs) - n_plain
            done = n_plain >= 1 and (not trace or n_traced >= 2)
            if done and time.perf_counter() - start + longest > seconds:
                break
            if not trace:
                probe_block()
            run, outputs = cli_run(trace and 1 <= n_plain and n_traced <= n_plain, reference)
            timeline.append(("cli", run.wall_s))
            if reference is None and not run.problems:
                reference = outputs
            longest = max(longest, run.wall_s)
        measured = list(runs)
        while not trace and (timeline[-1][0] == "cli" or sum(k == "setup" for k, _ in timeline) < SETUP_REPEATS):
            probe_block()
        rss_runs = measured
        if w.rss_trials and not trace:
            rss_runs = [cli_run(False, None, w.rss_trials)[0]]
        if w.workers > 1:
            serial, serial_out = cli_run(False, None, CHECK_TRIALS, 1)
            parallel, _ = cli_run(False, None if serial.problems else serial_out, CHECK_TRIALS)
            if serial.problems:
                parallel.problems.append("no serial reference for the parallel cross-check")
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    prov["loadavg_after"] = list(os.getloadavg())

    for name in EXACT_COUNTS:
        seen = {r.counts[name] for r in measured if name in r.counts}
        if len(seen) > 1:
            for r in measured:
                r.problems.append(f"{name} differs between runs: {sorted(seen)}")

    plain = [r for r in measured if not r.traced]
    traced = [r for r in measured if r.traced]
    raw_tps = statistics.median(r.trials / r.wall_s for r in plain)
    setup = rescaled(timeline, "setup")
    raw = {
        "trials_per_s": raw_tps,
        "setup_s": statistics.median(v for k, v in timeline if k == "setup") if setup else math.nan,
        "reference_s": statistics.median(v for k, v in timeline if k == "ref") if setup else math.nan,
    }
    metrics = {
        "trials_per_s": raw_tps if trace else statistics.median(
            r.trials / wall for r, wall in zip(plain, rescaled(timeline, "cli"))
        ),
        "setup_s": statistics.median(setup) if setup else math.nan,
        "peak_rss_mb": statistics.median(r.rss_mib for r in rss_runs),
        "failed_fraction": sum(1 for r in runs if r.problems) / len(runs),
        "numeric_failures_per_trial": sum(r.failures for r in plain) / sum(r.trials for r in plain),
    }
    if trace:
        good = [r for r in traced if r.layers]
        if good:
            metrics.update({k: statistics.median(r.layers[k] for r in good) for k in good[0].layers})
            metrics.update({k: good[0].counts[k] for k in EXACT_COUNTS})
        traced_tps = statistics.median(r.trials / r.wall_s for r in traced)
        metrics["trace.trials_per_s"] = traced_tps
        metrics["trace.overhead_fraction"] = 1.0 - traced_tps / metrics["trials_per_s"]
    return Result(w.name, seed, trace, metrics, raw, measured, runs[len(measured):], len(setup),
                  rss_runs[0].trials, prov)


def _fmt(x: float) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def report(res: Result) -> list[str]:
    """Human-readable lines: provenance, every metric with its unit, and the
    problems of each failed run."""
    plain = [r for r in res.runs if not r.traced]
    tps = sorted(r.trials / r.wall_s for r in plain)
    scaled = f"at reference speed; raw {_fmt(res.raw['trials_per_s'])};" if not res.trace else "raw;"
    notes = {
        "trials_per_s": f"{scaled} median of {len(tps)} runs of {plain[0].trials} trials;"
        f" raw min {_fmt(tps[0])}, max {_fmt(tps[-1])}",
        "setup_s": f"at reference speed; raw {_fmt(res.raw['setup_s'])}; median of {res.setup_samples};"
        f" reference probe median {_fmt(res.raw['reference_s'])} s",
        "peak_rss_mb": f"median over runs of {res.rss_trials} trials",
        "failed_fraction": f"{res.failed} of {res.attempted} CLI runs",
    }
    shown = {**(PER_LAYER if res.trace else END_TO_END), **FAILURE_METRICS}
    if res.trace:
        shown = {"trials_per_s": END_TO_END["trials_per_s"], **shown}
        notes["trace.trials_per_s"] = f"median of {len(res.runs) - len(plain)} traced runs"
    lines = [
        f"# {res.workload} seed={res.seed} trace={int(res.trace)}",
        "provenance " + json.dumps(res.provenance, sort_keys=True),
    ]
    for name, unit in shown.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{res.workload} {name} {_fmt(res.metrics.get(name, math.nan))} {unit}{note}")
    lines += [f"FAILED run {i}: {p}" for i, r in enumerate(res.runs + res.checks) for p in r.problems]
    return lines


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not (SRC / "entlab" / "cli.py").is_file():
        print(f"error: no entlab sources under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        res = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        print("\n".join(report(res)), flush=True)
        results.append(res)
    if len(results) == 1:
        metrics = results[0].metrics_json()
    else:
        metrics = {f"{r.workload}.{k}": v for r in results for k, v in r.metrics_json().items()}
    failed = sum(r.failed for r in results)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r.attempted for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
