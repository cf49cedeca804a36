#!/usr/bin/env python3
"""Where a CLI process spends its time around the run: start-up, collections, main and exit.

Usage (from the repository root):

    python3 tools/startup_anatomy.py [--src SRC ...] [--runs N] [--seed S]

For each workload of `bench/run.py`, starts N fresh processes (default 11)
per tree, one at a time, each running `python -m entlab.cli` on the
workload's flags through `runpy`, with entlab imported from SRC (default:
this tree's `src/`) and BLAS threads pinned as the benchmark pins them.
`--src` may be given more than once: the trees then take turns process by
process within each workload, so that a change in the machine's load
between them moves every tree alike. The wrapper
around `runpy` counts and times the process's collections by `gc.callbacks`,
marks `run`'s call of `gc.freeze`, which comes right before `main`, and
registers an atexit handler before the CLI loads, which runs after `main`
has returned. `bench/tracer.py` runs `main` in-process and sees neither
the imports' collections nor the exit. One row per workload and tree,
labelled `<workload>:<k>` for the k-th `--src` when there are several,
gives the medians of:

- wall: from before the process starts to after it is reaped;
- start: from before the process starts to `gc.freeze`, i.e. interpreter
  start-up and the program's imports;
- gcs, gc_ms: the collections in the CLI process, and their time;
- main: from `gc.freeze` to the atexit handler;
- exit: from the atexit handler to the process reaped;
- setup: the wall time of one more fresh process, run after each CLI
  process, on the benchmark's set-up probe for the workload
  (`bench/run.py`'s `setup_code`: import entlab.cli and parse the
  workload's flags), so a start-up change can be read per workload without
  `bench/run.py`, which times the same probe as `setup_s` (rescaled there).

The process marks are `time.monotonic`, which on Linux is one clock for all
processes. To compare two trees, give both in one invocation, and delete
`src/**/__pycache__` in both first:
a tree that holds compiled bytecode imports faster, even where
PYTHONDONTWRITEBYTECODE keeps it from writing any, and the tool warns when
it finds some.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WRAPPER = """
import atexit, gc, json, runpy, sys, time
marks, collections = {}, []
gc.callbacks.append(lambda phase, info: collections.append((phase, time.monotonic())))
freeze = gc.freeze
def marked_freeze():
    marks.setdefault("main", time.monotonic())
    freeze()
gc.freeze = marked_freeze
def report():
    marks["atexit"] = time.monotonic()
    starts = [t for phase, t in collections if phase == "start"]
    stops = [t for phase, t in collections if phase == "stop"]
    print(json.dumps({**marks, "gcs": len(starts), "gc_s": sum(b - a for a, b in zip(starts, stops))}))
atexit.register(report)
sys.argv = ["entlab", *sys.argv[1:]]
runpy.run_module("entlab.cli", run_name="__main__", alter_sys=True)
"""
COLUMNS = ("wall_ms", "start_ms", "gcs", "gc_ms", "main_ms", "exit_ms", "setup_ms")


def load_bench():
    """`bench/run.py` as a module, for its workloads and thread pinning."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def anatomy(argv: list[str], env: dict[str, str], cwd: str) -> dict[str, float]:
    """One process's row: the COLUMNS of one CLI run on `argv`."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", WRAPPER, *argv], env=env, cwd=cwd, capture_output=True, text=True)
    reaped = time.monotonic()
    if done.returncode != 0:
        raise RuntimeError(f"the CLI exited with {done.returncode}: {done.stderr}")
    marks = json.loads(done.stdout.splitlines()[-1])
    return {
        "wall_ms": 1e3 * (reaped - t0),
        "start_ms": 1e3 * (marks["main"] - t0),
        "gcs": marks["gcs"],
        "gc_ms": 1e3 * marks["gc_s"],
        "main_ms": 1e3 * (marks["atexit"] - marks["main"]),
        "exit_ms": 1e3 * (reaped - marks["atexit"]),
    }


def setup_ms(code: str, env: dict[str, str], cwd: str) -> float:
    """The wall time of a fresh interpreter running `code`, in ms."""
    t0 = time.monotonic()
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, capture_output=True, text=True)
    reaped = time.monotonic()
    if done.returncode != 0:
        raise RuntimeError(f"the set-up probe exited with {done.returncode}: {done.stderr}")
    return 1e3 * (reaped - t0)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a tree entlab is imported from, one row per workload each (default: this tree's src/)")
    parser.add_argument("--runs", type=int, default=11, help="fresh processes per workload (default 11)")
    parser.add_argument("--seed", type=int, default=1, help="the workloads' seed (default 1)")
    args = parser.parse_args(argv)
    trees = args.src or [ROOT / "src"]
    for src in trees:
        if next(src.rglob("__pycache__"), None) is not None:
            print(f"warning: {src} holds __pycache__, which speeds its imports", file=sys.stderr)
    bench = load_bench()
    envs = [dict(os.environ, **bench.THREAD_PINNING, PYTHONPATH=str(src.resolve())) for src in trees]
    print(f"{'workload':<16}" + "".join(f"{c:>10}" for c in COLUMNS))
    with tempfile.TemporaryDirectory() as cwd:
        for name, workload in bench.WORKLOADS.items():
            setup = bench.setup_code(workload, args.seed)
            rows = [[] for _ in trees]
            for _ in range(args.runs):
                for tree_rows, env in zip(rows, envs):
                    tree_rows.append({**anatomy(workload.argv(args.seed), env, cwd), "setup_ms": setup_ms(setup, env, cwd)})
            for k, tree_rows in enumerate(rows, 1):
                medians = [statistics.median(row[c] for row in tree_rows) for c in COLUMNS]
                label = f"{name}:{k}" if len(trees) > 1 else name
                print(f"{label:<16}" + "".join(f"{m:>10.4g}" for m in medians))
    return 0


if __name__ == "__main__":
    sys.exit(main())
