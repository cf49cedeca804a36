"""Run the entlab CLI with spans recorded around the callables it looks up.

Usage: python3 bench/tracer.py TRACE_DIR [entlab arguments ...]

The program is not changed. Before `entlab.cli.main` runs, this module
replaces names in the `entlab.experiment` and `entlab.cli` namespaces (and
the `RandomStream.generator` property) with wrappers that record a span per
call: (id, parent id, name, start ns, end ns, size). Calls made once per
trial are summed per (parent span, name) instead, as (parent id, name, calls,
total ns, first start ns, last end ns), which keeps memory O(chunks) rather
than O(trials). Spans stay in memory and each process writes its own
`spans-<pid>.json` into TRACE_DIR when it ends:
the CLI process after `main` returns, pool workers through a
`multiprocessing` finalizer, which runs when a worker exits normally.

Worker spans rely on the workers inheriting the wrappers, which holds for
the fork start method that `ProcessPoolExecutor` uses on Linux. Times come
from `time.perf_counter_ns`, which is CLOCK_MONOTONIC on Linux and so
comparable between processes.
"""

from __future__ import annotations

import json
import multiprocessing.util
import os
import sys
import time
from pathlib import Path


class Recorder:
    """Spans of one process; a forked child starts an empty list of its own."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self._start(os.getpid())

    def _start(self, pid: int) -> None:
        self.pid = pid
        self.spans: list[tuple] = []
        self.sums: dict[tuple[int, str], list[int]] = {}
        self.stack = [0]
        self.next_id = 1

    def enter_process(self) -> None:
        """Called on the first span in a forked worker: drop the parent's
        spans and arrange for this process's spans to be written at exit."""
        self._start(os.getpid())
        multiprocessing.util.Finalize(None, self.write, exitpriority=10)

    def write(self) -> None:
        path = self.out_dir / f"spans-{self.pid}.json"
        sums = [[parent, name, *acc] for (parent, name), acc in self.sums.items()]
        path.write_text(json.dumps({"pid": self.pid, "spans": self.spans, "sums": sums}))

    def wrap(self, name, fn, size=None):
        """`fn` with a span around each call; `size(args, result)` gives the
        span's item count (0 when not given)."""

        def traced(*args, **kwargs):
            if self.pid != os.getpid():
                self.enter_process()
            sid = self.next_id
            self.next_id += 1
            parent = self.stack[-1]
            self.stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                self.stack.pop()
            self.spans.append((sid, parent, name, t0, t1, size(args, out) if size else 0))
            return out

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced

    def wrap_summed(self, name, fn):
        """`fn` with its calls summed under the enclosing span; the calls get
        no span id, so nested summed calls share that parent too."""

        def traced(*args, **kwargs):
            if self.pid != os.getpid():
                self.enter_process()
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                acc = self.sums.get((self.stack[-1], name))
                if acc is None:
                    self.sums[(self.stack[-1], name)] = [1, t1 - t0, t0, t1]
                else:
                    acc[0] += 1
                    acc[1] += t1 - t0
                    acc[3] = t1

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        return traced


class _Namespace:
    """Stands in for a module inside one namespace: selected attributes are
    replaced, every other lookup goes to the module."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(rec: Recorder) -> None:
    import numpy as np

    import entlab.cli as cli
    import entlab.experiment as experiment

    stream = experiment.RandomStream
    stream.generator = property(rec.wrap_summed("generator", stream.generator.fget))
    experiment.pure_state_vector = rec.wrap_summed("pure_state_vector", experiment.pure_state_vector)
    for name in ("haar_phase_fix", "_sample_chunk"):
        setattr(experiment, name, rec.wrap(name, getattr(experiment, name)))
    experiment.eof_batch = rec.wrap("eof_batch", experiment.eof_batch, lambda a, out: len(a[0]))
    experiment.eof = rec.wrap("eof", experiment.eof, lambda a, out: 1)
    experiment._chunk_task = rec.wrap(
        "_chunk_task", experiment._chunk_task, lambda a, out: out[0].nbytes + out[1].nbytes
    )
    experiment.np = _Namespace(
        np,
        concatenate=rec.wrap("concatenate", np.concatenate),
        linalg=_Namespace(np.linalg, qr=rec.wrap("qr", np.linalg.qr)),
    )
    cli.run_ensemble = rec.wrap(
        "run_ensemble", cli.run_ensemble, lambda a, out: out.e0.nbytes + out.ef.nbytes + out.delta.nbytes
    )
    for name in (
        "histogram_delta",
        "entanglement_histogram",
        "conditional_mean",
        "_write_histogram_csv",
        "_write_profile_csv",
        "execute",
    ):
        setattr(cli, name, rec.wrap(name, getattr(cli, name)))


def main(argv: list[str]) -> int:
    rec = Recorder(Path(argv[0]))
    install(rec)
    import entlab.cli

    try:
        return entlab.cli.main(argv[1:])
    finally:
        rec.write()


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
