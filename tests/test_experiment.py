import errno
import json
import math
import os
import shutil
import signal
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlab import experiment, sampling
from entlab.cli import RunConfig, main
from entlab.entanglement import eof_from_concurrence
from entlab.errors import NumericError, ResourceError, UsageError
from entlab.experiment import (
    CHUNK_SIZE,
    MIN_OCCUPANCY,
    RETRY_STRIDE,
    Binned,
    EnsembleResult,
    EnsembleSpec,
    Histogram,
    _Arrays,
    _bin_indices,
    _chunk_task,
    _exact_sum,
    _limbs,
    conditional_mean,
    histogram_delta,
    run_ensemble,
)
from entlab.gates import UnitaryGate, circuit
from entlab.qstate import DensityMatrix, PureState, ket
from entlab.sampling import RandomStream, mixed_state_matrix, pure_state_vector, sample_chunk

from conftest import (
    assert_no_children,
    definition_concurrence,
    definition_eof,
    fail_at,
    in_children,
    poison_draws,
    run_outputs,
    sigkill,
)

# the definition route loses half its digits on rank-1 (pure) states
REFERENCE_TOL = {"pure": 1e-6, "mixed": 1e-10}


def result(e0, ef) -> EnsembleResult:
    return EnsembleResult(e0=np.asarray(e0, dtype=float), ef=np.asarray(ef, dtype=float))


def words(acc: np.ndarray) -> np.ndarray:
    """The int64 words of a 0-d accumulator record, in layout order: a
    record's `tolist()` gives arrays, whose `==` is ambiguous."""
    return acc.reshape(1).view(np.int64)


def forced_trial(monkeypatch, kind, draw) -> tuple[float, float]:
    """(E_0, E_F) of one trial run by the engine, with its raw draw replaced
    by `draw(kind, seed, streams)`, which returns the fields of the one
    trial's record; the chunk-level raw draw is replaced the way
    `conftest.poison_draws` replaces it."""

    def forced(kind, seed, streams):
        return np.array([draw(kind, seed, streams)], dtype=sampling.DRAW_RECORD[kind])

    monkeypatch.setattr(sampling, "draw_chunk", forced)
    e0, ef, failures = _chunk_task(kind, 1, 0, 1)
    assert failures == 0
    return e0[0], ef[0]


def reference_trial(kind, seed: int, stream: int) -> np.ndarray:
    """(E_0, E_F) of the trial drawn from `stream`, by Wootters' definition:
    shares the draw with the engine but none of its kernel."""
    rng = RandomStream(seed, stream)
    if kind == "pure":
        v = pure_state_vector(rng)
        rho = np.outer(v, v.conj())
    else:
        rho = mixed_state_matrix(rng)
    u = circuit().matrix
    return definition_eof(definition_concurrence(np.stack([rho, u @ rho @ u.conj().T])))


class TestRunTrial:
    """One trial through the engine's `_chunk_task`, on forced or sampled draws."""

    def test_forced_ground_state(self, monkeypatch):
        e0, ef = forced_trial(monkeypatch, "pure", lambda *_: (np.array([[1.0, 0, 0, 0], [0, 0, 0, 0]]),))
        assert e0 == pytest.approx(0.0, abs=1e-12)
        assert ef == pytest.approx(1.0, abs=1e-9)

    def test_forced_maximally_mixed(self, monkeypatch):
        # uniforms (1/4, 1/2, 3/4) space the simplex evenly, so rho = U (I/4) U^dag
        draw_chunk = sampling.draw_chunk
        forced = forced_trial(
            monkeypatch, "mixed", lambda *args: (draw_chunk(*args)["normals"][0], np.array([0.25, 0.5, 0.75]))
        )
        assert forced == (0.0, 0.0)

    def test_forced_bell_state(self, monkeypatch):
        e0, ef = forced_trial(monkeypatch, "pure", lambda *_: (np.array([[1.0, 0, 0, 1], [0, 0, 0, 0]]),))
        assert e0 == pytest.approx(1.0, abs=1e-9)
        # cross-check the final EoF against the pure-state closed form 2|ad - bc|
        a, b, c, d = circuit().matrix @ np.array([1, 0, 0, 1]) / np.sqrt(2)
        expected = eof_from_concurrence(2 * abs(a * d - b * c))
        assert ef == pytest.approx(expected, abs=1e-9)

    def test_sampled_trials_consistent(self):
        e0, ef, failures = _chunk_task("pure", 2, 0, 50)
        assert failures == 0
        assert np.all((e0 >= 0) & (e0 <= 1)) and np.all((ef >= 0) & (ef <= 1))
        for t in range(50):
            assert (e0[t], ef[t]) == pytest.approx(reference_trial("pure", 2, t), abs=REFERENCE_TOL["pure"])


class TestEnsembleSpec:
    def test_rejects_zero_trials(self):
        with pytest.raises(UsageError):
            EnsembleSpec("pure", 0, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(UsageError):
            EnsembleSpec("thermal", 10, 1)

    def test_seed_range(self):
        EnsembleSpec("pure", 10, 0)
        EnsembleSpec("pure", 10, 2**64 - 1)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(UsageError, match="seed"):
                EnsembleSpec("pure", 10, seed)

    @pytest.mark.parametrize(
        "trials,seed", [(100, 1.7), (10.5, 1), (100, 2.0), (np.float64(10), 1), (100, "3"), (True, 1), (100, True)]
    )
    def test_rejects_non_integers(self, trials, seed):
        # as RandomStream does: a whole float or a bool would run, and a fraction fail deep inside the run
        with pytest.raises(UsageError, match="must be an integer in"):
            EnsembleSpec("pure", trials, seed)

    def test_accepts_numpy_integers(self):
        spec = EnsembleSpec("pure", np.int64(3), np.uint64(2**64 - 1))
        assert len(run_ensemble(spec)) == 3


def value_instances():
    """One instance of each of the package's value classes, by name."""
    res = run_ensemble(EnsembleSpec("pure", 300, 1))
    return {
        "RunConfig": RunConfig("pure", 10, 1, 2, 2, 1, "out"),
        "EnsembleSpec": EnsembleSpec("pure", 10, 1),
        "EnsembleResult": res,
        "Histogram": conditional_mean(res, 4),
        "DeltaHistogram": histogram_delta(res, 4),
        "UnitaryGate": circuit(),
        "PureState": ket("01"),
        "DensityMatrix": DensityMatrix(np.eye(4) / 4),
        "RandomStream": RandomStream(1, 2),
    }


def test_value_classes_are_frozen():
    """Every value class refuses assignment and deletion after construction,
    so the circuit gate that `circuit()` caches for the whole process cannot
    be changed through one caller, while `delta` still caches."""
    values = value_instances()
    assert sorted({type(v).__name__ for v in values.values()}) == sorted(values)
    for name, value in values.items():
        field = next(iter(vars(value)))
        before = vars(value)[field]
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert vars(value)[field] is before, name
    res = values["EnsembleResult"]
    assert res.delta is res.delta
    with pytest.raises(ValueError, match="read-only"):  # nor through its array
        circuit().matrix[0, 0] = 5


@pytest.mark.parametrize(
    "cls, field, array",
    [
        (UnitaryGate, "matrix", np.eye(4, dtype=complex)),
        (PureState, "amplitudes", np.array([1, 0, 0, 0], dtype=complex)),
        (DensityMatrix, "matrix", np.eye(4, dtype=complex) / 4),
    ],
)
def test_value_class_arrays_are_read_only(cls, field, array):
    """A value's array refuses writes, and it is not the caller's array: the
    caller's stays writable, and a later write to it does not reach the value."""
    value = cls(array)
    stored = getattr(value, field)
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 5
    array[0] = 7
    assert stored.flat[0] != 7


class TestRunEnsemble:
    def test_single_trial(self):
        res = run_ensemble(EnsembleSpec("mixed", 1, 3))
        assert len(res) == 1

    def test_deterministic(self):
        a = run_ensemble(EnsembleSpec("mixed", 2000, 4))
        b = run_ensemble(EnsembleSpec("mixed", 2000, 4))
        assert np.array_equal(a.e0, b.e0)
        assert np.array_equal(a.ef, b.ef)
        assert np.array_equal(a.delta, b.delta)

    def test_worker_count_does_not_change_results(self):
        # chunk edges, and (at 1 and CHUNK_SIZE trials) more workers than chunks
        for trials in (1, CHUNK_SIZE, 20_000, 2 * CHUNK_SIZE + 5):
            spec = EnsembleSpec("pure", trials, 5)
            seq = run_ensemble(spec, workers=1)
            assert len(seq) == trials
            for workers in (2, 3):
                par = run_ensemble(spec, workers=workers)
                assert np.array_equal(seq.e0, par.e0)
                assert np.array_equal(seq.ef, par.ef)

    def test_pool_no_larger_than_chunk_count(self, monkeypatch):
        started, fork = [], os.fork

        def recording():
            started.append(None)
            return fork()

        monkeypatch.setattr(os, "fork", recording)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        res = run_ensemble(EnsembleSpec("pure", 2 * CHUNK_SIZE, 5), workers=4)
        # two chunks: this process and one child; a third and fourth process would sit idle
        assert len(started) == 1
        assert len(res) == 2 * CHUNK_SIZE
        assert res.processes == 2
        # and no larger than the CPUs this process may run on
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        res = run_ensemble(EnsembleSpec("pure", 3 * CHUNK_SIZE, 5), workers=64)
        assert len(started) == 2
        assert len(res) == 3 * CHUNK_SIZE
        assert res.processes == 2
        # one chunk runs in this process, whatever was asked for
        assert run_ensemble(EnsembleSpec("pure", 100, 5), workers=64).processes == 1
        assert len(started) == 2
        assert_no_children()

    def test_serial_where_fork_does_not_exist(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        spec = EnsembleSpec("pure", 2 * CHUNK_SIZE + 5, 5)
        serial = run_ensemble(spec, workers=1)
        monkeypatch.delattr(os, "fork")
        res = run_ensemble(spec, workers=2)
        assert res.processes == 1
        assert np.array_equal(res.e0, serial.e0) and np.array_equal(res.ef, serial.ef)

    @pytest.mark.parametrize("workers", [2.5, 0, -3, True, "2"])
    def test_rejects_bad_workers(self, monkeypatch, workers):
        # with CPUs to spare, 2.5 reached the shared mapping's size as a float, and -3 ran serially
        monkeypatch.setattr(experiment, "available_cpus", lambda: 8)
        with pytest.raises(UsageError, match="workers must be an integer in"):
            run_ensemble(EnsembleSpec("pure", 40_000, 5), workers=workers)

    def test_matches_scalar_trials(self):
        res = run_ensemble(EnsembleSpec("mixed", 64, 6))
        for t in (0, 17, 63):
            assert (res.e0[t], res.ef[t]) == pytest.approx(reference_trial("mixed", 6, t), abs=REFERENCE_TOL["mixed"])

    def test_bounds_and_purity_preservation(self):
        res = run_ensemble(EnsembleSpec("pure", 1000, 7))
        assert np.all((res.e0 >= 0) & (res.e0 <= 1))
        assert np.all((res.ef >= 0) & (res.ef <= 1))
        assert np.all((res.delta >= -1) & (res.delta <= 1))
        # pure inputs stay pure, so the closed-form oracle applies to every trial
        u = circuit().matrix
        for t in range(1000):
            v = u @ pure_state_vector(RandomStream(7, t))
            expected = eof_from_concurrence(2 * abs(v[0] * v[3] - v[1] * v[2]))
            assert res.ef[t] == pytest.approx(expected, abs=1e-9)


class TestWorkers:
    """The forked processes of a run: each stops at its first chunk that
    raises, and the caller then reruns every chunk no process finished, in
    chunk order, so it raises the lowest failing chunk's error as a serial
    run does; their counts add up as in a serial run, and none outlives the
    run."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        yield
        assert_no_children()

    def test_numeric_error_in_a_child_reaches_the_caller(self, monkeypatch):
        # chunk 1 is the child's: it fails there first, then in the caller
        fail_at(monkeypatch, {CHUNK_SIZE: NumericError(f"chunk {CHUNK_SIZE} failed")})
        with pytest.raises(NumericError, match=f"^chunk {CHUNK_SIZE} failed$"):
            run_ensemble(EnsembleSpec("pure", 2 * CHUNK_SIZE, 5), workers=2)

    @pytest.mark.parametrize("failing", [(1,), (1, 2)], ids=["chunk 1", "chunks 1 and 2"])
    def test_error_as_in_a_serial_run(self, monkeypatch, failing):
        """Any exception type arrives as itself, with its message, not
        renamed by a report from the worker. Where several chunks fail, the
        lowest one is named, though at two workers the caller meets its own
        chunk 2 before it reaps the child that failed at chunk 1."""
        fail_at(monkeypatch, {c * CHUNK_SIZE: UsageError(f"chunk {c} failed") for c in failing})
        spec = EnsembleSpec("pure", 4 * CHUNK_SIZE, 5)
        raised = []
        for workers in (1, 2):
            with pytest.raises(Exception) as info:
                run_ensemble(spec, workers=workers)
            raised.append((type(info.value), str(info.value)))
        assert raised == [(UsageError, "chunk 1 failed")] * 2

    @pytest.mark.parametrize(
        "where, finished",
        [("a child", ([0, 2, 4, 3, 5], [1])), ("the caller", ([0, 2, 4], [1, 3, 5]))],
        ids=["a child", "the caller"],
    )
    def test_failure_in_one_process_only_costs_time(self, monkeypatch, tmp_path, where, finished):
        """A chunk that fails once, in one process only, as on memory only it
        ran short of, is run again by the caller: the run succeeds, with the
        results and the failure count of a serial run. A child stops at its
        failure and the caller runs the rest of its share; the caller tries
        its own unfinished chunks once more and leaves the child running, so
        each process finishes the chunks in `finished` (the caller's, then
        the child's), though the child is slow enough that the caller fails
        long before the child's share is done. The same failure in a CLI
        run, whose processes fold their chunks into sums, leaves every
        output as a serial run's: no chunk counted twice or lost."""
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {c * CHUNK_SIZE + c for c in range(6)})  # one redraw per chunk
        spec = EnsembleSpec("pure", 5 * CHUNK_SIZE + 7, 8)
        serial = run_ensemble(spec, workers=1)
        argv = ["--trials", str(spec.trials), "--seed", "8", "--delta-bins", "20", "--e0-bins", "10"]
        assert main([*argv, "--workers", "1", "--output-dir", str(tmp_path / "serial")]) == 0
        second = {"a child": 3, "the caller": 2}[where] * CHUNK_SIZE  # of the child's chunks 1, 3, 5 or the caller's 0, 2, 4
        task, caller, raised = experiment._chunk_task, os.getpid(), []
        logs = tmp_path / "logs"

        def exhausted(kind, seed, start, count):
            in_caller = os.getpid() == caller
            if not in_caller:
                time.sleep(0.05)
            if start == second and in_caller == (where == "the caller") and not raised:  # once, in that process
                raised.append(start)
                raise MemoryError
            out = task(kind, seed, start, count)
            with open(logs / ("caller" if in_caller else "child"), "a") as log:
                log.write(f"{start // CHUNK_SIZE}\n")
            return out

        def finished_chunks():
            return tuple([int(c) for c in (logs / name).read_text().split()] for name in ("caller", "child"))

        monkeypatch.setattr(experiment, "_chunk_task", exhausted)
        logs.mkdir()
        par = run_ensemble(spec, workers=2)
        assert par.processes == 2
        assert serial.failures == par.failures == 6
        assert np.array_equal(serial.e0, par.e0) and np.array_equal(serial.ef, par.ef)
        assert finished_chunks() == finished

        raised.clear()
        shutil.rmtree(logs)
        logs.mkdir()
        assert main([*argv, "--workers", "2", "--output-dir", str(tmp_path / "par")]) == 0
        assert finished_chunks() == finished
        assert run_outputs(tmp_path / "par") == run_outputs(tmp_path / "serial")
        assert json.loads((tmp_path / "par" / "summary.json").read_text())["failures"] == 6

    def test_no_pipe(self, monkeypatch):
        """A worker reports through the shared mapping alone."""

        def refused():
            raise OSError(errno.EMFILE, "Too many open files")

        monkeypatch.setattr(os, "pipe", refused)
        spec = EnsembleSpec("pure", 2 * CHUNK_SIZE + 5, 5)
        par = run_ensemble(spec, workers=2)
        serial = run_ensemble(spec, workers=1)
        assert par.processes == 2
        assert np.array_equal(serial.e0, par.e0) and np.array_equal(serial.ef, par.ef)

    @pytest.mark.parametrize("workers", [2, 6])
    def test_child_retries_count_as_in_a_serial_run(self, monkeypatch, workers):
        # one redraw in each of 6 chunks; at 6 workers, more processes than this machine may have cores
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {c * CHUNK_SIZE + c for c in range(6)})
        spec = EnsembleSpec("pure", 5 * CHUNK_SIZE + 7, 8)
        serial, par = run_ensemble(spec, workers=1), run_ensemble(spec, workers=workers)
        assert par.processes == workers
        assert serial.failures == par.failures == 6
        assert np.array_equal(serial.e0, par.e0) and np.array_equal(serial.ef, par.ef)

    def test_killed_child_is_a_resource_error(self, monkeypatch):
        in_children(monkeypatch, sigkill)
        with pytest.raises(ResourceError, match=f"killed by signal {int(signal.SIGKILL)}"):
            run_ensemble(EnsembleSpec("pure", CHUNK_SIZE + 1, 5), workers=2)

    def test_refused_fork_is_a_resource_error(self, monkeypatch):
        # the second fork fails: the first child is stopped, and the error names the cause
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        fork, started = os.fork, []

        def second_refused():
            if started:
                raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")
            started.append(fork())
            return started[-1]

        monkeypatch.setattr(os, "fork", second_refused)
        with pytest.raises(ResourceError, match="could not start a worker process"):
            run_ensemble(EnsembleSpec("pure", 3 * CHUNK_SIZE, 5), workers=3)
        assert len(started) == 1
        with pytest.raises(ChildProcessError):  # reaped
            os.waitpid(started[0], os.WNOHANG)

    def test_worker_runs_its_own_finalizers_only(self, monkeypatch, tmp_path):
        """Where `multiprocessing.util` is loaded, as bench/tracer.py loads it,
        a worker runs the `Finalize` hooks registered in it when it exits,
        and none it inherited from this process."""
        import multiprocessing.util

        def mark(tag):
            (tmp_path / f"{tag}-{os.getpid()}").touch()

        inherited = multiprocessing.util.Finalize(None, mark, args=("parent",), exitpriority=10)
        in_children(monkeypatch, lambda start: multiprocessing.util.Finalize(None, mark, args=("worker",), exitpriority=10))
        try:
            assert run_ensemble(EnsembleSpec("pure", CHUNK_SIZE + 1, 5), workers=2).processes == 2
        finally:
            inherited.cancel()
        marks = [path.name.split("-") for path in tmp_path.iterdir()]
        assert len(marks) == 1 and marks[0][0] == "worker" and int(marks[0][1]) != os.getpid()

    def test_children_stopped_when_this_process_fails(self, monkeypatch):
        def interrupted(kind, seed, start, count):
            raise KeyboardInterrupt

        monkeypatch.setattr(experiment, "_chunk_task", interrupted)
        in_children(monkeypatch, lambda start: time.sleep(60))  # killed long before this ends
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            run_ensemble(EnsembleSpec("pure", CHUNK_SIZE + 1, 5), workers=2)
        assert time.monotonic() - t0 < 30


def this_cpu() -> int:
    """The CPU this process last ran on: field 39 of /proc/self/stat."""
    with open("/proc/self/stat") as stat:
        return int(stat.read().rsplit(")", 1)[1].split()[36])


class TestPlacement:
    """A run of P processes moves process p onto the p-th CPU it may run on,
    then lets it run on all of them again: the caller before it forks, each
    worker before its first chunk. A one-process run places nothing, and a
    refused placement costs nothing."""

    @pytest.fixture
    def log(self, monkeypatch, tmp_path):
        """`log(record=False)` logs each process's chunks from then on, and
        its `os.sched_setaffinity` calls (made or, with `record`, only
        recorded), as `pid kind values` lines; it returns a reader of {pid:
        {kind: [values, ...]}}."""
        path = tmp_path / "log"
        task, setaffinity = experiment._chunk_task, getattr(os, "sched_setaffinity", None)

        def write(kind, values):
            with open(path, "a") as out:
                out.write(f"{os.getpid()} {kind} {' '.join(map(str, values))}\n")

        def chunk_task(kind, seed, start, count):
            write("chunk", [start // CHUNK_SIZE])
            return task(kind, seed, start, count)

        def placed(pid, cpus, record=False):
            write("set", sorted(cpus))
            if not record:
                setaffinity(pid, cpus)

        def start(record=False):
            monkeypatch.setattr(experiment, "_chunk_task", chunk_task)
            if record or setaffinity is not None:
                monkeypatch.setattr(os, "sched_setaffinity", lambda pid, cpus: placed(pid, cpus, record), raising=False)
            return lambda: entries(path)

        return start

    @pytest.mark.parametrize("cpus", [{0, 1}, {0, 1, 2}])
    def test_each_process_placed_then_widened(self, monkeypatch, log, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        read = log(record=True)
        spec = EnsembleSpec("pure", 2 * len(cpus) * CHUNK_SIZE, 5)
        assert run_ensemble(spec, workers=len(cpus)).processes == len(cpus)
        calls = read()
        assert len(calls) == len(cpus)
        for pid, entry in calls.items():
            p = entry["chunk"][0][0]  # process p's first chunk is chunk p
            assert entry["set"] == [[p], sorted(cpus)], pid
        assert next(iter(calls)) == str(os.getpid())  # the caller placed itself before it forked

    def refused(self, pid, cpus):
        raise OSError(errno.EINVAL, "Invalid argument")

    @pytest.mark.parametrize("where", ["refused", "invented CPU"])
    def test_refused_placement_costs_nothing(self, monkeypatch, log, where):
        """Each process runs exactly its own chunks when its placement is
        refused: by a patched `os.sched_setaffinity`, or, on a machine with
        fewer than 3 CPUs, by the kernel, for a CPU the patched affinity
        invents."""
        spec = EnsembleSpec("pure", 6 * CHUNK_SIZE, 5)
        serial = run_ensemble(spec, workers=1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        read = log()
        if where == "refused":
            monkeypatch.setattr(os, "sched_setaffinity", self.refused, raising=False)
        par = run_ensemble(spec, workers=3)
        assert par.processes == 3
        assert np.array_equal(serial.e0, par.e0) and np.array_equal(serial.ef, par.ef)
        shares = sorted(sum(entry.get("chunk", []), []) for entry in read().values())
        assert shares == [[0, 3], [1, 4], [2, 5]]

    @pytest.mark.parametrize("workers, trials", [(1, 3 * CHUNK_SIZE), (2, CHUNK_SIZE)])
    def test_one_process_places_nothing(self, monkeypatch, log, workers, trials):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        read = log(record=True)
        assert run_ensemble(EnsembleSpec("pure", trials, 5), workers=workers).processes == 1
        assert [entry.get("set") for entry in read().values()] == [None]

    def test_without_setaffinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.delattr(os, "sched_setaffinity", raising=False)
        spec = EnsembleSpec("pure", 2 * CHUNK_SIZE + 5, 5)
        serial = run_ensemble(spec, workers=1)
        par = run_ensemble(spec, workers=2)
        assert par.processes == 2
        assert np.array_equal(serial.e0, par.e0) and np.array_equal(serial.ef, par.ef)

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity") or experiment.available_cpus() < 2
                        or not os.path.exists("/proc/self/stat"), reason="needs Linux and 2 CPUs to place on")
    def test_processes_start_on_different_cpus(self, monkeypatch, tmp_path):
        """On this machine's own CPUs: the two processes' first chunks start
        on different CPUs, and the caller's mask is as it was."""
        mask, path, task = os.sched_getaffinity(0), tmp_path / "cpus", experiment._chunk_task

        def chunk_task(kind, seed, start, count):
            with open(path, "a") as out:
                out.write(f"{os.getpid()} chunk {this_cpu()}\n")
            return task(kind, seed, start, count)

        monkeypatch.setattr(experiment, "_chunk_task", chunk_task)
        assert run_ensemble(EnsembleSpec("pure", 4 * CHUNK_SIZE, 5), workers=2).processes == 2
        assert os.sched_getaffinity(0) == mask
        first = [entry["chunk"][0][0] for entry in entries(path).values()]
        assert len(first) == 2 and first[0] != first[1]
        assert_no_children()


def entries(path) -> dict:
    """{pid: {kind: [[int, ...], ...]}} of a log of `pid kind values` lines,
    pids in the order they first appear."""
    out = {}
    for line in path.read_text().splitlines():
        pid, kind, *values = line.split()
        out.setdefault(pid, {}).setdefault(kind, []).append([int(v) for v in values])
    return out


class TestSampleChunk:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_matches_fresh_streams(self, monkeypatch, kind):
        # the chunk's raw draw gives what a fresh generator per trial
        # draws, and the stack builds what the scalar samplers build
        seed, streams = 2**63 + 12345, np.array([0, 1, 7, 5 + RETRY_STRIDE, 2**40])
        drawn, draw_chunk = [], sampling.draw_chunk

        def recorded(kind, seed, streams):
            drawn.append(draw_chunk(kind, seed, streams))
            return drawn[-1]

        monkeypatch.setattr(sampling, "draw_chunk", recorded)
        states = sample_chunk(kind, seed, streams)
        monkeypatch.undo()
        (records,) = drawn
        for record, s in zip(records, streams, strict=True):
            for got, want in zip(record.tolist(), sampling.draw(kind, RandomStream(seed, s)), strict=True):
                assert np.array_equal(got, want)
        if kind == "pure":
            assert np.array_equal(states[..., 0], [pure_state_vector(RandomStream(seed, s)) for s in streams])
        else:  # mixed states come as factors W of rho = W W^dag
            rhos = states @ states.conj().swapaxes(-1, -2)
            assert np.array_equal(rhos, [mixed_state_matrix(RandomStream(seed, s)) for s in streams])

    @pytest.mark.parametrize("kind,k", [("pure", 1), ("mixed", 4)])
    def test_one_factor_layout(self, kind, k):
        # both ensembles: an (n, 4, k) view of a contiguous (4, k, n) array
        states = sample_chunk(kind, 9, np.arange(300))
        assert states.shape == (300, 4, k)
        assert states.transpose(1, 2, 0).flags.c_contiguous


class TestNoPerTrialGenerator:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_chunk_task_reads_no_generator(self, monkeypatch, kind):
        # the engine draws whole chunks; a per-trial generator read would raise here
        clean = _chunk_task(kind, 4, 0, 300)

        def refused(self):
            raise AssertionError("a per-trial generator was read on the engine path")

        monkeypatch.setattr(RandomStream, "generator", property(refused))
        assert all(np.array_equal(a, b) for a, b in zip(_chunk_task(kind, 4, 0, 300)[:2], clean[:2]))
        poison_draws(monkeypatch, {3, 250})  # the retry path too
        assert _chunk_task(kind, 4, 0, 300)[2] == 2


class TestKernelCalls:
    """`_chunk_task` scores each chunk with exactly two calls of the name
    `experiment.eof_batch`, n states each (E_0, then E_F); the bench tracer
    wraps that name and reads its spans in pairs."""

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_two_calls_per_chunk(self, monkeypatch, kind):
        calls, kernel = [], experiment.eof_batch

        def recorded(states):
            calls.append(len(states))
            return kernel(states)

        monkeypatch.setattr(experiment, "eof_batch", recorded)
        poison_draws(monkeypatch, {5, CHUNK_SIZE + 1})  # a redraw adds no call
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        res = run_ensemble(EnsembleSpec(kind, CHUNK_SIZE + 3, 8))
        assert calls == [CHUNK_SIZE, CHUNK_SIZE, 3, 3]
        assert res.failures == 2


class TestRetryPath:
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_nonfinite_draw_takes_retry_substream(self, monkeypatch, kind):
        clean = _chunk_task(kind, 3, 0, 10)
        poison_draws(monkeypatch, {5})
        e0, ef, failures = _chunk_task(kind, 3, 0, 10)
        assert failures == 1
        ref = reference_trial(kind, 3, 5 + RETRY_STRIDE)
        assert (e0[5], ef[5]) == pytest.approx(ref, abs=REFERENCE_TOL[kind])
        others = np.arange(10) != 5
        assert np.array_equal(e0[others], clean[0][others])
        assert np.array_equal(ef[others], clean[1][others])

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_zero_vector_is_redrawn_silently(self, monkeypatch, kind):
        # normalising a zero vector (the pure draw, or one Ginibre column of
        # a mixed draw) divides 0 by 0; the screen catches the NaNs, numpy
        # does not warn
        draw_chunk = sampling.draw_chunk

        def degenerate(kind, seed, streams):
            records = draw_chunk(kind, seed, streams)
            if kind == "pure":
                records["normals"][streams == 5] = 0.0
            else:  # column 2, real and imaginary parts
                records["normals"][streams == 5, :, :, 2] = 0.0
            return records

        monkeypatch.setattr(sampling, "draw_chunk", degenerate)
        assert not np.isfinite(sample_chunk(kind, 3, np.array([5]))).all()
        e0, ef, failures = _chunk_task(kind, 3, 0, 10)
        assert failures == 1
        assert (e0[5], ef[5]) == pytest.approx(reference_trial(kind, 3, 5 + RETRY_STRIDE), abs=REFERENCE_TOL[kind])

    def test_nonfinite_kernel_result_raises(self, monkeypatch):
        # a NaN E would otherwise be counted in a histogram's end bin
        kernel = experiment.eof_batch

        def one_nan(states):
            e = kernel(states)
            e[3] = np.nan
            return e

        monkeypatch.setattr(experiment, "eof_batch", one_nan)
        with pytest.raises(NumericError, match="non-finite E on trial 3"):
            run_ensemble(EnsembleSpec("mixed", 10, 3))


class TestHistogramDelta:
    def test_single_zero_record(self):
        h = histogram_delta(result([0.3], [0.3]), 100)
        assert h.counts.sum() == 1
        assert h.counts[h.bin_index(0.0)] == 1

    def test_extremes_two_bins(self):
        h = histogram_delta(result([1.0, 0.0], [0.0, 1.0]), 2)
        assert list(h.counts) == [1, 1]

    def test_rejects_single_bin(self):
        with pytest.raises(UsageError):
            histogram_delta(result([0.0], [0.0]), 1)

    def test_mode_at_zero_for_sampled_ensembles(self):
        res = run_ensemble(EnsembleSpec("mixed", 20_000, 9))
        h = histogram_delta(res, 100)
        assert int(np.argmax(h.counts)) == h.bin_index(0.0)

    def test_density_normalization(self):
        res = run_ensemble(EnsembleSpec("mixed", 2000, 10))
        h = histogram_delta(res, 50)
        assert h.densities().sum() * h.bin_width == pytest.approx(1.0, abs=1e-12)


class TestStreamedReduction:
    """The histograms walk a result in CHUNK_SIZE slices, with the results of
    one pass over whole arrays and none of its per-trial temporaries."""

    @pytest.mark.parametrize("n", [1, CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 3 * CHUNK_SIZE + 17])
    def test_matches_one_shot_bincount(self, n):
        rng = np.random.default_rng(n)
        values = rng.uniform(-0.1, 1.1, n)  # some beyond either end
        values[::7] = np.round(values[::7] * 50) / 50  # some on the edges
        weights = rng.random(n)
        h = conditional_mean(result(values, weights), 50)
        idx = _bin_indices(values, np.linspace(0.0, 1.0, 51))
        assert h.total == n
        assert np.array_equal(h.counts, np.bincount(idx, minlength=50))
        # each bin's sum is exact, rounded once
        assert h.sums.tolist() == [math.fsum(weights[idx == i]) for i in range(50)]

    def test_delta_statistics_match_whole_arrays(self):
        rng = np.random.default_rng(3)
        e0 = rng.random(2 * CHUNK_SIZE + 5)
        ef = np.where(rng.random(e0.size) < 0.3, e0, rng.random(e0.size))  # some delta E exactly 0
        res, delta = result(e0, ef), ef - e0
        for bins in (7, 100):
            h = histogram_delta(res, bins)
            assert h.zero_fraction == float(np.mean(np.abs(delta) < h.bin_width / 2.0))
            assert h.mean == pytest.approx(float(delta.mean()), rel=1e-14, abs=1e-17)

    def test_memory_independent_of_trial_count(self):
        """2^20 trials reduce in well under the 8 MiB that one whole-length
        temporary would take."""
        rng = np.random.default_rng(5)
        res = result(rng.random(1 << 20), rng.random(1 << 20))
        tracemalloc.start()
        try:
            h = histogram_delta(res, 100)
            scalars = h.mean, h.zero_fraction
            conditional_mean(res, 50)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.0 <= scalars[1] <= 1.0
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("kind, bound_mib", [("pure", 3.5), ("mixed", 7.5)])
    def test_chunk_temporaries_stay_small(self, kind, bound_mib):
        """A chunk's traced peak: its records and raw words, one row block's
        ziggurat tries, one complex stack of factors, and the kernel's
        temporaries for one stack at a time. A mixed chunk once peaked at
        ~11 MiB with chunk-wide tries and three copies of its Ginibre stack."""
        tracemalloc.start()
        try:
            e0, ef, failures = _chunk_task(kind, 5, 0, CHUNK_SIZE)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert e0.shape == ef.shape == (CHUNK_SIZE,) and failures == 0
        assert peak < bound_mib * (1 << 20), peak / (1 << 20)

    @pytest.mark.parametrize("e0, ef", [([0.1, np.nan], [0.3, 0.4]), ([0.1, 0.2], [np.inf, 0.4])])
    def test_rejects_non_finite_values(self, e0, ef):
        """A NaN has no bin: the binning rule would cast it to an arbitrary index."""
        rec = result(e0, ef)
        with pytest.raises(UsageError, match="non-finite"):
            histogram_delta(rec, 4)
        with pytest.raises(UsageError, match="non-finite"):
            conditional_mean(rec, 4)

    @pytest.mark.parametrize("x", [np.nan, np.inf, -np.inf])
    def test_bin_index_rejects_non_finite_values(self, x):
        with pytest.raises(UsageError, match="non-finite"):
            conditional_mean(result([0.5], [0.5]), 4).bin_index(x)

    def test_rejects_empty_result(self):
        rec = result([], [])
        for reduce in (histogram_delta, conditional_mean):
            with pytest.raises(UsageError, match="empty"):
                reduce(rec, 4)

    def test_rejects_non_integer_counts(self):
        rec = result([0.1], [0.2])
        with pytest.raises(UsageError, match="bin_count"):
            histogram_delta(rec, 2.5)
        with pytest.raises(UsageError, match="bin_count"):
            conditional_mean(rec, 4.0)


SPECIAL_VALUES = (0.0, 1.0, 5e-324, float(np.nextafter(1.0, 0.0)))


def trials(min_magnitude: float = 0.0):
    """(E_0, E_F) arrays of 1 to 60 trials, floats in [0, 1] with the
    special values among them; at min_magnitude > 0, none below it but 0."""
    value = (st.sampled_from(SPECIAL_VALUES) | st.floats(0.0, 1.0)).filter(lambda x: x == 0.0 or x >= min_magnitude)
    return st.lists(st.tuples(value, value), min_size=1, max_size=60).map(lambda rows: np.array(rows).T)


class TestExactSums:
    """`Binned` sums E_0 and E_F as int64 limb sums, exact integers, so any
    split of the trials into chunks, folded into any number of accumulators
    and added in any order, gives the same words; and each finished sum is
    the exact sum rounded once: delta E's is the exact E_F total less the
    exact E_0 total, with no sum of its own."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(trials(), st.data())
    def test_any_split_and_merge_order(self, energies, data):
        (e0, ef), n = energies, energies.shape[1]
        cuts = sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=5))) if n > 1 else []
        reducer = Binned(7, 5)
        whole = np.zeros((), reducer.layout)
        reducer.add(whole, 0, e0, ef, 0)
        parts = []
        for lo, hi in zip([0, *cuts], [*cuts, n]):
            parts.append(np.zeros((), reducer.layout))
            reducer.add(parts[-1], lo, e0[lo:hi], ef[lo:hi], 0)
        merged = sum(words(part) for part in data.draw(st.permutations(parts))).view(reducer.layout).reshape(())
        assert merged["chunks"] == len(parts)
        merged["chunks"] = whole["chunks"]  # every other word must match as it stands
        assert words(merged).tolist() == words(whole).tolist()

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(trials(2.0**-68))
    def test_finished_sums_are_fsum(self, energies):
        """For values of 2^-68 or more (and 0), whose last bit the limbs hold."""
        (e0, ef), n = energies, energies.shape[1]
        prof, hist = conditional_mean(result(e0, ef), 5), histogram_delta(result(e0, ef), 7)
        idx = _bin_indices(e0, prof.edges)
        assert prof.sums.tolist() == [math.fsum(ef[idx == i]) for i in range(5)]
        assert (prof.mean, prof.mean_weight, hist.mean) == (math.fsum(e0) / n, math.fsum(ef) / n,
                                                            math.fsum([*ef, *-e0]) / n)

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_run_delta_mean_is_the_exact_difference(self, kind):
        """A reduced run's mean delta E is the exact sum of E_F - E_0 over the
        trials, rounded once, not the sum of the rounded differences."""
        spec = EnsembleSpec(kind, 50_000, 11)
        arrays = run_ensemble(spec)
        exact = math.fsum([*arrays.ef, *-arrays.e0]) / spec.trials
        assert histogram_delta(run_ensemble(spec, reducer=Binned(100, 50)), 100).mean == exact

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.sampled_from([x * s for x in SPECIAL_VALUES for s in (1, -1)]) | st.floats(-1.0, 1.0),
                    min_size=1, max_size=60))
    def test_signed_limbs(self, values):
        """Delta E in [-1, 1]: each limb takes the value's sign, and the limb
        sums of values of 2^-68 or more in magnitude give fsum."""
        x = np.array(values)
        limbs = _limbs(x)
        assert np.all((limbs == np.trunc(limbs)) & (np.abs(limbs) <= 2.0**30) & (limbs * x >= 0))
        kept = x[(x == 0) | (np.abs(x) >= 2.0**-68)]
        assert _exact_sum(_limbs(kept).sum(axis=1).astype(np.int64)) == math.fsum(kept)

    def test_reduced_run_equals_array_run(self, monkeypatch):
        """A run folded by `Binned`, at any worker count, more processes than
        this machine may have cores included, gives the words an array run's
        slices give, and the same finished histograms: each of the 6 chunks
        is counted once, also where the worker of a 2-process run raises
        MemoryError before its first chunk and the caller reruns chunks 1, 3
        and 5 into its own row."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
        spec = EnsembleSpec("pure", 5 * CHUNK_SIZE + 5, 4)
        arrays = run_ensemble(spec)

        def out_of_memory(start):
            raise MemoryError

        for workers, worker_fails in ((1, False), (2, False), (6, False), (2, True)):
            if worker_fails:
                in_children(monkeypatch, out_of_memory)
            binned = run_ensemble(spec, workers, Binned(20, 10))
            assert binned.processes == workers and len(binned) == spec.trials and binned.e0.size == binned.ef.size == 0
            reducer, acc = binned.binned
            assert acc["chunks"] == 6 and words(acc).tolist() == words(experiment._binned(arrays, 20, 10)[1]).tolist()
            for reduce, bins in ((histogram_delta, 20), (conditional_mean, 10)):
                a, b = reduce(arrays, bins), reduce(binned, bins)
                assert vars(a).keys() == vars(b).keys()
                assert all(np.array_equal(x, y, equal_nan=True) if isinstance(x, np.ndarray) else x == y
                           for x, y in zip(vars(a).values(), vars(b).values()))

    @pytest.mark.parametrize("delta_bins, e0_bins", [(2, 2), (7, 5), (100, 50)])
    def test_layout(self, delta_bins, e0_bins):
        """`Binned`'s accumulator: its fields in the declared order, int64
        only, so that rows add up through their int64 view, 7 + delta bins +
        5 * E_0 bins words (357 at the CLI's default bins), and first the
        fields of `_Arrays`' accumulator, which `run_ensemble` reads from
        either reducer."""
        layout = Binned(delta_bins, e0_bins).layout
        assert layout.names == ("chunks", "failures", "near_zero", "e0_sums", "delta_counts", "e0_counts", "ef_sums")
        assert [layout[name].shape for name in layout.names] == [(), (), (), (4,), (delta_bins,), (e0_bins,),
                                                                 (4, e0_bins)]
        assert all(layout[name].base == np.int64 for name in layout.names)
        assert all(_Arrays.layout[name] == np.int64 for name in _Arrays.layout.names)
        assert layout.itemsize == 8 * (7 + delta_bins + 5 * e0_bins)
        head = _Arrays.layout.names
        assert layout.names[: len(head)] == head
        assert [layout.fields[name] for name in head] == [_Arrays.layout.fields[name] for name in head]

    def test_reduced_run_refuses_other_bins(self):
        res = run_ensemble(EnsembleSpec("pure", 100, 4), reducer=Binned(20, 10))
        with pytest.raises(UsageError, match="binned into 20 delta E and 10 E_0 bins"):
            histogram_delta(res, 21)
        with pytest.raises(UsageError, match="binned into 20"):
            conditional_mean(res, 11)

    @pytest.mark.parametrize("value", [2.0, -2.0, 1e300])
    def test_refuses_values_the_limbs_cannot_hold(self, value):
        with pytest.raises(UsageError, match="magnitude 2 or more"):
            conditional_mean(result([0.5, value], [0.5, 0.5]), 4)


def edge_values(lo: float, bins: int) -> np.ndarray:
    """Every bin edge over [lo, 1], and the in-range values one ulp either side."""
    edges = np.linspace(lo, 1.0, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0)])
    return np.unique(np.clip(near, lo, 1.0))


class TestBinRule:
    """Each value is counted in the bin that `bin_index` names."""

    BINS = (2, 3, 7, 50, 100, 186, 399)

    def test_delta_histogram(self):
        for bins in self.BINS:
            for x in edge_values(-1.0, bins):
                h = histogram_delta(result([0.0], [x]), bins)
                assert h.counts[h.bin_index(x)] == 1, (bins, x)

    def test_e0_histogram_and_conditional_mean(self):
        for bins in self.BINS:
            for x in edge_values(0.0, bins):
                h = conditional_mean(result([x], [x]), bins)
                assert h.counts[h.bin_index(x)] == 1, (bins, x)


@pytest.mark.parametrize("lo", [0.0, -1.0])
@pytest.mark.parametrize("bins", [2, 3, 7, 50, 100, 997, 10**4, 10**6])
def test_bin_indices_match_searchsorted(lo, bins):
    """The arithmetic estimate and its one corrective compare give the bins
    that the sorted search over the edges gives, on random values, every
    edge, both float neighbours of every edge, and values beyond either end."""
    edges = np.linspace(lo, 1.0, bins + 1)
    rng = np.random.default_rng(bins)
    values = np.concatenate([
        rng.uniform(lo, 1.0, 50_000),
        edges,
        np.nextafter(edges, -np.inf),
        np.nextafter(edges, np.inf),
        rng.uniform(lo - 1.0, lo, 1000),
        rng.uniform(1.0, 2.0, 1000),
        [-np.inf, -1e300, 1e300, np.inf],
    ])
    oracle = np.clip(np.searchsorted(edges, values, side="right") - 1, 0, bins - 1)
    assert np.array_equal(_bin_indices(values, edges), oracle)


class TestEntanglementHistogram:
    def test_mixed_mode_in_first_bin(self):
        res = run_ensemble(EnsembleSpec("mixed", 20_000, 11))
        h = conditional_mean(res, 50)
        assert int(np.argmax(h.counts)) == 0

    def test_pure_mode_interior(self):
        res = run_ensemble(EnsembleSpec("pure", 20_000, 12))
        h = conditional_mean(res, 50)
        mode = int(np.argmax(h.counts))
        assert 0 < mode < 49


class TestConditionalMean:
    @pytest.mark.parametrize("bins", [2, 7, 50])
    def test_is_the_e0_histogram(self, bins):
        """The profile is the E_0 histogram itself, with the per-bin E_F
        means read from its sums where a bin is occupied and NaN elsewhere."""
        res = run_ensemble(EnsembleSpec("mixed", 3000, 5))
        prof = conditional_mean(res, bins)
        assert type(prof) is Histogram and prof.total == len(res)
        occupied = prof.counts >= MIN_OCCUPANCY
        assert np.array_equal(prof.occupied, occupied) and occupied.any()
        assert np.array_equal(prof.mean_ef[occupied], prof.sums[occupied] / prof.counts[occupied])
        assert np.isnan(prof.mean_ef[~occupied]).all()

    def test_all_mass_in_first_bin(self):
        prof = conditional_mean(result([0.0] * MIN_OCCUPANCY, [1.0] * MIN_OCCUPANCY), 10)
        assert prof.mean_ef[0] == pytest.approx(1.0)
        assert np.all(np.isnan(prof.mean_ef[1:]))

    def test_occupancy_threshold(self):
        prof = conditional_mean(result([0.0] * (MIN_OCCUPANCY - 1), [0.5] * (MIN_OCCUPANCY - 1)), 10)
        assert not prof.occupied[0]
        assert np.isnan(prof.mean_ef[0])

    def test_rejects_single_bin(self):
        with pytest.raises(UsageError):
            conditional_mean(result([0.0], [0.0]), 1)

    def test_top_edge_lands_in_last_bin(self):
        prof = conditional_mean(result([1.0], [0.2]), 10)
        assert prof.counts[-1] == 1
