import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlab import cli, experiment
from entlab.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCES, EXIT_USAGE, MAX_BINS, RunConfig, execute, main, parse_args
from entlab.errors import NumericError, UsageError
from entlab.experiment import CHUNK_SIZE, MAX_RETRIES, MAX_TRIALS, RETRY_STRIDE

from conftest import in_children, poison_draws, sigkill


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args([])
        assert cfg.ensemble == "pure"
        assert cfg.trials == 1_000_000
        assert cfg.seed == 42
        assert cfg.delta_bins == 100
        assert cfg.e0_bins == 50
        assert cfg.workers >= 1
        assert set(cfg.formats) == {"csv", "json"}

    def test_explicit_flags(self):
        cfg = parse_args(["--ensemble", "pure", "--trials", "1000", "--seed", "7"])
        assert (cfg.ensemble, cfg.trials, cfg.seed) == ("pure", 1000, 7)

    def test_rejects_zero_trials(self):
        with pytest.raises(UsageError, match="trials"):
            parse_args(["--trials", "0"])

    def test_rejects_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["--frobnicate"])

    def test_rejects_bad_ensemble(self):
        with pytest.raises(UsageError):
            parse_args(["--ensemble", "thermal"])

    def test_rejects_small_bins(self):
        with pytest.raises(UsageError, match="delta-bins"):
            parse_args(["--delta-bins", "1"])
        with pytest.raises(UsageError, match="e0-bins"):
            parse_args(["--e0-bins", "1"])

    def test_rejects_bad_workers(self):
        with pytest.raises(UsageError, match="workers"):
            parse_args(["--workers", "many"])
        with pytest.raises(UsageError, match="workers"):
            parse_args(["--workers", "0"])

    def test_auto_workers_follow_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert parse_args(["--workers", "auto"]).workers == 1

    def test_auto_workers_fall_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert parse_args(["--workers", "auto"]).workers == 3

    def test_rejects_bad_formats(self):
        with pytest.raises(UsageError, match="formats"):
            parse_args(["--formats", "xml"])
        with pytest.raises(UsageError, match="formats"):
            parse_args(["--formats", ""])

    def test_formats_subset(self):
        cfg = parse_args(["--formats", "json"])
        assert cfg.formats == ("json",)

    def test_env_var_output_dir(self, monkeypatch):
        monkeypatch.setenv("ENTLAB_OUTPUT_DIR", "/tmp/somewhere")
        assert parse_args([]).output_dir == "/tmp/somewhere"

    def test_flag_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("ENTLAB_OUTPUT_DIR", "/tmp/somewhere")
        assert parse_args(["--output-dir", "x"]).output_dir == "x"


def small_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        ensemble="mixed",
        trials=2000,
        seed=11,
        delta_bins=20,
        e0_bins=10,
        workers=1,
        output_dir=str(tmp_path / "out"),
        formats=("csv", "json"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestExecute:
    def test_writes_all_outputs(self, tmp_path):
        cfg = small_config(tmp_path)
        assert execute(cfg) == EXIT_OK
        out = tmp_path / "out"
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv", "summary.json"):
            assert (out / name).exists()

    def test_csv_structure(self, tmp_path):
        cfg = small_config(tmp_path)
        execute(cfg)
        with open(tmp_path / "out" / "delta_hist.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["bin_lo", "bin_hi", "count", "density"]
        assert len(rows) == 1 + cfg.delta_bins
        total = sum(int(r[2]) for r in rows[1:])
        assert total == cfg.trials
        with open(tmp_path / "out" / "conditional_mean.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["e0_lo", "e0_hi", "mean_ef", "count"]
        assert len(rows) == 1 + cfg.e0_bins

    def test_summary_contents(self, tmp_path):
        cfg = small_config(tmp_path)
        execute(cfg)
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["config"]["trials"] == 2000
        assert 0.0 <= summary["mean_e0"] <= 1.0
        assert 0.0 <= summary["zero_delta_fraction"] <= 1.0
        assert summary["failures"] == 0
        assert summary["wall_time_s"] > 0

    def test_formats_json_only(self, tmp_path):
        cfg = small_config(tmp_path, formats=("json",))
        execute(cfg)
        out = tmp_path / "out"
        assert (out / "summary.json").exists()
        assert not (out / "delta_hist.csv").exists()

    def test_reruns_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"))
        execute(cfg_a)
        execute(cfg_b)
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path, trials=10_000, output_dir=str(tmp_path / "a"), workers=1)
        cfg_b = small_config(tmp_path, trials=10_000, output_dir=str(tmp_path / "b"), workers=2)
        execute(cfg_a)
        execute(cfg_b)
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_twelve_significant_digits(self, tmp_path):
        cfg = small_config(tmp_path)
        execute(cfg)
        with open(tmp_path / "out" / "delta_hist.csv", newline="") as fh:
            next(fh)
            row = next(csv.reader(fh))
        # re-parsing and re-formatting must round-trip at 12 significant digits
        assert row[3] == format(float(row[3]), ".12g")


# sha256 of each CSV of `--trials 20000 --seed 11 --workers 1` (default bins):
# a given configuration writes the same bytes from one version to the next
GOLDEN_CSV_SHA256 = {
    "pure": {
        "conditional_mean.csv": "0a1b5fcf5cb58508bd589018a87664b20c02e7aeb941b0ae0b839856fe34c850",
        "delta_hist.csv": "baa60b908ad45216ed766ecb4d671dfed88c4aedf7aa94a677bd95428b43b846",
        "e0_hist.csv": "324287a29ba62a69c2037c8c8c1372bfb8ab72e56e0cebd44e231fb36a8acc3c",
    },
    "mixed": {
        "conditional_mean.csv": "43af7472555a789da64c7d6c5f444fc5343c077f428cfb0a1ac41dd0d9810c36",
        "delta_hist.csv": "1425a2ba7b264a0ebad6c93384d5d2a3ea08f592fd40b54bb4b089b8d6a9f597",
        "e0_hist.csv": "4a23689f3377bb20ec2d9051558404eddc725526ad63cb6409f8172f58fdb564",
    },
}


def golden_argv(ensemble: str, out: Path) -> list[str]:
    return ["--ensemble", ensemble, "--trials", "20000", "--seed", "11", "--workers", "1", "--output-dir", str(out)]


def csv_digests(out: Path, ensemble: str) -> dict[str, str]:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in GOLDEN_CSV_SHA256[ensemble]}


def subprocess_env(**settings) -> dict[str, str]:
    """The environment for a Python subprocess that imports this entlab."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, **settings)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return env


@pytest.mark.parametrize("ensemble", ["pure", "mixed"])
def test_golden_csv_bytes(tmp_path, ensemble):
    out = tmp_path / "run"
    assert main(golden_argv(ensemble, out)) == EXIT_OK
    assert csv_digests(out, ensemble) == GOLDEN_CSV_SHA256[ensemble]
    # the profile's rows carry the E_0 histogram's edges and counts, row by row
    e0_rows, profile_rows = ((out / name).read_text().splitlines()[1:] for name in ("e0_hist.csv", "conditional_mean.csv"))
    assert [r.split(",")[:3] for r in e0_rows] == [[lo, hi, n] for lo, hi, _, n in (r.split(",") for r in profile_rows)]


def test_one_reduction_per_axis(tmp_path, monkeypatch):
    """A CLI run bins delta E once and E_0 once (the profile is the E_0
    histogram with E_F sums), and forms delta E = E_F - E_0 once."""
    binned, formed = [], []  # bin count of each binning pass; one entry per delta E formed
    bin_indices = experiment._bin_indices

    def counted_bin_indices(values, edges):
        binned.append(len(edges) - 1)
        return bin_indices(values, edges)

    class FinalEoF(np.ndarray):
        def __sub__(self, other):
            formed.append(other.shape)
            return np.asarray(self) - other

    run = cli.run_ensemble

    def counted_run(spec, workers):
        res = run(spec, workers=workers)
        return dataclasses.replace(res, ef=res.ef.view(FinalEoF))

    monkeypatch.setattr(experiment, "_bin_indices", counted_bin_indices)
    monkeypatch.setattr(cli, "run_ensemble", counted_run)
    argv = ["--trials", "2000", "--delta-bins", "20", "--e0-bins", "10", "--workers", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert binned == [20, 10]
    assert formed == [(2000,)]


def test_writers_linear_in_bins(tmp_path):
    """200000 bins per output are written in seconds; a writer quadratic in
    the bin count would take minutes."""
    bins = 200_000
    argv = ["--trials", "500", "--delta-bins", str(bins), "--e0-bins", str(bins), "--workers", "1", "--output-dir", str(tmp_path)]
    done = subprocess.run([sys.executable, "-m", "entlab.cli", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == bins + 1, name


# settings that change numpy's last bits in this process only: numpy's
# X86_V2 baseline loops (no FMA in a complex product), and another OpenBLAS
# core type (other LAPACK kernels)
DISPATCH_SETTINGS = {
    "numpy-baseline": {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
    "openblas-prescott": {"OPENBLAS_CORETYPE": "Prescott"},
}


def dispatch_env(setting: str) -> dict[str, str]:
    """`subprocess_env` under one of DISPATCH_SETTINGS; skips, with the
    reason, where numpy does not import under it."""
    env = subprocess_env(**DISPATCH_SETTINGS[setting])
    probe = subprocess.run([sys.executable, "-c", "import numpy"], env=env, capture_output=True, text=True)
    if probe.returncode:
        reason = (probe.stderr.strip().splitlines() or ["no message"])[-1]
        pytest.skip(f"numpy does not import under {DISPATCH_SETTINGS[setting]}: {reason}")
    return env


@pytest.mark.parametrize("setting", list(DISPATCH_SETTINGS))
def test_golden_csv_bytes_under_other_dispatch(tmp_path, setting):
    """The golden configurations, rerun by the CLI in a subprocess under
    another CPU dispatch or BLAS core, write the pinned bytes."""
    env = dispatch_env(setting)
    for ensemble in GOLDEN_CSV_SHA256:
        out = tmp_path / ensemble
        done = subprocess.run([sys.executable, "-m", "entlab.cli", *golden_argv(ensemble, out)],
                              env=env, capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert csv_digests(out, ensemble) == GOLDEN_CSV_SHA256[ensemble]


# the concurrences of a pure chunk's states and of their circuit images, as `_chunk_task` scores them
PURE_CONCURRENCES = """
import hashlib, numpy as np
from entlab.entanglement import factor_concurrence
from entlab.gates import apply_to_factors, circuit
from entlab.sampling import sample_chunk
states = sample_chunk("pure", 11, np.arange(20000))
c = np.stack([factor_concurrence(states), factor_concurrence(apply_to_factors(circuit(), states))])
print(hashlib.sha256(c.tobytes()).hexdigest())
"""


def test_pure_concurrences_independent_of_dispatch():
    """2|ad - bc| of pure states is the same to the last bit under numpy's
    baseline dispatch, whose complex product does not fuse a multiply-add,
    as under the default. (E itself still is not: np.log2 is dispatched.)"""
    digests = []
    for env in (subprocess_env(), dispatch_env("numpy-baseline")):
        done = subprocess.run([sys.executable, "-c", PURE_CONCURRENCES], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout)
    assert digests[0] == digests[1]


class TestOutputWrites:
    """Outputs move into place only once all are written."""

    ARGS = ["--trials", "500", "--delta-bins", "10", "--e0-bins", "5", "--workers", "1"]

    def test_failed_write_leaves_previous_set(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "run"
        assert main([*self.ARGS, "--seed", "3", "--output-dir", str(out)]) == EXIT_OK
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        write, calls = cli._write_histogram_csv, []

        def second_csv_fails(path, hist):
            calls.append(path.name)
            if len(calls) == 2:
                raise OSError(28, "No space left on device", str(path))
            write(path, hist)

        monkeypatch.setattr(cli, "_write_histogram_csv", second_csv_fails)
        code = main([*self.ARGS, "--seed", "4", "--output-dir", str(out)])
        assert code == EXIT_IO and calls == ["delta_hist.csv", "e0_hist.csv"]
        assert "No space left" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        assert [p.name for p in tmp_path.iterdir()] == ["run"]  # no temporary directory left

    def test_summary_moves_in_last(self, tmp_path, monkeypatch):
        moved, replace = [], os.replace
        monkeypatch.setattr(os, "replace", lambda src, dst: moved.append(Path(dst).name) or replace(src, dst))
        assert main([*self.ARGS, "--seed", "3", "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        assert sorted(moved[:-1]) == ["conditional_mean.csv", "delta_hist.csv", "e0_hist.csv"]
        assert moved[-1] == "summary.json"

    def test_current_directory_as_output(self, tmp_path, monkeypatch):
        # files are replaced one by one, so the output directory may be the working directory
        (tmp_path / "notes.txt").write_text("kept")
        monkeypatch.chdir(tmp_path)
        assert main([*self.ARGS, "--seed", "3", "--output-dir", "."]) == EXIT_OK
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["conditional_mean.csv", "delta_hist.csv", "e0_hist.csv", "notes.txt", "summary.json"]
        assert (tmp_path / "notes.txt").read_text() == "kept"


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["--trials", "0"]) == EXIT_USAGE
        assert "trials" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self):
        assert main(["--frobnicate"]) == EXIT_USAGE

    def test_io_error_exit_code(self, tmp_path, monkeypatch):
        # an unusable output directory fails before the ensemble runs
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")

        def refused(*args, **kwargs):
            raise AssertionError("the ensemble ran before the output directory was made")

        monkeypatch.setattr(cli, "run_ensemble", refused)
        for out in (blocker, blocker / "run"):
            code = main(
                ["--trials", "500", "--delta-bins", "10", "--e0-bins", "5",
                 "--workers", "1", "--output-dir", str(out)]
            )
            assert code == EXIT_IO
            assert [p.name for p in tmp_path.iterdir()] == ["blocked"]

    def test_successful_small_run(self, tmp_path):
        code = main(
            ["--ensemble", "pure", "--trials", "500", "--seed", "3",
             "--delta-bins", "10", "--e0-bins", "5", "--workers", "1",
             "--output-dir", str(tmp_path / "run")]
        )
        assert code == EXIT_OK
        assert (tmp_path / "run" / "summary.json").exists()

    def test_workers_used_reports_processes(self, tmp_path):
        # one chunk runs in this process; config still echoes the request
        assert main(["--trials", "100", "--workers", "64", "--output-dir", str(tmp_path / "run")]) == EXIT_OK
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["config"]["workers"] == 64
        assert summary["workers_used"] == 1

    def test_seed_out_of_range_exit_code(self, tmp_path, capsys):
        # out-of-range seeds would otherwise alias in-range ones
        for seed in ("-1", str(2**64)):
            code = main(["--trials", "10", "--seed", seed, "--workers", "1", "--output-dir", str(tmp_path / "run")])
            assert code == EXIT_USAGE
            assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_huge_bin_count_exit_code(self, tmp_path, capsys):
        # refused before the ensemble runs, not by a failed allocation after it
        for flag in ("--delta-bins", "--e0-bins"):
            code = main(["--trials", "1", flag, str(10**14), "--workers", "1", "--output-dir", str(tmp_path / "run")])
            assert code == EXIT_USAGE
            err = capsys.readouterr().err
            assert err.startswith("error: ") and flag in err and err.count("\n") == 1
        assert not (tmp_path / "run").exists()
        parse_args(["--delta-bins", str(MAX_BINS), "--e0-bins", str(MAX_BINS)])  # the cap itself is accepted


class TestNumericHealth:
    """Exit statuses and the failure count when draws or the kernel misbehave."""

    @staticmethod
    def run(tmp_path, capsys):
        code = main(["--trials", "500", "--seed", "3", "--workers", "1", "--formats", "json",
                     "--output-dir", str(tmp_path / "run")])
        return code, capsys.readouterr().err

    def test_kernel_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        def broken(rhos):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(experiment, "eof_batch", broken)
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "numeric quality breach" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []  # neither the temporary nor the new output directory is left

    def test_nonfinite_kernel_result_exit_code(self, tmp_path, capsys, monkeypatch):
        kernel = experiment.eof_batch

        def one_nan(states):
            e = kernel(states)
            e[7] = np.nan
            return e

        monkeypatch.setattr(experiment, "eof_batch", one_nan)
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "non-finite E on trial 7" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_keeps_existing_directories(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "run").mkdir()
        poison_draws(monkeypatch, {7})
        code, _ = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert [p.name for p in tmp_path.iterdir()] == ["run"] and list((tmp_path / "run").iterdir()) == []

    def test_failed_run_removes_new_parents(self, tmp_path, capsys, monkeypatch):
        poison_draws(monkeypatch, {7})
        code = main(["--trials", "500", "--workers", "1", "--output-dir", str(tmp_path / "a" / "b" / "run")])
        assert code == EXIT_NUMERIC
        assert list(tmp_path.iterdir()) == []

    def test_retried_draw_is_counted(self, tmp_path, capsys, monkeypatch):
        # at the real 1e-6 budget a single failure is allowed only from 10^6 trials
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {7})
        code, _ = self.run(tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads((tmp_path / "run" / "summary.json").read_text())["failures"] == 1

    def test_exhausted_retries_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {7 + k * RETRY_STRIDE for k in range(MAX_RETRIES + 1)})
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "resamples" in err

    def test_failure_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        poison_draws(monkeypatch, {7})
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "budget" in err


class TestWorkerFailures:
    """A failure in a forked worker or an exhausted resource exits with its
    documented status, one line on stderr, and leaves neither an output
    directory nor a process behind."""

    @staticmethod
    def run(tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        code = main(["--trials", str(CHUNK_SIZE + 1), "--workers", "2", "--output-dir", str(tmp_path / "run")])
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []  # no .entlab-* and no output directory
        assert multiprocessing.active_children() == []
        return code, err

    def test_numeric_error_in_a_child_exit_code(self, tmp_path, capsys, monkeypatch):
        def failing(start):
            raise NumericError(f"chunk {start} failed")

        in_children(monkeypatch, failing)
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_NUMERIC
        assert err == f"numeric quality breach: chunk {CHUNK_SIZE} failed\n"

    @pytest.mark.parametrize("where", ["this process", "a child"])
    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch, where):
        def exhausted(*args):
            raise MemoryError

        if where == "this process":
            monkeypatch.setattr(experiment, "_chunk_task", exhausted)
        else:
            in_children(monkeypatch, exhausted)
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_RESOURCES
        assert err == "resources exhausted: out of memory\n"

    def test_killed_child_exit_code(self, tmp_path, capsys, monkeypatch):
        in_children(monkeypatch, sigkill)
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_RESOURCES
        assert err.startswith("resources exhausted: ") and "killed by signal" in err


def test_serial_run_imports_no_process_machinery(tmp_path):
    """`import entlab.cli` and a one-worker run leave the process modules unimported."""
    env = subprocess_env()
    code = (
        "import sys, entlab.cli\n"
        "unwanted = ('multiprocessing', 'concurrent.futures')\n"
        "imported = [m for m in unwanted if m in sys.modules]\n"
        f"assert entlab.cli.main(['--trials', '20000', '--workers', '1', '--output-dir', {str(tmp_path / 'run')!r}]) == 0\n"
        "print(imported, [m for m in unwanted if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[] []\n"


needs_mallopt = pytest.mark.skipif(cli._mallopt() is None, reason="the C library has no mallopt: malloc is not glibc's")


@needs_mallopt
@pytest.mark.parametrize("ensemble", ["pure", "mixed"])
def test_later_chunks_reuse_freed_memory(tmp_path, ensemble):
    """Once `main` has run, a chunk reuses the memory the chunk before it
    freed: the second chunk faults in almost no fresh pages (over a thousand
    when malloc unmaps and trims what it frees)."""
    code = (
        "import resource\n"
        "from entlab import cli, experiment\n"
        f"assert cli.main(['--ensemble', {ensemble!r}, '--trials', '1', '--output-dir', {str(tmp_path / 'run')!r}]) == 0\n"
        "for start in (0, experiment.CHUNK_SIZE):\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        f"    experiment._chunk_task({ensemble!r}, 11, start, experiment.CHUNK_SIZE)\n"
        "    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    first, second = map(int, done.stdout.split())
    assert second < 100, (first, second)


def _no_c_library(name):
    raise OSError("no C library")


@pytest.mark.parametrize("library", [lambda name: object(), _no_c_library], ids=["no-mallopt", "no-library"])
def test_runs_where_malloc_is_not_glibcs(tmp_path, monkeypatch, library):
    """Without glibc's mallopt, `main` leaves malloc as it is and writes the same bytes."""
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert cli._mallopt() is None
    for ensemble in GOLDEN_CSV_SHA256:
        out = tmp_path / ensemble
        assert main(golden_argv(ensemble, out)) == EXIT_OK
        assert csv_digests(out, ensemble) == GOLDEN_CSV_SHA256[ensemble]


@needs_mallopt
@pytest.mark.parametrize("cli_setting", [False, True], ids=["import-and-parse", "then-cli-setting"])
def test_import_and_parse_leave_malloc_alone(cli_setting):
    """`import entlab.cli` and `parse_args` leave malloc's thresholds alone,
    so library callers keep glibc's defaults: a 16 MiB block is still mapped
    on its own. Once the CLI has set them, it comes from the heap."""
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("the C library has no mallinfo2 (glibc before 2.33)")
    code = (
        "import ctypes\n"
        "import entlab.cli as cli\n"
        "cli.parse_args(['--ensemble', 'mixed'])\n"
        + ("cli._keep_freed_memory()\n" if cli_setting else "")
        + "class Mallinfo2(ctypes.Structure):\n"
        "    _fields_ = [(name, ctypes.c_size_t) for name in ('arena', 'ordblks', 'smblks', 'hblks', 'hblkhd',\n"
        "                                                  'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
        "libc = ctypes.CDLL(None)\n"
        "libc.mallinfo2.argtypes, libc.mallinfo2.restype = (), Mallinfo2\n"
        "libc.malloc.argtypes, libc.malloc.restype = (ctypes.c_size_t,), ctypes.c_void_p\n"
        "libc.free.argtypes, libc.free.restype = (ctypes.c_void_p,), None\n"
        "before = libc.mallinfo2().hblks\n"
        "block = libc.malloc(16 << 20)\n"  # once only: freeing a mapped block raises glibc's dynamic threshold
        "print(libc.mallinfo2().hblks - before)\n"
        "libc.free(block)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("0\n" if cli_setting else "1\n")


# argv values at the chunk edges and the range limits: each flag takes a
# value that runs, or one that must exit with the usage status
ACCEPTED = {
    "--trials": [1, 8191, 8192, 8193],
    "--delta-bins": [2],
    "--e0-bins": [2],
    "--seed": [0, 2**64 - 1],
    "--workers": ["1", "2", "auto"],
}
REFUSED = {
    "--trials": [MAX_TRIALS + 1],
    "--delta-bins": [1, MAX_BINS + 1],
    "--e0-bins": [1, MAX_BINS + 1],
    "--seed": [-1, 2**64],
    "--workers": ["0"],
}


@st.composite
def argv_cases(draw):
    """(flag values, the one flag given a refused value or an output path
    under a file, or None), with the values drawn from ACCEPTED elsewhere."""
    broken = draw(st.sampled_from([None, *REFUSED, "--output-dir"]))
    values = {flag: draw(st.sampled_from(REFUSED[flag] if flag == broken else ACCEPTED[flag])) for flag in ACCEPTED}
    values["--ensemble"] = draw(st.sampled_from(["pure", "mixed"]))
    return values, broken


def run_main(values: dict, out: Path) -> tuple[int, str]:
    argv = [str(x) for flag, value in values.items() for x in (flag, value)] + ["--output-dir", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def read_csv_counts(path: Path, column: int) -> int:
    with open(path, newline="") as fh:
        return sum(int(row[column]) for row in list(csv.reader(fh))[1:])


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(argv_cases())
def test_argv_sweep(case):
    """Every argv either runs, with histograms that count every trial and
    CSVs that do not depend on the worker count, or exits with its
    documented status, leaving no temporary or new output directory behind.
    The engine caps a pool at the CPUs this process may use, so `--workers 2`
    and `auto` start no more processes than that."""
    values, broken = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "file").write_text("not a directory")
        out = root / ("file" if broken == "--output-dir" else "run") / "out"
        code, err = run_main(values, out)
        assert "Traceback" not in err
        assert not list(root.glob("**/.entlab-*"))
        if broken is not None:
            assert code == (EXIT_IO if broken == "--output-dir" else EXIT_USAGE), err
            assert sorted(p.name for p in root.iterdir()) == ["file"]
            return
        assert code == EXIT_OK, err
        trials = values["--trials"]
        assert read_csv_counts(out / "delta_hist.csv", 2) == trials
        assert read_csv_counts(out / "e0_hist.csv", 2) == trials
        assert read_csv_counts(out / "conditional_mean.csv", 3) == trials
        other = root / "other"
        assert run_main({**values, "--workers": "2" if values["--workers"] == "1" else "1"}, other)[0] == EXIT_OK
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
            assert (out / name).read_bytes() == (other / name).read_bytes()
