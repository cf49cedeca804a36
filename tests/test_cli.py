import ast
import contextlib
import csv
import ctypes
import hashlib
import importlib.util
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from entlab import cli, experiment
from entlab.cli import EXIT_INTERRUPTED, EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_RESOURCES, EXIT_TERMINATED, EXIT_USAGE, MAX_BINS, RunConfig, execute, main, parse_args
from entlab.errors import NumericError, UsageError
from entlab.experiment import CHUNK_SIZE, MAX_RETRIES, MAX_TRIALS, RETRY_STRIDE

from conftest import assert_no_children, fail_at, in_children, poison_draws, run_outputs, sigkill


def test_help_shows_flags_and_statuses_only(capsys):
    """`entlab --help` names every flag and every exit status, and none of
    the module's implementation notes."""
    assert main(["--help"]) == EXIT_OK
    text = " ".join(capsys.readouterr().out.split())  # on one line, whatever the wrapping
    flags = ("--help", "--ensemble", "--trials", "--seed", "--delta-bins", "--e0-bins", "--workers", "--output-dir")
    statuses = ("0 success", "1 usage", "2 I/O failure", "3 numeric-quality breach", "4 resources exhausted",
                "130 interrupted", "143 terminated")
    for shown in (*flags, *statuses):
        assert shown in text, shown
    for note in ("mallopt", "gc.freeze", "glibc"):
        assert note not in text, note


class TestParseArgs:
    def test_defaults(self):
        cfg = parse_args([])
        assert cfg.ensemble == "pure"
        assert cfg.trials == 1_000_000
        assert cfg.seed == 42
        assert cfg.delta_bins == 100
        assert cfg.e0_bins == 50
        assert cfg.workers >= 1

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

    def test_env_var_output_dir(self, monkeypatch):
        monkeypatch.setenv("ENTLAB_OUTPUT_DIR", "/tmp/somewhere")
        assert parse_args([]).output_dir == "/tmp/somewhere"

    def test_flag_beats_env_var(self, monkeypatch):
        monkeypatch.setenv("ENTLAB_OUTPUT_DIR", "/tmp/somewhere")
        assert parse_args(["--output-dir", "x"]).output_dir == "x"

    def test_empty_env_var_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("ENTLAB_OUTPUT_DIR", "")
        assert parse_args([]).output_dir == "out"

    def test_equals_form(self):
        cfg = parse_args(["--ensemble=mixed", "--trials=1000", "--seed=7", "--workers=1", "--output-dir=x"])
        assert (cfg.ensemble, cfg.trials, cfg.seed, cfg.workers, cfg.output_dir) == ("mixed", 1000, 7, 1, "x")

    def test_last_repeated_flag_wins(self):
        assert parse_args(["--trials", "5", "--seed=1", "--trials=6", "--seed", "2"]).trials == 6
        assert parse_args(["--seed", "1", "--seed", "2"]).seed == 2

    def test_value_may_begin_with_a_dash(self):
        """Only a flag is refused as a value: other text is taken as written."""
        assert parse_args(["--output-dir", "-x"]).output_dir == "-x"

    @pytest.mark.parametrize("argv", [["--trials"], ["--trials", "--seed", "5"], ["--trials", "--seed=5"],
                                      ["--trials", "-h"]], ids=["at-the-end", "before-a-flag", "before-a-joined-flag",
                                                                "before-help"])
    def test_flag_without_a_value(self, capsys, argv):
        """A flag followed by nothing, or by another flag, exits 1 naming it."""
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--trials" in err and err.count("\n") == 1, err

    @pytest.mark.parametrize("arg", ["--tri", "5", "--", "-t"])
    def test_refuses_other_tokens(self, capsys, arg):
        """An abbreviation such as `--tri`, a positional or `--` exits 1, naming it."""
        assert main([arg, "5"]) == EXIT_USAGE
        assert arg in capsys.readouterr().err

    @pytest.mark.parametrize("flag, text, name", [("--seed", "1.5", "seed"), ("--delta-bins", "x", "delta-bins"),
                                                  ("--trials", "abc", "trials"), ("--ensemble", "thermal", "ensemble")])
    def test_bad_value_names_its_flag(self, flag, text, name):
        with pytest.raises(UsageError, match=f"{name} .*{text!r}"):
            parse_args([flag, text])

    def test_short_help_is_the_help(self, capsys):
        assert main(["-h"]) == EXIT_OK
        short = capsys.readouterr().out
        assert main(["--help"]) == EXIT_OK
        assert short == capsys.readouterr().out
        assert short.startswith("usage: entlab ")

    def test_help_defaults_are_the_defaults(self, capsys, monkeypatch):
        """Each default the help text states is the one `parse_args([])` takes."""
        monkeypatch.delenv("ENTLAB_OUTPUT_DIR", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        main(["--help"])
        text = " ".join(capsys.readouterr().out.split())
        cfg = parse_args([])
        for shown in (f"(default {cfg.ensemble})", f"(default {cfg.trials})", f"(default {cfg.seed})",
                      f"(default {cfg.delta_bins})", f"(default {cfg.e0_bins})", f"else ./{cfg.output_dir})"):
            assert shown in text, shown
        assert cfg.workers == 3 and "auto, the default" in text

    def test_parsing_loads_no_argparse(self):
        """A fresh interpreter that imports the CLI and parses a run's flags
        has loaded none of argparse, gettext or locale."""
        code = ("import sys, entlab.cli as cli\n"
                "cli.parse_args(['--ensemble', 'pure', '--workers', '1', '--trials', '16384', '--seed', '5'])\n"
                "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n")
        done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


def small_config(tmp_path, **overrides) -> RunConfig:
    base = dict(
        ensemble="mixed",
        trials=2000,
        seed=11,
        delta_bins=20,
        e0_bins=10,
        workers=1,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    """`RunConfig` checks every setting itself, so `execute(RunConfig(...))`
    refuses what the CLI refuses, before any file is touched or trial run."""

    @pytest.mark.parametrize("fields, name", [
        ({"output_dir": ""}, "output-dir"),
        ({"delta_bins": 1}, "delta-bins"),
        ({"e0_bins": 10**7}, "e0-bins"),
        ({"workers": 0}, "workers"),
        ({"seed": -1}, "seed"),
        ({"trials": 0}, "trials"),
        ({"ensemble": "thermal"}, "thermal"),
    ], ids=["empty-output-dir", "one-delta-bin", "huge-e0-bins", "no-workers", "negative-seed", "no-trials", "thermal"])
    def test_refuses_at_construction(self, tmp_path, fields, name):
        with pytest.raises(UsageError, match=name):
            small_config(tmp_path, **fields)

    def test_numpy_integers_echo_as_plain_ints(self, tmp_path):
        """A config of numpy integers writes the same config block to
        summary.json as plain ints."""
        blocks = []
        for convert in (int, np.int64):
            fields = {k: convert(v) for k, v in dict(trials=2000, seed=11, delta_bins=20, e0_bins=10, workers=1).items()}
            assert execute(small_config(tmp_path, **fields)) == EXIT_OK
            blocks.append(json.dumps(json.loads((tmp_path / "out" / "summary.json").read_text())["config"]))
        assert blocks[0] == blocks[1]


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

    def test_summary_layout(self, tmp_path):
        """The top-level keys in order, and the config echo's keys, order,
        values and JSON types, for `small_config`."""
        execute(small_config(tmp_path))
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert list(summary) == [
            "config", "mean_e0", "mean_ef", "mean_delta", "zero_delta_fraction", "failures", "workers_used", "wall_time_s",
        ]
        config = {
            "ensemble": "mixed",
            "trials": 2000,
            "seed": 11,
            "delta_bins": 20,
            "e0_bins": 10,
            "workers": 1,
            "output_dir": str(tmp_path / "out"),
        }
        assert json.dumps(summary["config"]) == json.dumps(config)  # order and types: 2000, not 2000.0
        assert [type(summary[k]) for k in list(summary)[1:]] == [float, float, float, float, int, int, float]

    def test_reruns_byte_identical(self, tmp_path):
        cfg_a = small_config(tmp_path, output_dir=str(tmp_path / "a"))
        cfg_b = small_config(tmp_path, output_dir=str(tmp_path / "b"))
        execute(cfg_a)
        execute(cfg_b)
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_worker_count_byte_identical(self, tmp_path, monkeypatch):
        """Every CSV, and summary.json but for how the run ran, at 1, 2 and 3
        processes over four chunks."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / str(workers)
            assert execute(small_config(tmp_path, trials=3 * CHUNK_SIZE + 5, output_dir=str(out), workers=workers)) == EXIT_OK
            assert json.loads((out / "summary.json").read_text())["workers_used"] == workers
            outputs.append(run_outputs(out))
        assert outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) == 4

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
    """A CLI run bins each chunk once per axis, delta E and E_0 (the profile
    is the E_0 histogram with E_F sums), where the chunk ran, and forms
    delta E = E_F - E_0 once per chunk. The result it keeps holds no
    per-trial array, and its reductions bin nothing more."""
    binned, formed, results = [], [], []  # (bin count, value count) of each binning pass; one entry per delta E formed
    bin_indices, task, run = experiment._bin_indices, experiment._chunk_task, cli.run_ensemble

    def counted_bin_indices(values, edges):
        binned.append((len(edges) - 1, len(values)))
        return bin_indices(values, edges)

    class FinalEoF(np.ndarray):
        def __sub__(self, other):
            formed.append(other.shape)
            return np.asarray(self) - other

    def marked_task(*args):
        e0, ef, failures = task(*args)
        return e0, ef.view(FinalEoF), failures

    def kept_run(*args, **kwargs):
        results.append(run(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(experiment, "_bin_indices", counted_bin_indices)
    monkeypatch.setattr(experiment, "_chunk_task", marked_task)
    monkeypatch.setattr(cli, "run_ensemble", kept_run)
    argv = ["--trials", "2000", "--delta-bins", "20", "--e0-bins", "10", "--workers", "1", "--output-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    assert binned == [(20, 2000), (10, 2000)]
    assert formed == [(2000,)]

    trials = 2 * CHUNK_SIZE + 17  # three chunks, the last one short
    binned.clear()
    formed.clear()
    argv[1] = str(trials)
    assert main(argv) == EXIT_OK
    assert binned == [(20, CHUNK_SIZE), (10, CHUNK_SIZE)] * 2 + [(20, 17), (10, 17)]
    assert formed == [(CHUNK_SIZE,), (CHUNK_SIZE,), (17,)]
    assert [(len(r), r.e0.size, r.ef.size, r.delta.size) for r in results] == [(2000, 0, 0, 0), (trials, 0, 0, 0)]


def output_bytes(out: Path) -> dict[str, bytes]:
    """Each output file's bytes, summary.json without its `wall_time_s` line."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["summary.json"] = b"".join(line for line in files["summary.json"].splitlines(keepends=True)
                                     if not line.lstrip().startswith(b'"wall_time_s"'))
    return files


@pytest.mark.parametrize("ensemble", ["pure", "mixed"])
def test_outputs_independent_of_chunk_size(tmp_path, monkeypatch, ensemble):
    """The golden configurations write the same bytes, every CSV and every
    summary.json key but `wall_time_s`, at chunks of 1000 and 3001 trials as
    at CHUNK_SIZE: every count is an integer and every sum exact."""
    out = tmp_path / "run"
    assert main(golden_argv(ensemble, out)) == EXIT_OK
    reference = output_bytes(out)
    assert sorted(reference) == ["conditional_mean.csv", "delta_hist.csv", "e0_hist.csv", "summary.json"]
    for size in (1000, 3001):
        monkeypatch.setattr(experiment, "CHUNK_SIZE", size)
        assert main(golden_argv(ensemble, out)) == EXIT_OK
        assert output_bytes(out) == reference, size


# Starts the CLI with the arguments it is given and prints the max RSS of
# it and its workers, as `os.wait4` reports it. The CLI is started from this
# small process: a child's max RSS includes the size of the process it was
# forked from until it execs, which for a test runner exceeds the CLI's own.
MAX_RSS = """
import os, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "entlab.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def max_rss_mib(argv: list[str]) -> float:
    """The largest max RSS, in MiB, of a CLI run in a subprocess and the
    workers it forked; the run must succeed."""
    done = subprocess.run([sys.executable, "-c", MAX_RSS, *argv], env=subprocess_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=120)
    status, kib = map(int, done.stdout.split())
    assert status == EXIT_OK, done.stderr
    return kib / 1024.0  # KiB on Linux


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_memory_stays_flat(tmp_path):
    """A run's peak memory does not grow with its trials: 2^21 pure trials
    on two processes peak within 2 MiB of 2^17, where keeping E_0 and E_F
    of every trial took ~30 MiB more."""
    peaks = [max_rss_mib(["--trials", str(trials), "--workers", "2", "--output-dir", str(tmp_path / str(trials))])
             for trials in (1 << 17, 1 << 21)]
    assert abs(peaks[1] - peaks[0]) < 2.0, peaks


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_writers_hold_no_whole_file(tmp_path):
    """10^6 delta E bins, an 8 MB accumulator, peak within 64 MiB of 100
    bins; building each CSV's lines in one list and joining them peaked
    ~165 MiB above."""
    peaks = [max_rss_mib(["--trials", "16384", "--delta-bins", str(bins), "--e0-bins", "50", "--workers", "1",
                          "--output-dir", str(tmp_path / str(bins))]) for bins in (100, 10**6)]
    assert peaks[1] - peaks[0] < 64.0, peaks


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_large_bin_run_holds_each_array_once(tmp_path):
    """10^6 delta E bins peak within 28 MiB of 100 bins: the edges, the
    accumulator row and its working copy, 8 MB each. A spare rerun row, the
    sum of the rows plus it, and a histogram's own edges and copied counts
    peaked ~36.5 MiB above."""
    peaks = [max_rss_mib(["--trials", "16384", "--delta-bins", str(bins), "--e0-bins", "50", "--workers", "1",
                          "--output-dir", str(tmp_path / str(bins))]) for bins in (100, 10**6)]
    assert peaks[1] - peaks[0] < 28.0, peaks


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


@pytest.mark.skipif(experiment.available_cpus() < 2, reason="fewer than 2 CPUs: a second process would not be forked")
def test_golden_csv_bytes_from_forked_workers(tmp_path):
    """The golden configurations, run by the program entry with a forked
    worker beside the CLI process, write the pinned bytes."""
    for ensemble in GOLDEN_CSV_SHA256:
        out = tmp_path / ensemble
        done = subprocess.run([sys.executable, "-m", "entlab.cli", *golden_argv(ensemble, out), "--workers", "2"],
                              env=subprocess_env(), capture_output=True, text=True)
        assert done.returncode == EXIT_OK, done.stderr
        assert csv_digests(out, ensemble) == GOLDEN_CSV_SHA256[ensemble]
        assert json.loads((out / "summary.json").read_text())["workers_used"] == 2


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

    @pytest.mark.parametrize("formats", ["json", "csv"])
    def test_subset_run_leaves_only_its_set(self, tmp_path, formats):
        """A run into a directory holding part of an earlier run's set (only
        its summary.json, or only its CSVs) leaves exactly its own four files
        there, each equal to a fresh run's, and leaves files that are not
        entlab outputs alone."""
        out, fresh = tmp_path / "run", tmp_path / "fresh"
        assert main([*self.ARGS, "--seed", "1", "--output-dir", str(out)]) == EXIT_OK
        for p in out.iterdir():
            if (p.suffix == ".json") != (formats == "json"):
                p.unlink()
        (out / "notes.txt").write_text("kept")
        for d in (out, fresh):
            assert main([*self.ARGS, "--seed", "2", "--output-dir", str(d)]) == EXIT_OK
        names = ["conditional_mean.csv", "delta_hist.csv", "e0_hist.csv", "summary.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted([*names, "notes.txt"])
        assert (out / "notes.txt").read_text() == "kept"
        for name in names[:3]:
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        summaries = [json.loads((d / "summary.json").read_text()) for d in (out, fresh)]
        for summary, d in zip(summaries, (out, fresh)):  # all but the output directory and the wall time
            assert summary["config"].pop("output_dir") == str(d) and summary.pop("wall_time_s") > 0
        assert summaries[0] == summaries[1] and summaries[0]["config"]["seed"] == 2

    def test_temporary_directory_inside_the_output_directory(self, tmp_path, monkeypatch):
        """The files are written on the output directory's own filesystem, so
        moving them in never crosses to another one, as it would where the
        output directory is a mount point, and only that directory must be
        writable."""
        dirs, mkdtemp = [], tempfile.mkdtemp
        monkeypatch.setattr(tempfile, "mkdtemp", lambda **kwargs: dirs.append(kwargs["dir"]) or mkdtemp(**kwargs))
        out = tmp_path / "run"
        assert main([*self.ARGS, "--seed", "3", "--output-dir", str(out)]) == EXIT_OK
        assert [Path(d) for d in dirs] == [out]

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
        code = main(["--trials", "500", "--seed", "3", "--workers", "1", "--output-dir", str(tmp_path / "run")])
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
        assert_no_children()
        return code, err

    def test_numeric_error_in_a_child_exit_code(self, tmp_path, capsys, monkeypatch):
        fail_at(monkeypatch, {CHUNK_SIZE: NumericError(f"chunk {CHUNK_SIZE} failed")})  # the child's chunk
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_NUMERIC
        assert err == f"numeric quality breach: chunk {CHUNK_SIZE} failed\n"

    @pytest.mark.parametrize("where", ["this process", "a child"])
    def test_memory_error_exit_code(self, tmp_path, capsys, monkeypatch, where):
        def exhausted(*args):
            raise MemoryError

        if where == "this process":
            monkeypatch.setattr(experiment, "_chunk_task", exhausted)
        else:  # the child's chunk, which fails again when the caller reruns it
            fail_at(monkeypatch, {CHUNK_SIZE: MemoryError()})
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_RESOURCES
        assert err == "resources exhausted: out of memory\n"

    def test_killed_child_exit_code(self, tmp_path, capsys, monkeypatch):
        in_children(monkeypatch, sigkill)
        code, err = self.run(tmp_path, capsys, monkeypatch)
        assert code == EXIT_RESOURCES
        assert err.startswith("resources exhausted: ") and "killed by signal" in err


def imported_by_run(tmp_path, modules: tuple[str, ...], workers: int = 1) -> str:
    """Which of `modules` a fresh process holds after `import entlab.cli`,
    and then after a `main` on `workers` processes (on two CPUs, whatever
    this machine has), as two printed lists."""
    code = (
        "import json, os, sys, entlab.cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"unwanted = {modules!r}\n"
        "imported = [m for m in unwanted if m in sys.modules]\n"
        f"argv = ['--trials', '20000', '--workers', '{workers}', '--output-dir', {str(tmp_path / 'run')!r}]\n"
        "assert entlab.cli.main(argv) == 0\n"
        f"assert json.loads(open({str(tmp_path / 'run' / 'summary.json')!r}).read())['workers_used'] == {workers}\n"
        "print(imported, [m for m in unwanted if m in sys.modules])\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_serial_run_imports_no_process_machinery(tmp_path):
    """`import entlab.cli` and a one-worker run leave the process modules unimported."""
    assert imported_by_run(tmp_path, ("multiprocessing", "concurrent.futures")) == "[] []\n"


def test_serial_run_imports_no_unused_modules(tmp_path):
    """Nor do they import `dataclasses` (the value classes are plain),
    `entlab.qstate` (only the scalar API takes its states) or `numpy.random`
    (the engine runs its own Philox)."""
    assert imported_by_run(tmp_path, ("dataclasses", "entlab.qstate", "numpy.random")) == "[] []\n"


def test_parallel_run_imports_no_process_machinery(tmp_path):
    """A two-worker run imports no process machinery either: it forks with
    `os.fork` and reaps with `os.waitpid`, with no `multiprocessing`, no
    pipes and no sockets, and a failed run kills its workers with `os.kill`
    alone, so no run imports `signal`."""
    modules = ("multiprocessing", "concurrent.futures", "socket", "selectors", "signal")
    assert imported_by_run(tmp_path, modules, workers=2) == "[] []\n"


def test_long_worker_report_reaches_the_caller(tmp_path):
    """The error of a worker's chunk arrives whole however long its message,
    here longer than a pipe holds: the worker sends nothing, and the CLI
    process raises the error when it reruns the chunk."""
    code = (
        "import os, sys\n"
        "from entlab import cli, experiment\n"
        "from entlab.errors import NumericError\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "task = experiment._chunk_task\n"
        "def chunk_task(kind, seed, start, count):\n"
        f"    if start == {CHUNK_SIZE}:\n"
        "        raise NumericError('x' * 200_000)\n"
        "    return task(kind, seed, start, count)\n"
        "experiment._chunk_task = chunk_task\n"
        f"sys.exit(cli.main(['--trials', '{CHUNK_SIZE + 1}', '--workers', '2', '--output-dir', {str(tmp_path / 'run')!r}]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True, timeout=60
    )
    assert done.returncode == EXIT_NUMERIC, done.stderr[:1000]
    assert done.stderr == f"numeric quality breach: {'x' * 200_000}\n"


def running(pid: int) -> bool:
    """Whether `pid` names a process that has not exited: a zombie, left
    for its new parent to reap, has."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def start_parallel_run(tmp_path, output_dir: Path, entry: str = "main", **popen) -> tuple[subprocess.Popen, int]:
    """A CLI run of 2·10^7 pure trials at `--workers 2` in a subprocess,
    through `cli.main` or, with `entry="run"`, the program entry, once its
    worker has begun its first chunk: the process, and the pid a wrapped
    `experiment._chunk_task` wrote to `tmp_path / "worker.pid"` in the
    worker."""
    pid_file = tmp_path / "worker.pid"
    code = (
        "import os, signal, sys\n"
        "from entlab import cli, experiment\n"
        "signal.signal(signal.SIGINT, signal.default_int_handler)  # not ignored, as under a shell's background job\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"task, parent, pid_file = experiment._chunk_task, os.getpid(), {str(pid_file)!r}\n"
        "def chunk_task(*args):\n"
        "    if os.getpid() != parent and not os.path.exists(pid_file):\n"
        "        with open(pid_file + '.part', 'w') as f:\n"
        "            f.write(str(os.getpid()))\n"
        "        os.replace(pid_file + '.part', pid_file)\n"
        "    return task(*args)\n"
        "experiment._chunk_task = chunk_task\n"
        f"sys.argv[1:] = ['--trials', '20000000', '--workers', '2', '--output-dir', {str(output_dir)!r}]\n"
        f"sys.exit(cli.{entry}())\n"
    )
    env = subprocess_env(OPENBLAS_NUM_THREADS="1")
    proc = subprocess.Popen([sys.executable, "-c", code], env=env, stdout=subprocess.DEVNULL, **popen)
    try:
        deadline = time.monotonic() + 60
        while not pid_file.exists():
            assert proc.poll() is None and time.monotonic() < deadline, "the run forked no worker"
            time.sleep(0.01)
        return proc, int(pid_file.read_text())
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def stop(proc: subprocess.Popen, worker: int) -> None:
    """Kill a run started by `start_parallel_run`, and its worker, if either is still running."""
    proc.kill()
    proc.wait()
    if running(worker):
        os.kill(worker, signal.SIGKILL)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read a process's state from")
def test_orphaned_worker_stops(tmp_path):
    """A worker whose CLI process is killed by SIGKILL, so that none of its
    cleanup runs, stops before its next chunk rather than computing the rest
    of its share: here ~10^7 trials, which take seconds."""
    proc, worker = start_parallel_run(tmp_path, tmp_path / "run", stderr=subprocess.DEVNULL)
    try:
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 2
        while running(worker) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not running(worker), "the orphaned worker was still running 2 s after its CLI process died"
    finally:
        stop(proc, worker)


def cli_run(output_dir: Path) -> None:
    """A short CLI run into `output_dir` in a subprocess, which must succeed."""
    argv = ["--trials", "100", "--workers", "1", "--output-dir", str(output_dir)]
    done = subprocess.run([sys.executable, "-m", "entlab.cli", *argv], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read a process's state from")
def test_later_run_removes_a_killed_runs_temporary_directory(tmp_path):
    """A run killed by SIGKILL runs no cleanup and leaves its temporary
    directory; the next run into the same output directory removes it, as
    the pid in its name is gone."""
    out = tmp_path / "run"
    proc, worker = start_parallel_run(tmp_path, out, stderr=subprocess.DEVNULL)
    try:
        proc.kill()
        proc.wait()
        assert len(list(tmp_path.glob("**/.entlab-*"))) == 1
    finally:
        stop(proc, worker)
    cli_run(out)
    assert not list(tmp_path.glob("**/.entlab-*"))


@pytest.mark.skipif(importlib.util.find_spec("fcntl") is None, reason="no fcntl to lock the output directory with")
def test_temporary_directories_under_the_lock_are_orphans(tmp_path):
    """A `.entlab-<pid>-*` directory is removed even when its pid is alive,
    here this test's, standing for a pid the system has reused: the run
    that made it no longer holds the output directory's lock. A `.entlab-*`
    of any other name is left alone."""
    out = tmp_path / "run"
    for d in (out / f".entlab-{os.getpid()}-x", out / ".entlab-other"):
        d.mkdir(parents=True)
    cli_run(out)
    assert list(out.glob(".entlab-*")) == [out / ".entlab-other"]


def test_no_sweep_without_a_lock(tmp_path, monkeypatch):
    """Where `fcntl` is missing, as on Windows, a run takes no lock, so it
    cannot tell a leftover from a running run's directory: it removes none,
    and signals no process."""
    leftover = tmp_path / "run" / ".entlab-1-x"
    leftover.mkdir(parents=True)

    def refused(*args):
        raise AssertionError("os.kill was called")

    monkeypatch.setattr(cli, "fcntl", None)
    monkeypatch.setattr(os, "kill", refused)
    assert main(["--trials", "100", "--workers", "1", "--output-dir", str(tmp_path / "run")]) == EXIT_OK
    assert leftover.is_dir()


OUTPUT_NAMES = ["conditional_mean.csv", "delta_hist.csv", "e0_hist.csv", "summary.json"]  # sorted


@pytest.mark.skipif(importlib.util.find_spec("fcntl") is None, reason="no fcntl to lock the output directory with")
@pytest.mark.parametrize("second, status, err", [("run", EXIT_IO, "I/O error: output directory in use\n"),
                                                 ("sibling", EXIT_OK, "")], ids=["same", "sibling"])
def test_run_in_progress_keeps_its_directory(tmp_path, second, status, err):
    """A second run started while a first is moving its files in, between
    its CSVs and summary.json, exits 2 before any trial if it writes into the
    same directory, which leaves the first run's set whole: without the lock,
    its four files would go in between and be left under the first run's
    summary. A run into a sibling directory is not held up."""
    out = tmp_path / "run"
    second_argv = ["--trials", "100", "--seed", "2", "--workers", "1", "--output-dir", str(tmp_path / second)]
    code = (
        "import os, subprocess, sys\n"
        "from entlab import cli\n"
        "replace = os.replace\n"
        "def staged(src, dst):\n"
        "    if os.path.basename(src) == 'summary.json':\n"
        f"        argv = [sys.executable, '-m', 'entlab.cli', *{second_argv!r}]\n"
        "        done = subprocess.run(argv, capture_output=True, text=True)\n"
        "        print(done.returncode, done.stderr, end='')\n"
        "    replace(src, dst)\n"
        "os.replace = staged\n"
        f"sys.exit(cli.main(['--trials', '100', '--seed', '1', '--workers', '1', '--output-dir', {str(out)!r}]))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    alone = ["--trials", "100", "--seed", "1", "--workers", "1", "--output-dir", str(tmp_path / "alone")]
    assert main(alone) == EXIT_OK
    assert run_outputs(out) == run_outputs(tmp_path / "alone")
    assert done.stdout == f"{status} {err}"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"run", "alone", second})


def test_finished_run_leaves_its_directory_free(tmp_path):
    """A run into the directory of one that has finished is not refused:
    twice in one process, where the first run and its forked worker have
    closed the lock's descriptor, and then from a new process."""
    out = tmp_path / "run"
    code = (
        "import os\n"
        "from entlab import cli\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        f"argv = ['--trials', '20000', '--workers', '2', '--output-dir', {str(out)!r}]\n"
        "print(cli.main(argv), cli.main(argv))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == f"{EXIT_OK} {EXIT_OK}\n"
    cli_run(out)


def test_no_lock_without_fcntl(tmp_path, monkeypatch):
    """Where `fcntl` is missing, as on Windows, a run takes no lock and
    writes its files as before."""
    monkeypatch.setattr(cli, "fcntl", None)
    assert main(["--trials", "100", "--workers", "1", "--output-dir", str(tmp_path / "run")]) == EXIT_OK
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == OUTPUT_NAMES


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read a process's state from")
def test_interrupted_run_exit_code(tmp_path):
    """SIGINT to the CLI process of a two-worker run, once its worker has
    started: exit 130 with one stderr line, the worker stopped and reaped,
    and neither the temporary directory nor the output directories the run
    made left behind."""
    proc, worker = start_parallel_run(tmp_path, tmp_path / "new" / "run", stderr=subprocess.PIPE, text=True)
    try:
        proc.send_signal(signal.SIGINT)
        err = proc.communicate(timeout=60)[1]
        assert proc.returncode == EXIT_INTERRUPTED, err[-2000:]
        assert err == "interrupted\n"
        assert not running(worker), "the worker outlived its CLI process"
        assert [path.name for path in tmp_path.iterdir()] == ["worker.pid"]  # no .entlab-*, no new/ or new/run
    finally:
        stop(proc, worker)


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="no /proc to read a process's state from")
def test_terminated_run_exit_code(tmp_path):
    """SIGTERM to the CLI process of a two-worker run started through the
    program entry, once its worker has started: as SIGINT, but exit 143 and
    `terminated` as the one stderr line."""
    output_dir = tmp_path / "new" / "run"
    proc, worker = start_parallel_run(tmp_path, output_dir, entry="run", stderr=subprocess.PIPE, text=True)
    try:
        proc.send_signal(signal.SIGTERM)
        err = proc.communicate(timeout=60)[1]
        assert proc.returncode == EXIT_TERMINATED, err[-2000:]
        assert err == "terminated\n"
        assert not running(worker), "the worker outlived its CLI process"
        assert [path.name for path in tmp_path.iterdir()] == ["worker.pid"]  # no .entlab-*, no new/ or new/run
    finally:
        stop(proc, worker)


def test_worker_terminated_alone_costs_time(tmp_path):
    """SIGTERM to a worker alone, through the handler it inherits from the
    program entry, ends that worker without a word, and the CLI process runs
    its chunks: the run exits 0 with the outputs of a serial run, the
    summary means and counts included."""
    code = (
        "import os, signal, sys\n"
        "from entlab import cli, experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "task, parent = experiment._chunk_task, os.getpid()\n"
        "def chunk_task(*args):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "    return task(*args)\n"
        "experiment._chunk_task = chunk_task\n"
        "sys.exit(cli.run())\n"
    )
    argv = ["--trials", str(3 * CHUNK_SIZE), "--seed", "3"]
    done = subprocess.run([sys.executable, "-c", code, *argv, "--workers", "2", "--output-dir", str(tmp_path / "par")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr[-2000:]
    assert done.stderr == ""
    assert main([*argv, "--workers", "1", "--output-dir", str(tmp_path / "serial")]) == EXIT_OK
    # every CSV and summary.json key as the serial run's: no chunk of the worker's was counted twice or lost
    assert run_outputs(tmp_path / "par") == run_outputs(tmp_path / "serial")
    assert len(run_outputs(tmp_path / "par")) == 4
    assert json.loads((tmp_path / "par" / "summary.json").read_text())["workers_used"] == 2


def test_worker_terminated_inside_a_fold_costs_time(tmp_path):
    """SIGTERM to a worker alone while it folds its first chunk into its
    accumulator, after the delta E counts and before the rest: the worker
    leaves its row as it was, so the CLI process reruns that chunk and no
    count of it is kept twice. The outputs are a serial run's."""
    code = (
        "import os, signal, sys\n"
        "from entlab import cli, experiment\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "limbs, parent = experiment._limbs, os.getpid()\n"
        "def interrupted(x):\n"
        "    if os.getpid() != parent:\n"
        "        os.kill(os.getpid(), signal.SIGTERM)\n"
        "    return limbs(x)\n"
        "experiment._limbs = interrupted\n"
        "sys.exit(cli.run())\n"
    )
    argv = ["--trials", str(3 * CHUNK_SIZE), "--seed", "3"]
    done = subprocess.run([sys.executable, "-c", code, *argv, "--workers", "2", "--output-dir", str(tmp_path / "par")],
                          env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr[-2000:]
    assert done.stderr == ""
    assert main([*argv, "--workers", "1", "--output-dir", str(tmp_path / "serial")]) == EXIT_OK
    assert run_outputs(tmp_path / "par") == run_outputs(tmp_path / "serial")
    assert json.loads((tmp_path / "par" / "summary.json").read_text())["workers_used"] == 2


def test_failed_run_kills_workers_that_ignore_sigterm(tmp_path):
    """A two-worker run started with SIGTERM ignored, which its workers
    inherit, whose chunk 0 fails in the CLI process: the worker is killed
    at once, not left to finish its share of 5·10^6 trials (seconds), and
    the run exits 3 with no child left."""
    code = (
        "import os, signal, sys, time\n"
        "from entlab import cli, experiment\n"
        "from entlab.errors import NumericError\n"
        "signal.signal(signal.SIGTERM, signal.SIG_IGN)\n"
        "os.sched_getaffinity = lambda pid: {0, 1}\n"
        "task = experiment._chunk_task\n"
        "def chunk_task(kind, seed, start, count):\n"
        "    if start == 0:\n"
        "        raise NumericError('chunk 0 failed')\n"
        "    return task(kind, seed, start, count)\n"
        "experiment._chunk_task = chunk_task\n"
        "t0 = time.monotonic()\n"
        f"code = cli.main(['--trials', '10000000', '--workers', '2', '--output-dir', {str(tmp_path / 'run')!r}])\n"
        "print(time.monotonic() - t0)\n"
        "try:\n"
        "    print(os.waitpid(-1, os.WNOHANG))\n"
        "except ChildProcessError:\n"
        "    print('no child')\n"
        "sys.exit(code)\n"
    )
    env = subprocess_env(OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == EXIT_NUMERIC, done.stderr[-2000:]
    assert done.stderr == "numeric quality breach: chunk 0 failed\n"
    seconds, children = done.stdout.splitlines()
    assert float(seconds) < 2, f"the failed run took {seconds} s to return"
    assert children == "no child"


@pytest.mark.skipif(not Path("/proc/self/statm").exists(), reason="no /proc to read a process's size from")
def test_unmappable_results_exit_code(tmp_path):
    """A run whose accumulator mapping exceeds the address-space limit exits
    4 with one line on stderr, and leaves neither a temporary directory nor
    the output directories it made. The accumulators grow with the bin
    counts, not the trials: here the largest bin counts, ~46 MiB per process,
    beyond a limit 40 MiB above what the process holds once numpy is imported."""
    code = (
        "import resource, runpy, sys\n"
        "import numpy\n"
        "held = int(open('/proc/self/statm').read().split()[0]) * resource.getpagesize()\n"
        "resource.setrlimit(resource.RLIMIT_AS, (held + (40 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))\n"
        f"sys.argv = ['entlab', '--trials', '1', '--delta-bins', '{MAX_BINS}', '--e0-bins', '{MAX_BINS}', '--workers', '1',"
        " '--output-dir', 'new/out']\n"
        "runpy.run_module('entlab.cli', run_name='__main__', alter_sys=True)\n"
    )
    env = subprocess_env(OPENBLAS_NUM_THREADS="1")
    done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True)
    assert done.returncode == EXIT_RESOURCES, done.stderr
    assert done.stderr.startswith("resources exhausted: could not map the accumulators"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert list(tmp_path.iterdir()) == []


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


def test_library_calls_leave_the_collector_alone(tmp_path):
    """`import entlab.cli`, `parse_args` and an in-process `main` leave the
    garbage collector enabled and nothing frozen, and SIGTERM's handler as
    it was: only the program entry freezes and handles SIGTERM."""
    code = (
        "import gc, signal\n"
        "import entlab.cli as cli\n"
        "cli.parse_args(['--ensemble', 'mixed'])\n"
        f"assert cli.main(['--trials', '100', '--workers', '1', '--output-dir', {str(tmp_path / 'run')!r}]) == 0\n"
        "print(gc.isenabled(), gc.get_freeze_count(), signal.getsignal(signal.SIGTERM) is signal.SIG_DFL)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True 0 True\n"


@pytest.mark.parametrize("argv, status", [(["--trials", "100", "--workers", "1"], EXIT_OK), (["--frobnicate"], EXIT_USAGE)],
                         ids=["run", "bad-flag"])
def test_program_entry_freezes_and_passes_the_status(tmp_path, argv, status):
    """`python -m entlab.cli` freezes the import-time heap before the run,
    and exits with main's status; atexit handlers run."""
    code = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count()))\n"
        f"sys.argv = ['entlab', *{argv!r}, '--output-dir', {str(tmp_path / 'run')!r}]\n"
        "runpy.run_module('entlab.cli', run_name='__main__', alter_sys=True)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True)
    assert done.returncode == status, done.stderr
    assert int(done.stdout) > 0


def entry_code(argv: list[str], before: str = "") -> str:
    """Python source that runs `python -m entlab.cli` on `argv` through
    `runpy`, after the statements `before`."""
    return (
        f"import runpy, sys\n{before}"
        f"sys.argv = ['entlab', *{argv!r}]\n"
        "runpy.run_module('entlab.cli', run_name='__main__', alter_sys=True)\n"
    )


def test_program_collects_at_most_twice(tmp_path):
    """The program's imports make no collection, as the collector is paused
    until `run` has frozen what they made: a pure run of 16384 trials on one
    worker collects at most twice in the whole process (32 times with the
    collector on through the imports)."""
    before = (
        "import atexit, gc\n"
        "starts = []\n"
        "gc.callbacks.append(lambda phase, info: phase == 'start' and starts.append(phase))\n"
        "atexit.register(lambda: print(len(starts)))\n"
    )
    argv = ["--trials", "16384", "--workers", "1", "--output-dir", str(tmp_path / "run")]
    done = subprocess.run([sys.executable, "-c", entry_code(argv, before)], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert int(done.stdout) <= 2


def test_profiled_program_prints_its_profile(tmp_path):
    """Under `python -m cProfile`, the program entry returns its status for a
    normal shutdown, which lets cProfile print the profile, in place of
    leaving by `os._exit`; the run writes its four files."""
    out = tmp_path / "run"
    argv = ["-m", "cProfile", "-m", "entlab.cli", "--trials", "100", "--workers", "1", "--output-dir", str(out)]
    done = subprocess.run([sys.executable, *argv], env=subprocess_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert " function calls " in done.stdout
    assert sorted(p.name for p in out.iterdir()) == OUTPUT_NAMES


@pytest.mark.parametrize("hook", ["settrace", "setprofile"])
def test_program_entry_returns_under_a_tracer(hook):
    """With a trace or profile function set, as by pdb, trace or a profiler,
    `run` returns main's status to its caller."""
    code = (
        "import runpy, sys\n"
        f"sys.{hook}(lambda *args: None)\n"
        "sys.argv = ['entlab', '--frobnicate']\n"
        "try:\n"
        "    runpy.run_module('entlab.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=subprocess_env(), capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == f"{EXIT_USAGE}\n"


def test_program_flushes_before_its_exit():
    """`--help` on a block-buffered stdout (a pipe, PYTHONUNBUFFERED unset)
    prints the usage text and exits 0: `run` flushes stdout before
    `os._exit`, which would drop what is buffered."""
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    done = subprocess.run([sys.executable, "-m", "entlab.cli", "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("usage: entlab ")


def test_help_without_docstrings():
    """Under `python -OO`, which strips the docstring, `--help` still prints
    the usage line, with every flag, and exits 0."""
    done = subprocess.run([sys.executable, "-OO", "-m", "entlab.cli", "--help"], env=subprocess_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout.startswith("usage: entlab ")
    assert "Exit statuses" not in done.stdout
    for flag in ("-h", "--ensemble", "--trials", "--seed", "--delta-bins", "--e0-bins", "--workers", "--output-dir"):
        assert flag in done.stdout, flag


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full to fail a write on")
def test_failed_flush_is_left_to_the_shutdown(tmp_path):
    """Where flushing stdout fails, here on /dev/full, `run` returns, and the
    interpreter's shutdown reports the error and exits 120, as without the
    early exit."""
    before = "import atexit\natexit.register(print, 'buffered')\n"
    code = entry_code(["--trials", "100", "--workers", "1", "--output-dir", str(tmp_path / "run")], before)
    env = subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)
    with open("/dev/full", "w") as full:
        done = subprocess.run([sys.executable, "-c", code], env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                              timeout=60)
    assert done.returncode == 120, done.stderr
    assert "No space left on device" in done.stderr and "Traceback" not in done.stderr


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_script_is_the_main_block_entry():
    """The `entlab` script calls the function that cli.py's `__main__` block calls."""
    import tomllib

    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    tree = ast.parse(Path(cli.__file__).read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'")
    calls = [node.func.id for node in ast.walk(block) if isinstance(node, ast.Call) and node.func.id != "SystemExit"]
    assert [scripts["entlab"]] == [f"entlab.cli:{name}" for name in calls]


# argv values at the chunk edges and the range limits: each flag takes a
# value that runs, or one that must exit with the usage status
ACCEPTED = {
    "--trials": [1, 8191, 8192, 8193],
    "--delta-bins": [2, 3, 100],
    "--e0-bins": [2, 3, 100],
    "--seed": [0, 2**64 - 1],
    "--workers": ["1", "2", "auto"],
}
REFUSED = {
    "--trials": [MAX_TRIALS + 1],
    "--delta-bins": [1, MAX_BINS + 1],
    "--e0-bins": [1, MAX_BINS + 1],
    "--seed": [-1, 2**64],
    "--workers": ["0"],
    "--output-dir": [""],
}
UNDER_A_FILE = "--output-dir under a file"


@st.composite
def argv_cases(draw):
    """(flag values, the one flag given a refused value, UNDER_A_FILE for an
    output path under a file, or None, and whether each flag is given as
    `--name=value` rather than `--name value`), with the values drawn from
    ACCEPTED elsewhere. None is weighted as all the others together, so that
    most examples reach a run."""
    broken = draw(st.sampled_from([None] * 8 + [*REFUSED, UNDER_A_FILE]))
    values = {flag: draw(st.sampled_from(ACCEPTED[flag])) for flag in ACCEPTED}
    if broken in REFUSED:
        values[broken] = draw(st.sampled_from(REFUSED[broken]))
    values["--ensemble"] = draw(st.sampled_from(["pure", "mixed"]))
    return values, broken, draw(st.booleans())


def run_main(values: dict, out: Path, joined: bool = False) -> tuple[int, str]:
    """`main` with `out` as the output directory, unless `values` gives one
    (the last given wins); each flag as `--name=value` if `joined`."""
    pairs = [("--output-dir", out), *values.items()]
    argv = [f"{flag}={value}" for flag, value in pairs] if joined else [str(x) for pair in pairs for x in pair]
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
    values, broken, joined = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "file").write_text("not a directory")
        out = root / ("file" if broken == UNDER_A_FILE else "run") / "out"
        code, err = run_main(values, out, joined)
        assert "Traceback" not in err
        assert not list(root.glob("**/.entlab-*"))
        if broken is not None:
            assert code == (EXIT_IO if broken == UNDER_A_FILE else EXIT_USAGE), err
            assert err.count("\n") == 1, err
            assert sorted(p.name for p in root.iterdir()) == ["file"]
            return
        assert code == EXIT_OK, err
        trials = values["--trials"]
        assert read_csv_counts(out / "delta_hist.csv", 2) == trials
        assert read_csv_counts(out / "e0_hist.csv", 2) == trials
        assert read_csv_counts(out / "conditional_mean.csv", 3) == trials
        other = root / "other"
        assert run_main({**values, "--workers": "2" if values["--workers"] == "1" else "1"}, other, joined)[0] == EXIT_OK
        for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv"):
            assert (out / name).read_bytes() == (other / name).read_bytes()
