import csv
import json
import os

import numpy as np
import pytest

from entlab import experiment
from entlab.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, MAX_BINS, RunConfig, execute, main, parse_args
from entlab.errors import UsageError
from entlab.experiment import MAX_RETRIES, RETRY_STRIDE

from conftest import poison_draws


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


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["--trials", "0"]) == EXIT_USAGE
        assert "trials" in capsys.readouterr().err

    def test_unknown_flag_exit_code(self):
        assert main(["--frobnicate"]) == EXIT_USAGE

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("file, not a directory")
        code = main(
            ["--trials", "500", "--delta-bins", "10", "--e0-bins", "5",
             "--workers", "1", "--output-dir", str(blocker)]
        )
        assert code == EXIT_IO

    def test_successful_small_run(self, tmp_path):
        code = main(
            ["--ensemble", "pure", "--trials", "500", "--seed", "3",
             "--delta-bins", "10", "--e0-bins", "5", "--workers", "1",
             "--output-dir", str(tmp_path / "run")]
        )
        assert code == EXIT_OK
        assert (tmp_path / "run" / "summary.json").exists()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_retried_draw_is_counted(self, tmp_path, capsys, monkeypatch):
        # at the real 1e-6 budget a single failure is allowed only from 10^6 trials
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {7})
        code, _ = self.run(tmp_path, capsys)
        assert code == EXIT_OK
        assert json.loads((tmp_path / "run" / "summary.json").read_text())["failures"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_exhausted_retries_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(experiment, "MAX_FAILURE_RATE", 1.0)
        poison_draws(monkeypatch, {7 + k * RETRY_STRIDE for k in range(MAX_RETRIES + 1)})
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "resamples" in err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failure_budget_exit_code(self, tmp_path, capsys, monkeypatch):
        poison_draws(monkeypatch, {7})
        code, err = self.run(tmp_path, capsys)
        assert code == EXIT_NUMERIC
        assert "budget" in err
