import copy
import errno
import json
import os
import stat
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankflex import cli
from rankflex.allocator import BudgetSchedule
from rankflex.checkpoint import load_checkpoint
from rankflex.cli import OUTPUT_DIR_ENV, main
from rankflex.config import config_to_json, parse_config
from rankflex.allocator import AllocationEvent
from rankflex.importance import (
    elem_energy_entropy,
    frobenius_mean,
    mat_energy_entropy,
    nuclear_mean,
    spectral_entropy,
)
from rankflex.trace import heatmap_csv_lines, read_trace, trace_lines, verify_trace


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)


def base_config():
    return {
        "name": "cliunit",
        "seed": 3,
        "model": {"layers": [
            {"type": "linear", "d_in": 8, "d_out": 6,
             "adapter": {"id": "enc", "r_init": 2, "r_max": 4}},
            {"type": "tanh"},
            {"type": "linear", "d_in": 6, "d_out": 4,
             "adapter": {"id": "dec", "r_init": 2, "r_max": 4}},
        ]},
        "task": {"kind": "low_rank_teacher", "input_dim": 8,
                 "sample_count": 48, "noise_std": 0.05,
                 "teacher_ranks": [3, 1]},
        "optimizer": {"lr": 0.005},
        "schedule": {"b0": 1, "t_warmup": 20, "t_final": 20,
                     "total_steps": 150, "delta_t": 25},
        "batch_size": 8,
        "log_every": 25,
    }


def write_config(tmp_path, obj=None, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj if obj is not None else base_config()))
    return str(path)


ARTIFACTS = ("trace.jsonl", "metrics.csv", "checkpoint.txt",
             "effective_config.json")


class TestTrain:
    def test_happy_path(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", cfg]) == 0
        out = capsys.readouterr().out
        assert "completed 150 steps" in out
        outdir = tmp_path / "runs" / "cliunit"
        for name in ARTIFACTS:
            assert (outdir / name).is_file(), name
        assert not (outdir / ".lock").exists()
        header, events, abort = read_trace(outdir / "trace.jsonl")
        assert abort is None
        assert verify_trace(header, events) == []
        model = load_checkpoint(outdir / "checkpoint.txt")
        assert [a.id for a in model.adapters()] == ["enc", "dec"]
        effective = json.loads((outdir / "effective_config.json").read_text())
        assert parse_config(effective).fingerprint() == header["config_hash"]
        metrics = (outdir / "metrics.csv").read_text().splitlines()
        assert metrics[0] == "step,loss,total_rank,param_count,rank_enc,rank_dec"

    def test_rerun_from_other_directory_is_byte_identical(
            self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        for sub in ("one", "two"):
            d = tmp_path / sub
            d.mkdir()
            monkeypatch.chdir(d)
            assert main(["train", cfg]) == 0
        for name in ARTIFACTS:
            a = (tmp_path / "one" / "runs" / "cliunit" / name).read_bytes()
            b = (tmp_path / "two" / "runs" / "cliunit" / name).read_bytes()
            assert a == b, name

    def test_seed_flag_overrides_config(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", cfg, "--seed", "9"]) == 0
        outdir = tmp_path / "runs" / "cliunit"
        header, _, _ = read_trace(outdir / "trace.jsonl")
        assert header["seed"] == 9
        effective = json.loads((outdir / "effective_config.json").read_text())
        assert effective["seed"] == 9

    def test_overrides_applied_and_recorded(self, tmp_path, monkeypatch,
                                            capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        rc = main(["train", cfg, "schedule.b0=2", "mode=expand_only"])
        assert rc == 0
        outdir = tmp_path / "runs" / "cliunit"
        effective = json.loads((outdir / "effective_config.json").read_text())
        assert effective["schedule"]["b0"] == 2
        assert effective["mode"] == "expand_only"
        assert effective["applied_overrides"] == ["schedule.b0=2",
                                                  "mode=expand_only"]
        header, events, _ = read_trace(outdir / "trace.jsonl")
        assert header["mode"] == "expand_only"
        assert events and all(e.action == "expand" for e in events)

    def test_env_var_redirects_output(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        envdir = tmp_path / "redirected"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(envdir))
        cfg = write_config(tmp_path)
        assert main(["train", cfg]) == 0
        for name in ARTIFACTS:
            assert (envdir / name).is_file(), name
        assert not (tmp_path / "runs").exists()
        effective = json.loads((envdir / "effective_config.json").read_text())
        assert effective["output_dir"] == str(envdir)

    def test_env_var_does_not_change_config_hash(self, tmp_path, monkeypatch,
                                                 capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", cfg]) == 0
        plain_header, _, _ = read_trace(
            tmp_path / "runs" / "cliunit" / "trace.jsonl")
        envdir = tmp_path / "redirected"
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(envdir))
        assert main(["train", cfg]) == 0
        env_header, _, _ = read_trace(envdir / "trace.jsonl")
        assert env_header["config_hash"] == plain_header["config_hash"]

    def test_explicit_override_beats_env_var(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path / "fromenv"))
        target = tmp_path / "explicit"
        cfg = write_config(tmp_path)
        assert main(["train", cfg, f"output_dir={target}"]) == 0
        assert (target / "trace.jsonl").is_file()
        assert not (tmp_path / "fromenv").exists()

    def test_missing_config_exits_2(self, tmp_path, capsys):
        assert main(["train", str(tmp_path / "absent.json")]) == 2
        assert "not found" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = base_config()
        raw["mystery"] = 1
        cfg = write_config(tmp_path, raw)
        assert main(["train", cfg]) == 2
        assert "config.mystery" in capsys.readouterr().err

    def test_malformed_override_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", cfg, "justakey"]) == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_divergence_exits_3_with_artifacts(self, tmp_path, monkeypatch,
                                               capsys):
        monkeypatch.chdir(tmp_path)
        raw = base_config()
        raw["optimizer"]["lr"] = 1000.0
        raw["task"]["teacher_scale"] = 3.0
        cfg = write_config(tmp_path, raw)
        assert main(["train", cfg]) == 3
        captured = capsys.readouterr()
        assert "diverged" in captured.err
        assert captured.err.startswith("diverged: loss ")
        outdir = tmp_path / "runs" / "cliunit"
        for name in ARTIFACTS:
            assert (outdir / name).is_file(), name
        header, events, abort = read_trace(outdir / "trace.jsonl")
        assert abort is not None and abort["reason"] == "divergence"
        assert f"at step {abort['step']}" in captured.err
        assert verify_trace(header, events, abort) == []
        assert main(["replay-verify", str(outdir / "trace.jsonl")]) == 0

    def test_divergence_prints_only_its_line(self, tmp_path):
        # The desk run overflows at step 1; numpy's warnings stay silent in
        # a fresh process, whose stderr holds only the diverged line.
        from test_golden import DESK

        cfg = write_config(tmp_path, DESK)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "rankflex", "train", cfg, "optimizer.lr=1e300",
             f"output_dir={tmp_path / 'out'}"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 3
        assert done.stderr == "diverged: loss nan at step 1\n"

    def test_overflowing_init_prints_only_its_error(self, tmp_path):
        # Set-up runs with numpy's overflow warnings off too: the init's
        # non-finite draw is reported once, by the adapter's own check.
        from test_golden import DESK

        cfg = write_config(tmp_path, DESK)
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "rankflex", "train", cfg, "init_strategy.gauss_std=1e308",
             f"output_dir={tmp_path / 'out'}"],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr == "error: P contains non-finite entries\n"

    def test_write_failing_mid_stream_keeps_the_old_artifact(self, tmp_path, monkeypatch,
                                                             capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        assert main(["train", cfg]) == 0
        outdir = tmp_path / "runs" / "cliunit"
        before = (outdir / "checkpoint.txt").read_bytes()
        opened = []

        class FullDisk:
            """Takes half of the first write, then fails as a full disk does."""

            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                self.fh.flush()
                opened.append(os.path.getsize(self.fh.name))
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def open_full(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            return FullDisk(fh) if Path(path).name.startswith("checkpoint.txt.") else fh

        monkeypatch.setattr(cli, "open", open_full, raising=False)
        assert main(["train", cfg, "--seed", "4"]) == 2
        assert "checkpoint.txt: cannot write it: No space left on device" in capsys.readouterr().err
        assert opened and opened[0] > 0  # the temporary file held part of the new text
        assert (outdir / "checkpoint.txt").read_bytes() == before
        assert sorted(p.name for p in outdir.iterdir()) == sorted(ARTIFACTS)

    def test_locked_output_dir_exits_1(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        outdir = tmp_path / "runs" / "cliunit"
        outdir.mkdir(parents=True)
        (outdir / ".lock").write_text("pid 0\n")
        assert main(["train", cfg]) == 1
        assert "locked" in capsys.readouterr().err
        assert not (outdir / "trace.jsonl").exists()

    @pytest.mark.parametrize("content", ["", "garbage\n", "pid x\n"],
                             ids=["empty", "no-pid", "non-numeric-pid"])
    def test_unreadable_lock_is_reported_as_held(self, tmp_path, monkeypatch, capsys, content):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        lock = tmp_path / "runs" / "cliunit" / ".lock"
        lock.parent.mkdir(parents=True)
        lock.write_text(content)
        assert main(["train", cfg]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: output directory is locked by another run: "
                       f"{os.path.join('runs', 'cliunit', '.lock')}\n")
        assert lock.read_text() == content

    def test_stale_lock_reported_not_removed(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        cfg = write_config(tmp_path)
        outdir = tmp_path / "runs" / "cliunit"
        outdir.mkdir(parents=True)
        child = subprocess.Popen([sys.executable, "-c", "pass"])
        child.wait()  # reaped: no process has this pid any more
        lock = outdir / ".lock"
        lock.write_text(f"pid {child.pid}\n")
        assert main(["train", cfg]) == 1
        err = capsys.readouterr().err
        assert "stale" in err and str(child.pid) in err
        assert os.path.join("runs", "cliunit", ".lock") in err
        assert lock.read_text() == f"pid {child.pid}\n"
        assert not (outdir / "trace.jsonl").exists()

    def test_seed_flag_on_non_object_config_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, [1, 2])
        assert main(["train", cfg, "--seed", "3"]) == 2
        assert "must be an object" in capsys.readouterr().err

    def test_task_input_dim_mismatch_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        raw = base_config()
        raw["task"]["input_dim"] = 5
        assert main(["train", write_config(tmp_path, raw)]) == 2
        assert "task.input_dim" in capsys.readouterr().err

    @pytest.mark.parametrize("ranks", [[3, 1, 1], [3], [7, 1], [3, 5]],
                             ids=["too-many", "too-few", "above-first-dims", "above-last-dims"])
    def test_teacher_ranks_rejected_before_output_dir(self, tmp_path, monkeypatch, capsys, ranks):
        monkeypatch.chdir(tmp_path)
        raw = base_config()
        raw["task"]["teacher_ranks"] = ranks
        assert main(["train", write_config(tmp_path, raw)]) == 2
        assert "task.teacher_ranks" in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("content, overrides, message", [
        (None, [], "cannot read config file"),
        (b"\xff\xfe", [], "cannot read config file"),
        (b"[" * 100_000 + b"]" * 100_000, [], "nested too deeply"),
        (b'{"a": ' + b"[" * 900 + b"]" * 900 + b"}", ["name=x"], "nested too deeply"),
    ], ids=["directory", "not-utf8", "deep-nesting", "deep-nesting-with-override"])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, content, overrides, message):
        path = tmp_path / "config.json"
        if content is None:
            path.mkdir()
        else:
            path.write_bytes(content)
        assert main(["train", str(path), *overrides]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("target", ["afile", "afile/sub"])
    def test_output_dir_under_a_file_exits_2(self, tmp_path, capsys, target):
        (tmp_path / "afile").write_text("")
        cfg = write_config(tmp_path)
        assert main(["train", cfg, f"output_dir={tmp_path / target}"]) == 2
        assert "output_dir" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == ""

    @pytest.mark.parametrize("edit, message", [
        ({"model.layers.2.d_in": 5}, "layers[2].d_in 5 != layers[0].d_out 6"),
        ({"model.loss": "softmax_ce"}, "task.kind 'low_rank_teacher' needs loss 'mse'"),
        ({"task.kind": "two_blobs"}, "task.kind 'two_blobs' needs loss 'softmax_ce'"),
        ({"task.kind": "two_blobs", "model.loss": "softmax_ce",
          "model.layers.2.d_out": 1}, "layers[2].d_out must be >= 2"),
        ({"model.layers.2.adapter.id": "enc"}, "duplicate adapter id 'enc'"),
        ({"mode": "diagonal"}, "error: config: mode must be one of bidirectional, prune_only, "
                               "expand_only, got 'diagonal'"),
        ({"batch_size": 10**20}, "config.batch_size: must fit in a signed 64-bit integer"),
        ({"task.sample_count": 10**20},
         "config.task.sample_count: must fit in a signed 64-bit integer"),
        ({"seed": 10**20}, "config.seed: must fit in a signed 64-bit integer"),
        ({"task.sample_count": 2**62},
         "config: task.input_dim x task.sample_count: 8 x 4611686018427387904 float64 "
         "values exceed numpy's array size limit"),
        ({"model.layers.0.d_in": 2**62, "task.input_dim": 2**62},
         "config: task.input_dim x task.sample_count: 4611686018427387904 x 48"),
        ({"batch_size": 2**60},
         "config: the widest layer x batch_size: 8 x 1152921504606846976"),
    ], ids=["chain", "teacher-ce", "blobs-mse", "blobs-one-class", "duplicate-adapter-id",
            "bad-choice", "int64-batch_size", "int64-sample_count", "int64-seed",
            "oversize-sample_count", "oversize-input_dim", "oversize-batch_size"])
    def test_cross_field_errors_exit_2_before_output_dir(
            self, tmp_path, monkeypatch, capsys, edit, message):
        monkeypatch.chdir(tmp_path)
        overrides = [f"{k}={json.dumps(v)}" for k, v in edit.items()]
        assert main(["train", write_config(tmp_path), *overrides]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "runs").exists()

    def test_out_of_memory_exits_1(self, tmp_path, monkeypatch, capsys):
        # 10**17 int64 batch indices need 8e17 bytes, more than even a
        # 57-bit virtual address space holds, so the allocation fails at once.
        monkeypatch.chdir(tmp_path)
        assert main(["train", write_config(tmp_path), f"batch_size={10**17}"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: ") and err.count("\n") == 1
        assert not (tmp_path / "runs" / "cliunit" / ".lock").exists()


class TestImportance:
    def write_spectrum(self, tmp_path, text):
        path = tmp_path / "spec.csv"
        path.write_text(text)
        return str(path)

    def test_output_lines(self, tmp_path, capsys):
        path = self.write_spectrum(tmp_path, "2.0,1.0\n")
        assert main(["importance", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        values = [2.0, 1.0]
        assert lines == [
            f"spectral_entropy {spectral_entropy(values):#.12g}",
            f"nuclear {nuclear_mean(values):#.12g}",
            f"frobenius {frobenius_mean(values):#.12g}",
            f"elem_energy_entropy {elem_energy_entropy(values):#.12g}",
            f"mat_energy_entropy {mat_energy_entropy(values):#.12g}",
            "sensitivity n/a",
        ]
        assert lines[0].startswith("spectral_entropy 0.721928094884")
        assert lines[1] == "nuclear 1.50000000000"

    @pytest.mark.parametrize("text, entropy, frobenius", [
        ("1e200,1e200\n", "0.999999999997", "7.07106781187e+199"),
        ("1e-170,2e-170\n", "0.721928094884", "1.11803398875e-170"),
    ], ids=["squares-overflow", "squares-underflow"])
    def test_spectrum_at_the_float64_extremes(self, tmp_path, capsys, text, entropy, frobenius):
        # A uniform spectrum scores 1 (less epsilon's share) and [2, 1] about
        # 0.7219 at any scale; squaring past the float64 range warns nothing.
        path = self.write_spectrum(tmp_path, text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["importance", path]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[0] == f"spectral_entropy {entropy}"
        assert lines[2] == f"frobenius {frobenius}"
        assert err == ""

    def test_magnitude_sums_at_the_float64_top(self, tmp_path, capsys):
        # Summing |lam| past 1.8e308 rescales by max|lam| and warns nothing.
        path = self.write_spectrum(tmp_path, "1e308,1e308\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["importance", path]) == 0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert lines[1] == "nuclear 1.00000000000e+308"
        assert lines[4] == "mat_energy_entropy 9.99999999997e+307"
        assert err == ""

    def test_degenerate_flagged(self, tmp_path, capsys):
        path = self.write_spectrum(tmp_path, "0,0\n")
        assert main(["importance", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "spectral_entropy 1.00000000000"
        assert lines[-1] == "flag degenerate"

    def test_rank1_flagged(self, tmp_path, capsys):
        path = self.write_spectrum(tmp_path, "5.0\n")
        assert main(["importance", path]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "spectral_entropy 0.00000000000"
        assert lines[-1] == "flag rank1"

    def test_signed_entries_allowed(self, tmp_path, capsys):
        p1 = self.write_spectrum(tmp_path, "-2.0,1.0\n")
        assert main(["importance", p1]) == 0
        negative = capsys.readouterr().out.splitlines()
        p2 = self.write_spectrum(tmp_path, "2.0,1.0\n")
        assert main(["importance", p2]) == 0
        positive = capsys.readouterr().out.splitlines()
        # Every spectrum metric depends on magnitudes only.
        assert negative == positive

    def test_error_cases_exit_2(self, tmp_path, capsys):
        two_rows = self.write_spectrum(tmp_path, "1,2\n3,4\n")
        assert main(["importance", two_rows]) == 2
        bad_cell = self.write_spectrum(tmp_path, "1,alpha\n")
        assert main(["importance", bad_cell]) == 2
        non_finite = self.write_spectrum(tmp_path, "1,inf\n")
        assert main(["importance", non_finite]) == 2
        assert main(["importance", str(tmp_path / "missing.csv")]) == 2
        good = self.write_spectrum(tmp_path, "1,2\n")
        assert main(["importance", good, "--epsilon", "-1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("epsilon", ["inf", "-inf", "nan", "0", "-0.5"])
    def test_bad_epsilon_exits_2_with_no_score(self, tmp_path, capsys, epsilon):
        good = self.write_spectrum(tmp_path, "1,2\n")
        assert main(["importance", good, f"--epsilon={epsilon}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "epsilon must be finite and positive" in err

    def test_unreadable_spectrum_exits_2(self, tmp_path, capsys):
        assert main(["importance", str(tmp_path)]) == 2
        assert "cannot read spectrum file" in capsys.readouterr().err
        path = tmp_path / "spec.csv"
        path.write_bytes(b"\xff\xfe")
        assert main(["importance", str(path)]) == 2
        assert "cannot read spectrum file" in capsys.readouterr().err


class TestSchedule:
    def test_table_composition(self, capsys):
        assert main(["schedule", "2", "10", "10", "100", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "t,budget,allocation"
        rows = [line.split(",") for line in lines[1:]]
        ts = [int(r[0]) for r in rows]
        assert ts == sorted(ts)
        expected_ts = sorted(set(range(10, 90, 5)) | {9, 10, 90})
        assert ts == expected_ts
        sched = BudgetSchedule(b0=2, t_warmup=10, t_final=10,
                               total_steps=100, delta_t=5)
        for t_s, b_s, fires in rows:
            t = int(t_s)
            assert int(b_s) == sched.budget(t)
            assert (fires == "yes") == sched.is_allocation_step(t)
        assert rows[0] == ["9", "0", "no"]
        assert rows[1] == ["10", "2", "yes"]
        assert rows[-1] == ["90", "0", "no"]

    def test_zero_warmup_has_no_negative_row(self, capsys):
        assert main(["schedule", "1", "0", "10", "50", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0,")

    def test_empty_window_rejected(self, capsys):
        assert main(["schedule", "2", "50", "50", "100", "5"]) == 2
        assert "t_warmup + t_final" in capsys.readouterr().err

    def test_invalid_parameters_exit_2(self, capsys):
        assert main(["schedule", "0", "10", "10", "100", "5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("value", [2**63, 10**20, -2**63 - 1])
    @pytest.mark.parametrize("field", ["b0", "t_warmup", "t_final", "total_steps", "delta_t"])
    def test_arguments_beyond_64_bits_exit_2(self, capsys, field, value):
        # The same signed 64-bit rule as the config's schedule fields.
        args = dict(b0=2, t_warmup=10, t_final=10, total_steps=100, delta_t=5)
        args[field] = value
        assert main(["schedule", *map(str, args.values())]) == 2
        out, err = capsys.readouterr()
        assert f"schedule.{field}: must fit in a signed 64-bit integer" in err
        assert out == ""

    def test_untabulable_step_count_is_named(self, capsys):
        assert main(["schedule", "1", "0", "0", "4611686018427387904", "1"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: out of memory: "
                       "cannot tabulate 4611686018427387904 allocation steps\n")


@pytest.fixture
def trained_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    cfg = write_config(tmp_path)
    assert main(["train", cfg, "mode=expand_only"]) == 0
    capsys.readouterr()
    return tmp_path / "runs" / "cliunit"


class TestExportHeatmap:
    def test_stdout_matches_library_rendering(self, trained_dir, capsys):
        trace = str(trained_dir / "trace.jsonl")
        assert main(["export-heatmap", trace]) == 0
        out = capsys.readouterr().out
        header, events, _ = read_trace(trace)
        assert out == "\n".join(heatmap_csv_lines(header, events)) + "\n"
        assert out.splitlines()[0].startswith("adapter,init")

    def test_out_flag_writes_file(self, trained_dir, tmp_path, capsys):
        trace = str(trained_dir / "trace.jsonl")
        dest = tmp_path / "heat.csv"
        assert main(["export-heatmap", trace, "--out", str(dest)]) == 0
        assert "heatmap written" in capsys.readouterr().out
        header, events, _ = read_trace(trace)
        assert dest.read_text() == "\n".join(
            heatmap_csv_lines(header, events)) + "\n"

    def test_out_refuses_a_named_pipe(self, trained_dir, tmp_path, capsys):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        trace = str(trained_dir / "trace.jsonl")
        assert main(["export-heatmap", trace, "--out", str(fifo)]) == 2
        assert "not a regular file" in capsys.readouterr().err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)

    @pytest.mark.parametrize("target", ["missing/heat.csv", "afile/heat.csv"])
    def test_out_in_a_missing_directory_or_under_a_file_exits_2(
            self, trained_dir, tmp_path, capsys, target):
        (tmp_path / "afile").write_text("")
        dest = tmp_path / target
        trace = str(trained_dir / "trace.jsonl")
        assert main(["export-heatmap", trace, "--out", str(dest)]) == 2
        assert f"error: {dest}: cannot write it" in capsys.readouterr().err
        assert (tmp_path / "afile").read_text() == ""
        assert not (tmp_path / "missing").exists()

    def test_failed_rename_leaves_no_temporary_file(self, trained_dir, tmp_path,
                                                    monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(os, "replace", refuse)
        trace = str(trained_dir / "trace.jsonl")
        assert main(["export-heatmap", trace, "--out", str(tmp_path / "heat.csv")]) == 2
        assert "cannot write it: Permission denied" in capsys.readouterr().err
        assert not [p for p in tmp_path.iterdir() if p.name.startswith("heat.csv")]

    @pytest.mark.parametrize("spelling", ["same", "relative", "dotted", "symlink"])
    def test_out_naming_the_trace_is_refused(self, trained_dir, tmp_path, capsys, spelling):
        trace = trained_dir / "trace.jsonl"
        (tmp_path / "link.jsonl").symlink_to(trace)
        out = {"same": str(trace),
               "relative": os.path.relpath(trace),
               "dotted": str(trained_dir / ".." / trained_dir.name / "trace.jsonl"),
               "symlink": str(tmp_path / "link.jsonl")}[spelling]
        before = trace.read_bytes()
        assert main(["export-heatmap", str(trace), "--out", out]) == 2
        assert f"error: --out {out} is the trace being read" in capsys.readouterr().err
        assert trace.read_bytes() == before
        assert not [p for p in trained_dir.iterdir() if ".tmp." in p.name]
        assert main(["replay-verify", str(trace)]) == 0

    def test_missing_trace_exits_1(self, tmp_path, capsys):
        assert main(["export-heatmap", str(tmp_path / "none.jsonl")]) == 1
        assert "not found" in capsys.readouterr().err

    def test_corrupt_trace_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main(["export-heatmap", str(path)]) == 1
        assert "invalid JSON" in capsys.readouterr().err


class TestReplayVerify:
    def test_clean_trace_passes(self, trained_dir, capsys):
        assert main(["replay-verify", str(trained_dir / "trace.jsonl")]) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_tampered_trace_fails(self, trained_dir, capsys):
        trace = trained_dir / "trace.jsonl"
        lines = trace.read_text().splitlines()
        assert len(lines) >= 2, "expected at least one event"
        event = json.loads(lines[1])
        event["step"] = 13  # not an allocation step
        lines[1] = json.dumps(event, sort_keys=True, separators=(",", ":"))
        tampered = trained_dir / "tampered.jsonl"
        tampered.write_text("\n".join(lines) + "\n")
        assert main(["replay-verify", str(tampered)]) == 1
        err = capsys.readouterr().err
        assert "not an allocation step" in err
        assert "problem(s) found" in err

    def test_missing_trace_exits_1(self, tmp_path, capsys):
        assert main(["replay-verify", str(tmp_path / "none.jsonl")]) == 1
        capsys.readouterr()

    def test_directory_or_bad_roster_exits_1(self, trained_dir, capsys):
        assert main(["replay-verify", str(trained_dir)]) == 1
        assert "cannot read trace" in capsys.readouterr().err
        trace = trained_dir / "trace.jsonl"
        lines = trace.read_text().splitlines()
        header = json.loads(lines[0])
        header["adapters"] = 5
        lines[0] = json.dumps(header)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay-verify", str(trace)]) == 1
        assert "header adapters" in capsys.readouterr().err

    def test_bad_byte_deep_in_trace_exits_1(self, tmp_path, capsys):
        records = typed_trace_records()
        trace = tmp_path / "trace.jsonl"
        data = "\n".join(map(json.dumps, [records[0]] + [records[1]] * 2000)).encode()
        trace.write_bytes(data[:-10] + b"\xff" + data[-9:] + b"\n")
        assert main(["replay-verify", str(trace)]) == 1
        assert f"cannot read trace file {trace}: 'utf-8' codec" in capsys.readouterr().err

    @pytest.mark.parametrize("line, index", [(1, 99), (1, 3), (2, 0), (2, 4)],
                             ids=["prune-99", "prune-at-rank", "expand-0", "expand-past-rank"])
    def test_event_index_contradicting_its_rank_fails(self, tmp_path, capsys, line, index):
        # A prune removes one of its rank_before directions; an expand
        # appends at index rank_before.
        records = typed_trace_records()
        records[line]["index"] = index
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(map(json.dumps, records)) + "\n")
        assert main(["replay-verify", str(trace)]) == 1
        assert f"line {line + 1}: bad event" in capsys.readouterr().err

    def test_swapped_actions_fail(self, tmp_path, capsys):
        # The step-10 pair in the other order, each line with the other's
        # action and detail: a "prune" that takes dec from 3 to 4, then an
        # "expand" that takes enc from 3 to 2.
        records = typed_trace_records()
        prune, expand = records[1:3]
        for key in ("action", "detail"):
            prune[key], expand[key] = expand[key], prune[key]
        records[1:3] = [expand, prune]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(map(json.dumps, records)) + "\n")
        assert main(["replay-verify", str(trace)]) == 1
        assert "line 2: bad event" in capsys.readouterr().err

    def test_abort_before_an_event_fails(self, trained_dir, capsys):
        trace = trained_dir / "trace.jsonl"
        first_step = json.loads(trace.read_text().splitlines()[1])["step"]
        abort = {"type": "abort", "step": first_step, "reason": "divergence", "loss": 1e30}
        with trace.open("a") as fh:
            fh.write(json.dumps(abort) + "\n")
        assert main(["replay-verify", str(trace)]) == 1
        assert f"abort step {first_step} not after" in capsys.readouterr().err


def typed_trace_records():
    """The records of a clean trace: header, then a prune and an expand at
    step 10, then an abort record."""
    header = {"type": "header", "version": 1, "name": "t", "seed": 0, "mode": "bidirectional",
              "metric": "spectral_entropy",
              "schedule": {"b0": 2, "t_warmup": 10, "t_final": 10, "total_steps": 100,
                           "delta_t": 5},
              "adapters": [{"id": "enc", "r_init": 3, "r_max": 6, "depth": 0},
                           {"id": "dec", "r_init": 3, "r_max": 6, "depth": 2}]}
    events = [AllocationEvent(10, "enc", "prune", 3, 2, 0.5, 0.01, 0),
              AllocationEvent(10, "dec", "expand", 3, 4, 0.25, "zero_impact", 3)]
    abort = {"type": "abort", "step": 12, "reason": "divergence", "loss": 1e30}
    return [json.loads(line) for line in trace_lines(header, events, abort)]


class TestTraceFieldTypes:
    """Each trace field must have the JSON type the writer gives it; a
    number where an integer belongs, a quoted number or a bool is a bad
    trace for both commands, as are an unknown trace version and metric."""

    def test_clean_trace_is_accepted(self, tmp_path, capsys):
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(map(json.dumps, typed_trace_records())) + "\n")
        assert main(["replay-verify", str(trace)]) == 0
        assert main(["export-heatmap", str(trace)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("line, key, value", [
        (1, "step", 10.9), (1, "step", "10"), (1, "step", True),
        (1, "rank_before", "3"), (1, "rank_after", 2.0), (1, "index", True),
        (1, "adapter_id", 7), (1, "action", ["prune"]),
        (1, "score", "0.5"), (1, "score", True),
        (1, "detail", "zero_impact"), (2, "detail", 0.0), (2, "detail", None),
        (0, "b0", 2.7), (0, "t_warmup", "10"), (0, "t_final", True),
        (0, "total_steps", 100.5), (0, "delta_t", 5.0),
        (0, "version", 99), (0, "version", 1.0), (0, "version", True), (0, "version", "1"),
        (0, "seed", "abc"), (0, "seed", 1.5), (0, "seed", True),
        (0, "mode", 7), (0, "mode", None), (0, "metric", ["x"]), (0, "metric", "x"),
        (3, "step", "x"), (3, "step", 12.0), (3, "step", True),
        (3, "reason", 7), (3, "reason", None),
        (3, "loss", "1e30"), (3, "loss", True), (3, "loss", None),
        (0, "mode", "sideways"),
    ])
    def test_wrong_type_exits_1(self, tmp_path, capsys, line, key, value):
        records = typed_trace_records()
        record = records[line]
        (record["schedule"] if key in record.get("schedule", {}) else record)[key] = value
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(map(json.dumps, records)) + "\n")
        for command in ("replay-verify", "export-heatmap"):
            assert main([command, str(trace)]) == 1
            out, err = capsys.readouterr()
            assert f"trace error: line {line + 1}: bad" in err
            assert key in err
            assert out == ""


def _set_roster(records, i, key, value):
    records[0]["adapters"][i][key] = value


class TestRecordRules:
    """A roster with a repeated id or an r_init outside [1, r_max], an event
    naming an adapter outside the roster and an abort record missing a field
    are bad traces for both commands, reported with their line."""

    @pytest.mark.parametrize("line, change, message", [
        (1, lambda r: _set_roster(r, 1, "id", "enc"), "distinct string ids"),
        (1, lambda r: _set_roster(r, 0, "r_init", 0), "1 <= r_init <= r_max"),
        (1, lambda r: _set_roster(r, 1, "r_init", 7), "1 <= r_init <= r_max"),
        (3, lambda r: r[2].update(adapter_id="ghost"), "bad event (unknown adapter 'ghost')"),
        (4, lambda r: r[3].pop("step"), "abort record missing 'step'"),
        (4, lambda r: r[3].pop("reason"), "abort record missing 'reason'"),
        (4, lambda r: r[3].pop("loss"), "abort record missing 'loss'"),
    ], ids=["repeated-id", "r_init-0", "r_init-past-r_max", "unknown-adapter",
            "abort-no-step", "abort-no-reason", "abort-no-loss"])
    def test_broken_rule_exits_1(self, tmp_path, capsys, line, change, message):
        records = typed_trace_records()
        change(records)
        trace = tmp_path / "trace.jsonl"
        trace.write_text("\n".join(map(json.dumps, records)) + "\n")
        for command in ("replay-verify", "export-heatmap"):
            assert main([command, str(trace)]) == 1
            out, err = capsys.readouterr()
            assert err.startswith(f"trace error: line {line}: ")
            assert message in err
            assert out == ""


class TestParser:
    def test_no_arguments_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            main(["polish"])
        assert exc_info.value.code == 2
        capsys.readouterr()


class TestFuzz:
    """Whatever bytes a user-named file holds, ``main`` returns a documented
    exit code. Only raw bytes are generated, never structured configs, so no
    model is ever built from fuzzed sizes."""

    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(command=st.sampled_from(["train", "importance", "replay-verify",
                                    "export-heatmap"]),
           target=st.one_of(st.binary(max_size=64), st.sampled_from(["dir", "missing"])))
    def test_file_arguments_never_escape(self, tmp_path, monkeypatch, capsys,
                                         command, target):
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(work / "out"))
        path = work / "input"
        if target == "dir":
            path.mkdir()
        elif target != "missing":
            path.write_bytes(target)
        assert main([command, str(path)]) in (0, 1, 2, 3)
        capsys.readouterr()


def tiny_config():
    """A valid config whose every field is spelled out (the effective-config
    echo of a minimal one), with sizes so small that any mutant that still
    parses trains in milliseconds."""
    return config_to_json(parse_config({
        "name": "fz", "seed": 5,
        "model": {"layers": [
            {"type": "linear", "d_in": 4, "d_out": 3,
             "adapter": {"id": "a", "r_init": 1, "r_max": 3}},
            {"type": "tanh"},
            {"type": "linear", "d_in": 3, "d_out": 2,
             "adapter": {"id": "b", "r_init": 1, "r_max": 2}},
        ]},
        "task": {"kind": "low_rank_teacher", "input_dim": 4, "sample_count": 8,
                 "noise_std": 0.05, "teacher_ranks": [2, 1]},
        "schedule": {"b0": 2, "t_warmup": 2, "t_final": 2, "total_steps": 12,
                     "delta_t": 2},
        "init_strategy": {"variant": "orthogonal_init"}, "mode": "expand_only",
        "batch_size": 4, "log_every": 4,
    }))


def field_paths(obj, prefix=()):
    """Every dict key and list index in ``obj``, containers included."""
    items = obj.items() if isinstance(obj, dict) else (
        enumerate(obj) if isinstance(obj, list) else ())
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        paths.extend(field_paths(value, prefix + (key,)))
    return paths


# JSON texts written in place of one field; 1e400 parses to infinity.
EDGE_VALUES = ("0", "-1", "1e400", '"x"', "null", "[]", "{}")
_SENTINEL = "\x00edge"


def with_edge_value(obj, path, edge):
    """JSON text of ``obj`` with the field at ``path`` replaced by ``edge``,
    or removed when ``edge`` is None."""
    obj = copy.deepcopy(obj)
    target = obj
    for key in path[:-1]:
        target = target[key]
    if edge is None:
        del target[path[-1]]
        return json.dumps(obj)
    target[path[-1]] = _SENTINEL
    return json.dumps(obj).replace(json.dumps(_SENTINEL), edge)


@pytest.fixture(scope="module")
def tiny_trace_lines(tmp_path_factory):
    work = tmp_path_factory.mktemp("tiny")
    cfg = work / "config.json"
    cfg.write_text(json.dumps(dict(tiny_config(), output_dir=str(work / "out"))))
    assert main(["train", str(cfg)]) == 0
    lines = (work / "out" / "trace.jsonl").read_text().splitlines()
    assert len(lines) >= 2, "expected at least one event"
    return lines


class TestStructuredFuzz:
    """A valid config, override or trace with one field mutated to an edge
    value never escapes the documented exit codes 0-3."""

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_config_or_override(self, tmp_path, monkeypatch, capsys, data):
        raw = tiny_config()
        path = data.draw(st.sampled_from(field_paths(raw)), label="path")
        edge = data.draw(st.sampled_from(EDGE_VALUES + (None,)), label="edge")
        work = Path(tempfile.mkdtemp(dir=tmp_path))
        monkeypatch.chdir(work)
        monkeypatch.setenv(OUTPUT_DIR_ENV, str(work / "out"))
        cfg = work / "config.json"
        if edge is not None and data.draw(st.booleans(), label="as override"):
            cfg.write_text(json.dumps(raw))
            overrides = [".".join(map(str, path)) + "=" + edge]
        else:
            cfg.write_text(with_edge_value(raw, path, edge))
            overrides = []
        assert main(["train", str(cfg), *overrides]) in (0, 1, 2, 3)
        capsys.readouterr()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(args=st.lists(st.sampled_from([-1, 0, 1, 7, 2**62, 2**63 - 1, 2**63, 10**20]),
                         min_size=5, max_size=5))
    def test_schedule_arguments(self, capsys, args):
        # Each step range here holds at most 7 rows or at least 2**59, which
        # fails at once with MemoryError (exit 1); no value in between
        # would allocate a real list.
        assert main(["schedule", *map(str, args)]) in (0, 1, 2, 3)
        capsys.readouterr()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_trace(self, tmp_path, capsys, tiny_trace_lines, data):
        lines = list(tiny_trace_lines)
        i = data.draw(st.integers(0, len(lines) - 1), label="line")
        record = json.loads(lines[i])
        how = data.draw(st.sampled_from(["field", "line", "drop", "repeat"]), label="how")
        if how == "field":
            path = data.draw(st.sampled_from(field_paths(record)), label="path")
            edge = data.draw(st.sampled_from(EDGE_VALUES + (None,)), label="edge")
            lines[i] = with_edge_value(record, path, edge)
        elif how == "line":
            lines[i] = data.draw(st.sampled_from(EDGE_VALUES), label="edge")
        elif how == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])
        trace = Path(tempfile.mkdtemp(dir=tmp_path)) / "trace.jsonl"
        trace.write_text("\n".join(lines) + "\n")
        assert main(["replay-verify", str(trace)]) in (0, 1, 2, 3)
        assert main(["export-heatmap", str(trace)]) in (0, 1, 2, 3)
        capsys.readouterr()
