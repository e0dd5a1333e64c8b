import json
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import tabforge.checkpoint
import tabforge.cli
import tabforge.training as tr
from tabforge.checkpoint import load_checkpoint, save_checkpoint
from tabforge.cli import load_clean_table, main
from tabforge.config import DEFAULTS
from tabforge.data import Table
from tabforge.great.bpe import Vocab

from conftest import write_csv

TINY = [
    "--model.net_size=small",
    "--model.latent=8",
    "--model.batch=16",
    "--model.z_dim=8",
    "--model.pac=2",
    "--transform.gmm_modes=1",
    "--training.epochs=2",
    "--training.iterations=1",
    "--training.ckpt_every=2",
]


GREAT_TINY = [
    "--model.great.d_model=16",
    "--model.great.n_heads=2",
    "--model.great.n_layers=1",
    "--model.great.ctx=96",
    "--model.great.vocab_size=300",
    "--model.great.batch=8",
    "--training.epochs=1",
    "--training.iterations=1",
]


class TestClean:
    def test_toy_corpus_keeps_good_tables(self, toy_corpus, tmp_path, cli_run):
        out = tmp_path / "cleaned"
        result = cli_run(["clean", str(toy_corpus), str(out)])
        cleaned = sorted(p.stem for p in out.glob("*.csv"))
        assert cleaned == ["table0", "table1", "table2", "table3"]
        assert "discarded: all_ids" in result.out
        assert "discarded: too_thin" in result.out
        stats = json.loads((out / "stats.json").read_text())
        assert stats["tables"] == 4 and stats["discarded"] == 2

    def test_rerun_on_cleaned_output_is_identity(self, toy_corpus, tmp_path, cli_run):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        cli_run(["clean", str(toy_corpus), str(out1)])
        cli_run(["clean", str(out1), str(out2)])
        for p in sorted(out1.glob("*.csv")):
            assert (out2 / p.name).read_bytes() == p.read_bytes()

    def test_empty_dir_is_an_error(self, tmp_path, monkeypatch, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        monkeypatch.setattr(
            "sys.argv", ["tabforge", "clean", str(empty), str(tmp_path / "out")]
        )
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2

    def test_usage_error_exit_code(self, monkeypatch):
        monkeypatch.setattr("sys.argv", ["tabforge", "clean"])  # missing args
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 1

    def test_threshold_override_flag(self, toy_corpus, tmp_path, cli_run):
        out = tmp_path / "cleaned"
        cli_run(["clean", str(toy_corpus), str(out), "--cleaning.min_rows=1000"])
        assert not list(out.glob("*.csv"))  # everything discarded: too few rows


class TestSplit:
    def prepare(self, cli_run, toy_corpus, tmp_path):
        cleaned = tmp_path / "cleaned"
        cli_run(["clean", str(toy_corpus), str(cleaned)])
        return cleaned

    def test_manifest_partitions_corpus(self, toy_corpus, tmp_path, cli_run):
        cleaned = self.prepare(cli_run, toy_corpus, tmp_path)
        manifest = tmp_path / "split.json"
        cli_run(["split", str(cleaned), "--out", str(manifest), "--split.ratios=[0.5,0.25,0.25]"])
        doc = json.loads(manifest.read_text())
        names = set(doc["train"]) | set(doc["val"]) | set(doc["test"])
        assert names == {"table0", "table1", "table2", "table3"}

    def test_same_seed_reproducible(self, toy_corpus, tmp_path, cli_run):
        cleaned = self.prepare(cli_run, toy_corpus, tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--split.ratios=[0.5,0.25,0.25]", "--seed=3"]
        cli_run(["split", str(cleaned), "--out", str(a)] + args)
        cli_run(["split", str(cleaned), "--out", str(b)] + args)
        assert a.read_bytes() == b.read_bytes()

    def test_domain_mode_keeps_clusters_intact(self, toy_corpus, tmp_path, cli_run):
        cleaned = self.prepare(cli_run, toy_corpus, tmp_path)
        manifest = tmp_path / "d.json"
        cli_run(
            [
                "split",
                str(cleaned),
                "--out",
                str(manifest),
                "--split.mode=domain",
                "--split.ratios=[0.5,0.25,0.25]",
                "--split.k=4",
            ]
        )
        doc = json.loads(manifest.read_text())
        assert doc["spec"]["mode"] == "domain" and doc["clusters"]
        part_of = {}
        for part in ("train", "val", "test"):
            for name in doc[part]:
                part_of[name] = part
        for cid in set(doc["clusters"].values()):
            parts = {part_of[n] for n, c in doc["clusters"].items() if c == cid}
            assert len(parts) == 1


@pytest.fixture
def pipeline_dirs(toy_corpus, tmp_path, cli_run):
    cleaned = tmp_path / "cleaned"
    cli_run(["clean", str(toy_corpus), str(cleaned)])
    manifest = tmp_path / "split.json"
    cli_run(
        ["split", str(cleaned), "--out", str(manifest), "--split.ratios=[0.5,0.25,0.25]"]
    )
    return cleaned, manifest, tmp_path


class TestTrainAndSample:
    def test_pretrain_finetune_sample_round_trip(self, pipeline_dirs, monkeypatch, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        loads = []

        def counted_load(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(tabforge.checkpoint, "load_checkpoint", counted_load)
        pre = tmp / "pre.ckpt"
        cli_run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        assert pre.exists() and pre.with_suffix(".log.csv").exists()
        ft = tmp / "ft.ckpt"
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        cli_run(
            ["finetune", "--checkpoint", str(pre), "--table", str(table), "--out", str(ft)] + TINY
        )
        assert loads == [str(pre)]  # the method comes from the one load
        out_csv = tmp / "syn.csv"
        cli_run(["sample", "--checkpoint", str(ft), "--rows", "8", "--out", str(out_csv)])
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,y,color"
        assert len(lines) == 9

    def test_sample_zero_rows_gives_header_only(self, pipeline_dirs, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        ckpt = tmp / "scratch.ckpt"
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        cli_run(
            ["train-scratch", "--table", str(table), "--method", "stvae", "--out", str(ckpt)] + TINY
        )
        out_csv = tmp / "zero.csv"
        cli_run(["sample", "--checkpoint", str(ckpt), "--rows", "0", "--out", str(out_csv)])
        assert out_csv.read_text() == "x,y,color\n"

    def test_seed_override_sets_the_sampling_seed(self, pipeline_dirs, cli_run):
        cleaned, _, tmp = pipeline_dirs
        ckpt = tmp / "scratch.ckpt"
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        cli_run(["train-scratch", "--table", str(table), "--method", "stvae", "--out", str(ckpt)] + TINY)
        sample = ["sample", "--checkpoint", str(ckpt), "--rows", "8", "--out"]
        cli_run(sample + [str(tmp / "s0.csv")])
        cli_run(sample + [str(tmp / "s5.csv"), "--seed=5"])
        expected = tmp / "lib.csv"
        tabforge.cli.write_table_csv(tr.sample_from_checkpoint(load_checkpoint(ckpt), 8, 5, "s5"), expected)
        assert (tmp / "s5.csv").read_bytes() == expected.read_bytes()
        assert (tmp / "s5.csv").read_bytes() != (tmp / "s0.csv").read_bytes()

    def test_evaluate_self_is_perfect(self, pipeline_dirs, cli_run):
        cleaned, _, tmp = pipeline_dirs
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        report_path = tmp / "rep.json"
        result = cli_run(
            ["evaluate", "--real", str(table), "--synthetic", str(table), "--out", str(report_path)]
        )
        doc = json.loads(report_path.read_text())
        assert doc["s_overall"] == pytest.approx(1.0)


class TestBenchmark:
    def test_benchmark_emits_two_regime_leaderboard(self, pipeline_dirs, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        pre = tmp / "pre.ckpt"
        cli_run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        bench = tmp / "bench"
        cli_run(
            ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--pretrained", f"stvae={pre}",
             "--part", "val", "--out-dir", str(bench)] + TINY
        )
        text = (bench / "leaderboard.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# config=")
        assert lines[1].startswith("split,method,regime")
        regimes = {line.split(",")[2] for line in lines[2:]}
        assert regimes == {"finetuned", "scratch"}
        assert any((bench / "reports").glob("*.json"))
        assert any((bench / "checkpoints").glob("*.ckpt"))

    def test_process_pool_writes_the_same_bytes(self, pipeline_dirs, cli_run):
        args = benchmark_args(pipeline_dirs, cli_run)
        outputs = {}
        for workers in (1, 2):
            bench = pipeline_dirs[2] / f"bench{workers}"
            cli_run(args + ["--out-dir", str(bench), "--workers", str(workers)])
            outputs[workers] = bench_files(bench)
        # The leaderboard, and a report, log and checkpoint per (method, regime) of the one val table.
        assert len(outputs[1]) == 13
        assert outputs[2] == outputs[1]

    def test_each_task_trains_once_and_a_failed_task_keeps_the_earlier_files(
        self, pipeline_dirs, monkeypatch, cli_run
    ):
        args = benchmark_args(pipeline_dirs, cli_run)
        tmp = pipeline_dirs[2]
        finetune, benchmark_one = tr.finetune, tabforge.cli._benchmark_one
        trained, tasks, fail_at = [], [], None

        def counted_finetune(start, table, config):
            trained.append((table.name, config.kind, start is None))
            if len(trained) == fail_at:
                monkeypatch.setattr(tr._VaeDriver, "train_epoch", diverge)
            return finetune(start, table, config)

        def diverge(self, model, session, rng):
            raise FloatingPointError("non-finite values produced by op 'exp'")

        def counted_task(task):
            before = len(trained)
            result = benchmark_one(task)
            tasks.append(len(trained) - before)
            return result

        monkeypatch.setattr(tr, "finetune", counted_finetune)
        monkeypatch.setattr(tabforge.cli, "_benchmark_one", counted_task)
        cli_run(args + ["--out-dir", str(tmp / "whole")])
        (table,) = {name for name, _, _ in trained}
        assert tasks == [1, 1, 1, 1]  # one table x two methods x two regimes, one finetune each
        assert trained == [(table, m, scratch) for m in ("stvae", "tvae") for scratch in (False, True)]

        trained.clear()
        fail_at = 3
        err = cli_run(args + ["--out-dir", str(tmp / "cut")], code=2).err
        assert f"tvae training diverged on table {table!r}" in err
        whole, cut = bench_files(tmp / "whole"), bench_files(tmp / "cut")
        assert sorted(map(str, cut)) == [
            f"{kind}/{table}.stvae.{regime}.{ext}"
            for kind, ext in (("checkpoints", "ckpt"), ("logs", "csv"), ("reports", "json"))
            for regime in ("finetuned", "scratch")
        ]
        assert cut == {path: whole[path] for path in cut}

    def test_a_sample_the_metrics_cannot_score_scores_zero(self, pipeline_dirs, monkeypatch, cli_run):
        args = benchmark_args(pipeline_dirs, cli_run, methods=("stvae",))
        sample = tr.sample_from_checkpoint
        samples = []

        def first_keeps_one_row(ckpt, n, seed, name):
            syn = sample(ckpt, n, seed, name)
            samples.append(syn.n_rows)
            # Two numeric columns: one row has no Pearson trend.
            return Table(syn.name, syn.columns, syn.rows[:1]) if len(samples) == 1 else syn

        monkeypatch.setattr(tr, "sample_from_checkpoint", first_keeps_one_row)
        bench = pipeline_dirs[2] / "bench"
        cli_run(args + ["--out-dir", str(bench)])
        reports = {p.name.split(".", 1)[1]: json.loads(p.read_text()) for p in (bench / "reports").glob("*.json")}
        assert (reports["stvae.finetuned.json"]["s_overall"], reports["stvae.finetuned.json"]["syn_rows"]) == (0.0, 1)
        assert reports["stvae.scratch.json"]["syn_rows"] == samples[1] > 1
        assert (bench / "leaderboard.csv").exists()

    def test_missing_pretrained_checkpoint_errors(self, pipeline_dirs, monkeypatch):
        cleaned, manifest, tmp = pipeline_dirs
        monkeypatch.setattr(
            "sys.argv",
            ["tabforge", "benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--pretrained", f"stvae={tmp}/nope.ckpt",
             "--part", "val", "--out-dir", str(tmp / 'b')],
        )
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 2

    def test_report_renders_schema_stable_csv(self, pipeline_dirs, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        pre = tmp / "pre.ckpt"
        cli_run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        bench = tmp / "bench"
        cli_run(
            ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--pretrained", f"stvae={pre}",
             "--part", "val", "--out-dir", str(bench)] + TINY
        )
        rep = tmp / "rendered"
        cli_run(["report", "--bench-dir", str(bench), "--out-dir", str(rep)])
        header = (rep / "leaderboard.csv").read_text().splitlines()[1]
        assert header == (
            "split,method,regime,shape_mean,shape_std,trend_mean,trend_std,"
            "overall_mean,overall_std,p_value"
        )
        assert (rep / "deltas.json").exists()
        assert (rep / "leaderboard.txt").exists()

    def test_report_rebuilds_the_benchmark_leaderboard(self, pipeline_dirs, cli_run):
        bench, rep = pipeline_dirs[2] / "bench", pipeline_dirs[2] / "rendered"
        cli_run(benchmark_args(pipeline_dirs, cli_run) + ["--out-dir", str(bench)])
        cli_run(["report", "--bench-dir", str(bench), "--out-dir", str(rep), *TINY])  # the same config hash
        assert (rep / "leaderboard.csv").read_bytes() == (bench / "leaderboard.csv").read_bytes()
        assert (bench / "leaderboard.csv").read_text().splitlines()[2].startswith("random-val,")


def benchmark_args(pipeline_dirs, cli_run, methods=("stvae", "tvae")) -> list[str]:
    """Pretrain each of `methods`, and return the `benchmark` arguments over
    the val part (one table) that lack only `--out-dir`."""
    cleaned, manifest, tmp = pipeline_dirs
    args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned), "--part", "val", *TINY]
    for method in methods:
        pre = tmp / f"{method}.ckpt"
        cli_run(["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
                 "--method", method, "--out", str(pre)] + TINY)
        args += ["--method", method, "--pretrained", f"{method}={pre}"]
    return args


def bench_files(bench: Path) -> dict:
    """Every file under `bench`, by relative path, with its bytes."""
    return {p.relative_to(bench): p.read_bytes() for p in sorted(bench.rglob("*")) if p.is_file()}


def main_exit_code(monkeypatch, args) -> int:
    """The exit code of `tabforge ARGS` run through main(); 0 when it returns."""
    monkeypatch.setattr("sys.argv", ["tabforge", *args])
    try:
        main()
    except SystemExit as exc:
        return exc.code
    return 0


class TestFailuresExitTwo:
    def test_nonpositive_tau_is_a_data_error(self, pipeline_dirs, monkeypatch, capsys):
        cleaned, _, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["train-scratch", "--table", str(table), "--method", "ctgan",
                "--out", str(tmp / "g.ckpt"), *TINY, "--model.tau=0"]
        assert main_exit_code(monkeypatch, args) == 2
        assert "tau" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--training.ckpt_every=0", "--training.val_fraction=-0.5", "--training.val_fraction=1.0",
        "--training.patience=0", "--training.min_delta=-0.1",
    ])
    def test_bad_training_setting_is_a_data_error(self, flag, pipeline_dirs, monkeypatch, capsys):
        cleaned, _, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["train-scratch", "--table", str(table), "--method", "ctgan",
                "--out", str(tmp / "g.ckpt"), *TINY, flag]
        assert main_exit_code(monkeypatch, args) == 2
        key = flag.split(".")[1].split("=")[0]
        assert f"{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, named", [
        ("--model.batch=0", "batch must be >= 1, got 0"),
        ("--model.pac=0", "pac must be >= 1, got 0"),
        ("--model.z_dim=0", "z_dim must be >= 1, got 0"),
        ("--model.latent=0", "latent must be >= 1, got 0"),
        ("--model.sig_dim=-1", "sig_dim must be >= 0, got -1"),
        ("--model.great.d_model=0", "great.d_model must be >= 1, got 0"),
        ("--model.great.n_heads=0", "great.n_heads must be >= 1, got 0"),
        ("--model.great.n_layers=0", "great.n_layers must be >= 1, got 0"),
        ("--model.great.ctx=0", "great.ctx must be >= 1, got 0"),
        ("--model.great.batch=0", "great.batch must be >= 1, got 0"),
        ("--model.great.max_retries=-1", "great.max_retries must be >= 0, got -1"),
        ("--model.great.temperature=-0.5", "great.temperature must be >= 0, got -0.5"),
        ("--training.epochs=-2", "epochs must be >= 0, got -2"),
    ])
    def test_nonpositive_size_is_a_data_error(self, flag, named, pipeline_dirs, monkeypatch, capsys):
        cleaned, _, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["train-scratch", "--table", str(table), "--method", "ctgan",
                "--out", str(tmp / "g.ckpt"), *TINY, flag]
        assert main_exit_code(monkeypatch, args) == 2
        err = capsys.readouterr().err
        assert err == f"error: {named}\n"
        assert not (tmp / "g.ckpt").exists()

    def test_great_vocab_below_the_byte_alphabet_is_a_data_error(self, pipeline_dirs, monkeypatch, capsys):
        cleaned, manifest, tmp = pipeline_dirs
        args = ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned), "--method", "great",
                "--out", str(tmp / "g.ckpt"), *GREAT_TINY, "--model.great.vocab_size=10"]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == "error: great.vocab_size must be >= 259, got 10\n"
        assert not (tmp / "g.ckpt").exists()

    def _great_body(self, cli_run, cleaned, manifest, tmp):
        pre = tmp / "great.pre.ckpt"
        cli_run(["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
                 "--method", "great", "--out", str(pre), *GREAT_TINY])
        return pre

    def _scratch(self, cli_run, cleaned, tmp, method, flags, edit):
        path = tmp / f"{method}.ckpt"
        table = sorted(cleaned.glob("*.csv"))[0]
        cli_run(["train-scratch", "--table", str(table), "--method", method, "--out", str(path), *flags])
        ckpt = load_checkpoint(path)
        edit(ckpt.tensors)
        save_checkpoint(ckpt, path)
        return path

    @pytest.mark.parametrize("case", [
        "great_body", "gmm_missing_tensor", "great_reshaped_tensor", "great_nan_tensor",
        pytest.param("great_overflow", marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
        pytest.param("ctgan_overflow", marks=pytest.mark.filterwarnings("ignore:overflow encountered")),
    ])
    def test_sample_rejects_bad_checkpoint(self, case, pipeline_dirs, monkeypatch, capsys, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        if case == "great_body":
            path, detail = self._great_body(cli_run, cleaned, manifest, tmp), "pretraining body"
        elif case == "gmm_missing_tensor":
            path = self._scratch(cli_run, cleaned, tmp, "stvae", TINY, lambda t: t.pop("dec.2.W"))
            detail = "dec.2.W"
        elif case == "great_reshaped_tensor":
            def reshape(tensors):
                tensors["lnf.g"] = np.ones(3, dtype=np.float32)

            path = self._scratch(cli_run, cleaned, tmp, "great", GREAT_TINY, reshape)
            detail = "lnf.g"
        elif case == "great_nan_tensor":
            def poison(tensors):
                tensors["lnf.g"][0] = np.nan

            path = self._scratch(cli_run, cleaned, tmp, "great", GREAT_TINY, poison)
            detail = "tensor 'lnf.g' holds non-finite values"
        elif case == "great_overflow":
            # Finite weights whose forward overflows: the cached decode step
            # stops at GELU's cube.
            def blow_up(tensors):
                tensors["b0.mlp.w1"] *= np.float32(1e30)

            path = self._scratch(cli_run, cleaned, tmp, "great", GREAT_TINY, blow_up)
            detail = (r"great sampling diverged on table 's': overflow encountered in multiply at "
                      r"nn/tensor\.py:\d+ \(gelu\) in the cached forward at position 0")
        else:
            # One layer scaled by 1e30 stays finite through the generator's
            # saturating heads; two stacked ones overflow the second's matmul.
            def blow_up(tensors):
                for name in ("gen.0.0.W", "gen.1.0.W"):
                    tensors[name] *= np.float32(1e30)

            path = self._scratch(cli_run, cleaned, tmp, "ctgan", TINY, blow_up)
            detail = (r"ctgan sampling diverged on table 's': overflow encountered in matmul at "
                      r"nn/tensor\.py:\d+ \(linear\) in the ctgan sampling draw")
        args = ["sample", "--checkpoint", str(path), "--rows", "2", "--out", str(tmp / "s.csv")]
        assert main_exit_code(monkeypatch, args) == 2
        err = capsys.readouterr().err
        assert re.search(detail, err) if case.endswith("_overflow") else detail in err

    def test_finetune_names_a_log_variance_that_underflows(self, pipeline_dirs, monkeypatch, capsys, cli_run):
        # Finite weights whose encoder puts every log-variance at -300:
        # sigma = exp(-150) underflows to 0 in float32, and the KL's log(0)
        # divides by zero.
        cleaned, _, tmp = pipeline_dirs

        def collapse(tensors):
            bias = tensors["enc.4.b"]
            bias[len(bias) // 2 :] = -300.0

        path = self._scratch(cli_run, cleaned, tmp, "stvae", TINY, collapse)
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["finetune", "--checkpoint", str(path), "--table", str(table), "--out", str(tmp / "f.ckpt"), *TINY]
        assert main_exit_code(monkeypatch, args) == 2
        assert re.fullmatch(
            r"error: stvae training diverged on table '\w+' at epoch 1: divide by zero encountered in log "
            r"at nn/tensor\.py:\d+ \(log\) in the stvae step\n",
            capsys.readouterr().err,
        )

    def test_benchmark_rejects_non_finite_pretrained_checkpoint(self, pipeline_dirs, monkeypatch, capsys, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        pre = self._great_body(cli_run, cleaned, manifest, tmp)
        ckpt = load_checkpoint(pre)
        ckpt.tensors["lnf.g"][0] = np.inf
        save_checkpoint(ckpt, pre)
        args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
                "--method", "great", "--pretrained", f"great={pre}",
                "--part", "val", "--out-dir", str(tmp / "bench"), *GREAT_TINY]
        assert main_exit_code(monkeypatch, args) == 2
        assert "tensor 'lnf.g' holds non-finite values" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["pretrain", "benchmark"])
    def test_great_rows_longer_than_the_context_name_the_table_and_key(self, command, pipeline_dirs, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        args = [command, "--split", str(manifest), "--clean-dir", str(cleaned), "--method", "great"]
        if command == "pretrain":
            args += ["--out", str(tmp / "g.ckpt")]
        else:
            pre = self._great_body(cli_run, cleaned, manifest, tmp)
            args += ["--pretrained", f"great={pre}", "--part", "val", "--out-dir", str(tmp / "bench")]
        err = cli_run([*args, *GREAT_TINY, "--model.great.ctx=8"], code=2).err
        assert re.fullmatch(
            r"error: great on table 'table\d': a row needs a context of at least \d+, not 8; raise model\.great\.ctx\n",
            err,
        )

    def test_great_trains_at_the_context_the_error_reports(self, pipeline_dirs, monkeypatch, cli_run):
        """With every training row in one batch of one epoch, that batch holds
        the longest framed row, so the reported context is enough for it."""
        cleaned, _, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["train-scratch", "--table", str(table), "--method", "great", "--out", str(tmp / "g.ckpt"),
                *GREAT_TINY, "--model.great.batch=64"]
        err = cli_run([*args, "--model.great.ctx=8"], code=2).err
        needed = int(re.search(r"at least (\d+),", err).group(1))
        steps = []
        step = tr.great_train_step
        monkeypatch.setattr(tr, "great_train_step", lambda *a: steps.append(1) or step(*a))
        cli_run([*args, f"--model.great.ctx={needed}"])
        assert steps == [1]

    def test_great_vocab_past_the_configured_size_names_the_table_and_key(self, pipeline_dirs, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        pre = self._great_body(cli_run, cleaned, manifest, tmp)
        size = Vocab.from_dict(load_checkpoint(pre).aux["vocab"]).size
        args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned), "--method", "great",
                "--pretrained", f"great={pre}", "--part", "val", "--out-dir", str(tmp / "bench"),
                *GREAT_TINY, f"--model.great.vocab_size={size - 1}"]
        err = cli_run(args, code=2).err
        assert re.fullmatch(
            rf"error: great on table 'table\d': vocab size {size} exceeds configured {size - 1}; "
            r"raise model\.great\.vocab_size\n",
            err,
        )

    @pytest.mark.parametrize("command, edit, detail", [
        ("pretrain", lambda doc: "{not json", "not a split manifest: Expecting property name"),
        ("pretrain", lambda doc: {**doc, "val": doc["val"] + doc["train"][:1]},
         "not a split manifest: split parts must be pairwise disjoint"),
        ("pretrain", lambda doc: {k: v for k, v in doc.items() if k != "spec"}, "not a split manifest: no key 'spec'"),
        ("benchmark", lambda doc: list(doc), "not a split manifest: not a JSON object"),
        ("benchmark", lambda doc: b"\xff{}", "not a split manifest: 'utf-8' codec can't decode"),
    ])
    def test_malformed_split_manifest_names_the_file(self, command, edit, detail, pipeline_dirs, monkeypatch, capsys):
        cleaned, manifest, tmp = pipeline_dirs
        edited = edit(json.loads(manifest.read_text()))
        bad = tmp / "bad.json"
        if isinstance(edited, bytes):
            bad.write_bytes(edited)
        else:
            bad.write_text(edited if isinstance(edited, str) else json.dumps(edited))
        args = [command, "--split", str(bad), "--clean-dir", str(cleaned), "--method", "stvae", *TINY]
        if command == "pretrain":
            args += ["--out", str(tmp / "pre.ckpt")]
        else:
            args += ["--pretrained", f"stvae={tmp / 'pre.ckpt'}", "--out-dir", str(tmp / "bench")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: {detail}")

    @pytest.mark.parametrize("methods, pretrained, detail", [
        (["stvae", "stvae"], ["stvae"], "--method 'stvae' given more than once"),
        (["stvae"], ["stvae", "stvae"], "--pretrained 'stvae' given more than once"),
        (["stvae"], ["stvae", "tvae"], "--pretrained 'tvae' has no matching --method"),
    ], ids=["method", "pretrained", "unused-pretrained"])
    def test_benchmark_rejects_a_repeated_method(self, methods, pretrained, detail, pipeline_dirs, monkeypatch,
                                                 capsys, cli_run):
        cleaned, manifest, tmp = pipeline_dirs
        pre = tmp / "pre.ckpt"
        cli_run(["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
                 "--method", "stvae", "--out", str(pre), *TINY])
        args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned), "--part", "val",
                "--out-dir", str(tmp / "bench"), *TINY]
        args += [a for m in methods for a in ("--method", m)]
        args += [a for m in pretrained for a in ("--pretrained", f"{m}={pre}")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == f"error: {detail}\n"
        assert not (tmp / "bench").exists()

    @pytest.mark.parametrize("reports", ["missing", "empty"])
    def test_report_over_no_reports_is_a_data_error(self, reports, tmp_path, monkeypatch, capsys):
        bench = tmp_path / "bench"
        (bench / "reports" if reports == "empty" else bench).mkdir(parents=True)
        args = ["report", "--bench-dir", str(bench), "--out-dir", str(tmp_path / "out")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == f"error: no benchmark reports under {bench / 'reports'}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("name, text, detail", [
        ("stray.json", "{}", "a report is named <table>.<method>.<regime>.json"),
        ("t.stvae.scratch.json", "{not json", "not a benchmark report: Expecting property name"),
        ("t.stvae.scratch.json", '{"table": "t"}', "not a benchmark report: TableReport.__init__() missing"),
    ])
    def test_report_rejects_a_bad_report_file(self, name, text, detail, tmp_path, monkeypatch, capsys):
        reports = tmp_path / "bench" / "reports"
        reports.mkdir(parents=True)
        (reports / name).write_text(text, encoding="utf-8")
        args = ["report", "--bench-dir", str(tmp_path / "bench"), "--out-dir", str(tmp_path / "out")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err.startswith(f"error: {reports / name}: {detail}")

    def test_report_rejects_a_report_that_names_no_split(self, tmp_path, monkeypatch, capsys):
        reports = tmp_path / "bench" / "reports"
        reports.mkdir(parents=True)
        doc = {"table": "t", "shape_scores": {"x": 0.5}, "trend_scores": {}, "s_shape": 0.5, "s_trend": 0.0,
               "s_overall": 0.5, "syn_rows": 10, "single_column": True, "_provenance": {"seed": 0}}
        (reports / "t.stvae.scratch.json").write_text(json.dumps(doc), encoding="utf-8")
        args = ["report", "--bench-dir", str(tmp_path / "bench"), "--out-dir", str(tmp_path / "out")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == f"error: {reports / 't.stvae.scratch.json'}: not a benchmark report: 'split'\n"

    @pytest.mark.parametrize("column, where", [(0, "x"), (2, "color")])
    def test_evaluate_rejects_a_null_cell(self, column, where, pipeline_dirs, monkeypatch, capsys):
        cleaned, _, tmp = pipeline_dirs
        real = sorted(cleaned.glob("*.csv"))[0]
        lines = real.read_text(encoding="utf-8").splitlines()
        cells = lines[1].split(",")
        cells[column] = ""
        lines[1] = ",".join(cells)
        syn = tmp / "syn.csv"
        syn.write_text("\n".join(lines) + "\n", encoding="utf-8")
        args = ["evaluate", "--real", str(real), "--synthetic", str(syn), "--out", str(tmp / "r.json")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == f"error: table 'syn' has a null cell in column {where!r}\n"

    def test_clean_counts_a_repeated_column_name_as_failed(self, tmp_path, monkeypatch, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        rows = [f"{i},{i % 7},{'xy'[i % 2]}" for i in range(40)]
        (corpus / "dup.csv").write_text("a,a,g\n" + "\n".join(rows) + "\n", encoding="utf-8")
        out = tmp_path / "out"
        assert main_exit_code(monkeypatch, ["clean", str(corpus), str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: dup.csv: table 'dup': column 'a' appears more than once" in err
        assert json.loads((out / "stats.json").read_text())["failed"] == 1

    def test_evaluate_rejects_a_repeated_column_name(self, tmp_path, monkeypatch, capsys):
        rows = [f"{i},{i % 7},{'xy'[i % 2]}" for i in range(40)]
        for name in ("real", "syn"):
            (tmp_path / f"{name}.csv").write_text("a,a,g\n" + "\n".join(rows) + "\n", encoding="utf-8")
        args = ["evaluate", "--real", str(tmp_path / "real.csv"), "--synthetic", str(tmp_path / "syn.csv"),
                "--out", str(tmp_path / "r.json")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == "error: table 'real': column 'a' appears more than once\n"

    @pytest.mark.parametrize("command", ["pretrain", "train-scratch"])
    def test_diverged_training_names_method_table_and_epoch(
        self, command, pipeline_dirs, monkeypatch, capsys
    ):
        cleaned, manifest, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]

        def diverge(self, model, session, rng):
            raise FloatingPointError("non-finite values produced by op 'exp'")

        monkeypatch.setattr(tr._VaeDriver, "train_epoch", diverge)
        if command == "pretrain":
            args = ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned)]
            where = "pretraining iteration 1"
        else:
            args = ["train-scratch", "--table", str(table)]
            where = f"table {table.stem!r} at epoch 1"
        args += ["--method", "stvae", "--out", str(tmp / "d.ckpt"), *TINY]
        assert main_exit_code(monkeypatch, args) == 2
        err = capsys.readouterr().err
        assert "stvae training diverged" in err and where in err and "op 'exp'" in err


def mixed_rows(n, seed, **columns):
    """`n` rows of two numeric columns `u` and `v` plus `columns`, each the
    list of its cells, shuffled."""
    rng = np.random.default_rng(seed)
    extra = {name: list(rng.permutation(np.array(cells, dtype=object))) for name, cells in columns.items()}
    header = ["u", "v", *extra]
    rows = [[f"{rng.normal():.4f}", f"{rng.normal(3.0):.4f}", *(cells[i] for cells in extra.values())]
            for i in range(n)]
    return header, rows


class TestCleanedTablesReadBack:
    """A table `clean` keeps reads back with the column kinds it was given,
    although imputation can carry a column across the raw-table rules."""

    def clean_one(self, tmp_path, monkeypatch, header, rows):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        write_csv(corpus, "t", header, rows)
        assert main_exit_code(monkeypatch, ["clean", str(corpus), str(tmp_path / "cleaned")]) == 0
        return tmp_path / "cleaned" / "t.csv"

    def test_imputed_labels_stay_categorical(self, tmp_path, monkeypatch):
        # 90 of 96 labels parse (< 95%); after imputing "1", 140 of 146 do.
        header, rows = mixed_rows(146, 0, g=["1"] * 50 + ["2"] * 40 + ["x"] * 6 + [""] * 50)
        path = self.clean_one(tmp_path, monkeypatch, header, rows)
        args = ["train-scratch", "--table", str(path), "--method", "stvae", "--out", str(tmp_path / "m.ckpt"), *TINY]
        assert main_exit_code(monkeypatch, args) == 0
        g = load_clean_table(path).columns[2]
        assert g.kind.is_categorical and set(g.categories) == {"1", "2", "x"}

    @pytest.mark.parametrize("method, flags", [("stvae", TINY), ("great", GREAT_TINY)])
    def test_imputed_urls_are_not_rejected(self, method, flags, tmp_path, monkeypatch):
        # 88 of 100 labels are URLs (< 90%); after imputing the top URL, 128 of 140 are.
        urls = [f"https://example.org/{i}" for i in (1, 2, 3)]
        header, rows = mixed_rows(140, 1, site=[urls[i % 3] for i in range(88)] + ["other"] * 12 + [""] * 40)
        path = self.clean_one(tmp_path, monkeypatch, header, rows)
        ckpt, syn = tmp_path / "m.ckpt", tmp_path / "syn.csv"
        train = ["train-scratch", "--table", str(path), "--method", method, "--out", str(ckpt), *flags]
        assert main_exit_code(monkeypatch, train) == 0
        assert main_exit_code(monkeypatch, ["sample", "--checkpoint", str(ckpt), "--rows", "20", "--out", str(syn)]) == 0
        assert syn.read_text().splitlines()[0] == "u,v,site"
        site = load_clean_table(path).columns[2]
        assert site.kind.is_categorical and set(site.categories) == {*urls, "other"}

    @pytest.mark.parametrize("method", ["ctgan", "tvae", "stvae", "stvaem", "great"])
    def test_a_null_cell_in_training_names_the_table(self, method, tmp_path, monkeypatch, capsys):
        header, rows = mixed_rows(40, 2, g=["a", "b"] * 20)
        rows[3][0] = ""
        path = write_csv(tmp_path, "holes", header, rows)
        args = ["train-scratch", "--table", str(path), "--method", method, "--out", str(tmp_path / "m.ckpt"), *TINY]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == "error: table 'holes': null cell in column 'u'\n"


class TestEvaluateTypesBySchema:
    """`evaluate` types each synthetic cell by the real table's column."""

    def evaluate(self, tmp_path, monkeypatch, syn_labels):
        header, rows = mixed_rows(200, 3, g=["x" if i % 10 == 0 else "12"[i % 2] for i in range(200)])
        real = write_csv(tmp_path, "real", header, rows)
        for row, label in zip(rows, syn_labels):
            row[2] = label
        syn = write_csv(tmp_path, "syn", header, rows[: len(syn_labels)])
        out = tmp_path / "r.json"
        code = main_exit_code(monkeypatch, ["evaluate", "--real", str(real), "--synthetic", str(syn), "--out", str(out)])
        return code, out

    def test_numeric_looking_labels_stay_labels(self, tmp_path, monkeypatch):
        code, out = self.evaluate(tmp_path, monkeypatch, ["12"[i % 2] for i in range(200)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["shape_scores"]["g"] > 0.8  # "1" and "2" are the real labels, not new ones

    def test_a_label_that_is_not_a_number_is_kept(self, tmp_path, monkeypatch):
        code, out = self.evaluate(tmp_path, monkeypatch, ["x"] + ["12"[i % 2] for i in range(199)])
        assert code == 0
        assert json.loads(out.read_text())["shape_scores"]["g"] > 0.8

    def test_a_numeric_cell_that_does_not_parse_names_the_column(self, tmp_path, monkeypatch, capsys):
        header, rows = mixed_rows(40, 4, g=["a", "b"] * 20)
        real = write_csv(tmp_path, "real", header, rows)
        rows[5][1] = "n/a"
        syn = write_csv(tmp_path, "syn", header, rows)
        args = ["evaluate", "--real", str(real), "--synthetic", str(syn), "--out", str(tmp_path / "r.json")]
        assert main_exit_code(monkeypatch, args) == 2
        assert capsys.readouterr().err == f"error: {syn}: non-numeric cell in numeric column 'v'\n"


def test_checkpoint_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # At the default model sizes BLAS splits some products over its threads,
    # which sums them in another order; the CLI runs every command on one.
    rng = np.random.default_rng(0)
    header = ["a", "b", "c", "d", "g", "h", "k"]
    rows = [[f"{v:.4f}" for v in rng.normal(size=4)] + list(rng.choice(["x", "y", "z", "w"], size=3))
            for _ in range(1000)]
    table = write_csv(tmp_path, "t", header, rows)
    variables = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in variables}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(tabforge.cli.__file__).parents[1]), env.get("PYTHONPATH", "")])
    checkpoints = []
    for threads in (None, "1", "2"):
        out = tmp_path / f"{threads}.ckpt"
        subprocess.run(
            [sys.executable, "-m", "tabforge.cli", "train-scratch", "--table", str(table), "--method", "ctgan",
             "--out", str(out), "--training.epochs=2"],
            env={**env, **dict.fromkeys(variables if threads else (), threads)}, check=True, capture_output=True,
        )
        checkpoints.append(out.read_bytes())
    assert checkpoints[1] == checkpoints[0] and checkpoints[2] == checkpoints[0]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_score_that_is_not_finite_names_the_table_and_the_pair(tmp_path, monkeypatch, capsys):
    # Pearson's r over cells of 1e308 overflows to nan, without a RuntimeWarning.
    rows = [["1e308" if i % 7 == 0 else f"{i % 5}.5", f"{i * 3 % 11}.25"] for i in range(70)]
    real = write_csv(tmp_path, "real", ["x", "y"], rows)
    args = ["evaluate", "--real", str(real), "--synthetic", str(real), "--out", str(tmp_path / "r.json")]
    assert main_exit_code(monkeypatch, args) == 2
    assert capsys.readouterr().err == "error: table 'real': the trend score of pair 'x|y' is nan\n"


def test_evaluate_writes_histograms_into_a_new_directory(tmp_path, cli_run):
    header, rows = mixed_rows(40, 5, g=["a", "b"] * 20)
    real = write_csv(tmp_path, "real", header, rows)
    hist = tmp_path / "new" / "h.json"
    cli_run(["evaluate", "--real", str(real), "--synthetic", str(real), "--out", str(tmp_path / "r.json"),
             "--histograms", str(hist)])
    assert sorted(json.loads(hist.read_text())) == ["u", "v"]


class TestBudgetExitsThree:
    """An exhausted pretraining budget exits 3.  The clock `pretrain` reads
    moves only when a patched stage of the stvae driver says it took time."""

    @pytest.fixture
    def takes(self, monkeypatch):
        now = [0.0]
        monkeypatch.setattr(tr, "time", SimpleNamespace(monotonic=lambda: now[0]))

        def takes(method, seconds):
            run = getattr(tr._VaeDriver, method)

            def timed(driver, *args):
                now[0] += seconds
                return run(driver, *args)

            monkeypatch.setattr(tr._VaeDriver, method, timed)

        return takes

    def pretrain_args(self, pipeline_dirs, budget):
        cleaned, manifest, tmp = pipeline_dirs
        return ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned), "--method", "stvae",
                "--out", str(tmp / "p.ckpt"), *TINY, "--training.iterations=3",
                f"--training.wall_clock_budget={budget}"]

    def test_budget_spent_mid_run_writes_the_completed_passes(self, takes, pipeline_dirs, monkeypatch, capsys):
        takes("train_epoch", 3600.0)
        assert main_exit_code(monkeypatch, self.pretrain_args(pipeline_dirs, 60)) == 3
        out = pipeline_dirs[2] / "p.ckpt"
        assert load_checkpoint(out).provenance["epoch"] == 1
        log = out.with_suffix(".log.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in log[1:]] == ["epoch", "1"]  # after the provenance line
        captured = capsys.readouterr()
        assert "pretrained stvae" in captured.out
        assert captured.err == "error: wall-clock budget of 60 s exhausted after 1 of 3 pretraining iterations\n"

    def test_budget_spent_before_the_first_pass_writes_nothing(self, takes, pipeline_dirs, monkeypatch, capsys):
        takes("prep", 1.0)
        assert main_exit_code(monkeypatch, self.pretrain_args(pipeline_dirs, 0.5)) == 3
        assert list(pipeline_dirs[2].glob("p.*")) == []
        err = capsys.readouterr().err
        assert err == "error: wall-clock budget of 0.5 s exhausted before the first pretraining iteration\n"


def test_unknown_override_is_usage_error(toy_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "sys.argv",
        ["tabforge", "clean", str(toy_corpus), str(tmp_path / "o"), "--no.such.key=1"],
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1


class TestParsing:
    HELP = {
        "clean": ["CORPUS_DIR", "OUT_DIR"],
        "split": ["CLEAN_DIR", "--out", "--embeddings"],
        "pretrain": ["--split", "--clean-dir", "--method", "--out"],
        "finetune": ["--checkpoint", "--table", "--out"],
        "train-scratch": ["--table", "--method", "--out"],
        "sample": ["--checkpoint", "--rows", "--out"],
        "evaluate": ["--real", "--synthetic", "--out", "--histograms"],
        "benchmark": ["--split", "--clean-dir", "--method", "--pretrained", "--part", "--out-dir", "--workers"],
        "report": ["--bench-dir", "--out-dir"],
    }

    def test_help_lists_every_command(self, cli_run):
        out = cli_run(["--help"]).out
        assert all(name in out for name in self.HELP)

    @pytest.mark.parametrize("command", sorted(HELP))
    def test_command_help_lists_its_options(self, command, cli_run):
        out = cli_run([command, "--help"]).out
        assert all(option in out for option in [*self.HELP[command], "--config", "--section.key=value"])

    @pytest.mark.parametrize("args, detail", [
        (["pretrain", "--clean-dir", "{tmp}", "--out", "{tmp}/p.ckpt"], "--split"),
        (["pretrain", "--split", "{tmp}/nope.json", "--clean-dir", "{tmp}", "--out", "{tmp}/p.ckpt"], "does not exist"),
        (["clean", "{tmp}/m.json", "{tmp}/out"], "is a file"),
        (["benchmark", "--split", "{tmp}/m.json", "--clean-dir", "{tmp}", "--method", "stvae",
          "--pretrained", "stvae=x", "--out-dir", "{tmp}/b", "--part", "train"], "invalid choice: 'train'"),
        (["sample", "--checkpoint", "{tmp}/m.json", "--rows", "ten", "--out", "{tmp}/s.csv"], "invalid int value: 'ten'"),
        (["benchmark", "--split", "{tmp}/m.json", "--clean-dir", "{tmp}", "--method", "stvae",
          "--pretrained", "stvae=x", "--out-dir", "{tmp}/b", "--workers", "0"], "got '0'"),
        (["benchmark", "--split", "{tmp}/m.json", "--clean-dir", "{tmp}", "--method", "stvae",
          "--pretrained", "stvae=x", "--out-dir", "{tmp}/b", "--workers=-2"], "got '-2'"),
        (["benchmark", "--split", "{tmp}/m.json", "--clean-dir", "{tmp}", "--method", "stvae",
          "--pretrained", "stvae=x", "--out-dir", "{tmp}/b", "--workers", "two"], "got 'two'"),
        (["sample", "--checkpoint", "{tmp}/m.json", "--rows", "-1", "--out", "{tmp}/s.csv"], "got '-1'"),
        (["benchmark", "--split", "{tmp}/m.json", "--clean-dir", "{tmp}", "--method", "stvae",
          "--pretrained", "stvae", "--out-dir", "{tmp}/b"], "expected METHOD=PATH, got 'stvae'"),
    ])
    def test_parse_failure_is_a_usage_error(self, args, detail, tmp_path, cli_run):
        (tmp_path / "m.json").write_text("{}")
        err = cli_run([a.format(tmp=tmp_path) for a in args], code=1).err
        assert err.startswith("usage error:") and detail in err
        assert len(err.strip().splitlines()) == 1

    def test_no_option_names_a_config_key(self):
        # A setting has one knob: an option `--x` beside a config key `x`
        # would make two, and the option would shadow the key.
        def leaves(node):
            for key, value in node.items():
                yield from leaves(value) if isinstance(value, dict) else [key]

        keys = set(leaves(DEFAULTS))
        subparsers = next(a for a in tabforge.cli.cli.parser()._actions if a.choices)
        shadowing = sorted(
            f"{name} {option}"
            for name, sub in subparsers.choices.items()
            for action in sub._actions
            for option in action.option_strings
            if option.startswith("--") and option[2:].replace("-", "_") in keys
        )
        assert shadowing == []

    @pytest.mark.parametrize("key, value", [("method", "ctgan"), ("workers", 2)])
    def test_config_file_key_that_is_an_option_is_unknown(self, key, value, tmp_path, cli_run):
        (tmp_path / "m.json").write_text("{}")
        (tmp_path / "config.json").write_text(json.dumps({key: value}))
        args = ["benchmark", "--split", str(tmp_path / "m.json"), "--clean-dir", str(tmp_path),
                "--method", "stvae", "--pretrained", "stvae=x", "--out-dir", str(tmp_path / "b"),
                "-c", str(tmp_path / "config.json")]
        assert cli_run(args, code=1).err == f"usage error: unknown config key {key!r}\n"
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_config_workers_below_one_is_a_data_error(self, workers, tmp_path, cli_run):
        # `workers` was a config key whose values below 1 were a data error
        # (exit 2). The key is gone, so a -c file holding it is refused
        # earlier, as an unknown key, whatever the value, and nothing is written.
        (tmp_path / "m.json").write_text("{}")
        (tmp_path / "config.json").write_text(json.dumps({"workers": workers}))
        args = ["benchmark", "--split", str(tmp_path / "m.json"), "--clean-dir", str(tmp_path),
                "--method", "stvae", "--pretrained", "stvae=x", "--out-dir", str(tmp_path / "b"),
                "-c", str(tmp_path / "config.json")]
        assert cli_run(args, code=1).err == "usage error: unknown config key 'workers'\n"
        assert not (tmp_path / "b").exists()


class TestBadConfigValues:
    @pytest.mark.parametrize("flag, key", [
        ("--training.ckpt_every=abc", "training.ckpt_every"),
        ('--training.val_fraction="x"', "training.val_fraction"),
        ("--training.epochs=2.5", "training.epochs"),
        ("--split.ratios=[0.5,\"a\",0.5]", "split.ratios"),
        ("--model.great={\"foo\":1}", "model.great.foo"),
    ])
    def test_wrong_typed_value_is_a_usage_error(self, flag, key, pipeline_dirs, monkeypatch, capsys):
        cleaned, _, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]
        args = ["train-scratch", "--table", str(table), "--method", "ctgan", "--out", str(tmp / "g.ckpt"), flag]
        assert main_exit_code(monkeypatch, args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(key) in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command, flag, detail", [
        ("split", "--split.ratios=[0.5,0.5,0.5]", "split ratios must sum to 1"),
        ("split", "--split.ratios=[0.5,0.5]", "split ratios must be 3 values"),
        ("split", "--split.mode=grid", "unknown split mode 'grid'"),
        ("clean", "--cleaning.max_null_fraction=2", "max_null_fraction must be in (0, 1]"),
    ])
    def test_out_of_range_split_or_cleaning_value_is_a_data_error(
        self, command, flag, detail, toy_corpus, tmp_path, monkeypatch, capsys, cli_run
    ):
        if command == "split":
            cleaned = tmp_path / "cleaned"
            cli_run(["clean", str(toy_corpus), str(cleaned)])
            args = ["split", str(cleaned), "--out", str(tmp_path / "s.json"), flag]
        else:
            args = ["clean", str(toy_corpus), str(tmp_path / "cleaned"), flag]
        assert main_exit_code(monkeypatch, args) == 2
        err = capsys.readouterr().err
        assert detail in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("doc, key", [
        ({"training": {"epochz": 5}}, "training.epochz"),
        ({"model": {"great": {"foo": 1}}}, "model.great.foo"),
        ({"training": {"ckpt_every": "abc"}}, "training.ckpt_every"),
    ])
    def test_config_file_keys_are_checked_like_flags(self, doc, key, toy_corpus, tmp_path, monkeypatch, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        args = ["clean", str(toy_corpus), str(tmp_path / "o"), "-c", str(path)]
        assert main_exit_code(monkeypatch, args) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and repr(key) in err

    @pytest.mark.parametrize("write", [
        lambda path: path.write_bytes(b'{"seed": "\xff"}'),
        lambda path: path.write_text("{not json"),
        lambda path: path.mkdir(),
        lambda path: path.write_text("[1]"),
    ], ids=["not-utf8", "not-json", "directory", "not-an-object"])
    def test_unreadable_config_file_is_a_usage_error(self, write, toy_corpus, tmp_path, cli_run):
        path = tmp_path / "config.json"
        write(path)
        err = cli_run(["clean", str(toy_corpus), str(tmp_path / "o"), "-c", str(path)], code=1).err
        assert err.startswith(f"usage error: cannot read config {path}: ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "o").exists()

    def test_config_file_value_applies(self, toy_corpus, tmp_path, cli_run):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cleaning": {"min_rows": 1000}}))
        out = tmp_path / "cleaned"
        cli_run(["clean", str(toy_corpus), str(out), "-c", str(path)])
        assert not list(out.glob("*.csv"))  # everything discarded: too few rows
