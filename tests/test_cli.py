import json

import numpy as np
import pytest
from click.testing import CliRunner

import tabforge.cli
import tabforge.training as tr
from tabforge.checkpoint import load_checkpoint, save_checkpoint
from tabforge.cli import cli, main

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


def run(args, **kw):
    runner = CliRunner()
    result = runner.invoke(cli, args, catch_exceptions=False, **kw)
    assert result.exit_code == 0, result.output
    return result


class TestClean:
    def test_toy_corpus_keeps_good_tables(self, toy_corpus, tmp_path):
        out = tmp_path / "cleaned"
        result = run(["clean", str(toy_corpus), str(out)])
        cleaned = sorted(p.stem for p in out.glob("*.csv"))
        assert cleaned == ["table0", "table1", "table2", "table3"]
        assert "discarded: all_ids" in result.output
        assert "discarded: too_thin" in result.output
        stats = json.loads((out / "stats.json").read_text())
        assert stats["tables"] == 4 and stats["discarded"] == 2

    def test_rerun_on_cleaned_output_is_identity(self, toy_corpus, tmp_path):
        out1 = tmp_path / "c1"
        out2 = tmp_path / "c2"
        run(["clean", str(toy_corpus), str(out1)])
        run(["clean", str(out1), str(out2)])
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

    def test_threshold_override_flag(self, toy_corpus, tmp_path):
        out = tmp_path / "cleaned"
        run(["clean", str(toy_corpus), str(out), "--cleaning.min_rows=1000"])
        assert not list(out.glob("*.csv"))  # everything discarded: too few rows


class TestSplit:
    def prepare(self, toy_corpus, tmp_path):
        cleaned = tmp_path / "cleaned"
        run(["clean", str(toy_corpus), str(cleaned)])
        return cleaned

    def test_manifest_partitions_corpus(self, toy_corpus, tmp_path):
        cleaned = self.prepare(toy_corpus, tmp_path)
        manifest = tmp_path / "split.json"
        run(["split", str(cleaned), "--out", str(manifest), "--split.ratios=[0.5,0.25,0.25]"])
        doc = json.loads(manifest.read_text())
        names = set(doc["train"]) | set(doc["val"]) | set(doc["test"])
        assert names == {"table0", "table1", "table2", "table3"}

    def test_same_seed_reproducible(self, toy_corpus, tmp_path):
        cleaned = self.prepare(toy_corpus, tmp_path)
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["--split.ratios=[0.5,0.25,0.25]", "--seed=3"]
        run(["split", str(cleaned), "--out", str(a)] + args)
        run(["split", str(cleaned), "--out", str(b)] + args)
        assert a.read_bytes() == b.read_bytes()

    def test_domain_mode_keeps_clusters_intact(self, toy_corpus, tmp_path):
        cleaned = self.prepare(toy_corpus, tmp_path)
        manifest = tmp_path / "d.json"
        run(
            [
                "split",
                str(cleaned),
                "--out",
                str(manifest),
                "--mode",
                "domain",
                "--split.ratios=[0.5,0.25,0.25]",
                "--split.k=4",
            ]
        )
        doc = json.loads(manifest.read_text())
        part_of = {}
        for part in ("train", "val", "test"):
            for name in doc[part]:
                part_of[name] = part
        for cid in set(doc["clusters"].values()):
            parts = {part_of[n] for n, c in doc["clusters"].items() if c == cid}
            assert len(parts) == 1


@pytest.fixture
def pipeline_dirs(toy_corpus, tmp_path):
    cleaned = tmp_path / "cleaned"
    run(["clean", str(toy_corpus), str(cleaned)])
    manifest = tmp_path / "split.json"
    run(
        ["split", str(cleaned), "--out", str(manifest), "--split.ratios=[0.5,0.25,0.25]"]
    )
    return cleaned, manifest, tmp_path


class TestTrainAndSample:
    def test_pretrain_finetune_sample_round_trip(self, pipeline_dirs, monkeypatch):
        cleaned, manifest, tmp = pipeline_dirs
        loads = []

        def counted_load(path):
            loads.append(path)
            return load_checkpoint(path)

        monkeypatch.setattr(tabforge.cli, "load_checkpoint", counted_load)
        pre = tmp / "pre.ckpt"
        run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        assert pre.exists() and pre.with_suffix(".log.csv").exists()
        ft = tmp / "ft.ckpt"
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        run(
            ["finetune", "--checkpoint", str(pre), "--table", str(table), "--out", str(ft)] + TINY
        )
        assert loads == [str(pre)]  # the method comes from the one load
        out_csv = tmp / "syn.csv"
        run(["sample", "--checkpoint", str(ft), "--rows", "8", "--out", str(out_csv)])
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "x,y,color"
        assert len(lines) == 9

    def test_sample_zero_rows_gives_header_only(self, pipeline_dirs):
        cleaned, manifest, tmp = pipeline_dirs
        ckpt = tmp / "scratch.ckpt"
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        run(
            ["train-scratch", "--table", str(table), "--method", "stvae", "--out", str(ckpt)] + TINY
        )
        out_csv = tmp / "zero.csv"
        run(["sample", "--checkpoint", str(ckpt), "--rows", "0", "--out", str(out_csv)])
        assert out_csv.read_text() == "x,y,color\n"

    def test_evaluate_self_is_perfect(self, pipeline_dirs):
        cleaned, _, tmp = pipeline_dirs
        table = next(iter(sorted(cleaned.glob("*.csv"))))
        report_path = tmp / "rep.json"
        result = run(
            ["evaluate", "--real", str(table), "--synthetic", str(table), "--out", str(report_path)]
        )
        doc = json.loads(report_path.read_text())
        assert doc["s_overall"] == pytest.approx(1.0)


class TestBenchmark:
    def test_benchmark_emits_two_regime_leaderboard(self, pipeline_dirs):
        cleaned, manifest, tmp = pipeline_dirs
        pre = tmp / "pre.ckpt"
        run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        bench = tmp / "bench"
        run(
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

    def test_report_renders_schema_stable_csv(self, pipeline_dirs):
        cleaned, manifest, tmp = pipeline_dirs
        pre = tmp / "pre.ckpt"
        run(
            ["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--out", str(pre)] + TINY
        )
        bench = tmp / "bench"
        run(
            ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "stvae", "--pretrained", f"stvae={pre}",
             "--part", "val", "--out-dir", str(bench)] + TINY
        )
        rep = tmp / "rendered"
        run(["report", "--bench-dir", str(bench), "--out-dir", str(rep)])
        header = (rep / "leaderboard.csv").read_text().splitlines()[1]
        assert header == (
            "split,method,regime,shape_mean,shape_std,trend_mean,trend_std,"
            "overall_mean,overall_std,p_value"
        )
        assert (rep / "deltas.json").exists()
        assert (rep / "leaderboard.txt").exists()


def main_exit_code(monkeypatch, args) -> int:
    monkeypatch.setattr("sys.argv", ["tabforge", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    return exc.value.code


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

    def _great_body(self, cleaned, manifest, tmp):
        pre = tmp / "great.pre.ckpt"
        run(["pretrain", "--split", str(manifest), "--clean-dir", str(cleaned),
             "--method", "great", "--out", str(pre), *GREAT_TINY])
        return pre

    def _scratch(self, cleaned, tmp, method, flags, edit):
        path = tmp / f"{method}.ckpt"
        table = sorted(cleaned.glob("*.csv"))[0]
        run(["train-scratch", "--table", str(table), "--method", method, "--out", str(path), *flags])
        ckpt = load_checkpoint(path)
        edit(ckpt.tensors)
        save_checkpoint(ckpt, path)
        return path

    @pytest.mark.parametrize("case", [
        "great_body", "gmm_missing_tensor", "great_reshaped_tensor", "great_nan_tensor", "great_overflow",
    ])
    def test_sample_rejects_bad_checkpoint(self, case, pipeline_dirs, monkeypatch, capsys):
        cleaned, manifest, tmp = pipeline_dirs
        if case == "great_body":
            path, detail = self._great_body(cleaned, manifest, tmp), "pretraining body"
        elif case == "gmm_missing_tensor":
            path = self._scratch(cleaned, tmp, "stvae", TINY, lambda t: t.pop("dec.2.W"))
            detail = "dec.2.W"
        elif case == "great_reshaped_tensor":
            def reshape(tensors):
                tensors["lnf.g"] = np.ones(3, dtype=np.float32)

            path = self._scratch(cleaned, tmp, "great", GREAT_TINY, reshape)
            detail = "lnf.g"
        elif case == "great_nan_tensor":
            def poison(tensors):
                tensors["lnf.g"][0] = np.nan

            path = self._scratch(cleaned, tmp, "great", GREAT_TINY, poison)
            detail = "tensor 'lnf.g' holds non-finite values"
        else:
            # Finite weights whose forward overflows: the cached decode step
            # stops and the taped rerun names the op.
            def blow_up(tensors):
                tensors["b0.mlp.w1"] *= np.float32(1e30)

            path = self._scratch(cleaned, tmp, "great", GREAT_TINY, blow_up)
            detail = "great sampling diverged on table 's': non-finite values produced by op 'mul'"
        args = ["sample", "--checkpoint", str(path), "--rows", "2", "--out", str(tmp / "s.csv")]
        assert main_exit_code(monkeypatch, args) == 2
        assert detail in capsys.readouterr().err

    def test_benchmark_rejects_non_finite_pretrained_checkpoint(self, pipeline_dirs, monkeypatch, capsys):
        cleaned, manifest, tmp = pipeline_dirs
        pre = self._great_body(cleaned, manifest, tmp)
        ckpt = load_checkpoint(pre)
        ckpt.tensors["lnf.g"][0] = np.inf
        save_checkpoint(ckpt, pre)
        args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
                "--method", "great", "--pretrained", f"great={pre}",
                "--part", "val", "--out-dir", str(tmp / "bench"), *GREAT_TINY]
        assert main_exit_code(monkeypatch, args) == 2
        assert "tensor 'lnf.g' holds non-finite values" in capsys.readouterr().err

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

    @pytest.mark.parametrize("command", ["pretrain", "train-scratch"])
    def test_diverged_training_names_method_table_and_epoch(
        self, command, pipeline_dirs, monkeypatch, capsys
    ):
        cleaned, manifest, tmp = pipeline_dirs
        table = sorted(cleaned.glob("*.csv"))[0]

        def diverge(self, model, session, rows, rng):
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


def test_unknown_override_is_usage_error(toy_corpus, tmp_path, monkeypatch):
    monkeypatch.setattr(
        "sys.argv",
        ["tabforge", "clean", str(toy_corpus), str(tmp_path / "o"), "--no.such.key=1"],
    )
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 1


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
        ("clean", "--cleaning.max_null_fraction=2", "max_null_fraction must be in (0, 1]"),
    ])
    def test_out_of_range_split_or_cleaning_value_is_a_data_error(
        self, command, flag, detail, toy_corpus, tmp_path, monkeypatch, capsys
    ):
        if command == "split":
            cleaned = tmp_path / "cleaned"
            run(["clean", str(toy_corpus), str(cleaned)])
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

    def test_config_file_value_applies(self, toy_corpus, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"cleaning": {"min_rows": 1000}}))
        out = tmp_path / "cleaned"
        run(["clean", str(toy_corpus), str(out), "-c", str(path)])
        assert not list(out.glob("*.csv"))  # everything discarded: too few rows
