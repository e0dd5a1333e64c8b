"""Every path argument of every command, crossed with the ways a path goes
wrong.  Each case exits 1 (usage) or 2 (data) naming the path, prints no
traceback, writes no file and trains nothing; a write that fails keeps the
file it would have replaced."""

import json
import os

import pytest

import tabforge.training
from tabforge.cli import main

from conftest import make_toy_corpus

TINY = ["--model.latent=8", "--model.batch=16", "--transform.gmm_modes=1",
        "--training.epochs=1", "--training.iterations=1"]

# Each command's arguments, valid once formatted with the `inputs` fixture
# and an output path.  Every `{name}` is a path argument, `-c` included.
COMMANDS = {
    "clean": ["clean", "{corpus}", "{out_dir}"],
    "split": ["split", "{cleaned}", "--out", "{out_file}", "--embeddings", "{embeddings}",
              "--split.mode=domain", "--split.k=2", "--split.ratios=[0.5,0.25,0.25]"],
    "pretrain": ["pretrain", "--split", "{manifest}", "--clean-dir", "{cleaned}", "--method", "stvae",
                 "--out", "{out_file}", *TINY],
    "finetune": ["finetune", "--checkpoint", "{checkpoint}", "--table", "{table}", "--out", "{out_file}", *TINY],
    "train-scratch": ["train-scratch", "--table", "{table}", "--method", "stvae", "--out", "{out_file}", *TINY],
    "sample": ["sample", "--checkpoint", "{checkpoint}", "--rows", "4", "--out", "{out_file}"],
    "evaluate": ["evaluate", "--real", "{table}", "--synthetic", "{synthetic}", "--out", "{out_file}",
                 "--histograms", "{histograms}"],
    "benchmark": ["benchmark", "--split", "{manifest}", "--clean-dir", "{cleaned}", "--method", "stvae",
                  "--pretrained", "stvae={checkpoint}", "--part", "val", "--out-dir", "{out_dir}", *TINY],
    "report": ["report", "--bench-dir", "{bench}", "--out-dir", "{out_dir}"],
}
DIRECTORIES = {"corpus", "cleaned", "bench"}
OUTPUT_FILES = {"out_file", "histograms"}

# What each kind of path can be instead of what the command wants.
CONDITIONS = {
    "input file": ["missing", "directory", "file-as-directory", "empty", "not-utf8", "truncated"],
    "input directory": ["missing", "file-as-directory", "empty"],
    "output file": ["directory", "file-as-directory"],
    "output directory": ["file-as-directory"],
}


def _kind(name: str) -> str:
    if name in DIRECTORIES:
        return "input directory"
    if name in OUTPUT_FILES:
        return "output file"
    return "output directory" if name == "out_dir" else "input file"


def _names(command: str) -> list[str]:
    return [part.split("{")[1].split("}")[0] for part in COMMANDS[command] if "{" in part] + ["config"]


CASES = [
    pytest.param(command, name, condition, id=f"{command}-{name}-{condition}")
    for command in COMMANDS
    for name in _names(command)
    for condition in CONDITIONS[_kind(name)]
]


def _run(monkeypatch, args) -> int:
    monkeypatch.setattr("sys.argv", ["tabforge", *map(str, args)])
    try:
        main()
    except SystemExit as exc:
        return exc.code
    return 0


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """One valid input for every input path argument."""
    root = tmp_path_factory.mktemp("inputs")
    corpus = make_toy_corpus(root / "corpus")
    cleaned, manifest, checkpoint = root / "cleaned", root / "split.json", root / "pre.ckpt"
    with pytest.MonkeyPatch.context() as monkeypatch:
        for args in (
            ["clean", corpus, cleaned],
            ["split", cleaned, "--out", manifest, "--split.ratios=[0.5,0.25,0.25]"],
            ["pretrain", "--split", manifest, "--clean-dir", cleaned, "--method", "stvae", "--out", checkpoint, *TINY],
        ):
            assert _run(monkeypatch, args) == 0
    tables = sorted(cleaned.glob("*.csv"))
    embeddings = root / "emb.tsv"
    embeddings.write_text("".join(f"{p.stem}\t{i}.0,1.0\n" for i, p in enumerate(tables)), encoding="utf-8")
    bench = root / "bench"
    (bench / "reports").mkdir(parents=True)
    for regime in ("finetuned", "scratch"):
        doc = {"table": "t", "shape_scores": {"x": 0.5}, "trend_scores": {}, "s_shape": 0.5, "s_trend": 0.0,
               "s_overall": 0.5, "syn_rows": 10, "single_column": True}
        (bench / "reports" / f"t.stvae.{regime}.json").write_text(json.dumps(doc), encoding="utf-8")
    config = root / "config.json"
    config.write_text(json.dumps({"seed": 0, "cleaning": {"min_rows": 10}}), encoding="utf-8")
    return {"corpus": corpus, "cleaned": cleaned, "manifest": manifest, "checkpoint": checkpoint,
            "table": tables[0], "synthetic": tables[0], "embeddings": embeddings, "bench": bench, "config": config}


def _bad_path(tmp_path, inputs, name: str, condition: str):
    """A path for argument `name` that breaks `condition`."""
    directory = _kind(name) in ("input directory", "output directory")
    if condition == "missing":
        return tmp_path / "missing"
    if condition == "directory":
        (tmp_path / "dir").mkdir()
        return tmp_path / "dir"
    if condition == "file-as-directory":
        (tmp_path / "file").write_bytes(b"x")
        return tmp_path / "file" if directory else tmp_path / "file" / "x"
    if directory:  # empty
        (tmp_path / "empty").mkdir()
        return tmp_path / "empty"
    data = inputs[name].read_bytes()
    data = {"empty": b"", "not-utf8": b"\xff" + data, "truncated": data[: data.rindex(b",")]}[condition]
    path = tmp_path / f"bad{inputs[name].suffix}"
    path.write_bytes(data)
    return path


@pytest.mark.parametrize("command, name, condition", CASES)
def test_a_bad_path_is_a_clean_error(command, name, condition, inputs, tmp_path, monkeypatch, capsys):
    bad = _bad_path(tmp_path, inputs, name, condition)
    paths = {**inputs, "out_file": tmp_path / "out" / "o.x", "histograms": tmp_path / "out" / "h.json",
             "out_dir": tmp_path / "out", name: bad}
    args = [part.format(**paths) for part in COMMANDS[command]] + ["-c", str(paths["config"])]
    trained = []
    for fn in ("pretrain", "finetune"):
        monkeypatch.setattr(tabforge.training, fn, lambda *a, fn=fn: trained.append(fn))
    before = sorted(tmp_path.rglob("*"))
    code = _run(monkeypatch, args)
    err = capsys.readouterr().err
    assert code in (1, 2), err
    assert str(bad) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert trained == []


def test_a_failed_replace_keeps_the_old_file(toy_corpus, tmp_path, monkeypatch, capsys):
    cleaned, manifest = tmp_path / "cleaned", tmp_path / "split.json"
    assert _run(monkeypatch, ["clean", toy_corpus, cleaned]) == 0
    split = ["split", cleaned, "--out", manifest, "--split.ratios=[0.5,0.25,0.25]"]
    assert _run(monkeypatch, split) == 0
    old = manifest.read_bytes()

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", str(dst))

    monkeypatch.setattr(os, "replace", refuse)
    capsys.readouterr()
    assert _run(monkeypatch, split + ["--seed=7"]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {manifest}: [Errno 13] Permission denied")
    assert manifest.read_bytes() == old
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cleaned", "corpus", "split.json"]


@pytest.mark.parametrize("command, subdirectory", [
    pytest.param("benchmark", "reports", id="benchmark-reports"),
    pytest.param("benchmark", "logs", id="benchmark-logs"),
    pytest.param("benchmark", "checkpoints", id="benchmark-checkpoints"),
    pytest.param("report", "reports", id="report"),
])
def test_a_bad_path_inside_a_benchmark_directory_is_named(
    command, subdirectory, inputs, tmp_path, monkeypatch, capsys
):
    bench = tmp_path / "bench"
    if command == "benchmark":
        bench.mkdir()
        bad = bench / subdirectory
        bad.write_bytes(b"")  # a file where the benchmark writes a directory
        args = [part.format(**inputs, out_dir=bench) for part in COMMANDS["benchmark"]]
    else:
        (bench / "reports" / "t.stvae.scratch.json").mkdir(parents=True)
        bad = bench / "reports" / "t.stvae.scratch.json"
        args = ["report", "--bench-dir", bench, "--out-dir", tmp_path / "out"]
    trained = []
    monkeypatch.setattr(tabforge.training, "finetune", lambda *a: trained.append(a))
    before = sorted(tmp_path.rglob("*"))
    assert _run(monkeypatch, args) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "Traceback" not in err
    assert sorted(tmp_path.rglob("*")) == before
    assert trained == []
