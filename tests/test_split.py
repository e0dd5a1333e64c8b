import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tabforge
from tabforge.cli import main
from tabforge.config import load_config
from tabforge.data import DataError
from tabforge.split import (
    DatasetSplit,
    domain_split,
    kmeans,
    load_embedding_file,
    name_embedding,
    random_split,
    split_spec,
)


def spec(ratios, seed, *overrides):
    """The SplitSpec a run builds from these ratios, seed and overrides."""
    ratio_flag = f"--split.ratios={json.dumps(list(ratios))}"
    return split_spec(load_config(overrides=[ratio_flag, f"--seed={seed}", *overrides]))


def corpus_of(n):
    return [f"t{i:04d}" for i in range(n)]


class TestRandomSplit:
    def test_sizes_follow_floor_rule(self):
        split = random_split(corpus_of(10), spec((0.8, 0.1, 0.1), 1))
        assert (len(split.train), len(split.val), len(split.test)) == (8, 1, 1)

    def test_corpus_scale_sizes(self):
        split = random_split(corpus_of(1435), spec((0.8, 0.1, 0.1), 7))
        assert (len(split.train), len(split.val), len(split.test)) == (1148, 143, 144)

    def test_deterministic_given_seed(self):
        a = random_split(corpus_of(50), spec((0.6, 0.2, 0.2), 9))
        b = random_split(corpus_of(50), spec((0.6, 0.2, 0.2), 9))
        assert a.train == b.train and a.val == b.val and a.test == b.test

    @pytest.mark.parametrize("seed", range(5))
    def test_partition_property(self, seed):
        corpus = corpus_of(23)
        split = random_split(corpus, spec((0.5, 0.25, 0.25), seed))
        names = set(corpus)
        assert set(split.train) | set(split.val) | set(split.test) == names
        assert len(split.train) + len(split.val) + len(split.test) == len(names)

    def test_empty_part_errors(self):
        with pytest.raises(DataError):
            random_split(corpus_of(3), spec((0.9, 0.05, 0.05), 0))


class TestKmeans:
    def test_separated_clusters(self):
        pts = [(0, 0), (0, 1), (10, 10), (10, 11)]
        assign = kmeans(pts, 2, seed=0)
        assert assign[0] == assign[1] and assign[2] == assign[3]
        assert assign[0] != assign[2]

    def test_k_equals_n_gives_zero_wcss(self):
        pts = np.array([[0.0], [5.0], [9.0], [14.0]])
        assign = kmeans(pts, 4, seed=1)
        assert sorted(assign) == [0, 1, 2, 3]

    def test_wcss_close_to_multirestart_oracle(self):
        rng = np.random.default_rng(42)
        blobs = np.concatenate(
            [rng.normal(c, 0.5, size=(40, 2)) for c in [(0, 0), (6, 0), (3, 6)]]
        )

        def wcss_of(assign, k):
            total = 0.0
            for j in range(k):
                members = blobs[np.array(assign) == j]
                if len(members):
                    total += ((members - members.mean(axis=0)) ** 2).sum()
            return total

        ours = wcss_of(kmeans(blobs, 3, seed=0), 3)
        best = min(wcss_of(kmeans(blobs, 3, seed=s), 3) for s in range(25))
        assert ours <= best * 1.05

    def test_rejects_bad_input(self):
        with pytest.raises(DataError):
            kmeans([], 1, 0)
        with pytest.raises(DataError):
            kmeans(np.zeros((3, 0)), 1, 0)
        with pytest.raises(DataError):
            kmeans([(0, 0)], 2, 0)


class TestNameEmbedding:
    def test_deterministic(self):
        a, b = name_embedding("health", 32), name_embedding("health", 32)
        assert np.array_equal(a, b)

    def test_unit_norm(self):
        for name in ("heart-disease", "x", "stock prices 2020"):
            assert np.linalg.norm(name_embedding(name, 64)) == pytest.approx(1.0, abs=1e-6)

    def test_cosine_tracks_ngram_overlap(self):
        def grams(name):
            padded = f"^{name.lower()}$"
            return {padded[i : i + 3] for i in range(len(padded) - 2)}

        def jaccard(a, b):
            return len(grams(a) & grams(b)) / len(grams(a) | grams(b))

        a, b, c = "heart-disease", "cardiac-disease", "stock-prices"
        assert jaccard(a, b) > jaccard(a, c)  # oracle agrees with intuition
        ea, eb, ec = (name_embedding(n, 64) for n in (a, b, c))
        assert float(ea @ eb) > float(ea @ ec)

    def test_rejects_bad_args(self):
        with pytest.raises(DataError):
            name_embedding("", 32)
        with pytest.raises(DataError):
            name_embedding("ok", 4)


class TestDomainSplit:
    def embeddings_for(self, corpus, positions):
        return {name: np.asarray(p, dtype=float) for name, p in zip(corpus, positions)}

    def test_clusters_never_straddle_parts(self):
        corpus = corpus_of(12)
        pos = [(i % 4 * 10, i % 4 * 10) for i in range(12)]  # 4 tight clusters
        emb = self.embeddings_for(corpus, pos)
        split = domain_split(corpus, emb, spec((0.5, 0.25, 0.25), 3, "--split.mode=domain", "--split.k=4"))
        for cid in set(split.cluster_assignments.values()):
            members = [n for n, c in split.cluster_assignments.items() if c == cid]
            in_part = [
                ("train" if m in split.train else "val" if m in split.val else "test")
                for m in members
            ]
            assert len(set(in_part)) == 1

    def test_empty_part_errors(self):
        corpus = corpus_of(4)
        emb = self.embeddings_for(corpus, [(0, 0), (0, 1), (10, 10), (10, 11)])
        with pytest.raises(DataError):
            domain_split(corpus, emb, spec((0.5, 0.25, 0.25), 0, "--split.mode=domain", "--split.k=2"))

    def test_singleton_clusters_partition(self):
        corpus = corpus_of(12)
        emb = self.embeddings_for(corpus, [(i * 5, 0) for i in range(12)])
        split = domain_split(corpus, emb, spec((0.5, 0.25, 0.25), 1, "--split.mode=domain", "--split.k=12"))
        names = set(corpus)
        assert set(split.train) | set(split.val) | set(split.test) == names
        assert min(len(split.train), len(split.val), len(split.test)) >= 1

    def test_missing_embedding_errors(self):
        corpus = corpus_of(3)
        with pytest.raises(DataError, match="missing"):
            domain_split(corpus, {}, spec((0.4, 0.3, 0.3), 0, "--split.mode=domain", "--split.k=2"))


def test_manifest_round_trip():
    split = DatasetSplit(["a", "b"], ["c"], ["d"], spec((0.5, 0.25, 0.25), 11), {"a": 0, "b": 0, "c": 1, "d": 2})
    again = DatasetSplit.from_json(split.to_json(), "split.json")
    assert again.train == split.train and again.val == split.val and again.test == split.test
    assert again.provenance == split.provenance
    assert again.cluster_assignments == split.cluster_assignments


@pytest.mark.parametrize("clusters, detail", [
    ({"a": 0, "b": 1, "c": 1, "d": 2}, "cluster 1 straddles parts"),
    ({"a": 0, "b": 0, "c": 1}, "table 'd' has no cluster"),
])
def test_manifest_breaking_a_cluster_invariant_is_a_data_error(clusters, detail):
    with pytest.raises(DataError, match=f"^{detail}$"):
        DatasetSplit(["a", "b"], ["c"], ["d"], spec((0.5, 0.25, 0.25), 11), clusters)
    doc = json.loads(DatasetSplit(["a", "b"], ["c"], ["d"], spec((0.5, 0.25, 0.25), 11)).to_json())
    with pytest.raises(DataError, match=f"^split.json: not a split manifest: {detail}$"):
        DatasetSplit.from_json(json.dumps({**doc, "clusters": clusters}), "split.json")


def test_embedding_file_loader(tmp_path):
    p = tmp_path / "emb.tsv"
    p.write_text("alpha\t1.0,2.0\nbeta\t0.5,0.25\n", encoding="utf-8")
    emb = load_embedding_file(p)
    assert np.array_equal(emb["alpha"], [1.0, 2.0])
    bad = tmp_path / "bad.tsv"
    bad.write_text("alpha 1.0,2.0\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_embedding_file(bad)


@pytest.mark.parametrize(
    "lines, found",
    [
        (["table0\t1.0,2.0", "table1\tnan,2.0"], "emb.tsv:2: non-finite"),
        (["table0\t1.0,2.0", "table1\t0.5,inf"], "emb.tsv:2: non-finite"),
        (["table0\t1.0,2.0", "table1\t1.0,2.0,3.0"], "emb.tsv:2: embedding has 3 values"),
        (["table0\t1.0,2.0", "table1\t\udcff1.0,2.0"], "emb.tsv: 'utf-8' codec can't decode byte 0xff"),
    ],
)
def test_bad_embedding_file_is_a_data_error(lines, found, toy_corpus, tmp_path, monkeypatch, capsys, cli_run):
    cleaned = tmp_path / "cleaned"
    cli_run(["clean", str(toy_corpus), str(cleaned)])
    emb = tmp_path / "emb.tsv"
    names = ["table2", "table3"]
    # A lone surrogate escape in `lines` writes its byte as it is.
    emb.write_bytes(("\n".join(lines + [f"{n}\t0.0,1.0" for n in names]) + "\n").encode("utf-8", "surrogateescape"))
    args = ["split", str(cleaned), "--out", str(tmp_path / "s.json"), "--split.mode=domain",
            "--embeddings", str(emb), "--split.k=2", "--split.ratios=[0.5,0.25,0.25]"]
    monkeypatch.setattr("sys.argv", ["tabforge", *args])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 2
    assert found in capsys.readouterr().err


def test_embedding_path_that_is_a_directory_is_a_data_error(toy_corpus, tmp_path, cli_run):
    cleaned = tmp_path / "cleaned"
    cli_run(["clean", str(toy_corpus), str(cleaned)])
    emb = tmp_path / "emb"
    emb.mkdir()
    args = ["split", str(cleaned), "--out", str(tmp_path / "s.json"), "--split.mode=domain", "--embeddings", str(emb)]
    err = cli_run(args, code=2).err
    assert err.startswith(f"error: cannot read {emb}: ") and len(err.strip().splitlines()) == 1


def test_kmeans_nan_check_survives_optimize_flag():
    # With k=1 no k-means++ draw sees the NaN, so only the WCSS check can;
    # under -O an assert would let the NaN through as a cluster assignment.
    code = (
        "from tabforge.data import DataError\n"
        "from tabforge.split import kmeans\n"
        "try:\n"
        "    kmeans([[0.0, 1.0], [float('nan'), 2.0]], k=1, seed=0)\n"
        "except DataError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(tabforge.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert "at iteration 0" in out.stdout


def test_split_spec_validation():
    with pytest.raises(DataError):
        spec((0.5, 0.5, 0.1), 0)
    with pytest.raises(DataError):
        spec((1.0, 0.0, 0.0), 0)
    with pytest.raises(DataError):
        spec((0.5, 0.25, 0.25), 0, "--split.mode=domain", "--split.k=0")
