"""The benchmark's workloads.

Each workload runs the same CLI grid (clean, split, one pretrain per method,
benchmark, report) on a corpus generated from the run's seed, with flags
sized so one pipeline takes about ten seconds on two cores.  The three stress
different layers; README.md in this directory records why each was chosen.
Metric names and units live in BENCHMARK.json at the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass

from corpus import CorpusShape


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: CorpusShape
    split_ratios: str
    methods: tuple[str, ...]
    flags: tuple[str, ...]
    active: frozenset[str]  # per-layer metrics that must record calls here


_EVERY_GRID = frozenset({
    "cli.clean_s", "cli.split_s", "cli.report_s",
    "data.ingest_s", "data.ingest_calls",
    "cleaning.clean_table_s", "split.split_s",
    "nn.backward_s", "nn.backward_calls", "nn.adam_s",
    "training.self_s", "training.epochs",
    "metrics.table_report_s", "metrics.table_report_calls",
    "checkpoint.save_s", "checkpoint.load_s", "checkpoint.bytes",
})
_TRANSFORM = frozenset({
    "transform.fit_s", "transform.fit_calls", "transform.fit_distinct_ratio",
    "transform.encode_s", "transform.decode_s", "nn.forward_s", "models.sample_s",
})

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-vae",
            corpus=CorpusShape("mixed", tables=5, rows=150, numeric=2, categorical=3),
            split_ratios="[0.4,0.2,0.4]",
            methods=("stvae", "tvae"),
            flags=("--training.epochs=5", "--training.iterations=2"),
            active=_EVERY_GRID | _TRANSFORM | {"models.vae_batch_self_s"},
        ),
        Workload(
            name="grid-ctgan",
            corpus=CorpusShape("mixed", tables=5, rows=1000, numeric=4, categorical=3),
            split_ratios="[0.4,0.2,0.4]",
            methods=("ctgan",),
            flags=(
                "--transform.gmm_modes=2",
                "--model.pac=10",
                "--model.batch=250",
                "--training.epochs=20",
                "--training.ckpt_every=10",
                "--training.iterations=6",
            ),
            active=_EVERY_GRID | _TRANSFORM | {"models.ctgan_batch_self_s", "models.gp_s"},
        ),
        Workload(
            name="grid-great",
            corpus=CorpusShape("text", tables=5, rows=40),
            split_ratios="[0.4,0.2,0.4]",
            methods=("great",),
            flags=(
                "--model.great.d_model=32",
                "--model.great.n_layers=2",
                "--model.great.ctx=24",
                "--model.great.max_retries=1",
                "--model.great.lr=0.005",
                "--model.great.batch=8",
                "--model.great.vocab_size=262",
                "--training.epochs=20",
                "--training.iterations=3",
            ),
            active=_EVERY_GRID | {
                "great.bpe_s", "great.train_step_s", "great.generate_s",
                "great.decode_steps", "great.tokens_per_s", "great.validity",
                "great.parse_attempted", "great.parse_ok",
            },
        ),
    )
}
