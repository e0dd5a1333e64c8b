"""Pipeline benchmark for tabforge.

    python3 perfbench/run.py --workload grid-vae --seed 1 --seconds 30 --trace 0

Run from the root of a tabforge checkout.  The run writes a corpus from
--seed, then repeats the whole CLI pipeline (clean, split, one pretrain per
method, benchmark, report) for about --seconds, at least twice.  Every stage
is a fresh interpreter started through stage.py, so no in-memory state
carries from one stage to the next, and `--workers 1` keeps the benchmark
grid in that one process.  After each pipeline the outputs are checked; the
leaderboard and benchmark checkpoints are hashed, and every pipeline of a
run must produce the same digest.

With --trace 0 every pipeline is untraced and the result holds the medians
of the end-to-end metrics.  With --trace 1 untraced and traced pipelines
alternate; the result holds the per-layer metrics of the traced ones and the
tracing overhead.  The last line of stdout is the result object; the line
before it, prefixed `perfbench-record`, holds the full record: machine facts,
settings, every pipeline's figures, digests and failures.

Exit code 2 without a result means there is no tabforge source to run.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import spans
from corpus import write_corpus
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STAGE = HERE / "stage.py"
WORK = ROOT / ".perfbench-work"
DEADLINE_S = 150  # stop starting pipelines so the run ends well within 180 s
MIN_PIPELINES = 2  # the digest check needs two pipelines to compare
REGIMES = ("finetuned", "scratch")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Checks:
    """Attempted and failed operations of one run, with what failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok


def stage_commands(w, seed: int, raw: Path, work: Path) -> list[tuple[str, list[str]]]:
    common = [f"--seed={seed}", *w.flags]
    cleaned, manifest, bench = work / "cleaned", work / "split.json", work / "bench"
    stages = [
        ("clean", ["clean", str(raw), str(cleaned), *common]),
        ("split", ["split", str(cleaned), "--out", str(manifest),
                   f"--split.ratios={w.split_ratios}", *common]),
    ]
    bench_args = ["benchmark", "--split", str(manifest), "--clean-dir", str(cleaned),
                  "--part", "test", "--out-dir", str(bench), "--workers", "1"]
    for method in w.methods:
        ckpt = work / f"{method}.pre.ckpt"
        stages.append(("pretrain", ["pretrain", "--split", str(manifest), "--clean-dir",
                                    str(cleaned), "--method", method, "--out", str(ckpt), *common]))
        bench_args += ["--method", method, "--pretrained", f"{method}={ckpt}"]
    stages.append(("benchmark", bench_args + common))
    stages.append(("report", ["report", "--bench-dir", str(bench), "--out-dir",
                              str(work / "reports"), *common]))
    return stages


def run_stage(tag: str, args: list[str], work: Path, traced: bool, deadline: float, env) -> dict:
    stats, trace = work / f"{tag}.stats.json", work / f"{tag}.trace.json"
    with open(work / f"{tag}.log", "wb") as log:
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(STAGE), repr(spawn), str(stats),
                 str(trace) if traced else "-", "--", *args],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(1.0, deadline - spawn),
            )
            code = proc.returncode
        except subprocess.TimeoutExpired:
            code = None
        end = time.monotonic()
    out = {"tag": tag, "seconds": end - spawn, "exit": code}
    if code == 0:
        out.update(json.loads(stats.read_text(encoding="utf-8")))
        if traced:
            out["trace"] = str(trace)
    return out


def read_leaderboard(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def output_digest(bench: Path) -> str:
    h = hashlib.sha256()
    for path in [bench / "leaderboard.csv", *sorted((bench / "checkpoints").glob("*.ckpt"))]:
        h.update(path.name.encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pipeline(w, seed: int, raw: Path, work: Path, traced: bool, deadline: float,
                 env, checks: Checks) -> dict:
    """One closed-loop pass over every stage, then the output checks."""
    work.mkdir(parents=True)
    stages = stage_commands(w, seed, raw, work)
    rec = {"traced": traced, "stages": []}
    t0 = time.monotonic()
    for i, (name, args) in enumerate(stages):
        st = run_stage(f"{i}-{name}", args, work, traced, deadline, env)
        st["name"] = name
        rec["stages"].append(st)
        if st["exit"] != 0:
            break
    rec["pipeline_s"] = time.monotonic() - t0
    for i, (name, _args) in enumerate(stages):
        code = rec["stages"][i]["exit"] if i < len(rec["stages"]) else "not run"
        checks.check(code == 0, f"stage {i}-{name} exit {code}")
    rec["ok"] = all(st["exit"] == 0 for st in rec["stages"]) and len(rec["stages"]) == len(stages)
    if not rec["ok"]:
        return rec

    bench = work / "bench"
    rows = {(r["method"], r["regime"]): r for r in read_leaderboard(bench / "leaderboard.csv")}
    overall: dict[str, list[float]] = {regime: [] for regime in REGIMES}
    for method in w.methods:
        for regime in REGIMES:
            row = rows.get((method, regime))
            if not checks.check(row is not None, f"leaderboard row {method}/{regime} missing"):
                rec["ok"] = False
                continue
            scores = [float(row[k]) for k in ("shape_mean", "trend_mean", "overall_mean")]
            if not checks.check(all(math.isfinite(s) and 0.0 <= s <= 1.0 for s in scores),
                                f"leaderboard row {method}/{regime} scores {scores}"):
                rec["ok"] = False
            overall[regime].append(scores[2])
    if "great" in w.methods:
        for path in sorted((bench / "reports").glob("*.great.*.json")):
            syn_rows = json.loads(path.read_text(encoding="utf-8"))["syn_rows"]
            checks.check(syn_rows > 0, f"{path.name}: great parsed {syn_rows} rows")
    rec["digest"] = output_digest(bench)
    if rec["ok"]:
        stages_run = rec["stages"]
        rec["e2e"] = {
            "pipeline_s": rec["pipeline_s"],
            "pretrain_cmd_s": sum(s["seconds"] for s in stages_run if s["name"] == "pretrain"),
            "benchmark_cmd_s": sum(s["seconds"] for s in stages_run if s["name"] == "benchmark"),
            "setup_s": sum(s["setup_s"] for s in stages_run),
            "peak_rss_mb": max(s["maxrss_kb"] for s in stages_run) / 1024.0,
            "overall_finetuned": statistics.fmean(overall["finetuned"]),
            "overall_scratch": statistics.fmean(overall["scratch"]),
        }
    return rec


def reload_and_sample(bench: Path, seed: int, checks: Checks) -> None:
    """Every benchmark checkpoint must load and decode rows in a process
    other than the stage that wrote it (here, the benchmark's own)."""
    sys.path.insert(0, str(SRC))
    from tabforge.checkpoint import load_checkpoint
    from tabforge.training import sample_from_checkpoint

    for path in sorted((bench / "checkpoints").glob("*.ckpt")):
        try:
            rows = sample_from_checkpoint(load_checkpoint(path), 8, seed).n_rows
        except Exception as exc:  # any failure to reload is a counted, reported result
            rows, detail = 0, repr(exc)
        else:
            detail = f"{rows} rows"
        checks.check(rows > 0, f"{path.name} reload and sample: {detail}")


def layer_metrics(rec: dict, names: list[str]) -> dict[str, float]:
    """The named per-layer figures of one traced pipeline.  A name ending in
    `_s` without a rule below is the self time of the span it names."""
    summary = spans.summarize([Path(s["trace"]) for s in rec["stages"]])
    self_s, total_s = Counter(summary["self_s"]), Counter(summary["total_s"])
    counts, keys = Counter(summary["counts"]), summary["fit_keys"]
    derived = {
        "models.ctgan_batch_self_s": self_s["models.ctgan_batch"],
        "models.vae_batch_self_s": self_s["models.vae_batch"],
        "training.self_s": self_s["training.pretrain"] + self_s["training.finetune"],
        "data.ingest_calls": counts["data.ingest_calls"],
        "transform.fit_calls": counts["transform.fit_calls"],
        "transform.fit_distinct_ratio": len(set(keys)) / len(keys) if keys else 0.0,
        "nn.backward_calls": counts["nn.backward_calls"],
        "great.decode_steps": counts["great.decode_steps"],
        "great.tokens_per_s": (counts["great.decode_steps"] / total_s["great.generate"]
                               if total_s["great.generate"] else 0.0),
        "great.parse_attempted": counts["great.parse_attempted"],
        "great.parse_ok": counts["great.parse_ok"],
        "great.validity": (counts["great.parse_ok"] / counts["great.parse_attempted"]
                           if counts["great.parse_attempted"] else 0.0),
        "training.epochs": counts["training.epochs"],
        "metrics.table_report_calls": counts["metrics.table_report_calls"],
        "checkpoint.bytes": counts["checkpoint.bytes"],
    }
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]
        elif name.endswith("_s"):
            out[name] = self_s[name[: -len("_s")]]
        else:
            raise KeyError(f"no rule for per-layer metric {name!r}")

    layers: Counter = Counter()
    for name, seconds in self_s.items():
        layers[name.split(".")[0]] += seconds
    layers["outside spans"] = rec["pipeline_s"] - sum(self_s.values())
    rec["layer_share"] = {k: v / rec["pipeline_s"] for k, v in layers.most_common()}
    rec["top_self_share"] = {k: v / rec["pipeline_s"] for k, v in self_s.most_common(6)}
    return out


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "blas_threads": {k: os.environ.get(k, "unset") for k in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def median_of(reps: list[dict], name: str) -> float:
    return statistics.median(r[name] for r in reps) if reps else 0.0


def measure(w, args, base: Path, spec: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # tabforge.metrics.trend_categorical sums over a set of string-keyed
    # tuples, so report and leaderboard bytes follow the string hash seed.
    # Pinning it makes the digest comparable across pipelines, runs and
    # commits; drop the pin once that sum no longer depends on set order.
    env["PYTHONHASHSEED"] = str(args.seed % 2**32)
    # Stages start from cached bytecode, as an installed package does; the
    # warm-up below writes it, and warms the file cache, before any timing.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    raw = base / "raw"
    write_corpus(w.corpus, args.seed, raw)
    subprocess.run([sys.executable, "-c", "import tabforge.cli"], env=env, check=True)

    checks = Checks()
    start = time.monotonic()
    deadline = start + DEADLINE_S
    reps: list[dict] = []
    while True:
        traced = args.trace == 1 and len(reps) % 2 == 1
        rec = run_pipeline(w, args.seed, raw, base / f"p{len(reps)}", traced, deadline, env, checks)
        reps.append(rec)
        if not rec["ok"]:
            break
        if len(reps) > 1:
            checks.check(rec["digest"] == reps[0]["digest"],
                         f"pipeline {len(reps) - 1} digest differs from pipeline 0")
        elapsed = time.monotonic() - start
        per_pipeline = elapsed / len(reps)
        if len(reps) >= MIN_PIPELINES and elapsed + per_pipeline > args.seconds:
            break
        if time.monotonic() + 1.5 * per_pipeline > deadline:
            break
    measured_s = time.monotonic() - start
    if reps[0]["ok"]:
        reload_and_sample(base / "p0" / "bench", args.seed, checks)

    good = [r for r in reps if r["ok"]]
    untraced = [r["e2e"] for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    e2e = {m["name"]: median_of(untraced, m["name"]) for m in spec["end_to_end"]}
    layers = {}
    if args.trace == 1:
        names = [m["name"] for m in spec["per_layer"] if m["name"] != "trace.overhead_frac"]
        per_rep = [layer_metrics(r, names) for r in traced]
        layers = {name: median_of(per_rep, name) for name in names}
        traced_s = median_of([r["e2e"] for r in traced], "pipeline_s")
        layers["trace.overhead_frac"] = traced_s / e2e["pipeline_s"] - 1.0 if traced and untraced else 0.0
        for name in sorted(w.active):
            checks.check(bool(traced) and all(m[name] > 0 for m in per_rep),
                         f"coverage: {name} recorded nothing on {w.name}")
    return {
        "workload": w.name,
        "seed": args.seed,
        "settings": {"seconds": args.seconds, "trace": args.trace, "workers": 1,
                     "pythonhashseed": env["PYTHONHASHSEED"],
                     "methods": list(w.methods), "flags": list(w.flags),
                     "corpus": vars(w.corpus), "split_ratios": w.split_ratios},
        "machine": machine_facts(),
        "measured_s": measured_s,
        "pipelines": [
            {k: r.get(k) for k in ("traced", "ok", "pipeline_s", "digest", "e2e",
                                   "layer_share", "top_self_share")}
            | {"stages": [{k: v for k, v in s.items() if k != "trace"} for s in r["stages"]]}
            for r in reps
        ],
        "digest": reps[0].get("digest"),
        "attempted": checks.attempted,
        "failures": checks.failures,
        "failed_frac": len(checks.failures) / checks.attempted,
        "end_to_end": e2e,
        "per_layer": layers,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "tabforge" / "cli.py").is_file():
        print(f"perfbench: no tabforge source at {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    w = WORKLOADS[args.workload]
    base = WORK / f"{w.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    try:
        record = measure(w, args, base, spec)
    finally:
        shutil.rmtree(base, ignore_errors=True)

    for i, p in enumerate(record["pipelines"]):
        stages = " ".join(f"{s['name']}={s['seconds']:.2f}" for s in p["stages"])
        print(f"pipeline {i} {'traced' if p['traced'] else 'untraced'}: "
              f"{p['pipeline_s']:.2f} s ({stages}) digest {str(p['digest'])[:16]}")
    for what in record["failures"]:
        print(f"FAILED: {what}")
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    kind, values = ("per_layer", record["per_layer"]) if args.trace else ("end_to_end", record["end_to_end"])
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec[kind]}
    print(json.dumps({
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
