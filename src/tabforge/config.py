"""Run configuration: defaults, JSON config files, dotted-path overrides.

Precedence is default < file < flag.  Flags arrive as `--section.key=value`
tokens; values parse as JSON when possible (numbers, booleans, lists) and
fall back to bare strings.

`DEFAULTS` is the only table of defaults: the config dataclasses declare
none, so every setting a run uses is a key here, whether the run comes from
the CLI, the library or the tests.  A setting is either a key here or a
command-line option, never both: the method a command trains and the
benchmark's worker count are options, and no option names a key.

This module imports no other tabforge module.  Each config dataclass is
built from the loaded dict next to its definition: `cleaning.cleaning_config`,
`split.split_spec` and `training.train_config`.
"""

from __future__ import annotations

import copy
import hashlib
import json


class ConfigError(Exception):
    pass


DEFAULTS: dict = {
    "seed": 0,
    "split": {"ratios": [0.8, 0.1, 0.1], "mode": "random", "k": 10, "embedding_dim": 64},
    "cleaning": {
        "category_uniqueness_max": 0.90,
        "min_avg_category_freq": 0.03,
        "max_null_fraction": 0.50,
        "max_rejected_column_fraction": 0.90,
        "min_columns": 2,
        "min_rows": 10,
    },
    "transform": {"gmm_modes": 10},
    "model": {
        "net_size": "small",
        "z_dim": 128,
        "pac": 10,
        "batch": 500,
        "lambda_gp": 10.0,
        "tau": 0.2,
        "latent": 64,
        "sig_dim": 16,
        "recon_weight": 2.0,
        "lr_gan": 2e-4,
        "lr_vae": 1e-3,
        "great": {
            "d_model": 128,
            "n_heads": 4,
            "n_layers": 4,
            "ctx": 256,
            "vocab_size": 2048,
            "lr": 3e-4,
            "batch": 32,
            "temperature": 0.7,
            "max_retries": 8,
        },
    },
    "training": {
        "iterations": 10,
        "epochs": 50,
        "wall_clock_budget": None,
        "patience": 30,
        "min_delta": 1e-4,
        "ckpt_every": 50,
        "val_fraction": 0.1,
    },
}


def _parse_value(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def _fits(value, default) -> bool:
    """Whether `value` has the type of the key's default.  Any number fits a
    float default or a None one (an optional number); each element of a list
    must fit the default's first element."""
    if isinstance(value, bool) or isinstance(default, bool):
        return type(value) is type(default)
    if default is None:
        return value is None or isinstance(value, (int, float))
    if isinstance(default, float):
        return isinstance(value, (int, float))
    if isinstance(default, list):
        return isinstance(value, list) and all(_fits(v, default[0]) for v in value)
    return isinstance(value, type(default))


def apply_override(cfg: dict, dotted: str, value) -> None:
    """Set the key at `dotted` to `value`; a dict value sets its keys one by
    one.  The key must have a default, and the value must fit its type."""
    if isinstance(value, dict):
        for k, v in value.items():
            apply_override(cfg, f"{dotted}.{k}", v)
        return
    *path, key = dotted.split(".")
    node, defaults = cfg, DEFAULTS
    for k in path:
        if not isinstance(defaults.get(k), dict):
            raise ConfigError(f"unknown config section {dotted!r}")
        node, defaults = node[k], defaults[k]
    if key not in defaults:
        raise ConfigError(f"unknown config key {dotted!r}")
    if not _fits(value, defaults[key]):
        raise ConfigError(
            f"config key {dotted!r} takes a value like {json.dumps(defaults[key])}, got {json.dumps(value)}"
        )
    node[key] = value


def load_config(path=None, overrides: list[str] = ()) -> dict:
    cfg = copy.deepcopy(DEFAULTS)
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError) as exc:  # unreadable, not UTF-8, or not JSON
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in doc.items():
            apply_override(cfg, key, value)
    for token in overrides:
        if not token.startswith("--") or "=" not in token:
            raise ConfigError(f"overrides look like --section.key=value, got {token!r}")
        dotted, value = token[2:].split("=", 1)
        apply_override(cfg, dotted, _parse_value(value))
    return cfg


def config_hash(cfg: dict) -> str:
    canon = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]
