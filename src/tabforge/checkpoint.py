"""Binary checkpoint container.

Layout: magic, header length, JSON header (version, kind, config, tensor
directory with shapes/offsets, auxiliary state like fitted transforms or
tokenizer merges, provenance), then a payload of little-endian float32
arrays, then a sha256 over everything before it.  Loads verify the
checksum, the format version, the header's layout, that every declared
tensor fits the payload, and that every value is finite.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from tabforge.data import DataError, read_file, write_file

MAGIC = b"TFCK"
FORMAT_VERSION = 1


class CheckpointError(DataError):
    pass


# The header layout `serialize_checkpoint` writes, as the JSON type of each
# field past the format version.  A dict lays out the keys an object must
# have, or with the key `str` every value of an object; a list of one
# layout lays out every item of a list, and a list of several each item of
# a list that long.  _COUNT is an integer >= 0.
_COUNT = "an integer >= 0"
_HEADER = {
    "kind": str,
    "config": {"model": dict},
    "tensors": [{"name": str, "shape": [_COUNT], "offset": _COUNT, "nbytes": _COUNT}],
    "segments": {str: [[str, _COUNT]]},
    "aux": dict,
    "provenance": dict,
}
_JSON_NAMES = {str: "a string", dict: "a JSON object", list: "a JSON list"}


def _check_layout(value, layout, where: str) -> None:
    """Raise a CheckpointError naming the first field of `value`, found at
    `where`, that is missing or departs from `layout`."""
    if layout is _COUNT:
        if type(value) is not int or value < 0:
            raise CheckpointError(f"{where} is not {_COUNT}")
        return
    kind = layout if type(layout) is type else type(layout)
    if type(value) is not kind:
        raise CheckpointError(f"{where} is not {_JSON_NAMES[kind]}")
    if type(layout) is list:
        items = layout * len(value) if len(layout) == 1 else layout
        if len(items) != len(value):
            raise CheckpointError(f"{where} does not hold {len(layout)} items")
        for i, (item, item_layout) in enumerate(zip(value, items)):
            _check_layout(item, item_layout, f"{where}[{i}]")
    elif type(layout) is dict:
        for key, key_layout in layout.items():
            if key is str:
                for name, item in value.items():
                    _check_layout(item, key_layout, f"{where}.{name}")
            elif key not in value:
                raise CheckpointError(f"{where}.{key} is missing")
            else:
                _check_layout(value[key], key_layout, f"{where}.{key}")


@dataclass
class ModelCheckpoint:
    kind: str  # ctgan | tvae | stvae | stvaem | great
    config: dict
    tensors: dict[str, np.ndarray]
    segments: dict[str, list] = field(default_factory=dict)
    aux: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)


def serialize_checkpoint(ckpt: ModelCheckpoint) -> bytes:
    directory = []
    payload = bytearray()
    for name in sorted(ckpt.tensors):
        arr = np.ascontiguousarray(ckpt.tensors[name], dtype="<f4")
        directory.append(
            {
                "name": name,
                "shape": list(arr.shape),
                "offset": len(payload),
                "nbytes": arr.nbytes,
            }
        )
        payload.extend(arr.tobytes())
    header = {
        "format_version": FORMAT_VERSION,
        "kind": ckpt.kind,
        "config": ckpt.config,
        "tensors": directory,
        "segments": ckpt.segments,
        "aux": ckpt.aux,
        "provenance": ckpt.provenance,
    }
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = MAGIC + len(header_bytes).to_bytes(8, "little") + header_bytes + bytes(payload)
    return body + hashlib.sha256(body).digest()


def save_checkpoint(ckpt: ModelCheckpoint, path) -> None:
    write_file(path, serialize_checkpoint(ckpt))


@contextlib.contextmanager
def naming(path):
    """A CheckpointError raised inside, as one that names the file at `path`."""
    try:
        yield
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None


def load_checkpoint(path) -> ModelCheckpoint:
    """The checkpoint at `path`; every error names the file."""
    with naming(path):
        return load_checkpoint_bytes(read_file(path))


def load_checkpoint_bytes(blob: bytes) -> ModelCheckpoint:
    if len(blob) < len(MAGIC) + 8 + 32 or blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError("not a checkpoint file")
    body, digest = blob[:-32], blob[-32:]
    if hashlib.sha256(body).digest() != digest:
        raise CheckpointError("checksum mismatch: corrupted checkpoint")
    header_len = int.from_bytes(body[len(MAGIC) : len(MAGIC) + 8], "little")
    header_start = len(MAGIC) + 8
    if header_start + header_len > len(body):
        raise CheckpointError("truncated header")
    try:
        header = json.loads(body[header_start : header_start + header_len].decode("utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"header is not JSON: {exc}") from None
    if not isinstance(header, dict):
        raise CheckpointError("header is not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {header.get('format_version')}")
    _check_layout(header, _HEADER, "header")
    payload = body[header_start + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        end = entry["offset"] + entry["nbytes"]
        if entry["nbytes"] != math.prod(entry["shape"]) * 4 or end > len(payload):
            raise CheckpointError(f"tensor {entry['name']!r} does not fit the payload (truncated?)")
        arr = np.frombuffer(payload[entry["offset"] : end], dtype="<f4").reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {entry['name']!r} holds non-finite values")
        tensors[entry["name"]] = arr.copy()
    return ModelCheckpoint(
        kind=header["kind"],
        config=header["config"],
        tensors=tensors,
        segments={k: [tuple(s) for s in v] for k, v in header["segments"].items()},
        aux=header["aux"],
        provenance=header["provenance"],
    )
