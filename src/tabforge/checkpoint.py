"""Binary checkpoint container.

Layout: magic, header length, JSON header (version, kind, config, tensor
directory with shapes/offsets, auxiliary state like fitted transforms or
tokenizer merges, provenance), then a payload of little-endian float32
arrays, then a sha256 over everything before it.  Loads verify the
checksum, the format version, that every declared tensor fits the
payload, and that every value is finite.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from tabforge.data import DataError

MAGIC = b"TFCK"
FORMAT_VERSION = 1


class CheckpointError(DataError):
    pass


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
    data = serialize_checkpoint(ckpt)
    with open(path, "wb") as fh:
        fh.write(data)


def load_checkpoint(path) -> ModelCheckpoint:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    return load_checkpoint_bytes(blob)


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
    header = json.loads(body[header_start : header_start + header_len].decode("utf-8"))
    if header.get("format_version") != FORMAT_VERSION:
        raise CheckpointError(f"unsupported format version {header.get('format_version')}")
    payload = body[header_start + header_len :]
    tensors: dict[str, np.ndarray] = {}
    for entry in header["tensors"]:
        end = entry["offset"] + entry["nbytes"]
        expected = int(np.prod(entry["shape"], dtype=np.int64)) * 4 if entry["shape"] else 4
        if entry["nbytes"] != expected or end > len(payload):
            raise CheckpointError(f"tensor {entry['name']!r} does not fit the payload (truncated?)")
        arr = np.frombuffer(payload[entry["offset"] : end], dtype="<f4").reshape(entry["shape"])
        if not np.isfinite(arr).all():
            raise CheckpointError(f"tensor {entry['name']!r} holds non-finite values")
        tensors[entry["name"]] = arr.copy()
    return ModelCheckpoint(
        kind=header["kind"],
        config=header["config"],
        tensors=tensors,
        segments={k: [tuple(s) for s in v] for k, v in header.get("segments", {}).items()},
        aux=header.get("aux", {}),
        provenance=header.get("provenance", {}),
    )
