"""Byte-level byte-pair encoding.

Token id layout: PAD=0, BOS=1, EOS=2, raw bytes at 3..258, merged tokens
from 259 up.  Specials never participate in merges, and byte-level coverage
makes decode(encode(s)) exact for arbitrary byte strings.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from tabforge.data import DataError


class BpeError(DataError):
    pass


PAD, BOS, EOS = 0, 1, 2
N_SPECIALS = 3
BYTE_BASE = N_SPECIALS  # byte b encodes as id b + BYTE_BASE
MIN_VOCAB = 256 + N_SPECIALS


@dataclass
class Vocab:
    merges: list[tuple[int, int]]  # rank order; new id = MIN_VOCAB + rank
    _ranks: dict[tuple[int, int], int] = field(init=False, repr=False)
    _token_bytes: dict[int, bytes] = field(init=False, repr=False)

    def __post_init__(self):
        self._ranks = {pair: r for r, pair in enumerate(self.merges)}
        if len(self._ranks) != len(self.merges):
            raise BpeError("duplicate merge pairs")
        self._token_bytes = {b + BYTE_BASE: bytes([b]) for b in range(256)}
        for rank, (a, b) in enumerate(self.merges):
            new_id = MIN_VOCAB + rank
            if a not in self._token_bytes or b not in self._token_bytes:
                raise BpeError(f"merge {rank} references unknown token ({a}, {b})")
            self._token_bytes[new_id] = self._token_bytes[a] + self._token_bytes[b]

    @property
    def size(self) -> int:
        return MIN_VOCAB + len(self.merges)

    def encode_bytes(self, data: bytes) -> list[int]:
        ids = [b + BYTE_BASE for b in data]
        while len(ids) >= 2:
            best_rank = None
            best_pair = None
            for pair in zip(ids, ids[1:]):
                rank = self._ranks.get(pair)
                if rank is not None and (best_rank is None or rank < best_rank):
                    best_rank = rank
                    best_pair = pair
            if best_pair is None:
                break
            ids = _merge(ids, best_pair, MIN_VOCAB + best_rank)
        return ids

    def decode_bytes(self, ids: list[int]) -> bytes:
        out = []
        for i in ids:
            if i in (PAD, BOS, EOS):
                continue
            token = self._token_bytes.get(i)
            if token is None:
                raise BpeError(f"unknown token id {i}")
            out.append(token)
        return b"".join(out)

    def encode(self, text: str) -> list[int]:
        return self.encode_bytes(text.encode("utf-8"))

    def decode(self, ids: list[int]) -> str:
        return self.decode_bytes(ids).decode("utf-8", errors="replace")

    def to_dict(self) -> dict:
        return {"merges": [list(p) for p in self.merges]}

    @classmethod
    def from_dict(cls, doc: dict) -> "Vocab":
        return cls([tuple(p) for p in doc["merges"]])


def _merge(ids: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    out = []
    i = 0
    while i < len(ids):
        if i + 1 < len(ids) and ids[i] == pair[0] and ids[i + 1] == pair[1]:
            out.append(new_id)
            i += 2
        else:
            out.append(ids[i])
            i += 1
    return out


def train_bpe(sentences: list[str], vocab_size: int) -> Vocab:
    """Greedy most-frequent-pair merging until the vocab budget is spent.

    Ties break to the lexicographically smallest (id, id) pair; training
    stops early when no adjacent pair repeats.
    """
    if not sentences:
        raise BpeError("empty corpus")
    if vocab_size < MIN_VOCAB:
        raise BpeError(f"vocab_size must be >= {MIN_VOCAB}")
    seqs = [[b + BYTE_BASE for b in s.encode("utf-8")] for s in sentences]
    merges: list[tuple[int, int]] = []
    for rank in range(vocab_size - MIN_VOCAB):
        counts: Counter = Counter()
        for seq in seqs:
            counts.update(zip(seq, seq[1:]))
        if not counts:
            break
        top = max(counts.values())
        if top < 2:
            break  # a merge seen once compresses nothing
        best = min(pair for pair, c in counts.items() if c == top)
        new_id = MIN_VOCAB + rank
        seqs = [_merge(seq, best, new_id) if best in set(zip(seq, seq[1:])) else seq for seq in seqs]
        merges.append(best)
    return Vocab(merges)
