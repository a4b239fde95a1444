"""Vocabularies, and the pretrained word vectors' text format (written and read here)."""

from __future__ import annotations

import reprlib
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import ValidationError, reading, write_atomic
from .paths import SspTriple

PAD = "<PAD>"
PAD_ID = 0
UNK = "<UNK>"
UNK_ID = 1


@dataclass(frozen=True)
class Vocab:
    """Dense string-to-id map with PAD at 0 and UNK at 1; ids() is total."""

    symbols: tuple[str, ...]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.symbols[:2] != (PAD, UNK):
            raise ValidationError("vocab must start with the PAD and UNK symbols")
        object.__setattr__(self, "index", {s: i for i, s in enumerate(self.symbols)})
        if len(self.index) != len(self.symbols):
            raise ValidationError("vocab contains duplicate symbols")

    def __len__(self) -> int:
        return len(self.symbols)

    def ids(self, symbols: Iterable[str]) -> tuple[int, ...]:
        """The id of each symbol; UNK_ID for one outside the vocabulary."""
        get = self.index.get
        return tuple([get(s, UNK_ID) for s in symbols])


def _from_counts(counts: Counter, min_freq: int) -> Vocab:
    kept = [s for s, c in counts.items() if c >= min_freq and s not in (PAD, UNK)]
    kept.sort(key=lambda s: (-counts[s], s))
    return Vocab(symbols=(PAD, UNK, *kept))


def build_vocab(paths: Iterable[SspTriple], min_freq: int) -> tuple[Vocab, Vocab, Vocab]:
    """Word, dependency-tag, and POS-tag vocabularies over a path corpus.

    Words below min_freq are dropped (they resolve to UNK); tag vocabularies
    always keep everything. Symbol order is frequency-descending, then
    lexicographic, so identical corpora give identical vocabularies.
    """
    words: Counter = Counter()
    deps: Counter = Counter()
    poss: Counter = Counter()
    for path in paths:
        words.update(path.words)
        deps.update(path.deps)
        poss.update(path.poss)
    return _from_counts(words, min_freq), _from_counts(deps, 1), _from_counts(poss, 1)


def write_embeddings(path: str | Path, vectors: Mapping[str, np.ndarray]) -> None:
    """Pretrained-vector text as load_pretrained reads it: a "count dim"
    header, then "token v1 v2 ... vd" per token in sorted order, written one
    line at a time."""
    tokens = sorted(vectors)
    lines = (token + " " + " ".join(repr(float(v)) for v in vectors[token]) + "\n" for token in tokens)
    header = f"{len(tokens)} {len(vectors[tokens[0]])}\n"
    write_atomic(path, (line.encode("utf-8") for line in chain([header], lines)))


def load_pretrained(path: str | Path) -> dict[str, np.ndarray]:
    """Token -> vector, from "token v1 v2 ... vd" lines; an optional "count
    dim" header is skipped."""
    vectors: dict[str, np.ndarray] = {}
    dim: int | None = None
    with reading(path, "vector file") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if lineno == 1 and len(parts) == 2 and all(_parses(int, p) for p in parts):
                continue  # header
            token, values = parts[0], parts[1:]
            if not values:
                raise ValidationError(f"{path}:{lineno}: no vector values for token {reprlib.repr(token)}")
            try:
                vec = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                bad = next(v for v in values if not _parses(float, v))
                raise ValidationError(f"{path}:{lineno}: unparseable vector value {reprlib.repr(bad)}") from exc
            if not np.all(np.isfinite(vec)):
                raise ValidationError(f"{path}:{lineno}: non-finite vector value")
            if dim is None:
                dim = vec.shape[0]
            elif vec.shape[0] != dim:
                raise ValidationError(f"{path}:{lineno}: dimension {vec.shape[0]} != expected {dim}")
            if token in vectors:
                raise ValidationError(f"{path}:{lineno}: duplicate token {reprlib.repr(token)}")
            vectors[token] = vec
    if dim is None:
        raise ValidationError(f"{path}: no vectors found")
    return vectors


def _parses(kind: type, s: str) -> bool:
    try:
        kind(s)
    except ValueError:
        return False
    return True
