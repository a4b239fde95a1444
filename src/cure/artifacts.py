"""The files the pipeline stages hand each other, each writer next to its reader.

corpus.jsonl (read by corpus.parse_corpus), paths.jsonl, vectors.jsonl,
cluster assignments, centroids, labels, gold, scores.csv, loss_log.csv and
the pipeline's manifest.json (README "File formats"). Every writer streams
its file one encoded line at a time through errors.write_atomic, so that
it holds about one record's text in memory besides its input. Every JSON Lines file is read through
corpus.read_jsonl, so an error names `<file>:<line>`, and a reader refuses
a file that lists one pair, or one cluster, twice. `cure pipeline` reads
none of the files its stages write: each stage hands its value to the next
one, and file_sha256 hashes the files, in fixed-size chunks, only for the
manifest. No writer hashes what it writes.
"""

from __future__ import annotations

import hashlib
import json
import reprlib
from collections import Counter
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .corpus import (
    RECORD_ERRORS, ParsedSentence, integer, number, parse_line, read_jsonl, sentence_to_record, string, string_array,
)
from .errors import NumericError, ValidationError, write_atomic
from .metrics import RelationScore
from .paths import SspTriple

Pair = tuple[str, str]
# json.dumps with allow_nan=False, without building an encoder per call: JSON has no NaN or Infinity.
_to_json = json.JSONEncoder(allow_nan=False).encode
_HASH_CHUNK = 1 << 16  # bytes read at a time to hash a file


def file_sha256(path: str | Path) -> bytes:
    """The sha256 digest of the file's bytes, read in fixed-size chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.digest()


def _write(path: str | Path, lines: Iterable[str]) -> None:
    """Replace path with the lines, encoded as UTF-8 one at a time."""
    write_atomic(path, (line.encode("utf-8") for line in lines))


def _write_jsonl(path: str | Path, records: Iterable[dict]) -> None:
    """One JSON line per record. A NaN or infinity, which JSON cannot hold,
    is a NumericError naming the file, and the file is left as it was."""
    def lines() -> Iterator[str]:
        for record in records:
            try:
                yield _to_json(record) + "\n"
            except ValueError as exc:
                raise NumericError(f"{path}: cannot write a non-finite value ({exc})") from exc

    _write(path, lines())


def _pair(rec: dict) -> Pair:
    pair = rec["pair"]
    if isinstance(pair, list) and len(pair) == 2:
        first, second = pair
        if isinstance(first, str) and isinstance(second, str):
            return first, second
    raise ValueError(f"pair must be an array of two strings, got {reprlib.repr(pair)}")


def _unique(path: str | Path, what: str, records: Iterable[tuple], hint: str = "") -> dict:
    """The (key, value) records as a dict in file order; a key (a pair, a
    cluster) listed twice is refused."""
    found: dict = {}
    for key, value in records:
        if key in found:
            shown = list(key) if isinstance(key, tuple) else key
            raise ValidationError(f"{path}: {what} {reprlib.repr(shown)} is listed twice{hint}")
        found[key] = value
    return found


# -- corpus.jsonl: one record per (sentence, entity pair) ---------------------------
def write_corpus(path: str | Path, sentences: Iterable[ParsedSentence]) -> None:
    _write_jsonl(path, map(sentence_to_record, sentences))


# -- paths.jsonl: one record per (pair, shortest path) instance ----------------------
def write_paths(path: str | Path, instances: Sequence[tuple[Pair, SspTriple]]) -> None:
    rows = ({"pair": list(p), "words": list(t.words), "deps": list(t.deps), "poss": list(t.poss)} for p, t in instances)
    _write_jsonl(path, rows)


def _path_instance(rec: dict) -> tuple[Pair, SspTriple]:
    pair = _pair(rec)
    path = SspTriple(string_array(rec, "words"), string_array(rec, "deps"), string_array(rec, "poss"))
    if not len(path.words) == len(path.deps) == len(path.poss):
        raise ValidationError("path sequences must have equal length")
    if not path.words:
        raise ValidationError("path must contain at least one token")
    return pair, path


def read_path_instances(path: str | Path) -> list[tuple[Pair, SspTriple]]:
    return read_jsonl(path, "path instance", _path_instance)


# -- vectors.jsonl: {"pair": [s, o], "vector": [...]} per pair -----------------------
# write_vectors puts the vector last, after VECTOR_KEY; read_vectors splits a line there.
VECTOR_KEY = ', "vector": '
_JSON_SPACE = " \t\n\r"  # the whitespace JSON allows; str.strip() strips more


def write_vectors(path: str | Path, vectors: Mapping[Pair, np.ndarray]) -> None:
    """One line per pair, each equal to json.dumps of {"pair": ...,
    "vector": ...}. A vector object that several pairs share is formatted
    once, and its text is kept only until its last pair (the mapping holds
    it, so its id is not reused while this runs)."""
    left = Counter(map(id, vectors.values()))  # pairs still to write, per vector object
    texts: dict[int, str] = {}  # a vector object's text, while a later record shares the object

    def lines() -> Iterator[str]:
        for pair, vector in vectors.items():
            key = id(vector)
            text = texts.pop(key, None) or _to_json(vector.tolist())
            left[key] -= 1
            if left[key]:
                texts[key] = text
            yield f'{{"pair": {json.dumps(list(pair))}{VECTOR_KEY}{text}}}\n'

    _write(path, lines())


def _finite_vector(values) -> np.ndarray:
    vector = np.array(values, dtype=np.float64)
    if vector.ndim != 1:
        raise ValueError(f"vector must be an array of numbers, got shape {vector.shape}")
    if vector.size == 0:
        raise ValueError("vector is empty")
    if not np.isfinite(vector).all():
        raise ValueError("vector holds a non-finite value")
    return vector


def _vector_record(rec: dict) -> tuple[Pair, np.ndarray]:
    return _pair(rec), _finite_vector(rec["vector"])


def _split_vector_line(line: str, memo: dict[str, np.ndarray]) -> tuple[Pair, np.ndarray] | None:
    """The record of a line in the split form (see read_vectors), its vector
    taken from memo or parsed, checked and added to it; None for any other
    line, and for one whose pair or vector is malformed."""
    head, key, tail = line.rstrip(_JSON_SPACE).rpartition(VECTOR_KEY)
    if not (key and tail.endswith("}")):
        return None
    text = tail[:-1]
    try:
        pair = _pair(json.loads(head + "}"))
        vector = memo.get(text)
        if vector is None:
            vector = _finite_vector(json.loads(text))
            vector.flags.writeable = False
            memo[text] = vector
        return pair, vector
    except (*RECORD_ERRORS, RecursionError):
        return None  # not the split form after all, or malformed: parse_line decides


def read_vectors(path: str | Path) -> dict[Pair, np.ndarray]:
    """Pair -> vector, in file order, each distinct vector text parsed and
    checked once, all vectors of one length.

    A line that, after its trailing whitespace, is H + VECTOR_KEY + V + '}',
    where H + '}' parses to an object holding "pair" and V parses on its own,
    is by the JSON grammar the object {**loads(H + '}'), "vector": loads(V)}
    (the last of duplicate keys wins in both). write_vectors writes every
    line so. Such a line takes its pair from H and its vector from a memo
    keyed by V, which lasts for this read; the vectors in it are shared by
    every pair that has them, so they are read-only. Every other line, and
    one whose pair or vector is malformed, goes through parse_line, which
    gives every error its text.
    """
    memo: dict[str, np.ndarray] = {}
    size = None

    def read_line(line: str, where: str, what: str, parse) -> tuple[Pair, np.ndarray]:
        nonlocal size
        pair, vector = _split_vector_line(line, memo) or parse_line(line, where, what, parse)
        if size is None:
            size = vector.size
        elif vector.size != size:
            raise ValidationError(f"{where}: vector has {vector.size} values, the file's first has {size}")
        return pair, vector

    return _unique(path, "pair", read_jsonl(path, "relation vector", _vector_record, read_line))


# -- cluster assignments and centroids -----------------------------------------------
def write_clusters(path: str | Path, assignments: Mapping[Pair, int]) -> None:
    _write_jsonl(path, ({"cluster": cluster, "pair": list(pair)} for pair, cluster in assignments.items()))


def read_clusters(path: str | Path) -> dict[Pair, int]:
    """Pair -> cluster id, in file order."""
    records = read_jsonl(path, "cluster assignment", lambda rec: (_pair(rec), integer(rec["cluster"], "cluster")))
    return _unique(path, "pair", records)


def write_centroids(path: str | Path, centroids: Mapping[int, np.ndarray]) -> None:
    _write_jsonl(path, ({"cluster": c, "centroid": [float(v) for v in centroid]} for c, centroid in centroids.items()))


# -- labels: {"cluster": 0, "labels": [["word", score], ...]} per cluster -------------
def write_labels(path: str | Path, labels: Mapping[int, Sequence[tuple[str, float]]]) -> None:
    _write_jsonl(path, ({"cluster": c, "labels": [[w, float(s)] for w, s in top]} for c, top in labels.items()))


def _label_record(rec: dict) -> tuple[int, tuple[tuple[str, float], ...]]:
    candidates = tuple((string(w, "label word"), number(s, "label score")) for w, s in rec["labels"])
    return integer(rec["cluster"], "cluster"), candidates


def read_labels(path: str | Path) -> dict[int, tuple[tuple[str, float], ...]]:
    """Cluster id -> its ranked label candidates, in file order."""
    return _unique(path, "cluster", read_jsonl(path, "cluster label", _label_record))


# -- gold: {"pair": [s, o], "relations": ["name", ...]} per pair ---------------------
def write_gold(path: str | Path, gold: Mapping[Pair, Sequence[str]]) -> None:
    _write_jsonl(path, ({"pair": list(pair), "relations": list(relations)} for pair, relations in gold.items()))


def _gold_record(rec: dict) -> tuple[Pair, tuple[str, ...]]:
    relations = tuple(sorted(string_array(rec, "relations")))
    if not relations:
        raise ValidationError("relations is empty: a gold pair has at least one relation")
    for first, second in zip(relations, relations[1:]):
        if first == second:
            raise ValidationError(f"relation {reprlib.repr(first)} is listed twice")
    return _pair(rec), relations


def read_gold(path: str | Path) -> dict[Pair, tuple[str, ...]]:
    """Pair -> its gold relation names, sorted, so that a pair's rand-index
    class is its set of relations; the pairs in file order. A file without
    records is refused."""
    records = read_jsonl(path, "gold relation", _gold_record)
    if not records:
        raise ValidationError(f"{path}: no gold records")
    return _unique(path, "pair", records, "; one record lists all of a pair's relations")


# -- CSV: scores and the per-epoch training loss -------------------------------------
def write_scores(path: str | Path, scores: Sequence[RelationScore], rand_index: float) -> None:
    rows = (f"{s.relation},{s.recall!r},{s.precision!r},{s.f1!r}\n" for s in scores)
    _write(path, chain(["relation,recall,precision,f1\n"], rows, [f"rand_index,{rand_index!r}\n"]))


def write_loss_log(path: str | Path, losses: Sequence[float]) -> None:
    rows = (f"{epoch},{loss!r}\n" for epoch, loss in enumerate(losses, start=1))
    _write(path, chain(["epoch,loss\n"], rows))


# -- manifest.json: the seed, and each stage's output hashes and timings -------------
def write_manifest(path: str | Path, manifest: dict) -> None:
    _write(path, [json.dumps(manifest, indent=2, allow_nan=False) + "\n"])
