"""Shared fixtures and independent oracles used across the test suite.

Every oracle here is written against the definition being tested, not
against the implementation: BFS for tree paths, scalar loops for the
recurrent cells, Decimal arithmetic for label scoring, from-scratch
agglomeration for clustering, and a pair double-loop for the rand index.
The entry points that only tests call (writing a corpus, encoding one
path, the loss of one held-out path) live here too, and so does the
string-level padding that `model.paths_to_ids` is checked against.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass
from decimal import Decimal, getcontext
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from cure.corpus import EntitySpan, ParsedSentence, Token, sentence_to_record
from cure.errors import ValidationError
from cure.model import ModelParams, PathIds, _path_prediction_loss, encode_blocks
from cure.paths import PAD, SspTriple


def make_reagan_sentence() -> ParsedSentence:
    """The compound-entity example sentence with its dependency parse."""
    toks = [
        ("Ronald", "PROPN", "compound", 1),
        ("Reagan", "PROPN", "nsubj", 2),
        ("served", "VERB", "ROOT", -1),
        ("as", "ADP", "prep", 2),
        ("the", "DET", "det", 6),
        ("40th", "ADJ", "amod", 6),
        ("president", "NOUN", "pobj", 3),
        ("of", "ADP", "prep", 6),
        ("the", "DET", "det", 10),
        ("United", "PROPN", "compound", 10),
        ("States", "PROPN", "pobj", 7),
    ]
    return ParsedSentence(
        id="reagan",
        tokens=tuple(Token(*t) for t in toks),
        subject=EntitySpan(0, 2, "Ronald Reagan"),
        object=EntitySpan(8, 11, "the United States"),
    )


def write_corpus(path: str | Path, sentences: Iterable[ParsedSentence]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for sentence in sentences:
            fh.write(json.dumps(sentence_to_record(sentence)) + "\n")


def random_tree_sentence(rng: np.random.Generator, n_tokens: int, sent_id: str = "t") -> ParsedSentence:
    """A random valid dependency tree with two random single-token entities."""
    order = rng.permutation(n_tokens)
    heads = [0] * n_tokens
    heads[order[0]] = -1
    for pos in range(1, n_tokens):
        parent_pos = int(rng.integers(pos))
        heads[order[pos]] = int(order[parent_pos])
    deps = ["ROOT" if heads[i] == -1 else f"dep{int(rng.integers(6))}" for i in range(n_tokens)]
    tokens = tuple(
        Token(text=f"w{i}", pos=f"P{int(rng.integers(4))}", dep=deps[i], head=heads[i])
        for i in range(n_tokens)
    )
    i, j = rng.choice(n_tokens, size=2, replace=False)
    i, j = int(i), int(j)
    return ParsedSentence(
        id=sent_id,
        tokens=tokens,
        subject=EntitySpan(i, i + 1, f"w{i}"),
        object=EntitySpan(j, j + 1, f"w{j}"),
    )


def bfs_tree_path(sentence: ParsedSentence, src: int, dst: int) -> list[int]:
    """Shortest path between tokens on the undirected tree, by plain BFS."""
    n = len(sentence.tokens)
    adjacency: list[list[int]] = [[] for _ in range(n)]
    for i, tok in enumerate(sentence.tokens):
        if tok.head != -1:
            adjacency[i].append(tok.head)
            adjacency[tok.head].append(i)
    parent = {src: None}
    queue = deque([src])
    while queue:
        node = queue.popleft()
        if node == dst:
            break
        for nxt in adjacency[node]:
            if nxt not in parent:
                parent[nxt] = node
                queue.append(nxt)
    path = [dst]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path[::-1]


# ---------------------------------------------------------------------------
# Scalar recurrent-cell oracles
# ---------------------------------------------------------------------------


def _sig(v: float) -> float:
    return 1.0 / (1.0 + math.exp(-v))


def _scalar_gate(W, U, b, h, x, act) -> list[float]:
    out = []
    for r in range(len(b)):
        s = float(b[r])
        for k in range(len(h)):
            s += float(W[r][k]) * h[k]
        for k in range(len(x)):
            s += float(U[r][k]) * x[k]
        out.append(act(s))
    return out


def scalar_lstm_step(x, h, c, p: dict) -> tuple[list[float], list[float]]:
    """Element-by-element LSTM step; p maps gate names to nested lists."""
    o = _scalar_gate(p["W_o"], p["U_o"], p["b_o"], h, x, _sig)
    f = _scalar_gate(p["W_f"], p["U_f"], p["b_f"], h, x, _sig)
    i = _scalar_gate(p["W_i"], p["U_i"], p["b_i"], h, x, _sig)
    c_hat = _scalar_gate(p["W_c"], p["U_c"], p["b_c"], h, x, math.tanh)
    c_new = [f[r] * c[r] + i[r] * c_hat[r] for r in range(len(c))]
    h_new = [o[r] * math.tanh(c_new[r]) for r in range(len(c))]
    return h_new, c_new


def scalar_gru_step(x, h, p: dict) -> list[float]:
    """Element-by-element GRU step; W_* act on x, U_* on the (reset) state."""

    def gate(W, U, b, state, act):
        out = []
        for row in range(len(b)):
            s = float(b[row])
            for k in range(len(x)):
                s += float(W[row][k]) * x[k]
            for k in range(len(state)):
                s += float(U[row][k]) * state[k]
            out.append(act(s))
        return out

    z = gate(p["W_z"], p["U_z"], p["b_z"], h, _sig)
    r = gate(p["W_r"], p["U_r"], p["b_r"], h, _sig)
    reset_h = [r[k] * h[k] for k in range(len(h))]
    candidate = gate(p["W_h"], p["U_h"], p["b_h"], reset_h, math.tanh)
    return [z[k] * h[k] + (1.0 - z[k]) * candidate[k] for k in range(len(h))]


# ---------------------------------------------------------------------------
# Padding a path before vocabulary lookup (the reference for paths_to_ids)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PaddedPath:
    """A path brought to fixed length, plus its original length."""

    words: tuple[str, ...]
    deps: tuple[str, ...]
    poss: tuple[str, ...]
    true_length: int


def pad_or_truncate(path: SspTriple, n_l: int) -> PaddedPath:
    """Force a path to length n_l: pad at the end, or truncate keeping the
    first n_l-1 elements plus the final element so both endpoints survive."""
    if n_l < 2:
        raise ValidationError("n_l must be at least 2")
    k = len(path)
    if k > n_l:
        keep = list(range(n_l - 1)) + [k - 1]
        return PaddedPath(
            words=tuple(path.words[i] for i in keep),
            deps=tuple(path.deps[i] for i in keep),
            poss=tuple(path.poss[i] for i in keep),
            true_length=n_l,
        )
    fill = n_l - k
    return PaddedPath(
        words=path.words + (PAD,) * fill,
        deps=path.deps + (PAD,) * fill,
        poss=path.poss + (PAD,) * fill,
        true_length=k,
    )


# ---------------------------------------------------------------------------
# Single-path encoding and the held-out-path loss
# ---------------------------------------------------------------------------


def encode_path(params: ModelParams, path: PathIds) -> np.ndarray:
    """Fixed-size encoding of one path: all position blocks concatenated."""
    return encode_blocks(params, [path])[0].reshape(-1)


def training_loss(
    params: ModelParams, group: Sequence[PathIds], held_out: int, grads: ModelParams | None = None
) -> float:
    """Cross entropy of predicting path `held_out` from the group's other
    paths, averaged over the target's unpadded length. With grads, the loss
    gradient is added into grads."""
    if len(group) < 2:
        raise ValidationError("training needs a group with at least 2 paths")
    if not 0 <= held_out < len(group):
        raise ValidationError(f"held-out index {held_out} out of range")
    target = group[held_out]
    inputs = [p for i, p in enumerate(group) if i != held_out]
    return _path_prediction_loss(params, inputs, target, grads)


# ---------------------------------------------------------------------------
# Extended-precision label-scoring oracle
# ---------------------------------------------------------------------------


def decimal_wvs_ranking(counts: dict[str, int], vectors: dict[str, list[float]], precision: int = 50) -> list[str]:
    """Rank candidate words with Decimal arithmetic throughout."""
    getcontext().prec = precision

    def dvec(word):
        return [Decimal(repr(float(v))) for v in vectors[word]]

    def dcos(u, v):
        dot = sum(a * b for a, b in zip(u, v))
        nu = sum(a * a for a in u).sqrt()
        nv = sum(b * b for b in v).sqrt()
        return dot / (nu * nv)

    words = sorted(w for w in counts if w in vectors)
    assert words, "oracle needs at least one word with a vector"
    if len(words) == 1:
        return words

    raw = {}
    for w in words:
        total = sum(Decimal(1) - dcos(dvec(w), dvec(o)) for o in words if o != w)
        raw[w] = Decimal(counts[w]) * total
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        weights = {w: Decimal(1) for w in words}
    else:
        weights = {w: (raw[w] - lo) / (hi - lo) for w in words}

    dim = len(next(iter(vectors.values())))
    summed = [Decimal(0)] * dim
    for w in words:
        for k, v in enumerate(dvec(w)):
            summed[k] += weights[w] * v

    scored = [(w, dcos(dvec(w), summed)) for w in words]
    scored.sort(key=lambda ws: (-ws[1], ws[0]))
    return [w for w, _ in scored]


# ---------------------------------------------------------------------------
# Clustering and rand-index oracles
# ---------------------------------------------------------------------------


def brute_force_agglomeration(points: list[list[float]]) -> list[tuple[int, int]]:
    """From-scratch average-linkage agglomeration; returns the merge id pairs."""

    def dist(a: list[float], b: list[float]) -> float:
        return math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)))

    n = len(points)
    clusters: dict[int, list[int]] = {i: [i] for i in range(n)}
    merges = []
    for step in range(n - 1):
        best = None
        for a in sorted(clusters):
            for b in sorted(clusters):
                if a >= b:
                    continue
                pair_distances = [dist(points[i], points[j]) for i in clusters[a] for j in clusters[b]]
                d = math.fsum(pair_distances) / len(pair_distances)
                key = (d, a, b)
                if best is None or key < best:
                    best = key
        d, a, b = best
        merges.append((a, b))
        clusters[n + step] = sorted(clusters.pop(a) + clusters.pop(b))
    return merges


def brute_force_rand_index(predicted: dict, gold: dict) -> float:
    items = sorted(predicted)
    agree = 0
    total = 0
    for i, a in enumerate(items):
        for b in items[i + 1 :]:
            total += 1
            together_pred = predicted[a] == predicted[b]
            together_gold = gold[a] == gold[b]
            if together_pred == together_gold:
                agree += 1
    return agree / total


# ---------------------------------------------------------------------------
# Interrupted writes
# ---------------------------------------------------------------------------


class WriteFailed(Exception):
    """Raised by the writes that fail_writes_halfway puts in place."""


def fail_writes_halfway(monkeypatch) -> None:
    """Every file opened for writing writes half of the text it is given,
    then raises WriteFailed, as a full disk or a kill would leave it."""
    real_open = open

    def failing_open(file, mode="r", *args, **kwargs):
        fh = real_open(file, mode, *args, **kwargs)
        if "w" in mode:
            real_write = fh.write

            def write(text):
                real_write(text[: len(text) // 2])
                raise WriteFailed("disk full")

            fh.write = write
        return fh

    monkeypatch.setattr("builtins.open", failing_open)


# ---------------------------------------------------------------------------
# Gradient comparison
# ---------------------------------------------------------------------------


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray, floor: float = 1e-6) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def tensor_rel_error(got: np.ndarray, expected: np.ndarray) -> float:
    """Largest entry-wise difference relative to the expected tensor's largest entry."""
    scale = float(np.max(np.abs(expected)))
    diff = float(np.max(np.abs(got - expected)))
    return diff / scale if scale > 0 else diff
