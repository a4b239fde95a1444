"""Cluster labeling: pick relation words for a cluster of entity pairs.

Candidates are the non-stopword, non-endpoint words on the member pairs'
paths, with multiplicity. Two selectors are provided: word-vector-similarity
scoring (count- and distinctiveness-weighted vector sum, candidates scored
by cosine against it) and the common-words baseline (rank by count).
"""

from __future__ import annotations

from collections import Counter
from importlib import resources
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .cluster import scaled
from .errors import ValidationError, reading


def load_stopwords(path: str | Path | None = None) -> frozenset[str]:
    """Stopword list, one word per line; the packaged default if no path given."""
    if path is None:
        text = resources.files("cure").joinpath("data/stopwords.txt").read_text(encoding="utf-8")
    else:
        with reading(path, "stopwords") as fh:
            text = fh.read()
    return frozenset(w.strip().lower() for w in text.splitlines() if w.strip() and not w.startswith("#"))


def cosine(u: np.ndarray, v: np.ndarray) -> float:
    """Cosine similarity, scale-free: each vector is first scaled by a power
    of two, which is exact, so the dot product and the norms cannot overflow
    on large finite values."""
    u, v = scaled(u)[0], scaled(v)[0]
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(u @ v) / (nu * nv)


def candidate_set(word_paths: Sequence[Sequence[str]], stopwords: frozenset[str]) -> Counter:
    """Relation-word candidates of a cluster: interior path words (both
    entity endpoints dropped) that are not stopwords, with multiplicity."""
    counts: Counter = Counter()
    for words in word_paths:
        for w in words[1:-1]:
            if w.lower() not in stopwords:
                counts[w] += 1
    if not counts:
        raise ValidationError("empty candidate set: every path word was an endpoint or stopword")
    return counts


def wvs_label(candidates: Mapping[str, int], vectors: Mapping[str, np.ndarray]) -> tuple[tuple[str, float], ...]:
    """Candidates as ranked (word, score) pairs, by cosine against a weighted
    vector sum; the first word is the label.

    Each distinct word's raw weight is its count times the summed cosine
    distance (1 - cos) to the other distinct words, so frequent words that
    are unlike the rest dominate. Raw weights are min-max normalized before
    the sum; words without a pretrained vector are skipped.
    """
    words = sorted(w for w in candidates if w in vectors)
    if not words:
        raise ValidationError("no candidate word has a pretrained vector")
    if len(words) == 1:
        return ((words[0], 1.0),)

    # All scaled by one power of two, which is exact and which no cosine sees,
    # so that the weighted sum cannot overflow.
    vecs = dict(zip(words, scaled(np.array([vectors[w] for w in words]))[0]))
    raw = {}
    for w in words:
        distinct = sum(1.0 - cosine(vecs[w], vecs[other]) for other in words if other != w)
        raw[w] = candidates[w] * distinct
    lo, hi = min(raw.values()), max(raw.values())
    if hi == lo:
        weights = {w: 1.0 for w in words}
    else:
        weights = {w: (raw[w] - lo) / (hi - lo) for w in words}

    summed = np.zeros_like(vecs[words[0]])
    for w in words:
        summed = summed + weights[w] * vecs[w]

    return tuple(sorted(((w, cosine(vecs[w], summed)) for w in words), key=lambda ws: (-ws[1], ws[0])))


def cw_label(candidates: Mapping[str, int]) -> tuple[tuple[str, float], ...]:
    """Common-words baseline: (word, count) pairs by count descending, ties lexicographic."""
    ranked = sorted(candidates.items(), key=lambda wc: (-wc[1], wc[0]))
    return tuple((w, float(c)) for w, c in ranked)


def match_to_gold(
    label: Sequence[tuple[str, float]],
    gold_relations: Sequence[tuple[str, np.ndarray]],
    vectors: Mapping[str, np.ndarray],
) -> str:
    """The gold relation whose name vector is most cosine-similar to the
    label's first word; words without a vector fall through to the next.

    Ties break lexicographically on the relation name.
    """
    if not gold_relations:
        raise ValidationError("no gold relations given")
    ordered_gold = sorted(gold_relations, key=lambda nv: nv[0])
    for word, _score in label:
        word_vec = vectors.get(word)
        if word_vec is None:
            continue
        best_name, best_sim = None, -np.inf
        for name, gold_vec in ordered_gold:
            sim = cosine(word_vec, gold_vec)
            if sim > best_sim:
                best_name, best_sim = name, sim
        assert best_name is not None
        return best_name
    raise ValidationError("no label candidate has a pretrained vector")
