"""Shortest paths between entity pairs on dependency trees.

Each instance yields three parallel sequences over the tokens on the path
from the subject's representative token to the object's: the words, the
dependency tags, and the POS tags. Instances are grouped per ordered
entity pair for training and inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .corpus import EntitySpan, ParsedSentence, pair_key

# Tag categories used to pick a representative token out of a multi-token
# entity span, in preference order. "compound" is deliberately absent.
SUBJECT_DEPS = frozenset({"nsubj", "nsubjpass", "csubj"})
OBJECT_DEPS = frozenset({"dobj", "pobj", "iobj", "obj"})
MODIFIER_DEPS = frozenset({"amod", "nmod", "appos", "poss"})


@dataclass(frozen=True)
class SspTriple:
    """Parallel, equally long word / dependency-tag / POS-tag sequences of one path."""

    words: tuple[str, ...]
    deps: tuple[str, ...]
    poss: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class PairGroup:
    """All path instances of one ordered (subject, object) entity pair."""

    pair: tuple[str, str]
    paths: tuple[SspTriple, ...]


def representative_token(sentence: ParsedSentence, span: EntitySpan) -> int:
    """Pick the token that stands for a (possibly compound) entity span.

    Preference: a subject-tagged token, then object-tagged, then
    modifier-tagged. Otherwise fall back to a token whose head lies outside
    the span (the span's own syntactic head); the last one if several.
    """
    indices = range(span.start, span.end)
    for tags in (SUBJECT_DEPS, OBJECT_DEPS, MODIFIER_DEPS):
        for i in indices:
            if sentence.tokens[i].dep in tags:
                return i
    external = [i for i in indices if not span.start <= sentence.tokens[i].head < span.end]
    return external[-1]


def _chain_to_root(sentence: ParsedSentence, start: int) -> list[int]:
    chain = [start]
    while sentence.tokens[chain[-1]].head != -1:
        chain.append(sentence.tokens[chain[-1]].head)
    return chain


def shortest_path(sentence: ParsedSentence) -> SspTriple:
    """The unique tree path from the subject representative to the object's: two
    or more tokens, as each lies in its own span and the corpus reader keeps spans apart."""
    src = representative_token(sentence, sentence.subject)
    dst = representative_token(sentence, sentence.object)
    up_src = _chain_to_root(sentence, src)
    up_dst = _chain_to_root(sentence, dst)
    on_src_side = {idx: depth for depth, idx in enumerate(up_src)}
    # Both chains end at the one root, so they meet.
    depth, meet = next((depth, idx) for depth, idx in enumerate(up_dst) if idx in on_src_side)
    indices = up_src[: on_src_side[meet]] + [meet] + up_dst[:depth][::-1]

    words, poss, deps, _ = zip(*(sentence.tokens[i] for i in indices))  # a Token is (text, pos, dep, head)
    return SspTriple(words=words, deps=deps, poss=poss)


def group_pairs(instances: Iterable[tuple[tuple[str, str], SspTriple]], min_paths: int) -> list[PairGroup]:
    """Group path instances by ordered pair key, dropping pairs with fewer
    than min_paths instances. Output is deterministic: groups sorted by key,
    paths within a group sorted by content (duplicates kept)."""
    buckets: dict[tuple[str, str], list[SspTriple]] = {}
    for pair, path in instances:
        buckets.setdefault(pair, []).append(path)
    groups = []
    for pair in sorted(buckets):
        paths = buckets[pair]
        if len(paths) >= min_paths:
            paths.sort(key=lambda p: (p.words, p.deps, p.poss))
            groups.append(PairGroup(pair=pair, paths=tuple(paths)))
    return groups


def extract_instances(sentences: Sequence[ParsedSentence]) -> list[tuple[tuple[str, str], SspTriple]]:
    """Shortest-path extraction over a corpus, in corpus order."""
    return [(pair_key(s), shortest_path(s)) for s in sentences]
