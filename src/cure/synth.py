"""Synthetic corpus with planted relations, for end-to-end verification.

Four built-in relations, each with three hand-parsed sentence templates
whose entity-to-entity path always carries the relation's trigger word.
The generator also emits a gold file mapping every pair to its relation
and a small constructed embedding file in which trigger words of different
relations are orthogonal and each relation name sits near its trigger.
The tests check that each template instantiates to a valid sentence.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .artifacts import write_corpus, write_gold
from .corpus import EntitySpan, ParsedSentence, Token
from .errors import ValidationError, writing
from .vocab import write_embeddings

EMBED_DIM = 16

SUBJ = "{SUBJ}"
OBJ = "{OBJ}"


@dataclass(frozen=True)
class SentenceTemplate:
    """A full parsed sentence with two single-token entity slots."""

    tokens: tuple[tuple[str, str, str, int], ...]  # (text, pos, dep, head)
    subject_index: int
    object_index: int


@dataclass(frozen=True)
class RelationTemplate:
    name: str  # gold relation name
    trigger: str  # distinctive word, always on the entity-entity path
    sentences: tuple[SentenceTemplate, ...]


def _t(*tokens, s: int, o: int) -> SentenceTemplate:
    return SentenceTemplate(tokens=tuple(tokens), subject_index=s, object_index=o)


BUILTIN_RELATIONS: tuple[RelationTemplate, ...] = (
    RelationTemplate(
        name="capital",
        trigger="capital",
        sentences=(
            _t(
                (SUBJ, "PROPN", "nsubj", 1),
                ("is", "AUX", "ROOT", -1),
                ("the", "DET", "det", 3),
                ("capital", "NOUN", "attr", 1),
                ("of", "ADP", "prep", 3),
                (OBJ, "PROPN", "pobj", 4),
                s=0, o=5,
            ),
            _t(
                (SUBJ, "PROPN", "nsubj", 1),
                ("remains", "VERB", "ROOT", -1),
                ("the", "DET", "det", 4),
                ("proud", "ADJ", "amod", 4),
                ("capital", "NOUN", "attr", 1),
                ("of", "ADP", "prep", 4),
                (OBJ, "PROPN", "pobj", 5),
                s=0, o=6,
            ),
            _t(
                ("the", "DET", "det", 1),
                ("capital", "NOUN", "nsubj", 4),
                ("of", "ADP", "prep", 1),
                (OBJ, "PROPN", "pobj", 2),
                ("is", "AUX", "ROOT", -1),
                (SUBJ, "PROPN", "attr", 4),
                s=5, o=3,
            ),
        ),
    ),
    RelationTemplate(
        name="placeBirth",
        trigger="born",
        sentences=(
            _t(
                (SUBJ, "PROPN", "nsubjpass", 2),
                ("was", "AUX", "auxpass", 2),
                ("born", "VERB", "ROOT", -1),
                ("in", "ADP", "prep", 2),
                (OBJ, "PROPN", "pobj", 3),
                s=0, o=4,
            ),
            _t(
                (SUBJ, "PROPN", "nsubj", 8),
                (",", "PUNCT", "punct", 0),
                ("who", "PRON", "nsubj", 4),
                ("was", "AUX", "auxpass", 4),
                ("born", "VERB", "relcl", 0),
                ("in", "ADP", "prep", 4),
                (OBJ, "PROPN", "pobj", 5),
                (",", "PUNCT", "punct", 0),
                ("smiled", "VERB", "ROOT", -1),
                s=0, o=6,
            ),
            _t(
                (SUBJ, "PROPN", "nsubjpass", 2),
                ("was", "AUX", "auxpass", 2),
                ("born", "VERB", "ROOT", -1),
                ("near", "ADP", "prep", 2),
                (OBJ, "PROPN", "pobj", 3),
                s=0, o=4,
            ),
        ),
    ),
    RelationTemplate(
        name="founders",
        trigger="founded",
        sentences=(
            _t(
                (SUBJ, "PROPN", "nsubj", 1),
                ("founded", "VERB", "ROOT", -1),
                ("the", "DET", "det", 3),
                ("firm", "NOUN", "dobj", 1),
                (OBJ, "PROPN", "appos", 3),
                s=0, o=4,
            ),
            _t(
                (SUBJ, "PROPN", "nsubj", 2),
                ("quietly", "ADV", "advmod", 2),
                ("founded", "VERB", "ROOT", -1),
                ("the", "DET", "det", 4),
                ("firm", "NOUN", "dobj", 2),
                (OBJ, "PROPN", "appos", 4),
                s=0, o=5,
            ),
            _t(
                (OBJ, "PROPN", "nsubjpass", 2),
                ("was", "AUX", "auxpass", 2),
                ("founded", "VERB", "ROOT", -1),
                ("by", "ADP", "agent", 2),
                (SUBJ, "PROPN", "pobj", 3),
                s=4, o=0,
            ),
        ),
    ),
    RelationTemplate(
        name="neighborOf",
        trigger="borders",
        sentences=(
            _t(
                (SUBJ, "PROPN", "nsubj", 1),
                ("borders", "VERB", "ROOT", -1),
                (OBJ, "PROPN", "dobj", 1),
                s=0, o=2,
            ),
            _t(
                ("everyone", "PRON", "nsubj", 1),
                ("says", "VERB", "ROOT", -1),
                (SUBJ, "PROPN", "nsubj", 3),
                ("borders", "VERB", "ccomp", 1),
                (OBJ, "PROPN", "dobj", 3),
                s=2, o=4,
            ),
            _t(
                (SUBJ, "PROPN", "nsubj", 1),
                ("borders", "VERB", "ROOT", -1),
                ("snowy", "ADJ", "amod", 3),
                (OBJ, "PROPN", "dobj", 1),
                s=0, o=3,
            ),
        ),
    ),
)

# Non-stopword words that can land on a path, besides the triggers.
_CONTENT_WORDS = ("remains", "near", "firm")


def name_pool(size: int = 24) -> list[str]:
    """Deterministic pool of invented proper names."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    names: list[str] = []
    i = 0
    while len(names) < size:
        name = (syllables[i % len(syllables)] + syllables[(i * 7 + 3) % len(syllables)]).capitalize()
        if name not in names:
            names.append(name)
        i += 1
    return names


def instantiate(template: SentenceTemplate, sentence_id: str, subject: str, obj: str) -> ParsedSentence:
    tokens = []
    for text, pos, dep, head in template.tokens:
        if text == SUBJ:
            text = subject
        elif text == OBJ:
            text = obj
        tokens.append(Token(text=text, pos=pos, dep=dep, head=head))
    return ParsedSentence(
        id=sentence_id,
        tokens=tuple(tokens),
        subject=EntitySpan(template.subject_index, template.subject_index + 1, subject),
        object=EntitySpan(template.object_index, template.object_index + 1, obj),
    )


def toy_embeddings(relations: tuple[RelationTemplate, ...]) -> dict[str, np.ndarray]:
    """Constructed vectors: trigger words on orthogonal axes, each relation
    name at cosine 0.9 to its trigger, content words on axes of their own."""
    vectors: dict[str, np.ndarray] = {}
    axis = 0

    def unit(i: int) -> np.ndarray:
        v = np.zeros(EMBED_DIM)
        v[i] = 1.0
        return v

    for rel in relations:
        vectors[rel.trigger] = unit(axis)
        if rel.name not in vectors:
            vectors[rel.name] = 0.9 * unit(axis) + 0.436 * unit(EMBED_DIM - 1 - axis)
        axis += 1
    for word in _CONTENT_WORDS:
        if word not in vectors:
            vectors[word] = unit(axis)
            axis += 1
    return vectors


@dataclass
class SynthResult:
    corpus_path: Path
    gold_path: Path
    embeddings_path: Path
    record_count: int
    pair_count: int


def generate(
    relations: int,
    pairs_per_relation: int,
    sentences_per_pair: int,
    seed: int,
    out_dir: str | Path,
) -> SynthResult:
    """Write corpus.jsonl, gold.jsonl, and embeddings.txt under out_dir.

    Entity names come from a fixed pool; every pair is globally unique and
    is realized by `sentences_per_pair` templates of its relation, sampled
    with replacement. Identical arguments give byte-identical files.
    """
    if not 1 <= relations <= len(BUILTIN_RELATIONS):
        raise ValidationError(f"relations must be in [1, {len(BUILTIN_RELATIONS)}]")
    if pairs_per_relation < 1:
        raise ValidationError("pairs_per_relation must be at least 1")
    if sentences_per_pair < 2:
        raise ValidationError("sentences_per_pair must be at least 2")
    if seed < 0:
        raise ValidationError("seed must be at least 0")

    chosen = BUILTIN_RELATIONS[:relations]
    rng = np.random.default_rng(seed)
    pool = name_pool()
    # rejection sampling of fresh pairs stays fast while occupancy is low
    if relations * pairs_per_relation > len(pool) * (len(pool) - 1) // 2:
        raise ValidationError(f"too many pairs requested for a {len(pool)}-name pool")

    out = Path(out_dir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.jsonl"
    gold_path = out / "gold.jsonl"
    embeddings_path = out / "embeddings.txt"

    sentences = []
    gold: dict[tuple[str, str], list[str]] = {}
    for rel in chosen:
        for p in range(pairs_per_relation):
            while True:
                s_name = pool[int(rng.integers(len(pool)))]
                o_name = pool[int(rng.integers(len(pool)))]
                if s_name != o_name and (s_name, o_name) not in gold:
                    break
            gold[(s_name, o_name)] = [rel.name]
            for k in range(sentences_per_pair):
                template = rel.sentences[int(rng.integers(len(rel.sentences)))]
                sentences.append(instantiate(template, f"{rel.name}-{p:03d}-{k}", s_name, o_name))

    write_corpus(corpus_path, sentences)
    write_gold(gold_path, gold)
    write_embeddings(embeddings_path, toy_embeddings(chosen))
    return SynthResult(
        corpus_path=corpus_path,
        gold_path=gold_path,
        embeddings_path=embeddings_path,
        record_count=len(sentences),
        pair_count=len(gold),
    )
