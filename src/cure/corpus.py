"""Corpus ingestion: parse the JSON Lines sentence format and validate trees.

One record per (sentence, entity pair) instance. A sentence with several
entity pairs appears once per pair. `head` is a 0-based token index; the
single root token has head -1 and dependency tag "ROOT".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ValidationError, reading


@dataclass(frozen=True)
class Token:
    text: str
    pos: str
    dep: str
    head: int


@dataclass(frozen=True)
class EntitySpan:
    start: int
    end: int  # exclusive
    canonical: str


@dataclass(frozen=True)
class ParsedSentence:
    id: str
    tokens: tuple[Token, ...]
    subject: EntitySpan
    object: EntitySpan

    def __len__(self) -> int:
        return len(self.tokens)


def validate_sentence(sentence: ParsedSentence) -> None:
    """Check tree shape and span invariants; raise ValidationError on the first failure."""
    n = len(sentence.tokens)
    if n == 0:
        raise ValidationError(f"sentence {sentence.id!r}: no tokens")

    roots = [i for i, t in enumerate(sentence.tokens) if t.head == -1]
    if len(roots) != 1:
        raise ValidationError(f"sentence {sentence.id!r}: expected exactly one root, found {len(roots)}")
    if sentence.tokens[roots[0]].dep != "ROOT":
        raise ValidationError(f"sentence {sentence.id!r}: root token must carry dep 'ROOT'")

    for i, tok in enumerate(sentence.tokens):
        if i == roots[0]:
            continue
        if not 0 <= tok.head < n:
            raise ValidationError(f"sentence {sentence.id!r}: token {i} head {tok.head} out of range")
        if tok.head == i:
            raise ValidationError(f"sentence {sentence.id!r}: token {i} is its own head")

    # Every token must reach the root; a cycle shows up as a walk longer than n.
    for i in range(n):
        cur, steps = i, 0
        while sentence.tokens[cur].head != -1:
            cur = sentence.tokens[cur].head
            steps += 1
            if steps > n:
                raise ValidationError(f"sentence {sentence.id!r}: cyclic head links at token {i}")

    for name, span in (("subject", sentence.subject), ("object", sentence.object)):
        if span.start >= span.end:
            raise ValidationError(f"sentence {sentence.id!r}: empty span for {name}")
        if span.start < 0 or span.end > n:
            raise ValidationError(f"sentence {sentence.id!r}: {name} span ({span.start},{span.end}) out of range")
        if not span.canonical:
            raise ValidationError(f"sentence {sentence.id!r}: {name} canonical key is empty")
    s, o = sentence.subject, sentence.object
    if s.start < o.end and o.start < s.end:
        raise ValidationError(f"sentence {sentence.id!r}: subject and object spans overlap")


def _span_from(obj: dict, what: str) -> EntitySpan:
    try:
        return EntitySpan(start=int(obj["start"]), end=int(obj["end"]), canonical=str(obj["canonical"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad {what} span: {exc}") from exc


def sentence_from_record(record: dict) -> ParsedSentence:
    try:
        tokens = tuple(
            Token(text=str(t["text"]), pos=str(t["pos"]), dep=str(t["dep"]), head=int(t["head"]))
            for t in record["tokens"]
        )
        sentence = ParsedSentence(
            id=str(record["id"]),
            tokens=tokens,
            subject=_span_from(record["subject"], "subject"),
            object=_span_from(record["object"], "object"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed record: {exc}") from exc
    validate_sentence(sentence)
    return sentence


def sentence_to_record(sentence: ParsedSentence) -> dict:
    return {
        "id": sentence.id,
        "tokens": [{"text": t.text, "pos": t.pos, "dep": t.dep, "head": t.head} for t in sentence.tokens],
        "subject": {"start": sentence.subject.start, "end": sentence.subject.end, "canonical": sentence.subject.canonical},
        "object": {"start": sentence.object.start, "end": sentence.object.end, "canonical": sentence.object.canonical},
    }


def parse_corpus(path: str | Path) -> list[ParsedSentence]:
    """Read a JSON Lines corpus file, validating every record. Line order is kept."""
    sentences = []
    with reading(path, "corpus") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
            try:
                sentences.append(sentence_from_record(record))
            except ValidationError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return sentences


def canonical_key(surface: str) -> str:
    """Grouping key for an entity: internal whitespace collapsed, case preserved."""
    return " ".join(surface.split())


def pair_key(sentence: ParsedSentence) -> tuple[str, str]:
    return canonical_key(sentence.subject.canonical), canonical_key(sentence.object.canonical)
