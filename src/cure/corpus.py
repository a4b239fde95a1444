"""Corpus ingestion: parse the JSON Lines sentence format and validate trees.

One record per (sentence, entity pair) instance. A sentence with several
entity pairs appears once per pair. `head` is a 0-based token index; the
single root token has head -1 and dependency tag "ROOT".

Also here: the reader every JSON Lines input goes through (corpus, paths,
vectors, cluster assignments, labels, gold, a checkpoint's meta line), and
the checks that a field is a JSON integer, a string, a finite number or an
array of strings.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, TypeVar

from .errors import ValidationError, reading

T = TypeVar("T")


class Token(NamedTuple):
    """One token of a sentence: a tuple, not a dataclass, because a corpus
    holds one per word and a tuple is about half the cost to build."""

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


def validate_sentence(sentence: ParsedSentence) -> None:
    """Check tree shape and span invariants; raise ValidationError on the first failure."""
    def error(message: str) -> ValidationError:  # the id is quoted only when a check fails
        return ValidationError(f"sentence {reprlib.repr(sentence.id)}: {message}")

    n = len(sentence.tokens)
    roots = [i for i, t in enumerate(sentence.tokens) if t.head == -1]
    if len(roots) != 1:
        raise error(f"expected exactly one root, found {len(roots)}")
    if sentence.tokens[roots[0]].dep != "ROOT":
        raise error("root token must carry dep 'ROOT'")

    for i, tok in enumerate(sentence.tokens):
        if i == roots[0]:
            continue
        if not 0 <= tok.head < n:
            raise error(f"token {i} head {reprlib.repr(tok.head)} out of range")

    # Every token must reach the root; a cycle shows up as a walk longer than n.
    for i in range(n):
        cur, steps = i, 0
        while sentence.tokens[cur].head != -1:
            cur = sentence.tokens[cur].head
            steps += 1
            if steps > n:
                raise error(f"cyclic head links at token {i}")

    for name, span in (("subject", sentence.subject), ("object", sentence.object)):
        if span.start >= span.end:
            raise error(f"empty span for {name}")
        if span.start < 0 or span.end > n:
            raise error(f"{name} span ({reprlib.repr(span.start)},{reprlib.repr(span.end)}) out of range")
        if not span.canonical:
            raise error(f"{name} canonical key is empty")
    s, o = sentence.subject, sentence.object
    if s.start < o.end and o.start < s.end:
        raise error("subject and object spans overlap")


def _span_from(obj: dict) -> EntitySpan:
    return EntitySpan(integer(obj["start"], "start"), integer(obj["end"], "end"), string(obj["canonical"], "canonical"))


def sentence_from_record(record: dict) -> ParsedSentence:
    """The sentence a corpus record holds. A record of the wrong shape raises
    KeyError, TypeError or ValueError; a sentence that breaks a tree or span
    invariant raises ValidationError."""
    sentence = ParsedSentence(
        id=string(record["id"], "id"),
        tokens=tuple(
            Token(string(t["text"], "text"), string(t["pos"], "pos"), string(t["dep"], "dep"),
                  integer(t["head"], "head"))
            for t in record["tokens"]
        ),
        subject=_span_from(record["subject"]),
        object=_span_from(record["object"]),
    )
    validate_sentence(sentence)
    return sentence


def sentence_to_record(sentence: ParsedSentence) -> dict:
    return {
        "id": sentence.id,
        "tokens": [{"text": t.text, "pos": t.pos, "dep": t.dep, "head": t.head} for t in sentence.tokens],
        "subject": {"start": sentence.subject.start, "end": sentence.subject.end, "canonical": sentence.subject.canonical},
        "object": {"start": sentence.object.start, "end": sentence.object.end, "canonical": sentence.object.canonical},
    }


# What a parse of a record of the wrong shape raises: a missing key, a wrong
# type, an integer too large for a float.
RECORD_ERRORS = (KeyError, TypeError, IndexError, ValueError, OverflowError)

# Such an error's repr, shortened in the middle past 120 characters: one raised
# outside cure (numpy's "could not convert string to float: '...'") can quote an input whole.
_RECORD_ERROR_REPR = reprlib.Repr()
_RECORD_ERROR_REPR.maxother = 120


def integer(value: Any, name: str) -> int:
    """value, which must be a JSON integer: a float (1.7 or 1.0) or a bool,
    which Python counts as an int, is a TypeError."""
    if type(value) is int:
        return value
    raise TypeError(f"{name} must be an integer, got {reprlib.repr(value)}")


def string(value: Any, name: str) -> str:
    """value, which must be a JSON string: anything else is a TypeError."""
    if type(value) is str:
        return value
    raise TypeError(f"{name} must be a string, got {reprlib.repr(value)}")


def number(value: Any, name: str) -> float:
    """value as a float; it must be a JSON number (not a bool), else a
    TypeError, and finite (not NaN or Infinity), else a ValueError."""
    if type(value) not in (int, float):
        raise TypeError(f"{name} must be a number, got {reprlib.repr(value)}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return float(value)


def string_array(record: dict, key: str) -> tuple[str, ...]:
    """record[key] as a tuple. It must be a JSON array of strings: anything
    else, a string included (which would read as its characters), is a TypeError."""
    value = record[key]
    if isinstance(value, list) and set(map(type, value)) <= {str}:
        return tuple(value)
    raise TypeError(f"{key} must be an array of strings, got {reprlib.repr(value)}")


def parse_line(line: str, where: str, what: str, parse: Callable[[Any], T]) -> T:
    """parse() applied to the JSON value of one line. A line that is not
    JSON, or whose value parse() cannot read, is a ValidationError naming
    `where` (`<file>:<line>`): `<where>: invalid JSON (...)`, `<where>:
    malformed <what> (...)` for a missing key, a wrong type, a number too
    large for a float or a non-finite one, its text shortened, or `<where>: `
    before a ValidationError's text."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{where}: invalid JSON ({exc.msg})") from exc
    except ValueError as exc:  # an integer past Python's limit on digits converted
        raise ValidationError(f"{where}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ValidationError(f"{where}: invalid JSON (nested too deeply)") from exc
    try:
        return parse(record)
    except RECORD_ERRORS as exc:
        raise ValidationError(f"{where}: malformed {what} ({_RECORD_ERROR_REPR.repr(exc)})") from exc
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from exc


def read_jsonl(
    path: str | Path,
    what: str,
    parse: Callable[[Any], T],
    read_line: Callable[[str, str, str, Callable[[Any], T]], T] = parse_line,
) -> list[T]:
    """read_line(line, "<file>:<line>", what, parse) of every non-blank line
    of a JSON Lines file, in line order: by default parse() applied to the
    line's JSON value, with parse_line's errors. A reader that recognises
    some lines by their text gives the others to parse_line."""
    with reading(path, f"{what} file") as fh:
        return [
            read_line(line, f"{path}:{lineno}", what, parse)
            for lineno, line in enumerate(fh, start=1)
            if line.strip()
        ]


def parse_corpus(path: str | Path) -> list[ParsedSentence]:
    """Read a JSON Lines corpus file, validating every record. Line order is kept."""
    return read_jsonl(path, "corpus record", sentence_from_record)


def canonical_key(surface: str) -> str:
    """Grouping key for an entity: internal whitespace collapsed, case preserved."""
    return " ".join(surface.split())


def pair_key(sentence: ParsedSentence) -> tuple[str, str]:
    return canonical_key(sentence.subject.canonical), canonical_key(sentence.object.canonical)
