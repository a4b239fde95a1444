"""Benchmark inputs: synthetic corpora built from cure's public templates.

The corpus, gold and embedding files are built from `cure.synth`'s relation
templates the same way `cure synth` builds them, with two differences: the
entity-name pool is a parameter, and `combinatorial_names` makes pools large
enough for corpora past the 276 pairs that the built-in 24-name pool allows.
With the built-in pool the files are byte-identical to `cure synth`'s.
Identical arguments always give byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from cure.corpus import sentence_to_record
from cure.synth import BUILTIN_RELATIONS, instantiate, name_pool, toy_embeddings, write_embeddings

# Acceptance model settings, used by every workload; the epoch count is set per workload.
ACCEPT_MODEL = dict(
    n_h=16, n_h2=16, n_g=48, n_l=6, d_w=24, d_d=8, d_p=8,
    learning_rate=0.2, batch_size=1,
)


@dataclass(frozen=True)
class Corpus:
    relations: int
    pairs: int  # per relation
    sentences: int  # per pair
    names: int = 0  # entity-name pool size; 0 = cure synth's built-in 24-name pool


ACCEPT_CORPUS = Corpus(relations=4, pairs=25, sentences=3)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    epochs: int
    # set: the set-up trains the checkpoint on this corpus and the timed part does not train
    train_corpus: Corpus | None = None
    min_rand_index: float = 0.0  # a timed run scoring below this fails its check


WORKLOADS = {
    w.name: w
    for w in (
        Workload("accept", ACCEPT_CORPUS, epochs=2, min_rand_index=0.85),
        Workload(
            "bulk", Corpus(relations=4, pairs=75, sentences=3, names=120), epochs=1, train_corpus=ACCEPT_CORPUS,
        ),
    )
}


def combinatorial_names(count: int) -> list[str]:
    """`count` distinct invented three-syllable names, in a fixed order."""
    syllables = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
    if count > len(syllables) ** 2:
        raise ValueError(f"at most {len(syllables) ** 2} names, got {count}")
    # a fixed stride walks the product of two syllable pools without repeats
    out = []
    for i in range(count):
        j = (i * 37) % (len(syllables) ** 2)
        first, second = divmod(j, len(syllables))
        out.append(("zo" + syllables[first] + syllables[second]).capitalize())
    return out


def corpus_files(out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    return {"corpus": out / "corpus.jsonl", "gold": out / "gold.jsonl", "embeddings": out / "embeddings.txt"}


def generate(
    out_dir: str | Path,
    relations: int,
    pairs_per_relation: int,
    sentences_per_pair: int,
    seed: int,
    names: list[str],
) -> dict[str, Path]:
    """Write corpus.jsonl, gold.jsonl and embeddings.txt under out_dir.

    Sampling follows `cure.synth.generate`: per relation and pair, draw a
    fresh ordered name pair, then `sentences_per_pair` templates with
    replacement, all from one generator seeded with `seed`.
    """
    if relations * pairs_per_relation > len(names) * (len(names) - 1) // 2:
        raise ValueError(f"too many pairs for a {len(names)}-name pool")
    chosen = BUILTIN_RELATIONS[:relations]
    rng = np.random.default_rng(seed)
    files = corpus_files(out_dir)
    Path(out_dir).mkdir(parents=True, exist_ok=True)

    used: set[tuple[str, str]] = set()
    gold_lines = []
    with open(files["corpus"], "w", encoding="utf-8") as fh:
        for rel in chosen:
            for p in range(pairs_per_relation):
                while True:
                    subject = names[int(rng.integers(len(names)))]
                    obj = names[int(rng.integers(len(names)))]
                    if subject != obj and (subject, obj) not in used:
                        break
                used.add((subject, obj))
                gold_lines.append({"pair": [subject, obj], "relations": [rel.name]})
                for k in range(sentences_per_pair):
                    template = rel.sentences[int(rng.integers(len(rel.sentences)))]
                    sentence = instantiate(template, f"{rel.name}-{p:03d}-{k}", subject, obj)
                    fh.write(json.dumps(sentence_to_record(sentence)) + "\n")
    with open(files["gold"], "w", encoding="utf-8") as fh:
        for line in gold_lines:
            fh.write(json.dumps(line) + "\n")
    write_embeddings(files["embeddings"], toy_embeddings(chosen))
    return files


def generate_corpus(corpus: Corpus, seed: int, out_dir: str | Path) -> dict[str, Path]:
    names = combinatorial_names(corpus.names) if corpus.names else name_pool()
    return generate(out_dir, corpus.relations, corpus.pairs, corpus.sentences, seed, names)


def sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
