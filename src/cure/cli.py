"""Command-line entry point: wires the config to the stages.

Subcommands: synth, extract-paths, train, encode, cluster, label, evaluate,
and pipeline (which chains extract-paths through evaluate and writes a
manifest). Settings come only from the config, a flat "key = value" file
and --set overrides, which win over file values; flags name the files a
stage reads and writes, whose formats artifacts.py owns. Exit codes: 0
success, 2 validation error, 3 runtime/numeric error.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import reprlib
import sys
import time
import warnings
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Sequence, TypeVar

import numpy as np

from . import __version__, artifacts, cluster as clustering, metrics, model as modeling, synth
from .artifacts import Pair, read_path_instances
from .corpus import parse_corpus
from .errors import CureError, NumericError, ValidationError, reading, write_atomic, writing
from .labeling import candidate_set, cw_label, load_stopwords, match_to_gold, wvs_label
from .model import ModelConfig, PathIds, integer_key, paths_to_ids, read_checkpoint, write_checkpoint
from .paths import SspTriple, extract_instances, group_pairs
from .vocab import build_vocab, load_pretrained


@dataclass
class RunConfig(ModelConfig):
    """Every config key: the model and training keys of ModelConfig, then the
    inputs, outputs and the clustering, labeling and vocabulary settings.
    Every value is checked when the config is built, so that a bad one
    exits before any stage writes a file."""

    corpus: str = ""
    embeddings: str = ""
    gold: str = ""
    out_dir: str = ""
    stopwords: str = ""  # empty = packaged list
    method: str = "wvs"
    top_n: int = integer_key(3)
    k_clusters: int = integer_key(4)
    min_paths: int = integer_key(2, least=2)  # a training example holds one of a pair's paths out
    min_freq: int = integer_key(2)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.method not in ("wvs", "cw"):
            raise ValidationError(f"config method must be 'wvs' or 'cw', got {reprlib.repr(self.method)}")


_DEFAULTS = {f.name: f.default for f in fields(RunConfig)}


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then file values, then key=value overrides, each read as the
    type of its key's default (int, float or str); an error names its source."""
    items = []  # (where the item comes from, its text, what a malformed one is told)
    if path:
        with reading(path, "config") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            if line := line.split("#", 1)[0].strip():
                items.append((f"config line {lineno}", line, f"expected 'key = value', got {reprlib.repr(line)}"))
    items += [(f"override {reprlib.repr(item)}", item, "expected KEY=VALUE") for item in overrides or []]
    values: dict = {}
    for where, item, malformed in items:
        key, equals, value = (part.strip() for part in item.partition("="))
        if not equals:
            raise ValidationError(f"{where}: {malformed}")
        if key not in _DEFAULTS:
            hint = difflib.get_close_matches(key, _DEFAULTS, n=1)
            suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
            raise ValidationError(f"{where}: unknown config key {reprlib.repr(key)}{suffix}")
        kind = type(_DEFAULTS[key])
        try:
            values[key] = kind(value)
        except ValueError as exc:
            expected = "integer" if kind is int else "number"
            raise ValidationError(f"{where}: config key {key!r}: expected {expected}, got {reprlib.repr(value)}") from exc
    return RunConfig(**values)


def _require(cfg: RunConfig, keys: Sequence[str], command: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ValidationError(f"{command}: required config key {key!r} is not set")


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and `pipeline`)
# ---------------------------------------------------------------------------

Instances = list[tuple[Pair, SspTriple]]
Labels = dict[int, tuple[tuple[str, float], ...]]
V = TypeVar("V")


def _given(made: str | Path | V, read: Callable[[str | Path], V]) -> V:
    """An input that an earlier stage made: the value read from its file
    (a stage command) or the value itself (`cure pipeline`)."""
    return read(made) if isinstance(made, (str, Path)) else made


def stage_extract(corpus_path: str, out_path: str) -> Instances:
    instances = extract_instances(parse_corpus(corpus_path))
    artifacts.write_paths(out_path, instances)
    return instances


def stage_train(cfg: RunConfig, paths: str | Instances, checkpoint_path: str, log_path: str) -> list[float]:
    instances = _given(paths, read_path_instances)
    groups = group_pairs(instances, min_paths=cfg.min_paths)
    if not groups:
        raise ValidationError(f"no pair has at least {reprlib.repr(cfg.min_paths)} paths; nothing to train on")
    vocabs = build_vocab((t for _, t in instances), min_freq=cfg.min_freq)
    prepared = [(g.pair, paths_to_ids(g, vocabs, cfg.n_l)) for g in groups]
    losses: list[float] = []
    params = modeling.train(prepared, cfg, *map(len, vocabs), on_epoch=lambda _, loss, __: losses.append(loss))
    # Written once, after training: a run that fails or is interrupted leaves
    # the previous checkpoint as it was.
    write_checkpoint(checkpoint_path, params, vocabs)
    artifacts.write_loss_log(log_path, losses)
    return losses


def stage_encode(checkpoint_path: str, paths: str | Instances, out_path: str) -> dict[Pair, np.ndarray]:
    """Pair -> relation vector, as read_vectors reads the file written: the
    vectors are read-only, since pairs share them."""
    params, vocabs = read_checkpoint(checkpoint_path)
    groups = group_pairs(_given(paths, read_path_instances), min_paths=1)
    ids = [paths_to_ids(group, vocabs, params.cfg.n_l) for group in groups]
    encodings = modeling.encode_distinct(params, [p for path_ids in ids for p in path_ids])
    # Pairs with the same path-id sequence have bit-identical vectors (the
    # sum runs in path order), so each sequence's vector is computed once and
    # shared, and write_vectors formats it once.
    shared: dict[tuple[PathIds, ...], np.ndarray] = {}
    vectors = {}
    for group, path_ids in zip(groups, ids):
        key = tuple(path_ids)
        if key not in shared:
            vector = modeling.infer_relation_vector(path_ids, encodings)
            if not np.all(np.isfinite(vector)):
                raise NumericError(f"pair {reprlib.repr(group.pair)}: non-finite relation vector")
            vector.flags.writeable = False
            shared[key] = vector
        vectors[group.pair] = shared[key]
    artifacts.write_vectors(out_path, vectors)
    return vectors


def stage_cluster(
    vectors: str | dict[Pair, np.ndarray], k: int, out_path: str, centroids_path: str,
) -> tuple[dict[Pair, int], dict]:
    """Cluster the vectors and cut at k. Returns pair -> cluster id, and the
    cut's summary for the manifest: k and the distances of the last merge
    kept (merge n-k) and of the first merge undone (merge n-k+1), None where
    there is no such merge."""
    vectors = _given(vectors, artifacts.read_vectors)
    dendrogram = clustering.hac(list(vectors.values()))
    clusters = clustering.cut(dendrogram, k)
    cluster_of = {member: c.id for c in clusters for member in c.members}
    assignments = {pair: cluster_of[i] for i, pair in enumerate(vectors)}
    artifacts.write_clusters(out_path, assignments)
    artifacts.write_centroids(centroids_path, {c.id: c.centroid for c in clusters})
    merges, n = dendrogram.merges, dendrogram.n
    return assignments, {
        "k": len(clusters),
        "last_kept_merge_distance": merges[n - k - 1].distance if k < n else None,
        "first_undone_merge_distance": merges[n - k].distance if k > 1 else None,
    }


def stage_label(
    clusters: str | dict[Pair, int],
    paths: str | Instances,
    embeddings_file: str,
    method: str,
    top_n: int,
    stopwords_path: str,
    out_path: str,
) -> Labels:
    assignments = _given(clusters, artifacts.read_clusters)
    instances = _given(paths, read_path_instances)
    stopwords = load_stopwords(stopwords_path or None)
    vectors = load_pretrained(embeddings_file) if method == "wvs" else None

    word_paths: dict[int, list[tuple[str, ...]]] = {cluster_id: [] for cluster_id in sorted(set(assignments.values()))}
    for pair, triple in instances:
        if pair in assignments:
            word_paths[assignments[pair]].append(triple.words)

    labels = {}
    for cluster_id, cluster_paths in word_paths.items():
        try:
            if not cluster_paths:
                raise ValidationError("no path: none of its pairs is in the paths file")
            counts = candidate_set(cluster_paths, stopwords)
            ranked = wvs_label(counts, vectors) if method == "wvs" else cw_label(counts)
        except ValidationError as exc:
            raise ValidationError(f"cluster {cluster_id}: {exc}") from exc
        labels[cluster_id] = ranked[:top_n]
    artifacts.write_labels(out_path, labels)
    return labels


def stage_evaluate(
    clusters: str | dict[Pair, int],
    labels: str | Labels,
    gold_file: str,
    embeddings_file: str,
    out_path: str,
) -> tuple[float, list[metrics.RelationScore]]:
    assignments = _given(clusters, artifacts.read_clusters)
    labels = _given(labels, artifacts.read_labels)
    gold = artifacts.read_gold(gold_file)
    vectors = load_pretrained(embeddings_file)

    relation_names = sorted({r for rels in gold.values() for r in rels})
    missing = [r for r in relation_names if r not in vectors]
    if missing:
        raise ValidationError(f"gold relation names without embedding vectors: {reprlib.repr(missing)}")
    gold_vectors = [(name, vectors[name]) for name in relation_names]
    cluster_relation = {cluster_id: match_to_gold(label, gold_vectors, vectors) for cluster_id, label in labels.items()}

    predicted_relation: dict[tuple[str, str], str] = {}
    for pair, cluster_id in assignments.items():
        if cluster_id not in cluster_relation:
            raise ValidationError(f"cluster {reprlib.repr(cluster_id)} has no label record")
        predicted_relation[pair] = cluster_relation[cluster_id]

    scores = metrics.prf1(predicted_relation, gold)  # refuses a pair that gold lacks
    ri = metrics.rand_index(assignments, gold)
    artifacts.write_scores(out_path, scores, ri)
    return ri, scores


def run_pipeline(cfg: RunConfig) -> Path:
    """extract-paths > train > encode > cluster > label > evaluate.

    Every stage artifact lands in cfg.out_dir. Each stage passes the value
    it made to the stages after it, except the checkpoint: encode reads
    model.ckpt back from the file that train wrote. manifest.json, written
    last, records the seed and per-stage output hashes and timings, and for
    the cluster stage the merge distances on either side of the cut; the
    files are hashed for it alone. A run that fails after its input checks
    leaves no manifest.json.
    """
    _require(cfg, ["corpus", "embeddings", "gold", "out_dir"], "pipeline")
    for key in ("corpus", "embeddings", "gold", "stopwords"):  # stopwords may be empty: the packaged list
        named = getattr(cfg, key)
        if named and not os.path.isfile(named):  # False, not an OSError, for a name too long
            raise ValidationError(f"pipeline: config {key!r} does not name a file: {reprlib.repr(named)}")
    out = Path(cfg.out_dir)
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
        (out / "manifest.json").unlink(missing_ok=True)  # the previous run's, which this run's artifacts replace

    names = ("paths.jsonl", "model.ckpt", "loss_log.csv", "vectors.jsonl", "clusters.jsonl", "centroids.jsonl",
             "labels.jsonl", "scores.csv")
    paths, ckpt, log, vectors, clusters, centroids, labels, scores = (str(out / name) for name in names)
    manifest = {"seed": cfg.seed, "stages": []}

    def run(name: str, outputs: list[str], stage: Callable[..., V], *args) -> V:
        started = time.perf_counter()
        try:
            result = stage(*args)
        except CureError as exc:
            raise type(exc)(f"stage {name!r} failed: {exc}") from exc
        manifest["stages"].append({
            "name": name,
            "seconds": round(time.perf_counter() - started, 3),
            "outputs": {Path(p).name: artifacts.file_sha256(p).hex() for p in outputs},
        })
        return result

    instances = run("extract-paths", [paths], stage_extract, cfg.corpus, paths)
    run("train", [ckpt, log], stage_train, cfg, instances, ckpt, log)
    relation_vectors = run("encode", [vectors], stage_encode, ckpt, instances, vectors)
    assignments, cut = run(
        "cluster", [clusters, centroids], stage_cluster, relation_vectors, cfg.k_clusters, clusters, centroids,
    )
    manifest["stages"][-1]["cut"] = cut
    cluster_labels = run(
        "label", [labels], stage_label, assignments, instances, cfg.embeddings, cfg.method, cfg.top_n, cfg.stopwords,
        labels,
    )
    run("evaluate", [scores], stage_evaluate, assignments, cluster_labels, cfg.gold, cfg.embeddings, scores)
    write_atomic(out / "manifest.json", [(json.dumps(manifest, indent=2, allow_nan=False) + "\n").encode("utf-8")])
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _config_epilog() -> str:
    return "\n".join(["config keys and defaults:", *(f"  {key} = {value!r}" for key, value in _DEFAULTS.items())])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cure",
        description="Unsupervised relation extraction over dependency-parsed text.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"cure {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *files, config=True):
        """The subcommand's parser, with its config flags and its required file flags."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("--config", help="flat key = value config file")
            p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")
        for flag in files:
            p.add_argument(flag, required=True)
        p.set_defaults(func=func)
        return p

    p = command("synth", cmd_synth, "generate a synthetic corpus with planted relations", config=False)
    p.add_argument("--relations", type=int, default=4)
    p.add_argument("--pairs", type=int, default=25)
    p.add_argument("--sentences", type=int, default=3)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--out-dir", required=True)  # after the integer flags, where synth's usage line has it
    command("extract-paths", cmd_extract, "extract entity-pair shortest paths from the config's corpus", "--out")
    command("train", cmd_train, "train the path-prediction encoder-decoder", "--paths-file", "--out-checkpoint", "--log")
    command("encode", cmd_encode, "relation vectors for every entity pair (the model config is in the checkpoint)",
            "--checkpoint", "--paths-file", "--out", config=False)
    command("cluster", cmd_cluster, "agglomerative clustering of relation vectors", "--vectors", "--out", "--centroids")
    command("label", cmd_label, "relation words for each cluster", "--clusters", "--paths-file", "--out")
    command("evaluate", cmd_evaluate, "score clusters against a gold relation file", "--clusters", "--labels", "--out")
    command("pipeline", cmd_pipeline, "run all stages end to end")
    return parser


def _cfg(args, *required: str) -> RunConfig:
    """The command's config, with every key it requires set."""
    cfg = load_config(args.config, args.set)
    _require(cfg, required, args.command)
    return cfg


def cmd_synth(args) -> None:
    records, pairs = synth.generate(args.relations, args.pairs, args.sentences, args.seed, args.out_dir)
    print(f"wrote {records} records, {pairs} pairs to {args.out_dir}")


def cmd_extract(args) -> None:
    cfg = _cfg(args, "corpus")
    instances = stage_extract(cfg.corpus, args.out)
    print(f"extracted {len(instances)} paths to {args.out}")


def cmd_train(args) -> None:
    cfg = _cfg(args)
    losses = stage_train(cfg, args.paths_file, args.out_checkpoint, args.log)
    if losses:
        print(f"trained {cfg.epochs} epochs; first loss {losses[0]:.4f}, last loss {losses[-1]:.4f}")
    else:
        print("trained 0 epochs; wrote initialized parameters")


def cmd_encode(args) -> None:
    vectors = stage_encode(args.checkpoint, args.paths_file, args.out)
    print(f"encoded {len(vectors)} pairs to {args.out}")


def cmd_cluster(args) -> None:
    cfg = _cfg(args)
    _, cut = stage_cluster(args.vectors, cfg.k_clusters, args.out, args.centroids)
    print(f"cut dendrogram into {cut['k']} clusters; assignments in {args.out}")


def cmd_label(args) -> None:
    cfg = _cfg(args)
    _require(cfg, ["embeddings"] if cfg.method == "wvs" else [], args.command)
    labels = stage_label(args.clusters, args.paths_file, cfg.embeddings, cfg.method, cfg.top_n, cfg.stopwords, args.out)
    print(f"labeled {len(labels)} clusters to {args.out}")


def cmd_evaluate(args) -> None:
    cfg = _cfg(args, "gold", "embeddings")
    ri, scores = stage_evaluate(args.clusters, args.labels, cfg.gold, cfg.embeddings, args.out)
    for s in scores:
        print(f"{s.relation}: recall {s.recall:.3f} precision {s.precision:.3f} f1 {s.f1:.3f}")
    print(f"rand_index: {ri:.4f}")


def cmd_pipeline(args) -> None:
    cfg = _cfg(args)
    out = run_pipeline(cfg)
    print(f"pipeline complete; artifacts in {out}")


def _say(kind: str, message) -> None:
    """One stderr line: a line break that the message quotes from an input is escaped."""
    print(f"{kind}: {message}".replace("\r", "\\r").replace("\n", "\\n"), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # A warning is one line, without the source it came from. numpy's
        # floating-point warnings are off: a non-finite result is refused, as
        # one error, by the check or the writer that meets it.
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.showwarning = lambda message, *_: _say("warning", message)
            args.func(args)
    except ValidationError as exc:
        _say("error", exc)
        return 2
    except NumericError as exc:
        _say("numeric error", exc)
        return 3
    return 0
