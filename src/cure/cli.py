"""Command-line entry point.

Subcommands: synth, extract-paths, train, encode, cluster, label, evaluate,
and pipeline (which chains extract-paths through evaluate and writes a
manifest). Configuration is a flat "key = value" file; --set overrides win
over file values. Exit codes: 0 success, 2 validation error, 3
runtime/numeric error.
"""

from __future__ import annotations

import argparse
import difflib
import hashlib
import json
import sys
import time
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, TypeVar

import numpy as np

from . import __version__, cluster as clustering, metrics, model as modeling, synth
from .autodiff import read_checkpoint, write_atomic, write_checkpoint
from .corpus import parse_corpus
from .errors import CureError, NumericError, ValidationError, reading
from .labeling import candidate_set, cw_label, load_stopwords, match_to_gold, wvs_label, LabelCandidates
from .model import ModelConfig, ModelParams, PathIds, paths_to_ids
from .paths import SspTriple, extract_instances, group_pairs
from .vocab import Vocab, build_vocab, load_pretrained

T = TypeVar("T")


@dataclass
class RunConfig(ModelConfig):
    """Every config key: the model and training keys of ModelConfig, then the
    inputs, outputs and the clustering, labeling and vocabulary settings."""

    corpus: str = ""
    embeddings: str = ""
    gold: str = ""
    out_dir: str = ""
    stopwords: str = ""  # empty = packaged list
    method: str = "wvs"
    top_n: int = 3
    k_clusters: int = 4
    min_paths: int = 2
    min_freq: int = 2

    def model_config(self) -> ModelConfig:
        return ModelConfig(**{f.name: getattr(self, f.name) for f in fields(ModelConfig)})


_CONFIG_KEYS = [f.name for f in fields(RunConfig)]


def _coerce(key: str, value: str):
    default = getattr(RunConfig(), key)
    if isinstance(default, int):
        try:
            return int(value)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: expected integer, got {value!r}") from exc
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError as exc:
            raise ValidationError(f"config key {key!r}: expected number, got {value!r}") from exc
    return value


def _set_key(cfg: RunConfig, key: str, value: str) -> None:
    if key not in _CONFIG_KEYS:
        hint = difflib.get_close_matches(key, _CONFIG_KEYS, n=1)
        suffix = f" (did you mean {hint[0]!r}?)" if hint else ""
        raise ValidationError(f"unknown config key {key!r}{suffix}")
    setattr(cfg, key, _coerce(key, value))


def load_config(path: str | None, overrides: list[str] | None = None) -> RunConfig:
    """Defaults, then file values, then key=value overrides."""
    cfg = RunConfig()
    if path:
        with reading(path, "config") as fh:
            text = fh.read()
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(f"config line {lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            _set_key(cfg, key.strip(), value.strip())
    for item in overrides or []:
        if "=" not in item:
            raise ValidationError(f"override {item!r}: expected KEY=VALUE")
        key, _, value = item.partition("=")
        _set_key(cfg, key.strip(), value.strip())
    if cfg.method not in ("wvs", "cw"):
        raise ValidationError(f"config method must be 'wvs' or 'cw', got {cfg.method!r}")
    cfg.model_config()  # ModelConfig's checks, before any stage writes a file
    return cfg


def _require(cfg: RunConfig, keys: list[str], command: str) -> None:
    for key in keys:
        if not getattr(cfg, key):
            raise ValidationError(f"{command}: required config key {key!r} is not set")


# ---------------------------------------------------------------------------
# File helpers
# ---------------------------------------------------------------------------


def _read_jsonl(path: str | Path) -> list[dict]:
    out = []
    with reading(path, "file") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                out.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON ({exc.msg})") from exc
    return out


def _write_jsonl(path: str | Path, records: list[dict]) -> None:
    write_atomic(path, "".join(json.dumps(record) + "\n" for record in records))


def _read_records(path: str | Path, what: str, parse: Callable[[dict], T]) -> list[T]:
    """parse() applied to every record of a JSONL file; a record it cannot
    read (missing key, wrong type) is a ValidationError naming file and record."""
    out = []
    for i, rec in enumerate(_read_jsonl(path), start=1):
        try:
            out.append(parse(rec))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            raise ValidationError(f"{path}: record {i}: malformed {what} ({exc!r})") from exc
    return out


def _pair(rec: dict) -> tuple[str, str]:
    first, second = rec["pair"]
    return str(first), str(second)


def read_path_instances(path: str | Path) -> list[tuple[tuple[str, str], SspTriple]]:
    return _read_records(
        path,
        "path instance",
        lambda rec: (
            _pair(rec),
            SspTriple(
                words=tuple(map(str, rec["words"])),
                deps=tuple(map(str, rec["deps"])),
                poss=tuple(map(str, rec["poss"])),
            ),
        ),
    )


def _read_assignments(path: str | Path) -> list[tuple[tuple[str, str], int]]:
    return _read_records(path, "cluster assignment", lambda rec: (_pair(rec), int(rec["cluster"])))


# ---------------------------------------------------------------------------
# Stage implementations (shared by subcommands and `pipeline`)
# ---------------------------------------------------------------------------


def stage_extract(corpus_path: str, out_path: str) -> int:
    sentences = parse_corpus(corpus_path)
    instances = extract_instances(sentences)
    _write_jsonl(
        out_path,
        [
            {"pair": list(pair), "words": list(t.words), "deps": list(t.deps), "poss": list(t.poss)}
            for pair, t in instances
        ],
    )
    return len(instances)


def stage_train(cfg: RunConfig, paths_file: str, checkpoint_path: str, log_path: str | None) -> list[float]:
    instances = read_path_instances(paths_file)
    groups = group_pairs(instances, min_paths=cfg.min_paths)
    if not groups:
        raise ValidationError(f"no pair has at least {cfg.min_paths} paths; nothing to train on")
    vocabs = build_vocab((t for _, t in instances), min_freq=cfg.min_freq)
    mcfg = cfg.model_config()
    prepared = [(g.pair, paths_to_ids(g, vocabs, mcfg.n_l)) for g in groups]
    result = modeling.train(prepared, mcfg, n_words=len(vocabs[0]), n_deps=len(vocabs[1]), n_pos=len(vocabs[2]))
    meta = {
        "config": asdict(mcfg),
        "vocab": {
            "words": list(vocabs[0].symbols),
            "deps": list(vocabs[1].symbols),
            "poss": list(vocabs[2].symbols),
        },
    }
    # Written once, after training: a run that fails or is interrupted leaves
    # the previous checkpoint as it was.
    write_checkpoint(checkpoint_path, result.params.arrays(), meta)
    if log_path:
        rows = "".join(f"{epoch},{loss!r}\n" for epoch, loss in enumerate(result.epoch_losses, start=1))
        write_atomic(log_path, "epoch,loss\n" + rows)
    return result.epoch_losses


def _load_model(checkpoint_path: str) -> tuple[ModelParams, tuple, ModelConfig]:
    if not Path(checkpoint_path).exists():
        raise ValidationError(f"checkpoint not found: {checkpoint_path}")
    meta, arrays = read_checkpoint(checkpoint_path)
    try:
        mcfg = ModelConfig(**meta["config"])
        vocabs = tuple(Vocab(tuple(map(str, meta["vocab"][key]))) for key in ("words", "deps", "poss"))
    except (KeyError, TypeError, ValidationError) as exc:
        raise ValidationError(f"{checkpoint_path}: malformed checkpoint metadata ({exc!r})") from exc
    params = ModelParams(mcfg, len(vocabs[0]), len(vocabs[1]), len(vocabs[2]), None)
    params.load_arrays(arrays)
    # Checked here rather than on the outputs: an infinite weight can saturate
    # a gate to exactly 0 or 1 and still give finite vectors, and encoding
    # never reads the decoder's weights.
    if not np.isfinite(params.flat).all():
        name = next(name for name, arr in params.arrays().items() if not np.isfinite(arr).all())
        raise NumericError(f"{checkpoint_path}: parameter {name!r} holds a non-finite value")
    return params, vocabs, mcfg


def stage_encode(checkpoint_path: str, paths_file: str, out_path: str) -> int:
    params, vocabs, mcfg = _load_model(checkpoint_path)
    instances = read_path_instances(paths_file)
    groups = group_pairs(instances, min_paths=1)
    ids = [paths_to_ids(group, vocabs, mcfg.n_l) for group in groups]
    encodings = modeling.encode_distinct(params, [p for paths in ids for p in paths])
    # Pairs with the same path-id sequence have bit-identical vectors (the
    # sum runs in path order), so each sequence's vector is computed and
    # formatted once; every line still equals json.dumps of its record.
    vector_json: dict[tuple[PathIds, ...], str] = {}
    lines = []
    for group, paths in zip(groups, ids):
        key = tuple(paths)
        if key not in vector_json:
            vector = modeling.infer_relation_vector(params, paths, encodings)
            if not np.all(np.isfinite(vector)):
                raise NumericError(f"pair {group.pair}: non-finite relation vector")
            vector_json[key] = json.dumps(vector.tolist())
        lines.append(f'{{"pair": {json.dumps(list(group.pair))}, "vector": {vector_json[key]}}}\n')
    write_atomic(out_path, "".join(lines))
    return len(lines)


def _finite_vector(values) -> np.ndarray:
    vector = np.array(values, dtype=np.float64)
    if not np.isfinite(vector).all():
        raise ValueError("vector holds a non-finite value")
    return vector


def stage_cluster(vectors_file: str, k: int, out_path: str, centroids_path: str) -> dict:
    """Cluster the vectors and cut at k. Returns the cut's summary for the
    manifest: k and the distances of the last merge kept (merge n-k) and of
    the first merge undone (merge n-k+1), None where there is no such merge."""
    records = _read_records(vectors_file, "relation vector", lambda rec: (_pair(rec), _finite_vector(rec["vector"])))
    pairs = [pair for pair, _ in records]
    vectors = [vector for _, vector in records]
    dendrogram = clustering.hac(vectors)
    clusters = clustering.cut(dendrogram, k)
    pair_cluster: dict[int, int] = {}
    for c in clusters:
        for member in c.members:
            pair_cluster[member] = c.id
    _write_jsonl(out_path, [{"cluster": pair_cluster[i], "pair": list(p)} for i, p in enumerate(pairs)])
    _write_jsonl(
        centroids_path,
        [{"cluster": c.id, "centroid": [float(v) for v in c.centroid]} for c in clusters],
    )
    merges, n = dendrogram.merges, dendrogram.n
    return {
        "k": len(clusters),
        "last_kept_merge_distance": merges[n - k - 1].distance if k < n else None,
        "first_undone_merge_distance": merges[n - k].distance if k > 1 else None,
    }


def stage_label(
    clusters_file: str,
    paths_file: str,
    embeddings_file: str,
    method: str,
    top_n: int,
    stopwords_path: str,
    out_path: str,
) -> int:
    assignments = _read_assignments(clusters_file)
    instances = read_path_instances(paths_file)
    stopwords = load_stopwords(stopwords_path or None)
    vectors = load_pretrained(embeddings_file) if method == "wvs" else None

    paths_by_pair: dict[tuple[str, str], list[tuple[str, ...]]] = {}
    for pair, triple in instances:
        paths_by_pair.setdefault(pair, []).append(triple.words)

    members: dict[int, list[tuple[str, str]]] = {}
    for pair, cluster_id in assignments:
        members.setdefault(cluster_id, []).append(pair)

    records = []
    for cluster_id in sorted(members):
        word_paths = []
        for pair in members[cluster_id]:
            word_paths.extend(paths_by_pair.get(pair, []))
        counts = candidate_set(word_paths, stopwords)
        label = wvs_label(counts, vectors) if method == "wvs" else cw_label(counts)
        records.append({"cluster": cluster_id, "labels": [[w, float(s)] for w, s in label.top(top_n)]})
    _write_jsonl(out_path, records)
    return len(records)


def stage_evaluate(
    clusters_file: str,
    labels_file: str,
    gold_file: str,
    embeddings_file: str,
    out_path: str,
) -> tuple[float, list[metrics.RelationScore]]:
    assignments = _read_assignments(clusters_file)
    label_records = _read_records(
        labels_file,
        "cluster label",
        lambda rec: (
            int(rec["cluster"]),
            LabelCandidates(candidates=tuple((str(w), float(s)) for w, s in rec["labels"])),
        ),
    )
    gold = dict(
        _read_records(gold_file, "gold relation", lambda rec: (_pair(rec), tuple(map(str, rec["relations"]))))
    )
    vectors = load_pretrained(embeddings_file)

    relation_names = sorted({r for rels in gold.values() for r in rels})
    missing = [r for r in relation_names if r not in vectors]
    if missing:
        raise ValidationError(f"gold relation names without embedding vectors: {missing}")
    gold_vectors = [(name, vectors[name]) for name in relation_names]

    cluster_relation: dict[int, str] = {}
    for cluster_id, label in label_records:
        cluster_relation[cluster_id] = match_to_gold(label, gold_vectors, vectors)

    predicted_relation: dict[tuple[str, str], str] = {}
    predicted_cluster: dict[tuple[str, str], int] = {}
    for pair, cluster_id in assignments:
        if cluster_id not in cluster_relation:
            raise ValidationError(f"cluster {cluster_id} has no label record")
        predicted_cluster[pair] = cluster_id
        predicted_relation[pair] = cluster_relation[cluster_id]

    unknown = [p for p in predicted_cluster if p not in gold]
    if unknown:
        raise ValidationError(f"pairs missing from gold file: {sorted(unknown)[:5]}")

    gold_partition = {p: gold[p] for p in predicted_cluster}
    ri = metrics.rand_index(predicted_cluster, gold_partition)
    scores = metrics.prf1(predicted_relation, gold)

    rows = [f"{s.relation},{s.recall!r},{s.precision!r},{s.f1!r}\n" for s in scores]
    write_atomic(out_path, "relation,recall,precision,f1\n" + "".join(rows) + f"rand_index,{ri!r}\n")
    return ri, scores


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run_pipeline(cfg: RunConfig) -> Path:
    """extract-paths > train > encode > cluster > label > evaluate.

    Every stage artifact lands in cfg.out_dir; manifest.json records the
    seed and per-stage output hashes and timings, and for the cluster stage
    the merge distances on either side of the cut.
    """
    _require(cfg, ["corpus", "embeddings", "gold", "out_dir"], "pipeline")
    for key in ("corpus", "embeddings", "gold"):
        if not Path(getattr(cfg, key)).exists():
            raise ValidationError(f"pipeline: config {key!r} points to missing file {getattr(cfg, key)!r}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    paths_file = out / "paths.jsonl"
    checkpoint = out / "model.ckpt"
    loss_log = out / "loss_log.csv"
    vectors_file = out / "vectors.jsonl"
    clusters_file = out / "clusters.jsonl"
    centroids_file = out / "centroids.jsonl"
    labels_file = out / "labels.jsonl"
    scores_file = out / "scores.csv"

    stages = [
        ("extract-paths", lambda: stage_extract(cfg.corpus, str(paths_file)), [paths_file]),
        (
            "train",
            lambda: stage_train(cfg, str(paths_file), str(checkpoint), str(loss_log)),
            [checkpoint, loss_log],
        ),
        ("encode", lambda: stage_encode(str(checkpoint), str(paths_file), str(vectors_file)), [vectors_file]),
        (
            "cluster",
            lambda: stage_cluster(str(vectors_file), cfg.k_clusters, str(clusters_file), str(centroids_file)),
            [clusters_file, centroids_file],
        ),
        (
            "label",
            lambda: stage_label(
                str(clusters_file), str(paths_file), cfg.embeddings, cfg.method, cfg.top_n,
                cfg.stopwords, str(labels_file),
            ),
            [labels_file],
        ),
        (
            "evaluate",
            lambda: stage_evaluate(str(clusters_file), str(labels_file), cfg.gold, cfg.embeddings, str(scores_file)),
            [scores_file],
        ),
    ]

    manifest = {"seed": cfg.seed, "stages": []}
    for name, run, outputs in stages:
        started = time.perf_counter()
        try:
            result = run()
        except CureError as exc:
            raise type(exc)(f"stage {name!r} failed: {exc}") from exc
        entry = {
            "name": name,
            "seconds": round(time.perf_counter() - started, 3),
            "outputs": {p.name: _sha256(p) for p in outputs},
        }
        if name == "cluster":
            entry["cut"] = result
        manifest["stages"].append(entry)
    write_atomic(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return out


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def _config_epilog() -> str:
    lines = ["config keys and defaults:"]
    for f in fields(RunConfig):
        lines.append(f"  {f.name} = {f.default!r}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cure",
        description="Unsupervised relation extraction over dependency-parsed text.",
        epilog=_config_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"cure {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def with_config(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override a config key")

    p = sub.add_parser("synth", help="generate a synthetic corpus with planted relations")
    p.add_argument("--relations", type=int, default=4)
    p.add_argument("--pairs", type=int, default=25)
    p.add_argument("--sentences", type=int, default=3)
    p.add_argument("--seed", type=int, default=13)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("extract-paths", help="extract entity-pair shortest paths from a corpus")
    with_config(p)
    p.add_argument("--corpus", help="corpus JSONL file (default: config key 'corpus')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train the path-prediction encoder-decoder")
    with_config(p)
    p.add_argument("--paths-file", required=True)
    p.add_argument("--out-checkpoint", required=True)
    p.add_argument("--log", help="per-epoch loss CSV")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("encode", help="relation vectors for every entity pair")
    with_config(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--paths-file", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("cluster", help="agglomerative clustering of relation vectors")
    with_config(p)
    p.add_argument("--vectors", required=True)
    p.add_argument("--k", type=int, help="cluster count (default: config key 'k_clusters')")
    p.add_argument("--out", required=True)
    p.add_argument("--centroids", help="centroid output file (default: <out>.centroids.jsonl)")
    p.set_defaults(func=cmd_cluster)

    p = sub.add_parser("label", help="relation words for each cluster")
    with_config(p)
    p.add_argument("--clusters", required=True)
    p.add_argument("--paths-file", required=True)
    p.add_argument("--embeddings", help="pretrained vector file (default: config key 'embeddings')")
    p.add_argument("--method", choices=("wvs", "cw"), help="default: config key 'method'")
    p.add_argument("--top", type=int, help="candidates to keep (default: config key 'top_n')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("evaluate", help="score clusters against a gold relation file")
    with_config(p)
    p.add_argument("--clusters", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--gold", help="gold JSONL file (default: config key 'gold')")
    p.add_argument("--embeddings", help="pretrained vector file (default: config key 'embeddings')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("pipeline", help="run all stages end to end")
    with_config(p)
    p.set_defaults(func=cmd_pipeline)

    return parser


def _cfg(args) -> RunConfig:
    return load_config(getattr(args, "config", None), getattr(args, "set", []))


def cmd_synth(args) -> int:
    result = synth.generate(args.relations, args.pairs, args.sentences, args.seed, args.out_dir)
    print(f"wrote {result.record_count} records, {result.pair_count} pairs to {args.out_dir}")
    return 0


def cmd_extract(args) -> int:
    cfg = _cfg(args)
    corpus = args.corpus or cfg.corpus
    if not corpus:
        raise ValidationError("extract-paths: no corpus given (flag --corpus or config key 'corpus')")
    count = stage_extract(corpus, args.out)
    print(f"extracted {count} paths to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _cfg(args)
    losses = stage_train(cfg, args.paths_file, args.out_checkpoint, args.log)
    if losses:
        print(f"trained {cfg.epochs} epochs; first loss {losses[0]:.4f}, last loss {losses[-1]:.4f}")
    else:
        print("trained 0 epochs; wrote initialized parameters")
    return 0


def cmd_encode(args) -> int:
    count = stage_encode(args.checkpoint, args.paths_file, args.out)
    print(f"encoded {count} pairs to {args.out}")
    return 0


def cmd_cluster(args) -> int:
    cfg = _cfg(args)
    k = args.k if args.k is not None else cfg.k_clusters
    centroids = args.centroids or f"{args.out}.centroids.jsonl"
    cut = stage_cluster(args.vectors, k, args.out, centroids)
    print(f"cut dendrogram into {cut['k']} clusters; assignments in {args.out}")
    return 0


def cmd_label(args) -> int:
    cfg = _cfg(args)
    embeddings = args.embeddings or cfg.embeddings
    method = args.method or cfg.method
    top_n = args.top if args.top is not None else cfg.top_n
    if method == "wvs" and not embeddings:
        raise ValidationError("label: method 'wvs' needs --embeddings or config key 'embeddings'")
    count = stage_label(args.clusters, args.paths_file, embeddings, method, top_n, cfg.stopwords, args.out)
    print(f"labeled {count} clusters to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _cfg(args)
    gold = args.gold or cfg.gold
    embeddings = args.embeddings or cfg.embeddings
    if not gold:
        raise ValidationError("evaluate: no gold file given (flag --gold or config key 'gold')")
    if not embeddings:
        raise ValidationError("evaluate: no embeddings given (flag --embeddings or config key 'embeddings')")
    ri, scores = stage_evaluate(args.clusters, args.labels, gold, embeddings, args.out)
    for s in scores:
        print(f"{s.relation}: recall {s.recall:.3f} precision {s.precision:.3f} f1 {s.f1:.3f}")
    print(f"rand_index: {ri:.4f}")
    return 0


def cmd_pipeline(args) -> int:
    cfg = _cfg(args)
    out = run_pipeline(cfg)
    print(f"pipeline complete; artifacts in {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except CureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
