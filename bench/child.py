"""One benchmark process: a workload's set-up, or one timed repetition.

    python3 bench/child.py setup WORKLOAD SEED DIR RESULT_JSON [--trace]
    python3 bench/child.py run WORKLOAD SEED SETUP_DIR DIR RESULT_JSON [--trace]

`setup` writes the workload's inputs under DIR and, for a workload that
trains in its set-up, the checkpoint. `run` runs the timed part into DIR. Each
writes its measurements, artifact hashes and check results to RESULT_JSON.
With --trace every hooked cure function is timed; without it only the six
pipeline stages and their steps are (see spans.TICK_HOOKS; the end of every
training epoch is a step boundary too), and afterwards the child times the
fixed reference computation in bench/reference.py as one more stage,
`reference`, which measures the host's speed.
"""

from __future__ import annotations

import functools
import json
import math
import resource
import sys
import time
from pathlib import Path

import cure.model
from cure import cli
from cure.paths import group_pairs
import reference
from spans import STAGE_HOOKS, Tracer
from workloads import ACCEPT_MODEL, WORKLOADS, Workload, corpus_files, generate_corpus, sha256


def _config(workload: Workload, seed: int, inputs: dict[str, Path], out_dir: Path) -> cli.RunConfig:
    return cli.RunConfig(
        corpus=str(inputs["corpus"]), embeddings=str(inputs["embeddings"]), gold=str(inputs["gold"]),
        out_dir=str(out_dir), k_clusters=workload.corpus.relations, epochs=workload.epochs, seed=seed,
        **ACCEPT_MODEL,
    )


def _tick_epochs(tracer: Tracer) -> None:
    """Mark a step boundary at the end of every training epoch, from train()'s per-epoch callback."""
    train = cure.model.train

    @functools.wraps(train)
    def ticked_train(*args, on_epoch=None, **kwargs):
        def ticked_on_epoch(*epoch_args):
            tracer.tick()
            if on_epoch is not None:
                on_epoch(*epoch_args)

        return train(*args, on_epoch=ticked_on_epoch, **kwargs)

    cure.model.train = ticked_train


def _training(cfg: cli.RunConfig, paths_file: Path, loss_log: Path) -> dict:
    """Examples trained over all epochs and the last epoch's mean loss."""
    groups = group_pairs(cli.read_path_instances(paths_file), min_paths=cfg.min_paths)
    last = loss_log.read_text(encoding="utf-8").strip().splitlines()[-1]
    return {"examples_trained": len(groups) * cfg.epochs, "loss_final": float(last.split(",")[1])}


def setup(workload: Workload, seed: int, out: Path, tracer: Tracer) -> dict:
    inputs = generate_corpus(workload.corpus, seed, out / "input")
    result = {"hashes": {f"input/{p.name}": sha256(p) for p in inputs.values()}}
    if workload.train_corpus is not None:
        train_inputs = generate_corpus(workload.train_corpus, seed, out / "train-input")
        cfg = _config(workload, seed, train_inputs, out)
        paths_file, checkpoint, loss_log = out / "train-paths.jsonl", out / "model.ckpt", out / "loss_log.csv"
        cli.stage_extract(cfg.corpus, str(paths_file))
        cli.stage_train(cfg, str(paths_file), str(checkpoint), str(loss_log))
        tracer.uninstall()
        result.update(_training(cfg, paths_file, loss_log))
        for p in (*train_inputs.values(), checkpoint, loss_log):
            result["hashes"][str(p.relative_to(out))] = sha256(p)
    return result


def run(workload: Workload, seed: int, setup_dir: Path, out: Path, tracer: Tracer) -> dict:
    inputs = corpus_files(setup_dir / "input")
    cfg = _config(workload, seed, inputs, out)
    f = {name: out / name for name in (
        "paths.jsonl", "model.ckpt", "loss_log.csv", "vectors.jsonl", "clusters.jsonl",
        "centroids.jsonl", "labels.jsonl", "scores.csv",
    )}
    checkpoint = str(f["model.ckpt"] if workload.train_corpus is None else setup_dir / "model.ckpt")
    started = time.perf_counter()
    if workload.train_corpus is None:
        cli.run_pipeline(cfg)
    else:
        out.mkdir(parents=True)
        cli.stage_extract(cfg.corpus, str(f["paths.jsonl"]))
        cli.stage_encode(checkpoint, str(f["paths.jsonl"]), str(f["vectors.jsonl"]))
        cli.stage_cluster(str(f["vectors.jsonl"]), cfg.k_clusters, str(f["clusters.jsonl"]), str(f["centroids.jsonl"]))
        cli.stage_label(
            str(f["clusters.jsonl"]), str(f["paths.jsonl"]), cfg.embeddings, cfg.method, cfg.top_n,
            cfg.stopwords, str(f["labels.jsonl"]),
        )
        cli.stage_evaluate(str(f["clusters.jsonl"]), str(f["labels.jsonl"]), cfg.gold, cfg.embeddings, str(f["scores.csv"]))
    wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()

    result = {"wall_s": wall_s, "peak_rss_mb": peak_rss_mb}
    result["hashes"] = {name: sha256(path) for name, path in f.items() if path.exists()}
    if workload.train_corpus is None:
        result.update(_training(cfg, f["paths.jsonl"], f["loss_log.csv"]))
    result.update(_check(workload, inputs, f))
    result["pairs"] = sum(1 for _ in _jsonl(f["vectors.jsonl"]))
    return result


def _jsonl(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                yield json.loads(line)


def _check(workload: Workload, inputs: dict[str, Path], f: dict[str, Path]) -> dict:
    """Quality scores of the run and everything wrong with its outputs."""
    problems = []
    gold = {tuple(r["pair"]): r["relations"][0] for r in _jsonl(inputs["gold"])}
    relations = set(gold.values())

    vectors = list(_jsonl(f["vectors.jsonl"]))
    if sorted(tuple(r["pair"]) for r in vectors) != sorted(gold):
        problems.append("vectors do not cover every gold pair exactly once")
    if not all(math.isfinite(v) for r in vectors for v in r["vector"]):
        problems.append("non-finite relation vector")

    clusters = list(_jsonl(f["clusters.jsonl"]))
    if sorted(tuple(r["pair"]) for r in clusters) != sorted(gold):
        problems.append("cluster assignments do not cover every gold pair exactly once")
    cluster_ids = {r["cluster"] for r in clusters}
    if cluster_ids != set(range(workload.corpus.relations)):
        problems.append(f"expected clusters 0..{workload.corpus.relations - 1}, got {sorted(cluster_ids)}")

    labels = {r["cluster"]: r["labels"] for r in _jsonl(f["labels.jsonl"])}
    if set(labels) != cluster_ids or not all(labels.values()):
        problems.append("not every cluster has a label")

    rows = dict(line.split(",", 1) for line in f["scores.csv"].read_text(encoding="utf-8").splitlines()[1:])
    rand_index = float(rows.pop("rand_index"))
    f1 = [float(v.split(",")[2]) for v in rows.values()]
    if set(rows) != relations:
        problems.append(f"scores cover relations {sorted(rows)}, gold has {sorted(relations)}")
    if not all(0.0 <= x <= 1.0 for x in (rand_index, *f1)):
        problems.append("a score lies outside [0, 1]")
    if rand_index < workload.min_rand_index:
        problems.append(f"rand index {rand_index:.4f} below {workload.min_rand_index}")
    return {"rand_index": rand_index, "macro_f1": sum(f1) / len(f1), "problems": problems}


def main(argv: list[str]) -> int:
    traced = "--trace" in argv
    args = [a for a in argv if a != "--trace"]
    mode, workload, seed = args[0], WORKLOADS[args[1]], int(args[2])
    tracer = Tracer()
    _tick_epochs(tracer)
    if traced:
        tracer.install()
    else:
        tracer.install(STAGE_HOOKS, node_class=None)
        tracer.install_ticks()
    if mode == "setup":
        out, result_path = Path(args[3]), Path(args[4])
        result = setup(workload, seed, out, tracer)
    else:
        out, result_path = Path(args[4]), Path(args[5])
        result = run(workload, seed, Path(args[3]), out, tracer)
    tracer.uninstall()
    if not traced:
        tracer.call_stage("reference", reference.run, tracer.tick)
    result["steps"] = tracer.step_times()
    result["spans"] = [[stage, key, s] for (stage, key), s in tracer.self_s.items() if stage]
    result["counts"] = [[stage, key, c] for (stage, key), c in tracer.counts.items() if stage]
    result["counts"] += [[stage, "model.distinct_paths", len(p)] for stage, p in tracer.distinct_paths.items() if stage]
    result["absent"] = tracer.absent
    result_path.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
