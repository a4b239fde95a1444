"""End-to-end verification suite.

One test per acceptance criterion, each printing a pass/fail line (run with
`pytest -s tests/test_acceptance.py` to see the lines as they happen). The
three training-dependent criteria and the determinism criterion share one
pair of full pipeline runs via a session fixture.
"""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import cure
import graph_oracle
from cure import metrics
from cure.cli import RunConfig, run_pipeline
from cure.cluster import hac
from cure.labeling import cw_label, match_to_gold, wvs_label
from cure.model import ModelConfig, ModelParams, PathIds
from cure.paths import representative_token, shortest_path
from cure.synth import generate
from cure.vocab import load_pretrained

from helpers import (
    bfs_tree_path,
    brute_force_agglomeration,
    brute_force_rand_index,
    decimal_wvs_ranking,
    make_reagan_sentence,
    max_rel_error,
    random_tree_sentence,
    training_loss,
)

ACCEPT_SEED = 13

# Model settings for the synthetic-corpus run; the corpus shape (4 relations,
# 25 pairs, 3 sentences per pair) and the 30-epoch budget are fixed.
ACCEPT_CONFIG = dict(
    k_clusters=4,
    n_h=16,
    n_h2=16,
    n_g=48,
    n_l=6,
    d_w=24,
    d_d=8,
    d_p=8,
    learning_rate=0.2,
    epochs=30,
    batch_size=1,
    seed=ACCEPT_SEED,
)

# The gradient suite's stated configuration (hidden 4/4, decoder 8, path
# length 5), also used for the zero-parameter loss.
SMALL_CONFIG = ModelConfig(
    n_h=4, n_h2=4, n_g=8, n_l=5, d_w=6, d_d=3, d_p=3,
    max_input_paths=8, learning_rate=0.1, epochs=1, batch_size=1, seed=7,
)


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}{suffix}"


@pytest.fixture(scope="session")
def pipeline_runs(tmp_path_factory) -> tuple[Path, Path, Path]:
    """Synthetic corpus plus two identical-seed pipeline runs."""
    root = tmp_path_factory.mktemp("acceptance")
    data = root / "data"
    generate(4, 25, 3, seed=ACCEPT_SEED, out_dir=data)
    base = dict(
        corpus=str(data / "corpus.jsonl"),
        embeddings=str(data / "embeddings.txt"),
        gold=str(data / "gold.jsonl"),
        **ACCEPT_CONFIG,
    )
    out_a = run_pipeline(RunConfig(out_dir=str(root / "out_a"), **base))
    out_b = run_pipeline(RunConfig(out_dir=str(root / "out_b"), **base))
    return data, out_a, out_b


def _jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]


def test_golden_compound_entity_paths():
    """The compound-entity example sentence yields exactly the expected
    dependency, POS, and word paths."""
    started = time.perf_counter()
    path = shortest_path(make_reagan_sentence())
    ok = (
        path.deps == ("nsubj", "ROOT", "prep", "pobj", "prep", "pobj")
        and path.poss == ("PROPN", "VERB", "ADP", "NOUN", "ADP", "PROPN")
        and path.words == ("Reagan", "served", "as", "president", "of", "States")
    )
    _report("golden-compound-entity-path", ok, f"{time.perf_counter() - started:.2f}s")


def test_ssp_equals_bfs_oracle_on_200_trees():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    failures = 0
    for trial in range(200):
        sentence = random_tree_sentence(rng, int(rng.integers(2, 16)), f"s{trial}")
        src = representative_token(sentence, sentence.subject)
        dst = representative_token(sentence, sentence.object)
        expected = [sentence.tokens[i].text for i in bfs_tree_path(sentence, src, dst)]
        if list(shortest_path(sentence).words) != expected:
            failures += 1
    _report("ssp-bfs-oracle", failures == 0, f"200 trees, {failures} mismatches, {time.perf_counter() - started:.2f}s")


def test_gradient_suite_end_to_end():
    """Finite-difference check of every parameter tensor on the stated
    configuration: hidden 4/4, decoder 8, path length 5, vocab 20, two
    encoder input paths."""
    started = time.perf_counter()
    params = ModelParams(SMALL_CONFIG, n_words=20, n_deps=6, n_pos=6, rng=np.random.default_rng(71))
    group = [
        PathIds((3, 11, 7, 2, 15), (2, 4, 1, 3, 0), (1, 2, 3, 4, 0), 5),
        PathIds((3, 9, 7, 5, 15), (1, 2, 4, 3, 0), (2, 1, 3, 4, 0), 5),
        PathIds((3, 12, 6, 15, 0), (2, 3, 4, 0, 0), (1, 3, 2, 0, 0), 4),
    ]

    grads = params.zeros_like()
    training_loss(params, group, held_out=2, grads=grads)  # two input paths
    tensors = params.arrays()
    fd = graph_oracle.finite_difference(lambda: training_loss(params, group, held_out=2), tensors)
    worst_name, worst = "", 0.0
    for name, grad in grads.arrays().items():
        err = max_rel_error(grad, fd[name])
        if err > worst:
            worst_name, worst = name, err
    _report(
        "gradient-suite",
        worst < 1e-3,
        f"max rel error {worst:.2e} at {worst_name or 'n/a'}, "
        f"{len(tensors)} tensors, {time.perf_counter() - started:.1f}s",
    )


def test_zero_parameter_loss_is_log_vocab():
    params = ModelParams(SMALL_CONFIG, n_words=20, n_deps=6, n_pos=6, rng=np.random.default_rng(72))
    params.flat[...] = 0.0
    group = [PathIds((1, 2, 3, 4, 5), (1, 1, 1, 1, 1), (1, 1, 1, 1, 1), 5)] * 2
    loss = training_loss(params, group, held_out=1)
    error = abs(loss - math.log(20))
    _report("zero-parameter-loss", error < 1e-12, f"|loss - ln 20| = {error:.2e}")


def test_training_progress(pipeline_runs):
    """Mean loss of epoch 30 is under half the mean loss of epoch 1."""
    _, out_a, _ = pipeline_runs
    rows = (out_a / "loss_log.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    losses = [float(row.split(",")[1]) for row in rows]
    ratio = losses[-1] / losses[0]
    ok = len(losses) == 30 and ratio < 0.5
    _report("training-progress", ok, f"epoch1 {losses[0]:.3f} epoch30 {losses[-1]:.3f} ratio {ratio:.3f}")


def test_planted_relation_recovery(pipeline_runs):
    """Clusters cut at k=4 recover the planted relations (rand index >= 0.85)."""
    data, out_a, _ = pipeline_runs
    gold = {tuple(rec["pair"]): rec["relations"][0] for rec in _jsonl(data / "gold.jsonl")}
    predicted = {tuple(rec["pair"]): rec["cluster"] for rec in _jsonl(out_a / "clusters.jsonl")}
    ri = metrics.rand_index(predicted, {pair: gold[pair] for pair in predicted})
    _report("planted-relation-recovery", ri >= 0.85, f"rand index {ri:.4f}")


@pytest.fixture(scope="module")
def varied_counts(tmp_path_factory) -> Path:
    """A `cure synth --sentences 6` corpus in which each pair keeps its first
    1, 2, 3 or 6 sentences, drawn per pair by a seeded generator; the gold
    file and embeddings are synth's, since every pair keeps a sentence."""
    data = tmp_path_factory.mktemp("varied") / "data"
    generate(4, 25, 6, seed=ACCEPT_SEED, out_dir=data)
    rng = np.random.default_rng(ACCEPT_SEED)
    keep: dict[tuple[str, str], int] = {}
    seen: Counter = Counter()
    lines = []
    for rec in _jsonl(data / "corpus.jsonl"):
        pair = (rec["subject"]["canonical"], rec["object"]["canonical"])
        if pair not in keep:
            keep[pair] = int(rng.choice([1, 2, 3, 6]))
        seen[pair] += 1
        if seen[pair] <= keep[pair]:
            lines.append(json.dumps(rec) + "\n")
    assert sorted(set(keep.values())) == [1, 2, 3, 6] and set(seen.values()) == {6}
    (data / "corpus.jsonl").write_text("".join(lines), encoding="utf-8")
    return data


@pytest.mark.parametrize("epochs", [30, 0])
def test_planted_relation_recovery_with_varied_sentence_counts(varied_counts, tmp_path, epochs):
    """A pair's relation vector does not grow with its sentence count: with
    1 to 6 sentences per pair, clusters cut at k=4 still recover the planted
    relations (rand index >= 0.85), trained and untrained."""
    data = varied_counts
    out = run_pipeline(RunConfig(
        corpus=str(data / "corpus.jsonl"), embeddings=str(data / "embeddings.txt"), gold=str(data / "gold.jsonl"),
        out_dir=str(tmp_path), **{**ACCEPT_CONFIG, "epochs": epochs},
    ))
    gold = {tuple(rec["pair"]): rec["relations"][0] for rec in _jsonl(data / "gold.jsonl")}
    predicted = {tuple(rec["pair"]): rec["cluster"] for rec in _jsonl(out / "clusters.jsonl")}
    ri = metrics.rand_index(predicted, gold)
    _report(f"planted-relation-recovery-varied-counts-{epochs}-epochs", ri >= 0.85, f"rand index {ri:.4f}")


def test_labeling_recovery(pipeline_runs):
    """Chosen cluster labels map back to the majority planted relation for
    at least 3 of the 4 clusters."""
    data, out_a, _ = pipeline_runs
    gold = {tuple(rec["pair"]): rec["relations"][0] for rec in _jsonl(data / "gold.jsonl")}
    vectors = load_pretrained(data / "embeddings.txt")
    gold_names = sorted({r for r in gold.values()})
    gold_vectors = [(name, vectors[name]) for name in gold_names]

    members: dict[int, list[tuple[str, str]]] = {}
    for rec in _jsonl(out_a / "clusters.jsonl"):
        members.setdefault(rec["cluster"], []).append(tuple(rec["pair"]))

    correct = 0
    details = []
    for rec in _jsonl(out_a / "labels.jsonl"):
        cluster_id = rec["cluster"]
        label = [(w, s) for w, s in rec["labels"]]
        mapped = match_to_gold(label, gold_vectors, vectors)
        tally: dict[str, int] = {}
        for pair in members[cluster_id]:
            tally[gold[pair]] = tally.get(gold[pair], 0) + 1
        majority = max(sorted(tally), key=lambda r: tally[r])
        details.append(f"c{cluster_id}:{label[0][0]}->{mapped}|{majority}")
        correct += mapped == majority
    _report("labeling-recovery", correct >= 3, f"{correct}/4 correct; " + " ".join(details))


def test_hac_matches_brute_force_on_100_instances():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    failures = 0
    for _ in range(100):
        n = int(rng.integers(2, 9))
        points = rng.uniform(-4, 4, size=(n, int(rng.integers(1, 5))))
        got = [(m.a, m.b) for m in hac(list(points)).merges]
        if got != brute_force_agglomeration(points.tolist()):
            failures += 1
    _report("hac-brute-force", failures == 0, f"100 trials, {failures} mismatches, {time.perf_counter() - started:.2f}s")


def test_rand_index_matches_brute_force_on_50_pairs():
    started = time.perf_counter()
    rng = np.random.default_rng(89)
    failures = 0
    for _ in range(50):
        predicted = {i: int(rng.integers(1, 7)) for i in range(30)}
        gold = {i: int(rng.integers(1, 5)) for i in range(30)}
        if metrics.rand_index(predicted, gold) != brute_force_rand_index(predicted, gold):
            failures += 1
    _report("rand-index-brute-force", failures == 0, f"50 partition pairs, {failures} mismatches, {time.perf_counter() - started:.2f}s")


def test_wvs_matches_extended_precision_on_100_sets():
    started = time.perf_counter()
    rng = np.random.default_rng(90)
    failures = 0
    for _ in range(100):
        n_words = int(rng.integers(2, 6))
        words = [f"w{i}" for i in range(n_words)]
        vectors = {w: rng.uniform(-1, 1, size=3) for w in words}
        counts = {w: int(rng.integers(1, 12)) for w in words}
        got = [w for w, _ in wvs_label(counts, vectors)]
        expected = decimal_wvs_ranking(counts, {w: list(map(float, v)) for w, v in vectors.items()})
        if got != expected:
            failures += 1
    _report("wvs-extended-precision", failures == 0, f"100 candidate sets, {failures} mismatches, {time.perf_counter() - started:.2f}s")


def test_wvs_vs_cw_contrast():
    """A generic high-count word tops the common-words ranking while the
    distinctive trigger tops the vector-similarity ranking."""
    vectors = {
        "help": np.array([0.0, 0.0, 1.0, 0.0]),
        "states": np.array([0.0, 0.3, 0.954, 0.0]),
        "capital": np.array([1.0, 0.0, 0.0, 0.0]),
    }
    counts = {"help": 5, "states": 4, "capital": 3}
    cw = cw_label(counts)[0][0]
    wvs = wvs_label(counts, vectors)[0][0]
    _report("wvs-vs-cw-contrast", cw == "help" and wvs == "capital", f"cw={cw} wvs={wvs}")


def test_within_relation_vectors_closer_than_across(pipeline_runs):
    """Trained relation vectors sit closer (Euclidean) to vectors of the
    same planted relation than to vectors of other relations, on average.
    Not a reported criterion; a measured property of the same run."""
    data, out_a, _ = pipeline_runs
    gold = {tuple(rec["pair"]): rec["relations"][0] for rec in _jsonl(data / "gold.jsonl")}
    vectors = {tuple(rec["pair"]): np.array(rec["vector"]) for rec in _jsonl(out_a / "vectors.jsonl")}
    pairs = sorted(vectors)
    within, across = [], []
    for i, a in enumerate(pairs):
        for b in pairs[i + 1 :]:
            d = float(np.linalg.norm(vectors[a] - vectors[b]))
            (within if gold[a] == gold[b] else across).append(d)
    assert sum(within) / len(within) < sum(across) / len(across)


def test_pipeline_determinism(pipeline_runs):
    """Two identically-seeded pipeline runs produce byte-identical artifacts.

    The manifest is excluded: it records wall-clock stage timings. Its
    recorded artifact hashes are compared instead.
    """
    _, out_a, out_b = pipeline_runs
    names = sorted(p.name for p in out_a.iterdir() if p.name != "manifest.json")
    differing = [n for n in names if (out_a / n).read_bytes() != (out_b / n).read_bytes()]
    manifest_a = json.loads((out_a / "manifest.json").read_text())
    manifest_b = json.loads((out_b / "manifest.json").read_text())
    hashes_match = [s["outputs"] for s in manifest_a["stages"]] == [s["outputs"] for s in manifest_b["stages"]]
    _report(
        "pipeline-determinism",
        not differing and hashes_match,
        f"{len(names)} artifacts compared" + (f"; differing: {differing}" if differing else ""),
    )


def test_pipeline_determinism_across_processes(tmp_path):
    """`cure synth` then `cure pipeline --set epochs=2`, each in a fresh
    process, under two string-hash seeds write byte-identical artifacts.
    The runs above share one process and so one hash seed; an output that
    followed a set's or a dict's hash order would differ only here."""
    src = str(Path(cure.__file__).parents[1])

    def cure_cli(hash_seed: str, *argv: str) -> None:
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run([sys.executable, "-m", "cure", *argv], capture_output=True, text=True, env=env)
        assert done.returncode == 0, done.stderr

    runs = []
    for hash_seed in ("0", "1"):
        root = tmp_path / f"hash-seed-{hash_seed}"
        cure_cli(hash_seed, "synth", "--relations", "4", "--pairs", "25", "--sentences", "3",
                 "--seed", str(ACCEPT_SEED), "--out-dir", str(root / "data"))
        config = {"corpus": root / "data" / "corpus.jsonl", "embeddings": root / "data" / "embeddings.txt",
                  "gold": root / "data" / "gold.jsonl", "out_dir": root / "out", **ACCEPT_CONFIG}
        (root / "run.cfg").write_text("".join(f"{key} = {value}\n" for key, value in config.items()), encoding="utf-8")
        cure_cli(hash_seed, "pipeline", "--config", str(root / "run.cfg"), "--set", "epochs=2")
        runs.append({str(p.relative_to(root)): p for p in sorted(root.glob("*/*"))})

    first, second = runs
    names = [name for name in first if not name.endswith("manifest.json")]
    differing = [n for n in names if first[n].read_bytes() != second[n].read_bytes()]
    hashes = [[s["outputs"] for s in json.loads(run["out/manifest.json"].read_text())["stages"]] for run in runs]
    _report(
        "pipeline-determinism-across-processes",
        first.keys() == second.keys() and len(names) == 11 and not differing and hashes[0] == hashes[1],
        f"{len(names)} artifacts compared" + (f"; differing: {differing}" if differing else ""),
    )
