"""Artifact writers and readers hold about one record in memory, and
encoding holds no forward history: each peak here is what tracemalloc sees
while one write, read or encode runs, over inputs made before it started.
Also: no writer hashes what it writes."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from cure import artifacts
from cure.model import ModelConfig, ModelParams, PathIds, encode_distinct, read_checkpoint, write_checkpoint
from cure.paths import SspTriple
from cure.vocab import PAD, UNK, Vocab

MB = 2**20


def traced_peak(run) -> int:
    """The most bytes traced at once while run() ran, its result included."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def distinct_vectors(n: int) -> dict[tuple[str, str], np.ndarray]:
    rows = np.random.default_rng(5).standard_normal((n, 192))
    return {(f"s{i}", "o"): row for i, row in enumerate(rows)}


def shared_vectors(n: int, objects: int) -> dict[tuple[str, str], np.ndarray]:
    rows = list(np.random.default_rng(6).standard_normal((objects, 192)))
    return {(f"s{i}", "o"): rows[i % objects] for i in range(n)}


def path_instances(n: int) -> list:
    path = SspTriple(("founded", "by"), ("nsubj", "prep"), ("VBN", "IN"))
    return [((f"s{i}", f"o{i}"), path) for i in range(n)]


def big_checkpoint_parts() -> tuple[ModelParams, tuple[Vocab, Vocab, Vocab]]:
    """The default config over a 20 002-word vocabulary: about 19 MB of parameters."""
    vocabs = (Vocab((PAD, UNK, *(f"w{i}" for i in range(20000)))), Vocab((PAD, UNK, "nsubj")), Vocab((PAD, UNK, "NN")))
    params = ModelParams(ModelConfig(), *map(len, vocabs), None)
    params.flat[...] = np.random.default_rng(7).standard_normal(params.flat.size)
    return params, vocabs


@pytest.mark.parametrize("make, bound", [
    pytest.param(lambda: distinct_vectors(5000), 2 * MB, id="5000 distinct vectors"),
    pytest.param(lambda: shared_vectors(5000, 30), 1 * MB, id="5000 pairs sharing 30 vectors"),
])
def test_write_vectors_streams(tmp_path, make, bound):
    path, vectors = tmp_path / "vectors.jsonl", make()
    assert traced_peak(lambda: artifacts.write_vectors(path, vectors)) <= bound
    assert path.stat().st_size > 5 * bound  # the file is far larger than what was held


def test_write_paths_streams(tmp_path):
    path, instances = tmp_path / "paths.jsonl", path_instances(20000)
    assert traced_peak(lambda: artifacts.write_paths(path, instances)) <= 1 * MB
    assert len(artifacts.read_path_instances(path)) == 20000


def test_write_checkpoint_holds_no_copy_of_the_parameters(tmp_path):
    params, vocabs = big_checkpoint_parts()
    assert params.flat.nbytes > 18 * MB
    assert traced_peak(lambda: write_checkpoint(tmp_path / "model.ckpt", params, vocabs)) <= 3 * MB


def test_read_checkpoint_reads_into_the_new_parameter_buffer(tmp_path):
    """One float64 buffer, the new ModelParams.flat, and little more."""
    params, vocabs = big_checkpoint_parts()
    path, read = tmp_path / "model.ckpt", []
    write_checkpoint(path, params, vocabs)
    assert traced_peak(lambda: read.append(read_checkpoint(path))) <= 1.35 * params.flat.nbytes
    assert read[0][0].flat.tobytes() == params.flat.tobytes()


def test_encode_keeps_one_step_of_lstm_history():
    """encode_distinct needs only the LSTM's hidden states: of its cell
    states, gates and tanh(c) it keeps one step, not n_l. With all of them
    kept (10 steps of 6 rows the size of the hidden states) the peak is
    about 9.6 times the encodings; without, about 4.1."""
    cfg = ModelConfig()
    rng = np.random.default_rng(3)
    params = ModelParams(cfg, 200, 20, 20, rng)
    paths = list(dict.fromkeys(
        PathIds(tuple(int(v) for v in rng.integers(200, size=cfg.n_l)), (2,) * cfg.n_l, (3,) * cfg.n_l, cfg.n_l)
        for _ in range(300)
    ))
    encoded = []
    peak = traced_peak(lambda: encoded.append(encode_distinct(params, paths)))
    assert len(encoded[0]) == len(paths)
    assert peak <= 6 * len(paths) * cfg.n_l * cfg.block_dim * 8


def test_no_writer_hashes(tmp_path, monkeypatch):
    def refused(*args):
        raise AssertionError("a writer hashed what it wrote")

    monkeypatch.setattr(artifacts.hashlib, "sha256", refused)
    artifacts.write_paths(tmp_path / "paths.jsonl", path_instances(3))
    artifacts.write_vectors(tmp_path / "vectors.jsonl", shared_vectors(5, 2))
    artifacts.write_clusters(tmp_path / "clusters.jsonl", {("a", "b"): 0, ("c", "d"): 1})
    artifacts.write_centroids(tmp_path / "centroids.jsonl", {0: np.ones(3)})
    artifacts.write_labels(tmp_path / "labels.jsonl", {0: [("founder", 0.5)], 1: [("born", 0.25)]})
    artifacts.write_gold(tmp_path / "gold.jsonl", {("a", "b"): ["founder"]})
    artifacts.write_scores(tmp_path / "scores.csv", [], 1.0)
    artifacts.write_loss_log(tmp_path / "loss.csv", [0.5])


def test_file_sha256_reads_in_chunks(tmp_path, monkeypatch):
    """A file longer than one chunk hashes as its whole bytes do."""
    monkeypatch.setattr(artifacts, "_HASH_CHUNK", 7)
    path = tmp_path / "f"
    path.write_bytes(bytes(range(256)) * 3)
    assert artifacts.file_sha256(path) == hashlib.sha256(path.read_bytes()).digest()
