import hashlib
import io
import itertools
import json
import math
import os
import re
import reprlib
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cure import artifacts, autodiff, cli, corpus, model, vocab
from cure.cli import RunConfig, load_config, main, run_pipeline, stage_cluster
from cure.errors import NumericError, ValidationError
from cure.model import ModelConfig, ModelParams, parameter_shapes, paths_to_ids, read_checkpoint
from cure.paths import SspTriple, group_pairs
from cure.vocab import load_pretrained, write_embeddings

from helpers import WRITERS, WriteFailed, brute_force_agglomeration, fail_writes_halfway


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture(scope="module")
def tiny_setup(tmp_path_factory):
    """A small generated corpus plus a config tuned for fast tests."""
    root = tmp_path_factory.mktemp("tiny")
    exit_code = run("synth", "--relations", "2", "--pairs", "3", "--sentences", "2", "--seed", "3", "--out-dir", str(root))
    assert exit_code == 0
    cfg = root / "run.cfg"
    cfg.write_text(
        f"""
corpus = {root}/corpus.jsonl
embeddings = {root}/embeddings.txt
gold = {root}/gold.jsonl
out_dir = {root}/out
k_clusters = 2
epochs = 2
n_h = 4
n_h2 = 4
n_g = 8
d_w = 6
d_d = 3
d_p = 3
n_l = 6
learning_rate = 0.5
seed = 3
""",
        encoding="utf-8",
    )
    return root, cfg


@pytest.fixture(scope="module")
def trained(tiny_setup, tmp_path_factory):
    """Extracted paths and a trained checkpoint of the tiny setup."""
    root, cfg = tiny_setup
    out = tmp_path_factory.mktemp("trained")
    paths, ckpt = out / "paths.jsonl", out / "model.ckpt"
    assert run("extract-paths", "--config", str(cfg), "--out", str(paths)) == 0
    assert run("train", "--config", str(cfg), "--paths-file", str(paths), "--out-checkpoint", str(ckpt),
               "--log", str(out / "loss_log.csv")) == 0
    return paths, ckpt


def _jsonl(*records) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


def write_jsonl(path: Path, records) -> Path:
    path.write_bytes(_jsonl(*records))
    return path


class TestLoadConfig:
    def test_override_beats_file(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n_l = 8\n", encoding="utf-8")
        assert load_config(str(path)).n_l == 8
        assert load_config(str(path), ["n_l=10"]).n_l == 10

    def test_unknown_key_suggests_nearest(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("n_hh = 4\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="n_h"):
            load_config(str(path))

    def test_empty_file_gives_documented_defaults(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("# nothing here\n\n", encoding="utf-8")
        assert load_config(str(path)) == RunConfig()

    def test_comments_and_spacing(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("seed=99  # trailing comment\n  epochs = 7\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.seed == 99 and cfg.epochs == 7

    def test_bad_numeric_value(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text("epochs = lots\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="epochs"):
            load_config(str(path))

    def test_bad_method(self):
        with pytest.raises(ValidationError, match="method"):
            load_config(None, ["method=wsv"])

    def test_missing_file(self):
        with pytest.raises(ValidationError):
            load_config("/nonexistent/config.cfg")

    @pytest.mark.parametrize(
        "text, overrides, message",
        [("seed = 1\nepochs 3\n", [], "config line 2: expected 'key = value', got 'epochs 3'"),
         ("", ["seed=1", "foo"], "override 'foo': expected KEY=VALUE"),
         ("n_hh = 4\n", [], "config line 1: unknown config key 'n_hh'"),
         ("", ["epochs=lots"], "override 'epochs=lots': config key 'epochs': expected integer, got 'lots'"),
         pytest.param("top_n " + "x" * 3000, [], "config line 1: expected 'key = value', got "
                      + reprlib.repr("top_n " + "x" * 3000), id="long line without equals"),
         pytest.param("", ["top_n=-" + "9" * 4000], "config top_n must be at least 1, got "
                      + reprlib.repr(-int("9" * 4000)), id="integer far under its bound")],
    )
    def test_error_names_the_line_or_override(self, tmp_path, text, overrides, message):
        path = tmp_path / "c.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            load_config(str(path), overrides)
        assert str(raised.value).startswith(message), raised.value


class TestExitCodes:
    def test_synth_with_a_negative_seed_is_2(self, tmp_path, capsys):
        assert run("synth", "--seed", "-1", "--out-dir", str(tmp_path / "synth")) == 2
        assert "error: --seed must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    @pytest.mark.parametrize("flag, value, bound", [
        ("--relations", "0", "must be in [1, 4]"), ("--relations", "5", "must be in [1, 4]"),
        ("--pairs", "0", "must be at least 1"), ("--sentences", "1", "must be at least 2"),
    ], ids=["relations 0", "relations 5", "pairs 0", "sentences 1"])
    def test_synth_names_the_flag_out_of_bounds(self, tmp_path, capsys, flag, value, bound):
        assert run("synth", flag, value, "--out-dir", str(tmp_path / "synth")) == 2
        assert f"error: {flag} {bound}, got {value}" in capsys.readouterr().err
        assert not (tmp_path / "synth").exists()

    @pytest.mark.parametrize("name, reason", [("p.jsonl", "No such file or directory"),
                                              ("p" * 5000, "File name too long")],
                             ids=["missing directory", "name too long"])
    def test_unwritable_output_names_its_path_once(self, tiny_setup, tmp_path, capsys, name, reason):
        """The reason is the OSError's own, without the temporary file that
        the failed call names: the path given is the only one named."""
        root, _ = tiny_setup
        out = str(tmp_path / "missing" / name)
        assert run("extract-paths", "--set", f"corpus={root / 'corpus.jsonl'}", "--out", out) == 2
        err = capsys.readouterr().err.rstrip("\n")
        assert err == f"error: cannot write {out}: {reason}", err[-200:]
        assert err.count(name) == 1 and ".tmp" not in err

    @pytest.mark.parametrize("case", ["synth into a file", "pipeline into a file", "out in a missing directory",
                                      "out is a directory"])
    def test_unwritable_output_path_is_2(self, tiny_setup, tmp_path, capsys, case):
        """An output path that cannot be written exits 2 naming it, and leaves no temporary file."""
        _, cfg = tiny_setup
        a_file, a_dir, missing = tmp_path / "a-file", tmp_path / "a-dir", tmp_path / "missing" / "p.jsonl"
        a_file.write_text("kept\n", encoding="utf-8")
        a_dir.mkdir()
        extract = ["extract-paths", "--config", str(cfg), "--out"]
        target, argv = {
            "synth into a file": (a_file, ["synth", "--out-dir", str(a_file)]),
            "pipeline into a file": (a_file, ["pipeline", "--config", str(cfg), "--set", f"out_dir={a_file}"]),
            "out in a missing directory": (missing, extract + [str(missing)]),
            "out is a directory": (a_dir, extract + [str(a_dir)]),
        }[case]
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"error: cannot write {target}" in err and "Traceback" not in err, err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-dir", "a-file"]
        assert a_file.read_text(encoding="utf-8") == "kept\n"

    def test_long_pipeline_setting_is_shortened_in_the_error(self, tmp_path, capsys):
        """A file name an error quotes from a setting is shortened, and the
        error still names the key."""
        out = tmp_path / "out"
        assert run("pipeline", "--set", f"corpus={'x' * 50_000}", "--set", "embeddings=e", "--set", "gold=g",
                   "--set", f"out_dir={out}") == 2
        err = capsys.readouterr().err.rstrip("\n")
        assert len(err) < 300 and "\n" not in err and "corpus" in err, err[:400]
        assert not out.exists()

    def test_unknown_config_key_is_2(self, tmp_path):
        assert run("extract-paths", "--set", "bogus_key=1", "--set", "corpus=x", "--out", "y") == 2
        # encode reads no config key (the model config is in the checkpoint), and synth
        # takes its settings as flags, so neither takes the config flags.
        for files in (["encode", "--checkpoint", str(tmp_path / "m.ckpt"), "--paths-file", str(tmp_path / "p.jsonl"),
                       "--out", str(tmp_path / "v.jsonl")], ["synth", "--out-dir", str(tmp_path / "synth")]):
            with pytest.raises(SystemExit) as exited:
                run(*files, "--config", "no_such.cfg", "--set", "bogus_key=1")
            assert exited.value.code == 2, files
        assert not any(tmp_path.iterdir())

    def test_centroid_of_vectors_near_the_float_maximum_is_their_mean(self, tmp_path):
        """The members are summed scaled by a power of two, so a mean that is
        finite is written even when the plain sum would overflow."""
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": ["a", "o"], "vector": [1e308]},
                                                     {"pair": ["b", "o"], "vector": [1.5e308]}])
        centroids = tmp_path / "centroids.jsonl"
        argv = ["cluster", "--vectors", str(vectors), "--set", "k_clusters=1", "--out", str(tmp_path / "c.jsonl"),
                "--centroids", str(centroids)]
        assert run(*argv) == 0
        assert json.loads(centroids.read_text(encoding="utf-8")) == {"cluster": 0, "centroid": [1.25e308]}

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_nonfinite_value_is_a_numeric_error_naming_the_file(self, tmp_path, bad):
        """JSON holds no NaN or infinity: the writer refuses one and leaves the file as it was."""
        path = tmp_path / "out.jsonl"
        path.write_text("before\n", encoding="utf-8")
        with pytest.raises(NumericError, match=f"{re.escape(str(path))}: cannot write a non-finite value"):
            artifacts._write_jsonl(path, [{"x": [1.0]}, {"x": [bad]}])
        assert path.read_text(encoding="utf-8") == "before\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]

    @pytest.mark.parametrize("write, name, first, second",
                             [pytest.param(write, *row, id=row[0].split(".")[0]) for write, row in WRITERS.items()])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, write, name, first, second):
        """A write that dies halfway leaves the previous bytes and no temporary behind."""
        path = tmp_path / name
        write(path, *first)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(WriteFailed):
            write(path, *second)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [name]
        write(path, *second)
        assert path.read_bytes() != before  # the failed write would have changed the file

    def test_every_writer_has_a_row(self):
        """So that a new writer is held to the contracts above and test_memory.test_no_writer_hashes."""
        defined = {f"{m.__name__}.{name}" for m in (artifacts, model, vocab) for name, f in vars(m).items()
                   if name.startswith("write_") and f.__module__ == m.__name__}
        assert defined == {f"{write.__module__}.{write.__name__}" for write in WRITERS}


class TestMalformedArtifacts:
    """A checkpoint refused by its meta line or its first bytes before memory
    is spent on it. REFUSED files its other malformed inputs under this class."""

    @staticmethod
    def encode_peak(sweep: Path, checkpoint) -> tuple[int, str, int]:
        """encode on checkpoint in place of the sweep's: the exit code, the
        stderr line and tracemalloc's peak while it ran."""
        with _replaced(sweep, {"model.ckpt": checkpoint}):
            tracemalloc.start()
            try:
                return (*_run_in_sweep(sweep, "encode"), tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    def test_oversized_meta_config_exits_before_allocating(self, sweep):
        """A config claiming tensors far larger than the file's is refused by
        the float count, before any parameter buffer is allocated."""
        _, meta, tensors = (sweep / "model.ckpt").read_bytes().split(b"\n", 2)
        meta = json.loads(meta)
        cfg = ModelConfig(**{**meta["config"], "n_h": 10**7})
        shapes = parameter_shapes(cfg, *(len(meta["vocab"][key]) for key in ("words", "deps", "poss"))).values()
        expected = sum(math.prod(shape) for shape in shapes)
        code, line, peak = self.encode_peak(sweep, _record(lambda meta: meta["config"].update(n_h=10**7), at=1))
        assert code == 2 and line.startswith("error: model.ckpt") and f"need {expected} parameters" in line, line
        assert f"holds {len(tensors)} tensor bytes" in line, line
        assert peak < 10 * 2**20

    def test_newline_free_file_is_refused_by_its_first_bytes(self, sweep):
        """The header is read as at most its own length and a newline, so a
        20 MB file without a newline is refused without being read whole."""
        code, line, peak = self.encode_peak(sweep, b"x" * (20 * 2**20))
        assert code == 2 and "model.ckpt: bad checkpoint header" in line, line
        assert peak < 2**20


@pytest.fixture(scope="module")
def label_and_evaluate(tiny_setup, trained, tmp_path_factory):
    """A function of k: the labels.jsonl and scores.csv bytes that label and
    evaluate write with the tiny setup's embeddings, perturbed so that no
    cosine is trivial, times 2^k. Both clusters mix the two relations."""
    root, cfg = tiny_setup
    paths, _ = trained
    out = tmp_path_factory.mktemp("scaled")
    pairs = sorted(artifacts.read_gold(root / "gold.jsonl"))
    clusters = write_jsonl(out / "clusters.jsonl", [{"cluster": i % 2, "pair": list(p)} for i, p in enumerate(pairs)])
    rng = np.random.default_rng(61)
    embeddings = {w: v + rng.uniform(-0.05, 0.05, v.shape) for w, v in load_pretrained(root / "embeddings.txt").items()}

    def outputs(k: int) -> tuple[bytes, bytes]:
        run_dir = out / str(k)
        run_dir.mkdir(exist_ok=True)
        embeddings_file, labels, scores = run_dir / "embeddings.txt", run_dir / "labels.jsonl", run_dir / "scores.csv"
        write_embeddings(embeddings_file, {w: np.ldexp(v, k) for w, v in embeddings.items()})
        config = ["--config", str(cfg), "--set", f"embeddings={embeddings_file}", "--set", "top_n=5"]
        assert run("label", *config, "--clusters", str(clusters), "--paths-file", str(paths), "--out", str(labels)) == 0
        assert run("evaluate", *config, "--clusters", str(clusters), "--labels", str(labels), "--out", str(scores)) == 0
        return labels.read_bytes(), scores.read_bytes()

    return outputs


class TestStages:
    def test_extract_paths_format(self, tiny_setup, tmp_path):
        root, cfg = tiny_setup
        out = tmp_path / "paths.jsonl"
        assert run("extract-paths", "--set", f"corpus={root / 'corpus.jsonl'}", "--out", str(out)) == 0
        records = [json.loads(line) for line in out.read_text(encoding="utf-8").splitlines()]
        assert len(records) == 12  # 2 relations x 3 pairs x 2 sentences
        for rec in records:
            assert set(rec) == {"pair", "words", "deps", "poss"}
            assert len(rec["words"]) == len(rec["deps"]) == len(rec["poss"])

    def test_cw_label_method(self, tiny_setup, tmp_path):
        root, cfg = tiny_setup
        paths = tmp_path / "p.jsonl"
        clusters = tmp_path / "c.jsonl"
        labels = tmp_path / "l.jsonl"
        run("extract-paths", "--config", str(cfg), "--out", str(paths))
        # fake a single cluster over all pairs
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        pairs = sorted({tuple(r["pair"]) for r in records})
        with open(clusters, "w", encoding="utf-8") as fh:
            for p in pairs:
                fh.write(json.dumps({"cluster": 0, "pair": list(p)}) + "\n")
        argv = ["label", "--clusters", str(clusters), "--paths-file", str(paths), "--out", str(labels)]
        assert run(*argv, "--set", "method=cw") == 0
        (rec,) = [json.loads(line) for line in labels.read_text(encoding="utf-8").splitlines()]
        assert rec["labels"][0][1] >= rec["labels"][-1][1]

    def test_evaluate_shows_a_warning_as_one_line(self, tiny_setup, tmp_path, capsys):
        """A cluster of two capital pairs labeled 'born' is matched to placeBirth,
        which gold gives none of the scored pairs: evaluate excludes it, scores
        the rest and says so in one line, without a source path or code."""
        root, cfg = tiny_setup
        gold = [json.loads(line) for line in (root / "gold.jsonl").read_text(encoding="utf-8").splitlines()][:2]
        assert [rec["relations"] for rec in gold] == [["capital"]] * 2
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": rec["pair"]} for rec in gold])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["born", 1.0]]}])
        scores = tmp_path / "s.csv"
        assert run("evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
                   "--out", str(scores)) == 0
        out, err = capsys.readouterr()
        assert err == "warning: predicted relations with zero gold count excluded: ['placeBirth']\n"
        assert out == "capital: recall 0.000 precision 0.000 f1 0.000\nrand_index: 1.0000\n"
        assert scores.read_text(encoding="utf-8") == "relation,recall,precision,f1\ncapital,0.0,0.0,0.0\nrand_index,1.0\n"

    @pytest.mark.parametrize("p2", [["b", "a"], ["a", "b"]])
    def test_rand_index_class_is_the_set_of_gold_relations(self, tmp_path, p2):
        """p1 and p2 clustered together, p3 apart: gold ["a", "b"] for p1 puts
        p2 in p1's class whichever order p2's relations are written in."""
        write_embeddings(tmp_path / "e.txt", {w: np.eye(3)[i] for i, w in enumerate("abc")})
        pairs = [["p", "1"], ["p", "2"], ["p", "3"]]
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": int(p == "3"), "pair": [s, p]} for s, p in pairs])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["a", 1.0]]},
                                                    {"cluster": 1, "labels": [["c", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": pair, "relations": relations}
                                                  for pair, relations in zip(pairs, [["a", "b"], p2, ["c"]])])
        scores = tmp_path / "s.csv"
        assert run("evaluate", "--set", f"gold={gold}", "--set", f"embeddings={tmp_path / 'e.txt'}",
                   "--clusters", str(clusters), "--labels", str(labels), "--out", str(scores)) == 0
        assert scores.read_text(encoding="utf-8").splitlines()[-1] == "rand_index,1.0"

    @settings(max_examples=20, deadline=None, derandomize=True)
    @example(k=600)
    @example(k=-600)
    @given(k=st.integers(-600, 600))
    def test_labels_and_scores_do_not_depend_on_the_embeddings_scale(self, label_and_evaluate, k):
        """Cosine is scale-free, and scaling by 2^k is exact: byte-identical
        outputs, with no overflow at 2^600 and no underflow at 2^-600."""
        assert label_and_evaluate(k) == label_and_evaluate(0)

    def test_identical_paths_encode_identically_in_pairs_of_any_size(self, trained, tmp_path):
        """One path shared by pairs of 1 to 8 paths: every pair's vector is the
        sum of its paths' own vectors, in the pair's (sorted) path order, bit for bit."""
        paths, ckpt = trained
        pool = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()][:9]
        shared, others = pool[0], pool[1:]
        records = []
        for size in range(1, 9):
            members = others[: size - 1]
            members.insert(size // 2, shared)
            records += [{**m, "pair": [f"S{size}", f"O{size}"]} for m in members]
        records += [{**m, "pair": [f"single{i}", "x"]} for i, m in enumerate(pool)]
        mixed = write_jsonl(tmp_path / "paths.jsonl", records)
        out = tmp_path / "v.jsonl"
        assert run("encode", "--checkpoint", str(ckpt), "--paths-file", str(mixed), "--out", str(out)) == 0
        vectors = {tuple(r["pair"]): np.array(r["vector"]) for r in map(json.loads, out.read_text().splitlines())}
        own = [vectors[(f"single{i}", "x")] for i in range(len(pool))]
        for size in range(1, 9):
            order = sorted(range(size), key=lambda i: [pool[i][key] for key in ("words", "deps", "poss")])
            expected = own[order[0]]
            for i in order[1:]:
                expected = expected + own[i]
            assert np.array_equal(vectors[(f"S{size}", f"O{size}")], expected), size


    def test_encode_computes_each_distinct_path_sequence_once(self, trained, tmp_path, monkeypatch):
        """Pairs that repeat another pair's paths reuse its vector: one
        infer_relation_vector call per distinct path-id sequence."""
        paths, ckpt = trained
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        copies = [{**r, "pair": [f"copy of {r['pair'][0]}", r["pair"][1]]} for r in records]
        copies = write_jsonl(tmp_path / "paths.jsonl", records + copies)
        calls = []
        infer = cli.modeling.infer_relation_vector

        def counted(path_ids, encodings):
            calls.append(tuple(path_ids))
            return infer(path_ids, encodings)

        monkeypatch.setattr(cli.modeling, "infer_relation_vector", counted)
        out = tmp_path / "v.jsonl"
        assert run("encode", "--checkpoint", str(ckpt), "--paths-file", str(copies), "--out", str(out)) == 0
        params, vocabs = read_checkpoint(ckpt)
        groups = group_pairs(cli.read_path_instances(copies), min_paths=1)
        assert len(calls) == len(set(calls))
        assert set(calls) == {tuple(paths_to_ids(g, vocabs, params.cfg.n_l)) for g in groups}
        assert len(calls) < len(groups) == len(out.read_text(encoding="utf-8").splitlines())

    def test_encode_of_an_empty_paths_file_writes_an_empty_file(self, trained, tmp_path):
        _, ckpt = trained
        paths, out = tmp_path / "paths.jsonl", tmp_path / "v.jsonl"
        paths.write_text("", encoding="utf-8")
        assert run("encode", "--checkpoint", str(ckpt), "--paths-file", str(paths), "--out", str(out)) == 0
        assert out.read_bytes() == b""

    def test_vectors_lines_are_json_dumps_of_their_records(self, trained, tmp_path):
        paths, ckpt = trained
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        # A quote and a non-ASCII letter in the names, which json.dumps escapes.
        renamed = [{**r, "pair": [f'"{r["pair"][0]}" é', r["pair"][1]]} for r in records]
        renamed = write_jsonl(tmp_path / "paths.jsonl", renamed)
        out = tmp_path / "v.jsonl"
        assert run("encode", "--checkpoint", str(ckpt), "--paths-file", str(renamed), "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines and all(line == json.dumps(json.loads(line)) for line in lines)


class TestTrainCheckpoint:
    """`cure train` writes its one checkpoint file once, after the last epoch."""

    def train(self, tiny_setup, trained, ckpt: Path, *overrides: str) -> int:
        root, cfg = tiny_setup
        paths, _ = trained
        argv = ["train", "--config", str(cfg), "--paths-file", str(paths), "--out-checkpoint", str(ckpt),
                "--log", str(ckpt.with_name("loss_log.csv"))]
        for item in overrides:
            argv += ["--set", item]
        return run(*argv)

    def test_zero_epochs_writes_initialized_parameters(self, tiny_setup, trained, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert self.train(tiny_setup, trained, ckpt, "epochs=0") == 0
        assert "trained 0 epochs; wrote initialized parameters" in capsys.readouterr().out
        assert ckpt.exists()

    def test_written_once(self, tiny_setup, trained, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.ckpt"
        written = []
        write = cli.write_checkpoint
        monkeypatch.setattr(cli, "write_checkpoint", lambda path, *args: written.append(path) or write(path, *args))
        assert self.train(tiny_setup, trained, ckpt, "epochs=3") == 0
        assert written == [str(ckpt)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss_log.csv", "model.ckpt"]

    def test_reloaded_parameters_equal_the_trained_ones_bit_for_bit(self, tiny_setup, trained, tmp_path, monkeypatch):
        results, train = [], cli.modeling.train

        def recorded(*args, **kwargs):
            results.append(train(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli.modeling, "train", recorded)
        ckpt = tmp_path / "model.ckpt"
        assert self.train(tiny_setup, trained, ckpt) == 0
        params, _ = read_checkpoint(ckpt)
        assert params.flat.tobytes() == results[0].flat.tobytes()

    def test_training_that_fails_keeps_previous_checkpoint(self, tiny_setup, trained, tmp_path, monkeypatch, capsys):
        """A retrain with other weights that fails in epoch 2 leaves the previous file byte-identical."""
        ckpt = tmp_path / "model.ckpt"
        shutil.copy(trained[1], ckpt)
        before = ckpt.read_bytes()
        clip, calls = autodiff.clip_gradients, []

        def clip_failing_in_epoch_2(grad, *args):
            calls.append(grad)
            return math.nan if len(calls) == 2 else clip(grad, *args)

        monkeypatch.setattr(autodiff, "clip_gradients", clip_failing_in_epoch_2)
        # One batch per epoch, so the second clip is epoch 2's.
        assert self.train(tiny_setup, trained, ckpt, "seed=4", "batch_size=100", "epochs=3") == 3
        assert "epoch 2" in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_step_to_non_finite_parameters_keeps_previous_checkpoint(self, tiny_setup, trained, tmp_path, capsys):
        """No loss is computed after the last step, so a step that makes a
        parameter non-finite is caught by the check that ends training: exit
        3 naming the epoch and the tensor, the previous files left as they
        were, and `cure pipeline` failing at train rather than at encode."""
        _, cfg = tiny_setup
        # 100 pairs in one batch: the summed gradient has an entry past 1, which the step overflows.
        assert run("synth", "--relations", "4", "--pairs", "25", "--sentences", "3", "--out-dir", str(tmp_path)) == 0
        corpus = ["--config", str(cfg), "--set", f"corpus={tmp_path / 'corpus.jsonl'}"]
        paths = tmp_path / "paths.jsonl"
        assert run("extract-paths", *corpus, "--out", str(paths)) == 0
        ckpt = tmp_path / "model.ckpt"
        shutil.copy(trained[1], ckpt)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        overflow = [f"--set={o}" for o in ("learning_rate=1.79e308", "epochs=1", "batch_size=1000")]
        argv = ["--paths-file", str(paths), "--out-checkpoint", str(ckpt), "--log", str(tmp_path / "loss_log.csv")]
        assert run("train", *corpus, *overflow, *argv) == 3
        assert re.search(r"numeric error: epoch 1: parameter '[\w.]+' holds a non-finite value", capsys.readouterr().err)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
        out = tmp_path / "out"
        assert run("pipeline", *corpus, *overflow, "--set", f"out_dir={out}") == 3
        assert "numeric error: stage 'train' failed: epoch 1: parameter" in capsys.readouterr().err
        assert not (out / "model.ckpt").exists()


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_NOT_A_FLOAT = ["NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400, "1" + "0" * 5000, '"1.0"', "null", "[]"]
_DEEP = "[" * 100_000


def _varied(pair: str, vector: str) -> st.SearchStrategy[str]:
    """A vectors line holding pair and vector (JSON texts), as encode writes
    it or changed: keys reordered or repeated, other whitespace, a value that
    is no finite number, trailing garbage or another character in place of
    the closing brace, truncation, a missing or malformed pair, deep nesting."""
    written = f'{{"pair": {pair}, "vector": {vector}}}'
    return st.one_of(
        st.just(written),
        st.sampled_from([
            f'{{"vector": {vector}, "pair": {pair}}}',
            f'{{"vector": [9.5], "pair": {pair}, "vector": {vector}}}',
            f'{{"pair": {pair}, "vector": {vector}, "vector": [9.5]}}',
            f'{{"pair": {pair}, "x": {{"vector": [1]}}, "vector": {vector}}}',
            f'{{"pair": {pair}, "vector": [1], "vector": {vector}}}',
            f'{{"pair": {pair}, "vector": [{{"vector": 1}}], "vector": {vector}}}',
        ]),
        st.sampled_from([
            f'{{ "pair" : {pair} ,  "vector":{vector} }}',
            f'{{"pair":{pair},\t"vector": \t{vector}\t}}',
            f'{{"pair": {pair}, "vector": {vector}}}\t ',
            f' \t{written}',
            f'{written}\x0c',
            f'{written} ',
            "\ufeff" + written,
        ]),
        st.sampled_from(_NOT_A_FLOAT).map(lambda x: f'{{"pair": {pair}, "vector": {vector[:-1]}, {x}]}}'),
        st.sampled_from(_NOT_A_FLOAT).map(lambda x: f'{{"pair": {pair}, "vector": {x}}}'),
        st.sampled_from(["x", "}", ",", "]", " 1", '"', "{}"]).map(lambda garbage: written + garbage),
        st.sampled_from(["]", "x", " "]).map(lambda c: written[:-1] + c),
        st.integers(0, len(written)).map(lambda n: written[:n]),
        st.sampled_from([
            f'{{"vector": {vector}}}',
            f'{{"pair": {pair}}}',
            f'{{"pairs": {pair}, "vector": {vector}}}',
            f'{{"pair": "ab", "vector": {vector}}}',
            f'{{"pair": ["a", 1], "vector": {vector}}}',
            f'{{"pair": {pair[:-1]}, "c"], "vector": {vector}}}',
            f'[{pair}, "vector", {vector}]',
        ]),
        st.sampled_from([
            f'{{"pair": {_DEEP}, "vector": {vector}}}',
            f'{{"pair": {pair}, "vector": {_DEEP}}}',
            f'{{"pair": {pair}, "vector": {_DEEP}{"]" * 100_000}}}',
            f'{{"pair": {pair}, "vector": {"[" * 40}0.5{"]" * 40}}}',
        ]),
    )


@st.composite
def _vectors_file(draw) -> str:
    """Lines in the layout encode writes, the vectors drawn from a few
    distinct ones (so that lines repeat them), each line possibly varied."""
    distinct = draw(st.lists(st.lists(_FLOATS, min_size=1, max_size=3), min_size=1, max_size=3))
    lines = []
    for i in range(draw(st.integers(1, 6))):
        pair = json.dumps([draw(st.sampled_from(["a", "s, \"vector\": [1]}", "é"]) | st.text(max_size=4)), f"o{i}"])
        line = draw(_varied(pair, json.dumps(draw(st.sampled_from(distinct)))))
        lines.append(line + draw(st.sampled_from(["\n", " \n", "\r\n", "\n\n"])))
    return "".join(lines)


class TestVectorsReader:
    @staticmethod
    def outcome(read) -> list | str:
        """The records read, each vector as its shape and bytes, or the ValidationError's text."""
        try:
            return [(pair, vector.shape, vector.tobytes()) for pair, vector in read().items()]
        except ValidationError as exc:
            return str(exc)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(text=_vectors_file())
    def test_split_form_reads_as_plain_json(self, tmp_path_factory, text):
        """The reader gives the records, or the error text, that it gives
        with the split form off, when json.loads reads every line whole."""
        path = tmp_path_factory.getbasetemp() / "fuzzed-vectors.jsonl"
        path.write_text(text, encoding="utf-8")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(artifacts, "_split_vector_line", lambda line, memo: None)
            plain = self.outcome(lambda: artifacts.read_vectors(path))
        assert self.outcome(lambda: artifacts.read_vectors(path)) == plain

    def test_each_distinct_vector_text_is_parsed_and_checked_once(self, tmp_path, monkeypatch):
        """Lines that repeat another line's vector text share its checked,
        read-only vector: one json.loads and one _finite_vector call per
        distinct text, one json.loads of each line's pair, no line parsed whole."""
        distinct = [[0.0, 1.5], [2.0, -0.5], [1e-300, 3.0]]
        records = [{"pair": [f"s{i}", "o"], "vector": distinct[i % 3]} for i in range(12)]
        vectors = write_jsonl(tmp_path / "v.jsonl", records)
        parsed, checked = [], []
        loads, finite_vector = json.loads, artifacts._finite_vector
        monkeypatch.setattr(artifacts.json, "loads", lambda text: parsed.append(text) or loads(text))
        monkeypatch.setattr(artifacts, "_finite_vector", lambda values: checked.append(values) or finite_vector(values))
        read = list(artifacts.read_vectors(vectors).items())
        monkeypatch.undo()
        texts = [json.dumps(v) for v in distinct]
        assert sorted(text for text in parsed if text in texts) == sorted(texts)
        assert len(parsed) == len(records) + len(distinct)
        assert checked == distinct
        assert [(pair, vector.tolist()) for pair, vector in read] == [(tuple(r["pair"]), r["vector"]) for r in records]
        assert read[0][1] is read[3][1]
        assert not read[0][1].flags.writeable


# The input sweep: every file a stage command reads, under a short name, and
# every --set override, damaged and run through each command that reads it.
# Every run keeps the exit-code contract (README "Exit codes").
SWEEP = {  # each stage command: its argv on the sweep directory, writing into out/, and the inputs swept through it
    "extract-paths": ("--config run.cfg --out out/paths.jsonl", "corpus.jsonl run.cfg"),
    "train": ("--config run.cfg --paths-file paths.jsonl --out-checkpoint out/model.ckpt --log out/loss_log.csv",
              "paths.jsonl"),  # not the config: epochs = 10**20 would train for ever
    "encode": ("--checkpoint model.ckpt --paths-file paths.jsonl --out out/vectors.jsonl", "paths.jsonl model.ckpt"),
    "cluster": ("--config run.cfg --vectors vectors.jsonl --out out/clusters.jsonl --centroids out/centroids.jsonl",
                "vectors.jsonl run.cfg"),
    "label": ("--config run.cfg --clusters clusters.jsonl --paths-file paths.jsonl --out out/labels.jsonl",
              "clusters.jsonl embeddings.txt stopwords.txt run.cfg"),
    "evaluate": ("--config run.cfg --clusters clusters.jsonl --labels labels.jsonl --out out/scores.csv",
                 "clusters.jsonl labels.jsonl gold.jsonl run.cfg"),
}
SWEPT = [(name, command) for command, (_, names) in SWEEP.items() for name in names.split()]
VALUES = ["x" * 5000, 10**400, 10**20, -1, 1e308, None, [], {}, True, "", 0.5, "a\nb"]  # for a JSON leaf or a --set
FILE_KEYS = ("corpus", "embeddings", "gold", "stopwords")  # an error names a file whole


@pytest.fixture(scope="module")
def sweep(tiny_setup, tmp_path_factory) -> Path:
    """A directory holding, under short names, every input that
    SWEEP's commands read: the tiny setup's, and what `cure pipeline` makes of them."""
    root, cfg = tiny_setup
    work = tmp_path_factory.mktemp("sweep")
    for name in ("corpus.jsonl", "gold.jsonl", "embeddings.txt"):
        shutil.copy(root / name, work)
    (work / "stopwords.txt").write_bytes(resources.files("cure").joinpath("data/stopwords.txt").read_bytes())
    (work / "run.cfg").write_text(cfg.read_text(encoding="utf-8").replace(f"{root}/", "") + "stopwords = stopwords.txt\n",
                                  encoding="utf-8")
    (work / "out").mkdir()
    with pytest.MonkeyPatch.context() as patch:
        patch.chdir(work)
        assert run("pipeline", "--config", "run.cfg", "--set", "out_dir=.") == 0
    return work


def _run_in_sweep(work: Path, command: str, *extra: str) -> tuple[int, str]:
    """Run command in work, each output holding known bytes beforehand, and
    check the contract: exit 0, 2 or 3, at most one stderr line, under 300
    bytes once a file name that extra sets with --set is left out, and after
    a non-zero exit every output as it was and no other file in out/.
    Returns the exit code and the stderr line."""
    argv = [command, *SWEEP[command][0].split(), *extra]
    outputs = {Path(arg).name for arg in argv if arg.startswith("out/")}
    for path in (work / "out").iterdir():
        path.unlink()
    for name in outputs:
        (work / "out" / name).write_bytes(b"before\n")
    with pytest.MonkeyPatch.context() as patch, redirect_stderr(io.StringIO()) as err, redirect_stdout(io.StringIO()):
        patch.chdir(work)
        code = run(*argv)
    line = short = err.getvalue().removesuffix("\n")
    for key, _, value in (arg.partition("=") for arg in extra):
        if key in FILE_KEYS:
            short = short.replace(value, "")
    shown = (reprlib.repr(extra), code, line[:400])
    assert code in (0, 2, 3) and "\n" not in line and len(short.encode()) < 300, shown
    if code:
        assert {p.name: p.read_bytes() for p in (work / "out").iterdir()} == dict.fromkeys(outputs, b"before\n"), shown
    return code, line


@contextmanager
def _replaced(work: Path, inputs: dict) -> Iterator[None]:
    """work with each named input replaced by bytes, by a function of its good
    bytes, or (None) by no file; the good bytes are put back afterwards."""
    good = {name: (work / name).read_bytes() for name in inputs}
    try:
        for name, new in inputs.items():
            if new is None:
                (work / name).unlink()
            else:
                (work / name).write_bytes(new(good[name]) if callable(new) else new)
        yield
    finally:
        for name, data in good.items():
            (work / name).write_bytes(data)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, found: list, first_only: bool = False) -> list:
    """Every (container, key) inside a JSON value, depth first; with
    first_only, of a list only its first item and what that holds."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        found.append((value, key))
        _slots(child, found, first_only)
        if first_only and isinstance(value, list):
            break
    return found


@st.composite
def _damaged(draw, good: bytes) -> bytes:
    """good with one damage: random bytes in its place, a truncation, bytes
    appended, one byte flipped, or one line repeated or changed. A line that
    holds a JSON value loses a key or gets another JSON value for one of its
    values or for the whole value; any other line becomes random text."""
    damage = draw(st.sampled_from(["bytes", "truncated", "appended", "flipped", "repeated", "line"]))
    if damage == "bytes":
        return draw(st.binary(max_size=64))
    if damage == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if damage == "appended":
        return good + draw(st.binary(min_size=1, max_size=16))
    if damage == "flipped":
        at = draw(st.integers(0, len(good) - 1))
        return good[:at] + bytes([good[at] ^ draw(st.integers(1, 255))]) + good[at + 1 :]
    lines = good.splitlines(keepends=True)
    at = draw(st.integers(0, len(lines) - 1))
    if damage == "repeated":
        return b"".join([*lines[: at + 1], *lines[at:]])
    try:
        record = json.loads(lines[at])
    except ValueError:
        lines[at] = draw(st.text(max_size=16)).encode("utf-8", "surrogatepass") + b"\n"
        return b"".join(lines)
    slots = _slots(record, [])
    if slots and draw(st.booleans()):
        container, key = draw(st.sampled_from(slots))
        if isinstance(container, dict) and draw(st.booleans()):
            del container[key]
        else:
            container[key] = draw(_JSON)
    else:
        record = draw(_JSON)
    lines[at] = json.dumps(record).encode("utf-8") + b"\n"
    return b"".join(lines)


class TestInputSweep:
    @pytest.mark.parametrize("swept, command", SWEPT)
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_damaged_file_keeps_the_exit_contract(self, sweep, swept, command, data):
        with _replaced(sweep, {swept: lambda good: data.draw(_damaged(good))}):
            _run_in_sweep(sweep, command)

    @pytest.mark.parametrize("swept, command", [s for s in SWEPT if s[0].endswith((".jsonl", ".ckpt"))] + [
        ("--set", command) for command in SWEEP if command != "encode"  # encode takes no config
    ])
    def test_replaced_value_keeps_the_exit_contract(self, sweep, swept, command):
        """Each leaf of a file's first JSON record (a checkpoint's meta line),
        of a list only the first item's, or each config key given with --set
        (but epochs, to a command that trains), replaced by each of VALUES."""
        if swept == "--set":
            for key, value in itertools.product(cli._DEFAULTS, VALUES):
                if not (key == "epochs" and command == "train"):
                    _run_in_sweep(sweep, command, "--set", f"{key}={value if isinstance(value, str) else json.dumps(value)}")
            return
        lines = (sweep / swept).read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if line.startswith(b"{"))
        record = json.loads(lines[at])
        for container, key in _slots(record, [], first_only=True):
            kept = container[key]
            if isinstance(kept, (dict, list)):
                continue  # not a leaf
            for value in VALUES:
                container[key] = value
                lines[at] = json.dumps(record).encode("utf-8") + b"\n"
                with _replaced(sweep, {swept: b"".join(lines)}):
                    _run_in_sweep(sweep, command)
            container[key] = kept


def _record(change: Callable[[dict], object], at: int | None = 0) -> Callable[[bytes], bytes]:
    """A function of good JSON Lines bytes: them with the record on line at
    (or, with at None, on every line) changed in place by change. A
    checkpoint's line 1 is its meta line."""

    def apply(good: bytes) -> bytes:
        lines = good.splitlines(keepends=True)
        for i in range(len(lines)) if at is None else [at]:
            record = json.loads(lines[i])
            change(record)
            lines[i] = json.dumps(record).encode("utf-8") + b"\n"
        return b"".join(lines)

    return apply


def _with_meta(meta: bytes) -> Callable[[bytes], bytes]:
    """A function of a checkpoint's bytes: them with meta in place of the meta line."""
    return lambda good: b"\n".join([good.split(b"\n", 2)[0], meta, good.split(b"\n", 2)[2]])


def _params(edit: Callable[[ModelParams], None]) -> Callable[[bytes], bytes]:
    """A function of a checkpoint's bytes: them with edit applied to its parameters."""

    def apply(good: bytes) -> bytes:
        header, meta, tensors = good.split(b"\n", 2)
        config = json.loads(meta)
        sizes = (len(config["vocab"][key]) for key in ("words", "deps", "poss"))
        params = ModelParams(ModelConfig(**config["config"]), *sizes, None)
        params.flat[...] = np.frombuffer(tensors, "<f8")
        edit(params)
        return b"\n".join([header, meta, params.flat.astype("<f8").tobytes()])

    return apply


def _nonfinite(name: str, value: str) -> Callable[[bytes], bytes]:
    """A function of a checkpoint's bytes: the first value of the tensor that arrays() calls name set to value."""

    def edit(params: ModelParams) -> None:
        tensor = params.arrays()[name]
        tensor[(0,) * tensor.ndim] = float(value)

    return _params(edit)


def _nan_vectors(params: ModelParams) -> None:
    """Finite parameters whose LSTM pre-activation is inf - inf: with
    all-ones embeddings, input weights of 1e308 and recurrent weights of
    -1e308, the forward LSTM's input term is +inf at every step and, once
    its state is positive, its recurrent term -inf. Every vector is NaN."""
    for table in (params.word_emb, params.dep_emb, params.pos_emb):
        table[...] = 1.0
    params.enc_fwd.U[...] = 1e308
    params.enc_fwd.W[...] = -1e308


class Refused(NamedTuple):
    """A stage command run in the sweep directory with some inputs replaced,
    and what it must print: the whole stderr line when stderr starts with
    `error:` or `numeric error:`, a fragment of it otherwise."""

    command: str
    inputs: dict  # a sweep file's name: its bytes, a function of its good bytes, or None for no file
    stderr: str
    settings: tuple[str, ...] = ()  # each given with --set
    code: int = 2


LONG = "x" * 50_000
HUGE = b"1" + b"0" * 5000  # a JSON integer longer than Python converts to an int (4 300 digits)
NOT_UTF8 = "naïve\n".encode("latin-1")
AB_VECTOR = {"pair": ["a", "b"], "vector": [0.0]}
ONE_CLUSTER, ONE_LABEL = _jsonl({"cluster": 0, "pair": ["a", "b"]}), _jsonl({"cluster": 0, "labels": [["w", 1.0]]})
ONE_PATH = {"pair": ["a", "b"], "words": ["A", "capital", "B"], "deps": ["nsubj", "attr", "pobj"],
            "poss": ["PROPN", "NOUN", "PROPN"]}


def _scored(inputs: dict) -> dict:
    """evaluate's inputs: one cluster holding the pair (a, b), labeled 'w', and inputs."""
    return {"clusters.jsonl": ONE_CLUSTER, "labels.jsonl": ONE_LABEL, **inputs}


_RECORDS = {  # what a file's records are, as its reader's errors name them
    "corpus.jsonl": "corpus record", "paths.jsonl": "path instance", "vectors.jsonl": "relation vector",
    "clusters.jsonl": "cluster assignment", "labels.jsonl": "cluster label", "gold.jsonl": "gold relation",
    "model.ckpt": "checkpoint metadata",
}


def _malformed(where: str, exc: Exception) -> str:
    """The error line for a record at where (`<file>:<line>`) that its reader refuses with exc."""
    return f"error: {where}: malformed {_RECORDS[where.split(':')[0]]} ({exc!r})"


_WRONG_TYPES = {  # a file: each case of a change to its first record, and the error it raises
    "corpus.jsonl": {
        "id 7": (lambda r: r.update(id=7), TypeError("id must be a string, got 7")),
        "head 1.7": (lambda r: r["tokens"][0].update(head=1.7), TypeError("head must be an integer, got 1.7")),
        "head true": (lambda r: r["tokens"][0].update(head=True), TypeError("head must be an integer, got True")),
        "start 0.0": (lambda r: r["subject"].update(start=0.0), TypeError("start must be an integer, got 0.0")),
        "end false": (lambda r: r["object"].update(end=False), TypeError("end must be an integer, got False")),
        "text 12": (lambda r: r["tokens"][0].update(text=12), TypeError("text must be a string, got 12")),
        "pos null": (lambda r: r["tokens"][1].update(pos=None), TypeError("pos must be a string, got None")),
        "dep array": (lambda r: r["tokens"][1].update(dep=["x"]), TypeError("dep must be a string, got ['x']")),
        "canonical 5": (lambda r: r["object"].update(canonical=5), TypeError("canonical must be a string, got 5")),
    },
    "clusters.jsonl": {
        "cluster 0.9": (lambda r: r.update(cluster=0.9), TypeError("cluster must be an integer, got 0.9")),
        "cluster true": (lambda r: r.update(cluster=True), TypeError("cluster must be an integer, got True")),
    },
    "labels.jsonl": {
        "labels cluster 0.0": (lambda r: r.update(cluster=0.0), TypeError("cluster must be an integer, got 0.0")),
        "label word 12": (lambda r: r.update(labels=[[12, 1.0]]), TypeError("label word must be a string, got 12")),
        "label score text": (lambda r: r.update(labels=[["w", "1"]]), TypeError("label score must be a number, got '1'")),
        "label score true": (lambda r: r.update(labels=[["w", True]]), TypeError("label score must be a number, got True")),
        "label score NaN": (lambda r: r.update(labels=[["w", math.nan]]), ValueError("label score must be finite, got nan")),
        "label score -Infinity": (lambda r: r.update(labels=[["w", -math.inf]]),
                                  ValueError("label score must be finite, got -inf")),
    },
}


def _with_single_path_pair(good: bytes) -> bytes:
    """good paths and one more pair, which has a single path."""
    return good + _record(lambda r: r.update(pair=["Alone", "Single"]))(good.splitlines(keepends=True)[0])


# Each input that a stage command refuses, under the id of the hand-written
# test that first checked it, so that the suite's test ids stay stable. Each
# row also gets _run_in_sweep's contract: one line, under 300 bytes, and the
# outputs as they were.
REFUSED = {
    "TestExitCodes::test_validation_error_is_2": Refused(
        "extract-paths", {}, "error: cannot read corpus record file missing.jsonl: No such file or directory",
        ("corpus=missing.jsonl",)),
    "TestExitCodes::test_missing_checkpoint_is_2": Refused(
        "encode", {"model.ckpt": None}, "error: cannot read checkpoint model.ckpt: No such file or directory"),
    # The reason is the OSError's own, without the path it repeats.
    "TestExitCodes::test_unreadable_input_names_its_path_once": Refused(
        "extract-paths", {}, f"error: cannot read corpus record file {'y' * 5000}: File name too long",
        (f"corpus={'y' * 5000}",)),
    # A value that an error quotes from an input file is shortened, and the error still names the file.
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[corpus sentence id]": Refused(
        "extract-paths", {"corpus.jsonl": _record(lambda r: r.update(id=LONG) or r["tokens"][0].update(head=99))},
        f"error: corpus.jsonl:1: sentence {reprlib.repr(LONG)}: token 0 head 99 out of range"),
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[vectors pair twice]": Refused(
        "cluster", {"vectors.jsonl": 2 * _jsonl({"pair": [LONG, "o"], "vector": [1.0]})},
        f"error: vectors.jsonl: pair {reprlib.repr([LONG, 'o'])} is listed twice"),
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[vectors string value]": Refused(
        "cluster", {"vectors.jsonl": _jsonl({"pair": ["s", "o"], "vector": [LONG]})},
        "vectors.jsonl:1: malformed relation vector (ValueError(\"could not convert string to float"),
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[checkpoint header]": Refused(
        "encode", {"model.ckpt": b"C" * 100_000 + b"\n"}, "model.ckpt: bad checkpoint header 'CCCCCCCCCCCCCC'"),
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[embeddings token twice]": Refused(
        "label", {"embeddings.txt": f"{LONG} 1\n{LONG} 2\n".encode()},
        f"error: embeddings.txt:2: duplicate token {reprlib.repr(LONG)}"),
    "TestExitCodes::test_long_input_value_is_shortened_in_the_error[embeddings bad value]": Refused(
        "label", {"embeddings.txt": f"tok 1.0 {LONG}\n".encode()},
        f"error: embeddings.txt:1: unparseable vector value {reprlib.repr(LONG)}"),
    # inf in a bias or an input weight saturates gates and still gives finite
    # vectors; the checkpoint itself must be rejected.
    **{f"TestExitCodes::test_nonfinite_parameter_is_3[{name}-{value}]": Refused(
        "encode", {"model.ckpt": _nonfinite(name, value)},
        f"numeric error: model.ckpt: parameter {name!r} holds a non-finite value", code=3)
       for name, value in [("enc_fwd.W_o", "inf"), ("enc_fwd.b_o", "inf"), ("enc_bwd.U_f", "-inf"), ("dec.b_h", "nan")]},
    "TestExitCodes::test_nonfinite_relation_vector_is_3": Refused(
        "encode", {"model.ckpt": _params(_nan_vectors)}, "numeric error: pair ('Babo', 'Bigi'): non-finite relation vector",
        code=3),
    "TestExitCodes::test_nonfinite_relation_vector_of_a_long_pair_is_shortened": Refused(
        "encode", {"model.ckpt": _params(_nan_vectors),
                   "paths.jsonl": _record(lambda r: r.update(pair=["x" * 5000, r["pair"][1]]), at=None)},
        f"numeric error: pair {reprlib.repr(('x' * 5000, 'Bigi'))}: non-finite relation vector", code=3),
    "TestMalformedArtifacts::test_vectors_record_without_pair": Refused(
        "cluster", {"vectors.jsonl": _jsonl(AB_VECTOR, {"vector": [1.0]})}, _malformed("vectors.jsonl:2", KeyError("pair"))),
    "TestMalformedArtifacts::test_bad_record_after_blank_lines_names_its_line": Refused(
        "cluster", {"vectors.jsonl": _jsonl(AB_VECTOR) + b'\n  \n{"vector": [1.0]}\n'},
        _malformed("vectors.jsonl:4", KeyError("pair"))),
    **{f"TestMalformedArtifacts::test_vectors_record_with_non_finite_entry[{value}]": Refused(
        "cluster", {"vectors.jsonl": _jsonl(AB_VECTOR, {"pair": ["c", "d"], "vector": [1.0, float(value)]})},
        _malformed("vectors.jsonl:2", ValueError("vector holds a non-finite value"))) for value in ("nan", "inf")},
    # Both ways of reading a vectors line, the split form and plain
    # json.loads, refuse a pair that is not an array of two strings.
    **{f"TestMalformedArtifacts::test_vectors_pair_must_be_two_strings[{layout}-{case}]": Refused(
        "cluster", {"vectors.jsonl": _jsonl(AB_VECTOR, {"pair": pair, "vector": [1.0]}
                                            if layout == "as encode writes it" else {"vector": [1.0], "pair": pair})},
        _malformed("vectors.jsonl:2", ValueError(f"pair must be an array of two strings, got {pair!r}")))
       for layout in ("as encode writes it", "keys reordered")
       for case, pair in [("ab", "ab"), ("pair1", ["a"]), ("pair2", ["a", "b", "c"]), ("pair3", ["a", 1]),
                          ("pair4", [["a"], "b"]), ("None", None)]},
    **{f"TestMalformedArtifacts::test_pair_given_as_a_string_is_2[{kind}]": Refused(
        command, {**inputs, name: change},
        _malformed(f"{name}:{line}", ValueError("pair must be an array of two strings, got 'ab'")))
       for kind, command, inputs, name, line, change in [
           ("paths", "train", {}, "paths.jsonl", 2, _record(lambda r: r.update(pair="ab"), at=1)),
           ("clusters", "evaluate", {}, "clusters.jsonl", 1, _record(lambda r: r.update(pair="ab"))),
           ("gold", "evaluate", _scored({}), "gold.jsonl", 1, _jsonl({"pair": "ab", "relations": ["r"]}))]},
    "TestMalformedArtifacts::test_pair_listed_twice_in_vectors": Refused(
        "cluster", {"vectors.jsonl": _jsonl({"pair": ["x" * 5000, "b"], "vector": [0.0]}, {"pair": ["c", "d"], "vector": [1.0]},
                                            {"vector": [2.0], "pair": ["x" * 5000, "b"]})},
        f"error: vectors.jsonl: pair {reprlib.repr(['x' * 5000, 'b'])} is listed twice"),
    # label would pool the pair's paths twice, evaluate would score it twice.
    "TestMalformedArtifacts::test_pair_listed_twice_in_clusters": [
        Refused(command, _scored({"clusters.jsonl": ONE_CLUSTER + _jsonl({"cluster": 1, "pair": ["a", "b"]})}),
                "error: clusters.jsonl: pair ['a', 'b'] is listed twice") for command in ("label", "evaluate")],
    # A second record for a pair would silently replace the first.
    "TestMalformedArtifacts::test_pair_listed_twice_in_gold": Refused(
        "evaluate", _scored({"gold.jsonl": _jsonl({"pair": ["a", "b"], "relations": ["r"]},
                                                  {"pair": ["a", "b"], "relations": ["s"]})}),
        "error: gold.jsonl: pair ['a', 'b'] is listed twice; one record lists all of a pair's relations"),
    # ["a"] beside ["a", "a"] would be two rand-index classes.
    "TestMalformedArtifacts::test_relation_listed_twice_for_a_pair_in_gold": Refused(
        "evaluate", _scored({"clusters.jsonl": _jsonl(*({"cluster": 0, "pair": ["p", p]} for p in "12")),
                             "gold.jsonl": _jsonl({"pair": ["p", "1"], "relations": ["a"]},
                                                  {"pair": ["p", "2"], "relations": ["a", "a"]})}),
        "error: gold.jsonl:2: relation 'a' is listed twice"),
    # A second label record for a cluster would silently replace the first.
    "TestMalformedArtifacts::test_cluster_listed_twice_in_labels": Refused(
        "evaluate", {"labels.jsonl": lambda good: good.splitlines(keepends=True)[0] + good},
        "error: labels.jsonl: cluster 0 is listed twice"),
    # A string where an array of strings belongs is refused, not read as its
    # characters, and so is a number in such an array. The string is as long
    # as the path, so that it would read as a path of single characters.
    **{f"TestMalformedArtifacts::test_strings_must_come_as_an_array_of_strings[{case}]": Refused(
        "train", {"paths.jsonl": _record(change, at=1)},
        f"paths.jsonl:2: malformed path instance (TypeError(\"{case.split()[-1]} must be an array of strings, got ")
       for case, change in [("words", lambda r: r.update(words="x" * len(r["words"]))),
                            ("deps", lambda r: r.update(deps="x" * len(r["deps"]))),
                            ("poss", lambda r: r.update(poss="x" * len(r["poss"]))),
                            ("number in words", lambda r: r["words"].__setitem__(-1, 7))]},
    "TestMalformedArtifacts::test_strings_must_come_as_an_array_of_strings[relations]": Refused(
        "evaluate", _scored({"gold.jsonl": _jsonl({"pair": ["a", "b"], "relations": "ab"})}),
        _malformed("gold.jsonl:1", TypeError("relations must be an array of strings, got 'ab'"))),
    "TestMalformedArtifacts::test_strings_must_come_as_an_array_of_strings[checkpoint vocab]": Refused(
        "encode", {"model.ckpt": _record(lambda meta: meta["vocab"]["deps"].__setitem__(-1, 7), at=1)},
        "model.ckpt:2: malformed checkpoint metadata (TypeError(\"deps must be an array of strings, got "),
    **{f"TestMalformedArtifacts::test_vector_must_be_one_dimensional[{layout}-{case}]": Refused(
        "cluster", {"vectors.jsonl": _jsonl(*({"pair": [name, "o"], "vector": vector} if layout == "as encode writes it"
                                              else {"vector": vector, "pair": [name, "o"]} for name in "ab"))},
        _malformed("vectors.jsonl:1", ValueError(f"vector must be an array of numbers, got shape {np.shape(vector)}")))
       for layout in ("as encode writes it", "keys reordered") for case, vector in [("1.5", 1.5), ("vector1", [[1.0], [2.0]])]},
    "TestMalformedArtifacts::test_vectors_of_different_lengths_name_the_first_line_that_differs": Refused(
        "cluster", {"vectors.jsonl": b'{"pair": ["a", "o"], "vector": [0.0, 1.0]}\n\n{"vector": [2.0, 3.0], "pair": ["b", "o"]}\n'
                                     b'{"pair": ["c", "o"], "vector": [1.0]}\n{"pair": ["d", "o"], "vector": [1.0, 2.0, 3.0]}\n'},
        "error: vectors.jsonl:4: vector has 1 values, the file's first has 2"),
    "TestMalformedArtifacts::test_empty_vector_is_2": Refused(
        "cluster", {"vectors.jsonl": _jsonl(*({"pair": [name, "o"], "vector": []} for name in "ab"))},
        _malformed("vectors.jsonl:1", ValueError("vector is empty"))),
    # A JSON integer, so no float parse turns it into inf.
    "TestMalformedArtifacts::test_integer_too_large_for_a_float_is_2": Refused(
        "cluster", {"vectors.jsonl": _jsonl(AB_VECTOR, {"pair": ["c", "d"], "vector": [10**400]})},
        _malformed("vectors.jsonl:2", OverflowError("int too large to convert to float"))),
    "TestMalformedArtifacts::test_integer_past_the_digit_limit_is_2": [
        Refused("extract-paths", {"corpus.jsonl": lambda good: _record(lambda r: r["tokens"][0].update(head="HUGE"))(good)
                                  .replace(b'"HUGE"', HUGE)}, "corpus.jsonl:1: invalid JSON ("),
        Refused("encode", {"model.ckpt": lambda good: _record(lambda meta: meta["config"].update(learning_rate="HUGE"), at=1)(
            good).replace(b'"HUGE"', HUGE)}, "model.ckpt:2: invalid JSON (")],
    "TestMalformedArtifacts::test_corrupt_meta": Refused(
        "encode", {"model.ckpt": _with_meta(b'{"config": {"n_h": 4,')}, "model.ckpt:2: invalid JSON ("),
    # JSON nested deeper than the parser's recursion limit, in a JSON Lines line or the meta line.
    "TestMalformedArtifacts::test_deeply_nested_json_is_2": [
        Refused("cluster", {"vectors.jsonl": b"[" * 100_000 + b"\n"}, "error: vectors.jsonl:1: invalid JSON (nested too deeply)"),
        Refused("encode", {"model.ckpt": _with_meta(b"[" * 100_000)}, "error: model.ckpt:2: invalid JSON (nested too deeply)")],
    "TestMalformedArtifacts::test_meta_config_with_unknown_key": Refused(
        "encode", {"model.ckpt": _record(lambda meta: meta["config"].update(n_hidden=4), at=1)},
        _malformed("model.ckpt:2", TypeError("ModelConfig.__init__() got an unexpected keyword argument 'n_hidden'"))),
    # 4.0 for 4 asks for as many floats as the file holds, but is no array dimension.
    **{f"TestMalformedArtifacts::test_meta_config_{test}": Refused(
        "encode", {"model.ckpt": _record(lambda meta, key=key, value=value: meta["config"].update({key: value}), at=1)},
        f"error: model.ckpt:2: {reason}")
       for test, key, value, reason in [
           ("with_non_integer_dimension", "n_h", 4.0, "config n_h must be an integer, got 4.0"),
           ("integer_key_checks[seed -1]", "seed", -1, "config seed must be at least 0, got -1"),
           ("integer_key_checks[epochs 2.5]", "epochs", 2.5, "config epochs must be an integer, got 2.5"),
           ("integer_key_checks[n_h true]", "n_h", True, "config n_h must be an integer, got True"),
           ("with_nan_learning_rate", "learning_rate", math.nan, "config learning_rate must be finite and positive, got nan")]},
    "TestMalformedArtifacts::test_meta_config_with_integer_learning_rate_too_large_for_a_float": Refused(
        "encode", {"model.ckpt": _record(lambda meta: meta["config"].update(learning_rate=10**400), at=1)},
        _malformed("model.ckpt:2", OverflowError("int too large to convert to float"))),
    "TestMalformedArtifacts::test_meta_vocab_listing_a_word_twice": Refused(
        "encode", {"model.ckpt": _record(lambda meta: meta["vocab"]["words"].__setitem__(-1, meta["vocab"]["words"][-2]), at=1)},
        "error: model.ckpt:2: vocab contains duplicate symbols"),
    # The v1 layout (tensors only, config and vocabularies in a second file)
    # and the v2 layout (tensors as text blocks after the meta line), refused by their header.
    **{f"TestMalformedArtifacts::test_{version}_checkpoint": Refused(
        "encode", {"model.ckpt": lambda good, version=version: f"CURE-MODEL {version}".encode() + good[good.index(b"\n"):]},
        f"model.ckpt: bad checkpoint header 'CURE-MODEL {version}'") for version in ("v1", "v2")},
    "TestMalformedArtifacts::test_unreadable_input_file[missing stopwords]": Refused(
        "label", {"stopwords.txt": None}, "error: cannot read stopwords stopwords.txt: No such file or directory"),
    **{f"TestMalformedArtifacts::test_unreadable_input_file[{case}]": Refused(command, {name: content}, f"{name} is not UTF-8")
       for case, command, name, content in [
           ("corpus", "extract-paths", "corpus.jsonl", NOT_UTF8),
           ("paths", "train", "paths.jsonl", lambda good: good + NOT_UTF8),
           ("vectors", "cluster", "vectors.jsonl", _jsonl(AB_VECTOR) + NOT_UTF8),
           ("embeddings", "label", "embeddings.txt", lambda good: good + NOT_UTF8),
           ("stopwords", "label", "stopwords.txt", b"the\n" + NOT_UTF8),
           ("checkpoint", "encode", "model.ckpt", lambda good: good.replace(b"\n", b"\n" + NOT_UTF8.rstrip(), 1))]},
    # Tensor bytes that do not fit the meta line: the sweep's checkpoint holds 1 452 parameters.
    **{f"TestMalformedArtifacts::test_unreadable_input_file[{case}]": Refused(
        "encode", {"model.ckpt": change},
        f"error: model.ckpt: config and vocabularies need 1452 parameters (11616 bytes), the file holds {size} tensor bytes")
       for case, change, size in [("tensor bytes 1 short", lambda good: good[:-1], 11615),
                                  ("8 tensor bytes extra", lambda good: good + bytes(8), 11624)]},
    "TestMalformedArtifacts::test_clusters_record_without_cluster": [
        Refused(command, _scored({"clusters.jsonl": _jsonl({"pair": ["a", "b"]})}),
                _malformed("clusters.jsonl:1", KeyError("cluster"))) for command in ("label", "evaluate")],
    "TestMalformedArtifacts::test_labels_record_without_labels": Refused(
        "evaluate", _scored({"labels.jsonl": ONE_LABEL + _jsonl({"cluster": 1})}),
        _malformed("labels.jsonl:2", KeyError("labels"))),
    "TestMalformedArtifacts::test_gold_relation_without_embedding_vector": Refused(
        "evaluate", _scored({"gold.jsonl": _jsonl({"pair": ["a", "b"], "relations": ["capital", "unembedded"]})}),
        "error: gold relation names without embedding vectors: ['unembedded']"),
    "TestMalformedArtifacts::test_gold_record_without_relations": Refused(
        "evaluate", _scored({"gold.jsonl": _jsonl({"pair": ["a", "b"]})}), _malformed("gold.jsonl:1", KeyError("relations"))),
    # A gold file without records, or a pair without a relation, is refused where it is read.
    **{f"TestMalformedArtifacts::test_gold_without_a_relation_is_2[{case}]": Refused(
        "evaluate", _scored({"gold.jsonl": _jsonl(*records)}), f"error: gold.jsonl{reason}")
       for case, records, reason in [
           ("no records", [], ": no gold records"),
           ("every relations array empty", [{"pair": ["a", "b"], "relations": []}],
            ":1: relations is empty: a gold pair has at least one relation"),
           ("one relations array empty", [{"pair": ["c", "d"], "relations": ["capital"]}, {"pair": ["a", "b"], "relations": []}],
            ":2: relations is empty: a gold pair has at least one relation")]},
    **{f"TestMalformedArtifacts::test_cluster_without_candidate_words_is_named[{case}]": [
        Refused("label", {"paths.jsonl": _jsonl(ONE_PATH, *paths),
                          "clusters.jsonl": ONE_CLUSTER + _jsonl({"cluster": 1, "pair": ["c", "d"]})},
                f"error: cluster 1: {reason}", (f"method={method}",)) for method in ("wvs", "cw")]
       for case, paths, reason in [
           ("stopwords only", [{**ONE_PATH, "pair": ["c", "d"], "words": ["A", "of", "B"]}],
            "empty candidate set: every path word was an endpoint or stopword"),
           ("no path", [], "no path: none of its pairs is in the paths file")]},
    "TestMalformedArtifacts::test_malformed_line_names_file_and_line[corpus]": Refused(
        "extract-paths", {"corpus.jsonl": b'{"id": 1\n'}, "corpus.jsonl:1: invalid JSON ("),
    "TestMalformedArtifacts::test_malformed_line_names_file_and_line[corpus without tokens]": Refused(
        "extract-paths", {"corpus.jsonl": lambda good: _record(lambda r: r.update(id="x" * 5000, tokens=[]), at=1)(
            2 * good.splitlines(keepends=True)[0])},
        f"error: corpus.jsonl:2: sentence {reprlib.repr('x' * 5000)}: expected exactly one root, found 0"),
    # The sweep's embeddings file has 7 lines.
    **{f"TestMalformedArtifacts::test_malformed_line_names_file_and_line[{case}]": Refused(
        "label", {"embeddings.txt": lambda good, line=line: good + line}, f"error: embeddings.txt:8: {problem}")
       for case, line, problem in [("embeddings", b"extra 1 two\n", "unparseable vector value 'two'"),
                                   ("embeddings nan", b"extra 1 nan\n", "non-finite vector value")]},
    **{f"TestMalformedArtifacts::test_path_instance_sequences_must_match[{case}]": Refused(
        "train", {"paths.jsonl": _record(change, at=1)}, f"error: paths.jsonl:2: {reason}")
       for case, change, reason in [
           ("lengths differ", lambda r: r.update(deps=r["deps"][:-1]), "path sequences must have equal length"),
           ("empty", lambda r: r.update(words=[], deps=[], poss=[]), "path must contain at least one token")]},
    # A float or a bool where a JSON integer belongs, and anything but a
    # string where a string belongs, is refused, not coerced.
    **{f"TestMalformedArtifacts::test_field_of_the_wrong_type_is_2[{case}]": [
        Refused(command, {name: _record(change)}, _malformed(f"{name}:1", exc)) for swept, command in SWEPT if swept == name]
       for name, cases in _WRONG_TYPES.items() for case, (change, exc) in cases.items()},
    "TestTrainCheckpoint::test_no_pair_with_enough_paths_is_2": Refused(
        "train", {}, "error: no pair has at least 3 paths; nothing to train on", ("min_paths=3",)),
    # On a paths file holding a pair with one path, which a training example
    # cannot hold out. A size numpy cannot allocate is refused before any
    # array is made.
    **{f"TestTrainCheckpoint::test_setting_training_cannot_use_is_2[{setting}-{message.removeprefix('error: ')}]": Refused(
        "train", {"paths.jsonl": _with_single_path_pair}, message, (setting,))
       for setting, message in [("min_paths=1", "error: config min_paths must be at least 2, got 1"),
                                ("seed=-1", "error: config seed must be at least 0, got -1"),
                                *((f"{key}={10**20}", "parameters besides the vocabularies, more than numpy can allocate")
                                  for key in ("n_h", "d_w", "n_l", "n_g"))]},
    # Under the intp bound but past every 64-bit address space, so that the
    # allocation fails at once.
    "TestTrainCheckpoint::test_setting_training_cannot_use_is_2[d_w=1000000000000000]": Refused(
        "train", {}, "memory ran out: Unable to allocate", ("d_w=1000000000000000",)),
}


def _refused_test(cases: dict[str, list[Refused]]) -> Callable:
    """A test of the rows that REFUSED files under one test name,
    parametrized by their cases when they have any."""

    def check(sweep: Path, case: str) -> None:
        for command, inputs, stderr, settings, code in cases[case]:
            with _replaced(sweep, inputs):
                got = _run_in_sweep(sweep, command, *(arg for setting in settings for arg in ("--set", setting)))
            whole = stderr.startswith(("error: ", "numeric error: "))
            assert got[0] == code and (got[1] == stderr if whole else stderr in got[1]), got

    if list(cases) == [""]:
        return lambda self, sweep: check(sweep, "")

    @pytest.mark.parametrize("case", list(cases))
    def test_case(self, sweep, case):
        check(sweep, case)

    return test_case


def _file_refused_tests() -> None:
    """Put each test of REFUSED's rows on the class that its id names."""
    tests: dict[str, dict[str, list[Refused]]] = {}
    for test_id, rows in REFUSED.items():
        test, _, case = test_id.removesuffix("]").partition("[")
        tests.setdefault(test, {})[case] = rows if isinstance(rows, list) else [rows]
    for test, cases in tests.items():
        class_name, _, name = test.partition("::")
        setattr(globals()[class_name], name, _refused_test(cases))


_file_refused_tests()


def _typed(value):
    """value with the type of each part beside it, and an array as its
    dtype, shape, writeability and bytes: equal only for values that are
    equal in every part, order and type."""
    if isinstance(value, np.ndarray):
        return "ndarray", value.dtype.str, value.shape, value.flags.writeable, value.tobytes()
    if isinstance(value, SspTriple):
        return "SspTriple", _typed((value.words, value.deps, value.poss))
    if isinstance(value, dict):
        return "dict", [(_typed(k), _typed(v)) for k, v in value.items()]
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [_typed(v) for v in value]
    return type(value).__name__, repr(value)


@pytest.fixture
def parsed(monkeypatch) -> Counter:
    """The name of every file the JSON Lines reader parses from here on, counted."""
    names: Counter = Counter()
    read_jsonl = corpus.read_jsonl

    def counted(path, *args):
        names[Path(path).name] += 1
        return read_jsonl(path, *args)

    monkeypatch.setattr(corpus, "read_jsonl", counted)
    monkeypatch.setattr(artifacts, "read_jsonl", counted)
    return names


STAGE_VALUE_READERS = {  # each artifact whose value its stage returns, and the reader that parses it from the file
    "paths.jsonl": artifacts.read_path_instances, "vectors.jsonl": artifacts.read_vectors,
    "clusters.jsonl": artifacts.read_clusters, "labels.jsonl": artifacts.read_labels,
}


def test_stage_values_are_what_their_files_read_back(tiny_setup, tmp_path):
    """The value that extract, encode, cluster and label return, which
    `cure pipeline` passes to the later stages, is what the reader parses
    from the file the stage wrote, in every part and type."""
    _, cfg_file = tiny_setup
    cfg = load_config(str(cfg_file))
    paths, ckpt, log, vectors, clusters, centroids, labels, scores = (str(tmp_path / n) for n in PIPELINE_ARTIFACTS)
    instances = cli.stage_extract(cfg.corpus, paths)
    cli.stage_train(cfg, instances, ckpt, log)
    relation_vectors = cli.stage_encode(ckpt, instances, vectors)
    assignments, _ = cli.stage_cluster(relation_vectors, cfg.k_clusters, clusters, centroids)
    made = {
        "paths.jsonl": instances, "vectors.jsonl": relation_vectors, "clusters.jsonl": assignments,
        "labels.jsonl": cli.stage_label(assignments, instances, cfg.embeddings, cfg.method, cfg.top_n, cfg.stopwords, labels),
    }
    for name, read in STAGE_VALUE_READERS.items():
        assert _typed(made[name]) == _typed(read(tmp_path / name)), name


class TestClusterStage:
    POINTS = [[0.0], [1.0], [10.0]]  # merges (0, 1) at 1.0, then (2, 3) at 9.5

    def cluster(self, tmp_path, k: int) -> dict:
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": [f"s{i}", "o"], "vector": v} for i, v in enumerate(self.POINTS)])
        return stage_cluster(str(vectors), k, str(tmp_path / "c.jsonl"), str(tmp_path / "centroids.jsonl"))[1]

    @pytest.mark.parametrize("k, kept, undone", [(1, 9.5, None), (2, 1.0, 9.5), (3, None, 1.0)])
    def test_cut_reports_merge_distances_around_the_cut(self, tmp_path, k, kept, undone):
        assert self.cluster(tmp_path, k) == {
            "k": k, "last_kept_merge_distance": kept, "first_undone_merge_distance": undone,
        }

    def test_duplicate_heavy_vectors_cluster_as_the_brute_force_oracle_does(self, tmp_path):
        """100 lines of 28 distinct vectors, as encode writes them when most
        pairs' paths are equal; one vector is written both with 0.0 and with
        -0.0, which are one value. The assignments give the partition of the
        from-scratch agglomeration at k."""
        rng = np.random.default_rng(67)
        distinct = rng.normal(size=(28, 4))
        distinct[0, 1] = 0.0
        points = distinct[np.concatenate([np.arange(28), rng.integers(0, 28, 72)])][rng.permutation(100)]
        signed = points.copy()
        zeros = np.flatnonzero(points[:, 1] == 0.0)
        assert len(zeros) >= 2
        signed[zeros[::2], 1] = -0.0
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": [f"s{i}", "o"], "vector": v.tolist()} for i, v in enumerate(signed)])
        assert "-0.0" in vectors.read_text(encoding="utf-8")
        clusters = tmp_path / "c.jsonl"
        argv = ["--vectors", str(vectors), "--set", "k_clusters=4", "--out", str(clusters),
                "--centroids", str(tmp_path / "centroids.jsonl")]
        assert run("cluster", *argv) == 0
        got: dict[int, set[int]] = {}
        for pair, cluster_id in artifacts.read_clusters(clusters).items():
            got.setdefault(cluster_id, set()).add(int(pair[0][1:]))
        members = {i: {i} for i in range(100)}
        for t, (a, b) in enumerate(brute_force_agglomeration(points.tolist())[: 100 - 4]):
            members[100 + t] = members.pop(a) | members.pop(b)
        assert sorted(map(sorted, got.values())) == sorted(map(sorted, members.values()))


PIPELINE_ARTIFACTS = (
    "paths.jsonl", "model.ckpt", "loss_log.csv", "vectors.jsonl", "clusters.jsonl", "centroids.jsonl",
    "labels.jsonl", "scores.csv",
)


class TestPipeline:
    def test_end_to_end_artifacts(self, tiny_setup):
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg)) == 0
        out = root / "out"
        for name in (*PIPELINE_ARTIFACTS, "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert [s["name"] for s in manifest["stages"]] == [
            "extract-paths", "train", "encode", "cluster", "label", "evaluate",
        ]
        assert manifest["seed"] == 3
        assert list(manifest["stages"][1]["outputs"]) == ["model.ckpt", "loss_log.csv"]
        cut = manifest["stages"][3]["cut"]
        assert cut["k"] == 2
        assert cut["last_kept_merge_distance"] <= cut["first_undone_merge_distance"]

    def test_manifest_hashes_are_the_files(self, tiny_setup, tmp_path):
        """Every output sha256 in the manifest is that of the file on disk, and every artifact has one."""
        _, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={tmp_path}") == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        outputs = {name: digest for stage in manifest["stages"] for name, digest in stage["outputs"].items()}
        assert sorted(outputs) == sorted(PIPELINE_ARTIFACTS)
        for name, digest in outputs.items():
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name

    def test_rerun_is_byte_identical_except_manifest(self, tiny_setup):
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={root}/out_a") == 0
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={root}/out_b") == 0
        names = [p.name for p in (root / "out_a").iterdir() if p.name != "manifest.json"]
        assert names
        for name in names:
            assert (root / "out_a" / name).read_bytes() == (root / "out_b" / name).read_bytes(), name

    def test_stages_run_one_at_a_time_give_the_pipeline_bytes(self, tiny_setup, tmp_path):
        """README's six stage commands write the same bytes as `cure pipeline`
        from one config, each stage only its own files, in their formats."""
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={tmp_path / 'pipeline'}") == 0
        one = tmp_path / "stages"
        one.mkdir()
        c = ["--config", str(cfg)]
        paths, ckpt, log, vectors, clusters, centroids, labels, scores = (str(one / n) for n in PIPELINE_ARTIFACTS)
        for argv in (
            ["extract-paths", *c, "--out", paths],
            ["train", *c, "--paths-file", paths, "--out-checkpoint", ckpt, "--log", log],
            ["encode", "--checkpoint", ckpt, "--paths-file", paths, "--out", vectors],
            ["cluster", *c, "--vectors", vectors, "--out", clusters, "--centroids", centroids],
            ["label", *c, "--clusters", clusters, "--paths-file", paths, "--out", labels],
            ["evaluate", *c, "--clusters", clusters, "--labels", labels, "--out", scores],
        ):
            assert run(*argv) == 0, argv[0]
            if argv[0] == "train":
                assert sorted(p.name for p in one.iterdir()) == ["loss_log.csv", "model.ckpt", "paths.jsonl"]
        for name in PIPELINE_ARTIFACTS:
            assert (one / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes(), name

        def lines(name: str) -> list:
            text = (one / name).read_text(encoding="utf-8").splitlines()
            return [json.loads(line) for line in text] if name.endswith(".jsonl") else text

        assert lines("loss_log.csv")[0] == "epoch,loss" and len(lines("loss_log.csv")) == 3  # header + 2 epochs
        assert len(lines("vectors.jsonl")) == 6  # 6 pairs
        (size,) = {len(r["vector"]) for r in lines("vectors.jsonl")}
        assert sorted({r["cluster"] for r in lines("clusters.jsonl")}) == [0, 1]
        assert [(r["cluster"], len(r["centroid"])) for r in lines("centroids.jsonl")] == [(0, size), (1, size)]
        assert [r["cluster"] for r in lines("labels.jsonl") if r["labels"]] == [0, 1]  # each with a label word
        assert lines("scores.csv")[0] == "relation,recall,precision,f1"
        assert lines("scores.csv")[-1].startswith("rand_index,")

    def test_no_artifact_the_run_wrote_is_parsed(self, tiny_setup, tmp_path, parsed):
        """Of the JSON Lines files, a pipeline run parses its inputs, once each, and nothing it wrote."""
        _, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={tmp_path}") == 0
        assert parsed == {"corpus.jsonl": 1, "gold.jsonl": 1}

    def test_invalid_model_key_exits_before_any_stage_writes(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        out = tmp_path / "out"
        for setting, message in [
            ("epochs=-1", "config epochs must be at least 0, got -1"),
            ("seed=-1", "config seed must be at least 0, got -1"),
            ("n_l=1", "config n_l must be at least 2, got 1"),
            ("learning_rate=nan", "config learning_rate must be finite and positive, got nan"),
            ("learning_rate=inf", "config learning_rate must be finite and positive, got inf"),
            ("learning_rate=1e999", "config learning_rate must be finite and positive, got inf"),
            ("top_n=-1", "config top_n must be at least 1, got -1"),
            ("top_n=0", "config top_n must be at least 1, got 0"),
            ("k_clusters=0", "config k_clusters must be at least 1, got 0"),
            ("min_paths=0", "config min_paths must be at least 2, got 0"),
            ("min_paths=1", "config min_paths must be at least 2, got 1"),
            ("min_freq=0", "config min_freq must be at least 1, got 0"),
            ("method=wsv", "config method must be 'wvs' or 'cw', got 'wsv'"),
        ]:
            assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={out}", "--set", setting) == 2, setting
            assert message in capsys.readouterr().err
            assert not out.exists(), setting

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ValidationError, match="corpus"):
            run_pipeline(RunConfig(out_dir=str(tmp_path)))

    def test_missing_input_file_exits_before_any_stage_writes(self, tiny_setup, tmp_path, capsys):
        """A missing file or a directory named as an input exits 2 before out_dir
        exists; stopwords alone may be empty (the packaged list) and a file it
        names runs."""
        root, cfg = tiny_setup
        out = tmp_path / "out"
        for key in ("corpus", "embeddings", "gold", "stopwords"):
            for named in (tmp_path / f"no-{key}.jsonl", tmp_path, "x" * 5000):  # a name quoted shortened
                assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={out}", "--set", f"{key}={named}") == 2
                err = capsys.readouterr().err
                assert f"pipeline: config {key!r} does not name a file: {reprlib.repr(str(named))}" in err
                assert not out.exists(), (key, named)
        packaged = resources.files("cure").joinpath("data/stopwords.txt")
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={out}", "--set", f"stopwords={packaged}") == 0

    def test_failing_stage_is_named(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={tmp_path}", "--set", "min_paths=99") == 2
        assert "error: stage 'train' failed: no pair has at least 99 paths" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_failed_run_leaves_no_manifest_beside_its_artifacts(self, tiny_setup, tmp_path, capsys):
        """A run that fails in a stage deletes the previous run's manifest,
        whose hashes no longer describe the files the failed run rewrote."""
        _, cfg = tiny_setup
        out = ["--config", str(cfg), "--set", f"out_dir={tmp_path}"]
        assert run("pipeline", *out) == 0
        assert (tmp_path / "manifest.json").exists()
        assert run("pipeline", *out, "--set", "min_paths=99") == 2
        assert "error: stage 'train' failed" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_run_refused_before_any_stage_leaves_the_previous_run_whole(self, tiny_setup, tmp_path, capsys):
        _, cfg = tiny_setup
        out = ["--config", str(cfg), "--set", f"out_dir={tmp_path}"]
        assert run("pipeline", *out) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert run("pipeline", *out, "--set", f"corpus={tmp_path / 'missing.jsonl'}") == 2
        assert "pipeline: config 'corpus' does not name a file" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


REQUIRED_FILE_FLAGS = {
    "synth": ["--out-dir"],
    "extract-paths": ["--out"],
    "train": ["--paths-file", "--out-checkpoint", "--log"],
    "encode": ["--checkpoint", "--paths-file", "--out"],
    "cluster": ["--vectors", "--out", "--centroids"],
    "label": ["--clusters", "--paths-file", "--out"],
    "evaluate": ["--clusters", "--labels", "--out"],
}


@pytest.mark.parametrize("command, flag", [(c, flag) for c, flags in REQUIRED_FILE_FLAGS.items() for flag in flags])
def test_leaving_out_a_file_flag_exits_2(command, flag, tmp_path, capsys):
    """Every file a stage reads or writes is named by a required flag: with the
    others given, leaving one out stops argparse with exit 2 before anything runs."""
    others = [other for other in REQUIRED_FILE_FLAGS[command] if other != flag]
    with pytest.raises(SystemExit) as exited:
        run(command, *(arg for other in others for arg in (other, str(tmp_path / other[2:]))))
    assert exited.value.code == 2
    assert f"the following arguments are required: {flag}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_every_readme_command_parses():
    """Every `cure ...` line in README's shell blocks parses, so that a flag
    the command line no longer has cannot stay in the docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", readme, re.S)
    commands = [line for block in blocks for line in block.splitlines() if line.startswith("cure ")]
    assert len(commands) >= 8
    parser = cli.build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")


def test_python_m_cure_runs_from_a_checkout():
    src = Path(cli.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "cure", "--version"], capture_output=True, text=True, env=env)
    assert (done.returncode, done.stdout.strip()) == (0, f"cure {cli.__version__}")
