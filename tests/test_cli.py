import hashlib
import json
import math
import os
import re
import reprlib
import shlex
import shutil
import struct
import subprocess
import sys
import tracemalloc
from collections import Counter
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cure import artifacts, autodiff, cli, corpus
from cure.cli import RunConfig, load_config, main, run_pipeline, stage_cluster
from cure.errors import NumericError, ValidationError
from cure.model import parameter_shapes, paths_to_ids, read_checkpoint, write_checkpoint
from cure.paths import SspTriple, group_pairs
from cure.vocab import load_pretrained, write_embeddings

from helpers import WriteFailed, brute_force_agglomeration, fail_writes_halfway


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


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return path


def split_checkpoint(ckpt: Path) -> tuple[bytes, bytes, bytes]:
    """Header line, meta line (both without their newline) and tensor bytes."""
    header, meta, tensors = ckpt.read_bytes().split(b"\n", 2)
    return header, meta, tensors


def with_meta(ckpt: Path, meta: bytes) -> bytes:
    """The bytes of ckpt with its meta line replaced by meta."""
    header, _, tensors = split_checkpoint(ckpt)
    return b"\n".join([header, meta, tensors])


def tensor_offset(ckpt: Path, name: str) -> int:
    """Byte offset in ckpt of the first value of the tensor arrays() calls name."""
    params, _ = read_checkpoint(ckpt)
    params.flat[...] = np.arange(params.flat.size)
    _, _, tensors = split_checkpoint(ckpt)
    assert len(tensors) == 8 * params.flat.size
    return ckpt.stat().st_size - len(tensors) + 8 * int(params.arrays()[name].ravel()[0])


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
         ("", ["epochs=lots"], "override 'epochs=lots': config key 'epochs': expected integer, got 'lots'")],
    )
    def test_error_names_the_line_or_override(self, tmp_path, text, overrides, message):
        path = tmp_path / "c.cfg"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValidationError) as raised:
            load_config(str(path), overrides)
        assert str(raised.value).startswith(message), raised.value


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        code = run("extract-paths", "--set", f"corpus={tmp_path / 'missing.jsonl'}", "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error" in capsys.readouterr().err

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

    def test_missing_checkpoint_is_2(self, tmp_path, capsys):
        code = run(
            "encode",
            "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--paths-file", str(tmp_path / "paths.jsonl"),
            "--out", str(tmp_path / "v.jsonl"),
        )
        assert code == 2
        assert f"cannot read checkpoint {tmp_path / 'nope.ckpt'}" in capsys.readouterr().err

    def test_unreadable_input_names_its_path_once(self, tmp_path, capsys):
        """The reason is the OSError's own, without the path it repeats."""
        long = str(tmp_path / ("y" * 5000))
        assert run("extract-paths", "--set", f"corpus={long}", "--out", str(tmp_path / "o")) == 2
        err = capsys.readouterr().err.rstrip("\n")
        assert err == f"error: cannot read corpus record file {long}: File name too long", err[-200:]

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

    @pytest.mark.parametrize(
        "config_text, setting",
        [("", "top_n=" + "x" * 3000), ("", "top_n=-" + "9" * 4000), ("top_n " + "x" * 3000 + "\n", "seed=1")],
        ids=["value not an integer", "integer under the bound", "line without equals"],
    )
    def test_long_config_value_is_shortened_in_the_error(self, tmp_path, capsys, config_text, setting):
        config = tmp_path / "c.cfg"
        config.write_text(config_text, encoding="utf-8")
        assert run("extract-paths", "--config", str(config), "--set", setting, "--out", str(tmp_path / "p")) == 2
        err = capsys.readouterr().err
        assert len(err.rstrip("\n")) < 200 and "\n" not in err.rstrip("\n"), err[:300]
        assert "top_n" in err, err

    @pytest.mark.parametrize("case", ["config method", "pipeline corpus", "corpus sentence id", "vectors pair twice",
                                      "checkpoint header", "embeddings token twice", "embeddings token without values",
                                      "embeddings bad value"])
    def test_long_input_value_is_shortened_in_the_error(self, tiny_setup, tmp_path, capsys, case):
        """A value an error quotes from a setting or an input file is shortened,
        and the error still names the key or the file."""
        root, _ = tiny_setup
        long, bad, empty, out = "x" * 50_000, tmp_path / "bad", tmp_path / "empty", str(tmp_path / "out")
        empty.write_text("", encoding="utf-8")
        record = json.loads((root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
        record["tokens"][0]["head"] = 99
        bad.write_text({
            "corpus sentence id": json.dumps({**record, "id": long}) + "\n",
            "vectors pair twice": 2 * (json.dumps({"pair": [long, "o"], "vector": [1.0]}) + "\n"),
            "checkpoint header": "C" * 100_000 + "\n",
            "embeddings token twice": f"{long} 1\n{long} 2\n",
            "embeddings token without values": f"{long}\n",
            "embeddings bad value": f"tok 1.0 {long}\n",
        }.get(case, ""), encoding="utf-8")
        label = ["label", "--clusters", str(empty), "--paths-file", str(empty), "--set", f"embeddings={bad}"]
        argv, named = {
            "config method": (["extract-paths", "--set", f"method={long}"], "method"),
            "pipeline corpus": (["pipeline", "--set", f"corpus={long}", "--set", "embeddings=e", "--set", "gold=g",
                                 "--set", f"out_dir={out}"], "corpus"),
            "corpus sentence id": (["extract-paths", "--set", f"corpus={bad}"], str(bad)),
            "vectors pair twice": (["cluster", "--vectors", str(bad), "--centroids", str(tmp_path / "centroids.jsonl")],
                                   str(bad)),
            "checkpoint header": (["encode", "--checkpoint", str(bad), "--paths-file", str(empty)], str(bad)),
            "embeddings token twice": (label, str(bad)),
            "embeddings token without values": (label, str(bad)),
            "embeddings bad value": (label, str(bad)),
        }[case]
        assert run(*argv, *(["--out", out] if case != "pipeline corpus" else [])) == 2
        err = capsys.readouterr().err.rstrip("\n")
        assert len(err) < 300 and "\n" not in err and named in err, err[:400]
        assert not Path(out).exists()

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

    # inf in a bias or an input weight saturates gates and still gives finite
    # vectors; the checkpoint itself must be rejected.
    @pytest.mark.parametrize(
        "name, value", [("enc_fwd.W_o", "inf"), ("enc_fwd.b_o", "inf"), ("enc_bwd.U_f", "-inf"), ("dec.b_h", "nan")]
    )
    def test_nonfinite_parameter_is_3(self, trained, tmp_path, capsys, name, value):
        paths, ckpt = trained
        bad = tmp_path / "model.ckpt"
        data, offset = ckpt.read_bytes(), tensor_offset(ckpt, name)
        bad.write_bytes(data[:offset] + struct.pack("<d", float(value)) + data[offset + 8 :])
        code = run("encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", str(tmp_path / "v.jsonl"))
        assert code == 3
        assert f"parameter {name!r} holds a non-finite value" in capsys.readouterr().err

    @staticmethod
    def nan_vector_checkpoint(ckpt: Path, bad: Path) -> Path:
        """Finite parameters whose LSTM pre-activation is inf - inf: with
        all-ones embeddings, input weights of 1e308 and recurrent weights of
        -1e308, the forward LSTM's input term is +inf at every step and, once
        its state is positive, its recurrent term -inf. Every vector is NaN."""
        params, vocabs = read_checkpoint(ckpt)
        for table in (params.word_emb, params.dep_emb, params.pos_emb):
            table[...] = 1.0
        params.enc_fwd.U[...] = 1e308
        params.enc_fwd.W[...] = -1e308
        write_checkpoint(bad, params, vocabs)
        return bad

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_relation_vector_is_3(self, trained, tmp_path, capsys):
        paths, ckpt = trained
        bad, out = self.nan_vector_checkpoint(ckpt, tmp_path / "model.ckpt"), tmp_path / "v.jsonl"
        assert run("encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", str(out)) == 3
        assert re.search(r"numeric error: pair \('\w+', '\w+'\): non-finite relation vector", capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_relation_vector_of_a_long_pair_is_shortened(self, trained, tmp_path, capsys):
        paths, ckpt = trained
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        long = write_jsonl(tmp_path / "p.jsonl", [{**rec, "pair": ["x" * 5000, rec["pair"][1]]} for rec in records])
        bad = self.nan_vector_checkpoint(ckpt, tmp_path / "model.ckpt")
        assert run("encode", "--checkpoint", str(bad), "--paths-file", str(long), "--out", str(tmp_path / "v")) == 3
        err = capsys.readouterr().err.rstrip("\n")
        assert len(err.encode()) < 300 and "\n" not in err and "non-finite relation vector" in err, err[:400]

    def test_pair_without_gold_is_shortened_in_the_error(self, tiny_setup, tmp_path, capsys):
        """evaluate refuses a clustered pair that gold lacks, quoting it shortened."""
        root, cfg = tiny_setup
        gold = [json.loads(line) for line in (root / "gold.jsonl").read_text(encoding="utf-8").splitlines()]
        pairs = [rec["pair"] for rec in gold] + [["x" * 5000, "o"]]
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": pair} for pair in pairs])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [[gold[0]["relations"][0], 1.0]]}])
        out = tmp_path / "s.csv"
        argv = ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels), "--out", str(out)]
        assert run(*argv) == 2
        err = capsys.readouterr().err.rstrip("\n")
        assert len(err.encode()) < 300 and "\n" not in err and "items without gold relations" in err, err[:400]
        assert not out.exists()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the distance overflows
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

    @pytest.mark.parametrize("name", ["paths", "vectors"])
    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch, name):
        """A streamed write that dies partway leaves the old file byte-identical and no temporary behind."""
        path = tmp_path / f"{name}.jsonl"
        write = {
            "paths": lambda n: artifacts.write_paths(path, [(("s", f"o{i}"), SspTriple(("w",), ("d",), ("p",)))
                                                            for i in range(n)]),
            "vectors": lambda n: artifacts.write_vectors(path, {("s", f"o{i}"): np.full(3, i / 7) for i in range(n)}),
        }[name]
        write(2)
        before = path.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(WriteFailed):
            write(3)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


_WRONG_TYPES = {  # case: (what the file holds, a change to its first record, the reason given)
    "id 7": ("corpus record", lambda r: r.update(id=7), "id must be a string, got 7"),
    "head 1.7": ("corpus record", lambda r: r["tokens"][0].update(head=1.7), "head must be an integer, got 1.7"),
    "head true": ("corpus record", lambda r: r["tokens"][0].update(head=True), "head must be an integer, got True"),
    "start 0.0": ("corpus record", lambda r: r["subject"].update(start=0.0), "start must be an integer, got 0.0"),
    "end false": ("corpus record", lambda r: r["object"].update(end=False), "end must be an integer, got False"),
    "text 12": ("corpus record", lambda r: r["tokens"][0].update(text=12), "text must be a string, got 12"),
    "pos null": ("corpus record", lambda r: r["tokens"][1].update(pos=None), "pos must be a string, got None"),
    "dep array": ("corpus record", lambda r: r["tokens"][1].update(dep=["x"]), "dep must be a string, got ['x']"),
    "canonical 5": ("corpus record", lambda r: r["object"].update(canonical=5), "canonical must be a string, got 5"),
    "cluster 0.9": ("cluster assignment", lambda r: r.update(cluster=0.9), "cluster must be an integer, got 0.9"),
    "cluster true": ("cluster assignment", lambda r: r.update(cluster=True), "cluster must be an integer, got True"),
    "labels cluster 0.0": ("cluster label", lambda r: r.update(cluster=0.0), "cluster must be an integer, got 0.0"),
    "label word 12": ("cluster label", lambda r: r.update(labels=[[12, 1.0]]), "label word must be a string, got 12"),
    "label score text": ("cluster label", lambda r: r.update(labels=[["w", "1"]]), "label score must be a number"),
    "label score true": ("cluster label", lambda r: r.update(labels=[["w", True]]), "label score must be a number"),
    "label score NaN": ("cluster label", lambda r: r.update(labels=[["w", math.nan]]), "label score must be finite"),
    "label score -Infinity": ("cluster label", lambda r: r.update(labels=[["w", -math.inf]]),
                              "label score must be finite"),
}


class TestMalformedArtifacts:
    """A malformed input file exits 2 with the file and record named, never a traceback."""

    def assert_exit_2(self, capsys, argv, *fragments):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        for fragment in fragments:
            assert fragment in err, err

    def test_vectors_record_without_pair(self, tmp_path, capsys):
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": ["a", "b"], "vector": [0.0]}, {"vector": [1.0]}])
        self.assert_exit_2(
            capsys, ["cluster", "--vectors", str(vectors), "--set", "k_clusters=1", "--out", str(tmp_path / "c.jsonl"),
                     "--centroids", str(tmp_path / "centroids.jsonl")],
            f"{vectors}:2: malformed relation vector",
        )

    def test_bad_record_after_blank_lines_names_its_line(self, tmp_path, capsys):
        vectors = tmp_path / "v.jsonl"
        vectors.write_text('{"pair": ["a", "b"], "vector": [0.0]}\n\n  \n{"vector": [1.0]}\n', encoding="utf-8")
        self.assert_exit_2(
            capsys, ["cluster", "--vectors", str(vectors), "--set", "k_clusters=1", "--out", str(tmp_path / "c.jsonl"),
                     "--centroids", str(tmp_path / "centroids.jsonl")],
            f"{vectors}:4: malformed relation vector (KeyError('pair'))",
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_vectors_record_with_non_finite_entry(self, tmp_path, capsys, value):
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": ["a", "b"], "vector": [0.0, 1.0]},
                                                     {"pair": ["c", "d"], "vector": [1.0, value]}])
        assert ("NaN" if value != value else "Infinity") in vectors.read_text()
        out = tmp_path / "c.jsonl"
        self.assert_exit_2(
            capsys, ["cluster", "--vectors", str(vectors), "--set", "k_clusters=2", "--out", str(out),
                     "--centroids", str(tmp_path / "centroids.jsonl")],
            f"{vectors}:2: malformed relation vector", "non-finite",
        )
        assert not out.exists()

    def cluster_argv(self, vectors: Path, tmp_path) -> list[str]:
        return ["cluster", "--vectors", str(vectors), "--set", "k_clusters=1", "--out", str(tmp_path / "c.jsonl"),
                "--centroids", str(tmp_path / "centroids.jsonl")]

    @pytest.mark.parametrize("pair", ["ab", ["a"], ["a", "b", "c"], ["a", 1], [["a"], "b"], None])
    @pytest.mark.parametrize("layout", ["as encode writes it", "keys reordered"])
    def test_vectors_pair_must_be_two_strings(self, tmp_path, capsys, pair, layout):
        """Both ways of reading a vectors line, the split form and plain
        json.loads, refuse a pair that is not an array of two strings."""
        bad = {"pair": pair, "vector": [1.0]} if layout == "as encode writes it" else {"vector": [1.0], "pair": pair}
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": ["a", "b"], "vector": [0.0]}, bad])
        self.assert_exit_2(
            capsys, self.cluster_argv(vectors, tmp_path),
            f"{vectors}:2: malformed relation vector", "pair must be an array of two strings",
        )
        assert not (tmp_path / "c.jsonl").exists()

    @pytest.mark.parametrize("kind", ["paths", "clusters", "gold"])
    def test_pair_given_as_a_string_is_2(self, tiny_setup, trained, tmp_path, capsys, kind):
        root, cfg = tiny_setup
        paths, _ = trained
        out = str(tmp_path / "out")
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])

        def evaluate(clusters: Path) -> list[str]:
            return ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
                    "--out", out]

        if kind == "paths":
            records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
            bad = write_jsonl(tmp_path / "p.jsonl", [records[0], {**records[1], "pair": "ab"}])
            argv = ["train", "--config", str(cfg), "--paths-file", str(bad), "--out-checkpoint", out,
                    "--log", str(tmp_path / "loss_log.csv")]
            what, line = "path instance", 2
        elif kind == "clusters":
            bad = write_jsonl(tmp_path / "bad.jsonl", [{"cluster": 0, "pair": "ab"}])
            argv, what, line = evaluate(bad), "cluster assignment", 1
        else:
            clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
            bad = write_jsonl(tmp_path / "g.jsonl", [{"pair": "ab", "relations": ["r"]}])
            argv, what, line = evaluate(clusters) + ["--set", f"gold={bad}"], "gold relation", 1
        self.assert_exit_2(capsys, argv, f"{bad}:{line}: malformed {what}", "pair must be an array of two strings")

    def test_pair_listed_twice_in_vectors(self, tmp_path, capsys):
        records = [{"pair": ["a", "b"], "vector": [0.0]}, {"pair": ["c", "d"], "vector": [1.0]},
                   {"vector": [2.0], "pair": ["a", "b"]}]
        vectors = write_jsonl(tmp_path / "v.jsonl", records)
        self.assert_exit_2(capsys, self.cluster_argv(vectors, tmp_path), f"{vectors}: pair ['a', 'b'] is listed twice")
        assert not (tmp_path / "c.jsonl").exists()

    def test_pair_listed_twice_in_clusters(self, tiny_setup, trained, tmp_path, capsys):
        """label would pool the pair's paths twice, evaluate would score it twice."""
        root, cfg = tiny_setup
        paths, _ = trained
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": c, "pair": ["a", "b"]} for c in (0, 1)])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        for argv in (
            ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths)],
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels)],
        ):
            argv += ["--out", str(tmp_path / "out")]
            self.assert_exit_2(capsys, argv, f"{clusters}: pair ['a', 'b'] is listed twice")

    def test_pair_listed_twice_in_gold(self, tiny_setup, tmp_path, capsys):
        """A second record for a pair would silently replace the first."""
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["a", "b"], "relations": ["r"]},
                                                  {"pair": ["a", "b"], "relations": ["s"]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--set", f"gold={gold}", "--out", str(tmp_path / "s.csv")],
            f"{gold}: pair ['a', 'b'] is listed twice; one record lists all of a pair's relations",
        )

    def test_relation_listed_twice_for_a_pair_in_gold(self, tiny_setup, tmp_path, capsys):
        """["a"] beside ["a", "a"] would be two rand-index classes."""
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["p", p]} for p in "12"])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["p", "1"], "relations": ["a"]},
                                                  {"pair": ["p", "2"], "relations": ["a", "a"]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--set", f"gold={gold}", "--out", str(tmp_path / "s.csv")],
            f"{gold}:2: relation 'a' is listed twice",
        )

    def test_cluster_listed_twice_in_labels(self, tiny_setup, tmp_path, capsys):
        """A second label record for a cluster would silently replace the first."""
        root, cfg = tiny_setup
        gold = [json.loads(line) for line in (root / "gold.jsonl").read_text(encoding="utf-8").splitlines()]
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": rec["pair"]} for rec in gold])
        names = sorted({r for rec in gold for r in rec["relations"]})
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [[name, 1.0]]} for name in names])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--out", str(tmp_path / "s.csv")],
            f"{labels}: cluster 0 is listed twice",
        )

    @pytest.mark.parametrize("case", ["words", "deps", "poss", "number in words", "relations", "checkpoint vocab"])
    def test_strings_must_come_as_an_array_of_strings(self, tiny_setup, trained, tmp_path, capsys, case):
        """A string where an array of strings belongs is refused, not read as
        its characters, and so is a number in such an array."""
        root, cfg = tiny_setup
        paths, ckpt = trained
        out = str(tmp_path / "out")
        if case == "relations":
            clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
            labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
            bad = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["a", "b"], "relations": "ab"}])
            argv = ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
                    "--set", f"gold={bad}", "--out", out]
            self.assert_exit_2(capsys, argv, f"{bad}:1: malformed gold relation", "relations must be an array of strings")
        elif case == "checkpoint vocab":
            meta = json.loads(split_checkpoint(ckpt)[1])
            meta["vocab"]["deps"][-1] = 7
            bad = tmp_path / "model.ckpt"
            bad.write_bytes(with_meta(ckpt, json.dumps(meta).encode()))
            argv = ["encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", out]
            self.assert_exit_2(capsys, argv, f"{bad}:2: malformed checkpoint metadata", "deps must be an array of strings")
        else:
            records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
            key = case.split()[-1]
            n = len(records[1][key])
            # As long as the path, so that it would read as a path of single characters.
            value = [*records[1][key][:-1], 7] if case == "number in words" else "x" * n
            bad = write_jsonl(tmp_path / "p.jsonl", [records[0], {**records[1], key: value}])
            argv = ["train", "--config", str(cfg), "--paths-file", str(bad), "--out-checkpoint", out,
                    "--log", str(tmp_path / "loss_log.csv")]
            self.assert_exit_2(capsys, argv, f"{bad}:2: malformed path instance", f"{key} must be an array of strings")

    @pytest.mark.parametrize("vector", [1.5, [[1.0], [2.0]]])
    @pytest.mark.parametrize("layout", ["as encode writes it", "keys reordered"])
    def test_vector_must_be_one_dimensional(self, tmp_path, capsys, vector, layout):
        records = [{"pair": [name, "o"], "vector": vector} for name in "ab"]
        if layout == "keys reordered":
            records = [{"vector": r["vector"], "pair": r["pair"]} for r in records]
        vectors = write_jsonl(tmp_path / "v.jsonl", records)
        self.assert_exit_2(
            capsys, self.cluster_argv(vectors, tmp_path),
            f"{vectors}:1: malformed relation vector", "vector must be an array of numbers",
        )

    def test_vectors_of_different_lengths_name_the_first_line_that_differs(self, tmp_path, capsys):
        vectors = tmp_path / "v.jsonl"
        vectors.write_text('{"pair": ["a", "o"], "vector": [0.0, 1.0]}\n\n{"vector": [2.0, 3.0], "pair": ["b", "o"]}\n'
                           '{"pair": ["c", "o"], "vector": [1.0]}\n{"pair": ["d", "o"], "vector": [1.0, 2.0, 3.0]}\n',
                           encoding="utf-8")
        self.assert_exit_2(
            capsys, self.cluster_argv(vectors, tmp_path), f"{vectors}:4: vector has 1 values, the file's first has 2"
        )
        assert not (tmp_path / "c.jsonl").exists()

    def test_empty_vector_is_2(self, tmp_path, capsys):
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": [name, "o"], "vector": []} for name in "ab"])
        self.assert_exit_2(
            capsys, self.cluster_argv(vectors, tmp_path), f"{vectors}:1: malformed relation vector", "vector is empty"
        )

    def test_integer_too_large_for_a_float_is_2(self, tmp_path, capsys):
        vectors = tmp_path / "v.jsonl"
        huge = "1" + "0" * 400  # a JSON integer, so no float parse turns it into inf
        vectors.write_text(f'{{"pair": ["a", "b"], "vector": [0.0]}}\n{{"pair": ["c", "d"], "vector": [{huge}]}}\n',
                           encoding="utf-8")
        self.assert_exit_2(
            capsys, self.cluster_argv(vectors, tmp_path), f"{vectors}:2: malformed relation vector (OverflowError("
        )

    def test_integer_past_the_digit_limit_is_2(self, tiny_setup, trained, tmp_path, capsys):
        """A JSON integer longer than Python converts to an int (4 300 digits),
        in a corpus line or in a checkpoint's meta line."""
        root, _ = tiny_setup
        huge = "1" + "0" * 5000
        first = json.loads((root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
        first["tokens"][0]["head"] = "HUGE"
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(json.dumps(first).replace('"HUGE"', huge) + "\n", encoding="utf-8")
        argv = ["extract-paths", "--set", f"corpus={corpus}", "--out", str(tmp_path / "p.jsonl")]
        self.assert_exit_2(capsys, argv, f"{corpus}:1: ")
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"]["learning_rate"] = "HUGE"
        content = with_meta(trained[1], json.dumps(meta).replace('"HUGE"', huge).encode())
        self.assert_exit_2(capsys, self.encode_argv(trained, tmp_path, content), f"{tmp_path / 'model.ckpt'}:2: ")

    def encode_argv(self, trained, tmp_path, content: bytes) -> list[str]:
        """encode on a checkpoint file holding content."""
        paths, _ = trained
        bad = tmp_path / "model.ckpt"
        bad.write_bytes(content)
        return ["encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", str(tmp_path / "v.jsonl")]

    def test_corrupt_meta(self, trained, tmp_path, capsys):
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], b'{"config": {"n_h": 4,'))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "invalid JSON")

    def test_deeply_nested_json_is_2(self, trained, tmp_path, capsys):
        """JSON nested deeper than the parser's recursion limit, in a JSONL line or the meta line."""
        deep = b"[" * 100_000
        vectors = tmp_path / "v.jsonl"
        vectors.write_bytes(deep + b"\n")
        argv = ["cluster", "--vectors", str(vectors), "--set", "k_clusters=1", "--out", str(tmp_path / "c.jsonl"),
                "--centroids", str(tmp_path / "centroids.jsonl")]
        self.assert_exit_2(capsys, argv, f"{vectors}:1: invalid JSON (nested too deeply)")
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], deep))
        self.assert_exit_2(capsys, argv, f"{tmp_path / 'model.ckpt'}:2: invalid JSON (nested too")

    def test_meta_config_with_unknown_key(self, trained, tmp_path, capsys):
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"]["n_hidden"] = 4
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "n_hidden")

    def test_meta_config_with_non_integer_dimension(self, trained, tmp_path, capsys):
        """4.0 for 4 asks for as many floats as the file holds, but is no array dimension."""
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"]["n_h"] = float(meta["config"]["n_h"])
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "config n_h must be an integer, got 4.0")

    @pytest.mark.parametrize(
        "key, value, reason",
        [("seed", -1, "config seed must be at least 0, got -1"),
         ("epochs", 2.5, "config epochs must be an integer, got 2.5"),
         ("n_h", True, "config n_h must be an integer, got True")],
        ids=["seed -1", "epochs 2.5", "n_h true"],
    )
    def test_meta_config_integer_key_checks(self, trained, tmp_path, capsys, key, value, reason):
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"][key] = value
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, f"{tmp_path / 'model.ckpt'}:2: {reason}")

    def test_meta_config_with_nan_learning_rate(self, trained, tmp_path, capsys):
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"]["learning_rate"] = float("nan")
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "learning_rate must be finite and positive")

    def test_meta_config_with_integer_learning_rate_too_large_for_a_float(self, trained, tmp_path, capsys):
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["config"]["learning_rate"] = 10**400  # a JSON integer, so no float parse turns it into inf
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, f"{tmp_path / 'model.ckpt'}:2: malformed checkpoint metadata (OverflowError(")

    def test_meta_vocab_listing_a_word_twice(self, trained, tmp_path, capsys):
        meta = json.loads(split_checkpoint(trained[1])[1])
        meta["vocab"]["words"][-1] = meta["vocab"]["words"][-2]
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        self.assert_exit_2(capsys, argv, f"{tmp_path / 'model.ckpt'}:2: vocab contains duplicate symbols")

    def test_oversized_meta_config_exits_before_allocating(self, trained, tmp_path, capsys):
        """A config claiming tensors far larger than the file's is refused by
        the float count, before any parameter buffer is allocated."""
        _, meta_line, tensors = split_checkpoint(trained[1])
        meta = json.loads(meta_line)
        meta["config"]["n_h"] = 10**7
        argv = self.encode_argv(trained, tmp_path, with_meta(trained[1], json.dumps(meta).encode()))
        sizes = [len(meta["vocab"][key]) for key in ("words", "deps", "poss")]
        shapes = parameter_shapes(cli.ModelConfig(**meta["config"]), *sizes).values()
        expected = sum(math.prod(shape) for shape in shapes)
        tracemalloc.start()
        try:
            self.assert_exit_2(
                capsys, argv, str(tmp_path / "model.ckpt"), f"need {expected} parameters",
                f"holds {len(tensors)} tensor bytes",
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def assert_header_refused(self, trained, tmp_path, capsys, header: str):
        _, meta, tensors = split_checkpoint(trained[1])
        argv = self.encode_argv(trained, tmp_path, b"\n".join([header.encode(), meta, tensors]))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), repr(header))

    def test_v1_checkpoint(self, trained, tmp_path, capsys):
        """The v1 layout (tensors only, config and vocabularies in a second file) is refused by its header."""
        self.assert_header_refused(trained, tmp_path, capsys, "CURE-MODEL v1")

    def test_v2_checkpoint(self, trained, tmp_path, capsys):
        """The v2 layout (per-tensor text blocks after the meta line) is refused by its header."""
        self.assert_header_refused(trained, tmp_path, capsys, "CURE-MODEL v2")

    def test_newline_free_file_is_refused_by_its_first_bytes(self, trained, tmp_path, capsys):
        """The header is read as at most its own length and a newline, so a
        20 MB file without a newline is refused without being read whole."""
        argv = self.encode_argv(trained, tmp_path, b"x" * (20 * 2**20))
        tracemalloc.start()
        try:
            self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "bad checkpoint header")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(data=st.data())
    def test_damaged_checkpoint_never_raises(self, trained, data):
        """Truncation at any offset, a byte flipped in the header or meta line,
        bytes appended, or a non-UTF-8 sequence in the meta line: encode exits
        0, 2 or 3 and raises nothing."""
        paths, ckpt = trained
        good = ckpt.read_bytes()
        header, meta, _ = split_checkpoint(ckpt)
        meta_start = len(header) + 1
        meta_end = meta_start + len(meta)  # the meta line's newline
        truncated = st.integers(0, len(good) - 1).map(lambda n: good[:n])
        flipped = st.tuples(st.integers(0, meta_end), st.integers(1, 255)).map(
            lambda f: good[: f[0]] + bytes([good[f[0]] ^ f[1]]) + good[f[0] + 1 :]
        )
        appended = st.binary(min_size=1, max_size=32).map(lambda extra: good + extra)
        not_utf8 = st.sampled_from([b"\x80", b"\xc3", b"\xed\xa0\x80", b"\xff"])
        in_meta = st.tuples(st.integers(meta_start, meta_end), not_utf8).map(lambda f: good[: f[0]] + f[1] + good[f[0] :])
        bad, out = ckpt.parent / "damaged.ckpt", ckpt.parent / "damaged-vectors.jsonl"
        bad.write_bytes(data.draw(st.one_of(truncated, flipped, appended, in_meta)))
        assert run("encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", str(out)) in (0, 2, 3)

    @pytest.mark.parametrize(
        "case",
        ["missing stopwords", "corpus", "paths", "vectors", "embeddings", "stopwords", "checkpoint",
         "tensor bytes 1 short", "8 tensor bytes extra"],
    )
    def test_unreadable_input_file(self, tiny_setup, trained, tmp_path, capsys, case):
        """A missing or non-UTF-8 input file, or a checkpoint whose tensor bytes
        do not fit its meta line, exits 2 naming the file."""
        root, cfg = tiny_setup
        paths, ckpt = trained
        bad, out = tmp_path / "bad-input", str(tmp_path / "out")
        not_utf8 = "naïve\n".encode("latin-1")
        pairs = {tuple(json.loads(line)["pair"]) for line in paths.read_text(encoding="utf-8").splitlines()}
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": list(p)} for p in sorted(pairs)])
        label = ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths), "--out", out]
        encode = ["encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", out]
        n_floats = len(split_checkpoint(ckpt)[2]) // 8

        content, argv, reason = {
            "missing stopwords": (None, label + ["--set", f"stopwords={bad}"], "cannot read stopwords"),
            "corpus": (not_utf8, ["extract-paths", "--set", f"corpus={bad}", "--out", out], "not UTF-8"),
            "paths": (paths.read_bytes() + not_utf8, ["train", "--config", str(cfg), "--paths-file", str(bad),
                                                      "--out-checkpoint", out, "--log", str(tmp_path / "loss_log.csv")],
                      "not UTF-8"),
            "vectors": (b'{"pair": ["a", "b"], "vector": [0.0]}\n' + not_utf8,
                        ["cluster", "--vectors", str(bad), "--set", "k_clusters=1", "--out", out,
                         "--centroids", str(tmp_path / "centroids.jsonl")],
                        "not UTF-8"),
            "embeddings": ((root / "embeddings.txt").read_bytes() + not_utf8, label + ["--set", f"embeddings={bad}"],
                           "not UTF-8"),
            "stopwords": (b"the\n" + not_utf8, label + ["--set", f"stopwords={bad}"], "not UTF-8"),
            "checkpoint": (with_meta(ckpt, not_utf8.rstrip() + split_checkpoint(ckpt)[1]), encode, "not UTF-8"),
            "tensor bytes 1 short": (ckpt.read_bytes()[:-1], encode,
                                     f"need {n_floats} parameters ({8 * n_floats} bytes), "
                                     f"the file holds {8 * n_floats - 1} tensor bytes"),
            "8 tensor bytes extra": (ckpt.read_bytes() + bytes(8), encode,
                                     f"need {n_floats} parameters ({8 * n_floats} bytes), "
                                     f"the file holds {8 * n_floats + 8} tensor bytes"),
        }[case]
        if content is not None:
            bad.write_bytes(content)
        self.assert_exit_2(capsys, argv, str(bad), reason)

    def test_clusters_record_without_cluster(self, tiny_setup, trained, tmp_path, capsys):
        root, cfg = tiny_setup
        paths, _ = trained
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"pair": ["a", "b"]}])
        self.assert_exit_2(
            capsys,
            ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths),
             "--out", str(tmp_path / "l.jsonl")],
            f"{clusters}:1: malformed cluster assignment",
        )
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--out", str(tmp_path / "s.csv")],
            f"{clusters}:1: malformed cluster assignment",
        )

    def test_labels_record_without_labels(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}, {"cluster": 1}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--out", str(tmp_path / "s.csv")],
            f"{labels}:2: malformed cluster label",
        )

    def test_gold_relation_without_embedding_vector(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["a", "b"], "relations": ["capital", "unembedded"]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--set", f"gold={gold}", "--out", str(tmp_path / "s.csv")],
            "gold relation names without embedding vectors: ['unembedded']",
        )

    def test_gold_record_without_relations(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["a", "b"]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--set", f"gold={gold}", "--out", str(tmp_path / "s.csv")],
            f"{gold}:1: malformed gold relation",
        )

    @pytest.mark.parametrize("records, where", [
        pytest.param([], "", id="no records"),
        pytest.param([{"pair": ["a", "b"], "relations": []}], ":1", id="every relations array empty"),
        pytest.param([{"pair": ["c", "d"], "relations": ["capital"]}, {"pair": ["a", "b"], "relations": []}], ":2",
                     id="one relations array empty"),
    ])
    def test_gold_without_a_relation_is_2(self, tiny_setup, tmp_path, capsys, records, where):
        """A gold file without records, or a pair without a relation, is
        refused where it is read, naming the file and the line."""
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["born", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", records)
        assert run("evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
                   "--set", f"gold={gold}", "--out", str(tmp_path / "s.csv")) == 2
        reason = "relations is empty: a gold pair has at least one relation" if where else "no gold records"
        assert capsys.readouterr().err == f"error: {gold}{where}: {reason}\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("words, reason", [
        pytest.param(["A", "of", "B"], "empty candidate set: every path word was an endpoint or stopword",
                     id="stopwords only"),
        pytest.param(None, "no path: none of its pairs is in the paths file", id="no path"),
    ])
    def test_cluster_without_candidate_words_is_named(self, tiny_setup, tmp_path, capsys, words, reason):
        """Cluster 1's pair has only an endpoint-and-stopword path, or no path at all."""
        root, cfg = tiny_setup
        path = {"pair": ["a", "b"], "words": ["A", "capital", "B"], "deps": ["nsubj", "attr", "pobj"],
                "poss": ["PROPN", "NOUN", "PROPN"]}
        records = [path] + ([{**path, "pair": ["c", "d"], "words": words}] if words else [])
        paths = write_jsonl(tmp_path / "p.jsonl", records)
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}, {"cluster": 1, "pair": ["c", "d"]}])
        for method in ("wvs", "cw"):
            assert run("label", "--config", str(cfg), "--set", f"method={method}", "--clusters", str(clusters),
                       "--paths-file", str(paths), "--out", str(tmp_path / "l.jsonl")) == 2
            assert capsys.readouterr().err == f"error: cluster 1: {reason}\n"


    @pytest.mark.parametrize("case", ["corpus", "corpus without tokens", "embeddings", "embeddings nan"])
    def test_malformed_line_names_file_and_line(self, tiny_setup, trained, tmp_path, capsys, case):
        """A corpus or embeddings line that does not parse, or breaks a tree
        or vector check, exits 2 with <file>:<line> in front of the reason."""
        root, cfg = tiny_setup
        paths, _ = trained
        out = str(tmp_path / "out")
        if case.startswith("corpus"):
            bad = tmp_path / "bad.jsonl"
            if case == "corpus":
                bad.write_text('{"id": 1\n', encoding="utf-8")
                reason = f"{bad}:1: invalid JSON"
            else:
                first = json.loads((root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0])
                write_jsonl(bad, [first, {**first, "id": "empty", "tokens": []}])
                reason = f"{bad}:2: sentence 'empty': expected exactly one root, found 0"
            argv = ["extract-paths", "--set", f"corpus={bad}", "--out", out]
        else:
            bad = tmp_path / "bad.txt"
            good = (root / "embeddings.txt").read_text(encoding="utf-8")
            bad.write_text(good + ("extra 1 two\n" if case == "embeddings" else "extra 1 nan\n"), encoding="utf-8")
            pairs = {tuple(json.loads(line)["pair"]) for line in paths.read_text(encoding="utf-8").splitlines()}
            clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": list(p)} for p in sorted(pairs)])
            argv = ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths),
                    "--set", f"embeddings={bad}", "--out", out]
            problem = "unparseable vector value" if case == "embeddings" else "non-finite vector value"
            reason = f"{bad}:{len(good.splitlines()) + 1}: {problem}"
        self.assert_exit_2(capsys, argv, reason)

    @pytest.mark.parametrize(
        "change, reason",
        [(lambda r: r.update(deps=r["deps"][:-1]), "path sequences must have equal length"),
         (lambda r: r.update(words=[], deps=[], poss=[]), "path must contain at least one token")],
        ids=["lengths differ", "empty"],
    )
    def test_path_instance_sequences_must_match(self, tiny_setup, trained, tmp_path, capsys, change, reason):
        root, cfg = tiny_setup
        paths, _ = trained
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        change(records[1])
        bad = write_jsonl(tmp_path / "p.jsonl", records)
        argv = ["train", "--config", str(cfg), "--paths-file", str(bad), "--out-checkpoint", str(tmp_path / "m.ckpt"),
                "--log", str(tmp_path / "loss_log.csv")]
        self.assert_exit_2(capsys, argv, f"{bad}:2: {reason}")


    @pytest.mark.parametrize("case", list(_WRONG_TYPES))
    def test_field_of_the_wrong_type_is_2(self, tiny_setup, trained, tmp_path, capsys, case):
        """A float or a bool where a JSON integer belongs, and anything but a
        string where a string belongs, is refused, not coerced."""
        root, cfg = tiny_setup
        paths, _ = trained
        what, change, reason = _WRONG_TYPES[case]
        out = str(tmp_path / "out")
        record = {
            "corpus record": json.loads((root / "corpus.jsonl").read_text(encoding="utf-8").splitlines()[0]),
            "cluster assignment": {"cluster": 0, "pair": ["a", "b"]},
            "cluster label": {"cluster": 0, "labels": [["w", 1.0]]},
        }[what]
        change(record)
        bad = write_jsonl(tmp_path / "bad.jsonl", [record])
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        evaluate = ["evaluate", "--config", str(cfg), "--out", out]
        argvs = {
            "corpus record": [["extract-paths", "--set", f"corpus={bad}", "--out", out]],
            "cluster assignment": [
                ["label", "--config", str(cfg), "--clusters", str(bad), "--paths-file", str(paths), "--out", out],
                evaluate + ["--clusters", str(bad), "--labels", str(labels)],
            ],
            "cluster label": [evaluate + ["--clusters", str(clusters), "--labels", str(bad)]],
        }[what]
        for argv in argvs:
            self.assert_exit_2(capsys, argv, f"{bad}:1: malformed {what}", reason)


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

    def test_train_encode_cluster_label_evaluate(self, tiny_setup, tmp_path):
        root, cfg = tiny_setup
        paths = tmp_path / "paths.jsonl"
        ckpt = tmp_path / "model.ckpt"
        vectors = tmp_path / "vectors.jsonl"
        clusters = tmp_path / "clusters.jsonl"
        centroids = tmp_path / "centroids.jsonl"
        labels = tmp_path / "labels.jsonl"
        scores = tmp_path / "scores.csv"
        log = tmp_path / "loss.csv"

        assert run("extract-paths", "--config", str(cfg), "--out", str(paths)) == 0
        assert run("train", "--config", str(cfg), "--paths-file", str(paths), "--out-checkpoint", str(ckpt), "--log", str(log)) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["loss.csv", "model.ckpt", "paths.jsonl"]
        log_lines = log.read_text().strip().splitlines()
        assert log_lines[0] == "epoch,loss"
        assert len(log_lines) == 3  # header + 2 epochs

        assert run("encode", "--checkpoint", str(ckpt), "--paths-file", str(paths), "--out", str(vectors)) == 0
        vec_records = [json.loads(line) for line in vectors.read_text(encoding="utf-8").splitlines()]
        assert len(vec_records) == 6  # 6 pairs
        dim = len(vec_records[0]["vector"])
        assert all(len(r["vector"]) == dim for r in vec_records)

        argv = ["--vectors", str(vectors), "--set", "k_clusters=2", "--out", str(clusters), "--centroids", str(centroids)]
        assert run("cluster", *argv) == 0
        cluster_records = [json.loads(line) for line in clusters.read_text(encoding="utf-8").splitlines()]
        assert sorted({r["cluster"] for r in cluster_records}) == [0, 1]
        centroid_records = [json.loads(line) for line in centroids.read_text(encoding="utf-8").splitlines()]
        assert [r["cluster"] for r in centroid_records] == [0, 1]
        assert all(len(r["centroid"]) == dim for r in centroid_records)

        assert run(
            "label", "--config", str(cfg),
            "--clusters", str(clusters), "--paths-file", str(paths), "--out", str(labels),
        ) == 0
        label_records = [json.loads(line) for line in labels.read_text(encoding="utf-8").splitlines()]
        assert len(label_records) == 2
        for rec in label_records:
            assert rec["labels"], "every cluster must carry at least one label word"

        assert run(
            "evaluate", "--config", str(cfg),
            "--clusters", str(clusters), "--labels", str(labels), "--out", str(scores),
        ) == 0
        lines = scores.read_text().strip().splitlines()
        assert lines[0] == "relation,recall,precision,f1"
        assert lines[-1].startswith("rand_index,")

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

    def test_no_pair_with_enough_paths_is_2(self, tiny_setup, trained, tmp_path, capsys):
        ckpt = tmp_path / "model.ckpt"
        assert self.train(tiny_setup, trained, ckpt, "min_paths=3") == 2
        assert "no pair has at least 3 paths; nothing to train on" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize(
        "setting, message",
        [("min_paths=1", "config min_paths must be at least 2, got 1"),
         ("seed=-1", "config seed must be at least 0, got -1")],
    )
    def test_setting_training_cannot_use_is_2(self, tiny_setup, trained, tmp_path, capsys, setting, message):
        """On a paths file holding a pair with one path, which a training example cannot hold out."""
        root, cfg = tiny_setup
        paths, _ = trained
        records = [json.loads(line) for line in paths.read_text(encoding="utf-8").splitlines()]
        single = write_jsonl(tmp_path / "paths.jsonl", records + [{**records[0], "pair": ["Alone", "Single"]}])
        ckpt = tmp_path / "model.ckpt"
        argv = ["train", "--config", str(cfg), "--paths-file", str(single), "--out-checkpoint", str(ckpt),
                "--log", str(tmp_path / "loss_log.csv")]
        assert run(*argv, "--set", setting) == 2
        assert message in capsys.readouterr().err
        assert not ckpt.exists()

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the step overflows
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


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _slots(value, found: list) -> list:
    """Every (container, key) inside a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        found.append((value, key))
        _slots(child, found)
    return found


@st.composite
def _damaged(draw, good: bytes, jsonl: bool) -> bytes:
    """good with one damage: random bytes in its place, a truncation, bytes
    appended, or one line changed. A JSON Lines line gets a float or a bool
    for one of its integers, another JSON value for one of its values or for
    the whole record, or loses a key; a text line becomes random text."""
    damage = draw(st.sampled_from(["bytes", "truncated", "appended", "line"]))
    if damage == "bytes":
        return draw(st.binary(max_size=64))
    if damage == "truncated":
        return good[: draw(st.integers(0, len(good) - 1))]
    if damage == "appended":
        return good + draw(st.binary(min_size=1, max_size=16))
    lines = good.decode("utf-8").splitlines(keepends=True)
    i = draw(st.integers(0, len(lines) - 1))
    if not jsonl:
        lines[i] = draw(st.text(max_size=16)) + "\n"
    else:
        record = json.loads(lines[i])
        slots = _slots(record, [])
        integers = [(c, k) for c, k in slots if type(c[k]) is int]
        change = draw(st.sampled_from(["integer", "value", "drop key", "record"]))
        if change == "integer" and integers:
            container, key = draw(st.sampled_from(integers))
            container[key] = draw(st.sampled_from([container[key] + 0.5, float(container[key]), True, False]))
        elif change in ("integer", "value") and slots:
            container, key = draw(st.sampled_from(slots))
            container[key] = draw(_JSON)
        elif change == "drop key" and isinstance(record, dict) and record:
            del record[draw(st.sampled_from(sorted(record)))]
        else:
            record = draw(_JSON)
        lines[i] = json.dumps(record) + "\n"
    return "".join(lines).encode("utf-8", "surrogatepass")


@pytest.fixture(scope="module")
def reader_inputs(tiny_setup, trained, tmp_path_factory):
    """A good file for each reader the fuzzer damages, and the cure command
    that reads it, given the damaged file's path."""
    root, cfg = tiny_setup
    paths, _ = trained
    work = tmp_path_factory.mktemp("reader-inputs")
    pairs = sorted({tuple(json.loads(line)["pair"]) for line in paths.read_text(encoding="utf-8").splitlines()})
    clusters = write_jsonl(work / "clusters.jsonl", [{"cluster": i % 2, "pair": list(p)} for i, p in enumerate(pairs)])
    labels, out = work / "labels.jsonl", str(work / "out")

    def label(clusters=clusters, paths=paths, out=out):
        return ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths), "--out", out]

    def evaluate(clusters=clusters, labels=labels):
        return ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels), "--out", out]

    assert run(*label(out=str(labels))) == 0 and run(*evaluate()) == 0
    stopwords = resources.files("cure").joinpath("data/stopwords.txt").read_bytes()
    return {  # reader: (good bytes, JSON Lines?, argv given the damaged file)
        "corpus": ((root / "corpus.jsonl").read_bytes(), True,
                   lambda bad: ["extract-paths", "--set", f"corpus={bad}", "--out", out]),
        "paths": (paths.read_bytes(), True, lambda bad: label(paths=bad)),
        "cluster assignments": (clusters.read_bytes(), True, lambda bad: label(clusters=bad)),
        "labels": (labels.read_bytes(), True, lambda bad: evaluate(labels=bad)),
        "gold": ((root / "gold.jsonl").read_bytes(), True, lambda bad: evaluate() + ["--set", f"gold={bad}"]),
        "embeddings": ((root / "embeddings.txt").read_bytes(), False,
                       lambda bad: label() + ["--set", f"embeddings={bad}"]),
        "stopwords": (stopwords, False, lambda bad: label() + ["--set", f"stopwords={bad}"]),
    }


class TestReaders:
    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_damaged_input_exits_0_or_2(self, reader_inputs, tmp_path_factory, data):
        """Every reader not fuzzed elsewhere (the vectors and checkpoint
        readers are), run by the cure command that reads it: a damaged file
        exits 0 or 2, never 1 or a traceback."""
        good, jsonl, argv = reader_inputs[data.draw(st.sampled_from(sorted(reader_inputs)))]
        bad = tmp_path_factory.getbasetemp() / "damaged-input"
        bad.write_bytes(data.draw(_damaged(good, jsonl)))
        assert run(*argv(str(bad))) in (0, 2)


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

    def test_failed_write_keeps_previous_clusters(self, tmp_path, monkeypatch):
        """A write that dies partway leaves the old assignments byte-identical and no temporary behind."""
        self.cluster(tmp_path, 3)
        clusters = tmp_path / "c.jsonl"
        before = clusters.read_bytes()
        fail_writes_halfway(monkeypatch)
        with pytest.raises(WriteFailed):
            self.cluster(tmp_path, 1)
        monkeypatch.undo()
        assert clusters.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.jsonl", "centroids.jsonl", "v.jsonl"]

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
        """README's six stage commands write the same bytes as `cure pipeline` from one config."""
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
        for name in PIPELINE_ARTIFACTS:
            assert (one / name).read_bytes() == (tmp_path / "pipeline" / name).read_bytes(), name

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
            for named in (tmp_path / f"no-{key}.jsonl", tmp_path):
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
