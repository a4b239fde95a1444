import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from cure import autodiff, cli
from cure.cli import RunConfig, load_config, main, run_pipeline, stage_cluster
from cure.errors import NumericError, ValidationError

from helpers import WriteFailed, fail_writes_halfway


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
    assert run("train", "--config", str(cfg), "--paths-file", str(paths), "--out-checkpoint", str(ckpt)) == 0
    return paths, ckpt


def write_jsonl(path: Path, records) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
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


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path, capsys):
        code = run("extract-paths", "--corpus", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o"))
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_checkpoint_is_2(self, tmp_path, capsys):
        code = run(
            "encode",
            "--checkpoint", str(tmp_path / "nope.ckpt"),
            "--paths-file", str(tmp_path / "paths.jsonl"),
            "--out", str(tmp_path / "v.jsonl"),
        )
        assert code == 2
        assert "checkpoint not found" in capsys.readouterr().err

    def test_unknown_config_key_is_2(self, tmp_path):
        assert run("extract-paths", "--set", "bogus_key=1", "--corpus", "x", "--out", "y") == 2

    # inf in a bias or an input weight saturates gates and still gives finite
    # vectors; the checkpoint itself must be rejected.
    @pytest.mark.parametrize(
        "name, value", [("enc_fwd.W_o", "inf"), ("enc_fwd.b_o", "inf"), ("enc_bwd.U_f", "-inf"), ("dec.b_h", "nan")]
    )
    def test_nonfinite_parameter_is_3(self, trained, tmp_path, capsys, name, value):
        paths, ckpt = trained
        bad = tmp_path / "model.ckpt"
        lines = ckpt.read_text(encoding="utf-8").splitlines()
        row = lines.index(next(line for line in lines if line.startswith(f"{name} "))) + 1
        lines[row] = " ".join([value] + lines[row].split()[1:])
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run("encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", str(tmp_path / "v.jsonl"))
        assert code == 3
        assert f"parameter {name!r} holds a non-finite value" in capsys.readouterr().err


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
            capsys, ["cluster", "--vectors", str(vectors), "--k", "1", "--out", str(tmp_path / "c.jsonl")],
            str(vectors), "record 2",
        )

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_vectors_record_with_non_finite_entry(self, tmp_path, capsys, value):
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": ["a", "b"], "vector": [0.0, 1.0]},
                                                     {"pair": ["c", "d"], "vector": [1.0, value]}])
        assert ("NaN" if value != value else "Infinity") in vectors.read_text()
        out = tmp_path / "c.jsonl"
        self.assert_exit_2(
            capsys, ["cluster", "--vectors", str(vectors), "--k", "2", "--out", str(out)],
            str(vectors), "record 2", "non-finite",
        )
        assert not out.exists()

    def encode_argv(self, trained, tmp_path, meta: str) -> list[str]:
        """encode on a copy of the trained checkpoint whose meta line (line 2) is meta."""
        paths, ckpt = trained
        lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[1] = meta + "\n"
        copy = tmp_path / "model.ckpt"
        copy.write_text("".join(lines), encoding="utf-8")
        return ["encode", "--checkpoint", str(copy), "--paths-file", str(paths), "--out", str(tmp_path / "v.jsonl")]

    def test_corrupt_meta(self, trained, tmp_path, capsys):
        argv = self.encode_argv(trained, tmp_path, '{"config": {"n_h": 4,')
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "invalid JSON")

    def test_meta_config_with_unknown_key(self, trained, tmp_path, capsys):
        meta = json.loads(trained[1].read_text(encoding="utf-8").splitlines()[1])
        meta["config"]["n_hidden"] = 4
        argv = self.encode_argv(trained, tmp_path, json.dumps(meta))
        self.assert_exit_2(capsys, argv, str(tmp_path / "model.ckpt"), "n_hidden")

    def test_v1_checkpoint(self, trained, tmp_path, capsys):
        """The old layout (tensors only, config and vocabularies in a second file) is refused by its header."""
        paths, ckpt = trained
        lines = ckpt.read_text(encoding="utf-8").splitlines(keepends=True)
        old = tmp_path / "model.ckpt"
        old.write_text("CURE-MODEL v1\n" + "".join(lines[2:]), encoding="utf-8")
        self.assert_exit_2(
            capsys, ["encode", "--checkpoint", str(old), "--paths-file", str(paths), "--out", str(tmp_path / "v.jsonl")],
            str(old), "'CURE-MODEL v1'",
        )

    @pytest.mark.parametrize(
        "case",
        ["missing stopwords", "corpus", "paths", "vectors", "embeddings", "stopwords", "checkpoint",
         "negative row count", "huge row count"],
    )
    def test_unreadable_input_file(self, tiny_setup, trained, tmp_path, capsys, case):
        """A missing or non-UTF-8 input file, or a checkpoint block claiming an
        impossible row count, exits 2 naming the file."""
        root, cfg = tiny_setup
        paths, ckpt = trained
        bad, out = tmp_path / "bad-input", str(tmp_path / "out")
        not_utf8 = "naïve\n".encode("latin-1")
        pairs = {tuple(json.loads(line)["pair"]) for line in paths.read_text(encoding="utf-8").splitlines()}
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": list(p)} for p in sorted(pairs)])
        label = ["label", "--config", str(cfg), "--clusters", str(clusters), "--paths-file", str(paths), "--out", out]
        encode = ["encode", "--checkpoint", str(bad), "--paths-file", str(paths), "--out", out]
        ckpt_lines = ckpt.read_bytes().splitlines(keepends=True)
        block = next(i for i, line in enumerate(ckpt_lines) if line.startswith(b"enc_fwd.W_o "))

        def with_block_rows(rows: bytes) -> bytes:
            return b"".join(ckpt_lines[:block] + [b"enc_fwd.W_o " + rows + b" 4\n"] + ckpt_lines[block + 1 :])

        content, argv, reason = {
            "missing stopwords": (None, label + ["--set", f"stopwords={bad}"], "cannot read stopwords"),
            "corpus": (not_utf8, ["extract-paths", "--corpus", str(bad), "--out", out], "not UTF-8"),
            "paths": (paths.read_bytes() + not_utf8, ["train", "--config", str(cfg), "--paths-file", str(bad),
                                                      "--out-checkpoint", out], "not UTF-8"),
            "vectors": (b'{"pair": ["a", "b"], "vector": [0.0]}\n' + not_utf8,
                        ["cluster", "--vectors", str(bad), "--k", "1", "--out", out], "not UTF-8"),
            "embeddings": ((root / "embeddings.txt").read_bytes() + not_utf8, label + ["--embeddings", str(bad)],
                           "not UTF-8"),
            "stopwords": (b"the\n" + not_utf8, label + ["--set", f"stopwords={bad}"], "not UTF-8"),
            "checkpoint": (b"".join(ckpt_lines[:block + 1] + [not_utf8] + ckpt_lines[block + 2 :]), encode,
                           "not UTF-8"),
            "negative row count": (with_block_rows(b"-4"), encode, "'enc_fwd.W_o -4 4\\n'"),
            "huge row count": (with_block_rows(b"1000000000000"), encode, "parameter 'enc_fwd.W_o': row 4"),
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
            str(clusters), "record 1",
        )
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--out", str(tmp_path / "s.csv")],
            str(clusters), "record 1",
        )

    def test_labels_record_without_labels(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}, {"cluster": 1}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--out", str(tmp_path / "s.csv")],
            str(labels), "record 2",
        )

    def test_gold_record_without_relations(self, tiny_setup, tmp_path, capsys):
        root, cfg = tiny_setup
        clusters = write_jsonl(tmp_path / "c.jsonl", [{"cluster": 0, "pair": ["a", "b"]}])
        labels = write_jsonl(tmp_path / "l.jsonl", [{"cluster": 0, "labels": [["w", 1.0]]}])
        gold = write_jsonl(tmp_path / "g.jsonl", [{"pair": ["a", "b"]}])
        self.assert_exit_2(
            capsys,
            ["evaluate", "--config", str(cfg), "--clusters", str(clusters), "--labels", str(labels),
             "--gold", str(gold), "--out", str(tmp_path / "s.csv")],
            str(gold), "record 1",
        )


class TestStages:
    def test_extract_paths_format(self, tiny_setup, tmp_path):
        root, cfg = tiny_setup
        out = tmp_path / "paths.jsonl"
        assert run("extract-paths", "--corpus", str(root / "corpus.jsonl"), "--out", str(out)) == 0
        records = [json.loads(line) for line in open(out, encoding="utf-8")]
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
        vec_records = [json.loads(line) for line in open(vectors, encoding="utf-8")]
        assert len(vec_records) == 6  # 6 pairs
        dim = len(vec_records[0]["vector"])
        assert all(len(r["vector"]) == dim for r in vec_records)

        assert run("cluster", "--vectors", str(vectors), "--k", "2", "--out", str(clusters)) == 0
        assert Path(str(clusters) + ".centroids.jsonl").exists()
        cluster_records = [json.loads(line) for line in open(clusters, encoding="utf-8")]
        assert sorted({r["cluster"] for r in cluster_records}) == [0, 1]

        assert run(
            "label", "--config", str(cfg),
            "--clusters", str(clusters), "--paths-file", str(paths), "--out", str(labels),
        ) == 0
        label_records = [json.loads(line) for line in open(labels, encoding="utf-8")]
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
        records = [json.loads(line) for line in open(paths, encoding="utf-8")]
        pairs = sorted({tuple(r["pair"]) for r in records})
        with open(clusters, "w", encoding="utf-8") as fh:
            for p in pairs:
                fh.write(json.dumps({"cluster": 0, "pair": list(p)}) + "\n")
        assert run("label", "--clusters", str(clusters), "--paths-file", str(paths), "--method", "cw", "--out", str(labels)) == 0
        (rec,) = [json.loads(line) for line in open(labels, encoding="utf-8")]
        assert rec["labels"][0][1] >= rec["labels"][-1][1]


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


class TestTrainCheckpoint:
    """`cure train` writes its one checkpoint file once, after the last epoch."""

    def train(self, tiny_setup, trained, ckpt: Path, *overrides: str) -> int:
        root, cfg = tiny_setup
        paths, _ = trained
        argv = ["train", "--config", str(cfg), "--paths-file", str(paths), "--out-checkpoint", str(ckpt)]
        for item in overrides:
            argv += ["--set", item]
        return run(*argv)

    def test_written_once(self, tiny_setup, trained, tmp_path, monkeypatch):
        ckpt = tmp_path / "model.ckpt"
        written = []
        write = cli.write_checkpoint
        monkeypatch.setattr(cli, "write_checkpoint", lambda path, *args: written.append(path) or write(path, *args))
        assert self.train(tiny_setup, trained, ckpt, "epochs=3") == 0
        assert written == [str(ckpt)]
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_training_that_fails_keeps_previous_checkpoint(self, tiny_setup, trained, tmp_path, monkeypatch, capsys):
        """A retrain with other weights that fails in epoch 2 leaves the previous file byte-identical."""
        ckpt = tmp_path / "model.ckpt"
        shutil.copy(trained[1], ckpt)
        before = ckpt.read_bytes()
        clip, calls = autodiff.clip_gradients, []

        def clip_failing_in_epoch_2(grad, *args):
            calls.append(grad)
            if len(calls) == 2:
                raise NumericError("non-finite gradient norm")
            return clip(grad, *args)

        monkeypatch.setattr(autodiff, "clip_gradients", clip_failing_in_epoch_2)
        # One batch per epoch, so the second clip is epoch 2's.
        assert self.train(tiny_setup, trained, ckpt, "seed=4", "batch_size=100", "epochs=3") == 3
        assert "epoch 2" in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


class TestClusterStage:
    POINTS = [[0.0], [1.0], [10.0]]  # merges (0, 1) at 1.0, then (2, 3) at 9.5

    def cluster(self, tmp_path, k: int) -> dict:
        vectors = write_jsonl(tmp_path / "v.jsonl", [{"pair": [f"s{i}", "o"], "vector": v} for i, v in enumerate(self.POINTS)])
        return stage_cluster(str(vectors), k, str(tmp_path / "c.jsonl"), str(tmp_path / "centroids.jsonl"))

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


class TestPipeline:
    def test_end_to_end_artifacts(self, tiny_setup):
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg)) == 0
        out = root / "out"
        for name in (
            "paths.jsonl", "model.ckpt", "loss_log.csv",
            "vectors.jsonl", "clusters.jsonl", "centroids.jsonl", "labels.jsonl",
            "scores.csv", "manifest.json",
        ):
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

    def test_rerun_is_byte_identical_except_manifest(self, tiny_setup):
        root, cfg = tiny_setup
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={root}/out_a") == 0
        assert run("pipeline", "--config", str(cfg), "--set", f"out_dir={root}/out_b") == 0
        names = [p.name for p in (root / "out_a").iterdir() if p.name != "manifest.json"]
        assert names
        for name in names:
            assert (root / "out_a" / name).read_bytes() == (root / "out_b" / name).read_bytes(), name

    def test_missing_required_key(self, tmp_path):
        with pytest.raises(ValidationError, match="corpus"):
            run_pipeline(RunConfig(out_dir=str(tmp_path)))
