import json

import numpy as np
import pytest

from cure.artifacts import write_gold
from cure.corpus import parse_corpus, validate_sentence
from cure.errors import ValidationError
from cure.labeling import cosine, load_stopwords
from cure.paths import shortest_path
from cure.synth import BUILTIN_RELATIONS, generate, instantiate, name_pool, toy_embeddings
from cure.vocab import write_embeddings

from helpers import WriteFailed, fail_writes_halfway


class TestTemplates:
    def test_every_template_instantiates_to_a_valid_sentence(self):
        for rel in BUILTIN_RELATIONS:
            for i, template in enumerate(rel.sentences):
                sentence = instantiate(template, f"{rel.name}-{i}", "Alpha", "Beta")
                validate_sentence(sentence)
                assert sentence.subject.canonical == "Alpha"
                assert sentence.object.canonical == "Beta"

    def test_trigger_always_on_the_path(self):
        for rel in BUILTIN_RELATIONS:
            for i, template in enumerate(rel.sentences):
                sentence = instantiate(template, f"{rel.name}-{i}", "Alpha", "Beta")
                path = shortest_path(sentence)
                assert rel.trigger in path.words, f"{rel.name} template {i}"
                assert path.words[0] == "Alpha"
                assert path.words[-1] == "Beta"

    def test_triggers_are_not_stopwords(self):
        stop = load_stopwords()
        for rel in BUILTIN_RELATIONS:
            assert rel.trigger.lower() not in stop


class TestNamePool:
    def test_deterministic_and_unique(self):
        pool = name_pool()
        assert pool == name_pool()
        assert len(pool) == len(set(pool))
        assert all(name[0].isupper() for name in pool)

    def test_no_collision_with_template_words(self):
        pool = set(name_pool())
        template_words = {
            text for rel in BUILTIN_RELATIONS for t in rel.sentences for (text, _, _, _) in t.tokens
        }
        assert not pool & template_words


class TestToyEmbeddings:
    def test_triggers_near_orthogonal_names_near_triggers(self):
        vectors = toy_embeddings(BUILTIN_RELATIONS)
        triggers = [rel.trigger for rel in BUILTIN_RELATIONS]
        for i, a in enumerate(triggers):
            for b in triggers[i + 1 :]:
                assert abs(cosine(vectors[a], vectors[b])) < 0.1
        for rel in BUILTIN_RELATIONS:
            assert cosine(vectors[rel.name], vectors[rel.trigger]) > 0.8
            for other in BUILTIN_RELATIONS:
                if other.name != rel.name:
                    assert cosine(vectors[rel.name], vectors[other.trigger]) < 0.5


class TestGenerate:
    def test_counting(self, tmp_path):
        result = generate(1, 1, 2, seed=5, out_dir=tmp_path)
        assert result.record_count == 2
        assert result.pair_count == 1
        assert len(parse_corpus(result.corpus_path)) == 2
        gold = [json.loads(line) for line in open(result.gold_path, encoding="utf-8")]
        assert len(gold) == 1

    def test_same_seed_is_byte_identical(self, tmp_path):
        a = generate(3, 4, 2, seed=9, out_dir=tmp_path / "a")
        b = generate(3, 4, 2, seed=9, out_dir=tmp_path / "b")
        for pa, pb in [(a.corpus_path, b.corpus_path), (a.gold_path, b.gold_path), (a.embeddings_path, b.embeddings_path)]:
            assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        a = generate(2, 4, 2, seed=1, out_dir=tmp_path / "a")
        b = generate(2, 4, 2, seed=2, out_dir=tmp_path / "b")
        assert a.corpus_path.read_bytes() != b.corpus_path.read_bytes()

    def test_full_size_output_validates(self, tmp_path):
        """300 records at the acceptance scale, all passing corpus validation
        and all carrying their relation's trigger on the extracted path."""
        result = generate(4, 25, 3, seed=13, out_dir=tmp_path)
        assert result.record_count == 300
        sentences = parse_corpus(result.corpus_path)
        assert len(sentences) == 300
        triggers = {rel.name: rel.trigger for rel in BUILTIN_RELATIONS}
        for sentence in sentences:
            relation = sentence.id.rsplit("-", 2)[0]
            assert triggers[relation] in shortest_path(sentence).words

    def test_pairs_globally_unique(self, tmp_path):
        result = generate(4, 10, 2, seed=3, out_dir=tmp_path)
        gold = [json.loads(line) for line in open(result.gold_path, encoding="utf-8")]
        pairs = [tuple(g["pair"]) for g in gold]
        assert len(pairs) == len(set(pairs))

    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch):
        """A write that dies partway, of the corpus, the gold file or the
        embeddings, leaves the earlier files byte-identical and no temporary behind."""
        first = generate(2, 3, 2, seed=1, out_dir=tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        fail_writes_halfway(monkeypatch)
        for write in (
            lambda: generate(2, 3, 2, seed=2, out_dir=tmp_path),
            lambda: write_gold(first.gold_path, {("a", "b"): ["r"]}),
            lambda: write_embeddings(first.embeddings_path, {"w": np.ones(2)}),
        ):
            with pytest.raises(WriteFailed):
                write()
        monkeypatch.undo()
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValidationError):
            generate(5, 1, 2, 0, tmp_path)
        with pytest.raises(ValidationError):
            generate(1, 0, 2, 0, tmp_path)
        with pytest.raises(ValidationError):
            generate(1, 1, 1, 0, tmp_path)
        # 24 names cap the pairs at 24 * 23 / 2 = 276: 4 x 69 fit, 4 x 70 do not.
        with pytest.raises(ValidationError, match="too many pairs requested for a 24-name pool"):
            generate(4, 70, 2, 0, tmp_path)
