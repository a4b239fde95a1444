import json
import re

import pytest

from cure.corpus import parse_corpus, validate_sentence
from cure.errors import ValidationError
from cure.labeling import cosine, load_stopwords
from cure.paths import shortest_path
from cure.synth import BUILTIN_RELATIONS, OBJ, SUBJ, generate, instantiate, name_pool, toy_embeddings


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

    def test_every_template_has_one_subject_and_one_object_slot(self):
        """instantiate finds the entity slots from these placeholders."""
        for rel in BUILTIN_RELATIONS:
            for i, template in enumerate(rel.sentences):
                texts = [text for text, _, _, _ in template]
                assert (texts.count(SUBJ), texts.count(OBJ)) == (1, 1), f"{rel.name} template {i}"

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
            text for rel in BUILTIN_RELATIONS for template in rel.sentences for (text, _, _, _) in template
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
        assert generate(1, 1, 2, seed=5, out_dir=tmp_path) == (2, 1)
        assert len(parse_corpus(tmp_path / "corpus.jsonl")) == 2
        gold = [json.loads(line) for line in (tmp_path / "gold.jsonl").read_text(encoding="utf-8").splitlines()]
        assert len(gold) == 1

    def test_same_seed_is_byte_identical(self, tmp_path):
        generate(3, 4, 2, seed=9, out_dir=tmp_path / "a")
        generate(3, 4, 2, seed=9, out_dir=tmp_path / "b")
        for name in ("corpus.jsonl", "gold.jsonl", "embeddings.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_different_seed_differs(self, tmp_path):
        generate(2, 4, 2, seed=1, out_dir=tmp_path / "a")
        generate(2, 4, 2, seed=2, out_dir=tmp_path / "b")
        assert (tmp_path / "a" / "corpus.jsonl").read_bytes() != (tmp_path / "b" / "corpus.jsonl").read_bytes()

    def test_full_size_output_validates(self, tmp_path):
        """300 records at the acceptance scale, all passing corpus validation
        and all carrying their relation's trigger on the extracted path."""
        assert generate(4, 25, 3, seed=13, out_dir=tmp_path) == (300, 100)
        sentences = parse_corpus(tmp_path / "corpus.jsonl")
        assert len(sentences) == 300
        triggers = {rel.name: rel.trigger for rel in BUILTIN_RELATIONS}
        for sentence in sentences:
            relation = sentence.id.rsplit("-", 2)[0]
            assert triggers[relation] in shortest_path(sentence).words

    def test_pairs_globally_unique(self, tmp_path):
        generate(4, 10, 2, seed=3, out_dir=tmp_path)
        gold = [json.loads(line) for line in (tmp_path / "gold.jsonl").read_text(encoding="utf-8").splitlines()]
        pairs = [tuple(g["pair"]) for g in gold]
        assert len(pairs) == len(set(pairs))

    def test_argument_validation(self, tmp_path):
        with pytest.raises(ValidationError, match=re.escape("--relations must be in [1, 4], got 5")):
            generate(5, 1, 2, 0, tmp_path)
        with pytest.raises(ValidationError, match="--pairs must be at least 1, got 0"):
            generate(1, 0, 2, 0, tmp_path)
        with pytest.raises(ValidationError, match="--sentences must be at least 2, got 1"):
            generate(1, 1, 1, 0, tmp_path)
        with pytest.raises(ValidationError, match="--seed must be at least 0, got -1"):
            generate(1, 1, 2, -1, tmp_path)
        # 24 names cap the pairs at 24 * 23 / 2 = 276: 4 x 69 fit, 4 x 70 do not.
        with pytest.raises(ValidationError, match="too many pairs requested for a 24-name pool"):
            generate(4, 70, 2, 0, tmp_path)
