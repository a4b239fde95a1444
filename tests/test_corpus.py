import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.artifacts import write_corpus
from cure.corpus import (
    ParsedSentence,
    canonical_key,
    pair_key,
    parse_corpus,
    sentence_from_record,
    sentence_to_record,
    validate_sentence,
)
from cure.errors import ValidationError
from cure.paths import SspTriple, group_pairs

from helpers import make_reagan_sentence, random_tree_sentence


def write_lines(tmp_path, lines, name="corpus.jsonl"):
    path = tmp_path / name
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


class TestParseCorpus:
    def test_reagan_record_round_trips_through_file(self, tmp_path):
        sentence = make_reagan_sentence()
        path = write_lines(tmp_path, [json.dumps(sentence_to_record(sentence))])
        parsed = parse_corpus(path)
        assert len(parsed) == 1
        assert len(parsed[0].tokens) == 11
        root = [t for t in parsed[0].tokens if t.head == -1]
        assert len(root) == 1 and root[0].text == "served" and root[0].dep == "ROOT"
        assert parsed[0] == sentence

    def test_empty_file(self, tmp_path):
        assert parse_corpus(write_lines(tmp_path, [])) == []

    def test_malformed_json_reports_line_number(self, tmp_path):
        good = json.dumps(sentence_to_record(make_reagan_sentence()))
        path = write_lines(tmp_path, [good, "{not json"])
        with pytest.raises(ValidationError, match=r"corpus\.jsonl:2: invalid JSON"):
            parse_corpus(path)

    def test_malformed_record_reports_line_number(self, tmp_path):
        good = json.dumps(sentence_to_record(make_reagan_sentence()))
        path = write_lines(tmp_path, [good, "", json.dumps({"id": "s2"})])
        with pytest.raises(ValidationError, match=r"corpus\.jsonl:3: malformed corpus record \(KeyError\('tokens'\)\)"):
            parse_corpus(path)

    def test_line_order_preserved(self, tmp_path):
        records = []
        for i in range(5):
            s = make_reagan_sentence()
            records.append(json.dumps(sentence_to_record(ParsedSentence(f"s{i}", s.tokens, s.subject, s.object))))
        parsed = parse_corpus(write_lines(tmp_path, records))
        assert [s.id for s in parsed] == [f"s{i}" for i in range(5)]


class TestValidation:
    def base_record(self):
        return sentence_to_record(make_reagan_sentence())

    def check_raises(self, record, match):
        with pytest.raises(ValidationError, match=match):
            sentence_from_record(record)

    def test_empty_span(self):
        record = self.base_record()
        record["subject"]["end"] = record["subject"]["start"]
        self.check_raises(record, "empty span")

    def test_span_out_of_range(self):
        record = self.base_record()
        record["object"]["end"] = 99
        self.check_raises(record, "out of range")

    def test_overlapping_spans(self):
        record = self.base_record()
        record["object"]["start"], record["object"]["end"] = 1, 4
        self.check_raises(record, "overlap")

    def test_cyclic_heads(self):
        record = self.base_record()
        # 4 -> 5 -> 4 is a cycle detached from the root
        record["tokens"][4]["head"] = 5
        record["tokens"][5]["head"] = 4
        self.check_raises(record, "cyclic")

    def test_self_head(self):
        record = self.base_record()
        record["tokens"][3]["head"] = 3
        self.check_raises(record, "own head")

    def test_two_roots(self):
        record = self.base_record()
        record["tokens"][5]["head"] = -1
        self.check_raises(record, "exactly one root")

    def test_no_root(self):
        record = self.base_record()
        record["tokens"][2]["head"] = 3
        self.check_raises(record, "exactly one root")

    def test_root_must_be_tagged_root(self):
        record = self.base_record()
        record["tokens"][2]["dep"] = "conj"
        self.check_raises(record, "ROOT")

    def test_head_out_of_range(self):
        record = self.base_record()
        record["tokens"][3]["head"] = 42
        self.check_raises(record, "out of range")

    def test_empty_canonical(self):
        record = self.base_record()
        record["subject"]["canonical"] = ""
        self.check_raises(record, "canonical")


class TestRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12))
    def test_serialize_parse_round_trip(self, seed, n):
        """Writing a sentence to the record format and re-parsing is identity."""
        sentence = random_tree_sentence(np.random.default_rng(seed), n)
        assert sentence_from_record(sentence_to_record(sentence)) == sentence

    def test_write_corpus_round_trip(self, tmp_path):
        sentences = [random_tree_sentence(np.random.default_rng(s), 7, f"s{s}") for s in range(4)]
        for s in sentences:
            validate_sentence(s)
        path = tmp_path / "out.jsonl"
        write_corpus(path, sentences)
        assert parse_corpus(path) == sentences


def triple(tag: str) -> SspTriple:
    return SspTriple(words=(f"{tag}a", f"{tag}b"), deps=("nsubj", "dobj"), poss=("PROPN", "PROPN"))


class TestGroupPairs:
    def test_threshold_filter(self):
        instances = [(("A", "B"), triple("x")) for _ in range(3)] + [(("C", "D"), triple("y"))]
        groups = group_pairs(instances, min_paths=2)
        assert len(groups) == 1
        assert groups[0].pair == ("A", "B")
        assert len(groups[0].paths) == 3

    def test_ordered_pair_semantics(self):
        instances = [(("A", "B"), triple("x")), (("B", "A"), triple("x"))]
        groups = group_pairs(instances, min_paths=1)
        assert [g.pair for g in groups] == [("A", "B"), ("B", "A")]

    def test_duplicates_kept(self):
        instances = [(("A", "B"), triple("x")), (("A", "B"), triple("x"))]
        (group,) = group_pairs(instances, min_paths=2)
        assert len(group.paths) == 2

    def test_group_count_matches_brute_force_tally(self):
        """Group count over a synthetic corpus equals a simple dict tally."""
        rng = np.random.default_rng(99)
        pairs = [(f"e{i}", f"e{i + 1}") for i in range(20)]
        instances = []
        for k in range(100):
            pair = pairs[int(rng.integers(len(pairs)))]
            instances.append((pair, triple(f"t{k}")))
        tally: dict = {}
        for pair, _ in instances:
            tally[pair] = tally.get(pair, 0) + 1
        expected = sum(1 for count in tally.values() if count >= 2)
        assert len(group_pairs(instances, min_paths=2)) == expected

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_permutation_invariant_and_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        instances = []
        for k in range(30):
            pair = (f"e{int(rng.integers(6))}", f"e{int(rng.integers(6))}")
            instances.append((pair, triple(f"t{int(rng.integers(4))}")))
        groups = group_pairs(instances, min_paths=2)
        shuffled = list(instances)
        rng.shuffle(shuffled)
        assert group_pairs(shuffled, min_paths=2) == groups
        regrouped = group_pairs([(g.pair, p) for g in groups for p in g.paths], min_paths=2)
        assert regrouped == groups


class TestCanonicalKey:
    def test_whitespace_collapsed_case_preserved(self):
        assert canonical_key("the  United\tStates") == "the United States"

    def test_pair_key_uses_both_spans(self):
        assert pair_key(make_reagan_sentence()) == ("Ronald Reagan", "the United States")
