from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.errors import ValidationError
from cure.labeling import (
    candidate_set,
    cosine,
    cw_label,
    load_stopwords,
    match_to_gold,
    wvs_label,
)
from helpers import decimal_wvs_ranking

STOPWORDS = load_stopwords()


def toy_vectors(mapping: dict[str, list[float]]) -> dict[str, np.ndarray]:
    return {w: np.array(v, dtype=np.float64) for w, v in mapping.items()}


def unit(i: int, dim: int = 4) -> list[float]:
    v = [0.0] * dim
    v[i] = 1.0
    return v


class TestCandidateSet:
    def test_endpoints_and_stopwords_dropped(self):
        paths = [["Reagan", "served", "as", "president", "of", "States"]]
        counts = candidate_set(paths, STOPWORDS)
        assert counts == Counter({"served": 1, "president": 1})

    def test_multiplicity_doubles_with_identical_members(self):
        path = ["Reagan", "served", "as", "president", "of", "States"]
        counts = candidate_set([path, path], STOPWORDS)
        assert counts == Counter({"served": 2, "president": 2})

    def test_stopword_only_paths_error(self):
        with pytest.raises(ValidationError, match="empty candidate set"):
            candidate_set([["A", "of", "the", "B"]], STOPWORDS)

    def test_stopwords_matched_case_insensitively(self):
        counts = candidate_set([["A", "Of", "visited", "B"]], STOPWORDS)
        assert counts == Counter({"visited": 1})


class TestWvsLabel:
    def test_count_dominates_with_near_orthogonal_vectors(self):
        """'locate' x10 beats 'citizen' x1 when their vectors are unrelated."""
        vectors = toy_vectors({"locate": unit(0), "citizen": unit(1)})
        label = wvs_label({"locate": 10, "citizen": 1}, vectors)
        assert label[0][0] == "locate"
        assert label[0][1] > label[1][1]

    def test_single_distinct_word_scores_one(self):
        vectors = toy_vectors({"born": unit(0)})
        label = wvs_label({"born": 7}, vectors)
        assert label == (("born", 1.0),)

    def test_words_without_vectors_skipped(self):
        vectors = toy_vectors({"born": unit(0)})
        label = wvs_label({"born": 2, "ghost": 50}, vectors)
        assert label[0][0] == "born"

    def test_no_vectors_at_all_is_error(self):
        vectors = toy_vectors({"x": unit(0)})
        with pytest.raises(ValidationError):
            wvs_label({"ghost": 3}, vectors)

    def test_matches_extended_precision_oracle(self):
        """Random candidate sets: float ranking equals the Decimal ranking."""
        rng = np.random.default_rng(19)
        for trial in range(60):
            n_words = int(rng.integers(2, 6))
            words = [f"w{i}" for i in range(n_words)]
            raw = {w: rng.uniform(-1, 1, size=3) for w in words}
            counts = {w: int(rng.integers(1, 10)) for w in words}
            vectors = toy_vectors({w: list(v) for w, v in raw.items()})
            got = [w for w, _ in wvs_label(counts, vectors)]
            expected = decimal_wvs_ranking(counts, {w: list(map(float, v)) for w, v in raw.items()})
            assert got == expected, f"trial {trial}"

    def test_scale_invariance(self):
        """Cosine-based scoring ignores uniform positive scaling of vectors."""
        rng = np.random.default_rng(23)
        raw = {f"w{i}": rng.uniform(-1, 1, 4) for i in range(4)}
        counts = {w: int(c) for w, c in zip(raw, [5, 3, 2, 8])}
        plain = wvs_label(counts, toy_vectors({w: list(v) for w, v in raw.items()}))
        scaled = wvs_label(counts, toy_vectors({w: list(7.5 * v) for w, v in raw.items()}))
        assert [w for w, _ in plain] == [w for w, _ in scaled]
        for (_, a), (_, b) in zip(plain, scaled):
            assert abs(a - b) < 1e-12

    def test_weighted_sum_near_the_float_maximum_ranks_as_at_unit_scale(self):
        """Four near-parallel vectors times 2^1022: the three weighted near 1
        sum past the float maximum unless the vectors are scaled first. The
        scaling is by a power of two, so the ranking and every score are
        exactly those at scale 1."""
        raw = {"a": [1.9, 0.05], "b": [1.9, 0.0], "c": [1.9, 0.001], "d": [1.9, -0.001]}
        counts = {"a": 1, "b": 10, "c": 10, "d": 10}
        plain = wvs_label(counts, toy_vectors(raw))
        huge = wvs_label(counts, {w: np.ldexp(v, 1022) for w, v in toy_vectors(raw).items()})
        assert huge == plain
        assert all(np.isfinite(score) for _, score in plain)

    def test_insertion_order_invariance(self):
        vectors = toy_vectors({"a": unit(0), "b": unit(1), "c": unit(2)})
        counts1 = dict([("a", 2), ("b", 5), ("c", 1)])
        counts2 = dict([("c", 1), ("a", 2), ("b", 5)])
        assert wvs_label(counts1, vectors) == wvs_label(counts2, vectors)

    def test_orthogonal_unit_vectors_reduce_to_count_ranking(self):
        """With pairwise-orthogonal unit vectors the distance factor is flat,
        so the max-count word wins."""
        vectors = toy_vectors({w: unit(i) for i, w in enumerate(["p", "q", "r", "s"])})
        label = wvs_label({"p": 2, "q": 9, "r": 4, "s": 1}, vectors)
        assert label[0][0] == "q"


class TestCwLabel:
    def test_majority_wins(self):
        label = cw_label({"born": 3, "rise": 1})
        assert label[0][0] == "born"
        assert label == (("born", 3.0), ("rise", 1.0))

    def test_ties_break_lexicographically(self):
        label = cw_label({"zeta": 2, "alpha": 2, "mid": 2})
        assert [w for w, _ in label] == ["alpha", "mid", "zeta"]

    def test_chosen_word_always_has_maximal_count(self):
        rng = np.random.default_rng(29)
        for _ in range(30):
            counts = {f"w{i}": int(rng.integers(1, 9)) for i in range(int(rng.integers(1, 7)))}
            assert counts[cw_label(counts)[0][0]] == max(counts.values())


class TestMatchToGold:
    def gold(self):
        return [
            ("placeBirth", np.array([1.0, 0.0, 0.0])),
            ("capital", np.array([0.0, 1.0, 0.0])),
        ]

    def test_similar_vector_wins(self):
        vectors = toy_vectors({"born": [0.98, 0.2, 0.0]})
        label = (("born", 1.0),)
        assert match_to_gold(label, self.gold(), vectors) == "placeBirth"

    def test_label_equal_to_relation_name(self):
        vectors = toy_vectors({"capital": [0.0, 1.0, 0.0]})
        label = (("capital", 1.0),)
        assert match_to_gold(label, self.gold(), vectors) == "capital"

    def test_fallback_to_next_candidate(self):
        vectors = toy_vectors({"born": [1.0, 0.0, 0.0]})
        label = (("unvectored", 0.9), ("born", 0.5))
        assert match_to_gold(label, self.gold(), vectors) == "placeBirth"

    def test_exhausted_candidates_error(self):
        vectors = toy_vectors({"x": [1.0, 0.0, 0.0]})
        label = (("ghost", 1.0),)
        with pytest.raises(ValidationError):
            match_to_gold(label, self.gold(), vectors)

    def test_tie_breaks_lexicographically(self):
        gold = [("bbb", np.array([1.0, 0.0])), ("aaa", np.array([1.0, 0.0]))]
        vectors = toy_vectors({"w": [1.0, 0.0]})
        label = (("w", 1.0),)
        assert match_to_gold(label, gold, vectors) == "aaa"

    def test_matches_linear_scan_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            gold = [(f"r{i}", rng.normal(size=4)) for i in range(5)]
            word_vec = rng.normal(size=4)
            vectors = toy_vectors({"w": list(word_vec)})
            label = (("w", 1.0),)
            expected = max(sorted(gold), key=lambda nv: cosine(word_vec, nv[1]))
            assert match_to_gold(label, gold, vectors) == expected[0]


class TestCosine:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_bounded_and_symmetric(self, seed):
        rng = np.random.default_rng(seed)
        u, v = rng.normal(size=5), rng.normal(size=5)
        c = cosine(u, v)
        assert -1.0 - 1e-12 <= c <= 1.0 + 1e-12
        assert abs(c - cosine(v, u)) < 1e-15

    def test_zero_vector_scores_zero(self):
        assert cosine(np.zeros(3), np.ones(3)) == 0.0


class TestStopwords:
    def test_builtin_list_loads(self):
        assert {"the", "of", "in", "as", "was"} <= STOPWORDS
        assert len(STOPWORDS) >= 40

    def test_override_file(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nfoo\nBar\n", encoding="utf-8")
        assert load_stopwords(path) == frozenset({"foo", "bar"})
