import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.errors import ValidationError
from cure.metrics import RelationScore, prf1, rand_index

from helpers import brute_force_rand_index


class TestRandIndex:
    def test_identical_partitions_score_one(self):
        p = {i: i % 3 for i in range(9)}
        assert rand_index(p, dict(p)) == 1.0

    def test_singletons_vs_one_block_is_zero(self):
        predicted = {i: i for i in range(4)}
        gold = {i: "all" for i in range(4)}
        assert rand_index(predicted, gold) == 0.0

    def test_matches_brute_force_on_random_partitions(self):
        """30 items, random partitions on both sides, exact equality."""
        rng = np.random.default_rng(37)
        for trial in range(30):
            predicted = {i: int(rng.integers(5)) for i in range(30)}
            gold = {i: int(rng.integers(4)) for i in range(30)}
            assert rand_index(predicted, gold) == brute_force_rand_index(predicted, gold), f"trial {trial}"

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    def test_symmetric_and_relabel_invariant(self, seed, n):
        rng = np.random.default_rng(seed)
        predicted = {i: int(rng.integers(4)) for i in range(n)}
        gold = {i: int(rng.integers(3)) for i in range(n)}
        assert rand_index(predicted, gold) == rand_index(gold, predicted)
        relabeled = {i: f"cluster-{v}" for i, v in predicted.items()}
        assert rand_index(relabeled, gold) == rand_index(predicted, gold)

    def test_self_comparison_is_always_one(self):
        rng = np.random.default_rng(41)
        p = {i: int(rng.integers(6)) for i in range(20)}
        assert rand_index(p, dict(p)) == 1.0

    def test_gold_items_outside_predicted_do_not_count(self):
        rng = np.random.default_rng(43)
        predicted = {i: int(rng.integers(4)) for i in range(20)}
        gold = {i: int(rng.integers(3)) for i in range(30)}
        assert rand_index(predicted, gold) == brute_force_rand_index(predicted, {i: gold[i] for i in predicted})

    def test_needs_two_items(self):
        with pytest.raises(ValidationError):
            rand_index({1: 0}, {1: 0})


class TestPrf1:
    def test_perfect_assignment(self):
        predicted = {"a": "r1", "b": "r1", "c": "r2"}
        gold = {"a": ("r1",), "b": ("r1",), "c": ("r2",)}
        scores = prf1(predicted, gold)
        assert all(s.precision == s.recall == s.f1 == 1.0 for s in scores)
        assert [s.relation for s in scores] == ["r1", "r2"]

    def test_half_precision_full_recall(self):
        """Cluster labeled r holds both gold-r items plus two others."""
        predicted = {"a": "r", "b": "r", "c": "r", "d": "r"}
        gold = {"a": ("r",), "b": ("r",), "c": ("other",), "d": ("other",)}
        (other_score, r_score) = prf1(predicted, gold)
        assert r_score.relation == "r"
        assert r_score.precision == 0.5
        assert r_score.recall == 1.0
        assert abs(r_score.f1 - 2 / 3) < 1e-12
        assert other_score.recall == 0.0 and other_score.f1 == 0.0

    def test_multi_relation_gold_counts_any_match(self):
        predicted = {"a": "r2"}
        gold = {"a": ("r1", "r2")}
        scores = {s.relation: s for s in prf1(predicted, gold)}
        assert scores["r2"].precision == 1.0 and scores["r2"].recall == 1.0
        assert scores["r1"].recall == 0.0

    def test_matches_hand_computed_confusion_counts(self):
        """12 pairs over 3 relations, against counts done by hand."""
        predicted = {
            "p1": "A", "p2": "A", "p3": "A", "p4": "B",
            "p5": "B", "p6": "B", "p7": "B", "p8": "C",
            "p9": "C", "p10": "A", "p11": "C", "p12": "B",
        }
        gold = {
            "p1": ("A",), "p2": ("A",), "p3": ("B",), "p4": ("B",),
            "p5": ("B",), "p6": ("A",), "p7": ("B",), "p8": ("C",),
            "p9": ("A",), "p10": ("C",), "p11": ("C",), "p12": ("C",),
        }
        # A: predicted 4 {p1,p2,p3,p10}, correct 2 (p1,p2); gold count 4
        # B: predicted 5 {p4..p7,p12}, correct 3 (p4,p5,p7); gold count 4
        # C: predicted 3 {p8,p9,p11}, correct 2 (p8,p11); gold count 4
        scores = {s.relation: s for s in prf1(predicted, gold)}
        assert scores["A"].precision == 2 / 4 and scores["A"].recall == 2 / 4
        assert scores["B"].precision == 3 / 5 and scores["B"].recall == 3 / 4
        assert scores["C"].precision == 2 / 3 and scores["C"].recall == 2 / 4

    def test_predicted_only_relation_warns_and_is_excluded(self):
        predicted = {"a": "ghost", "b": "r"}
        gold = {"a": ("r",), "b": ("r",)}
        with pytest.warns(UserWarning, match="ghost"):
            scores = prf1(predicted, gold)
        assert [s.relation for s in scores] == ["r"]

    def test_missing_gold_entry(self):
        with pytest.raises(ValidationError, match="items without gold relations"):
            prf1({"a": "r"}, {})

    def test_scores_stay_in_unit_interval(self):
        import warnings

        rng = np.random.default_rng(43)
        relations = ["r1", "r2", "r3"]
        for _ in range(20):
            predicted = {i: relations[int(rng.integers(3))] for i in range(15)}
            gold = {i: (relations[int(rng.integers(3))],) for i in range(15)}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # predicted-only relations are fine here
                scores = prf1(predicted, gold)
            for s in scores:
                assert 0.0 <= s.precision <= 1.0
                assert 0.0 <= s.recall <= 1.0
                assert 0.0 <= s.f1 <= 1.0
                if s.precision * s.recall == 0.0:
                    assert s.f1 == 0.0

    def test_f1_is_harmonic_mean(self):
        score = RelationScore("r", recall=0.5, precision=0.25, f1=0.0)
        assert score.f1 == 0.0  # dataclass itself is inert; prf1 computes f1
        predicted = {"a": "r", "b": "r", "c": "r", "d": "r"}
        gold = {"a": ("r",), "b": ("x",), "c": ("x",), "d": ("x",)}
        scores = {s.relation: s for s in prf1(predicted, gold)}
        p, r = scores["r"].precision, scores["r"].recall
        assert scores["r"].f1 == pytest.approx(2 * p * r / (p + r))
