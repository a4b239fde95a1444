import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.corpus import EntitySpan, ParsedSentence, Token, validate_sentence
from cure.errors import ValidationError
from cure.paths import SspTriple, representative_token, shortest_path
from cure.vocab import PAD

from helpers import bfs_tree_path, make_reagan_sentence, pad_or_truncate, random_tree_sentence


class TestRepresentativeToken:
    def test_compound_subject_prefers_subject_tag(self):
        """'Reagan' (nsubj) wins over 'Ronald' (compound)."""
        sentence = make_reagan_sentence()
        assert representative_token(sentence, sentence.subject) == 1

    def test_object_span_prefers_object_tag(self):
        sentence = make_reagan_sentence()
        assert representative_token(sentence, sentence.object) == 10  # "States" (pobj)

    def test_single_token_span(self):
        sentence = make_reagan_sentence()
        assert representative_token(sentence, EntitySpan(6, 7, "president")) == 6

    def test_fallback_is_internal_head_and_dominates_span(self):
        """With no preferred tags, the token whose head leaves the span wins,
        and (brute force) every other span token sits below it in the tree."""
        rng = np.random.default_rng(5)
        checked = 0
        while checked < 25:
            sentence = random_tree_sentence(rng, int(rng.integers(4, 12)))
            # pick a token with children and use (token, child...) as the span
            for head in range(len(sentence.tokens)):
                kids = [i for i, t in enumerate(sentence.tokens) if t.head == head]
                span_lo = min([head, *kids])
                span_hi = max([head, *kids]) + 1
                if not kids or span_hi - span_lo != len(kids) + 1:
                    continue  # not contiguous
                span = EntitySpan(span_lo, span_hi, "x")
                rep = representative_token(sentence, span)
                assert rep == head  # only `head` has its head outside the span
                for other in range(span_lo, span_hi):
                    if other == rep:
                        continue
                    cur = other
                    while cur != rep and sentence.tokens[cur].head != -1:
                        cur = sentence.tokens[cur].head
                    assert cur == rep, "representative must dominate the span"
                checked += 1
                break

    def test_fallback_ties_take_last(self):
        # both span tokens attach outside the span: the later one is chosen
        tokens = (
            Token("r", "V", "ROOT", -1),
            Token("a", "N", "obl", 0),
            Token("b", "N", "obl", 0),
            Token("c", "N", "obl", 0),
        )
        sentence = ParsedSentence("s", tokens, EntitySpan(1, 3, "ab"), EntitySpan(3, 4, "c"))
        assert representative_token(sentence, sentence.subject) == 2


class TestShortestPath:
    def test_adjacent_nodes_give_length_two(self):
        tokens = (
            Token("likes", "VERB", "ROOT", -1),
            Token("Ann", "PROPN", "nsubj", 0),
            Token("Bob", "PROPN", "dobj", 0),
        )
        sentence = ParsedSentence("s", tokens, EntitySpan(0, 1, "likes"), EntitySpan(1, 2, "Ann"))
        path = shortest_path(sentence)
        assert path.words == ("likes", "Ann")

    def test_representatives_lie_inside_their_disjoint_spans(self):
        """What keeps every path two tokens long or more: on random valid trees
        with disjoint multi-token spans, each span's representative token lies
        inside it, so the two representatives differ."""
        rng = np.random.default_rng(29)
        tags = ("nsubj", "dobj", "amod", "compound", "det", "prep")
        for trial in range(200):
            n = int(rng.integers(3, 12))
            tokens = tuple(
                t if t.head == -1 else t._replace(dep=tags[int(rng.integers(len(tags)))])
                for t in random_tree_sentence(rng, n).tokens
            )
            a, b, c, d = sorted(int(i) for i in rng.choice(n + 1, size=4, replace=False))
            spans = [EntitySpan(a, b, "first"), EntitySpan(b if rng.integers(2) else c, d, "second")]
            rng.shuffle(spans)
            sentence = ParsedSentence(f"t{trial}", tokens, *spans)
            validate_sentence(sentence)
            for span in spans:
                assert span.start <= representative_token(sentence, span) < span.end
            assert len(shortest_path(sentence).words) >= 2

    def test_matches_bfs_oracle_on_random_trees(self):
        """50 random valid trees: extracted path equals BFS on the undirected tree."""
        rng = np.random.default_rng(17)
        for trial in range(50):
            sentence = random_tree_sentence(rng, int(rng.integers(2, 16)), f"t{trial}")
            src = representative_token(sentence, sentence.subject)
            dst = representative_token(sentence, sentence.object)
            expected = bfs_tree_path(sentence, src, dst)
            path = shortest_path(sentence)
            assert list(path.words) == [sentence.tokens[i].text for i in expected]
            assert list(path.deps) == [sentence.tokens[i].dep for i in expected]
            assert list(path.poss) == [sentence.tokens[i].pos for i in expected]

    def test_endpoints_are_representative_words(self):
        rng = np.random.default_rng(23)
        for trial in range(20):
            sentence = random_tree_sentence(rng, 9, f"t{trial}")
            path = shortest_path(sentence)
            src = representative_token(sentence, sentence.subject)
            dst = representative_token(sentence, sentence.object)
            assert path.words[0] == sentence.tokens[src].text
            assert path.words[-1] == sentence.tokens[dst].text


def make_path(n: int) -> SspTriple:
    return SspTriple(
        words=tuple(f"w{i}" for i in range(n)),
        deps=tuple(f"d{i}" for i in range(n)),
        poss=tuple(f"p{i}" for i in range(n)),
    )


class TestPadOrTruncate:
    def test_padding(self):
        padded = pad_or_truncate(make_path(6), 8)
        assert padded.words == (*make_path(6).words, PAD, PAD)
        assert padded.true_length == 6

    def test_identity_when_exact(self):
        padded = pad_or_truncate(make_path(6), 6)
        assert SspTriple(padded.words, padded.deps, padded.poss) == make_path(6)
        assert padded.true_length == 6

    def test_truncation_keeps_first_elements_plus_final(self):
        padded = pad_or_truncate(make_path(9), 6)
        assert padded.words == ("w0", "w1", "w2", "w3", "w4", "w8")
        assert padded.deps == ("d0", "d1", "d2", "d3", "d4", "d8")
        assert padded.true_length == 6

    def test_rejects_tiny_target(self):
        with pytest.raises(ValidationError):
            pad_or_truncate(make_path(3), 1)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 20), n_l=st.integers(2, 12))
    def test_idempotent_and_fixed_length(self, n, n_l):
        once = pad_or_truncate(make_path(n), n_l)
        assert len(once.words) == len(once.deps) == len(once.poss) == n_l
        triple = SspTriple(once.words, once.deps, once.poss)
        twice = pad_or_truncate(triple, n_l)
        assert SspTriple(twice.words, twice.deps, twice.poss) == triple
