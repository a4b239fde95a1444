import numpy as np
import pytest

from cure.errors import ValidationError
from cure.paths import SspTriple
from cure.vocab import PAD, PAD_ID, UNK, UNK_ID, Vocab, build_vocab, load_pretrained


def path_of(*words):
    n = len(words)
    return SspTriple(words=tuple(words), deps=("dep",) * n, poss=("pos",) * n)


class TestBuildVocab:
    def test_min_freq_threshold(self):
        paths = [path_of("served", "xyzzy"), path_of("served"), path_of("served")]
        words, _, _ = build_vocab(paths, min_freq=2)
        assert "served" in words.index
        assert "xyzzy" not in words.index
        assert words.ids(["xyzzy"]) == (UNK_ID,)

    def test_deterministic(self):
        paths = [path_of("b", "a", "c"), path_of("a", "c")]
        assert build_vocab(paths, min_freq=1) == build_vocab(paths, min_freq=1)

    def test_word_count_matches_brute_force_tally(self):
        rng = np.random.default_rng(3)
        paths = []
        for _ in range(60):
            k = int(rng.integers(1, 6))
            paths.append(path_of(*[f"w{int(rng.integers(30))}" for _ in range(k)]))
        tally: dict = {}
        for p in paths:
            for w in p.words:
                tally[w] = tally.get(w, 0) + 1
        expected = sum(1 for c in tally.values() if c >= 2) + 2  # plus PAD, UNK
        words, _, _ = build_vocab(paths, min_freq=2)
        assert len(words) == expected

    def test_empty_input_gives_reserved_only(self):
        words, deps, poss = build_vocab([], min_freq=2)
        assert words.symbols == (PAD, UNK)
        assert deps.symbols == (PAD, UNK)
        assert poss.symbols == (PAD, UNK)

    def test_order_frequency_then_lexicographic(self):
        paths = [path_of("b", "b", "c", "a", "a")]
        words, _, _ = build_vocab(paths, min_freq=1)
        assert words.symbols == (PAD, UNK, "a", "b", "c")

    def test_tag_vocabs_keep_everything(self):
        paths = [path_of("onlyonce")]
        words, deps, poss = build_vocab(paths, min_freq=2)
        assert words.ids(["onlyonce"]) == (UNK_ID,)
        assert deps.ids(["dep"])[0] > UNK_ID
        assert poss.ids(["pos"])[0] > UNK_ID


class TestVocab:
    def test_lookup_is_total(self):
        vocab = Vocab((PAD, UNK, "a"))
        assert vocab.ids(["a", "never-seen", PAD]) == (2, UNK_ID, PAD_ID)

    def test_ids_round_trip_positions(self):
        vocab = Vocab((PAD, UNK, "x", "y"))
        assert vocab.ids(["y", "x", "?"]) == (3, 2, UNK_ID)

    def test_reserved_symbols_required(self):
        with pytest.raises(ValidationError):
            Vocab(("a", "b"))


class TestLoadPretrained:
    def write(self, tmp_path, text):
        path = tmp_path / "vecs.txt"
        path.write_text(text, encoding="utf-8")
        return path

    def test_three_tokens(self, tmp_path):
        vectors = load_pretrained(self.write(tmp_path, "a 1 2 3 4\nb 0 0 1 0\nc 0.5 0.5 0.5 0.5\n"))
        assert len(vectors) == 3
        assert all(v.shape == (4,) for v in vectors.values())
        assert np.allclose(vectors["b"], [0, 0, 1, 0])

    def test_header_skipped(self, tmp_path):
        vectors = load_pretrained(self.write(tmp_path, "3 4\na 1 2 3 4\nb 0 0 1 0\nc 1 1 1 1\n"))
        assert len(vectors) == 3

    def test_one_dimensional_first_line_is_a_vector_not_a_header(self, tmp_path):
        """Two fields on line 1 are a header only if both are integers."""
        vectors = load_pretrained(self.write(tmp_path, "cat 0.5\ndog 2\n"))
        assert vectors.keys() == {"cat", "dog"}
        assert np.array_equal(vectors["cat"], [0.5])

    def test_dimension_error_names_line(self, tmp_path):
        with pytest.raises(ValidationError, match=r"vecs\.txt:2: dimension"):
            load_pretrained(self.write(tmp_path, "a 1 2 3 4\nb 0 0 1\n"))

    def test_duplicate_token(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            load_pretrained(self.write(tmp_path, "a 1 2\na 3 4\n"))

    def test_unparseable_value(self, tmp_path):
        with pytest.raises(ValidationError, match=r"vecs\.txt:1: unparseable"):
            load_pretrained(self.write(tmp_path, "a 1 two\n"))
