import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.cluster import cut, hac
from cure.errors import ValidationError

from helpers import brute_force_agglomeration


def vecs(*rows):
    return [np.array(r, dtype=np.float64) for r in rows]


class TestHac:
    def test_collinear_points_merge_nearest_first(self):
        dendrogram = hac(vecs([0.0], [1.0], [10.0]))
        first, second = dendrogram.merges
        assert (first.a, first.b) == (0, 1)
        assert first.distance == 1.0
        assert (second.a, second.b) == (2, 3)  # singleton 2 with merged cluster 3

    def test_duplicate_points_merge_at_zero(self):
        dendrogram = hac(vecs([2.0, 2.0], [2.0, 2.0], [5.0, 5.0], [2.0, 2.0]))
        assert dendrogram.merges[0].distance == 0.0
        assert dendrogram.merges[1].distance == 0.0

    def test_matches_brute_force_oracle(self):
        """Up to 8 random points: merge sequence equals from-scratch agglomeration."""
        rng = np.random.default_rng(7)
        for trial in range(40):
            n = int(rng.integers(2, 9))
            points = rng.uniform(-3, 3, size=(n, int(rng.integers(1, 5))))
            dendrogram = hac(list(points))
            expected = brute_force_agglomeration(points.tolist())
            assert [(m.a, m.b) for m in dendrogram.merges] == expected, f"trial {trial}"

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            hac(vecs([0.0], [0.0, 1.0]))

    def test_needs_two_vectors(self):
        with pytest.raises(ValidationError):
            hac(vecs([0.0]))

    def test_unsupported_linkage(self):
        with pytest.raises(ValidationError):
            hac(vecs([0.0], [1.0]), linkage="single")

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
    def test_average_linkage_merge_distances_non_decreasing(self, seed, n):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3))
        dendrogram = hac(list(points))
        distances = [m.distance for m in dendrogram.merges]
        assert all(a <= b + 1e-12 for a, b in zip(distances, distances[1:]))


class TestCut:
    def test_k_equals_n_gives_singletons(self):
        points = vecs([0.0, 0.0], [1.0, 0.0], [0.0, 2.0])
        clusters = cut(hac(points), 3)
        assert sorted(c.members for c in clusters) == [(0,), (1,), (2,)]
        for c in clusters:
            assert np.array_equal(c.centroid, points[c.members[0]])

    def test_k_one_gives_global_mean(self):
        points = vecs([0.0], [1.0], [5.0])
        (cluster,) = cut(hac(points), 1)
        assert cluster.members == (0, 1, 2)
        assert np.allclose(cluster.centroid, [2.0])

    def test_partition_property(self):
        rng = np.random.default_rng(11)
        points = list(rng.normal(size=(10, 4)))
        for k in (1, 3, 7, 10):
            clusters = cut(hac(points), k)
            seen = sorted(i for c in clusters for i in c.members)
            assert seen == list(range(10))
            assert len(clusters) == k

    def test_sorted_by_size_then_id(self):
        # two tight pairs and a far singleton: sizes 2, 2, 1
        points = vecs([0.0], [0.01], [10.0], [10.01], [99.0])
        clusters = cut(hac(points), 3)
        assert [len(c.members) for c in clusters] == [2, 2, 1]
        assert [c.id for c in clusters] == [0, 1, 2]

    def test_k_out_of_range(self):
        dendrogram = hac(vecs([0.0], [1.0]))
        for bad in (0, 3):
            with pytest.raises(ValidationError):
                cut(dendrogram, bad)
