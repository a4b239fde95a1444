import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cure.cluster import Merge, cut, hac, pairwise_distances
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

    def test_needs_two_vectors(self):
        with pytest.raises(ValidationError):
            hac(vecs([0.0]))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(3, 12))
    def test_average_linkage_merge_distances_non_decreasing(self, seed, n):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, 3))
        dendrogram = hac(list(points))
        distances = [m.distance for m in dendrogram.merges]
        assert all(a <= b + 1e-12 for a, b in zip(distances, distances[1:]))


def assert_matches_oracle(points: np.ndarray, trial: int) -> None:
    got = [(m.a, m.b) for m in hac(list(points)).merges]
    assert got == brute_force_agglomeration(points.tolist()), f"trial {trial}"


class TestAgglomeration:
    """The nearest-partner agglomeration against the from-scratch oracle,
    on the inputs where rounding could flip a tie."""

    def test_duplicate_heavy_inputs_match_brute_force_oracle(self):
        """2-4 distinct vectors, each repeated, up to n = 25: the zero-distance
        merges follow the tie rule, then the clusters of duplicates merge."""
        rng = np.random.default_rng(23)
        for trial in range(30):
            distinct = rng.uniform(-3, 3, size=(int(rng.integers(2, 5)), int(rng.integers(1, 5))))
            n = int(rng.integers(len(distinct), 26))
            points = distinct[np.concatenate([np.arange(len(distinct)), rng.integers(0, len(distinct), n - len(distinct))])]
            points = points[rng.permutation(n)]
            assert_matches_oracle(points, trial)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 24))
    def test_duplicates_with_signed_zeros_match_brute_force_oracle(self, seed, n):
        """1-4 distinct vectors with some zero coordinates, each repeated with
        either sign on its zeros: -0.0 and 0.0 are one value, so the copies
        merge at distance 0 in tie order, as the oracle merges them."""
        rng = np.random.default_rng(seed)
        distinct = rng.uniform(-3, 3, size=(int(rng.integers(1, 5)), int(rng.integers(1, 4))))
        distinct[rng.random(distinct.shape) < 0.4] = 0.0
        points = distinct[rng.integers(0, len(distinct), n)]
        points[(points == 0.0) & (rng.random(points.shape) < 0.5)] = -0.0
        assert_matches_oracle(points, seed)

    def test_distinct_vectors_at_distance_zero_follow_the_tie_rule(self):
        """1e-170 squared underflows to 0, so all three points are at distance
        0 and the lowest pair (0, 1) merges first, although only 0 and 2 are
        equal; merging the equal ones first would give (0, 2)."""
        points = vecs([0.0, 0.0], [1e-170, 0.0], [0.0, 0.0])
        merges = hac(points).merges
        assert [(m.a, m.b, m.distance) for m in merges] == [(0, 1, 0.0), (2, 3, 0.0)]
        assert_matches_oracle(np.array(points), 0)

    def test_random_inputs_up_to_40_points_match_brute_force_oracle(self):
        rng = np.random.default_rng(29)
        for trial in range(40):
            n = int(rng.integers(9, 41))
            points = rng.normal(size=(n, int(rng.integers(1, 6))))
            assert_matches_oracle(points, trial)

    def test_exact_ties_on_an_integer_line_match_brute_force_oracle(self):
        """Points on an integer line have exact integer distances, so ties are
        exact and the lowest (id_a, id_b) rule decides many merges."""
        rng = np.random.default_rng(43)
        for trial in range(200):
            points = rng.integers(0, 6, size=(int(rng.integers(3, 13)), 1)).astype(np.float64)
            assert_matches_oracle(points, trial)

    def test_clusters_of_duplicates_keep_their_base_distance(self):
        """m copies of u, v, m copies of w with d(u, v) == d(v, w): the union of
        the u copies stays exactly at sqrt(2) from v, and the tie between (v, U)
        and (v, W) goes to the lower id, U's."""
        for m in range(1, 25):
            points = vecs(*([[0.0, 0.0]] * m + [[1.0, 1.0]] + [[2.0, 2.0]] * m))
            merges = hac(points).merges
            clusters = {i: {i} for i in range(len(points))}
            for t, merge in enumerate(merges[:-2]):
                clusters[len(points) + t] = clusters.pop(merge.a) | clusters.pop(merge.b)
            (u_id,) = [c for c, members in clusters.items() if 0 in members]
            a, b = sorted((m, u_id))  # v is point m
            assert merges[-2] == Merge(a=a, b=b, distance=float(np.sqrt(2.0))), m

    def test_merge_ids_follow_the_n_plus_t_rule(self):
        """Merge t joins two live clusters, lower id first, and creates id n + t."""
        rng = np.random.default_rng(31)
        for n in (2, 3, 10, 40):
            points = rng.integers(0, 3, size=(n, 2)).astype(np.float64)  # many exact duplicates
            live = set(range(n))
            for t, merge in enumerate(hac(list(points)).merges):
                assert merge.a < merge.b and {merge.a, merge.b} <= live, (n, t, merge)
                live -= {merge.a, merge.b}
                live.add(n + t)
            assert live == {2 * n - 2}

    def test_overflowing_distances_still_follow_the_tie_rule(self):
        """Points 1e200 apart are at infinite distance: every pair ties and the
        lowest ids merge first."""
        with np.errstate(over="ignore"):
            merges = hac(vecs([0.0], [1e200], [2e200], [3e200])).merges
        assert [(m.a, m.b, m.distance) for m in merges] == [(0, 1, np.inf), (2, 3, np.inf), (4, 5, np.inf)]

    def test_peak_memory_is_quadratic_not_cubic(self):
        """At n = 200, dim = 256 an n x n x dim temporary alone is 82 MB; the
        matrix, the points and one n x dim temporary are about 0.7 MB."""
        n, dim = 200, 256
        vectors = list(np.random.default_rng(37).normal(size=(n, dim)))
        tracemalloc.start()
        try:
            hac(vectors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 8 * (n * n + n * dim), peak

    def test_peak_memory_grows_with_distinct_vectors_not_with_n(self):
        """2 000 vectors of 20 distinct values, dim 64: an n x n matrix alone
        is 32 MB; four n x dim arrays are 4 MB."""
        n, dim = 2000, 64
        rng = np.random.default_rng(47)
        vectors = list(rng.normal(size=(20, dim))[rng.integers(0, 20, n)])
        tracemalloc.start()
        try:
            merges = hac(vectors).merges
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sum(m.distance == 0.0 for m in merges) == n - 20
        assert peak < 4 * 8 * n * dim, peak

    def test_row_wise_distances_match_the_broadcast_matrix(self):
        rng = np.random.default_rng(41)
        for dim in (1, 3, 8, 192):
            points = rng.normal(size=(30, dim))
            diff = points[:, None, :] - points[None, :, :]
            assert np.array_equal(pairwise_distances(points), np.sqrt((diff * diff).sum(axis=-1)))


class TestMetamorphic:
    """Relations between the outputs of related inputs, checked exactly."""

    @pytest.mark.parametrize("k", [-300, -20, 20, 300])
    def test_scaling_by_a_power_of_two_scales_every_distance_exactly(self, k):
        """60 vectors of 15 distinct values, some coordinates zero of either
        sign: times 2^k, the same merges, every distance exactly times 2^k."""
        rng = np.random.default_rng(53)
        distinct = rng.normal(size=(15, 8))
        distinct[rng.random(distinct.shape) < 0.2] = 0.0
        points = distinct[rng.integers(0, 15, 60)]
        points[(points == 0.0) & (rng.random(points.shape) < 0.5)] = -0.0
        base = hac(list(points)).merges
        scaled = hac(list(np.ldexp(points, k))).merges
        assert [(m.a, m.b) for m in scaled] == [(m.a, m.b) for m in base]
        assert [m.distance for m in scaled] == [np.ldexp(m.distance, k) for m in base]

    @pytest.mark.parametrize("k", [-300, -20, 20, 300])
    def test_scaling_by_a_power_of_two_scales_every_centroid_exactly(self, k):
        rng = np.random.default_rng(61)
        points = rng.normal(size=(40, 8))
        base, scaled = hac(list(points)), hac(list(np.ldexp(points, k)))
        for n_clusters in (1, 3, 10, 40):
            for got, expected in zip(cut(scaled, n_clusters), cut(base, n_clusters)):
                assert got.members == expected.members
                assert np.array_equal(got.centroid, np.ldexp(expected.centroid, k))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_permuting_distinct_vectors_keeps_the_partition_at_the_cut(self, seed):
        points = list(np.random.default_rng(59).normal(size=(200, 8)))
        order = np.random.default_rng(seed).permutation(200)
        base, permuted = hac(points), hac([points[i] for i in order])
        for k in (2, 4, 10, 50):
            got = {frozenset(int(order[i]) for i in c.members) for c in cut(permuted, k)}
            assert got == {frozenset(c.members) for c in cut(base, k)}, k


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
