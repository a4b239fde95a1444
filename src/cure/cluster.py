"""Hierarchical agglomerative clustering of relation vectors.

Average linkage under Euclidean distance, by the "generic" algorithm of
Müllner (*Modern hierarchical, agglomerative clustering algorithms*,
arXiv:1109.2378). One n x n distance matrix, built a row at a time, is
updated in place by the Lance-Williams formula

    d(k, a u b) = (|a| d(k, a) + |b| d(k, b)) / (|a| + |b|)

(kept exactly at d(k, a) when d(k, a) == d(k, b), so a cluster of
duplicates stays at its base distance), and every row caches its nearest
partner, so a merge rescans only the rows whose cached partner it removed.
Memory is O(n^2 + n * dim): the matrix, the points and one n x dim
temporary. Time is O(n^2 * dim) for the distances plus, for the merges,
O(n^2) when few cached partners go stale and O(n^3) at worst.

Merge order is fully deterministic: distance ties break on the lowest
(id_a, id_b) pair, where singleton clusters carry their input index and
the t-th merge (counting from 0) creates cluster id n + t.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class Merge:
    a: int
    b: int
    distance: float


@dataclass
class Dendrogram:
    points: np.ndarray  # (n, dim)
    merges: list[Merge]  # length n - 1

    @property
    def n(self) -> int:
        return self.points.shape[0]


@dataclass
class Cluster:
    id: int
    members: tuple[int, ...]
    centroid: np.ndarray


def _as_matrix(vectors: Sequence[np.ndarray]) -> np.ndarray:
    if len(vectors) < 2:
        raise ValidationError("clustering needs at least 2 vectors")
    dims = {np.asarray(v).shape for v in vectors}
    if len(dims) != 1 or len(next(iter(dims))) != 1:
        raise ValidationError(f"vectors must share one dimension, got shapes {sorted(dims)}")
    points = np.array(vectors, dtype=np.float64)
    if not np.isfinite(points).all():
        raise ValidationError("vectors must be finite")
    return points


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    """Euclidean distance matrix, one row at a time: row i holds the
    distances to points i.. and is mirrored into column i."""
    n = points.shape[0]
    out = np.empty((n, n))
    for i in range(n):
        diff = points[i:] - points[i]
        diff *= diff
        out[i, i:] = out[i:, i] = np.sqrt(diff.sum(axis=-1))
    return out


def _nearest_partner(dist: np.ndarray, ids: np.ndarray, active: np.ndarray, row: int) -> tuple[float, int]:
    """The least (distance, partner id) over the active slots whose cluster
    id exceeds row's, as (distance, partner slot); (inf, -1) if none does."""
    later = np.flatnonzero(active & (ids > ids[row]))
    if later.size == 0:
        return np.inf, -1
    distances = dist[row, later]
    best = distances.min()
    tied = later[distances == best]
    return float(best), int(tied[np.argmin(ids[tied])])


def hac(vectors: Sequence[np.ndarray]) -> Dendrogram:
    """Greedy agglomeration: repeatedly merge the two clusters with minimal
    average pairwise Euclidean distance.

    Slot i of the distance matrix holds the cluster ids[i] of sizes[i]
    points while active[i]; the pair of clusters in slots i and j, with
    ids[i] < ids[j], belongs to row i, whose cache (nearest[i], partner[i])
    is its least (distance, partner id). A merge puts the union in the slot
    of its lower id, under an id larger than every live one, so that row
    starts empty and every other row only has to compare the union with
    its cached partner."""
    points = _as_matrix(vectors)
    n = points.shape[0]
    dist = pairwise_distances(points)
    ids = np.arange(n)
    sizes = np.ones(n)
    active = np.ones(n, dtype=bool)
    nearest = np.full(n, np.inf)
    partner = np.full(n, -1)
    for row in range(n - 1):
        nearest[row], partner[row] = _nearest_partner(dist, ids, active, row)

    merges: list[Merge] = []
    for step in range(n - 1):
        best = nearest.min()
        rows = np.flatnonzero((nearest == best) & (partner >= 0))
        a = int(rows[np.argmin(ids[rows])])
        b = int(partner[a])
        merges.append(Merge(a=int(ids[a]), b=int(ids[b]), distance=float(best)))

        dist_a, dist_b = dist[a], dist[b]
        union = (sizes[a] * dist_a + sizes[b] * dist_b) / (sizes[a] + sizes[b])
        union = np.where(dist_a == dist_b, dist_a, union)
        dist[a] = dist[:, a] = union
        sizes[a] += sizes[b]
        ids[a] = n + step
        active[b] = False
        nearest[[a, b]], partner[[a, b]] = np.inf, -1

        stale = np.flatnonzero((partner == a) | (partner == b))
        # The union's id exceeds every cached partner's, so it wins a row
        # only when strictly closer, or when the row had no partner left.
        closer = active & ((union < nearest) | (partner < 0))
        closer[a] = False
        nearest[closer], partner[closer] = union[closer], a
        for row in stale:
            nearest[row], partner[row] = _nearest_partner(dist, ids, active, row)
    return Dendrogram(points=points, merges=merges)


def cut(dendrogram: Dendrogram, k: int) -> list[Cluster]:
    """Stop the agglomeration at exactly k clusters (undo the last k-1
    merges). Output clusters are sorted by size descending, then by the
    cluster id they held in the dendrogram, and relabeled 0..k-1."""
    n = dendrogram.n
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {k}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step, merge in enumerate(dendrogram.merges[: n - k]):
        members[n + step] = sorted(members.pop(merge.a) + members.pop(merge.b))
    ordered = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    return [
        Cluster(id=pos, members=tuple(mem), centroid=dendrogram.points[mem].mean(axis=0))
        for pos, (_, mem) in enumerate(ordered)
    ]
