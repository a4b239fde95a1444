"""Hierarchical agglomerative clustering of relation vectors.

Average linkage under Euclidean distance, implemented naively (O(n^3)) for
desk-scale inputs. Merge order is fully deterministic: distance ties break
on the lowest (id_a, id_b) pair, where singleton clusters carry their input
index and the t-th merge creates cluster id n + t.
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
    return np.array(vectors, dtype=np.float64)


def pairwise_distances(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def hac(vectors: Sequence[np.ndarray], linkage: str = "average") -> Dendrogram:
    """Greedy agglomeration: repeatedly merge the two clusters with minimal
    average pairwise Euclidean distance."""
    if linkage != "average":
        raise ValidationError(f"unsupported linkage {linkage!r}")
    points = _as_matrix(vectors)
    n = points.shape[0]
    base = pairwise_distances(points)

    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    dist: dict[tuple[int, int], float] = {}
    ids = sorted(members)
    for i, a in enumerate(ids):
        for b in ids[i + 1 :]:
            dist[(a, b)] = float(base[a, b])

    merges: list[Merge] = []
    for step in range(n - 1):
        (a, b), d = min(dist.items(), key=lambda kv: (kv[1], kv[0]))
        merges.append(Merge(a=a, b=b, distance=d))
        new_id = n + step
        merged = sorted(members.pop(a) + members.pop(b))
        dist = {pair: v for pair, v in dist.items() if a not in pair and b not in pair}
        for other, other_members in members.items():
            block = base[np.ix_(merged, other_members)]
            dist[(min(other, new_id), max(other, new_id))] = float(block.mean())
        members[new_id] = merged
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
