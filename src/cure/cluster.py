"""Hierarchical agglomerative clustering of relation vectors.

Average linkage under Euclidean distance, in two phases.

Exact duplicates first. Points with the same value (-0.0 counted as 0.0)
form a group; duplicates are at distance 0, every other pair further
apart, so the agglomeration begins with the zero-distance merges inside
the groups, in the tie order below. Phase 1 emits them without any
distance: it repeatedly merges the group whose two lowest live ids form
the lowest (id_a, id_b) pair, and the union stays in its group.

Then one representative per group, by the "generic" algorithm of Müllner
(*Modern hierarchical, agglomerative clustering algorithms*,
arXiv:1109.2378), seeded with the groups' surviving ids and sizes. One
G x G distance matrix over the G representatives, built a row at a time,
is updated in place by the Lance-Williams formula

    d(k, a u b) = (|a| d(k, a) + |b| d(k, b)) / (|a| + |b|)

(kept exactly at d(k, a) when d(k, a) == d(k, b), so a cluster of
duplicates stays at its base distance: this is why phase 1 leaves the
matrix exactly as the zero-distance merges would have), and every row
caches its nearest partner. One scan fills every row's cache; a merge
compares the union with each cached partner and then rescans, in one scan,
the rows whose cached partner it removed. A scan reads only the active
columns, in whole-array operations on blocks of rows of at most
SCAN_BLOCK_ELEMENTS entries each. If two distinct representatives are at
distance exactly 0 (a squared difference underflows), the grouping is
dropped and every point is its own group, which is the generic algorithm
on all n points. Memory is O(G^2 + n * dim): the matrix, the points, one
n x dim temporary and a few temporaries of one scan block, whose size does
not grow with G. Time is O(G^2 * dim) for the distances plus, for the
merges, O(G^2) when few cached partners go stale and O(G^3) at worst.

Merge order is fully deterministic: distance ties break on the lowest
(id_a, id_b) pair, where singleton clusters carry their input index and
the t-th merge (counting from 0) creates cluster id n + t.
"""

from __future__ import annotations

import heapq
import reprlib
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError

# Matrix entries in one block of a partner scan: bounds the scan's temporaries
# (a few arrays of this many elements) whatever the number of clusters.
SCAN_BLOCK_ELEMENTS = 1 << 16
_NO_ID = np.iinfo(np.intp).max  # above every cluster id: never the least among tied partners


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


def scaled(x: np.ndarray) -> tuple[np.ndarray, int]:
    """(x 2^-e, e) for the e that brings x's largest magnitude into [0.5, 1):
    a power of two scales exactly, and a sum of scaled values cannot overflow."""
    e = int(np.frexp(np.abs(x).max())[1])
    return np.ldexp(x, -e), e


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


def _scan_partners(
    dist: np.ndarray, ids: np.ndarray, active: np.ndarray, rows: np.ndarray, nearest: np.ndarray, partner: np.ndarray
) -> None:
    """Set each row's cache (nearest, partner) to its least (distance,
    partner id) over the active slots whose cluster id exceeds the row's, as
    (distance, partner slot); (inf, -1) for a row that has none. An infinite
    distance is still a partner. Only the active columns are read, in
    blocks of rows of at most SCAN_BLOCK_ELEMENTS entries, so that no
    temporary outgrows a block."""
    cols = active.nonzero()[0]
    col_ids = ids[cols]
    step = max(1, SCAN_BLOCK_ELEMENTS // len(cols))
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        later = col_ids > ids[block, None]
        distances = dist[block[:, None], cols]
        np.putmask(distances, ~later, np.inf)
        best = distances.min(axis=1)
        tied = distances == best[:, None]
        tied &= later
        slot = np.where(tied, col_ids, _NO_ID).argmin(axis=1)
        nearest[block] = best
        partner[block] = np.where(tied.any(axis=1), cols[slot], -1)


def _duplicate_groups(points: np.ndarray) -> list[list[int]]:
    """The indices of each distinct point value, ascending, in order of first
    occurrence; + 0.0 turns -0.0 into 0.0, which is the same value."""
    groups: dict[bytes, list[int]] = {}
    for i, row in enumerate(points + 0.0):
        groups.setdefault(row.tobytes(), []).append(i)
    return list(groups.values())


def _merge_duplicates(groups: list[list[int]], n: int) -> tuple[list[Merge], list[int]]:
    """The zero-distance merges inside every group, lowest (id_a, id_b) pair
    first, and the id each group ends with. Merge t creates id n + t, the
    largest live one, so a group's two lowest live ids are the front of a
    queue."""
    survivors = [group[0] for group in groups]
    queues = {g: deque(group) for g, group in enumerate(groups) if len(group) > 1}
    heap = [(queue[0], queue[1], g) for g, queue in queues.items()]
    heapq.heapify(heap)
    merges: list[Merge] = []
    while heap:
        a, b, g = heapq.heappop(heap)
        merges.append(Merge(a=a, b=b, distance=0.0))
        queue = queues[g]
        queue.popleft()
        queue.popleft()
        queue.append(n + len(merges) - 1)
        if len(queue) > 1:
            heapq.heappush(heap, (queue[0], queue[1], g))
        else:
            survivors[g] = queue[0]
    return merges, survivors


def hac(vectors: Sequence[np.ndarray]) -> Dendrogram:
    """Greedy agglomeration: repeatedly merge the two clusters with minimal
    average pairwise Euclidean distance.

    After the duplicates' merges, slot i of the distance matrix holds the
    cluster ids[i] of sizes[i] points while active[i]; the pair of clusters
    in slots i and j, with ids[i] < ids[j], belongs to row i, whose cache
    (nearest[i], partner[i]) is its least (distance, partner id). A merge
    puts the union in the slot of its lower id, under an id larger than
    every live one, so that row starts empty and every other row only has
    to compare the union with its cached partner."""
    if len(vectors) < 2:
        raise ValidationError("clustering needs at least 2 vectors")
    points = np.array(vectors, dtype=np.float64)
    n = points.shape[0]
    groups = _duplicate_groups(points)
    if len(groups) < n:
        dist = pairwise_distances(points[[group[0] for group in groups]])
        if np.count_nonzero(dist == 0.0) > len(groups):
            # Distinct values at distance 0 would tie with the duplicates' merges.
            groups = [[i] for i in range(n)]
    if len(groups) == n:
        dist = pairwise_distances(points)
    merges, survivors = _merge_duplicates(groups, n)
    slots = len(groups)
    ids = np.array(survivors, dtype=np.intp)
    sizes = np.array([len(group) for group in groups], dtype=np.float64)
    active = np.ones(slots, dtype=bool)
    nearest = np.empty(slots)
    partner = np.empty(slots, dtype=np.intp)
    _scan_partners(dist, ids, active, np.arange(slots), nearest, partner)

    for _ in range(slots - 1):
        a = int(nearest.argmin())
        best = float(nearest[a])
        if partner[a] < 0 or np.count_nonzero(nearest == best) > 1:
            rows = np.flatnonzero((nearest == best) & (partner >= 0))
            a = int(rows[np.argmin(ids[rows])])
        b = int(partner[a])
        merges.append(Merge(a=int(ids[a]), b=int(ids[b]), distance=best))

        dist_a, dist_b = dist[a], dist[b]
        size_a, size_b = sizes.item(a), sizes.item(b)  # Python floats: cheaper scalar arithmetic
        union = size_a * dist_a
        union += size_b * dist_b
        union /= size_a + size_b
        np.putmask(union, dist_a == dist_b, dist_a)
        dist[a] = dist[:, a] = union
        sizes[a] = size_a + size_b
        ids[a] = n + len(merges) - 1
        active[b] = False
        nearest[a] = nearest[b] = np.inf
        partner[a] = partner[b] = -1

        stale = ((partner == a) | (partner == b)).nonzero()[0]
        # The union's id exceeds every cached partner's, so it wins a row
        # only when strictly closer, or when the row had no partner left.
        closer = (union < nearest) | (partner < 0)
        closer &= active
        closer[a] = False
        np.copyto(nearest, union, where=closer)
        np.putmask(partner, closer, a)
        if stale.size:
            _scan_partners(dist, ids, active, stale, nearest, partner)
    return Dendrogram(points=points, merges=merges)


def cut(dendrogram: Dendrogram, k: int) -> list[Cluster]:
    """Stop the agglomeration at exactly k clusters (undo the last k-1
    merges). Output clusters are sorted by size descending, then by the
    cluster id they held in the dendrogram, and relabeled 0..k-1. Centroids
    average their members scaled by one power of two: the sum cannot overflow."""
    n = dendrogram.n
    if not 1 <= k <= n:
        raise ValidationError(f"k must be in [1, {n}], got {reprlib.repr(k)}")
    members: dict[int, list[int]] = {i: [i] for i in range(n)}
    for step, merge in enumerate(dendrogram.merges[: n - k]):
        members[n + step] = sorted(members.pop(merge.a) + members.pop(merge.b))
    ordered = sorted(members.items(), key=lambda kv: (-len(kv[1]), kv[0]))
    clusters = []
    for pos, (_, mem) in enumerate(ordered):
        points, e = scaled(dendrogram.points[mem])
        clusters.append(Cluster(id=pos, members=tuple(mem), centroid=np.ldexp(points.mean(axis=0), e)))
    return clusters
