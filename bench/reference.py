"""A fixed computation that measures how fast the host runs right now.

It shares no code with cure, so no change to cure moves it; only the host
does. Each step mixes the kinds of work cure's pipeline spends its time on:
small numpy matrix-vector products, building many small Python objects,
filtering a dict of index pairs much larger than a CPU's private caches (as
HAC does at every merge), and reads scattered over an array larger than any
cache. The last two slow down when other tenants of the host fill the shared
caches and memory bus, which the first two barely notice.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

STEPS = 100
_W = np.random.default_rng(0).standard_normal((16, 16)) / 4
_PAIR_IDS = 200  # the dict holds every pair of 200 ids: 19,900 entries
_SCATTERED_READS = 4096


def step(k: int, pairs: dict, big: np.ndarray, idx: np.ndarray) -> float:
    x = np.ones(16)
    for _ in range(120):
        x = np.tanh(_W @ x)
    table = {i: (i, str(i)) for i in range(1500)}
    kept = {p: v for p, v in pairs.items() if k not in p}
    scattered = big[(idx + k * 7919) % big.size]
    return float(x.sum()) + sum(v[0] for v in table.values()) + len(kept) + float(scattered.sum())


def run(tick: Callable[[], None]) -> None:
    """STEPS steps, calling tick before each. Its data is built here, not at import, so that
    it never counts in the peak memory of the work measured before it."""
    pairs = {(i, j): float(j - i) for i in range(_PAIR_IDS) for j in range(i + 1, _PAIR_IDS)}
    big = np.arange(1 << 23, dtype=np.float64)  # 64 MB
    idx = np.random.default_rng(0).integers(0, big.size, _SCATTERED_READS)
    for k in range(STEPS):
        tick()
        step(k % _PAIR_IDS, pairs, big, idx)
