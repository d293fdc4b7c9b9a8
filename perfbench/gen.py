"""Seeded input generators owned by the benchmark.

Everything here uses numpy alone -- never ``repro.arrays.dataset`` or
``repro.olap.workload`` -- so a change to the program cannot change the
traffic it is measured with.  The same seed gives the same facts, query
streams and delta batches.
"""

from __future__ import annotations

import math

import numpy as np


def sparse_facts(rng: np.random.Generator, shape, density: float):
    """Distinct random cells at ``density``, in row-major cell order (a
    fact table clustered on its key).

    Returns ``(coords, values)``: an ``(nnz, ndim)`` int64 array and
    float64 values in ``[1, 100)``.  Values are real-valued on purpose:
    sums then depend on addition order, which the oracle's tolerance and
    the byte-identity checks are written for.
    """
    size = math.prod(shape)
    nnz = int(round(size * density))
    flat = np.sort(rng.choice(size, size=nnz, replace=False))
    coords = np.stack(np.unravel_index(flat, shape), axis=1).astype(np.int64)
    values = rng.uniform(1.0, 100.0, size=nnz)
    return coords, values


def delta_batch(rng: np.random.Generator, shape, facts: int):
    """``facts`` new facts at uniform random cells (repeats are summed)."""
    coords = np.stack(
        [rng.integers(0, s, size=facts) for s in shape], axis=1
    ).astype(np.int64)
    values = rng.uniform(1.0, 100.0, size=facts)
    return coords, values


class QueryStream:
    """Zipf-distributed group-by queries over a fixed template universe.

    A template mentions between 1 and ``n - 1`` dimensions; each mentioned
    dimension is grouped, point-filtered or range-filtered.  No template
    mentions every dimension, so every query is answerable from a
    materialized view (queries that need the base array are a later
    workload's concern).  Template ``k`` (0-based popularity rank) is drawn
    with probability proportional to ``(k + 1) ** -exponent``.

    Templates are ``(group_by, where)`` pairs over dimension indices; the
    workload turns them into the program's query objects.
    """

    def __init__(self, rng: np.random.Generator, shape, universe: int,
                 exponent: float = 1.3):
        self.shape = tuple(shape)
        self.rng = rng
        self.templates = self._templates(universe)
        weights = np.arange(1, len(self.templates) + 1, dtype=np.float64) ** -exponent
        self._cdf = np.cumsum(weights / weights.sum())

    def _templates(self, universe: int):
        n = len(self.shape)
        seen = set()
        out = []
        # Small shapes cannot supply `universe` distinct templates; stop
        # after a bounded number of draws rather than loop forever.
        for _ in range(universe * 20):
            if len(out) == universe:
                break
            m = int(self.rng.integers(1, n))
            dims = sorted(int(d) for d in self.rng.choice(n, size=m, replace=False))
            group, where = [], {}
            for d in dims:
                role = self.rng.random()
                size = self.shape[d]
                if role < 0.5:
                    group.append(d)
                elif role < 0.8 or size < 3:
                    where[d] = int(self.rng.integers(0, size))
                else:
                    # A proper range of width >= 2 (never the no-op full
                    # range, never a width-1 range that folds to a point).
                    lo = int(self.rng.integers(0, size - 2))
                    hi = int(self.rng.integers(lo + 2, size + (1 if lo else 0)))
                    if self.rng.random() < 0.5:
                        group.append(d)
                    where[d] = (lo, hi)
            key = (tuple(group), tuple(sorted(where.items())))
            if key not in seen:
                seen.add(key)
                out.append(key)
        return out

    def draw(self, count: int) -> np.ndarray:
        """Template indices for the next ``count`` queries."""
        u = self.rng.random(count)
        return np.minimum(np.searchsorted(self._cdf, u), len(self.templates) - 1)
