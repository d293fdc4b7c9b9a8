"""A numpy oracle for every group-by, and the checks built on it.

The oracle is computed from the generated facts alone (``np.bincount``,
then ``ndarray.sum`` down the lattice); it shares no code with the
program.  Aggregates are compared within ``REL_TOL`` of each
group-by's largest magnitude: builds add real-valued facts in a different
order than the oracle, so bit-equality with it is not expected.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np

#: Allowed error, relative to the largest magnitude in the group-by.
REL_TOL = 1e-9


def all_groupbys(n: int) -> list[tuple[int, ...]]:
    """Every proper subset of ``range(n)``: the cube's 2**n - 1 group-bys."""
    return [
        c for k in range(n - 1, -1, -1) for c in itertools.combinations(range(n), k)
    ]


def _from_parent(parent: tuple, pdata: np.ndarray, node: tuple) -> np.ndarray:
    drop = tuple(i for i, d in enumerate(parent) if d not in node)
    return np.array(pdata.sum(axis=drop), order="C")


def _fill_lower(shape, out: dict) -> dict:
    """Derive each remaining group-by from its smallest computed parent."""
    n = len(shape)
    for node in all_groupbys(n):
        if node in out:
            continue
        parents = [p for p in out if len(p) == len(node) + 1 and set(node) <= set(p)]
        parent = min(parents, key=lambda p: math.prod(shape[d] for d in p))
        out[node] = _from_parent(parent, out[parent], node)
    return out


def oracle_from_facts(shape, coords: np.ndarray, values: np.ndarray) -> dict:
    """All group-bys of a fact list, keyed by node (sorted dimension tuple)."""
    n = len(shape)
    out = {}
    for node in itertools.combinations(range(n), n - 1):
        dims = tuple(shape[d] for d in node)
        idx = np.ravel_multi_index(tuple(coords[:, d] for d in node), dims)
        out[node] = np.bincount(
            idx, weights=values, minlength=math.prod(dims)
        ).reshape(dims)
    return _fill_lower(shape, out)


def add_facts(oracle: dict, shape, coords: np.ndarray, values: np.ndarray) -> None:
    """Absorb new facts into the oracle mirror, in place."""
    for node, arr in oracle.items():
        if not node:
            oracle[node] = arr + values.sum()
            continue
        dims = tuple(shape[d] for d in node)
        idx = np.ravel_multi_index(tuple(coords[:, d] for d in node), dims)
        np.add.at(arr.reshape(-1), idx, values)


def close(got, want) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = float(np.abs(want).max()) if want.size else 0.0
    return bool(np.allclose(got, want, rtol=0.0, atol=REL_TOL * max(scale, 1.0)))


def mismatched_groupbys(results: dict, oracle: dict) -> list:
    """Group-bys whose aggregate is missing or outside the tolerance."""
    bad = []
    for node, want in oracle.items():
        arr = results.get(node)
        if arr is None or not close(arr.data, want):
            bad.append(node)
    return bad


def digest(results: dict) -> str:
    """sha256 over every aggregate's bytes, in node order."""
    h = hashlib.sha256()
    for node in sorted(results):
        h.update(repr(node).encode())
        h.update(np.ascontiguousarray(results[node].data).tobytes())
    return h.hexdigest()


def answer(oracle: dict, group: tuple, where: dict):
    """The oracle's answer to a query template over dimension indices.

    Values come back over the kept group-by dimensions in ascending order;
    a point filter collapses its axis whether or not it is grouped.
    """
    mentioned = tuple(sorted(set(group) | set(where)))
    data = oracle[mentioned]
    index, sum_axes, kept = [], [], 0
    for d in mentioned:
        w = where.get(d)
        if isinstance(w, int):
            index.append(w)
            continue
        index.append(slice(*w) if w is not None else slice(None))
        if d not in group:
            sum_axes.append(kept)
        kept += 1
    out = data[tuple(index)]
    if sum_axes:
        out = out.sum(axis=tuple(sum_axes))
    return out
