"""Geometric primitives for netlist extraction.

Everything operates on axis-aligned integer rectangles in database units
(nm), as ``(x0, y0, x1, y1)`` with ``x0 <= x1``, ``y0 <= y1``.  Touch is
the **closed-interval** test: rectangles sharing only an edge or corner
count as connected — the same convention the fabric generator
(:mod:`repro.layout.fabric`) uses when it guarantees foreign nets stay
>= 2 nm apart.

The touch graph runs on ``(n, 4)`` int64 arrays: :func:`touch_pairs`
finds the touching pairs between two rectangle sets through a sorted
bucket grid, :func:`touch_graph` collects them over a set of layer
relations, and :func:`components` labels the connected components of
the resulting edges.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable, Mapping

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

Rect = tuple[int, int, int, int]

#: Bucket edge of the touch grid in database units.
BUCKET = 4096
#: Candidate pairs evaluated per chunk; bounds the working set.
CHUNK = 1 << 16
#: Bucket coordinates are offset into ``[0, 2**21)`` to pack one key;
#: 32-bit GDSII coordinates span ``[-2**19, 2**19)`` buckets.
_KEY_BIAS = 1 << 20


def touches(a: Rect, b: Rect) -> bool:
    """Closed-interval intersection (edge/corner contact connects)."""
    return (
        a[0] <= b[2] and b[0] <= a[2] and a[1] <= b[3] and b[1] <= a[3]
    )


def _bucket_entries(rects: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(rect index, bucket key)`` for every bucket each rect overlaps."""
    low = rects[:, :2] // BUCKET
    high = rects[:, 2:] // BUCKET
    ny = high[:, 1] - low[:, 1] + 1
    counts = (high[:, 0] - low[:, 0] + 1) * ny
    owner = np.repeat(np.arange(len(rects)), counts)
    step = np.arange(len(owner)) - np.repeat(
        np.cumsum(counts) - counts, counts
    )
    ny = ny[owner]
    bx = low[owner, 0] + step // ny
    by = low[owner, 1] + step % ny
    return owner, ((bx + _KEY_BIAS) << 21) | (by + _KEY_BIAS)


def touch_pairs(
    a: np.ndarray, b: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(i, j, candidates)``: every touching pair ``a[i]``, ``b[j]``.

    With ``b`` omitted the pairs are within ``a`` and ``i < j``.  Each
    rect goes into every :data:`BUCKET` it overlaps; a pair is a
    candidate for every bucket the two share, and it is kept only in the
    bucket holding the lower-left corner of their overlap, so every
    touching pair comes out once.  ``candidates`` counts the bucket
    co-occurrences tested.  Candidates are tested in chunks of about
    :data:`CHUNK`, one coordinate column at a time.
    """
    same = b is None
    if same:
        b = a
    if not len(a) or not len(b):
        empty = np.empty(0, dtype=np.int64)
        return empty, empty, 0
    b_owner, b_key = _bucket_entries(b)
    order = np.argsort(b_key, kind="stable")
    b_owner, b_key = b_owner[order], b_key[order]
    a_owner, a_key = _bucket_entries(a)
    lo = np.searchsorted(b_key, a_key, "left")
    counts = np.searchsorted(b_key, a_key, "right") - lo
    ends = np.cumsum(counts)

    ax0, ay0, ax1, ay1 = (np.ascontiguousarray(c) for c in a.T)
    bx0, by0, bx1, by1 = (np.ascontiguousarray(c) for c in b.T)
    first_parts: list[np.ndarray] = []
    second_parts: list[np.ndarray] = []
    start = 0
    while start < len(counts):
        done = int(ends[start - 1]) if start else 0
        stop = max(
            int(np.searchsorted(ends, done + CHUNK, "right")), start + 1
        )
        count = counts[start:stop]
        i = np.repeat(a_owner[start:stop], count)
        within = np.arange(len(i)) - np.repeat(
            np.cumsum(count) - count, count
        )
        j = b_owner[np.repeat(lo[start:stop], count) + within]
        key = np.repeat(a_key[start:stop], count)
        keep = (
            (ax0[i] <= bx1[j]) & (bx0[j] <= ax1[i])
            & (ay0[i] <= by1[j]) & (by0[j] <= ay1[i])
        )
        if same:
            keep &= i < j
        i, j, key = i[keep], j[keep], key[keep]
        corner_x = np.maximum(ax0[i], bx0[j]) // BUCKET + _KEY_BIAS
        corner_y = np.maximum(ay0[i], by0[j]) // BUCKET + _KEY_BIAS
        keep = ((corner_x << 21) | corner_y) == key
        first_parts.append(i[keep])
        second_parts.append(j[keep])
        start = stop
    return (
        np.concatenate(first_parts), np.concatenate(second_parts),
        int(ends[-1]),
    )


def touch_graph(
    layers: Mapping[Hashable, tuple[np.ndarray, np.ndarray]],
    relations: Iterable[tuple[Hashable, Hashable]],
) -> tuple[np.ndarray, np.ndarray, int]:
    """``(first, second, candidates)``: the shape-id edges of the touch
    graph.

    ``layers`` maps each layer to ``(shape ids, (n, 4) rects)``.  A
    relation ``(a, b)`` joins every touching shape of layer ``a`` to one
    of layer ``b``; ``(a, a)`` is contact within layer ``a``.
    """
    firsts = [np.empty(0, dtype=np.int64)]
    seconds = [np.empty(0, dtype=np.int64)]
    candidates = 0
    for layer_a, layer_b in relations:
        ids_a, rects_a = layers[layer_a]
        ids_b, rects_b = layers[layer_b]
        i, j, tested = touch_pairs(
            rects_a, None if layer_a == layer_b else rects_b
        )
        firsts.append(ids_a[i])
        seconds.append(ids_b[j])
        candidates += tested
    return np.concatenate(firsts), np.concatenate(seconds), candidates


def components(
    n: int, first: np.ndarray, second: np.ndarray
) -> tuple[int, np.ndarray]:
    """``(count, label)`` of the connected components of ``n`` nodes
    joined by the edges ``first[k]``–``second[k]``; components are
    numbered in the order of their lowest node."""
    if not n:
        return 0, np.empty(0, dtype=np.int64)
    graph = coo_matrix(
        (np.ones(len(first), dtype=bool), (first, second)), shape=(n, n)
    )
    count, labels = connected_components(graph, directed=False)
    _, lowest = np.unique(labels, return_index=True)
    rank = np.empty(count, dtype=np.int64)
    rank[np.argsort(lowest)] = np.arange(count)
    return count, rank[labels]
