"""The array touch graph against a brute-force reference.

``touch_pairs``/``touch_graph``/``components`` must find exactly the
pairs an O(n^2) closed-interval check finds, and the components a
union-find over those pairs finds, numbered by their lowest shape id.
The rectangle sets are seeded and mix edge- and corner-only contact,
zero-width shapes, straps that cross many buckets, negative
coordinates, empty layers and single shapes.
"""

import random

import numpy as np
import pytest

import repro.extract.geom as geom
from repro.extract.geom import (
    BUCKET,
    components,
    touch_graph,
    touch_pairs,
    touches,
)
from repro.extract.netlist import NET_LAYERS, RELATIONS


def brute_pairs(a, b=None):
    same = b is None
    b = a if same else b
    return sorted(
        (i, j)
        for i in range(len(a)) for j in range(len(b))
        if (not same or i < j) and touches(a[i], b[j])
    )


def union_find_nets(n, edges):
    """Net of every node, numbered in the order of its lowest node."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra
    net_of_root, nets = {}, []
    for node in range(n):
        nets.append(net_of_root.setdefault(find(node), len(net_of_root)))
    return len(net_of_root), nets


def random_rects(rng, count, origin=0, span=6 * BUCKET):
    """Seeded rects: boxes, wires, zero-width shapes, straps across many
    buckets, and neighbours that touch only at an edge or a corner."""
    rects = []
    while len(rects) < count:
        x0 = origin + rng.randrange(span)
        y0 = origin + rng.randrange(span)
        kind = rng.random()
        if kind < 0.1:  # zero width or zero height
            side = rng.randrange(1, 900)
            w, h = (0, side) if rng.random() < 0.5 else (side, 0)
        elif kind < 0.15:  # a 113 um strap
            w, h = (113_000, 2) if rng.random() < 0.5 else (2, 113_000)
        else:
            w, h = rng.randrange(1, 900), rng.randrange(1, 900)
        rect = (x0, y0, x0 + w, y0 + h)
        rects.append(rect)
        if rng.random() < 0.3 and len(rects) < count:
            # A neighbour on the right edge, or on the top-right corner.
            if rng.random() < 0.5:
                rects.append((rect[2], y0, rect[2] + 40, rect[3]))
            else:
                rects.append((rect[2], rect[3],
                              rect[2] + 40, rect[3] + 40))
    return rects


def as_array(rects):
    return np.array(rects, dtype=np.int64).reshape(-1, 4)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_within_one_set(seed):
    rng = random.Random(seed)
    rects = random_rects(rng, rng.randrange(0, 160),
                         origin=rng.choice((0, -3 * BUCKET, -10**6)))
    i, j, candidates = touch_pairs(as_array(rects))
    found = sorted(zip(i.tolist(), j.tolist()))
    assert found == brute_pairs(rects)
    assert candidates >= len(found)


@pytest.mark.parametrize("seed", SEEDS)
def test_pairs_between_two_sets(seed):
    rng = random.Random(100 + seed)
    a = random_rects(rng, rng.randrange(0, 120), origin=-2 * BUCKET)
    b = random_rects(rng, rng.randrange(0, 120), origin=-2 * BUCKET)
    i, j, _ = touch_pairs(as_array(a), as_array(b))
    assert sorted(zip(i.tolist(), j.tolist())) == brute_pairs(a, b)


@pytest.mark.parametrize("chunk", (1, 7, 64))
def test_chunking_does_not_change_the_pairs(monkeypatch, chunk):
    rng = random.Random(chunk)
    rects = random_rects(rng, 150, span=2 * BUCKET)
    expected = brute_pairs(rects)
    monkeypatch.setattr(geom, "CHUNK", chunk)
    i, j, candidates = touch_pairs(as_array(rects))
    assert candidates > 4 * chunk  # several chunks were evaluated
    assert sorted(zip(i.tolist(), j.tolist())) == expected


def test_contact_only_at_an_edge_or_a_corner():
    rects = [
        (0, 0, 10, 10),
        (10, 0, 20, 10),     # shares the edge x = 10
        (20, 10, 30, 20),    # shares only the corner (20, 10)
        (31, 0, 40, 10),     # 1 nm gap: apart
        (40, 10, 40, 10),    # a point on the corner of the previous one
    ]
    i, j, _ = touch_pairs(as_array(rects))
    assert sorted(zip(i.tolist(), j.tolist())) == [(0, 1), (1, 2), (3, 4)]


def test_contact_on_a_bucket_boundary():
    # Corner contact exactly on a bucket corner, and at negative ones.
    for corner in (BUCKET, 0, -BUCKET, -7 * BUCKET):
        rects = [(corner - 5, corner - 5, corner, corner),
                 (corner, corner, corner + 5, corner + 5)]
        i, j, _ = touch_pairs(as_array(rects))
        assert list(zip(i.tolist(), j.tolist())) == [(0, 1)]


def test_straps_across_many_buckets_pair_once():
    strap = (-50_000, 0, 63_000, 2)  # 113 um of met1
    other = (-50_000, -3, 63_000, 5)  # overlaps it along its whole length
    crossings = [(x, -100, x + 2, 100) for x in range(-50_000, 63_000, 997)]
    rects = [strap, other] + crossings
    i, j, _ = touch_pairs(as_array(rects))
    found = list(zip(i.tolist(), j.tolist()))
    assert len(found) == len(set(found))
    assert sorted(found) == brute_pairs(rects)


def test_empty_and_single_sets():
    empty = as_array([])
    one = as_array([(0, 0, 5, 5)])
    for a, b in ((empty, None), (one, None), (empty, one), (one, empty)):
        i, j, _ = touch_pairs(a, b)
        assert len(i) == len(j) == 0
    i, j, _ = touch_pairs(one, one)  # two sets: a shape meets its copy
    assert (i.tolist(), j.tolist()) == ([0], [0])
    no_edges = np.empty(0, dtype=np.int64)
    assert components(0, no_edges, no_edges)[0] == 0
    count, labels = components(1, no_edges, no_edges)
    assert (count, labels.tolist()) == (1, [0])


def random_layers(rng, id_order):
    """``{layer: (ids, rects)}`` over :data:`NET_LAYERS`, some empty,
    with shape ids shuffled across layers."""
    layers, next_id = {}, 0
    for name in NET_LAYERS:
        count = 0 if rng.random() < 0.15 else rng.randrange(1, 60)
        rects = random_rects(rng, count, origin=-BUCKET, span=3 * BUCKET)
        ids = [id_order[next_id + k] for k in range(len(rects))]
        next_id += len(rects)
        layers[name] = (np.array(ids, dtype=np.int64), as_array(rects))
    return layers, next_id


@pytest.mark.parametrize("seed", SEEDS)
def test_graph_components_match_union_find(seed):
    rng = random.Random(200 + seed)
    id_order = list(range(400))
    rng.shuffle(id_order)
    layers, n = random_layers(rng, id_order)
    ids = sorted(int(i) for ids, _ in layers.values() for i in ids)
    remap = {old: new for new, old in enumerate(ids)}
    layers = {
        name: (np.array([remap[i] for i in lids.tolist()], dtype=np.int64),
               rects)
        for name, (lids, rects) in layers.items()
    }
    expected_edges = []
    for layer_a, layer_b in RELATIONS:
        ids_a, rects_a = layers[layer_a]
        ids_b, rects_b = layers[layer_b]
        a = [tuple(r) for r in rects_a.tolist()]
        b = [tuple(r) for r in rects_b.tolist()]
        pairs = brute_pairs(a) if layer_a == layer_b else brute_pairs(a, b)
        expected_edges += [
            (int(ids_a[i]), int(ids_b[j])) for i, j in pairs
        ]

    first, second, _ = touch_graph(layers, RELATIONS)
    assert sorted(zip(first.tolist(), second.tolist())) == sorted(
        expected_edges
    )
    count, labels = components(n, first, second)
    assert (count, labels.tolist()) == union_find_nets(n, expected_edges)


def test_cuts_touching_only_each_other_stay_apart():
    lic = as_array([(0, 0, 10, 10), (10, 0, 20, 10)])  # abutting cuts
    via1 = as_array([(100, 0, 110, 10)])
    met1 = as_array([(100, 0, 200, 10)])
    met2 = as_array([(105, -50, 108, 50)])
    layers = {
        "li": (np.empty(0, np.int64), as_array([])),
        "lic": (np.array([0, 1]), lic),
        "met1": (np.array([2]), met1),
        "via1": (np.array([3]), via1),
        "met2": (np.array([4]), met2),
    }
    first, second, _ = touch_graph(layers, RELATIONS)
    count, labels = components(5, first, second)
    # The two cuts are two nets; via1 joins met1 and met2 into a third.
    assert count == 3
    assert labels.tolist() == [0, 1, 2, 2, 2]
