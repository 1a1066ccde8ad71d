import copy
import json
import random
from collections import deque
from fractions import Fraction

import numpy as np
import pytest

from mconvex.errors import InvariantViolated, OutOfRange, TooLarge
from mconvex.laakso import LaaksoGraph, build_laakso, doubling_check
from mconvex.metric import _checked_matrix, verify_metric


def test_small_graphs_shape():
    G1 = build_laakso(1)
    # G_1: the four-edge diamond with stubs, 6 vertices, diameter 4 hops
    assert len(G1.vertices) == 6
    assert G1.level[G1.root] == 0
    assert G1.level[G1.sink] == 4
    G2 = build_laakso(2)
    assert max(G2.level.values()) == 16
    # every non-sink vertex has 1 or 2 out-neighbors
    for v in G2.vertices:
        if v != G2.sink:
            assert len(G2.out_neighbors(v)) in (1, 2)
        else:
            assert G2.out_neighbors(v) == []


def test_size_guard():
    with pytest.raises(TooLarge):
        build_laakso(7)
    for m in (-1, -5):
        with pytest.raises(OutOfRange):
            build_laakso(m)
    assert len(build_laakso(0).vertices) == 2


def test_hop_distance_is_metric():
    G = build_laakso(2)
    rep = verify_metric(G.as_metric_space())
    assert rep.is_metric


def test_hop_matrix_equals_the_hookless_route():
    # the scaled_matrix hook gives 4^m times the distances: the matrix that
    # _checked_matrix scales from distance_matrix() without it, and the same
    # verify_metric report
    for m in range(4):
        space = build_laakso(m).as_metric_space()
        plain = copy.copy(space)
        plain._scaled_matrix = None
        (mat, tol), (slow, slow_tol) = _checked_matrix(space), _checked_matrix(plain)
        assert mat.dtype == slow.dtype == np.int64 and tol == slow_tol == 0
        assert np.array_equal(mat, slow)
        assert mat.tolist() == [[4 ** m * d for d in row] for row in space.distance_matrix()]
        a, b = verify_metric(space), verify_metric(plain)
        assert (a.violations, a.mode, a.triples_checked) == \
            (b.violations, b.mode, b.triples_checked) == ([], "exhaustive", len(space) ** 3)


def test_distance_scaling():
    # G_m distances are hop counts; endpoints are 4^m apart
    for m in (1, 2):
        G = build_laakso(m)
        assert G.hop_distance(G.root, G.sink) == 4 ** m
        assert G.distance(G.root, G.sink) == Fraction(1)


def bfs_hops(G, source):
    """Hop distances from source by breadth-first search over the edge list."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        a = queue.popleft()
        for b in G.adjacency[a]:
            if b not in dist:
                dist[b] = dist[a] + 1
                queue.append(b)
    return dist


@pytest.mark.parametrize("m,stride", [(0, 1), (1, 1), (2, 1), (3, 1), (4, 7)])
def test_hop_distance_matches_bfs(m, stride):
    # every ordered pair for m <= 3; every 7th source to all targets at m = 4
    G = build_laakso(m)
    mismatches = []
    for u in G.vertices[::stride]:
        hops = bfs_hops(G, u)
        for v in G.vertices:
            d = G.hop_distance(u, v)
            if type(d) is not int or d != hops[v]:
                mismatches.append((u, v, d, hops[v]))
    assert mismatches == []


def test_corrupted_edge_list_raises_invariant_violated():
    G = build_laakso(2)
    # an edge inside copy 3 replaced by one between the two vertices on level 2
    edges = list(G.edges)
    edges[20] = ((0, "v1"), (0, "v2"))
    with pytest.raises(InvariantViolated, match="joins levels 2 and 2"):
        LaaksoGraph(2, edges, G.root, G.sink)
    with pytest.raises(InvariantViolated, match="6\\^m edges"):
        LaaksoGraph(2, G.edges[:-1], G.root, G.sink)
    with pytest.raises(InvariantViolated, match="root"):
        LaaksoGraph(2, G.edges[1:] + [((0, "v1"), (0, "v2"))], G.root, G.sink)
    # two ids swapped: the edges still form G_2, but the ids no longer give
    # the levels that hop_distance reads off them
    swap = {(0, "w"): (1, "u"), (1, "u"): (0, "w")}
    edges = [(swap.get(a, a), swap.get(b, b)) for a, b in G.edges]
    with pytest.raises(InvariantViolated, match="its id says"):
        LaaksoGraph(2, edges, G.root, G.sink)


def test_level_respects_edges():
    G = build_laakso(2)
    for u, v in G.directed_edges():
        assert G.level[v] == G.level[u] + 1
        assert G.hop_distance(u, v) == 1


def test_orient_is_topological_edge_list():
    G = build_laakso(2)
    edges = G.directed_edges()
    # the undirected edges, each oriented away from the root
    assert len(edges) == len(G.edges)
    assert set(map(frozenset, edges)) == set(map(frozenset, G.edges))
    assert all(G.level[u] < G.level[v] for u, v in edges)
    # sorted by source level, so prefixes never reference later levels
    levels = [G.level[u] for u, _ in edges]
    assert levels == sorted(levels)


def test_doubling_check():
    G = build_laakso(2)
    rng = random.Random(0)
    samples = [(rng.choice(G.vertices), Fraction(rng.randint(1, 16), 16))
               for _ in range(50)]
    worst = doubling_check(G, samples)
    # greedy covering over-counts the optimal cover, but stays bounded
    assert 1 <= worst <= 16


def test_to_json_stable():
    G = build_laakso(1)
    data = json.loads(G.to_json())
    assert data["m"] == 1
    assert len(data["vertices"]) == 6
    assert G.to_json() == build_laakso(1).to_json()
