"""Recursive construction of Laakso graphs G_m and their shortest-path metric.

G_0 is a single unit edge.  G_m glues six copies of G_{m-1}, each scaled by
1/4: a pendant copy from the root to a junction u, two parallel two-copy
branches u -> v1 -> w and u -> v2 -> w, and a pendant copy from w to the sink.
All 6^m edges have length 4^{-m}; every root-to-sink directed path has exactly
4^m edges, so the diameter is 1.
"""
from __future__ import annotations

import json
from collections import deque
from fractions import Fraction

from .errors import TooLarge

BUILD_LIMIT = 6


def _vkey(v):
    """Sort key for vertex ids (tuples mixing ints and junction-name strings)."""
    return (len(v), tuple((isinstance(p, str), str(p)) for p in v))

# roles of the six copies: (copy index) -> (what its root / sink glue to).
# Fresh junction labels are introduced per recursion level.
_JUNCTION_GLUE = {
    0: (None, "u"),      # root pendant: keeps its root, sink becomes u
    1: ("u", "v1"),
    2: ("v1", "w"),
    3: ("u", "v2"),
    4: ("v2", "w"),
    5: ("w", None),      # sink pendant: root becomes w, keeps its sink
}


def _build_edges(m):
    """Recursive gluing; returns (edges, root, sink) with tuple vertex ids."""
    if m == 0:
        return [(("r",), ("s",))], ("r",), ("s",)
    sub_edges, sub_root, sub_sink = _build_edges(m - 1)
    junction = {name: (name,) for name in ("u", "v1", "v2", "w")}

    def embed(c, v):
        glue_root, glue_sink = _JUNCTION_GLUE[c]
        if v == sub_root and glue_root is not None:
            return junction[glue_root]
        if v == sub_sink and glue_sink is not None:
            return junction[glue_sink]
        return (c,) + v

    edges = []
    for c in range(6):
        for a, b in sub_edges:
            edges.append((embed(c, a), embed(c, b)))
    return edges, (0,) + sub_root, (5,) + sub_sink


class LaaksoGraph:
    """Level-m Laakso graph with exact edge length 4^{-m}."""

    def __init__(self, m, edges, root, sink):
        self.m = m
        self.edges = edges
        self.root = root
        self.sink = sink
        self.edge_length = Fraction(1, 4 ** m)
        adj = {}
        for a, b in edges:
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
        self.adjacency = adj
        self.vertices = sorted(adj, key=_vkey)
        self.level = self._bfs_levels()
        self._dist_cache = {}
        self._check_invariants()

    def _bfs_levels(self):
        level = {self.root: 0}
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level

    def _check_invariants(self):
        assert len(self.edges) == 6 ** self.m
        assert len(self.adjacency[self.root]) == 1
        assert len(self.adjacency[self.sink]) == 1
        assert len(self.level) == len(self.vertices)
        top = 4 ** self.m
        for a, b in self.edges:
            # no edge joins two vertices equidistant from the root
            assert abs(self.level[a] - self.level[b]) == 1, (a, b)
        assert self.level[self.sink] == top
        for v in self.vertices:
            out = [w for w in self.adjacency[v] if self.level[w] == self.level[v] + 1]
            if v == self.sink:
                assert not out
            else:
                # every maximal directed path continues to the sink
                assert len(out) in (1, 2), v
        # only the sink sits at the top level, so all directed paths have 4^m edges
        assert [v for v in self.vertices if self.level[v] == top] == [self.sink]

    def hop_distance(self, u, v):
        """Unweighted hop distance (BFS, cached per source)."""
        if u not in self._dist_cache:
            dist = {u: 0}
            queue = deque([u])
            while queue:
                a = queue.popleft()
                for b in self.adjacency[a]:
                    if b not in dist:
                        dist[b] = dist[a] + 1
                        queue.append(b)
            self._dist_cache[u] = dist
        return self._dist_cache[u][v]

    def distance(self, u, v):
        """Shortest-path distance, an exact rational with denominator dividing 4^m."""
        return self.hop_distance(u, v) * self.edge_length

    def directed_edges(self):
        """Edges oriented away from the root (acyclic by the level structure)."""
        out = []
        for a, b in self.edges:
            if self.level[a] > self.level[b]:
                a, b = b, a
            out.append((a, b))
        return sorted(out, key=lambda e: (self.level[e[0]], _vkey(e[0]), _vkey(e[1])))

    def out_neighbors(self, v):
        return sorted((w for w in self.adjacency[v] if self.level[w] == self.level[v] + 1),
                      key=_vkey)

    def as_metric_space(self):
        from .metric import FiniteMetricSpace
        return FiniteMetricSpace(self.vertices, self.distance, exact=True)

    def vertex_label(self, v):
        return "/".join(str(part) for part in v)

    def to_json(self):
        lab = self.vertex_label
        return json.dumps({
            "m": self.m,
            "vertices": [lab(v) for v in self.vertices],
            "edges": sorted([sorted([lab(a), lab(b)]) for a, b in self.edges]),
            "root": lab(self.root),
            "sink": lab(self.sink),
        })

    def to_dot(self):
        lines = ["digraph laakso {", "  rankdir=LR;"]
        for a, b in self.directed_edges():
            lines.append(f'  "{self.vertex_label(a)}" -> "{self.vertex_label(b)}";')
        lines.append("}")
        return "\n".join(lines)


def build_laakso(m):
    if m > BUILD_LIMIT:
        raise TooLarge(f"m = {m} > {BUILD_LIMIT}")
    edges, root, sink = _build_edges(m)
    return LaaksoGraph(m, edges, root, sink)


def doubling_check(G, samples):
    """Greedy half-radius ball covers for sampled (center, radius) pairs.

    Returns the max greedy cover size seen.  Greedy covering upper-bounds the
    optimal cover, so this is an upper bound on (not a certificate of) the
    doubling number; callers should treat it as observational.
    """
    if G.m > 4:
        raise TooLarge("doubling_check supports m <= 4")
    worst = 0
    for center, r in samples:
        ball = [v for v in G.vertices if G.distance(center, v) <= r]
        half = r / 2
        uncovered = set(ball)
        count = 0
        while uncovered:
            # cover greedily from the lexicographically first uncovered point
            c = min(uncovered, key=_vkey)
            covered = {v for v in uncovered if G.distance(c, v) <= half}
            uncovered -= covered
            count += 1
        worst = max(worst, count)
    return worst
