"""Recursive construction of Laakso graphs G_m and their shortest-path metric.

G_0 is a single unit edge.  G_m glues six copies of G_{m-1}, each scaled by
1/4: a pendant copy from the root to a junction u, two parallel two-copy
branches u -> v1 -> w and u -> v2 -> w, and a pendant copy from w to the sink.
All 6^m edges have length 4^{-m}; every root-to-sink directed path has exactly
4^m edges, so the diameter is 1.

A vertex id is its copy-index path followed by a junction name, so hop
distances are read off the ids in O(m) (`LaaksoGraph.hop_distance`).
"""
from __future__ import annotations

import json
from collections import deque
from fractions import Fraction

from .errors import TooLarge, check

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

# the skeleton r - u - {v1, v2} - w - s that the six copies are the edges of:
# the skeleton node each copy starts / ends at, each node's level in units of
# one copy, and the skeleton distance between two nodes, in copies
_COPY_ENDS = [("r", "u"), ("u", "v1"), ("v1", "w"), ("u", "v2"), ("v2", "w"), ("w", "s")]
_SKELETON_LEVEL = {"r": 0, "u": 1, "v1": 2, "v2": 2, "w": 3, "s": 4}
_SKELETON_DIST = {(a, b): abs(_SKELETON_LEVEL[a] - _SKELETON_LEVEL[b])
                  for a in _SKELETON_LEVEL for b in _SKELETON_LEVEL}
_SKELETON_DIST["v1", "v2"] = _SKELETON_DIST["v2", "v1"] = 2


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
        self._pow4 = [4 ** i for i in range(m + 1)]
        self._dist_cache = {}  # always empty; bench/runner.py still reads its size
        self._check_invariants()

    def _bfs_levels(self):
        level = {self.root: 0}
        queue = deque([self.root])
        while queue:
            v = queue.popleft()
            for w in self.adjacency.get(v, ()):
                if w not in level:
                    level[w] = level[v] + 1
                    queue.append(w)
        return level

    def _check_invariants(self):
        check(len(self.edges) == 6 ** self.m, "G_m has 6^m edges")
        check(len(self.adjacency.get(self.root, ())) == 1, "the root has one neighbour")
        check(len(self.adjacency.get(self.sink, ())) == 1, "the sink has one neighbour")
        check(len(self.level) == len(self.vertices), "G_m is connected")
        top = 4 ** self.m
        for a, b in self.edges:
            # no edge joins two vertices equidistant from the root
            check(abs(self.level[a] - self.level[b]) == 1,
                  "edge %r-%r joins levels %d and %d", a, b, self.level[a], self.level[b])
        check(self.level[self.sink] == top, "the sink is 4^m hops from the root")
        for v in self.vertices:
            out = [w for w in self.adjacency[v] if self.level[w] == self.level[v] + 1]
            # every maximal directed path continues to the sink
            check(not out if v == self.sink else len(out) in (1, 2),
                  "%r has %d out-neighbours", v, len(out))
            # hop_distance reads levels off the ids
            label_level = self._label_level(v, 0)
            check(label_level == self.level[v], "%r is %d hops from the root, its id says %s",
                  v, self.level[v], label_level)
        # only the sink sits at the top level, so all directed paths have 4^m edges
        check([v for v in self.vertices if self.level[v] == top] == [self.sink],
              "only the sink is at the top level")

    def _label_level(self, v, i):
        """Hops from the root of the copy v[:i] to v: the level of v within
        that copy, a G_{m-i}, read off the id."""
        pow4 = self._pow4
        k = self.m - i
        level = 0
        for part in v[i:]:
            if isinstance(part, str):
                # a junction of the current G_k; at k = 0, "r" is 0 and "s" 1
                return level + _SKELETON_LEVEL[part] * pow4[k] // 4
            k -= 1
            level += _SKELETON_LEVEL[_COPY_ENDS[part][0]] * pow4[k]

    def hop_distance(self, u, v):
        """Unweighted hop distance, read off the vertex ids in O(m).

        Below the longest common copy path, u and v lie in one G_k.  If k = 0
        they are its two ends.  Otherwise each is a junction of G_k or lies
        in one of its six copies, which meets the rest only at its two ends;
        the distance is the shortest way through those ends and the skeleton.
        """
        if u == v:
            return 0
        i = 0
        while u[i] == v[i]:
            i += 1
        k = self.m - i
        if k == 0:
            return 1
        copy_len = self._pow4[k - 1]
        return min(da + _SKELETON_DIST[a, b] * copy_len + db
                   for a, da in self._copy_ends(u, i, copy_len)
                   for b, db in self._copy_ends(v, i, copy_len))

    def _copy_ends(self, v, i, copy_len):
        """(skeleton node, hops from v) for the ends of v's copy in G_{m-i}."""
        part = v[i]
        if isinstance(part, str):
            return ((part, 0),)
        level = self._label_level(v, i + 1)
        start, end = _COPY_ENDS[part]
        return ((start, level), (end, copy_len - level))

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
