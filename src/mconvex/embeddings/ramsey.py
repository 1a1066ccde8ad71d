"""Monochromatic level-preserving binary subtrees of colored k-ary trees.

T_{k,m} is the complete k-ary tree of depth m.  Given a coloring of its
ancestor-descendant pairs, a level-preserving copy of B_m is one whose vertex
at level i sits at level i of T_{k,m} and whose two children of any copy
vertex descend through distinct children.  The copy is "level-monochromatic"
when the pair color depends only on the two levels.  With r colors and
k >= r^((m+1)^2) such a copy always exists; the backtracking search below
works for any k and reports exhaustion honestly otherwise.
"""
from __future__ import annotations

from ..errors import TooLarge
from ..trees import enumerate_bn

MAX_M = 2
MAX_K = 16
MAX_R = 3


def tkm_vertices(k, m):
    """All vertices of T_{k,m} as tuples over range(k), by level."""
    out = [()]
    frontier = [()]
    for _ in range(m):
        frontier = [v + (c,) for v in frontier for c in range(k)]
        out.extend(frontier)
    return out


class ExhaustionReport:
    """Search failed; records how many candidate placements were tried."""

    def __init__(self, nodes_explored):
        self.nodes_explored = nodes_explored

    def __repr__(self):
        return f"ExhaustionReport(nodes_explored={self.nodes_explored})"


def ramsey_search(k, m, r, coloring):
    """Find a level-monochromatic level-preserving copy of B_m in T_{k,m}.

    `coloring(anc, desc)` gives the color (any hashable value) of an
    ancestor-descendant pair of T_{k,m} tuples; `r` is the declared number of
    colors and only sizes the guard.  Returns a dict TreeVertex(B_m) ->
    tuple(T_{k,m}), or an ExhaustionReport when no copy exists.
    """
    if m > MAX_M or k > MAX_K or r > MAX_R:
        raise TooLarge(f"guard: m <= {MAX_M}, k <= {MAX_K}, r <= {MAX_R}")
    order = enumerate_bn(m)  # BFS: parents precede children, 0-child first
    assignment = {}          # TreeVertex -> k-ary tuple
    level_color = {}         # (i, j) -> color, grows as pairs are committed
    explored = 0

    def candidates(v):
        parent = assignment[v.parent()]
        if v.path[-1] == 0:
            opts = range(k)
        else:
            # the two children must descend through distinct branches; by
            # subtree-swap symmetry the 1-child may take the larger index
            opts = range(assignment[v.sibling()][len(parent)] + 1, k)
        return [parent + (c,) for c in opts]

    def try_colors(v, node):
        """Commit colors of the new pairs (level-i ancestor, node); returns the
        list of newly set (i, j) keys, or None on a clash (nothing committed)."""
        j = v.depth
        added = []
        for i in range(j):
            col = coloring(assignment[v.ancestor(i)], node)
            key = (i, j)
            if key in level_color:
                if level_color[key] != col:
                    for kk in added:
                        del level_color[kk]
                    return None
            else:
                level_color[key] = col
                added.append(key)
        return added

    def extend(idx):
        nonlocal explored
        if idx == len(order):
            return True
        v = order[idx]
        if v.depth == 0:
            assignment[v] = ()
            return extend(idx + 1)
        for node in candidates(v):
            explored += 1
            added = try_colors(v, node)
            if added is None:
                continue
            assignment[v] = node
            if extend(idx + 1):
                return True
            del assignment[v]
            for key in added:
                del level_color[key]
        return False

    if extend(0):
        return dict(assignment)
    return ExhaustionReport(explored)
