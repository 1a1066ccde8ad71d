"""Toy end-to-end pipeline extracting a vertically faithful subtree copy.

Given a low-distortion map f of B_n into a metric space, the pipeline finds a
small subtree copy phi: B_t -> B_n with ancestor relations preserved,
dist(phi) <= 1 + xi as tree maps, and f o phi (1 + delta)-vertically faithful:

  1. spread g: T_{2^k, m} -> B_n (children pushed to all-zeros descendants of
     distinct depth-k descendants, with depth step l*k, l = ceil(2/xi));
  2. color ancestor pairs of T_{2^k, m} by the rounded log of their stretch
     under f o g, with base 1 + delta/4;
  3. extract a level-monochromatic copy of B_m (Ramsey step), so that along
     the copy the stretch depends only on the pair of levels;
  4. boost the root-to-leaf path of the copy to a single good scale;
  5. assemble phi down the copy at that scale and verify all three guarantees
     directly.

Every stage failure raises PipelineFailed naming the stage.  This is a toy:
the Ramsey step is guarded to m <= 2, so the guaranteed-success regime
(2^k >= r^((m+1)^2)) is far out of reach and honest failures are expected for
maps with widely varying ancestor stretch.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from ..errors import BoostFailed, CollapsedAncestorPair, OutOfRange, PipelineFailed, TooLarge
from ..metric import distortion_of, to_float
from ..trees import TreeVertex, enumerate_bn, sp_pairs, tree_distance
from .paths import PathMap, path_boost
from .ramsey import ExhaustionReport, ramsey_search
from .vertical import vertical_report


class ExtractResult:
    def __init__(self, phi, t, params, report, boost):
        self.phi = phi          # dict TreeVertex(B_t) -> TreeVertex(B_n)
        self.t = t
        self.params = params    # {l, k, m, r}
        self.report = report    # vertical report of f o phi
        self.boost = boost      # the BoostResult of the path stage

    def __repr__(self):
        return f"ExtractResult(t={self.t}, params={self.params}, D={float(self.report.D):.4f})"


def _spread_map(k, m, l, n):
    """g: T_{2^k, m} -> B_n, top-down with depth step l*k per level."""
    if m * l * k > n:
        raise PipelineFailed("depth", f"need depth {m * l * k} > n = {n}")
    g = {(): TreeVertex(())}
    frontier = [()]
    for _ in range(m):
        nxt = []
        for u in frontier:
            base = g[u]
            for c in range(2 ** k):
                bits = tuple((c >> (k - 1 - i)) & 1 for i in range(k))
                child = base.descend(bits).descend_zeros(l * k - k)
                g[u + (c,)] = child
                nxt.append(u + (c,))
        frontier = nxt
    return g


def extract_vertically_faithful(f, n, target, t, delta, xi, k=1):
    """Run the pipeline for f: B_n -> target (a callable on TreeVertex).

    Returns an ExtractResult or raises PipelineFailed(stage); raises
    OutOfRange for xi <= 0, for delta < 0, and where 1 + delta/4, the base
    of the coloring's logarithms, is not above 1 as a float.
    """
    if not xi > 0 or delta < 0:
        raise OutOfRange(f"need xi > 0 and delta >= 0, got xi = {xi}, delta = {delta}")
    base = 1 + to_float(delta, "delta") / 4
    if not base > 1:
        raise OutOfRange(f"1 + delta/4 is not above 1 as a float, for delta = {delta}")
    l = math.ceil(2 / xi)
    m = min(n // (l * k), 2)       # Ramsey guard caps the copy depth at 2
    if m < 1:
        raise PipelineFailed("depth", f"n = {n} too small for l*k = {l * k}")
    if t > m:
        raise PipelineFailed("depth", f"boost target t = {t} exceeds copy depth m = {m}")

    # stage 1: spread
    g = _spread_map(k, m, l, n)

    # stage 2: stretch statistics and coloring
    try:
        stretch = vertical_report(f, [(g[v[:i]], g[v]) for v in g for i in range(len(v))],
                                  target)
    except CollapsedAncestorPair as e:
        raise PipelineFailed("vertical", str(e))
    lam = float(stretch.lam)
    r_colors = max(1, math.ceil(math.log(float(stretch.D)) / math.log(base)) + 1)

    def coloring(u, v):
        dx = target.dist(f(g[u]), f(g[v]))
        ratio = float(dx) / (l * k * lam * (len(v) - len(u)))
        return min(int(math.log(ratio) / math.log(base)) if ratio > 1 else 0,
                   r_colors - 1)

    # stage 3: Ramsey
    try:
        copy = ramsey_search(2 ** k, m, r_colors, coloring)
    except TooLarge as e:
        raise PipelineFailed("ramsey", str(e))
    if isinstance(copy, ExhaustionReport):
        raise PipelineFailed("ramsey", f"no monochromatic copy: {copy}")

    # stage 4: boost the root-to-leaf path of the copy
    chain = [TreeVertex((0,) * i) for i in range(m + 1)]   # leftmost branch of B_m
    path = PathMap(m, target, [f(g[copy[v]]) for v in chain])
    try:
        boost = path_boost(path, t, float(delta) / 4)
    except BoostFailed as e:
        raise PipelineFailed("boost", str(e))
    a = boost.grid[0]
    b = boost.grid[1] - boost.grid[0]

    # stage 5: assemble phi = g o copy o psi, psi stepping b levels per edge
    verts = enumerate_bn(t)
    phi = {}
    for v in verts:
        psi_v = TreeVertex((0,) * a + sum((((bit,) + (0,) * (b - 1)) for bit in v.path), ()))
        phi[v] = g[copy[psi_v]]

    # verification: ancestor preservation, distortion, vertical faithfulness
    pairs = list(sp_pairs(t))
    if not all(phi[x].is_strict_ancestor_of(phi[y]) for x, y in pairs):
        raise PipelineFailed("verify", "ancestor relation not preserved")
    dist = distortion_of((tree_distance(u, v), tree_distance(phi[u], phi[v]))
                         for u, v in combinations(verts, 2))[2]
    if dist > 1 + Fraction(xi):
        raise PipelineFailed("verify", f"dist(phi) = {float(dist):.4f} > 1 + xi")
    rep = vertical_report(lambda v: f(phi[v]), pairs, target)
    if not rep.faithful(delta):
        raise PipelineFailed("verify", f"f o phi not (1+delta)-faithful: D = {float(rep.D):.6f}")
    return ExtractResult(phi, t, {"l": l, "k": k, "m": m, "r": r_colors}, rep, boost)
