"""Vertical faithfulness of tree embeddings.

A map f of B_n into a metric space is (1 + delta)-vertically faithful when all
strict ancestor pairs are stretched by a nearly common factor: with
r(x, y) = d_X(f(x), f(y)) / d_T(x, y) over strict ancestor pairs,
lam = min r and D = max r / min r, faithfulness means D <= 1 + delta.
No constraint is placed on non-ancestor pairs.
"""
from __future__ import annotations

import math

from ..errors import CollapsedAncestorPair
from ..metric import distortion_of
from ..trees import tree_distance


class VerticalReport:
    def __init__(self, lam, D, pairs_checked):
        self.lam = lam              # minimal ancestor-pair stretch
        self.D = D                  # max stretch / min stretch (inf on collapse)
        self.pairs_checked = pairs_checked

    def faithful(self, delta):
        return self.D <= 1 + delta

    def __repr__(self):
        return f"VerticalReport(lam={float(self.lam):.6f}, D={float(self.D):.6f})"


def vertical_report(f, pairs, target, strict=True):
    """Stretch statistics of f over the given strict ancestor pairs.

    `f` maps domain vertices to target points; `pairs` is an iterable of
    (ancestor, descendant) TreeVertex pairs.  A collapsed ancestor pair raises
    CollapsedAncestorPair, or yields lam = 0, D = inf with strict=False.
    D is the distortion of f on the pairs (lip * colip, as metric.distortion_of
    defines it) and lam = 1 / colip.
    """
    dists = []
    for x, y in pairs:
        dx = target.dist(f(x), f(y))
        if dx == 0 and strict:
            raise CollapsedAncestorPair(f"f collapses ancestor pair ({x}, {y})")
        dists.append((tree_distance(x, y), dx))
    if not dists:
        raise ValueError("no ancestor pairs supplied")
    _, colip, D = distortion_of(dists)
    return VerticalReport(0 if math.isinf(D) else 1 / colip, D, len(dists))
