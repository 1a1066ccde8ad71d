"""Configuration classifiers for approximate midpoints in the contracted tree
metric d_eps.

With eps_n < 1/4 everywhere and delta small, any approximate-midpoint triple
(x, y, z) in (B_infty, d_eps) is, after possibly reversing the roles of x and
z, close to one of two rigid shapes:

  path-type (a, b, c): h(c) <= h(b) <= h(a), a descends from b, and c branches
      off below b's height (h(lca(c, b)) < h(b)) -- the three points lie in
      order along a descending branch;
  tent-type (a, b, c): h(b) <= h(c), b descends from a, and c branches off
      below a's height (h(lca(a, c)) < h(a)) -- a is a high point with b and c
      hanging off opposite sides.

The proofs produce witnesses that are ancestors of the three input points at
one of the three input heights, so certification searches exactly that finite
candidate pool.  Fork quadruples and approximate 3-paths are classified by
combining triple labels through small resolution tables, with two genuinely
constructive cases ("promotions") where a fresh witness is found by a 1-D
search over ancestor heights.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from ..errors import (CollapsedAncestorPair, InvariantViolated, NotApproximatePath,
                      PreconditionViolated, check)
from ..metric import is_midpoint
from ..trees import (_vertex, depth_path_arrays, enumerate_bn, scaled_path_distance,
                     sp_pairs, tree_distance)

# label characters: 'P' = (x,y,z) path-type, 'T' = (x,y,z) tent-type,
# 'p' = (z,y,x) path-type, 't' = (z,y,x) tent-type.


def _path_type(a, b, c):
    return (c.depth <= b.depth <= a.depth
            and b.is_ancestor_of(a)
            and c.lca_depth(b) < b.depth)


def _tent_type(a, b, c):
    return (b.depth <= c.depth
            and a.is_ancestor_of(b)
            and a.lca_depth(c) < a.depth)


def _certify_labels(space, x, y, z, budget):
    """All labels in {P, T, p, t} certified within `budget`.

    Returns {label: (nearness, (a, b, c))} where (a, b, c) is the exact
    configuration witnessing the label (ordered to match the triple the label
    refers to) and nearness = max over positions of d_eps(point, witness).
    Candidates are the ancestors of x, y, z at heights in {h(x), h(y), h(z)}.
    Nearness is compared as den * d_eps ints; the winning one becomes a Fraction.
    """
    heights = sorted({x.depth, y.depth, z.depth})
    # distinct candidates, in order of first appearance
    pool = list(dict.fromkeys(v.ancestor(h) for v in (x, y, z) for h in heights
                              if h <= v.depth))
    sd, den = space.scaled_distance, space.den
    # d = s / den <= budget  <=>  s * budget.denominator <= budget.numerator * den
    top, scale = budget.numerator * den, budget.denominator
    near = {v: [(c, s) for c in pool if (s := sd(v, c)) * scale <= top]
            for v in (x, y, z)}

    labels = {}
    for label, (o1, o2, o3), shape in (
            ("P", (x, y, z), _path_type),
            ("T", (x, y, z), _tent_type),
            ("p", (z, y, x), _path_type),
            ("t", (z, y, x), _tent_type)):
        best = None
        for a, na in near[o1]:
            for b, nb in near[o2]:
                if shape is _path_type and not b.is_ancestor_of(a):
                    continue
                if shape is _tent_type and not a.is_ancestor_of(b):
                    continue
                for c, nc in near[o3]:
                    if shape(a, b, c):
                        n = max(na, nb, nc)
                        if best is None or n < best[0]:
                            best = (n, (a, b, c))
        if best is not None:
            labels[label] = (Fraction(best[0], den), best[1])
    return labels


_VARIANT = {"P": "PathType", "T": "TentType",
            "p": "ReversePathType", "t": "ReverseTentType"}


class MidpointClass:
    def __init__(self, variant, witness, nearness, threshold, labels):
        self.variant = variant      # PathType/TentType/Reverse.../Unclassified
        self.witness = witness      # the exact configuration triple, or None
        self.nearness = nearness
        self.threshold = threshold  # the 3 delta d_eps(x, z) budget
        self.labels = labels        # every certified label

    def __repr__(self):
        return f"MidpointClass({self.variant}, nearness={self.nearness})"


def _require_ready(space, delta, limit, what):
    if not space.classifier_ready:
        raise PreconditionViolated("classifier requires eps_n < 1/4 throughout")
    if not Fraction(delta) < limit:
        raise PreconditionViolated(f"{what} requires delta < {limit}")


def _check_exclusions(space, x, y, z, labels):
    """The certified labels can never combine in geometrically impossible ways
    below the stated nearness thresholds; check that (InvariantViolated), since
    a violation would mean the configuration predicates themselves are wrong.

    A threshold d_eps(u, y) / k is s / (k * den) with s = den * d_eps(u, y),
    so nearness n is within it when n.numerator * k * den <= s * n.denominator."""
    sd, den = space.scaled_distance, space.den

    def tight(l, s, k):
        if l not in labels:
            return False
        n = labels[l][0]
        return n.numerator * k * den <= s * n.denominator

    exclusions = []
    if x != y:
        sxy = sd(x, y)
        exclusions += [("P", "T", sxy, 5), ("P", "p", sxy, 11), ("T", "t", sxy, 11)]
    if z != y:
        exclusions.append(("p", "t", sd(z, y), 5))
    for l1, l2, s, k in exclusions:
        if tight(l1, s, k) and tight(l2, s, k):
            raise InvariantViolated(f"labels {l1} and {l2} both within "
                                    f"{Fraction(s, k * den)}: {(x, y, z, labels)}")


def classify_midpoint(space, x, y, z, delta):
    """Classify the approximate-midpoint triple (x, y, z); the guarantee is
    that (x, y, z) or (z, y, x) is 3*delta*d_eps(x, z)-near path- or tent-type."""
    _require_ready(space, delta, Fraction(1, 16), "midpoint classification")
    space.check_depth(x, y, z)
    if not is_midpoint(space, x, y, z, delta):
        raise PreconditionViolated("y is not a delta-approximate midpoint of x, z")
    budget = 3 * Fraction(delta) * space.distance(x, z)
    labels = _certify_labels(space, x, y, z, budget)
    _check_exclusions(space, x, y, z, labels)
    if not labels:
        return MidpointClass("Unclassified", None, None, budget, labels)
    best = min(labels, key=lambda l: (labels[l][0], "PTpt".index(l)))
    nearness, witness = labels[best]
    return MidpointClass(_VARIANT[best], witness, nearness, budget, labels)


# ---------------------------------------------------------------------------
# forks
# ---------------------------------------------------------------------------

class ForkClass:
    def __init__(self, variant, witnesses, nearness, threshold, prong_bound=None):
        self.variant = variant        # I/II/III/IV/ProngsContracted/Unclassified
        self.witnesses = witnesses    # (witness for (x,y,z), witness for (x,y,w))
        self.nearness = nearness
        self.threshold = threshold
        self.prong_bound = prong_bound  # set for ProngsContracted

    def __repr__(self):
        return f"ForkClass({self.variant}, nearness={self.nearness})"


def _promote_path(space, x_w, y_w, target, budget):
    """Find a strict ancestor of y_w within `budget` of `target`, yielding the
    path-type configuration (x_w, y_w, ancestor).  1-D search over integer
    heights; returns (nearness, ancestor) or None."""
    best = None
    for h in range(y_w.depth):
        cand = y_w.ancestor(h)
        d = space.distance(cand, target)
        if d <= budget and (best is None or d < best[0]):
            best = (d, cand)
    return best


def classify_fork(space, x, y, z, w, delta):
    """Classify the fork (x; y; z, w): y a delta-approximate midpoint of both
    (x, z) and (x, w).

    Every fork is 35*delta*d_eps(x, y)-near one of four rigid shapes, or else
    its prongs are contracted: d_eps(z, w) <= 2(35 delta + eps_h0) d_eps(x, y)
    with h0 the minimum of the four heights.
    """
    _require_ready(space, delta, Fraction(1, 70), "fork classification")
    space.check_depth(x, y, z, w)
    for prong in (z, w):
        if not is_midpoint(space, x, y, prong, delta):
            raise PreconditionViolated("y must be an approximate midpoint of both prongs")
    delta = Fraction(delta)
    d = space.distance(x, y)
    eta = 7 * delta                      # per-triple certification budget
    cap = 35 * delta * d                 # final nearness cap
    sz = _certify_labels(space, x, y, z, eta * d)
    sw = _certify_labels(space, x, y, w, eta * d)
    _check_exclusions(space, x, y, z, sz)
    _check_exclusions(space, x, y, w, sw)

    def result(variant, lz, lw, extra=None):
        nz, wz = lz
        nw, ww = lw
        n = max(nz, nw)
        check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
        return ForkClass(variant, (wz, ww), n, cap, prong_bound=extra)

    # the four direct shapes (both prongs symmetric except where noted)
    if "T" in sz and "T" in sw:
        return result("I", sz["T"], sw["T"])
    if "P" in sz and "P" in sw:
        return result("II", sz["P"], sw["P"])
    if "p" in sz and "T" in sw:
        return result("III", sz["p"], sw["T"])
    if "T" in sz and "p" in sw:
        return result("III", sw["p"], sz["T"])
    if "p" in sz and "t" in sw:
        return result("IV", sz["p"], sw["t"])
    if "t" in sz and "p" in sw:
        return result("IV", sw["p"], sz["t"])
    # contracted prongs: both reversed triples are (nearly) path- or tent-type
    if ("p" in sz and "p" in sw) or ("t" in sz and "t" in sw):
        h0 = min(x.depth, y.depth, z.depth, w.depth)
        bound = 2 * (35 * delta + space.eps[h0]) * d
        dzw = space.distance(z, w)
        check(dzw <= bound, "contracted prongs %s apart, above %s", dzw, bound)
        key = "p" if ("p" in sz and "p" in sw) else "t"
        fc = result("ProngsContracted", sz[key], sw[key], extra=bound)
        return fc
    # promotion: one prong certified path, the other reversed-tent; a fresh
    # path witness for the tent prong is found among the ancestors of the
    # certified path witness's middle point
    for sa, sb, wb, swap in ((sz, sw, w, False), (sw, sz, z, True)):
        if "P" in sa and "t" in sb:
            n_p, (xp, yp, _) = sa["P"]
            best = _promote_path(space, xp, yp, wb, cap)
            if best is not None:
                n_b, bar = best
                n = max(n_p, sb["t"][0], n_b)
                check(n <= cap, "promoted fork: nearness %s above cap %s", n, cap)
                wit_a = sa["P"][1]
                wit_b = (xp, yp, bar)
                wits = (wit_a, wit_b) if not swap else (wit_b, wit_a)
                return ForkClass("II", wits, n, cap)
    return ForkClass("Unclassified", None, None, cap)


# ---------------------------------------------------------------------------
# approximate 3-paths
# ---------------------------------------------------------------------------

class ThreePathClass:
    def __init__(self, variant, witnesses, nearness, threshold, scale_range):
        self.variant = variant        # A/B/C/ReverseA/ReverseB/ReverseC/Unclassified
        self.witnesses = witnesses
        self.nearness = nearness
        self.threshold = threshold
        self.scale_range = scale_range  # feasible [L_min, L_max]

    def __repr__(self):
        return f"ThreePathClass({self.variant}, nearness={self.nearness})"


def path_scale_range(space, pts, delta):
    """Feasible scales L with (j-i) L <= d(x_i, x_j) <= (1+delta)(j-i) L for
    all i < j, or raise NotApproximatePath when the interval is empty.

    Every ratio d(x_i, x_j) / (j-i) is an int over den * g, with g the lcm of
    the gaps j-i: hi is the least of them, and lo the larger of 0 and the
    greatest of them over 1+delta."""
    delta = Fraction(delta)
    n = len(pts)
    g = math.lcm(*range(1, n))
    sd = space.scaled_distance
    ratios = [sd(pts[i], pts[j]) * (g // (j - i))
              for i in range(n) for j in range(i + 1, n)]
    unit = space.den * g
    lo = max(Fraction(0), Fraction(max(ratios), unit) / (1 + delta))
    hi = Fraction(min(ratios), unit)
    if lo > hi or hi == 0:
        raise NotApproximatePath(f"no feasible scale: need L in [{lo}, {hi}]")
    return lo, hi


def classify_3path(space, x0, x1, x2, x3, delta):
    """Classify a (1 + delta)-approximate 3-path (x0, x1, x2, x3).

    The quadruple, forwards or reversed, is 35*delta*d_eps(x0, x1)-near one of
    three shapes built from the triple types of (x0, x1, x2) and (x1, x2, x3):

      A: both triples path-type (a monotone descending staircase);
      B: first triple path-type, second reversed tent-type;
      C: first reversed path-type, second tent-type.
    """
    _require_ready(space, delta, Fraction(1, 200), "3-path classification")
    pts = (x0, x1, x2, x3)
    space.check_depth(*pts)
    scale = path_scale_range(space, pts, delta)
    delta = Fraction(delta)
    d01 = space.distance(x0, x1)
    budget = 8 * delta * d01             # covers the triple guarantees
    cap = 35 * delta * d01
    s1 = _certify_labels(space, x0, x1, x2, budget)   # triple (x0, x1, x2)
    s2 = _certify_labels(space, x1, x2, x3, budget)   # triple (x1, x2, x3)
    _check_exclusions(space, x0, x1, x2, s1)
    _check_exclusions(space, x1, x2, x3, s2)

    def result(variant, l1, l2):
        n = max(l1[0], l2[0])
        check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
        return ThreePathClass(variant, (l1[1], l2[1]), n, cap, scale)

    combos = (
        # forward quadruple: triples (x0,x1,x2) and (x1,x2,x3)
        ("A", s1, "P", s2, "P"),
        ("B", s1, "P", s2, "t"),
        ("C", s1, "p", s2, "T"),
        # reversed quadruple (x3,x2,x1,x0): triples are the reversals, so the
        # labels come from the same two tables with P <-> p and T <-> t
        ("ReverseA", s2, "p", s1, "p"),
        ("ReverseB", s2, "p", s1, "T"),
        ("ReverseC", s2, "P", s1, "t"),
    )
    for variant, sa, la, sb, lb in combos:
        if la in sa and lb in sb:
            return result(variant, sa[la], sb[lb])
    # double-tent promotions: both triples tent-type forces shape C after
    # replacing the outer point by an ancestor of the second tent's apex
    for variant, sa, la, sb, lb, far in (
            ("C", s1, "T", s2, "T", x0),
            ("ReverseC", s2, "t", s1, "t", x3)):
        if la in sa and lb in sb:
            n_b, (a2, b2, _) = sb[lb]
            best = _promote_path(space, b2, a2, far, cap)
            if best is not None:
                n_f, far_w = best
                n = max(sa[la][0], n_b, n_f)
                check(n <= cap, "%s: nearness %s above cap %s", variant, n, cap)
                path_wit = (b2, a2, far_w)   # path-type for the reversed triple
                return ThreePathClass(variant, (path_wit, sb[lb][1]), n, cap, scale)
    return ThreePathClass("Unclassified", None, None, cap, scale)


# ---------------------------------------------------------------------------
# the depth-4 rigidity bound
# ---------------------------------------------------------------------------

_B4 = enumerate_bn(4)
# (i, j, tree distance) over the index pairs i < j of _B4
_B4_PAIRS = [(i, j, tree_distance(_B4[i], _B4[j]))
             for i, j in combinations(range(len(_B4)), 2)]


def _b4_column_key(pair):
    """(whether not a strict ancestor pair, tree distance) of a pair of
    _B4_PAIRS: the strict ancestor pairs, whose tree distance is their depth
    gap, come first, each part by tree distance."""
    i, j, d = pair
    return not _B4[i].is_ancestor_of(_B4[j]), d


def _run_starts(keys):
    """The positions in `keys` where a run of equal keys starts."""
    return [k for k, key in enumerate(keys) if k == 0 or key != keys[k - 1]]


# The pairs of _B4_PAIRS in column order, sorted by _b4_column_key, as the
# _B4 positions of their two ends.  The columns fall into 11 segments of one
# key each, all nonempty, starting at _B4_SEGMENTS: the ancestor pairs of gap
# 1..4 are the first _B4_GAP_SEGMENTS of them.  A segment's distances scaled by
# _B4_SCALES, 840 / (its tree distance) with 840 = lcm(1..8), are the ratios
# d_t / d_s of its pairs times 840.
_B4_COLUMNS = sorted(_B4_PAIRS, key=_b4_column_key)
_B4_I = [i for i, _, _ in _B4_COLUMNS]
_B4_J = [j for _, j, _ in _B4_COLUMNS]
_B4_SEGMENTS = _run_starts([_b4_column_key(p) for p in _B4_COLUMNS])
_B4_SEGMENT_KEYS = [_b4_column_key(_B4_COLUMNS[k]) for k in _B4_SEGMENTS]
_B4_GAP_SEGMENTS = sum(not other for other, _ in _B4_SEGMENT_KEYS)          # 4
_B4_SCALES = [840 // d for _, d in _B4_SEGMENT_KEYS]
_B4_ARRAYS = []     # numpy loads lazily: these as arrays once used
# rows per scaled_path_distance call: its transient arrays, some 50 KB a row,
# stay under half a MB however many rows one b4_bound_checks call is given
# (blocks of 16 read 0.15 to 0.4 MB more peak RSS in b4-search)
_B4_BLOCK = 8


def _b4_extremes(space, rows):
    """For each row of `rows` (31 heap indices each, a map of B_4 in _B4
    order), in order: (h0, vlo, vhi, lo, hi), with h0 the least depth in
    the row, vlo and vhi the least and greatest 840 d_t / d_s over its
    strict ancestor pairs, and lo and hi those over all its pairs, as ints,
    where d_s is the tree distance in B_4 and d_t the int den * d_eps of
    the images.  Then D = vhi / vlo and dist = hi / lo (inf when lo = 0):
    lip and colip are the greatest d_t / d_s and d_s / d_t, and scaling every
    d_t by den leaves lip * colip unchanged.

    The den * d_eps of all pairs of _B4_BLOCK rows at a time come from one
    scaled_path_distance call, and the extremes of each segment from one
    reduceat over the columns; they become Python ints in an object array
    where 840 times them could pass int64.  A row with a vertex deeper than
    space.max_depth raises DepthExceeded, as space.check_depth does, once
    the rows before it are yielded."""
    import numpy as np

    if not _B4_ARRAYS:
        _B4_ARRAYS.extend(np.array(a) for a in (_B4_I + _B4_J, _B4_SEGMENTS, _B4_SCALES))
    ends, segments, scales = _B4_ARRAYS
    h, words = (a.reshape(-1, len(_B4)) for a in depth_path_arrays(space, rows))
    n = len(h)
    if n and h.max() > space.max_depth:
        n = int(np.flatnonzero((h > space.max_depth).any(axis=1))[0])
    k = len(_B4_I)
    for start in range(0, n, _B4_BLOCK):
        block = slice(start, min(n, start + _B4_BLOCK))
        he, we = h[block, ends], words[block, ends]
        scaled = scaled_path_distance(space, he[:, :k], we[:, :k], he[:, k:], we[:, k:])
        lo = np.minimum.reduceat(scaled, segments, axis=1)
        hi = np.maximum.reduceat(scaled, segments, axis=1)
        if hi.dtype != object and int(hi.max()) > (2 ** 63 - 1) // 840:
            lo, hi = lo.astype(object), hi.astype(object)
        lo, hi = lo * scales, hi * scales
        yield from zip(h[block].min(axis=1).tolist(),
                       lo[:, :_B4_GAP_SEGMENTS].min(axis=1).tolist(),
                       hi[:, :_B4_GAP_SEGMENTS].max(axis=1).tolist(),
                       lo.min(axis=1).tolist(), hi.max(axis=1).tolist())
    if n < len(rows):
        space.check_depth(*(_vertex(int(i)) for i in rows[n]))


def b4_bound_checks(space, rows, delta):
    """b4_bound_check on many maps at once: `rows` holds each map as the 31
    heap indices of its images, in _B4 order (as search.nested_b4_rows
    draws them).  Returns [(dist, bound, holds)], one per row; the first row
    that fails raises the error b4_bound_check raises on it.

    D <= 1 + delta and dist >= bound are decided by cross-multiplying the
    ints of _b4_extremes with the numerator and denominator of 1 + delta (a
    float delta stays a float there, as in `D <= 1 + delta`) and of the
    bound; the bound is computed once per h0, and only the returned dist,
    and D in an error, become Fractions."""
    exact = Fraction(delta)
    dn, dd = exact.numerator, exact.denominator
    if not 400 * dn < dd:
        raise PreconditionViolated("requires delta < 1/400")
    faith_n, faith_d = (1 + delta).as_integer_ratio()
    bounds = {}                 # h0 -> (bound, its numerator, its denominator)
    out = []
    for row, (h0, vlo, vhi, lo, hi) in zip(rows, _b4_extremes(space, rows)):
        if not vlo:
            x, y = next((x, y) for x, y in sp_pairs(4) if row[x.index - 1] == row[y.index - 1])
            raise CollapsedAncestorPair(f"f collapses ancestor pair ({x}, {y})")
        if vhi * faith_d > faith_n * vlo:
            raise PreconditionViolated(f"f is not (1+delta)-vertically faithful: "
                                       f"D = {Fraction(vhi, vlo)}")
        if h0 not in bounds:
            # 1 / (500 delta + eps_h0), over the product of the denominators
            eps = space.eps[h0]
            bound = Fraction(dd * eps.denominator, 500 * dn * eps.denominator + eps.numerator * dd)
            bounds[h0] = (bound, bound.numerator, bound.denominator)
        bound, num, den = bounds[h0]
        if lo:
            out.append((Fraction(hi, lo), bound, hi * den >= num * lo))
        else:
            out.append((math.inf, bound, True))
    return out


def b4_bound_check(space, f, delta):
    """For a (1 + delta)-vertically faithful map f of B_4 into (B_infty, d_eps)
    with delta < 1/400:  dist(f) >= 1 / (500 delta + eps_h0), where h0 is the
    minimum height in the image.

    Returns (dist, bound, holds); dist is computed over all vertex pairs of
    B_4 (inf when f collapses a non-ancestor pair).  The vertical report D
    (the distortion on the strict ancestor pairs) and dist both reduce one
    pass of scaled distances over all pairs.  A collapsed ancestor pair
    raises CollapsedAncestorPair, naming the first in sp_pairs(4) order.
    This is b4_bound_checks on the one row of f.
    """
    return b4_bound_checks(space, [[f(v).index for v in _B4]], delta)[0]


def b4_distortion(space, images):
    """dist of the map B_4 -> (B_infty, d_eps) given by `images` (a dict
    vertex -> image) over all vertex pairs of B_4; inf on a collapse."""
    _, _, _, lo, hi = next(_b4_extremes(space, [[images[v].index for v in _B4]]))
    return Fraction(hi, lo) if lo else math.inf
