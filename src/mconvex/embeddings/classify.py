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

Each classifier decides many instances of one space in one pass over numpy
arrays of the ints den * d_eps (`classify_midpoints`, `classify_forks`,
`classify_3paths`; `classify_midpoint`, `classify_fork` and `classify_3path`
are their one-row calls), through `embeddings.bulk`: the labels of all
their triples come from one array pass, and the resolution tables are masks
in their priority order.  Fractions and TreeVertex objects are built only
for the class objects read, and the promotions, which no generator reaches,
run per row.  A row that fails a check raises the error of its one-row
call, once the rows before it have passed.
"""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations

from ..errors import CollapsedAncestorPair, NotApproximatePath, PreconditionViolated, check
from ..metric import is_midpoint
from ..trees import (_vertex, bit_length, depth_path_arrays, enumerate_bn, scaled_path_distance,
                     sp_pairs, tree_distance)
from .bulk import (LABELS, Classified, finish, midpoints, prepare, resolve, times,
                   triple_labels)


# trials per chunk of `mconvex classify`, which draws a chunk and then
# classifies it, so that its arrays do not grow with --trials
CLASSIFY_CHUNK = 1024

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


def classify_midpoints(space, rows, delta):
    """classify_midpoint on each triple (x, y, z) of `rows`, all in one
    space, as a Classified; the first row that fails raises its error.  The
    variant is the label nearest its witness, ties going to the first in
    LABELS order."""
    import numpy as np

    idx, dist = prepare(space, rows, 3, delta, Fraction(1, 16), "midpoint classification")
    exact = Fraction(delta)
    s_xz = dist[:, 0, 2]
    labels, excl = triple_labels(space, idx, dist, [(0, 1, 2)],
                                  times(s_xz, 3 * exact.numerator, exact.denominator))
    best = np.where(labels.has, labels.near, labels.near.max(initial=0) + 1).argmin(axis=1)
    best = np.where(labels.has.any(axis=1), best, -1).tolist()

    def check_row(r):
        if not is_midpoint(space, *rows[r], delta):
            raise PreconditionViolated("y is not a delta-approximate midpoint of x, z")

    def build(r):
        budget = 3 * exact * Fraction(int(s_xz[r]), space.den)
        found = labels.of(r, space.den)
        if not found:
            return MidpointClass("Unclassified", None, None, budget, found)
        nearness, witness = found[LABELS[best[r]]]
        return MidpointClass(_VARIANT[LABELS[best[r]]], witness, nearness, budget, found)

    return finish(space, rows, [(0, 1, 2)], labels, excl,
                   ~midpoints(space, rows, delta, idx, dist, 2), check_row, build,
                   [_VARIANT[LABELS[l]] if l >= 0 else "Unclassified" for l in best])


def classify_midpoint(space, x, y, z, delta):
    """Classify the approximate-midpoint triple (x, y, z); the guarantee is
    that (x, y, z) or (z, y, x) is 3*delta*d_eps(x, z)-near path- or tent-type.
    This is classify_midpoints on the one row (x, y, z)."""
    return classify_midpoints(space, [(x, y, z)], delta)[0]


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


# triple 0 is (x, y, z) and triple 1 (x, y, w).  The four direct shapes and
# the contracted prongs, in priority order, as (variant, triple, label,
# triple, label), the witness of the first label first; the contracted
# prongs are both reversed triples (nearly) path- or tent-type.
_FORK_CASES = (("I", 0, "T", 1, "T"), ("II", 0, "P", 1, "P"),
               ("III", 0, "p", 1, "T"), ("III", 1, "p", 0, "T"),
               ("IV", 0, "p", 1, "t"), ("IV", 1, "p", 0, "t"),
               ("ProngsContracted", 0, "p", 1, "p"), ("ProngsContracted", 0, "t", 1, "t"))
# the label pairs of the promotion: one prong path, the other reversed tent
_FORK_PROMOTIONS = (("II", 0, "P", 1, "t"), ("II", 1, "P", 0, "t"))


def _promote_fork(space, z, w, sz, sw, cap):
    """The fork class when one prong is certified path and the other
    reversed-tent: a fresh path witness for the tent prong is found among
    the ancestors of the certified path witness's middle point."""
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


def classify_forks(space, rows, delta):
    """classify_fork on each fork (x, y, z, w) of `rows`, all in one space,
    as a Classified; the first row that fails raises its error."""
    import numpy as np

    idx, dist = prepare(space, rows, 4, delta, Fraction(1, 70), "fork classification")
    n, den, exact = len(idx), space.den, Fraction(delta)
    p, q = exact.numerator, exact.denominator
    s_xy = dist[:, 0, 1]
    triples = [(0, 1, 2), (0, 1, 3)]
    labels, excl = triple_labels(space, idx, dist, triples, times(s_xy, 7 * p, q))
    case, suspect, variants = resolve(labels, n, _FORK_CASES, _FORK_PROMOTIONS,
                                       times(s_xy, 35 * p, q))
    suspect |= ~(midpoints(space, rows, delta, idx, dist, 2)
                 & midpoints(space, rows, delta, idx, dist, 3))
    # contracted prongs: d(z, w) <= 2 (35 delta + eps_h0) d(x, y), times q den
    contracted = np.flatnonzero(case >= _FORK_CASES.index(("ProngsContracted", 0, "p", 1, "p")))
    h0 = (bit_length(idx[contracted]) - 1).min(axis=1, initial=space.max_depth)
    for r, s_zw, s, h in zip(contracted.tolist(), dist[contracted, 2, 3].tolist(),
                             s_xy[contracted].tolist(), h0.tolist()):
        suspect[r] |= s_zw * q * den > (70 * p * den + space._two_eps[h] * q) * s

    def check_row(r):
        x, y, z, w = rows[r]
        for prong in (z, w):
            if not is_midpoint(space, x, y, prong, delta):
                raise PreconditionViolated("y must be an approximate midpoint of both prongs")

    def build(r):
        z, w = rows[r][2:]
        d = Fraction(int(s_xy[r]), den)
        cap = 35 * exact * d
        if case[r] < 0:
            return _promote_fork(space, z, w, labels.of(r, den), labels.of(n + r, den), cap)
        variant, t1, l1, t2, l2 = _FORK_CASES[case[r]]
        (n1, wit1), (n2, wit2) = labels.of(t1 * n + r, den)[l1], labels.of(t2 * n + r, den)[l2]
        bound = None
        if variant == "ProngsContracted":
            bound = 2 * (35 * exact + space.eps[min(v.depth for v in rows[r])]) * d
            dzw = space.distance(z, w)
            check(dzw <= bound, "contracted prongs %s apart, above %s", dzw, bound)
        nearness = max(n1, n2)
        check(nearness <= cap, "%s: nearness %s above cap %s", variant, nearness, cap)
        return ForkClass(variant, (wit1, wit2), nearness, cap, prong_bound=bound)

    return finish(space, rows, triples, labels, excl, suspect, check_row, build, variants)


def classify_fork(space, x, y, z, w, delta):
    """Classify the fork (x; y; z, w): y a delta-approximate midpoint of both
    (x, z) and (x, w).

    Every fork is 35*delta*d_eps(x, y)-near one of four rigid shapes, or else
    its prongs are contracted: d_eps(z, w) <= 2(35 delta + eps_h0) d_eps(x, y)
    with h0 the minimum of the four heights.  This is classify_forks on the
    one row (x, y, z, w).
    """
    return classify_forks(space, [(x, y, z, w)], delta)[0]


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


# triple 0 is (x0, x1, x2) and triple 1 (x1, x2, x3).  The reversed
# quadruple (x3, x2, x1, x0) has the reversed triples, so its labels come
# from the same two tables with P <-> p and T <-> t.
_PATH_CASES = (("A", 0, "P", 1, "P"), ("B", 0, "P", 1, "t"), ("C", 0, "p", 1, "T"),
               ("ReverseA", 1, "p", 0, "p"), ("ReverseB", 1, "p", 0, "T"),
               ("ReverseC", 1, "P", 0, "t"))
# the label pairs of the double-tent promotions
_PATH_PROMOTIONS = (("C", 0, "T", 1, "T"), ("ReverseC", 1, "t", 0, "t"))


def _promote_3path(space, pts, s1, s2, cap, scale):
    """The 3-path class when both triples are tent-type: that forces shape C
    after replacing the outer point by an ancestor of the second tent's
    apex."""
    x0, _, _, x3 = pts
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


def classify_3paths(space, rows, delta):
    """classify_3path on each quadruple (x0, x1, x2, x3) of `rows`, all in
    one space, as a Classified; the first row that fails raises its error."""
    import numpy as np

    idx, dist = prepare(space, rows, 4, delta, Fraction(1, 200), "3-path classification")
    n, den, exact = len(idx), space.den, Fraction(delta)
    p, q = exact.numerator, exact.denominator
    s01 = dist[:, 0, 1]
    triples = [(0, 1, 2), (1, 2, 3)]
    labels, excl = triple_labels(space, idx, dist, triples, times(s01, 8 * p, q))
    case, suspect, variants = resolve(labels, n, _PATH_CASES, _PATH_PROMOTIONS,
                                       times(s01, 35 * p, q))
    # path_scale_range's window on ints: with `least` and `most` the least
    # and greatest 6 d(x_i, x_j) / (j - i), [most / (1 + delta), least] is
    # empty when least = 0 or most > (1 + delta) least; a delta <= -1 is
    # left to path_scale_range
    if dist.dtype != object and int(dist.max(initial=0)) > (2 ** 63 - 1) // 6:
        dist = dist.astype(object)
    ratios = np.stack([dist[:, i, j] * (6 // (j - i)) for i, j in combinations(range(4), 2)], 1)
    least, most = ratios.min(axis=1), ratios.max(axis=1)
    suspect |= (least == 0) | (most - least > times(least, p, q)) | (p + q <= 0)

    def build(r):
        scale = path_scale_range(space, rows[r], delta)
        cap = 35 * exact * Fraction(int(s01[r]), den)
        if case[r] < 0:
            return _promote_3path(space, rows[r], labels.of(r, den), labels.of(n + r, den),
                                  cap, scale)
        variant, t1, l1, t2, l2 = _PATH_CASES[case[r]]
        (n1, wit1), (n2, wit2) = labels.of(t1 * n + r, den)[l1], labels.of(t2 * n + r, den)[l2]
        nearness = max(n1, n2)
        check(nearness <= cap, "%s: nearness %s above cap %s", variant, nearness, cap)
        return ThreePathClass(variant, (wit1, wit2), nearness, cap, scale)

    return finish(space, rows, triples, labels, excl, suspect,
                   lambda r: path_scale_range(space, rows[r], delta), build, variants)


def classify_3path(space, x0, x1, x2, x3, delta):
    """Classify a (1 + delta)-approximate 3-path (x0, x1, x2, x3).

    The quadruple, forwards or reversed, is 35*delta*d_eps(x0, x1)-near one of
    three shapes built from the triple types of (x0, x1, x2) and (x1, x2, x3):

      A: both triples path-type (a monotone descending staircase);
      B: first triple path-type, second reversed tent-type;
      C: first reversed path-type, second tent-type.

    This is classify_3paths on the one row (x0, x1, x2, x3).
    """
    return classify_3paths(space, [(x0, x1, x2, x3)], delta)[0]


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
