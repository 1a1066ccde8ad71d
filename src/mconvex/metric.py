"""Finite metric spaces, distortion of point maps, and approximate midpoint sets.

Distances are exact rationals whenever the construction permits (tree metrics,
contracted tree metrics with rational epsilon, Laakso graphs); floating-point
distances carry an explicit tolerance used by verify_metric.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from itertools import chain, combinations

from .errors import BadInput, CollapsedPair, OutOfRange, TooLarge
from .randbits import random_below

# number of points up to which verify_metric checks every triple
EXHAUSTIVE_LIMIT = 2000
SAMPLED_TRIPLES = 10 ** 6
# relative tolerance of the metric axioms on float distances
DEFAULT_TOL = 1e-12

# the number types a distance is exact in
_EXACT = (int, Fraction)


def rat_to_str(x):
    """Serialize a number: rationals as "p/q", everything else as float."""
    if isinstance(x, Fraction):
        return f"{x.numerator}/{x.denominator}"
    if isinstance(x, int):
        return f"{x}/1"
    return float(x)


def rat_from_str(s):
    """Parse "p/q" or "p" as an exact rational; any other value as float.

    Raises BadInput on a malformed string or a zero denominator.
    """
    if isinstance(s, str):
        num, _, den = s.partition("/")
        try:
            return Fraction(int(num), int(den) if den else 1)
        except (ValueError, ZeroDivisionError) as exc:
            raise BadInput(f"not a rational number: {s!r}") from exc
    return float(s)


# The exact-number policy: a computation decides once whether it runs in
# Fraction or in float (number_type), then runs one formula in that type.
# Per-element loops decide outside the loop or test _EXACT inline.

def is_integral(p):
    """Whether the exponent p is an integer (an int or an integer-valued
    float), so that p-th powers of exact numbers stay exact."""
    return isinstance(p, int) or (isinstance(p, float) and p.is_integer())


def is_exact(*values):
    """Whether every value is exact (an int or a Fraction)."""
    return all(isinstance(v, _EXACT) for v in values)


def number_type(p, *values):
    """Fraction when p is integral and every value is exact, else float: the
    type in which p-th powers of the values are computed."""
    return Fraction if is_integral(p) and is_exact(*values) else float


def exact_or_float(x):
    """x as a Fraction when it is exact, else as a float."""
    return Fraction(x) if isinstance(x, _EXACT) else float(x)


def to_float(x, name):
    """float(x), or OutOfRange naming `name` when x lies past the float range."""
    try:
        return float(x)
    except OverflowError:
        raise OutOfRange(f"{name} lies past the float range") from None


def power(x, p):
    """x ** int(p) for exact x and integral p (an int for an int x and
    p >= 0), else float(x) ** p."""
    if is_integral(p) and isinstance(x, _EXACT):
        return x ** int(p)
    return float(x) ** p


class FiniteMetricSpace:
    """A finite point set with a symmetric nonnegative distance function.

    `dist` is a callable on pairs of points.  `exact` tags whether the values
    are exact (int/Fraction); `tol` is the relative tolerance of the triangle
    inequality on float distances, scaled by the largest distance (see
    verify_metric).  An optional `dist_pow(x, y, p)` hook lets a space expose
    exact p-th powers of distances (e.g. squared l2 distances) even when the
    distance itself is irrational.

    An exact space may also give its distances as ints over one common
    denominator: `scaled=(scaled_distance, den)` with
    scaled_distance(x, y) == den * dist(x, y) an int.  `den` is None when the
    space has no such representation.  With it, an optional
    `scaled_matrix()` hook returns the int64 numpy matrix of those ints over
    `points` at once, or raises TooLarge where it cannot; verify_metric then
    reads `distance_matrix()`.
    """

    def __init__(self, points, dist, exact=True, tol=DEFAULT_TOL, dist_pow=None, scaled=None,
                 scaled_matrix=None):
        self.points = list(points)
        self._dist = dist
        self._dist_pow = dist_pow
        self.exact = exact
        self.tol = tol
        self.scaled_distance, self.den = scaled or (None, None)
        self._scaled_matrix = scaled_matrix

    def dist(self, x, y):
        return self._dist(x, y)

    def dist_pow(self, x, y, p):
        """d(x, y)**p, exact when possible (integer p and exact distances)."""
        if self._dist_pow is not None:
            return self._dist_pow(x, y, p)
        return power(self._dist(x, y), p)

    def __len__(self):
        return len(self.points)

    @classmethod
    def from_matrix(cls, points, matrix, exact=True, tol=DEFAULT_TOL):
        points = list(points)
        index = {pt: i for i, pt in enumerate(points)}
        rows = [list(row) for row in matrix]

        def dist(x, y):
            return rows[index[x]][index[y]]

        space = cls(points, dist, exact=exact, tol=tol)
        space._matrix = rows
        return space

    def distance_matrix(self):
        """Row-major list of lists of pairwise distances."""
        cached = getattr(self, "_matrix", None)
        if cached is not None:
            return cached
        pts = self.points
        n = len(pts)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                d = self._dist(pts[i], pts[j])
                rows[i][j] = d
                rows[j][i] = d
        self._matrix = rows
        return rows

    def to_json(self):
        rows = self.distance_matrix()
        return json.dumps({
            "points": [str(p) for p in self.points],
            "dist": [[rat_to_str(d) for d in row] for row in rows],
            "exact": self.exact,
        })

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rows = [[rat_from_str(d) for d in row] for row in data["dist"]]
        return cls.from_matrix(data["points"], rows, exact=data["exact"])


class MetricReport:
    """Outcome of verify_metric: list of violations plus the mode used."""

    def __init__(self, violations, mode, triples_checked):
        self.violations = violations
        self.mode = mode
        self.triples_checked = triples_checked

    @property
    def is_metric(self):
        return not self.violations

    def __repr__(self):
        return (f"MetricReport(mode={self.mode!r}, checked={self.triples_checked}, "
                f"violations={len(self.violations)})")


def verify_metric(space, seed=0):
    """Check symmetry, zero diagonal, nonnegativity and the triangle inequality.

    All on one matrix (`_checked_matrix`); the axioms are listed pair by pair
    only when one fails.  d(i, j) <= d(i, k) + d(k, j) is checked on all n^3
    ordered triples (i, k, j) up to EXHAUSTIVE_LIMIT points (all n^3 are
    proved, though `triangle_failures` sums only the pairs i <= j of a
    symmetric matrix: the pair (j, i) has the same check), beyond that on
    SAMPLED_TRIPLES triples drawn from random.Random(seed) (the report records
    the mode), with slack 0 on exact distances and `space.tol` times the
    largest distance (at least 1) on floats.  A degenerate triple (two equal
    indices) fails only where a diagonal entry is nonzero or a distance
    negative, so only where an axiom fails too.
    """
    import numpy as np

    pts = space.points
    n = len(pts)
    if n < 1:
        raise ValueError("space must have at least one point")
    mat, tol = _checked_matrix(space)
    violations = []
    if not _axioms_hold(mat):
        rows = mat.tolist()
        for i in range(n):
            if rows[i][i] != 0:
                violations.append(("diagonal", pts[i]))
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    violations.append(("symmetry", pts[i], pts[j]))
                if rows[i][j] < 0:
                    violations.append(("negative", pts[i], pts[j]))
    if n <= EXHAUSTIVE_LIMIT:
        for k, bad in triangle_failures(mat, tol):
            violations.extend(("triangle", pts[i], pts[k], pts[j]) for i, j in zip(*bad.nonzero()))
        return MetricReport(violations, "exhaustive", n ** 3)
    i, k, j = random_below(random.Random(seed), n, 3 * SAMPLED_TRIPLES).reshape(-1, 3).T
    for t in np.flatnonzero(mat[i, j] > mat[i, k] + mat[k, j] + tol):
        violations.append(("triangle", pts[i[t]], pts[k[t]], pts[j[t]]))
    return MetricReport(violations, "sampled", SAMPLED_TRIPLES)


def _checked_matrix(space):
    """(matrix, tol): the distances of a space as one numpy matrix, and the
    slack of its triangle inequality.

    The space's scaled_matrix hook gives den times them as int64 where it
    does not raise TooLarge.  Otherwise one pass over the distances reads
    their types.  Exact distances are scaled to ints over the lcm of their
    denominators (plain ints, whose lcm is 1, as they are): int64 when every
    int fits 2^61 in size, else an object array of Python ints (compared
    exactly).  tol is 0, as a positive scale changes no check.  The
    distances of a space not flagged exact, or holding a float, become
    float64, with tol `space.tol` times the largest of them (at least 1);
    OutOfRange where an exact one lies past the float range.
    """
    import numpy as np

    if space._scaled_matrix is not None:
        try:
            return space._scaled_matrix(), 0
        except TooLarge:
            pass
    rows = space.distance_matrix()
    kinds = set(map(type, chain.from_iterable(rows)))
    if space.exact and all(issubclass(kind, _EXACT) for kind in kinds):
        scaled = rows
        if not kinds <= {int}:
            den = math.lcm(*{d.denominator for row in rows for d in row})
            scaled = [[d.numerator * (den // d.denominator) for d in row] for row in rows]
        fits = max(max(map(abs, row)) for row in scaled) <= 2 ** 61
        return np.array(scaled, dtype=np.int64 if fits else object), 0
    mat = np.array([[to_float(d, "a distance") for d in row] for row in rows], dtype=np.float64)
    return mat, space.tol * max(1.0, float(mat.max()))


def _axioms_hold(mat):
    """Whether a square numpy matrix of any dtype has a zero diagonal and is
    symmetric and nonnegative."""
    import numpy as np

    return not mat.diagonal().any() and np.array_equal(mat, mat.T) and not (mat < 0).any()


def narrowest_int(top):
    """The narrowest signed numpy int dtype (int16, int32, int64) that holds
    every value of size <= top."""
    import numpy as np

    return next((t for t in (np.int16, np.int32) if top <= np.iinfo(t).max), np.int64)


def triangle_failures(mat, tol=0):
    """Yield (k, bad) for each middle index k of a square numpy distance
    matrix with a triangle violation, where the boolean matrix bad marks the
    (i, j) with mat[i, j] > mat[i, k] + mat[k, j] + tol.

    bad is one buffer, overwritten for the next k: read it before resuming.
    An integer matrix (whose tol must be an int) is cast once to the
    narrowest signed dtype (int16, int32, int64) that holds
    2 * max|x| + |tol|, so the sums cannot overflow and the comparisons are
    exact; an object matrix of Python ints is compared exactly as is.

    One pass first takes min over k of mat[i, k] + mat[k, j]; when no
    mat[i, j] exceeds it plus tol, nothing is yielded, and only otherwise
    are the k scanned one by one.  Adding tol is monotone, also in float, so
    the two tests agree; np.fmin skips NaN sums, as the comparisons do.

    The pass runs only on a staircase that holds the pairs i <= j
    (`_staircase_fails`), about 0.69 n^2 of the n^2 pairs.  On a
    symmetric matrix the pair (j, i) has the same entry and, term for term,
    the same sums mat[j, k] + mat[k, i] = mat[k, j] + mat[i, k], so it fails
    exactly when (i, j) does.  Any other matrix (one holding NaN too, which
    np.array_equal never finds equal to itself) runs the pass on mat.T as
    well: its pairs i <= j are mat's pairs i >= j, with the same sums in
    swapped order.  So every ordered triple is proved either way.
    """
    import numpy as np

    n = len(mat)
    if n == 0:
        return
    if mat.dtype.kind in "iu":
        mat = mat.astype(narrowest_int(2 * max(int(mat.max()), -int(mat.min())) + abs(tol)))
    sides = (mat,) if np.array_equal(mat, mat.T) else (mat, mat.T)
    if not any(_staircase_fails(side, tol) for side in sides):
        return
    total = np.empty_like(mat)
    bad = np.empty(mat.shape, dtype=bool)
    for k in range(n):
        np.add(mat[:, k, None], mat[None, k, :], out=total)
        if tol:
            total += tol
        np.greater(mat, total, out=bad)
        if bad.any():
            yield k, bad


def _staircase_fails(mat, tol):
    """Whether mat[i, j] > min over k of mat[i, k] + mat[k, j], plus tol,
    for some (i, j) of a staircase that holds every pair i <= j of a square
    numpy matrix.

    The rows are cut into the blocks [0, n/2), [n/2, 3n/4) and [3n/4, n),
    each taken against the columns from its first row on: 0.69 n^2 sums per
    k instead of n^2, each block in its own running-minimum buffer.
    """
    import numpy as np

    n = len(mat)
    edges = (0, n // 2, 3 * n // 4, n)
    for r0, r1 in zip(edges, edges[1:]):
        rows, cols = mat[r0:r1], mat[:, r0:]
        least = rows[:, 0, None] + cols[None, 0, :]
        total = np.empty_like(least)
        for k in range(1, n):
            np.add(rows[:, k, None], cols[None, k, :], out=total)
            np.fmin(least, total, out=least)
        if tol:
            least += tol
        if (cols[r0:r1] > least).any():
            return True
    return False


class PointMap:
    """A map from the points of one finite metric space into another."""

    def __init__(self, source, target, assignment):
        self.source = source
        self.target = target
        if callable(assignment):
            assignment = {p: assignment(p) for p in source.points}
        self.assignment = dict(assignment)
        self._stats = None

    def __call__(self, x):
        return self.assignment[x]

    def stats(self):
        """(lip, colip, dist); dist is math.inf when a pair is collapsed."""
        if self._stats is None:
            self._stats = distortion_of(
                (self.source.dist(x, y), self.target.dist(self(x), self(y)))
                for x, y in combinations(self.source.points, 2))
        return self._stats


def distortion_of(pairs):
    """(lip, colip, dist) of a map, from the (d_source, d_target) distances of
    its pairs of distinct source points.

    lip and colip are the largest d_target / d_source and d_source / d_target
    over the pairs with d_target != 0; dist = lip * colip, or math.inf when
    some pair collapses (d_target == 0).  No pairs give (0, 0, 0).  Exact
    (int/Fraction) ratios are compared by integer cross-multiplication and
    only the final two become Fractions; a pair with a float distance has the
    float ratio float(d_target) / float(d_source).
    """
    lip_n, lip_d, co_n, co_d = 0, 1, 0, 1   # exact lip = lip_n/lip_d, colip = co_n/co_d
    lip = colip = None                      # the running maxima once a float appears
    collapsed = False
    for ds, dt in pairs:
        if ds == 0:
            raise ValueError("source distances must be positive off-diagonal")
        if dt == 0:
            collapsed = True
            continue
        exact = isinstance(ds, _EXACT) and isinstance(dt, _EXACT)
        if exact and lip is None:
            n = dt.numerator * ds.denominator
            d = dt.denominator * ds.numerator
            if n * lip_d > lip_n * d:
                lip_n, lip_d = n, d
            if d * co_d > co_n * n:
                co_n, co_d = d, n
            continue
        if lip is None:
            lip, colip = _exact_ratio(lip_n, lip_d), _exact_ratio(co_n, co_d)
        ratio = Fraction(dt) / Fraction(ds) if exact else float(dt) / float(ds)
        if ratio > lip:
            lip = ratio
        inv = 1 / ratio
        if inv > colip:
            colip = inv
    if lip is None:
        lip, colip = _exact_ratio(lip_n, lip_d), _exact_ratio(co_n, co_d)
    return lip, colip, math.inf if collapsed else lip * colip


def _exact_ratio(n, d):
    """n/d as a Fraction, or the int 0 when no ratio was seen (n == 0)."""
    return Fraction(n, d) if n else 0


def distortion(f, strict=False):
    """Return (lip, colip, dist) of a PointMap.

    dist is math.inf when f collapses a pair; with strict=True that raises
    CollapsedPair instead (search loops want the infinite value, not a crash).
    """
    lip, colip, dist_ = f.stats()
    if strict and math.isinf(dist_):
        raise CollapsedPair("map collapses a pair of distinct points")
    return lip, colip, dist_


def midpoint_set(space, x, z, delta):
    """The set of delta-approximate midpoints of x and z.

    { y : max(d(x,y), d(y,z)) <= (1+delta)/2 * d(x,z) }.
    """
    if x == z:
        raise ValueError("midpoint_set requires x != z")
    return {y for y in space.points if is_midpoint(space, x, y, z, delta)}


def is_midpoint(space, x, y, z, delta):
    """Membership test y in Mid(x, z, delta) without enumerating the space.

    On a space with int distances over one denominator and an exact
    delta = p/q this is max(sd(x, y), sd(y, z)) * 2q <= (q + p) * sd(x, z)."""
    if x == z:
        raise ValueError("midpoints need x != z")
    sd = space.scaled_distance
    delta = exact_or_float(delta)
    if sd is not None and is_exact(delta):
        p, q = delta.numerator, delta.denominator
        return max(sd(x, y), sd(y, z)) * 2 * q <= (q + p) * sd(x, z)
    return max(space.dist(x, y), space.dist(y, z)) <= (1 + delta) * space.dist(x, z) / 2
