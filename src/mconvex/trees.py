"""Binary trees, the tree metric, and the horizontally contracted metric d_eps.

Vertices of the (conceptually infinite) rooted binary tree are addressed by
their root path, a finite bit sequence, which a `TreeVertex` stores as one
int, its heap index (a 1 bit followed by the path bits).  The contracted
metric is

    d_eps(x, y) = |h(y) - h(x)|
                  + 2 * eps[min(h(x), h(y))] * (min(h(x), h(y)) - h(lca(x, y)))

which is a metric exactly when {eps_n} is non-increasing and {n * eps_n} is
non-decreasing.  With eps identically 1 it coincides with the tree metric
h(x) + h(y) - 2 h(lca(x, y)).

Every d_eps value to depth N is an integer multiple of 1/den, where den is the
lcm of the denominators of eps_0..eps_N.  `HTreeSpace` fixes den once
(`HTreeSpace.den`) and computes den * d_eps(x, y) with int operations only,
on the two heap indices (`HTreeSpace.scaled_index_distance`, behind
`scaled_distance`); `distance` is that int over den, and
`TreeVertex.lca_depth` reads the lca depth off two heap indices, at any
depth.  Numpy arrays hold vertices as (depth, path word) pairs, the path
bits left-aligned to one width per space (`aligned_paths`, or
`depth_path_arrays` from heap indices), and one formula reads den * d_eps
off them, `scaled_path_distance`.  It serves the den * d_eps matrices of
`scaled_distance_matrix(space, vertices)`, over the points of
`HTreeSpace.as_metric_space` (`verify_metric`); the exact triangle count
`htree_triangle_violations` (`htree-validate`), one row of all of B_n per
representative pair of an orbit of the tree's automorphisms
(`_orbit_classes`), with no n x n matrix; the sampled triangle check of
`embeddings.generators`; the bulk B_4 rigidity check of
`embeddings.classify`; and the triple labels of the bulk classifiers
(`embeddings.bulk`), with the lca depths of `path_lca_depth`.  `tree_metric_equality_violations` counts on the
same orbits with scalar ints.  One function lists the strict ancestor pairs
of B_n, `sp_pairs`.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import DepthExceeded, HypothesisViolated, PreconditionViolated, TooLarge, check
from .metric import FiniteMetricSpace, narrowest_int

DEFAULT_MAX_DEPTH = 64
ENUMERATE_LIMIT = 20


def _index_below(index, bits):
    """The heap index `bits` below the vertex with heap index `index`.
    Raises ValueError unless every bit is 0 or 1."""
    for b in bits:
        if b not in (0, 1):
            raise ValueError("path bits must be 0/1")
        index = 2 * index + int(b)
    return index


def _vertex(index):
    """The vertex with a known-valid heap index, without any check."""
    v = object.__new__(TreeVertex)
    v.index = index
    return v


class TreeVertex:
    """A vertex of the rooted binary tree, stored as its heap index: a 1 bit
    followed by the root path bits.  Every operation below is a few int
    operations on that index (see the heap-index comment block)."""

    __slots__ = ("index",)

    def __init__(self, path=()):
        if isinstance(path, str):
            path = tuple(int(c) for c in path)
        self.index = _index_below(1, path)

    @property
    def depth(self):
        return self.index.bit_length() - 1

    @property
    def path(self):
        """The root path as a tuple of 0/1 ints (derived; not for hot paths)."""
        return tuple(map(int, str(self)))

    def ancestor(self, height):
        """The ancestor at the given depth (height <= own depth)."""
        depth = self.depth
        if not 0 <= height <= depth:
            raise PreconditionViolated(f"no ancestor at height {height} of depth-{depth} vertex")
        return _vertex(self.index >> (depth - height))

    def parent(self):
        return self.ancestor(self.depth - 1)

    def sibling(self):
        """The other child of the parent."""
        if self.index == 1:
            raise PreconditionViolated("the root has no sibling")
        return _vertex(self.index ^ 1)

    def child(self, bit):
        return self.descend((bit,))

    def descend(self, bits):
        """Only the added bits are checked: the own path already was."""
        return _vertex(_index_below(self.index, bits))

    def hang(self, bits, k):
        """The descendant k levels down along the k-bit int `bits`, its highest
        bit first (as `randbits.random_bits` draws them)."""
        if bits >> k:
            raise ValueError(f"{bits} is not a {k}-bit int")
        return _vertex(self.index << k | bits)

    def descend_zeros(self, k):
        """The all-zeros descendant k levels down (the deterministic choice)."""
        return _vertex(self.index << k)

    def lca(self, other):
        return self.ancestor(self.lca_depth(other))

    def lca_depth(self, other):
        """min depth - bit_length of the XOR of both indices cut to that depth."""
        a, b = self.index, other.index
        la, lb = a.bit_length(), b.bit_length()
        m = la if la < lb else lb
        return m - 1 - ((a >> (la - m)) ^ (b >> (lb - m))).bit_length()

    def is_ancestor_of(self, other):
        """Non-strict: every vertex is an ancestor of itself."""
        shift = other.index.bit_length() - self.index.bit_length()
        return shift >= 0 and other.index >> shift == self.index

    def is_strict_ancestor_of(self, other):
        return self.index != other.index and self.is_ancestor_of(other)

    def __eq__(self, other):
        return isinstance(other, TreeVertex) and self.index == other.index

    def __hash__(self):
        return hash(self.index)

    def __lt__(self, other):
        # heap order: by depth, then by path
        return self.index < other.index

    def __str__(self):
        return bin(self.index)[3:]

    def __repr__(self):
        return f"TreeVertex({str(self)!r})"


ROOT = TreeVertex(())


def tree_distance(x, y):
    """Unweighted tree metric: h(x) + h(y) - 2 h(lca(x, y))."""
    return x.depth + y.depth - 2 * x.lca_depth(y)


class EpsilonSequence:
    """A contraction schedule eps_0..eps_N of positive rationals.

    Validity (checked on construction): eps non-increasing, n*eps_n
    non-decreasing, eps_n <= 1.  `classifier_ready` additionally requires
    eps_n < 1/4 for all n, the hypothesis of the configuration classifiers.
    The values are a tuple, so one sequence can be shared by many spaces.
    """

    def __init__(self, values, check=True):
        self.values = tuple(Fraction(v) for v in values)
        if not self.values:
            raise ValueError("empty epsilon sequence")
        if check:
            bad = epsilon_violations(self.values)
            if bad:
                raise ValueError(f"invalid epsilon sequence: {bad[0]}")
        quarter = Fraction(1, 4)
        self.classifier_ready = all(v < quarter for v in self.values)

    @property
    def N(self):
        return len(self.values) - 1

    def __getitem__(self, n):
        return self.values[n]

    def __len__(self):
        return len(self.values)

    def __repr__(self):
        return f"EpsilonSequence(N={self.N}, eps0={self.values[0]})"


def epsilon_violations(values):
    """All invariant violations of a raw epsilon sequence (first index reported per kind).

    The checks compare the integer numerators num[n] = den * eps_n over one
    common denominator den."""
    vals = [Fraction(v) for v in values]
    den = math.lcm(*(v.denominator for v in vals))
    num = [v.numerator * (den // v.denominator) for v in vals]
    steps = list(enumerate(zip(num, num[1:]), 1))  # (n, (num[n-1], num[n]))
    firsts = (
        ("nonpositive", next((n for n, a in enumerate(num) if a <= 0), None)),
        ("above_one", next((n for n, a in enumerate(num) if a > den), None)),
        ("increasing", next((n for n, (a, b) in steps if b > a), None)),
        ("n_eps_decreasing", next((n for n, (a, b) in steps if n * b < (n - 1) * a), None)),
    )
    return [(kind, n) for kind, n in firsts if n is not None]


def validate_epsilon(raw):
    """Return an EpsilonSequence if the raw values are valid, else the violation list."""
    violations = epsilon_violations(raw)
    if violations:
        return violations
    return EpsilonSequence(raw, check=False)


def epsilon_from_growth(s, N):
    """eps_n = 1/s(n) for a growth function with s(n) >= 4, s non-decreasing,
    n/s(n) non-decreasing.  Values are rationalized to denominator <= 10^6.

    Raises HypothesisViolated at the first index where the hypothesis fails.
    """
    vals = []
    for n in range(N + 1):
        v = s(n)
        v = Fraction(v).limit_denominator(10 ** 6)
        if v < 4:
            raise HypothesisViolated(n, f"s({n}) = {v} < 4")
        if vals and v < vals[-1]:
            raise HypothesisViolated(n, f"s not non-decreasing at n = {n}")
        # n/s(n) >= (n-1)/s(n-1)  <=>  n * s(n-1) >= (n-1) * s(n)
        if vals and n >= 2 and n * vals[-1] < (n - 1) * v:
            raise HypothesisViolated(n, f"n/s(n) not non-decreasing at n = {n}")
        vals.append(v)
    eps = [1 / v for v in vals]
    seq = validate_epsilon(eps)
    if not isinstance(seq, EpsilonSequence):  # pragma: no cover - guarded above
        raise HypothesisViolated(-1, f"derived sequence invalid: {seq}")
    return seq


class HTreeSpace:
    """The binary tree up to max_depth with the contracted metric d_eps."""

    def __init__(self, eps, max_depth=DEFAULT_MAX_DEPTH):
        if not isinstance(eps, EpsilonSequence):
            eps = EpsilonSequence(eps)
        if max_depth > eps.N:
            raise ValueError(f"max_depth {max_depth} exceeds epsilon horizon {eps.N}")
        self.eps = eps
        self.max_depth = max_depth
        # den is the lcm of the denominators of eps_0..eps_max_depth and
        # _two_eps[m] the int 2 * eps_m * den
        vals = eps.values[:max_depth + 1]
        self.den = math.lcm(*(v.denominator for v in vals))
        self._two_eps = [2 * v.numerator * (self.den // v.denominator) for v in vals]
        self._index_limit = 2 ** (max_depth + 1)   # the heap indices past max_depth

    @functools.cached_property
    def _path_two_eps(self):
        """_two_eps as the array scaled_path_distance indexes, decided once
        per space: int64 where every den * d_eps value to max_depth fits 2^61
        in size, else Python ints in an object array."""
        import numpy as np

        exact = np.int64 if _scaled_fits(self, self.max_depth) else object
        return np.array(self._two_eps, dtype=exact)

    @property
    def classifier_ready(self):
        return self.eps.classifier_ready

    def check_depth(self, *vertices):
        for v in vertices:
            if v.depth > self.max_depth:
                raise DepthExceeded(f"depth {v.depth} > max_depth {self.max_depth}")

    def scaled_distance(self, x, y):
        """den * d_eps(x, y), as an int."""
        i, j = x.index, y.index
        if i >= self._index_limit or j >= self._index_limit:
            self.check_depth(x, y)
        return self.scaled_index_distance(i, j)

    def scaled_index_distance(self, i, j):
        """den * d_eps between the vertices with heap indices i and j (each
        a `TreeVertex.index`), as an int; their depths are not checked.
        For depths hi <= hj, min depth - lca depth is the bit length of the
        XOR of i with j cut to depth hi (see the heap-index comment block)."""
        if i > j:
            i, j = j, i
        hi, hj = i.bit_length() - 1, j.bit_length() - 1
        return (hj - hi) * self.den + self._two_eps[hi] * (i ^ (j >> (hj - hi))).bit_length()

    def distance(self, x, y):
        return Fraction(self.scaled_distance(x, y), self.den)

    # alias so HTreeSpace quacks like FiniteMetricSpace for the classifiers
    dist = distance

    def as_metric_space(self, vertices):
        """The vertices with d_eps, also as ints over the lcm of the
        denominators of eps_0..eps_d for the deepest vertex depth d (not over
        `den`, which covers eps to max_depth and can overflow int64), whose
        whole matrix scaled_distance_matrix computes at once."""
        verts = list(vertices)
        local = HTreeSpace(self.eps, min(max((v.depth for v in verts), default=0),
                                         self.max_depth))
        return FiniteMetricSpace(verts, self.distance, exact=True,
                                 scaled=(local.scaled_distance, local.den),
                                 scaled_matrix=lambda: scaled_distance_matrix(local, verts))

    def to_json(self):
        import json
        from .metric import rat_to_str
        return json.dumps({
            "eps": [rat_to_str(v) for v in self.eps.values],
            "max_depth": self.max_depth,
        })

    @classmethod
    def from_json(cls, text):
        import json
        from .metric import rat_from_str
        data = json.loads(text)
        return cls(EpsilonSequence([rat_from_str(v) for v in data["eps"]]),
                   max_depth=data["max_depth"])


def enumerate_bn(n):
    """All 2^(n+1)-1 vertices of the depth-n binary tree, in BFS order (which
    is heap order)."""
    if n > ENUMERATE_LIMIT:
        raise TooLarge(f"n = {n} > {ENUMERATE_LIMIT}")
    return [_vertex(i) for i in range(1, 2 ** (n + 1))]


def sp_pairs(n):
    """All unordered pairs {x, y} with x a strict ancestor of y in B_n."""
    for y in enumerate_bn(n):
        for h in range(y.depth):
            yield (y.ancestor(h), y)


# ---------------------------------------------------------------------------
# heap indices and path words
#
# The heap index of a vertex is a 1 bit followed by its root path bits (root
# = 1, children 2k and 2k+1), so its depth is bit_length - 1.  For depths dA,
# dB and m = min(dA, dB), the lca depth is
#
#     m - bit_length((A >> (dA - m)) ^ (B >> (dB - m)))
#
# TreeVertex.lca_depth evaluates it on Python ints, at every depth.  Numpy
# arrays hold a vertex as its depth h and its path word: the path bits p
# left-aligned to the space's width W = max(64, max_depth), p << (W - h)
# (`aligned_paths`).  Two words part at depth W - bit_length(A ^ B), so
#
#     lca depth = min(m, W - bit_length(A ^ B))
#
# with no shift of whole arrays: the one array formula of d_eps,
# `scaled_path_distance`.  `bit_length` is exact on all 64 bits.
# ---------------------------------------------------------------------------


def bit_length(a):
    """The int64 array of the bit lengths of a numpy array of nonnegative
    ints: int64 or uint64, exact on all 64 bits (the float64 exponent, via
    np.frexp, of the high 32-bit half, or of the low one where the high one
    is 0), or Python ints in an object array."""
    import numpy as np

    if a.dtype == object:
        return np.frompyfunc(int.bit_length, 1, 1)(a).astype(np.int64)
    half = a >> 32
    low = half == 0
    np.copyto(half, a, where=low)
    out = np.frexp(half)[1].astype(np.int64)
    return np.add(out, 32, out=out, where=~low)


def _scaled_fits(space, top):
    """Whether every den * d_eps value to depth `top` fits 2^61 in size."""
    # |entry| <= |dA - dB| * den + |two_eps[m]| * (m - lca), each factor <= top
    return top * (space.den + max(map(abs, space._two_eps[:top + 1]))) <= 2 ** 61


def aligned_paths(space, h, bits):
    """The path words of the vertices at depths h (int64, none past the
    space's width W) with root path bits `bits` (an array of h's shape):
    bits << (W - h), uint64 when W is 64, else Python ints in an object
    array.  The one place that shifts: the root has no bits, so its shift
    is taken as 0, never as the 64 that numpy leaves undefined on uint64."""
    import numpy as np

    W = max(64, space.max_depth)
    dtype = np.uint64 if W == 64 else object
    return bits.astype(dtype, copy=False) << ((W - h) % W).astype(dtype)


def index_array(indices):
    """The heap indices in the nested list (or array) `indices` as an int64
    array, or as Python ints in an object array where one does not fit
    int64."""
    import numpy as np

    try:
        return np.array(indices, dtype=np.int64)
    except OverflowError:
        return np.array(indices, dtype=object)


def depth_path_arrays(space, indices):
    """(depths, path words) of the heap indices in the nested list `indices`,
    as arrays of its shape: int64 depths, and the words of aligned_paths.  A
    vertex deeper than space.max_depth gets the word 0; its callers refuse it
    by its depth."""
    idx = index_array(indices)
    h = bit_length(idx) - 1
    bits = idx - (1 << h.astype(idx.dtype))
    bits[h > space.max_depth] = 0
    return h, aligned_paths(space, h, bits)


def scaled_path_distance(space, ha, a, hb, b):
    """space.scaled_distance, elementwise and broadcast, between the vertices
    at depths ha with path words a and those at depths hb with path words b
    (`aligned_paths`), the depths int64 and up to space.max_depth (not
    checked).  The result is int64 where every value to space.max_depth
    fits 2^61 in size, else Python ints in an object array; the space
    decides which, and builds the array of its 2 * eps_m * den, once
    (`HTreeSpace._path_two_eps`).  The steps write in place, so that a
    matrix holds few temporaries of its size."""
    import numpy as np

    two_eps = space._path_two_eps
    m = np.minimum(ha, hb)
    split = bit_length(a ^ b)       # min depth - lca depth, once cut at 0 below
    split += m
    split -= max(64, space.max_depth)
    out = two_eps[m]
    out *= np.maximum(split, 0, out=split)
    gap = np.abs(np.subtract(ha, hb, out=split), out=split).astype(two_eps.dtype, copy=False)
    out += gap * space.den
    return out


def path_lca_depth(space, ha, a, hb, b):
    """The lca depths of the vertices at depths ha with path words a and
    those at depths hb with path words b (`aligned_paths`), elementwise and
    broadcast: min(ha, hb, W - bit_length(a ^ b)) as int64."""
    import numpy as np

    return np.minimum(np.minimum(ha, hb), max(64, space.max_depth) - bit_length(a ^ b))


def scaled_distance_matrix(space, vertices):
    """The int64 matrix of space.scaled_distance (den * d_eps over
    `space.den`) over the vertices, every entry (both triangles and the
    diagonal) from one scaled_path_distance call.  Raises DepthExceeded as
    scaled_distance does, and TooLarge when an entry could exceed 2^61 in
    size."""
    import numpy as np

    idx = [v.index for v in vertices]
    top = max(idx, default=1).bit_length() - 1
    if top > space.max_depth:
        space.check_depth(*vertices)
    if not _scaled_fits(space, top):
        raise TooLarge("scaled distances could exceed 2^61")
    h, words = depth_path_arrays(space, idx)
    out = scaled_path_distance(space, h[:, None], words[:, None], h, words)
    return out.astype(np.int64, copy=False)


def _orbit_classes(depth):
    """(h, k, size) for each orbit of the automorphisms of B_depth on its
    ordered pairs, in order of the depth of k: the orbit holds 2^h * size
    pairs, among them (r_h, k) for r_h the vertex with heap index 2^h.

    d_eps(x, y) depends only on h(x), h(y) and the lca depth, which every
    automorphism keeps.  They act transitively on each level, and the
    stabiliser of r_h on the vertices k of one depth h_k whose lca with r_h
    lies at one depth a.  For a < min(h, h_k), k leaves r_h's root path (all
    zeros) at depth a: k = 2^h_k | 2^(h_k - a - 1) stands for 2^(h_k - a - 1)
    vertices.  Otherwise k = r_(h_k), an ancestor of r_h when h_k <= h, and
    one of 2^(h_k - h) descendants when h_k > h."""
    for hk in range(depth + 1):
        for h in range(depth + 1):
            for a in range(min(h, hk)):
                yield h, 1 << hk | 1 << (hk - a - 1), 1 << (hk - a - 1)
            yield h, 1 << hk, 1 << max(hk - h, 0)


def tree_metric_equality_violations(eps, depth):
    """Count the ordered pairs up to `depth` where d_eps differs from the
    tree metric, on one pair per orbit (`_orbit_classes`): O(depth^3) scalar
    ints.  With eps identically 1 the count must be 0: the contraction term
    2*eps*(min - lca) then equals the full horizontal travel of the shortest
    path.
    """
    space = HTreeSpace(eps, depth)
    return sum(size << h for h, k, size in _orbit_classes(depth)
               if space.scaled_index_distance(1 << h, k)
               != tree_distance(_vertex(1 << h), _vertex(k)) * space.den)


# the deepest B_n whose triangles htree_triangle_violations counts: depth 12
# took 34 ms (best of 5 on a 2-core Xeon, numpy 2.4), depth 11 took 12 ms,
# and each level further takes two to three times as long
EXHAUSTIVE_TRIANGLE_DEPTH = 12


def htree_triangle_violations(eps, depth):
    """Number of ordered triples (i, k, j) of B_depth with
    d_eps(i, j) > d_eps(i, k) + d_eps(k, j), without the n x n matrix.

    The pairs (i, k) of one orbit (`_orbit_classes`) have equally many bad
    j, so the count is a sum over the orbits, each of its pair (r_h, k): one
    row d(k, .) against the row d(r_h, .), in O(depth^3 n) time, with the
    rows of r_0..r_depth and of one depth of k at a time.  Raises
    TooLarge past EXHAUSTIVE_TRIANGLE_DEPTH, before any of that work, and as
    scaled_distance_matrix does.
    """
    import itertools

    import numpy as np

    space = HTreeSpace(eps, depth)
    if depth > EXHAUSTIVE_TRIANGLE_DEPTH:
        raise TooLarge(f"exhaustive depth {depth} > {EXHAUSTIVE_TRIANGLE_DEPTH}")
    if not _scaled_fits(space, depth):
        raise TooLarge("scaled distances could exceed 2^61")
    h, words = depth_path_arrays(space, np.arange(1, 2 ** (depth + 1)))

    def rows(ks):
        hk, wk = depth_path_arrays(space, ks)
        return scaled_path_distance(space, hk[:, None], wk[:, None], h, words)

    rep_rows = rows([1 << level for level in range(depth + 1)])
    # every d_eps value is one of some r_h, so the sums fit twice the largest
    dtype = narrowest_int(2 * int(abs(rep_rows).max()))
    rep_rows = rep_rows.astype(dtype)
    count = 0
    for _, classes in itertools.groupby(_orbit_classes(depth), lambda c: c[1].bit_length()):
        classes = list(classes)
        reps = sorted({k for _, k, _ in classes})
        k_rows = dict(zip(reps, rows(reps).astype(dtype)))
        for level, k, size in classes:
            # r[j] > r[k] + d(k, j) over all j
            r = rep_rows[level]
            count += size * int(np.count_nonzero(r > r[k - 1] + k_rows[k])) << level
    return count


# ---------------------------------------------------------------------------
# stitching operations
# ---------------------------------------------------------------------------

def stitch_ancestor(x, x_prime, y, y_prime, space):
    """Matched ancestors move no further apart than the originals.

    Requires y ancestor of x, y' ancestor of x', with equal depth offsets.
    Returns (d_eps(y, y'), d_eps(x, x')); InvariantViolated unless the first
    is <= the second.
    """
    if not (y.is_ancestor_of(x) and y_prime.is_ancestor_of(x_prime)):
        raise PreconditionViolated("y, y' must be ancestors of x, x'")
    if x.depth - y.depth != x_prime.depth - y_prime.depth:
        raise PreconditionViolated("depth offsets must match")
    dy = space.distance(y, y_prime)
    dx = space.distance(x, x_prime)
    check(dy <= dx, "ancestor stitching bound violated: %s > %s", dy, dx)
    return dy, dx


def stitch_horizontal(x, x_prime, y, space):
    """Produce y' with h(y') - h(x') = h(y) - h(x), d_eps(y, y') <= d_eps(x, x'),
    and |d_eps(y', x') - d_eps(x, y)| <= 2 d_eps(x, x').

    Three constructive cases; "arbitrary descendant" picks the all-zeros
    extension.  Near the root the required ancestor may not exist
    (h(y) - h(x) + h(x') < 0); that raises PreconditionViolated.
    """
    if y.depth > x.depth:
        raise PreconditionViolated("requires h(y) <= h(x)")
    space.check_depth(x, x_prime, y)
    hx, hxp, hy = x.depth, x_prime.depth, y.depth
    if hx >= hxp:
        target = hy - (hx - hxp)
        if target < 0:
            raise PreconditionViolated("required ancestor of y would lie above the root")
        y_prime = y.ancestor(target)
    elif x.lca_depth(x_prime) != x.lca_depth(y):
        y_prime = y.descend_zeros(hxp - hx)
        if y_prime.depth > space.max_depth:
            raise DepthExceeded("required descendant exceeds max_depth")
    else:
        # equal lca depths: place y' on the branch through lca(x, y) and x
        target = hy + hxp - hx
        if target <= hx:
            y_prime = x.ancestor(target)
        else:
            y_prime = x.descend_zeros(target - hx)
            if y_prime.depth > space.max_depth:
                raise DepthExceeded("required descendant exceeds max_depth")
    dxx = space.distance(x, x_prime)
    dyy = space.distance(y, y_prime)
    check(dyy <= dxx, "horizontal stitching bound violated: %s > %s", dyy, dxx)
    gap = abs(space.distance(y_prime, x_prime) - space.distance(x, y))
    check(gap <= 2 * dxx, "horizontal distance drift %s > 2*%s", gap, dxx)
    return y_prime


def stitch_descendant(x, x_prime, y, y_prime, space):
    """Matched descendants drift by at most the horizontal contraction term.

    Requires y descendant of x, y' descendant of x', equal depth offsets.
    Checks d_eps(y, y') <= d_eps(x, x') + 2 eps_{h(y)} (h(y) - h(x) + d_eps(x, x'))
    (via the sharper min-height form; InvariantViolated if it fails) and
    returns (d_eps(y, y'), bound).
    """
    if not (x.is_ancestor_of(y) and x_prime.is_ancestor_of(y_prime)):
        raise PreconditionViolated("y, y' must be descendants of x, x'")
    if y.depth - x.depth != y_prime.depth - x_prime.depth:
        raise PreconditionViolated("depth offsets must match")
    dxx = space.distance(x, x_prime)
    dyy = space.distance(y, y_prime)
    k = y.depth - x.depth
    sharp = dxx + 2 * space.eps[min(y.depth, y_prime.depth)] * k
    loose = dxx + 2 * space.eps[y.depth] * (k + dxx)
    check(dyy <= sharp <= loose,
          "descendant stitching bound violated: %s vs %s vs %s", dyy, sharp, loose)
    return dyy, loose
