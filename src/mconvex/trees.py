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
`scaled_distance`); `distance` is that int over den.  Every lca depth is one
closed form on heap indices: `TreeVertex.lca_depth` on Python ints (any
depth), and the numpy kernel `_lca_block` on int64 arrays (depth <= 52).
One function builds den * d_eps matrices, `scaled_distance_matrix(space,
vertices)`, over the points of `HTreeSpace.as_metric_space`
(`verify_metric`).  Over all of B_n one walk, `_row_blocks`, runs its kernel
`_scaled_block` by rows, for two counts without an n x n matrix:
`tree_metric_equality_violations`, and `htree_triangle_violations`
(`htree-validate`), which compares each block against one representative
row per depth, since the tree's automorphisms keep d_eps and act
transitively on each level.  The sampled triangle check of
`embeddings.generators` reads den * d_eps off (depth, path bits) arrays,
past depth 52 too, through `scaled_path_distance`, and so does the bulk B_4
rigidity check of `embeddings.classify`, on the arrays `depth_path_arrays`
reads off heap indices.  One function lists the
strict ancestor pairs of B_n, `sp_pairs`.
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
        whole matrix the heap-index kernel computes at once."""
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
# heap indices, scalar and vectorised
#
# The heap index of a vertex is a 1 bit followed by its root path bits (root
# = 1, children 2k and 2k+1), so its depth is bit_length - 1.  For depths dA,
# dB and m = min(dA, dB), the lca depth is
#
#     m - bit_length((A >> (dA - m)) ^ (B >> (dB - m)))
#
# TreeVertex.lca_depth evaluates it on Python ints, exact at every depth.
# The numpy kernels below evaluate it on int64 arrays of heap indices
# 1 .. 2^53 - 1, i.e. depths 0..HEAP_EXACT_DEPTH, and their callers raise
# TooLarge beyond (`_two_eps_to`).  Their bit lengths come from `bit_length`,
# which is exact on all 64 bits, as the sampled triangle check of
# `embeddings.generators` needs for its uint64 root paths.
# ---------------------------------------------------------------------------

HEAP_EXACT_DEPTH = 52


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


def _lca_block(A, dA, B, dB):
    """(min depths, lca depths) of heap indices A against B (broadcast)."""
    import numpy as np

    m = np.minimum(dA, dB)
    return m, m - bit_length((A >> (dA - m)) ^ (B >> (dB - m)))


def _scaled_block(A, dA, B, dB, den, two_eps):
    """(lca depths, den * d_eps) of heap indices A at depths dA against B at
    depths dB (broadcast), where two_eps[m] is the int64 2 * eps_m * den."""
    import numpy as np

    m, lca = _lca_block(A, dA, B, dB)
    return lca, np.abs(dA - dB) * den + two_eps[m] * (m - lca)


def _two_eps_to(space, top):
    """space._two_eps[:top + 1] as an int64 array, after the guards of the
    numpy kernels: TooLarge when depth `top` lies past HEAP_EXACT_DEPTH or a
    den * d_eps value to that depth could exceed 2^61 in size."""
    import numpy as np

    if top > HEAP_EXACT_DEPTH:
        raise TooLarge(f"depth {top} > {HEAP_EXACT_DEPTH}: heap indices past 2^53")
    if not _scaled_fits(space, top):
        raise TooLarge("scaled distances could exceed 2^61")
    return np.array(space._two_eps[:top + 1], dtype=np.int64)


def _scaled_fits(space, top):
    """Whether every den * d_eps value to depth `top` fits 2^61 in size."""
    # |entry| <= |dA - dB| * den + |two_eps[m]| * (m - lca), each factor <= top
    return top * (space.den + max(map(abs, space._two_eps[:top + 1]))) <= 2 ** 61


def scaled_path_distance(space, ha, a, hb, b):
    """space.scaled_distance, elementwise, between the vertices at depths ha
    with root path bits a and those at depths hb with path bits b, as
    `randbits.random_depth_bits` draws them through the one read-ahead of
    the package's bulk draws, `randbits._draw`: int64 depths up to
    space.max_depth (not checked), and uint64 bits, or Python ints in object
    arrays.  The result is int64 where every value to space.max_depth fits
    2^61 in size, else Python ints in an object array; the space decides
    which, and builds the array of its 2 * eps_m * den, once
    (`HTreeSpace._path_two_eps`).

    For depths h <= h', min depth - lca depth is the bit length of
    p ^ (p' >> (h' - h)) for the paths p, p'; the shift, up to 64, is taken
    in two halves, as uint64 shifts of 64 are undefined."""
    import numpy as np

    two_eps = space._path_two_eps
    first = ha <= hb
    m = np.where(first, ha, hb)
    gap = np.abs(ha - hb)
    half = (gap >> 1).astype(a.dtype)
    deep = np.where(first, b, a) >> half >> (gap - (gap >> 1)).astype(a.dtype)
    split = bit_length(np.where(first, a, b) ^ deep)
    return gap.astype(two_eps.dtype) * space.den + two_eps[m] * split


def depth_path_arrays(indices):
    """(depths, path bits) of the heap indices in the nested list `indices`,
    as arrays of its shape in the form scaled_path_distance takes: int64
    depths, and uint64 bits, or Python ints in an object array where some
    heap index lies past 2^63 (depth 63 on)."""
    import numpy as np

    try:
        idx = np.array(indices, dtype=np.int64)
    except OverflowError:
        idx = np.array(indices, dtype=object)
    h = bit_length(idx) - 1
    bits = idx - (1 << h.astype(idx.dtype))
    return h, bits if bits.dtype == object else bits.view(np.uint64)


def scaled_distance_matrix(space, vertices):
    """The int64 matrix of space.scaled_distance (den * d_eps over
    `space.den`) over the vertices, every entry (both triangles and the
    diagonal) computed from heap indices in one numpy pass.  Raises
    DepthExceeded as scaled_distance does, and TooLarge when a vertex lies
    deeper than HEAP_EXACT_DEPTH or an entry could exceed 2^61 in size."""
    import numpy as np

    idx = [v.index for v in vertices]
    top = max(idx, default=1).bit_length() - 1
    if top > space.max_depth:
        space.check_depth(*vertices)
    two_eps = _two_eps_to(space, top)
    idx = np.array(idx, dtype=np.int64)
    h = bit_length(idx) - 1
    return _scaled_block(idx[:, None], h[:, None], idx, h, space.den, two_eps)[1]


# rows per block of the walks over all of B_depth, fewer where a block would
# pass BLOCK_ENTRIES entries (past depth 10), so a block's memory stays bounded
BLOCK_ROWS = 256
BLOCK_ENTRIES = 2 ** 19


def _heap_arrays(space, depth):
    """(heap indices, depths, two_eps) of all of B_depth (depth <=
    space.max_depth) as int64 arrays, with the guards of enumerate_bn and
    scaled_distance_matrix (TooLarge)."""
    import numpy as np

    if depth > ENUMERATE_LIMIT:
        raise TooLarge(f"n = {depth} > {ENUMERATE_LIMIT}")
    two_eps = _two_eps_to(space, depth)
    idx = np.arange(1, 2 ** (depth + 1), dtype=np.int64)
    return idx, bit_length(idx) - 1, two_eps


def _row_blocks(space, depth):
    """Walk B_depth in blocks of BLOCK_ROWS heap-ordered rows: yield (rows,
    h, lca, scaled), where rows slices the heap order, h holds every
    vertex's depth, and lca and scaled are the lca depths and den * d_eps of
    the rows against all of B_depth."""
    idx, h, two_eps = _heap_arrays(space, depth)
    step = max(1, min(BLOCK_ROWS, BLOCK_ENTRIES // len(idx)))
    for lo in range(0, len(idx), step):
        rows = slice(lo, lo + step)
        lca, scaled = _scaled_block(idx[rows, None], h[rows, None], idx, h,
                                    space.den, two_eps)
        yield rows, h, lca, scaled


def tree_metric_equality_violations(eps, depth):
    """Count the ordered pairs up to `depth` where d_eps differs from the
    tree metric.

    By row blocks (`_row_blocks`), so depth 12 (8191 vertices, ~33M ordered
    pairs) stays within a modest memory budget.  With eps identically 1 the
    count must be 0: the contraction term 2*eps*(min - lca) then equals the
    full horizontal travel of the shortest path.
    """
    space = HTreeSpace(eps, depth)
    count = 0
    for rows, h, lca, scaled in _row_blocks(space, depth):
        count += int((scaled != (h[rows, None] + h - 2 * lca) * space.den).sum())
    return count


# the deepest B_n whose triangles htree_triangle_violations counts: depth 12
# takes about 3 s, and each level further about 4 times as long
EXHAUSTIVE_TRIANGLE_DEPTH = 12


def htree_triangle_violations(eps, depth):
    """Number of ordered triples (i, k, j) of B_depth with
    d_eps(i, j) > d_eps(i, k) + d_eps(k, j), without the n x n matrix.

    d_eps(x, y) depends only on h(x), h(y) and the lca depth, which every
    automorphism of the rooted binary tree keeps, and the automorphisms of
    B_depth act transitively on each level.  So the 2^h choices of i at depth
    h have equally many bad (k, j), and the count is the sum over h of 2^h
    times that of the representative i = r_h, the vertex with heap index 2^h:
    (depth + 1) rows d(r_h, .) compared against each `_row_blocks` block of
    d(k, .), in O(depth * n^2) time.  Raises TooLarge past
    EXHAUSTIVE_TRIANGLE_DEPTH, before any of that work, and as
    scaled_distance_matrix does.
    """
    import numpy as np

    space = HTreeSpace(eps, depth)
    if depth > EXHAUSTIVE_TRIANGLE_DEPTH:
        raise TooLarge(f"exhaustive depth {depth} > {EXHAUSTIVE_TRIANGLE_DEPTH}")
    idx, h, two_eps = _heap_arrays(space, depth)
    levels = np.arange(depth + 1, dtype=np.int64)[:, None]
    rep_rows = _scaled_block(2 ** levels, levels, idx, h, space.den, two_eps)[1]
    # every d_eps value is one of some r_h, so the sums fit twice the largest
    dtype = narrowest_int(2 * int(abs(rep_rows).max()))
    rep_rows = rep_rows.astype(dtype)
    count = 0
    for rows, _, _, scaled in _row_blocks(space, depth):
        scaled = scaled.astype(dtype)
        for level, r in enumerate(rep_rows):
            # r[j] > r[k] + d(k, j) over the block's k
            count += int(np.count_nonzero(r > r[rows, None] + scaled)) << level
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
