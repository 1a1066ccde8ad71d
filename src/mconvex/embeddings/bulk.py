"""Bulk classification on numpy arrays: the layer under the classifiers of
`embeddings.classify`, which decide many instances of one space at once.

Labels of approximate-midpoint triples in the contracted tree metric d_eps:
a triple (x, y, z) carries label P (T) when some configuration (a, b, c) of
path type (tent type) has each of a, b, c within a budget of x, y, z, and
label p (t) when one has them within it of z, y, x.  The witnesses searched
are the ancestors of x, y, z at the heights {h(x), h(y), h(z)}.  Everything
is an int den * d_eps: the candidate pools, all point-to-candidate distances
(one scaled_path_distance call per block of triples), the near masks, each
label's first least-nearness witness searched over the near candidates
only, and the exclusions (`certify`, `exclusion_codes`).  The instances'
own checks, the resolution tables and the per-row errors follow
(`prepare`, `midpoints`, `resolve`, `finish`).  Fractions and TreeVertex
objects are built only for what is read (`Labels.of`, `Classified`).

The layer is a module of its own only for the benchmark's peak RSS: every
set-up compiles the sources without bytecode, and compiling it inside
`classify.py` raised that peak by 0.7 MB of the compiler's transient
memory.  It belongs in `classify.py` once the peak is read as `RssAnon` or
after a warm-up op (ROADMAP item 6).
"""
from __future__ import annotations

from fractions import Fraction

from ..errors import InvariantViolated, PreconditionViolated
from ..metric import is_exact, is_midpoint
from ..trees import (_vertex, bit_length, depth_path_arrays, index_array, path_lca_depth,
                     scaled_path_distance)

# label characters: 'P' = (x,y,z) path-type, 'T' = (x,y,z) tent-type,
# 'p' = (z,y,x) path-type, 't' = (z,y,x) tent-type.  Arrays index labels in
# this order, which also breaks ties between equally near ones.
LABELS = "PTpt"
# per label: the positions in (x, y, z) of its (a, b, c), and whether its
# shape is path-type (else tent-type)
SEARCHES = ((0, 1, 2, True), (0, 1, 2, False), (2, 1, 0, True), (2, 1, 0, False))
# triples per block of the witness search, whose (triples, K, K, K) arrays
# grow with K <= 9, the most near candidates of one point in the block
LABEL_BLOCK = 128


class Labels:
    """The certified labels of m triples: has[t, l] whether label l holds
    for triple t, near[t, l] its nearness as den * d_eps (0 where it does
    not hold), witness[t, l] the pool slots of its (a, b, c), and pool[t]
    the heap indices of the triple's nine pool slots."""

    def __init__(self, has, near, witness, pool):
        self.has, self.near, self.witness, self.pool = has, near, witness, pool

    def of(self, t, den):
        """Triple t's labels as {label: (nearness, (a, b, c))}, a Fraction
        and TreeVertex objects, in LABELS order."""
        pool = self.pool[t].tolist()
        return {LABELS[l]: (Fraction(int(self.near[t, l]), den),
                            tuple(_vertex(pool[s]) for s in self.witness[t, l].tolist()))
                for l in range(4) if self.has[t, l]}


def certify(space, idx, thr):
    """The labels in {P, T, p, t} certified for the triples (x, y, z) of
    heap indices in the rows of idx, an (m, 3) array: a label holds when a
    configuration of its shape has each point within thr[t] (den * d_eps,
    an int) of its position in the triple.

    Candidates are the ancestors of x, y, z at the heights {h(x), h(y),
    h(z)}: pool slot 3 v + j is point v's at the j-th least of the three
    heights, and a slot repeating an earlier one is dropped, so the slots
    left are the distinct candidates in order of first appearance.  Each
    label keeps its first least nearness in (a, b, c) order, nearness being
    the greatest of the three distances."""
    import numpy as np

    blocks = [_certify_block(space, idx[i:i + LABEL_BLOCK], thr[i:i + LABEL_BLOCK])
              for i in range(0, max(len(idx), 1), LABEL_BLOCK)]
    return Labels(*(np.concatenate(parts) for parts in zip(*blocks)))


def _certify_block(space, idx, thr):
    """certify on one block: (has, near, witness, pool)."""
    import numpy as np

    b = len(idx)
    h = bit_length(idx) - 1
    lo, hi = h.min(axis=1, keepdims=True), h.max(axis=1, keepdims=True)
    heights = np.concatenate([lo, h.sum(axis=1, keepdims=True) - lo - hi, hi], axis=1)
    ok = heights[:, None, :] <= h[:, :, None]                        # slot exists
    shift = np.where(ok, h[:, :, None] - heights[:, None, :], 0).astype(idx.dtype)
    pool = np.where(ok, idx[:, :, None] >> shift, 1).reshape(b, 9)
    ok = ok.reshape(b, 9)
    repeat = (ok[:, None, :] & (pool[:, :, None] == pool[:, None, :])
              & (np.arange(9) < np.arange(9)[:, None])).any(axis=2)
    hh, ww = depth_path_arrays(space, np.concatenate([idx, pool], axis=1))
    d = scaled_path_distance(space, hh[:, :3, None], ww[:, :3, None],
                             hh[:, None, 3:], ww[:, None, 3:])          # (b, 3, 9)
    close = (ok & ~repeat)[:, None, :] & (d <= thr[:, None, None])
    has = np.zeros((b, 4), dtype=bool)
    near = np.zeros((b, 4), dtype=d.dtype)
    witness = np.zeros((b, 4, 3), dtype=np.int64)
    count = close.cumsum(axis=2)                  # each point's near slots so far
    K = int(count[:, :, -1].max(initial=0))
    if not K:
        return has, near, witness, pool
    # each point's k-th near slot, k < K, in slot order
    order = (count[:, :, None, :] > np.arange(K)[:, None]).argmax(axis=3)
    ok_k = np.arange(K) < count[:, :, -1:]
    ar = np.arange(b)
    d_k = np.take_along_axis(d, order, 2)
    h_k = hh[:, 3:][ar[:, None, None], order]
    lca = path_lca_depth(space, hh[:, 3:, None], ww[:, 3:, None], hh[:, None, 3:], ww[:, None, 3:])

    def lcas(u, v):
        return lca[ar[:, None, None], order[:, u, :, None], order[:, v, None, :]]

    top = d.max() + 1
    for l, (o1, o2, o3, path) in enumerate(SEARCHES):
        ha, hb, hc = h_k[:, o1, :, None, None], h_k[:, o2, None, :, None], h_k[:, o3, None, None, :]
        if path:    # b an ancestor of a, c of height <= h(b) off b's branch
            fit = (lcas(o1, o2)[..., None] == hb) & (hc <= hb) & (lcas(o2, o3)[:, None] < hb)
        else:       # a an ancestor of b, c of height >= h(b) off a's branch
            fit = (lcas(o1, o2)[..., None] == ha) & (hb <= hc) & (lcas(o1, o3)[:, :, None] < ha)
        fit &= ok_k[:, o1, :, None, None] & ok_k[:, o2, None, :, None] & ok_k[:, o3, None, None, :]
        n = np.maximum(np.maximum(d_k[:, o1, :, None, None], d_k[:, o2, None, :, None]),
                       d_k[:, o3, None, None, :])
        flat = np.where(fit, n, top).reshape(b, -1)
        j = flat.argmin(axis=1)
        has[:, l] = fit.reshape(b, -1).any(axis=1)
        near[:, l] = np.where(has[:, l], flat[ar, j], 0)
        for pos, (o, k) in enumerate(zip((o1, o2, o3), np.unravel_index(j, (K, K, K)))):
            witness[:, l, pos] = order[ar, o, k]
    return has, near, witness, pool


# (label, label, side, k): the two labels are never both within d(side, y) / k,
# side 0 being x and side 1 z; a side equal to y has no exclusions
EXCLUSIONS = ((0, 1, 0, 5), (0, 2, 0, 11), (1, 3, 0, 11), (2, 3, 1, 5))


def exclusion_codes(has, near, s_xy, s_zy, x_is_y, z_is_y):
    """Per triple, the index in EXCLUSIONS of the first pair of labels both
    within its threshold, or -1.  The certified labels can never combine so
    below those thresholds; a pair that does would mean the configuration
    predicates themselves are wrong.  A nearness n (den * d_eps) is within
    d(u, y) / k when n * k <= den * d(u, y)."""
    import numpy as np

    code = np.full(len(has), -1)
    side = ((s_xy, ~x_is_y), (s_zy, ~z_is_y))
    for e in reversed(range(len(EXCLUSIONS))):
        l1, l2, u, k = EXCLUSIONS[e]
        s, apart = side[u]
        code[apart & has[:, l1] & has[:, l2] & (near[:, l1] * k <= s) & (near[:, l2] * k <= s)] = e
    return code


def exclusion_error(space, triple, labels, e):
    """The InvariantViolated of exclusion e on the triple and its labels."""
    l1, l2, u, k = EXCLUSIONS[e]
    x, y, z = triple
    s = space.scaled_distance((x, z)[u], y)
    return InvariantViolated(f"labels {LABELS[l1]} and {LABELS[l2]} both within "
                             f"{Fraction(s, k * space.den)}: {(x, y, z, labels)}")


def require_ready(space, delta, limit, what):
    if not space.classifier_ready:
        raise PreconditionViolated("classifier requires eps_n < 1/4 throughout")
    if not Fraction(delta) < limit:
        raise PreconditionViolated(f"{what} requires delta < {limit}")


def prepare(space, rows, npts, delta, limit, what):
    """Check the space and delta, then (idx, dist) for the rows (npts
    vertices each) before the first with a vertex deeper than
    space.max_depth: their heap indices, and the den * d_eps between their
    points, (rows, npts, npts)."""
    import numpy as np

    require_ready(space, delta, limit, what)
    idx = index_array([[v.index for v in row] for row in rows]).reshape(len(rows), npts)
    h, w = depth_path_arrays(space, idx)
    deep = np.flatnonzero((h > space.max_depth).any(axis=1))
    n = int(deep[0]) if len(deep) else len(rows)
    h, w = h[:n], w[:n]
    return idx[:n], scaled_path_distance(space, h[:, :, None], w[:, :, None], h[:, None, :],
                                         w[:, None, :])


def times(s, p, q):
    """floor(s * p / q) for each int of the array s, for ints p and q > 0:
    int64 where s is and s * p fits it, else Python ints in an object array."""
    if s.dtype != object and max(abs(p), q, abs(p) * int(s.max(initial=0))) < 2 ** 63:
        return s * p // q
    return s.astype(object) * p // q


def midpoints(space, rows, delta, idx, dist, far):
    """Whether row[1] is a delta-approximate midpoint of row[0] and
    row[far], for the rows of idx, as is_midpoint decides (False where
    row[0] is row[far], which is_midpoint refuses): max(d(x, y), d(y, z))
    * 2q <= (q + p) d(x, z) on the ints of dist for an exact delta = p/q,
    and is_midpoint itself for a float."""
    import numpy as np

    if not is_exact(delta):
        return np.array([row[0] != row[far] and is_midpoint(space, row[0], row[1], row[far], delta)
                         for row in rows[:len(idx)]], dtype=bool)
    s, delta = dist[:, 0, far], Fraction(delta)
    return ((idx[:, 0] != idx[:, far])
            & (2 * np.maximum(dist[:, 0, 1], dist[:, 1, far]) - s
               <= times(s, delta.numerator, delta.denominator)))


def triple_labels(space, idx, dist, triples, thr):
    """certify on the triples of every row (each a tuple of positions in
    the row), stacked triple by triple, so that triple t of row r is t * n
    + r of n rows, each point within thr[r] of its witness position; and
    their exclusion_codes."""
    import numpy as np

    def stack(parts):
        return np.concatenate(list(parts))

    labels = certify(space, stack(idx[:, list(t)] for t in triples), np.tile(thr, len(triples)))
    return labels, exclusion_codes(labels.has, labels.near,
                                   stack(dist[:, x, y] for x, y, _ in triples),
                                   stack(dist[:, z, y] for _, y, z in triples),
                                   stack(idx[:, x] == idx[:, y] for x, y, _ in triples),
                                   stack(idx[:, z] == idx[:, y] for _, y, z in triples))


def resolve(labels, n, cases, promotions, cap):
    """For n rows of two triples each (r and n + r of `labels`): the index
    of the first of `cases` (variant, triple, label, triple, label) whose
    two labels hold, or -1; the rows to run per row, those where that case
    is nearer than the cap (den * d_eps, an int per row) or no case holds
    but the two labels of one of `promotions` do; and the variants."""
    import numpy as np

    def holds(case):
        _, t1, l1, t2, l2 = case
        a = slice(t1 * n, t1 * n + n), LABELS.index(l1)
        b = slice(t2 * n, t2 * n + n), LABELS.index(l2)
        return labels.has[a] & labels.has[b], np.maximum(labels.near[a], labels.near[b])

    case = np.full(n, -1)
    nearness = np.zeros(n, dtype=labels.near.dtype)
    for c in reversed(range(len(cases))):
        hit, near = holds(cases[c])
        case[hit], nearness[hit] = c, near[hit]
    promote = (case < 0) & np.any([holds(p)[0] for p in promotions], axis=0)
    return (case, (nearness > cap) | promote,
            [cases[c][0] if c >= 0 else "Unclassified" for c in case.tolist()])


def finish(space, rows, triples, labels, excl, suspect, check_row, build, variants):
    """The Classified of a bulk call, once every suspect row, and every row
    with an exclusion code, has run in order the checks of its one-row
    call: check_row(r), the exclusions of its triples, then build(r),
    which checks the caps and runs the promotions.  The first that fails
    raises; a row past space.max_depth raises after the rows before it."""
    import numpy as np

    n = len(variants)
    excl = excl.reshape(len(triples), n)
    built = {}
    for r in np.flatnonzero(suspect | (excl >= 0).any(axis=0)).tolist():
        check_row(r)
        for t, cols in enumerate(triples):
            if excl[t, r] >= 0:
                raise exclusion_error(space, [rows[r][c] for c in cols],
                                       labels.of(t * n + r, space.den), excl[t, r])
        built[r] = build(r)
        variants[r] = built[r].variant
    if n < len(rows):
        space.check_depth(*rows[n])
    return Classified(variants, lambda r: built[r] if r in built else build(r))


class Classified:
    """The classes of the rows of one bulk classifier call: `variants`, the
    variant of each row in order, and at index i the class object of row i,
    built when it is read."""

    def __init__(self, variants, build):
        self.variants = variants
        self._build = build

    def __len__(self):
        return len(self.variants)

    def __getitem__(self, i):
        return self._build(range(len(self.variants))[i])
