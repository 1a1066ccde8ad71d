import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mconvex import trees
from mconvex.embeddings.generators import random_valid_epsilon
from mconvex.errors import (DepthExceeded, HypothesisViolated, InvariantViolated,
                            PreconditionViolated, TooLarge)
from mconvex.trees import (ROOT, EpsilonSequence, HTreeSpace, TreeVertex, aligned_paths,
                           bit_length, depth_path_arrays, enumerate_bn,
                           epsilon_from_growth, epsilon_violations,
                           htree_triangle_violations, scaled_distance_matrix,
                           scaled_path_distance, sp_pairs,
                           tree_metric_equality_violations,
                           stitch_ancestor, stitch_descendant, stitch_horizontal,
                           tree_distance, validate_epsilon)

bits = st.lists(st.integers(0, 1), max_size=12).map(tuple)


# The lca code from before vertices were heap indices, kept verbatim as
# oracles: TreeVertex.lca_depth on root-path tuples, and the per-level loop
# on heap indices.

def old_tuple_lca_depth(p, q):
    i = 0
    m = min(len(p), len(q))
    while i < m and p[i] == q[i]:
        i += 1
    return i


def old_heap_lca_depth(i, j):
    """lca depth of heap-indexed vertices (root = 1, children 2k, 2k+1)."""
    di = i.bit_length() - 1
    dj = j.bit_length() - 1
    if di > dj:
        i >>= di - dj
    elif dj > di:
        j >>= dj - di
    d = min(di, dj)
    while i != j:
        i >>= 1
        j >>= 1
        d -= 1
    return d


def heap_index(p):
    """The heap index of a root path: a 1 bit followed by the path bits."""
    return int("1" + "".join(map(str, p)), 2)


def heap_scaled_block(A, dA, B, dB, den, two_eps):
    """(lca depths, den * d_eps) of int64 heap indices A at depths dA against
    B at depths dB (broadcast), where two_eps[m] is the int64
    2 * eps_m * den: the array kernel on heap indices that the path words
    replaced, kept as the oracle of the old matrix and row-block builders
    below."""
    import numpy as np
    m = np.minimum(dA, dB)
    lca = m - bit_length((A >> (dA - m)) ^ (B >> (dB - m)))
    return lca, np.abs(dA - dB) * den + two_eps[m] * (m - lca)


@given(bits, bits)
def test_tree_distance_is_path_metric(a, b):
    x, y = TreeVertex(a), TreeVertex(b)
    l = x.lca(y)
    assert tree_distance(x, y) == (x.depth - l.depth) + (y.depth - l.depth)
    assert tree_distance(x, y) == tree_distance(y, x)
    assert (tree_distance(x, y) == 0) == (x == y)


@given(bits, bits)
def test_lca_is_common_ancestor(a, b):
    x, y = TreeVertex(a), TreeVertex(b)
    l = x.lca(y)
    assert l.is_ancestor_of(x) and l.is_ancestor_of(y)
    # no deeper common ancestor
    if l.depth < min(x.depth, y.depth):
        assert x.path[l.depth] != y.path[l.depth]


def test_vertex_basics():
    v = TreeVertex((1, 0, 1))
    assert v.depth == 3
    assert v.parent() == TreeVertex((1, 0))
    assert v.ancestor(0) == ROOT
    assert v.child(1) == TreeVertex((1, 0, 1, 1))
    assert v.descend((0, 0)) == TreeVertex((1, 0, 1, 0, 0))
    assert v.descend_zeros(2) == v.descend((0, 0))
    assert ROOT.is_ancestor_of(v) and not ROOT.is_strict_ancestor_of(ROOT)


def test_vertex_bits_checked_unless_generated():
    for bad in ((0, 2), (1, -1), "012", (True, 0.5)):
        with pytest.raises(ValueError):
            TreeVertex(bad)
    assert TreeVertex("1011") == TreeVertex([1, 0, 1, 1]) == TreeVertex((1, 0, 1, 1))
    # generated bits arrive as one int and are only range-checked
    v = ROOT.hang(0b1011, 4)
    assert v == TreeVertex((1, 0, 1, 1)) and hash(v) == hash(TreeVertex((1, 0, 1, 1)))
    assert v.path == (1, 0, 1, 1) and v.depth == 4 and v.parent() == TreeVertex((1, 0, 1))
    assert v.hang(0, 0) == v and v.hang(0b01, 2) == TreeVertex((1, 0, 1, 1, 0, 1))
    for bits, k in ((0b100, 2), (1, 0), (-1, 3)):
        with pytest.raises(ValueError):
            v.hang(bits, k)


def test_enumerate_bn_and_pairs():
    verts = enumerate_bn(3)
    assert len(verts) == 2 ** 4 - 1
    assert verts[0] == ROOT
    pairs = list(sp_pairs(3))
    # each depth-h vertex contributes h strict ancestors
    assert len(pairs) == sum(v.depth for v in verts)
    assert all(a.is_strict_ancestor_of(b) for a, b in pairs)


@given(st.integers(1, 500), st.integers(1, 500))
def test_heap_lca_depth_matches_paths(i, j):
    def to_vertex(h):
        path = []
        while h > 1:
            path.append(h & 1)
            h >>= 1
        return TreeVertex(tuple(reversed(path)))
    x, y = to_vertex(i), to_vertex(j)
    assert (x.index, y.index) == (i, j)
    assert old_heap_lca_depth(i, j) == x.lca_depth(y) == \
        old_tuple_lca_depth(x.path, y.path)


def random_path_pairs(rng, lengths, depth=200):
    """Pairs of random root paths of length <= depth, the first of each
    length in `lengths`, whose common prefix takes every length of the first
    path, with the next bits equal or different."""
    pairs = []
    for n in lengths:
        p = tuple(rng.randrange(2) for _ in range(n))
        for s in range(n + 1):
            tail = [rng.randrange(2) for _ in range(rng.randint(0, depth - s))]
            if tail and s < len(p) and rng.random() < 0.5:
                tail[0] = 1 - p[s]
            pairs.append((p, p[:s] + tuple(tail)))
    return pairs


def test_vertex_encoding_matches_tuple_code():
    # the heap-index operations against the tuple code they replace, past
    # the 52 bits a float holds and the 64 of a machine word
    rng = random.Random(20261018)
    lengths = [0, 1, 2, 51, 52, 53, 63, 64, 65, 199, 200]
    pairs = random_path_pairs(rng, lengths + [rng.randint(0, 200) for _ in range(20)])
    assert max(len(q) for _, q in pairs) == 200
    for p, q in pairs:
        x, y = TreeVertex(p), TreeVertex(q)
        l = old_tuple_lca_depth(p, q)
        assert x.lca_depth(y) == y.lca_depth(x) == l == old_heap_lca_depth(x.index, y.index)
        assert x.lca(y).path == p[:l] and x.lca(y) == y.lca(x)
        assert x.index == heap_index(p) and x.depth == len(p) and x.path == p
        h = rng.randint(0, len(p))
        assert x.ancestor(h).path == p[:h]
        assert x.is_ancestor_of(y) == (q[:len(p)] == p)
        assert x.is_strict_ancestor_of(y) == (len(p) < len(q) and q[:len(p)] == p)
        assert (x < y) == ((len(p), p) < (len(q), q))
        assert str(x) == "".join(str(b) for b in p)
        assert (x == y) == (p == q) and (p != q or hash(x) == hash(y))
        assert hash(x) == hash(TreeVertex(str(x)))
        if p:
            assert x.sibling().path == p[:-1] + (1 - p[-1],)
        k = len(q) - l
        assert x.ancestor(l).hang(int("0" + "".join(map(str, q[l:])), 2), k) == y
        assert x.descend_zeros(3).path == p + (0, 0, 0)


def test_epsilon_validation():
    good = EpsilonSequence([Fraction(1, 4), Fraction(1, 5), Fraction(1, 6)])
    assert len(good) == 3
    # increasing eps violates monotonicity
    with pytest.raises(ValueError):
        EpsilonSequence([Fraction(1, 8), Fraction(1, 4)])
    # n * eps_n decreasing violates the growth condition
    bad = [Fraction(1, 2), Fraction(1, 2), Fraction(1, 8)]
    assert ("n_eps_decreasing", 2) in epsilon_violations(bad)
    # out of (0, 1]: validate_epsilon returns the violation list
    out = validate_epsilon([Fraction(0), Fraction(0)])
    assert not isinstance(out, EpsilonSequence) and out[0][0] == "nonpositive"
    assert EpsilonSequence([Fraction(1, 5)] * 4).classifier_ready
    assert not EpsilonSequence([Fraction(1, 2)] * 4).classifier_ready


def test_epsilon_from_growth():
    eps = epsilon_from_growth(lambda n: 5, 10)
    assert all(e == Fraction(1, 5) for e in eps.values[1:])
    with pytest.raises(HypothesisViolated):
        epsilon_from_growth(lambda n: 3, 4)   # s(n) >= 4 required
    with pytest.raises(HypothesisViolated):
        epsilon_from_growth(lambda n: 2 ** n + 4, 6)   # n/s(n) decreasing


def htree(eps_val, depth):
    return HTreeSpace(EpsilonSequence([eps_val] * (depth + 1)), depth)


def test_htree_distance_formula():
    sp = htree(Fraction(1, 5), 10)
    x = TreeVertex((0, 0, 1, 1))
    y = TreeVertex((0, 1, 0))
    # lca depth 1, min height 3, formula: |h(y)-h(x)| + 2 eps_3 (3 - 1)
    assert sp.distance(x, y) == 1 + 2 * Fraction(1, 5) * 2
    assert sp.distance(x, x) == 0
    assert sp.distance(x, y) == sp.distance(y, x)
    # ancestor pairs are pure height differences
    assert sp.distance(x, x.ancestor(1)) == 3
    assert sp.dist == sp.distance


def test_distance_matches_fraction_formula_on_seeded_inputs():
    """distance and scaled_distance against the d_eps formula in Fractions
    (the distance before integer scaling), over random valid schedules."""
    rng = random.Random(20261018)
    checked = 0
    for _ in range(60):
        N = rng.randint(0, 40)
        eps = random_valid_epsilon(rng, N)
        sp = HTreeSpace(eps, rng.randint(0, N))
        assert sp.den == math.lcm(*(v.denominator for v in eps.values[:sp.max_depth + 1]))
        for k in range(20):
            # the first pairs pin depth 0 and max_depth
            hx = (0, sp.max_depth, 0)[k] if k < 3 else rng.randint(0, sp.max_depth)
            hy = (0, sp.max_depth, sp.max_depth)[k] if k < 3 else rng.randint(0, sp.max_depth)
            x, y = rand_vertex(rng, hx), rand_vertex(rng, hy)
            m = min(hx, hy)
            old = abs(hy - hx) + 2 * eps[m] * (m - x.lca_depth(y))
            new = sp.distance(x, y)
            assert type(new) is Fraction and new == old
            scaled = sp.scaled_distance(x, y)
            assert type(scaled) is int and scaled == new * sp.den
            assert sp.scaled_index_distance(y.index, x.index) == scaled
            checked += 1
    assert checked == 1200


def test_htree_eps_one_is_tree_metric():
    sp = htree(Fraction(1), 8)
    rng = random.Random(0)
    for _ in range(300):
        x = TreeVertex(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8))))
        y = TreeVertex(tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8))))
        assert sp.distance(x, y) == tree_distance(x, y)


def test_htree_depth_guard():
    sp = htree(Fraction(1, 5), 4)
    # the deepest vertices allowed, and the shallowest refused
    assert sp.scaled_distance(TreeVertex((1,) * 4), ROOT) == 4 * sp.den
    deep = TreeVertex((0,) * 5)
    for x, y in ((ROOT, deep), (deep, ROOT), (deep, deep)):
        with pytest.raises(DepthExceeded):
            sp.distance(x, y)
        with pytest.raises(DepthExceeded):
            sp.scaled_distance(x, y)


def test_htree_json_roundtrip():
    sp = htree(Fraction(1, 7), 6)
    back = HTreeSpace.from_json(sp.to_json())
    x, y = TreeVertex((0, 1, 1)), TreeVertex((1,))
    assert back.distance(x, y) == sp.distance(x, y)
    assert back.max_depth == sp.max_depth


def test_scaled_matrix_matches_distance():
    eps = EpsilonSequence([Fraction(1, 5)] * 7)
    sp = HTreeSpace(eps, 6)
    verts = enumerate_bn(6)
    mat = scaled_distance_matrix(sp, verts)
    rng = random.Random(1)
    for _ in range(200):
        i, j = rng.randrange(len(verts)), rng.randrange(len(verts))
        assert Fraction(int(mat[i][j]), sp.den) == sp.distance(verts[i], verts[j])


def old_scaled_distance_matrix(eps, depth):
    """The all-of-B_depth builder that scaled_distance_matrix(space, vertices)
    replaced, kept as the oracle with its single row block and its
    denominator helper inlined: (int64 matrix in heap order, denominator)."""
    import numpy as np
    vals = eps.values[:depth + 1]
    denom = math.lcm(*(v.denominator for v in vals))
    two_eps = np.array([2 * v.numerator * (denom // v.denominator) for v in vals],
                       dtype=np.int64)
    idx = np.arange(1, 2 ** (depth + 1), dtype=np.int64)
    depths = bit_length(idx) - 1
    return heap_scaled_block(idx[:, None], depths[:, None], idx, depths, denom, two_eps)[1], denom


def test_scaled_distance_matrix_matches_the_old_builder():
    rng = random.Random(20261019)
    for _ in range(12):
        eps = random_valid_epsilon(rng, 8)
        for d in (0, 1, 3, rng.randint(4, 8), 8):
            space = HTreeSpace(eps, d)
            old, den = old_scaled_distance_matrix(eps, d)
            new = scaled_distance_matrix(space, enumerate_bn(d))
            assert den == space.den and new.dtype == old.dtype
            assert new.shape == old.shape and (new == old).all()


def kernel_block(space, rows, cols):
    """scaled_path_distance of the heap indices rows (k,) against cols (m,),
    through depth_path_arrays."""
    hr, wr = depth_path_arrays(space, rows)
    hc, wc = depth_path_arrays(space, cols)
    return scaled_path_distance(space, hr[:, None], wr[:, None], hc, wc)


def prefix_sharing_indices(rng, count, lo, hi):
    """count triples of heap indices: a random a at a depth d in lo..hi, the
    sibling of a's ancestor k levels up (the root for k = d) hung s random
    levels down, with depth at most hi, and an ancestor of a: pairs that
    share prefixes of every length."""
    idx = []
    for _ in range(count):
        d = rng.randint(lo, hi)
        a = rng.randrange(2 ** d, 2 ** (d + 1))
        k = rng.randint(1, d)
        b = (a >> k) ^ 1 if k < d else 1
        s = rng.randint(0, hi - (d - k))
        idx += [a, (b << s) | rng.randrange(2 ** s), a >> rng.randint(0, d)]
    return idx


def test_scaled_path_distance_matches_heap_indices():
    # the one array formula of d_eps against scaled_index_distance on heap
    # indices, at widths 64 (uint64 words) and 100 (Python ints): all of
    # B_6 against B_7; pairs sharing prefixes of every length to depth 52,
    # around 2^53 - 1 (the all-ones depth-52 vertex); and the same past it,
    # with the all-zeros and all-ones paths at depths 0, 52, 53, 62, 63, 64
    # (and 100 at width 100).  With eps identically 1 (den = 1) d_eps is the
    # tree metric, whose lca depths are those of the per-level loop.
    import numpy as np
    rng = random.Random(8)
    top = 2 ** 53 - 1
    exact = [1, 2, 3, top, top - 1, 2 ** 52, 2 ** 52 + 1, top >> 1, top >> 30]
    exact += prefix_sharing_indices(rng, 300, 1, 52)
    edges = [i for d in (0, 52, 53, 62, 63, 64) for i in (2 ** d, 2 ** (d + 1) - 1)]
    deep = edges + prefix_sharing_indices(rng, 60, 53, 64)
    wide = [2 ** 100, 2 ** 101 - 1] + prefix_sharing_indices(rng, 30, 65, 100)
    for width in (64, 100):
        for eps in (EpsilonSequence([1] * (width + 1)), random_valid_epsilon(rng, width)):
            space = HTreeSpace(eps, width)
            sets = [(range(1, 120), range(1, 260)), (exact, exact), (exact, deep), (deep, deep)]
            if width == 100:
                sets += [(deep + wide, wide)]
            for rows, cols in sets:
                got = kernel_block(space, rows, cols)
                assert got.dtype == np.int64
                assert got.tolist() == [[space.scaled_index_distance(i, j) for j in cols]
                                        for i in rows], (width, len(rows))
                if width == 64 and space.den == 1:
                    depth = [i.bit_length() - 1 for i in rows]
                    lca = [[(depth[a] + j.bit_length() - 1 - got[a, b]) // 2
                            for b, j in enumerate(cols)] for a in range(len(rows))]
                    assert lca == [[old_heap_lca_depth(i, j) for j in cols] for i in rows]


def lca_block(rows, cols):
    """lca depths of heap indices rows (k,) against cols (m,), read off the
    path-word kernel at eps identically 1, where d_eps is the tree metric."""
    space = HTreeSpace(EpsilonSequence([1] * 65), 64)
    dist = kernel_block(space, rows, cols)
    dr = [int(i).bit_length() - 1 for i in rows]
    dc = [int(j).bit_length() - 1 for j in cols]
    return [[(dr[a] + dc[b] - int(dist[a, b])) // 2 for b in range(len(dc))]
            for a in range(len(dr))]


def test_heap_lca_block_matches_scalar():
    rows = range(1, 120)
    cols = range(1, 260)
    blk = lca_block(rows, cols)
    verts = enumerate_bn(8)   # heap order: verts[i - 1] has heap index i
    rng = random.Random(3)
    for _ in range(400):
        a, b = rng.randrange(len(rows)), rng.randrange(len(cols))
        i, j = rows[a], cols[b]
        assert blk[a][b] == old_heap_lca_depth(i, j) == verts[i - 1].lca_depth(verts[j - 1])


def test_heap_lca_block_exact_below_2_53():
    # 2^53 - 1 is the all-ones depth-52 vertex, the largest index whose bit
    # length float64 holds exactly; pairs share prefixes of every length
    rng = random.Random(8)
    top = 2 ** 53 - 1
    idx = [1, 2, 3, top, top - 1, 2 ** 52, 2 ** 52 + 1, top >> 1, top >> 30]
    idx += prefix_sharing_indices(rng, 300, 1, 52)
    assert lca_block(idx, idx) == [[old_heap_lca_depth(i, j) for j in idx] for i in idx]
    # the matrix takes vertices past depth 52 too, as scaled_distance does
    space = HTreeSpace(EpsilonSequence([Fraction(1, 5)] * 65), 64)
    for far in ((0,) * 53, (1,) * 53, (1,) * 61, (0,) * 64, (1,) * 64):
        for verts in ([TreeVertex(far), ROOT, TreeVertex((1,))],
                      [TreeVertex((0, 1)), TreeVertex(far)]):
            assert scaled_distance_matrix(space, verts).tolist() == \
                [[space.scaled_distance(x, y) for y in verts] for x in verts]
    top = TreeVertex((1,) * 52)
    assert scaled_distance_matrix(space, [top, ROOT])[0, 1] == space.scaled_distance(top, ROOT)
    # the root (heap index 1) has no parent or sibling (no index below 1)
    for op in (ROOT.parent, ROOT.sibling):
        with pytest.raises(PreconditionViolated):
            op()


def test_bit_length_exact_on_all_64_bits():
    # at 2^k - 1 and 2^k for every k <= 64 that the dtype holds: float64
    # alone rounds 2^54 - 1 up to 2^54, one bit too long
    import numpy as np
    edges = sorted({0} | {2 ** k - d for k in range(65) for d in (0, 1)})
    for dtype, values in ((np.int64, [e for e in edges if e < 2 ** 63]),
                          (np.uint64, edges[:-1]), (object, edges + [2 ** 200 - 1])):
        got = bit_length(np.array(values, dtype=dtype))
        assert got.dtype == np.int64
        assert got.tolist() == [v.bit_length() for v in values], dtype
        # any shape, as the matrix kernels pass row blocks
        assert bit_length(np.array(values, dtype=dtype)[None, :]).tolist() == [got.tolist()]


def test_scaled_path_distance_matches_scaled_distance():
    # elementwise den * d_eps on (depth, path bits) arrays, as the sampled
    # triangle check draws them, through aligned_paths: uint64 paths to
    # depth 64, Python ints past it, and an object result where den * d_eps
    # could pass 2^61
    import numpy as np
    rng = random.Random(64)
    huge = EpsilonSequence([Fraction(1, 2 ** 70 + 1)] * 3 + [Fraction(1, 3 ** 50)] * 98,
                           check=False)
    seen = set()
    for eps, depth in [(random_valid_epsilon(rng, 64), 64), (random_valid_epsilon(rng, 100), 100),
                       (EpsilonSequence([3] * 70, check=False), 63), (huge, 64), (huge, 100),
                       (EpsilonSequence([Fraction(1, 2)] * 101, check=False), 100)]:
        space = HTreeSpace(eps, depth)
        verts = [TreeVertex(tuple(rng.randrange(2) for _ in range(rng.choice(
            [0, 1, depth, depth - 1, rng.randint(0, depth)])))) for _ in range(300)]
        verts += [ROOT, TreeVertex((1,) * depth), TreeVertex((0,) * depth)]
        ha = np.array([v.depth for v in verts], dtype=np.int64)
        paths = np.array([v.index - (1 << v.depth) for v in verts],
                         dtype=np.uint64 if depth <= 64 else object)
        words = aligned_paths(space, ha, paths)
        order = [rng.randrange(len(verts)) for _ in range(len(verts))]
        got = scaled_path_distance(space, ha, words, ha[order], words[order])
        assert got.dtype == (np.int64 if trees._scaled_fits(space, depth) else object)
        seen.add((got.dtype, paths.dtype))
        assert got.tolist() == [space.scaled_distance(verts[i], verts[j])
                                for i, j in enumerate(order)], depth
    assert len(seen) == 4


def test_tree_metric_equality_counts():
    one = EpsilonSequence([Fraction(1)] * 7)
    assert tree_metric_equality_violations(one, 6) == 0
    contracted = EpsilonSequence([Fraction(1, 5)] * 7)
    assert tree_metric_equality_violations(contracted, 6) > 0


def test_tree_metric_equality_counts_match_brute_force():
    # the ordered pairs (x, y) of B_depth with d_eps(x, y) != the tree metric,
    # counted pair by pair
    rng = random.Random(20261020)
    for depth in range(6):
        for eps in [EpsilonSequence([Fraction(1)] * (depth + 1))] + \
                [random_valid_epsilon(rng, depth) for _ in range(4)]:
            space = HTreeSpace(eps, depth)
            verts = enumerate_bn(depth)
            brute = sum(space.distance(x, y) != tree_distance(x, y)
                        for x in verts for y in verts)
            assert tree_metric_equality_violations(eps, depth) == brute
            if set(eps.values) == {1}:
                assert brute == 0


# The walks over all of B_depth by row blocks that the orbit-class counts
# replaced, kept as their oracles: O(depth * 4^depth) time, and memory
# bounded by the rows of a block.

BLOCK_ROWS = 256
BLOCK_ENTRIES = 2 ** 19


def _row_blocks(space, depth, block_rows=BLOCK_ROWS, block_entries=BLOCK_ENTRIES):
    """Walk B_depth in blocks of block_rows heap-ordered rows (fewer where a
    block would pass block_entries entries): yield (rows, h, lca, scaled),
    where rows slices the heap order, h holds every vertex's depth, and lca
    and scaled are the lca depths and den * d_eps of the rows against all
    of B_depth."""
    import numpy as np
    two_eps = np.array(space._two_eps, dtype=np.int64)
    idx = np.arange(1, 2 ** (depth + 1), dtype=np.int64)
    h = bit_length(idx) - 1
    step = max(1, min(block_rows, block_entries // len(idx)))
    for lo in range(0, len(idx), step):
        rows = slice(lo, lo + step)
        lca, scaled = heap_scaled_block(idx[rows, None], h[rows, None], idx, h,
                                        space.den, two_eps)
        yield rows, h, lca, scaled


def row_block_equality_violations(eps, depth):
    space = HTreeSpace(eps, depth)
    count = 0
    for rows, h, lca, scaled in _row_blocks(space, depth):
        count += int((scaled != (h[rows, None] + h - 2 * lca) * space.den).sum())
    return count


def row_block_triangle_violations(eps, depth, block_rows=BLOCK_ROWS,
                                  block_entries=BLOCK_ENTRIES):
    """One representative row d(r_h, .) per level, times the level's size,
    compared against each row block of d(k, .)."""
    import numpy as np
    from mconvex.metric import narrowest_int
    space = HTreeSpace(eps, depth)
    idx = np.arange(1, 2 ** (depth + 1), dtype=np.int64)
    levels = np.arange(depth + 1, dtype=np.int64)[:, None]
    rep_rows = heap_scaled_block(2 ** levels, levels, idx, bit_length(idx) - 1, space.den,
                                 np.array(space._two_eps, dtype=np.int64))[1]
    dtype = narrowest_int(2 * int(abs(rep_rows).max()))
    rep_rows = rep_rows.astype(dtype)
    count = 0
    for rows, _, _, scaled in _row_blocks(space, depth, block_rows, block_entries):
        scaled = scaled.astype(dtype)
        for level, r in enumerate(rep_rows):
            count += int(np.count_nonzero(r > r[rows, None] + scaled)) << level
    return count


def brute_triangle_violations(eps, depth):
    """The ordered triples (i, k, j) of B_depth with d(i, j) > d(i, k) + d(k, j),
    counted on the full matrix: the count htree-validate ran before the
    orbit count."""
    import numpy as np
    from mconvex.metric import triangle_failures
    mat = scaled_distance_matrix(HTreeSpace(eps, depth), enumerate_bn(depth))
    return sum(int(np.count_nonzero(bad)) for _, bad in triangle_failures(mat))


def arbitrary_schedule(rng, n):
    """Positive rationals eps_0..eps_n, mostly not a valid schedule."""
    return EpsilonSequence([Fraction(rng.randint(1, 9), rng.randint(1, 9))
                            for _ in range(n + 1)], check=False)


def test_orbit_classes_partition_the_pairs():
    # the classes of (r_h, k), each level's size 2^h times, cover the n^2
    # ordered pairs of B_depth; every representative lies in B_depth and
    # meets r_h at the lca depth its class names
    for depth in range(10):
        classes = list(trees._orbit_classes(depth))
        assert sum(size << h for h, _, size in classes) == (2 ** (depth + 1) - 1) ** 2
        for h, k, size in classes:
            hk = k.bit_length() - 1
            a = TreeVertex.lca_depth(trees._vertex(1 << h), trees._vertex(k))
            assert hk <= depth
            assert size == (1 << max(hk - h, 0) if a == min(h, hk) else 1 << (hk - a - 1))


def test_tree_metric_equality_counts_match_the_row_blocks():
    rng = random.Random(20261021)
    bad = 0
    for depth in range(9):
        for eps in ([EpsilonSequence([Fraction(1)] * (depth + 1))]
                    + [random_valid_epsilon(rng, depth) for _ in range(2)]
                    + [arbitrary_schedule(rng, depth) for _ in range(2)]):
            count = tree_metric_equality_violations(eps, depth)
            assert count == row_block_equality_violations(eps, depth), (depth, eps.values)
            assert type(count) is int
            bad += count > 0
    assert bad >= 20


@pytest.mark.parametrize("rows, entries", [(1, BLOCK_ENTRIES), (16, BLOCK_ENTRIES),
                                           (BLOCK_ROWS, BLOCK_ENTRIES), (BLOCK_ROWS, 100)])
def test_htree_triangle_violations_match_the_full_matrix(rows, entries):
    # the orbit-class count and the row-block oracle against the brute force
    # over all of B_depth, on valid schedules (count 0) and on arbitrary
    # positive ones (some with violations); the oracle at any row block size,
    # also where the entry cap sets it (100 entries: 1..3 rows from depth 5)
    rng = random.Random(20261019)
    bad = 0
    for depth in range(8):
        for eps in ([random_valid_epsilon(rng, depth) for _ in range(2)]
                    + [arbitrary_schedule(rng, depth) for _ in range(4)]):
            count = htree_triangle_violations(eps, depth)
            assert count == brute_triangle_violations(eps, depth), (depth, eps.values)
            assert count == row_block_triangle_violations(eps, depth, rows, entries)
            assert type(count) is int
            if not epsilon_violations(eps.values):
                assert count == 0
            bad += count > 0
    assert bad >= 5


def test_htree_triangle_violations_match_the_row_blocks():
    # the orbit-class count against the row-block count it replaced: 63
    # schedules at depths 0..8 and 4 each at depths 9 and 10, valid and
    # arbitrary, many of them with violations
    rng = random.Random(20261022)
    cases = [(depth, eps) for depth in range(9)
             for eps in ([random_valid_epsilon(rng, depth) for _ in range(2)]
                         + [arbitrary_schedule(rng, depth) for _ in range(5)])]
    cases += [(depth, eps) for depth in (9, 10)
              for eps in (random_valid_epsilon(rng, depth), *(arbitrary_schedule(rng, depth)
                                                              for _ in range(3)))]
    bad = {}
    for depth, eps in cases:
        count = htree_triangle_violations(eps, depth)
        assert count == row_block_triangle_violations(eps, depth), (depth, eps.values)
        if not epsilon_violations(eps.values):
            assert count == 0
        bad[depth] = bad.get(depth, 0) + (count > 0)
    assert sum(bad[d] for d in range(9)) >= 20
    assert bad[9] >= 2 and bad[10] >= 2


def test_htree_triangle_violations_guards():
    # the depth bound EXHAUSTIVE_TRIANGLE_DEPTH and the guard of
    # scaled_distance_matrix
    wide = EpsilonSequence([Fraction(1, 3)] * 22)
    for depth in (trees.EXHAUSTIVE_TRIANGLE_DEPTH + 1, 21):
        with pytest.raises(TooLarge):
            htree_triangle_violations(wide, depth)
    huge = EpsilonSequence([Fraction(1, 2 ** 62 + 1)] * 3)
    with pytest.raises(TooLarge):
        scaled_distance_matrix(HTreeSpace(huge, 2), enumerate_bn(2))
    with pytest.raises(TooLarge):
        htree_triangle_violations(huge, 2)
    with pytest.raises(ValueError):
        htree_triangle_violations(wide, 22)
    assert htree_triangle_violations(EpsilonSequence([1]), 0) == 0


def rand_vertex(rng, depth):
    return TreeVertex(tuple(rng.randint(0, 1) for _ in range(depth)))


@settings(deadline=None)
@given(st.integers(0, 10 ** 6))
def test_stitch_lemmas_randomized(seed):
    rng = random.Random(seed)
    sp = htree(Fraction(1, rng.choice([3, 5, 9])), 20)
    hx = rng.randint(2, 12)
    x = rand_vertex(rng, hx)
    x_prime = rand_vertex(rng, rng.randint(0, 12))
    off = rng.randint(0, min(x.depth, x_prime.depth))
    stitch_ancestor(x, x_prime, x.ancestor(x.depth - off),
                    x_prime.ancestor(x_prime.depth - off), sp)
    k = rng.randint(0, 5)
    y = x.descend(tuple(rng.randint(0, 1) for _ in range(k)))
    y_prime = x_prime.descend(tuple(rng.randint(0, 1) for _ in range(k)))
    stitch_descendant(x, x_prime, y, y_prime, sp)
    z = rand_vertex(rng, rng.randint(0, hx))
    try:
        stitch_horizontal(x, x_prime, z, sp)
    except (PreconditionViolated, DepthExceeded):
        pass  # near-root / max-depth corner cases are allowed to refuse


def test_stitch_ancestor_rejects_mismatched_offsets():
    sp = htree(Fraction(1, 5), 10)
    x = TreeVertex((0, 0, 1))
    with pytest.raises(PreconditionViolated):
        stitch_ancestor(x, x.ancestor(1), x, x.ancestor(2), sp)


class FakeDistances(HTreeSpace):
    """A contracted tree whose distance between distinct vertices is replaced
    by `fake(x, y)`, to drive the stitching checks past their bounds."""

    def __init__(self, fake):
        super().__init__(EpsilonSequence([Fraction(1, 5)] * 11), 10)
        self.fake = fake

    def distance(self, x, y):
        return Fraction(0) if x == y else Fraction(self.fake(x, y))


def test_stitch_ancestor_bound_is_checked():
    # shallow pairs farther apart than deep ones
    sp = FakeDistances(lambda x, y: Fraction(1, 1 + min(x.depth, y.depth)))
    x, x_prime = TreeVertex((0, 0, 1)), TreeVertex((1, 1, 0))
    with pytest.raises(InvariantViolated, match="ancestor stitching"):
        stitch_ancestor(x, x_prime, x.ancestor(1), x_prime.ancestor(1), sp)


def test_stitch_horizontal_bound_is_checked():
    sp = FakeDistances(lambda x, y: Fraction(1, 1 + min(x.depth, y.depth)))
    x, x_prime, y = TreeVertex((0, 0, 0, 0)), TreeVertex((1, 1, 1)), TreeVertex((0, 1))
    # h(x) > h(x'): y' is y's ancestor at depth 1, so d(y, y') = 1/2 > d(x, x') = 1/4
    with pytest.raises(InvariantViolated, match="horizontal stitching"):
        stitch_horizontal(x, x_prime, y, sp)


def test_stitch_descendant_bound_is_checked():
    # deep pairs stretched far beyond 2 eps per level
    sp = FakeDistances(lambda x, y: 1 + x.depth + y.depth)
    x, x_prime = TreeVertex((0,)), TreeVertex((1,))
    with pytest.raises(InvariantViolated, match="descendant stitching"):
        stitch_descendant(x, x_prime, x.descend((0, 0)), x_prime.descend((0, 0)), sp)


def old_epsilon_violations(values):
    """epsilon_violations as it was before the integer checks, kept verbatim
    as the oracle."""
    violations = []
    vals = [Fraction(v) for v in values]
    for n, v in enumerate(vals):
        if v <= 0:
            violations.append(("nonpositive", n))
            break
    for n, v in enumerate(vals):
        if v > 1:
            violations.append(("above_one", n))
            break
    for n in range(len(vals) - 1):
        if vals[n + 1] > vals[n]:
            violations.append(("increasing", n + 1))
            break
    for n in range(len(vals) - 1):
        if (n + 1) * vals[n + 1] < n * vals[n]:
            violations.append(("n_eps_decreasing", n + 1))
            break
    return violations


def _faulty_schedule(rng):
    """A valid schedule with zero, one or several random faults put in."""
    vals = list(random_valid_epsilon(rng, rng.randint(0, 30)).values)
    for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
        n = rng.randrange(len(vals))
        fault = rng.randrange(6)
        if fault == 0:    # zero tail: nonpositive, nothing else
            vals[n:] = [Fraction(0)] * (len(vals) - n)
        elif fault == 1:  # negative value
            vals[n] = -vals[n]
        elif fault == 2:  # constant above one
            vals = [Fraction(rng.randint(5, 9), 4)] * len(vals)
        elif fault == 3:  # a bump up
            vals[n] *= Fraction(rng.randint(101, 300), 100)
        elif fault == 4:  # a dip down
            vals[n] *= Fraction(rng.randint(1, 99), 100)
        else:             # a dip at the end only breaks n * eps_n
            vals[-1] *= Fraction(rng.randint(1, 99), 100)
    return vals


def test_epsilon_violations_matches_old_fraction_loops():
    """The integer-numerator checks list the same (kind, first index) pairs,
    in the same order, as the Fraction loops, on valid schedules, each fault
    alone, combined faults and raw int/str/Fraction inputs."""
    rng = random.Random(20261019)
    seen = {}
    cases = [_faulty_schedule(rng) for _ in range(600)]
    cases += [[Fraction(1, 3)] + [Fraction(0)] * k for k in range(1, 4)]
    for vals in cases[:200]:
        raw = rng.choice((str, Fraction, lambda v: v))
        cases.append([raw(v) for v in vals])
    cases += [[1, 1, 1], [2], [0], [1, 0], [3, 2, 1], ["1/4", "1/5", "1/6"],
              ["1/2", 1, Fraction(1, 3)], [], [Fraction(-1, 7)]]
    for vals in cases:
        expected = old_epsilon_violations(vals)
        assert epsilon_violations(vals) == expected, vals
        kinds = tuple(kind for kind, _ in expected)
        seen[kinds] = seen.get(kinds, 0) + 1
    assert seen[()] >= 50
    for kind in ("nonpositive", "above_one", "increasing", "n_eps_decreasing"):
        assert seen.get((kind,), 0) >= 10, (kind, seen)
    assert sum(c for kinds, c in seen.items() if len(kinds) >= 2) >= 50, seen


def test_epsilon_sequence_is_immutable_and_precomputed():
    eps = EpsilonSequence(["1/2", Fraction(1, 2), 0.25])
    assert eps.values == (Fraction(1, 2), Fraction(1, 2), Fraction(1, 4))
    assert isinstance(eps.values, tuple) and eps.classifier_ready is False
    assert EpsilonSequence([Fraction(1, 5)] * 3).classifier_ready is True


def test_vertex_derivations_check_only_new_bits():
    v = TreeVertex((1, 0, 1, 1))
    assert v.ancestor(2) == TreeVertex((1, 0)) and v.parent() == TreeVertex((1, 0, 1))
    assert v.lca(TreeVertex((1, 0, 0))) == TreeVertex((1, 0))
    assert v.descend_zeros(2) == TreeVertex((1, 0, 1, 1, 0, 0))
    assert v.child(0) == TreeVertex((1, 0, 1, 1, 0))
    assert v.descend([1, 0]) == TreeVertex((1, 0, 1, 1, 1, 0))
    assert all(type(u.index) is int for u in (v.ancestor(0), v.lca(ROOT), v.descend([1])))
    for bad in (2, -1, 0.5):
        with pytest.raises(ValueError):
            v.child(bad)
        with pytest.raises(ValueError):
            v.descend((0, bad))
    with pytest.raises(PreconditionViolated):
        v.ancestor(5)
