import copy
import itertools
import random

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mschemes.factor import _eval_vec, _monomial_values
from mschemes.gf import Poly, field_ctx
from mschemes.levels import LevelAlgebra, build_levels


def make_levels(p, root_ints, m, d=1):
    ctx = field_ctx(p, d)
    roots = [ctx.elem(r) for r in root_ints]
    f = Poly(ctx, [1])
    for r in roots:
        f = f * Poly(ctx, [-r, ctx.one()])
    return ctx, roots, build_levels(f, m, 10**6)


def evaluate(level, vec, tup, roots):
    """Transparent oracle: value of the coefficient vector at a root tuple."""
    ctx = level.ctx
    t = level.to_tensor(vec)
    total = ctx.zero()
    for exps in itertools.product(*(range(e) for e in level.extents)):
        digits = t[exps + (slice(None),)]
        coeff = ctx.elem([int(x) for x in digits])
        if coeff.is_zero():
            continue
        mono = ctx.one()
        for e, ri in zip(exps, tup):
            mono = mono * roots[ri] ** e
        total = total + coeff * mono
    return total


def essential_tuples(n, s):
    return list(itertools.permutations(range(n), s))


def rand_vec(level, seed):
    rng = np.random.RandomState(seed)
    return rng.randint(0, level.ops.p, size=(level.dim, level.ops.d)).astype(np.int64)


def test_dims():
    _, _, levels = make_levels(7, [1, 2, 4], 3)
    assert [lv.dim for lv in levels] == [3, 6, 6]
    _, _, levels = make_levels(13, [5, 8], 1)  # x^2 + 1 over F_13
    assert [lv.dim for lv in levels] == [2]


def test_mult_matches_pointwise():
    # level 1 is k[x]/(f) itself
    ctx, roots, levels = make_levels(7, [1, 2, 4], 2)
    for lv in levels:
        u, v = rand_vec(lv, 1), rand_vec(lv, 2)
        w = lv.mult(u, v)
        for tup in essential_tuples(3, lv.s):
            assert evaluate(lv, w, tup, roots) == evaluate(lv, u, tup, roots) * evaluate(lv, v, tup, roots)


def test_mult_extension_field():
    ctx, roots, levels = make_levels(5, [1, 4], 2, d=2)
    lv = levels[1]
    u, v = rand_vec(lv, 3), rand_vec(lv, 4)
    w = lv.mult(u, v)
    for tup in essential_tuples(2, 2):
        assert evaluate(lv, w, tup, roots) == evaluate(lv, u, tup, roots) * evaluate(lv, v, tup, roots)


def test_mult_batch_matches_mult():
    _, _, levels = make_levels(11, [1, 3, 4, 5, 9], 3)
    lv = levels[2]
    lv_small = levels[1]
    rows = np.stack([rand_vec(lv, i) for i in range(10)])
    v = rand_vec(lv, 99)
    got = lv.mult_batch(rows, v)
    for i in range(10):
        assert np.array_equal(got[i], lv.mult(rows[i], v))
    # this dim-60 level has R, so both sides are the matrix path
    assert lv.reduction_matrix() is not None


def test_identity_and_power():
    _, roots, levels = make_levels(7, [1, 2, 4], 2)
    for lv in levels:
        u = rand_vec(lv, 5)
        assert np.array_equal(lv.mult(u, lv.identity()), u % 7)
        assert np.array_equal(lv.power(u, 0), lv.identity())
        e = lv.idempotent_of(u)
        assert np.array_equal(lv.power(u, 0, e), e)  # u^0 is the unit passed in
        w = lv.power(u, 6)  # componentwise a^6 = 1 on the support
        for tup in essential_tuples(3, lv.s):
            val = evaluate(lv, u, tup, roots)
            expect = val**6
            assert evaluate(lv, w, tup, roots) == expect


def test_power_multiplies_through_mult(monkeypatch):
    # the benchmark tracer counts products at LevelAlgebra.mult
    _, _, levels = make_levels(7, [1, 2, 4], 2)
    lv = levels[1]
    u = rand_vec(lv, 5)
    calls = []
    mult = LevelAlgebra.mult

    def counting(self, a, b):
        calls.append(self)
        return mult(self, a, b)

    monkeypatch.setattr(LevelAlgebra, "mult", counting)
    w = lv.power(u, 6)
    assert len(calls) == 4  # 6 = 0b110: two products, two squarings
    assert np.array_equal(w, mult(lv, mult(lv, u, u), mult(lv, mult(lv, u, u), mult(lv, u, u))))


def test_idempotent_of():
    ctx, roots, levels = make_levels(7, [1, 2, 4], 2)
    lv = levels[1]
    u = rand_vec(lv, 6)
    e = lv.idempotent_of(u)
    for tup in essential_tuples(3, 2):
        val = evaluate(lv, u, tup, roots)
        ev = evaluate(lv, e, tup, roots)
        assert ev == (ctx.zero() if val.is_zero() else ctx.one())


def test_apply_perm_supports_forward():
    ctx, roots, levels = make_levels(7, [1, 2, 4], 3)
    lv = levels[2]
    u = rand_vec(lv, 7)
    for tau in itertools.permutations(range(3)):
        w = lv.apply_perm(tau, u)
        for tup in essential_tuples(3, 3):
            # action convention: (u^tau)(v^tau) = u(v) with (v^tau)_j = v_{tau(j)}
            imaged = tuple(tup[tau[j]] for j in range(3))
            assert evaluate(lv, w, imaged, roots) == evaluate(lv, u, tup, roots)


def test_embed_from_below():
    ctx, roots, levels = make_levels(7, [1, 2, 4], 2)
    lv1, lv2 = levels[0], levels[1]
    a = rand_vec(lv1, 8)
    for j in (1, 2):
        b = lv2.embed_from_below(lv1, (j,), a)
        for tup in essential_tuples(3, 2):
            dropped = tuple(v for pos, v in enumerate(tup) if pos != j - 1)
            assert evaluate(lv2, b, tup, roots) == evaluate(lv1, a, dropped, roots)


def test_embed_product_rule():
    # iota_1(a) * iota_2(b) evaluates to a(v2)... pinned by the evaluation test;
    # here: homomorphism on random pairs
    _, roots, levels = make_levels(7, [1, 2, 4], 2)
    lv1, lv2 = levels[0], levels[1]
    a, b = rand_vec(lv1, 9), rand_vec(lv1, 10)
    ab = lv1.mult(a, b)
    assert np.array_equal(
        lv2.embed_from_below(lv1, (1,), ab),
        lv2.mult(lv2.embed_from_below(lv1, (1,), a), lv2.embed_from_below(lv1, (1,), b)),
    )


def test_rel_trace_fibre_sums():
    ctx, roots, levels = make_levels(7, [1, 2, 4], 2)
    lv1, lv2 = levels[0], levels[1]
    u = rand_vec(lv2, 11)
    tr = lv2.rel_trace_last(lv1, u)
    n = 3
    for base in essential_tuples(n, 1):
        total = ctx.zero()
        for extra in range(n):
            if extra != base[0]:
                total = total + evaluate(lv2, u, (base[0], extra), roots)
        assert evaluate(lv1, tr, base, roots) == total


def test_rel_trace_level3():
    ctx, roots, levels = make_levels(11, [1, 3, 4, 5, 9], 3)
    lv2, lv3 = levels[1], levels[2]
    u = rand_vec(lv3, 12)
    tr = lv3.rel_trace_last(lv2, u)
    for base in essential_tuples(5, 2):
        total = ctx.zero()
        for extra in range(5):
            if extra not in base:
                total = total + evaluate(lv3, u, base + (extra,), roots)
        assert evaluate(lv2, tr, base, roots) == total


# -- the level kernel against evaluation at explicit roots ---------------------


def check_kernel(roots, levels, seed):
    """mult, mult_batch, apply_perm, embed_from_below, mult_lower and
    rel_trace_last of the top level commute with evaluation at every
    essential tuple."""
    lv = levels[-1]
    ops, n, s = lv.ops, len(roots), lv.s
    tuples = np.array(essential_tuples(n, s), dtype=np.int64).reshape(-1, s)
    where = {tuple(tup): i for i, tup in enumerate(tuples.tolist())}

    def values(level, vec):
        tups = np.array(essential_tuples(n, level.s), dtype=np.int64).reshape(-1, level.s)
        return _eval_vec(level, _monomial_values(level, roots, tups), vec)

    u, v = rand_vec(lv, seed), rand_vec(lv, seed + 1)
    eu, ev = values(lv, u), values(lv, v)
    assert np.array_equal(values(lv, lv.mult(u, v)), ops.mul(eu, ev))
    rows = np.stack([rand_vec(lv, seed + 2 + i) for i in range(3)])
    batch = lv.mult_batch(rows, v)
    for row, got in zip(rows, batch):
        assert np.array_equal(values(lv, got), ops.mul(values(lv, row), ev))
    for tau in itertools.permutations(range(s)):
        moved = values(lv, lv.apply_perm(tau, u))
        for i, tup in enumerate(tuples.tolist()):
            assert np.array_equal(moved[where[tuple(tup[k] for k in tau)]], eu[i])
    if s == 1:
        return
    below = levels[-2]
    a = rand_vec(below, seed + 5)
    ea = values(below, a)
    below_at = {tup: i for i, tup in enumerate(essential_tuples(n, s - 1))}
    for j in range(1, s + 1):
        emb = values(lv, lv.embed_from_below(below, (j,), a))
        for i, tup in enumerate(tuples.tolist()):
            assert np.array_equal(emb[i], ea[below_at[tuple(tup[:j - 1] + tup[j:])]])
    # iota_s(a) takes a's value at the tuple without its last entry
    ea_last = np.stack([ea[below_at[tuple(tup[:-1])]] for tup in tuples.tolist()])
    for row, got in zip(rows, lv.mult_lower(below, rows, a)):
        assert np.array_equal(values(lv, got), ops.mul(values(lv, row), ea_last))
    tr = values(below, lv.rel_trace_last(below, u))
    sums = np.zeros_like(tr)
    for i, tup in enumerate(tuples.tolist()):
        sums[below_at[tuple(tup[:-1])]] += eu[i]
    assert np.array_equal(tr, sums % ops.p)


@st.composite
def kernel_cases(draw):
    # 100000007 is past the float64 range, so its R is int64
    p, d = draw(st.sampled_from([(5, 1), (7, 1), (11, 1), (13, 1), (3, 2), (5, 2), (7, 2), (100000007, 1)]))
    n = draw(st.integers(2, 5))
    s = draw(st.integers(1, min(n, 4)))
    # build_levels refuses this draw: 945 cells * (p-1)^2 passes 2^63
    assume(not (p == 100000007 and n == 5 and s == 4))
    roots = draw(st.lists(st.integers(0, p**d - 1), min_size=n, max_size=n, unique=True))
    return p, d, roots, s, draw(st.integers(0, 10**6))


@settings(max_examples=40, deadline=None, database=None)
@given(kernel_cases())
def test_kernel_matches_pointwise(case):
    p, d, root_ints, s, seed = case
    _, roots, levels = make_levels(p, root_ints, s, d)
    assert all(lv.reduction_matrix().dtype == (np.float64 if p < 10**8 else np.int64) for lv in levels)
    check_kernel(roots, levels, seed)


@settings(max_examples=40, deadline=None, database=None)
@given(kernel_cases(), st.integers(1, 4))
def test_mult_lower_matches_embedded_product(case, batch):
    # rows * iota_s(v) as a level s-1 product, byte for byte against the
    # level-s product with the embedded vector, also for a stack of no rows
    p, d, root_ints, s, seed = case
    assume(s >= 2)
    _, _, levels = make_levels(p, root_ints, s, d)
    lv, below = levels[-1], levels[-2]
    v = rand_vec(below, seed)
    for rows in (lv.ops.zeros((0, lv.dim)), np.stack([rand_vec(lv, seed + 1 + i) for i in range(batch)])):
        want = lv.mult_batch(rows, lv.embed_from_below(below, (s,), v))
        got = lv.mult_lower(below, rows, v)
        assert got.dtype == want.dtype and got.shape == want.shape, (p, d, s, len(rows))
        assert got.tobytes() == want.tobytes(), (p, d, s, len(rows))


def test_kernel_matches_pointwise_past_float64():
    # (p-1)^2 > 2^53: every R is int64, and the int64 kernel must be exact
    ctx, roots, levels = make_levels(100000007, [3, 10**7, 5 * 10**7, 10**8], 3)
    assert all(lv.reduction_matrix().dtype == np.int64 for lv in levels)
    lv = levels[2]
    u = rand_vec(lv, 1)
    tup = (0, 3, 1)
    vals = _eval_vec(lv, _monomial_values(lv, roots, np.array([tup])), u)
    assert ctx.elem([int(x) for x in vals[0]]) == evaluate(lv, u, tup, roots)
    for s in range(1, 4):
        check_kernel(roots, levels[:s], 7 * s)
    # the prime of the CLI boundary test: 15*(p-1)^2 is within a relative
    # 1.1e-7 of 2^63, so the longest int64 sums run at their edge
    p = 784150117
    ctx, roots, levels = make_levels(p, [2, 3 * 10**8, p - 1], 3)
    assert 2**63 * (1 - 1.1e-7) < levels[2].prod_cells * (p - 1) ** 2 < 2**63
    assert all(lv.reduction_matrix().dtype == np.int64 for lv in levels)
    for s in range(1, 4):
        check_kernel(roots, levels[:s], 11 * s)


# -- the trace operator against Newton's identities ----------------------------


def newton_trace_op(lv, below):
    """Trace operator of lv onto below, built the old way: q_t = Tr(x_s^t)
    over level s-1 by Newton's identities, then row (a, t) is x^a * q_t."""
    ops, p, e = lv.ops, lv.ops.p, lv.extents[-1]

    def scalar(value):
        v = below.zero()
        v[0, 0] = value % p
        return v

    # monic relation in x_s: x^e + sum_t c_t x^t, so e_i = (-1)^i c_{e-i}
    es = [scalar(1)]
    for i in range(1, e + 1):
        ct = lv.rel[-1][..., e - i, :].reshape(below.dim, ops.d)
        es.append(ct if i % 2 == 0 else (-ct) % p)
    # Newton: p_t = sum_{i<t} (-1)^(i-1) e_i p_{t-i} + (-1)^(t-1) t e_t
    qs = [scalar(e)]
    for t in range(1, e):
        acc = below.zero()
        for i in range(1, t):
            term = below.mult(es[i], qs[t - i])
            acc = (acc + term) % p if i % 2 == 1 else (acc - term) % p
        tail = (t * es[t]) % p
        qs.append((acc + tail) % p if t % 2 == 1 else (acc - tail) % p)
    eye = ops.eye(below.dim)
    rows = np.stack([below.mult_batch(eye, q) for q in qs], axis=1)
    return ops.operand(rows.reshape(lv.dim, below.dim, ops.d))


def trace_cases():
    """Every 2 <= s <= n <= 5 that build_levels accepts, over five fields;
    100000007 is past the float64 range, so its R is int64."""
    for p, d in [(7, 1), (11, 1), (5, 2), (7, 2), (100000007, 1)]:
        for n in range(2, 6):
            for s in range(2, n + 1):
                if p == 100000007 and n == 5 and s >= 4:
                    continue  # 945 cells * (p-1)^2 passes 2^63
                yield p, d, n, s


def test_trace_op_matches_newton():
    cases = list(trace_cases())
    assert len(cases) == 48
    for k, (p, d, n, s) in enumerate(cases):
        roots = random.Random(k).sample(range(p**d), n)
        _, _, levels = make_levels(p, roots, s, d)
        lv, below = levels[-1], levels[-2]
        lv.rel_trace_last(below, lv.zero())
        want = newton_trace_op(lv, below)
        got = lv._trace_op
        assert got.dtype == want.dtype and got.shape == want.shape, (p, d, n, s)
        assert got.tobytes() == want.tobytes(), (p, d, n, s)


def test_trace_op_makes_no_products(monkeypatch):
    # no level multiplies: not for R, not for the trace operator, not for
    # the s = n = 5 operators of the reversal and of every embedding, whose
    # rows leave the product space
    def build(levels):
        top, below = levels[4], levels[3]
        return ([levels[2].rel_trace_last(levels[1], u), top.apply_perm((4, 3, 2, 1, 0), v)]
                + [top.embed_from_below(below, (j,), a) for j in range(1, 6)])

    _, _, levels = make_levels(11, [1, 3, 4, 5, 9], 5)
    u, v, a = rand_vec(levels[2], 13), rand_vec(levels[4], 14), rand_vec(levels[3], 15)
    want = build(levels)

    def refuse(*args):
        raise AssertionError("the operators make no level product")

    monkeypatch.setattr(LevelAlgebra, "mult", refuse)
    monkeypatch.setattr(LevelAlgebra, "mult_batch", refuse)
    _, _, fresh = make_levels(11, [1, 3, 4, 5, 9], 5)
    for got, expect in zip(build(fresh), want, strict=True):
        assert np.array_equal(got, expect)


# -- monomial operators against products of variables --------------------------


def variable(lv, j):
    """Canonical vector of x_j (0-based axis j)."""
    if lv.extents[j] == 1:
        # the last axis at s = n: its relation x_j + c_0 has degree 1
        return (-lv.rel[j][..., 0, :]).reshape(lv.dim, lv.ops.d) % lv.ops.p
    v = lv.zero()
    v[np.ravel_multi_index(np.eye(lv.s, dtype=np.int64)[j], lv.extents), 0] = 1
    return v


def product_monomial_op(lv, exps, memo):
    """Monomial operator built the old way: a row of R inside the product
    space, else a product of powers of the variables.  memo caches those
    rows by exponent tuple, and the powers by ("x", axis, exponent), across
    calls on lv."""
    R, d = lv.reduction_matrix(), lv.ops.d
    rows = np.empty((exps.shape[0], lv.dim, d), dtype=np.int64)
    inside = (exps < np.array(lv.pshape)).all(axis=1)
    rows[inside] = R[np.ravel_multi_index(tuple(exps[inside].T), lv.pshape) * d].reshape(-1, lv.dim, d)
    for i in np.flatnonzero(~inside):
        key = tuple(exps[i].tolist())
        if key not in memo:
            row = lv.identity()
            for j, e in enumerate(key):
                if e:
                    if ("x", j, e) not in memo:
                        memo["x", j, e] = lv.power(variable(lv, j), e)
                    row = lv.mult(row, memo["x", j, e])
            memo[key] = row
        rows[i] = memo[key]
    return lv.ops.operand(rows), int((~inside).sum())


def test_monomial_ops_match_products():
    outside = 0
    for k, (p, d, n, s) in enumerate(trace_cases()):
        roots = random.Random(k).sample(range(p**d), n)
        _, _, levels = make_levels(p, roots, s, d)
        lv, below = levels[-1], levels[-2]
        memo = {}
        exps = [lv.cells()[:, list(tau)] for tau in itertools.permutations(range(s))]
        exps += [np.insert(below.cells(), j - 1, 0, axis=1) for j in range(1, s + 1)]
        for e in exps:
            want, rows_out = product_monomial_op(lv, e, memo)
            got = lv._monomial_op(e)
            outside += rows_out
            assert got.dtype == want.dtype and got.shape == want.shape, (p, d, n, s)
            assert got.tobytes() == want.tobytes(), (p, d, n, s)
    assert outside == 39832  # rows stepped by x_j past the product space


# -- embeddings against the chained embedding operators ------------------------


def chained_embed(levels, slots, vec, ops):
    """Embedding built the old way: one embedding operator per level from
    level s-k up, inserting the 1-based `slots` in ascending order, so that
    each slot is final when it is inserted.  ops caches the operators by
    (level, slot)."""
    s = levels[-1].s
    out = vec
    for lvl, j in enumerate(sorted(slots), start=s - len(slots) + 1):
        lv, below = levels[lvl - 1], levels[lvl - 2]
        if (lvl, j) not in ops:
            ops[lvl, j] = lv._monomial_op(np.insert(below.cells(), j - 1, 0, axis=1))
        out = lv.ops.matmul_op(out, ops[lvl, j])
    return out


def test_embed_matches_chained_operators():
    # every slot set of size 1..s-1, on one vector and on a stack of two
    checked = 0
    for k, (p, d, n, s) in enumerate(trace_cases()):
        roots = random.Random(k).sample(range(p**d), n)
        _, _, levels = make_levels(p, roots, s, d)
        lv, ops = levels[-1], {}
        for size in range(1, s):
            below = levels[s - size - 1]
            for slots in itertools.combinations(range(1, s + 1), size):
                for vec in (rand_vec(below, k), np.stack([rand_vec(below, k + 1), rand_vec(below, k + 2)])):
                    want = chained_embed(levels, slots, vec, ops)
                    got = lv.embed_from_below(below, slots, vec)
                    assert got.dtype == want.dtype and got.shape == want.shape, (p, d, n, s, slots)
                    assert got.tobytes() == want.tobytes(), (p, d, n, s, slots)
                checked += 1
    assert checked == 376


def test_embed_builds_at_most_one_permutation_operator(monkeypatch):
    # a k-slot embedding adds at most one `_perm_ops` entry at its own
    # level, none for the trailing slots, and builds nothing below
    monomial_op, built = LevelAlgebra._monomial_op, []

    def counting(self, exps):
        built.append(self.s)
        return monomial_op(self, exps)

    monkeypatch.setattr(LevelAlgebra, "_monomial_op", counting)
    s = 4
    for size in range(1, s):
        for slots in itertools.combinations(range(1, s + 1), size):
            _, _, levels = make_levels(11, [1, 3, 4, 5, 9], s)
            lv, below = levels[-1], levels[s - size - 1]
            built.clear()
            lv.embed_from_below(below, slots, rand_vec(below, 17))
            trailing = slots == tuple(range(s - size + 1, s + 1))
            assert built == ([] if trailing else [s]) and len(lv._perm_ops) == len(built), slots
            assert all(low._perm_ops == {} and low._reduction is None for low in levels[:-1]), slots


# -- the product indices against the gather and pair-sum constructions -------


def toeplitz_index(lv):
    """(dim*d, prod_cells*d) positions, in the flattened (dim+1, d, d) table
    of theta^a * v[m] padded by a zero row, of the Toeplitz operator of v:
    entry ((i, a), (c, t)) is digit t of theta^a * v[c - i], the padding
    where c - i leaves the box.  Built from the difference array of every
    product-space cell and canonical cell."""
    d = lv.ops.d
    pcells = np.indices(lv.pshape).reshape(lv.s, -1).T
    diff = pcells[None, :, :] - lv.cells()[:, None, :]  # (dim, prod_cells, s)
    ext = np.array(lv.extents)
    ok = ((diff >= 0) & (diff < ext)).all(axis=2)
    shift = np.ravel_multi_index(tuple(np.moveaxis(np.clip(diff, 0, ext - 1), -1, 0)), lv.extents)
    shift = np.where(ok, shift, lv.dim)
    digit = np.arange(d)
    index = (shift[:, None, :, None] * d + digit[:, None, None]) * d + digit
    return index.reshape(lv.dim * d, lv.prod_cells * d)


def gather_mult_batch(lv, rows, v):
    """mult_batch with its operator gathered through `toeplitz_index`."""
    if rows.shape[0] == 0:
        return rows.copy()
    ops, d = lv.ops, lv.ops.d
    table = np.zeros((lv.dim + 1, d, d), dtype=lv.reduction_matrix().dtype)
    table[:-1] = ops.mul(v[:, None, :], ops.theta[None, :d, :])
    return lv.reduce_tensor(ops.matmul_op(rows, table.ravel().take(toeplitz_index(lv))))


def pair_bins(lv):
    """kconvolve's bins as the ravel of the pair sums of exponent tuples."""
    d, cells = lv.ops.d, lv.cells()
    pair = np.ravel_multi_index(tuple((cells[:, None] + cells[None]).reshape(-1, lv.s).T), lv.pshape)
    pair = pair.reshape(lv.dim, 1, lv.dim, 1)
    return (pair * (2 * d - 1) + np.add.outer(np.arange(d), np.arange(d))[:, None]).ravel()


def shifted_reduction(lv):
    """R's recurrence with each relation term read at copied and shifted
    exponent tuples; runs on a copy of lv, whose own cache stays unset."""
    lv = copy.copy(lv)
    ops, n_dim, d = lv.ops, lv.dim, lv.ops.d
    T = np.zeros(lv.pshape + (n_dim, d), dtype=np.int64)
    T[tuple(slice(0, e) for e in lv.extents)] = ops.eye(n_dim).reshape(lv.extents + (n_dim, d))
    cells = lv.cells()
    lv._x_top = []
    for j, e in enumerate(lv.extents):
        top = cells[cells[:, j] == e - 1]
        X_top = np.zeros((top.shape[0], n_dim, d), dtype=np.int64)
        for at in np.argwhere(lv.rel[j].any(-1)):
            shifted = top.copy()
            shifted[:, :j] += at[:j]
            shifted[:, j] = at[j]
            X_top -= ops.scalar_mul(lv.rel[j][tuple(at)], T[tuple(shifted.T)])
        lv._x_top.append(ops.operand(X_top % ops.p))
        region = [slice(0, f) for f in lv.pshape[:j]] + [0] + [slice(0, f) for f in lv.extents[j + 1:]]
        for k in range(e, 2 * e - 1):
            region[j] = k - 1
            prev = T[tuple(region)]
            region[j] = k
            T[tuple(region)] = lv._times_x(prev.reshape(-1, n_dim, d), j).reshape(prev.shape)
    return ops.operand(T.reshape(lv.prod_cells, n_dim, d))


@settings(max_examples=40, deadline=None, database=None)
@given(kernel_cases(), st.integers(2, 5))
def test_product_indices_match_gather_and_pair_sums(case, batch):
    # byte for byte: R, kconvolve's bins, and mult_batch for stacks of
    # no row, one row and several rows
    p, d, root_ints, s, seed = case
    _, _, levels = make_levels(p, root_ints, s, d)
    for lv in levels:
        want = shifted_reduction(lv)
        got = lv.reduction_matrix()
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (p, d, lv.s)
        bins = lv._conv_index()[0]
        assert bins.dtype == pair_bins(lv).dtype and bins.tobytes() == pair_bins(lv).tobytes(), (p, d, lv.s)
        v = rand_vec(lv, seed)
        for size in (0, 1, batch):
            rows = np.stack([rand_vec(lv, seed + 1 + i) for i in range(size)]) if size else lv.ops.zeros((0, lv.dim))
            want = gather_mult_batch(lv, rows, v)
            got = lv.mult_batch(rows, v)
            assert got.dtype == want.dtype and got.shape == want.shape, (p, d, lv.s, size)
            assert got.tobytes() == want.tobytes(), (p, d, lv.s, size)


def cached_arrays(obj):
    """Every ndarray held by obj's attributes, through tuples, lists and dicts."""
    stack, found = list(vars(obj).values()), []
    while stack:
        item = stack.pop()
        if isinstance(item, np.ndarray):
            found.append(item)
        elif isinstance(item, (tuple, list)):
            stack.extend(item)
        elif isinstance(item, dict):
            stack.extend(item.values())
    return found


def test_mult_batch_caches_no_operator_sized_index():
    # level 3 of a quintic over F_121: the cached indices are (dim*d)^2, not
    # the (dim*d, prod_cells*d) of a gather index over the whole operator
    _, _, levels = make_levels(11, [1, 3, 4, 5, 9], 3, d=2)
    lv = levels[2]
    rows = np.stack([rand_vec(lv, i) for i in range(3)])
    lv.mult_batch(rows, rand_vec(lv, 3))
    op_shape = (lv.dim * lv.ops.d, lv.prod_cells * lv.ops.d)
    assert (lv.dim, lv.prod_cells, op_shape) == (60, 315, (120, 630))
    cached = cached_arrays(lv)
    assert not [a.shape for a in cached if a.shape == op_shape and np.issubdtype(a.dtype, np.integer)]
    assert any(a.size == (lv.dim * lv.ops.d) ** 2 for a in cached)


def test_apply_perm_identity_builds_no_operator():
    _, _, levels = make_levels(7, [1, 2, 4], 3)
    for lv in levels:
        u = rand_vec(lv, 16)
        assert lv.apply_perm(tuple(range(lv.s)), u) is u
        assert lv.apply_perm(list(range(lv.s)), u) is u
        assert lv._perm_ops == {}
