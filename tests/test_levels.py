import itertools

import numpy as np
from mschemes.gf import Poly, field_ctx
from mschemes.levels import build_levels


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
    # force the matrix path by lowering the batch threshold indirectly:
    assert lv.reduction_matrix() is not None or lv.dim < 64


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
        b = lv2.embed_from_below(lv1, j, a)
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
        lv2.embed_from_below(lv1, 1, ab),
        lv2.mult(lv2.embed_from_below(lv1, 1, a), lv2.embed_from_below(lv1, 1, b)),
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
