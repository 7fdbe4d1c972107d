import itertools
import random

import numpy as np
import pytest

from mschemes import gf
from mschemes.factor import rth_root
from mschemes.linalg import KOps
from mschemes.gf import (
    FieldMismatch,
    NoNonresidue,
    NotPrime,
    Overflow,
    Poly,
    extension_for_levels,
    field_ctx,
    find_nonresidue,
    is_split_squarefree,
    multiplicative_order,
    poly_from_text,
    poly_gcd,
    poly_to_text,
)

SMALL_ORDERS = [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (3, 2), (2, 3), (5, 2), (7, 2), (2, 4), (3, 3)]


def brute_roots(f):
    return [a for a in f.ctx.elements() if f(a).is_zero()]


def all_monic(ctx, deg):
    for coeffs in itertools.product(range(ctx.order), repeat=deg):
        yield Poly(ctx, [ctx.from_index(i) for i in coeffs] + [ctx.one()])


def test_field_ctx_prime():
    ctx = field_ctx(7, 1)
    assert ctx.order == 7
    assert ctx.elem(3) + ctx.elem(5) == ctx.elem(1)


def test_field_ctx_f4_modulus():
    # oracle: enumerate monic quadratics over F_2 for irreducibility
    irreducible = []
    for c0, c1 in itertools.product(range(2), repeat=2):
        cand = [c0, c1, 1]
        roots = [x for x in range(2) if (c0 + c1 * x + x * x) % 2 == 0]
        if not roots:
            irreducible.append(tuple(cand))
    assert (1, 1, 1) in irreducible
    ctx = field_ctx(2, 2)
    assert ctx.modulus == (1, 1, 1)
    assert ctx.order == 4


@pytest.mark.parametrize("p,d", [(2, 3), (2, 4), (2, 6), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 3), (11, 2)])
def test_field_ctx_modulus_is_first_irreducible(p, d):
    # oracle: trial division by every monic polynomial of degree <= d/2,
    # over candidates in canonical-index order (constant term fastest)
    base = field_ctx(p, 1)

    def irreducible(f):
        return all(not (f % g).is_zero() for k in range(1, d // 2 + 1) for g in all_monic(base, k))

    cands = (list(reversed(t)) + [1] for t in itertools.product(range(p), repeat=d))
    first = next(cs for cs in cands if irreducible(Poly(base, cs)))
    assert field_ctx(p, d).modulus == tuple(first)


def schoolbook_products(ctx, a, b):
    """Oracle for products in F_{p^d}: digit rows a, b (k, d) convolved,
    then reduced by long division by the modulus, top degree first."""
    p, d = ctx.p, ctx.d
    prod = np.zeros((len(a), 2 * d - 1), dtype=np.int64)
    for i in range(d):
        prod[:, i:i + d] += a[:, i:i + 1] * b
    prod %= p
    modulus = np.array(ctx.modulus, dtype=np.int64)
    for top in range(2 * d - 2, d - 1, -1):
        prod[:, top - d:top + 1] = (prod[:, top - d:top + 1] - prod[:, top:top + 1] * modulus) % p
    return prod[:, :d]


@pytest.mark.parametrize("p, d, pairs", [(2, 5, None), (2, 8, None), (3, 7, 20000)])
def test_products_where_reduction_rows_reduce_twice(p, d, pairs):
    # building these fields' rows x^(d+i) mod the modulus meets a nonzero top
    # coefficient while shifting (for F_32, x^5 + x^2 + 1: x^8 = x^3 + x^2 + 1
    # after x^7 = x^4 + x^2 reduces again); all pairs of F_32 and F_256, a
    # seeded sample of F_2187
    ctx = field_ctx(p, d)
    if (p, d) == (2, 5):
        assert ctx.modulus == (1, 0, 1, 0, 0, 1)
    rng = np.random.default_rng(d)
    if pairs is None:
        i, j = (g.ravel() for g in np.meshgrid(np.arange(ctx.order), np.arange(ctx.order)))
    else:
        i, j = rng.integers(0, ctx.order, (2, pairs))
    digits = np.array([ctx.from_index(k).coeffs for k in range(ctx.order)], dtype=np.int64)
    want = schoolbook_products(ctx, digits[i], digits[j])
    assert np.array_equal(KOps(ctx).mul(digits[i], digits[j]), want)
    elems = [ctx.from_index(k) for k in range(ctx.order)]
    for k in rng.choice(len(i), min(len(i), 2000), replace=False):
        assert (elems[i[k]] * elems[j[k]]).coeffs == tuple(want[k].tolist())


def test_field_ctx_not_prime():
    with pytest.raises(NotPrime):
        field_ctx(4, 1)


def test_field_ctx_overflow():
    # 2^64 is past the 2^63 - 1 magnitude cap
    with pytest.raises(Overflow):
        field_ctx(2, 64)


@pytest.mark.parametrize("p,d", SMALL_ORDERS)
def test_field_axioms(p, d):
    ctx = field_ctx(p, d)
    elems = list(ctx.elements())
    rng = random.Random(12345)
    triples = (
        list(itertools.product(elems, repeat=3))
        if ctx.order <= 8
        else [tuple(rng.choice(elems) for _ in range(3)) for _ in range(400)]
    )
    one = ctx.one()
    for a, b, c in triples:
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
    for a in elems:
        if not a.is_zero():
            assert a * a.inverse() == one


def test_prime_field_inverse_exhaustive():
    for p in filter(gf.is_prime, range(2, 102)):
        ctx = field_ctx(p, 1)
        for c in range(1, p):
            inv = ctx.elem(c).inverse()
            assert inv == ctx.elem(c) ** (p - 2) and (c * inv.coeffs[0]) % p == 1, (p, c)
        with pytest.raises(ZeroDivisionError):
            ctx.zero().inverse()


@pytest.mark.parametrize("p, d", [(2, 3), (3, 2), (5, 2), (23, 2)])
def test_extension_field_inverse_unchanged(p, d):
    # d > 1 still inverts as a^(q-2)
    ctx = field_ctx(p, d)
    for a in ctx.elements():
        if not a.is_zero():
            assert a.inverse() == a ** (ctx.order - 2) and a * a.inverse() == ctx.one()


def test_poly_gcd_examples():
    ctx = field_ctx(7, 1)
    x2m1 = Poly(ctx, [-1, 0, 1])
    xm1 = Poly(ctx, [-1, 1])
    assert poly_gcd(x2m1, xm1) == xm1
    # x^3 - 1 = (x - 1)(x^2 + x + 1), verified by expansion
    cubic = Poly(ctx, [-1, 0, 0, 1])
    quad = Poly(ctx, [1, 1, 1])
    assert xm1 * quad == cubic
    assert poly_gcd(cubic, quad) == quad
    ctx5 = field_ctx(5, 1)
    assert poly_gcd(Poly(ctx5, [0, 1]), Poly(ctx5, [1, 1])) == Poly(ctx5, [1])


def test_poly_gcd_field_mismatch():
    with pytest.raises(FieldMismatch):
        poly_gcd(Poly(field_ctx(5, 1), [1, 1]), Poly(field_ctx(7, 1), [1, 1]))


def test_poly_gcd_divides_and_maximal():
    rng = random.Random(7)
    for p in (5, 7):
        ctx = field_ctx(p, 1)
        for _ in range(40):
            a = Poly(ctx, [rng.randrange(p) for _ in range(rng.randint(1, 7))])
            b = Poly(ctx, [rng.randrange(p) for _ in range(rng.randint(1, 7))])
            if a.is_zero() and b.is_zero():
                continue
            g = poly_gcd(a, b)
            assert (a % g).is_zero() and (b % g).is_zero()
            # any common monic divisor of degree <= 2 divides g
            for deg in (1, 2):
                for d in all_monic(ctx, deg):
                    if (a % d).is_zero() and (b % d).is_zero():
                        assert (g % d).is_zero()


def test_is_split_squarefree_examples():
    ctx = field_ctx(7, 1)
    cubic = Poly(ctx, [-1, 0, 0, 1])
    assert sorted(a.index for a in brute_roots(cubic)) == [1, 2, 4]
    assert is_split_squarefree(cubic)
    x2p1 = Poly(ctx, [1, 0, 1])
    squares = sorted({(i * i) % 7 for i in range(1, 7)})
    assert squares == [1, 2, 4] and 6 not in squares
    assert not is_split_squarefree(x2p1)
    sq = Poly(ctx, [-1, 1]) * Poly(ctx, [-1, 1])
    assert not is_split_squarefree(sq)


@pytest.mark.parametrize("p", [5, 7])
def test_is_split_squarefree_vs_bruteforce(p):
    ctx = field_ctx(p, 1)
    for deg in (1, 2, 3, 4):
        for f in all_monic(ctx, deg):
            expected = len(set(r.index for r in brute_roots(f))) == deg
            assert is_split_squarefree(f) == expected


def test_find_nonresidue_examples():
    ctx = field_ctx(7, 1)
    assert find_nonresidue(2, ctx).index == 3  # squares mod 7 = {1,2,4}
    assert find_nonresidue(3, ctx).index == 2  # cubes mod 7 = {1,6}
    with pytest.raises(NoNonresidue):
        find_nonresidue(3, field_ctx(5, 1))


@pytest.mark.parametrize("p,d", SMALL_ORDERS)
def test_find_nonresidue_property(p, d):
    ctx = field_ctx(p, d)
    q1 = ctx.order - 1
    for r in (2, 3, 5, 7):
        if r == p or q1 % r:
            continue
        a = find_nonresidue(r, ctx)
        assert a ** (q1 // r) != ctx.one()


def test_rth_root_examples():
    ctx = field_ctx(7, 1)
    assert rth_root(ctx.elem(2), 2) == ctx.elem(3)  # 3^2 = 2, 3 < 4
    assert rth_root(ctx.elem(3), 2) is None
    for p, d in SMALL_ORDERS:
        c = field_ctx(p, d)
        for r in {2, 3, p}:
            if not gf.is_prime(r):
                continue
            assert rth_root(c.one(), r) == c.one()


@pytest.mark.parametrize("p,d", SMALL_ORDERS)
def test_rth_root_roundtrip(p, d):
    ctx = field_ctx(p, d)
    for r in sorted({2, 3, p}):
        if not gf.is_prime(r):
            continue
        for a in ctx.elements():
            if a.is_zero():
                continue
            ar = a**r
            root = rth_root(ar, r)
            assert root is not None
            assert root**r == ar
            # canonical-least root
            all_roots = [b for b in ctx.elements() if not b.is_zero() and b**r == ar]
            assert root.index == min(b.index for b in all_roots)


def test_rth_root_builds_one_algebra_per_field(monkeypatch):
    from mschemes import factor

    calls = []
    build = factor.build_levels

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(factor, "build_levels", counting)
    factor._field_algebra.cache_clear()
    ctx = field_ctx(97, 1)
    for b in ctx.elements():
        if not b.is_zero():
            root = rth_root(b * b, 2)
            assert root * root == b * b and root.index <= (-root).index
    assert len(calls) == 1


def test_rth_root_refuses_amm_without_a_root(monkeypatch):
    # a field has no zero divisor, so an AMM result that is not a root is a
    # broken invariant, raised also with asserts stripped
    from mschemes import factor

    monkeypatch.setattr(factor, "_algebra_amm", lambda *args: factor.NoSplit())
    ctx = field_ctx(97, 1)
    with pytest.raises(factor.InvalidSystem):
        rth_root(ctx.elem(4), 2)


def test_rth_root_scans_one_nonresidue_per_field():
    find_nonresidue.cache_clear()
    ctx = field_ctx(97, 1)
    for b in ctx.elements():
        if not b.is_zero():
            assert rth_root(b * b, 2) ** 2 == b * b
    assert find_nonresidue.cache_info().misses == 1


def test_square_and_multiply_skips_final_squaring():
    for e in range(70):
        products = []

        def mul(a, b):
            products.append((a, b))
            return a * b

        assert gf.square_and_multiply(3, e, 1, mul) == 3**e
        # one product per set bit, one squaring per bit below the top one
        assert len(products) == (bin(e).count("1") + e.bit_length() - 1 if e else 0)


def test_poly_powmod_matches_repeated_products():
    ctx = field_ctx(3, 2)
    mod = Poly(ctx, [1, 2, 0, 1])
    base = Poly(ctx, [ctx.from_index(5), 1, ctx.from_index(7)])
    acc = Poly(ctx, [1])
    for e in range(30):
        assert gf.poly_powmod(base, e, mod) == acc % mod
        acc = acc * base


def test_rth_root_none_iff_nonpower():
    ctx = field_ctx(13, 1)
    cubes = {(b**3).index for b in ctx.elements() if not b.is_zero()}
    for a in ctx.elements():
        if a.is_zero():
            continue
        got = rth_root(a, 3)
        assert (got is not None) == (a.index in cubes)


def test_extension_for_levels():
    assert extension_for_levels(field_ctx(7, 1), 4).d == 1  # 2 and 3 divide 6
    assert extension_for_levels(field_ctx(2, 1), 3).d == 2  # 3 | 2^2-1, s=2=char exempt
    assert extension_for_levels(field_ctx(5, 1), 3).d == 2  # 3 | 24 but 3 does not divide 4


def test_multiplicative_order():
    # the pairs callers pass: primitive-root scans, extension degrees
    assert multiplicative_order(3, 7) == 6
    assert multiplicative_order(11, 3) == 2
    assert multiplicative_order(1, 2) == 1
    assert multiplicative_order(529, 5) == 2
    assert multiplicative_order(-1, 5) == 2


@pytest.mark.parametrize("a, n", [(2, 4), (5, 1), (0, 7), (3, 0)])
def test_multiplicative_order_refuses_non_units(a, n):
    # no power of a is 1 mod n: refused, not an endless loop
    with pytest.raises(ValueError):
        multiplicative_order(a, n)


def test_extension_for_levels_overflow():
    # q = 2^31 - 1 has order 4 mod 5, so m = 5 needs q^4 > 2^63 - 1
    with pytest.raises(Overflow):
        extension_for_levels(field_ctx(2**31 - 1, 1), 5)


def test_embed_field_is_hom():
    src = field_ctx(2, 2)
    dst = field_ctx(2, 4)
    emb = gf.embed_field(src, dst)
    for a in src.elements():
        for b in src.elements():
            assert emb(a * b) == emb(a) * emb(b)
            assert emb(a + b) == emb(a) + emb(b)
    assert emb(src.one()) == dst.one()


def test_poly_text_roundtrip():
    ctx = field_ctx(7, 1)
    f = poly_from_text(ctx, "6,0,0,1")
    assert f == Poly(ctx, [-1, 0, 0, 1])
    assert poly_to_text(f) == "6,0,0,1"
    g = poly_from_text(ctx, "-1,0,0,1")  # negatives reduced mod p
    assert g == f


def test_poly_text_negative_over_extension():
    # over F_25 a nonnegative int is an element index, and -c is minus element c
    ctx = field_ctx(5, 2)
    f = poly_from_text(ctx, "-1,0,1")
    assert f.coeffs[0].coeffs == (4, 0)
    assert f == Poly(ctx, [-ctx.one(), 0, 1])
    assert poly_from_text(ctx, "-7,0,1").coeffs[0] == -ctx.elem(7)
    assert poly_from_text(ctx, "24,0,1").coeffs[0].coeffs == (4, 4)
