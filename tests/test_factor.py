import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from mschemes import factor as fc
from mschemes import mscheme
from mschemes.factor import (
    DimCapExceeded,
    Factor,
    IdealSystem,
    InvalidSystem,
    NoChange,
    NoSplit,
    NotAMatching,
    NotAPartition,
    NotPrimeDegree,
    NotSplit,
    Refined,
    SmoothDivisorTooSmall,
    StuckScheme,
    TrivialAutomorphism,
    ZeroAlgebra,
    ZeroDivisor,
    iks_factor,
    log_to_json,
    matching_refinement,
    prime_degree_factor,
    refine_step,
    split_by_automorphism,
    supports,
    validate_certificate,
)
from mschemes.gf import Poly, PreconditionFailed, extension_for_levels, field_ctx, lift_poly
from mschemes.levels import LevelAlgebra, build_levels


def poly_of(ctx, coeffs):
    return Poly(ctx, coeffs)


def brute_roots(f):
    return [a for a in f.ctx.elements() if f(a).is_zero()]


def lagrange_idempotent(f, subset):
    """Test-only: idempotent of k[x]/(f) supported on a subset of roots."""
    ctx = f.ctx
    roots = brute_roots(f)
    acc = Poly(ctx, [0])
    for r in subset:
        num = Poly(ctx, [1])
        den = ctx.one()
        for r2 in roots:
            if r2 == r:
                continue
            num = num * Poly(ctx, [-r2, ctx.one()])
            den = den * (r - r2)
        acc = acc + num * den.inverse()
    acc = acc % f
    vec = np.zeros((f.degree, ctx.d), dtype=np.int64)
    for i, c in enumerate(acc.coeffs):
        vec[i] = np.array(c.coeffs, dtype=np.int64)
    return vec


# -- level algebras as the pipeline uses them ---------------------------------


def test_essential_identity_and_mult():
    # the level-2 identity is a unit on every basis vector
    e2 = build_levels(poly_of(field_ctx(7, 1), [-1, 0, 0, 1]), 2, 10**6)[1]
    for i in range(e2.dim):
        v = e2.zero()
        v[i, 0] = 1
        assert np.array_equal(e2.mult(e2.identity(), v), v)


def test_embed_unital_and_hom():
    e1, e2 = build_levels(poly_of(field_ctx(7, 1), [-1, 0, 0, 1]), 2, 10**6)
    for j in (1, 2):
        assert np.array_equal(e2.embed_from_below(e1, (j,), e1.identity()), e2.identity())
    # multiplicativity on sampled pairs
    rng = np.random.RandomState(0)
    for _ in range(5):
        u = rng.randint(0, 7, size=(3, 1)).astype(np.int64)
        v = rng.randint(0, 7, size=(3, 1)).astype(np.int64)
        lhs = e2.embed_from_below(e1, (1,), e1.mult(u, v))
        rhs = e2.mult(e2.embed_from_below(e1, (1,), u), e2.embed_from_below(e1, (1,), v))
        assert np.array_equal(lhs, rhs)


def test_embed_transparent_product():
    # iota_1(a) * iota_2(b) evaluated at explicit roots equals a(v2) b(v1)
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    e1, e2 = build_levels(f, 2, 10**6)
    roots = brute_roots(f)
    av = np.array([[1], [2], [0]], dtype=np.int64)
    bv = np.array([[3], [0], [1]], dtype=np.int64)
    prod = e2.to_tensor(e2.mult(e2.embed_from_below(e1, (1,), av), e2.embed_from_below(e1, (2,), bv)))

    def poly_val(vec, r):
        return sum((ctx.elem(int(vec[i, 0])) * r**i for i in range(3)), ctx.zero())

    for r1, r2 in itertools.permutations(roots, 2):
        total = ctx.zero()
        for c1, c2 in itertools.product(range(3), range(2)):
            total = total + ctx.elem(int(prod[c1, c2, 0])) * r1**c1 * r2**c2
        # identity inserted at slot j: iota_1(a) ignores coordinate 1
        assert total == poly_val(av, r2) * poly_val(bv, r1)


# -- split_by_automorphism ----------------------------------------------------


def test_split_by_automorphism_hand_case():
    # F_7[x]/(x^2-1), x -> -x must give exactly the zero divisor x - 1
    ctx = field_ctx(7, 1)
    sigma = np.array([[1, 0], [0, 6]])  # 1 -> 1, x -> -x
    res = split_by_automorphism(poly_of(ctx, [-1, 0, 1]), sigma, 2)
    assert isinstance(res, ZeroDivisor)
    assert np.array_equal(res.vec, np.array([[6], [1]], dtype=np.int64))  # x - 1


def test_split_by_automorphism_trivial():
    ctx = field_ctx(7, 1)
    with pytest.raises(TrivialAutomorphism):
        split_by_automorphism(poly_of(ctx, [-1, 0, 1]), np.eye(2, dtype=int), 2)


def test_split_by_automorphism_field_nosplit():
    # F_5[x]/(x^2-2) is a field (2 is a nonresidue mod 5)
    ctx = field_ctx(5, 1)
    squares = sorted({pow(i, 2, 5) for i in range(1, 5)})
    assert squares == [1, 4]
    res = split_by_automorphism(poly_of(ctx, [-2, 0, 1]), np.array([[1, 0], [0, 4]]), 2)
    assert isinstance(res, NoSplit)


def test_split_by_automorphism_not_squarefree():
    # x -> -x is an automorphism of F_5[x]/(x^2), but x is nilpotent
    ctx = field_ctx(5, 1)
    with pytest.raises(NotSplit):
        split_by_automorphism(poly_of(ctx, [0, 0, 1]), np.array([[1, 0], [0, 4]]), 2)


def test_split_zero_divisor_property():
    # returned z is nonzero and multiplication by z is singular
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 1])
    res = split_by_automorphism(f, np.array([[1, 0], [0, 6]]), 2)
    z = res.vec
    assert z.any()
    b = build_levels(f, 1, 10**6)[0]
    m_z = fc.KOps(ctx).zeros((2, 2))
    for i in range(2):
        v = b.zero()
        v[i, 0] = 1
        m_z[i] = b.mult(z, v)
    assert fc.KOps(ctx).rank(m_z) < 2


def test_split_by_automorphism_in_extension():
    # a 5-cycle on the roots 0..4 over F_7: 5 does not divide 6, so the
    # split happens over F_{7^4} and the idempotent descends to F_7
    ctx = field_ctx(7, 1)
    roots = [ctx.elem(i) for i in range(5)]
    f = poly_of(ctx, [1])
    for r in roots:
        f = f * poly_of(ctx, [-r, 1])
    sigma = np.zeros((5, 5), dtype=np.int64)
    for i in range(5):
        # row i: the function v -> (v + 1 mod 5)^i, by Lagrange interpolation
        img = Poly(ctx, [0])
        for k, r in enumerate(roots):
            basis_k = Poly(ctx, [int(v) for v in lagrange_idempotent(f, [r])[:, 0]])
            img = img + basis_k * roots[(k + 1) % 5] ** i
        for c, coeff in enumerate(img.coeffs):
            sigma[i, c] = coeff.index
    res = split_by_automorphism(f, sigma, 5)
    assert isinstance(res, ZeroDivisor)
    z = Poly(ctx, [int(v) for v in res.vec[:, 0]])
    values = {z(r).index for r in roots}
    assert values == {0, 1}
    # f splits, so the exponent is 7^4 - 1; the universal one for degree-5
    # residue fields gave this same vector
    assert res.vec[:, 0].tolist() == [1, 3, 4, 2, 5]


def test_project_factor_descends_or_refuses():
    # F_11 inside F_121: a polynomial whose coefficients lie over F_11 maps
    # back coefficient by coefficient; one with a coefficient outside is an
    # internal invariant failure
    base, K = field_ctx(11, 1), field_ctx(11, 2)
    g = lift_poly(poly_of(base, [3, 0, 7, 1]), K)
    assert g.ctx == K
    down = fc._project_factor(g, base)
    assert down.ctx == base and [c.index for c in down.coeffs] == [3, 0, 7, 1]
    outside = poly_of(K, [K.elem([3, 1]), 1])
    with pytest.raises(InvalidSystem, match="base field"):
        fc._project_factor(outside, base)


def shift_matrix(p):
    """sigma: x -> x + 1 on k[x]/(f) for deg f = p: row i is (x + 1)^i."""
    return np.array([[math.comb(i, k) % p for k in range(p)] for i in range(p)])


def test_split_by_automorphism_artin_schreier():
    # r = p = 5: x -> x + 1 cycles the roots 0..4 of x^5 - x, and the
    # Artin-Schreier solve gives x, which vanishes at exactly one root
    ctx = field_ctx(5, 1)
    res = split_by_automorphism(poly_of(ctx, [0, -1, 0, 0, 0, 1]), shift_matrix(5), 5)
    assert isinstance(res, ZeroDivisor)
    assert res.vec[:, 0].tolist() == [0, 1, 0, 0, 0]


@pytest.mark.parametrize("p", [3, 5])
def test_split_by_automorphism_reduces_digit_sigma(p):
    # sigma as digits S + pK with entries near 2^60 is the same automorphism
    # as S; unreduced, its float64 products gave x^3 - x a wrong zero divisor
    ctx = field_ctx(p, 1)
    f = poly_of(ctx, [0, -1] + [0] * (p - 2) + [1])
    S = shift_matrix(p)
    want = split_by_automorphism(f, S, p)
    assert want.vec[:, 0].tolist() == [0, 1] + [0] * (p - 2)
    rng = random.Random(3)
    for _ in range(40):
        K = np.array([[rng.randrange(-2**60 // 3, 2**60 // 3) for _ in range(p)] for _ in range(p)])
        got = split_by_automorphism(f, (S + p * K)[..., None], p)
        assert isinstance(got, ZeroDivisor) and got.vec.tobytes() == want.vec.tobytes()


@pytest.mark.parametrize("p", [3, 5])
def test_split_by_automorphism_artin_schreier_field_nosplit(p):
    # F_p[x]/(x^p - x - 1) is a field, so x -> x + 1 has no zero divisor
    ctx = field_ctx(p, 1)
    res = split_by_automorphism(poly_of(ctx, [-1, -1] + [0] * (p - 2) + [1]), shift_matrix(p), p)
    assert isinstance(res, NoSplit)


def test_iks_factor_matching_in_characteristic():
    # x^3 - x over F_3: the matching's automorphism has order r = 3 = p
    res = iks_factor(poly_of(field_ctx(3, 1), [0, -1, 0, 1]), 2)
    assert isinstance(res, Factor)
    assert res.g.int_coeffs() == [0, 1]
    events = res.log[0]["events"]
    assert [e["rule"] for e in events] == ["R5", "matching", "R4"]
    assert events[1]["r"] == 3 and events[2]["factor"] == [0, 1]


# -- the pipeline --------------------------------------------------------------


def fresh_system(p, coeffs, m):
    ctx = field_ctx(p, 1)
    return IdealSystem(poly_of(ctx, coeffs), m)


def test_refine_step_r5_fresh():
    sys = fresh_system(7, [-1, 0, 0, 1], 2)
    res = refine_step(sys, "R5")
    assert isinstance(res, Refined)
    assert len(res.system.levels[2]) == 2


def test_refine_step_r4_already_split():
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    sys = IdealSystem(f, 2)
    u = lagrange_idempotent(f, [ctx.elem(1)])
    res = sys._split(1, 0, u, "seed", {})
    out = refine_step(res.system, "R4")
    assert isinstance(out, Factor)
    assert out.g == poly_of(ctx, [-1, 1])  # x - 1, least candidate


def test_refine_step_r4_checks_ideal_dimension():
    # R4 reads the factor gcd(f, 1 - e) off the idempotent alone; a basis
    # whose dimension is not the idempotent's root count is refused
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    sys = IdealSystem(f, 2)
    split = sys._split(1, 0, lagrange_idempotent(f, [ctx.elem(1)]), "seed", {}).system
    one, two = split.levels[1]
    split.levels[1][0] = dataclasses.replace(one, basis=two.basis, pivots=two.pivots)
    with pytest.raises(InvalidSystem, match="root count"):
        refine_step(split, "R4")


def test_split_makes_one_product(monkeypatch):
    # the rows of (e - u) * I are basis - basis * u, so one mult_batch call
    # gives both parts; oracle: row-reduce the second product directly
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    sys = IdealSystem(f, 2)
    alg = sys.algebra(1)
    u = lagrange_idempotent(f, [ctx.elem(2)])
    batch = type(alg).mult_batch
    calls = []
    monkeypatch.setattr(type(alg), "mult_batch", lambda self, rows, v: calls.append(len(rows)) or batch(self, rows, v))
    new = sys._split(1, 0, u, "seed", {}).system
    monkeypatch.undo()
    assert calls == [3]
    rest = new.levels[1][1]
    want, pivots = alg.ops.rref(alg.mult_batch(sys.levels[1][0].basis, rest.idem))
    assert np.array_equal(rest.basis, want) and rest.pivots == tuple(pivots)


@pytest.mark.parametrize("s", [2, 3, 4])
def test_sigma_matrix_has_permutation_order(s):
    # R5 powers the matrix of tau instead of the permutation: on the full
    # level every non-identity tau moves every essential tuple, so both
    # have the same order
    sys = fresh_system(5, [-1, 0, 0, 0, 1], s)
    full = sys.levels[s][0]
    kops = sys.algebra(s).ops
    ident = tuple(range(s))
    for tau in itertools.permutations(range(s)):
        if tau == ident:
            continue
        order, cur = 1, tau
        while cur != ident:
            cur = tuple(tau[i] for i in cur)
            order += 1
        sigma = fc._sigma_matrix_from_perm(sys, full, tau)
        acc = sigma
        for k in range(1, order):
            assert not kops.mat_eq(acc, kops.eye(full.dim)), (tau, k)
            acc = kops.matmul(acc, sigma)
        assert kops.mat_eq(acc, kops.eye(full.dim)), tau


def test_refine_step_stable_nochange():
    sys = fresh_system(7, [-1, 0, 0, 1], 2)
    assert isinstance(refine_step(sys, "R4"), NoChange)
    assert isinstance(refine_step(sys, "R1"), NoChange)


# -- R2: constant fibre counts settle without power chains ----------------------


def rule_r2_per_ideal(sys):
    """Oracle for `_rule_r2`: one product and one full scalar scan per
    (ideal, coordinate, lower ideal), constant counts included."""
    checks = sys.shared["checks"]
    n = sys.f.degree
    exponent = sys.ctx.order - 1
    for s in range(2, sys.m + 1):
        below_alg = sys.algebra(s - 1)
        for ip, here in enumerate(sys.levels[s]):
            for j in range(1, s + 1):
                tr = sys._trace_idem(s, here, j)
                for i, below in enumerate(sys.levels[s - 1]):
                    key = ("R2", here.uid, below.uid, j)
                    if key in checks:
                        continue
                    t_elem = below_alg.mult(tr, below.idem)
                    hit = fc._scan_scalars(below_alg, t_elem, below.idem, exponent, range(min(n, sys.ctx.p - 1) + 1))
                    if hit is None or hit[2] is None:
                        checks[key] = True
                        continue
                    split_u = (below.idem - hit[2]) % below_alg.ops.p
                    return sys._split(s - 1, i, split_u, "R2", {"here": ip, "j": j})
    return NoChange()


def twin(sys):
    """A clone of sys with its own copy of the check table."""
    out = sys.clone()
    out.shared = {**sys.shared, "checks": dict(sys.shared["checks"])}
    return out


def run_events(sys):
    """The `iks_factor` event loop at one m: the outcome and the event count."""
    events = 0
    while True:
        results = (refine_step(sys, rule) for rule in fc.RULE_ORDER)
        res = next((res for res in results if not isinstance(res, NoChange)), None)
        if res is None:
            matchings = fc._detect_matchings(sys)
            if not matchings:
                return "stuck", events
            res = matching_refinement(sys, matchings[0])
        events += 1
        if isinstance(res, Factor):
            return "factor", events
        sys = res.system


def split_poly(ctx, roots):
    f = poly_of(ctx, [1])
    for r in roots:
        f = f * poly_of(ctx, [-ctx.elem(r), ctx.one()])
    return f


@pytest.mark.parametrize("p,d", [(5, 1), (5, 2), (3, 2)])
def test_constant_rows_brute_force(p, d):
    # T[b] is constant on E[b] iff T[b] = c*E[b] for some field scalar c;
    # E holds idempotents of k[x]/(f) with 0 among the roots of f, so those
    # whose support misses 0 have no constant term
    ctx = field_ctx(p, d)
    kops = fc.KOps(ctx)
    f = lift_poly(split_poly(field_ctx(p, 1), range(p)), ctx)
    roots = brute_roots(f)
    subsets = [sub for k in range(1, p + 1) for sub in itertools.combinations(roots, k)]
    E = np.stack([lagrange_idempotent(f, sub) for sub in subsets])
    assert (~E[:, 0].any(axis=-1)).sum() == 2 ** (p - 1) - 1
    rng = np.random.default_rng(p * 10 + d)
    rows_T, rows_E = [], []
    for e in E:
        for c in ctx.elements():
            multiple = kops.scalar_mul(kops.scalar(c), e)
            rows_T.append(multiple)  # c = 0 gives a zero row
            bumped = multiple.copy()
            bumped[rng.integers(len(e)), rng.integers(d)] += 1
            rows_T.append(bumped % p)
            rows_E.extend([e, e])
        rows_T.append(rng.integers(0, p, e.shape))
        rows_E.append(e)
    T, E = np.stack(rows_T), np.stack(rows_E)
    want = [
        any(np.array_equal(t, kops.scalar_mul(kops.scalar(c), e)) for c in ctx.elements())
        for t, e in zip(T, E)
    ]
    got = fc._constant_rows(kops, T, E)
    assert got.dtype == bool and got.tolist() == want
    assert any(want) and not all(want)


@pytest.mark.parametrize(
    "p,d,roots",
    [
        (5, 1, [0, 1, 2, 3]),
        (7, 1, [1, 2, 4]),  # x^3 - 1
        (7, 1, [0, 1, 3, 4]),
        (11, 1, [1, 3, 4, 5, 9]),  # the squares of F_11
        (5, 2, [0, 1, 2, 3, 4]),  # x^5 - x over F_25
    ],
    ids=["F5-quartic", "F7-x3-1", "F7-quartic", "F11-squares", "F25-x5-x"],
)
def test_rule_r2_matches_per_ideal_oracle(monkeypatch, p, d, roots):
    # every R2 call of the event loop at m = 3: the batched rule and the
    # per-ideal loop act alike and leave the same check table
    f = lift_poly(split_poly(field_ctx(p, 1), roots), field_ctx(p, d))
    rule = fc._RULES["R2"]
    seen = []

    def checked(sys):
        other = twin(sys)
        want = rule_r2_per_ideal(other)
        got = rule(sys)
        assert type(got) is type(want)
        if isinstance(got, Refined):
            assert got.system.log == want.system.log
            for s in range(1, sys.m + 1):
                for a, b in zip(got.system.levels[s], want.system.levels[s], strict=True):
                    assert np.array_equal(a.idem, b.idem) and np.array_equal(a.basis, b.basis)
                    assert a.pivots == b.pivots
        assert sys.shared["checks"] == other.shared["checks"]
        seen.append(type(got).__name__)
        return got

    monkeypatch.setitem(fc._RULES, "R2", checked)
    outcome, events = run_events(IdealSystem._of_split(f, 3, fc.DIM_CAP))
    assert outcome == "factor" and events >= 5
    assert "Refined" in seen and "NoChange" in seen


@pytest.mark.parametrize("p,d,roots", [(11, 1, [1, 3, 4, 5, 9]), (5, 2, [0, 1, 2, 3, 4])], ids=["F11-squares", "F25-x5-x"])
def test_rule_r2_constant_counts_make_no_power_chain(monkeypatch, p, d, roots):
    # at every state of the event loop where all fibre counts are constant
    # (R2 makes no change), settling them afresh takes no support
    # idempotent; some of those states take the product path
    f = lift_poly(split_poly(field_ctx(p, 1), roots), field_ctx(p, d))
    calls = {"power": 0, "mult_batch": 0}
    for name in calls:
        method = getattr(LevelAlgebra, name)

        def counted(self, *args, _method=method, _name=name):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(LevelAlgebra, name, counted)
    rule = fc._RULES["R2"]
    constant = []

    def checked(sys):
        fresh = twin(sys)
        fresh.shared["checks"] = {}
        calls.update(power=0, mult_batch=0)
        if isinstance(rule(fresh), NoChange):
            constant.append(dict(calls))
        return rule(sys)

    monkeypatch.setitem(fc._RULES, "R2", checked)
    assert run_events(IdealSystem._of_split(f, 3, fc.DIM_CAP))[0] == "factor"
    assert constant and all(c["power"] == 0 for c in constant)
    assert any(c["mult_batch"] for c in constant)


# -- R1: cylinder checks as level s-1 products ----------------------------------


def embed_rule_r1(sys):
    """Oracle for `_rule_r1`: each cylinder check is a level-s product of
    the idempotents with the embedded lower idempotent, and a split takes
    its rows from `_split`'s own level-s product."""
    checks = sys.shared["checks"]
    for s in range(2, sys.m + 1):
        alg = sys.algebra(s)
        for i, below in enumerate(sys.levels[s - 1]):
            for j in range(1, s + 1):
                todo = [(ip, h) for ip, h in enumerate(sys.levels[s]) if ("R1", below.uid, h.uid, j) not in checks]
                if not todo:
                    continue
                emb = alg.embed_from_below(sys.algebra(s - 1), (j,), below.idem)
                prods = alg.mult_batch(np.stack([here.idem for _, here in todo]), emb)
                for (ip, here), u in zip(todo, prods):
                    if not u.any() or np.array_equal(u, here.idem):
                        checks[("R1", below.uid, here.uid, j)] = bool(u.any())
                        continue
                    return sys._split(s, ip, u, "R1", {"below": i, "j": j})
    return NoChange()


def orbit_quintic_system(p, seed):
    """The system at m = 3 of a seeded Z_5-orbit quintic over F_p, roots
    c + t*mu_5, on the field `iks_factor` builds its levels over."""
    ctx = field_ctx(p, 1)
    mu5 = [z for z in range(1, p) if pow(z, 5, p) == 1]
    rng = random.Random(seed)
    c, t = rng.randrange(1, p), rng.randrange(1, p)
    f = split_poly(ctx, [(c + t * z) % p for z in mu5])
    return IdealSystem._of_split(lift_poly(f, extension_for_levels(ctx, 3)), 3, fc.DIM_CAP)


@pytest.mark.parametrize("p,seed", [(31, 1), (11, 1)], ids=["F31", "F121"])
def test_rule_r1_matches_embed_oracle(monkeypatch, p, seed):
    # every R1 call of the event loop at m = 3: the level s-1 products and
    # the embedded level-s products act alike, leave the same check table
    # and give the same split bases
    rule = fc._RULES["R1"]
    splits = set()

    def checked(sys):
        other = twin(sys)
        want = embed_rule_r1(other)
        got = rule(sys)
        assert type(got) is type(want)
        if isinstance(got, Refined):
            assert got.system.log == want.system.log
            for s in range(1, sys.m + 1):
                for a, b in zip(got.system.levels[s], want.system.levels[s], strict=True):
                    assert np.array_equal(a.idem, b.idem) and np.array_equal(a.basis, b.basis)
                    assert a.pivots == b.pivots
            entry = got.system.log[-1]
            splits.add((entry["level"], entry["j"]))
        assert sys.shared["checks"] == other.shared["checks"]
        return got

    monkeypatch.setitem(fc._RULES, "R1", checked)
    assert run_events(orbit_quintic_system(p, seed))[0] == "factor"
    # splits at level 3 along a moved coordinate and along the last one
    assert {(3, 3)} < splits and any(level == 3 and j < 3 for level, j in splits)


def test_rule_r1_makes_no_level_s_product(monkeypatch):
    # every product R1 makes, for its checks and for a split's rows, is a
    # level s-1 mult_batch inside a level-s mult_lower; no embedding operator
    calls, active = [], []
    lower, batch, embed = LevelAlgebra.mult_lower, LevelAlgebra.mult_batch, LevelAlgebra.embed_from_below

    def counting_lower(self, below, rows, v):
        active.append(self.s)
        try:
            return lower(self, below, rows, v)
        finally:
            active.pop()

    def counting_batch(self, rows, v):
        calls.append(("mult_batch", self.s, active[-1] if active else None))
        return batch(self, rows, v)

    def counting_embed(self, below, slots, vec):
        calls.append(("embed_from_below", self.s, None))
        return embed(self, below, slots, vec)

    monkeypatch.setattr(LevelAlgebra, "mult_lower", counting_lower)
    monkeypatch.setattr(LevelAlgebra, "mult_batch", counting_batch)
    monkeypatch.setattr(LevelAlgebra, "embed_from_below", counting_embed)
    rule = fc._RULES["R1"]
    seen = []

    def recorded(sys):
        calls.clear()
        res = rule(sys)
        seen.append((type(res).__name__, list(calls)))
        return res

    monkeypatch.setitem(fc._RULES, "R1", recorded)
    assert run_events(orbit_quintic_system(31, 1))[0] == "factor"
    assert {name for name, _ in seen} == {"Refined", "NoChange"}
    for _, made in seen:
        assert made and all(name == "mult_batch" and outer == level + 1 for name, level, outer in made)


def test_iks_factor_x3m1():
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    res = iks_factor(f, 2)
    assert isinstance(res, Factor)
    g = res.g
    assert 0 < g.degree < 3 and (f % g).is_zero()
    roots = {r.index for r in brute_roots(f)}
    assert all(r.index in roots for r in brute_roots(g))
    assert g == poly_of(ctx, [-1, 1])  # canonical least factor has root 1


def test_iks_factor_x2p1_f13():
    ctx = field_ctx(13, 1)
    f = poly_of(ctx, [1, 0, 1])
    res = iks_factor(f, 2)
    assert isinstance(res, Factor)
    assert res.g == poly_of(ctx, [-5, 1])  # roots 5, 8; canonical least 5


def test_iks_factor_not_split():
    ctx = field_ctx(7, 1)
    with pytest.raises(NotSplit):
        iks_factor(poly_of(ctx, [1, 0, 1]), 2)


def test_iks_factor_checks_split_once(monkeypatch):
    # stuck at m = 2, so `iks_factor` lifts g and deepens to m = 3
    ctx = field_ctx(11, 1)
    f = poly_of(ctx, [0, 1, 4, 8, 8, 1])
    calls = []
    check = fc.is_split_squarefree
    monkeypatch.setattr(fc, "is_split_squarefree", lambda g: calls.append(g) or check(g))
    res = iks_factor(f, 3)
    assert [a["m"] for a in res.log] == [2, 3]
    assert calls == [f]
    # the public constructor still refuses a non-split input
    with pytest.raises(NotSplit):
        IdealSystem(poly_of(ctx, [1, 0, 1]), 2)


def test_iks_factor_oracle_small_sample():
    # all split squarefree monic cubics over F_5
    ctx = field_ctx(5, 1)
    elems = list(ctx.elements())
    count = 0
    for subset in itertools.combinations(elems, 3):
        f = poly_of(ctx, [1])
        for r in subset:
            f = f * poly_of(ctx, [-r, ctx.one()])
        res = iks_factor(f, 4)
        assert isinstance(res, Factor)
        assert 0 < res.g.degree < 3 and (f % res.g).is_zero()
        count += 1
    assert count == 10


def test_iks_determinism():
    ctx = field_ctx(11, 1)
    f = poly_of(ctx, [10, 0, 0, 0, 0, 1])  # x^5 - 1
    r1 = iks_factor(f, 4)
    r2 = iks_factor(f, 4)
    assert log_to_json(r1.log) == log_to_json(r2.log)
    assert r1.g == r2.g


def test_supports_partition_and_properties():
    # run to stability on x^3-1/F_7 level 2 and check the induced collection
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    sys = IdealSystem(f, 2)
    while True:
        for rule in fc.RULE_ORDER:
            res = refine_step(sys, rule)
            if isinstance(res, Refined):
                sys = res.system
                break
            if isinstance(res, Factor):
                pytest.skip("level-2-only refinement factored early")
        else:
            break
    pi = supports(sys, [1, 2, 4])
    rep = mscheme.check_properties(pi)
    assert rep.compatible[2] and rep.regular[2] and rep.invariant.get(2, True)


def test_supports_single_ideal():
    sys = fresh_system(7, [-1, 0, 0, 1], 2)
    pi = supports(sys, [1, 2, 4])
    assert pi.num_colors(1) == 1 and pi.num_colors(2) == 1


def test_supports_non_partition():
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    sys = IdealSystem(f, 2)
    broken = sys.clone()
    # duplicate the full ideal: overlapping supports
    broken.levels[1] = [broken.levels[1][0], broken.levels[1][0]]
    with pytest.raises(NotAPartition):
        supports(broken, [1, 2, 4])


def test_matching_refinement_thin_level2():
    # x^3-1/F_7: stuck level-2 system whose colors are the two 3-cycles;
    # the level-2 matching must produce a factor
    ctx = field_ctx(7, 1)
    f = poly_of(ctx, [-1, 0, 0, 1])
    res = iks_factor(f, 2)
    assert isinstance(res, Factor)  # exercised inside the driver


@pytest.mark.parametrize(
    "matching",
    [
        mscheme.Matching(2, 0, (1,), (1,)),
        mscheme.Matching(5, 0, (1,), (2,)),
        mscheme.Matching(2, 0, (1,), (3,)),
        mscheme.Matching(2, 0, (1, 2), (2, 1)),
    ],
    ids=["equal-drops", "level-above-m", "drop-above-level", "drop-too-long-and-unsorted"],
)
def test_matching_refinement_bad_indices(matching):
    sys = fresh_system(7, [-1, 0, 0, 1], 2)
    with pytest.raises(NotAMatching):
        matching_refinement(sys, matching)


def project_by_products(sys, s, idx, dropped):
    """Oracle for `_project_color`: multiply every lower cylinder along
    `dropped` by the ideal's idempotent and take the first that keeps it."""
    here = sys.levels[s][idx]
    alg, below = sys.algebra(s), sys.algebra(s - len(dropped))
    cyls = alg.embed_from_below(below, dropped, np.stack([b.idem for b in sys.levels[s - len(dropped)]]))
    prods = alg.mult_batch(cyls, here.idem)
    return next((bi for bi, u in enumerate(prods) if np.array_equal(u, here.idem)), None)


@pytest.mark.parametrize(
    "p,coeffs,m,deepest",
    [
        (7, [-1, 0, 0, 1], 3, 2),  # criterion 8 at m = 3
        (11, [0, 2, 8, 1], 3, 2),  # criterion 8 at m = 3
        (11, [0, 9, 6, 2, 4, 1], 4, 3),  # criterion 8 at m = 4, stable at level 3
        (11, [0, 1, 4, 8, 8, 1], 2, 2),  # stuck: x(x+4)(x+6)(x+7)(x+9)
        (31, [-2, 5, -10, 10, -5, 1], None, 3),  # (x-1)^5 - 1: roots 1 + mu_5, prime-degree driver
    ],
    ids=["x3-1-F7-m3", "cubic-F11-m3", "quintic-F11-m4", "stuck-quintic-F11-m2", "orbit-quintic-F31"],
)
def test_detect_matchings_reads_r1_incidence(monkeypatch, p, coeffs, m, deepest):
    # at every stable point, R1's incidence gives the projections the
    # product scan gives, for every drop set, and the matchings are those
    # of the induced collection
    detect = fc._detect_matchings
    levels_seen = []

    def checked(sys):
        out = detect(sys)
        for s in range(2, sys.m + 1):
            for idx in range(len(sys.levels[s])):
                for k in range(1, s):
                    for dropped in itertools.combinations(range(1, s + 1), k):
                        want = project_by_products(sys, s, idx, dropped)
                        assert want is not None
                        assert fc._project_color(sys, s, idx, dropped) == want
        assert out == mscheme.find_matchings(supports(sys, brute_roots(sys.f)))
        levels_seen.append(sys.m)
        return out

    monkeypatch.setattr(fc, "_detect_matchings", checked)
    f = poly_of(field_ctx(p, 1), coeffs)
    if m is None:
        prime_degree_factor(f, 2, 1)
    else:
        iks_factor(f, m)
    assert levels_seen and max(levels_seen) == deepest


def test_prime_degree_factor_x5m1_f11():
    ctx = field_ctx(11, 1)
    f = poly_of(ctx, [-1, 0, 0, 0, 0, 1])
    res = prime_degree_factor(f, 2, 1)
    assert isinstance(res, Factor)
    assert (f % res.g).is_zero() and 0 < res.g.degree < 5
    roots = sorted(r.index for r in brute_roots(f))
    assert roots == [1, 3, 4, 5, 9]


def test_prime_degree_factor_not_prime():
    ctx = field_ctx(7, 1)
    with pytest.raises(NotPrimeDegree):
        prime_degree_factor(poly_of(ctx, [-1, 0, 0, 0, 0, 0, 1]), 2, 1)


def test_prime_degree_smooth_too_small():
    # n = 11: n-1 = 10, 2-smooth part is 2 < sqrt(11) + 1
    ctx = field_ctx(23, 1)
    f = poly_of(ctx, [1])
    for r in [1, 2, 3, 4, 6, 8, 9, 12, 13, 16, 18]:
        f = f * poly_of(ctx, [-r, 1])
    if not fc.is_split_squarefree(f):
        pytest.skip("construction mishap")
    with pytest.raises(SmoothDivisorTooSmall):
        prime_degree_factor(f, 2, 1)


def test_dim_cap():
    ctx = field_ctx(11, 1)
    f = poly_of(ctx, [10, 0, 0, 0, 0, 1])
    with pytest.raises(DimCapExceeded):
        IdealSystem(f, 3, dim_cap=10)


def test_reduction_matrix_cap():
    # R of level 5 of a degree-7 input (45045 x 2520 cells) and of level 4 of
    # a degree-9 input (36465 x 3024) exceeds REDUCTION_MATRIX_CAP
    for p, n, m in ((29, 7, 5), (23, 9, 4)):
        ctx = field_ctx(p, 1)
        f = poly_of(ctx, [1])
        for r in range(1, n + 1):
            f = f * poly_of(ctx, [-r, 1])
        with pytest.raises(DimCapExceeded, match=f"level {m} reduction matrix") as exc:
            build_levels(f, m, 10**6)
        assert isinstance(exc.value, PreconditionFailed)
        if n == 7:
            with pytest.raises(DimCapExceeded):
                IdealSystem(f, 5)


def test_levels_deeper_than_degree():
    # no essential 4-tuples on 3 points: a typed error, not an IndexError
    f = poly_of(field_ctx(7, 1), [-1, 0, 0, 1])
    with pytest.raises(ZeroAlgebra):
        build_levels(f, 4, 10**6)
    with pytest.raises(ZeroAlgebra):
        IdealSystem(f, 4)


def test_stuck_scheme_certificate():
    # degree-5 polynomial over F_11 that sticks at m=2: x(x+4)(x+6)(x+7)(x+9)
    ctx = field_ctx(11, 1)
    f = poly_of(ctx, [0, 1, 4, 8, 8, 1])
    assert fc.is_split_squarefree(f)
    res = iks_factor(f, 2)
    assert isinstance(res, StuckScheme)
    assert res.certificate["valid"]
    assert validate_certificate(res)
    # transparent cross-check: the induced collection really is a
    # homogeneous antisymmetric matching-free 2-scheme
    roots = brute_roots(f)
    pi = supports(res.system, [r.index for r in roots])
    rep = mscheme.check_properties(pi)
    assert rep.homogeneous and rep.is_scheme and rep.antisymmetric
    assert mscheme.find_matchings(pi) == []


def test_transparent_stage_soundness():
    # supports() stays a partition at every refinement stage; at stability
    # the induced collection passes P1-P3
    ctx = field_ctx(5, 1)
    f = poly_of(ctx, [-1, 0, 0, 0, 1])  # x^4 - 1, roots {1,2,3,4}
    roots = [r.index for r in brute_roots(f)]
    stages = []

    def hook(sys):
        pi = supports(sys, roots)  # raises NotAPartition on violation
        stages.append(pi)

    res = iks_factor(f, 3, stage_hook=hook)
    assert isinstance(res, Factor)
    assert stages  # the hook ran
    for pi in stages:
        rep = mscheme.check_properties(pi)
        assert rep is not None


@pytest.mark.parametrize(
    "p,coeffs,m,matching_factor",
    [
        (7, [-1, 0, 0, 1], 2, True),  # a level-2 matching splits level 1
        (11, [0, 9, 6, 2, 4, 1], 4, True),  # a level-3 matching splits level 1
        (11, [0, 1, 4, 8, 8, 1], 2, False),  # stuck
        (5, [-1, 0, 0, 0, 1], 3, False),  # R4 reads the factor after R2
    ],
    ids=["matching-factor-m2", "matching-factor-m4", "stuck", "r4-factor"],
)
def test_stage_hook_fires_once_per_result(monkeypatch, p, coeffs, m, matching_factor):
    results = []
    refine, refine_matching = fc.refine_step, fc.matching_refinement

    def counted_step(sys, rule):
        res = refine(sys, rule)
        if not isinstance(res, NoChange):
            results.append(type(res).__name__)
        return res

    def counted_matching(sys, matching):
        res = refine_matching(sys, matching)
        results.append("matching " + type(res).__name__)
        return res

    monkeypatch.setattr(fc, "refine_step", counted_step)
    monkeypatch.setattr(fc, "matching_refinement", counted_matching)
    hooks = []
    iks_factor(poly_of(field_ctx(p, 1), coeffs), m, stage_hook=hooks.append)
    assert results and len(hooks) == len(results)
    assert ("matching Factor" in results) == matching_factor


def test_prime_degree_never_stuck_property():
    # sampled split quintics over F_11 (s = 4 >= sqrt(5)+1) and split
    # septics over F_29 (s = 6 >= sqrt(7)+1): the driver must factor
    import random

    rng = random.Random(3)
    for q, deg, r in ((11, 5, 2), (29, 7, 3)):
        ctx = field_ctx(q, 1)
        elems = list(ctx.elements())
        for _ in range(3):
            subset = rng.sample(elems, deg)
            f = poly_of(ctx, [1])
            for root in subset:
                f = f * poly_of(ctx, [-root, ctx.one()])
            res = prime_degree_factor(f, r, 1)
            assert isinstance(res, Factor)
            assert 0 < res.g.degree < deg and (f % res.g).is_zero()
