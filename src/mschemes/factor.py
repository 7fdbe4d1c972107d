"""Deterministic factoring of split squarefree polynomials by ideal refinement.

The driver builds the essential levels of the quotient algebra of f over a
field extension with enough roots of unity (`levels.LevelAlgebra`; level 1
is k[x]/(f) itself), then refines each level's orthogonal ideal
decomposition until either level 1 splits (a factor) or the induced
combinatorial structure is a homogeneous antisymmetric scheme with no
matchings (a certified stuck state).

Every ideal is tracked by its support idempotent plus a reduced-row-echelon
basis, so dimensions are exact and all splits are deterministic.  Zero
divisors are converted to idempotents by powering with |k|-1, which is exact
on split algebras.

Each split is one move: find a zero divisor inside an ideal with idempotent
e, then split along its support idempotent.  The zero-divisor engine does
this for an automorphism of prime order r: through an eigenvector when r
divides |k|-1, through an Artin-Schreier solve when r = char k, and after
adjoining the r-th roots of unity (then descending the idempotent)
otherwise.  R5's coordinate permutations and a matching's pair of
embeddings reach it the same way: `_split_with_order` powers the
automorphism's matrix on the ideal down to prime order r.  One scan
(`_scan_scalars`) makes the recurring test of that move, whether some
val - c*e has a support idempotent properly inside e, for the engine's
root-of-unity checks, its AMM r-th-root digits and R2's fibre counts.
R2 decides constant counts with no power chain: a scalar trace needs no
product, otherwise one batched product per trace and one scalar-multiple
test (`_constant_rows`) settle them, and only a count that is not constant
on its lower ideal is scanned.  The public automorphism splitter runs the
same engine on level 1 of any squarefree f, and handles non-split inputs
through a universal exponent; `rth_root` runs its AMM routine on a field,
as level 1 of k[x]/(x).

Matchings of the induced scheme are read from R1's incidence: R1 records,
for each lower ideal, each ideal of the level above and each coordinate,
whether the ideal lies in that cylinder or is orthogonal to it, so
projections along several coordinates need no further products.  R1 makes
each of its products at the level below (`LevelAlgebra.mult_lower`), after
the cached coordinate permutation that moves the cylinder's coordinate
last.
"""

from __future__ import annotations

import copy
import itertools
import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import mscheme as _mscheme
from .assoc import TheoremContradiction
from .gf import (
    FieldCtx,
    FieldElem,
    Poly,
    PreconditionFailed,
    embed_field,
    extension_for_levels,
    field_ctx,
    find_nonresidue,
    is_prime,
    is_split_squarefree,
    lift_poly,
    multiplicative_order,
    poly_gcd,
    smooth_divisor,
    square_and_multiply,
)
from .levels import DimCapExceeded, LevelAlgebra, ZeroAlgebra, build_levels  # noqa: F401  (re-exported)
from .linalg import KOps, PrimeTooLarge  # noqa: F401  (re-exported)

ORDER_CAP = 10**6


class NotSplit(ValueError):
    pass


class InvalidSystem(AssertionError):
    """A pipeline invariant failed: a bug, never a property of the input."""


class TrivialAutomorphism(ValueError):
    pass


class NotAMatching(ValueError):
    pass


class NotPrimeDegree(PreconditionFailed):
    pass


class SmoothDivisorTooSmall(PreconditionFailed):
    pass


# ---------------------------------------------------------------------------
# generic automorphism splitting (the zero-divisor engine)


class NoSplit:
    def __repr__(self):
        return "NoSplit"


@dataclass
class ZeroDivisor:
    vec: np.ndarray


# The engine works inside one ideal of a level: its idempotent e_B is the
# unit of every power, and `exponent` turns an element into its support
# idempotent (z^exponent, see _universal_exponent).


def _scan_scalars(alg: LevelAlgebra, val, e_B, exponent: int, scalars):
    """First scalar c, in the order given, at which val - c*e_B vanishes or
    has a support idempotent properly inside e_B.

    Returns (i, diff, e) for the i-th scalar, with e None when diff = 0, or
    None when every difference has support exactly e_B.
    """
    kops = alg.ops
    for i, c in enumerate(scalars):
        diff = (val - kops.scalar_mul(kops.scalar(c), e_B)) % kops.p
        if not diff.any():
            return i, diff, None
        e = alg.power(diff, exponent, e_B)
        if e.any() and not np.array_equal(e, e_B):
            return i, diff, e
    return None


def _powers(x, r: int):
    """1, x, ..., x^(r-1) for a FieldElem x."""
    acc = x.ctx.one()
    for _ in range(r):
        yield acc
        acc = acc * x


def _algebra_amm(alg: LevelAlgebra, e_B, exponent: int, u, r: int):
    """r-th root of u over the algebra: the root, or ZeroDivisor when a
    digit test splits e_B, or NoSplit when values escape the scalar Sylow
    tower."""
    ctx, kops = alg.ctx, alg.ops
    q1 = ctx.order - 1
    t, s = 0, q1
    while s % r == 0:
        s //= r
        t += 1
    g = find_nonresidue(r, ctx)
    h = g**s
    omega = h ** (r ** (t - 1))
    alpha = pow(r, -1, s)
    x = alg.power(u, alpha, e_B)
    cc = alg.power(u, (1 - r * alpha) % q1, e_B)
    e_val = 0
    for i in range(t):
        val = alg.power(cc, r ** (t - 1 - i), e_B)
        hit = _scan_scalars(alg, val, e_B, exponent, _powers(omega, r))
        if hit is None:
            return NoSplit()
        digit, diff, e = hit
        if e is not None:
            return ZeroDivisor(diff)
        e_val += digit * r**i
        if digit:
            cc = kops.scalar_mul(kops.scalar(h ** ((-digit * r**i) % q1)), cc)
    if e_val % r:
        return NoSplit()
    return kops.scalar_mul(kops.scalar(h ** (e_val // r)), x)


@lru_cache(maxsize=None)
def _field_algebra(ctx: FieldCtx) -> LevelAlgebra:
    """The field as level 1 of k[x]/(x), built once per field."""
    return build_levels(Poly(ctx, [0, 1]), 1)[0]


def rth_root(a: FieldElem, r: int) -> FieldElem | None:
    """Canonically-least r-th root of a, or None if a is not an r-th power.

    Deterministic: `_algebra_amm` on the field as level 1 of k[x]/(x) for
    r | Q-1 (every nonzero element there is a unit, so no digit test finds a
    zero divisor), the inverse Frobenius power for r = char, and the direct
    power map otherwise.
    """
    ctx = a.ctx
    if a.is_zero():
        raise ValueError("expected a nonzero element")
    if not is_prime(r):
        raise ValueError("r must be prime")
    p, q1 = ctx.p, ctx.order - 1
    if r == p:
        # x -> x^p is an automorphism; unique root.
        return a ** (p ** (ctx.d - 1))
    if q1 % r != 0:
        return a ** pow(r, -1, q1)
    if a ** (q1 // r) != ctx.one():
        return None
    alg = _field_algebra(ctx)
    y = _algebra_amm(alg, alg.identity(), q1, np.array([a.coeffs], dtype=np.int64), r)
    if not isinstance(y, np.ndarray):
        raise InvalidSystem("a field has no zero divisor for AMM to find")
    root = ctx.elem(y[0].tolist())
    # canonical-least among the r roots root * zeta^j
    zeta = find_nonresidue(r, ctx) ** (q1 // r)
    return min((root * z for z in _powers(zeta, r)), key=lambda b: b.index)


def _split_with_automorphism(alg: LevelAlgebra, basis, pivots, e_B, exponent: int, sigma_mat, r: int):
    """Deterministic zero-divisor search for a prime-order automorphism.

    Eigenspace route when r | Q-1, additive (Artin-Schreier) route when
    r = char (the caller ensures one holds and that sigma != 1, so sigma is
    diagonalizable with an eigenvalue other than 1); returns ZeroDivisor or
    NoSplit.
    """
    kops, ctx = alg.ops, alg.ctx
    dim = basis.shape[0]
    if r == ctx.p:
        return _split_char_order(alg, basis, pivots, e_B, exponent, sigma_mat)
    zeta = find_nonresidue(r, ctx) ** ((ctx.order - 1) // r)
    z = None
    for j in range(1, r):
        M = (sigma_mat - kops.scalar_mul(kops.scalar(zeta**j), kops.eye(dim))) % kops.p
        ker = kops.nullspace(np.swapaxes(M, 0, 1))
        if ker.shape[0]:
            z = kops.matmul(ker[:1], basis)[0]
            break
    if z is None:
        raise InvalidSystem("no nontrivial eigenspace")
    e_z = alg.power(z, exponent, e_B)
    if not np.array_equal(e_z, e_B):
        return ZeroDivisor((e_B - e_z) % kops.p)
    u = alg.power(z, r, e_B)
    v_chk = alg.power(u, (ctx.order - 1) // r, e_B)
    if not np.array_equal(v_chk, e_B):
        hit = _scan_scalars(alg, v_chk, e_B, exponent, _powers(zeta, r))
        return NoSplit() if hit is None or hit[2] is None else ZeroDivisor(hit[1])
    y = _algebra_amm(alg, e_B, exponent, u, r)
    if not isinstance(y, np.ndarray):
        return y
    w_elem = alg.mult(y, alg.power(z, exponent - 1, e_B))
    hit = _scan_scalars(alg, w_elem, e_B, exponent, _powers(zeta, r))
    if hit is None:
        raise InvalidSystem("w is an r-th root of unity; some factor must be singular")
    return NoSplit() if hit[2] is None else ZeroDivisor(hit[1])


def _split_char_order(alg: LevelAlgebra, basis, pivots, e_B, exponent: int, sigma_mat):
    """Order-p automorphism in characteristic p: either the fixed/moved
    support splits, or an Artin-Schreier solve produces an element with
    values 0..p-1 along every orbit."""
    kops = alg.ops
    p = alg.ctx.p
    dim = basis.shape[0]
    # row i of sigma_mat @ basis is sigma(basis[i]); the caller has ruled
    # out sigma = 1, so some row moves
    acc = e_B.copy()
    for d_elem in (kops.matmul(sigma_mat, basis) - basis) % p:
        if not d_elem.any():
            continue
        acc = alg.mult(acc, (e_B - alg.power(d_elem, exponent, e_B)) % p)
        if not acc.any():
            break
    moved = (e_B - acc) % p
    if not np.array_equal(moved, e_B):
        return ZeroDivisor(moved)
    # solve (sigma - 1) z = e_B in coordinates
    M = np.swapaxes((sigma_mat - kops.eye(dim)) % p, 0, 1)
    sol = kops.solve_right(M, e_B[pivots])
    if sol is None:
        raise InvalidSystem("sigma - 1 must reach the identity on moved support")
    z = kops.matmul(sol[None], basis)[0]
    u = (alg.power(z, p, e_B) - z) % p
    # fixed subalgebra F = ker(sigma - 1), as rows in ambient coordinates,
    # and its F_p-basis theta^t * F[a], (a, t) in C order
    F, fpiv = kops.rref(kops.matmul(kops.nullspace(M), basis))
    els = kops.mul(F[:, None], kops.theta[None, : kops.d, None]).reshape((-1,) + e_B.shape)
    # Frobenius-minus-identity as an F_p-linear map on F
    cols = [((alg.power(el, p, e_B) - el) % p)[fpiv].reshape(-1) for el in els]
    A_fp = np.stack(cols, axis=1)[..., None]  # (dimF*d, dimF*d, 1)
    rhs = ((-u) % p)[fpiv].reshape(-1)[..., None]
    x = KOps(field_ctx(p, 1)).solve_right(A_fp, rhs)
    if x is None:
        # no w in F with w^p - w = -u, as on the field F_p[x]/(x^p - x - 1):
        # z generates a degree-p extension of F there, not a zero divisor
        return NoSplit()
    w = (x[:, 0] @ els.reshape(len(els), -1)).reshape(e_B.shape) % p
    z2 = (z + w) % p
    e2 = alg.power(z2, exponent, e_B)
    if np.array_equal(e2, e_B) or not e2.any():
        raise InvalidSystem("Artin-Schreier element must vanish once per orbit")
    return ZeroDivisor(z2)


def _universal_exponent(ctx: FieldCtx, dim: int) -> int:
    """z^this is idempotent even when components live in extensions <= dim."""
    lam = 1
    for t in range(1, dim + 1):
        lam = math.lcm(lam, ctx.order**t - 1)
    return lam


def _split_in_extension(f: Poly, s: int, basis, pivots, idem, sigma_mat, r: int, t: int):
    """Adjoin the r-th roots of unity, split there, descend the idempotent.

    The ideal (basis, pivots, idem) of level s of f is lifted to level s of
    f over the extension; t bounds the degrees of its residue fields over
    the base field (1 when f splits), which fixes the idempotent exponent.
    """
    ctx = f.ctx
    K = field_ctx(ctx.p, ctx.d * multiplicative_order(ctx.order, r))
    algK = build_levels(lift_poly(f, K), s)[s - 1]
    E = _digit_embedding(ctx, K)

    def lift_vec(v):
        return (v.astype(np.int64) @ E) % ctx.p

    idemK = lift_vec(idem)
    exponent = _universal_exponent(K, t)
    res = _split_with_automorphism(algK, lift_vec(basis), list(pivots), idemK, exponent, lift_vec(sigma_mat), r)
    if isinstance(res, NoSplit):
        return res
    # e has 0/1 component values, so its digit vectors lie in the image of E
    return ZeroDivisor(_descend(E, algK.power(res.vec, exponent, idemK), ctx.p))


def _digit_embedding(ctx: FieldCtx, K: FieldCtx):
    """The embedding of ctx into K on digit vectors, which is F_p-linear:
    row i of E is the image of theta^i, and v maps to v @ E mod p."""
    emb = embed_field(ctx, K)
    return np.array([emb(ctx.elem([0] * i + [1])).coeffs for i in range(ctx.d)], dtype=np.int64)


def _descend(E, vals, p: int):
    """Digit vectors x with x @ E = vals mod p, for vals (..., K.d) and
    E from `_digit_embedding`; InvalidSystem when some value lies outside
    the image, the subfield."""
    sol = KOps(field_ctx(p, 1)).solve_right_many(E.T[..., None], vals.reshape(-1, E.shape[1]).T[..., None])
    if sol is None:
        raise InvalidSystem("value does not lie over the base field")
    return sol[:, :, 0].T.reshape(vals.shape[:-1] + (E.shape[0],))


def _split_ideal(alg: LevelAlgebra, basis, pivots, idem, sigma_mat, r: int, t: int):
    """Split an ideal of a level under sigma, extending scalars when the
    r-th roots of unity are missing; t as in _split_in_extension."""
    ctx = alg.ctx
    if r != ctx.p and (ctx.order - 1) % r:
        return _split_in_extension(alg.f, alg.s, basis, pivots, idem, sigma_mat, r, t)
    return _split_with_automorphism(alg, basis, list(pivots), idem, _universal_exponent(ctx, t), sigma_mat, r)


def split_by_automorphism(f: Poly, sigma, r: int):
    """Ronyai-style split of A = k[x]/(f) under a prime-order automorphism.

    A has the basis 1, x, ..., x^(n-1); sigma is an n x n matrix (entries
    ints or digit vectors) whose row i is the image of x^i in that basis.
    f must be squarefree but need not split.  Returns ZeroDivisor, with
    coordinates in the same basis, or NoSplit (as for the field
    F_5[x]/(x^2 - 2) under x -> -x).
    """
    g = f.monic()
    dg = Poly(g.ctx, [c * g.ctx.elem([i]) for i, c in enumerate(g.coeffs)][1:])
    if dg.is_zero() or poly_gcd(g, dg).degree > 0:
        # nilpotents have no support idempotent: the engine would be wrong
        raise NotSplit("polynomial is not squarefree")
    alg = build_levels(g, 1)[0]
    kops = alg.ops
    n = alg.dim
    # residues in every shape: the kernels take digits below p
    sigma = np.asarray(sigma, dtype=np.int64) % kops.p
    if sigma.ndim == 2:
        sig = kops.zeros((n, n))
        sig[..., 0] = sigma
        sigma = sig
    if not is_prime(r):
        raise ValueError("r must be prime")
    eye = kops.eye(n)
    if kops.mat_eq(sigma, eye):
        raise TrivialAutomorphism("automorphism is the identity")
    if not kops.mat_eq(square_and_multiply(sigma, r, eye, kops.matmul), eye):
        raise ValueError("sigma^r is not the identity")
    # components of A are k itself when f splits, else extensions of degree <= n
    t = 1 if is_split_squarefree(g) else n
    return _split_ideal(alg, kops.eye(n), range(n), alg.identity(), sigma, r, t)


# ---------------------------------------------------------------------------
# the refinement pipeline


@dataclass
class Ideal:
    uid: int
    level: int
    idem: np.ndarray
    basis: np.ndarray
    pivots: tuple

    @property
    def dim(self):
        return self.basis.shape[0]


@dataclass
class Refined:
    system: "IdealSystem"


@dataclass
class Factor:
    g: Poly
    log: list | None = None


@dataclass
class NoChange:
    pass


@dataclass
class StuckScheme:
    system: "IdealSystem"
    certificate: dict
    log: list | None = None


class IdealSystem:
    """Orthogonal ideal decompositions of every essential level, plus the
    ordered refinement log.  Refinement returns new systems sharing the
    immutable per-level machinery."""

    def __init__(self, f: Poly, m: int):
        if not f.is_monic():
            f = f.monic()
        if not is_split_squarefree(f):
            raise NotSplit("pipeline input must be squarefree and fully split")
        self._build(f, m)

    @classmethod
    def _of_split(cls, f: Poly, m: int):
        """The system of a monic f already known to split into distinct
        linear factors, such as the lift of a checked polynomial to an
        extension (lifting keeps the roots)."""
        sys = cls.__new__(cls)
        sys._build(f, m)
        return sys

    def _build(self, f: Poly, m: int):
        if f.ctx.p < f.degree:
            # fibre counts are field scalars; p >= n keeps them faithful
            raise PreconditionFailed("characteristic must be at least deg f for exact fibre counts")
        self.f = f
        self.ctx = f.ctx
        self.m = m
        self.algebras = build_levels(f, m)
        self.levels = {}
        self.log = []
        self.shared = {"uid": itertools.count(), "checks": {}, "perms": {}, "traces": {}}
        for s in range(1, m + 1):
            alg = self.algebras[s - 1]
            kops = alg.ops
            basis = kops.eye(alg.dim)
            ideal = Ideal(next(self.shared["uid"]), s, alg.identity(), basis, tuple(range(alg.dim)))
            self.levels[s] = [ideal]

    def clone(self):
        new = copy.copy(self)
        new.levels = {s: list(ideals) for s, ideals in self.levels.items()}
        new.log = list(self.log)
        return new

    def algebra(self, s: int) -> LevelAlgebra:
        return self.algebras[s - 1]

    # -- cached element machinery -------------------------------------------

    def _perm_idem(self, ideal: Ideal, tau: tuple):
        key = (ideal.uid, tau)
        cache = self.shared["perms"]
        if key not in cache:
            cache[key] = self.algebra(ideal.level).apply_perm(tau, ideal.idem)
        return cache[key]

    def _trace_idem(self, s: int, ideal: Ideal, j: int):
        """Fibre-count function of a level-s idempotent along coordinate j."""
        key = (ideal.uid, j)
        cache = self.shared["traces"]
        if key not in cache:
            alg = self.algebra(s)
            cache[key] = alg.rel_trace_last(self.algebra(s - 1), self._perm_idem(ideal, alg.move_last((j,))))
        return cache[key]

    def _split(self, s: int, idx: int, u: np.ndarray, rule: str, detail: dict, rows_u=None):
        """New system with levels[s][idx] split along idempotent u; rows_u
        are the rows of u * I when the caller has them."""
        alg = self.algebra(s)
        kops = alg.ops
        ideal = self.levels[s][idx]
        rest = (ideal.idem - u) % kops.p
        if rows_u is None:
            rows_u = alg.mult_batch(ideal.basis, u)
        # b * e = b on the ideal, so the rows of (e - u) * I need no product
        rows_r = (ideal.basis - rows_u) % kops.p
        b_u, p_u = kops.rref(rows_u)
        b_r, p_r = kops.rref(rows_r)
        if b_u.shape[0] + b_r.shape[0] != ideal.dim or not b_u.shape[0] or not b_r.shape[0]:
            raise InvalidSystem("split parts must partition the ideal")
        new = self.clone()
        uid = self.shared["uid"]
        part1 = Ideal(next(uid), s, u, b_u, tuple(p_u))
        part2 = Ideal(next(uid), s, rest, b_r, tuple(p_r))
        new.levels[s][idx: idx + 1] = [part1, part2]
        entry = {"rule": rule, "level": s, "ideal": idx, "dims": [part1.dim, part2.dim]}
        entry.update(detail)
        new.log.append(entry)
        return Refined(new)


def _factor_key(g: Poly):
    return (g.degree, tuple((-c).index for c in g.coeffs[:-1]))


def _rule_r4(sys: IdealSystem):
    if len(sys.levels[1]) < 2:
        return NoChange()
    # a level-1 vector is a polynomial of degree < n, and 1 - e vanishes
    # exactly at the roots in the support of e
    candidates = []
    for ideal in sys.levels[1]:
        one_minus_e = (sys.algebra(1).identity() - ideal.idem) % sys.ctx.p
        g = poly_gcd(sys.f, Poly(sys.ctx, one_minus_e.tolist()))
        if g.degree != ideal.dim:
            raise InvalidSystem("a level-1 ideal's dimension must be its idempotent's root count")
        candidates.append(g)
    g = min(candidates, key=_factor_key)
    new = sys.clone()
    new.log.append({"rule": "R4", "level": 1, "factor": g.int_coeffs()})
    return Factor(g, new.log)


def _rule_r1(sys: IdealSystem):
    # P = apply_perm(move_last((j,))) takes iota_j(v) to iota_s(v), so
    # P(h * iota_j(v)) = P(h) * iota_s(v) is a product at level s-1
    # (`mult_lower`): u = 0 and u = h are decided in the moved frame, and
    # only a u that splits is moved back
    checks = sys.shared["checks"]
    for s in range(2, sys.m + 1):
        alg, lower = sys.algebra(s), sys.algebra(s - 1)
        for i, below in enumerate(sys.levels[s - 1]):
            for j in range(1, s + 1):
                todo = [(ip, h) for ip, h in enumerate(sys.levels[s]) if ("R1", below.uid, h.uid, j) not in checks]
                if not todo:
                    continue
                tau = alg.move_last((j,))
                moved = np.stack([sys._perm_idem(here, tau) for _, here in todo])
                prods = alg.mult_lower(lower, moved, below.idem)
                for (ip, here), h, u in zip(todo, moved, prods):
                    if not u.any() or np.array_equal(u, h):
                        # True when here lies in the cylinder of below along
                        # j, False when the two are orthogonal
                        checks[("R1", below.uid, here.uid, j)] = bool(u.any())
                        continue
                    # b * e_h = b on the ideal, so the rows of u * I are B * iota_j(e_B)
                    back = tuple(np.argsort(tau).tolist())
                    rows = alg.mult_lower(lower, alg.apply_perm(tau, here.basis), below.idem)
                    return sys._split(s, ip, alg.apply_perm(back, u), "R1", {"below": i, "j": j},
                                      alg.apply_perm(back, rows))
    return NoChange()


def _constant_rows(kops: KOps, T, E):
    """Rows b at which T[b] = c*E[b] for some field scalar c, E[b] nonzero.

    With k the first nonzero cell of E[b], that holds iff
    T[b]*E[b, k] = E[b]*T[b, k] (then c = T[b, k]/E[b, k]), so no inverse
    is needed.
    """
    rows = np.arange(E.shape[0])
    k = E.any(axis=-1).argmax(axis=1)
    lhs = kops.mul(T, E[rows, k][:, None])
    rhs = kops.mul(E, T[rows, k][:, None])
    return (lhs == rhs).all(axis=(1, 2))


def _rule_r2(sys: IdealSystem):
    checks = sys.shared["checks"]
    counts = range(min(sys.f.degree, sys.ctx.p - 1) + 1)  # fibre counts 0..n as field scalars
    exponent = sys.ctx.order - 1  # support idempotents of a split level
    for s in range(2, sys.m + 1):
        below_alg = sys.algebra(s - 1)
        for ip, here in enumerate(sys.levels[s]):
            for j in range(1, s + 1):
                todo = [(i, b) for i, b in enumerate(sys.levels[s - 1]) if ("R2", here.uid, b.uid, j) not in checks]
                if not todo:
                    continue
                tr = sys._trace_idem(s, here, j)
                # a count c*e_B is settled: its scan hits c at a zero
                # difference, or nothing, since a unit multiple of e_B has
                # support e_B; a scalar trace gives such counts everywhere
                if not tr[1:].any():
                    T, constant = None, np.ones(len(todo), dtype=bool)
                else:
                    idems = np.stack([b.idem for _, b in todo])
                    T = below_alg.mult_batch(idems, tr)
                    constant = _constant_rows(below_alg.ops, T, idems)
                for row, (i, below) in enumerate(todo):
                    if not constant[row]:
                        hit = _scan_scalars(below_alg, T[row], below.idem, exponent, counts)
                        if hit is not None and hit[2] is not None:
                            split_u = (below.idem - hit[2]) % below_alg.ops.p
                            return sys._split(s - 1, i, split_u, "R2", {"here": ip, "j": j})
                    # a constant fibre count, or one taking no value 0..n
                    checks[("R2", here.uid, below.uid, j)] = True
    return NoChange()


def _rule_r3(sys: IdealSystem):
    checks = sys.shared["checks"]
    for s in range(2, sys.m + 1):
        alg = sys.algebra(s)
        idems = np.stack([h.idem for h in sys.levels[s]])
        for tau in itertools.islice(itertools.permutations(range(s)), 1, None):  # skip the identity
            for i, here in enumerate(sys.levels[s]):
                key = ("R3", here.uid, tau, tuple(h.uid for h in sys.levels[s]))
                if key in checks:
                    continue
                img = sys._perm_idem(here, tau)
                if any(np.array_equal(img, e) for e in idems):
                    checks[key] = True
                    continue
                prods = alg.mult_batch(idems, img)
                for ip, (other, u) in enumerate(zip(sys.levels[s], prods)):
                    if u.any() and not np.array_equal(u, other.idem):
                        return sys._split(s, ip, u, "R3", {"tau": list(tau), "source": i})
                raise InvalidSystem("tau-image must overlap some ideal properly")
    return NoChange()


def _least_prime_divisor(n: int) -> int:
    return next(q for q in range(2, n + 1) if n % q == 0)


def _sigma_matrix_from_perm(sys: IdealSystem, ideal: Ideal, tau: tuple):
    alg = sys.algebra(ideal.level)
    return alg.apply_perm(tau, ideal.basis)[:, ideal.pivots, :]


def _split_with_order(sys: IdealSystem, s: int, idx: int, sigma, rule: str, detail: dict):
    """Split levels[s][idx] with the automorphism sigma (row i: its image
    of basis row i, in basis coordinates): the engine runs on
    sigma^(order/r) for r the least prime dividing sigma's order, and r is
    added to the log entry.  R5's tau and a matching's psi move every
    essential tuple, so sigma = 1 is a broken invariant."""
    alg = sys.algebra(s)
    kops = alg.ops
    ideal = sys.levels[s][idx]
    eye = kops.eye(ideal.dim)
    if kops.mat_eq(sigma, eye):
        raise InvalidSystem("automorphism is the identity")
    power, order = sigma, 1
    while not kops.mat_eq(power, eye):
        if order >= ORDER_CAP:
            raise InvalidSystem("automorphism order exceeds cap")
        power, order = kops.matmul(power, sigma), order + 1
    r = _least_prime_divisor(order)
    res = _split_ideal(alg, ideal.basis, ideal.pivots, ideal.idem,
                       square_and_multiply(sigma, order // r, eye, kops.matmul), r, 1)
    if isinstance(res, NoSplit):
        raise InvalidSystem("split algebras always admit a split under a nontrivial automorphism")
    u = alg.idempotent_of(res.vec)
    if not u.any() or np.array_equal(u, ideal.idem):
        raise InvalidSystem("zero divisor must cut the ideal properly")
    return sys._split(s, idx, u, rule, {**detail, "r": r})


def _rule_r5(sys: IdealSystem):
    checks = sys.shared["checks"]
    for s in range(2, sys.m + 1):
        for i, here in enumerate(sys.levels[s]):
            for tau in itertools.islice(itertools.permutations(range(s)), 1, None):  # skip the identity
                key = ("R5", here.uid, tau)
                if key in checks:
                    continue
                img = sys._perm_idem(here, tau)
                if not np.array_equal(img, here.idem):
                    checks[key] = True
                    continue
                # a non-identity tau moves every essential tuple, so its
                # matrix on the ideal has the permutation's order
                return _split_with_order(sys, s, i, _sigma_matrix_from_perm(sys, here, tau), "R5", {"tau": list(tau)})
    return NoChange()


_RULES = {"R4": _rule_r4, "R1": _rule_r1, "R2": _rule_r2, "R3": _rule_r3, "R5": _rule_r5}
RULE_ORDER = ("R4", "R1", "R2", "R3", "R5")


def refine_step(sys: IdealSystem, rule: str):
    """Apply one refinement rule; first effective action wins.

    Returns Refined(new system), Factor(g), or NoChange().
    """
    if rule not in _RULES:
        raise ValueError(f"unknown rule {rule!r}")
    return _RULES[rule](sys)


# -- matchings on the induced scheme (no root access) -----------------------


def _project_color(sys: IdealSystem, s: int, idx: int, dropped: tuple):
    """Index of the lower ideal whose cylinder along `dropped` contains this
    one, or None when R1 has not recorded one.

    The cylinder is the lower ideal's `embed_from_below` at the `dropped`
    slots.  The projection peels them off in descending order, so that each
    keeps its slot, one level at a time, through R1's incidence.
    At R1 stability every ideal lies in exactly one cylinder of each level
    below.
    """
    checks = sys.shared["checks"]
    for j in reversed(dropped):
        here = sys.levels[s][idx]
        s -= 1
        idx = next((bi for bi, b in enumerate(sys.levels[s]) if checks.get(("R1", b.uid, here.uid, j))), None)
        if idx is None:
            return None
    return idx


def _detect_matchings(sys: IdealSystem):
    out = []
    for s in range(2, sys.m + 1):
        for l, here in enumerate(sys.levels[s]):
            for k in range(1, s):
                drops = list(itertools.combinations(range(1, s + 1), k))
                proj = {d: _project_color(sys, s, l, d) for d in drops}
                for d1, d2 in itertools.combinations(drops, 2):
                    l1, l2 = proj[d1], proj[d2]
                    if l1 is None or l1 != l2:
                        continue
                    if sys.levels[s - k][l1].dim == here.dim:
                        out.append(_mscheme.Matching(s, l, d1, d2))
    return out


def matching_refinement(sys: IdealSystem, m: _mscheme.Matching):
    """Use a matching's pair of embeddings to build an ideal automorphism
    and split with it; a level-1 split yields a factor."""
    s = m.level
    k = len(m.drop_i)
    if not 2 <= s <= sys.m:
        raise NotAMatching("no such level")
    for drop in (m.drop_i, m.drop_j):
        if not 0 < len(drop) < s or tuple(drop) not in itertools.combinations(range(1, s + 1), len(drop)):
            raise NotAMatching("index tuples must be strictly increasing in 1..level, of size 1..level-1")
    if m.drop_i == m.drop_j or len(m.drop_i) != len(m.drop_j):
        raise NotAMatching("index tuples must differ and have equal size")
    if not (0 <= m.color < len(sys.levels[s])):
        raise NotAMatching("no such ideal")
    here = sys.levels[s][m.color]
    l1 = _project_color(sys, s, m.color, m.drop_i)
    l2 = _project_color(sys, s, m.color, m.drop_j)
    if l1 is None or l1 != l2:
        raise NotAMatching("the two projections select different ideals")
    below = sys.levels[s - k][l1]
    if below.dim != here.dim:
        raise NotAMatching("projection is not size-preserving")
    alg, lower = sys.algebra(s), sys.algebra(s - k)
    kops = alg.ops
    X1 = alg.mult_batch(alg.embed_from_below(lower, m.drop_i, below.basis), here.idem)
    X2 = alg.mult_batch(alg.embed_from_below(lower, m.drop_j, below.basis), here.idem)
    # both embeddings must be isomorphisms onto the matched ideal
    psi = kops.solve_right_many(np.swapaxes(X1, 0, 1), np.swapaxes(X2, 0, 1))
    if psi is None or kops.rank(X1) != below.dim or kops.rank(X2) != below.dim:
        raise NotAMatching("embeddings are not isomorphisms onto the ideal")
    psi = np.swapaxes(psi, 0, 1)  # rows: psi(basis_i) in below-coordinates
    res = _split_with_order(
        sys, s - k, l1, psi, "matching",
        {"matching_level": s, "matching_ideal": m.color, "drop_i": list(m.drop_i), "drop_j": list(m.drop_j)},
    )
    return _rule_r4(res.system) if s - k == 1 else res


# -- drivers ------------------------------------------------------------------


def _certificate(sys: IdealSystem, matchings: list) -> dict:
    """Certificate of a system no rule refines."""
    cert = {"stable": True, "no_matching": not matchings}
    cert["homogeneous"] = len(sys.levels[1]) == 1
    ortho = True
    dims_ok = True
    antisym = True
    dims = {}
    for s in range(1, sys.m + 1):
        alg = sys.algebra(s)
        total = alg.zero()
        for ideal in sys.levels[s]:
            e2 = alg.mult(ideal.idem, ideal.idem)
            if not np.array_equal(e2, ideal.idem):
                ortho = False
            total = (total + ideal.idem) % alg.ops.p
        if not np.array_equal(total, alg.identity()):
            ortho = False
        level_dims = [i.dim for i in sys.levels[s]]
        dims[s] = level_dims
        if sum(level_dims) != alg.dim:
            dims_ok = False
        if s >= 2:
            for ideal in sys.levels[s]:
                for tau in itertools.islice(itertools.permutations(range(s)), 1, None):  # skip the identity
                    if np.array_equal(sys._perm_idem(ideal, tau), ideal.idem):
                        antisym = False
    cert["orthogonal_partition"] = ortho
    cert["dimension_sums"] = dims
    cert["dimension_sums_ok"] = dims_ok
    cert["antisymmetric"] = antisym
    cert["valid"] = all([not matchings, cert["homogeneous"], ortho, dims_ok, antisym])
    return cert


def validate_certificate(stuck: StuckScheme) -> bool:
    """Recheck a stuck certificate from scratch: stability, partition,
    dimension sums, absence of matchings."""
    sys = stuck.system
    for rule in RULE_ORDER:
        if not isinstance(refine_step(sys, rule), NoChange):
            return False
    matchings = _detect_matchings(sys)
    cert = _certificate(sys, matchings)
    return cert["valid"]


def iks_factor(f: Poly, m: int, stage_hook=None):
    """Factor-or-stuck driver with iterative deepening up to m.

    Returns Factor(g) or StuckScheme(sys); both carry the refinement log.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    g = f.monic()
    if g.degree < 2:
        raise ValueError("degree must be >= 2 to have a nontrivial factor")
    if not is_split_squarefree(g):
        raise NotSplit("input must be monic, squarefree, and fully split")
    base = g.ctx
    full_log = []
    last_sys = None
    for m_try in range(2, min(m, g.degree) + 1):
        k = extension_for_levels(base, m_try)
        fk = lift_poly(g, k)
        sys = IdealSystem._of_split(fk, m_try)
        attempt = {"m": m_try, "field": {"p": k.p, "d": k.d}}
        while True:
            # one event: the first rule that acts, else the first matching
            results = (refine_step(sys, rule) for rule in RULE_ORDER)
            res = next((res for res in results if not isinstance(res, NoChange)), None)
            if res is None:
                matchings = _detect_matchings(sys)
                if not matchings:
                    break
                try:
                    res = matching_refinement(sys, matchings[0])
                except NotAMatching as exc:
                    # found on this very system: refusing it is a broken invariant
                    raise InvalidSystem(f"detected matching refused: {exc}") from exc
            if isinstance(res, Refined):
                sys = res.system
            if stage_hook:
                stage_hook(sys)
            if isinstance(res, Factor):
                attempt.update(events=res.log, outcome="factor")
                full_log.append(attempt)
                return Factor(res.g if res.g.ctx == base else _project_factor(res.g, base), full_log)
        attempt.update(events=sys.log, outcome="stuck")
        full_log.append(attempt)
        last_sys = sys
    cert = _certificate(last_sys, [])
    return StuckScheme(last_sys, cert, full_log)


def _project_factor(g: Poly, base: FieldCtx) -> Poly:
    """Map a factor with base-field values back to the base context."""
    coeffs = np.array([c.coeffs for c in g.coeffs], dtype=np.int64)
    return Poly(base, _descend(_digit_embedding(base, g.ctx), coeffs, base.p).tolist())


def log_to_json(log) -> str:
    return json.dumps(log, sort_keys=True, separators=(",", ":"))


def prime_degree_factor(f: Poly, r: int, ell: int):
    """Prime-degree driver: with a large r-smooth divisor of n-1 the stuck
    outcome is impossible, so this always returns a factor."""
    n = f.degree
    if not is_prime(n):
        raise NotPrimeDegree(f"degree {n} is not prime")
    if ell < 1:
        raise ValueError("ell must be >= 1")
    s_val = smooth_divisor(n - 1, r)
    if ell * (s_val - 1) ** 2 < n:
        raise SmoothDivisorTooSmall(f"largest {r}-smooth divisor {s_val} < sqrt(n/ell)+1")
    ell_p = 2 * ell + 1
    m = min(n, max(r + 1, math.ceil(2 * math.log2(ell_p)) + 3))
    try:
        res = iks_factor(f, m)
    except DimCapExceeded as exc:
        raise DimCapExceeded(f"required m={m}: {exc}") from exc
    if isinstance(res, StuckScheme):
        raise TheoremContradiction("prime-degree refinement must never get stuck")
    return res


class NotAPartition(AssertionError):
    """Ideal supports failed to partition the tuples (test-fatal)."""


def supports(sys: IdealSystem, roots) -> _mscheme.MCollection:
    """Transparent-model supports: evaluate every ideal at every essential
    tuple and return the induced collection (test instrumentation)."""
    ctx = sys.ctx
    n = sys.f.degree
    roots = [ctx.elem(r) for r in roots]
    check = Poly(ctx, [1])
    for r in roots:
        check = check * Poly(ctx, [-r, ctx.one()])
    if check != sys.f:
        raise ValueError("roots must be exactly the roots of f")
    levels_map = {}
    for s in range(1, sys.m + 1):
        alg = sys.algebra(s)
        tuples = _mscheme.tuple_table(n, s)
        count = tuples.shape[0]
        colors = np.full(count, -1, dtype=np.int32)
        vals_cache = _monomial_values(alg, roots, tuples)
        for ci, ideal in enumerate(sys.levels[s]):
            v = _eval_vec(alg, vals_cache, ideal.idem)
            nz = v.any(axis=1)
            if (colors[nz] != -1).any():
                raise NotAPartition("ideal supports overlap")
            colors[nz] = ci
        if (colors == -1).any():
            raise NotAPartition("ideal supports do not cover the tuples")
        levels_map[s] = colors
    return _mscheme.MCollection(n, levels_map)


def _monomial_values(alg: LevelAlgebra, roots, tuples):
    """(count, dim, d) values of every canonical monomial at every tuple."""
    ops = alg.ops
    n = len(roots)
    maxe = max(alg.extents)
    pows = np.zeros((n, maxe, ops.d), dtype=np.int64)
    for vi, rv in enumerate(roots):
        acc = alg.ctx.one()
        for e in range(maxe):
            pows[vi, e] = np.array(acc.coeffs, dtype=np.int64)
            acc = acc * rv
    count = tuples.shape[0]
    vals = np.zeros((count, 1, ops.d), dtype=np.int64)
    vals[:, 0, 0] = 1
    for ax in range(alg.s):
        ext = alg.extents[ax]
        axis_vals = pows[tuples[:, ax], :ext]  # (count, ext, d)
        vals = ops.mul(vals[:, :, None, :], axis_vals[:, None, :, :]).reshape(count, -1, ops.d)
    return vals


def _eval_vec(alg: LevelAlgebra, vals, vec):
    ops = alg.ops
    prods = ops.mul(vals, vec[None, :, :])
    return prods.sum(axis=1) % ops.p
