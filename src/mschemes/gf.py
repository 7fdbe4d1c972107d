"""Exact arithmetic over small finite fields F_{p^d} and univariate polynomials.

Elements are coefficient vectors over F_p (constant term first).  The
canonical index of an element is sum(c_j * p**j); every "first" or "least"
choice in this package is taken in ascending canonical-index order, so all
operations are deterministic.  Moduli for extension fields are the first
irreducible monic polynomial in that same order.

Fields here are deliberately small (the magnitude cap is 2**63-1 but
practical use stays far below); nothing in this module allocates
per-field tables, so contexts are cheap and immutable.
"""

from __future__ import annotations

import math
from functools import lru_cache

MAGNITUDE_CAP = 2**63 - 1


class NotPrime(ValueError):
    pass


class Overflow(ValueError):
    pass


class FieldMismatch(ValueError):
    pass


class NoNonresidue(ValueError):
    pass


class DivisionByZero(ValueError, ZeroDivisionError):
    """The inverse of zero, or a polynomial divided by zero."""


class NotAPoly(ValueError, TypeError):
    """A polynomial operation was given something other than a Poly."""


class PreconditionFailed(RuntimeError):
    """An unmet hypothesis or a resource cap: the input is well formed, but
    the requested computation is outside what the method guarantees."""


class ScanCapExceeded(PreconditionFailed):
    pass


_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 3.3e24."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smooth_divisor(n: int, r: int) -> int:
    """Largest divisor of n whose prime factors are all <= r."""
    if n < 1 or r < 2:
        raise ValueError("need n >= 1 and r >= 2")
    out = 1
    rem = n
    q = 2
    while q <= r and q * q <= rem:
        while rem % q == 0:
            out *= q
            rem //= q
        q += 1
    if rem > 1 and rem <= r:
        out *= rem
    return out


def square_and_multiply(base, e: int, one, mul):
    """base^e for e >= 0 by binary powering with the product `mul`; base^0 is
    `one`.  The squaring after the top bit, which nothing uses, is skipped."""
    result = one
    while e:
        if e & 1:
            result = mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _digits(idx, p, length):
    out = []
    for _ in range(length):
        idx, r = divmod(idx, p)
        out.append(r)
    return out


class FieldCtx:
    """Immutable description of F_{p^d} with a canonical modulus.

    For d == 1 the modulus is the placeholder x and arithmetic is plain
    arithmetic mod p.
    """

    __slots__ = ("p", "d", "order", "modulus", "red_rows")

    def __init__(self, p, d, modulus):
        self.p = p
        self.d = d
        self.order = p**d
        self.modulus = tuple(modulus)
        # reduction rows: x^(d+i) mod modulus for i = 0..d-2, as length-d vectors
        rows = []
        if d > 1:
            cur = [(-c) % p for c in modulus[:-1]]  # x^d
            rows.append(tuple(cur))
            for _ in range(d - 2):
                cur = [0] + cur
                top = cur.pop()
                if top:
                    cur = [(c - top * m) % p for c, m in zip(cur, modulus[:-1])]
                rows.append(tuple(cur))
        self.red_rows = tuple(rows)

    def zero(self):
        return FieldElem(self, (0,) * self.d)

    def one(self):
        return FieldElem(self, (1,) + (0,) * (self.d - 1))

    def elem(self, value):
        """Element from an integer (reduced mod p when d == 1) or coeff list."""
        if isinstance(value, FieldElem):
            if value.ctx != self:
                raise FieldMismatch("element from a different field")
            return value
        if isinstance(value, int):
            if self.d == 1:
                return FieldElem(self, (value % self.p,))
            return self.from_index(value % self.order)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.d:
            raise ValueError("coefficient vector longer than extension degree")
        coeffs += [0] * (self.d - len(coeffs))
        return FieldElem(self, tuple(coeffs))

    def from_index(self, idx):
        if not 0 <= idx < self.order:
            raise ValueError("index out of range")
        return FieldElem(self, tuple(_digits(idx, self.p, self.d)))

    def elements(self):
        """All elements in canonical (ascending index) order."""
        for idx in range(self.order):
            yield self.from_index(idx)

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and self.p == other.p
            and self.d == other.d
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((self.p, self.d, self.modulus))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, d={self.d})"


class FieldElem:
    """Element of a FieldCtx; coefficients low-to-high, always reduced."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    @property
    def index(self):
        return sum(c * self.ctx.p**j for j, c in enumerate(self.coeffs))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def _check(self, other):
        if not isinstance(other, FieldElem):
            other = self.ctx.elem(other)
        if other.ctx != self.ctx:
            raise FieldMismatch("mixed field contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        other = self._check(other)
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return FieldElem(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        other = self._check(other)
        ctx = self.ctx
        p, d = ctx.p, ctx.d
        if d == 1:
            return FieldElem(ctx, ((self.coeffs[0] * other.coeffs[0]) % p,))
        prod = [0] * (2 * d - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    prod[i + j] = (prod[i + j] + a * b) % p
        out = list(prod[:d])
        for i, row in enumerate(ctx.red_rows):
            c = prod[d + i]
            if c:
                for j, r in enumerate(row):
                    out[j] = (out[j] + c * r) % p
        return FieldElem(ctx, tuple(out))

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self._check(other) - self

    def __pow__(self, e):
        if e < 0:
            return self.inverse() ** (-e)
        return square_and_multiply(self, e, self.ctx.one(), FieldElem.__mul__)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        if self.ctx.d == 1:
            return FieldElem(self.ctx, (pow(self.coeffs[0], -1, self.ctx.p),))
        return self ** (self.ctx.order - 2)

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.elem(other)
        return isinstance(other, FieldElem) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.ctx.p, self.ctx.d))

    def __repr__(self):
        if self.ctx.d == 1:
            return f"F{self.ctx.p}({self.coeffs[0]})"
        return f"F{self.ctx.p}^{self.ctx.d}{list(self.coeffs)}"


@lru_cache(maxsize=None)
def field_ctx(p: int, d: int) -> FieldCtx:
    """Context for F_{p^d} with the canonical (first irreducible) modulus."""
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if d < 1:
        raise ValueError("extension degree must be >= 1")
    if p**d > MAGNITUDE_CAP:
        raise Overflow(f"p^d = {p**d} exceeds magnitude cap {MAGNITUDE_CAP}")
    if d == 1:
        return FieldCtx(p, 1, (0, 1))
    for idx in range(p**d):
        cand = _digits(idx, p, d) + [1]
        if _is_irreducible(Poly(field_ctx(p, 1), cand)):
            return FieldCtx(p, d, tuple(cand))
    raise AssertionError("unreachable: irreducible polynomial always exists")


class Poly:
    """Univariate polynomial over a FieldCtx, coefficients low-to-high.

    No trailing zeros are stored; the zero polynomial has an empty
    coefficient tuple.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        cs = [ctx.elem(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == self.ctx.one()

    def _check(self, other):
        if not isinstance(other, Poly):
            raise NotAPoly("expected Poly")
        if other.ctx != self.ctx:
            raise FieldMismatch("mixed field contexts")
        return other

    def __add__(self, other):
        other = self._check(other)
        zero = self.ctx.zero()
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly(self.ctx, [x + y for x, y in zip(a, b)])

    def __sub__(self, other):
        other = self._check(other)
        zero = self.ctx.zero()
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [zero] * (n - len(self.coeffs))
        b = list(other.coeffs) + [zero] * (n - len(other.coeffs))
        return Poly(self.ctx, [x - y for x, y in zip(a, b)])

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return Poly(self.ctx, [c * other for c in self.coeffs])
        other = self._check(other)
        if self.is_zero() or other.is_zero():
            return Poly(self.ctx, [])
        zero = self.ctx.zero()
        out = [zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a.is_zero():
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    def __divmod__(self, other):
        other = self._check(other)
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        zero = self.ctx.zero()
        rem = list(self.coeffs)
        db = other.degree
        inv_lead = other.coeffs[-1].inverse()
        q = [zero] * max(len(rem) - db, 0)
        while len(rem) - 1 >= db and rem:
            c = rem[-1] * inv_lead
            pos = len(rem) - 1 - db
            q[pos] = c
            for j, b in enumerate(other.coeffs):
                rem[pos + j] = rem[pos + j] - c * b
            while rem and rem[-1].is_zero():
                rem.pop()
        return Poly(self.ctx, q), Poly(self.ctx, rem)

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def monic(self):
        if self.is_zero():
            return self
        inv = self.coeffs[-1].inverse()
        return Poly(self.ctx, [c * inv for c in self.coeffs])

    def __call__(self, x):
        x = self.ctx.elem(x)
        acc = self.ctx.zero()
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx, self.coeffs))

    def int_coeffs(self):
        """Coefficients as canonical indices, constant term first."""
        return [c.index for c in self.coeffs]

    def __repr__(self):
        return f"Poly({self.int_coeffs()} over F_{self.ctx.p}^{self.ctx.d})"


def poly_from_text(ctx, text: str) -> Poly:
    """Parse the shared text format: comma-separated ints, constant first.

    A nonnegative int c is the element with index c (the residue c mod p
    when d == 1); a negative int -c is the negative of that element, so -1
    is -1 in every field.
    """
    ints = [int(t) for t in text.split(",") if t.strip() != ""]
    return Poly(ctx, [ctx.elem(c) if c >= 0 else -ctx.elem(-c) for c in ints])


def poly_to_text(f: Poly) -> str:
    return ",".join(str(c) for c in f.int_coeffs())


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd via the Euclidean algorithm."""
    if a.ctx != b.ctx:
        raise FieldMismatch("gcd of polynomials over different fields")
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) undefined")
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


def poly_powmod(base: Poly, e: int, mod: Poly) -> Poly:
    return square_and_multiply(base % mod, e, Poly(base.ctx, [1]), lambda a, b: (a * b) % mod)


def _is_irreducible(g: Poly) -> bool:
    """g monic of degree d is irreducible iff gcd(g, x^(Q^i) - x) = 1 for
    every i <= d/2, Q the order of its field."""
    x = Poly(g.ctx, [0, 1])
    h = x
    for _ in range(g.degree // 2):
        h = poly_powmod(h, g.ctx.order, g)
        if poly_gcd(g, h - x).degree > 0:
            return False
    return True


def is_split_squarefree(f: Poly) -> bool:
    """True iff f divides x^Q - x, i.e. f has deg(f) distinct roots in its field."""
    if f.degree < 1:
        raise ValueError("expected a nonconstant polynomial")
    if not f.is_monic():
        raise ValueError("expected a monic polynomial")
    x = Poly(f.ctx, [0, 1])
    xq = poly_powmod(x, f.ctx.order, f)
    return (xq - (x % f)).is_zero()


@lru_cache(maxsize=None)
def find_nonresidue(r: int, ctx: FieldCtx) -> FieldElem:
    """First element (canonical order) that is not an r-th power.

    Requires r prime with r | Q-1; the scan is capped at 2*(log2 Q)^2
    elements and raises ScanCapExceeded past the cap.  Scanned once per
    (r, field).
    """
    if not is_prime(r):
        raise ValueError("r must be prime")
    q1 = ctx.order - 1
    if q1 % r != 0:
        raise NoNonresidue(f"{r} does not divide {ctx.order} - 1; every element is an {r}-th power")
    cap = math.ceil(2 * math.log2(ctx.order) ** 2)
    e = q1 // r
    tested = 0
    for idx in range(1, ctx.order):
        if tested >= cap:
            raise ScanCapExceeded(f"no {r}-th nonresidue within scan cap {cap}")
        a = ctx.from_index(idx)
        tested += 1
        if a**e != ctx.one():
            return a
    raise AssertionError("unreachable: nonresidue exists when r | Q-1")


def multiplicative_order(a: int, n: int) -> int:
    """Least k >= 1 with a^k = 1 mod n, for n >= 2 and a coprime to n."""
    if n < 2 or math.gcd(a, n) != 1:
        raise ValueError(f"{a} has no multiplicative order mod {n}")
    k, acc = 1, a % n
    while acc != 1:
        acc = acc * a % n
        k += 1
    return k


def extension_for_levels(q_ctx: FieldCtx, m: int) -> FieldCtx:
    """Smallest extension of F_q whose multiplicative group admits s-th
    nonresidues and primitive s-th roots of unity for every prime s <= m
    (s = char handled by Frobenius, so exempt)."""
    if m < 2:
        raise ValueError("m must be >= 2")
    q = q_ctx.order
    d = 1
    for s in range(2, m + 1):
        if not is_prime(s) or s == q_ctx.p:
            continue
        d = math.lcm(d, multiplicative_order(q, s))
    total = q_ctx.d * d
    if q_ctx.p**total > MAGNITUDE_CAP:
        raise Overflow(f"q^d = {q_ctx.p**total} exceeds magnitude cap {MAGNITUDE_CAP}")
    return field_ctx(q_ctx.p, total)


def embed_field(src: FieldCtx, dst: FieldCtx):
    """Embedding F_{p^e} -> F_{p^(e*t)} as a map on elements.

    The image of the source generator is the canonically-least root of the
    source modulus in dst (deterministic scan; desk-scale fields only).
    """
    if src.p != dst.p or dst.d % src.d != 0:
        raise FieldMismatch("no embedding between these fields")
    if src == dst:
        return lambda a: a
    if src.d == 1:
        return lambda a: dst.elem(a.coeffs[0])
    mod = Poly(dst, [c for c in src.modulus])
    for idx in range(dst.order):
        cand = dst.from_index(idx)
        if mod(cand).is_zero():
            gen_img = cand
            break
    else:
        raise AssertionError("unreachable: source modulus splits in dst")
    powers = [dst.one()]
    for _ in range(src.d - 1):
        powers.append(powers[-1] * gen_img)

    def emb(a):
        acc = dst.zero()
        for c, pw in zip(a.coeffs, powers):
            acc = acc + pw * dst.elem(c)
        return acc

    return emb


def lift_poly(f: Poly, dst: FieldCtx) -> Poly:
    emb = embed_field(f.ctx, dst)
    return Poly(dst, [emb(c) for c in f.coeffs])
