"""Association schemes on explicit point sets.

A scheme is stored as a dense color matrix on X x X with color 0 reserved
for the identity relation.  Everything is exact integer arithmetic; all
searches scan in ascending index order, so outputs are deterministic.

`verify_scheme` checks all three axioms on a scheme's decisive rows, the
count axiom one row of pairs at a time.  On a translation scheme (the
color of (x, y) depends only on y - x mod n, as for the cyclotomic
schemes) the pair (x, y) behaves as (0, y - x) under every axiom, so row 0
decides every row; any other scheme is checked on every row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .gf import NotPrime, PreconditionFailed, is_prime, multiplicative_order

# most pairs (points squared) a cyclotomic scheme may have
SCHEME_PAIR_CAP = 2**24
# most counts (relations cubed) an intersection tensor may hold: 97^3, for
# every report the tests run, and 101^3 fit; the largest accepted report,
# p = 4001 at e = 100, peaks at 0.9 GB, mostly its e^3-row deviation table
RELATION_CUBE_CAP = 2**20


class NotAScheme(ValueError):
    pass


class EDoesNotDivide(ValueError):
    pass


class BadEll(ValueError):
    pass


class TheoremContradiction(AssertionError):
    """Hypotheses held but the guaranteed witness is missing; must never fire."""


class TooSmall(ValueError):
    pass


class NotHomogeneous(ValueError):
    pass


class Not3Scheme(ValueError):
    pass


class SchemeTooLarge(PreconditionFailed):
    """The color matrix would have more than SCHEME_PAIR_CAP pairs, or the
    intersection tensor more than RELATION_CUBE_CAP counts."""


@dataclass(frozen=True)
class Violation:
    axiom: int
    f: int | None
    g: int | None
    h: int | None
    pair1: tuple
    pair2: tuple
    message: str


@dataclass(frozen=True)
class FailedIdentity:
    identity: int  # 1..4 from the identity suite, 5 = quadrilateral double count
    witness: tuple


@dataclass(frozen=True)
class Witness:
    u: int
    v: int
    w: int
    w_prime: int
    c1: int
    c2: int


@dataclass(frozen=True)
class BoundsProfile:
    k: int
    delta1: Fraction
    delta1p: Fraction
    delta2p: Fraction
    c: int
    ell: int

    def valid_for(self, tensor: "IntersectionTensor") -> bool:
        # every nontrivial valency in [delta1*k, delta1'*k], every c(g) <= delta2'*c
        n_g, c_g = tensor.n_g[1:], tensor.c_g[1:]
        if n_g.size and not (self.delta1 * self.k <= int(n_g.min()) and int(n_g.max()) <= self.delta1p * self.k
                             and int(c_g.max()) <= self.delta2p * self.c):
            return False
        return 1 < self.ell < (self.delta1**2 / self.delta1p) * self.k

    def group_size_bound(self) -> Fraction:
        return 2 * (self.delta1p / self.delta1) ** 3 * self.delta2p * Fraction(self.c, self.ell - 1) + 2


@dataclass(frozen=True)
class SmallIntersectionResult:
    witness: Witness | None
    hypothesis_held: bool
    profile: BoundsProfile


class Scheme:
    """Color partition of X x X; color 0 must be the identity relation.
    first[g] is the row-major flat index of the first pair of color g."""

    def __init__(self, matrix):
        a = np.asarray(matrix)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("color matrix must be square")
        if a.size == 0:
            raise ValueError("color matrix must be nonempty")
        m = a.astype(np.int32)
        if not np.array_equal(m, a):
            raise ValueError("color ids must be int32 integers")
        flat = m.ravel()
        # d + 1 distinct ids need at least d + 1 entries, so a larger id is
        # refused before first would be allocated for it
        top = int(flat.max())
        if flat.min() != 0 or top >= flat.size:
            raise ValueError("color ids must be dense 0..d")
        first = np.full(top + 1, flat.size, dtype=np.intp)
        # row 0 comes first in row-major order, so when it holds every color
        # (as in every homogeneous scheme) its indices are the first ones
        np.minimum.at(first, m[0], np.arange(m.shape[1]))
        if (first == flat.size).any():
            np.minimum.at(first, flat, np.arange(flat.size))
            if (first == flat.size).any():
                raise ValueError("color ids must be dense 0..d")
        self.n = m.shape[0]
        self.num_colors = top + 1
        m.setflags(write=False)
        first.setflags(write=False)
        self.matrix = m
        self.first = first
        self._rows = None
        self._transpose = None

    def decisive_rows(self):
        """The rows 0..k-1 whose pairs decide every check: row 0 alone when
        x -> x + 1 (mod n) keeps every color (a translation scheme, where
        (x, y) behaves as (0, y - x)), else all n rows.  Computed once per
        scheme.  The rows are a prefix, so a flat index into m[:k] is the
        same flat index into m."""
        if self._rows is None:
            m = self.matrix
            # m[x + 1, y + 1] == m[x, y], the wrapped row and column apart
            translation = (
                m[0, 0] == m[-1, -1]
                and np.array_equal(m[0, 1:], m[-1, :-1])
                and np.array_equal(m[1:, 0], m[:-1, -1])
                and np.array_equal(m[1:, 1:], m[:-1, :-1])
            )
            self._rows = np.arange(1 if translation else self.n)
            self._rows.setflags(write=False)
        return self._rows

    def transpose_map(self):
        """(adj, mixed): adj[g] is the color of the transpose of g's first
        pair, and mixed[x, y] marks each pair (x, y) of the decisive rows
        with m[y, x] != adj[m[x, y]].  Computed once per scheme; both arrays
        are read-only."""
        if self._transpose is None:
            m, k = self.matrix, len(self.decisive_rows())
            adj = m.T.flat[self.first]
            mixed = m[:, :k].T != adj[m[:k]]
            adj.setflags(write=False)
            mixed.setflags(write=False)
            self._transpose = adj, mixed
        return self._transpose

    @property
    def adjoint(self):
        """g -> g* (transpose class map); requires transpose closure."""
        adj, mixed = self.transpose_map()
        if mixed.any():
            g = _first_flagged(self.matrix[: len(mixed)], mixed)[0]
            raise NotAScheme(f"transpose of color {g} is not a single color")
        return adj

    def __eq__(self, other):
        return (
            isinstance(other, Scheme)
            and self.n == other.n
            and np.array_equal(self.matrix, other.matrix)
        )

    def __repr__(self):
        return f"Scheme(n={self.n}, colors={self.num_colors})"


def _first_flagged(m, flagged):
    """Least color with a flagged pair, and the flat index of its first one."""
    g = int(m[flagged].min())
    return g, int(np.flatnonzero(flagged & (m == g))[0])


def _pair_codes(m, G, x, y):
    """codes[..., z] = m[x, z]*G + m[z, y] in m's dtype, which must hold G*G;
    x and y are index arrays of one length, or a row x and y = slice(None)."""
    return m[x, :] * G + m[:, y].T


def _pair_counts(m, G, x, y):
    """c[i, f, g] = #{z : m[x[i], z] = f, m[z, y[i]] = g}; m's dtype must
    hold G*G, and only the codes of the pairs read are widened to int64."""
    codes = _pair_codes(m, G, x, y).astype(np.int64)
    k = len(codes)
    codes += np.arange(k)[:, None] * (G * G)
    return np.bincount(codes.ravel(), minlength=k * G * G).reshape(k, G, G)


def verify_scheme(s: Scheme):
    """None if the three axioms hold, else a Violation witness naming the
    least failing color, its first pair and its first failing pair.

    Every axiom runs on the decisive rows only.  In a translation scheme
    each row holds the (color, flag) pairs of row 0, so the first failing
    pair in row-major order lies in row 0 and the witness is the one a
    check of every row would give."""
    m = s.matrix
    n, G = s.n, s.num_colors
    rows = s.decisive_rows()
    head = m[: len(rows)]
    # axiom 1: color 0 is exactly the diagonal
    diag = np.diagonal(head)
    if diag.any():
        x = int(np.flatnonzero(diag)[0])
        return Violation(1, None, None, None, (x, x), (x, x), "diagonal pair not in color 0")
    zero = head == 0
    np.fill_diagonal(zero, False)
    if zero.any():
        xy = divmod(int(zero.argmax()), n)
        return Violation(1, None, None, None, xy, xy, "off-diagonal pair in color 0")
    # axiom 2: transpose closure
    mixed = s.transpose_map()[1]
    if mixed.any():
        g, bad = _first_flagged(head, mixed)
        return Violation(2, g, None, None, divmod(int(s.first[g]), n), divmod(bad, n),
                         "transpose class is mixed")
    # axiom 3: every pair meets the sorted path colors of its color's first
    # pair, checked one row x at a time, in the narrowest of int16, int32 and
    # int64 that holds the codes (at most G*G - 1): narrower sorts faster
    mc = m.astype(np.int16 if G * G <= 2**15 else np.int32 if G * G <= 2**31 else np.int64, copy=False)
    ref = np.sort(_pair_codes(mc, G, *np.divmod(s.first, n)), axis=1)
    bad = np.empty(head.shape, dtype=bool)
    for x in rows:
        row = np.sort(_pair_codes(mc, G, x, slice(None)), axis=1)
        bad[x] = (row != ref[m[x]]).any(axis=1)
    if bad.any():
        h, b = _first_flagged(head, bad)
        xs, ys = np.divmod([s.first[h], b], n)
        c = _pair_counts(mc, G, xs, ys)
        f, g = divmod(int(np.flatnonzero(c[0] != c[1])[0]), G)
        pair1, pair2 = zip(map(int, xs), map(int, ys))
        return Violation(3, f, g, h, pair1, pair2, "intersection count differs")
    return None


class IntersectionTensor:
    """Dense c[h][f][g] plus per-color valency and indistinguishing number."""

    def __init__(self, c, adjoint):
        self.c = c
        self.adjoint = adjoint
        self.num_colors = c.shape[0]
        self.n_g = c[0, np.arange(self.num_colors), adjoint].copy()
        # c(g) = sum_v c^g_{v v*}
        self.c_g = c[:, np.arange(self.num_colors), adjoint].sum(axis=1)

    def valency(self, g):
        return int(self.n_g[g])


def intersection_tensor(s: Scheme) -> IntersectionTensor:
    G = s.num_colors
    if G**3 > RELATION_CUBE_CAP:
        raise SchemeTooLarge(f"{G} relations give {G**3} intersection numbers, past the cap of {RELATION_CUBE_CAP}")
    bad = verify_scheme(s)
    if bad is not None:
        raise NotAScheme(f"axiom {bad.axiom} fails: {bad.message}")
    # under the cap G*G fits the int32 matrix
    c = _pair_counts(s.matrix, s.num_colors, *np.divmod(s.first, s.n))
    return IntersectionTensor(c, s.adjoint.copy())


def _first_mismatch(lhs, rhs, where=True):
    """Index tuple of the first entry, in C order, where lhs != rhs and
    `where` holds, or None."""
    bad = (lhs != rhs) & where
    return tuple(int(i) for i in np.argwhere(bad)[0]) if bad.any() else None


def check_tensor_identities(t: IntersectionTensor):
    """None if identities (1)-(4) and the quadrilateral double count hold,
    else the first that fails with its first failing index."""
    c, adj, G = t.c, t.adjoint, t.num_colors
    n_g = t.n_g

    def sides():
        # (1) c^f_{de} = c^{f*}_{e*d*}
        yield c, c[np.ix_(adj, adj, adj)].transpose(0, 2, 1)
        # (2) c^e_{df} * n_e = c^d_{ef*} * n_d
        yield c.transpose(1, 0, 2) * n_g[None, :, None], c[:, :, adj] * n_g[:, None, None]
        # (3) sum_g c^f_{ge} = n_{e*}
        yield c.sum(axis=1), n_g[adj][None, :]
        # (4) sum_g c^g_{ef} * n_g = n_e * n_f
        yield np.einsum("gef,g->ef", c, n_g), np.outer(n_g, n_g)

    for identity, (lhs, rhs) in enumerate(sides(), 1):
        w = _first_mismatch(lhs, rhs)
        if w is not None:
            return FailedIdentity(identity, w)
    # (5) |S_v| two ways, for u != 1, v not in {1, u}
    m1 = np.einsum("ubu->ub", c)  # c^u_{bu}
    m2 = c[:, np.arange(G), adj]  # c^b_{v v*} indexed [b, v]
    lhs = m1[:, 1:] @ m2[1:, :]
    t1 = c[:, adj, :]  # t1[w, u, v] = c^w_{u* v}
    c2 = c[:, :, adj]  # c2[u, v, w] = c^u_{v w*}
    rhs = np.einsum("uvw,wuv->uv", c2, np.where(t1 > 0, t1 - 1, 0))
    pairs = np.ones((G, G), dtype=bool)
    pairs[0] = pairs[:, 0] = False
    np.fill_diagonal(pairs, False)
    w = _first_mismatch(lhs, rhs, pairs)
    return None if w is None else FailedIdentity(5, (*w, int(lhs[w]), int(rhs[w])))


def verify_identities(s: Scheme):
    return check_tensor_identities(intersection_tensor(s))


def least_primitive_root(p: int) -> int:
    return next(g for g in range(1, p) if multiplicative_order(g, p) == p - 1)


def cyclotomic_scheme(p: int, e: int) -> Scheme:
    """Cyclotomic scheme in (p, e): difference cosets of the index-e subgroup."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if e < 1 or (p - 1) % e != 0:
        raise EDoesNotDivide(f"{e} does not divide {p - 1}")
    if p * p > SCHEME_PAIR_CAP:
        raise SchemeTooLarge(f"p = {p} gives {p * p} pairs, past the cap of {SCHEME_PAIR_CAP}")
    alpha = least_primitive_root(p)
    # alpha^j lies in coset (j - 1) % e + 1
    label = np.zeros(p, dtype=np.int32)
    label[[pow(alpha, j, p) for j in range(1, p)]] = np.arange(p - 1) % e + 1
    # row 0's color counts, the valencies n_g
    if (np.bincount(label)[1:] != (p - 1) // e).any():
        raise AssertionError("cyclotomic valencies must all equal (p-1)/e")
    # m[x, y] = label[(x - y) % p] = rev[p - 1 - x + y] for rev the reversed
    # label row written twice: row x is the window of rev starting at p - 1 - x
    rev = label[::-1]
    windows = np.lib.stride_tricks.sliding_window_view(np.concatenate([rev, rev[:-1]]), p)
    return Scheme(windows[::-1])


def complete_scheme(n: int) -> Scheme:
    m = np.ones((n, n), dtype=np.int32)
    np.fill_diagonal(m, 0)
    return Scheme(m)


def auto_profile(t: IntersectionTensor, ell: int) -> BoundsProfile:
    """Profile with k = min valency (tightest delta1) and c = max c(g)."""
    if t.num_colors == 1:
        return BoundsProfile(1, Fraction(1), Fraction(1), Fraction(1), 0, ell)
    k = int(t.n_g[1:].min())
    kmax = int(t.n_g[1:].max())
    c = int(t.c_g[1:].max())
    return BoundsProfile(k, Fraction(1), Fraction(kmax, k), Fraction(1), c, ell)


def small_intersection_search(t: IntersectionTensor, ell: int) -> SmallIntersectionResult:
    """Lexicographically-first nontrivial (u, v, w, w') with
    0 < c^w_{u* v} <= c^{w'}_{u* v} < ell, plus the hypothesis verdict."""
    if ell < 2:
        raise BadEll("ell must be >= 2")
    G = t.num_colors
    profile = auto_profile(t, ell)
    hypothesis = profile.valid_for(t) and Fraction(G) >= profile.group_size_bound()
    adj = t.adjoint
    # 0 < vec[w] <= vec[wp] < ell, with vec[w] = c^w_{u* v}
    witness = next((Witness(u, v, w, wp, vec[w], vec[wp])
                    for u in range(1, G) for v in range(1, G) if v != u
                    for vec in [t.c[:, adj[u], v].tolist()]
                    for w in range(1, G) if 0 < vec[w] < ell
                    for wp in range(1, G) if wp != w and vec[w] <= vec[wp] < ell), None)
    if hypothesis and witness is None:
        raise TheoremContradiction(
            f"|G|={G} meets the bound {profile.group_size_bound()} but no witness exists"
        )
    return SmallIntersectionResult(witness, hypothesis, profile)


def scheme_to_3scheme(s: Scheme):
    """3-scheme with P_2 = nontrivial colors and P_3 keyed by pair-color triples."""
    from . import mscheme

    if s.n < 3:
        raise TooSmall("need at least 3 points")
    n, G = s.n, s.num_colors
    m = s.matrix
    lvl1 = np.zeros(n, dtype=np.int32)
    tuples2 = mscheme.tuple_table(n, 2)
    lvl2 = (m[tuples2[:, 0], tuples2[:, 1]] - 1).astype(np.int32)
    tuples3 = mscheme.tuple_table(n, 3)
    a, b, c3 = tuples3[:, 0], tuples3[:, 1], tuples3[:, 2]
    keys = (m[a, b].astype(np.int64) * G + m[a, c3]) * G + m[b, c3]
    lvl3 = _first_occurrence_ids(keys)
    return mscheme.MCollection(n, {1: lvl1, 2: lvl2, 3: lvl3})


def _first_occurrence_ids(keys):
    uniq, first, inv = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(np.argsort(first, kind="stable"), kind="stable")
    return order[inv].astype(np.int32)


def level2_to_scheme(pi) -> Scheme:
    """Association scheme from levels 1-2 of a homogeneous 3-scheme."""
    from . import mscheme

    if pi.m < 3:
        raise Not3Scheme("need levels up to 3")
    report = mscheme.check_properties(pi)
    if not report.homogeneous:
        raise NotHomogeneous("level 1 must be a single color")
    if not report.is_scheme:
        raise Not3Scheme("P1-P3 must hold at every level")
    n = pi.n
    tuples2 = mscheme.tuple_table(n, 2)
    m = np.zeros((n, n), dtype=np.int32)
    m[tuples2[:, 0], tuples2[:, 1]] = pi.levels[2] + 1
    s = Scheme(m)
    if verify_scheme(s) is not None:
        raise Not3Scheme("level-2 colors do not form an association scheme")
    return s


@dataclass(frozen=True)
class DeviationReport:
    p: int
    e: int
    rows: tuple  # (r, s, t, count, deviation as Fraction)
    max_deviation: Fraction
    slack: int
    bound_ok: bool


def cyclotomic_deviation_report(t: IntersectionTensor) -> DeviationReport:
    """Exact c^t_{rs} for nontrivial triples with deviation from (p+1)/e^2,
    for the tensor of the cyclotomic scheme in (p, e): p is the sum of the
    valencies and e the number of nontrivial relations.

    The bound side uses slack e for the unspecified O(1): the report
    states whether max |c - (p+1)/e^2| <= sqrt(p) + e, decided exactly.
    """
    if t.num_colors < 2:
        raise TooSmall("need at least one nontrivial relation")
    p = int(t.n_g.sum())
    e = t.num_colors - 1
    target = Fraction(p + 1, e * e)
    # rows in (r, s, t) order: cnt[r - 1, s - 1, t - 1] = c^t_{rs}, with one
    # deviation per distinct count
    cnt = t.c[1:, 1:, 1:].transpose(1, 2, 0).ravel()
    counts, which = np.unique(cnt, return_inverse=True)
    devs = [abs(Fraction(c) - target) for c in counts.tolist()]
    rst = (np.indices((e, e, e)).reshape(3, -1) + 1).tolist()
    rows = zip(*rst, cnt.tolist(), [devs[i] for i in which.tolist()])
    max_dev = max(devs)
    # exact test of max_dev <= sqrt(p) + e
    excess = max_dev - e
    bound_ok = excess <= 0 or excess * excess <= p
    return DeviationReport(p, e, tuple(rows), max_dev, e, bound_ok)


def scheme_to_json(s: Scheme) -> str:
    payload = {
        "n": s.n,
        "colors": [int(v) for v in s.matrix.reshape(-1)],
        "adjoint": [int(v) for v in s.adjoint],
    }
    return json.dumps(payload, sort_keys=True)


def scheme_from_json(text: str) -> Scheme:
    data = json.loads(text)
    n = data["n"]
    return Scheme(np.array(data["colors"]).reshape(n, n))
