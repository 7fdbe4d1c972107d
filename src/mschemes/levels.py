"""Essential tensor-power levels as triangular polynomial quotients.

Level s of a squarefree fully-split f of degree n is modeled as
k[x_1..x_s] modulo the divided-difference tower of f: relation j is monic
of degree n-j+1 in x_j with lower-order coefficients in x_1..x_{j-1}.
The quotient has the falling-factorial dimension n(n-1)...(n-s+1) and is,
as an algebra, the functions on essential s-tuples of roots; supports of
ideals therefore match tuple combinatorics exactly while no computation
ever sees a root.

Elements are dense coefficient vectors over the canonical monomial basis
(exponent e_j < n-j+1, C-order flattening, trailing digit axis for the
field).  A product is an integer convolution into the product space
(exponent e_j < 2(n-j+1)-1, `prod_cells` cells) followed by reduction.
Cells add: no exponent sum of two canonical monomials leaves the product
space, so b_i * b_j lands in product-space cell cell(b_i) + cell(b_j), and
every product-space index of a level is an outer sum of that cell map.

The level kernel is the reduction matrix R: row c is the canonical form of
product-space monomial c, built once by recurrence with the
multiply-by-x_j matrices.  A product is a convolution into the product
space (`kconvolve`) and one contraction with R (`reduce_tensor`), a batch
of products a scatter of v's digits into one operator and two matmuls.
Coordinate permutations and relative traces are cached operator matrices
read off rows of R: a permuted monomial is a row, stepped by x_j past the
product space with the multiply-by-x_j map that built R, and a trace sums
coefficients of rows.  An embedding is no operator of its own: level s is
level s-k with the trailing k monomials as coefficients, so a level s-k
vector padded with x^0 there embeds along the last k coordinates, and a
permutation moves those to any other k slots.  R is a `KOps.operand`:
float64 while every product over it is exact, prod_cells*d*(p-1)^2 < 2^53
(see `linalg`), and int64 otherwise.
`build_levels` refuses a prime past the int64 bound of the longest such
sum and a level whose R would exceed REDUCTION_MATRIX_CAP.

A product with an element embedded from the level below along the last
coordinate, row * iota_s(v), is a product at level s-1 (`mult_lower`) and
needs no R of level s.  Level s is level s-1 [x_s]/(C_s), iota_s(v) has
only an x_s^0 coefficient, and no relation of an axis below s involves
x_s.  So each x_s^t coefficient of the row, a level s-1 element, is
multiplied by v there, and nothing is reduced by C_s.
"""

from __future__ import annotations

import math

import numpy as np

from .gf import Poly, PreconditionFailed, square_and_multiply
from .linalg import INT64_EXACT, KOps, PrimeTooLarge, dot_exact

# `build_levels` refuses a level whose product-space cells * canonical dim
# exceeds this (R takes 8*d^2 bytes per unit of this product).  It is the
# only level-size rule: a level has no more dims than cells, so it also
# refuses every level past dim 7745
REDUCTION_MATRIX_CAP = 6 * 10**7


class DimCapExceeded(PreconditionFailed):
    """A level whose reduction matrix would pass REDUCTION_MATRIX_CAP."""


class ZeroAlgebra(ValueError):
    pass


def kconvolve(u, v, bins, cells: int, ops: KOps):
    """Product-space convolution of canonical vectors u and v, (cells, d).

    bins[i, a, j, b] (flattened) is the bin of digit a of u[i] times digit b
    of v[j]: its product cell times 2d-1 plus a+b, the power of theta.  The
    bins sum in int64, exact under `build_levels`' bound; the powers past
    theta^(d-1) then fold back.
    """
    p, d = ops.p, ops.d
    powers = 2 * d - 1  # theta^0 .. theta^(2d-2)
    w = np.zeros(cells * powers, dtype=np.int64)
    np.add.at(w, bins, np.outer(u, v).ravel())
    w = w.reshape(cells, powers) % p
    return w if d == 1 else w @ ops.theta % p


class LevelAlgebra:
    """One essential level: reduction relations, products, embeddings."""

    def __init__(self, f: Poly, s: int, cauchy: list, ops: KOps):
        self.ctx = f.ctx
        self.ops = ops
        self.f = f
        self.n = f.degree
        self.s = s
        self.extents = tuple(self.n - j for j in range(s))  # allowed degree count per axis
        self.dim = math.prod(self.extents)
        self.pshape = tuple(2 * e - 1 for e in self.extents)  # product-space extents
        self.prod_cells = math.prod(self.pshape)
        # rel[j][..., t, :]: coefficient c_t of x_j^t in relation j, a
        # canonical tensor over axes < j, so x_j^e = -sum_t c_t x_j^t
        self.rel = []
        for j, (cj, e) in enumerate(zip(cauchy, self.extents)):
            if cj.shape != self.extents[:j] + (e + 1, ops.d):
                raise AssertionError("coefficients must be canonical")
            lead = np.zeros(self.extents[:j] + (ops.d,), dtype=np.int64)
            lead[(0,) * (j + 1)] = 1
            if not np.array_equal(cj[..., e, :] % ops.p, lead):
                raise AssertionError("relations must be monic")
            self.rel.append(cj[..., :e, :] % ops.p)
        self._reduction = None
        self._x_top = None  # per axis, `KOps.operand` of top-face images; set with R
        self._conv = None  # (bins, scatter) of `_conv_index`
        self._perm_ops = {}
        self._trace_op = None

    # -- canonical form ------------------------------------------------------

    def zero(self):
        return self.ops.zeros((self.dim,))

    def identity(self):
        v = self.zero()
        v[0, 0] = 1
        return v

    # -- multiplication ----------------------------------------------------------

    def cells(self):
        """(dim, s) exponent tuples of the canonical basis, in C order."""
        return np.indices(self.extents).reshape(self.s, -1).T

    def reduction_matrix(self):
        """R as a `KOps.operand`, (prod_cells*d, dim*d): row c is the
        reduction of product-space monomial c.  Built once per level."""
        if self._reduction is None:
            self._reduction = self.ops.operand(self._build_reduction())
        return self._reduction

    def reduce_tensor(self, t):
        """Canonical vectors of product-space arrays t (..., prod_cells, d):
        the contraction with R."""
        return self.ops.matmul_op(t, self.reduction_matrix())

    def _build_reduction(self):
        """R by recurrence: the canonical box is the identity, and each
        further slab along axis j is the previous one times x_j.  Keeps
        each axis's top-face images for `_monomial_op`."""
        ops, n_dim, d = self.ops, self.dim, self.ops.d
        T = np.zeros(self.pshape + (n_dim, d), dtype=np.int64)
        T[tuple(slice(0, e) for e in self.extents)] = ops.eye(n_dim).reshape(self.extents + (n_dim, d))
        flat = T.reshape(self.prod_cells, n_dim, d)  # a view: rows by product-space cell
        cells, cell = self.cells(), self.cell_map()
        self._x_top = []
        for j, e in enumerate(self.extents):
            # x_j maps basis monomial b to b + e_j, which needs reducing only
            # on the top face b_j = e-1: there x_j^e = sum_t c_t x_j^t with
            # c_t of degree < e_i in each x_i (i < j), so every monomial of
            # the right side already has its row in T, at the cell of b with
            # b_j = 0 plus the cell of the term: cells add
            base = cell[cells[:, j] == e - 1] - (e - 1) * math.prod(self.pshape[j + 1:])
            X_top = np.zeros((base.size, n_dim, d), dtype=np.int64)
            for at in np.argwhere(self.rel[j].any(-1)):
                # monomial x^alpha x_j^t of c_t, alpha = at[:j], t = at[j]
                term = np.ravel_multi_index(tuple(at) + (0,) * (self.s - j - 1), self.pshape)
                X_top -= ops.scalar_mul(self.rel[j][tuple(at)], flat[base + term])
            self._x_top.append(ops.operand(X_top % ops.p))
            region = [slice(0, f) for f in self.pshape[:j]] + [0] + [slice(0, f) for f in self.extents[j + 1:]]
            for k in range(e, 2 * e - 1):
                region[j] = k - 1
                prev = T[tuple(region)]
                region[j] = k
                T[tuple(region)] = self._times_x(prev.reshape(-1, n_dim, d), j).reshape(prev.shape)
        return flat

    def _times_x(self, V, j):
        """Canonical vectors V (rows, dim, d) times x_j: a shift along axis
        j, and the top face through the reduced images of its monomials."""
        rows, e, d = V.shape[0], self.extents[j], self.ops.d
        t = V.reshape((rows,) + self.extents + (d,))
        out = np.zeros_like(t)
        src = [slice(None)] * t.ndim
        dst = [slice(None)] * t.ndim
        src[j + 1], dst[j + 1] = slice(0, e - 1), slice(1, e)
        out[tuple(dst)] = t[tuple(src)]
        top = t.take(e - 1, axis=j + 1).reshape(rows, -1, d)
        return (out.reshape(V.shape) + self.ops.matmul_op(top, self._x_top[j])) % self.ops.p

    def _monomial_op(self, exps):
        """`KOps.operand` of the map whose row i is the canonical form of
        monomial exps[i]: the row of R of exps[i] clamped to the product
        space, times x_j once for each power the clamp cut on axis j."""
        R, d = self.reduction_matrix(), self.ops.d
        clamped = np.minimum(exps, np.array(self.pshape) - 1)
        # the theta^0 row of cell c is its canonical vector
        rows = R[np.ravel_multi_index(tuple(clamped.T), self.pshape) * d].astype(np.int64).reshape(-1, self.dim, d)
        for j, cut in enumerate((exps - clamped).T):
            for k in range(1, cut.max(initial=0) + 1):
                step = cut >= k
                rows[step] = self._times_x(rows[step], j)
        return self.ops.operand(rows)

    def cell_map(self):
        """(dim,) product-space cell of each canonical monomial."""
        return np.ravel_multi_index(tuple(self.cells().T), self.pshape)

    def _conv_index(self):
        """`kconvolve`'s bins and `mult_batch`'s scatter, built once as outer
        sums of the cell map.  Digit a of u[i] times digit b of v[m] goes to
        bin (cell_i + cell_m)(2d-1) + a + b; digit t of theta^a * v[m] goes
        to row (i, a), column (cell_i + cell_m, t) of v's flattened operator,
        scatter[i, m, a, t]."""
        if self._conv is None:
            d, digit = self.ops.d, np.arange(self.ops.d)
            cell = self.cell_map()[:, None]
            at = (cell * (2 * d - 1) + digit).ravel()
            rows = (np.arange(self.dim * d) * self.prod_cells + np.repeat(cell, d)) * d
            cols = cell * d + digit
            self._conv = np.add.outer(at, at).ravel(), rows.reshape(self.dim, 1, d, 1) + cols[None, :, None, :]
        return self._conv

    def mult(self, u, v):
        return self.reduce_tensor(kconvolve(u, v, self._conv_index()[0], self.prod_cells, self.ops))

    def mult_batch(self, rows, v):
        """Products row * v for every row of `rows` ((B, dim, d))."""
        if rows.shape[0] == 0:
            return rows.copy()
        ops, d = self.ops, self.ops.d
        # R's dtype is exact here too: the inner length dim*d is shorter
        op = np.zeros((self.dim * d, self.prod_cells * d), dtype=self.reduction_matrix().dtype)
        # theta^a * v[m], (dim, d, d), is the same in every row block i
        op.reshape(-1)[self._conv_index()[1]] = ops.mul(v[:, None, :], ops.theta[None, :d, :])
        return self.reduce_tensor(ops.matmul_op(rows, op))

    def mult_lower(self, below: "LevelAlgebra", rows, v):
        """Products row * iota_s(v) for every row of `rows` ((B, dim, d))
        and a level s-1 vector v: one `below.mult_batch` of B*e_s rows, the
        x_s^t coefficients of each row, with no product at this level."""
        B, e, d = rows.shape[0], self.extents[-1], self.ops.d
        lifted = np.moveaxis(rows.reshape(B, below.dim, e, d), 2, 1).reshape(B * e, below.dim, d)
        prods = below.mult_batch(lifted, v).reshape(B, e, below.dim, d)
        return np.moveaxis(prods, 1, 2).reshape(rows.shape)

    def power(self, u, e: int, unit=None):
        """u^e by square-and-multiply; u^0 is `unit` (default: the identity)."""
        return square_and_multiply(u, e, self.identity() if unit is None else unit.copy(), self.mult)

    def idempotent_of(self, z):
        """Support idempotent z^(Q-1); exact on split algebras."""
        return self.power(z, self.ctx.order - 1)

    # -- structural maps --------------------------------------------------------

    def apply_perm(self, tau, vec):
        """Coordinate-permutation action on functions: supports map forward
        under tuples^tau.  tau is 0-based; the identity returns vec itself."""
        tau = tuple(tau)
        if tau == tuple(range(self.s)):
            return vec
        op = self._perm_ops.get(tau)
        if op is None:
            # basis monomial b goes to the monomial with exponents b[tau]
            op = self._perm_ops[tau] = self._monomial_op(self.cells()[:, list(tau)])
        return self.ops.matmul_op(vec, op)

    def embed_from_below(self, below: "LevelAlgebra", slots: tuple, vec):
        """iota_D: level s-k -> level s for the k 1-based fresh `slots` D, on
        one vector or a stack.  vec padded with x^0 on the trailing k axes is
        its embedding along the last k coordinates, which the permutation
        inverse to `move_last(slots)` moves to D."""
        lead = vec.shape[:-2]
        padded = self.ops.zeros(lead + (below.dim, self.dim // below.dim))
        padded[..., 0, :] = vec
        back = tuple(np.argsort(self.move_last(slots)).tolist())
        return self.apply_perm(back, padded.reshape(lead + (self.dim, self.ops.d)))

    def rel_trace_last(self, below: "LevelAlgebra", vec):
        """Trace onto level s-1 along the last coordinate: fibre sums."""
        if self._trace_op is None:
            # Tr(x^a x_s^t) is the sum over i < e of the x_s^i coefficient
            # of x^a x_s^(t+i), a product-space cell whose theta^0 row of R
            # is its canonical vector; R is read as a view, never copied
            e, d = self.extents[-1], self.ops.d
            rows = self.reduction_matrix()[::d].reshape(self.pshape + (below.dim, e, d))
            rows = rows[tuple(slice(0, f) for f in self.extents[:-1])]
            op = sum(rows[..., i:i + e, :, i, :].astype(np.int64) for i in range(e)) % self.ops.p
            self._trace_op = self.ops.operand(op.reshape(self.dim, below.dim, d))
        return self.ops.matmul_op(vec, self._trace_op)

    def move_last(self, slots: tuple):
        """0-based tau moving the 1-based coordinates `slots` to the end, the
        order of the rest and of the slots kept."""
        order = [t for t in range(self.s) if t + 1 not in slots] + [j - 1 for j in slots]
        # tau with (v^tau)_i = v_{tau(i)}: variables permute contravariantly,
        # see apply_perm; the exponent axes move by the same tuple.
        return tuple(order)


def build_cauchy(f: Poly, s: int, ops: KOps):
    """Divided-difference tower: relation j+1 is C_j with the last variable
    split in two (coefficient gather [a+b+1]).  Relation j has the shape
    extents[:j] + (n-j+1, d): its coefficients are canonical on level j."""
    p, d = ops.p, ops.d
    c1 = np.zeros((f.degree + 1, d), dtype=np.int64)
    for i, coeff in enumerate(f.coeffs):
        c1[i] = np.array(coeff.coeffs, dtype=np.int64)
    out = [c1]
    cur = c1
    for j in range(1, s):
        last = cur.shape[-2]
        new_last = last - 1
        a = np.arange(new_last)[:, None]
        b = np.arange(new_last)[None, :]
        idx = a + b + 1
        mask = idx < last
        idxc = np.clip(idx, 0, last - 1)
        gathered = cur[..., idxc, :] * mask[..., None]
        out.append(gathered % p)
        cur = out[-1]
    return out


def build_levels(f: Poly, m: int) -> list:
    """LevelAlgebra list for s = 1..m (index s-1)."""
    n = f.degree
    if m > n:
        raise ZeroAlgebra(f"no essential {m}-tuples on {n} points")
    p, d = f.ctx.p, f.ctx.d
    dim = 1
    cells = 1
    for s in range(1, m + 1):
        dim *= n - s + 1
        cells *= 2 * (n - s + 1) - 1
        if cells * dim > REDUCTION_MATRIX_CAP:
            raise DimCapExceeded(f"level {s} reduction matrix has {cells} x {dim} = {cells * dim} "
                                 f"cells, above the cap {REDUCTION_MATRIX_CAP}")
    # longest int64 sum of residue products: a convolution over at most
    # `cells` cells per digit, or a digit fold of at most 2d^2 terms
    # (checked before KOps, whose own bound is looser)
    terms = d * max(cells, 2 * d)
    if not dot_exact(p, terms, INT64_EXACT):
        raise PrimeTooLarge(f"p = {p}: {terms} * (p-1)^2 >= 2^63, so int64 level arithmetic could overflow")
    ops = KOps(f.ctx)
    cauchy = build_cauchy(f, m, ops)
    return [LevelAlgebra(f, s, cauchy[:s], ops) for s in range(1, m + 1)]
