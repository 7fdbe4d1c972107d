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

The level kernel is the reduction matrix R: row c is the canonical form of
product-space monomial c, built once by recurrence with the
multiply-by-x_j matrices.  A level has R when it fits under
REDUCTION_MATRIX_CAP and every float64 product over R is exact, i.e.
prod_cells*(p-1)^2 < 2^53 (see `linalg`); then a product is one
contraction with R, a batch of products two BLAS matmuls, and coordinate
permutations, embeddings and relative traces are cached operator matrices.
Other levels (too large, or p beyond the float64 range) reduce each
product by division along axes s..1 (`reduce_tensor`), which stays exact in
int64.  Both paths give the same canonical vectors.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve as _convolve

from .gf import Poly, square_and_multiply
from .linalg import FLOAT64_EXACT, INT64_EXACT, KOps, PrimeTooLarge, dot_exact

# product-space cells * canonical dim above this skips the reduction matrix
# (R then takes 8*d^2 bytes per unit of this product)
REDUCTION_MATRIX_CAP = 6 * 10**7


def kconvolve(a, b, ops: KOps):
    """Multivariate convolution of digit tensors (trailing axis = digits)."""
    p = ops.p
    if ops.d == 1:
        return (_convolve(a[..., 0], b[..., 0], method="direct") % p)[..., None]
    # the digit axis convolves too, into theta^0..theta^(2d-2), then folds
    return (_convolve(a, b, method="direct") % p) @ ops.theta % p


class LevelAlgebra:
    """One essential level: reduction relations, products, embeddings."""

    def __init__(self, f: Poly, s: int, cauchy: list, ops: KOps):
        self.ctx = f.ctx
        self.ops = ops
        self.f = f
        self.n = f.degree
        self.s = s
        self.extents = tuple(self.n - j for j in range(s))  # allowed degree count per axis
        self.dim = 1
        for e in self.extents:
            self.dim *= e
        self.pshape = tuple(2 * e - 1 for e in self.extents)  # product-space extents
        self.prod_cells = 1
        for e in self.pshape:
            self.prod_cells *= e
        self.cauchy = cauchy  # cauchy[j]: dense tensor over axes 0..j (+ digit axis)
        # division terms per axis j: list of (t, coeff tensor over axes < j)
        self.div_terms = []
        p = ops.p
        for j in range(s):
            cj = cauchy[j]
            dj = self.extents[j]
            lead = cj[..., dj, :] if j else cj[dj]
            lead_arr = np.asarray(lead)
            expect = np.zeros_like(lead_arr)
            if j == 0:
                expect[0] = 1
            else:
                expect[(0,) * j + (0,)] = 1
            assert np.array_equal(lead_arr % p, expect), "relations must be monic"
            terms = []
            for t in range(dj):
                coeff = np.asarray(cj[..., t, :] if j else cj[t])
                neg = (-coeff) % p
                if neg.any():
                    terms.append((t, self._trim(neg)))
            self.div_terms.append(terms)
        # the longest float64 sum on the R path is a contraction with R, over
        # every digit of every product-space cell: prod_cells*d products
        self.has_matrix = (
            self.prod_cells * self.dim <= REDUCTION_MATRIX_CAP
            and dot_exact(p, self.prod_cells * ops.d, FLOAT64_EXACT)
        )
        self._reduction = None
        self._toeplitz = None
        self._pair_bins = None
        self._rel_trace_powers = None
        self._perm_ops = {}
        self._embed_ops = {}
        self._trace_op = None

    @staticmethod
    def _trim(tensor):
        """Drop all-zero trailing slices per axis (keeps digit axis)."""
        t = tensor
        for ax in range(t.ndim - 1):
            size = t.shape[ax]
            while size > 1:
                idx = [slice(None)] * t.ndim
                idx[ax] = size - 1
                if t[tuple(idx)].any():
                    break
                size -= 1
            if size != t.shape[ax]:
                sl = [slice(None)] * t.ndim
                sl[ax] = slice(0, size)
                t = t[tuple(sl)]
        return np.ascontiguousarray(t)

    # -- canonical form ------------------------------------------------------

    def zero(self):
        return self.ops.zeros((self.dim,))

    def identity(self):
        v = self.zero()
        v[0, 0] = 1
        return v

    def to_tensor(self, vec):
        return vec.reshape(self.extents + (self.ops.d,))

    def from_tensor(self, tensor):
        assert tensor.shape[:-1] == self.extents
        return tensor.reshape(self.dim, self.ops.d)

    def scalar_vec(self, value):
        v = self.zero()
        v[0] = self.ops.scalar(value)
        return v

    # -- reduction -------------------------------------------------------------

    def reduce_tensor(self, t):
        """Canonical vector for an arbitrary-extent coefficient tensor."""
        p = self.ops.p
        s = self.s
        work = np.asarray(t) % p
        occ = [max(work.shape[j], self.extents[j]) for j in range(s)]
        if tuple(work.shape[:-1]) != tuple(occ):
            padded = np.zeros(tuple(occ) + (self.ops.d,), dtype=np.int64)
            padded[tuple(slice(0, e) for e in work.shape)] = work
            work = padded
        occ = list(work.shape[:-1])
        for j in reversed(range(s)):
            dj = self.extents[j]
            if occ[j] <= dj:
                continue
            grow = [0] * j
            for _, coeff in self.div_terms[j]:
                for i in range(j):
                    ext = coeff.shape[i] if i < coeff.ndim - 1 else 1
                    grow[i] = max(grow[i], ext - 1)
            steps = occ[j] - dj
            need = [occ[i] + grow[i] * steps for i in range(j)] + occ[j:]
            if any(need[i] > work.shape[i] for i in range(s)):
                padded = np.zeros(tuple(need) + (self.ops.d,), dtype=np.int64)
                padded[tuple(slice(0, e) for e in occ)] = work[tuple(slice(0, e) for e in occ)]
                work = padded
            for top in range(occ[j] - 1, dj - 1, -1):
                src = [slice(0, occ[i]) for i in range(s)]
                src[j] = top
                S = work[tuple(src)].copy()
                if not S.any():
                    continue
                work[tuple(src)] = 0
                for tt, coeff in self.div_terms[j]:
                    contrib = self._mul_lower(S, coeff, j)
                    tgt = [slice(0, e) for e in contrib.shape[:-1]]
                    tgt.insert(j, top - dj + tt)
                    dst = work[tuple(tgt)]
                    dst += contrib
                    dst %= p
                    for i in range(j):
                        occ[i] = max(occ[i], contrib.shape[i])
            occ[j] = dj
        out = work[tuple(slice(0, e) for e in self.extents)]
        return self.from_tensor(np.ascontiguousarray(out % p))

    def _mul_lower(self, S, coeff, j):
        """Convolve slice S (axes < j then axes > j, digits) with a
        coefficient tensor living on axes < j."""
        shape = coeff.shape[:-1] + (1,) * (S.ndim - coeff.ndim) + (coeff.shape[-1],)
        ck = coeff.reshape(shape)
        return kconvolve(S, ck, self.ops)

    def reduce_monomial(self, exponents):
        """Canonical vector of a single (possibly overflowing) monomial."""
        key = tuple(int(e) for e in exponents)
        t = np.zeros(tuple(e + 1 for e in key) + (self.ops.d,), dtype=np.int64)
        t[key + (0,)] = 1
        return self.reduce_tensor(t)

    # -- multiplication ----------------------------------------------------------

    def cells(self):
        """(dim, s) exponent tuples of the canonical basis, in C order."""
        return np.indices(self.extents).reshape(self.s, -1).T

    def reduction_matrix(self):
        """R as a float64 `KOps.operand`, (prod_cells*d, dim*d): row c is
        the reduction of product-space monomial c.

        Built once per level; None when the level has no R (see the module
        docstring), in which case products fall back to per-element division.
        """
        if self._reduction is None and self.has_matrix:
            self._reduction = self.ops.operand(self._build_reduction())
        return self._reduction

    def _build_reduction(self):
        """R by recurrence: the canonical box is the identity, and each
        further slab along axis j is the previous one times x_j."""
        ops, n_dim, d = self.ops, self.dim, self.ops.d
        T = np.zeros(self.pshape + (n_dim, d), dtype=np.int64)
        T[tuple(slice(0, e) for e in self.extents)] = ops.eye(n_dim).reshape(self.extents + (n_dim, d))
        cells = self.cells()
        for j, e in enumerate(self.extents):
            if e == 1:
                continue  # the product space has no cells beyond the box here
            # x_j maps basis monomial b to b + e_j, which needs reducing only
            # on the top face b_j = e-1: there x_j^e = sum_t c_t x_j^t with
            # c_t of degree < e_i in each x_i (i < j), so every monomial of
            # the right side already has its row in T
            top = cells[cells[:, j] == e - 1]
            X_top = np.zeros((top.shape[0], n_dim, d), dtype=np.int64)
            for t, coeff in self.div_terms[j]:
                for alpha in np.ndindex(coeff.shape[:-1]):
                    if coeff[alpha].any():
                        at = top.copy()
                        at[:, :j] += np.array(alpha, dtype=np.int64)
                        at[:, j] = t
                        X_top += ops.scalar_mul(coeff[alpha], T[tuple(at.T)])
            X_top %= ops.p
            region = [slice(0, f) for f in self.pshape[:j]] + [0] + [slice(0, f) for f in self.extents[j + 1:]]
            for k in range(e, 2 * e - 1):
                region[j] = k - 1
                prev = T[tuple(region)]
                region[j] = k
                T[tuple(region)] = self._times_x(prev.reshape(-1, n_dim, d), j, X_top).reshape(prev.shape)
        return T.reshape(self.prod_cells, n_dim, d)

    def _times_x(self, V, j, X_top):
        """Canonical vectors V (rows, dim, d) times x_j; X_top holds the
        reduced images of the top-face monomials of axis j."""
        rows, e, d = V.shape[0], self.extents[j], self.ops.d
        t = V.reshape((rows,) + self.extents + (d,))
        out = np.zeros_like(t)
        src = [slice(None)] * t.ndim
        dst = [slice(None)] * t.ndim
        src[j + 1], dst[j + 1] = slice(0, e - 1), slice(1, e)
        out[tuple(dst)] = t[tuple(src)]
        top = t.take(e - 1, axis=j + 1).reshape(rows, -1, d)
        return (out.reshape(V.shape) + self.ops.matmul(top, X_top)) % self.ops.p

    def _monomial_op(self, exps):
        """`KOps.operand` of the map whose row i is the canonical form of
        monomial exps[i]: a row of R inside the product space, else reduced."""
        R, d = self.reduction_matrix(), self.ops.d
        rows = np.empty((exps.shape[0], self.dim, d), dtype=np.int64)
        inside = (exps < np.array(self.pshape)).all(axis=1)
        # the theta^0 row of cell c is its canonical vector
        rows[inside] = R[np.ravel_multi_index(tuple(exps[inside].T), self.pshape) * d].reshape(-1, self.dim, d)
        for i in np.flatnonzero(~inside):
            rows[i] = self.reduce_monomial(exps[i])
        return self.ops.operand(rows)

    def _toeplitz_index(self):
        """(dim*d, prod_cells*d) positions, in the flattened (dim+1, d, d)
        table of theta^a * v[m] padded by a zero row, of the Toeplitz
        operator of v in `KOps.operand` layout: entry ((i, a), (c, t)) is
        digit t of theta^a * v[c - i], zero where c - i leaves the box."""
        if self._toeplitz is None:
            d = self.ops.d
            pcells = np.indices(self.pshape).reshape(self.s, -1).T
            diff = pcells[None, :, :] - self.cells()[:, None, :]  # (dim, prod_cells, s)
            ext = np.array(self.extents)
            ok = ((diff >= 0) & (diff < ext)).all(axis=2)
            shift = np.ravel_multi_index(tuple(np.moveaxis(np.clip(diff, 0, ext - 1), -1, 0)), self.extents)
            shift = np.where(ok, shift, self.dim)
            digit = np.arange(d)
            index = (shift[:, None, :, None] * d + digit[:, None, None]) * d + digit
            self._toeplitz = index.reshape(self.dim * d, self.prod_cells * d)
        return self._toeplitz

    def _convolve_bins(self, u, v):
        """u*v in the product space, (prod_cells, d): the outer product of
        the digit vectors binned by product cell and power of theta."""
        p, d = self.ops.p, self.ops.d
        powers = 2 * d - 1  # theta^0 .. theta^(2d-2)
        if self._pair_bins is None:
            cells = self.cells()
            pair = np.ravel_multi_index(tuple((cells[:, None] + cells[None]).reshape(-1, self.s).T), self.pshape)
            pair = pair.reshape(self.dim, 1, self.dim, 1)
            self._pair_bins = (pair * powers + np.add.outer(np.arange(d), np.arange(d))[:, None]).ravel()
        w = np.bincount(self._pair_bins, weights=np.outer(u, v).ravel(), minlength=self.prod_cells * powers)
        w = w.astype(np.int64).reshape(self.prod_cells, powers) % p
        return w if d == 1 else w @ self.ops.theta % p

    def mult(self, u, v):
        if not self.has_matrix:
            return self.reduce_tensor(kconvolve(self.to_tensor(u), self.to_tensor(v), self.ops))
        return self.ops.matmul_op(self._convolve_bins(u, v), self.reduction_matrix())

    def mult_batch(self, rows, v):
        """Products row * v for every row of `rows` ((B, dim, d))."""
        if rows.shape[0] == 0:
            return rows.copy()
        if not self.has_matrix:
            return np.stack([self.mult(r, v) for r in rows])
        ops, d = self.ops, self.ops.d
        table = np.zeros((self.dim + 1, d, d))
        table[:-1] = ops.mul(v[:, None, :], ops.theta[None, :d, :])
        conv = ops.matmul_op(rows, table.ravel().take(self._toeplitz_index()))
        return ops.matmul_op(conv, self.reduction_matrix())

    def power(self, u, e: int, unit=None):
        """u^e by square-and-multiply; u^0 is `unit` (default: the identity)."""
        return square_and_multiply(u, e, self.identity() if unit is None else unit.copy(), self.mult)

    def idempotent_of(self, z):
        """Support idempotent z^(Q-1); exact on split algebras."""
        return self.power(z, self.ctx.order - 1)

    # -- structural maps --------------------------------------------------------

    def apply_perm(self, tau, vec):
        """Coordinate-permutation action on functions: supports map forward
        under tuples^tau.  tau is 0-based."""
        if self.has_matrix:
            tau = tuple(tau)
            op = self._perm_ops.get(tau)
            if op is None:
                # basis monomial b goes to the monomial with exponents b[tau]
                op = self._perm_ops[tau] = self._monomial_op(self.cells()[:, list(tau)])
            return self.ops.matmul_op(vec, op)
        t = self.to_tensor(vec)
        axes = list(tau) + [self.s]
        moved = np.transpose(t, axes=axes)
        return self.reduce_tensor(np.ascontiguousarray(moved))

    def embed_from_below(self, below: "LevelAlgebra", j: int, vec):
        """iota_j: level s-1 -> level s (1-based slot j gets the fresh slot)."""
        if self.has_matrix:
            op = self._embed_ops.get(j)
            if op is None:
                op = self._embed_ops[j] = self._monomial_op(np.insert(below.cells(), j - 1, 0, axis=1))
            return self.ops.matmul_op(vec, op)
        t = below.to_tensor(vec)
        expanded = np.expand_dims(t, axis=j - 1)
        return self.reduce_tensor(np.ascontiguousarray(expanded))

    def rel_trace_powers(self, below: "LevelAlgebra"):
        """q_t = trace of x_s^t over level s-1, via Newton's identities."""
        if self._rel_trace_powers is None:
            p = self.ops.p
            dd = self.extents[-1]
            cj = self.cauchy[self.s - 1]
            # monic relation in x_s: x^D + sum_t c_t x^t, so e_i = (-1)^i c_{D-i}
            es = [below.scalar_vec(1)]
            for i in range(1, dd + 1):
                coeff = np.asarray(cj[..., dd - i, :])
                if self.s == 1:
                    ct = coeff.reshape(1, self.ops.d) % p
                else:
                    ct = below.reduce_tensor(coeff)
                es.append(ct if i % 2 == 0 else (-ct) % p)
            # Newton: p_t = sum_{i<t} (-1)^(i-1) e_i p_{t-i} + (-1)^(t-1) t e_t
            ps = [below.scalar_vec([dd])]  # the integer dd, not the element of index dd
            for t in range(1, dd):
                acc = below.zero()
                for i in range(1, t):
                    term = below.mult(es[i], ps[t - i])
                    acc = (acc + term) % p if i % 2 == 1 else (acc - term) % p
                tail = (t * es[t]) % p
                acc = (acc + tail) % p if t % 2 == 1 else (acc - tail) % p
                ps.append(acc)
            self._rel_trace_powers = ps
        return self._rel_trace_powers

    def rel_trace_last(self, below: "LevelAlgebra", vec):
        """Trace onto level s-1 along the last coordinate: fibre sums."""
        ps = self.rel_trace_powers(below)
        if self.has_matrix:
            if self._trace_op is None:
                # basis monomial (a, t) goes to x^a * q_t on level s-1
                eye = below.ops.eye(below.dim)
                rows = np.stack([below.mult_batch(eye, q) for q in ps], axis=1)
                self._trace_op = self.ops.operand(rows.reshape(self.dim, below.dim, self.ops.d))
            return self.ops.matmul_op(vec, self._trace_op)
        t = self.to_tensor(vec)
        acc = below.zero()
        for tt in range(self.extents[-1]):
            slice_t = np.ascontiguousarray(t[..., tt, :]).reshape(below.dim, self.ops.d)
            if slice_t.any():
                acc = (acc + below.mult(slice_t, ps[tt])) % self.ops.p
        return acc

    def move_axis_last(self, j: int):
        """0-based tau moving 1-based coordinate j to the end, order kept."""
        order = [t for t in range(self.s) if t != j - 1] + [j - 1]
        # tau with (v^tau)_i = v_{tau(i)}: variables permute contravariantly,
        # see apply_perm; the exponent axes move by the same tuple.
        return tuple(order)


def build_cauchy(f: Poly, s: int, ops: KOps):
    """Divided-difference tower: relation j+1 is C_j with the last variable
    split in two (coefficient gather [a+b+1])."""
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


def build_levels(f: Poly, m: int, dim_cap: int) -> list:
    """LevelAlgebra list for s = 1..m (index s-1)."""
    n = f.degree
    if m > n:
        from .factor import ZeroAlgebra

        raise ZeroAlgebra(f"no essential {m}-tuples on {n} points")
    p, d = f.ctx.p, f.ctx.d
    dims = []
    dim = 1
    cells = 1
    for s in range(1, m + 1):
        dim *= n - s + 1
        cells *= 2 * (n - s + 1) - 1
        dims.append(dim)
        if dim > dim_cap:
            from .factor import DimCapExceeded

            raise DimCapExceeded(f"level {s} dimension {dim} exceeds cap {dim_cap}")
    # longest int64 sum of residue products: a convolution over at most
    # `cells` cells per digit, or a digit fold of at most 2d^2 terms
    # (checked before KOps, whose own bound is looser)
    terms = d * max(cells, 2 * d)
    if not dot_exact(p, terms, INT64_EXACT):
        raise PrimeTooLarge(f"p = {p}: {terms} * (p-1)^2 >= 2^63, so int64 level arithmetic could overflow")
    ops = KOps(f.ctx)
    cauchy = build_cauchy(f, m, ops)
    return [LevelAlgebra(f, s, cauchy[:s], ops) for s in range(1, m + 1)]
