"""Vectorized exact linear algebra over F_{p^d}.

Arrays carry field elements in digit form: the trailing axis has length d
and holds base-p digits (constant term first).  All arithmetic stays in
int64 with explicit reductions; matrix products go through float64 BLAS,
which is exact here because every intermediate fits well under 2^53
(digits < p <= ~3000, accumulation lengths <= ~10^5).
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx


class KOps:
    """Vectorized field operations bound to one FieldCtx."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p
        self.d = ctx.d
        # fold[i, j, t]: coefficient of theta^t in theta^(i+j) after reduction
        d, p = ctx.d, ctx.p
        fold = np.zeros((d, d, d), dtype=np.int64)
        theta_pows = [np.zeros(d, dtype=np.int64) for _ in range(2 * d - 1)]
        for i in range(d):
            theta_pows[i][i] = 1
        for i in range(d, 2 * d - 1):
            prev = theta_pows[i - 1]
            shifted = np.zeros(d + 1, dtype=np.int64)
            shifted[1:] = prev
            top = shifted[d]
            vec = shifted[:d].copy()
            if top:
                red = np.array([(-c) % p for c in ctx.modulus[:d]], dtype=np.int64)
                vec = (vec + top * red) % p
            theta_pows[i] = vec
        for i in range(d):
            for j in range(d):
                fold[i, j] = theta_pows[i + j]
        self.fold = fold

    # -- element containers ------------------------------------------------

    def zeros(self, shape):
        if isinstance(shape, int):
            shape = (shape,)
        return np.zeros(tuple(shape) + (self.d,), dtype=np.int64)

    def scalar(self, elem):
        """Digit vector for a FieldElem or int."""
        e = self.ctx.elem(elem)
        return np.array(e.coeffs, dtype=np.int64)

    def one_scalar(self):
        return self.scalar(1)

    def to_elem(self, vec):
        return self.ctx.elem([int(v) for v in vec])

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        """Elementwise product with broadcasting over leading axes."""
        if self.d == 1:
            return (a * b) % self.p
        out = np.einsum("...i,...j,ijt->...t", a, b, self.fold)
        return out % self.p

    def scalar_mul(self, s, a):
        """Multiply array a by one scalar digit-vector s."""
        if self.d == 1:
            return (a * s[0]) % self.p
        return self.mul(a, np.broadcast_to(s, a.shape))

    def inv_scalar(self, s):
        """Inverse of a nonzero scalar digit-vector."""
        e = self.to_elem(s)
        return self.scalar(e.inverse())

    def is_zero(self, a):
        return not a.any()

    def matmul(self, A, B):
        """(m,n,d) @ (n,r,d) -> (m,r,d) over the field."""
        p, d = self.p, self.d
        if d == 1:
            prod = A[..., 0].astype(np.float64) @ B[..., 0].astype(np.float64)
            return (prod % p).astype(np.int64)[..., None]
        comps = []
        Af = A.astype(np.float64)
        Bf = B.astype(np.float64)
        raw = np.empty((2 * d - 1,) + (A.shape[0], B.shape[1]), dtype=np.int64)
        raw[:] = 0
        for i in range(d):
            for j in range(d):
                raw[i + j] += (Af[..., i] @ Bf[..., j]).astype(np.int64) % p
        out = np.zeros((A.shape[0], B.shape[1], d), dtype=np.int64)
        for s in range(2 * d - 1):
            i = min(s, d - 1)
            j = s - i
            vec = self.fold[i, j]
            out += raw[s][..., None] * vec
        return out % p

    # -- row reduction ---------------------------------------------------------

    def rref(self, M):
        """Reduced row echelon form (canonical).  Returns (R, pivot_cols).

        M has shape (rows, cols, d); zero rows are dropped from the result.
        """
        R = M.copy() % self.p
        rows, cols = R.shape[0], R.shape[1]
        pivots = []
        r = 0
        for c in range(cols):
            if r >= rows:
                break
            colvals = R[r:, c, :]
            nz = np.nonzero(colvals.any(axis=1))[0]
            if nz.size == 0:
                continue
            pr = r + int(nz[0])
            if pr != r:
                R[[r, pr]] = R[[pr, r]]
            inv = self.inv_scalar(R[r, c])
            R[r] = self.scalar_mul(inv, R[r]) if self.d == 1 else self.mul(R[r], np.broadcast_to(inv, R[r].shape))
            factors = R[:, c, :].copy()
            factors[r] = 0
            if factors.any():
                if self.d == 1:
                    update = factors[:, 0:1] * R[r][None, :, 0]
                    R[..., 0] = (R[..., 0] - update) % self.p
                else:
                    update = self.mul(factors[:, None, :], R[r][None, :, :])
                    R = (R - update) % self.p
            pivots.append(c)
            r += 1
        keep = np.nonzero(R.any(axis=(1, 2)))[0]
        R = R[keep]
        # canonical row order: by pivot column
        order = np.argsort([self._pivot_col(row) for row in R], kind="stable")
        return R[order], pivots

    @staticmethod
    def _pivot_col(row):
        nz = np.nonzero(row.any(axis=-1))[0]
        return int(nz[0]) if nz.size else row.shape[0]

    def rank(self, M):
        R, _ = self.rref(M)
        return R.shape[0]

    def nullspace(self, M):
        """Canonical basis of {x : M @ x = 0}, shape (k, cols, d)."""
        R, pivots = self.rref(M)
        cols = M.shape[1]
        free = [c for c in range(cols) if c not in pivots]
        basis = self.zeros((len(free), cols))
        for bi, fc in enumerate(free):
            basis[bi, fc, 0] = 1
            for ri, pc in enumerate(pivots):
                basis[bi, pc] = self.neg(R[ri, fc])
        return basis

    def solve_right(self, A, b):
        """One solution x of A @ x = b, or None.  Canonical (free vars = 0)."""
        aug = np.concatenate([A, b[:, None, :]], axis=1)
        R, pivots = self.rref(aug)
        cols = A.shape[1]
        if cols in pivots:
            return None
        x = self.zeros((cols,))
        for ri, pc in enumerate(pivots):
            x[pc] = R[ri, cols]
        return x

    def solve_right_many(self, A, B):
        """Solutions X of A @ X = B columnwise; None if any is inconsistent."""
        aug = np.concatenate([A, B], axis=1)
        R, pivots = self.rref(aug)
        cols = A.shape[1]
        if any(pc >= cols for pc in pivots):
            return None
        X = self.zeros((cols, B.shape[1]))
        for ri, pc in enumerate(pivots):
            X[pc] = R[ri, cols:]
        return X

    def eye(self, n):
        out = self.zeros((n, n))
        out[np.arange(n), np.arange(n), 0] = 1
        return out

    def mat_eq(self, A, B):
        return A.shape == B.shape and np.array_equal(A % self.p, B % self.p)
