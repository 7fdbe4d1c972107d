"""Vectorized exact linear algebra over F_{p^d}.

Arrays carry field elements in digit form: the trailing axis has length d
and holds base-p digits (constant term first).  All arithmetic is integer
arithmetic with an explicit reduction after every sum of products, so it is
exact while no such sum leaves its number type.  A sum of k products of
residues below p stays under k*(p-1)^2 (the delayed-reduction criterion of
FFLAS-FFPACK):

- float64 BLAS products are exact while k*(p-1)^2 < 2^53, with k the inner
  length of the product over F_p (d times the length over F_{p^d}, see
  `operand`); `operand` picks float64 only then and int64 otherwise;
- int64 sums (convolutions, digit folds, `rref` updates) are exact while
  k*(p-1)^2 < 2^63; `levels.build_levels` refuses fields beyond that.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx

FLOAT64_EXACT = 2**53
INT64_EXACT = 2**63


def dot_exact(p: int, length: int, limit: int) -> bool:
    """True when every sum of `length` products of residues below p stays
    under `limit` (FLOAT64_EXACT or INT64_EXACT)."""
    return length * (p - 1) ** 2 < limit


class KOps:
    """Vectorized field operations bound to one FieldCtx."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.p = ctx.p
        self.d = ctx.d
        # theta[k]: theta^k reduced, k < 2d-1; folds a digit-axis convolution
        d = ctx.d
        red = np.array(ctx.red_rows, dtype=np.int64).reshape(d - 1, d)
        self.theta = np.concatenate([np.eye(d, dtype=np.int64), red])
        # fold[i, j, t]: coefficient of theta^t in theta^(i+j) after reduction
        self.fold = self.theta[np.add.outer(np.arange(d), np.arange(d))]

    # -- element containers ------------------------------------------------

    def zeros(self, shape):
        if isinstance(shape, int):
            shape = (shape,)
        return np.zeros(tuple(shape) + (self.d,), dtype=np.int64)

    def scalar(self, elem):
        """Digit vector for a FieldElem or int."""
        e = self.ctx.elem(elem)
        return np.array(e.coeffs, dtype=np.int64)

    def to_elem(self, vec):
        return self.ctx.elem([int(v) for v in vec])

    # -- arithmetic ----------------------------------------------------------

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        """Elementwise product with broadcasting over leading axes."""
        if self.d == 1:
            return (a * b) % self.p
        outer = (a[..., :, None] * b[..., None, :]) % self.p
        return np.einsum("...ij,ijt->...t", outer, self.fold) % self.p

    def scalar_mul(self, s, a):
        """Multiply array a by one scalar digit-vector s."""
        if self.d == 1:
            return (a * s[0]) % self.p
        return self.mul(a, np.broadcast_to(s, a.shape))

    def inv_scalar(self, s):
        """Inverse of a nonzero scalar digit-vector."""
        e = self.to_elem(s)
        return self.scalar(e.inverse())

    def operand(self, B):
        """B (k, r, d) as the (k*d, r*d) matrix of A -> A @ B on rows with
        their digits flattened: entry ((i, a), (j, t)) is digit t of
        theta^a * B[i, j].  float64 when BLAS is exact for its inner length
        k*d, else int64."""
        k, r, d = B.shape
        E = np.einsum("ijc,act->iajt", B, self.fold) % self.p
        exact = dot_exact(self.p, k * d, FLOAT64_EXACT)
        return np.ascontiguousarray(E.reshape(k * d, r * d), dtype=np.float64 if exact else np.int64)

    def matmul_op(self, A, op):
        """(..., k, d) @ B -> (..., r, d) over the field, B given as its
        `operand`: one matrix product for every d."""
        flat = A.reshape(A.shape[:-2] + (-1,)).astype(op.dtype)
        # the remainder in int64: several times faster than float64's
        return ((flat @ op).astype(np.int64) % self.p).reshape(A.shape[:-2] + (-1, self.d))

    def matmul(self, A, B):
        """(m,n,d) @ (n,r,d) -> (m,r,d) over the field."""
        return self.matmul_op(A, self.operand(B))

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
            R[r] = self.scalar_mul(inv, R[r])
            factors = R[:, c, :].copy()
            factors[r] = 0
            if factors.any():
                if self.d == 1:
                    update = factors[:, 0:1] * R[r][None, :, 0]
                    R[..., 0] = (R[..., 0] - update) % self.p
                else:
                    # the rank-1 update as a matrix product of inner length d
                    update = self.matmul_op(factors[:, None, :], self.operand(R[r][None]))
                    R = (R - update) % self.p
            pivots.append(c)
            r += 1
        # rows come out in pivot order, and every row past the rank is zero
        return R[:len(pivots)], pivots

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
        X = self.solve_right_many(A, b[:, None])
        return None if X is None else X[:, 0]

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
