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
- int64 sums are exact while k*(p-1)^2 < 2^63.  `KOps` refuses a field
  whose fixed-length sums could pass that (the digit fold of `mul` has
  d^2 terms, the `rref` update at most d), so p < 3.04*10^9 at d = 1;
  `matmul_op` refuses an int64 operand whose inner length could pass it.
  Both raise `PrimeTooLarge`.  `levels.build_levels` refuses sooner, at
  the longest convolution of its levels.

Row reduction (`KOps.rref`) costs per pivot found, not per column scanned.
One `any` over the block not yet reduced, digits flattened, finds the next
pivot column.  The pivot is inverted by `pow(a, -1, p)` at d = 1 and
through a per-field memo of inverse multiplication matrices at d > 1.  The
rank-1 update touches only the columns from the pivot on; at d > 1 it is
one batched product with the multiplication matrices of the pivot column,
so no `operand` is built per pivot.
"""

from __future__ import annotations

import numpy as np

from .gf import FieldCtx, PreconditionFailed

FLOAT64_EXACT = 2**53
INT64_EXACT = 2**63


class PrimeTooLarge(PreconditionFailed):
    """p is beyond the range where int64 sums of residue products are exact."""


def dot_exact(p: int, length: int, limit: int) -> bool:
    """True when every sum of `length` products of residues below p stays
    under `limit` (FLOAT64_EXACT or INT64_EXACT)."""
    return length * (p - 1) ** 2 < limit


class KOps:
    """Vectorized field operations bound to one FieldCtx."""

    def __init__(self, ctx: FieldCtx):
        d = ctx.d
        # the longest fixed-length int64 sum here is the digit fold of `mul`
        if not dot_exact(ctx.p, d * d, INT64_EXACT):
            raise PrimeTooLarge(f"p = {ctx.p}: {d * d} * (p-1)^2 >= 2^63, so int64 field arithmetic could overflow")
        self.ctx = ctx
        self.p = ctx.p
        self.d = d
        # theta[k]: theta^k reduced, k < 2d-1; folds a digit-axis convolution
        red = np.array(ctx.red_rows, dtype=np.int64).reshape(d - 1, d)
        self.theta = np.concatenate([np.eye(d, dtype=np.int64), red])
        # fold[i, j, t]: coefficient of theta^t in theta^(i+j) after reduction
        self.fold = self.theta[np.add.outer(np.arange(d), np.arange(d))]
        self._inverses = {}

    # -- element containers ------------------------------------------------

    def zeros(self, shape: tuple):
        return np.zeros((*shape, self.d), dtype=np.int64)

    def scalar(self, elem):
        """Digit vector for a FieldElem or int."""
        e = self.ctx.elem(elem)
        return np.array(e.coeffs, dtype=np.int64)

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

    def operand(self, B):
        """B (k, r, d) as the (k*d, r*d) matrix of A -> A @ B on rows with
        their digits flattened: entry ((i, a), (j, t)) is digit t of
        theta^a * B[i, j].  float64 when BLAS is exact for its inner length
        k*d, else int64."""
        k, r, d = B.shape
        # one int64 product: E[(i, j), (a, t)] = sum_c B[i, j, c] * fold[a, c, t]
        E = (B.reshape(k * r, d) @ self.fold.transpose(1, 0, 2).reshape(d, d * d)) % self.p
        exact = dot_exact(self.p, k * d, FLOAT64_EXACT)
        E = np.ascontiguousarray(E.reshape(k, r, d, d).transpose(0, 2, 1, 3), dtype=np.float64 if exact else np.int64)
        return E.reshape(k * d, r * d)

    def matmul_op(self, A, op):
        """(..., k, d) @ B -> (..., r, d) over the field, B given as its
        `operand`: one matrix product for every d."""
        if op.dtype == np.int64 and not dot_exact(self.p, op.shape[0], INT64_EXACT):
            raise PrimeTooLarge(f"p = {self.p}: {op.shape[0]} * (p-1)^2 >= 2^63, so an int64 product "
                                f"of inner length {op.shape[0]} could overflow")
        # sizes from op: -1 cannot be inferred when A or B has no rows
        lead = A.shape[:-2]
        flat = A.reshape(lead + op.shape[:1]).astype(op.dtype)
        # the remainder in int64: several times faster than float64's
        return ((flat @ op).astype(np.int64) % self.p).reshape(lead + (op.shape[1] // self.d, self.d))

    def matmul(self, A, B):
        """(m,n,d) @ (n,r,d) -> (m,r,d) over the field."""
        return self.matmul_op(A, self.operand(B))

    # -- row reduction ---------------------------------------------------------

    def rref(self, M):
        """Reduced row echelon form (canonical).  Returns (R, pivot_cols).

        M has shape (rows, cols, d); zero rows are dropped from the result.
        """
        p, d = self.p, self.d
        rows, cols = M.shape[0], M.shape[1]
        R = np.remainder(M, p, order="C")
        # the same entries with digits flattened (a view): at d = 1 the
        # elimination runs on this 2-D array alone
        F = R.reshape(rows, cols * d)
        pivots = []
        r = c = 0
        while r < rows and c < cols:
            live = F[r:, c * d:].any(axis=0)
            j = int(live.argmax())
            if not live[j]:
                break
            c += j // d
            if not R[r, c].any():
                # any row with a nonzero entry will do: the RREF is unique
                i = r + int(R[r:, c].any(axis=1).argmax())
                R[[r, i]] = R[[i, r]]
            if d == 1:
                row = F[r, c:] * pow(int(F[r, c]), -1, p) % p
                F[:, c:] = (F[:, c:] - F[:, c, None] * row) % p
                F[r, c:] = row
            else:
                row = R[r, c:] @ self._inverse_matrix(R[r, c]) % p
                # one batched product with the multiplication matrices of
                # the pivot column: entry (i, k) loses R[i, c] * row[k]
                mats = np.einsum("ri,ijt->rjt", R[:, c], self.fold) % p
                R[:, c:] = (R[:, c:] - row @ mats) % p
                R[r, c:] = row
            pivots.append(c)
            r += 1
            c += 1
        # rows come out in pivot order, and every row past the rank is zero
        return R[:r], pivots

    def _inverse_matrix(self, a):
        """Matrix of multiplication by 1/a on digit rows, for a nonzero
        digit vector a; memoised per field."""
        key = tuple(a.tolist())
        mat = self._inverses.get(key)
        if mat is None:
            inv = np.array(self.ctx.elem(list(key)).inverse().coeffs, dtype=np.int64)
            mat = self._inverses[key] = np.einsum("i,ijt->jt", inv, self.fold) % self.p
        return mat

    def rank(self, M):
        R, _ = self.rref(M)
        return R.shape[0]

    def nullspace(self, M):
        """Canonical basis of {x : M @ x = 0}, shape (k, cols, d)."""
        R, pivots = self.rref(M)
        cols = M.shape[1]
        free = np.setdiff1d(np.arange(cols), pivots)
        basis = self.zeros((free.size, cols))
        basis[np.arange(free.size), free, 0] = 1
        basis[:, pivots] = np.swapaxes(self.neg(R[:, free]), 0, 1)
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
        X[pivots] = R[:, cols:]
        return X

    def eye(self, n):
        out = self.zeros((n, n))
        out[np.arange(n), np.arange(n), 0] = 1
        return out

    def mat_eq(self, A, B):
        return A.shape == B.shape and np.array_equal(A % self.p, B % self.p)
