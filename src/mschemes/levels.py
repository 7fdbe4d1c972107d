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
field).  Multiplication is integer convolution followed by reduction along
axes s..1; levels that are worth it carry a precomputed reduction matrix
so batched products become two BLAS-sized matmuls.
"""

from __future__ import annotations

import numpy as np
from scipy.signal import convolve as _convolve

from .gf import Poly
from .linalg import KOps

# product-space cells * canonical dim above this skips the reduction matrix
REDUCTION_MATRIX_CAP = 6 * 10**7


def kconvolve(a, b, ops: KOps):
    """Multivariate convolution of digit tensors (trailing axis = digits)."""
    p, d = ops.p, ops.d
    if d == 1:
        return (_convolve(a[..., 0], b[..., 0], method="direct") % p)[..., None]
    out_shape = tuple(sa + sb - 1 for sa, sb in zip(a.shape[:-1], b.shape[:-1]))
    out = np.zeros(out_shape + (d,), dtype=np.int64)
    for i in range(d):
        for j in range(d):
            raw = _convolve(a[..., i], b[..., j], method="direct") % p
            vec = ops.fold[i, j]
            for t in range(d):
                if vec[t]:
                    out[..., t] += raw * int(vec[t])
    return out % p


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
        self._mono_cache = {}
        self._reduction = None
        self._conv_index = None
        self._rel_trace_powers = None

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

    def reduce_monomial(self, exponents, cache=True):
        """Canonical vector of a single (possibly overflowing) monomial."""
        key = tuple(int(e) for e in exponents)
        if cache:
            hit = self._mono_cache.get(key)
            if hit is not None:
                return hit
        shape = tuple(e + 1 for e in key) + (self.ops.d,)
        t = np.zeros(shape, dtype=np.int64)
        t[key + (0,)] = 1
        out = self.reduce_tensor(t)
        if cache:
            out.setflags(write=False)
            self._mono_cache[key] = out
        return out

    # -- multiplication ----------------------------------------------------------

    @property
    def prod_cells(self):
        out = 1
        for e in self.extents:
            out *= 2 * e - 1
        return out

    def _want_matrix(self):
        return self.prod_cells * self.dim <= REDUCTION_MATRIX_CAP and self.dim >= 64

    def reduction_matrix(self):
        """(prod_cells, dim) reduction of every product-space monomial.

        Built once per level; None when the level is too large, in which
        case products fall back to per-element division.
        """
        if self._reduction is None and self._want_matrix():
            pshape = tuple(2 * e - 1 for e in self.extents)
            cells = np.indices(pshape).reshape(self.s, -1).T
            R = np.zeros((self.prod_cells, self.dim, self.ops.d), dtype=np.int64)
            for idx, exps in enumerate(cells):
                if all(e < d for e, d in zip(exps, self.extents)):
                    flat = 0
                    for e, d in zip(exps, self.extents):
                        flat = flat * d + int(e)
                    R[idx, flat, 0] = 1
                else:
                    R[idx] = self.reduce_monomial(exps, cache=False)
            self._reduction = R
        return self._reduction

    def _conv_gather(self):
        """(prod_cells, dim) index/mask pair for Toeplitz-style batching."""
        if self._conv_index is None:
            pshape = tuple(2 * e - 1 for e in self.extents)
            pcells = np.indices(pshape).reshape(self.s, -1).T  # (P, s)
            bcells = np.indices(self.extents).reshape(self.s, -1).T  # (N, s)
            diff = pcells[:, None, :] - bcells[None, :, :]
            ok = ((diff >= 0) & (diff < np.array(self.extents)[None, None, :])).all(axis=2)
            flat = np.zeros(diff.shape[:2], dtype=np.int64)
            for j, d in enumerate(self.extents):
                flat = flat * d + np.clip(diff[..., j], 0, d - 1)
            self._conv_index = (flat, ok)
        return self._conv_index

    def mult(self, u, v):
        conv = kconvolve(self.to_tensor(u), self.to_tensor(v), self.ops)
        return self.reduce_tensor(conv)

    def mult_batch(self, rows, v):
        """Products row * v for every row of `rows` ((B, dim, d))."""
        if rows.shape[0] == 0:
            return rows.copy()
        R = self.reduction_matrix()
        if R is None or rows.shape[0] < 8:
            return np.stack([self.mult(r, v) for r in rows])
        flat, ok = self._conv_gather()
        p, d = self.ops.p, self.ops.d
        B = rows.shape[0]
        # conv[t][b, cell] = digit t of sum_i rows[b, i] * v[cell - mono_i]
        conv = [np.zeros((B, self.prod_cells), dtype=np.float64) for _ in range(d)]
        for j in range(d):
            Tv_j = np.where(ok, v[flat, j], 0).astype(np.float64)  # (P, N)
            for i in range(d):
                raw = (rows[:, :, i].astype(np.float64) @ Tv_j.T) % p
                if d == 1:
                    conv[0] += raw
                else:
                    vec = self.ops.fold[i, j]
                    for t in range(d):
                        if vec[t]:
                            conv[t] += int(vec[t]) * raw
        out = np.zeros((B, self.dim, d), dtype=np.int64)
        for t in range(d):
            C_t = conv[t] % p
            for rt in range(d):
                M = (C_t @ R[:, :, rt].astype(np.float64)) % p  # (B, N)
                if d == 1:
                    out[:, :, 0] += M.astype(np.int64)
                else:
                    fv = self.ops.fold[t, rt]
                    for ft in range(d):
                        if fv[ft]:
                            out[:, :, ft] += int(fv[ft]) * M.astype(np.int64)
        return out % p

    def power(self, u, e: int, unit=None):
        """u^e by square-and-multiply; u^0 is `unit` (default: the identity)."""
        result = self.identity() if unit is None else unit.copy()
        base = u
        while e:
            if e & 1:
                result = self.mult(result, base)
            base = self.mult(base, base) if e > 1 else base
            e >>= 1
        return result

    def idempotent_of(self, z):
        """Support idempotent z^(Q-1); exact on split algebras."""
        return self.power(z, self.ctx.order - 1)

    # -- structural maps --------------------------------------------------------

    def apply_perm(self, tau, vec):
        """Coordinate-permutation action on functions: supports map forward
        under tuples^tau.  tau is 0-based."""
        t = self.to_tensor(vec)
        axes = list(tau) + [self.s]
        moved = np.transpose(t, axes=axes)
        return self.reduce_tensor(np.ascontiguousarray(moved))

    def embed_from_below(self, below: "LevelAlgebra", j: int, vec):
        """iota_j: level s-1 -> level s (1-based slot j gets the fresh slot)."""
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
            ps = [below.scalar_vec(dd)]
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
    ops = KOps(f.ctx)
    dims = []
    dim = 1
    for s in range(1, m + 1):
        dim *= n - s + 1
        dims.append(dim)
        if dim > dim_cap:
            from .factor import DimCapExceeded

            raise DimCapExceeded(f"level {s} dimension {dim} exceeds cap {dim_cap}")
    cauchy = build_cauchy(f, m, ops)
    return [LevelAlgebra(f, s, cauchy[:s], ops) for s in range(1, m + 1)]
