"""`KOps` row reduction against plain Gauss-Jordan elimination written with
`FieldElem` over prime fields, F_{p^2} and F_{p^3}, and against the former
column-at-a-time kernel on matrices up to 64 x 64; the int64 exactness
guard."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mschemes.gf import PreconditionFailed, field_ctx
from mschemes.linalg import KOps, PrimeTooLarge


def to_elems(ctx, M):
    return [[ctx.elem([int(v) for v in cell]) for cell in row] for row in M]


def gauss_jordan(rows):
    """Nonzero rows of the reduced row echelon form, and the pivot columns."""
    rows = [list(r) for r in rows]
    cols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(cols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[: len(pivots)], pivots


@st.composite
def matrices(draw, max_cols=6):
    """(ctx, M): M is (rows, cols, d), often rank-deficient (a product of
    random factors through an inner dimension below both sides)."""
    p, d = draw(st.sampled_from([(2, 1), (5, 1), (7, 1), (101, 1), (2, 2), (3, 2), (5, 2), (2, 3), (3, 3)]))
    ctx = field_ctx(p, d)
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, max_cols))
    inner = draw(st.integers(0, max(rows, cols)))
    entry = st.integers(0, ctx.order - 1)
    L = [[ctx.elem(draw(entry)) for _ in range(inner)] for _ in range(rows)]
    R = [[ctx.elem(draw(entry)) for _ in range(cols)] for _ in range(inner)]
    M = np.zeros((rows, cols, d), dtype=np.int64)
    for i in range(rows):
        for j in range(cols):
            acc = ctx.zero()
            for k in range(inner):
                acc = acc + L[i][k] * R[k][j]
            M[i, j] = acc.coeffs
    return ctx, M


@settings(max_examples=80, deadline=None, database=None)
@given(matrices())
def test_rref_rank_nullspace_match_gauss_jordan(case):
    ctx, M = case
    kops = KOps(ctx)
    want, want_piv = gauss_jordan(to_elems(ctx, M))
    R, piv = kops.rref(M)
    assert piv == want_piv
    assert to_elems(ctx, R) == want
    assert kops.rank(M) == len(want_piv)
    # canonical kernel basis: one vector per free column, 1 there, 0 at the
    # other free columns, minus the RREF entries at the pivots
    cols = M.shape[1]
    free = [c for c in range(cols) if c not in want_piv]
    N = to_elems(ctx, kops.nullspace(M))
    assert len(N) == len(free)
    for vec, fc in zip(N, free):
        for c in range(cols):
            if c in want_piv:
                assert vec[c] == -want[want_piv.index(c)][fc]
            else:
                assert vec[c] == (ctx.one() if c == fc else ctx.zero())


@settings(max_examples=80, deadline=None, database=None)
@given(matrices(max_cols=8), st.integers(1, 3))
def test_solve_right_many_matches_gauss_jordan(case, nrhs):
    ctx, M = case
    cols = max(1, M.shape[1] - nrhs)
    A, B = M[:, :cols], M[:, cols:]
    if B.shape[1] == 0:
        B = M[:, :1]
    X = KOps(ctx).solve_right_many(A, B)
    a, b = to_elems(ctx, A), to_elems(ctx, B)
    _, piv_a = gauss_jordan(a)
    _, piv_ab = gauss_jordan([ra + rb for ra, rb in zip(a, b)])
    if len(piv_ab) > len(piv_a):
        assert X is None
        return
    assert X is not None and X.shape == (cols, B.shape[1], ctx.d)
    x = to_elems(ctx, X)
    for i in range(A.shape[0]):
        for j in range(B.shape[1]):
            acc = ctx.zero()
            for k in range(cols):
                acc = acc + a[i][k] * x[k][j]
            assert acc == b[i][j]
    # canonical: free variables are zero
    for c in range(cols):
        if c not in piv_a:
            assert all(v.is_zero() for v in x[c])


def column_rref(kops, M):
    """The former `KOps.rref`: one column at a time over the whole matrix,
    each pivot inverted through `FieldElem` and, at d > 1, the rank-1 update
    taken through a fresh `operand`."""
    p, d = kops.p, kops.d
    R = M.copy() % p
    rows, cols = R.shape[0], R.shape[1]
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(R[r:, c, :].any(axis=1))[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            R[[r, pr]] = R[[pr, r]]
        inv = kops.scalar(kops.ctx.elem([int(v) for v in R[r, c]]).inverse())
        R[r] = kops.scalar_mul(inv, R[r])
        factors = R[:, c, :].copy()
        factors[r] = 0
        if factors.any():
            if d == 1:
                update = factors[:, 0:1] * R[r][None, :, 0]
                R[..., 0] = (R[..., 0] - update) % p
            else:
                update = kops.matmul_op(factors[:, None, :], kops.operand(R[r][None]))
                R = (R - update) % p
        pivots.append(c)
        r += 1
    return R[:len(pivots)], pivots


def operand_by_einsum(kops, B):
    """The former `KOps.operand`: entry ((i, a), (j, t)), digit t of
    theta^a * B[i, j], summed by one einsum over B's digits."""
    k, r, d = B.shape
    E = np.einsum("ijc,act->iajt", B, kops.fold) % kops.p
    exact = k * d * (kops.p - 1) ** 2 < 2**53
    return np.ascontiguousarray(E.reshape(k * d, r * d), dtype=np.float64 if exact else np.int64)


@pytest.mark.parametrize("p, d", [(31, 1), (2**31 - 1, 1), (11, 2), (7, 2), (100000007, 2), (3, 3), (5, 3)])
def test_operand_matches_einsum(p, d):
    # float64 and int64 operands, and B with no rows or no columns
    kops = KOps(field_ctx(p, d))
    rng = np.random.default_rng(p + d)
    for k, r in [(0, 4), (4, 0), (0, 0), (1, 1), (5, 7), (60, 60)]:
        B = rng.integers(0, p, size=(k, r, d))
        got, want = kops.operand(B), operand_by_einsum(kops, B)
        assert got.dtype == want.dtype and got.shape == want.shape == (k * d, r * d)
        assert got.flags.c_contiguous and np.array_equal(got, want)


def low_rank(kops, rng, rows, cols, rank):
    """A random (rows, cols, d) matrix of rank at most `rank`, with about a
    fifth of its rows and of its columns zeroed."""
    p, d = kops.p, kops.d
    L = rng.integers(0, p, size=(rows, rank, d))
    R = rng.integers(0, p, size=(rank, cols, d))
    if 0 in (rows, cols, rank):
        return kops.zeros((rows, cols))
    if d == 1:
        # Python integers: at large p no int64 product of inner length > 2 is exact
        M = (L[..., 0].astype(object) @ R[..., 0].astype(object)) % p
        M = M.astype(np.int64)[..., None]
    else:
        M = kops.matmul(L, R)
    M[rng.random(rows) < 0.2] = 0
    M[:, rng.random(cols) < 0.2] = 0
    return M


@pytest.mark.parametrize("p, d", [(2, 1), (5, 1), (31, 1), (65537, 1), (784150127, 1), (2**31 - 1, 1),
                                  (2, 2), (3, 2), (11, 2), (31, 2), (2, 3), (3, 3), (5, 3)])
def test_rref_matches_column_kernel(p, d):
    kops = KOps(field_ctx(p, d))
    rng = np.random.default_rng(p * 10 + d)
    shapes = [(1, 1), (64, 64), (64, 7), (7, 64), (0, 5), (5, 0)]
    shapes += [tuple(rng.integers(1, 65, size=2)) for _ in range(6)]
    for rows, cols in shapes:
        for rank in {0, min(rows, cols) // 2, min(rows, cols)}:
            M = low_rank(kops, rng, rows, cols, rank)
            R, piv = kops.rref(M)
            want, want_piv = column_rref(kops, M)
            assert piv == want_piv
            assert R.shape == want.shape and np.array_equal(R, want)
            # entries given outside [0, p) reduce first
            R2, piv2 = kops.rref(M - p * rng.integers(-2, 3, size=M.shape))
            assert piv2 == piv and np.array_equal(R2, R)


def test_kops_refuses_fields_beyond_int64():
    p = 2**61 - 1
    # this once wrapped silently: rref([[3, p-2], [p-5, 7]]) came out as
    # [[1, 64], [0, p - 15]], though the determinant is 11
    with pytest.raises(PrimeTooLarge):
        KOps(field_ctx(p, 1))
    assert issubclass(PrimeTooLarge, PreconditionFailed)
    # at d = 1 the guard needs (p-1)^2 < 2^63: the primes either side of it
    KOps(field_ctx(3037000493, 1))
    with pytest.raises(PrimeTooLarge):
        KOps(field_ctx(3037000507, 1))
    # here an int64 product is exact up to inner length 2
    p = 2**31 - 1
    kops = KOps(field_ctx(p, 1))
    M = np.array([[3, p - 2], [p - 5, 7]], dtype=np.int64)[..., None]
    R, piv = kops.rref(M)
    assert piv == [0, 1] and np.array_equal(R, kops.eye(2))
    a = np.array([[p - 2, p - 3]], dtype=np.int64)[..., None]
    b = np.array([[p - 5], [7]], dtype=np.int64)[..., None]
    assert kops.matmul(a, b)[0, 0, 0] == p - 11  # (-2)(-5) + (-3)(7)
    # inner length 3 could reach 2^63 in int64: refused, not wrapped
    with pytest.raises(PrimeTooLarge):
        kops.matmul(np.ones((1, 3, 1), dtype=np.int64), np.ones((3, 1, 1), dtype=np.int64))


@pytest.mark.parametrize("d", [1, 2])
def test_matmul_on_operands_without_rows(d):
    # an empty kernel times a basis: no rows in, no rows out
    kops = KOps(field_ctx(7, d))
    rng = np.random.default_rng(d)
    A = np.zeros((0, 3, d), dtype=np.int64)
    B = rng.integers(0, 7, size=(3, 4, d))
    assert kops.matmul(A, B).shape == (0, 4, d)
    assert kops.matmul(B.transpose(1, 0, 2), np.zeros((3, 0, d), dtype=np.int64)).shape == (4, 0, d)
    assert np.array_equal(kops.matmul(np.zeros((2, 0, d), dtype=np.int64), np.zeros((0, 5, d), dtype=np.int64)),
                          kops.zeros((2, 5)))
    kernel = kops.nullspace(kops.eye(3))
    assert kernel.shape == (0, 3, d)
    assert kops.matmul(kernel, kops.eye(3)).shape == (0, 3, d)
