"""`KOps` row reduction against plain Gauss-Jordan elimination written with
`FieldElem`, over prime fields and F_{p^2}."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mschemes.gf import field_ctx
from mschemes.linalg import KOps


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
    p, d = draw(st.sampled_from([(2, 1), (5, 1), (7, 1), (101, 1), (2, 2), (3, 2), (5, 2)]))
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
