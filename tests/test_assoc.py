import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mschemes import assoc, mscheme
from mschemes.assoc import (
    BadEll,
    DeviationReport,
    NotAScheme,
    EDoesNotDivide,
    Scheme,
    TooSmall,
    Violation,
    check_tensor_identities,
    complete_scheme,
    cyclotomic_deviation_report,
    cyclotomic_scheme,
    intersection_tensor,
    small_intersection_search,
    verify_identities,
    verify_scheme,
)
from mschemes.gf import NotPrime
from mschemes.mscheme import NotHomogeneous, level2_to_scheme, scheme_to_3scheme


def brute_tensor(s):
    """Independent oracle: triple loop over points."""
    n, G, m = s.n, s.num_colors, s.matrix
    c = np.zeros((G, G, G), dtype=np.int64)
    seen = np.zeros((G,), dtype=bool)
    for a in range(n):
        for b in range(n):
            h = m[a, b]
            if seen[h]:
                continue
            seen[h] = True
            for f in range(G):
                for g in range(G):
                    c[h, f, g] = sum(1 for z in range(n) if m[a, z] == f and m[z, b] == g)
    return c


def verify_scheme_by_cube(s):
    """Oracle for `verify_scheme`: sort the (n, n, n) cube of path codes
    m[x, z]*G + m[z, y] and compare each color's rows with its first row."""
    m = s.matrix
    n, G = s.n, s.num_colors
    diag = np.diag(m)
    if (diag != 0).any():
        x = int(np.nonzero(diag != 0)[0][0])
        return Violation(1, None, None, None, (x, x), (x, x), "diagonal pair not in color 0")
    off = m.copy()
    np.fill_diagonal(off, -1)
    zero_off = np.argwhere(off == 0)
    if len(zero_off):
        x, y = map(int, zero_off[0])
        return Violation(1, None, None, None, (x, y), (x, y), "off-diagonal pair in color 0")
    t = m.T
    for g in range(G):
        mask = m == g
        if len(np.unique(t[mask])) != 1:
            seen = {}
            for x, y in np.argwhere(mask):
                seen.setdefault(int(t[x, y]), (int(x), int(y)))
                if len(seen) == 2:
                    return Violation(2, g, None, None, *seen.values(), "transpose class is mixed")
    codes = m[:, None, :].astype(np.int64) * G + m.T[None, :, :]
    sorted_codes = np.sort(codes.reshape(n * n, n), axis=1)
    flat_colors = m.reshape(n * n)
    for h in range(G):
        idx = np.nonzero(flat_colors == h)[0]
        rows = sorted_codes[idx]
        same = (rows == rows[0]).all(axis=1)
        if not same.all():
            bad = idx[int(np.nonzero(~same)[0][0])]
            rep = idx[0]
            h1 = np.bincount(sorted_codes[rep], minlength=G * G)
            h2 = np.bincount(sorted_codes[bad], minlength=G * G)
            code = int(np.nonzero(h1 != h2)[0][0])
            pair1 = (int(rep // n), int(rep % n))
            pair2 = (int(bad // n), int(bad % n))
            return Violation(3, code // G, code % G, h, pair1, pair2, "intersection count differs")
    return None


def adjoint_by_classes(s):
    """Oracle for `Scheme.adjoint`: the transposes of each color, one color at a time."""
    adj = []
    for g in range(s.num_colors):
        vals = np.unique(s.matrix.T[s.matrix == g])
        if len(vals) != 1:
            return f"transpose of color {g} is not a single color"
        adj.append(int(vals[0]))
    return adj


def test_cyclotomic_13_4():
    s = cyclotomic_scheme(13, 4)
    assert s.num_colors == 5
    assert verify_scheme(s) is None
    t = intersection_tensor(s)
    assert all(t.valency(g) == 3 for g in range(1, 5))


def test_cyclotomic_7_2_adjoints():
    s = cyclotomic_scheme(7, 2)
    assert s.num_colors == 3
    adj = s.adjoint
    # -1 is a nonresidue mod 7, so the two nontrivial colors are swapped
    assert adj[1] == 2 and adj[2] == 1 and adj[0] == 0


def test_cyclotomic_errors():
    with pytest.raises(EDoesNotDivide):
        cyclotomic_scheme(13, 5)
    with pytest.raises(NotPrime):
        cyclotomic_scheme(12, 1)


def test_cyclotomic_generator_independence():
    # partition must not depend on which primitive root generated the cosets
    p, e = 13, 4
    s = cyclotomic_scheme(p, e)
    for alpha in range(2, p):
        if all(pow(alpha, (p - 1) // q, p) != 1 for q in (2, 3)):
            classes = {}
            label = np.zeros(p, dtype=int)
            for i in range(1, e + 1):
                x = pow(alpha, i, p)
                step = pow(alpha, e, p)
                for _ in range((p - 1) // e):
                    label[x] = i
                    x = x * step % p
            diff = (np.arange(p)[:, None] - np.arange(p)[None, :]) % p
            other = label[diff]
            # compare partitions: same equivalence on pairs
            flat_a = s.matrix.reshape(-1)
            flat_b = other.reshape(-1)
            pairing = {}
            for a, b in zip(flat_a, flat_b):
                assert pairing.setdefault(a, b) == b


PRIMES_TO_97 = [q for q in range(2, 98) if all(q % d for d in range(2, q))]
# every cyclotomic scheme with p <= 97
CYCLOTOMIC_TO_97 = [(p, e) for p in PRIMES_TO_97 for e in range(1, p) if (p - 1) % e == 0]


def cyclotomic_label(p, e):
    """Oracle for `cyclotomic_scheme`'s row of colors by difference: the
    coset of each nonzero x, walking the powers of the least primitive root."""
    alpha = next(g for g in range(1, p) if len({pow(g, j, p) for j in range(1, p)}) == p - 1)
    label = np.zeros(p, dtype=np.int32)
    x = 1
    for j in range(1, p):
        x = x * alpha % p
        label[x] = (j - 1) % e + 1
    return label


@pytest.mark.parametrize("p,e", CYCLOTOMIC_TO_97 + [(1009, 4)])
def test_cyclotomic_matrix_matches_difference_oracle(p, e):
    # oracle: the p^2 difference matrix, m[x, y] = label[(x - y) % p]
    want = cyclotomic_label(p, e)[(np.arange(p)[:, None] - np.arange(p)) % p]
    got = cyclotomic_scheme(p, e).matrix
    assert got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "m,expected",
    [
        ([[0, 1], [1, 1]], Violation(1, None, None, None, (1, 1), (1, 1), "diagonal pair not in color 0")),
        ([[0, 1, 0], [1, 0, 1], [0, 1, 0]],
         Violation(1, None, None, None, (0, 2), (0, 2), "off-diagonal pair in color 0")),
        ([[0, 1, 1], [1, 0, 2], [2, 1, 0]], Violation(2, 1, None, None, (0, 1), (0, 2), "transpose class is mixed")),
        # the path 0 - 1 - 2: point 1 has two neighbours, point 0 one
        ([[0, 1, 2], [1, 0, 1], [2, 1, 0]], Violation(3, 1, 1, 0, (0, 0), (1, 1), "intersection count differs")),
    ],
    ids=["diagonal", "off-diagonal", "mixed-transpose", "count"],
)
def test_verify_scheme_violations(m, expected):
    s = Scheme(m)
    assert verify_scheme(s) == expected == verify_scheme_by_cube(s)
    with pytest.raises(NotAScheme, match=f"axiom {expected.axiom} fails"):
        intersection_tensor(s)


def _dense(m):
    return np.unique(m, return_inverse=True)[1].reshape(m.shape)


@st.composite
def colour_matrices(draw):
    """Random small colour matrices, and cyclotomic schemes with a few
    entries (and optionally their transposes) recoloured."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(1, 7))
        m = rng.integers(0, draw(st.integers(1, 5)), size=(n, n))
        if draw(st.booleans()):
            np.fill_diagonal(m, -1)
        if draw(st.booleans()):
            m = np.minimum(m, m.T)
        return _dense(m)
    p, e = draw(st.sampled_from([(5, 2), (7, 2), (7, 3), (11, 5), (13, 4), (13, 6), (17, 8)]))
    m = cyclotomic_scheme(p, e).matrix.copy()
    for _ in range(draw(st.integers(0, 3))):
        x, y = (int(v) for v in rng.integers(0, p, 2))
        m[x, y] = rng.integers(0, e + 2)
        if draw(st.booleans()):
            m[y, x] = m[x, y]
    return _dense(m)


@settings(max_examples=300, deadline=None, database=None)
@given(colour_matrices())
def test_verify_scheme_matches_cube(m):
    s = Scheme(m)
    v = verify_scheme(s)
    assert v == verify_scheme_by_cube(s)
    try:
        adj = [int(g) for g in s.adjoint]
    except NotAScheme as exc:
        adj = str(exc)
    assert adj == adjoint_by_classes(s)
    if v is None:
        t = intersection_tensor(s)
        assert np.array_equal(t.c, brute_tensor(s)) and list(t.adjoint) == adj


@st.composite
def circulant_matrices(draw):
    """Colourings m[x, y] = L[(x - y) % n] with L[0] = 0.  Each difference
    pair {d, -d} gets a colour a, and -d either a or the paired colour
    a + k; a colour drawn both ways breaks transpose closure (axiom 2), and
    random classes mostly break the counts (axiom 3)."""
    n = draw(st.integers(1, 12))
    k = draw(st.integers(1, 4))
    L = np.zeros(n, dtype=np.int64)
    for d in range(1, n // 2 + 1):
        a = draw(st.integers(1, k))
        L[d] = a
        L[n - d] = a if draw(st.booleans()) else a + k
    return _dense(L[(np.arange(n)[:, None] - np.arange(n)) % n])


@settings(max_examples=300, deadline=None, database=None)
@given(circulant_matrices())
def test_verify_scheme_matches_cube_on_circulants(m):
    s = Scheme(m)
    assert verify_scheme(s) == verify_scheme_by_cube(s)


@pytest.mark.parametrize(
    "L,axiom",
    [([0, 1, 1, 2, 2], 3), ([0, 1, 1, 2, 3, 3], 3), ([0, 1, 1, 1, 2, 2, 2], 3), ([0, 1, 1, 1, 2], 2),
     ([0, 1, 1, 1, 1, 1, 2], 2), ([0, 1, 2, 3, 4], None), ([0, 1, 2, 2, 1], None)],
    ids=["count-5", "count-6", "count-7", "mixed-5", "mixed-7", "thin-5", "pentagon"],
)
def test_verify_scheme_circulant_witnesses(L, axiom):
    n = len(L)
    s = Scheme(np.array(L)[(np.arange(n)[:, None] - np.arange(n)) % n])
    v = verify_scheme(s)
    assert v == verify_scheme_by_cube(s)
    assert (v and v.axiom) == axiom


@st.composite
def axiom1_circulants(draw):
    """Circulants m[x, y] = L[(x - y) % n] with a zero at some L[d], d != 0:
    every diagonal pair breaks axiom 1 when L[0] != 0, and (x, x - d) does
    otherwise."""
    n = draw(st.integers(2, 12))
    L = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    L[draw(st.integers(1, n - 1))] = 0
    return _dense(L[(np.arange(n)[:, None] - np.arange(n)) % n])


@settings(max_examples=200, deadline=None, database=None)
@given(axiom1_circulants())
def test_verify_scheme_axiom1_circulants(m):
    # oracle: the cube check, which reads axiom 1 off the whole matrix
    s = Scheme(m)
    assert s.decisive_rows().tolist() == [0]
    v = verify_scheme(s)
    assert v is not None and v.axiom == 1 and v == verify_scheme_by_cube(s)


@pytest.mark.parametrize(
    "L,expected",
    [([1, 0, 2], Violation(1, None, None, None, (0, 0), (0, 0), "diagonal pair not in color 0")),
     ([0, 1, 0, 2], Violation(1, None, None, None, (0, 2), (0, 2), "off-diagonal pair in color 0")),
     ([0, 1, 1, 0, 1], Violation(1, None, None, None, (0, 2), (0, 2), "off-diagonal pair in color 0"))],
    ids=["diagonal", "off-diagonal-4", "off-diagonal-5"],
)
def test_verify_scheme_axiom1_circulant_witnesses(L, expected):
    n = len(L)
    s = Scheme(np.array(L)[(np.arange(n)[:, None] - np.arange(n)) % n])
    assert verify_scheme(s) == expected == verify_scheme_by_cube(s)


def translation_by_roll(m):
    """Oracle for `Scheme.decisive_rows`: m shifted by one along both axes."""
    return np.array_equal(np.roll(m, -1, axis=(0, 1)), m)


@settings(max_examples=200, deadline=None, database=None)
@given(st.one_of(colour_matrices(), circulant_matrices()))
def test_decisive_rows_match_roll(m):
    s = Scheme(m)
    rows = s.decisive_rows()
    assert rows.tolist() == list(range(1 if translation_by_roll(s.matrix) else s.n))
    assert s.decisive_rows() is rows
    assert s.transpose_map()[1].shape == (len(rows), s.n)


def test_transpose_map_keeps_the_decisive_rows():
    # a translation scheme's transpose mask is its row 0; the recoloured
    # scheme below is no translation scheme and keeps every row
    s = cyclotomic_scheme(13, 4)
    assert s.transpose_map()[1].shape == (1, 13)
    m = s.matrix.copy()
    m[0, 1], m[1, 0], m[0, 2], m[2, 0] = m[0, 2], m[2, 0], m[0, 1], m[1, 0]
    assert Scheme(m).transpose_map()[1].shape == (13, 13)


def counting_pair_codes(monkeypatch):
    """The list of rows each `_pair_codes` call is asked for, as it grows."""
    calls = []
    pair_codes = assoc._pair_codes

    def counting(m, G, x, y):
        calls.append(np.size(x))
        return pair_codes(m, G, x, y)

    monkeypatch.setattr(assoc, "_pair_codes", counting)
    return calls


def test_verify_scheme_checks_one_row_of_a_translation_scheme(monkeypatch):
    # x -> x + 1 keeps every colour of a cyclotomic scheme: the references
    # (one row per colour) and row 0 decide axiom 3, not all 251 rows
    calls = counting_pair_codes(monkeypatch)
    s = cyclotomic_scheme(251, 2)
    assert verify_scheme(s) is None
    assert calls == [s.num_colors, 1]


def test_verify_scheme_checks_every_row_otherwise(monkeypatch):
    calls = counting_pair_codes(monkeypatch)
    m = cyclotomic_scheme(13, 4).matrix.copy()
    m[0, 1], m[1, 0], m[0, 2], m[2, 0] = m[0, 2], m[2, 0], m[0, 1], m[1, 0]
    s = Scheme(m)
    v = verify_scheme(s)
    assert v is not None and v.axiom == 3 and v == verify_scheme_by_cube(s)
    # references, 13 rows, then the witness counts of two pairs
    assert calls == [s.num_colors] + [1] * 13 + [2]


def first_by_unique(m):
    """Oracle for `Scheme`'s id check and `first`: np.unique's first indices."""
    colors, first = np.unique(m, return_index=True)
    if colors[0] != 0 or colors[-1] != len(colors) - 1:
        return "color ids must be dense 0..d"
    return first


@pytest.mark.parametrize(
    "m",
    [[[0, 2], [2, 1]], [[1, 0], [0, 1]], [[0, 2], [2, 0]], [[0, -1], [1, 0]], [[-1, 0], [0, 1]],
     [[1, 1], [1, 1]], [[0, 2**31 - 1], [1, 0]], [[0]]],
    ids=["dense", "first-late", "gapped", "negative", "negative-min", "no-zero", "huge-id", "one-point"],
)
def test_scheme_first_matches_unique(m):
    m = np.array(m)
    want = first_by_unique(m)
    if isinstance(want, str):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=want):
                Scheme(m)
            # a huge id is refused before anything of its size is allocated
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
    else:
        first = Scheme(m).first
        assert first.dtype == want.dtype and np.array_equal(first, want)


@settings(max_examples=200, deadline=None, database=None)
@given(st.integers(1, 9), st.integers(-2, 6), st.integers(0, 2**32 - 1))
def test_scheme_first_matches_unique_random(n, top, seed):
    m = np.random.default_rng(seed).integers(min(top, 0), top + 1, size=(n, n))
    want = first_by_unique(m)
    if isinstance(want, str):
        with pytest.raises(ValueError, match=want):
            Scheme(m)
    else:
        s = Scheme(m)
        assert s.num_colors == len(want) and np.array_equal(s.first, want)


@pytest.mark.parametrize("p, e", [(5, 2), (13, 4), (97, 4), (101, 5), (251, 2), (1009, 4)])
def test_scheme_first_matches_unique_on_cyclotomic_schemes(p, e):
    # row 0 of a cyclotomic scheme holds every color, so it alone gives first
    m = cyclotomic_scheme(p, e).matrix
    first = Scheme(m).first
    want = first_by_unique(m)
    assert first.dtype == want.dtype and np.array_equal(first, want)
    assert (first < p).all()


def test_scheme_first_when_row_zero_lacks_a_color():
    m = cyclotomic_scheme(13, 4).matrix.copy()
    G = int(m.max()) + 1
    m[3, 7] = m[7, 3] = G  # a new color, off row 0
    first = Scheme(m).first
    want = first_by_unique(m)
    assert first.dtype == want.dtype and np.array_equal(first, want)
    assert first[G] == 3 * 13 + 7
    m[3, 7] = m[7, 3] = G + 1  # and with a gap below it
    with pytest.raises(ValueError, match=first_by_unique(m)):
        Scheme(m)


def test_scheme_memory_at_1009():
    # the checked int32 copy of the p = 1009 matrix is about 4 MB; an intp
    # index per pair and a bincount over all pairs peaked at 11.7 MB
    m = cyclotomic_scheme(1009, 4).matrix
    tracemalloc.start()
    try:
        s = Scheme(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(s.first, first_by_unique(m))
    assert peak < 7 * 2**20


def test_pair_counts_widen_only_the_rows_read():
    # the intersection numbers of the p = 1009 scheme read G = 5 rows and
    # columns; an int64 copy of the whole matrix took 7.9 MB
    s = cyclotomic_scheme(1009, 4)
    x, y = np.divmod(s.first, s.n)
    tracemalloc.start()
    try:
        c = assoc._pair_counts(s.matrix, s.num_colors, x, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.dtype == np.int64 and c.sum() == s.num_colors * s.n
    assert peak < 2**20


def test_transpose_map_computed_once(monkeypatch):
    # verify_scheme's axiom-2 pass and the adjoint share one transpose map
    s = cyclotomic_scheme(13, 4)
    assert verify_scheme(s) is None
    adj, mixed = s.transpose_map()
    assert s.transpose_map()[0] is adj and s.adjoint is adj
    assert not adj.flags.writeable and not mixed.flags.writeable
    assert intersection_tensor(s).adjoint is not adj


def test_verify_scheme_memory_is_quadratic():
    # the cube of path codes at n = 251 took 362 MB
    s = cyclotomic_scheme(251, 2)
    tracemalloc.start()
    try:
        assert verify_scheme(s) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_verify_scheme_memory_at_1009():
    # p = 1009, e = 4 (1018081 pairs): the check of row 0 holds a few n^2
    # int16 arrays, about 7 MB; a p^2 transpose mask, an int64 spread of
    # row 0's verdict and a copy for axiom 1 peaked at 24 MB
    s = cyclotomic_scheme(1009, 4)
    tracemalloc.start()
    try:
        assert verify_scheme(s) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_verify_scheme_past_int16_codes():
    # the thin scheme of Z_191 has G = 191 colors: codes reach G*G - 1 >
    # 2^15 - 1, so axiom 3 sorts them in int32; one recoloured pair (and its
    # transpose, so axiom 2 still holds) must be caught there
    s = cyclotomic_scheme(191, 190)
    assert s.num_colors == 191 and s.num_colors ** 2 > 2**15
    assert verify_scheme(s) is None is verify_scheme_by_cube(s)
    m = s.matrix.copy()
    m[3, 50], m[50, 3] = m[3, 51], m[51, 3]
    bad = Scheme(m)
    assert bad.num_colors == 191
    v = verify_scheme(bad)
    assert v is not None and v.axiom == 3 and v == verify_scheme_by_cube(bad)


def test_verify_scheme_one_point():
    assert verify_scheme(complete_scheme(1)) is None


def test_scheme_copies_its_input():
    a = np.array([[0, 1], [1, 0]], dtype=np.int32)
    s = Scheme(a)
    a[0, 1] = 7
    assert s.matrix[0, 1] == 1 and not s.matrix.flags.writeable


@pytest.mark.parametrize(
    "m",
    [np.array([[0, 1], [1, 0.5]]), np.array([[0, 2**32 + 1], [1, 0]], dtype=np.int64)],
    ids=["fraction", "wraps-in-int32"],
)
def test_scheme_refuses_non_integral(m):
    with pytest.raises(ValueError, match="integers"):
        Scheme(m)


def test_scheme_refuses_empty():
    with pytest.raises(ValueError, match="nonempty"):
        Scheme(np.zeros((0, 0)))


def test_tensor_cyclotomic_13_6():
    s = cyclotomic_scheme(13, 6)
    t = intersection_tensor(s)
    for g in range(1, 7):
        assert t.valency(g) == 2
        assert t.c_g[g] == 1  # indistinguishing number k-1
    assert np.array_equal(t.c, brute_tensor(s))


def test_tensor_complete_5():
    t = intersection_tensor(complete_scheme(5))
    assert t.valency(1) == 4
    assert t.c_g[1] == 3


def test_tensor_cyclotomic_5_2():
    t = intersection_tensor(cyclotomic_scheme(5, 2))
    for g in (1, 2):
        assert t.valency(g) == 2
        assert t.c_g[g] == 1


def test_identities_ok():
    assert verify_identities(cyclotomic_scheme(13, 4)) is None
    assert verify_identities(complete_scheme(1)) is None


def test_identities_corrupted_tensor():
    # corrupt a self-adjoint diagonal entry: identities (1) and (2) stay
    # silent there, identity (3) must fire
    s = cyclotomic_scheme(13, 6)
    t = intersection_tensor(s)
    assert t.adjoint[1] == 1
    t.c[1, 1, 1] += 1
    bad = check_tensor_identities(t)
    assert bad is not None and bad.identity == 3


@pytest.mark.parametrize("p,e", [(5, 2), (7, 2), (13, 4), (13, 6), (11, 5), (17, 4), (31, 6)])
def test_identity_suite_on_constructed(p, e):
    assert verify_identities(cyclotomic_scheme(p, e)) is None


def test_small_intersection_13_6():
    t = intersection_tensor(cyclotomic_scheme(13, 6))
    res = small_intersection_search(t, 2)
    # |G| = 7 >= 2(k-1)/(l-1)+2 = 4 and the witness indeed exists, but the
    # reported hypothesis also demands ell < k (here 2 < 2 fails)
    assert 7 >= 2 * (2 - 1) // (2 - 1) + 2
    assert not res.hypothesis_held
    assert res.witness is not None
    assert res.witness.c1 == 1 and res.witness.c2 == 1
    # oracle: brute-force lexicographic first witness
    adj = t.adjoint
    expected = None
    for u in range(1, 7):
        for v in range(1, 7):
            if v == u:
                continue
            for w in range(1, 7):
                for wp in range(1, 7):
                    if wp == w:
                        continue
                    c1, c2 = t.c[w, adj[u], v], t.c[wp, adj[u], v]
                    if 0 < c1 <= c2 < 2:
                        expected = (u, v, w, wp)
                        break
                if expected:
                    break
            if expected:
                break
        if expected:
            break
    got = (res.witness.u, res.witness.v, res.witness.w, res.witness.w_prime)
    assert got == expected


def test_small_intersection_5_2_hypothesis_fails():
    res = small_intersection_search(intersection_tensor(cyclotomic_scheme(5, 2)), 2)
    assert not res.hypothesis_held  # |G| = 3 < 4
    assert res.witness is not None  # exists anyway by exhaustion
    assert res.witness.c1 == 1 and res.witness.c2 == 1


def test_small_intersection_bad_ell():
    with pytest.raises(BadEll):
        small_intersection_search(intersection_tensor(cyclotomic_scheme(5, 2)), 1)


def test_thin_scheme_no_contradiction():
    # valency 1: profile invariant 1 < ell < k fails, so no witness is owed
    res = small_intersection_search(intersection_tensor(cyclotomic_scheme(13, 12)), 2)
    assert not res.hypothesis_held
    assert res.witness is None


def check_tensor_identities_by_loops(t):
    """Oracle for `check_tensor_identities`: each identity 1-4 on its own
    path, identity 5 by a double loop over (u, v)."""
    c, adj, G = t.c, t.adjoint, t.num_colors
    n_g = t.n_g
    rhs = c[np.ix_(adj, adj, adj)].transpose(0, 2, 1)
    if not np.array_equal(c, rhs):
        return assoc.FailedIdentity(1, tuple(int(v) for v in np.argwhere(c != rhs)[0]))
    lhs = c.transpose(1, 0, 2) * n_g[None, :, None]
    rhs = c[:, :, adj] * n_g[:, None, None]
    if not np.array_equal(lhs, rhs):
        return assoc.FailedIdentity(2, tuple(int(v) for v in np.argwhere(lhs != rhs)[0]))
    lhs = c.sum(axis=1)
    rhs = np.broadcast_to(n_g[adj][None, :], (G, G))
    if not np.array_equal(lhs, rhs):
        return assoc.FailedIdentity(3, tuple(int(v) for v in np.argwhere(lhs != rhs)[0]))
    lhs = np.einsum("gef,g->ef", c, n_g)
    rhs = np.outer(n_g, n_g)
    if not np.array_equal(lhs, rhs):
        return assoc.FailedIdentity(4, tuple(int(v) for v in np.argwhere(lhs != rhs)[0]))
    m1 = np.einsum("ubu->ub", c)
    m2 = c[:, np.arange(G), adj]
    lhs = m1[:, 1:] @ m2[1:, :]
    t1 = c[:, adj, :]
    c2 = c[:, :, adj]
    rhs = np.einsum("uvw,wuv->uv", c2, np.where(t1 > 0, t1 - 1, 0))
    for u in range(1, G):
        for v in range(1, G):
            if v != u and lhs[u, v] != rhs[u, v]:
                return assoc.FailedIdentity(5, (u, v, int(lhs[u, v]), int(rhs[u, v])))
    return None


def valid_for_by_loop(profile, t):
    """Oracle for `BoundsProfile.valid_for`: one Fraction test per color."""
    lo, hi, cap = profile.delta1 * profile.k, profile.delta1p * profile.k, profile.delta2p * profile.c
    for g in range(1, t.num_colors):
        if not (lo <= t.n_g[g] <= hi and t.c_g[g] <= cap):
            return False
    return 1 < profile.ell < (profile.delta1**2 / profile.delta1p) * profile.k


def small_intersection_by_loops(t, ell):
    """Oracle for `small_intersection_search`: the witness by four nested
    loops over numpy scalars, then the hypothesis; "contradiction" where
    the search must raise TheoremContradiction."""
    G, adj = t.num_colors, t.adjoint
    witness = None
    for u in range(1, G):
        for v in range(1, G):
            if v == u:
                continue
            vec = t.c[:, adj[u], v]
            for w in range(1, G):
                if not (0 < vec[w] < ell):
                    continue
                for wp in range(1, G):
                    if wp != w and 0 < vec[wp] < ell and vec[w] <= vec[wp]:
                        witness = assoc.Witness(u, v, w, wp, int(vec[w]), int(vec[wp]))
                        break
                if witness:
                    break
            if witness:
                break
        if witness:
            break
    profile = assoc.auto_profile(t, ell)
    held = valid_for_by_loop(profile, t) and Fraction(G) >= profile.group_size_bound()
    return "contradiction" if held and witness is None else (witness, held)


def small_intersection_outcome(t, ell):
    try:
        res = small_intersection_search(t, ell)
    except assoc.TheoremContradiction:
        return "contradiction"
    if res.witness is not None:
        # the report prints the witness as JSON: Python ints only
        assert {type(v) for v in dataclasses.astuple(res.witness)} == {int}
    return res.witness, res.hypothesis_held


def perturbed_tensors(t):
    """Single-entry perturbations of t: the first pair of colors 0, a
    self-adjoint diagonal and a few seeded entries, each by +1 and -1 (these
    reach identities 1, 2 and 3); and, with two nontrivial colors, the
    product of (+1 at color 1, -1 at color 2) on all three indices, which
    keeps identities 1-4 on self-adjoint colors of equal valency and breaks 5."""
    G = t.num_colors
    rng = np.random.default_rng(G)
    entries = [(0, 0, 0), (0, 0, min(1, G - 1)), (G - 1, G - 1, G - 1)]
    entries += [tuple(int(i) for i in rng.integers(0, G, 3)) for _ in range(3)]
    out = []
    for at in entries:
        for delta in (1, -1):
            c = t.c.copy()
            c[at] += delta
            out.append(assoc.IntersectionTensor(c, t.adjoint))
    if G >= 3:
        sign = np.zeros(G, dtype=np.int64)
        sign[1], sign[2] = 1, -1
        parity = np.einsum("h,f,g->hfg", sign, sign, sign)
        out.append(assoc.IntersectionTensor(t.c + parity, t.adjoint))
    return out


@pytest.mark.parametrize("p,e", CYCLOTOMIC_TO_97)
def test_scheme_report_searches_match_loops(p, e):
    t = intersection_tensor(cyclotomic_scheme(p, e))
    perturbed = perturbed_tensors(t)
    for tt in [t] + perturbed:
        assert check_tensor_identities(tt) == check_tensor_identities_by_loops(tt)
        for ell in (2, 3, 4):
            profile = assoc.auto_profile(tt, ell)
            # auto_profile meets every color's bound; these miss one each
            for prof in (profile, dataclasses.replace(profile, k=profile.k + 1),
                         dataclasses.replace(profile, delta1p=profile.delta1p - Fraction(1, 2 * profile.k)),
                         dataclasses.replace(profile, c=profile.c - 1)):
                assert prof.valid_for(tt) == valid_for_by_loop(prof, tt)
    # the loop oracle takes O(G^3) numpy scalar steps where no witness
    # exists, as on the thin schemes (e = p - 1): past 24 colors only the
    # unperturbed tensor is searched
    for tt in [t] + (perturbed if t.num_colors <= 24 else []):
        for ell in (2, 3, 4):
            assert small_intersection_outcome(tt, ell) == small_intersection_by_loops(tt, ell)


def test_perturbed_tensors_reach_identities():
    # the perturbations above reach identities 1, 2, 3 and 5; identity 4
    # holds whenever 1-3 do on these tensors
    reached = {None if bad is None else bad.identity
               for p, e in [(5, 2), (7, 1), (7, 3), (13, 6)]
               for bad in map(check_tensor_identities, perturbed_tensors(intersection_tensor(cyclotomic_scheme(p, e))))}
    assert reached >= {1, 2, 3, 5}
    bad = check_tensor_identities(perturbed_tensors(intersection_tensor(cyclotomic_scheme(7, 3)))[-1])
    assert bad.identity == 5 and all(type(v) is int for v in bad.witness)


def test_scheme_to_3scheme_cyclotomic():
    s = cyclotomic_scheme(7, 2)
    pi = scheme_to_3scheme(s)
    assert pi.num_colors(2) == 2
    rep = mscheme.check_properties(pi)
    assert rep.compatible[2] and rep.compatible[3]
    assert rep.regular[2] and rep.regular[3]
    assert rep.invariant[2] and rep.invariant[3]
    assert rep.homogeneous


def test_scheme_to_3scheme_5_2():
    pi = scheme_to_3scheme(cyclotomic_scheme(5, 2))
    rep = mscheme.check_properties(pi)
    assert rep.is_scheme


def test_scheme_to_3scheme_too_small():
    with pytest.raises(TooSmall):
        scheme_to_3scheme(complete_scheme(1))


def test_level2_to_scheme_z5_orbit():
    pi = mscheme.catalog_mscheme("Z5", 3)
    s = level2_to_scheme(pi)
    assert s.num_colors == 5
    t = intersection_tensor(s)
    assert all(t.valency(g) == 1 for g in range(1, 5))


def test_round_trip():
    for p, e in [(7, 2), (13, 4)]:
        s = cyclotomic_scheme(p, e)
        assert level2_to_scheme(scheme_to_3scheme(s)) == s


def test_level2_to_scheme_not_homogeneous():
    pi = mscheme.catalog_mscheme("Z5", 3)
    lv = {s: pi.levels[s].copy() for s in pi.levels}
    lv[1] = np.arange(5, dtype=np.int32)  # split level 1
    broken = mscheme.MCollection(5, lv)
    with pytest.raises(NotHomogeneous):
        level2_to_scheme(broken)


def deviation_report_by_loop(t):
    """Oracle for `cyclotomic_deviation_report`: one Fraction per (r, s, t)
    in a triple loop."""
    p = int(t.n_g.sum())
    e = t.num_colors - 1
    target = Fraction(p + 1, e * e)
    rows = []
    max_dev = Fraction(0)
    for r in range(1, e + 1):
        for s2 in range(1, e + 1):
            for t3 in range(1, e + 1):
                cnt = int(t.c[t3, r, s2])
                dev = abs(Fraction(cnt) - target)
                rows.append((r, s2, t3, cnt, dev))
                if dev > max_dev:
                    max_dev = dev
    excess = max_dev - e
    bound_ok = excess <= 0 or excess * excess <= p
    return DeviationReport(p, e, tuple(rows), max_dev, e, bound_ok)


@pytest.mark.parametrize("p,e", CYCLOTOMIC_TO_97 + [(251, 2), (229, 6)])
def test_deviation_report_matches_loop(p, e):
    t = intersection_tensor(cyclotomic_scheme(p, e))
    got, want = cyclotomic_deviation_report(t), deviation_report_by_loop(t)
    assert got == want
    # the report prints these: Python ints and Fractions, not numpy scalars
    assert {tuple(map(type, row)) for row in got.rows} == {(int, int, int, int, Fraction)}
    assert type(got.max_deviation) is Fraction


def test_deviation_13_4():
    rep = cyclotomic_deviation_report(intersection_tensor(cyclotomic_scheme(13, 4)))
    assert (rep.p, rep.e) == (13, 4)
    assert rep.bound_ok  # max deviation <= sqrt(13) + 4
    assert len(rep.rows) == 64


def test_deviation_5_2_row_count():
    rep = cyclotomic_deviation_report(intersection_tensor(cyclotomic_scheme(5, 2)))
    assert (rep.p, rep.e) == (5, 2)
    assert len(rep.rows) == 8


def test_deviation_7_1_complete():
    rep = cyclotomic_deviation_report(intersection_tensor(cyclotomic_scheme(7, 1)))
    assert (rep.p, rep.e) == (7, 1)
    assert len(rep.rows) == 1
    r, s2, t3, cnt, dev = rep.rows[0]
    assert cnt == 5  # complete-graph count n-2
    assert dev == 3
    assert rep.bound_ok


def test_deviation_one_color_too_small():
    with pytest.raises(TooSmall):
        cyclotomic_deviation_report(intersection_tensor(complete_scheme(1)))


def test_adjoint_is_transpose_class():
    for p, e in [(7, 2), (13, 4), (13, 6), (11, 2)]:
        s = cyclotomic_scheme(p, e)
        adj = s.adjoint
        for g in range(s.num_colors):
            mask = s.matrix == g
            assert (s.matrix.T[mask] == adj[g]).all()
        t = intersection_tensor(s)
        assert t.n_g.sum() == s.n
