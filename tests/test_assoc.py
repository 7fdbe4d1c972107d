import numpy as np
import pytest

from mschemes import assoc, mscheme
from mschemes.assoc import (
    BadEll,
    EDoesNotDivide,
    NotHomogeneous,
    Scheme,
    TooSmall,
    check_tensor_identities,
    complete_scheme,
    cyclotomic_deviation_report,
    cyclotomic_scheme,
    intersection_tensor,
    level2_to_scheme,
    scheme_from_json,
    scheme_to_3scheme,
    scheme_to_json,
    small_intersection_search,
    verify_identities,
    verify_scheme,
)
from mschemes.gf import NotPrime


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


def test_verify_scheme_path_violation():
    m = np.array([[0, 1, 2], [1, 0, 1], [2, 1, 0]])
    v = verify_scheme(Scheme(m))
    assert v is not None and v.axiom == 3


def test_verify_scheme_one_point():
    assert verify_scheme(complete_scheme(1)) is None


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


def test_adjoint_is_transpose_class():
    for p, e in [(7, 2), (13, 4), (13, 6), (11, 2)]:
        s = cyclotomic_scheme(p, e)
        adj = s.adjoint
        for g in range(s.num_colors):
            mask = s.matrix == g
            assert (s.matrix.T[mask] == adj[g]).all()
        t = intersection_tensor(s)
        assert t.n_g.sum() == s.n


def test_scheme_json_roundtrip():
    s = cyclotomic_scheme(7, 2)
    assert scheme_from_json(scheme_to_json(s)) == s
