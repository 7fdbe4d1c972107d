import ast
import itertools
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mschemes import assoc, cli, mscheme
from mschemes.mscheme import (
    MCollection,
    Matching,
    NotAntisymmetric,
    NotAProjection,
    PreconditionFailed,
    UnknownGroup,
    WorkCapExceeded,
    act_table,
    catalog_mscheme,
    check_properties,
    encode_tuples,
    find_matchings,
    load_catalog,
    matching_chase,
    multi_proj_table,
    nonexistence_check,
    prime_matching,
    subdegree,
    tuple_table,
    verify_matchings,
)


def encode_by_int64(a, n):
    """Mixed-radix codes the long way: an int64 copy of the tuples, one
    count of smaller earlier entries per digit, and explicit strides."""
    a = np.asarray(a, dtype=np.int64)
    s = a.shape[1]
    digits = a.copy()
    for i in range(1, s):
        smaller = np.zeros(a.shape[0], dtype=np.int64)
        for j in range(i):
            smaller += a[:, j] < a[:, i]
        digits[:, i] -= smaller
    code = np.zeros(a.shape[0], dtype=np.int64)
    stride = 1
    strides = [0] * s
    for i in range(s - 1, -1, -1):
        strides[i] = stride
        stride *= n - i
    for i in range(s):
        code += digits[:, i] * strides[i]
    return code


def verify_by_sorting(pi, m):
    """A matching by definition, one color at a time: drop_i's sorted image
    strictly increases (it is injective) and equals drop_j's sorted image."""
    if m.drop_i == m.drop_j or len(m.drop_i) != len(m.drop_j):
        return False
    tuples = tuple_table(pi.n, m.level)[pi.codes_of_color(m.level, m.color)]

    def image(dropped):
        kept = [j for j in range(m.level) if j + 1 not in dropped]
        return np.sort(encode_by_int64(tuples[:, kept], pi.n))

    img_i, img_j = image(m.drop_i), image(m.drop_j)
    return bool((img_i[1:] > img_i[:-1]).all()) and np.array_equal(img_i, img_j)


def recoloured(base, seed, split):
    """base with colors merged at random (some merged colors stay matchings,
    others project non-injectively) and, if split, some tuples moved to a
    twin color."""
    rng = np.random.default_rng(seed)
    levels = {}
    for s in base.levels:
        merge = rng.integers(0, max(1, base.num_colors(s) * 2 // 3), size=base.num_colors(s))
        twin = rng.random(len(base.levels[s])) < 0.1 if split else 0
        levels[s] = np.unique(2 * merge[base.levels[s]] + twin, return_inverse=True)[1]
    return MCollection(base.n, levels)


def group_minmax(groups, values, num_groups):
    """Least and largest value in each group, by two unbuffered scatters."""
    mn = np.full(num_groups, np.iinfo(np.int64).max, dtype=np.int64)
    mx = np.full(num_groups, -1, dtype=np.int64)
    np.minimum.at(mn, groups, values)
    np.maximum.at(mx, groups, values)
    return mn, mx


def properties_by_permutations(pi):
    """Oracle for `check_properties`: every coordinate permutation encoded
    afresh by `act_table`, in `itertools.permutations` order, and each
    color's image and constancy taken by `group_minmax` (as is P1's); P2
    groups each (color, base color) pair's fibres by a second `np.unique`."""
    n = pi.n
    report = mscheme.PropertyReport(
        homogeneous=pi.num_colors(1) == 1,
        compatible={}, regular={}, invariant={}, antisymmetric_at={}, symmetric_at={},
    )
    if not report.homogeneous:
        report.violations.append(mscheme.PropertyViolation("P4", 1, {"num_colors": pi.num_colors(1)}))
    for s in range(2, pi.m + 1):
        colors = pi.levels[s].astype(np.int64)
        t_s = pi.num_colors(s)
        below = pi.levels[s - 1].astype(np.int64)
        t_b = pi.num_colors(s - 1)
        ok = True
        for i in range(1, s + 1):
            pc = below[multi_proj_table(n, s, (i,))]
            mn, mx = group_minmax(colors, pc, t_s)
            bad = np.nonzero(mn != mx)[0]
            if bad.size:
                c = int(bad[0])
                idx = np.flatnonzero(pi.levels[s] == c)
                pcs = pc[idx]
                u = tuple(int(v) for v in tuple_table(n, s)[idx[0]])
                v = tuple(int(x) for x in tuple_table(n, s)[idx[int(np.nonzero(pcs != pcs[0])[0][0])]])
                report.violations.append(
                    mscheme.PropertyViolation("P1", s, {"i": i, "color": c, "tuple_u": u, "tuple_v": v}))
                ok = False
                break
        report.compatible[s] = ok
        ok = True
        for i in range(1, s + 1):
            width = math.perm(n, s - 1)
            uniq, counts = np.unique(colors * width + multi_proj_table(n, s, (i,)), return_counts=True)
            gkey = uniq // width * t_b + below[uniq % width]
            guniq, ginv = np.unique(gkey, return_inverse=True)
            mn, mx = group_minmax(ginv, counts, len(guniq))
            npairs = np.bincount(ginv, minlength=len(guniq))
            bad = np.nonzero((mn != mx) | (npairs != pi.sizes[s - 1][guniq % t_b]))[0]
            if bad.size:
                g = int(guniq[bad[0]])
                report.violations.append(mscheme.PropertyViolation(
                    "P2", s, {"i": i, "color": g // t_b, "base_color": g % t_b,
                              "min_fibre": int(mn[bad[0]]), "max_fibre": int(mx[bad[0]])}))
                ok = False
                break
        report.regular[s] = ok
        inv_ok = anti_ok = sym_ok = True
        own = np.arange(t_s)
        for tau in itertools.permutations(range(s)):
            mn, mx = group_minmax(colors, colors[act_table(n, s, tau)], t_s)
            const = mn == mx
            if not const.all() and inv_ok:
                report.violations.append(
                    mscheme.PropertyViolation("P3", s, {"tau": tau, "color": int(np.nonzero(~const)[0][0])}))
                inv_ok = False
            if tau != tuple(range(s)):
                fixed = np.nonzero(const & (mn == own))[0]
                if fixed.size and anti_ok:
                    report.violations.append(mscheme.PropertyViolation("P5", s, {"tau": tau, "color": int(fixed[0])}))
                    anti_ok = False
                if not (const.all() and (mn == own).all()) and sym_ok:
                    report.violations.append(mscheme.PropertyViolation("P6", s, {"tau": tau}))
                    sym_ok = False
        report.invariant[s] = inv_ok
        report.antisymmetric_at[s] = anti_ok
        report.symmetric_at[s] = sym_ok
    return report


def antisymmetric_by_permutations(pi, s):
    """Oracle for `_level_antisymmetric`: no non-identity tau maps a whole
    color onto itself, every tau encoded afresh."""
    colors = pi.levels[s].astype(np.int64)
    t_s = pi.num_colors(s)
    for tau in itertools.permutations(range(s)):
        if tau == tuple(range(s)):
            continue
        mn, mx = group_minmax(colors, colors[act_table(pi.n, s, tau)], t_s)
        if ((mn == mx) & (mn == np.arange(t_s))).any():
            return False
    return True


def assert_properties_match(pi):
    assert check_properties(pi) == properties_by_permutations(pi)
    for s in range(2, pi.m + 1):
        assert mscheme._level_antisymmetric(pi, s) == antisymmetric_by_permutations(pi, s)


def with_row(search, wrong):
    """`_level_matchings` with the row of `wrong` added to its level's columns."""
    def patched(pi, s):
        color, pair, table = search(pi, s)
        if s != wrong.level:
            return color, pair, table
        return np.append(color, wrong.color), np.append(pair, len(table)), table + [(wrong.drop_i, wrong.drop_j)]
    return patched


def test_encode_matches_lex_position():
    for n, s in [(4, 2), (5, 3), (6, 3), (7, 4)]:
        t = tuple_table(n, s)
        codes = encode_tuples(t, n)
        assert np.array_equal(codes, np.arange(math.perm(n, s)))


def test_orbit_z5():
    pi = catalog_mscheme("Z5", 3)
    rep = check_properties(pi)
    assert rep.homogeneous
    assert pi.num_colors(2) == 4
    assert all(pi.color_size(2, c) == 5 for c in range(4))
    assert rep.antisymmetric
    assert not rep.symmetric_at[2]


def test_catalog_unknown_group():
    # invalid input, so the CLI maps it to exit 3 like every ValueError
    with pytest.raises(UnknownGroup, match="Z99"):
        catalog_mscheme("Z99", 3)
    assert issubclass(UnknownGroup, ValueError)


def test_orbit_z6_not_antisymmetric():
    pi = catalog_mscheme("Z6", 2)
    rep = check_properties(pi)
    assert rep.homogeneous
    assert not rep.antisymmetric_at[2]  # the d=3 color is swap-fixed
    viol = [v for v in rep.violations if v.prop == "P5"]
    assert viol and viol[0].level == 2
    # witness replay: the flagged color really is fixed by the flagged tau
    v = viol[0]
    colors = pi.levels[2]
    img = colors[mscheme.act_table(6, 2, v.detail["tau"])]
    idx = np.nonzero(colors == v.detail["color"])[0]
    assert (img[idx] == v.detail["color"]).all()


def test_orbit_s3_symmetric():
    pi = catalog_mscheme("S3", 2)
    assert pi.num_colors(2) == 1
    assert pi.color_size(2, 0) == 6
    rep = check_properties(pi)
    assert rep.symmetric_at[2]


def test_orbit_properties_always_scheme():
    for name in sorted(load_catalog()):
        pi = catalog_mscheme(name, 3)
        rep = check_properties(pi)
        assert rep.is_scheme, name
        # homogeneous iff transitive on points
        degree, gens = load_catalog()[name]
        reach = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = g[x]
                if y not in reach:
                    reach.add(y)
                    frontier.append(y)
        assert rep.homogeneous == (len(reach) == degree), name


def test_orbit_colours_match_bfs_oracle():
    # breadth-first search over explicit tuples; tuples are met in
    # lexicographic (= code) order, so orbits are numbered by least tuple
    for name, (n, gens) in sorted(load_catalog().items()):
        m = min(3, n)
        pi = catalog_mscheme(name, m)
        for s in range(1, m + 1):
            tuples = list(itertools.permutations(range(n), s))
            colour = {}
            k = -1
            for start in tuples:
                if start in colour:
                    continue
                k += 1
                colour[start] = k
                queue = [start]
                while queue:
                    t = queue.pop(0)
                    for g in gens:
                        img = tuple(g[x] for x in t)
                        if img not in colour:
                            colour[img] = k
                            queue.append(img)
            assert pi.levels[s].tolist() == [colour[t] for t in tuples], (name, s)


def test_orbit_work_cap(monkeypatch):
    monkeypatch.setattr(mscheme, "WORK_CAP", 10**4)
    with pytest.raises(WorkCapExceeded):
        catalog_mscheme("Z13", 5)


def test_check_properties_hand_p2_violation():
    # level-2 colors {(0,1)} vs everything else: fibre sizes differ
    n = 3
    lvl1 = np.zeros(n, dtype=np.int32)
    lvl2 = np.ones(math.perm(n, 2), dtype=np.int32)
    lvl2[0] = 0  # tuple (0,1) has code 0
    lvl2[lvl2 == 1] -= 0
    # make ids dense: recode {0 -> 0, 1 -> 1}
    pi = MCollection(n, {1: lvl1, 2: lvl2})
    rep = check_properties(pi)
    assert not rep.regular[2]
    assert any(v.prop == "P2" for v in rep.violations)


@pytest.mark.parametrize("s", range(1, 7))
def test_permuted_colors_walks_every_permutation(s):
    # every tau exactly once, identity first, and each image read off least
    # codes as the per-tau encoding gives it; a walk that skips a swap fails
    pi = recoloured(catalog_mscheme("A4" if s <= 4 else "Z7", s), s, split=True)
    colors = pi.levels[s].astype(np.int64)
    t_s = pi.num_colors(s)
    seen = []
    for tau, head, const in mscheme._permuted_colors(pi, s):
        mn, mx = group_minmax(colors, colors[act_table(pi.n, s, tau)], t_s)
        assert np.array_equal(const, mn == mx), tau
        assert np.array_equal(head[const], mn[const]), tau
        seen.append(tau)
    assert seen[0] == tuple(range(s)) and sorted(seen) == list(itertools.permutations(range(s)))


@pytest.mark.parametrize("name", sorted(load_catalog()))
def test_check_properties_matches_permutation_oracle(name):
    # the orbit scheme, and a recoloured copy that is not invariant, so its
    # P3 and P6 witnesses name a tau other than the first one met
    pi = catalog_mscheme(name, 4)
    assert_properties_match(pi)
    assert_properties_match(recoloured(pi, sorted(load_catalog()).index(name), split=True))


def test_check_properties_matches_permutation_oracle_z11_m5():
    assert_properties_match(catalog_mscheme("Z11", 5))


@pytest.mark.parametrize("name", sorted(load_catalog()))
def test_check_properties_matches_permutation_oracle_at_m3_and_m5(name):
    for m in (3, 5):
        pi = catalog_mscheme(name, m)
        assert check_properties(pi) == properties_by_permutations(pi), m


def random_collection(seed):
    """Three levels on 4..7 points, each colored at random with dense ids,
    so P1 and P2 mostly fail, at a color chosen by the data."""
    rng = np.random.default_rng(seed)
    n = 4 + seed % 4
    levels = {}
    for s in (1, 2, 3):
        shades = rng.integers(0, rng.integers(1, 4 * s), size=math.perm(n, s))
        levels[s] = np.unique(shades, return_inverse=True)[1]
    return MCollection(n, levels)


def test_check_properties_matches_permutation_oracle_on_random_collections():
    regular = set()
    for seed in range(120):
        pi = random_collection(seed)
        report = check_properties(pi)
        assert report == properties_by_permutations(pi), seed
        regular |= {report.regular[2], report.regular[3]}
    assert regular == {True, False}


def test_check_properties_oracle_sees_non_invariant_witnesses():
    # the recoloured collections above do reach the P3 and P6 witnesses
    props = set()
    for name in sorted(load_catalog()):
        pi = recoloured(catalog_mscheme(name, 4), sorted(load_catalog()).index(name), split=True)
        props |= {v.prop for v in properties_by_permutations(pi).violations}
    assert {"P1", "P3", "P5", "P6"} <= props


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(["Z5", "D5", "Z6", "A4", "S3", "Z7"]), st.integers(2, 4),
       st.integers(0, 2**16), st.booleans())
def test_check_properties_matches_oracle_on_recoloured(name, m, seed, split):
    assert_properties_match(recoloured(catalog_mscheme(name, m), seed, split))


def test_check_properties_reads_each_coordinate_table_once(monkeypatch):
    # P1 is read off P2's groups, so where every property check passes,
    # each single-coordinate projection table is read once per (s, i)
    calls = []
    real = mscheme.multi_proj_table
    monkeypatch.setattr(mscheme, "multi_proj_table", lambda n, s, dropped: calls.append((s, dropped)) or real(n, s, dropped))
    report = check_properties(catalog_mscheme("Z7", 4))
    assert report.is_scheme and report.antisymmetric
    assert calls == [(s, (i,)) for s in range(2, 5) for i in range(1, s + 1)]


def test_one_import_direction_between_assoc_and_mscheme():
    # mscheme imports assoc at module top and assoc never names mscheme; no
    # module of the package imports inside a function body
    folder = os.path.dirname(mscheme.__file__)
    nested = []
    for name in sorted(n for n in os.listdir(folder) if n.endswith(".py")):
        path = os.path.join(folder, name)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        nested += [f"{name}:{node.lineno}" for fn in ast.walk(tree)
                   if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                   for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not nested, nested
    with open(assoc.__file__) as fh:
        assert "mscheme" not in fh.read()


def test_scheme_to_3scheme_properties():
    pi = mscheme.scheme_to_3scheme(assoc.cyclotomic_scheme(7, 2))
    rep = check_properties(pi)
    assert rep.compatible[2] and rep.compatible[3]
    assert rep.regular[2] and rep.regular[3]
    assert rep.invariant[2] and rep.invariant[3]


def test_subdegree_z5():
    pi = catalog_mscheme("Z5", 3)
    c3 = pi.color_of_tuple((0, 1, 2))
    c2 = pi.color_of_tuple((0, 1))
    assert subdegree(pi, 3, c3, 2, c2) == 1


def test_subdegree_complete_4():
    pi = mscheme.scheme_to_3scheme(assoc.complete_scheme(4))
    assert pi.num_colors(3) == 1 and pi.num_colors(2) == 1
    assert subdegree(pi, 3, 0, 2, 0) == 2  # 24 triples over 12 pairs


def test_subdegree_not_a_projection():
    pi = catalog_mscheme("Z5", 3)
    c3 = pi.color_of_tuple((0, 1, 2))
    # projections of the (0,1,2)-orbit are the d=1 and d=2 classes only
    other = pi.color_of_tuple((0, 3))
    assert other not in (pi.color_of_tuple((0, 1)), pi.color_of_tuple((0, 2)))
    with pytest.raises(NotAProjection):
        subdegree(pi, 3, c3, 2, other)


def test_codes_of_color_matches_level_scan():
    pi = catalog_mscheme("D5", 4)
    for s in pi.levels:
        for c in range(pi.num_colors(s)):
            assert np.array_equal(pi.codes_of_color(s, c), np.flatnonzero(pi.levels[s] == c))
        for c in (-1, pi.num_colors(s)):
            with pytest.raises(IndexError):
                pi.codes_of_color(s, c)


@pytest.mark.parametrize(
    "call",
    [
        lambda pi: pi.codes_of_color(0, 0),
        lambda pi: pi.codes_of_color(4, 0),
        lambda pi: subdegree(pi, 4, 0, 1, 0),
        lambda pi: Matching(9, 0, (1,), (2,)).verify(pi),
    ],
    ids=["level-0", "level-4", "subdegree", "matching-verify"],
)
def test_codes_of_color_refuses_missing_level(call):
    pi = catalog_mscheme("Z5", 3)
    with pytest.raises(IndexError, match="no level"):
        call(pi)


def test_matching_verify_refuses_color_outside_level():
    pi = catalog_mscheme("Z5", 3)
    for c in (-1, pi.num_colors(3)):
        with pytest.raises(IndexError, match="has no color"):
            Matching(3, c, (1,), (2,)).verify(pi)
    assert not Matching(3, 0, (1,), (1,)).verify(pi)
    assert not Matching(3, 0, (1,), (1, 2)).verify(pi)


def test_find_matchings_z5():
    pi = catalog_mscheme("Z5", 3)
    ms = find_matchings(pi)
    assert ms
    c = pi.color_of_tuple((0, 1, 2))
    target = Matching(3, c, (1,), (3,))
    assert target in ms
    # the d=1 color appears as both projections with size 5 = 5
    assert target.verify(pi)


def test_find_matchings_z7_nonempty():
    assert find_matchings(catalog_mscheme("Z7", 3))


def test_find_matchings_s3_empty():
    assert find_matchings(catalog_mscheme("S3", 2)) == []


def test_all_returned_matchings_verify():
    for name in ["Z5", "Z7", "Z11", "D5", "F21"]:
        pi = catalog_mscheme(name, 3)
        for m in find_matchings(pi):
            assert m.verify(pi)


def matchings_by_sorting(pi):
    """The sorting verifier on every (level, color, k, drop_i, drop_j), in
    scan order."""
    return [
        Matching(s, c, di, dj)
        for s in range(2, pi.m + 1)
        for c in range(pi.num_colors(s))
        for k in range(1, s)
        for di, dj in itertools.combinations(itertools.combinations(range(1, s + 1), k), 2)
        if verify_by_sorting(pi, Matching(s, c, di, dj))
    ]


def test_find_matchings_keys_past_int32():
    # level 3 on 100 points coloured by ({a, b}, c) for (a, b, c): 485100
    # colours, so the k = 1 keys, colour * 9900 + projection, pass 2^31 and
    # take the int64 sort, while the k = 2 keys fit int32.  Each colour
    # {(a, b, c), (b, a, c)} is matched by the drops (1,), (2,) and by the
    # drops (1, 3), (2, 3), and by no other pair
    n = 100
    tup = tuple_table(n, 3).astype(np.int64)
    key = (np.minimum(tup[:, 0], tup[:, 1]) * n + np.maximum(tup[:, 0], tup[:, 1])) * n + tup[:, 2]
    colors = np.unique(key, return_inverse=True)[1]
    pi = MCollection(n, {1: np.zeros(n), 2: np.zeros(math.perm(n, 2)), 3: colors})
    t = pi.num_colors(3)
    assert t * math.perm(n, 2) >= 2**31 > t * math.perm(n, 1)
    got = find_matchings(pi)
    assert len(got) == 2 * t
    assert (got.level == 3).all() and np.array_equal(got.color, np.repeat(np.arange(t), 2))
    assert [got.table[j] for j in got.pair[:2]] == [((1,), (2,)), ((1, 3), (2, 3))]
    assert (got.pair.reshape(t, 2) == got.pair[:2]).all()


@pytest.mark.parametrize("name", ["Z5", "D5", "Z6", "Z7", "A4", "F21"])
def test_find_matchings_matches_definition(name):
    pi = recoloured(catalog_mscheme(name, 4), sorted(load_catalog()).index(name), split=False)
    expected = matchings_by_sorting(pi)
    assert expected
    assert find_matchings(pi) == expected


@pytest.mark.parametrize("name, seed, split",
                         [("Z5", None, False), ("D5", 3, True), ("Z7", 5, False), ("F21", 7, True), ("S3", None, False)])
def test_find_matchings_sequence_acts_as_its_list(name, seed, split):
    # the columnar result against the list of the sorting oracle: every way
    # a caller reads a sequence gives the list's answer
    pi = catalog_mscheme(name, 3 if name == "S3" else 4)
    if seed is not None:
        pi = recoloured(pi, seed, split)
    got, want = find_matchings(pi), matchings_by_sorting(pi)
    assert isinstance(got, mscheme.Matchings)
    assert len(got) == len(want) and bool(got) == bool(want)
    assert list(got) == want and got == want and want == got
    assert got[:20] == want[:20] and isinstance(got[:20], list)
    assert got[::-7] == want[::-7] and got[5:2:-1] == want[5:2:-1]
    for i in range(-len(want), len(want), max(1, len(want) // 9)):
        assert got[i] == want[i]
    for i in (len(want), -len(want) - 1):
        with pytest.raises(IndexError):
            got[i]
    outside = [Matching(s, c, di, dj) for s in range(2, pi.m + 1) for c in (0, pi.num_colors(s) - 1)
               for di, dj in [((1,), (2,)), ((1,), (s,)), ((2,), (1,))]]
    for m in want[::3] + outside + [None, (2, 0, (1,), (2,))]:
        assert (m in got) == (m in want)
    if want:
        assert got != want[:-1] and got != want[1:] + want[:1] and got != want[:-1] + [want[0]]
    assert got != tuple(want) and mscheme.Matchings.of(want) == got


def test_orbit_scan_builds_only_the_matchings_it_prints(monkeypatch, capsys):
    # Z11 at m = 5 has 70430 matchings; the scan prints 20 and the count
    built = []
    init = Matching.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(Matching, "__init__", counted)
    assert cli.main(["orbit-scan", "--catalog", "Z11", "--m", "5"]) == 0
    (entry,) = json.loads(capsys.readouterr().out)["entries"]
    assert entry["matching_count"] == 70430 and len(entry["matchings"]) == 20
    assert len(built) <= 20


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(["Z5", "D5", "Z7"]), st.integers(3, 4),
       st.one_of(st.none(), st.tuples(st.integers(0, 2**16), st.booleans())))
def test_verify_matchings_matches_sorting(name, m, perturb):
    # every candidate, in one batch: equal drop sets and drop sets of
    # different sizes included, so both outcomes occur
    pi = catalog_mscheme(name, m) if perturb is None else recoloured(catalog_mscheme(name, m), *perturb)
    cands = [
        Matching(s, c, di, dj)
        for s in range(2, pi.m + 1)
        for c in range(pi.num_colors(s))
        for di, dj in itertools.combinations_with_replacement(
            [d for k in range(1, s) for d in itertools.combinations(range(1, s + 1), k)], 2)
    ]
    got = verify_matchings(pi, cands)
    assert got.dtype == bool
    assert got.tolist() == [verify_by_sorting(pi, c) for c in cands]


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_encode_tables_match_int64_oracle(data):
    n = data.draw(st.integers(1, 9))
    s = data.draw(st.integers(1, min(n, 5)))
    tau = data.draw(st.permutations(range(s)))
    dropped = tuple(sorted(data.draw(st.sets(st.integers(1, s)))))
    kept = [j for j in range(s) if j + 1 not in dropped]
    t = tuple_table(n, s).astype(data.draw(st.sampled_from([np.int8, np.int64])))
    for cols in (tau, kept, [tau[j] for j in kept]):
        got = encode_tuples(t[:, cols], n)
        assert got.dtype == np.int64 and np.array_equal(got, encode_by_int64(t[:, cols], n))
    assert np.array_equal(act_table(n, s, tuple(tau)), encode_by_int64(t[:, tau], n))
    assert np.array_equal(multi_proj_table(n, s, dropped), encode_by_int64(t[:, kept], n))


@pytest.mark.parametrize(
    "bound, dtype",
    [(0, np.int8), (127, np.int8), (128, np.int16), (32767, np.int16), (32768, np.int32),
     (2**31 - 1, np.int32), (2**31, np.int64), (2**63 - 1, np.int64)],
)
def test_index_dtype_boundaries(bound, dtype):
    assert mscheme.index_dtype(bound) == dtype
    assert np.iinfo(mscheme.index_dtype(bound)).max >= bound


@pytest.mark.parametrize("n", [127, 128, 129])
def test_tables_at_the_int8_boundary(n):
    # entries below n: int8 holds 0..127, so 129 points need int16;
    # dropping one of two coordinates leaves codes below n as well
    t = tuple_table(n, 2)
    assert t.dtype == (np.int8 if n <= 128 else np.int16)
    assert t.tolist() == [list(p) for p in itertools.permutations(range(n), 2)]
    for dropped in ((1,), (2,)):
        proj = multi_proj_table(n, 2, dropped)
        assert proj.dtype == t.dtype
        assert np.array_equal(proj, encode_by_int64(t[:, [2 - dropped[0]]], n))
    swap = act_table(n, 2, (1, 0))
    assert swap.dtype == np.int16 and np.array_equal(swap, encode_by_int64(t[:, [1, 0]], n))


def test_codes_at_the_int16_boundary():
    # perm(n, 2) - 1 is the largest code: 32579 at n = 181 fits int16, 32941
    # at n = 182 does not, and at either size encoding never overflows
    for n, dtype in ((181, np.int16), (182, np.int32)):
        t = tuple_table(n, 2)
        assert act_table(n, 2, (0, 1)).dtype == dtype
        assert np.array_equal(act_table(n, 2, (0, 1)), np.arange(math.perm(n, 2)))
        assert np.array_equal(act_table(n, 2, (1, 0)), encode_by_int64(t[:, [1, 0]], n))


def traced_peak(call):
    """call()'s result and the tracemalloc peak while it ran."""
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_verify_matchings_memory():
    # Z11 at m = 5 has 70430 matchings; with the tables built, the recheck
    # holds only the keys of the drop sets between a drop set's first and
    # last group, in the width their bound needs: about 5 MB (int64 keys of
    # all 30 level-5 drop sets at once peaked at 16.9 MB)
    pi = catalog_mscheme("Z11", 5)
    found = find_matchings(pi)
    ok, peak = traced_peak(lambda: verify_matchings(pi, found))
    assert ok.all()
    assert peak < 8 * 2**20


def test_find_matchings_memory_with_cold_tables():
    # building every projection table as well: about 11 MB with tables in
    # int16 (perm(11, 4) = 7920 codes), 34.2 MB with int64 tables and keys
    pi = catalog_mscheme("Z11", 5)
    multi_proj_table.cache_clear()
    found, peak = traced_peak(lambda: find_matchings(pi))
    assert len(found) == 70430
    assert peak < 16 * 2**20


@pytest.mark.parametrize(
    "name, bad",
    [
        ("D5", lambda pi: Matching(3, 0, (1, 2), (1, 3))),  # 10 triples onto 5 points
        ("Z5", lambda pi: Matching(3, pi.color_of_tuple((0, 1, 2)), (2,), (3,))),  # d=2 vs d=1 pairs
        ("Z5", lambda pi: Matching(3, pi.num_colors(3), (1,), (2,))),
        ("Z5", lambda pi: Matching(3, -1, (1,), (2,))),
    ],
    ids=["not-injective", "images-differ", "color-out-of-range", "color-minus-one"],
)
def test_find_matchings_recheck_bites(monkeypatch, name, bad):
    # a search that returns one wrong matching must not get past the recheck,
    # also under python -O
    pi = catalog_mscheme(name, 3)
    monkeypatch.setattr(mscheme, "_level_matchings", with_row(mscheme._level_matchings, bad(pi)))
    with pytest.raises(AssertionError, match="matching search returned"):
        find_matchings(pi)


def test_matching_chase_trigger_case():
    pi = catalog_mscheme("Z7", 3)
    c = pi.color_of_tuple((0, 1))
    m = matching_chase(pi, 2, c, 1, 2)
    assert m.level == 2 and m.verify(pi)


def test_matching_chase_not_antisymmetric():
    pi = mscheme.scheme_to_3scheme(assoc.complete_scheme(5))
    with pytest.raises(NotAntisymmetric):
        matching_chase(pi, 2, 0, 1, 2)


@pytest.mark.parametrize("i", [-1, 0, 4, 7])
def test_matching_chase_refuses_coordinate(i):
    # a coordinate outside the level is caller input (exit 3), not an unmet
    # precondition
    pi = catalog_mscheme("Z7", 3)
    with pytest.raises(ValueError, match="outside 1..3"):
        matching_chase(pi, 3, 0, i, 4)


def test_matching_chase_thin_z13():
    pi = catalog_mscheme("Z13", 5)
    c = pi.color_of_tuple((0, 1))
    m = matching_chase(pi, 2, c, 1, 2)
    assert m.level <= 3 and m.verify(pi)


def test_prime_matching_thin_z13():
    pi = catalog_mscheme("Z13", 5)
    m = prime_matching(pi, 2)
    assert m.verify(pi)


def test_prime_matching_refuses_ell_below_2():
    # as small_intersection_search does for the same ell
    with pytest.raises(assoc.BadEll):
        prime_matching(catalog_mscheme("Z5", 5), 1)


def test_prime_matching_checks_properties_once(monkeypatch):
    # demo 03's input: the level-2 scheme is built without a second check
    calls = []
    real = mscheme.check_properties
    monkeypatch.setattr(mscheme, "check_properties", lambda pi: calls.append(pi.m) or real(pi))
    pi = catalog_mscheme("Z13", 5)
    assert prime_matching(pi, 2).verify(pi)
    assert calls == [5]


def test_prime_matching_z6_not_prime():
    pi = catalog_mscheme("Z6", 2)
    with pytest.raises(PreconditionFailed, match="not prime"):
        prime_matching(pi, 2)


def test_prime_matching_z5_m_too_small():
    pi = catalog_mscheme("Z5", 3)
    with pytest.raises(PreconditionFailed, match="m="):
        prime_matching(pi, 2)  # needs m >= 2log2(2)+3 = 5


def test_nonexistence_z5_ok():
    assert nonexistence_check(catalog_mscheme("Z5", 2)) is None  # 2 does not divide 5


def test_nonexistence_z6_ok_because_p5_fails():
    assert nonexistence_check(catalog_mscheme("Z6", 2)) is None


def test_nonexistence_fabricated_witness():
    # a forged report on n=4, m=2 must trigger the divisibility witness
    pi = catalog_mscheme("Z4", 2)
    forged = check_properties(pi)
    forged.antisymmetric_at = {2: True}
    forged.homogeneous = True
    w = nonexistence_check(pi, report=forged)
    assert w is not None and w.r == 2


def test_nonexistence_property_over_catalog():
    # no orbit m-scheme with prime r | n, r <= m is homogeneous + antisymmetric
    for name in sorted(load_catalog()):
        degree, _ = load_catalog()[name]
        for m in (2, 3, 4):
            if m > degree:
                continue
            pi = catalog_mscheme(name, m)
            assert nonexistence_check(pi) is None, (name, m)


def test_matching_corollary_log2n():
    # homogeneous + level-2 antisymmetric orbit schemes with m >= log2(n)
    for name in ["Z5", "Z7", "Z11", "Z13"]:
        degree, _ = load_catalog()[name]
        m = math.ceil(math.log2(degree))
        pi = catalog_mscheme(name, m)
        rep = check_properties(pi)
        assert rep.homogeneous and rep.antisymmetric_at[2]
        assert find_matchings(pi)


def test_orbit_matching_theorem_m4():
    # every homogeneous antisymmetric orbit 4-scheme in the catalog has a matching
    for name in sorted(load_catalog()):
        degree, _ = load_catalog()[name]
        pi = catalog_mscheme(name, min(4, degree))
        rep = check_properties(pi)
        if rep.homogeneous and rep.antisymmetric:
            assert find_matchings(pi), name


def test_subdegree_multiplicativity():
    pi = catalog_mscheme("F21", 4)
    for c4 in range(pi.num_colors(4)):
        t4 = tuple(int(v) for v in tuple_table(pi.n, 4)[pi.codes_of_color(4, c4)][0])
        c3 = pi.color_of_tuple(t4[:3])
        c2 = pi.color_of_tuple(t4[:2])
        s_pv = subdegree(pi, 4, c4, 2, c2)
        s_pq = subdegree(pi, 4, c4, 3, c3)
        s_qv = subdegree(pi, 3, c3, 2, c2)
        assert s_pv == s_pq * s_qv
