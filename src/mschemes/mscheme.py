"""m-collections and m-schemes on explicit point sets.

Levels are partitions of the essential tuple sets V^(s).  Tuples are
addressed by their Lehmer-style mixed-radix code, which coincides with the
position in lexicographic enumeration; level s is stored as a dense int32
array of color ids in code order.  Color ids are assigned by least tuple,
and every search below scans in ascending (level, color, index) order.
"""

from __future__ import annotations

import itertools
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

import numpy as np

from .gf import PreconditionFailed, is_prime

WORK_CAP = 10**7


class WorkCapExceeded(PreconditionFailed):
    pass


class NotAProjection(ValueError):
    pass


class NonIntegral(ValueError):
    """|P| / |Q| is not integral: a regularity violation."""


class NotAntisymmetric(ValueError):
    pass


class DepthExhausted(PreconditionFailed):
    """The chase ran out of levels; contradicts the halving argument."""


class UnknownGroup(ValueError):
    """No group of that name in the built-in catalog."""


class NoSuchColor(ValueError, IndexError):
    """A level or a color index outside the collection; still an
    IndexError, which `find_matchings` turns into an internal failure."""


# ---------------------------------------------------------------------------
# tuple codes

@lru_cache(maxsize=None)
def tuple_table(n: int, s: int) -> np.ndarray:
    """All essential s-tuples over [0, n) in code (= lexicographic) order."""
    arr = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n), s)),
        dtype=np.int8,
        count=math.perm(n, s) * s,
    )
    arr = arr.reshape(-1, s)
    arr.setflags(write=False)
    return arr


def encode_tuples(a: np.ndarray, n: int) -> np.ndarray:
    """Mixed-radix codes of essential tuples (rows of a).

    Digit i is a[:, i] less the earlier entries below it; the comparisons
    run in the input dtype and only the code itself is int64.
    """
    a = np.asarray(a)
    code = np.zeros(a.shape[0], dtype=np.int64)
    for i in range(a.shape[1]):
        col = a[:, i]
        code *= n - i
        code += col
        for j in range(i):
            code -= a[:, j] < col
    return code


@lru_cache(maxsize=None)
def multi_proj_table(n: int, s: int, dropped: tuple) -> np.ndarray:
    """code -> code with all 1-based coordinates in `dropped` removed."""
    t = tuple_table(n, s)
    cols = [j for j in range(s) if (j + 1) not in dropped]
    out = encode_tuples(t[:, cols], n)
    out.setflags(write=False)
    return out


def act_table(n: int, s: int, tau: tuple) -> np.ndarray:
    """code -> code of the coordinate-permuted tuple (v^tau)_j = v_{tau(j)}."""
    t = tuple_table(n, s)
    return encode_tuples(t[:, list(tau)], n)


# ---------------------------------------------------------------------------
# collections

class MCollection:
    """Partitions of V^(1)..V^(m); levels[s] maps tuple code -> color id."""

    def __init__(self, n: int, levels: dict):
        self.n = n
        self.m = max(levels)
        self.levels = {}
        self.sizes = {}
        self._runs = {}  # level -> (codes stably sorted by color, offset of each color)
        for s in range(1, self.m + 1):
            if s not in levels:
                raise ValueError(f"missing level {s}")
            lv = np.asarray(levels[s], dtype=np.int32)
            if lv.shape != (math.perm(n, s),):
                raise ValueError(f"level {s} has wrong length")
            t = lv.max() + 1 if lv.size else 0
            if lv.size and sorted(np.unique(lv)) != list(range(t)):
                raise ValueError(f"level {s} color ids not dense")
            lv = lv.copy()
            lv.setflags(write=False)
            self.levels[s] = lv
            self.sizes[s] = np.bincount(lv, minlength=t)
            order = np.argsort(lv, kind="stable")
            order.setflags(write=False)
            self._runs[s] = order, np.concatenate(([0], np.cumsum(self.sizes[s])))

    def num_colors(self, s: int) -> int:
        return len(self.sizes[s])

    def color_size(self, s: int, c: int) -> int:
        return int(self.sizes[s][c])

    def codes_of_color(self, s: int, c: int) -> np.ndarray:
        """Tuple codes of color c at level s, ascending."""
        if s not in self._runs:
            raise NoSuchColor(f"no level {s}: levels are 1..{self.m}")
        if not 0 <= c < self.num_colors(s):
            raise NoSuchColor(f"level {s} has no color {c}")
        order, bounds = self._runs[s]
        return order[bounds[c]:bounds[c + 1]]

    def color_of_tuple(self, tup) -> int:
        s = len(tup)
        code = int(encode_tuples(np.array([tup]), self.n)[0])
        return int(self.levels[s][code])

    def tuples_of_color(self, s: int, c: int) -> np.ndarray:
        return tuple_table(self.n, s)[self.codes_of_color(s, c)]

    def __eq__(self, other):
        return (
            isinstance(other, MCollection)
            and self.n == other.n
            and self.m == other.m
            and all(np.array_equal(self.levels[s], other.levels[s]) for s in self.levels)
        )

    def __repr__(self):
        counts = [self.num_colors(s) for s in range(1, self.m + 1)]
        return f"MCollection(n={self.n}, m={self.m}, colors={counts})"


def collection_to_json(pi: MCollection) -> str:
    payload = {
        "n": pi.n,
        "m": pi.m,
        "levels": {str(s): [int(v) for v in pi.levels[s]] for s in pi.levels},
    }
    return json.dumps(payload, sort_keys=True)


def collection_from_json(text: str) -> MCollection:
    data = json.loads(text)
    return MCollection(data["n"], {int(s): np.array(v, dtype=np.int32) for s, v in data["levels"].items()})


# ---------------------------------------------------------------------------
# property checkers

@dataclass(frozen=True)
class PropertyViolation:
    prop: str  # "P1".."P6"
    level: int
    detail: dict


@dataclass
class PropertyReport:
    homogeneous: bool
    compatible: dict
    regular: dict
    invariant: dict
    antisymmetric_at: dict
    symmetric_at: dict
    violations: list = field(default_factory=list)

    @property
    def is_scheme(self) -> bool:
        return all(self.compatible.values()) and all(self.regular.values()) and all(self.invariant.values())

    @property
    def antisymmetric(self) -> bool:
        return all(self.antisymmetric_at.values())

    @property
    def symmetric(self) -> bool:
        return all(self.symmetric_at.values())


def _least_codes(pi: MCollection, s: int) -> np.ndarray:
    """The least tuple code of each color of level s."""
    order, bounds = pi._runs[s]
    return order[bounds[:-1]]


def _least_code_values(values, colors, first):
    """(head, const): head[c] = values at color c's least code first[c], and
    const marks the colors on which values equals head everywhere."""
    head = values[first]
    return head, np.bincount(colors[values != head[colors]], minlength=len(first)) == 0


def _adjacent_swaps(s: int):
    """Steinhaus-Johnson-Trotter: yield s! - 1 positions k such that
    swapping entries k and k + 1, one step after another, walks a tuple
    from the identity through every order of range(s)."""
    perm, step = list(range(s)), [-1] * s
    while True:
        mobile = [i for i, v in enumerate(perm) if 0 <= i + step[v] < s and perm[i + step[v]] < v]
        if not mobile:
            return
        i = max(mobile, key=perm.__getitem__)
        v = perm[i]
        j = i + step[v]
        perm[i], perm[j] = perm[j], v
        for u in range(v + 1, s):
            step[u] = -step[u]
        yield min(i, j)


def _permuted_colors(pi: MCollection, s: int):
    """Yield (tau, head, const) for every coordinate permutation tau of
    level s, the identity first: the image colors[act_table(tau)] read off
    least codes by `_least_code_values`.

    tau is the inverse of the tuple `_adjacent_swaps` walks, so where the
    tuple swaps the entries at k and k + 1, tau exchanges the values k and
    k + 1: tau' = s_k o tau.  As act_table(tau') =
    act_table(tau)[act_table(s_k)], each image is one gather of the last
    through one of the s - 1 adjacent-swap tables.
    """
    colors = pi.levels[s]
    first = _least_codes(pi, s)
    swaps = [act_table(pi.n, s, tuple(range(k)) + (k + 1, k) + tuple(range(k + 2, s))) for k in range(s - 1)]
    tau, img = list(range(s)), colors
    yield (tuple(tau), *_least_code_values(img, colors, first))
    for k in _adjacent_swaps(s):
        a, b = tau.index(k), tau.index(k + 1)
        tau[a], tau[b] = k + 1, k
        img = img[swaps[k]]
        yield (tuple(tau), *_least_code_values(img, colors, first))


def check_properties(pi: MCollection) -> PropertyReport:
    """Evaluate P1-P6 by direct definition; witnesses are replayable.

    P3, P5 and P6 are witnessed by the first coordinate permutation in
    `itertools.permutations` order that violates them."""
    n = pi.n
    report = PropertyReport(
        homogeneous=pi.num_colors(1) == 1,
        compatible={}, regular={}, invariant={}, antisymmetric_at={}, symmetric_at={},
    )
    if not report.homogeneous:
        report.violations.append(PropertyViolation("P4", 1, {"num_colors": pi.num_colors(1)}))
    for s in range(2, pi.m + 1):
        colors = pi.levels[s].astype(np.int64)
        t_s = pi.num_colors(s)
        below = pi.levels[s - 1].astype(np.int64)
        t_b = pi.num_colors(s - 1)
        first = _least_codes(pi, s)
        # P1
        ok = True
        for i in range(1, s + 1):
            pc = below[multi_proj_table(n, s, (i,))]
            bad = np.flatnonzero(~_least_code_values(pc, colors, first)[1])
            if bad.size:
                c = int(bad[0])
                idx = pi.codes_of_color(s, c)
                pcs = pc[idx]
                u = tuple(int(v) for v in tuple_table(n, s)[idx[0]])
                other = idx[int(np.nonzero(pcs != pcs[0])[0][0])]
                v = tuple(int(x) for x in tuple_table(n, s)[other])
                report.violations.append(
                    PropertyViolation("P1", s, {"i": i, "color": c, "tuple_u": u, "tuple_v": v})
                )
                ok = False
                break
        report.compatible[s] = ok
        # P2: the fibre of each (color, projected tuple) pair, sorted by
        # (color * t_b + base color, fibre), so each group is one run whose
        # ends are its least and largest fibre and whose length counts the
        # base tuples it reaches
        ok = True
        width = math.perm(n, s - 1)
        for i in range(1, s + 1):
            uniq, counts = np.unique(colors * width + multi_proj_table(n, s, (i,)), return_counts=True)
            gkey = uniq // width * t_b + below[uniq % width]
            order = np.lexsort((counts, gkey))
            gkey, counts = gkey[order], counts[order]
            starts = np.flatnonzero(np.diff(gkey, prepend=-1))
            ends = np.flatnonzero(np.diff(gkey, append=-1))
            g = gkey[starts]
            bad = np.flatnonzero((counts[starts] != counts[ends]) | (ends - starts + 1 != pi.sizes[s - 1][g % t_b]))
            if bad.size:
                k = bad[0]
                report.violations.append(
                    PropertyViolation(
                        "P2", s,
                        {"i": i, "color": int(g[k] // t_b), "base_color": int(g[k] % t_b),
                         "min_fibre": int(counts[starts[k]]), "max_fibre": int(counts[ends[k]])},
                    )
                )
                ok = False
                break
        report.regular[s] = ok
        # P3 / P5 / P6 via the full coordinate-permutation action: each is
        # witnessed by its least violating tau, and the witnesses are listed
        # in the order a lexicographic walk would meet them
        ident, own = tuple(range(s)), np.arange(t_s)
        hits = []
        for tau, head, const in _permuted_colors(pi, s):
            if not const.all():
                hits.append((tau, "P3", {"color": int(np.argmin(const))}))
            if tau != ident:
                fixed = const & (head == own)
                if fixed.any():
                    hits.append((tau, "P5", {"color": int(np.argmax(fixed))}))
                if not fixed.all():
                    hits.append((tau, "P6", {}))
        found = {}
        for tau, prop, detail in sorted(hits, key=lambda hit: hit[:2]):
            found.setdefault(prop, (tau, detail))
        for prop, (tau, detail) in found.items():
            report.violations.append(PropertyViolation(prop, s, {"tau": tau, **detail}))
        report.invariant[s] = "P3" not in found
        report.antisymmetric_at[s] = "P5" not in found
        report.symmetric_at[s] = "P6" not in found
    return report


# ---------------------------------------------------------------------------
# orbit m-schemes

def orbit_mscheme(generators, m: int, work_cap: int = WORK_CAP) -> MCollection:
    """Colors = orbits of the generated group on V^(s), numbered by least tuple."""
    gens = [np.asarray(g, dtype=np.int64) for g in generators]
    if not gens:
        raise ValueError("need at least one generator")
    n = len(gens[0])
    for g in gens:
        if sorted(g.tolist()) != list(range(n)):
            raise ValueError("generators must be permutations of range(n)")
    if not 1 <= m <= n:
        raise ValueError("need 1 <= m <= n")
    levels = {}
    for s in range(1, m + 1):
        count = math.perm(n, s)
        if count > work_cap:
            raise WorkCapExceeded(f"level {s} has {count} tuples > work cap {work_cap}")
        t = tuple_table(n, s)
        imgs = [encode_tuples(g[t], n) for g in gens]
        # min-label propagation along each generator, with pointer jumping:
        # label[c] is always a code in the orbit of c, and at the fixpoint the
        # least one (generators are permutations, so img has no repeats)
        label = np.arange(count, dtype=np.int64)
        while True:
            prev = label.copy()
            for img in imgs:
                label[img] = np.minimum(label[img], label)
            label = label[label]
            if np.array_equal(label, prev):
                break
        # codes are in lexicographic order, so this numbers orbits by least tuple
        levels[s] = np.unique(label, return_inverse=True)[1].astype(np.int32)
    return MCollection(n, levels)


# ---------------------------------------------------------------------------
# matchings

@dataclass(frozen=True)
class Matching:
    level: int
    color: int
    drop_i: tuple  # 1-based dropped coordinate indices, strictly increasing
    drop_j: tuple

    def verify(self, pi: MCollection) -> bool:
        """Recheck the two defining equalities from raw partitions."""
        return bool(verify_matchings(pi, [self])[0])


class Matchings(Sequence):
    """Read-only matchings held as columns: row i is the matching at
    level[i] and color[i] with (drop_i, drop_j) = table[pair[i]].  A
    `Matching` is built only for a row that is read; a slice is a list, and
    `==` against a list compares row by row."""

    def __init__(self, level, color, pair, table):
        self.level = np.asarray(level, dtype=np.int64)
        self.color = np.asarray(color, dtype=np.int64)
        self.pair = np.asarray(pair, dtype=np.int64)
        self.table = list(table)

    @classmethod
    def of(cls, matchings) -> Matchings:
        """The columns of a sequence of matchings (itself if it has them)."""
        if isinstance(matchings, Matchings):
            return matchings
        index = {}
        pair = [index.setdefault((m.drop_i, m.drop_j), len(index)) for m in matchings]
        return cls([m.level for m in matchings], [m.color for m in matchings], pair, index)

    def _row(self, i: int) -> Matching:
        return Matching(int(self.level[i]), int(self.color[i]), *self.table[self.pair[i]])

    def __len__(self) -> int:
        return len(self.level)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self._row(j) for j in range(len(self))[i]]
        return self._row(range(len(self))[i])

    def __iter__(self):
        return map(self._row, range(len(self)))

    def __eq__(self, other):
        if isinstance(other, (Matchings, list)):
            return len(self) == len(other) and all(a == b for a, b in zip(self, other))
        return NotImplemented


def verify_matchings(pi: MCollection, matchings) -> np.ndarray:
    """Recheck every matching from raw partitions, one pass per level.

    Rows are grouped by (level, pair) with one stable argsort.  Keys
    color*width + proj are taken per drop set over the colors named:
    drop_i is injective on a color iff the color has as many distinct keys
    as tuples, and then the two images are equal iff both counts agree and
    the color's two sorted key blocks agree position by position.
    """
    cols = Matchings.of(matchings)
    color, table = cols.color, cols.table
    ok = np.zeros(len(cols), dtype=bool)
    sound = np.array([di != dj and len(di) == len(dj) for di, dj in table], dtype=bool)
    rows = np.flatnonzero(sound[cols.pair])
    key = cols.level[rows] * len(table) + cols.pair[rows]
    order = np.argsort(key, kind="stable")
    rows, key = rows[order], key[order]
    groups, first = np.unique(key, return_index=True)
    bounds = np.append(first, len(rows))
    group_level, group_pair = np.divmod(groups, len(table))
    for s in np.unique(group_level).tolist():
        gs = np.flatnonzero(group_level == s)
        used = np.unique(color[rows[bounds[gs[0]]:bounds[gs[-1] + 1]]])
        for c in (used[0], used[-1]):  # IndexError on a bad level or color
            pi.codes_of_color(s, int(c))
        in_use = np.zeros(pi.num_colors(s), dtype=bool)
        in_use[used] = True
        sizes = pi.sizes[s][used]
        codes = pi._runs[s][0][np.repeat(in_use, pi.sizes[s])]  # grouped by color, ascending
        owner = np.repeat(np.arange(len(used)), sizes)
        keys, distinct = {}, {}
        for d in {d for g in gs for d in table[group_pair[g]]}:
            width = math.perm(pi.n, s - len(d))
            k = np.sort(owner * width + multi_proj_table(pi.n, s, d)[codes])
            keys[d] = k[np.concatenate(([True], k[1:] != k[:-1]))]
            distinct[d] = np.bincount(keys[d] // width, minlength=len(used))
        for g in gs:
            di, dj = table[group_pair[g]]
            a, b = keys[di], keys[dj]
            na, nb = distinct[di], distinct[dj]
            js = rows[bounds[g]:bounds[g + 1]]
            at = np.searchsorted(used, color[js])
            # keys run color by color, so where both counts agree the two
            # blocks line up and are equal sets iff they agree by position;
            # only the colors this group names are compared
            aligned = np.zeros(len(used), dtype=bool)
            aligned[at] = True
            aligned &= (na == sizes) & (nb == na)
            pa, pb = a[np.repeat(aligned, na)], b[np.repeat(aligned, nb)]
            differ = np.bincount(pa[pa != pb] // math.perm(pi.n, s - len(di)), minlength=len(used))
            ok[js] = (aligned & (differ == 0))[at]
    return ok


def _level_matchings(pi: MCollection, s: int):
    """Matchings of level s as columns: (color, pair) index arrays in
    (color, k, drop_i, drop_j) order, and the level's (drop_i, drop_j)
    table, in (k, drop_i, drop_j) order, that pair indexes."""
    t = pi.num_colors(s)
    pairs, hits = [], []
    for k in range(1, s):
        width = math.perm(pi.n, s - k)
        drops = list(itertools.combinations(range(1, s + 1), k))
        # keys below t*width, in int32 when they fit, which sorts faster
        dtype = np.int32 if t * width < 2**31 else np.int64
        offsets = pi.levels[s].astype(dtype) * width
        # projected codes keyed by color, sorted: each color fills the same
        # positions in every image, so where one image of a color is
        # injective, two images are equal sets iff they agree there
        images = {d: np.sort(offsets + multi_proj_table(pi.n, s, d).astype(dtype)) for d in drops}
        injective = {d: np.bincount(img[1:][img[1:] == img[:-1]] // width, minlength=t) == 0
                     for d, img in images.items()}
        for di, dj in itertools.combinations(drops, 2):
            a, b = images[di], images[dj]
            pairs.append((di, dj))
            hits.append(injective[di] & (np.bincount(a[a != b] // width, minlength=t) == 0))
    color, pair = np.nonzero(np.array(hits).T)
    return color, pair, pairs


def find_matchings(pi: MCollection) -> Matchings:
    """All matchings, scanned in (level, color, k, drop_i, drop_j) order,
    as a read-only sequence that builds each `Matching` when it is read."""
    empty = np.zeros(0, dtype=np.int64)
    level, color, pair, table = [empty], [empty], [empty], []
    for s in range(2, pi.m + 1):
        c, j, pairs = _level_matchings(pi, s)
        level.append(np.full(len(c), s))
        color.append(c)
        pair.append(j + len(table))
        table += pairs
    out = Matchings(np.concatenate(level), np.concatenate(color), np.concatenate(pair), table)
    try:
        ok = verify_matchings(pi, out)
    except IndexError as exc:  # the search named a level or color that does not exist
        raise AssertionError(f"matching search returned {exc}") from exc
    if not ok.all():
        raise AssertionError(f"matching search returned {out[int(np.argmin(ok))]}, which fails its recheck")
    return out


def subdegree(pi: MCollection, level_p: int, color_p: int, level_q: int, color_q: int) -> int:
    """|P| / |Q| for Q a multi-projection of P; integral under regularity."""
    n = pi.n
    k = level_p - level_q
    if k < 1 or level_q < 1:
        raise NotAProjection("Q must live at a lower level")
    idx = pi.codes_of_color(level_p, color_p)
    q_codes = pi.codes_of_color(level_q, color_q)
    for dropped in itertools.combinations(range(1, level_p + 1), k):
        img = np.unique(multi_proj_table(n, level_p, dropped)[idx])
        if np.array_equal(img, q_codes):
            size_p, size_q = len(idx), len(q_codes)
            if size_p % size_q:
                raise NonIntegral(f"|P|={size_p} not divisible by |Q|={size_q}")
            return size_p // size_q
    raise NotAProjection("no index set projects P onto Q")


def _level_antisymmetric(pi: MCollection, s: int) -> bool:
    own = np.arange(pi.num_colors(s))
    walk = itertools.islice(_permuted_colors(pi, s), 1, None)  # skip the identity
    return not any((const & (head == own)).any() for _, head, const in walk)


def _color_image(pi: MCollection, s: int, color: int, tau) -> int:
    colors = pi.levels[s]
    idx = pi.codes_of_color(s, color)
    img = np.unique(colors[act_table(pi.n, s, tau)[idx]])
    if len(img) != 1:
        raise ValueError("collection is not invariant; color image undefined")
    return int(img[0])


def _derived_matching(pi: MCollection, s: int, color: int):
    colors, pair, table = _level_matchings(pi, s)
    hit = np.flatnonzero(colors == color)
    return Matching(s, color, *table[pair[hit[0]]]) if hit.size else None


def matching_chase(pi: MCollection, t_level: int, color: int, i: int, ell: int) -> Matching:
    """Iterative halving: duplicate the projected coordinate, pick the least
    color inside, and strictly halve the subdegree until it reaches 1."""
    if not _level_antisymmetric(pi, 2):
        raise NotAntisymmetric("level 2 has a coordinate-permutation-fixed color")
    n = pi.n
    s = t_level
    if not 1 <= i <= s:
        raise PreconditionFailed(f"coordinate {i} is outside 1..{s}")
    # normalize: move coordinate i to the last slot via invariance
    if i != s:
        tau = tuple(list(range(i - 1)) + list(range(i, s)) + [i - 1])
        color = _color_image(pi, s, color, tau)
    size_p = pi.color_size(s, color)
    proj = multi_proj_table(n, s, (s,))
    idx = pi.codes_of_color(s, color)
    img = np.unique(proj[idx])
    size_q = len(img)
    if size_p % size_q:
        raise NonIntegral("subdegree is not integral")
    sub = size_p // size_q
    if sub == 1:
        m = _derived_matching(pi, s, color)
        if m is None:
            raise PreconditionFailed("subdegree 1 but the color is not a matching")
        return m
    if sub > ell:
        raise PreconditionFailed(f"subdegree {sub} exceeds ell={ell}")
    cur_level, cur_color, cur_sub = s, color, sub
    while True:
        nxt = cur_level + 1
        if nxt > pi.m:
            raise DepthExhausted(f"needed level {nxt} > m={pi.m}")
        pt1 = multi_proj_table(n, nxt, (nxt - 1,))
        pt2 = multi_proj_table(n, nxt, (nxt,))
        cur = pi.levels[cur_level]
        mask = (cur[pt1] == cur_color) & (cur[pt2] == cur_color)
        inside = np.unique(pi.levels[nxt][mask])
        if inside.size == 0:
            raise DepthExhausted("duplication set is empty")
        new_color = int(inside[0])
        new_size = pi.color_size(nxt, new_color)
        prev_size = pi.color_size(cur_level, cur_color)
        if new_size % prev_size:
            raise NonIntegral("subdegree is not integral")
        new_sub = new_size // prev_size
        if 2 * new_sub > cur_sub - 1:
            raise AssertionError("antisymmetry must strictly halve the subdegree")
        if new_sub == 1:
            return Matching(nxt, new_color, (nxt - 1,), (nxt,))
        cur_level, cur_color, cur_sub = nxt, new_color, new_sub


def prime_matching(pi: MCollection, ell: int) -> Matching:
    """Matching in a homogeneous antisymmetric m-scheme on a prime number of
    points, via a small-intersection witness on the level-2 scheme."""
    from . import assoc

    if ell < 2:
        raise PreconditionFailed("ell must be >= 2")
    n = pi.n
    if not is_prime(n):
        raise PreconditionFailed("n not prime")
    need_m = math.ceil(2 * math.log2(ell)) + 3
    if pi.m < need_m:
        raise PreconditionFailed(f"m={pi.m} < 2*log2(ell)+3 = {need_m}")
    report = check_properties(pi)
    if not report.homogeneous:
        raise PreconditionFailed("collection is not homogeneous")
    if not report.antisymmetric:
        raise PreconditionFailed("collection is not antisymmetric")
    if not report.is_scheme:
        raise PreconditionFailed("collection is not an m-scheme")
    scheme = assoc.level2_to_scheme(pi)
    t = assoc.intersection_tensor(scheme)
    k = t.valency(1)
    t2 = pi.num_colors(2)
    if Fraction(t2) < 2 * Fraction(k - 1, ell - 1) + 1:
        raise PreconditionFailed(f"|P_2|={t2} < 2(k-1)/(ell-1)+1 with k={k}")
    if k == 1:
        m = _derived_matching(pi, 2, 0)
        if m is None:
            raise AssertionError("thin level-2 colors must be matchings")
        return m
    res = assoc.small_intersection_search(t, ell)
    if res.witness is None:
        raise PreconditionFailed("no small-intersection witness (requires ell < k)")
    w = res.witness
    m2 = scheme.matrix
    quad = next(
        ((beta, alpha, gamma, gamma2)
         for beta in range(n) for gamma in range(n) if m2[beta, gamma] == w.w
         for alpha in range(n) if m2[alpha, beta] == w.u and m2[alpha, gamma] == w.v
         for gamma2 in range(n) if m2[alpha, gamma2] == w.v and m2[beta, gamma2] == w.w_prime),
        None,
    )
    if quad is None:
        raise AssertionError("witness tuple must exist by the counting argument")
    p4 = pi.color_of_tuple(quad)
    v_color = w.v - 1  # level-2 color id of v
    idx = pi.codes_of_color(4, p4)
    img13 = np.unique(multi_proj_table(n, 4, (1, 3))[idx])
    img14 = np.unique(multi_proj_table(n, 4, (1, 4))[idx])
    v_codes = pi.codes_of_color(2, v_color)
    if not (np.array_equal(img13, v_codes) and np.array_equal(img14, v_codes)):
        raise AssertionError("the witness color must project onto v along (1, 3) and (1, 4)")
    size_p = pi.color_size(4, p4)
    size_v = len(v_codes)
    if size_p == size_v:
        return Matching(4, p4, (1, 3), (1, 4))
    q3 = pi.color_of_tuple(quad[:3])
    size_q = pi.color_size(3, q3)
    if size_q > size_v:
        return matching_chase(pi, 3, q3, 1, ell * ell)
    return matching_chase(pi, 4, p4, 4, ell * ell)


# ---------------------------------------------------------------------------
# non-existence check

@dataclass(frozen=True)
class ContradictionWitness:
    r: int
    n: int
    message: str


def nonexistence_check(pi: MCollection, report: PropertyReport | None = None):
    """None unless a homogeneous antisymmetric m-scheme exists on n points
    with a prime r | n, r <= m -- which is impossible, so a witness is
    test-fatal."""
    n, m = pi.n, pi.m
    r = None
    for cand in range(2, m + 1):
        if is_prime(cand) and n % cand == 0:
            r = cand
            break
    if r is None:
        return None
    if report is None:
        report = check_properties(pi)
    if report.homogeneous and report.antisymmetric and report.is_scheme:
        prod = 1
        for j in range(1, r):
            prod *= n - j
        return ContradictionWitness(
            r, n, f"{math.factorial(r)}*{n} would divide {n}*{prod}, impossible since {r} | {n}"
        )
    return None


# ---------------------------------------------------------------------------
# built-in group catalog

@lru_cache(maxsize=None)
def load_catalog() -> dict:
    """Named generator lists: cyclic, dihedral, S3, A4, Frobenius F21."""
    text = resources.files("mschemes.data").joinpath("groups.json").read_text()
    raw = json.loads(text)
    return {name: (entry["degree"], [tuple(g) for g in entry["generators"]]) for name, entry in raw.items()}


def catalog_mscheme(name: str, m: int, work_cap: int = WORK_CAP) -> MCollection:
    cat = load_catalog()
    if name not in cat:
        raise UnknownGroup(f"unknown catalog group {name!r}")
    degree, gens = cat[name]
    return orbit_mscheme(gens, min(m, degree), work_cap=work_cap)
