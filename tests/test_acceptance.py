"""Acceptance suite: one test per top-level criterion, each printing a
PASS/FAIL line (run with -s to see them inline).

Exact arithmetic everywhere; the stated wall-clock budgets are asserted
too since they carry large margins on commodity hardware.
"""

import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from mschemes import assoc, cli, factor, mscheme
from mschemes.gf import Poly, field_ctx, is_prime
from mschemes.levels import build_levels

PRIMES_97 = [p for p in range(2, 98) if is_prime(p)]


def _report(num, desc, failures, elapsed=None, budget=None):
    status = "PASS" if not failures else "FAIL"
    extra = f" [{elapsed:.1f}s / {budget}s]" if elapsed is not None else ""
    print(f"ACCEPTANCE {num:02d} {status}: {desc}{extra}")
    assert not failures, f"criterion {num}: {failures[:5]}"
    if elapsed is not None and budget is not None:
        assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def _divisors(n):
    return [e for e in range(1, n + 1) if n % e == 0]


def _split_polys(q, deg):
    ctx = field_ctx(q, 1)
    elems = list(ctx.elements())
    out = []
    for subset in itertools.combinations(elems, deg):
        f = Poly(ctx, [1])
        for r in subset:
            f = f * Poly(ctx, [-r, ctx.one()])
        out.append(f)
    return out


def test_criterion_01_axioms_and_identity_suite():
    t0 = time.time()
    failures = []
    for p in PRIMES_97:
        for e in _divisors(p - 1):
            s = assoc.cyclotomic_scheme(p, e)
            if assoc.verify_scheme(s) is not None:
                failures.append((p, e, "axioms"))
                continue
            bad = assoc.verify_identities(s)
            if bad is not None:
                failures.append((p, e, f"identity {bad.identity}"))
    _report(1, "cyclotomic axioms + identity suite, p <= 97", failures, time.time() - t0, 30)


def test_criterion_02_prime_order_structure():
    t0 = time.time()
    failures = []
    for p in PRIMES_97:
        for e in _divisors(p - 1):
            k = (p - 1) // e
            t = assoc.intersection_tensor(assoc.cyclotomic_scheme(p, e))
            if any(int(v) != k for v in t.n_g[1:]):
                failures.append((p, e, "valency"))
            if any(int(v) != k - 1 for v in t.c_g[1:]):
                failures.append((p, e, "indistinguishing"))
    _report(2, "equal valencies k and c(g) = k-1 on prime-order schemes", failures, time.time() - t0, 30)


def test_criterion_03_small_intersection_witnesses():
    t0 = time.time()
    failures = []
    for p in PRIMES_97:
        for e in _divisors(p - 1):
            t = assoc.intersection_tensor(assoc.cyclotomic_scheme(p, e))
            k = (p - 1) // e
            for ell in (2, 3, 4):
                try:
                    res = assoc.small_intersection_search(t, ell)
                except assoc.TheoremContradiction:
                    failures.append((p, e, ell, "contradiction"))
                    continue
                if res.hypothesis_held and res.witness is None:
                    failures.append((p, e, ell, "hypothesis without witness"))
                if res.witness is not None:
                    w = res.witness
                    if not (0 < w.c1 <= w.c2 < ell):
                        failures.append((p, e, ell, "witness out of range"))
                group_bound_held = Fraction(t.num_colors) >= 2 * Fraction(k - 1, ell - 1) + 2
                if group_bound_held and res.witness is None and k > 1:
                    # k = 1 is the documented degeneracy: a single relation
                    # carries each (u, v), so two small entries cannot exist
                    failures.append((p, e, ell, "missing witness at k > 1"))
    _report(3, "small-intersection witnesses whenever the bound holds (k > 1)", failures, time.time() - t0, 60)


def _deviation_pairs():
    out = []
    for p in PRIMES_97:
        for e in _divisors(p - 1):
            if e <= 6:
                out.append((p, e))
    return out


def test_criterion_04_hasse_weil_deviation():
    t0 = time.time()
    failures = []
    for p, e in _deviation_pairs():
        if (p, e) in ((2, 1), (3, 1)):
            continue  # covered by the strict-xfail companion test below
        rep = assoc.cyclotomic_deviation_report(assoc.intersection_tensor(assoc.cyclotomic_scheme(p, e)))
        if not rep.bound_ok:
            failures.append((p, e, str(rep.max_deviation)))
    _report(4, "deviation <= sqrt(p) + e for p <= 97, e <= 6 (two p<5 edges xfail)", failures, time.time() - t0, 60)


@pytest.mark.xfail(strict=True, reason="complete schemes on p < 5 points deviate by exactly 3, above sqrt(p) + 1")
@pytest.mark.parametrize("p,e", [(2, 1), (3, 1)])
def test_criterion_04_known_edge_violations(p, e):
    rep = assoc.cyclotomic_deviation_report(assoc.intersection_tensor(assoc.cyclotomic_scheme(p, e)))
    assert rep.bound_ok


def test_criterion_05_three_scheme_round_trip():
    t0 = time.time()
    failures = []
    for p in [q for q in PRIMES_97 if q <= 31 and q >= 3]:
        for e in _divisors(p - 1):
            s = assoc.cyclotomic_scheme(p, e)
            pi = assoc.scheme_to_3scheme(s)
            rep = mscheme.check_properties(pi)
            if not (rep.compatible[2] and rep.compatible[3] and rep.regular[2] and rep.regular[3]
                    and rep.invariant[2] and rep.invariant[3]):
                failures.append((p, e, "forward image not a 3-scheme"))
                continue
            if assoc.level2_to_scheme(pi) != s:
                failures.append((p, e, "round trip"))
    _report(5, "3-scheme round trip is the identity, p <= 31", failures, time.time() - t0, 60)


def test_criterion_06_nonexistence_over_catalog():
    t0 = time.time()
    failures = []
    catalog = mscheme.load_catalog()
    for name in sorted(catalog):
        degree, _ = catalog[name]
        for m in (2, 3, 4):
            if m > degree:
                continue
            pi = mscheme.catalog_mscheme(name, m)
            if mscheme.nonexistence_check(pi) is not None:
                failures.append((name, m))
    _report(6, "no homogeneous antisymmetric m-scheme with prime r | n, r <= m", failures, time.time() - t0, 120)


def test_criterion_07_orbit_matchings():
    t0 = time.time()
    failures = []
    catalog = mscheme.load_catalog()
    for name in sorted(catalog):
        degree, _ = catalog[name]
        pi = mscheme.catalog_mscheme(name, min(4, degree))
        rep = mscheme.check_properties(pi)
        if rep.homogeneous and rep.antisymmetric and not mscheme.find_matchings(pi):
            failures.append((name, "no matching"))
    for n in (5, 7, 11, 13):
        m = math.ceil(math.log2(n))
        pi = mscheme.catalog_mscheme(f"Z{n}", m)
        rep = mscheme.check_properties(pi)
        if not (rep.homogeneous and rep.antisymmetric_at[2]):
            failures.append((n, "unexpected structure"))
        if not mscheme.find_matchings(pi):
            failures.append((n, "no matching at log2 depth"))
    _report(7, "homogeneous antisymmetric orbit schemes contain matchings", failures, time.time() - t0, 120)


def _criterion8_domain():
    rng = random.Random(0)
    cases = []
    for q in (5, 7, 11):
        for deg in (2, 3, 4, 5):
            polys = _split_polys(q, deg)
            if len(polys) > 200:
                polys = rng.sample(polys, 200)
            cases.extend(polys)
    return cases


def _run_criterion8():
    failures = []
    logs = []
    for f in _criterion8_domain():
        deg = f.degree
        res = factor.iks_factor(f, min(4, deg))
        if isinstance(res, factor.StuckScheme):
            failures.append((f.ctx.p, f.int_coeffs(), "stuck"))
            continue
        g = res.g
        if not (0 < g.degree < deg and (f % g).is_zero()):
            failures.append((f.ctx.p, f.int_coeffs(), "not a proper divisor"))
        groots = {a.index for a in f.ctx.elements() if g(a).is_zero()}
        froots = {a.index for a in f.ctx.elements() if f(a).is_zero()}
        if not groots <= froots or len(groots) != g.degree:
            failures.append((f.ctx.p, f.int_coeffs(), "root mismatch"))
        logs.append(factor.log_to_json(res.log))
    return failures, logs


def test_criterion_08_factoring_oracle_equivalence():
    t0 = time.time()
    failures, _ = _run_criterion8()
    _report(8, "iks_factor agrees with brute-force roots, zero stuck outcomes", failures, time.time() - t0, 300)


def _run_criterion9():
    results = []
    ctx11 = field_ctx(11, 1)
    f5 = Poly(ctx11, [-1, 0, 0, 0, 0, 1])
    results.append(factor.prime_degree_factor(f5, 2, 1))
    ctx29 = field_ctx(29, 1)
    f7 = Poly(ctx29, [-1, 0, 0, 0, 0, 0, 0, 1])
    results.append(factor.prime_degree_factor(f7, 3, 1))
    return results


def test_criterion_09_prime_degree_theorem_desk_scale():
    t0 = time.time()
    failures = []
    try:
        res5, res7 = _run_criterion9()
    except (assoc.TheoremContradiction, factor.DimCapExceeded) as exc:
        failures.append(str(exc))
        res5 = res7 = None
    if res5 is not None:
        for res, n in ((res5, 5), (res7, 7)):
            if not isinstance(res, factor.Factor):
                failures.append((n, "no factor"))
                continue
            for attempt in res.log:
                dim = 1
                for j in range(attempt["m"]):
                    dim *= n - j
                if dim > 5040:
                    failures.append((n, "dimension overflow"))
    _report(9, "prime-degree driver succeeds on x^5-1/F_11 and x^7-1/F_29", failures, time.time() - t0, 300)


def _run_criterion10():
    ctx = field_ctx(53, 1)
    f = Poly(ctx, [-1] + [0] * 12 + [1])
    return factor.iks_factor(f, 3)


def test_criterion_10_n13_smoke():
    t0 = time.time()
    failures = []
    res = _run_criterion10()
    if isinstance(res, factor.Factor):
        ctx = field_ctx(53, 1)
        f = Poly(ctx, [-1] + [0] * 12 + [1])
        if not (0 < res.g.degree < 13 and (f % res.g).is_zero()):
            failures.append("bad factor")
    else:
        if not res.certificate["valid"] or not factor.validate_certificate(res):
            failures.append("certificate invalid")
        dims = res.certificate["dimension_sums"]
        if sum(dims.get(3, [])) != 13 * 12 * 11:
            failures.append("level-3 dimension sum")
    _report(10, "x^13-1 over F_53 factors or certifies a stuck scheme", failures, time.time() - t0, 600)


def test_criterion_11_split_hand_case():
    t0 = time.time()
    failures = []
    ctx = field_ctx(7, 1)
    f = Poly(ctx, [-1, 0, 1])
    sigma = np.array([[1, 0], [0, 6]])
    res = factor.split_by_automorphism(f, sigma, 2)
    # f splits, so the exponent is 7 - 1; the universal exponent for
    # residue degrees <= 2 must give the same vector
    alg = build_levels(f, 1)[0]
    universal = factor._split_ideal(alg, alg.ops.eye(2), range(2), alg.identity(), sigma[..., None], 2, 2)
    if not isinstance(res, factor.ZeroDivisor):
        failures.append("no zero divisor")
    elif not np.array_equal(res.vec, np.array([[6], [1]], dtype=np.int64)):
        failures.append(f"got {res.vec.tolist()}")
    elif not np.array_equal(universal.vec, res.vec):
        failures.append("split and universal exponents disagree")
    _report(11, "x -> -x on F_7[x]/(x^2-1) yields exactly x - 1", failures, time.time() - t0, 10)


# sha256 of the newline-joined log_to_json strings of each criterion's run,
# recorded before the ambient-tensor algebra model was removed: refactors
# must leave the refinement logs byte-identical, not merely repeatable.
GOLDEN_LOG_SHA256 = {
    8: "ce5b85b4e1f8b90d4d8c8318b7f911c3575c5be4ab4503870bcfa97b0b598dbd",
    9: "888e10b6f66147081d20a6a8c34c6b65fed14b347755408cb436cad9b34b1e68",
    10: "7e0309277d70ae38bc3907b52a78a5d524ece06ea4198ec5de432b7e3c5cfa2e",
}


def _log_digest(logs):
    return hashlib.sha256("\n".join(logs).encode()).hexdigest()


def test_criterion_12_determinism():
    t0 = time.time()
    failures = []
    f8a, logs_a = _run_criterion8()
    f8b, logs_b = _run_criterion8()
    if f8a or f8b or logs_a != logs_b:
        failures.append("criterion-8 logs differ")
    res9a = [factor.log_to_json(r.log) for r in _run_criterion9()]
    res9b = [factor.log_to_json(r.log) for r in _run_criterion9()]
    if res9a != res9b:
        failures.append("criterion-9 logs differ")
    r10a = factor.log_to_json(_run_criterion10().log)
    r10b = factor.log_to_json(_run_criterion10().log)
    if r10a != r10b:
        failures.append("criterion-10 logs differ")
    for num, logs in ((8, logs_a), (9, res9a), (10, [r10a])):
        if _log_digest(logs) != GOLDEN_LOG_SHA256[num]:
            failures.append(f"criterion-{num} logs differ from the golden digest")
    _report(12, "byte-identical refinement logs on repeated runs", failures, time.time() - t0, 900)


def test_criterion_13_number_theory_utilities():
    t0 = time.time()
    failures = []
    for s in range(1, 201):
        direct = None
        n = 1
        while direct is None:
            n += s
            if is_prime(n):
                direct = n
        if cli.linnik_p1s(s) != direct:
            failures.append(("linnik", s))

    def factorize(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    for n in range(1, 10001):
        fac = factorize(n)
        for r in (2, 3, 5):
            expect = 1
            for p, e in fac.items():
                if p <= r:
                    expect *= p**e
            if cli.smooth_divisor(n, r) != expect:
                failures.append(("smooth", n, r))
                break
    _report(13, "linnik and smooth-divisor utilities match direct oracles", failures, time.time() - t0, 10)
