"""Seeded inputs, the call into mschemes, and an independent oracle for
each benchmark workload.

A workload is a list of cases (one pass).  Every case is a dict of plain
integers made from the seed alone; ``execute`` hands it to the library
and returns the exit code and the output text, and ``check`` judges that
output with brute force that shares no code with mschemes.  mschemes is
imported lazily so that the harness can time the import as set-up.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from math import comb
from pathlib import Path

GROUPS_JSON = Path(__file__).resolve().parent.parent / "src" / "mschemes" / "data" / "groups.json"

# factor-sweep: degree 2..6 over these fields, SWEEP_PER_STRATUM inputs per
# (field, degree) stratum in every pass, strata interleaved round-robin.
SWEEP_FIELDS = (5, 7, 11, 13)
SWEEP_DEGREES = range(2, 7)
SWEEP_PER_STRATUM = 6

# factor-deep: Z_n-orbit inputs (x - c)^n - t^n, i.e. roots c + t*mu_n,
# with c != 0.  (c = 0 gives the binomial x^n - t^n, whose sparse level
# elements make it about a third cheaper; drawing it by chance would make
# a pass's time depend on the draw.)  (p, n, r) with r the smoothness
# bound handed to prime_degree_factor.
DEEP_CLASSES = ((31, 5, 2), (11, 5, 2), (31, 5, 2), (31, 5, 2))

# schemes: one cyclotomic (p, e) pair per band of p (report cost grows
# like p^3, so narrow bands keep passes of different seeds comparable),
# then fixed orbit scans.
SCHEME_BANDS = tuple((lo, lo + 16) for lo in range(100, 260, 16))
SCHEME_E = range(2, 9)
SCHEME_SCANS = (("all", 4), ("Z11", 5))


# -- polynomials over F_p (constant term first) ---------------------------


def poly_from_roots(roots, p):
    coeffs = [1]
    for r in roots:
        shifted = [0] + coeffs
        coeffs = [(a - r * b) % p for a, b in zip(shifted, coeffs + [0])]
    return coeffs


def roots_of(coeffs, p):
    out = []
    for x in range(p):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        if acc == 0:
            out.append(x)
    return out


def is_mu_coset(roots, p):
    """True iff the root set is c + t*mu_n (n = len(roots) >= 3, t != 0).

    Degree 2 is never called a coset here: every pair {a, b} is
    (a+b)/2 + ((a-b)/2)*mu_2, so the rule would drop every quadratic.
    """
    n = len(roots)
    if n < 3 or (p - 1) % n:
        return False
    c = sum(roots) * pow(n, -1, p) % p  # mu_n sums to 0, so c is the mean
    powers = {pow(r - c, n, p) for r in roots}
    return len(powers) == 1 and 0 not in powers


def orbit_coeffs(p, n, c, t):
    """(x - c)^n - t^n: the roots are c + t*zeta for zeta in mu_n."""
    coeffs = [comb(n, k) * pow(-c, n - k, p) % p for k in range(n + 1)]
    coeffs[0] = (coeffs[0] - pow(t, n, p)) % p
    return coeffs


# -- generators -----------------------------------------------------------


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def sweep_strata():
    """(p, degree, root sets) for every stratum with a non-coset input."""
    out = []
    for p in SWEEP_FIELDS:
        for deg in SWEEP_DEGREES:
            if deg > p:
                continue
            sets = [s for s in itertools.combinations(range(p), deg) if not is_mu_coset(s, p)]
            if sets:
                out.append((p, deg, sets))
    return out


def sweep_cases(seed):
    rng = _rng("factor-sweep", seed)
    cases = []
    strata = sweep_strata()
    for _ in range(SWEEP_PER_STRATUM):
        for p, deg, sets in strata:
            roots = rng.choice(sets)
            cases.append({"kind": "factor", "p": p, "m": min(4, deg), "coeffs": poly_from_roots(roots, p)})
    return cases


def deep_cases(seed):
    rng = _rng("factor-deep", seed)
    cases = []
    for p, n, r in DEEP_CLASSES:
        c, t = rng.randrange(1, p), rng.randrange(1, p)
        roots = sorted((c + t * z) % p for z in range(1, p) if pow(z, n, p) == 1)
        cases.append({"kind": "prime-degree", "p": p, "r": r, "roots": roots,
                      "coeffs": orbit_coeffs(p, n, c, t)})
    return cases


def _primes(lo, hi):
    return [q for q in range(max(lo, 2), hi) if all(q % d for d in range(2, int(q**0.5) + 1))]


def scheme_cases(seed):
    rng = _rng("schemes", seed)
    cases = []
    for lo, hi in SCHEME_BANDS:
        p = rng.choice(_primes(lo, hi))
        e = rng.choice([e for e in SCHEME_E if (p - 1) % e == 0])
        cases.append({"kind": "scheme-report", "p": p, "e": e})
    for catalog, m in SCHEME_SCANS:
        cases.append({"kind": "orbit-scan", "catalog": catalog, "m": m})
    return cases


GENERATORS = {"factor-sweep": sweep_cases, "factor-deep": deep_cases, "schemes": scheme_cases}
WORKLOADS = tuple(GENERATORS)


def cases_for(workload, seed):
    return GENERATORS[workload](seed)


# -- calls into the library -----------------------------------------------


def _cli(argv):
    from mschemes import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def execute(case):
    """Run one case; returns (exit code, canonical output text)."""
    kind = case["kind"]
    if kind == "factor":
        poly = ",".join(str(c) for c in case["coeffs"])
        return _cli(["factor", "--p", str(case["p"]), "--poly", poly, "--m", str(case["m"])])
    if kind == "prime-degree":
        from mschemes import factor
        from mschemes.gf import Poly, field_ctx

        f = Poly(field_ctx(case["p"], 1), case["coeffs"])
        res = factor.prime_degree_factor(f, case["r"], 1)
        text = json.dumps({"factor": res.g.int_coeffs(), "refinement_log": res.log}, sort_keys=True)
        return 0, text
    if kind == "scheme-report":
        return _cli(["scheme-report", "--p", str(case["p"]), "--e", str(case["e"])])
    if kind == "orbit-scan":
        return _cli(["orbit-scan", "--catalog", case["catalog"], "--m", str(case["m"])])
    raise ValueError(f"unknown case kind {kind!r}")


def warm_up(workload):
    """Fill the process-wide caches a workload's first pass would fill:
    field contexts, tuple tables, the group catalog.  Inputs are fixed and
    outside every generated pass."""
    if workload in ("factor-sweep", "factor-deep"):
        from mschemes import factor
        from mschemes.gf import Poly, extension_for_levels, field_ctx, lift_poly

        fields = SWEEP_FIELDS if workload == "factor-sweep" else sorted({p for p, _, _ in DEEP_CLASSES})
        for p in fields:
            cubic = Poly(field_ctx(p, 1), poly_from_roots([0, 1, 2], p))
            execute({"kind": "factor", "p": p, "m": 3, "coeffs": cubic.int_coeffs()})
            factor.iks_factor(lift_poly(cubic, extension_for_levels(cubic.ctx, 3)), 2)
    else:
        from mschemes import mscheme

        execute({"kind": "scheme-report", "p": 13, "e": 4})
        catalog = mscheme.load_catalog()
        for name, m in SCHEME_SCANS:
            for group in sorted(catalog) if name == "all" else [name]:
                degree = catalog[group][0]
                for s in range(1, min(m, degree) + 1):
                    mscheme.tuple_table(degree, s)


# -- oracle ---------------------------------------------------------------


def check(case, code, text):
    """None if the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    out = json.loads(text)
    kind = case["kind"]
    if kind in ("factor", "prime-degree"):
        if kind == "factor" and out.get("status") != "factored":
            return f"status {out.get('status')}"
        return check_factor(case["coeffs"], out["factor"], case["p"])
    if kind == "scheme-report":
        return check_scheme_report(case["p"], case["e"], out)
    return check_orbit_scan(case["catalog"], case["m"], out)


def check_factor(f, g, p):
    """g must be a monic proper divisor of the split squarefree f: its
    roots are distinct, deg g of them, all roots of f."""
    deg = len(g) - 1
    if not 1 <= deg < len(f) - 1:
        return f"factor degree {deg} is not proper"
    if g[-1] % p != 1:
        return "factor is not monic"
    rg = roots_of(g, p)
    if len(rg) != deg:
        return f"factor has {len(rg)} roots in F_{p}, degree {deg}"
    if not set(rg) <= set(roots_of(f, p)):
        return "factor has a root that f lacks"
    return None


def cyclotomic_labels(p, e):
    """label[x] = i for x = alpha^(i + e*j), alpha the least primitive root."""
    alpha = next(g for g in range(2, p) if len({pow(g, k, p) for k in range(1, p)}) == p - 1)
    label = [0] * p
    x = 1
    for k in range(1, p):
        x = x * alpha % p
        label[x] = (k - 1) % e + 1
    return label


def check_scheme_report(p, e, out):
    k = (p - 1) // e
    if out["n"] != p or out["num_relations"] != e + 1:
        return "wrong point or relation count"
    if out["valencies"] != [1] + [k] * e:
        return "wrong valencies"
    if out["identity_suite"] != "ok":
        return f"identity suite {out['identity_suite']}"
    label = cyclotomic_labels(p, e)
    want = {}
    for t in range(1, e + 1):
        b = next(y for y in range(p) if label[(0 - y) % p] == t)  # (0, b) has color t
        for v in range(p):
            key = (label[(0 - v) % p], label[(v - b) % p], t)
            want[key] = want.get(key, 0) + 1
    for r, s, t, count, _ in out["deviation"]["rows"]:
        if count != want.get((r, s, t), 0):
            return f"intersection number c^{t}_{r}{s} is {count}, brute force says {want.get((r, s, t), 0)}"
    if len(out["deviation"]["rows"]) != e**3:
        return "deviation table is incomplete"
    return None


def _group(generators):
    elems = {tuple(range(len(generators[0])))}
    frontier = list(elems)
    while frontier:
        g = frontier.pop()
        for h in generators:
            gh = tuple(h[i] for i in g)
            if gh not in elems:
                elems.add(gh)
                frontier.append(gh)
    return elems


def burnside_colors(generators, m):
    """Orbit counts of the group on essential s-tuples, s = 1..m."""
    group = _group(generators)
    fixed = [sum(1 for i, gi in enumerate(g) if gi == i) for g in group]
    out = []
    for s in range(1, m + 1):
        total = 0
        for f in fixed:
            falling = 1
            for j in range(s):
                falling *= f - j
            total += max(falling, 0)
        out.append(total // len(group))
    return out


def check_orbit_scan(catalog, m, out):
    if out.get("conjecture_failures") != 0:
        return f"conjecture failures {out.get('conjecture_failures')}"
    groups = json.loads(GROUPS_JSON.read_text())
    names = sorted(groups) if catalog == "all" else [catalog]
    if [e["name"] for e in out["entries"]] != names:
        return "wrong catalog entries"
    for entry in out["entries"]:
        spec = groups[entry["name"]]
        gens = [tuple(g) for g in spec["generators"]]
        want = burnside_colors(gens, min(m, spec["degree"]))
        if entry["colors"] != want:
            return f"{entry['name']}: colors {entry['colors']}, Burnside says {want}"
        if entry["homogeneous"] != (want[0] == 1):
            return f"{entry['name']}: homogeneity disagrees with transitivity"
    return None
