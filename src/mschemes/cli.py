"""Command-line front end: factoring, scheme reports, orbit scans, and
number-theory utilities, all emitting deterministic JSON.

Exit codes: 0 success/factored, 2 stuck scheme, 3 invalid input
(ValueError), 4 unmet precondition or cap (gf.PreconditionFailed),
5 conjecture-evidence failure, 6 internal invariant failure
(AssertionError, among them a theorem contradiction or a matching that
fails the batched recheck from raw partitions).  Every error is reported
as JSON with status "error".
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys as _sys
from functools import lru_cache

from . import assoc, factor, mscheme
from .gf import PreconditionFailed, ScanCapExceeded, field_ctx, is_prime, poly_from_text, smooth_divisor

EXIT_OK = 0
EXIT_STUCK = 2
EXIT_INVALID = 3
EXIT_PRECONDITION = 4
EXIT_CONJECTURE = 5
EXIT_INTERNAL = 6

# every error class of the package lies in exactly one of these families
EXIT_CODES = {ValueError: EXIT_INVALID, PreconditionFailed: EXIT_PRECONDITION, AssertionError: EXIT_INTERNAL}

LINNIK_SCAN_CONSTANT = 10


class MissingInput(ValueError):
    """orbit-scan was given neither --catalog nor --gens."""


def linnik_p1s(s: int) -> int:
    """Least prime congruent to 1 mod s, by incremental scan (cap c*s^2)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    cap = LINNIK_SCAN_CONSTANT * s * s
    n = 1
    while True:
        n += s
        if n > max(cap, 2):
            raise ScanCapExceeded(f"no prime 1 mod {s} within {cap}")
        if is_prime(n):
            return n


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=1) + "\n"
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    _sys.stdout.write(text)


def cmd_factor(args) -> int:
    f = poly_from_text(field_ctx(args.p, args.d), args.poly)
    if args.r is not None and is_prime(f.degree):
        res = factor.prime_degree_factor(f, args.r, args.l)
    else:
        res = factor.iks_factor(f, args.m)
    if isinstance(res, factor.Factor):
        payload, code = {"status": "factored", "factor": res.g.int_coeffs()}, EXIT_OK
    else:
        payload, code = {"status": "stuck", "certificate": res.certificate}, EXIT_STUCK
    payload.update(m_used=res.log[-1]["m"] if res.log else None, refinement_log=res.log)
    _emit(payload, args.json)
    return code


def cmd_scheme_report(args) -> int:
    s = assoc.cyclotomic_scheme(args.p, args.e)
    t = assoc.intersection_tensor(s)
    identities = assoc.check_tensor_identities(t)
    witnesses = {}
    for ell in (2, 3, 4):
        res = assoc.small_intersection_search(t, ell)
        witnesses[str(ell)] = (
            None
            if res.witness is None
            else {**dataclasses.asdict(res.witness), "hypothesis_held": res.hypothesis_held}
        )
    dev = assoc.cyclotomic_deviation_report(t)
    payload = {
        "status": "ok",
        "n": s.n,
        "num_relations": s.num_colors,
        "valencies": [int(v) for v in t.n_g],
        "indistinguishing": [int(v) for v in t.c_g],
        "adjoint": [int(v) for v in t.adjoint],
        "identity_suite": "ok" if identities is None else f"failed({identities.identity})",
        "small_intersection": witnesses,
        "deviation": {
            "target": f"{args.p + 1}/{args.e * args.e}",
            "max_deviation": str(dev.max_deviation),
            "slack": dev.slack,
            "bound_ok": dev.bound_ok,
            "rows": [[r, s2, t3, c, str(d)] for (r, s2, t3, c, d) in dev.rows],
        },
    }
    _emit(payload, args.json)
    return EXIT_OK


def _parse_generators(text: str) -> list:
    gens = []
    for part in text.split(";"):
        part = part.strip()
        if part:
            gens.append([int(v) for v in part.split(",")])
    return gens


def cmd_orbit_scan(args) -> int:
    if args.catalog:
        names = sorted(mscheme.load_catalog()) if args.catalog == "all" else [args.catalog]
        pis = [mscheme.catalog_mscheme(name, args.m) for name in names]
    elif args.gens:
        names = ["custom"]
        pis = [mscheme.orbit_mscheme(_parse_generators(args.gens), args.m)]
    else:
        raise MissingInput("need --catalog or --gens")
    entries = [_scan_one(name, pi) for name, pi in zip(names, pis)]
    if not args.catalog:
        _emit(entries[0], args.json)
        return EXIT_OK
    failures = 0
    for entry, pi in zip(entries, pis):
        if entry["homogeneous"] and entry["antisymmetric"] and pi.m >= 4 and not entry["matchings"]:
            failures += 1
    payload = {"status": "ok", "m": args.m, "entries": entries, "conjecture_failures": failures}
    _emit(payload, args.json)
    return EXIT_CONJECTURE if failures else EXIT_OK


def _scan_one(name: str, pi) -> dict:
    rep = mscheme.check_properties(pi)
    matchings = mscheme.find_matchings(pi)
    witness = mscheme.nonexistence_check(pi, report=rep)
    return {
        "name": name,
        "n": pi.n,
        "m": pi.m,
        "colors": [pi.num_colors(s) for s in range(1, pi.m + 1)],
        "homogeneous": rep.homogeneous,
        "is_scheme": rep.is_scheme,
        "antisymmetric": rep.antisymmetric,
        "symmetric": rep.symmetric,
        "matchings": [
            {"level": m.level, "color": m.color, "drop_i": list(m.drop_i), "drop_j": list(m.drop_j)}
            for m in matchings[:20]
        ],
        "matching_count": len(matchings),
        "nonexistence": "contradiction" if witness else "ok",
    }


def cmd_linnik(args) -> int:
    _emit({"status": "ok", "s": args.s, "prime": linnik_p1s(args.s)}, args.json)
    return EXIT_OK


def cmd_smooth(args) -> int:
    _emit({"status": "ok", "n": args.n, "r": args.r, "smooth_divisor": smooth_divisor(args.n, args.r)}, args.json)
    return EXIT_OK


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and reused by every main call."""
    ap = argparse.ArgumentParser(prog="mschemes", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_factor = sub.add_parser("factor", help="factor a split squarefree polynomial")
    p_factor.add_argument("--p", type=int, required=True)
    p_factor.add_argument("--d", type=int, default=1)
    p_factor.add_argument("--poly", type=str, required=True, help="comma-separated, constant first")
    p_factor.add_argument("--m", type=int, default=4)
    p_factor.add_argument("--r", type=int, default=None)
    p_factor.add_argument("--l", type=int, default=2)
    p_factor.add_argument("--json", type=str, default=None)
    p_factor.set_defaults(func=cmd_factor)

    p_rep = sub.add_parser("scheme-report", help="cyclotomic scheme report")
    p_rep.add_argument("--p", type=int, required=True)
    p_rep.add_argument("--e", type=int, required=True)
    p_rep.add_argument("--json", type=str, default=None)
    p_rep.set_defaults(func=cmd_scheme_report)

    p_orb = sub.add_parser("orbit-scan", help="orbit m-scheme scan")
    p_orb.add_argument("--catalog", type=str, default=None, help="group name or 'all'")
    p_orb.add_argument("--gens", type=str, default=None, help="semicolon-separated image lists")
    p_orb.add_argument("--m", type=int, default=4)
    p_orb.add_argument("--json", type=str, default=None)
    p_orb.set_defaults(func=cmd_orbit_scan)

    p_lin = sub.add_parser("linnik", help="least prime 1 mod s")
    p_lin.add_argument("--s", type=int, required=True)
    p_lin.add_argument("--json", type=str, default=None)
    p_lin.set_defaults(func=cmd_linnik)

    p_sm = sub.add_parser("smooth", help="largest r-smooth divisor")
    p_sm.add_argument("--n", type=int, required=True)
    p_sm.add_argument("--r", type=int, required=True)
    p_sm.add_argument("--json", type=str, default=None)
    p_sm.set_defaults(func=cmd_smooth)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        _emit({"status": "error", "error": type(exc).__name__, "message": str(exc)}, args.json)
        return next(code for family, code in EXIT_CODES.items() if isinstance(exc, family))


if __name__ == "__main__":
    raise SystemExit(main())
