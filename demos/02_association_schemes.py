#!/usr/bin/env python3
"""Cyclotomic schemes: intersection numbers, the identity suite, and the
small-intersection witness search."""

from mschemes.assoc import (
    cyclotomic_deviation_report,
    cyclotomic_scheme,
    intersection_tensor,
    small_intersection_search,
    verify_identities,
    verify_scheme,
)

s = cyclotomic_scheme(13, 6)
t = intersection_tensor(s)
print("cyclotomic scheme in (13, 6)")
print("  relations:", s.num_colors, " valencies:", [int(v) for v in t.n_g])
print("  indistinguishing numbers:", [int(v) for v in t.c_g], " (k - 1 on nontrivial relations)")
print("  axioms:", "ok" if verify_scheme(s) is None else "violated")
print("  identity suite:", "ok" if verify_identities(s) is None else "failed")

print("\nsmall-intersection search at ell = 2:")
res = small_intersection_search(t, 2)
w = res.witness
print(f"  witness u={w.u} v={w.v} w={w.w} w'={w.w_prime} with counts {w.c1} <= {w.c2} < 2")
print(f"  theorem hypothesis held: {res.hypothesis_held}")

print("\ndeviation of intersection numbers from (p+1)/e^2, cyclotomic (13, 4):")
rep = cyclotomic_deviation_report(intersection_tensor(cyclotomic_scheme(13, 4)))
print(f"  max |c - (p+1)/e^2| = {rep.max_deviation} <= sqrt(13) + {rep.slack}: {rep.bound_ok}")
for row in rep.rows[:6]:
    print("   ", row)
print("   ...")
