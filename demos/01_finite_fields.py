#!/usr/bin/env python3
"""Walk through the exact field layer: contexts, nonresidues, r-th roots."""

from mschemes.factor import rth_root
from mschemes.gf import Poly, extension_for_levels, field_ctx, find_nonresidue

print("== field contexts ==")
f7 = field_ctx(7, 1)
f4 = field_ctx(2, 2)
print(f"F_7: order {f7.order}")
print(f"F_4: order {f4.order}, modulus coefficients {list(f4.modulus)} (x^2 + x + 1)")

print("\n== nonresidues (deterministic first-in-order scan) ==")
print("first quadratic nonresidue in F_7:", find_nonresidue(2, f7))
print("first cubic nonresidue in F_7:   ", find_nonresidue(3, f7))

print("\n== r-th roots ==")
a = f7.elem(2)
print("sqrt(2) in F_7 =", rth_root(a, 2), " (canonically least of the two roots)")
print("sqrt(3) in F_7 =", rth_root(f7.elem(3), 2), " (3 is a nonresidue)")

print("\n== polynomial layer ==")
f = Poly(f7, [-1, 0, 0, 1])
print("x^3 - 1 over F_7 has roots", [a.index for a in f7.elements() if f(a).is_zero()])

print("\n== smallest extension with s-th nonresidues for all s <= m ==")
for p, m in [(7, 4), (2, 3), (5, 3), (53, 3)]:
    k = extension_for_levels(field_ctx(p, 1), m)
    print(f"base F_{p}, levels up to {m}: extension degree {k.d} (order {k.order})")
