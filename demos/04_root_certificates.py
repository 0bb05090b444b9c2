"""Certified simple roots on the unit circle.

On the unit circle each family polynomial is proportional to the real
function g(theta) = 2 cos(theta/2) cos(M theta) + cos(nu theta) with
M = n + 3m and nu = n - 3/2.  The certificates prove a simple zero of g:
exactly for n = 1 (where g factors), and by a sign-change bracket plus a
proof that -g' > 0 on a few adaptive panels for n >= 2.
"""

import math

from knotalex import (
    FamilyParams,
    certify_family_root,
    circle_function,
    closed_form_alexander,
    find_simple_roots,
    residual_at_certified_root,
    torus_knot_alexander,
)

print("== an exact certificate (n = 1) ==")
cert = certify_family_root(FamilyParams(1, 1))
print(f"kind:       {cert.kind.value}")
print(f"theta_star: {cert.theta_star}  (= pi/6: {math.isclose(cert.theta_star, math.pi / 6)})")
print(f"witness:    {cert.monotone_witness}")

print()
print("== an interval certificate (n = 2) ==")
params = FamilyParams(2, 1)
cert = certify_family_root(params)
print(f"kind:      {cert.kind.value}")
print(f"bracket:   ({cert.theta_lo:.6f}, {cert.theta_hi:.6f})"
      f"  with g = {cert.g_at_lo:+.4f} / {cert.g_at_hi:+.4f} at the ends")
print(f"theta_star: {cert.theta_star}")
print(f"            (this member is the (3, 5) torus knot, root 2*pi/15 = {2 * math.pi / 15})")
witness = cert.monotone_witness
print(f"monotonicity witness: -g' > 0 on {witness.panels} adaptive panels "
      f"(narrowest {witness.panel_width:.6f}), "
      f"min(-g') = {witness.min_neg_derivative:.6f}")
residual = residual_at_certified_root(params, cert)
print(f"|Delta(e^(i theta_star))| = {residual:.3e}")

print()
print("== g along the bracket ==")
for k in range(6):
    theta = cert.theta_lo + k * (cert.theta_hi - cert.theta_lo) / 5
    print(f"  g({theta:.4f}) = {circle_function(params, theta):+.6f}")

print()
print("== the generic scanner ==")
roots = find_simple_roots(torus_knot_alexander(3, 4))
print("unit-circle roots of the (3, 4) torus polynomial in (0, pi):")
for root in roots:
    print(f"  theta = {root.theta_star:.12f}  (simple: {root.simple})")
print("expected: pi/6, pi/3, 5*pi/6 =",
      ", ".join(f"{v:.12f}" for v in (math.pi / 6, math.pi / 3, 5 * math.pi / 6)))

print()
print("== certificates across the grid ==")
print(f"{'(n, m)':8} {'kind':>18} {'theta_star':>14} {'residual':>10}")
for n, m in [(1, 2), (2, 2), (7, 3), (25, 25), (50, 50)]:
    params = FamilyParams(n, m)
    cert = certify_family_root(params)
    residual = residual_at_certified_root(params, cert)
    print(f"({n:2}, {m:2}) {cert.kind.value:>18} {cert.theta_star:>14.10f} {residual:>10.2e}")
