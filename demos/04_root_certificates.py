"""Certified simple roots on the unit circle.

On the unit circle each family polynomial is proportional to the real
function g(theta) = 2 cos(theta/2) cos(M theta) + cos(nu theta) with
M = n + 3m and nu = n - 3/2.  The certificates prove a simple zero of g:
exactly for n = 1 (where g factors), and for n >= 2 by a sign-change bracket
whose end values have closed forms, plus an exact rational lower bound on
-g' over the bracket that is positive whenever 7M(2n - 3) > 11.
"""

import math

from knotalex import (
    FamilyParams,
    certify_family_root,
    circle_function,
    closed_form_alexander,
    residual_at_certified_root,
)

print("== an exact certificate (n = 1) ==")
cert = certify_family_root(FamilyParams(1, 1))
print(f"kind:       {cert.kind.value}")
print(f"theta_star: {cert.theta_star}  (= pi/6: {math.isclose(cert.theta_star, math.pi / 6)})")
print(f"witness:    {cert.witness}")

print()
print("== an interval certificate (n = 2) ==")
params = FamilyParams(2, 1)
cert = certify_family_root(params)
print(f"kind:      {cert.kind.value}")
print(f"bracket:   ({cert.theta_lo:.6f}, {cert.theta_hi:.6f})"
      f"  with g = {cert.g_at_lo:+.4f} / {cert.g_at_hi:+.4f} at the ends")
print(f"theta_star: {cert.theta_star}")
print(f"            (this member is the (3, 5) torus knot, root 2*pi/15 = {2 * math.pi / 15})")
witness = cert.witness
print(f"monotonicity witness: -g' > {witness.bound} on the bracket "
      f"(M = {witness.big}, 2n - 3 = {witness.twice_nu})")
residual = residual_at_certified_root(params, cert)
print(f"|Delta(e^(i theta_star))| = {residual:.3e}")

print()
print("== g along the bracket ==")
for k in range(6):
    theta = cert.theta_lo + k * (cert.theta_hi - cert.theta_lo) / 5
    print(f"  g({theta:.4f}) = {circle_function(params, theta):+.6f}")

print()
print("== certificates across the grid ==")
print(f"{'(n, m)':8} {'kind':>18} {'theta_star':>14} {'residual':>10}")
for n, m in [(1, 2), (2, 2), (7, 3), (25, 25), (50, 50)]:
    params = FamilyParams(n, m)
    cert = certify_family_root(params)
    residual = residual_at_certified_root(params, cert)
    print(f"({n:2}, {m:2}) {cert.kind.value:>18} {cert.theta_star:>14.10f} {residual:>10.2e}")

print()
print("== large members (certificate only; the residual sums every term) ==")
for n, m in [(31400257, 1), (10**15, 10**15)]:
    cert = certify_family_root(FamilyParams(n, m))
    print(f"({n}, {m}): theta_star = {cert.theta_star:.6e}, "
          f"g = {cert.g_at_lo:+.3e} / {cert.g_at_hi:+.3e}, "
          f"-g' > {float(cert.witness.bound):.6e}")
