"""Alexander polynomials via Fox free calculus.

The pipeline: differentiate each relator with respect to each generator,
abelianize onto integer Laurent polynomials, delete one generator's column,
take the determinant, divide out that column's cyclotomic factor, and
normalize so the lowest degree is 0 and the value at t = 1 is +1.
"""

from knotalex import (
    alexander_matrix,
    alexander_polynomial,
    compute_weights,
    exact_div,
    format_poly,
    fox_derivative,
    normalize_knot_poly,
    parse_presentation,
    torus_knot_alexander,
)
from knotalex.laurent import t

TREFOIL = parse_presentation("gens: x y\nrel: x y x (y x y)^-1\n")

print("== the Fox derivative ==")
relator = TREFOIL.relators[0]
print(f"relator r = {relator}")
for gen in TREFOIL.generators:
    print(f"  dr/d{gen} = {fox_derivative(relator, gen)!r}")

print()
print("== abelianization weights ==")
weights = compute_weights(TREFOIL)
print(f"weights from the exponent-sum nullspace: {weights.as_dict()}")

print()
print("== the Alexander matrix ==")
matrix = alexander_matrix(TREFOIL)
for i in range(len(matrix.rows)):
    for gen in TREFOIL.generators:
        print(f"  A[{i}][{gen}] = {format_poly(matrix.entry(i, gen))}")

print()
print("== the polynomial ==")
delta = alexander_polynomial(TREFOIL)
print(f"trefoil: {format_poly(delta)}")
# deleting a column leaves the other entry as a 1 x 1 minor; divide out
# (t^weight - 1) / (t - 1) for the deleted generator and normalize
for gone, kept in [("x", "y"), ("y", "x")]:
    cycle = t ** matrix.weights[gone] - 1
    minor = normalize_knot_poly(exact_div(matrix.entry(0, kept) * (t - 1), cycle))
    print(f"  deleting column {gone}: {format_poly(minor)}  (equal: {minor == delta})")

print()
print("== torus knot cross-checks ==")
for p, q in [(2, 3), (3, 4), (3, 5), (2, 7)]:
    print(f"T({p},{q}): {format_poly(torus_knot_alexander(p, q))}")
print(f"the trefoil is T(2,3): {delta == torus_knot_alexander(2, 3)}")
