"""Alexander polynomials from presentations, closed forms, and torus knots.

For a deficiency-one presentation with generators a_1..a_l and relators
r_1..r_(l-1), the matrix entry A[i][j] is the abelianized free derivative
of r_i by a_j.  Deleting any column j whose generator has nonzero weight e_j
gives a square minor whose determinant satisfies

    det(A_j) * (t - 1) = Delta(t) * (t^e_j - 1)    up to a unit +-t^k,

so the polynomial is the exact quotient det(A_j) * (t - 1) / (t^e_j - 1),
normalized.  The choice of deleted column does not change the result.  The
determinant is taken by Bareiss fraction-free elimination, exact division,
in O(l^3) ring operations.  At t = 1 the matrix is the integer exponent-sum
matrix E, and the polynomial's value there is det(E_j) / e_j; that value is
checked to be +-1 before any free derivative is taken, so torsion in H1 is
rejected from the exponent sums alone.

The family's closed form lives in ``family`` and is re-exported here.  For
n = 2 the family degenerates to (3, 3m+2) torus knots, which gives an
independent cross-check against the classical torus knot formula.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import NotAKnotPolynomial, NotCoprime, ZeroWeightColumn
from .family import _closed_form_coefficients, closed_form_alexander  # noqa: F401
from .foxcalc import Weights, _abelianized_row, compute_weights
from .laurent import LaurentPoly, exact_div, normalize_knot_poly
from .words import Presentation

AUTO = "auto"


@record
class AlexanderMatrix:
    """The (l-1) x l matrix of abelianized free derivatives of the relators."""

    generators: tuple[str, ...]
    weights: Weights
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def entry(self, i: int, gen: str) -> LaurentPoly:
        return self.rows[i][self.generators.index(gen)]


def _rows(
    presentation: Presentation, weights: Weights
) -> tuple[tuple[LaurentPoly, ...], ...]:
    """One row of abelianized free derivatives per relator."""
    return tuple(
        _abelianized_row(relator, presentation.generators, weights)
        for relator in presentation.relators
    )


def alexander_matrix(presentation: Presentation) -> AlexanderMatrix:
    weights = compute_weights(presentation)
    return AlexanderMatrix(
        presentation.generators, weights, _rows(presentation, weights)
    )


def _determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Bareiss fraction-free elimination, exact division.

    After step k every entry below and right of the pivot is a (k+1) x (k+1)
    minor of the input, so by Sylvester's identity the division by the
    previous pivot is exact in Z[t^+-1].  A zero pivot is replaced by a lower
    row with a nonzero entry in its column (flipping the sign); if there is
    none the determinant is zero.
    """
    if not rows:
        return LaurentPoly.one()
    a = [list(row) for row in rows]
    size = len(a)
    sign = 1
    previous = LaurentPoly.one()
    for k in range(size - 1):
        if a[k][k].is_zero:
            swap = next((i for i in range(k + 1, size) if not a[i][k].is_zero), None)
            if swap is None:
                return LaurentPoly.zero()
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot, pivot_row = a[k][k], a[k]
        divide = previous != 1
        for i in range(k + 1, size):
            row = a[i]
            factor = row[k]
            for j in range(k + 1, size):
                entry = row[j]
                if not (factor.is_zero or pivot_row[j].is_zero):
                    entry = pivot * entry - factor * pivot_row[j]
                elif entry.is_zero:
                    continue
                else:
                    entry = pivot * entry
                row[j] = exact_div(entry, previous) if divide else entry
        previous = pivot
    return a[-1][-1] if sign == 1 else -a[-1][-1]


def alexander_polynomial(presentation: Presentation, via: str = AUTO) -> LaurentPoly:
    """Normalized Alexander polynomial of a deficiency-one presentation.

    ``via`` names the generator whose column is deleted; ``"auto"`` picks the
    generator with the smallest positive weight (ties broken by declaration
    order).  Deleting a zero-weight column is rejected because the formula
    divides by t^weight - 1.

    Torsion in H1 is caught before any Fox calculus: the polynomial's value
    at t = 1 is det(E_j) / e_j, where E_j is the integer exponent-sum matrix
    without the deleted column, and it must be +-1.
    """
    weights = compute_weights(presentation)
    gens = presentation.generators
    if via == AUTO:
        candidates = [(weights[g], i) for i, g in enumerate(gens)]
        candidates = [(w, i) for w, i in candidates if w > 0]
        removed = min(candidates)[1]
    else:
        if via not in gens:
            raise ValueError(f"{via!r} is not a generator of this presentation")
        removed = gens.index(via)
        if weights[via] == 0:
            raise ZeroWeightColumn(
                f"generator {via!r} has weight 0; its column cannot be removed"
            )
    weight = weights[gens[removed]]
    sums = [
        [
            LaurentPoly.monomial(0, rel.exponent_sum(g))
            for j, g in enumerate(gens)
            if j != removed
        ]
        for rel in presentation.relators
    ]
    # Exact: the quotient q below satisfies q * (1 + t + ... + t^(e_j - 1)) =
    # det(A_j), so q(1) = det(E_j) / e_j, the value normalization checks.
    value = _determinant(sums).coefficient(0) // weight
    if value not in (1, -1):
        raise NotAKnotPolynomial(f"value at t = 1 is {value}, expected +1 or -1")
    minor = [
        [poly for j, poly in enumerate(row) if j != removed]
        for row in _rows(presentation, weights)
    ]
    numerator = _determinant(minor) * LaurentPoly({1: 1, 0: -1})
    denominator = LaurentPoly({weight: 1, 0: -1})
    return normalize_knot_poly(exact_div(numerator, denominator))


def torus_knot_alexander(p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q) torus knot, p, q >= 2 coprime."""
    if not (isinstance(p, int) and isinstance(q, int)) or p < 2 or q < 2:
        raise ValueError("torus knot parameters must be integers >= 2")
    if math.gcd(p, q) != 1:
        raise NotCoprime(f"gcd({p}, {q}) != 1")
    cycle = lambda k: LaurentPoly({k: 1, 0: -1})  # noqa: E731 - t^k - 1
    quotient = exact_div(cycle(p * q), cycle(p))
    return normalize_knot_poly(exact_div(quotient * cycle(1), cycle(q)))

