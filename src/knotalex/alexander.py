"""Alexander polynomials from presentations, closed forms, and torus knots.

For a deficiency-one presentation with generators a_1..a_l and relators
r_1..r_(l-1), the matrix entry A[i][j] is the abelianized free derivative
of r_i by a_j.  Deleting any column j whose generator has nonzero weight e_j
gives a square minor whose determinant satisfies

    det(A_j) * (t - 1) = Delta(t) * (t^e_j - 1)    up to a unit +-t^k,

so the polynomial is the exact quotient det(A_j) * (t - 1) / (t^e_j - 1),
normalized.  The choice of deleted column does not change the result.

The built-in twisted torus knot family admits a closed form: the normalized
quotient of 1 + t + t^(3m+2) + t^(2n+3m-1) + t^(2n+6m) + t^(2n+6m+1) by
(t + 1)(t^2 + t + 1).  For n = 2 the family degenerates to (3, 3m+2) torus
knots, which gives an independent cross-check against the classical torus
knot formula.
"""

from __future__ import annotations

import dataclasses
import math

from .errors import NotCoprime, ZeroWeightColumn
from .foxcalc import Weights, _abelianized_row, compute_weights
from .laurent import LaurentPoly, exact_div, normalize_knot_poly
from .words import Presentation

AUTO = "auto"


@dataclasses.dataclass(frozen=True)
class AlexanderMatrix:
    """The (l-1) x l matrix of abelianized free derivatives of the relators."""

    generators: tuple[str, ...]
    weights: Weights
    rows: tuple[tuple[LaurentPoly, ...], ...]

    def entry(self, i: int, gen: str) -> LaurentPoly:
        return self.rows[i][self.generators.index(gen)]


def alexander_matrix(presentation: Presentation) -> AlexanderMatrix:
    weights = compute_weights(presentation)
    rows = tuple(
        _abelianized_row(relator, presentation.generators, weights)
        for relator in presentation.relators
    )
    return AlexanderMatrix(presentation.generators, weights, rows)


def _determinant(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Cofactor expansion; fine at the small sizes deficiency-one allows."""
    size = len(rows)
    if size == 0:
        return LaurentPoly.one()
    if size == 1:
        return rows[0][0]
    total = LaurentPoly.zero()
    for j in range(size):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * _determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def alexander_polynomial(presentation: Presentation, via: str = AUTO) -> LaurentPoly:
    """Normalized Alexander polynomial of a deficiency-one presentation.

    ``via`` names the generator whose column is deleted; ``"auto"`` picks the
    generator with the smallest positive weight (ties broken by declaration
    order).  Deleting a zero-weight column is rejected because the formula
    divides by t^weight - 1.
    """
    matrix = alexander_matrix(presentation)
    gens = matrix.generators
    if via == AUTO:
        candidates = [(matrix.weights[g], i) for i, g in enumerate(gens)]
        candidates = [(w, i) for w, i in candidates if w > 0]
        removed = min(candidates)[1]
    else:
        if via not in gens:
            raise ValueError(f"{via!r} is not a generator of this presentation")
        removed = gens.index(via)
        if matrix.weights[via] == 0:
            raise ZeroWeightColumn(
                f"generator {via!r} has weight 0; its column cannot be removed"
            )
    minor = [
        [poly for j, poly in enumerate(row) if j != removed] for row in matrix.rows
    ]
    weight = matrix.weights[gens[removed]]
    numerator = _determinant(minor) * LaurentPoly({1: 1, 0: -1})
    denominator = LaurentPoly({weight: 1, 0: -1})
    return normalize_knot_poly(exact_div(numerator, denominator))


def closed_form_alexander(n: int, m: int) -> LaurentPoly:
    """Closed-form Alexander polynomial of the (n, m) twisted torus knot."""
    if not (isinstance(n, int) and isinstance(m, int)) or n < 1 or m < 1:
        raise ValueError("closed form requires integers n >= 1 and m >= 1")
    # Exponent collisions, were they ever to occur, must accumulate.
    numerator = LaurentPoly(
        [
            (0, 1),
            (1, 1),
            (3 * m + 2, 1),
            (2 * n + 3 * m - 1, 1),
            (2 * n + 6 * m, 1),
            (2 * n + 6 * m + 1, 1),
        ]
    )
    denominator = LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})  # (t+1)(t^2+t+1)
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


def circle_numerator(n: int, m: int) -> tuple[tuple[float, int], ...]:
    """Cosine spectrum of the family polynomial transported to the unit circle.

    Returns (frequency, coefficient) pairs such that the value
    2 * sum(c * cos(s * theta)) equals, in absolute value,
    |Delta(e^(i*theta))| * |2*cos(theta/2)| * |2*cos(theta) + 1|.
    The frequencies are half-integers, exact in binary floating point.
    """
    if not (isinstance(n, int) and isinstance(m, int)) or n < 1 or m < 1:
        raise ValueError("requires integers n >= 1 and m >= 1")
    return (
        (n + 3 * m + 0.5, 1),
        (n + 3 * m - 0.5, 1),
        (n - 1.5, 1),
    )


def circle_numerator_value(n: int, m: int, theta: float) -> float:
    """Evaluate the circle numerator: 2 * sum of c * cos(s * theta)."""
    return 2.0 * sum(
        coeff * math.cos(freq * theta) for freq, coeff in circle_numerator(n, m)
    )
