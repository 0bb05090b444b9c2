"""Fox calculus gives the family's closed form for every (n, m), not on a grid.

The family relator is the block word

    w^n (aw)^m a^-1 (aw)^-m w^-(n-1) (wa)^-m a^-1 (wa)^m,

whose block exponents are linear in n and m.  Its exponent sums are (-2, 1)
in (a, w) for every member, so the weights are a -> t and w -> t^2, column a
(weight 1) is the one the Alexander polynomial deletes, and Delta is the
abelianized d r / d w up to a unit.

A block B^k, where B has degree b and abelianized derivative D, has
abelianized derivative D (t^(kb) - 1) / (t^b - 1) for every integer k,
negative k and k = 0 included.  With U = t^n and V = t^m, the derivative
times (t^2 - 1)(t^3 - 1) is one Laurent polynomial in t, U and V, built here
from the blocks with no n or m fixed.  The identity

    (t + 1)(t^2 + t + 1) d r / d w
        = V^-3 (1 + t + t^2 V^3 + t^-1 U^2 V^3 + U^2 V^6 + t U^2 V^6)

is checked in Z[t^+-1, U^+-1, V^+-1] multiplied through by (t - 1)^2, which
is not a zero divisor.  Substituting U = t^n and V = t^m then gives the
closed form's quotient for every n, m >= 1.

A polynomial in t, U and V is a dict from exponent triples (i, j, k) of
t^i U^j V^k to nonzero integer coefficients.  A block exponent c + p n + q m
is the triple (c, p, q).
"""

import pytest

from knotalex.alexander import alexander_matrix
from knotalex.family import (
    FamilyParams,
    closed_form_alexander,
    knot_group_presentation,
)
from knotalex.foxcalc import Weights, abelianize, compute_weights, fox_derivative
from knotalex.laurent import LaurentPoly, t
from knotalex.words import parse_word

#: (base word, exponent as (constant, n, m)) for each block, left to right.
BLOCKS = (
    ("w", (0, 1, 0)),
    ("a w", (0, 0, 1)),
    ("a", (-1, 0, 0)),
    ("a w", (0, 0, -1)),
    ("w", (1, -1, 0)),
    ("w a", (0, 0, -1)),
    ("a", (-1, 0, 0)),
    ("w a", (0, 0, 1)),
)
GENERATORS = ("a", "w")
WEIGHTS = Weights(tuple(zip(GENERATORS, (1, 2))))
#: (t^2 - 1)(t^3 - 1) / (t^b - 1) for the degree b of each base with d/dw != 0.
COFACTOR = {2: t**3 - 1, 3: t**2 - 1}
#: The six-term numerator N; the identity's right side is V^-3 N.
NUMERATOR = dict.fromkeys(
    [(0, 0, 0), (1, 0, 0), (2, 0, 3), (-1, 2, 3), (0, 2, 6), (1, 2, 6)], 1
)
MEMBERS = [(1, 1), (1, 2), (2, 1), (3, 2), (7, 5), (1, 40), (40, 1), (300, 300)]


def _add(p, q):
    out = dict(p)
    for key, coeff in q.items():
        out[key] = out.get(key, 0) + coeff
    return {key: coeff for key, coeff in out.items() if coeff}


def _mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: coeff for key, coeff in out.items() if coeff}


def _lift(poly: LaurentPoly):
    """A polynomial in t alone, as exponent triples."""
    return {(exp, 0, 0): coeff for exp, coeff in poly.items()}


def _at(p, n, m) -> LaurentPoly:
    """Substitute U = t^n and V = t^m."""
    return LaurentPoly((i + j * n + k * m, coeff) for (i, j, k), coeff in p.items())


def _block_word(n, m):
    word = parse_word("", GENERATORS)
    for base, (c, p, q) in BLOCKS:
        word = word * parse_word(base, GENERATORS) ** (c + p * n + q * m)
    return word


def _derivative_times_denominator():
    """(t^2 - 1)(t^3 - 1) d r / d w, abelianized, with U and V symbolic."""
    total, prefix = {}, (0, 0, 0)
    for base, exponent in BLOCKS:
        word = parse_word(base, GENERATORS)
        b = WEIGHTS.degree(word)
        power = tuple(b * e for e in exponent)  # the degree of base^exponent
        derivative = abelianize(fox_derivative(word, "w"), WEIGHTS)
        if derivative:
            cycle = _add({power: 1}, {(0, 0, 0): -1})  # t^(kb) - 1
            block = _mul(_lift(derivative * COFACTOR[b]), cycle)
            total = _add(total, _mul({prefix: 1}, block))
        prefix = tuple(x + y for x, y in zip(prefix, power))
    assert prefix == (0, 0, 0)  # r has degree zero
    return total


def test_exponent_sums_are_minus_two_and_one_for_every_member():
    for gen, expected in (("a", -2), ("w", 1)):
        total = [0, 0, 0]
        for base, exponent in BLOCKS:
            step = parse_word(base, GENERATORS).exponent_sum(gen)
            total = [x + step * e for x, e in zip(total, exponent)]
        assert total == [expected, 0, 0], gen


def test_identity_holds_in_three_variables():
    square = _lift((t - 1) ** 2)
    expected = _mul(_mul(square, {(0, 0, -3): 1}), NUMERATOR)
    assert _derivative_times_denominator() == expected


@pytest.mark.parametrize("n, m", MEMBERS)
def test_blocks_are_the_package_relator(n, m):
    presentation = knot_group_presentation(FamilyParams(n, m))
    assert _block_word(n, m) == presentation.relators[0]  # both freely reduced
    assert compute_weights(presentation) == WEIGHTS


@pytest.mark.parametrize("n, m", MEMBERS)
def test_substitution_is_the_package_derivative(n, m):
    matrix = alexander_matrix(knot_group_presentation(FamilyParams(n, m)))
    (row,) = matrix.rows
    expected = _at(_derivative_times_denominator(), n, m)
    assert row[1] * (t**2 - 1) * (t**3 - 1) == expected
    # the closed form is N / ((t + 1)(t^2 + t + 1)) with U = t^n, V = t^m
    assert closed_form_alexander(n, m) * (t + 1) * (t**2 + t + 1) == _at(NUMERATOR, n, m)
    if n + m < 10:  # the reference route is quadratic in the relator length
        relator = _block_word(n, m)
        assert abelianize(fox_derivative(relator, "w"), WEIGHTS) == row[1]


def test_span_is_twice_the_genus_for_every_member():
    # The t-degree of t^i U^j V^k is i + j n + k m.  N's lowest term is 1 and
    # its highest t U^2 V^6: every other term differs from them by a form
    # with n and m coefficients >= 0 and a positive value at n = m = 1, so
    # both are strict extremes, coefficient 1, for all n, m >= 1.
    low, high = (0, 0, 0), (1, 2, 6)
    assert NUMERATOR[low] == NUMERATOR[high] == 1
    for term in NUMERATOR.keys() - {low, high}:
        for below, above in ((low, term), (term, high)):
            gap = [y - x for x, y in zip(below, above)]
            assert gap[1] >= 0 and gap[2] >= 0 and sum(gap) > 0, (below, above)
    # N has span 2n + 6m + 1; dividing by the cubic takes 3 off.
    span = tuple(y - x for x, y in zip(low, high))
    assert (span[0] - 3, span[1], span[2]) == (-2, 2, 6)
