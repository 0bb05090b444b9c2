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

The same bookkeeping shows the preferred longitude null-homologous for every
member: its seven block exponents are affine in n and m too, and its
homology class a + 2w (weights a -> t, w -> t^2) vanishes as an affine form.

A polynomial in t, U and V is a dict from exponent triples (i, j, k) of
t^i U^j V^k to nonzero integer coefficients.  A block exponent c + p n + q m
is the triple (c, p, q).

The braid check ties the closed form to the knot's definition rather than to
the package's presentation.  The member (n, m) is the closure of the 3-braid
(s1 s2)^(3m+2) s1^(2(n-2)), and for a 3-braid beta the reduced Burau matrix
psi(beta) gives (1 + t + t^2) Delta(t) = det(I - psi(beta)) up to a unit
(Burau 1936; Birman, Braids, Links and Mapping Class Groups, 1974).  It is
checked on a grid, and symbolically for every (n, m) with the same triples,
now for U = t^(3m) and V = t^(2(n-2)): psi((s1 s2)^3) = t^3 I, so the
(3m)-th power is U I; (1 + t) psi(s1)^(2(n-2)) = [[(1 + t) V, 1 - V],
[0, 1 + t]] for every n >= 1, by induction on the twists; and then

    (1 + t)^2 det(I - psi(beta))
        = (1 + t)(1 + t + t^2 U + t^3 U V + t^4 U^2 V + t^5 U^2 V)

exactly, with no unit.  In the Fox variables the bracket is the six-term
numerator N, so det(I - psi(beta)) = N / (1 + t) = (1 + t + t^2) Delta.
"""

import pytest

from knotalex.alexander import alexander_matrix, torus_knot_alexander
from knotalex.family import (
    FamilyParams,
    closed_form_alexander,
    knot_group_presentation,
    preferred_longitude,
)
from knotalex.foxcalc import Weights, abelianize, compute_weights, fox_derivative
from knotalex.laurent import LaurentPoly, exact_div, normalize_knot_poly, t
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
#: The same for each factor of preferred_longitude, left to right.
LONGITUDE = (
    ("a", (2, -4, -9)),
    ("w a", (0, 0, 1)),
    ("w", (0, 1, 0)),
    ("a w", (-1, 0, 1)),
    ("a", (1, 0, 0)),
    ("w", (0, 1, 0)),
    ("a w", (0, 0, 1)),
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


def _block_word(n, m, blocks=BLOCKS):
    word = parse_word("", GENERATORS)
    for base, (c, p, q) in blocks:
        word = word * parse_word(base, GENERATORS) ** (c + p * n + q * m)
    return word


def _exponent_sum(blocks, gen):
    """A generator's exponent sum over the blocks, as (constant, n, m)."""
    total = [0, 0, 0]
    for base, exponent in blocks:
        step = parse_word(base, GENERATORS).exponent_sum(gen)
        total = [x + step * e for x, e in zip(total, exponent)]
    return total


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
    assert _exponent_sum(BLOCKS, "a") == [-2, 0, 0]
    assert _exponent_sum(BLOCKS, "w") == [1, 0, 0]


def test_longitude_is_null_homologous_for_every_member():
    a_sum = _exponent_sum(LONGITUDE, "a")
    w_sum = _exponent_sum(LONGITUDE, "w")
    assert a_sum == [2, -4, -6]  # -4n - 6m + 2
    assert w_sum == [-1, 2, 3]  # 2n + 3m - 1
    assert [a + 2 * w for a, w in zip(a_sum, w_sum)] == [0, 0, 0]


@pytest.mark.parametrize("n, m", MEMBERS)
def test_longitude_factors_are_the_package_longitude(n, m):
    expected = preferred_longitude(FamilyParams(n, m))
    assert _block_word(n, m, LONGITUDE) == expected  # both freely reduced


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


ONE, ZERO, T_INVERSE = LaurentPoly.one(), LaurentPoly.zero(), LaurentPoly.monomial(-1)
#: The reduced Burau matrices of s1, s1^-1 and s2, as rows.
SIGMA1 = ((-t, ONE), (ZERO, ONE))
SIGMA1_INVERSE = ((-T_INVERSE, T_INVERSE), (ZERO, ONE))
SIGMA2 = ((ONE, ZERO), (t, -t))
IDENTITY = ((ONE, ZERO), (ZERO, ONE))


def _matmul(x, y):
    return tuple(
        tuple(x[i][0] * y[0][j] + x[i][1] * y[1][j] for j in range(2)) for i in range(2)
    )


def _matpow(x, k):
    result = IDENTITY
    while k:
        if k & 1:
            result = _matmul(result, x)
        x, k = _matmul(x, x), k >> 1
    return result


def _braid_alexander(n, m) -> LaurentPoly:
    """Normalized det(I - psi(beta)) / (1 + t + t^2) for the member's braid."""
    twist = _matpow(SIGMA1 if n >= 2 else SIGMA1_INVERSE, abs(2 * (n - 2)))
    beta = _matmul(_matpow(_matmul(SIGMA1, SIGMA2), 3 * m + 2), twist)
    (a, b), (c, d) = beta
    det = (1 - a) * (1 - d) - b * c
    return normalize_knot_poly(exact_div(det, 1 + t + t**2))


def test_inverse_burau_generator():
    assert _matmul(SIGMA1, SIGMA1_INVERSE) == IDENTITY


def test_braid_closure_gives_the_closed_form():
    for n in range(1, 30):
        for m in range(1, 30):
            assert _braid_alexander(n, m) == closed_form_alexander(n, m), (n, m)


def test_n_one_is_a_torus_knot():
    # (s1 s2)^(3m+2) s1^-2 closes to the torus knot T(3, 3m + 1)
    for m in range(1, 40):
        assert closed_form_alexander(1, m) == torus_knot_alexander(3, 3 * m + 1), m


#: (1 + t) psi(s1)^(2(n-2)) with V = t^(2(n-2)), as exponent triples.
TWIST = (
    ({(0, 0, 1): 1, (1, 0, 1): 1}, {(0, 0, 0): 1, (0, 0, 1): -1}),
    ({}, {(0, 0, 0): 1, (1, 0, 0): 1}),
)
#: The six-term bracket of the Burau identity, with U = t^(3m), V = t^(2(n-2)).
BURAU_NUMERATOR = dict.fromkeys(
    [(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 1, 1), (4, 2, 1), (5, 2, 1)], 1
)
ONE_PLUS_T = {(0, 0, 0): 1, (1, 0, 0): 1}


def _lift_matrix(x):
    return tuple(tuple(_lift(entry) for entry in row) for row in x)


def _symbolic_matmul(x, y):
    return tuple(
        tuple(_add(_mul(x[i][0], y[0][j]), _mul(x[i][1], y[1][j])) for j in range(2))
        for i in range(2)
    )


def _shift_v(x, step):
    """Substitute V -> t^step V in every entry."""
    return tuple(
        tuple({(i + step * k, j, k): c for (i, j, k), c in entry.items()} for entry in row)
        for row in x
    )


def test_burau_full_twist_is_central():
    # psi((s1 s2)^3) = t^3 I, so psi((s1 s2)^(3m)) = U I with U = t^(3m)
    cube = t**3
    assert _matpow(_matmul(SIGMA1, SIGMA2), 3) == ((cube, ZERO), (ZERO, cube))


def test_burau_twist_by_induction():
    # n = 2: s1^0 = I is TWIST at V = 1, over 1 + t
    assert tuple(tuple(_at(e, 0, 0) for e in row) for row in TWIST) == (
        (1 + t, ZERO),
        (ZERO, 1 + t),
    )
    # one more or one fewer full twist sends V to t^2 V or t^-2 V, so TWIST is
    # (1 + t) psi(s1)^(2(n-2)) for every n >= 1, exponent -2 at n = 1 included
    for generator, step in ((SIGMA1, 2), (SIGMA1_INVERSE, -2)):
        square = _lift_matrix(_matmul(generator, generator))
        assert _symbolic_matmul(TWIST, square) == _shift_v(TWIST, step)


def test_burau_identity_holds_in_three_variables():
    # psi(beta) = U psi(s1 s2)^2 psi(s1)^(2(n-2)), so (1 + t)(I - psi(beta)) is
    # (1 + t) I - U psi(s1 s2)^2 TWIST and its determinant is
    # (1 + t)^2 det(I - psi(beta)), with no unit
    rest = _symbolic_matmul(_lift_matrix(_matpow(_matmul(SIGMA1, SIGMA2), 2)), TWIST)
    (a, b), (c, d) = [[_mul({(0, 1, 0): -1}, entry) for entry in row] for row in rest]
    a, d = _add(ONE_PLUS_T, a), _add(ONE_PLUS_T, d)
    det = _add(_mul(a, d), _mul({(0, 0, 0): -1}, _mul(b, c)))
    assert det == _mul(ONE_PLUS_T, BURAU_NUMERATOR)


def test_burau_numerator_is_the_fox_numerator():
    # t^i U^j V^k with U = t^(3m), V = t^(2(n-2)) is t^(i-4k) U^(2k) V^(3j) in
    # the Fox variables U = t^n, V = t^m.  So det(I - psi(beta)) is
    # N / (1 + t) = (1 + t + t^2) Delta exactly, for every (n, m).
    fox = {(i - 4 * k, 2 * k, 3 * j): c for (i, j, k), c in BURAU_NUMERATOR.items()}
    assert fox == NUMERATOR
