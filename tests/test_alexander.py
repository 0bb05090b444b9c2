"""Alexander polynomials: pipeline, closed form, torus knots, circle numerator."""

import math

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from _strategies import laurent_polys
from knotalex import alexander, foxcalc, laurent
from knotalex.alexander import (
    alexander_matrix,
    alexander_polynomial,
    closed_form_alexander,
    torus_knot_alexander,
)
from knotalex.errors import NotAKnotPolynomial, NotCoprime, ZeroWeightColumn
from knotalex.family import FamilyParams, knot_group_presentation
from knotalex.foxcalc import abelianize, compute_weights, fox_derivative
from knotalex.laurent import (
    LaurentPoly,
    eval_unit_circle,
    exact_div,
    normalize_knot_poly,
)
from knotalex.rootcert import circle_function
from knotalex.words import Presentation, Word, parse_presentation

TREFOIL_PRESENTATION = parse_presentation("gens: x y\nrel: x y x (y x y)^-1\n")
TREFOIL = LaurentPoly({0: 1, 1: -1, 2: 1})
T34 = LaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1})
T35 = LaurentPoly({0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 7: -1, 8: 1})

#: Wirtinger-style presentations with three and four generators.
MANY_GENERATORS = (
    parse_presentation(
        "gens: x1 x2 x3\nrel: x1 x2 x1^-1 x3^-1\nrel: x2 x3 x2^-1 x1^-1\n"
    ),
    parse_presentation(
        "gens: a b c d\n"
        "rel: a b a^-1 c^-1\nrel: b c b^-1 d^-1\nrel: c d^-2 (c^-1 a^-1)^3 c a^2 c\n"
    ),
)

_two_generator_relators = st.lists(
    st.tuples(
        st.sampled_from(("x", "y")),
        st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0),
    ),
    max_size=10,
).map(Word)


def assert_matrix_matches_fox_reference(presentation: Presentation) -> None:
    """Every entry equals the abelianized group-ring derivative."""
    matrix = alexander_matrix(presentation)
    weights = compute_weights(presentation)
    assert matrix.weights == weights
    assert len(matrix.rows) == len(presentation.relators)
    for relator, row in zip(presentation.relators, matrix.rows):
        assert len(row) == len(presentation.generators)
        for gen, entry in zip(presentation.generators, row):
            assert entry == abelianize(fox_derivative(relator, gen), weights), (
                relator.render(),
                gen,
            )


class TestMatrix:
    def test_trefoil_entry(self):
        matrix = alexander_matrix(TREFOIL_PRESENTATION)
        assert matrix.entry(0, "x") == LaurentPoly({0: 1, 1: -1, 2: 1})
        # the two columns are related by the usual sign/shift symmetry
        assert matrix.entry(0, "y") == LaurentPoly({0: -1, 1: 1, 2: -1})

    def test_identity_relator_gives_zero_row(self):
        p = Presentation(("x", "y"), (Word.generator("x") * Word.generator("x", -1),))
        # nullspace is 2-dimensional here, so weights fail first; check via
        # an explicit weighting that the derivative itself is zero
        from knotalex.foxcalc import fox_derivative

        assert fox_derivative(p.relators[0], "x").is_zero

    def test_matches_fox_reference_on_family_grid(self):
        for n in range(1, 7):
            for m in range(1, 7):
                presentation = knot_group_presentation(FamilyParams(n, m))
                assert_matrix_matches_fox_reference(presentation)

    @given(relator=_two_generator_relators)
    def test_matches_fox_reference_on_two_generator_relators(self, relator):
        # H1 has rank 1 exactly when some exponent sum is nonzero
        assume(relator.exponent_sum("x") or relator.exponent_sum("y"))
        assert_matrix_matches_fox_reference(Presentation(("x", "y"), (relator,)))

    def test_matches_fox_reference_on_many_generators(self):
        for presentation in MANY_GENERATORS:
            assert_matrix_matches_fox_reference(presentation)

    def test_builds_no_group_ring_element(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the Alexander matrix built a group-ring element")

        monkeypatch.setattr(foxcalc, "fox_derivative", refuse)
        monkeypatch.setattr(foxcalc.GroupRingElement, "__init__", refuse)
        assert not hasattr(alexander, "fox_derivative")
        assert not hasattr(alexander, "abelianize")
        presentation = knot_group_presentation(FamilyParams(3, 2))
        assert len(alexander_matrix(presentation).rows) == 1
        assert alexander_polynomial(presentation) == closed_form_alexander(3, 2)
        assert alexander_polynomial(MANY_GENERATORS[0]) == TREFOIL


def _cofactor_oracle(rows: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant by expansion along the first row: O(l!), for small sizes only."""
    if not rows:
        return LaurentPoly.one()
    total = LaurentPoly.zero()
    for j, entry in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = entry * _cofactor_oracle(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


@st.composite
def _square_matrices(draw) -> list[list[LaurentPoly]]:
    """Square Laurent matrices up to 5 x 5, often with zero pivots or singular.

    Entries are zero half the time, which leaves zero pivots for the row swap;
    optionally one row is replaced by a Laurent multiple of another, which
    makes the matrix singular.
    """
    size = draw(st.integers(min_value=0, max_value=5))
    entry = st.one_of(st.just(LaurentPoly.zero()), laurent_polys(max_terms=3))
    rows = [[draw(entry) for _ in range(size)] for _ in range(size)]
    if size >= 2 and draw(st.booleans()):
        source, target = draw(st.permutations(range(size)))[:2]
        factor = draw(laurent_polys(max_terms=2))
        rows[target] = [factor * poly for poly in rows[source]]
    return rows


def _poly_rows(*rows) -> list[list[LaurentPoly]]:
    return [[LaurentPoly(entry) for entry in row] for row in rows]


def torus_2k_wirtinger(k: int) -> Presentation:
    """Wirtinger presentation of T(2, k), k odd: x_(i+1) = x_i x_(i-1) x_i^-1, indices mod k.

    The relation for i = 0 follows from the others and is dropped.
    """
    gens = tuple(f"x{i}" for i in range(k))
    relators = tuple(
        Word(
            [(gens[i], 1), (gens[i - 1], 1), (gens[i], -1), (gens[(i + 1) % k], -1)]
        )
        for i in range(1, k)
    )
    return Presentation(gens, relators)


class TestDeterminant:
    @given(rows=_square_matrices())
    @example(rows=_poly_rows([{}, {0: 1}], [{1: 1}, {}]))  # zero pivot, swap
    @example(rows=_poly_rows([{}, {0: 2}], [{}, {1: 1}]))  # zero column
    def test_matches_cofactor_oracle(self, rows):
        assert alexander._determinant(rows) == _cofactor_oracle(rows)

    @pytest.mark.parametrize("k", [3, 5, 21, 41])
    def test_wirtinger_torus_2k(self, k):
        presentation = torus_2k_wirtinger(k)
        assert len(alexander_matrix(presentation).rows) == k - 1
        assert alexander_polynomial(presentation) == torus_knot_alexander(2, k)


class TestPipeline:
    def test_trefoil(self):
        assert alexander_polynomial(TREFOIL_PRESENTATION) == TREFOIL

    def test_family_members(self):
        k11 = knot_group_presentation(FamilyParams(1, 1))
        assert alexander_polynomial(k11) == T34
        k21 = knot_group_presentation(FamilyParams(2, 1))
        assert alexander_polynomial(k21) == T35

    def test_column_choice_is_irrelevant(self):
        for n, m in [(1, 1), (2, 2), (4, 1), (3, 3)]:
            p = knot_group_presentation(FamilyParams(n, m))
            assert alexander_polynomial(p, via="a") == alexander_polynomial(p, via="w")

    def test_explicit_via_unknown_generator(self):
        with pytest.raises(ValueError):
            alexander_polynomial(TREFOIL_PRESENTATION, via="z")

    def test_zero_weight_column_rejected(self):
        y = Word.generator("y")
        p = Presentation(("x", "y"), (y**2,))
        with pytest.raises(ZeroWeightColumn):
            alexander_polynomial(p, via="y")

    def test_torsion_fails_with_value_at_one(self):
        # H1 = Z + Z/1000000: the exponent sums alone show it, before any Fox
        # calculus on the 5M-letter relator
        p = parse_presentation("gens: x y\nrel: x^3000000 y^-2000000\n")
        with pytest.raises(NotAKnotPolynomial) as exc_info:
            alexander_polynomial(p)
        assert str(exc_info.value) == "value at t = 1 is -1000000, expected +1 or -1"

    def test_small_torsion_matches_polynomial_value(self):
        # H1 = Z + Z/3; the value keeps the sign the polynomial would have had
        p = parse_presentation("gens: x y\nrel: x^9 y^-6\n")
        for via, value in (("x", -3), ("y", 3)):
            with pytest.raises(NotAKnotPolynomial, match=f"^value at t = 1 is {value},"):
                alexander_polynomial(p, via=via)

    def test_unknot(self):
        assert alexander_polynomial(Presentation(("a",), ())) == LaurentPoly.one()

    def test_torus_like_presentation_x2_y3(self):
        # <x, y | x^2 (y^3)^-1> also presents the trefoil group, and
        # <x, y | x (y x)^k y^-1> the group of the (2, 2k + 1) torus knot
        for relator, expected in [
            ("x^2 y^-3", TREFOIL),
            ("x (y x)^2000 y^-1", torus_knot_alexander(2, 2001)),
        ]:
            p = parse_presentation(f"gens: x y\nrel: {relator}\n")
            assert alexander_polynomial(p) == expected, relator


def _closed_form_oracle(n: int, m: int) -> LaurentPoly:
    """The family polynomial by long division of the six-term numerator."""
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


class TestClosedForm:
    def test_matches_division_oracle_on_grid(self):
        for n in range(1, 41):
            for m in range(1, 41):
                assert closed_form_alexander(n, m) == _closed_form_oracle(n, m), (n, m)

    @settings(deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=5000),
        m=st.integers(min_value=1, max_value=5000),
    )
    @example(n=100000, m=10000)
    @example(n=150000, m=1)
    def test_matches_division_oracle(self, n, m):
        assert closed_form_alexander(n, m) == _closed_form_oracle(n, m)

    def test_needs_no_long_division(self, monkeypatch):
        expected = _closed_form_oracle(300, 300)

        def refuse(*args, **kwargs):
            raise AssertionError("the closed form ran a long division")

        monkeypatch.setattr(alexander, "exact_div", refuse)
        monkeypatch.setattr(laurent, "exact_div", refuse)
        assert closed_form_alexander(300, 300) == expected

    def test_small_members(self):
        assert closed_form_alexander(1, 1) == T34
        assert closed_form_alexander(2, 1) == T35

    def test_span(self):
        assert closed_form_alexander(3, 2).span == 16

    def test_normalized(self):
        for n, m in [(1, 1), (3, 2), (5, 4)]:
            p = closed_form_alexander(n, m)
            assert p.min_degree == 0
            assert p.evaluate(1) == 1

    def test_normalization_is_identity(self):
        # the dense coefficients are already the normalized representative,
        # so the residual may sum them without building the polynomial
        members = [(n, m) for n in range(1, 41) for m in range(1, 41)]
        for n, m in [*members, (150000, 1), (100000, 10000)]:
            dense = alexander._closed_form_coefficients(n, m)
            assert len(dense) == 2 * n + 6 * m - 1
            assert closed_form_alexander(n, m) == LaurentPoly(dict(enumerate(dense)))

    def test_torus_knot_degeneration(self):
        for m in range(1, 11):
            assert closed_form_alexander(2, m) == torus_knot_alexander(3, 3 * m + 2)

    def test_invalid_params(self):
        for n, m in [(0, 1), (1, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                closed_form_alexander(n, m)


class TestTorusKnots:
    def test_trefoil(self):
        assert torus_knot_alexander(2, 3) == TREFOIL

    def test_t34_and_t35(self):
        assert torus_knot_alexander(3, 4) == T34
        assert torus_knot_alexander(3, 5) == T35

    def test_symmetry(self):
        assert torus_knot_alexander(4, 7) == torus_knot_alexander(7, 4)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            torus_knot_alexander(4, 6)

    def test_parameters_below_two(self):
        with pytest.raises(ValueError):
            torus_knot_alexander(1, 5)


class TestCircleNumerator:
    """2*g(theta) is the numerator of Delta transported to the unit circle."""

    def test_matches_polynomial_on_circle(self):
        theta = 0.3
        delta = closed_form_alexander(2, 1)
        lhs = abs(eval_unit_circle(delta, theta)) * abs(
            2 * math.cos(theta / 2) * (2 * math.cos(theta) + 1)
        )
        assert lhs == pytest.approx(
            abs(2 * circle_function(FamilyParams(2, 1), theta)), abs=1e-9
        )

    def test_matches_polynomial_on_circle_grid(self):
        for n, m in [(1, 1), (2, 3), (4, 2), (7, 5)]:
            delta = closed_form_alexander(n, m)
            for theta in (0.17, 0.4, 1.1, 2.0):
                lhs = abs(eval_unit_circle(delta, theta)) * abs(
                    2 * math.cos(theta / 2) * (2 * math.cos(theta) + 1)
                )
                assert lhs == pytest.approx(
                    abs(2 * circle_function(FamilyParams(n, m), theta)), abs=1e-8
                )
