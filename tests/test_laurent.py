"""Laurent polynomials: exact arithmetic, division, normalization, circle data."""

import json
import math
import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from _strategies import _eval_oracle, laurent_polys
from knotalex.errors import (
    DivisionByZero,
    NotAKnotPolynomial,
    NotDivisible,
    NotPalindromic,
    OddSpan,
)
from knotalex.laurent import (
    LaurentPoly,
    centered_cosine_form,
    centered_cosine_value,
    eval_unit_circle,
    exact_div,
    format_poly,
    from_json_dict,
    is_palindromic,
    normalize_knot_poly,
    t,
    to_json_dict,
)

# Frozen reference polynomials (hand-checked products/quotients).
TREFOIL = LaurentPoly({0: 1, 1: -1, 2: 1})
T34 = LaurentPoly({0: 1, 1: -1, 3: 1, 5: -1, 6: 1})
T35 = LaurentPoly({0: 1, 1: -1, 3: 1, 4: -1, 5: 1, 7: -1, 8: 1})
SIX_TERM_11 = LaurentPoly({0: 1, 1: 1, 4: 1, 5: 1, 8: 1, 9: 1})
CUBIC = LaurentPoly({0: 1, 1: 2, 2: 2, 3: 1})  # (t+1)(t^2+t+1)


class TestArithmetic:
    def test_add_cancels(self):
        assert (t - 1) + (1 - t) == LaurentPoly.zero()

    @pytest.mark.parametrize(
        "coeffs",
        [{True: 3}, {1: False}, {0: 1.0}, {"1": 1}],
        ids=["bool-exp", "bool-coeff", "float", "str"],
    )
    def test_constructor_rejects_non_integers(self, coeffs):
        # a bool exponent used to reach to_json_dict as "min_degree": true
        message = "^exponents and coefficients must be integers$"
        with pytest.raises(TypeError, match=message):
            LaurentPoly(coeffs)

    def test_duplicate_exponents_accumulate(self):
        assert LaurentPoly([(2, 1), (2, 1), (0, -1)]) == LaurentPoly({2: 2, 0: -1})
        assert LaurentPoly([(1, 1), (1, -1)]) == LaurentPoly.zero()

    def test_negative_exponents(self):
        p = LaurentPoly({-3: 1, 0: -1, 2: 4})
        assert p.min_degree == -3 and p.max_degree == 2 and p.span == 5

    def test_four_factor_product(self):
        product = (
            LaurentPoly({2: 1, 1: 1, 0: 1})
            * LaurentPoly({2: 1, 1: -1, 0: 1})
            * LaurentPoly({4: 1, 2: -1, 0: 1})
            * (t + 1)
        )
        assert product == SIX_TERM_11

    def test_evaluate(self):
        assert T34.evaluate(1) == 1
        assert T34.evaluate(-1) == 3  # determinant of the (3,4) torus knot
        assert LaurentPoly({-2: 3}).evaluate(2) == pytest.approx(0.75)

    @given(p=laurent_polys(), q=laurent_polys(), r=laurent_polys())
    def test_ring_laws(self, p, q, r):
        assert p + q == q + p
        assert p * q == q * p
        assert (p + q) + r == p + (q + r)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + LaurentPoly.zero() == p
        assert p * LaurentPoly.one() == p
        assert p + (-p) == LaurentPoly.zero()


class TestExactDiv:
    def test_simple(self):
        assert exact_div(t**2 - 1, t + 1) == t - 1

    def test_six_term_by_cubic(self):
        assert exact_div(SIX_TERM_11, CUBIC) == T34

    def test_negative_exponent_shift(self):
        p = LaurentPoly({-2: 1, -1: 1})  # t^-2 (1 + t)
        assert exact_div(p, t + 1) == LaurentPoly({-2: 1})

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            exact_div(t**2 + 1, t + 1)

    def test_not_divisible_coefficient(self):
        with pytest.raises(NotDivisible):
            exact_div(t + 1, LaurentPoly({0: 2}))

    def test_zero_dividend(self):
        assert exact_div(LaurentPoly.zero(), t + 1) == LaurentPoly.zero()

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            exact_div(t + 1, LaurentPoly.zero())

    @given(q=laurent_polys(), r=laurent_polys())
    def test_multiply_then_divide_round_trips(self, q, r):
        if q.is_zero:
            return
        assert exact_div(q * r, q) == r


class TestNormalize:
    def test_already_normal(self):
        phi15 = T35
        assert normalize_knot_poly(phi15) == phi15

    def test_shift(self):
        assert normalize_knot_poly(LaurentPoly({-4 + e: c for e, c in T35.items()})) == T35

    def test_sign_and_shift(self):
        p = LaurentPoly({3: -1, 4: 1, 5: -1})  # -t^3 * (1 - t + t^2)
        assert normalize_knot_poly(p) == TREFOIL

    def test_rejects_wrong_value_at_one(self):
        with pytest.raises(NotAKnotPolynomial):
            normalize_knot_poly(2 * t + 1)
        with pytest.raises(NotAKnotPolynomial):
            normalize_knot_poly(LaurentPoly.zero())

    def test_idempotent_and_unit_invariant(self):
        rng = random.Random(7)
        for pool in (TREFOIL, T34, T35):
            for _ in range(20):
                k = rng.randrange(-6, 7)
                sign = rng.choice((1, -1))
                unit_multiple = LaurentPoly({k: sign}) * pool
                result = normalize_knot_poly(unit_multiple)
                assert result == pool
                assert normalize_knot_poly(result) == result


class TestPalindromic:
    def test_examples(self):
        assert is_palindromic(TREFOIL)
        assert is_palindromic(T35)
        assert not is_palindromic(LaurentPoly({0: -1, 1: 1, 2: 1}))

    def test_monomial(self):
        assert is_palindromic(LaurentPoly({5: 3}))

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_palindromic(LaurentPoly.zero())


class TestUnitCircle:
    def test_t_minus_one_at_zero(self):
        assert eval_unit_circle(t - 1, 0.0) == 0

    def test_trefoil_at_pi_over_3(self):
        assert abs(eval_unit_circle(TREFOIL, math.pi / 3)) < 1e-12

    def test_t35_at_primitive_15th_root(self):
        assert abs(eval_unit_circle(T35, 2 * math.pi / 15)) < 1e-9

    @given(
        p=st.dictionaries(
            keys=st.integers(min_value=-300, max_value=300),
            values=st.integers(min_value=-(2**80), max_value=2**80),
            max_size=40,
        ).map(LaurentPoly),
        theta=st.sampled_from([0.0, -0.0, math.pi, -1.25, 5e3])
        | st.floats(min_value=-1e4, max_value=1e4),
    )
    @example(p=LaurentPoly.zero(), theta=1.0)
    @example(p=LaurentPoly({-3: 2**60 + 1, 0: -1, 7: 3}), theta=-0.0)
    def test_bit_identical_to_oracle(self, p, theta):
        # the printed residual digits depend on every term and on the order
        # of the summation, so the value must match the oracle's bit for bit
        assert repr(eval_unit_circle(p, theta)) == repr(_eval_oracle(p, theta))


class TestCosineForm:
    def test_trefoil(self):
        assert centered_cosine_form(TREFOIL) == [-1, 1]

    def test_t34(self):
        assert centered_cosine_form(T34) == [1, 0, -1, 1]

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            centered_cosine_form(LaurentPoly({0: -1, 1: 1, 2: 1}))

    def test_odd_span(self):
        with pytest.raises(OddSpan):
            centered_cosine_form(t + 1)

    def test_matches_eval_unit_circle(self):
        rng = random.Random(11)
        for _ in range(100):
            half = [rng.randrange(-5, 6) for _ in range(rng.randrange(1, 5))]
            while half[-1] == 0:
                half[-1] = rng.randrange(-5, 6)
            coeffs = half + [rng.randrange(-5, 6)] + half[::-1]
            p = LaurentPoly(dict(enumerate(coeffs)))
            form = centered_cosine_form(p)
            theta = rng.uniform(0.0, math.pi)
            assert abs(
                abs(eval_unit_circle(p, theta)) - abs(centered_cosine_value(form, theta))
            ) < 1e-10


class TestFormatting:
    def test_text(self):
        assert format_poly(TREFOIL) == "1 - t + t^2"
        assert format_poly(LaurentPoly({0: -1, 1: 1})) == "-1 + t"
        assert format_poly(LaurentPoly({-2: 1, 3: 3})) == "t^-2 + 3t^3"
        assert format_poly(LaurentPoly.zero()) == "0"

    def test_json_round_trip(self):
        for p in (TREFOIL, T35, LaurentPoly({-3: 2, 0: -7}), LaurentPoly.zero()):
            blob = json.dumps(to_json_dict(p))
            assert from_json_dict(json.loads(blob)) == p

    def test_json_shape_and_decimal_strings(self):
        data = to_json_dict(LaurentPoly({-1: 10**40, 1: -2}))
        assert data["min_degree"] == -1
        assert data["coeffs"] == [str(10**40), "0", "-2"]
