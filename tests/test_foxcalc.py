"""Group ring, free derivatives, weights, abelianization."""

import operator

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import ALPHABET, words
from knotalex.errors import H1RankNotOne
from knotalex.foxcalc import (
    GroupRingElement,
    Weights,
    abelianize,
    compute_weights,
    fox_derivative,
    geometric_series,
)
from knotalex.laurent import LaurentPoly
from knotalex.words import Presentation, Word
from test_words import family_relator

A = Word.generator("a")
W = Word.generator("w")
ONE = GroupRingElement.one()

#: Weights used for random-word tests; any assignment gives a ring map.
FREE_WEIGHTS = Weights((("a", 1), ("b", 2), ("c", 3)))


def ring(*pairs) -> GroupRingElement:
    return GroupRingElement(list(pairs))


class TestGroupRing:
    def test_difference_of_squares(self):
        left = ring((Word.identity(), 1), (A, -1))
        right = ring((Word.identity(), 1), (A, 1))
        assert left * right == ring((Word.identity(), 1), (Word.generator("a", 2), -1))

    def test_geometric_series_times_step(self):
        series = geometric_series(W, 2)
        assert series == ring((Word.identity(), 1), (W, 1), (Word.generator("w", 2), 1))
        step = GroupRingElement.from_word(W) - ONE
        assert series * step == ring((Word.generator("w", 3), 1), (Word.identity(), -1))

    def test_geometric_series_examples(self):
        assert geometric_series(A, 0) == ONE
        assert geometric_series(A * W, 1) == ONE + GroupRingElement.from_word(A * W)
        with pytest.raises(ValueError):
            geometric_series(A, -1)

    def test_geometric_series_of_identity_accumulates(self):
        assert geometric_series(Word.identity(), 3) == 4 * ONE

    @given(
        x=st.lists(st.tuples(words(4), st.integers(-5, 5)), max_size=4).map(GroupRingElement),
        y=st.lists(st.tuples(words(4), st.integers(-5, 5)), max_size=4).map(GroupRingElement),
        z=st.lists(st.tuples(words(4), st.integers(-5, 5)), max_size=4).map(GroupRingElement),
    )
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (y + z) * x == y * x + z * x
        assert x * ONE == x and ONE * x == x


class TestFoxDerivative:
    def test_generator_rules(self):
        assert fox_derivative(A, "a") == ONE
        assert fox_derivative(A, "w") == GroupRingElement.zero()
        assert fox_derivative(A.inverse(), "a") == ring((A.inverse(), -1))

    def test_power_positive(self):
        assert fox_derivative(W**3, "w") == geometric_series(W, 2)

    def test_power_negative(self):
        expected = ring((Word.generator("w", -1), -1), (Word.generator("w", -2), -1))
        assert fox_derivative(W**-2, "w") == expected

    def test_commutator(self):
        word = A * W * A.inverse() * W.inverse()
        assert fox_derivative(word, "a") == ONE - GroupRingElement.from_word(
            A * W * A.inverse()
        )

    def test_family_relator_frozen_value(self):
        # Abelianized derivative of the (1, 1) relator by the meridian,
        # derived by hand in two independent ways.
        relator = family_relator(1, 1)
        weights = Weights((("a", 1), ("w", 2)))
        value = abelianize(fox_derivative(relator, "a"), weights)
        assert value == LaurentPoly({-3: -1, -1: 1, 0: -1, 1: -1, 2: 1, 4: -1})

    @given(u=words(), v=words(), gen=st.sampled_from(ALPHABET))
    def test_product_rule(self, u, v, gen):
        du = fox_derivative(u, gen)
        dv = fox_derivative(v, gen)
        assert fox_derivative(u * v, gen) == du + GroupRingElement.from_word(u) * dv

    @given(u=words(), gen=st.sampled_from(ALPHABET))
    def test_inverse_rule(self, u, gen):
        expected = -(GroupRingElement.from_word(u.inverse()) * fox_derivative(u, gen))
        assert fox_derivative(u.inverse(), gen) == expected

    @given(u=words())
    def test_fundamental_identity(self, u):
        total = GroupRingElement.zero()
        for gen in ALPHABET:
            step = GroupRingElement.from_word(Word.generator(gen)) - ONE
            total = total + fox_derivative(u, gen) * step
        assert total == GroupRingElement.from_word(u) - ONE

    @given(u=words())
    def test_fundamental_identity_abelianized(self, u):
        total = LaurentPoly.zero()
        for gen in ALPHABET:
            weight = FREE_WEIGHTS[gen]
            step = LaurentPoly({weight: 1, 0: -1})
            total = total + abelianize(fox_derivative(u, gen), FREE_WEIGHTS) * step
        expected = LaurentPoly([(FREE_WEIGHTS.degree(u), 1), (0, -1)])
        assert total == expected


class TestWeights:
    def test_family_weights(self):
        for n, m in [(1, 1), (2, 3), (5, 2)]:
            p = Presentation(("a", "w"), (family_relator(n, m),), meridian="a")
            assert compute_weights(p).as_dict() == {"a": 1, "w": 2}

    def test_trefoil_weights(self):
        x = Word.generator("x")
        y = Word.generator("y")
        p = Presentation(("x", "y"), (x * y * x * (y * x * y) ** -1,))
        assert compute_weights(p).as_dict() == {"x": 1, "y": 1}

    def test_sign_normalization_prefers_meridian(self):
        x = Word.generator("x")
        y = Word.generator("y")
        # relator x y: nullspace is spanned by (1, -1)
        p = Presentation(("x", "y"), (x * y,), meridian="x")
        assert compute_weights(p).as_dict() == {"x": 1, "y": -1}

    def test_zero_weight_generator(self):
        y = Word.generator("y")
        p = Presentation(("x", "y"), (y**2,))
        assert compute_weights(p).as_dict() == {"x": 1, "y": 0}

    def test_commutator_rank_error(self):
        x = Word.generator("x")
        y = Word.generator("y")
        p = Presentation(("x", "y"), (x * y * x.inverse() * y.inverse(),))
        with pytest.raises(H1RankNotOne):
            compute_weights(p)

    def test_single_generator_free_group(self):
        assert compute_weights(Presentation(("a",), ())).as_dict() == {"a": 1}

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            Weights((("a", 2), ("b", 4)))  # not primitive
        with pytest.raises(ValueError):
            Weights((("a", 0),))  # all zero
        with pytest.raises(ValueError):
            Weights((("a", 1), ("a", 2)))  # duplicate name

    @pytest.mark.parametrize("weight", [1.5, "2", True], ids=["float", "str", "bool"])
    def test_weights_must_be_integers(self, weight):
        # neither truncated (1.5 -> 1) nor parsed ("2" -> 2)
        with pytest.raises(TypeError, match="^weights must be integers$"):
            Weights((("a", weight), ("b", 3)))


class TestAbelianize:
    def test_example(self):
        element = ONE - GroupRingElement.from_word(A * W * A.inverse())
        weights = Weights((("a", 1), ("w", 2)))
        assert abelianize(element, weights) == LaurentPoly({0: 1, 2: -1})

    def test_collision_accumulates(self):
        # a^2 and w abelianize to the same t^2
        element = ring((Word.generator("a", 2), 1), (W, 1))
        weights = Weights((("a", 1), ("w", 2)))
        assert abelianize(element, weights) == LaurentPoly({2: 2})

    @given(
        x=st.lists(st.tuples(words(4), st.integers(-5, 5)), max_size=4).map(GroupRingElement),
        y=st.lists(st.tuples(words(4), st.integers(-5, 5)), max_size=4).map(GroupRingElement),
    )
    def test_ring_homomorphism(self, x, y):
        ax = abelianize(x, FREE_WEIGHTS)
        ay = abelianize(y, FREE_WEIGHTS)
        assert abelianize(x + y, FREE_WEIGHTS) == ax + ay
        assert abelianize(x * y, FREE_WEIGHTS) == ax * ay


class TestSharedCore:
    """LaurentPoly and GroupRingElement share one integer-combination core."""

    POLY = LaurentPoly.one()
    ELEMENT = GroupRingElement.one()

    def test_types_never_compare_equal(self):
        assert LaurentPoly.zero() != GroupRingElement.zero()
        assert not self.POLY == self.ELEMENT
        assert not self.ELEMENT == self.POLY

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_mixed_arithmetic_is_refused(self, op):
        for left, right in [(self.POLY, self.ELEMENT), (self.ELEMENT, self.POLY)]:
            with pytest.raises(TypeError):
                op(left, right)

    def test_both_are_unhashable(self):
        for value in (self.POLY, self.ELEMENT):
            with pytest.raises(TypeError, match="unhashable"):
                hash(value)

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_bool_operands_are_refused(self, op):
        for value in (self.POLY, self.ELEMENT):
            for left, right in [(value, True), (False, value)]:
                with pytest.raises(TypeError):
                    op(left, right)
        with pytest.raises(TypeError):
            self.POLY ** True
        assert self.POLY != True  # noqa: E712 - a bool is not the constant 1

    def test_constructor_rejects_bool_coefficients(self):
        with pytest.raises(TypeError, match="^terms must map Word to int$"):
            GroupRingElement({A: True})
