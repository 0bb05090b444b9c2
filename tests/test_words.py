"""Words: parsing, reduction, group operations, presentations."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _strategies import ALPHABET, words
from knotalex.errors import PresentationError, WordParseError
from knotalex.words import Presentation, Word, parse_presentation, parse_word

A = Word.generator("a")
W = Word.generator("w")


def family_relator(n: int, m: int) -> Word:
    """Hand-built w^n (aw)^m a^-1 (aw)^-m * ((wa)^-m a (wa)^m w^(n-1))^-1."""
    aw = A * W
    wa = W * A
    r1 = W**n * aw**m * A.inverse() * aw**-m
    r2 = wa**-m * A * wa**m * W ** (n - 1)
    return r1 * r2.inverse()


class TestParse:
    def test_single_generator(self):
        assert parse_word("a", "aw") == A

    def test_reduction_across_parens(self):
        # w^2 (a w)^-1 a = w^2 w^-1 a^-1 a = w
        assert parse_word("w^2 (a w)^-1 a", "aw") == W

    def test_relator_text_instantiates(self):
        text = "w^3 (a w)^2 a^-1 (a w)^-2"
        expected = W**3 * (A * W) ** 2 * A.inverse() * (A * W) ** -2
        assert parse_word(text, "aw") == expected

    def test_empty_input_is_identity(self):
        assert parse_word("", "aw") == Word.identity()
        assert parse_word("   ", "aw") == Word.identity()

    def test_exponent_zero_is_identity_factor(self):
        assert parse_word("a^0 w", "aw") == W

    def test_nested_parens(self):
        assert parse_word("((a w) w)^2", "aw") == (A * W * W) ** 2

    def test_unknown_generator(self):
        with pytest.raises(WordParseError):
            parse_word("aw", "aw")  # juxtaposed names are one unknown name

    def test_malformed_exponent(self):
        for text in ("a^", "a^x", "a^- 1"):
            with pytest.raises(WordParseError):
                parse_word(text, "aw")

    def test_unbalanced_parens(self):
        for text in ("(a w", "a)", "(a))"):
            with pytest.raises(WordParseError):
                parse_word(text, "aw")

    def test_deep_nesting(self):
        depth = 10_000
        text = "(" * depth + "a w^2" + ")" * depth + "^-1 w"
        assert parse_word(text, "aw") == (A * W**2).inverse() * W
        for unbalanced, message in (
            ("(" * depth + "a" + ")" * (depth - 1), "unbalanced parentheses: missing ')'"),
            ("(" * depth + "a" + ")" * (depth + 1), "unbalanced parentheses near ')'"),
        ):
            with pytest.raises(WordParseError, match=re.escape(message)):
                parse_word(unbalanced, "aw")

    def test_bare_integer_rejected(self):
        with pytest.raises(WordParseError):
            parse_word("5", "aw")

    def test_illegal_character(self):
        with pytest.raises(WordParseError):
            parse_word("a * w", "aw")


class TestGroupOps:
    def test_multiply_cancels(self):
        assert A * A.inverse() == Word.identity()
        assert (A * W) * (W.inverse() * A) == Word.generator("a", 2)

    def test_multiply_merges_syllables(self):
        assert Word.generator("w", 2) * Word.generator("w", 3) == Word.generator("w", 5)

    def test_invert_examples(self):
        assert Word.identity().inverse() == Word.identity()
        assert (A * W).inverse() == W.inverse() * A.inverse()
        assert ((A * W) ** 2).inverse() == (W.inverse() * A.inverse()) ** 2

    def test_pow_negative(self):
        assert (A * W) ** -2 == ((A * W) ** 2).inverse()
        assert A**-3 == Word.generator("a", -3)

    def test_exponent_sum_examples(self):
        assert Word.identity().exponent_sum("a") == 0
        rel = family_relator(1, 1)
        assert rel.exponent_sum("a") == -2
        assert rel.exponent_sum("w") == 1

    def test_relator_reduced_form(self):
        # frozen by hand for (n, m) = (1, 1)
        assert family_relator(1, 1).render() == "w a w a^-1 w^-1 a^-2 w^-1 a^-1 w a"

    @given(u=words(4), g=words(2), k=st.integers(min_value=-5, max_value=5))
    def test_power_is_repeated_product(self, u, g, k):
        # the conjugate g u g^-1 is in general not cyclically reduced, so
        # its powers cancel and merge across the seams between copies
        for base in (u, g * u * g.inverse()):
            factor = base if k >= 0 else base.inverse()
            expected = Word.identity()
            for _ in range(abs(k)):
                expected = expected * factor
            assert base**k == expected

    @given(u=words(), v=words(), x=words())
    def test_associative(self, u, v, x):
        assert (u * v) * x == u * (v * x)

    @given(u=words())
    def test_inverse_laws(self, u):
        assert u * u.inverse() == Word.identity()
        assert u.inverse().inverse() == u

    @given(u=words(), v=words(), gen=st.sampled_from(ALPHABET))
    def test_exponent_sum_is_homomorphism(self, u, v, gen):
        assert (u * v).exponent_sum(gen) == u.exponent_sum(gen) + v.exponent_sum(gen)

    @given(u=words())
    def test_render_parse_round_trip(self, u):
        assert parse_word(u.render(), ALPHABET) == u

    @given(
        u=words(),
        insertions=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=30),
                st.sampled_from(ALPHABET),
                st.integers(min_value=-3, max_value=3).filter(lambda e: e != 0),
            ),
            max_size=5,
        ),
    )
    def test_reduction_confluent_under_cancelling_insertions(self, u, insertions):
        syllables = list(u.syllables)
        for pos, gen, exp in insertions:
            pos = pos % (len(syllables) + 1)
            syllables[pos:pos] = [(gen, exp), (gen, -exp)]
        assert Word(syllables) == u


class TestPresentation:
    def test_relator_count_enforced(self):
        with pytest.raises(PresentationError):
            Presentation(("a", "w"), ())
        with pytest.raises(PresentationError):
            Presentation(("a",), (A,))

    def test_undeclared_generator_in_relator(self):
        with pytest.raises(PresentationError):
            Presentation(("a", "w"), (Word.generator("x"),))

    def test_duplicate_names(self):
        with pytest.raises(PresentationError):
            Presentation(("a", "a"), (A,))

    def test_invalid_name(self):
        with pytest.raises(PresentationError):
            Presentation(("1a", "w"), (W,))

    def test_meridian_must_be_declared(self):
        with pytest.raises(PresentationError):
            Presentation(("a", "w"), (A * W,), meridian="x")

    def test_single_generator_no_relators(self):
        p = Presentation(("a",), ())
        assert p.generators == ("a",)


class TestPresentationText:
    TREFOIL = """
    # trefoil knot group
    gens: x y
    rel: x y x (y x y)^-1   # braid relation
    meridian: x
    """

    def test_parse(self):
        p = parse_presentation(self.TREFOIL)
        assert p.generators == ("x", "y")
        assert p.meridian == "x"
        x = Word.generator("x")
        y = Word.generator("y")
        assert p.relators == (x * y * x * (y * x * y) ** -1,)

    def test_round_trip(self):
        p = parse_presentation(self.TREFOIL)
        assert parse_presentation(p.to_text()) == p

    def test_rel_before_gens_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("rel: x\ngens: x\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("gens: x\nfoo: bar\n")

    def test_duplicate_gens_line_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("gens: x\ngens: y\n")

    def test_missing_gens_rejected(self):
        with pytest.raises(PresentationError):
            parse_presentation("# nothing\n")
