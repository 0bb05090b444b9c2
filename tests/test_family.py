"""Family instantiation: presentations, longitudes, genus, surgery slopes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from knotalex.family import (
    FamilyParams,
    SurgeryClassification,
    SurgerySlope,
    Verdict,
    classify_surgery,
    genus,
    knot_group_presentation,
    preferred_longitude,
    slope_bound,
)
from knotalex.foxcalc import GroupRingElement, abelianize, compute_weights
from knotalex.laurent import LaurentPoly
from knotalex.words import Word

from test_words import family_relator

PARAM_GRID = [(n, m) for n in range(1, 7) for m in range(1, 7)]


class TestParams:
    def test_rejects_zero_and_negative(self):
        for n, m in [(0, 1), (1, 0), (-3, 2), (1, -1)]:
            with pytest.raises(ValueError):
                FamilyParams(n, m)

    def test_rejects_non_integers(self):
        with pytest.raises(TypeError):
            FamilyParams(1.5, 1)

    def test_rejects_bools(self):
        for n, m in [(True, 2), (2, True), (False, 1)]:
            with pytest.raises(TypeError, match="^n and m must be integers$"):
                FamilyParams(n, m)


class TestPresentation:
    def test_matches_hand_built_relator(self):
        for n, m in PARAM_GRID:
            p = knot_group_presentation(FamilyParams(n, m))
            assert p.generators == ("a", "w")
            assert p.meridian == "a"
            assert p.relators == (family_relator(n, m),)

    def test_smallest_member_relator(self):
        p = knot_group_presentation(FamilyParams(1, 1))
        assert p.relators[0].render() == "w a w a^-1 w^-1 a^-2 w^-1 a^-1 w a"

    def test_relator_exponent_sums(self):
        # a-sum -2 and w-sum 1 for every member: the relator kills a^2 w^-1
        # in homology, which is what forces the (1, 2) weighting
        for n, m in PARAM_GRID:
            r = knot_group_presentation(FamilyParams(n, m)).relators[0]
            assert r.exponent_sum("a") == -2
            assert r.exponent_sum("w") == 1

    def test_weights(self):
        for n, m in [(1, 1), (3, 2), (5, 5)]:
            p = knot_group_presentation(FamilyParams(n, m))
            assert compute_weights(p).as_dict() == {"a": 1, "w": 2}

    def test_relator_abelianizes_to_one(self):
        # the abelianization is a homomorphism killing relators, so the
        # relator's image must be exactly 1 on the whole grid
        for n in range(1, 21):
            for m in range(1, 21):
                p = knot_group_presentation(FamilyParams(n, m))
                weights = compute_weights(p)
                image = abelianize(GroupRingElement.from_word(p.relators[0]), weights)
                assert image == LaurentPoly.one(), (n, m)


class TestLongitude:
    def test_exponent_sums_small(self):
        lam = preferred_longitude(FamilyParams(1, 1))
        assert lam.exponent_sum("a") == -8
        assert lam.exponent_sum("w") == 4
        lam = preferred_longitude(FamilyParams(3, 2))
        assert lam.exponent_sum("a") == -22
        assert lam.exponent_sum("w") == 11

    def test_null_homologous_on_grid(self):
        # homology class under the (a: 1, w: 2) weighting must vanish
        for n, m in PARAM_GRID:
            lam = preferred_longitude(FamilyParams(n, m))
            assert lam.exponent_sum("a") + 2 * lam.exponent_sum("w") == 0

    def test_wrong_leading_exponent_is_not_null_homologous(self):
        # replacing the leading exponent -(4n + 9m - 2) with -(2n + 9m + 2)
        # leaves homology class 2n - 4, nonzero for every n except 2
        for n, m in PARAM_GRID:
            lam = preferred_longitude(FamilyParams(n, m))
            wrong = Word.generator("a", (4 * n + 9 * m - 2) - (2 * n + 9 * m + 2))
            lam_bad = wrong * lam
            h = lam_bad.exponent_sum("a") + 2 * lam_bad.exponent_sum("w")
            assert h == 2 * n - 4
            if n != 2:
                assert h != 0


class TestGenusAndBound:
    def test_genus_examples(self):
        assert genus(FamilyParams(1, 1)) == 3
        assert genus(FamilyParams(2, 1)) == 4
        assert genus(FamilyParams(2, 2)) == 7
        for n in range(1, 8):
            assert genus(FamilyParams(n, 1)) == n + 2

    def test_bound_is_twice_genus_minus_one(self):
        for n in range(1, 51):
            for m in range(1, 51):
                params = FamilyParams(n, m)
                assert slope_bound(params) == 2 * genus(params) - 1

    def test_bound_examples(self):
        assert slope_bound(FamilyParams(1, 1)) == 5
        assert slope_bound(FamilyParams(3, 1)) == 9
        assert slope_bound(FamilyParams(2, 2)) == 13


class TestSurgerySlope:
    def test_normalization(self):
        assert SurgerySlope(3, -2) == SurgerySlope(-3, 2)
        assert SurgerySlope(6, 4) == SurgerySlope(3, 2)
        assert SurgerySlope(-6, -4) == SurgerySlope(3, 2)
        assert SurgerySlope(0, 5) == SurgerySlope(0, 1)
        assert str(SurgerySlope(7)) == "7/1"

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            SurgerySlope(1, 0)

    def test_non_integer(self):
        with pytest.raises(TypeError):
            SurgerySlope(1.5, 2)

    def test_rejects_bools(self):
        for p, q in [(True, 2), (3, True), (False, 1)]:
            with pytest.raises(TypeError, match="^p and q must be integers$"):
                SurgerySlope(p, q)


class TestClassify:
    def test_golden_examples(self):
        out = classify_surgery(FamilyParams(3, 1), SurgerySlope(13))
        assert out.verdict is Verdict.NOT_LEFT_ORDERABLE
        assert out.slope_bound == 9
        assert out.near_zero_note is False

        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(4))
        assert out.verdict is Verdict.NO_CONCLUSION
        assert out.slope_bound == 5
        assert out.near_zero_note is True

    def test_note_is_derived_from_the_verdict(self):
        # a record whose note contradicts its verdict cannot be built
        with pytest.raises(TypeError):
            SurgeryClassification(Verdict.NOT_LEFT_ORDERABLE, 9, True)
        assert SurgeryClassification(Verdict.NO_CONCLUSION, 9).near_zero_note is True

    def test_boundary_is_inclusive(self):
        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(5))
        assert out.verdict is Verdict.NOT_LEFT_ORDERABLE

    def test_just_below_boundary(self):
        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(9, 2))
        assert out.verdict is Verdict.NO_CONCLUSION
        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(11, 2))
        assert out.verdict is Verdict.NOT_LEFT_ORDERABLE

    def test_negative_slopes_never_conclude(self):
        for p in (-100, -5, -1):
            out = classify_surgery(FamilyParams(2, 2), SurgerySlope(p, 3))
            assert out.verdict is Verdict.NO_CONCLUSION

    def test_monotone_in_slope(self):
        # once a slope is past the threshold, every larger slope is too
        rng = random.Random(20240817)
        params = FamilyParams(2, 1)
        for _ in range(300):
            p1, q1 = rng.randint(-40, 40), rng.randint(1, 12)
            p2, q2 = rng.randint(-40, 40), rng.randint(1, 12)
            s1, s2 = SurgerySlope(p1, q1), SurgerySlope(p2, q2)
            if Fraction(p1, q1) > Fraction(p2, q2):
                s1, s2 = s2, s1
            v1 = classify_surgery(params, s1).verdict
            v2 = classify_surgery(params, s2).verdict
            if v1 is Verdict.NOT_LEFT_ORDERABLE:
                assert v2 is Verdict.NOT_LEFT_ORDERABLE

    @given(st.integers(1, 9), st.integers(1, 9), st.integers(-60, 60), st.integers(1, 10))
    def test_verdict_matches_fraction_compare(self, n, m, p, q):
        params = FamilyParams(n, m)
        out = classify_surgery(params, SurgerySlope(p, q))
        expected = Fraction(p, q) >= slope_bound(params)
        assert (out.verdict is Verdict.NOT_LEFT_ORDERABLE) == expected
        assert out.near_zero_note == (out.verdict is Verdict.NO_CONCLUSION)
