"""Acceptance gate: nine end-to-end checks, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; each criterion is a single test function, so plain ``pytest -v``
also yields exactly one PASSED/FAILED line per criterion.
"""

import contextlib
import math
import random
import time
from fractions import Fraction

from knotalex.alexander import (
    alexander_matrix,
    alexander_polynomial,
    closed_form_alexander,
    torus_knot_alexander,
)
from knotalex.family import (
    FamilyParams,
    SurgerySlope,
    Verdict,
    classify_surgery,
    knot_group_presentation,
    preferred_longitude,
    slope_bound,
)
from knotalex.foxcalc import (
    GroupRingElement,
    Weights,
    abelianize,
    compute_weights,
    fox_derivative,
)
from knotalex.laurent import (
    LaurentPoly,
    exact_div,
    is_palindromic,
    normalize_knot_poly,
)
from knotalex.rootcert import (
    CertificateKind,
    certify_family_root,
    circle_function,
    circle_function_derivative,
    residual_at_certified_root,
)
from knotalex.words import Word


@contextlib.contextmanager
def report(number: int, name: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} ({name}): FAIL [{time.perf_counter() - start:.2f}s]")
        raise
    print(f"acceptance {number} ({name}): PASS [{time.perf_counter() - start:.2f}s]")


def _random_word(rng: random.Random, gens=("a", "b", "c"), max_syllables=12) -> Word:
    word = Word.identity()
    for _ in range(rng.randint(0, max_syllables)):
        exp = rng.choice([-3, -2, -1, 1, 2, 3])
        word = word * Word.generator(rng.choice(gens), exp)
    return word


def test_criterion_1_pipeline_matches_closed_form():
    """Fox-calculus pipeline equals the closed form on the 8 x 8 grid."""
    with report(1, "pipeline matches closed form"):
        for n in range(1, 9):
            for m in range(1, 9):
                presentation = knot_group_presentation(FamilyParams(n, m))
                assert alexander_polynomial(presentation) == closed_form_alexander(n, m), (
                    f"pipeline/closed-form mismatch at (n, m) = ({n}, {m})"
                )


def test_criterion_2_torus_knot_degeneration():
    """n = 2 members carry (3, 3m+2) torus polynomials; (1, 1) carries (3, 4)."""
    with report(2, "torus knot degeneration"):
        for m in range(1, 11):
            assert closed_form_alexander(2, m) == torus_knot_alexander(3, 3 * m + 2), (
                f"(2, {m}) does not match the (3, {3 * m + 2}) torus polynomial"
            )
        assert closed_form_alexander(1, 1) == torus_knot_alexander(3, 4)


def test_criterion_3_knot_polynomial_invariants():
    """Value 1 at t = 1, palindromic, span 2(n + 3m - 1), odd at t = -1."""
    with report(3, "knot polynomial invariants"):
        for n in range(1, 21):
            for m in range(1, 21):
                delta = closed_form_alexander(n, m)
                assert delta.evaluate(1) == 1, (n, m)
                assert delta.min_degree == 0, (n, m)
                assert is_palindromic(delta), (n, m)
                assert delta.span == 2 * (n + 3 * m - 1), (n, m)
                determinant = delta.evaluate(-1)
                assert determinant % 2 == 1, (n, m, determinant)


def test_criterion_4_longitude_homology():
    """Longitude is null-homologous; a perturbed leading exponent is not."""
    with report(4, "longitude homology"):
        nonzero_class_count = 0
        for n in range(1, 21):
            for m in range(1, 21):
                lam = preferred_longitude(FamilyParams(n, m))
                h = lam.exponent_sum("a") + 2 * lam.exponent_sum("w")
                assert h == 0, f"longitude not null-homologous at ({n}, {m}): {h}"
                # variant with leading exponent -(2n + 9m + 2) instead of
                # -(4n + 9m - 2): homology class becomes 2n - 4
                shift = (4 * n + 9 * m - 2) - (2 * n + 9 * m + 2)
                bad = Word.generator("a", shift) * lam
                h_bad = bad.exponent_sum("a") + 2 * bad.exponent_sum("w")
                assert h_bad == 2 * n - 4, (n, m)
                if h_bad != 0:
                    nonzero_class_count += 1
        assert nonzero_class_count >= 1
        assert nonzero_class_count == 400 - 20  # every n except n = 2 fails


def test_criterion_5_certified_roots_on_grid():
    """Simple unit-circle root certified for every (n, m) in [1, 50]^2."""
    with report(5, "certified unit-circle roots on [1, 50]^2"):
        for n in range(1, 51):
            for m in range(1, 51):
                params = FamilyParams(n, m)
                cert = certify_family_root(params)
                if n == 1:
                    assert cert.kind is CertificateKind.EXACT_COSINE
                    expected = (2.0 * math.pi / 3.0) / (1 + 3 * m)
                    assert abs(cert.theta_star - expected) < 1e-14, (n, m)
                else:
                    assert cert.kind is CertificateKind.INTERVAL_SIGN_CHANGE
                    assert cert.theta_lo < cert.theta_star < cert.theta_hi, (n, m)
                    assert cert.g_at_lo > 0.0 > cert.g_at_hi, (n, m)
                residual = residual_at_certified_root(params, cert)
                assert residual < 1e-8, (n, m, residual)
        spot = certify_family_root(FamilyParams(2, 1))
        assert abs(spot.theta_star - 2.0 * math.pi / 15.0) < 1e-9


def test_criterion_6_free_calculus_identities():
    """Fundamental identity and product rule hold on random words."""
    with report(6, "free calculus identities"):
        rng = random.Random(20260826)
        gens = ("a", "b", "c")
        weights = Weights((("a", 1), ("b", 2), ("c", 3)))
        for _ in range(500):
            u = _random_word(rng, gens)
            # group-ring form: sum_g du/dg * (g - 1) == u - 1
            total = GroupRingElement.zero()
            for g in gens:
                step = GroupRingElement.from_word(Word.generator(g)) - 1
                total = total + fox_derivative(u, g) * step
            assert total == GroupRingElement.from_word(u) - 1, u.render()
            # abelianized form with the (1, 2, 3) weighting
            image = LaurentPoly.zero()
            for g in gens:
                image = image + abelianize(fox_derivative(u, g), weights) * (
                    LaurentPoly.monomial(weights[g]) - LaurentPoly.one()
                )
            expected = LaurentPoly.monomial(weights.degree(u)) - LaurentPoly.one()
            assert image == expected, u.render()
        # family relators have weighted degree zero, so the identity's right
        # side abelianizes to zero under the presentation's own weights
        for n, m in [(1, 1), (2, 3), (5, 2), (8, 8)]:
            presentation = knot_group_presentation(FamilyParams(n, m))
            w = compute_weights(presentation)
            relator = presentation.relators[0]
            image = LaurentPoly.zero()
            for g in presentation.generators:
                image = image + abelianize(fox_derivative(relator, g), w) * (
                    LaurentPoly.monomial(w[g]) - LaurentPoly.one()
                )
            assert image.is_zero, (n, m)
        for _ in range(500):
            u = _random_word(rng, gens, max_syllables=8)
            v = _random_word(rng, gens, max_syllables=8)
            for g in gens:
                lhs = fox_derivative(u * v, g)
                rhs = fox_derivative(u, g) + GroupRingElement.from_word(
                    u
                ) * fox_derivative(v, g)
                assert lhs == rhs, (u.render(), v.render(), g)


def test_criterion_7_column_independence():
    """Removing either generator column yields the same normalized polynomial."""
    cycle = lambda k: LaurentPoly({k: 1, 0: -1})  # noqa: E731 - t^k - 1
    with report(7, "column choice independence"):
        for n in range(1, 7):
            for m in range(1, 7):
                presentation = knot_group_presentation(FamilyParams(n, m))
                matrix = alexander_matrix(presentation)
                delta = alexander_polynomial(presentation)
                # deleting one column of the 1 x 2 matrix leaves the other entry
                for gone, kept in (("a", "w"), ("w", "a")):
                    numerator = matrix.entry(0, kept) * cycle(1)
                    minor = exact_div(numerator, cycle(matrix.weights[gone]))
                    assert normalize_knot_poly(minor) == delta, (n, m, gone)


def test_criterion_8_surgery_classification():
    """Slope verdicts: golden cases, inclusive boundary, exact comparison."""
    with report(8, "surgery slope classification"):
        out = classify_surgery(FamilyParams(3, 1), SurgerySlope(13))
        assert out.verdict is Verdict.NOT_LEFT_ORDERABLE and out.slope_bound == 9
        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(5))
        assert out.verdict is Verdict.NOT_LEFT_ORDERABLE  # boundary included
        out = classify_surgery(FamilyParams(1, 1), SurgerySlope(4))
        assert out.verdict is Verdict.NO_CONCLUSION and out.near_zero_note

        rng = random.Random(8128)
        for _ in range(1000):
            n, m = rng.randint(1, 12), rng.randint(1, 12)
            p, q = rng.randint(-200, 200), rng.randint(1, 24)
            params = FamilyParams(n, m)
            got = classify_surgery(params, SurgerySlope(p, q)).verdict
            expected = (
                Verdict.NOT_LEFT_ORDERABLE
                if Fraction(p, q) >= slope_bound(params)
                else Verdict.NO_CONCLUSION
            )
            assert got is expected, (n, m, p, q)


def test_criterion_9_derivative_consistency():
    """Analytic derivative of g matches central differences to 1e-5."""
    with report(9, "analytic derivative consistency"):
        rng = random.Random(196883)
        h = 1e-6
        for _ in range(200):
            n, m = rng.randint(1, 50), rng.randint(1, 50)
            params = FamilyParams(n, m)
            theta = rng.uniform(0.01, math.pi - 0.01)
            fd = (
                circle_function(params, theta + h) - circle_function(params, theta - h)
            ) / (2.0 * h)
            exact = circle_function_derivative(params, theta)
            assert abs(fd - exact) < 1e-5, (n, m, theta, fd, exact)
