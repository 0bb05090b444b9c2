"""Certified unit-circle roots: the family function g and the generic scanner."""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from _strategies import _eval_oracle
import knotalex
from knotalex import rootcert
from knotalex.alexander import closed_form_alexander, torus_knot_alexander
from knotalex.errors import (
    CertificationFailed,
    NotPalindromic,
    OddSpan,
    ResidualTooLarge,
)
from knotalex.family import FamilyParams
from knotalex.laurent import LaurentPoly
from knotalex.rootcert import (
    CertificateKind,
    MonotonicityWitness,
    RootCertificate,
    certificate_record,
    certify_family_root,
    circle_function,
    circle_function_derivative,
    find_simple_roots,
    residual_at_certified_root,
)


class TestCircleFunction:
    def test_value_at_zero_is_three(self):
        for n, m in [(1, 1), (2, 1), (7, 3)]:
            assert circle_function(FamilyParams(n, m), 0.0) == pytest.approx(3.0)

    def test_known_zero_for_smallest_member(self):
        # for (1, 1) the factor 2*cos(4*theta) + 1 vanishes at pi/6
        assert circle_function(FamilyParams(1, 1), math.pi / 6) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_quarter_period_value(self):
        # at theta = pi/10 the M = 5 oscillation is at its node, leaving cos(pi/20)
        got = circle_function(FamilyParams(2, 1), math.pi / 10)
        assert got == pytest.approx(math.cos(math.pi / 20), abs=1e-14)

    def test_sign_change_brackets_known_root(self):
        params = FamilyParams(2, 1)  # root at 2*pi/15 ~ 0.41888
        assert circle_function(params, 0.40) > 0
        assert circle_function(params, 0.43) < 0


class TestDerivative:
    def test_zero_at_origin(self):
        for n, m in [(1, 1), (3, 4)]:
            assert circle_function_derivative(FamilyParams(n, m), 0.0) == 0.0

    def test_matches_central_differences(self):
        rng = random.Random(90125)
        h = 1e-6
        for _ in range(50):
            n, m = rng.randint(1, 8), rng.randint(1, 8)
            params = FamilyParams(n, m)
            theta = rng.uniform(0.05, 2.0)
            fd = (
                circle_function(params, theta + h) - circle_function(params, theta - h)
            ) / (2 * h)
            exact = circle_function_derivative(params, theta)
            assert abs(fd - exact) <= 1e-6 * (1.0 + abs(exact))


class TestCertification:
    def test_smallest_member_exact_cosine(self):
        cert = certify_family_root(FamilyParams(1, 1))
        assert cert.kind is CertificateKind.EXACT_COSINE
        assert abs(cert.theta_star - math.pi / 6) < 1e-14
        assert isinstance(cert.monotone_witness, str)
        assert cert.g_at_lo > 0 > cert.g_at_hi

    def test_n1_family_roots_are_exact(self):
        for m in range(1, 6):
            cert = certify_family_root(FamilyParams(1, m))
            assert cert.kind is CertificateKind.EXACT_COSINE
            expected = (2 * math.pi / 3) / (1 + 3 * m)
            assert abs(cert.theta_star - expected) < 1e-14

    def test_interval_certificate_for_2_1(self):
        cert = certify_family_root(FamilyParams(2, 1))
        assert cert.kind is CertificateKind.INTERVAL_SIGN_CHANGE
        assert cert.theta_lo == pytest.approx(math.pi / 10, abs=1e-15)
        assert cert.theta_hi == pytest.approx(2 * math.pi / 11, abs=1e-15)
        # the true root is at 2*pi/15 because this member is the (3, 5) torus knot
        assert abs(cert.theta_star - 2 * math.pi / 15) < 1e-9
        witness = cert.monotone_witness
        assert isinstance(witness, MonotonicityWitness)
        assert witness.panels == 3
        assert witness.min_neg_derivative > 0
        assert witness.second_derivative_bound == pytest.approx(5.5**2 + 5**2 + 0.5**2)

    def test_extreme_members_need_few_panels(self):
        # the grid this replaced used 64 * M panels: 9 600 192 and 19 200 128
        for n, m in [(150000, 1), (2, 100000)]:
            witness = certify_family_root(FamilyParams(n, m)).monotone_witness
            assert 1 <= witness.panels <= 32, (n, m)

    def test_unbridgeable_derivative_fails_fast(self, monkeypatch):
        params = FamilyParams(7, 3)
        cert = certify_family_root(params)
        # not a dyadic point of the bracket, so no panel end lands on it
        root = cert.theta_lo + 0.3 * (cert.theta_hi - cert.theta_lo)
        calls = []

        def vanishing(p, theta):
            calls.append(theta)
            return -abs(theta - root)  # -g' vanishes at root

        monkeypatch.setattr(rootcert, "circle_function_derivative", vanishing)
        with pytest.raises(CertificationFailed, match="monotonicity"):
            certify_family_root(params)
        assert 0 < len(calls) < 10_000

    @pytest.mark.parametrize("width", [math.nan, math.inf, -math.inf, -1e-12])
    def test_bad_bisection_width_rejected(self, width):
        for n in (1, 2):
            with pytest.raises(ValueError, match="bisection width"):
                certify_family_root(FamilyParams(n, 1), bisection_width=width)

    def test_zero_bisection_width_bisects_to_float_resolution(self):
        cert = certify_family_root(FamilyParams(2, 1), bisection_width=0.0)
        assert abs(cert.theta_star - 2 * math.pi / 15) < 1e-14

    def test_large_parameters(self):
        cert = certify_family_root(FamilyParams(50, 50))
        assert cert.theta_lo < cert.theta_star < cert.theta_hi
        assert cert.g_at_lo > 0 > cert.g_at_hi

    def test_bisection_width_controls_bracket(self):
        wide = certify_family_root(FamilyParams(3, 2), bisection_width=1e-3)
        narrow = certify_family_root(FamilyParams(3, 2), bisection_width=1e-12)
        assert abs(wide.theta_star - narrow.theta_star) < 1e-3

    def test_invalid_interval_rejected(self):
        with pytest.raises(CertificationFailed):
            RootCertificate(
                CertificateKind.INTERVAL_SIGN_CHANGE, 0.5, 0.6, 0.4, 1.0, -1.0, "w"
            )
        with pytest.raises(CertificationFailed):
            RootCertificate(
                CertificateKind.INTERVAL_SIGN_CHANGE, 0.5, 3.0, 1.0, 1.0, -1.0, "w"
            )


class TestResidual:
    def test_small_residuals(self):
        # (26490, 1194) has its root near 5e-5, where |g'| is about 6e4: only a
        # bisection width relative to the root keeps its residual small
        for n, m in [(1, 1), (2, 1), (3, 2), (10, 7), (26490, 1194)]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            assert residual_at_certified_root(params, cert) < 1e-8

    def test_bit_identical_to_expanded_polynomial(self):
        # summing the coefficient stream must give the value of the expanded
        # polynomial, term for term and in the same order
        members = [(n, m) for n in range(1, 41) for m in range(1, 41)]
        # (2, 100000): 200 000 of its 600 003 coefficients are zero
        for n, m in [*members, (150000, 1), (100000, 10000), (2, 100000)]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            expected = abs(_eval_oracle(closed_form_alexander(n, m), cert.theta_star))
            assert repr(residual_at_certified_root(params, cert)) == repr(expected), (n, m)

    def test_streams_the_coefficients(self):
        # the residual holds no coefficient list: a dense one would take
        # several megabytes at these members
        for n, m in [(150000, 1), (2, 100000)]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            tracemalloc.start()
            try:
                residual_at_certified_root(params, cert)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 64 * 1024, (n, m, peak)

    def test_unattainable_bound_raises(self):
        params = FamilyParams(2, 1)
        cert = certify_family_root(params)
        with pytest.raises(ResidualTooLarge):
            residual_at_certified_root(params, cert, bound=1e-30)

    def test_record_shape(self):
        params = FamilyParams(2, 1)
        record = certificate_record(params, certify_family_root(params))
        assert set(record) == {
            "kind",
            "theta_lo",
            "theta_hi",
            "theta_star",
            "g_lo",
            "g_hi",
            "residual",
        }
        assert record["kind"] == "IntervalSignChange"
        assert record["residual"] < 1e-8


class TestFindSimpleRoots:
    def test_trefoil(self):
        roots = find_simple_roots(LaurentPoly({0: 1, 1: -1, 2: 1}))
        assert len(roots) == 1
        assert roots[0].theta_star == pytest.approx(math.pi / 3, abs=1e-10)
        assert roots[0].simple and roots[0].odd_multiplicity

    def test_t34(self):
        roots = find_simple_roots(torus_knot_alexander(3, 4))
        expected = [math.pi / 6, math.pi / 3, 5 * math.pi / 6]
        assert len(roots) == len(expected)
        for root, want in zip(roots, expected):
            assert root.theta_star == pytest.approx(want, abs=1e-10)
            assert root.simple

    def test_fifteenth_cyclotomic(self):
        # closed_form(2, 1) is the (3, 5) torus polynomial: primitive 15th
        # roots of unity, of which four lie in the open upper half circle
        roots = find_simple_roots(closed_form_alexander(2, 1))
        expected = [2 * math.pi * k / 15 for k in (1, 2, 4, 7)]
        assert len(roots) == len(expected)
        for root, want in zip(roots, expected):
            assert root.theta_star == pytest.approx(want, abs=1e-10)
            assert root.simple

    def test_scanner_agrees_with_certificate(self):
        # the generic scanner must rediscover the certified root inside the
        # certificate's own bracket, for exact and interval kinds alike
        for n, m in [(1, 2), (2, 1), (3, 1), (4, 2), (5, 3), (2, 4)]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            roots = find_simple_roots(closed_form_alexander(n, m))
            inside = [
                r for r in roots if cert.theta_lo <= r.theta_star <= cert.theta_hi
            ]
            assert len(inside) == 1, (n, m)
            assert abs(inside[0].theta_star - cert.theta_star) < 1e-9, (n, m)
            assert inside[0].simple, (n, m)

    def test_root_on_first_grid_point(self):
        # at grid factor 1 the first grid point is pi/5, a root of T(2, 5);
        # its outer neighbour is theta = 0, where the form is +1
        roots = find_simple_roots(torus_knot_alexander(2, 5), grid_factor=1)
        assert roots[0].theta_lo == 0.0
        assert roots[0].theta_star == math.pi / 5
        assert roots[0].odd_multiplicity and roots[0].simple

    def test_roots_in_end_cells(self):
        # at grid factor 1 the grid is k*pi/5; the form is -2.2e-16 at the
        # last grid point 4*pi/5 and +1 at pi, so that root's sign change
        # shows only in the end cell
        cyclotomic = LaurentPoly({k: 1 for k in range(5)})
        roots = find_simple_roots(cyclotomic, grid_factor=1)
        assert [r.theta_star for r in roots] == pytest.approx(
            [2 * math.pi / 5, 4 * math.pi / 5], abs=1e-10
        )
        assert roots[-1].theta_hi == math.pi
        assert all(r.odd_multiplicity and r.simple for r in roots)

    @pytest.mark.parametrize("grid_factor", [2, 3, 8])
    def test_torus_knots_report_every_root(self, grid_factor):
        # T(p, q) has (p-1)(q-1)/2 simple roots in the open upper half circle
        for p in range(2, 8):
            for q in range(p + 1, 60 // p + 1):
                if math.gcd(p, q) != 1:
                    continue
                roots = find_simple_roots(torus_knot_alexander(p, q), grid_factor)
                assert len(roots) == (p - 1) * (q - 1) // 2, (p, q)
                assert all(r.odd_multiplicity and r.simple for r in roots), (p, q)

    def test_constant_polynomial_has_no_roots(self):
        assert find_simple_roots(LaurentPoly.one()) == []

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            find_simple_roots(LaurentPoly({0: 1, 1: 2, 2: 3}))

    def test_odd_span(self):
        with pytest.raises(OddSpan):
            find_simple_roots(LaurentPoly({0: 1, 1: 1}))

    def test_grid_factor_validation(self):
        with pytest.raises(ValueError):
            find_simple_roots(LaurentPoly.one(), grid_factor=0)

    @pytest.mark.parametrize("grid_factor", [1.5, "2", True], ids=["float", "str", "bool"])
    def test_grid_factor_must_be_an_integer(self, grid_factor):
        # rejected up front, not deep inside range() or a str/int comparison
        message = f"^grid_factor must be an integer, got {type(grid_factor).__name__}$"
        with pytest.raises(TypeError, match=message):
            find_simple_roots(torus_knot_alexander(2, 3), grid_factor=grid_factor)


def test_package_import_leaves_numpy_out():
    # with numpy blocked, the CLI and the generic scanner must still run
    code = "\n".join(
        [
            "import sys",
            "sys.modules['numpy'] = None",
            "from knotalex import cli, find_simple_roots, torus_knot_alexander",
            "assert cli.main(['certify', '--n', '2', '--m', '1']) == 0",
            "assert cli.main(['table', '--n-max', '3', '--m-max', '3']) == 0",
            "assert len(find_simple_roots(torus_knot_alexander(3, 4))) == 3",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(knotalex.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "theta_star: 0.4188790204786347" in done.stdout
