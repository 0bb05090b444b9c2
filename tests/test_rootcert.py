"""Certified unit-circle roots: the family function g and the generic scanner."""

import inspect
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from knotalex.laurent import LaurentPoly, eval_unit_circle
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

    def test_fixed_configuration(self):
        # the bisection width and the residual bound are constants, not knobs
        signatures = {
            f.__name__: list(inspect.signature(f).parameters)
            for f in (
                certify_family_root,
                residual_at_certified_root,
                certificate_record,
                rootcert._bisect,
            )
        }
        assert signatures == {
            "certify_family_root": ["params"],
            "residual_at_certified_root": ["params", "certificate"],
            "certificate_record": ["params", "certificate"],
            "_bisect": ["f", "lo", "hi"],
        }
        assert rootcert.DEFAULT_BISECTION_WIDTH == 1e-12

    def test_large_parameters(self):
        cert = certify_family_root(FamilyParams(50, 50))
        assert cert.theta_lo < cert.theta_star < cert.theta_hi
        assert cert.g_at_lo > 0 > cert.g_at_hi

    def test_invalid_interval_rejected(self):
        with pytest.raises(CertificationFailed):
            RootCertificate(
                CertificateKind.INTERVAL_SIGN_CHANGE, 0.5, 0.6, 0.4, 1.0, -1.0, "w"
            )
        with pytest.raises(CertificationFailed):
            RootCertificate(
                CertificateKind.INTERVAL_SIGN_CHANGE, 0.5, 3.0, 1.0, 1.0, -1.0, "w"
            )


class TestBracketChecks:
    """Each CertificationFailed raise site of certify_family_root, per kind."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_left_sign(self, monkeypatch, n):
        cert = certify_family_root(FamilyParams(n, 3))
        monkeypatch.setattr(rootcert, "circle_function", lambda params, theta: -1.0)
        with pytest.raises(CertificationFailed) as info:
            certify_family_root(FamilyParams(n, 3))
        message = f"g({cert.theta_lo}) = -1.0 not positive beyond margin"
        assert str(info.value) == message

    @pytest.mark.parametrize("n", [1, 2])
    def test_right_sign(self, monkeypatch, n):
        cert = certify_family_root(FamilyParams(n, 3))
        monkeypatch.setattr(rootcert, "circle_function", lambda params, theta: 1.0)
        with pytest.raises(CertificationFailed) as info:
            certify_family_root(FamilyParams(n, 3))
        message = f"g({cert.theta_hi}) = 1.0 not negative beyond margin"
        assert str(info.value) == message

    def test_exact_root(self, monkeypatch):
        # the shift keeps both bracket signs but moves the n = 1 zero
        def shifted(params, theta):
            return circle_function(params, theta) + 1e-6

        monkeypatch.setattr(rootcert, "circle_function", shifted)
        cert = certify_family_root(FamilyParams(2, 3))
        assert cert.kind is CertificateKind.INTERVAL_SIGN_CHANGE
        with pytest.raises(CertificationFailed) as info:
            certify_family_root(FamilyParams(1, 3))
        assert str(info.value) == "g is not numerically zero at the exact root"


class TestResidual:
    def test_small_residuals(self):
        # (26490, 1194) has its root near 5e-5, where |g'| is about 6e4: only a
        # bisection width relative to the root keeps its residual small
        for n, m in [(1, 1), (2, 1), (3, 2), (10, 7), (26490, 1194)]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            assert residual_at_certified_root(params, cert) < 1e-8

    def test_bit_identical_to_expanded_polynomial(self):
        # summing the runs' nonzero terms, run by run, must give the value of
        # the expanded polynomial, term for term and in the same order: that
        # of eval_unit_circle exactly, and of the product form to the digit
        members = [(n, m) for n in range(1, 41) for m in range(1, 41)]
        # the members that tests/test_cli.py pins; (2, 100000): 200 000 of
        # its 600 003 coefficients are zero
        pinned = [(26490, 1194), (150000, 1), (100000, 10000), (2, 100000)]
        for n, m in [*members, *pinned]:
            params = FamilyParams(n, m)
            cert = certify_family_root(params)
            poly = closed_form_alexander(n, m)
            residual = residual_at_certified_root(params, cert)
            assert residual == abs(eval_unit_circle(poly, cert.theta_star)), (n, m)
            expected = abs(_eval_oracle(poly, cert.theta_star))
            assert repr(residual) == repr(expected), (n, m)

    @settings(deadline=None, max_examples=20)
    @given(
        n=st.integers(min_value=1, max_value=100000),
        m=st.integers(min_value=1, max_value=10000),
    )
    def test_equals_eval_unit_circle_at_large_members(self, n, m):
        params = FamilyParams(n, m)
        cert = certify_family_root(params)
        value = eval_unit_circle(closed_form_alexander(n, m), cert.theta_star)
        with pytest.MonkeyPatch.context() as patch:
            # large members may miss the bound; the equality must hold anyway
            patch.setattr(rootcert, "DEFAULT_RESIDUAL_BOUND", math.inf)
            assert residual_at_certified_root(params, cert) == abs(value)

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

    def test_unattainable_bound_raises(self, monkeypatch):
        params = FamilyParams(2, 1)
        cert = certify_family_root(params)
        monkeypatch.setattr(rootcert, "DEFAULT_RESIDUAL_BOUND", 1e-30)
        with pytest.raises(ResidualTooLarge, match="is not below 1e-30"):
            residual_at_certified_root(params, cert)

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

    def test_root_on_first_grid_point(self, monkeypatch):
        # at grid factor 1 the first grid point is pi/5, a root of T(2, 5);
        # its outer neighbour is theta = 0, where the form is +1
        monkeypatch.setattr(rootcert, "DEFAULT_GRID_FACTOR", 1)
        roots = find_simple_roots(torus_knot_alexander(2, 5))
        assert roots[0].theta_lo == 0.0
        assert roots[0].theta_star == math.pi / 5
        assert roots[0].odd_multiplicity and roots[0].simple

    def test_roots_in_end_cells(self, monkeypatch):
        # at grid factor 1 the grid is k*pi/5; the form is -2.2e-16 at the
        # last grid point 4*pi/5 and +1 at pi, so that root's sign change
        # shows only in the end cell
        monkeypatch.setattr(rootcert, "DEFAULT_GRID_FACTOR", 1)
        cyclotomic = LaurentPoly({k: 1 for k in range(5)})
        roots = find_simple_roots(cyclotomic)
        assert [r.theta_star for r in roots] == pytest.approx(
            [2 * math.pi / 5, 4 * math.pi / 5], abs=1e-10
        )
        assert roots[-1].theta_hi == math.pi
        assert all(r.odd_multiplicity and r.simple for r in roots)

    def test_torus_knots_report_every_root(self):
        # T(p, q) has (p-1)(q-1)/2 simple roots in the open upper half circle
        for p in range(2, 8):
            for q in range(p + 1, 60 // p + 1):
                if math.gcd(p, q) != 1:
                    continue
                roots = find_simple_roots(torus_knot_alexander(p, q))
                assert len(roots) == (p - 1) * (q - 1) // 2, (p, q)
                assert all(r.odd_multiplicity and r.simple for r in roots), (p, q)

    def test_scan_bisects_to_relative_width(self):
        # T(2, 301) = (t^301 + 1)/(t + 1) has its roots at pi(2j + 1)/301;
        # the first is 0.0104, so only a relative width reaches 1e-12 there
        roots = find_simple_roots(torus_knot_alexander(2, 301))
        assert len(roots) == 150
        for j, root in enumerate(roots):
            want = math.pi * (2 * j + 1) / 301
            assert abs(root.theta_star - want) < 1e-12 * want, j

    def test_takes_the_polynomial_alone(self):
        assert list(inspect.signature(find_simple_roots).parameters) == ["p"]

    def test_constant_polynomial_has_no_roots(self):
        assert find_simple_roots(LaurentPoly.one()) == []

    def test_not_palindromic(self):
        with pytest.raises(NotPalindromic):
            find_simple_roots(LaurentPoly({0: 1, 1: 2, 2: 3}))

    def test_odd_span(self):
        with pytest.raises(OddSpan):
            find_simple_roots(LaurentPoly({0: 1, 1: 1}))


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
