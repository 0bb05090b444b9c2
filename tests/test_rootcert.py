"""Certified unit-circle roots: the family function g and its certificates."""

import inspect
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _strategies import _eval_oracle
import knotalex
from knotalex import rootcert
from knotalex.alexander import closed_form_alexander
from knotalex.errors import CertificationFailed, ResidualTooLarge
from knotalex.family import FamilyParams
from knotalex.laurent import eval_unit_circle
from knotalex.rootcert import (
    CertificateKind,
    MonotonicityWitness,
    RootCertificate,
    certificate_record,
    certify_family_root,
    circle_function,
    circle_function_derivative,
    residual_at_certified_root,
)

#: Members whose roots lie far below the range of today's tests' grids.
LARGE_MEMBERS = [(31400257, 1), (814743552, 1000), (1, 10**15), (10**15, 10**15)]


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

    def test_is_delta_on_the_unit_circle(self):
        # |Delta(e^(i theta))| = |g(theta)| / (cos(theta/2) (1 + 2 cos theta)) on
        # (0, 2 pi/3), the identity every certificate rests on
        rng = random.Random(1809)
        for n in range(1, 13):
            for m in range(1, 13):
                params, poly = FamilyParams(n, m), closed_form_alexander(n, m)
                for _ in range(8):
                    theta = rng.uniform(0.0, 2 * math.pi / 3)
                    denominator = math.cos(theta / 2) * (1 + 2 * math.cos(theta))
                    expected = abs(circle_function(params, theta)) / denominator
                    got = abs(eval_unit_circle(poly, theta))
                    assert math.isclose(got, expected, rel_tol=1e-9), (n, m, theta)


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
        assert isinstance(cert.witness, str)
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
        # M = 5 and 2n - 3 = 1: -g' > 2 (35 - 11) / (7 * 11) on the bracket
        assert cert.witness == MonotonicityWitness(5, 1)
        assert cert.witness.bound == Fraction(48, 77)
        assert cert.g_at_lo == pytest.approx(math.cos(math.pi / 20), abs=1e-15)

    def test_extreme_members_certify_in_milliseconds(self):
        # the float margin this replaced refused (31400257, 1) and every
        # member past it; the proof holds at any size
        for n, m in LARGE_MEMBERS:
            params = FamilyParams(n, m)
            took = []
            for _ in range(5):
                start = time.perf_counter()
                cert = certify_family_root(params)
                took.append(time.perf_counter() - start)
            assert min(took) < 0.01, (n, m, took)
            assert cert.theta_lo < cert.theta_star < cert.theta_hi, (n, m)
            assert cert.g_at_lo > 0.0 > cert.g_at_hi, (n, m)
            if n >= 2:
                assert cert.witness == MonotonicityWitness(n + 3 * m, 2 * n - 3)
                assert cert.witness.bound > 0

    @pytest.mark.parametrize("n, m", [(2, 1), (2, 10**5), (10**15, 10**15)])
    def test_bisects_to_relative_width(self, n, m):
        # the root shrinks like 1/M, so only a width relative to it keeps
        # 1e-12 of accuracy: g changes sign within theta* (1 +- 2e-12)
        params = FamilyParams(n, m)
        star = certify_family_root(params).theta_star
        assert circle_function(params, star * (1 - 2e-12)) > 0
        assert circle_function(params, star * (1 + 2e-12)) < 0

    def test_unbridgeable_derivative_fails_fast(self):
        # a witness whose bound does not show -g' > 0 cannot be built; every
        # member has 7M(2n - 3) >= 35, so this one is made by hand
        with pytest.raises(CertificationFailed) as info:
            MonotonicityWitness(1, 1)
        assert str(info.value) == "7M(2n - 3) = 7 is not above 11"
        assert MonotonicityWitness(2, 1).bound == Fraction(6, 35)

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
    """The bracket's end values, per kind: closed forms equal to g there."""

    @staticmethod
    def _members(n):
        if n == 1:
            return [(1, m) for m in range(1, 40)]
        return [(k, m) for k in range(2, 30) for m in range(1, 30)]

    @pytest.mark.parametrize("n", [1, 2])
    def test_left_sign(self, n):
        for member in self._members(n):
            params = FamilyParams(*member)
            cert = certify_family_root(params)
            assert cert.g_at_lo > 0, member
            expected = circle_function(params, cert.theta_lo)
            assert cert.g_at_lo == pytest.approx(expected, abs=1e-13), member

    @pytest.mark.parametrize("n", [1, 2])
    def test_right_sign(self, n):
        for member in self._members(n):
            params = FamilyParams(*member)
            cert = certify_family_root(params)
            assert cert.g_at_hi < 0, member
            expected = circle_function(params, cert.theta_hi)
            assert cert.g_at_hi == pytest.approx(expected, abs=1e-13), member

    def test_exact_root(self):
        # the n = 1 root is (2 pi/3)/M in closed form; g vanishes there
        for m in [*range(1, 60), 10**6, 10**15]:
            params = FamilyParams(1, m)
            cert = certify_family_root(params)
            assert abs(circle_function(params, cert.theta_star)) < 1e-12, m


class TestRange:
    """Members past the float range are refused by name, before any g."""

    def test_theta_lo_below_the_normal_floats(self, monkeypatch):
        calls = []
        monkeypatch.setattr(rootcert, "circle_function", lambda *a: calls.append(a))
        message = (
            "theta_lo = (pi/2)/M is not a normal float: "
            "M = n + 3m exceeds (pi/2)*2^1022"
        )
        largest = rootcert._LARGEST_M
        n = largest % 3 or 3  # n + 3m = largest, with n in {1, 2, 3}
        for member in [(int("9" * 401), 1), (1, 10**400), (n + 1, (largest - n) // 3)]:
            with pytest.raises(CertificationFailed) as info:
                certify_family_root(FamilyParams(*member))
            assert str(info.value) == message
        assert calls == []
        monkeypatch.undo()
        cert = certify_family_root(FamilyParams(n, (largest - n) // 3))
        assert cert.theta_lo >= sys.float_info.min
        assert cert.g_at_lo > 0.0 > cert.g_at_hi

    def test_bracket_without_an_inner_float(self, monkeypatch):
        # with m = 1 the float bracket collapses between n = 10^15 and 10^17:
        # (10^16, 1) has adjacent ends, (10^17, 1) equal ones
        calls = []
        monkeypatch.setattr(rootcert, "circle_function", lambda *a: calls.append(a))
        for n in (10**16, 10**17, 10**100):
            with pytest.raises(CertificationFailed) as info:
                certify_family_root(FamilyParams(n, 1))
            assert str(info.value).startswith("no float lies strictly between"), n
        assert calls == []
        monkeypatch.undo()
        cert = certify_family_root(FamilyParams(10**15, 1))
        assert cert.theta_lo < cert.theta_star < cert.theta_hi


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


def test_package_import_leaves_numpy_out():
    # with numpy blocked, the CLI must still run
    code = "\n".join(
        [
            "import sys",
            "sys.modules['numpy'] = None",
            "from knotalex import cli",
            "assert cli.main(['certify', '--n', '2', '--m', '1']) == 0",
            "assert cli.main(['table', '--n-max', '3', '--m-max', '3']) == 0",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(Path(knotalex.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "theta_star: 0.4188790204786347" in done.stdout
