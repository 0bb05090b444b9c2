"""Certified simple roots of family Alexander polynomials on the unit circle.

With M = n + 3m, nu = n - 3/2 and T = 2n + 6m + 1, pairing the exponents e
and T - e of the six-term numerator N of the closed form gives
N(e^(i*theta)) = 2*e^(i*T*theta/2)*g(theta), where

    g(theta) = 2*cos(theta/2)*cos(M*theta) + cos(nu*theta),

so |Delta(e^(i*theta))| = |g(theta)| / (cos(theta/2)*(1 + 2*cos(theta))), and
on (0, 2*pi/3) a simple zero of g is a simple zero of the polynomial.  Every
certificate brackets the first positive zero of g in [theta_lo, theta_hi],
theta_lo = (pi/2)/M, where cos(M*theta_lo) = 0 leaves

    g(theta_lo) = cos(nu*pi/(2M)) = sin(pi*(6m + 3)/(4M)) > 0.

* n = 1: theta_hi = (5*pi/6)/M.  nu = -1/2 makes g factor as
  cos(theta/2)*(2*cos(M*theta) + 1), so g(theta_hi) = cos(theta_hi/2)*(1 - sqrt(3))
  < 0 and the first zero (2*pi/3)/M is exact (ExactCosine).
* n >= 2: theta_hi*(M + nu) = pi, so cos(nu*theta_hi) = -cos(M*theta_hi) and
  g(theta_hi) = -sin(pi*(6m + 3)/(2*(2M + 2n - 3)))*(2*cos(theta_hi/2) - 1) < 0.
  On the bracket M*theta lies in [pi/2, pi*M/(M + nu)], so cos(M*theta) <= 0,
  sin(nu*theta) > 0 and, by Jordan's inequality, sin(M*theta) >= 2*nu/(M + nu).
  With cos(theta/2) > 1/2, sin(x) <= x and pi < 22/7 that gives

      -g'(theta) > 2*(7M(2n - 3) - 11) / (7*(2M + 2n - 3)) > 0,

  so g falls strictly and crosses zero once (IntervalSignChange).  The one
  run-time check is the integer inequality 7M(2n - 3) > 11
  (``MonotonicityWitness``); bisection then locates the zero, down to a fixed
  width of 1e-12 relative to the bracket's upper end.

``tests/test_closed_form_proof.py`` proves the pairing, theta_hi*(M + nu) = pi
and the bound's algebra for every (n, m).  The shown ``g_at_lo`` and
``g_at_hi`` are the sine forms above, whose float signs are right at any
size; no float margin decides a certificate.  A certificate's residual, the
value of the expanded Delta at the root, must be below the fixed bound 1e-8.

Range: the bracket is held in floats, so a member is refused with
``CertificationFailed`` when theta_lo is not a normal float (M above
(pi/2)*2^1022, about 7.06e307), or when no float lies strictly between
theta_lo and theta_hi, which happens for n >= 2 once n/m passes about 10^16.
"""

from __future__ import annotations

import enum
import math
from functools import partial
from itertools import cycle

from ._record import record
from .errors import CertificationFailed, ResidualTooLarge
from .family import FamilyParams, _closed_form_runs, _nonzero_terms
from .laurent import _unit_circle_sum

#: Bisection stops when the bracket is narrower than this times its upper
#: end.  The family root theta* ~ pi/(2M) shrinks as M = n + 3m grows while
#: |g'| near it grows like 2M, so an absolute width would let the residual
#: grow with M.
DEFAULT_BISECTION_WIDTH = 1e-12
#: |Delta(e^(i*theta_star))| must stay below this.
DEFAULT_RESIDUAL_BOUND = 1e-8
#: The largest M = n + 3m whose theta_lo = (pi/2)/M is a normal float: the
#: float pi/2 times 2^1022, an integer.  The exact quotient is then at least
#: the smallest normal float, and rounding M and the quotient keeps it there.
_LARGEST_M = int(math.ldexp(0.5 * math.pi, 1022))


class CertificateKind(enum.Enum):
    EXACT_COSINE = "ExactCosine"
    INTERVAL_SIGN_CHANGE = "IntervalSignChange"


@record
class MonotonicityWitness:
    """Exact data of the proof that -g' > 0 on an n >= 2 bracket."""

    big: int  # M = n + 3m
    twice_nu: int  # 2n - 3

    def __post_init__(self):
        if not 7 * self.big * self.twice_nu > 11:
            raise CertificationFailed(
                f"7M(2n - 3) = {7 * self.big * self.twice_nu} is not above 11"
            )

    @property
    def bound(self):
        """The ``Fraction`` 2(7M(2n - 3) - 11) / (7(2M + 2n - 3)), below -g'."""
        from fractions import Fraction

        return Fraction(
            2 * (7 * self.big * self.twice_nu - 11), 7 * (2 * self.big + self.twice_nu)
        )


@record
class RootCertificate:
    """A certified simple root of g (hence of the polynomial) in (0, 2*pi/3)."""

    kind: CertificateKind
    theta_lo: float
    theta_hi: float
    theta_star: float
    g_at_lo: float
    g_at_hi: float
    witness: MonotonicityWitness | str

    def __post_init__(self):
        if not (0.0 < self.theta_lo < self.theta_star < self.theta_hi < 2 * math.pi / 3):
            raise CertificationFailed(
                "certificate interval must satisfy 0 < lo < star < hi < 2*pi/3"
            )


def _frequencies(params: FamilyParams) -> tuple[int, float]:
    return params.n + 3 * params.m, params.n - 1.5


def circle_function(params: FamilyParams, theta: float) -> float:
    """g(theta) = 2*cos(theta/2)*cos(M*theta) + cos(nu*theta); g(0) = 3."""
    big, small = _frequencies(params)
    return 2.0 * math.cos(0.5 * theta) * math.cos(big * theta) + math.cos(small * theta)

def circle_function_derivative(params: FamilyParams, theta: float) -> float:
    """Analytic derivative g'(theta)."""
    big, small = _frequencies(params)
    return -(
        math.sin(0.5 * theta) * math.cos(big * theta)
        + 2.0 * big * math.cos(0.5 * theta) * math.sin(big * theta)
        + small * math.sin(small * theta)
    )


def _bisect(f, lo: float, hi: float) -> float:
    """Bisect f over [lo, hi] with f(lo) > 0 > f(hi) down to a relative width.

    DEFAULT_BISECTION_WIDTH * hi is about 4 500 ulps of hi, so the midpoint
    of a wider bracket lies strictly inside it: no float-resolution guard.
    """
    while hi - lo > DEFAULT_BISECTION_WIDTH * hi:
        mid = 0.5 * (lo + hi)
        value = f(mid)
        if value > 0.0:
            lo = mid
        elif value < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def certify_family_root(params: FamilyParams) -> RootCertificate:
    """Certificate for the first positive root of g; raises CertificationFailed.

    The bracket's signs and, for n >= 2, the monotonicity of g are proved in
    closed form for every member (see the module docstring); only members
    outside the float range are refused.
    """
    n, m = params.n, params.m
    big = n + 3 * m
    if big > _LARGEST_M:
        raise CertificationFailed(
            "theta_lo = (pi/2)/M is not a normal float: "
            "M = n + 3m exceeds (pi/2)*2^1022"
        )
    theta_lo = (0.5 * math.pi) / big
    if n == 1:
        theta_hi = (5.0 * math.pi / 6.0) / big
    else:
        theta_hi = (0.5 * math.pi) / (n + 1.5 * m - 0.75)
    if not theta_lo < 0.5 * (theta_lo + theta_hi) < theta_hi:
        raise CertificationFailed(
            f"no float lies strictly between theta_lo = {theta_lo!r} "
            f"and theta_hi = {theta_hi!r}"
        )
    g_lo = math.sin(math.pi * ((6 * m + 3) / (4 * big)))
    if n == 1:
        kind = CertificateKind.EXACT_COSINE
        g_hi = math.cos(0.5 * theta_hi) * (1.0 - math.sqrt(3.0))
        theta_star = (2.0 * math.pi / 3.0) / big
        witness = (
            "g(theta) = cos(theta/2) * (2*cos(M*theta) + 1) for n = 1; "
            f"the second factor vanishes at theta = 2*pi/(3*{big}) where its "
            "derivative is nonzero and the first factor is positive"
        )
    else:
        kind = CertificateKind.INTERVAL_SIGN_CHANGE
        g_hi = -math.sin(math.pi * ((6 * m + 3) / (2 * (2 * big + 2 * n - 3)))) * (
            2.0 * math.cos(0.5 * theta_hi) - 1.0
        )
        witness = MonotonicityWitness(big, 2 * n - 3)
        theta_star = _bisect(partial(circle_function, params), theta_lo, theta_hi)
    return RootCertificate(kind, theta_lo, theta_hi, theta_star, g_lo, g_hi, witness)


def residual_at_certified_root(params: FamilyParams, certificate: RootCertificate) -> float:
    """|Delta(e^(i*theta_star))| for the closed form; must be < DEFAULT_RESIDUAL_BOUND.

    Computed on the expanded Delta, not from g, it checks the certificate
    against Delta itself: it adds the nonzero terms of the closed form's runs
    in ascending exponent order, by the route of ``eval_unit_circle``, whose
    value it equals, yet builds no polynomial and no coefficient list.
    """
    total = 0j
    for exps, levels in _nonzero_terms(_closed_form_runs(params.n, params.m)):
        coeffs = cycle(map(float, levels))  # rect takes floats; one cast per level
        total = _unit_circle_sum(exps, coeffs, certificate.theta_star, total)
    residual = abs(total)
    if not residual < DEFAULT_RESIDUAL_BOUND:
        raise ResidualTooLarge(
            f"residual {residual} at theta_star {certificate.theta_star} "
            f"is not below {DEFAULT_RESIDUAL_BOUND}"
        )
    return residual


def certificate_record(params: FamilyParams, certificate: RootCertificate) -> dict:
    """Flat record of a certificate plus its residual, ready for JSON."""
    return {
        "kind": certificate.kind.value,
        "theta_lo": certificate.theta_lo,
        "theta_hi": certificate.theta_hi,
        "theta_star": certificate.theta_star,
        "g_lo": certificate.g_at_lo,
        "g_hi": certificate.g_at_hi,
        "residual": residual_at_certified_root(params, certificate),
    }
