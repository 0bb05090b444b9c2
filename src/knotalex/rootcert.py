"""Certified simple roots of family Alexander polynomials on the unit circle.

On the unit circle the family polynomial is proportional to the real
function

    g(theta) = 2*cos(theta/2)*cos(M*theta) + cos(nu*theta),

with M = n + 3m and nu = n - 3/2, so a simple zero of g certifies a simple
zero of the polynomial at e^(i*theta).  Two certificate kinds are produced:

* n = 1: nu = -1/2 makes g factor as cos(theta/2) * (2*cos(M*theta) + 1),
  whose first zero theta = (2*pi/3)/M is exact (ExactCosine).
* n >= 2: on the interval ((pi/2)/M, (pi/2)/(n + 3m/2 - 3/4)) the endpoint
  values of g have opposite signs and -g' > 0, so g is strictly decreasing
  and crosses zero exactly once (IntervalSignChange).  -g' > 0 is proved on
  adaptive panels: a panel [a, b] is kept once
  min(-g'(a), -g'(b)) - L*(b - a)/2 clears an explicit floating-point margin,
  where L = (M + 1/2)^2 + M^2 + nu^2 bounds |g''|, and is split at its
  midpoint otherwise, down to a width of (hi - lo)/(PANELS_PER_UNIT*M).
  Endpoint signs must likewise clear an explicit margin.  The root is then
  located by bisection.

``find_simple_roots`` is the generic companion: it scans any palindromic
even-span polynomial for sign changes of its centered cosine form on
(0, pi).  Unlike the family certificates its "simple" flag is a numerical
judgment (a derivative-magnitude threshold), not a proof.
"""

from __future__ import annotations

import enum
import math
import sys
from itertools import count

from ._record import record
from .errors import CertificationFailed, ResidualTooLarge, _is_integer
from .family import FamilyParams, _closed_form_coefficients
from .laurent import (
    LaurentPoly,
    _unit_circle_sum,
    centered_cosine_form,
    centered_cosine_value,
)

#: Bisection stops when the bracket is narrower than this.  The family
#: bisection scales it by the bracket's upper end: the root theta* ~ pi/(2M)
#: shrinks as M = n + 3m grows while |g'| near it grows like 2M, so an
#: absolute width would let the residual grow with M.
DEFAULT_BISECTION_WIDTH = 1e-12
#: |Delta(e^(i*theta_star))| must stay below this.
DEFAULT_RESIDUAL_BOUND = 1e-8
#: Finest monotonicity panels per unit of M = n + 3m: a panel this narrow
#: that still fails to bridge fails the certificate.
PANELS_PER_UNIT = 64
#: Grid points per unit of span in the generic root scan.
DEFAULT_GRID_FACTOR = 8


class CertificateKind(enum.Enum):
    EXACT_COSINE = "ExactCosine"
    INTERVAL_SIGN_CHANGE = "IntervalSignChange"


@record
class MonotonicityWitness:
    """Record of the derivative check that makes a sign-change bracket a proof."""

    panels: int  # adaptive panels kept
    panel_width: float  # narrowest kept panel
    min_neg_derivative: float  # min of -g' over the evaluated points
    second_derivative_bound: float


@record
class RootCertificate:
    """A certified simple root of g (hence of the polynomial) in (0, 2*pi/3)."""

    kind: CertificateKind
    theta_lo: float
    theta_hi: float
    theta_star: float
    g_at_lo: float
    g_at_hi: float
    monotone_witness: MonotonicityWitness | str

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


def _float_margin(scale: float) -> float:
    # Conservative room for floating-point error in one evaluation of g or
    # -g'; scale grows with their frequencies and term sizes.
    return 1e-9 + 16.0 * sys.float_info.epsilon * scale


def _monotone_witness(params: FamilyParams, lo: float, hi: float) -> MonotonicityWitness:
    """Prove -g' > 0 on [lo, hi] on adaptive panels; raises CertificationFailed."""
    big, small = _frequencies(params)
    lipschitz = (big + 0.5) ** 2 + big**2 + small**2
    margin = _float_margin(2 * big + abs(small) + 2)
    finest = (hi - lo) / (PANELS_PER_UNIT * big)

    def neg_derivative(theta: float) -> float:
        return -circle_function_derivative(params, theta)

    at_lo, at_hi = neg_derivative(lo), neg_derivative(hi)
    lowest, narrowest, panels = min(at_lo, at_hi), hi - lo, 0
    pending = [(lo, at_lo, hi, at_hi)]
    while pending:
        a, at_a, b, at_b = pending.pop()
        if min(at_a, at_b) - 0.5 * lipschitz * (b - a) > margin:
            panels += 1
            narrowest = min(narrowest, b - a)
            continue
        if b - a <= finest:
            raise CertificationFailed(f"monotonicity does not bridge on [{a}, {b}]")
        mid = 0.5 * (a + b)
        at_mid = neg_derivative(mid)
        lowest = min(lowest, at_mid)
        pending += [(mid, at_mid, b, at_b), (a, at_a, mid, at_mid)]
    return MonotonicityWitness(panels, narrowest, lowest, lipschitz)


def _bisect(params: FamilyParams, lo: float, hi: float, width: float) -> float:
    """Bisect g over [lo, hi] with g(lo) > 0 > g(hi) down to a relative width."""
    while hi - lo > width * hi:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket hit float resolution
            break
        value = circle_function(params, mid)
        if value > 0.0:
            lo = mid
        elif value < 0.0:
            hi = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def certify_family_root(
    params: FamilyParams, bisection_width: float = DEFAULT_BISECTION_WIDTH
) -> RootCertificate:
    """Certificate for the first positive root of g; raises CertificationFailed.

    Every numeric inequality involved is re-verified at run time with an
    explicit margin, so a certificate is only ever issued when the evidence
    actually holds for the given parameters.
    """
    if not 0.0 <= bisection_width < math.inf:
        raise ValueError(
            f"bisection width must be finite and non-negative, got {bisection_width}"
        )
    n, m = params.n, params.m
    big, _ = _frequencies(params)
    margin = _float_margin(big + 2)

    if n == 1:
        theta_star = (2.0 * math.pi / 3.0) / big
        theta_lo = (0.5 * math.pi) / big
        theta_hi = (5.0 * math.pi / 6.0) / big
        g_lo = circle_function(params, theta_lo)
        g_hi = circle_function(params, theta_hi)
        if not (g_lo > margin and g_hi < -margin):
            raise CertificationFailed("bracket signs failed for the exact-cosine case")
        if abs(circle_function(params, theta_star)) > 1e-12:
            raise CertificationFailed("g is not numerically zero at the exact root")
        witness = (
            "g(theta) = cos(theta/2) * (2*cos(M*theta) + 1) for n = 1; "
            f"the second factor vanishes at theta = 2*pi/(3*{big}) where its "
            "derivative is nonzero and the first factor is positive"
        )
        return RootCertificate(
            CertificateKind.EXACT_COSINE,
            theta_lo,
            theta_hi,
            theta_star,
            g_lo,
            g_hi,
            witness,
        )

    theta_lo = (0.5 * math.pi) / big
    theta_hi = (0.5 * math.pi) / (n + 1.5 * m - 0.75)
    if not (0.0 < theta_lo < theta_hi <= 2.0 * math.pi / 7.0 + 1e-15):
        raise CertificationFailed("interval endpoints out of order")
    g_lo = circle_function(params, theta_lo)
    g_hi = circle_function(params, theta_hi)
    if not g_lo > margin:
        raise CertificationFailed(f"g({theta_lo}) = {g_lo} not positive beyond margin")
    if not g_hi < -margin:
        raise CertificationFailed(f"g({theta_hi}) = {g_hi} not negative beyond margin")

    witness = _monotone_witness(params, theta_lo, theta_hi)
    theta_star = _bisect(params, theta_lo, theta_hi, bisection_width)
    return RootCertificate(
        CertificateKind.INTERVAL_SIGN_CHANGE,
        theta_lo,
        theta_hi,
        theta_star,
        g_lo,
        g_hi,
        witness,
    )


def residual_at_certified_root(
    params: FamilyParams,
    certificate: RootCertificate,
    bound: float = DEFAULT_RESIDUAL_BOUND,
) -> float:
    """|Delta(e^(i*theta_star))| for the closed-form polynomial; must be < bound.

    The residual is still computed on the fully expanded polynomial, not from
    g: it sums the coefficient stream that ``closed_form_alexander`` collects,
    term by term in ascending exponent order, with the summation
    ``eval_unit_circle`` uses, and builds no polynomial and no coefficient
    list.  Zero coefficients are summed too; each adds a zero, which changes
    neither a nonzero sum nor its modulus.  It checks the certificate against
    Delta itself, independently of the circle function.
    """
    coeffs = _closed_form_coefficients(params.n, params.m)
    residual = abs(_unit_circle_sum(count(), coeffs, certificate.theta_star))
    if not residual < bound:
        raise ResidualTooLarge(
            f"residual {residual} at theta_star {certificate.theta_star} "
            f"is not below {bound}"
        )
    return residual


def certificate_record(
    params: FamilyParams,
    certificate: RootCertificate,
    residual_bound: float = DEFAULT_RESIDUAL_BOUND,
) -> dict:
    """Flat record of a certificate plus its residual, ready for JSON."""
    return {
        "kind": certificate.kind.value,
        "theta_lo": certificate.theta_lo,
        "theta_hi": certificate.theta_hi,
        "theta_star": certificate.theta_star,
        "g_lo": certificate.g_at_lo,
        "g_hi": certificate.g_at_hi,
        "residual": residual_at_certified_root(params, certificate, residual_bound),
    }


@record
class CircleRoot:
    """A sign-change root of a centered cosine form on (0, pi)."""

    theta_lo: float
    theta_hi: float
    theta_star: float
    odd_multiplicity: bool
    simple: bool  # numerical judgment: |P'(theta_star)| above threshold


def _cosine_derivative(coeffs: list[int], theta: float) -> float:
    return -2.0 * sum(
        k * c * math.sin(k * theta) for k, c in enumerate(coeffs[1:], start=1)
    )


def _bisect_cosine(coeffs: list[int], lo: float, hi: float) -> float:
    flo = centered_cosine_value(coeffs, lo)
    while hi - lo > DEFAULT_BISECTION_WIDTH:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        value = centered_cosine_value(coeffs, mid)
        if value == 0.0:
            return mid
        if (value > 0.0) == (flo > 0.0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def find_simple_roots(
    p: LaurentPoly, grid_factor: int = DEFAULT_GRID_FACTOR
) -> list[CircleRoot]:
    """Scan a palindromic even-span polynomial for unit-circle roots in (0, pi).

    The centered cosine form is sampled on a uniform grid of
    grid_factor * span interior points plus the ends 0 and pi; each sign
    change between neighbouring samples, the two end cells included, is
    bisected.  A zero exactly at 0 or pi lies outside the open interval and is
    not reported.  Roots are reported with odd multiplicity (that is what a
    sign change shows); the ``simple`` flag additionally requires the
    analytic derivative at the bisected point to exceed 1e-6 * max|c| * span.
    """
    if not _is_integer(grid_factor):
        raise TypeError(
            f"grid_factor must be an integer, got {type(grid_factor).__name__}"
        )
    if grid_factor < 1:
        raise ValueError("grid_factor must be at least 1")
    coeffs = centered_cosine_form(p)
    spread = 2 * (len(coeffs) - 1)
    if spread == 0:
        return []
    interior = grid_factor * spread
    step = math.pi / (interior + 1)
    thetas = [0.0, *(j * step for j in range(1, interior + 1)), math.pi]
    values = [centered_cosine_value(coeffs, theta) for theta in thetas]

    threshold = 1e-6 * max(abs(c) for c in coeffs) * spread
    roots: list[CircleRoot] = []

    def emit(lo: float, hi: float, star: float, odd: bool) -> None:
        simple = abs(_cosine_derivative(coeffs, star)) > threshold
        roots.append(CircleRoot(lo, hi, star, odd, simple))

    for j in range(interior + 1):
        value, after = values[j], values[j + 1]
        if j and value == 0.0:
            emit(thetas[j - 1], thetas[j + 1], thetas[j], values[j - 1] * after < 0)
        elif after != 0.0 and value * after < 0:
            star = _bisect_cosine(coeffs, thetas[j], thetas[j + 1])
            emit(thetas[j], thetas[j + 1], star, True)
    return roots
