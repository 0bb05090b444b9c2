"""Certified simple roots of family Alexander polynomials on the unit circle.

On the unit circle the family polynomial is proportional to the real
function

    g(theta) = 2*cos(theta/2)*cos(M*theta) + cos(nu*theta),

with M = n + 3m and nu = n - 3/2, so a simple zero of g certifies a simple
zero of the polynomial at e^(i*theta).  Two certificate kinds are produced:

* n = 1: nu = -1/2 makes g factor as cos(theta/2) * (2*cos(M*theta) + 1),
  whose first zero theta = (2*pi/3)/M is exact (ExactCosine).
* n >= 2: on the interval ((pi/2)/M, (pi/2)/(n + 3m/2 - 3/4)) the endpoint
  values of g have opposite signs and -g' stays above
  sin((M + 1/2)*theta) >= 0, so g is strictly decreasing and crosses zero
  exactly once (IntervalSignChange).  The derivative bound is checked on a
  dense panel grid and bridged between panel points with the Lipschitz bound
  |g''| <= (M + 1/2)^2 + M^2 + nu^2; endpoint signs must clear an explicit
  floating-point evaluation margin.  The root is then located by bisection.

``find_simple_roots`` is the generic companion: it scans any palindromic
even-span polynomial for sign changes of its centered cosine form on
(0, pi).  Unlike the family certificates its "simple" flag is a numerical
judgment (a derivative-magnitude threshold), not a proof.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import sys

from .alexander import closed_form_alexander
from .errors import CertificationFailed, ResidualTooLarge
from .family import FamilyParams
from .laurent import (
    LaurentPoly,
    centered_cosine_form,
    centered_cosine_value,
    eval_unit_circle,
)

# numpy is imported inside the functions that use it, so that importing the
# package (and every CLI command but ``certify``) does not load it.

#: Bisection stops when the bracket is narrower than this.  The family
#: bisection scales it by the bracket's upper end: the root theta* ~ pi/(2M)
#: shrinks as M = n + 3m grows while |g'| near it grows like 2M, so an
#: absolute width would let the residual grow with M.
DEFAULT_BISECTION_WIDTH = 1e-12
#: |Delta(e^(i*theta_star))| must stay below this.
DEFAULT_RESIDUAL_BOUND = 1e-8
#: Panels per unit of M = n + 3m in the monotonicity check.
PANELS_PER_UNIT = 64
#: Grid points per unit of span in the generic root scan.
DEFAULT_GRID_FACTOR = 8


class CertificateKind(enum.Enum):
    EXACT_COSINE = "ExactCosine"
    INTERVAL_SIGN_CHANGE = "IntervalSignChange"


@dataclasses.dataclass(frozen=True)
class MonotonicityWitness:
    """Record of the derivative check that makes a sign-change bracket a proof."""

    panels: int
    panel_width: float
    min_lower_bound: float  # min over the grid of sin((M + 1/2) * theta)
    min_neg_derivative: float  # min over the grid of -g'
    second_derivative_bound: float


@dataclasses.dataclass(frozen=True)
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


def _grid_neg_derivative(params: FamilyParams, thetas):
    import numpy as np

    big, small = _frequencies(params)
    return (
        np.sin(0.5 * thetas) * np.cos(big * thetas)
        + 2.0 * big * np.cos(0.5 * thetas) * np.sin(big * thetas)
        + small * np.sin(small * thetas)
    )


def _sign_margin(params: FamilyParams) -> float:
    # Conservative room for floating-point error in one evaluation of g.
    return 1e-9 + 16.0 * sys.float_info.epsilon * (params.n + 3 * params.m + 2)


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
    n, m = params.n, params.m
    big, small = _frequencies(params)
    margin = _sign_margin(params)

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

    import numpy as np

    panels = PANELS_PER_UNIT * big
    thetas = np.linspace(theta_lo, theta_hi, panels + 1)
    neg_deriv = _grid_neg_derivative(params, thetas)
    lower = np.sin((big + 0.5) * thetas)
    slack = 1e-9 * (1.0 + big)
    if not np.all(neg_deriv >= lower - slack):
        raise CertificationFailed("derivative lower bound failed on the panel grid")
    lipschitz = (big + 0.5) ** 2 + big**2 + small**2
    width = (theta_hi - theta_lo) / panels
    bridged = np.minimum(neg_deriv[:-1], neg_deriv[1:]) - 0.5 * lipschitz * width
    if not np.all(bridged > 0.0):
        raise CertificationFailed("monotonicity does not bridge between panel points")

    theta_star = _bisect(params, theta_lo, theta_hi, bisection_width)
    witness = MonotonicityWitness(
        panels=panels,
        panel_width=width,
        min_lower_bound=float(lower.min()),
        min_neg_derivative=float(neg_deriv.min()),
        second_derivative_bound=float(lipschitz),
    )
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
    """|Delta(e^(i*theta_star))| for the closed-form polynomial; must be < bound."""
    delta = closed_form_alexander(params.n, params.m)
    residual = abs(eval_unit_circle(delta, certificate.theta_star))
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


@dataclasses.dataclass(frozen=True)
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
    grid_factor * span interior points; each sign change is bisected.  Roots
    are reported with odd multiplicity (that is what a sign change shows);
    the ``simple`` flag additionally requires the analytic derivative at the
    bisected point to exceed 1e-6 * max|c| * span.
    """
    import numpy as np

    if grid_factor < 1:
        raise ValueError("grid_factor must be at least 1")
    coeffs = centered_cosine_form(p)
    spread = 2 * (len(coeffs) - 1)
    if spread == 0:
        return []
    count = grid_factor * spread
    thetas = np.linspace(0.0, math.pi, count + 2)[1:-1]
    wave = np.arange(1, len(coeffs))
    weights = np.asarray(coeffs[1:], dtype=float)
    values = coeffs[0] + 2.0 * (np.cos(np.outer(thetas, wave)) @ weights)

    threshold = 1e-6 * max(abs(c) for c in coeffs) * spread
    roots: list[CircleRoot] = []

    def emit(lo: float, hi: float, star: float, odd: bool) -> None:
        simple = abs(_cosine_derivative(coeffs, star)) > threshold
        roots.append(CircleRoot(lo, hi, star, odd, simple))

    for j in range(len(thetas)):
        value = values[j]
        if value == 0.0:
            left = values[j - 1] if j > 0 else values[j + 1]
            right = values[j + 1] if j + 1 < len(values) else values[j - 1]
            emit(
                thetas[j - 1] if j > 0 else 0.0,
                thetas[j + 1] if j + 1 < len(thetas) else math.pi,
                float(thetas[j]),
                bool(left * right < 0),
            )
        elif j + 1 < len(thetas) and values[j + 1] != 0.0 and value * values[j + 1] < 0:
            star = _bisect_cosine(coeffs, float(thetas[j]), float(thetas[j + 1]))
            emit(float(thetas[j]), float(thetas[j + 1]), star, True)
    return roots
