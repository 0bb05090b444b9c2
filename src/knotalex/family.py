"""The twisted torus knot family: presentations, longitudes, and surgeries.

The family member with parameters (n, m), both at least 1, is the twisted
torus knot obtained from the (3, 3m+2) torus knot by adding n - 2 full
twists along two adjacent strands.  Its knot group has a two-generator,
one-relator presentation on a meridian ``a`` and a second generator ``w``
whose homology class is twice the meridian's.  Landmarks: n = 1 gives the
(3, 3m+1) torus knots, (1, 1) being the (3, 4) torus knot, n = 2 gives the
(3, 3m+2) torus knots, and m = 1 gives the (-2, 3, 2n+1) pretzel knots.

The member's Alexander polynomial has a closed form: the normalized
quotient of 1 + t + t^(3m+2) + t^(2n+3m-1) + t^(2n+6m) + t^(2n+6m+1) by
(t + 1)(t^2 + t + 1).  Since

    1 / ((t + 1)(t^2 + t + 1)) = (1 - 2t + 2t^2 - t^3) / (1 - t^6),

the quotient is the six-term numerator times that cubic (at most 24 step
terms), divided by 1 - t^6.  The division keeps one running level per residue
class of exponents mod 6, so between two consecutive step exponents the
coefficients repeat with period 6: they are kept as those runs, never as one
dense list.  The division is exact exactly when every level is back to zero
after the last step.  The runs are already the normalized representative
(constant term 1, coefficients summing to 1), so the certificate residual in
``rootcert`` sums their nonzero terms without building the polynomial.

``classify_surgery`` applies the non-left-orderability threshold for this
family: rational surgery with slope p/q >= 2n + 6m - 3 (which equals
2*genus - 1) yields a 3-manifold whose fundamental group is not
left-orderable.  Below the threshold nothing is concluded here; slopes
sufficiently close to zero are known to give left-orderable groups, and the
classification record's ``near_zero_note``, derived from its verdict, recalls
that fact.

The slope test and the closed form's coefficients need no other module of
the package: words and polynomials are imported by the functions that build
them, so a command-line call loads only what it runs.
"""

from __future__ import annotations

import enum
import math
from itertools import compress, cycle

from ._record import record
from .errors import NotDivisible, _is_integer


@record
class FamilyParams:
    """Parameters of a family member; requires n >= 1 and m >= 1."""

    n: int
    m: int

    def __post_init__(self):
        if not (_is_integer(self.n) and _is_integer(self.m)):
            raise TypeError("n and m must be integers")
        if self.n < 1 or self.m < 1:
            raise ValueError("the family requires n >= 1 and m >= 1")


def _closed_form_runs(n: int, m: int) -> list[tuple[int, int, list[int]]]:
    """The (n, m) closed form as at most 24 runs, degrees 0..2n + 6m - 2 in order.

    A run (start, stop, period) gives each degree d in [start, stop) the
    coefficient period[(d - start) % 6].
    """
    if not (_is_integer(n) and _is_integer(m)) or n < 1 or m < 1:
        raise ValueError("closed form requires integers n >= 1 and m >= 1")
    top = 2 * n + 6 * m + 1
    end = top - 2  # one past the span 2n + 6m - 2
    # The numerator times 1 - 2t + 2t^2 - t^3, as steps sorted by exponent.
    # Exponent collisions, were they ever to occur, must accumulate: equal
    # exponents are consecutive steps with no run between them.
    steps = []
    for exp in (0, 1, 3 * m + 2, 2 * n + 3 * m - 1, 2 * n + 6 * m, top):
        steps += (exp, 1), (exp + 1, -2), (exp + 2, 2), (exp + 3, -1)
    steps.sort()
    # Divide by 1 - t^6: up to each step, degree d has the running level of
    # its residue d mod 6, so the coefficients since the last step are those
    # six levels, rotated to the phase where that step sits.  Most runs are
    # one coefficient long, between the four steps of a numerator term.
    levels, runs, done = [0] * 6, [], 0
    for exp, coeff in steps:
        stop = min(exp, end)
        if done < stop:
            runs.append((done, stop, levels[done % 6 :] + levels[: done % 6]))
            done = stop
        levels[exp % 6] += coeff
    if any(levels):
        raise NotDivisible("remainder is nonzero")
    return runs


def _nonzero_terms(runs: list):
    """Per run: the exponents of its nonzero terms, and its nonzero levels to cycle."""
    for start, stop, period in runs:
        exps = range(start, stop)
        if not all(period):
            exps = compress(exps, cycle(period))
        yield exps, [level for level in period if level]


def closed_form_alexander(n: int, m: int):
    """Closed-form Alexander polynomial (a ``LaurentPoly``) of the (n, m) member."""
    from .laurent import LaurentPoly, normalize_knot_poly

    coeffs = {}
    for exps, levels in _nonzero_terms(_closed_form_runs(n, m)):
        coeffs.update(zip(exps, cycle(levels)))
    return normalize_knot_poly(LaurentPoly._trusted(coeffs))


def knot_group_presentation(params: FamilyParams):
    """Two-generator, one-relator knot group ``Presentation`` with meridian ``a``.

    The single relator equates w^n (aw)^m a^-1 (aw)^-m with
    (wa)^-m a (wa)^m w^(n-1).
    """
    from .words import Presentation, Word

    n, m = params.n, params.m
    a = Word.generator("a")
    w = Word.generator("w")
    aw = a * w
    wa = w * a
    r1 = w**n * aw**m * a.inverse() * aw**-m
    r2 = wa**-m * a * wa**m * w ** (n - 1)
    return Presentation(("a", "w"), (r1 * r2.inverse(),), meridian="a")


def preferred_longitude(params: FamilyParams):
    """Null-homologous longitude ``Word`` commuting with the meridian.

    The meridian exponent -(4n + 9m - 2) exactly cancels the homology of the
    positive part; getting it wrong by any amount leaves a nonzero homology
    class, which the tests assert on the whole parameter grid.
    """
    from .words import Word

    n, m = params.n, params.m
    a = Word.generator("a")
    w = Word.generator("w")
    aw = a * w
    wa = w * a
    lead = Word.generator("a", -(4 * n + 9 * m - 2))
    return lead * wa**m * w**n * aw ** (m - 1) * a * w**n * aw**m


def genus(params: FamilyParams) -> int:
    """Seifert genus n + 3m - 1 (half the Alexander polynomial span)."""
    return params.n + 3 * params.m - 1


def slope_bound(params: FamilyParams) -> int:
    """Surgery slope threshold 2n + 6m - 3, equal to 2*genus - 1."""
    bound = 2 * params.n + 6 * params.m - 3
    assert bound == 2 * genus(params) - 1
    return bound


@record
class SurgerySlope:
    """A rational surgery slope p/q in lowest terms with q > 0.

    Any representation with q != 0 is accepted and normalized; q = 0 (the
    trivial filling) is rejected.
    """

    p: int
    q: int = 1

    def __post_init__(self):
        if not (_is_integer(self.p) and _is_integer(self.q)):
            raise TypeError("p and q must be integers")
        if self.q == 0:
            raise ValueError("slope requires q != 0")
        p, q = self.p, self.q
        if q < 0:
            p, q = -p, -q
        common = math.gcd(p, q)
        if common > 1:
            p //= common
            q //= common
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


class Verdict(enum.Enum):
    NOT_LEFT_ORDERABLE = "NotLeftOrderable"
    NO_CONCLUSION = "NoConclusion"


@record
class SurgeryClassification:
    """Outcome of the slope test for one family member and one slope."""

    verdict: Verdict
    slope_bound: int

    @property
    def near_zero_note(self) -> bool:
        """Slopes close enough to 0 are known to give left-orderable groups.

        True exactly when the verdict is NoConclusion, as a reminder that the
        inconclusive region is genuinely mixed.
        """
        return self.verdict is Verdict.NO_CONCLUSION


def classify_surgery(params: FamilyParams, slope: SurgerySlope) -> SurgeryClassification:
    """Exact comparison of the slope against 2n + 6m - 3 (inclusive).

    The slope keeps q > 0, so p/q >= bound exactly when p >= bound * q.
    """
    bound = slope_bound(params)
    if slope.p >= bound * slope.q:
        return SurgeryClassification(Verdict.NOT_LEFT_ORDERABLE, bound)
    return SurgeryClassification(Verdict.NO_CONCLUSION, bound)
