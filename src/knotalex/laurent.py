"""Sparse Laurent polynomials over the integers.

A polynomial is a map from integer exponents to nonzero integer coefficients;
Python integers make every operation exact at arbitrary precision.  The zero
polynomial is the empty map.  Constructors accept mappings or (exponent,
coefficient) pairs, check their types (bools are not integers here) and
accumulate duplicate exponents additively; results of the module's own
arithmetic skip those checks.

That invariant and the arithmetic that ignores what a key is (the checked
constructor, sums, negation, equality with ints coerced) belong to the
private base ``_IntCombination``.  ``LaurentPoly`` adds exponents as keys and
their sum as the key product; ``foxcalc.GroupRingElement`` is the same core
with free-group words as keys and concatenation as the product.

Knot polynomials are defined only up to a unit +-t^k; ``normalize_knot_poly``
picks the representative with minimum degree zero and value +1 at t = 1.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterable, Mapping
from itertools import repeat
from operator import mul

from .errors import (
    DivisionByZero,
    NotAKnotPolynomial,
    NotDivisible,
    NotPalindromic,
    OddSpan,
    _is_integer,
)


class _IntCombination:
    """Immutable finite integer combination of keys.

    The combination is a dict from keys to nonzero int coefficients; zero is
    the empty dict.  Everything that does not depend on what a key is lives
    here.  A subclass sets ``_is_key``, the key ``_UNIT`` of its one, and
    ``_TYPE_ERROR``, the text of the constructor's TypeError, and defines the
    product of two keys in ``__mul__``.  Like the dicts they wrap, instances
    are unhashable (``__eq__`` without ``__hash__``).
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping | Iterable[tuple] = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        is_key = self._is_key
        data = {}
        for key, coeff in items:
            if not (is_key(key) and _is_integer(coeff)):
                raise TypeError(self._TYPE_ERROR)
            if coeff:
                total = data.get(key, 0) + coeff
                if total:
                    data[key] = total
                else:
                    del data[key]
        self._coeffs = data

    @classmethod
    def _trusted(cls, coeffs: dict):
        """Wrap a dict of keys to nonzero int coefficients, unchecked.

        The result takes ownership of ``coeffs``; callers hand over a fresh
        dict that already satisfies the invariant.
        """
        out = cls.__new__(cls)
        out._coeffs = coeffs
        return out

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls({cls._UNIT: 1})

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coefficient(self, key) -> int:
        return self._coeffs.get(key, 0)

    def _coerce(self, other):
        if isinstance(other, type(self)):
            return other
        if _is_integer(other):
            return type(self)({self._UNIT: other})
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._coeffs)
        for key, coeff in other._coeffs.items():
            total = data.get(key, 0) + coeff
            if total:
                data[key] = total
            else:
                data.pop(key, None)
        return self._trusted(data)

    __radd__ = __add__

    def __neg__(self):
        return self._trusted({key: -coeff for key, coeff in self._coeffs.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._coeffs == other._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)


class LaurentPoly(_IntCombination):
    """Immutable Laurent polynomial with integer coefficients."""

    __slots__ = ()
    _is_key = staticmethod(_is_integer)
    _UNIT = 0
    _TYPE_ERROR = "exponents and coefficients must be integers"

    @classmethod
    def monomial(cls, exp: int, coeff: int = 1) -> LaurentPoly:
        return cls({exp: coeff})

    @property
    def min_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degrees")
        return min(self._coeffs)

    @property
    def max_degree(self) -> int:
        if not self._coeffs:
            raise ValueError("the zero polynomial has no degrees")
        return max(self._coeffs)

    @property
    def span(self) -> int:
        return self.max_degree - self.min_degree

    def items(self) -> list[tuple[int, int]]:
        """Coefficients in ascending exponent order."""
        return sorted(self._coeffs.items())

    def evaluate(self, x) -> int | Fraction:
        """Exact value at an integer or Fraction point."""
        if not self._coeffs:
            return 0
        if x == 0:
            if self.min_degree < 0:
                raise ZeroDivisionError("negative exponents cannot be evaluated at 0")
            return self._coeffs.get(0, 0)
        from fractions import Fraction

        total = Fraction(0)
        for exp, coeff in self._coeffs.items():
            total += coeff * Fraction(x) ** exp
        return int(total) if total.denominator == 1 else total

    def __mul__(self, other) -> LaurentPoly:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data: dict[int, int] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                exp = e1 + e2
                total = data.get(exp, 0) + c1 * c2
                if total:
                    data[exp] = total
                else:
                    del data[exp]
        return LaurentPoly._trusted(data)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> LaurentPoly:
        if not _is_integer(k):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers are not defined for polynomials")
        result = LaurentPoly.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"LaurentPoly({format_poly(self)!r})"


#: The generator t, for building polynomials arithmetically.
t = LaurentPoly.monomial(1)


def exact_div(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    """Exact quotient p / q; raises NotDivisible on any nonzero remainder."""
    if q.is_zero:
        raise DivisionByZero("division by the zero polynomial")
    if p.is_zero:
        return LaurentPoly.zero()
    shift = p.min_degree - q.min_degree
    p_span = p.span
    q_span = q.span
    if p_span < q_span:
        raise NotDivisible("dividend span is smaller than divisor span")
    p_min = p.min_degree
    q_min = q.min_degree
    rem = [p.coefficient(p_min + i) for i in range(p_span + 1)]
    div = [q.coefficient(q_min + i) for i in range(q_span + 1)]
    lead = div[-1]
    quot = [0] * (p_span - q_span + 1)
    for i in range(p_span - q_span, -1, -1):
        coeff, leftover = divmod(rem[i + q_span], lead)
        if leftover:
            raise NotDivisible("leading coefficient does not divide evenly")
        if coeff:
            quot[i] = coeff
            for j, d in enumerate(div):
                rem[i + j] -= coeff * d
    if any(rem):
        raise NotDivisible("remainder is nonzero")
    return LaurentPoly._trusted({i + shift: c for i, c in enumerate(quot) if c})


def normalize_knot_poly(p: LaurentPoly) -> LaurentPoly:
    """Unique representative of +-t^k * p with min degree 0 and value +1 at t=1."""
    if p.is_zero:
        raise NotAKnotPolynomial("the zero polynomial cannot be normalized")
    value = sum(p._coeffs.values())
    if value not in (1, -1):
        raise NotAKnotPolynomial(f"value at t = 1 is {value}, expected +1 or -1")
    low = p.min_degree
    if value == 1 and low == 0:
        return p  # already the representative; polynomials are immutable
    return LaurentPoly._trusted(
        {exp - low: value * coeff for exp, coeff in p._coeffs.items()}
    )


def is_palindromic(p: LaurentPoly) -> bool:
    """True if coefficient(min + k) == coefficient(max - k) for all k."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no coefficient symmetry")
    low, high = p.min_degree, p.max_degree
    return all(
        p.coefficient(low + k) == p.coefficient(high - k)
        for k in range(p.span // 2 + 1)
    )


def _unit_circle_sum(exps: Iterable[int], coeffs: Iterable[int], theta: float) -> complex:
    """Sum of coeff * e^(i*theta*exp) over paired terms, left to right.

    Each term is ``cmath.rect(coeff, theta*exp)``, which forms the same two
    products coeff*cos and coeff*sin of the same angle as
    coeff * cmath.exp(1j*theta*exp) and differs from it only in the signs of
    zero parts.  Those cannot reach the sum: started at 0j, it never holds
    -0.0.  So the value is bit for bit that of the product form.  ``exps``
    may be longer than ``coeffs``.
    """
    return sum(map(cmath.rect, coeffs, map(mul, repeat(theta), exps)), 0j)


def eval_unit_circle(p: LaurentPoly, theta: float) -> complex:
    """Value of p at e^(i*theta).

    The terms coeff * e^(i*theta*exp) are added left to right in ascending
    exponent order; the last digits of the result depend on that order.  The
    certificate residual in ``rootcert`` sums the closed form's coefficient
    stream by the same route, so its digits are this function's.
    """
    exps = sorted(p._coeffs)
    return _unit_circle_sum(exps, map(p._coeffs.__getitem__, exps), theta)


def centered_cosine_form(p: LaurentPoly) -> list[int]:
    """Cosine coefficients of a palindromic polynomial of even span.

    Returns (c_0, ..., c_g) such that t^-center * p evaluated at e^(i*theta)
    is the real number c_0 + sum_k 2*c_k*cos(k*theta); center = min + span/2.
    """
    if p.is_zero or not is_palindromic(p):
        raise NotPalindromic("cosine form requires a nonzero palindromic polynomial")
    if p.span % 2:
        raise OddSpan(f"span {p.span} is odd; no integer center exists")
    center = p.min_degree + p.span // 2
    return [p.coefficient(center + k) for k in range(p.span // 2 + 1)]


def centered_cosine_value(coeffs: list[int], theta: float) -> float:
    """Evaluate a centered cosine form at theta."""
    return coeffs[0] + 2.0 * sum(
        c * math.cos(k * theta) for k, c in enumerate(coeffs[1:], start=1)
    )


def format_poly(p: LaurentPoly) -> str:
    """Human-readable text, ascending powers: ``1 - t + t^2``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for exp, coeff in p.items():
        mag = abs(coeff)
        if exp == 0:
            body = str(mag)
        else:
            power = "t" if exp == 1 else f"t^{exp}"
            body = power if mag == 1 else f"{mag}{power}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)


def to_json_dict(p: LaurentPoly) -> dict:
    """JSON shape: {"min_degree": k, "coeffs": [decimal strings, ascending]}."""
    if p.is_zero:
        return {"min_degree": 0, "coeffs": []}
    low = p.min_degree
    return {
        "min_degree": low,
        "coeffs": [str(p.coefficient(low + i)) for i in range(p.span + 1)],
    }


def from_json_dict(data: Mapping) -> LaurentPoly:
    low = int(data["min_degree"])
    return LaurentPoly(
        {low + i: int(text) for i, text in enumerate(data["coeffs"])}
    )
