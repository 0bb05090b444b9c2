"""Free differential (Fox) calculus over the integral group ring of a free group.

A group-ring element is a finite integer combination of Words.  The free
derivative d/dg is determined by d(g)/dg = 1, d(h)/dg = 0 for h != g, and the
product rule d(uv)/dg = du/dg + u * dv/dg; it follows that
d(g^-k)/dg = -(g^-1 + ... + g^-k).  The fundamental identity
sum_g (du/dg) * (g - 1) = u - 1 holds for every word u and pins down the
whole calculus; the test suite exercises it directly.

Abelianization sends each generator g to t^weight(g), where the weights span
the integer nullspace of the relator exponent-sum matrix.  For a knot-like
presentation that nullspace is one-dimensional and the primitive,
meridian-positive vector is unique.

The Alexander matrix needs only the abelianized derivatives, and
``_abelianized_row`` computes those in one pass over a relator's syllables
with integer degrees alone; ``fox_derivative`` followed by ``abelianize`` is
the exact reference it is tested against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

from ._record import record
from .errors import H1RankNotOne
from .laurent import LaurentPoly
from .words import Presentation, Word


class GroupRingElement:
    """Immutable finite integer combination of free-group words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, int] | Iterable[tuple[Word, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        data: dict[Word, int] = {}
        for word, coeff in items:
            if not isinstance(word, Word) or not isinstance(coeff, int):
                raise TypeError("terms must map Word to int")
            if coeff:
                total = data.get(word, 0) + coeff
                if total:
                    data[word] = total
                else:
                    del data[word]
        self._terms = data

    @classmethod
    def zero(cls) -> GroupRingElement:
        return cls()

    @classmethod
    def one(cls) -> GroupRingElement:
        return cls({Word.identity(): 1})

    @classmethod
    def from_word(cls, word: Word, coeff: int = 1) -> GroupRingElement:
        return cls({word: coeff})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> list[tuple[Word, int]]:
        """Terms sorted by word text, for deterministic iteration."""
        return sorted(self._terms.items(), key=lambda item: item[0].render())

    def coefficient(self, word: Word) -> int:
        return self._terms.get(word, 0)

    def _coerce(self, other) -> GroupRingElement | None:
        if isinstance(other, GroupRingElement):
            return other
        if isinstance(other, int):
            return GroupRingElement({Word.identity(): other})
        if isinstance(other, Word):
            return GroupRingElement({other: 1})
        return None

    def __add__(self, other) -> GroupRingElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data = dict(self._terms)
        for word, coeff in other._terms.items():
            total = data.get(word, 0) + coeff
            if total:
                data[word] = total
            else:
                data.pop(word, None)
        out = GroupRingElement.zero()
        out._terms = data
        return out

    __radd__ = __add__

    def __neg__(self) -> GroupRingElement:
        out = GroupRingElement.zero()
        out._terms = {word: -coeff for word, coeff in self._terms.items()}
        return out

    def __sub__(self, other) -> GroupRingElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> GroupRingElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> GroupRingElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        data: dict[Word, int] = {}
        for w1, c1 in self._terms.items():
            for w2, c2 in other._terms.items():
                word = w1 * w2
                total = data.get(word, 0) + c1 * c2
                if total:
                    data[word] = total
                else:
                    del data[word]
        out = GroupRingElement.zero()
        out._terms = data
        return out

    def __rmul__(self, other) -> GroupRingElement:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self

    def __eq__(self, other) -> bool:
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._terms == other._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return "GroupRingElement(0)"
        body = " + ".join(
            f"{coeff}*[{word.render() or '1'}]" for word, coeff in self.terms()
        )
        return f"GroupRingElement({body})"


def geometric_series(base: Word, count: int) -> GroupRingElement:
    """Truncated geometric series 1 + base + ... + base^count in the group ring."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    terms: dict[Word, int] = {}
    power = Word.identity()
    for _ in range(count + 1):
        terms[power] = terms.get(power, 0) + 1
        power = power * base
    return GroupRingElement(terms)


def fox_derivative(word: Word, gen: str) -> GroupRingElement:
    """Free derivative of ``word`` with respect to one generator.

    Walks the syllables once, keeping the running prefix; a syllable g^k
    contributes prefix * (1 + g + ... + g^(k-1)) for k > 0 and
    prefix * -(g^-1 + ... + g^k) for k < 0.
    """
    terms: dict[Word, int] = {}

    def add(w: Word, c: int) -> None:
        total = terms.get(w, 0) + c
        if total:
            terms[w] = total
        else:
            del terms[w]

    prefix = Word.identity()
    for name, exp in word.syllables:
        if name == gen:
            if exp > 0:
                power = prefix
                step = Word.generator(name)
                for _ in range(exp):
                    add(power, 1)
                    power = power * step
            else:
                power = prefix
                step = Word.generator(name, -1)
                for _ in range(-exp):
                    power = power * step
                    add(power, -1)
        prefix = prefix * Word.generator(name, exp)
    return GroupRingElement(terms)


@record
class Weights:
    """Abelianization exponents: generator g is sent to t**weight(g).

    The entries form a primitive vector (gcd 1).  Instances produced by
    ``compute_weights`` additionally annihilate every relator's exponent
    sums, which makes ``abelianize`` a ring homomorphism killing relators.
    """

    entries: tuple[tuple[str, int], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((str(g), int(w)) for g, w in self.entries)
        )
        names = [g for g, _ in self.entries]
        if len(set(names)) != len(names):
            raise ValueError("duplicate generator in weights")
        values = [w for _, w in self.entries]
        if not any(values):
            raise ValueError("weights cannot all be zero")
        if math.gcd(*(abs(w) for w in values)) != 1:
            raise ValueError("weights must form a primitive vector (gcd 1)")

    def __getitem__(self, name: str) -> int:
        for gen, weight in self.entries:
            if gen == name:
                return weight
        raise KeyError(name)

    def degree(self, word: Word) -> int:
        """Exponent of t assigned to a word under abelianization."""
        return sum(exp * self[name] for name, exp in word.syllables)

    def as_dict(self) -> dict[str, int]:
        return dict(self.entries)


def _rational_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    matrix = [[Fraction(v) for v in row] for row in rows]
    pivot_cols: list[int] = []
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        scale = matrix[rank][col]
        matrix[rank] = [v / scale for v in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        pivot_cols.append(col)
        rank += 1
        if rank == len(matrix):
            break
    basis = []
    for free in (c for c in range(ncols) if c not in pivot_cols):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivot_cols):
            vec[col] = -matrix[r][free]
        basis.append(vec)
    return basis


def compute_weights(presentation: Presentation) -> Weights:
    """Primitive weight vector annihilating all relator exponent sums.

    The nullspace of the relator exponent-sum matrix must be one-dimensional
    (H1RankNotOne otherwise); the sign is fixed so the meridian's weight, or
    the first nonzero weight, is positive.
    """
    gens = presentation.generators
    rows = [[rel.exponent_sum(g) for g in gens] for rel in presentation.relators]
    basis = _rational_nullspace(rows, len(gens))
    if len(basis) != 1:
        raise H1RankNotOne(
            f"exponent-sum nullspace has dimension {len(basis)}, expected 1"
        )
    vec = basis[0]
    common = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * common) for f in vec]
    divisor = math.gcd(*(abs(v) for v in ints))
    ints = [v // divisor for v in ints]
    reference = None
    if presentation.meridian is not None:
        idx = gens.index(presentation.meridian)
        if ints[idx]:
            reference = idx
    if reference is None:
        reference = next(i for i, v in enumerate(ints) if v)
    if ints[reference] < 0:
        ints = [-v for v in ints]
    return Weights(tuple(zip(gens, ints)))


def abelianize(element: GroupRingElement, weights: Weights) -> LaurentPoly:
    """Image of a group-ring element under g -> t**weight(g)."""
    coeffs: dict[int, int] = {}
    for word, coeff in element.terms():
        degree = weights.degree(word)
        coeffs[degree] = coeffs.get(degree, 0) + coeff
    return LaurentPoly(coeffs)


def _abelianized_row(
    relator: Word, generators: tuple[str, ...], weights: Weights
) -> tuple[LaurentPoly, ...]:
    """``abelianize(fox_derivative(relator, g), weights)`` for every g, in one walk.

    Only the degree d of the running prefix matters after abelianization, so
    no prefix word is built: a syllable g^k of weight w adds
    t^d + t^(d+w) + ... + t^(d+(k-1)w) to column g when k > 0, and
    -(t^(d-w) + ... + t^(d+kw)) when k < 0; then d grows by k*w.
    """
    weight = weights.as_dict()
    columns: dict[str, dict[int, int]] = {gen: {} for gen in generators}
    degree = 0
    for name, exp in relator.syllables:
        step = weight[name]
        column = columns[name]
        sign = 1 if exp > 0 else -1
        start = degree + min(exp, 0) * step
        for j in range(abs(exp)):
            power = start + j * step
            column[power] = column.get(power, 0) + sign
        degree += exp * step
    return tuple(LaurentPoly(columns[gen]) for gen in generators)
