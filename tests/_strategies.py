"""Shared hypothesis strategies and oracles for the test suite."""

import cmath
import math
from fractions import Fraction
from itertools import accumulate

from hypothesis import strategies as st

from knotalex import alexander
from knotalex.errors import (
    H1RankNotOne,
    NotAKnotPolynomial,
    NotDivisible,
)
from knotalex.foxcalc import Weights, _abelianized_row
from knotalex.laurent import LaurentPoly, exact_div, normalize_knot_poly
from knotalex.words import Presentation, Word

ALPHABET = ("a", "b", "c")

_syllable = st.tuples(
    st.sampled_from(ALPHABET),
    st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0),
)


def words(max_syllables: int = 8) -> st.SearchStrategy[Word]:
    return st.lists(_syllable, max_size=max_syllables).map(Word)


@st.composite
def presentations(draw, max_generators: int = 6) -> Presentation:
    """Deficiency-one presentations on up to six generators, exponents -3..3."""
    gens = ("a", "b", "c", "d", "e", "f")[: draw(st.integers(1, max_generators))]
    syllable = st.tuples(st.sampled_from(gens), st.integers(-3, 3).filter(bool))
    relator = st.lists(syllable, min_size=1, max_size=4).map(Word)
    size = len(gens) - 1
    relators = draw(st.lists(relator, min_size=size, max_size=size))
    meridian = draw(st.none() | st.sampled_from(gens))
    return Presentation(gens, tuple(relators), meridian)


def laurent_polys(max_terms: int = 6) -> st.SearchStrategy[LaurentPoly]:
    return st.dictionaries(
        keys=st.integers(min_value=-6, max_value=6),
        values=st.integers(min_value=-9, max_value=9).filter(lambda c: c != 0),
        max_size=max_terms,
    ).map(LaurentPoly)


def _eval_oracle(p: LaurentPoly, theta: float) -> complex:
    """Reference value of p at e^(i*theta): one generator over p.items()."""
    return sum(
        coeff * cmath.exp(1j * (exp * theta)) for exp, coeff in p.items()
    ) + 0j


def _dense_closed_form_oracle(n: int, m: int) -> list[int]:
    """Reference dense coefficients of the (n, m) closed form.

    The numerator times 1 - 2t + 2t^2 - t^3 on one dense list, divided by
    1 - t^6 with six strided running sums, one per residue mod 6; the list is
    trimmed to degrees 0..2n + 6m - 2 after checking that nothing remains
    above them.
    """
    top = 2 * n + 6 * m + 1
    span = top - 3
    dense = [0] * (top + 4)
    for exp in (0, 1, 3 * m + 2, 2 * n + 3 * m - 1, 2 * n + 6 * m, top):
        dense[exp] += 1
        dense[exp + 1] -= 2
        dense[exp + 2] += 2
        dense[exp + 3] -= 1
    for residue in range(6):
        dense[residue::6] = accumulate(dense[residue::6])
    if any(dense[span + 1 :]):
        raise NotDivisible("remainder is nonzero")
    del dense[span + 1 :]
    return dense


def _rational_nullspace(rows: list[list[int]], ncols: int) -> list[list[Fraction]]:
    """Reference basis of the rational nullspace: Gauss-Jordan over Fraction."""
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


def _weights_oracle(presentation: Presentation) -> Weights:
    """Reference weights: a nullspace basis, cleared of denominators, made primitive."""
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


def _alexander_oracle(
    presentation: Presentation, column: str | None = None
) -> LaurentPoly:
    """Reference Alexander polynomial: the value at t = 1 from det(E_j) / e_j.

    det(E_j) is the determinant of the exponent sums without column j, taken
    as constant Laurent polynomials; the weights come from ``_weights_oracle``.
    ``column`` names the deleted generator, which must have nonzero weight;
    by default it is the pipeline's, that of the smallest positive weight.
    """
    weights = _weights_oracle(presentation)
    gens = presentation.generators
    if column is None:
        removed = min((weights[g], i) for i, g in enumerate(gens) if weights[g] > 0)[1]
    else:
        removed = gens.index(column)
    weight = weights[gens[removed]]
    sums = [
        [
            LaurentPoly.monomial(0, rel.exponent_sum(g))
            for j, g in enumerate(gens)
            if j != removed
        ]
        for rel in presentation.relators
    ]
    value = alexander._determinant(sums).coefficient(0) // weight
    if value not in (1, -1):
        raise NotAKnotPolynomial(f"value at t = 1 is {value}, expected +1 or -1")
    rows = [_abelianized_row(rel, gens, weights) for rel in presentation.relators]
    minor = [[poly for j, poly in enumerate(row) if j != removed] for row in rows]
    numerator = alexander._determinant(minor) * LaurentPoly({1: 1, 0: -1})
    denominator = LaurentPoly({weight: 1, 0: -1})
    return normalize_knot_poly(exact_div(numerator, denominator))
