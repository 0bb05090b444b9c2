"""Shared hypothesis strategies and oracles for the test suite."""

import cmath
from itertools import accumulate

from hypothesis import strategies as st

from knotalex.errors import NotDivisible
from knotalex.laurent import LaurentPoly
from knotalex.words import Word

ALPHABET = ("a", "b", "c")

_syllable = st.tuples(
    st.sampled_from(ALPHABET),
    st.integers(min_value=-4, max_value=4).filter(lambda e: e != 0),
)


def words(max_syllables: int = 8) -> st.SearchStrategy[Word]:
    return st.lists(_syllable, max_size=max_syllables).map(Word)


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
