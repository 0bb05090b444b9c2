"""Shared hypothesis strategies and oracles for the test suite."""

import cmath

from hypothesis import strategies as st

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
