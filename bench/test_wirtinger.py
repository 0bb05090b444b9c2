"""Tests of the bench-only Wirtinger generator.

Run from the root of the repository:

    python3 -m pytest bench/test_wirtinger.py
"""

import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from knotalex import alexander_polynomial, parse_presentation, torus_knot_alexander  # noqa: E402
from wirtinger import closed_braid_presentation, torus_braid  # noqa: E402

TORUS_KNOTS = [(2, 3), (2, 5), (2, 7), (2, 9), (3, 4), (3, 5)]


@pytest.mark.parametrize("p, q", TORUS_KNOTS)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_closed_torus_braid_gives_torus_polynomial(p, q, seed):
    word = torus_braid(p, q)
    presentation = parse_presentation(closed_braid_presentation(p, word, random.Random(seed)))
    assert len(presentation.generators) == len(word)
    assert len(presentation.relators) == len(presentation.generators) - 1
    assert alexander_polynomial(presentation) == torus_knot_alexander(p, q)


def test_conjugate_braid_gives_the_same_knot():
    word = torus_braid(3, 4)
    text = closed_braid_presentation(3, word[3:] + word[:3], random.Random(0))
    assert alexander_polynomial(parse_presentation(text)) == torus_knot_alexander(3, 4)


@pytest.mark.parametrize("strands, word", [(2, [1, 1]), (2, []), (3, [1, 1, 2])])
def test_links_are_rejected(strands, word):
    with pytest.raises(ValueError):
        closed_braid_presentation(strands, word, random.Random(0))
