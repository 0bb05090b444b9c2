"""Wirtinger presentations of closed positive braids.

BENCH-ONLY CODE: this generator exists to feed the benchmark's ``wirtinger``
workload (and its own test).  It is not part of the knotalex package and
nothing in ``src/`` may import it.

A braid on s strands is a sequence of Artin generators sigma_i, written as
the integers i in 1..s-1; only positive crossings are supported.  Reading
the braid top to bottom, every crossing ends the under-strand's arc and
starts a new one, and gives the Wirtinger relation new = over * old *
over^-1.  Closing the braid identifies the arc leaving the bottom at each
position with the arc entering the top there.  For a closed braid that is a
knot every relation follows from the others, so one is dropped and the
presentation has deficiency one.  The closure of (sigma_1 ... sigma_(p-1))^q
is the torus knot T(p, q).
"""

from __future__ import annotations

import random


def torus_braid(p: int, q: int) -> list[int]:
    """Braid word (sigma_1 ... sigma_(p-1))^q, whose closure is T(p, q)."""
    return list(range(1, p)) * q


def closed_braid_presentation(strands: int, word: list[int], rng: random.Random) -> str:
    """Presentation text of the closure of a positive braid.

    ``rng`` chooses how the knot group is written: the generator names, their
    order in the ``gens:`` line and which relation is dropped.
    """
    if strands < 2 or any(not 1 <= i < strands for i in word):
        raise ValueError("braid letters must lie in 1..strands-1")
    order = list(range(strands))  # strand (by starting position) at each position
    for i in word:
        order[i - 1], order[i] = order[i], order[i - 1]
    follow, cycle = order.index(0), 1
    while follow != 0:
        follow, cycle = order.index(follow), cycle + 1
    if cycle != strands:
        raise ValueError("the closure of this braid is not a knot")
    at = list(range(strands))  # arc currently at each position
    relations = []  # (new, over, old) arc triples
    arcs = strands
    for i in word:
        over, old = at[i - 1], at[i]
        relations.append((arcs, over, old))
        at[i - 1], at[i] = arcs, over
        arcs += 1
    parent = list(range(arcs))

    def find(arc: int) -> int:
        while parent[arc] != arc:
            arc = parent[arc]
        return arc

    for position in range(strands):
        parent[find(at[position])] = find(position)
    classes = sorted({find(arc) for arc in range(arcs)})

    prefix = rng.choice("abcdefghuvwxyz")
    names = [f"{prefix}{k}" for k in rng.sample(range(10, 100), len(classes))]
    drop = rng.randrange(len(relations))
    name = {arc: names[k] for k, arc in enumerate(classes)}
    gens = [name[arc] for arc in classes]
    rng.shuffle(gens)
    lines = ["gens: " + " ".join(gens)]
    for k, (new, over, old) in enumerate(relations):
        if k != drop:
            o, n, w = name[find(over)], name[find(new)], name[find(old)]
            lines.append(f"rel: {o} {w} {o}^-1 {n}^-1")
    return "\n".join(lines) + "\n"
