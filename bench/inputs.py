"""Seeded inputs for the benchmark workloads.

Every workload is one *pass*: a fixed-shape list of operations that the
closed loop replays until its time is up.  The work in a pass is dominated
by its largest inputs (Fox calculus is quadratic in relator length, the
cofactor determinant factorial in the generator count), so free log-uniform
draws would make throughput a lottery on the largest draw.  Sizes therefore
sit on fixed log-spaced ladders, and the two ladders of a two-parameter
family are paired through a fixed lattice permutation.  The seed jitters
the lower two thirds of every ladder by up to 4 % (the top third carries
most of the work, and the certificates that fail today, so it stays fixed)
and decides what does not change the amount of work: generator names,
which conjugate or inverse of an x (y x)^k y^-1 relator is written, which
Wirtinger relation is dropped and how the generators are ordered, and the
arguments of the small CLI calls.  The order of a pass is fixed, so that
memory high-water marks repeat.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import random
import re

from knotalex import FamilyParams, knot_group_presentation

from wirtinger import closed_braid_presentation, torus_braid

#: Largest relative size jitter applied to a rung in the lower two thirds of a ladder.
JITTER = 0.04

# Pass sizes are odd and chosen so that the median and the 90th percentile
# of a pass fall inside a run of equal-cost operations, not between two.

#: Family members (n, m): twelve rungs per parameter, top rung (300, 300);
#: the six cheapest rungs are drawn twice.
FAMILY_RUNGS, FAMILY_MAX, FAMILY_TWICE = 12, 300, 6
#: Relators x (y x)^k y^-1: twelve even-k rungs, top rung k = 1000; the
#: seven cheapest rungs are drawn twice.
TORUS_RUNGS, TORUS_MAX, TORUS_TWICE = 12, 1000, 7
#: Odd-k twins of these torus rungs have 2-torsion in H1 and must be refused.
TORSION_RUNGS = (4, 8)
#: Closed positive braids (p, q) and how many variants of each one pass holds.
WIRTINGER_KNOTS = (((2, 3), 5), ((2, 5), 5), ((2, 7), 5), ((3, 4), 6), ((2, 9), 3), ((3, 5), 1))
#: Certificates (n, m): 27 rungs per parameter, top rung (100000, 10000).
CERTIFY_RUNGS, CERTIFY_N_MAX, CERTIFY_M_MAX = 27, 100_000, 10_000


@dataclasses.dataclass(frozen=True)
class Op:
    """One operation of a pass.

    ``kind`` selects the operation and its reference:

    * ``family``: text of member ``params = (n, m)``; expect the closed form;
    * ``torus``: text of a relator with ``params = (p, q)``; expect the
      torus-knot polynomial;
    * ``torsion``: a relator whose H1 has torsion; expect a KnotAlexError;
    * ``wirtinger``: Wirtinger text of T(p, q) with ``params = (p, q)``;
    * ``certify``: ``params = (n, m)``; expect a valid certificate;
    * ``cli``: ``params`` is the argv and ``text`` the stdin of a CLI call.
    """

    kind: str
    text: str = ""
    params: tuple = ()
    syllables: int = 0  # relator syllables once powers are expanded
    generators: int = 0


def _ladder(top: int, rungs: int) -> list[float]:
    return [top ** (j / (rungs - 1)) for j in range(rungs)]


def _low(ladder: list[float], j: int) -> bool:
    """Whether rung j lies in the lower two thirds of the ladder."""
    return 3 * j < 2 * len(ladder)


def _rung(rng: random.Random, ladder: list[float], j: int, jitter: bool = True) -> int:
    """Rung j of a ladder, jittered by the seed if ``jitter`` and in the lower two thirds."""
    value, top = ladder[j], round(ladder[-1])
    if jitter and _low(ladder, j):
        value *= math.exp(rng.uniform(-JITTER, JITTER))
    return max(1, min(top, round(value)))


def _lattice(rng: random.Random, rungs: int, n_top: int, m_top: int) -> list[tuple[int, int]]:
    """(n, m) pairs: m rung j meets n rung (5j + c) mod rungs, top meets top.

    A pair with either rung in the top third is not jittered.
    """
    assert math.gcd(5, rungs) == 1
    shift = (1 - 5) * (rungs - 1) % rungs
    n_ladder, m_ladder = _ladder(n_top, rungs), _ladder(m_top, rungs)
    pairs = []
    for j in range(rungs):
        i = (5 * j + shift) % rungs
        jitter = _low(n_ladder, i) and _low(m_ladder, j)
        pairs.append((_rung(rng, n_ladder, i, jitter), _rung(rng, m_ladder, j, jitter)))
    return pairs


def _names(rng: random.Random, count: int) -> list[str]:
    names: list[str] = []
    while len(names) < count:
        name = rng.choice("abcdefghpqrsuvwxyz") + str(rng.randrange(100))
        if name not in names:
            names.append(name)
    return names


def _log_uniform_int(rng: random.Random, lo: int, hi: int) -> int:
    return round(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _family_op(rng: random.Random, n: int, m: int, tracer) -> Op:
    """Member text with renamed generators.

    The relator is not rotated: where its w^n and w^-(n-1) syllables sit
    changes the Fox-calculus work by up to a fifth.
    """
    with tracer.span("family.presentation"):
        presentation = knot_group_presentation(FamilyParams(n, m))
        text = presentation.to_text()
    a, w = _names(rng, 2)
    text = re.sub(r"\b[aw]\b", lambda match: a if match.group() == "a" else w, text)
    return Op("family", text, (n, m), len(presentation.relators[0]), 2)


# Conjugates and inverses of x (y x)^k y^-1, written compactly with ^k.
_TORUS_FORMS = (
    "{x} ({y} {x})^{k} {y}^-1",
    "({y} {x})^{k} {y}^-1 {x}",
    "({x} {y})^{k} {x} {y}^-1",
    "{y} ({x}^-1 {y}^-1)^{k} {x}^-1",
)


def _torus_op(rng: random.Random, kind: str, k: int) -> Op:
    x, y = _names(rng, 2)
    relator = rng.choice(_TORUS_FORMS).format(x=x, y=y, k=k)
    return Op(kind, f"gens: {x} {y}\nrel: {relator}\n", (2, k + 1), 2 * k + 2, 2)


def one_relator(rng: random.Random, tracer) -> list[Op]:
    ops = []
    pairs = _lattice(rng, FAMILY_RUNGS, FAMILY_MAX, FAMILY_MAX)
    pairs += _lattice(rng, FAMILY_RUNGS, FAMILY_MAX, FAMILY_MAX)[:FAMILY_TWICE]
    for n, m in pairs:
        ops.append(_family_op(rng, n, m, tracer))
    rungs = _ladder(TORUS_MAX // 2, TORUS_RUNGS)
    for j in range(TORUS_RUNGS):
        k = 2 * _rung(rng, rungs, j)
        ops.append(_torus_op(rng, "torus", k))
        if j in TORSION_RUNGS:
            ops.append(_torus_op(rng, "torsion", k + 1))
    for j in range(TORUS_TWICE):
        ops.append(_torus_op(rng, "torus", 2 * _rung(rng, rungs, j)))
    return ops


def wirtinger(rng: random.Random, tracer) -> list[Op]:
    ops = []
    for (p, q), copies in WIRTINGER_KNOTS:
        for _ in range(copies):
            word = torus_braid(p, q)
            turn = rng.randrange(len(word))
            text = closed_braid_presentation(p, word[turn:] + word[:turn], rng)
            ops.append(Op("wirtinger", text, (p, q), 4 * (len(word) - 1), len(word)))
    return ops


def certify(rng: random.Random, tracer) -> list[Op]:
    pairs = _lattice(rng, CERTIFY_RUNGS, CERTIFY_N_MAX, CERTIFY_M_MAX)
    return [Op("certify", params=pair) for pair in pairs]


def cli(rng: random.Random, tracer) -> list[Op]:
    """Small CLI calls: start-up and imports dominate each of them."""

    def pair(hi: int) -> tuple[str, ...]:
        n, m = _log_uniform_int(rng, 1, hi), _log_uniform_int(rng, 1, hi)
        return ("--n", str(n), "--m", str(m))

    def slope() -> tuple[str, ...]:
        return ("--p", str(rng.randint(-50, 1000)), "--q", str(rng.randint(1, 9)))

    member = _family_op(rng, _log_uniform_int(rng, 1, 6), _log_uniform_int(rng, 1, 6), tracer)
    relator = _torus_op(rng, "torus", 2 * rng.randint(1, 20))
    return [
        Op("cli", member.text, ("alexander", "--file", "-")),
        Op("cli", relator.text, ("alexander", "--file", "-", "--json")),
        Op("cli", params=("family", *pair(300), "--emit", "alexander")),
        Op("cli", params=("family", *pair(300), "--emit", "alexander", "--json")),
        Op("cli", params=("certify", *pair(1000))),
        Op("cli", params=("certify", *pair(1000), "--json")),
        Op("cli", params=("classify", *pair(100), *slope())),
        Op("cli", params=("classify", *pair(100), *slope(), "--json")),
        Op("cli", params=("table", "--n-max", "3", "--m-max", "3")),
    ]


_BUILDERS = {"one-relator": one_relator, "wirtinger": wirtinger, "certify": certify, "cli": cli}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int, tracer) -> list[Op]:
    """The pass of ``workload`` for ``seed``."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), tracer)


def digest(ops: list[Op]) -> str:
    """Fingerprint of a pass, to show that a seed rebuilds the same inputs."""
    blob = repr([(op.kind, op.text, op.params) for op in ops]).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def summary(ops: list[Op]) -> dict:
    """Input sizes of a pass: relator syllables, generator counts, largest n + 3m."""
    n3m = [op.params[0] + 3 * op.params[1] for op in ops if op.kind in ("family", "certify")]
    return {
        "ops_per_pass": len(ops),
        "kinds": {kind: sum(op.kind == kind for op in ops) for kind in sorted({op.kind for op in ops})},
        "relator_syllables_total": sum(op.syllables for op in ops),
        "relator_syllables_max": max(op.syllables for op in ops),
        "generators_max": max(op.generators for op in ops),
        "max_n_plus_3m": max(n3m, default=0),
    }
