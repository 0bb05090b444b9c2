"""Free-group words, deficiency-one presentations, and their text formats.

Words live in the free group on named generators and are stored as tuples of
(generator, exponent) syllables in freely reduced form: adjacent syllables
carry distinct generators and no exponent is zero.  The empty tuple is the
identity.  Every constructor and operation reduces eagerly, so any Word in
circulation is reduced, immutable, and hashable.

Word text follows the usual notation: juxtaposition is the product, ``^``
introduces an integer exponent, and parentheses group subwords, e.g.
``w^3 (a w)^2 a^-1 (a w)^-2``.  Generator names start with a letter and
continue with letters or digits, and must be separated by whitespace or
punctuation; ``aw`` is one (unknown) name, not the product ``a w``.  Empty
input denotes the identity.

A presentation file is line-oriented text::

    # trefoil knot group
    gens: x y
    rel: x y x (y x y)^-1
    meridian: x

``gens:`` appears exactly once, before any ``rel:`` line; ``meridian:`` is
optional; ``#`` starts a comment that runs to the end of the line.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator

from ._record import record
from .errors import PresentationError, WordParseError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_TOKEN_RE = re.compile(
    r"""\s*(?:
        (?P<name>[A-Za-z][A-Za-z0-9]*)
      | (?P<int>-?\d+)
      | (?P<punct>[\^()])
    )""",
    re.VERBOSE,
)


def is_generator_name(text: str) -> bool:
    """True if ``text`` is a legal generator name."""
    return bool(_NAME_RE.fullmatch(text))


def _reduced(syllables: Iterable[tuple[str, int]]) -> tuple[tuple[str, int], ...]:
    stack: list[list] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((gen, exp) for gen, exp in stack)


class Word:
    """A freely reduced word in the free group on named generators."""

    __slots__ = ("_syllables",)

    def __init__(self, syllables: Iterable[tuple[str, int]] = ()):
        self._syllables = _reduced(syllables)

    @classmethod
    def identity(cls) -> Word:
        return cls()

    @classmethod
    def generator(cls, name: str, exponent: int = 1) -> Word:
        return cls(((name, exponent),))

    @property
    def syllables(self) -> tuple[tuple[str, int], ...]:
        return self._syllables

    @property
    def is_identity(self) -> bool:
        return not self._syllables

    def __len__(self) -> int:
        """Number of syllables (not letters)."""
        return len(self._syllables)

    def __iter__(self) -> Iterator[tuple[str, int]]:
        return iter(self._syllables)

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._syllables + other._syllables)

    def inverse(self) -> Word:
        return Word(tuple((gen, -exp) for gen, exp in reversed(self._syllables)))

    def __invert__(self) -> Word:
        return self.inverse()

    def __pow__(self, k: int) -> Word:
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        if len(self._syllables) == 1:
            gen, exp = self._syllables[0]
            return Word(((gen, exp * k),))
        return Word(self._syllables * k)

    def exponent_sum(self, gen: str) -> int:
        """Total (signed) exponent of one generator across the word."""
        return sum(exp for name, exp in self._syllables if name == gen)

    def generators(self) -> frozenset[str]:
        return frozenset(name for name, _ in self._syllables)

    def render(self) -> str:
        """Canonical text form; parses back to an equal Word.  Identity is ''."""
        return " ".join(
            name if exp == 1 else f"{name}^{exp}" for name, exp in self._syllables
        )

    def __str__(self) -> str:
        return self.render()

    def __repr__(self) -> str:
        return f"Word({self.render()!r})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Word):
            return NotImplemented
        return self._syllables == other._syllables

    def __hash__(self) -> int:
        return hash(self._syllables)


def _tokenize(text: str) -> list[tuple[str, str]]:
    tokens = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise WordParseError(f"unexpected character {rest[0]!r}")
        pos = match.end()
        kind = match.lastgroup
        tokens.append((kind, match.group(kind)))
    return tokens


class _WordParser:
    """Left-to-right parse of WORD := FACTOR*, FACTOR := ATOM ('^' INT)?.

    ATOM is a generator name or a parenthesized WORD.  Open groups live on an
    explicit stack of syllable lists, so nesting depth costs no recursion.  A
    group without an exponent is spliced into its parent unreduced; the whole
    word is reduced once at the end, which free reduction allows.
    """

    def __init__(self, tokens: list[tuple[str, str]], generators: frozenset[str]):
        self._tokens = tokens
        self._pos = 0
        self._generators = generators

    def _peek(self) -> tuple[str | None, str | None]:
        if self._pos < len(self._tokens):
            return self._tokens[self._pos]
        return (None, None)

    def _next(self) -> tuple[str | None, str | None]:
        token = self._peek()
        self._pos += 1
        return token

    def parse(self) -> Word:
        stack: list[list[tuple[str, int]]] = [[]]
        while True:
            kind, value = self._next()
            if kind == "name":
                if value not in self._generators:
                    raise WordParseError(f"unknown generator {value!r}")
                self._append(stack[-1], [(value, 1)])
            elif kind == "punct" and value == "(":
                stack.append([])
            elif kind == "punct" and value == ")":
                if len(stack) == 1:
                    raise WordParseError(f"unbalanced parentheses near {value!r}")
                group = stack.pop()
                self._append(stack[-1], group)
            elif kind is None:
                if len(stack) > 1:
                    raise WordParseError("unbalanced parentheses: missing ')'")
                return Word(stack[0])
            else:
                raise WordParseError(f"unexpected token {value!r}")

    def _append(self, target: list[tuple[str, int]], atom: list[tuple[str, int]]) -> None:
        """Append an atom's syllables, raised to the exponent that follows it, if any."""
        kind, value = self._peek()
        if kind == "punct" and value == "^":
            self._next()
            kind, value = self._next()
            if kind != "int":
                raise WordParseError("expected an integer exponent after '^'")
            atom = (Word(atom) ** int(value)).syllables
        target.extend(atom)


def parse_word(text: str, generators: Iterable[str]) -> Word:
    """Parse word text over the given generators; empty input is the identity."""
    return _WordParser(_tokenize(text), frozenset(generators)).parse()


@record
class Presentation:
    """A deficiency-one group presentation with an optional marked meridian."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]
    meridian: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "relators", tuple(self.relators))
        for name in self.generators:
            if not is_generator_name(name):
                raise PresentationError(f"invalid generator name {name!r}")
        if len(set(self.generators)) != len(self.generators):
            raise PresentationError("generator names must be distinct")
        if not self.generators:
            raise PresentationError("a presentation needs at least one generator")
        if len(self.relators) != len(self.generators) - 1:
            raise PresentationError(
                f"deficiency one requires {len(self.generators) - 1} relator(s) "
                f"for {len(self.generators)} generator(s), got {len(self.relators)}"
            )
        declared = set(self.generators)
        for relator in self.relators:
            undeclared = relator.generators() - declared
            if undeclared:
                raise PresentationError(
                    f"relator uses undeclared generator(s) {sorted(undeclared)}"
                )
        if self.meridian is not None and self.meridian not in declared:
            raise PresentationError(
                f"meridian {self.meridian!r} is not a declared generator"
            )

    def to_text(self) -> str:
        lines = ["gens: " + " ".join(self.generators)]
        lines.extend(f"rel: {relator.render()}" for relator in self.relators)
        if self.meridian is not None:
            lines.append(f"meridian: {self.meridian}")
        return "\n".join(lines) + "\n"


def parse_presentation(text: str) -> Presentation:
    """Parse presentation text (see module docstring for the format)."""
    generators: tuple[str, ...] | None = None
    relators: list[Word] = []
    meridian: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition(":")
        if not sep:
            raise PresentationError(f"line {lineno}: expected 'key: value'")
        key = key.strip()
        value = value.strip()
        if key == "gens":
            if generators is not None:
                raise PresentationError(f"line {lineno}: duplicate 'gens:' line")
            generators = tuple(value.split())
        elif key == "rel":
            if generators is None:
                raise PresentationError(f"line {lineno}: 'rel:' before 'gens:'")
            relators.append(parse_word(value, generators))
        elif key == "meridian":
            if generators is None:
                raise PresentationError(f"line {lineno}: 'meridian:' before 'gens:'")
            if meridian is not None:
                raise PresentationError(f"line {lineno}: duplicate 'meridian:' line")
            meridian = value
        else:
            raise PresentationError(f"line {lineno}: unknown key {key!r}")
    if generators is None:
        raise PresentationError("missing 'gens:' line")
    return Presentation(generators, tuple(relators), meridian)
