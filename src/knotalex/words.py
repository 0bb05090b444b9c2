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
from collections.abc import Iterable

from ._record import record
from .errors import PresentationError, WordParseError, _is_integer

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*")

_TOKEN_RE = re.compile(
    rf"""\s*(?:
        (?P<name>{_NAME_RE.pattern})
      | (?P<int>-?\d+)
      | (?P<punct>[\^()])
    )""",
    re.VERBOSE,
)


def is_generator_name(text: str) -> bool:
    """True if ``text`` is a ``str`` and a legal generator name."""
    return isinstance(text, str) and bool(_NAME_RE.fullmatch(text))


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
        if not is_generator_name(name):
            raise ValueError(f"invalid generator name {name!r}")
        if not _is_integer(exponent):
            raise TypeError(
                f"exponent must be an integer, got {type(exponent).__name__}"
            )
        return cls(((name, exponent),))

    @property
    def syllables(self) -> tuple[tuple[str, int], ...]:
        return self._syllables

    def __len__(self) -> int:
        """Number of syllables (not letters)."""
        return len(self._syllables)

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word(self._syllables + other._syllables)

    def inverse(self) -> Word:
        return Word(tuple((gen, -exp) for gen, exp in reversed(self._syllables)))

    def __pow__(self, k: int) -> Word:
        if not _is_integer(k):
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


def parse_word(text: str, generators: Iterable[str]) -> Word:
    """Parse word text over the given generators; empty input is the identity.

    The grammar is WORD := FACTOR*, FACTOR := ATOM ('^' INT)?, where ATOM is a
    generator name or a parenthesized WORD.  The whole text is tokenized
    first, so a bad character is reported before any grammar error.  One
    left-to-right loop keeps open groups on an explicit stack of syllable
    lists, so nesting depth costs no recursion.  A group without an exponent
    is spliced into its parent unreduced; the whole word is reduced once at
    the end, which free reduction allows.
    """
    tokens = _tokenize(text)
    known = frozenset(generators)
    stack: list[list[tuple[str, int]]] = [[]]
    pos, end = 0, len(tokens)
    while pos < end:
        kind, value = tokens[pos]
        pos += 1
        if kind == "name":
            if value not in known:
                raise WordParseError(f"unknown generator {value!r}")
            atom = [(value, 1)]
        elif value == "(":
            stack.append([])
            continue
        elif value == ")":
            if len(stack) == 1:
                raise WordParseError(f"unbalanced parentheses near {value!r}")
            atom = stack.pop()
        else:
            raise WordParseError(f"unexpected token {value!r}")
        if pos < end and tokens[pos][1] == "^":
            if pos + 1 == end or tokens[pos + 1][0] != "int":
                raise WordParseError("expected an integer exponent after '^'")
            atom = (Word(atom) ** int(tokens[pos + 1][1])).syllables
            pos += 2
        stack[-1].extend(atom)
    if len(stack) > 1:
        raise WordParseError("unbalanced parentheses: missing ')'")
    return Word(stack[0])


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
            if not isinstance(relator, Word):
                raise TypeError(f"relators must be Words, got {type(relator).__name__}")
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
