"""Alphabets, symbol patterns, and suffix/prefix overlap operators.

Symbols are compared by alphabet index, never by label text.  An overlap
shift i between strings s and w means the last i symbols of s equal the
first i symbols of w; the set of such shifts drives every generating
function and linear system in the rest of the package.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Alphabet",
    "ParseError",
    "Pattern",
    "PatternSet",
    "PatternSetError",
    "correlation_set",
    "exact_int",
    "exact_str",
    "max_overlap",
    "overlap_string",
    "parse_alphabet",
    "string_probability",
]

SymbolSeq = tuple[int, ...]

# int()'s base-10 grammar: Decimal also reads 1e3, 1.0, _1 and 1__0, and int() strips no U+001C..U+001F
_INT_RE = re.compile(r"[^\S\x1c-\x1f]*[+-]?\d+(?:_\d+)*[^\S\x1c-\x1f]*")


def exact_str(x: int | Fraction | Decimal) -> str:
    """str(x) for an int, Fraction or Decimal integer of any size, whatever the interpreter's int-to-text digit limit.

    An int that could have more digits than the limit goes through `decimal.Decimal`, which converts
    exactly and ignores the limit; any other value takes plain `str`.
    """
    if isinstance(x, int):
        limit = sys.get_int_max_str_digits()
        # |x| < 2**(3 limit) < 10**limit has at most `limit` digits
        return str(x) if not limit or x.bit_length() <= 3 * limit else str(Decimal(x))
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        return exact_str(num) if den == 1 else f"{exact_str(num)}/{exact_str(den)}"
    return str(x)  # a Decimal integer, which libmpdec prints in linear time


def exact_int(text: str) -> int:
    """int(text) for any literal int() accepts, whatever its length and the interpreter's digit limit."""
    limit = sys.get_int_max_str_digits()
    return int(Decimal(text)) if limit and len(text) > limit and _INT_RE.fullmatch(text) else int(text)


def _brief(text: str, show=repr) -> str:
    """show(text), or for a long text the start of it and its length, so that an echo stays on one short line.

    show is repr for a quoted echo and str for an unquoted one (numbers, pattern texts); where str would
    print a line break or another unprintable character, the text is quoted and escaped instead.
    """
    shown = show(text)
    if not shown.isprintable():
        shown = ascii(text)
    return shown if len(shown.encode()) <= 60 else f"{ascii(text[:10])}... ({len(text)} characters)"


class ParseError(ValueError):
    """Malformed alphabet or pattern text; carries the offending position."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class PatternSetError(ValueError):
    """A candidate pattern set violates the no-substring / distinctness rules."""


@dataclass(frozen=True)
class Alphabet:
    """Finite symbol set with exact, strictly positive rational probabilities."""

    symbols: tuple[str, ...]
    probs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "probs", tuple(Fraction(p) for p in self.probs))
        if len(self.symbols) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(self.symbols) != len(self.probs):
            raise ValueError("symbols and probabilities differ in length")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet labels must be distinct")
        if any(not s or "," in s for s in self.symbols):
            raise ValueError("alphabet labels must be nonempty and hold no comma")
        for label, p in zip(self.symbols, self.probs):
            if not (0 < p < 1):
                raise ValueError(
                    f"probability of {_brief(label)} must be strictly between 0 and 1, got {_brief(exact_str(p), str)}"
                )
        if (total := sum(self.probs)) != 1:
            raise ValueError(f"probabilities must sum exactly to 1, got {_brief(exact_str(total), str)}")

    @classmethod
    def coin(cls, p: Fraction) -> Alphabet:
        """Two-symbol alphabet H (prob p) and T (prob 1 - p)."""
        p = Fraction(p)
        return cls(("H", "T"), (p, 1 - p))

    @classmethod
    def uniform(cls, labels: Sequence[str]) -> Alphabet:
        labels = tuple(labels)
        n = len(labels)
        return cls(labels, (Fraction(1, n),) * n)

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def single_char(self) -> bool:
        return all(len(s) == 1 for s in self.symbols)


@dataclass(frozen=True)
class Pattern:
    """Nonempty symbol string over an alphabet, stored as symbol indices."""

    alphabet: Alphabet
    symbols: SymbolSeq

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        if not self.symbols:
            raise ValueError("pattern must contain at least one symbol")
        n = len(self.alphabet)
        for s in self.symbols:
            if not (0 <= s < n):
                raise ValueError(f"symbol index {s} out of range for alphabet of size {n}")

    @classmethod
    def parse(cls, text: str, alphabet: Alphabet) -> Pattern:
        """The pattern whose `text` this is.

        A text with a comma is read as comma-delimited symbol labels.  A text
        without one is read character by character over single-character
        labels (the bare form), and as one label otherwise.
        """
        if not text:
            raise ParseError("empty pattern", 0)
        split = "," in text or not alphabet.single_char
        index = {label: i for i, label in enumerate(alphabet.symbols)}
        indices: list[int] = []
        pos = 0
        for token in text.split(",") if split else text:
            if (i := index.get(token)) is None:
                raise ParseError(f"unknown symbol {_brief(token)} in pattern {_brief(text)}", pos)
            indices.append(i)
            pos += len(token) + split  # a split token is followed by its comma
        return cls(alphabet, tuple(indices))

    def __len__(self) -> int:
        return len(self.symbols)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self.alphabet.symbols[i] for i in self.symbols)

    @property
    def text(self) -> str:
        """Canonical display form, which `parse` reads back: bare for single-character alphabets."""
        if self.alphabet.single_char:
            return "".join(self.labels)
        return ",".join(self.labels)

    @property
    def probability(self) -> Fraction:
        return string_probability(self.symbols, self.alphabet)

    def __str__(self) -> str:
        return self.text


def string_probability(symbols: Sequence[int], alphabet: Alphabet) -> Fraction:
    """Probability of a symbol string appearing in that many consecutive trials.

    The product of the individual symbol probabilities; the empty string has
    probability 1.
    """
    prob = Fraction(1)
    n = len(alphabet)
    for s in symbols:
        if not (0 <= s < n):
            raise ValueError(f"symbol index {s} out of range for alphabet of size {n}")
        prob *= alphabet.probs[s]
    return prob


def overlap_shifts(s: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Shifts i >= 1 at which the last i symbols of s equal the first i of w."""
    s, w = tuple(s), tuple(w)
    return tuple(i for i in range(1, min(len(s), len(w)) + 1) if s[len(s) - i:] == w[:i])


def correlation_set(s: Pattern, w: Pattern) -> tuple[int, ...]:
    """Ascending shifts at which a suffix of s coincides with a prefix of w."""
    if s.alphabet != w.alphabet:
        raise ValueError("patterns use different alphabets")
    return overlap_shifts(s.symbols, w.symbols)


def max_overlap(s: Pattern, w: Pattern) -> int:
    """Largest overlap shift between s and w, or 0 when they never overlap."""
    shifts = correlation_set(s, w)
    return shifts[-1] if shifts else 0


def overlap_string(s: Pattern, w: Pattern) -> SymbolSeq:
    """Symbols of the longest overlap: a suffix of s that is a prefix of w.

    Returns the (possibly empty) symbol-index sequence, not a Pattern, since
    the overlap may be empty.
    """
    return w.symbols[: max_overlap(s, w)]


def _contains(haystack: SymbolSeq, needle: SymbolSeq) -> bool:
    n, k = len(haystack), len(needle)
    return any(haystack[i : i + k] == needle for i in range(n - k + 1))


@dataclass(frozen=True)
class PatternSet:
    """Competing patterns over one alphabet, none a contiguous substring of another.

    A single-pattern set is permitted (it degenerates to first-passage
    analysis); races need two or more.
    """

    alphabet: Alphabet
    patterns: tuple[Pattern, ...]

    def __post_init__(self):
        object.__setattr__(self, "patterns", tuple(self.patterns))
        if not self.patterns:
            raise PatternSetError("pattern set must contain at least one pattern")
        for idx, pat in enumerate(self.patterns):
            if pat.alphabet != self.alphabet:
                raise PatternSetError(f"pattern {idx + 1} ({_brief(pat.text, str)}) uses a different alphabet")
        for i, a in enumerate(self.patterns):
            for j, b in enumerate(self.patterns):
                if i == j:
                    continue
                if a.symbols == b.symbols:
                    if i < j:
                        raise PatternSetError(f"duplicate pattern: {i + 1} and {j + 1} are both {_brief(a.text, str)}")
                elif _contains(b.symbols, a.symbols):
                    raise PatternSetError(f"pattern {i + 1} ({_brief(a.text, str)}) is a substring of pattern "
                                          f"{j + 1} ({_brief(b.text, str)})")

    def __len__(self) -> int:
        return len(self.patterns)

    def __iter__(self):
        return iter(self.patterns)


_FRACTION_RE = re.compile(r"^[+-]?\d+/\d+$")


def parse_fraction(text: str, position: int = 0) -> Fraction:
    """Parse an exact fraction literal like 1/2; decimals are rejected."""
    if not _FRACTION_RE.match(text):
        raise ParseError(f"expected a fraction literal like 1/2, got {_brief(text)}", position)
    num, den = map(exact_int, text.split("/"))
    if den == 0:
        raise ParseError(f"zero denominator in {_brief(text)}", position)
    return Fraction(num, den)


def parse_alphabet(text: str) -> Alphabet:
    """Parse an alphabet declaration of label:fraction pairs, e.g. 'H:1/2,T:1/2'."""
    labels: list[str] = []
    probs: list[Fraction] = []
    pos = 0
    for part in text.split(","):
        if ":" not in part:
            raise ParseError(f"expected label:fraction, got {_brief(part)}", pos)
        label, _, frac = part.partition(":")
        if not label:
            raise ParseError("empty symbol label", pos)
        probs.append(parse_fraction(frac, pos + len(label) + 1))
        labels.append(label)
        pos += len(part) + 1
    try:
        return Alphabet(tuple(labels), tuple(probs))
    except ValueError as exc:
        raise ParseError(f"invalid alphabet {_brief(text)}: {exc}") from exc
