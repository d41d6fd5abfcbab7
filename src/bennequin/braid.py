"""Braid words and their elementary diagram invariants.

A braid on n strands is a word in the Artin generators sigma_1, ...,
sigma_{n-1}.  We store a word as a sequence of nonzero integers: the letter
k with 1 <= |k| <= n-1 stands for sigma_|k| when k > 0 and for its inverse
when k < 0.  Words read left to right; when tracking strands, the first
letter acts first.  Closing a braid (joining top and bottom endpoints)
produces a knot or link, and several invariants of the closure are already
visible at the word level:

- the exponent sum (algebraic crossing number) equals the writhe of the
  closed-braid diagram;
- the self-linking number of the closure, as a transverse knot, is
  -(strands) + exponent sum;
- the cycle count of the induced permutation is the number of closure
  components.

Words are immutable values; every operation returns a new word.
"""

from __future__ import annotations

import re
from dataclasses import dataclass


class ParseError(ValueError):
    """Raised when braid text cannot be parsed into a word."""


@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", tuple(self.letters))
        if self.strands < 1:
            raise ValueError("a braid needs at least one strand")
        for k in self.letters:
            if k == 0:
                raise ValueError("generator index 0 is not allowed")
            if abs(k) >= self.strands:
                raise ValueError(
                    f"generator {k} out of range for {self.strands} strands"
                )

    def __str__(self) -> str:
        return format_braid(self)

    def __len__(self) -> int:
        return len(self.letters)


@dataclass(frozen=True)
class ClosurePermutation:
    """Permutation of strand positions induced by a word, 1-based images."""

    image: tuple[int, ...]

    def cycle_count(self) -> int:
        n = len(self.image)
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = self.image[p] - 1
        return cycles


_TOKEN = re.compile(r"([+-]?)([0-9]+)(?:\^([0-9]+))?")

# Longest word parse_braid builds.  Far beyond what the Seifert, Burau and
# Garside stages finish on, and small enough that k^m text cannot ask for
# an unbounded list.
MAX_LETTERS = 100_000
# Most digits a number in braid text may have after its leading zeros:
# more make it larger than MAX_LETTERS, and are refused before int() reads
# them.
_MAX_DIGITS = len(str(MAX_LETTERS))


def parse_braid(text: str, strands: int) -> BraidWord:
    """Parse whitespace/comma-separated tokens into a braid word.

    Each token is a signed generator index ``k`` or a repetition ``k^m``
    with m >= 1, which expands to m copies of k, both in ASCII digits.  The
    strand count is never inferred from the text.  A number longer than
    :data:`MAX_LETTERS` written out, leading zeros aside, is rejected before
    it is converted, and a word longer than :data:`MAX_LETTERS` letters
    before it is expanded.
    """
    if strands < 1:
        raise ParseError("a braid needs at least one strand")
    letters: list[int] = []
    for tok in text.replace(",", " ").split():
        m = _TOKEN.fullmatch(tok)
        if m is None:
            raise ParseError(f"token {tok!r} is not a signed integer or k^m")
        sign, index, count = m.groups()
        # CPython's int() counts leading zeros towards its digit limit
        index = index.lstrip("0") or "0"
        count = None if count is None else count.lstrip("0") or "0"
        if len(index) > _MAX_DIGITS:
            raise ParseError(
                f"generator index in {tok!r} has more than {_MAX_DIGITS} digits"
            )
        if len(count or "") > _MAX_DIGITS:
            raise ParseError(
                f"repetition count in {tok!r} exceeds the letter limit of {MAX_LETTERS}"
            )
        k = int(sign + index)
        if k == 0:
            raise ParseError("generator index 0 is not allowed")
        if abs(k) >= strands:
            raise ParseError(f"generator {k} out of range for {strands} strands")
        rep = 1
        if count is not None:
            rep = int(count)
            if rep < 1:
                raise ParseError(f"repetition count in {tok!r} must be >= 1")
        if len(letters) + rep > MAX_LETTERS:
            raise ParseError(f"word exceeds the letter limit of {MAX_LETTERS}")
        letters.extend([k] * rep)
    return BraidWord(strands, tuple(letters))


def format_braid(w: BraidWord) -> str:
    """Canonical text form: one signed integer per token, space separated."""
    return " ".join(str(k) for k in w.letters)


def exponent_sum(w: BraidWord) -> int:
    """Sum of letter signs; the writhe of the closed-braid diagram."""
    return sum(1 if k > 0 else -1 for k in w.letters)


def self_linking(w: BraidWord) -> int:
    """Self-linking number of the braid closure: -(strands) + exponent sum."""
    return -w.strands + exponent_sum(w)


def closure_permutation(w: BraidWord) -> ClosurePermutation:
    """Permutation induced by the word, first letter acting first.

    ``image[i-1]`` is the final position of the strand starting at
    position i.
    """
    occupant = list(range(1, w.strands + 1))
    for k in w.letters:
        i = abs(k) - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    final = [0] * w.strands
    for pos, strand in enumerate(occupant):
        final[strand - 1] = pos + 1
    return ClosurePermutation(tuple(final))


def closure_components(w: BraidWord) -> int:
    """Number of components of the braid closure."""
    return closure_permutation(w).cycle_count()


def concat(a: BraidWord, b: BraidWord) -> BraidWord:
    if a.strands != b.strands:
        raise ValueError("strand counts differ")
    return BraidWord(a.strands, a.letters + b.letters)


def inverse_word(w: BraidWord) -> BraidWord:
    """Letter-by-letter inverse: reverse the word and negate every letter."""
    return BraidWord(w.strands, tuple(-k for k in reversed(w.letters)))


def free_reduce(w: BraidWord) -> BraidWord:
    """Cancel adjacent inverse pairs until none remain."""
    out: list[int] = []
    for k in w.letters:
        if out and out[-1] == -k:
            out.pop()
        else:
            out.append(k)
    return BraidWord(w.strands, tuple(out))


def family_word(n: int) -> BraidWord:
    """Defining 3-braid of the n-th knot in the built-in family.

    The word consists of 2n+3 negative twists on the first two strands
    followed by sigma_2 sigma_1^3 sigma_2.  Its closure is a knot whose
    slice-Bennequin defect grows linearly with n while the s- and
    tau-Bennequin bounds stay sharp; the n = 1 and n = 2 closures are the
    knots tabulated as 10_125 and 12n235.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    return BraidWord(3, (-1,) * (2 * n + 3) + (2, 1, 1, 1, 2))


def family_type1_word(n: int) -> BraidWord:
    """Conjugate normal form of family_word(n) in the Murasugi classification.

    Spelled as (sigma_1 sigma_2)^3 sigma_1 sigma_2^{-(2n+5)}: one full
    twist, a single positive sigma_1 block, and 2n+5 negative sigma_2's.
    """
    if n < 1:
        raise ValueError("family index must be >= 1")
    return BraidWord(3, (1, 2, 1, 2, 1, 2, 1) + (-2,) * (2 * n + 5))
