"""Brute-force word-problem decisions by bounded rewriting.

This is the slow, independent cross-check for the Garside route: two words
are equal iff one can be rewritten into the other using free cancellation,
free insertion of a generator next to its inverse, the braid relations
(in both sign variants), and far-generator commutation.  All moves
preserve exponent sum and the underlying permutation, so those are checked
first; the remaining cases run a bidirectional breadth-first search over
words of bounded length.

Nothing here touches :mod:`bennequin.garside`.
"""

from __future__ import annotations

from .braid import BraidWord, closure_permutation, exponent_sum, free_reduce

# Words up to this many letters longer than the longer input are searched.
EXTRA_LENGTH = 4
# The search gives up after this many distinct words.
NODE_CAP = 400_000


class RewriteBudgetExceeded(RuntimeError):
    """The bounded search hit its node cap before settling the question."""


def _neighbors(word: tuple[int, ...], strands: int, max_len: int):
    length = len(word)
    # free cancellation
    for i in range(length - 1):
        if word[i] == -word[i + 1]:
            yield word[:i] + word[i + 2 :]
    # braid relations a b a <-> b a b for adjacent generators, same sign
    for i in range(length - 2):
        a, b, c = word[i : i + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            yield word[:i] + (b, a, b) + word[i + 3 :]
    # far commutation
    for i in range(length - 1):
        a, b = word[i : i + 2]
        if abs(abs(a) - abs(b)) >= 2:
            yield word[:i] + (b, a) + word[i + 2 :]
    # insertions
    if length + 2 <= max_len:
        for i in range(length + 1):
            for g in range(1, strands):
                yield word[:i] + (g, -g) + word[i:]
                yield word[:i] + (-g, g) + word[i:]


def rewriting_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide equality by bounded rewriting; independent of normal forms.

    The search considers words no longer than the longer input plus
    :data:`EXTRA_LENGTH`.  Raises :class:`RewriteBudgetExceeded` if
    :data:`NODE_CAP` is reached before either finding a rewriting path or
    exhausting the bounded component of one side.
    """
    if w1.strands != w2.strands:
        raise ValueError("strand counts differ")
    if exponent_sum(w1) != exponent_sum(w2):
        return False
    if closure_permutation(w1) != closure_permutation(w2):
        return False
    a = free_reduce(w1).letters
    b = free_reduce(w2).letters
    if a == b:
        return True

    strands = w1.strands
    max_len = max(len(a), len(b)) + EXTRA_LENGTH
    sides: list[dict[tuple[int, ...], None]] = [{a: None}, {b: None}]
    frontiers: list[list[tuple[int, ...]]] = [[a], [b]]
    visited = 2
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        seen = sides[side]
        other = sides[1 - side]
        next_frontier: list[tuple[int, ...]] = []
        for word in frontiers[side]:
            for nb in _neighbors(word, strands, max_len):
                if nb in seen:
                    continue
                if nb in other:
                    return True
                seen[nb] = None
                next_frontier.append(nb)
                visited += 1
                if visited > NODE_CAP:
                    raise RewriteBudgetExceeded(
                        f"rewriting search exceeded {NODE_CAP} words"
                    )
        frontiers[side] = next_frontier
    # one side's bounded component is exhausted and never met the other
    return False
