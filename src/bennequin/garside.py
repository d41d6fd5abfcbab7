"""Word problem and conjugacy in braid groups via Garside normal form.

Uses the classical Garside structure on B_n: the Garside element is the
half twist Delta, simple elements are permutation braids (positive braids
in which each pair of strands crosses at most once), and every braid has a
unique left-greedy normal form Delta^p x_1 ... x_k with each x_i a simple
element other than the identity or Delta and each consecutive pair
left-weighted.  Two words are equal in B_n iff their normal forms match.

Conjugacy is decided through super summit sets: cycling and decycling walk
a braid to maximal infimum and minimal canonical length, and the set of
such conjugates is finite, closed under the conjugations by simple
elements that preserve (inf, sup), and connected under them, so a breadth
first search decides membership and produces an explicit conjugator.
Each input word is normalised once.  Every conjugate after that, by a
cycling step or by a simple element of the search, is normalised on its
factor tuple (``_conjugate_nf``), never by spelling the form back as a
word.

A conjugator is checked by :func:`verify_certificate`.  Up to 3 strands
it compares reduced Burau matrices, which are faithful there (Birman,
*Braids, Links, and Mapping Class Groups*, 1974, ch. 3), so the check
builds no normal form and is independent of the search that found the
conjugator; from 4 strands on it compares normal forms.

A product is left-weighted only where it changed (Epstein et al., *Word
Processing in Groups*, ch. 9; Elrifai and Morton, Quart. J. Math. 45
(1994)).  Multiplying a left-weighted list by a simple factor on the right
is one backward sweep that stops at the first pair that does not change
(``_times_simple``); on the left it is one forward sweep that stops there
too, or as soon as the factor it carries becomes the identity
(``_simple_times``).  ``normal_form`` builds by right multiplications, a
conjugation by s multiplies by s on the right and by tau^(p-1)(s^-1 Delta)
on the left, and decycling multiplies by the moved last factor on the
left.  On the summits of the family K_n a cycling step thus takes two pair
operations and a decycling step one, at every canonical length.

Permutation braids are encoded as image tuples on 0-based positions; the
composition convention is "apply left factor first", matching how braid
words read.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import permutations

from .alexander import reduced_burau
from .braid import BraidWord, concat, exponent_sum, free_reduce, inverse_word

Perm = tuple[int, ...]

# Default budget of the super summit search, in nodes expanded.
NODE_CAP = 10**6
# Most strands conjugacy_decide takes: its search tries all n! - 1 simples.
# sigma_1 against sigma_{n-1} took 0.52 s on 7 strands and 10.1 s (20 MB) on
# 8, on a 2-core x86-64 host under CPython 3.11.
MAX_CONJUGACY_STRANDS = 8


class SearchBudgetExceeded(RuntimeError):
    """Conjugacy orbit search hit its node cap before finishing."""


@dataclass(frozen=True)
class GarsideNormalForm:
    strands: int
    power: int
    factors: tuple[Perm, ...]

    @property
    def canonical_length(self) -> int:
        return len(self.factors)

    @property
    def sup(self) -> int:
        return self.power + len(self.factors)


@dataclass(frozen=True)
class ConjugacyCertificate:
    """Witness that two words are conjugate: w2 = c * w1 * c^-1."""

    conjugator: BraidWord


def _identity_perm(n: int) -> Perm:
    return tuple(range(n))


def _half_twist(n: int) -> Perm:
    return tuple(range(n - 1, -1, -1))


def _transposition(n: int, i: int) -> Perm:
    """Permutation of generator sigma_i (1-based), swapping i-1 and i."""
    img = list(range(n))
    img[i - 1], img[i] = img[i], img[i - 1]
    return tuple(img)


def _mul(p: Perm, q: Perm) -> Perm:
    """Apply p, then q."""
    return tuple(q[x] for x in p)


def _inv(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _starting_set(p: Perm) -> list[int]:
    """Generators that can be pulled off the front of a permutation braid."""
    return [i + 1 for i in range(len(p) - 1) if p[i] > p[i + 1]]


def _finishing_set(p: Perm) -> list[int]:
    """Generators that can be pulled off the back."""
    return _starting_set(_inv(p))


def _tau(p: Perm) -> Perm:
    """Conjugation by the half twist: flip positions and values."""
    n = len(p)
    return tuple(n - 1 - p[n - 1 - i] for i in range(n))


def _perm_letters(p: Perm) -> tuple[int, ...]:
    """A positive word spelling the permutation braid, left to right."""
    img = list(p)
    letters: list[int] = []
    while True:
        descent = next(
            (i for i in range(len(img) - 1) if img[i] > img[i + 1]), None
        )
        if descent is None:
            return tuple(letters)
        letters.append(descent + 1)
        img[descent], img[descent + 1] = img[descent + 1], img[descent]


def _left_weight_pair(n: int, x: Perm, y: Perm) -> tuple[Perm, Perm, bool]:
    """Slide initial letters of y into x until S(y) is contained in F(x)."""
    changed = False
    while True:
        finishing = set(_finishing_set(x))
        movable = [s for s in _starting_set(y) if s not in finishing]
        if not movable:
            return x, y, changed
        t = _transposition(n, movable[0])
        x = _mul(x, t)
        y = _mul(t, y)
        changed = True


def _times_simple(n: int, work: list[Perm], simple: Perm) -> None:
    """Right-multiply a left-weighted factor list by a simple element.

    One backward sweep: append ``simple``, left-weight the last pair, then
    the pair before it, and stop at the first pair that does not change.
    Left-weighting a pair keeps the pair to its right left-weighted
    (Epstein et al., *Word Processing in Groups*, ch. 9), and the pairs
    left of the stop are untouched.  Identities collect at the end of the
    list, where ``_strip`` drops them.
    """
    work.append(simple)
    for i in range(len(work) - 2, -1, -1):
        x, y, moved = _left_weight_pair(n, work[i], work[i + 1])
        if not moved:
            break
        work[i], work[i + 1] = x, y


def _simple_times(n: int, simple: Perm, work: list[Perm]) -> None:
    """Left-multiply a left-weighted factor list by a simple element.

    One forward sweep left-weights (r, y) for the carried factor r, the
    simple at first, and each factor y in turn, writes the left part in
    place of y and carries the right part on; each new pair it leaves
    behind is left-weighted (Epstein et al., ch. 9).  It stops at the first
    pair that does not change, or as soon as the carried part becomes the
    identity, which is dropped: then the factor written is z = r y, and
    F(z) contains F(y), which contains S of the next factor, so the new
    neighbours are already left-weighted.  Without that stop the identity
    left over by tau(d) x1 = Delta in a cycling step would bubble through
    every factor.
    """
    ident = _identity_perm(n)
    carry = simple
    for i, y in enumerate(work):
        if carry == ident:
            return
        x, rest, moved = _left_weight_pair(n, carry, y)
        if not moved:
            work.insert(i, carry)
            return
        work[i], carry = x, rest
    if carry != ident:
        work.append(carry)


def _strip(
    n: int, power: int, work: list[Perm]
) -> tuple[int, tuple[Perm, ...]]:
    """Move the leading Delta factors of a left-weighted list into the power
    and drop its trailing identities."""
    ident = _identity_perm(n)
    delta = _half_twist(n)
    lo = 0
    hi = len(work)
    while lo < hi and work[lo] == delta:
        lo += 1
    while lo < hi and work[hi - 1] == ident:
        hi -= 1
    return power + lo, tuple(work[lo:hi])


def _normalize_factors(
    n: int, power: int, factors: list[Perm]
) -> tuple[int, tuple[Perm, ...]]:
    """Normal form of Delta^power times an arbitrary list of simples."""
    work: list[Perm] = []
    for factor in factors:
        _times_simple(n, work, factor)
    return _strip(n, power, work)


def normal_form(w: BraidWord) -> GarsideNormalForm:
    """Left-greedy Delta-normal form; equal words get identical forms."""
    n = w.strands
    if n == 1:
        return GarsideNormalForm(1, 0, ())
    delta = _half_twist(n)
    pieces: list[tuple[int, Perm]] = []
    for k in w.letters:
        t = _transposition(n, abs(k))
        if k > 0:
            pieces.append((0, t))
        else:
            pieces.append((-1, _mul(delta, t)))
    total_power = sum(e for e, _ in pieces)
    factors: list[Perm] = []
    suffix = 0
    for e, x in reversed(pieces):
        factors.append(_tau(x) if suffix % 2 else x)
        suffix += e
    factors.reverse()
    power, normalized = _normalize_factors(n, total_power, factors)
    return GarsideNormalForm(n, power, normalized)


def words_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Equality in the braid group, decided by normal forms."""
    if w1.strands != w2.strands:
        raise ValueError("strand counts differ")
    return normal_form(w1) == normal_form(w2)


def _conjugate_nf(nf: GarsideNormalForm, simple: Perm) -> GarsideNormalForm:
    """Normal form of s^-1 * nf * s for a simple element s.

    With the complement d = s^-1 Delta, s^-1 = d Delta^-1, so
    s^-1 Delta^p x1..xk s = Delta^(p-1) tau^(p-1)(d) x1..xk s (Elrifai and
    Morton, Quart. J. Math. 45 (1994)).  So x1..xk, already left-weighted,
    is right-multiplied by s and then left-multiplied by tau^(p-1)(d), one
    sweep each.
    """
    n = nf.strands
    complement = _mul(_inv(simple), _half_twist(n))
    if (nf.power - 1) % 2:
        complement = _tau(complement)
    work = list(nf.factors)
    _times_simple(n, work, simple)
    _simple_times(n, complement, work)
    power, factors = _strip(n, nf.power - 1, work)
    return GarsideNormalForm(n, power, factors)


def _cycle(nf: GarsideNormalForm) -> tuple[GarsideNormalForm, tuple[int, ...]]:
    """Conjugate by tau^p(x1): Delta^p x1..xk -> Delta^p x2..xk tau^p(x1)."""
    first = nf.factors[0]
    moved = _tau(first) if nf.power % 2 else first
    return _conjugate_nf(nf, moved), _perm_letters(moved)


def _decycle(nf: GarsideNormalForm) -> tuple[GarsideNormalForm, tuple[int, ...]]:
    """Conjugate by the inverse of the final factor, moving it to the front."""
    last = nf.factors[-1]
    moved = _tau(last) if nf.power % 2 else last
    work = list(nf.factors[:-1])
    _simple_times(nf.strands, moved, work)
    power, factors = _strip(nf.strands, nf.power, work)
    conj = tuple(-k for k in reversed(_perm_letters(last)))
    return GarsideNormalForm(nf.strands, power, factors), conj


def _summit(nf: GarsideNormalForm) -> tuple[GarsideNormalForm, list[int]]:
    """Cycle/decycle to maximal infimum, then minimal canonical length.

    Cycling and decycling never lower inf nor raise sup (Elrifai and
    Morton, Quart. J. Math. 45 (1994)), so no form recurs once either has
    moved: each walk stops at its first repeated form, and each pass that
    does not end the loop shortens the form.  A step that breaks either
    bound is a fault in the conjugation and raises, instead of walking on
    for ever.
    """
    conjugator: list[int] = []
    while True:
        start = (nf.power, nf.canonical_length)
        for step in (_cycle, _decycle):
            seen: set[tuple[int, tuple[Perm, ...]]] = set()
            while nf.factors and (nf.power, nf.factors) not in seen:
                seen.add((nf.power, nf.factors))
                nxt, letters = step(nf)
                if nxt.power < nf.power or nxt.sup > nf.sup:
                    raise RuntimeError(
                        f"{step.__name__} moved (inf, sup) from"
                        f" ({nf.power}, {nf.sup}) to ({nxt.power}, {nxt.sup})"
                    )
                conjugator.extend(letters)
                nf = nxt
        if (nf.power, nf.canonical_length) == start:
            return nf, conjugator


def _nontrivial_simples(n: int) -> list[Perm]:
    ident = _identity_perm(n)
    return [p for p in permutations(range(n)) if p != ident]


def conjugacy_decide(
    w1: BraidWord,
    w2: BraidWord,
    node_cap: int = NODE_CAP,
    conjugator: BraidWord | None = None,
) -> ConjugacyCertificate | None:
    """Decide conjugacy; on success return c with w2 = c * w1 * c^-1.

    Explores the super summit set of w1 while tracking conjugators.  The
    node cap turns pathological inputs into :class:`SearchBudgetExceeded`
    rather than an unbounded search; more than
    :data:`MAX_CONJUGACY_STRANDS` strands raise ValueError.  A given
    ``conjugator`` is tried first: when :func:`verify_certificate` accepts
    it, it is the certificate and no summit is searched.
    """
    if w1.strands != w2.strands:
        raise ValueError("strand counts differ")
    if w1.strands > MAX_CONJUGACY_STRANDS:
        raise ValueError(f"conjugacy takes at most {MAX_CONJUGACY_STRANDS} strands")
    if exponent_sum(w1) != exponent_sum(w2):
        return None
    if conjugator is not None and verify_certificate(w1, w2, conjugator):
        return ConjugacyCertificate(conjugator)
    nf1, nf2 = normal_form(w1), normal_form(w2)
    if nf1 == nf2:
        return ConjugacyCertificate(BraidWord(w1.strands, ()))

    summit1, path1 = _summit(nf1)
    summit2, path2 = _summit(nf2)
    if (summit1.power, summit1.canonical_length) != (
        summit2.power,
        summit2.canonical_length,
    ):
        return None

    n = w1.strands
    simples = _nontrivial_simples(n)
    key1 = (summit1.power, summit1.factors)
    target = (summit2.power, summit2.factors)
    reached: dict[tuple[int, tuple[Perm, ...]], tuple[int, ...]] = {key1: ()}
    queue: deque[tuple[int, tuple[Perm, ...]]] = deque([key1])
    relative: tuple[int, ...] | None = () if key1 == target else None
    expanded = 0
    while queue and relative is None:
        key = queue.popleft()
        expanded += 1
        if expanded > node_cap:
            raise SearchBudgetExceeded(
                f"super summit exploration exceeded {node_cap} nodes"
            )
        current = GarsideNormalForm(n, key[0], key[1])
        for simple in simples:
            neighbor = _conjugate_nf(current, simple)
            if (neighbor.power, neighbor.canonical_length) != (
                summit1.power,
                summit1.canonical_length,
            ):
                continue
            nkey = (neighbor.power, neighbor.factors)
            if nkey in reached:
                continue
            reached[nkey] = reached[key] + _perm_letters(simple)
            if nkey == target:
                relative = reached[nkey]
                break
            queue.append(nkey)
    if relative is None:
        return None

    # w2 = g2 * g1^-1 * w1 * g1 * g2^-1 with g1 = path1 + relative, g2 = path2
    g1 = BraidWord(n, tuple(path1) + relative)
    g2 = BraidWord(n, tuple(path2))
    conjugator = free_reduce(concat(g2, inverse_word(g1)))
    return ConjugacyCertificate(conjugator)


def verify_certificate(w1: BraidWord, w2: BraidWord, c: BraidWord) -> bool:
    """True iff w2 = c * w1 * c^-1 in the braid group.

    Decided as w2 * c = c * w1, so neither side needs an inverse.  Up to 3
    strands the reduced Burau matrices of the two products are compared:
    the representation is faithful there (Birman, *Braids, Links, and
    Mapping Class Groups*, 1974, ch. 3), so equal matrices mean equal
    braids, and the check is independent of the normal forms that the
    search for a conjugator uses.  From 4 strands on normal forms decide:
    Burau is not faithful from 5 strands (Bigelow, Geom. Topol. 3 (1999))
    and its faithfulness on 4 is open.
    """
    if not (w1.strands == w2.strands == c.strands):
        raise ValueError("strand counts differ")
    left, right = concat(w2, c), concat(c, w1)
    if w1.strands <= 3:
        return reduced_burau(left) == reduced_burau(right)
    return words_equal(left, right)
