"""Murasugi Type-1 recognition for 3-braids and its consequences.

A 3-braid is of Type 1 (in the sense used here) when it is conjugate to

    h^d  sigma_1^{b_1} sigma_2^{-a_1} ... sigma_1^{b_k} sigma_2^{-a_k}

with h = (sigma_1 sigma_2)^3 the full twist, d >= 1, every b_i >= 1 and
every a_i >= 0.  For closures of such braids with d > 0 and some a_i > 0,
Martin's theorem computes the Rasmussen invariant from the diagram:
s = writhe - 2 (:attr:`Type1Form.s_invariant`).  Sharpness of the
s-Bennequin bound (self-linking = s - 1) in turn forces Plamenevskaya's
Khovanov class, right-veeringness, the knot Floer transverse class, and
the contact class of the branched double cover to be nonzero;
:func:`s_bound_sharp` tests that one sufficient condition, and a report
states it as its one ``s_bound_sharp`` field.

Recognition enumerates candidate normal forms whose exponent sum matches
the input, bounded by the input length, and tests each with the Garside
conjugacy machinery; a braid outside the bounds is reported as
unclassified (None) rather than guessed.  The built-in family needs no
summit search: :func:`family_type1_form` hands recognition the
closed-form conjugator sigma_2^-1 sigma_1^-2 (:data:`FAMILY_CONJUGATOR`),
which conjugates the first candidate, h sigma_1 sigma_2^-(2n+5), onto
K_n and is checked on integers, by exponent sum and SL(2, Z) image,
which decide equality on 3 strands (:func:`garside.verify_certificate`),
so the family builds no Garside normal form, and the check no Burau
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, closure_components, exponent_sum, family_word, self_linking
from .garside import (
    NODE_CAP,
    ConjugacyCertificate,
    SearchBudgetExceeded,
    conjugacy_decide,
)

FULL_TWIST = (1, 2, 1, 2, 1, 2)

# sigma_2^-1 sigma_1^-2 conjugates h sigma_1 sigma_2^-(2n+5) onto
# family_word(n); family_type1_form checks it for each n through its
# SL(2, Z) image, and the summit search finds this same word for n = 1 to 8.
FAMILY_CONJUGATOR = (-2, -1, -1)

# Default budget of the Type-1 search, in candidate forms tested.
CANDIDATE_CAP = 10**5


@dataclass(frozen=True)
class Type1Form:
    """Recognized normal form h^d * prod sigma_1^{b_i} sigma_2^{-a_i}.

    ``certificate.conjugator`` conjugates the spelled normal form onto the
    input word.
    """

    d: int
    blocks: tuple[tuple[int, int], ...]
    certificate: ConjugacyCertificate

    def word(self) -> BraidWord:
        return type1_word(self.d, self.blocks)

    @property
    def s_invariant(self) -> int | None:
        """Martin's rule: s = writhe - 2 when d > 0 and some a_i > 0, else None.

        The writhe 6d + sum(b_i) - sum(a_i) is read off the form; every
        conjugate word has the same exponent sum.
        """
        if self.d > 0 and any(a > 0 for _, a in self.blocks):
            return 6 * self.d + sum(b - a for b, a in self.blocks) - 2
        return None


def type1_word(d: int, blocks) -> BraidWord:
    """Spell out the Type-1 normal form as a braid word."""
    if d < 1:
        raise ValueError("full twist power must be >= 1")
    letters = FULL_TWIST * d
    for b, a in blocks:
        if b < 1 or a < 0:
            raise ValueError("blocks need b >= 1 and a >= 0")
        letters += (1,) * b + (-2,) * a
    return BraidWord(3, letters)


def _compositions(total: int, parts: int):
    """Ways to write total as an ordered sum of ``parts`` positive integers."""
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _weak_compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _weak_compositions(total - first, parts - 1):
            yield (first,) + rest


def type1_recognize(
    w: BraidWord,
    candidate_cap: int = CANDIDATE_CAP,
    node_cap: int = NODE_CAP,
    conjugator: BraidWord | None = None,
) -> Type1Form | None:
    """Search for a Type-1 normal form conjugate to w.

    Candidates are enumerated with the full-twist power d ascending, then
    total sigma_1 exponent, then block count; the sigma_2 total is forced
    by the exponent sum.  Returns the first conjugate candidate with the
    certificate :func:`conjugacy_decide` produced, or None if the bounded
    family holds no match.  A given ``conjugator`` is passed on to
    :func:`conjugacy_decide`, which tries it on each candidate before
    searching.  A searched certificate is not re-checked here; callers
    that need proof pass it to :func:`garside.verify_certificate`.
    Raises :class:`SearchBudgetExceeded` when the candidate cap is hit, a
    distinct outcome from a completed no-match search.
    """
    if w.strands != 3:
        raise ValueError("Type-1 recognition applies to 3-braids only")
    length = len(w.letters)
    e = exponent_sum(w)
    # On 3 strands the cycle count fixes the cycle type of the permutation.
    components = closure_components(w)
    # Candidates are capped at the input length plus the full twists' worth
    # of slack: a form h^d B has 12d + 2*sum(b_i) - e letters, so sum(b_i)
    # is at most (length + e - 6d) / 2.
    d_max = max(0, (length + e - 2) // 6)
    tested = 0
    for d in range(1, d_max + 1):
        for b_total in range(1, (length + e - 6 * d) // 2 + 1):
            a_total = 6 * d + b_total - e
            if a_total < 0:
                continue
            for k in range(1, b_total + 1):
                for bs in _compositions(b_total, k):
                    for surplus in _weak_compositions(a_total, k):
                        tested += 1
                        if tested > candidate_cap:
                            raise SearchBudgetExceeded(
                                f"Type-1 search exceeded {candidate_cap} candidates"
                            )
                        blocks = tuple(zip(bs, surplus))
                        candidate = type1_word(d, blocks)
                        if closure_components(candidate) != components:
                            continue
                        cert = conjugacy_decide(
                            candidate, w, node_cap=node_cap, conjugator=conjugator
                        )
                        if cert is not None:
                            return Type1Form(d, blocks, cert)
    return None


def family_type1_form(n: int) -> Type1Form:
    """Type-1 form of family_word(n) with its closed-form conjugator, verified.

    The form is h sigma_1 sigma_2^-(2n+5), the first candidate of
    :func:`type1_recognize`, and the conjugator :data:`FAMILY_CONJUGATOR`,
    which recognition tries first and :func:`garside.verify_certificate`
    checks by comparing exponent sums and SL(2, Z) images, which decide
    equality on 3 strands (:func:`braid.sl2_image`).  Any other outcome
    raises RuntimeError.
    """
    conjugator = BraidWord(3, FAMILY_CONJUGATOR)
    form = Type1Form(1, ((1, 2 * n + 5),), ConjugacyCertificate(conjugator))
    if type1_recognize(family_word(n), conjugator=conjugator) != form:
        raise RuntimeError(f"family conjugator fails verification for K{n}")
    return form


def s_bound_sharp(w: BraidWord, s: int) -> bool:
    """Whether the diagram attains the s-bound: s - 1 = writhe - strands.

    ``s`` is the Rasmussen invariant of the closure, supplied by the
    caller.  Sharpness is sufficient for all four transverse detectors:
    Plamenevskaya's class psi and the knot Floer class theta are nonzero,
    the closure is right-veering, and the contact class of the associated
    contact structure is nonzero.  False means inconclusive, not that a
    class vanishes.
    """
    return s - 1 == self_linking(w)
