"""The benchmark's four workloads: seeded inputs and independent output checks.

Each workload yields rounds of operations.  A round always has the same
shape (the same family indices, word sizes, conjugacy classes or Type-1
forms), so every run attempts whole rounds of the same work; the seed only
draws the random letters and conjugators.  Each workload also has a
counting round that does not depend on the seed.  Expected answers come
from the construction, from the paper's closed forms, or from the exact
computations in :mod:`references`, never from the program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, NamedTuple

import references


class Word(NamedTuple):
    """A braid word handed to the program as ``BraidWord(strands, letters)``."""

    strands: int
    letters: tuple[int, ...]


@dataclass(frozen=True)
class Op:
    label: str
    func: str  # "module.function" inside the package
    args: tuple  # ints and Words
    expect: object  # construction data the check compares against


class CheckFailed(Exception):
    pass


def require(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass(frozen=True)
class Workload:
    # (rng, round index, fresh) -> ops, or None once the inputs run out;
    # fresh(word) is False for a word this process has already generated.
    make_round: Callable[[random.Random, int, Callable[[Word], bool]], list[Op] | None]
    # (fresh) -> the same ops for every seed; the call count is taken on them
    count_round: Callable[[Callable[[Word], bool]], list[Op]]
    check: Callable[[Op, object, "Program"], None]


class Program(NamedTuple):
    """Program entry points a check may call, outside any timed region."""

    braid_word: type
    seifert_matrix: Callable


def random_letters(rng: random.Random, strands: int, length: int) -> tuple[int, ...]:
    return tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length))


# --- family: the paper's K_n ----------------------------------------------

FAMILY_N = tuple(range(1, 19))
# The counting round re-runs these after the timed pass; the hook costs
# several times the call, and n = 1 to 16 would add about a minute.
FAMILY_COUNTED = (1, 2, 4, 8)


def family_op(n: int) -> Op:
    return Op(f"K{n}", "report.family_report", (n,), n)


def family_round(rng: random.Random, index: int, fresh) -> list[Op] | None:
    # family_report(n) takes only n, so the set can be run once per process.
    if index:
        return None
    order = list(FAMILY_N)
    rng.shuffle(order)
    return [family_op(n) for n in order]


def family_count_round(fresh) -> list[Op]:
    return [family_op(n) for n in FAMILY_COUNTED]


def check_family(op: Op, report, program: Program) -> None:
    n = op.expect
    require(report.max_self_linking.value == -2 * n - 1, "SL = -2n-1")
    require(report.signature == 2 * n, "signature = 2n")
    require((report.g4.lower, report.g4.upper) == (n, n), "g4 = n")
    require(report.s is not None and report.s.value == -2 * n, "s = -2n")
    require((report.tau.lower, report.tau.upper) == (-n, -n), "tau = -n")
    d = report.defects
    require((d.delta4, d.delta_s, d.delta_tau) == (2 * n, 0, 0), "defects = (2n, 0, 0)")
    require(report.quasipositive_verdict == "not_quasipositive", "not quasipositive")


# --- knot_corpus: word_report on random 4- to 7-strand knots ---------------

# (strands, letters); a closure is a knot only if the length has the parity
# of strands - 1, and every slot's length respects that.  Most slots are
# mid-sized, so the median operation is one of eight like it; the signature
# cost grows steeply with length, and one long word would carry most of the
# round's calls and make them swing with the seed.
KNOT_SLOTS = (
    (4, 25), (5, 26), (6, 27), (7, 28),
    (4, 49), (5, 50), (6, 49), (7, 50), (4, 51), (5, 52), (6, 51), (7, 52),
    (4, 75), (7, 76),
)


def knot_round(rng: random.Random, index: int, fresh) -> list[Op]:
    ops = []
    for strands, length in KNOT_SLOTS:
        while True:
            w = Word(strands, random_letters(rng, strands, length))
            if references.closure_components(w.letters, strands) == 1 and fresh(w):
                break
        ops.append(Op(f"{strands}x{length}", "report.word_report", (w,), None))
    return ops


def check_knot(op: Op, report, program: Program) -> None:
    (w,) = op.args
    v = program.seifert_matrix(program.braid_word(w.strands, w.letters)).matrix
    rank = len(v)
    g = rank // 2
    sigma = report.signature
    require(sigma % 2 == 0 and abs(sigma) <= rank, "signature even and |sigma| <= rank")
    delta = dict(report.alexander.coeffs)
    require(delta == {-e: c for e, c in delta.items()}, "Delta(t) = Delta(1/t)")
    require(sum(delta.values()) == 1, "Delta(1) = 1")
    at_minus_one = sum(c * (-1) ** (e % 2) for e, c in delta.items())
    require(
        at_minus_one != 0 and (at_minus_one > 0) == (sigma // 2 % 2 == 0),
        "sign of Delta(-1) = (-1)^(sigma/2)",
    )
    require(report.determinant == abs(at_minus_one), "determinant = |Delta(-1)|")
    require(min(delta) >= -g, "Alexander span within the Seifert rank")
    minus = [[v[i][j] - v[j][i] for j in range(rank)] for i in range(rank)]
    plus = [[v[i][j] + v[j][i] for j in range(rank)] for i in range(rank)]
    twice = [[v[i][j] - 2 * v[j][i] for j in range(rank)] for i in range(rank)]
    require(references.bareiss_det(minus) == 1, "det(V - V^T) = 1")
    require(abs(references.bareiss_det(plus)) == abs(at_minus_one), "|det(V + V^T)| = |Delta(-1)|")
    two_g_at_two = sum(c * 2 ** (e + g) for e, c in delta.items())  # 2^g Delta(2)
    require(abs(references.bareiss_det(twice)) == abs(two_g_at_two), "|det(V - 2V^T)| = 2^g |Delta(2)|")


# --- conjugacy: conjugacy_decide on 4-strand pairs -------------------------

# Fixed classes, so every run searches the same super summit sets (SSS) and
# the run's seed only draws the conjugators; with classes drawn per seed,
# one pair in twenty searched for seconds and the rest for milliseconds.
# Each row is (w, same, other): both partners have w's exponent sum and
# differ from w in the traces of their Burau powers, so neither is conjugate
# to w.  `same` shares w's summit infimum and canonical length, so the
# search must exhaust the SSS of w; `other` does not, so the search stops
# after both summits.  The classes were drawn at random and kept for a
# spread of SSS sizes: their summits have (inf, canonical length) (0, 1),
# (-1, 2), (-2, 2) and (-1, 3).
CONJUGACY_CLASSES = (
    ((1, 2, 3, 2, 3, -1, 3, 1, -3, -3), (-2, 1, 1, 2, 3, -1, -2, 2, 1, 1), (3, 2, -3, -1, 2, 2, 3, 2, -2, 3)),
    ((3, 2, 2, -2, -1, 2, 2, -3, 3, -2), (-1, 1, 3, -1, 2, 3, 1, 2, -3, -3), (-3, -3, 2, 3, 2, 3, -2, 3, -2, 2)),
    ((-3, -3, -3, -1, -1, -2, 2, -3, 1, -2), (-2, -2, -1, -2, -2, -3, 3, -3, -1, 3), (2, -2, -3, -3, -3, -3, -3, 1, -2, -1)),
    ((-2, -2, 2, 2, 3, 2, -1, 2, 3, 1), (2, 3, 3, -1, -3, 2, 3, -3, 2, 2), (3, 1, -2, 2, -1, -1, 2, 1, 2, 1)),
)


def conjugated(rng: random.Random, w: Word, length: int, fresh) -> Word:
    """A fresh c * w * c^-1 with a random conjugator c of the given length."""
    for _ in range(10_000):
        c = random_letters(rng, w.strands, length)
        out = Word(w.strands, c + w.letters + references.inverse(c))
        if fresh(out):
            return out
    raise RuntimeError(f"no fresh conjugate of {w.letters} with {length}-letter conjugators left")


# 1296 conjugators of this length: a round draws six words from each class,
# and a 60-second run needs fewer than 300 of them.
CONJUGATOR_LETTERS = 4


def conjugacy_round(rng: random.Random, index: int, fresh) -> list[Op]:
    ops = []
    for k, row in enumerate(CONJUGACY_CLASSES):
        w, same, other = (Word(4, letters) for letters in row)
        # Most random pairs are rejected by their summits, so rejects are the
        # common case here too, and the median operation is one of them.
        # Every word is fresh, so no operation meets a word seen before.
        kinds = [("conjugate", w, True), ("exhaust", same, False)] + [("reject", other, False)] * 3
        for kind, partner, expect in kinds:
            pair = conjugated(rng, w, CONJUGATOR_LETTERS, fresh), conjugated(rng, partner, CONJUGATOR_LETTERS, fresh)
            ops.append(Op(f"class{k}-{kind}", "garside.conjugacy_decide", pair, expect))
    return ops


def check_conjugacy(op: Op, cert, program: Program) -> None:
    w1, w2 = op.args
    if not op.expect:
        # the Burau trace powers of the two classes differ
        require(cert is None, "non-conjugate pair reported as non-conjugate")
        return
    require(cert is not None, "conjugate pair reported as conjugate")
    require(
        references.conjugates_onto(w1.strands, w1.letters, w2.letters, cert.conjugator.letters),
        "Burau image of the certificate conjugates w1 onto w2",
    )


# --- type1: Type-1 recognition of conjugated 3-braid normal forms ----------

FULL_TWIST = (1, 2, 1, 2, 1, 2)
# d = 1 knot forms h * prod sigma_1^b sigma_2^-a with one or two blocks and
# exponents of at most 3; recognition tests 1 to 50 candidates on them.
# Five forms take less time than h[1,1][2,2] and five more, so the median
# operation is one of its three slots, not a gap between two forms; its time
# moves with the conjugator, and three slots give the median three times
# the samples.
TYPE1_FORMS = (
    ((1, 1),),
    ((3, 1),),
    ((3, 3),),
    ((1, 1), (1, 1)),
    ((1, 1), (2, 2)),
    ((1, 1), (2, 2)),
    ((1, 1), (2, 2)),
    ((1, 1), (3, 1)),
    ((1, 1), (3, 3)),
    ((1, 2), (2, 1)),
    ((1, 3), (1, 3)),
    ((1, 3), (3, 1)),
    ((3, 1), (3, 1)),
)


def type1_letters(d: int, blocks) -> tuple[int, ...]:
    letters = FULL_TWIST * d
    for b, a in blocks:
        letters += (1,) * b + (-2,) * a
    return letters


def canonical_blocks(blocks) -> tuple[tuple[int, int], ...]:
    """Blocks up to cyclic rotation, with a = 0 blocks merged into the next."""
    blocks = list(blocks)
    if all(a == 0 for _, a in blocks):
        return ((sum(b for b, _ in blocks), 0),)
    while blocks[-1][1] == 0:
        blocks = blocks[1:] + blocks[:1]
    merged, carry = [], 0
    for b, a in blocks:
        carry += b
        if a:
            merged.append((carry, a))
            carry = 0
    return min(tuple(merged[i:] + merged[:i]) for i in range(len(merged)))


def type1_round(rng: random.Random, index: int, fresh) -> list[Op]:
    ops = []
    for k, blocks in enumerate(TYPE1_FORMS):
        turn = rng.randrange(len(blocks))
        form = Word(3, type1_letters(1, blocks[turn:] + blocks[:turn]))
        # conjugators of 3 to 6 letters, at least 64 of each length; each
        # slot keeps its length, since recognition renormalises the input
        # once per candidate tested
        w = conjugated(rng, form, 3 + k % 4, fresh)
        label = "h" + "".join(f"[{b},{a}]" for b, a in blocks)
        ops.append(Op(label, "threebraid.type1_recognize", (w,), blocks))
    return ops


def check_type1(op: Op, form, program: Program) -> None:
    (w,) = op.args
    require(form is not None, "Type-1 form recognised")
    require(form.d == 1, "full-twist power d = 1")
    require(canonical_blocks(form.blocks) == canonical_blocks(op.expect), "blocks match the construction")
    spelled = type1_letters(form.d, form.blocks)
    require(
        references.conjugates_onto(3, spelled, w.letters, form.certificate.conjugator.letters),
        "Burau image of the certificate conjugates the form onto the input",
    )
    # Martin's rule s = writhe - 2 needs d > 0 and some a > 0; the writhe is
    # a conjugacy invariant, so the form and the input must agree on it.
    require(any(a > 0 for _, a in form.blocks), "Martin's rule applies")
    require(references.exponent_sum(spelled) == references.exponent_sum(w.letters), "s = writhe - 2 agrees")


def seedless_round(make_round):
    """Every third op of a round drawn from a fixed stream, the same for every seed.

    The profile hook costs several times the call, so a whole round would
    add seven seconds to a run; every third op still mixes sizes and strands.
    """
    return lambda fresh: make_round(random.Random("count"), 0, fresh)[::3]


WORKLOADS = {
    "family": Workload(family_round, family_count_round, check_family),
    "knot_corpus": Workload(knot_round, seedless_round(knot_round), check_knot),
    "conjugacy": Workload(conjugacy_round, seedless_round(conjugacy_round), check_conjugacy),
    "type1": Workload(type1_round, seedless_round(type1_round), check_type1),
}
