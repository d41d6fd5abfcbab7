"""The identity suite run by ``bennequin verify`` and the acceptance tests.

:data:`CHECKS` is an ordered registry of ``(name, check)`` pairs.  A check
is called as ``check(max_n, seed)``; family-indexed checks go up to
``max_n``, randomized ones draw their corpus from ``seed``.  The inputs are
fixed, so every search runs with its package default budget.
It returns a one-line detail when every identity holds and raises
:class:`CheckFailed` naming the first one that does not.  Failures are
explicit raises, so the suite checks the same identities under
``python -O``.

The corpus generators live here once; the test oracles import them, so the
suite and the tests draw identical corpora from a seed.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import quadform
from .alexander import (
    alexander_from_seifert,
    burau_alexander,
    knot_determinant,
    laurent_det,
    reduced_burau,
)
from .braid import (
    BraidWord,
    closure_components,
    family_type1_word,
    family_word,
    format_braid,
    self_linking,
)
from .garside import conjugacy_decide, verify_certificate, words_equal
from .report import family_report, g4_bounds
from .seifert import family_four_ball_surface, seifert_matrix, twist_chain_matrix
from .tau import TauConstraintGraph, TauNode, family_tau, propagate
from .threebraid import family_type1_form, s_bound_sharp, type1_recognize

SEED = 20260810


class CheckFailed(Exception):
    """An identity of the suite does not hold."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _expect(got, expected, what: str) -> None:
    if got != expected:
        raise CheckFailed(f"{what}: got {got!r}, expected {expected!r}")


# -- corpora -----------------------------------------------------------------


def random_knot_words(
    rng: random.Random, count: int, max_strands: int = 4, max_len: int = 12
) -> list[BraidWord]:
    """Words whose closure is a knot with every generator column used."""
    words = []
    while len(words) < count:
        n = rng.randint(2, max_strands)
        length = rng.randint(n, max_len)
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(length)
        )
        w = BraidWord(n, letters)
        if {abs(k) for k in letters} != set(range(1, n)):
            continue
        if closure_components(w) != 1:
            continue
        words.append(w)
    return words


# Relation moves reach words at most this many letters longer than the start.
EXTRA_LENGTH = 4


def relation_neighbors(word: tuple[int, ...], strands: int, max_len: int):
    """Words one move from ``word``: free cancellation, aba <-> bab (adjacent
    generators, one sign), far commutation, and insertion of g g^-1 or
    g^-1 g while the result has at most ``max_len`` letters."""
    length = len(word)
    for i in range(length - 1):
        if word[i] == -word[i + 1]:
            yield word[:i] + word[i + 2 :]
    for i in range(length - 2):
        a, b, c = word[i : i + 3]
        if a == c and abs(abs(a) - abs(b)) == 1 and (a > 0) == (b > 0):
            yield word[:i] + (b, a, b) + word[i + 3 :]
    for i in range(length - 1):
        a, b = word[i : i + 2]
        if abs(abs(a) - abs(b)) >= 2:
            yield word[:i] + (b, a) + word[i + 2 :]
    if length + 2 <= max_len:
        for i in range(length + 1):
            for g in range(1, strands):
                yield word[:i] + (g, -g) + word[i:]
                yield word[:i] + (-g, g) + word[i:]


def word_pairs(
    rng: random.Random, count: int, max_len: int = 8
) -> list[tuple[BraidWord, BraidWord]]:
    """Pairs of 3-strand words, drawn freely at even indices; at odd ones the
    second word is one to three relation moves from the first, so equal."""

    def word() -> tuple[int, ...]:
        return tuple(rng.choice((1, -1, 2, -2)) for _ in range(rng.randint(0, max_len)))

    pairs = []
    for trial in range(count):
        first = other = word()
        if trial % 2 == 0:
            other = word()
        else:
            for _ in range(rng.randint(1, 3)):
                moves = list(relation_neighbors(other, 3, len(first) + EXTRA_LENGTH))
                if not moves:
                    break
                other = rng.choice(moves)
        pairs.append((BraidWord(3, first), BraidWord(3, other)))
    return pairs


def random_symmetric(rng: random.Random, size: int) -> list[list[int]]:
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            mat[i][j] = mat[j][i] = rng.randint(-4, 4)
    return mat


def random_unimodular(rng: random.Random, size: int) -> list[list[int]]:
    """Product of integer transvections, so determinant +1."""
    mat = [[1 if i == j else 0 for j in range(size)] for i in range(size)]
    if size < 2:
        return mat
    for _ in range(2 * size):
        i, j = rng.sample(range(size), 2)
        c = rng.choice((-2, -1, 1, 2))
        for k in range(size):
            mat[i][k] += c * mat[j][k]
    return mat


def congruence_transform(mat, basis) -> list[list[int]]:
    """P^T S P for integer matrices."""
    size = range(len(mat))

    def entry(i: int, j: int) -> int:
        return sum(basis[k][i] * mat[k][l] * basis[l][j] for k in size for l in size)

    return [[entry(i, j) for j in size] for i in size]


# -- the checks ----------------------------------------------------------------


def _self_linking(max_n: int, seed: int) -> str:
    for n in range(1, max_n + 1):
        w = family_word(n)
        _expect(self_linking(w), -2 * n - 1, f"self-linking of K{n}")
        _expect(closure_components(w), 1, f"closure components of K{n}")
    return f"sl = -2n-1 and knot closure for n=1..{max_n}"


def _twist_chain_pivots(max_n: int, seed: int) -> str:
    matrix = twist_chain_matrix(1)
    expected = tuple(Fraction(p) for p in ("-4", "-7/4", "8/7", "9/8", "10/9", "11/10"))
    diag = quadform.congruence_diagonalize(matrix)
    _expect(diag.diagonal, expected, "pivots of twist chain 1")
    _expect(diag.signature, 2, "signature of twist chain 1")
    return "pivots -4, -7/4, 8/7, 9/8, 10/9, 11/10; signature 2"


def _twist_chain_induction(max_n: int, seed: int) -> str:
    top = max(40, 2 * max_n - 1)
    for k in range(1, top + 1):
        diag = quadform.congruence_diagonalize(twist_chain_matrix(k))
        _expect(diag.signature, k + 1, f"signature of twist chain {k}")
        last = Fraction(k + 10, k + 9)
        _expect(diag.diagonal[-1], last, f"last pivot of twist chain {k}")
    return f"signature k+1 and last pivot (k+10)/(k+9) for k=1..{top}"


def _algorithmic_signature(max_n: int, seed: int) -> str:
    top = min(max_n, 10)
    for n in range(1, top + 1):
        _expect(quadform.knot_signature(family_word(n)), 2 * n, f"signature of K{n}")
    return f"signature 2n from the algorithmic surface for n=1..{top}"


def _four_ball_genus(max_n: int, seed: int) -> str:
    for n in range(1, max_n + 1):
        surface = family_four_ball_surface(n)
        _expect(surface.euler_characteristic, 1 - 2 * n, f"Euler characteristic, K{n}")
        bounds = g4_bounds(2 * n, surface.genus)
        _expect((bounds.lower, bounds.upper), (n, n), f"four-ball genus bounds of K{n}")
    return f"four-ball genus pinned to n for n=1..{max_n}"


def _conjugacy(max_n: int, seed: int) -> str:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        w, u = family_word(n), family_type1_word(n)
        cert = conjugacy_decide(w, u)
        if cert is None:
            raise CheckFailed(f"K{n} not found conjugate to its Type-1 form")
        if not verify_certificate(w, u, cert.conjugator):
            raise CheckFailed(f"conjugator of K{n} fails verification")
    return f"verified conjugators onto the Type-1 form for n=1..{top}"


def _s_invariant(max_n: int, seed: int) -> str:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        # the search against the verified closed form; conjugators are not
        # unique, so the search's own is verified rather than compared
        w = family_word(n)
        form = type1_recognize(w)
        closed = family_type1_form(n)
        found = None if form is None else (form.d, form.blocks)
        _expect(found, (closed.d, closed.blocks), f"Type-1 form (d, blocks) of K{n}")
        verified = verify_certificate(form.word(), w, form.certificate.conjugator)
        _expect(verified, True, f"Type-1 conjugator of K{n}")
        _expect(form.s_invariant, -2 * n, f"s of K{n}")
    return f"s = -2n via d=1, a1=2n+5 for n=1..{top}"


def _tau(max_n: int, seed: int) -> str:
    for n in range(1, max_n + 1):
        _expect(family_tau(n), -n, f"tau of K{n}")
        partial = TauConstraintGraph(
            nodes=(TauNode("K"), TauNode("P", -n)), edges=(("P", "K"),)
        )
        interval = propagate(partial)["K"]
        _expect((interval.lower, interval.upper), (-n, -n + 1), f"tau interval of K{n}")
    return f"tau = -n with intermediate interval [-n, -n+1] for n=1..{max_n}"


def _defect_growth(max_n: int, seed: int) -> str:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        report = family_report(n)
        d = report.defects
        _expect((d.delta4, d.delta_s, d.delta_tau), (2 * n, 0, 0), f"defects of K{n}")
        _expect(report.quasipositive_verdict, "not_quasipositive", f"verdict on K{n}")
        v = seifert_matrix(family_word(n)).matrix
        seifert_route = alexander_from_seifert([list(r) for r in v])
        _expect(seifert_route, report.alexander, f"Seifert-route Alexander of K{n}")
    return (
        f"defects (2n, 0, 0), nonquasipositive and both Alexander routes agree"
        f" for n=1..{top}"
    )


def _oracle_equivalence(max_n: int, seed: int) -> str:
    for w in random_knot_words(random.Random(seed), 200):
        text = f"{w.strands}-strand word {format_braid(w)}"
        v = seifert_matrix(w).matrix
        size = len(v)
        skew = [[{0: v[i][j] - v[j][i]} for j in range(size)] for i in range(size)]
        _expect(laurent_det(skew), {0: 1}, f"det(V - V^T) of {text}")
        diag = quadform.seifert_form_diagonalize(v)
        _expect(diag.signature % 2, 0, f"signature parity of {text}")
        alex = burau_alexander(w)
        seifert_route = alexander_from_seifert([list(r) for r in v])
        _expect(seifert_route, alex, f"Alexander routes of {text}")
        determinant = knot_determinant(alex)
        _expect(determinant % 2, 1, f"determinant parity of {text}")
        _expect(abs(diag.determinant), determinant, f"det(V + V^T) of {text}")
    return "200 random knot closures: both Alexander routes agree"


def _congruence_invariance(max_n: int, seed: int) -> str:
    rng = random.Random(seed + 1)
    for trial in range(100):
        size = rng.randint(1, 10)
        mat = random_symmetric(rng, size)
        moved = congruence_transform(mat, random_unimodular(rng, size))
        a = quadform.congruence_diagonalize(mat)
        b = quadform.congruence_diagonalize(moved)
        _expect(
            (b.signature, b.nullity),
            (a.signature, a.nullity),
            f"(signature, nullity) after congruence {trial}",
        )
    return "signature and nullity invariant under 100 unimodular congruences"


def _word_problem(max_n: int, seed: int) -> str:
    # The reduced Burau representation is faithful on 3 strands (Birman,
    # Braids, Links, and Mapping Class Groups, 1974, ch. 3), so equal
    # matrices decide equal braids exactly, independently of normal forms.
    for w1, w2 in word_pairs(random.Random(seed + 2), 100):
        _expect(
            words_equal(w1, w2),
            reduced_burau(w1) == reduced_burau(w2),
            f"normal forms on {format_braid(w1)!r} = {format_braid(w2)!r}",
        )
    for left, right in (((1, 2, 1), (2, 1, 2)), ((1, -1), ()), ((-2, 2), ())):
        equal = words_equal(BraidWord(3, left), BraidWord(3, right))
        _expect(equal, True, f"normal forms on {left} = {right}")
    return "normal forms agree with the faithful Burau matrix on 100 pairs"


def _detectors(max_n: int, seed: int) -> str:
    top = min(max_n, 8)
    for n in range(1, top + 1):
        sharp = s_bound_sharp(family_word(n), -2 * n)
        _expect(sharp, True, f"s-bound sharpness on K{n}")
    return f"transverse detectors fire for n=1..{top}"


CHECKS = (
    ("self-linking", _self_linking),
    ("twist-chain pivots", _twist_chain_pivots),
    ("twist-chain induction", _twist_chain_induction),
    ("algorithmic signature", _algorithmic_signature),
    ("four-ball genus", _four_ball_genus),
    ("conjugacy", _conjugacy),
    ("s-invariant", _s_invariant),
    ("tau", _tau),
    ("defect growth", _defect_growth),
    ("oracle equivalence", _oracle_equivalence),
    ("congruence invariance", _congruence_invariance),
    ("word problem", _word_problem),
    ("detectors", _detectors),
)


def run_checks(max_n: int, seed: int = SEED) -> list[CheckResult]:
    """Run every check in :data:`CHECKS` order; a failure is a result, not a crash."""
    if max_n < 1:
        raise ValueError("max_n must be >= 1")
    results = []
    for name, check in CHECKS:
        start = time.perf_counter()
        try:
            detail, passed = check(max_n, seed), True
        except Exception as exc:
            detail, passed = f"{type(exc).__name__}: {exc}", False
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
