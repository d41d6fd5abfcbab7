"""Garside normal forms, the word problem, and conjugacy certificates."""

import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from bennequin import alexander, garside
from bennequin.braid import (
    BraidWord,
    concat,
    exponent_sum,
    family_word,
    free_reduce,
    inverse_word,
    sl2_image,
)
from bennequin.garside import (
    MAX_CONJUGACY_STRANDS,
    SearchBudgetExceeded,
    _conjugate_nf,
    _cycle,
    _decycle,
    _nontrivial_simples,
    conjugacy_decide,
    normal_form,
    verify_certificate,
    words_equal,
)
from bennequin.threebraid import type1_word
from oracles import (
    conjugate,
    normal_form_word,
    perm_letters,
    random_words,
    reduced_burau,
    rewriting_equal,
    word_pairs,
)


def test_defining_relation():
    assert words_equal(BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)))


def test_free_cancellation():
    assert words_equal(BraidWord(3, (1, -1)), BraidWord(3, ()))


def test_distinct_generators_differ():
    assert not words_equal(BraidWord(3, (1,)), BraidWord(3, (2,)))


def test_strand_mismatch():
    with pytest.raises(ValueError):
        words_equal(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_normal_form_factors_are_proper_simples():
    rng = random.Random(17)
    for w in random_words(rng, 60, strands=4, max_len=10):
        nf = normal_form(w)
        ident = tuple(range(w.strands))
        delta = tuple(range(w.strands - 1, -1, -1))
        for factor in nf.factors:
            assert factor != ident
            assert factor != delta


def test_normal_form_idempotent():
    rng = random.Random(23)
    for w in random_words(rng, 60, strands=3, max_len=10):
        nf = normal_form(w)
        assert normal_form(normal_form_word(nf)) == nf


def _spelled_conjugate(nf, letters):
    """Normal form of c^-1 * nf * c, re-normalised from the spelled word."""
    c = BraidWord(nf.strands, tuple(letters))
    return normal_form(conjugate(normal_form_word(nf), inverse_word(c)))


def _signed_variants(words):
    """Each word as drawn, with only positive letters, with only inverse ones."""
    for w in words:
        yield w
        yield BraidWord(w.strands, tuple(abs(k) for k in w.letters))
        yield BraidWord(w.strands, tuple(-abs(k) for k in w.letters))


def test_conjugate_nf_agrees_with_spelled_route():
    # Delta powers of both signs and parities reach the tau twist of the
    # complement; Delta itself is among the simples
    rng = random.Random(71)
    for strands, count, max_len in ((3, 6, 10), (4, 3, 8), (5, 2, 5)):
        parities = set()
        for w in _signed_variants(random_words(rng, count, strands, max_len)):
            nf = normal_form(w)
            parities.add(nf.power % 2)
            for simple in _nontrivial_simples(strands):
                expected = _spelled_conjugate(nf, perm_letters(simple))
                assert _conjugate_nf(nf, simple) == expected, (w, simple)
        assert parities == {0, 1}


def test_cycling_and_decycling_conjugate_by_their_letters():
    rng = random.Random(73)
    for strands in (3, 4, 5):
        for w in _signed_variants(random_words(rng, 10, strands, max_len=12)):
            nf = normal_form(w)
            if not nf.factors:
                continue
            for step in (_cycle, _decycle):
                moved, letters = step(nf)
                assert moved == _spelled_conjugate(nf, letters), (w, step)


# _conjugate_nf with the parity of tau^(p-1) flipped.  Under this wrong
# conjugation cycling drives sup up and inf down without end, so no form
# ever repeats; the script runs in a subprocess so that a hang fails.
BROKEN_CONJUGATION = """
from bennequin import garside as g
from bennequin.braid import family_word

def broken(nf, simple):
    complement = g._mul(g._inv(simple), g._half_twist(nf.strands))
    if nf.power % 2:
        complement = g._tau(complement)
    power, factors = g._normalize_factors(
        nf.strands, nf.power - 1, [complement, *nf.factors, simple]
    )
    return g.GarsideNormalForm(nf.strands, power, factors)

g._conjugate_nf = broken
g._summit(g.normal_form(family_word(1)))
"""


def test_summit_walk_raises_on_a_broken_conjugation():
    src = str(Path(garside.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", BROKEN_CONJUGATION],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert done.returncode == 1
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: _cycle moved (inf, sup) from"), last


def test_cycling_steps_do_not_grow_with_the_canonical_length(monkeypatch):
    # a cycling or decycling step left-weights only where the product
    # changed, so its pair operations do not depend on the factor count
    calls = []
    pair = garside._left_weight_pair

    def counted(*args):
        calls.append(args)
        return pair(*args)

    monkeypatch.setattr(garside, "_left_weight_pair", counted)
    counts = {}
    for n, length in ((2, 10), (8, 22), (18, 42)):
        summit, _ = garside._summit(normal_form(family_word(n)))
        assert summit.canonical_length == length
        for step in (_cycle, _decycle):
            calls.clear()
            step(summit)
            counts[n, step.__name__] = len(calls)
    assert counts == {
        (n, name): counts[2, name] for n in (2, 8, 18) for name in ("_cycle", "_decycle")
    }
    assert counts[2, "_cycle"] + counts[2, "_decycle"] <= 4, counts


def test_central_full_twist():
    # Delta^2 commutes with every word, checked through both product orders
    rng = random.Random(31)
    delta2 = BraidWord(3, (1, 2, 1, 1, 2, 1))
    for w in random_words(rng, 40, strands=3, max_len=8):
        left = BraidWord(3, delta2.letters + w.letters)
        right = BraidWord(3, w.letters + delta2.letters)
        assert words_equal(left, right)
        assert normal_form(left) == normal_form(right)


def test_equality_invariant_under_relation_insertion():
    rng = random.Random(41)
    relation = (1, 2, 1, -2, -1, -2)  # trivial in the group
    for w in random_words(rng, 40, strands=3, max_len=8):
        pos = rng.randint(0, len(w.letters))
        padded = BraidWord(3, w.letters[:pos] + relation + w.letters[pos:])
        assert words_equal(w, padded)
        assert words_equal(w, free_reduce(padded))


def test_words_equal_agrees_with_rewriting_oracle():
    rng = random.Random(53)
    for w1 in random_words(rng, 30, strands=3, max_len=8):
        w2 = random_words(rng, 1, strands=3, max_len=8)[0]
        assert rewriting_equal(w1, w2) == words_equal(w1, w2)


# w against Delta^2 w, equal since the full twist is central; bounded
# rewriting with a 400,000-word cap gave up on each of these pairs
FULL_TWIST = (1, 2, 1, 2, 1, 2)
CENTRAL_PAIRS = (
    (-2, -2, -1, -1, -2),
    (-1, -1, -1, -1, 2, 2),
    (-1, 2, -1, -1, 2, -1),
    (-1, -1, 2, -1, -2),
    (-2, -1, -1, -1, -2),
    (-2, -2, -2, -2, -1, 2),
    (-1, -1, -1, -2, -1, -1),
    (-1, -2, -2, -1, -2, -1),
)


def sl2_equal(w1, w2):
    return exponent_sum(w1) == exponent_sum(w2) and sl2_image(w1) == sl2_image(w2)


def test_burau_matrix_and_normal_forms_decide_the_same_pairs():
    # the reduced Burau representation is faithful on 3 strands, and so is
    # the SL(2, Z) image together with the exponent sum
    pairs = [
        (BraidWord(3, w + FULL_TWIST), BraidWord(3, FULL_TWIST + w))
        for w in CENTRAL_PAIRS
    ]
    for w1, w2 in pairs:
        assert words_equal(w1, w2)
        assert reduced_burau(w1) == reduced_burau(w2)
        assert sl2_equal(w1, w2)
    # half the pairs are equal by construction, the rest are drawn freely
    pairs = word_pairs(random.Random(71), 3000, max_len=14)
    equal = 0
    for w1, w2 in pairs:
        same = words_equal(w1, w2)
        assert same == (reduced_burau(w1) == reduced_burau(w2)), (w1, w2)
        assert same == sl2_equal(w1, w2), (w1, w2)
        equal += same
    assert 1500 <= equal < 3000


def test_central_powers_of_delta_are_not_the_empty_word():
    # Delta^4 generates the kernel of the SL(2, Z) image, so only the
    # exponent sum, 12 here, tells it from the empty word
    empty = BraidWord(3, ())
    delta2, delta4 = BraidWord(3, FULL_TWIST), BraidWord(3, FULL_TWIST * 2)
    assert sl2_image(delta4) == sl2_image(empty)
    assert sl2_image(delta2) != sl2_image(empty)
    for power in (delta2, delta4):
        assert not words_equal(power, empty)
        assert reduced_burau(power) != reduced_burau(empty)
        assert not verify_certificate(power, empty, empty)
        assert not verify_certificate(empty, power, empty)
        assert not verify_certificate(power, empty, BraidWord(3, (1, -2)))


def test_family_conjugacy_certificates():
    for n in (1, 2, 3):
        w, u = family_word(n), type1_word(1, ((1, 2 * n + 5),))
        cert = conjugacy_decide(w, u)
        assert cert is not None
        assert verify_certificate(w, u, cert.conjugator)


def test_a_given_conjugator_is_tried_before_the_summit_search(monkeypatch):
    w, u = family_word(3), type1_word(1, ((1, 11),))
    searched = conjugacy_decide(w, u).conjugator
    wrong = BraidWord(3, (1,))
    assert conjugacy_decide(w, u, conjugator=wrong).conjugator == searched

    def refuse(nf):
        raise AssertionError("searched the summit of a verified pair")

    monkeypatch.setattr(garside, "_summit", refuse)
    assert conjugacy_decide(w, u, conjugator=searched).conjugator == searched


def test_exponent_sum_fast_reject():
    assert conjugacy_decide(BraidWord(2, (1, 1, 1)), BraidWord(2, (-1, -1, -1))) is None


def test_equal_words_get_empty_conjugator():
    w = BraidWord(3, (1, 2, 1))
    cert = conjugacy_decide(w, BraidWord(3, (2, 1, 2)))
    assert cert is not None
    assert cert.conjugator.letters == ()


def test_random_conjugate_pairs_certified():
    rng = random.Random(67)
    for _ in range(50):
        w = random_words(rng, 1, strands=3, max_len=10)[0]
        c = random_words(rng, 1, strands=3, max_len=6)[0]
        u = free_reduce(conjugate(w, c))
        cert = conjugacy_decide(w, u)
        assert cert is not None
        assert verify_certificate(w, u, cert.conjugator)


def test_non_conjugate_same_exponent_sum():
    # both have exponent sum 6 but different conjugacy classes
    full_twist = BraidWord(3, (1, 2, 1, 2, 1, 2))
    power = BraidWord(3, (1, 1, 1, 1, 1, 1))
    assert conjugacy_decide(full_twist, power) is None


def test_conjugacy_strand_mismatch():
    with pytest.raises(ValueError):
        conjugacy_decide(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_conjugacy_refuses_more_strands_than_its_cap(monkeypatch):
    def listed(n):
        raise AssertionError(f"listed the simple elements of {n} strands")

    monkeypatch.setattr(garside, "_nontrivial_simples", listed)
    strands = MAX_CONJUGACY_STRANDS + 1
    first, last = BraidWord(strands, (1,)), BraidWord(strands, (strands - 1,))
    with pytest.raises(ValueError, match="at most 8 strands"):
        conjugacy_decide(first, last)


def test_verify_certificate_basics():
    w = BraidWord(3, (1, 2))
    empty = BraidWord(3, ())
    assert verify_certificate(w, w, empty)
    assert not verify_certificate(BraidWord(3, (1,)), BraidWord(3, (2,)), empty)


def test_verify_certificate_agrees_with_the_word_problem(monkeypatch):
    # w2 = c w1 c^-1 exactly when w2 c = c w1; up to 3 strands the check
    # compares exponent sums and SL(2, Z) images, from 4 on normal forms.
    # A true w2 is spelled through its normal form, so it is equal to
    # c w1 c^-1 in the braid group but not only by free cancellation.
    rng = random.Random(83)
    triples = [(BraidWord(1), BraidWord(1), BraidWord(1))]
    for strands, count in ((2, 30), (3, 150), (4, 8)):
        for w1, c in zip(*(random_words(rng, count, strands, 8) for _ in "wc")):
            w2 = normal_form_word(normal_form(conjugate(w1, c)))
            triples.append((w1, w2, c))
            if not w2.letters:
                continue
            i = rng.randrange(len(w2.letters))
            k = w2.letters[i]
            moved = [-k]  # sign flipped
            if strands > 2:  # index moved, exponent sum kept
                moved.append((abs(k) % (strands - 1) + 1) * (1 if k > 0 else -1))
            for letter in moved:
                letters = w2.letters[:i] + (letter,) + w2.letters[i + 1 :]
                triples.append((w1, BraidWord(strands, letters), c))
    expected = [words_equal(concat(w2, c), concat(c, w1)) for w1, w2, c in triples]
    assert 180 < sum(expected) < len(expected) - 250

    def refuse(*args):
        raise AssertionError("built a normal form or Burau matrix up to 3 strands")

    with monkeypatch.context() as patch:
        patch.setattr(garside, "normal_form", refuse)
        patch.setattr(garside, "words_equal", refuse)
        patch.setattr(alexander, "_burau_columns", refuse)
        for (w1, w2, c), want in zip(triples, expected):
            if w1.strands <= 3:
                assert verify_certificate(w1, w2, c) == want, (w1, w2, c)
    for (w1, w2, c), want in zip(triples, expected):
        if w1.strands == 4:
            assert verify_certificate(w1, w2, c) == want, (w1, w2, c)


def test_verify_certificate_on_long_3_strand_runs():
    # each run is one step of the SL(2, Z) product
    w = BraidWord(3, (1,) * 2000 + (-2,) * 2000)
    c = BraidWord(3, (2, 1))
    w2 = conjugate(w, c)
    i = len(w2.letters) // 3
    flipped = w2.letters[:i] + (-w2.letters[i],) + w2.letters[i + 1 :]
    start = time.perf_counter()
    assert verify_certificate(w, w2, c)
    assert not verify_certificate(w, BraidWord(3, flipped), c)
    assert time.perf_counter() - start < 2


def test_verify_certificate_on_a_long_random_3_strand_word():
    # random letters make short runs, so about one step per letter, and the
    # integers grow with the length; Burau matrices took over 1 s at 2,000
    rng = random.Random(89)
    w = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(10_000)))
    c = BraidWord(3, (2, -1, 2))
    w2 = conjugate(w, c)
    # sigma_1 <-> sigma_2 at one letter keeps the exponent sum; x a y = x b y
    # only if a = b, so the product is another braid
    i = len(w2.letters) // 2
    k = w2.letters[i]
    swapped = (3 - abs(k)) * (1 if k > 0 else -1)
    moved = w2.letters[:i] + (swapped,) + w2.letters[i + 1 :]
    start = time.perf_counter()
    assert verify_certificate(w, w2, c)
    assert not verify_certificate(w, BraidWord(3, moved), c)
    assert time.perf_counter() - start < 1


def test_node_cap_raises_distinct_error():
    w, u = family_word(1), type1_word(1, ((1, 7),))
    with pytest.raises(SearchBudgetExceeded):
        conjugacy_decide(w, u, node_cap=0)
