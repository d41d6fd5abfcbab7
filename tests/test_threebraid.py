"""Type-1 recognition, Martin's s-invariant rule, transverse detectors."""

import random

import pytest

from bennequin.braid import (
    BraidWord,
    exponent_sum,
    family_type1_word,
    family_word,
    free_reduce,
)
from bennequin.garside import (
    ConjugacyCertificate,
    SearchBudgetExceeded,
    verify_certificate,
)
from bennequin.threebraid import (
    Type1Form,
    family_type1_form,
    s_bound_sharp,
    type1_recognize,
    type1_word,
)
from bennequin.report import word_report
from oracles import conjugate

FULL_TWIST_WORD = BraidWord(3, (1, 2, 1, 2, 1, 2))


def test_type1_word_spelling():
    w = type1_word(1, [(1, 7)])
    assert w == family_type1_word(1)
    with pytest.raises(ValueError):
        type1_word(0, [(1, 1)])
    with pytest.raises(ValueError):
        type1_word(1, [(0, 1)])
    with pytest.raises(ValueError):
        type1_word(1, [(1, -1)])


def test_family_recognition():
    for n in (1, 2, 3):
        form = type1_recognize(family_word(n))
        assert form is not None
        assert form.d == 1
        assert form.blocks == ((1, 2 * n + 5),)
        assert verify_certificate(form.word(), family_word(n), form.certificate.conjugator)
    # the search is the oracle of the closed-form conjugator
    for n in range(1, 9):
        assert type1_recognize(family_word(n)) == family_type1_form(n)
    for n in range(1, 51):
        assert family_type1_word(n) == type1_word(1, ((1, 2 * n + 5),))


def test_family_type1_form_verifies():
    # up to n = 497, the largest family index under the Seifert rank cap;
    # family_type1_form raises if its conjugator fails
    for n in [*range(1, 31), 497]:
        assert family_type1_form(n).s_invariant == -2 * n


def test_type1_conjugate_spelling_recognized_identically():
    form = type1_recognize(family_type1_word(2))
    assert form is not None
    assert (form.d, form.blocks) == (1, ((1, 9),))


def test_recognition_exponent_sum_consistency():
    for n in (1, 2, 4):
        form = type1_recognize(family_word(n))
        total = 6 * form.d + sum(b for b, _ in form.blocks) - sum(
            a for _, a in form.blocks
        )
        assert total == exponent_sum(family_word(n))


def test_full_twist_alone_is_unclassified():
    assert type1_recognize(FULL_TWIST_WORD) is None


def test_recognition_requires_three_strands():
    with pytest.raises(ValueError):
        type1_recognize(BraidWord(2, (1,)))
    with pytest.raises(ValueError):
        type1_recognize(BraidWord(4, (1, 2, 3)))


def test_candidate_cap_is_distinct_from_no_match():
    with pytest.raises(SearchBudgetExceeded):
        type1_recognize(family_word(1), candidate_cap=0)


def test_s_invariant_family():
    for n in (1, 2, 3):
        assert type1_recognize(family_word(n)).s_invariant == -2 * n


def test_form_s_invariant_reads_the_writhe_off_the_form():
    empty = ConjugacyCertificate(BraidWord(3, ()))
    for d, blocks in (
        (1, ((1, 7),)),
        (2, ((3, 1), (1, 0))),
        (1, ((2, 0), (1, 4), (5, 2))),
    ):
        form = Type1Form(d, blocks, empty)
        assert form.s_invariant == exponent_sum(form.word()) - 2
    # Martin's rule needs some a_i > 0
    assert Type1Form(1, ((2, 0), (1, 0)), empty).s_invariant is None


def test_s_invariant_unrecognized_word():
    # knot closure, but no Type-1 form inside the search bounds
    w = BraidWord(3, (1, -2))
    assert type1_recognize(w) is None


def test_s_invariant_rejects_links():
    # the report pipeline refuses a link before any Type-1 search
    with pytest.raises(ValueError, match="component"):
        word_report(BraidWord(3, (1, 1, 2, 2)))


def test_s_invariant_constant_under_conjugation():
    rng = random.Random(71)
    for n in (1, 2):
        w = family_word(n)
        assert type1_recognize(family_type1_word(n)).s_invariant == -2 * n
        for _ in range(3):
            c = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(4)))
            moved = free_reduce(conjugate(w, c))
            assert type1_recognize(moved).s_invariant == -2 * n


def test_psi_detector():
    # one sharpness test stands for psi, right-veering, theta and contact
    for n in (1, 2, 5, 8):
        assert s_bound_sharp(family_word(n), -2 * n)
    assert s_bound_sharp(BraidWord(1, ()), 0)
    assert not s_bound_sharp(BraidWord(2, (1, -1)), 0)


def test_detectors_never_fire_when_equalities_fail():
    # the detectors are tied to an exact equality
    w = family_word(1)
    assert not s_bound_sharp(w, -2 + 2)  # wrong s
