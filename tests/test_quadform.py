"""Exact congruence diagonalization, its pivots, and knot signatures."""

import random
import sys
from dataclasses import astuple
from fractions import Fraction

import pytest

from bennequin import quadform
from bennequin.braid import BraidWord, family_word
from bennequin.quadform import congruence_diagonalize, knot_signature
from bennequin.seifert import seifert_matrix, twist_chain_matrix
from bennequin.threebraid import type1_word
from oracles import (
    congruence_transform,
    conjugate,
    cyclic_shift,
    dense_congruence,
    det_fraction,
    float_signature,
    random_knot_words,
    random_symmetric,
    random_unimodular,
)

FIRST_PIVOTS = (
    Fraction(-4),
    Fraction(-7, 4),
    Fraction(8, 7),
    Fraction(9, 8),
    Fraction(10, 9),
    Fraction(11, 10),
)


def test_twist_chain_base_diagnosis():
    diag = congruence_diagonalize(twist_chain_matrix(1))
    assert diag.signature == 2
    assert diag.nullity == 0
    assert diag.determinant == 11


def test_twist_chain_base_pivots_exact():
    assert congruence_diagonalize(twist_chain_matrix(1)).diagonal == FIRST_PIVOTS


def test_twist_chain_last_pivot_pattern():
    for k in range(1, 31):
        pivots = congruence_diagonalize(twist_chain_matrix(k)).diagonal
        assert pivots[:6] == FIRST_PIVOTS
        assert pivots[-1] == Fraction(k + 10, k + 9)


def test_twist_chain_signatures_grow_by_one():
    for k in range(1, 13):
        assert congruence_diagonalize(twist_chain_matrix(k)).signature == k + 1


def test_sparse_congruence_matches_the_dense_one_on_knot_forms():
    forms = [twist_chain_matrix(k) for k in range(1, 80)]
    for w in random_knot_words(random.Random(43), 100, max_strands=7, max_len=40):
        v = seifert_matrix(w).matrix
        size = len(v)
        forms.append([[v[i][j] + v[j][i] for j in range(size)] for i in range(size)])
    for mat in forms:
        assert astuple(congruence_diagonalize(mat)) == dense_congruence(mat)


def _calls(fn, *args) -> int:
    """Python and C calls made by fn(*args), counted by a profile hook."""
    calls = 0

    def hook(frame, event, arg):
        nonlocal calls
        calls += event in ("call", "c_call")

    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls - 1  # the c_call of sys.setprofile(None)


def test_elimination_follows_the_nonzero_entries():
    # a twist chain is banded past its first six rows, so a sparse
    # elimination grows linearly with k; a dense one updates the whole
    # trailing block at every step, and triples when k doubles
    calls = {
        k: _calls(quadform._pivots, quadform._integer_form(twist_chain_matrix(k))[1])
        for k in (80, 160)
    }
    assert calls[160] <= 2.2 * calls[80], calls


def test_zero_matrix():
    diag = congruence_diagonalize([[0] * 3 for _ in range(3)])
    assert diag.diagonal == (0, 0, 0)
    assert diag.signature == 0
    assert diag.nullity == 3
    assert diag.determinant == 0


def test_empty_matrix():
    diag = congruence_diagonalize([])
    assert diag.diagonal == ()
    assert (diag.signature, diag.nullity, diag.determinant) == (0, 0, 1)


def test_simple_diagonal():
    assert congruence_diagonalize([[1, 0], [0, -1]]).diagonal == (1, -1)
    assert congruence_diagonalize([[1, 0], [0, -1]]).signature == 0


def test_zero_pivot_repair():
    diag = congruence_diagonalize([[0, 1], [1, 0]])
    assert diag.nullity == 0
    assert diag.signature == 0
    assert diag.determinant == -1


def test_non_symmetric_rejected():
    with pytest.raises(ValueError, match="symmetric"):
        congruence_diagonalize([[0, 1], [2, 0]])


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        congruence_diagonalize([[1, 2]])


def test_congruence_invariance_random():
    rng = random.Random(7)
    for _ in range(40):
        size = rng.randint(1, 8)
        mat = random_symmetric(rng, size)
        moved = congruence_transform(mat, random_unimodular(rng, size))
        a = congruence_diagonalize(mat)
        b = congruence_diagonalize(moved)
        assert (a.signature, a.nullity) == (b.signature, b.nullity)


def test_determinant_matches_independent_elimination():
    rng = random.Random(13)
    for _ in range(40):
        size = rng.randint(1, 7)
        mat = random_symmetric(rng, size)
        assert congruence_diagonalize(mat).determinant == det_fraction(mat)


def test_signature_matches_float_oracle():
    rng = random.Random(19)
    checked = 0
    while checked < 30:
        mat = random_symmetric(rng, rng.randint(1, 7))
        reference = float_signature(mat)
        if reference is None:
            continue
        assert congruence_diagonalize(mat).signature == reference
        checked += 1


def test_jacobi_pivot_signs_reproduce_signature():
    # with every leading principal minor D_k nonzero, the k-th pivot is
    # D_k / D_(k-1) (Jacobi), and the pivot signs count the signature
    rng = random.Random(29)
    checked = 0
    while checked < 200:
        mat = random_symmetric(rng, rng.randint(1, 8))
        size = len(mat)
        minors = [det_fraction([row[:k] for row in mat[:k]]) for k in range(size + 1)]
        if 0 in minors:
            continue
        pivots = tuple(b / a for a, b in zip(minors, minors[1:]))
        diag = congruence_diagonalize(mat)
        assert diag.diagonal == pivots
        assert diag.signature == sum(1 if p > 0 else -1 for p in pivots)
        checked += 1


def test_knot_signature_anchors():
    assert knot_signature(BraidWord(2, (1, 1, 1))) == -2
    assert knot_signature(family_word(1)) == 2
    assert knot_signature(type1_word(1, ((1, 7),))) == 2


def test_knot_signature_is_conjugacy_invariant():
    rng = random.Random(37)
    for w in random_knot_words(rng, 15, max_strands=3, max_len=10):
        base = knot_signature(w)
        assert knot_signature(cyclic_shift(w, rng.randint(0, 8))) == base
        c = BraidWord(3, tuple(rng.choice((1, -1, 2, -2)) for _ in range(4)))
        if w.strands == 3:
            assert knot_signature(conjugate(w, c)) == base
