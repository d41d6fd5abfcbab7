"""The dict Laurent kernel and the two Alexander polynomial routes."""

import random
from fractions import Fraction

import pytest

from bennequin import alexander
from bennequin.alexander import (
    LaurentPoly,
    _exact_div,
    alexander_from_seifert,
    burau_alexander,
    knot_determinant,
    laurent_det,
    normalize,
)
from bennequin.braid import BraidWord, closure_components, family_word
from bennequin.quadform import congruence_diagonalize
from bennequin.report import word_report
from bennequin.seifert import MAX_RANK, seifert_matrix, twist_chain_matrix
from oracles import (
    burau_product,
    cofactor_laurent_det,
    poly_mul,
    random_knot_words,
    random_words,
    reduced_burau,
)

ONE = {0: 1}
T = {1: 1}
T_MINUS_ONE = {1: 1, 0: -1}
TREFOIL_POLY = LaurentPoly.from_dict({1: 1, 0: -1, -1: 1})


def test_product_of_linear_terms():
    # the determinant of a diagonal matrix is the product of its entries
    right = {-1: 1, 0: -1}
    product = laurent_det([[T_MINUS_ONE, {}], [{}, right]])
    assert product == {0: 2, 1: -1, -1: -1}


def test_knot_determinant_is_the_value_at_minus_one():
    assert knot_determinant(TREFOIL_POLY) == 3
    assert knot_determinant(LaurentPoly.from_dict({0: 1})) == 1
    # -t^3 + 2t^2 - t + 5 at -1 is 1 + 2 + 1 + 5
    assert knot_determinant(LaurentPoly.from_dict({3: -1, 2: 2, 1: -1, 0: 5})) == 9
    assert knot_determinant(LaurentPoly.from_dict({-1: 2, 0: -3})) == 5


def test_one_by_one_determinant():
    p = {2: 3, 0: -1}
    assert laurent_det([[p]]) == p


def test_exact_division():
    rng = random.Random(5)
    for _ in range(40):
        p = {rng.randint(-4, 4): rng.randint(-5, 5) for _ in range(rng.randint(1, 4))}
        q = {rng.randint(-3, 3): rng.choice((-2, -1, 1, 2)) for _ in range(rng.randint(1, 3))}
        p = {e: c for e, c in p.items() if c}
        if not p:
            continue
        assert _exact_div(poly_mul(p, q), q) == p
    with pytest.raises(ValueError):
        _exact_div({0: 1, 1: 1}, {0: 2})
    with pytest.raises(ValueError):  # unit divisor, division still inexact
        _exact_div({0: 1}, {0: 1, 1: 1})


def test_determinant_against_cofactor_oracle():
    rng = random.Random(29)
    mats = [
        [
            [
                {
                    e: c
                    for e, c in {
                        rng.randint(-1, 1): rng.randint(-2, 2)
                        for _ in range(rng.randint(0, 2))
                    }.items()
                    if c
                }
                for _ in range(size)
            ]
            for _ in range(size)
        ]
        for size in range(1, 9)
        for _ in range(4)
    ]
    zero, a, b = {}, T_MINUS_ONE, {-1: 2, 1: 3}
    mats.append([[zero, a, b], [b, ONE, a], [a, T, zero]])  # zero (0,0): row swap
    t_row = [poly_mul({1: 1}, p) for p in (a, b, T)]
    mats.append([[a, b, T], t_row, [ONE, a, zero]])  # singular
    for mat in mats:
        assert laurent_det(mat) == cofactor_laurent_det(mat)
    assert laurent_det(mats[-1]) == {}


def test_determinant_against_sympy():
    import sympy
    from sympy.polys.matrices import DomainMatrix

    ring, t = sympy.ring("t", sympy.ZZ)
    rng = random.Random(83)

    def entry():  # zero often, so that elimination swaps rows
        if rng.random() < 0.4:
            return {}
        coeffs = {e: rng.choice((0, 0, -2, -1, 1, 3)) for e in range(-2, 3)}
        return {e: c for e, c in coeffs.items() if c}

    for size in range(1, 5):
        for _ in range(12):
            mat = [[entry() for _ in range(size)] for _ in range(size)]
            # each entry times t^2 is a polynomial, and the determinant gains
            # a factor t^(2 size)
            shifted = [
                [sum((c * t ** (e + 2) for e, c in p.items()), ring.zero) for p in row]
                for row in mat
            ]
            expected = DomainMatrix(shifted, (size, size), ring.to_domain()).det()
            got = {e + 2 * size: c for e, c in laurent_det(mat).items()}
            assert got == {k: int(c) for (k,), c in expected.items()}, mat


def test_alexander_from_seifert_anchor():
    # det(V - tV^T) for V = [[-1,1],[0,-1]] is t^2 - t + 1, centered t - 1 + 1/t
    assert alexander_from_seifert([[-1, 1], [0, -1]]) == TREFOIL_POLY


def test_alexander_of_empty_matrix():
    assert alexander_from_seifert([]) == LaurentPoly.from_dict(ONE)


def test_burau_trefoil():
    assert burau_alexander(BraidWord(2, (1, 1, 1))) == TREFOIL_POLY


def test_burau_unknot():
    assert burau_alexander(BraidWord(1, ())) == LaurentPoly.from_dict(ONE)


def test_burau_rejects_links():
    with pytest.raises(ValueError, match="component"):
        burau_alexander(BraidWord(2, (1, 1)))


def test_burau_rank_cap_is_checked_before_anything_is_built(monkeypatch):
    # sigma_1^c on 2 strands is a knot of rank c - 1 for odd c
    at_cap = burau_alexander(BraidWord(2, (1,) * (MAX_RANK + 1)))
    assert len(at_cap.coeffs) == MAX_RANK + 1

    def refuse(w):
        raise AssertionError("the Burau matrix was built past the rank cap")

    monkeypatch.setattr(alexander, "_burau_columns", refuse)
    with pytest.raises(ValueError, match=f"rank {MAX_RANK + 2} "):
        burau_alexander(BraidWord(2, (1,) * (MAX_RANK + 3)))


def test_burau_letter_matrices_invert():
    for strands in (2, 3, 4):
        identity = [
            [ONE if i == j else {} for j in range(strands - 1)]
            for i in range(strands - 1)
        ]
        for gen in range(1, strands):
            left = reduced_burau(BraidWord(strands, (gen, -gen)))
            assert left == identity
            right = reduced_burau(BraidWord(strands, (-gen, gen)))
            assert right == identity


def test_burau_respects_braid_relation():
    assert reduced_burau(BraidWord(3, (1, 2, 1))) == reduced_burau(
        BraidWord(3, (2, 1, 2))
    )


def test_reduced_burau_matches_the_letter_matrix_product():
    rng = random.Random(61)
    # one and two strands (dim 0 and 1): every letter there is the fold
    words = [BraidWord(1, ()), BraidWord(2, ())] + random_words(rng, 8, 2, 12)
    for strands in range(3, 8):
        words.append(BraidWord(strands, ()))
        for _ in range(3):  # the fold alone
            last = strands - 1
            letters = tuple(rng.choice((last, -last)) for _ in range(rng.randint(1, 12)))
            words.append(BraidWord(strands, letters))
        words += random_words(rng, 4, strands, 80)
    for w in words:
        assert reduced_burau(w) == burau_product(w), w


def test_reduced_burau_of_a_long_2_strand_run():
    # the fold alone: sigma_1^{+-m} is the 1 x 1 matrix (-t)^{+-m}
    m = 999
    for k in (1, -1):
        assert reduced_burau(BraidWord(2, (k,) * m)) == [[{k * m: -1}]]


def test_family_words_match_seifert_route():
    for n in range(1, 7):
        w = family_word(n)
        v = [list(row) for row in seifert_matrix(w).matrix]
        assert alexander_from_seifert(v) == burau_alexander(w)


def test_normalized_polynomials_palindromic_with_unit_value():
    rng = random.Random(43)
    for w in random_knot_words(rng, 30):
        poly = dict(burau_alexander(w).coeffs)
        assert poly == {-e: c for e, c in poly.items()}
        assert sum(poly.values()) == 1  # sign normalization picks +1 at t = 1
        assert knot_determinant(burau_alexander(w)) % 2 == 1


def test_normalize_is_unit_invariant():
    rng = random.Random(47)
    for w in random_knot_words(rng, 15):
        poly = dict(burau_alexander(w).coeffs)
        for shift in (-3, 2):
            assert normalize({e + shift: c for e, c in poly.items()}) == poly
            assert normalize({e + shift: -c for e, c in poly.items()}) == poly


def test_knot_determinants():
    assert word_report(BraidWord(2, (1, 1, 1))).determinant == 3
    assert word_report(BraidWord(1, ())).determinant == 1
    pivot_product = Fraction(1)
    for pivot in congruence_diagonalize(twist_chain_matrix(1)).diagonal:
        pivot_product *= pivot
    assert abs(pivot_product) == 11
    assert word_report(family_word(1)).determinant == 11


def test_burau_alexander_builds_few_laurent_polys(monkeypatch):
    # the kernel runs on dicts: one LaurentPoly for its result, however long
    # the word
    built = []
    real_init = LaurentPoly.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    rng = random.Random(67)
    counts = {}
    for length in (20, 200):
        while True:
            letters = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length))
            w = BraidWord(5, letters)
            if closure_components(w) == 1:
                break
        with monkeypatch.context() as patch:
            patch.setattr(LaurentPoly, "__init__", counting_init)
            built.clear()
            burau_alexander(w)
        counts[length] = len(built)
    assert max(counts.values()) == 1, counts
