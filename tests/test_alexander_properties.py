"""Properties of the Alexander polynomial and its Laurent kernel on generated inputs.

Each knot word is completed to a knot with every generator used
(:func:`strategies.knot_words`), so the Seifert route applies to every word.
The kernel's determinant, Burau product and exact division are checked
against the plain dict oracles of :mod:`oracles`.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bennequin.alexander import (
    RUN,
    LaurentPoly,
    _div_one_plus_t,
    _exact_div,
    alexander_from_seifert,
    burau_alexander,
    knot_determinant,
    laurent_det,
    reduced_burau,
)
from bennequin.braid import BraidWord
from bennequin.quadform import congruence_diagonalize
from bennequin.seifert import seifert_matrix
from oracles import burau_product, cofactor_laurent_det, poly_add, poly_mul
from strategies import SIGN, knot_words, letters, run_words

# fixed examples and no example database, so every run checks the same words
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

POLYS = st.dictionaries(st.integers(-2, 2), st.integers(-3, 3), max_size=3).map(
    lambda d: {e: c for e, c in d.items() if c}
)
NONZERO_POLYS = POLYS.filter(bool)


def seifert_rows(w):
    return [list(row) for row in seifert_matrix(w).matrix]


def assert_canonical(p):
    """Sorted, distinct exponents and no zero coefficient."""
    assert isinstance(p, LaurentPoly)
    exponents = [e for e, _ in p.coeffs]
    assert exponents == sorted(set(exponents))
    assert all(c != 0 for _, c in p.coeffs)


def assert_canonical_dict(p):
    """No zero coefficient."""
    assert isinstance(p, dict)
    assert all(c != 0 for c in p.values())


def combination(draw, rows, width):
    """A random Laurent combination of the rows' first ``width`` entries."""
    out = [{} for _ in range(width)]
    for row in rows:
        m = draw(POLYS)
        out = [poly_add(h, poly_mul(m, x)) for h, x in zip(out, row)]
    return out


@st.composite
def laurent_matrices(draw):
    """Square matrices of dict polynomials up to 6x6.

    ``swap``: row k's first k + 1 entries combine the rows above, so the
    leading minor of order k + 1 vanishes and elimination needs a row swap at
    step k (at k = 0 the pivot entry is simply zero).  ``singular``: one row
    combines the others.
    """
    size = draw(st.integers(1, 6))
    mat = [[draw(POLYS) for _ in range(size)] for _ in range(size)]
    shape = draw(st.sampled_from(("random", "swap", "singular")))
    if shape == "swap" and size > 1:
        k = draw(st.integers(0, size - 2))
        mat[k][: k + 1] = combination(draw, mat[:k], k + 1)
    elif shape == "singular":
        k = draw(st.integers(0, size - 1))
        mat[k] = combination(draw, mat[:k] + mat[k + 1 :], size)
    return mat


@st.composite
def burau_words(draw):
    """Words of 1 to 7 strands; some use only sigma_{n-1}^{+-1}, the fold."""
    strands = draw(st.integers(1, 7))
    if strands == 1:
        return BraidWord(1, ())
    letter = letters(strands)
    if draw(st.booleans()):
        letter = SIGN.map(lambda s: s * (strands - 1))
    return BraidWord(strands, tuple(draw(st.lists(letter, max_size=16))))


@PROPERTY
@given(laurent_matrices())
def test_determinant_matches_cofactor_expansion(mat):
    det = laurent_det(mat)
    assert_canonical_dict(det)
    assert det == cofactor_laurent_det(mat)


@PROPERTY
@given(burau_words())
def test_burau_product_on_generated_words(w):
    burau = reduced_burau(w)
    for row in burau:
        for entry in row:
            assert_canonical_dict(entry)
    assert burau == burau_product(w)


@PROPERTY
@example(BraidWord(2, (1,) * (RUN - 1) + (-1,) * RUN + (1,) * (RUN + 1)))
@given(run_words())
def test_burau_runs_match_the_letter_matrix_product(w):
    # runs of RUN letters and more take _burau_columns' closed form
    assert reduced_burau(w) == burau_product(w)


@PROPERTY
@given(run_words(strands=st.just(3), max_runs=3, knot=True))
def test_burau_runs_and_seifert_routes_agree_on_3_strands(w):
    # on 3 strands burau_alexander reads det(I - B) off the trace
    assert burau_alexander(w) == alexander_from_seifert(seifert_rows(w))


@PROPERTY
@given(POLYS, NONZERO_POLYS, st.integers(-3, 3), st.sampled_from((-2, -1, 1, 2)))
def test_exact_division_inverts_products_and_rejects_remainders(p, q, e, c):
    assert _exact_div(poly_mul(p, q), q) == p
    # a nonzero remainder r = c t^e: q divides no monomial unless q is one,
    # and then r's coefficient must not be a multiple of q's
    if len(q) == 1 and c % next(iter(q.values())) == 0:
        return
    with pytest.raises(ValueError):
        _exact_div(poly_add(poly_mul(p, q), {e: c}), q)


@PROPERTY
@given(POLYS, st.integers(-3, 3), st.sampled_from((-2, -1, 1, 2)))
def test_division_by_one_plus_t_inverts_products_and_rejects_remainders(p, e, c):
    one_plus_t = {0: 1, 1: 1}
    assert _div_one_plus_t(poly_mul(p, one_plus_t)) == p
    with pytest.raises(ValueError):
        _div_one_plus_t(poly_add(poly_mul(p, one_plus_t), {e: c}))


def test_exact_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        _exact_div({0: 1}, {})


@PROPERTY
@given(knot_words())
def test_burau_and_seifert_routes_agree(w):
    delta = burau_alexander(w)
    assert_canonical(delta)
    assert delta == alexander_from_seifert(seifert_rows(w))


@PROPERTY
@given(knot_words())
def test_symmetric_with_unit_value_at_one(w):
    delta = dict(burau_alexander(w).coeffs)
    assert delta == {-e: c for e, c in delta.items()}
    assert sum(delta.values()) == 1


@PROPERTY
@given(knot_words())
def test_value_at_minus_one_is_the_odd_determinant(w):
    v = seifert_rows(w)
    size = len(v)
    plus = [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]
    delta = burau_alexander(w).coeffs
    at_minus_one = abs(sum(-c if e % 2 else c for e, c in delta))
    assert knot_determinant(burau_alexander(w)) == at_minus_one
    assert at_minus_one % 2 == 1
    assert at_minus_one == abs(congruence_diagonalize(plus).determinant)
