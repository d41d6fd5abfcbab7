"""Properties of the Alexander polynomial on generated knot closures.

Each word is completed to a knot with every generator used
(:func:`strategies.knot_words`), so the Seifert route applies to every word.
"""

from hypothesis import given, settings

from bennequin.alexander import alexander_from_seifert, burau_alexander
from bennequin.quadform import congruence_diagonalize
from bennequin.seifert import seifert_matrix
from strategies import knot_words

# fixed examples and no example database, so every run checks the same words
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def seifert_rows(w):
    return [list(row) for row in seifert_matrix(w).matrix]


@PROPERTY
@given(knot_words())
def test_burau_and_seifert_routes_agree(w):
    assert burau_alexander(w) == alexander_from_seifert(seifert_rows(w))


@PROPERTY
@given(knot_words())
def test_symmetric_with_unit_value_at_one(w):
    delta = burau_alexander(w)
    assert delta.as_dict() == {-e: c for e, c in delta.coeffs}
    assert delta.eval_at(1) == 1


@PROPERTY
@given(knot_words())
def test_value_at_minus_one_is_the_odd_determinant(w):
    v = seifert_rows(w)
    size = len(v)
    plus = [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]
    at_minus_one = abs(burau_alexander(w).eval_at(-1))
    assert at_minus_one % 2 == 1
    assert at_minus_one == abs(congruence_diagonalize(plus).determinant)
