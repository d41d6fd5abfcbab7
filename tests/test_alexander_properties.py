"""Properties of the Alexander polynomial on generated knot closures.

Each word is drawn at random and then completed to a knot: a letter
sigma_i^{+-1} is appended wherever it merges two closure components, and
sigma_i^{+-2} wherever generator i is still unused, so the Seifert route
applies to every word.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bennequin.alexander import alexander_from_seifert, burau_alexander
from bennequin.braid import BraidWord, closure_components
from bennequin.quadform import congruence_diagonalize
from bennequin.seifert import seifert_matrix

# fixed examples and no example database, so every run checks the same words
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)
SIGN = st.sampled_from((1, -1))


@st.composite
def knot_words(draw):
    strands = draw(st.integers(1, 6))
    if strands == 1:
        return BraidWord(1, ())
    letter = st.builds(lambda s, i: s * i, SIGN, st.integers(1, strands - 1))
    letters = draw(st.lists(letter, min_size=strands, max_size=14))
    for i in range(1, strands):
        sign = draw(SIGN)
        before = closure_components(BraidWord(strands, tuple(letters)))
        if closure_components(BraidWord(strands, (*letters, i))) < before:
            letters.append(sign * i)
        elif i not in map(abs, letters):
            letters += [sign * i, sign * i]
    return BraidWord(strands, tuple(letters))


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
    assert delta.reverse() == delta
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
