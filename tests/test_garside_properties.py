"""Properties of the Garside core on generated words of 2 to 6 strands.

Every normal form the core returns is checked against
:func:`oracles.normal_form_defects` and against the full-pass
left-weighting of :func:`oracles.left_weight_factors`, which share no code
with :mod:`bennequin.garside`.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from bennequin.braid import BraidWord
from bennequin.garside import (
    _conjugate_nf,
    _cycle,
    _decycle,
    _nontrivial_simples,
    _normalize_factors,
    normal_form,
    words_equal,
)
from oracles import (
    half_twist_conjugate,
    left_weight_factors,
    normal_form_defects,
    perm_inverse,
    rewriting_equal,
    word_factors,
)
from strategies import letters, words

# fixed examples and no example database, so every run checks the same words
PROPERTY = settings(derandomize=True, database=None, max_examples=60, deadline=None)

STRANDS = st.integers(2, 6)


def strand_words(strands=STRANDS, max_size=30):
    return strands.flatmap(lambda n: words(n, max_size))


def _oracle_conjugate(nf, simple):
    """Normal form of simple^-1 * nf * simple by the full-pass oracle."""
    n = nf.strands
    delta = tuple(range(n - 1, -1, -1))
    complement = tuple(delta[v] for v in perm_inverse(simple))
    complement = half_twist_conjugate(complement, nf.power - 1)
    return left_weight_factors(n, nf.power - 1, [complement, *nf.factors, simple])


@PROPERTY
@given(strand_words())
def test_normal_form_is_left_weighted_and_agrees_with_the_oracle(w):
    nf = normal_form(w)
    assert normal_form_defects(nf) == []
    assert (nf.power, nf.factors) == left_weight_factors(w.strands, *word_factors(w))


@settings(PROPERTY, max_examples=30)
@given(strand_words(st.integers(2, 5), max_size=16))
def test_conjugation_by_every_simple(w):
    nf = normal_form(w)
    for simple in _nontrivial_simples(w.strands):
        moved = _conjugate_nf(nf, simple)
        assert normal_form_defects(moved) == [], simple
        assert (moved.power, moved.factors) == _oracle_conjugate(nf, simple), simple


# 719 simples on six strands, so fewer words
@settings(PROPERTY, max_examples=4)
@given(words(6, 16))
def test_conjugation_by_every_simple_on_six_strands(w):
    nf = normal_form(w)
    for simple in _nontrivial_simples(w.strands):
        assert normal_form_defects(_conjugate_nf(nf, simple)) == [], simple


@PROPERTY
@given(strand_words())
def test_cycling_and_decycling(w):
    nf = normal_form(w)
    if not nf.factors:
        return
    cycled, _ = _cycle(nf)
    assert normal_form_defects(cycled) == []
    first = half_twist_conjugate(nf.factors[0], nf.power)
    assert (cycled.power, cycled.factors) == _oracle_conjugate(nf, first)
    decycled, _ = _decycle(nf)
    assert normal_form_defects(decycled) == []
    last = half_twist_conjugate(nf.factors[-1], nf.power)
    expected = left_weight_factors(w.strands, nf.power, [last, *nf.factors[:-1]])
    assert (decycled.power, decycled.factors) == expected


@st.composite
def factor_lists(draw):
    """Delta^p times any simples, the identity and Delta among them."""
    n = draw(STRANDS)
    simples = st.permutations(range(n)).map(tuple)
    special = st.sampled_from((tuple(range(n)), tuple(range(n - 1, -1, -1))))
    factors = draw(st.lists(st.one_of(simples, special), max_size=12))
    return n, draw(st.integers(-3, 3)), factors


@PROPERTY
@given(factor_lists())
def test_any_factor_list_agrees_with_the_oracle(case):
    assert _normalize_factors(*case) == left_weight_factors(*case)


def _sites(word, kind):
    """Positions where a relation move of the given kind applies."""
    if kind == "insert":
        return range(len(word) + 1)
    if kind == "cancel":
        return [i for i in range(len(word) - 1) if word[i] == -word[i + 1]]
    if kind == "commute":
        return [
            i for i in range(len(word) - 1) if abs(abs(word[i]) - abs(word[i + 1])) >= 2
        ]
    return [  # braid relation a b a -> b a b, adjacent generators of one sign
        i
        for i in range(len(word) - 2)
        if word[i] == word[i + 2]
        and abs(abs(word[i]) - abs(word[i + 1])) == 1
        and (word[i] > 0) == (word[i + 1] > 0)
    ]


def _move(word, kind, i, letter):
    if kind == "insert":
        return word[:i] + (letter, -letter) + word[i:]
    if kind == "cancel":
        return word[:i] + word[i + 2 :]
    if kind == "commute":
        return word[:i] + (word[i + 1], word[i]) + word[i + 2 :]
    return word[:i] + (word[i + 1], word[i], word[i + 1]) + word[i + 3 :]


@st.composite
def relation_words(draw):
    """A word of single letters and braid triples a b a, to make room for
    every move."""
    n = draw(STRANDS)
    letter = letters(n).map(lambda k: (k,))
    triple = st.builds(
        lambda i, up, sign: (sign * i, sign * (i + 1 if up else i - 1), sign * i),
        st.integers(1, n - 1),
        st.booleans(),
        st.sampled_from((1, -1)),
    ).filter(lambda t: 0 < abs(t[1]) < n)
    blocks = draw(st.lists(st.one_of(letter, triple) if n > 2 else letter, max_size=10))
    return n, tuple(k for block in blocks for k in block)


def _random_moves(data, n, word):
    for _ in range(data.draw(st.integers(1, 8))):
        kind = data.draw(st.sampled_from(("insert", "cancel", "commute", "braid")))
        sites = _sites(word, kind)
        if sites:
            i = data.draw(st.sampled_from(sites))
            word = _move(word, kind, i, data.draw(letters(n)))
    return word


@PROPERTY
@given(relation_words(), st.data())
def test_relation_moves_keep_the_normal_form(case, data):
    n, word = case
    moved = _random_moves(data, n, word)
    assert normal_form(BraidWord(n, moved)) == normal_form(BraidWord(n, word)), moved


@PROPERTY
@given(st.integers(2, 4).flatmap(lambda n: words(n, 5)), st.data())
def test_agrees_with_rewriting_on_short_words(w1, data):
    # half the pairs are equal by construction, the rest are drawn freely
    if data.draw(st.booleans()):
        w2 = BraidWord(w1.strands, _random_moves(data, w1.strands, w1.letters))
    else:
        w2 = data.draw(words(w1.strands, 5))
    assert words_equal(w1, w2) == rewriting_equal(w1, w2)
