"""Seifert matrices from braid words, reference fixtures, saddle certificates."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bennequin.alexander import alexander_from_seifert, burau_alexander
from bennequin.braid import BraidWord, family_word
from bennequin.quadform import congruence_diagonalize, knot_signature
from bennequin.seifert import (
    MAX_RANK,
    DisconnectedSurfaceError,
    NotAKnotError,
    family_saddles,
    reduced_surface_seifert_matrix,
    saddle_genus,
    seifert_matrix,
    twist_chain_matrix,
)
from oracles import det_fraction, mirror, random_knot_words
from strategies import knot_words

TREFOIL = BraidWord(2, (1, 1, 1))


def symmetrize(v):
    size = len(v)
    return [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]


def test_positive_trefoil_anchor():
    data = seifert_matrix(TREFOIL)
    assert data.matrix == ((-1, 1), (0, -1))
    assert congruence_diagonalize(symmetrize(data.matrix)).signature == -2
    assert data.genus == 1


def test_mirror_trefoil_anchor():
    data = seifert_matrix(mirror(TREFOIL))
    assert data.matrix == ((1, 0), (-1, 1))
    assert congruence_diagonalize(symmetrize(data.matrix)).signature == 2


def test_family_word_surface():
    data = seifert_matrix(family_word(1))
    assert len(data.matrix) == 8  # 10 letters, 3 strands
    assert congruence_diagonalize(symmetrize(data.matrix)).signature == 2
    assert data.genus == 4


def test_rank_formula():
    rng = random.Random(3)
    for w in random_knot_words(rng, 40):
        data = seifert_matrix(w)
        rank = len(data.matrix)
        assert rank == len(w.letters) - w.strands + 1
        assert rank % 2 == 0
        assert data.genus == rank // 2


def test_unknot_word_gives_empty_matrix():
    data = seifert_matrix(BraidWord(2, (1,)))
    assert data.matrix == ()
    assert data.genus == 0


def test_multi_component_closure_rejected():
    with pytest.raises(NotAKnotError):
        seifert_matrix(BraidWord(2, (1, 1)))


def test_disconnected_surface_rejected():
    with pytest.raises(DisconnectedSurfaceError):
        seifert_matrix(BraidWord(3, (1,)))


def test_disconnected_surface_lists_ten_columns_and_a_count():
    with pytest.raises(DisconnectedSurfaceError, match=r"column\(s\) \[2, 4\] unused"):
        seifert_matrix(BraidWord(5, (1, 3)))
    with pytest.raises(DisconnectedSurfaceError) as raised:
        seifert_matrix(BraidWord(10**6, (1, -1)))
    message = str(raised.value)
    assert message.startswith("generator column(s) [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]")
    assert "and 999988 more unused" in message
    assert len(message) < 120


def test_intersection_form_unimodular():
    rng = random.Random(9)
    for w in random_knot_words(rng, 40):
        v = seifert_matrix(w).matrix
        size = len(v)
        skew = [[v[i][j] - v[j][i] for j in range(size)] for i in range(size)]
        assert det_fraction(skew) == 1


def test_signature_even_and_determinant_odd():
    rng = random.Random(15)
    for w in random_knot_words(rng, 30):
        sym = symmetrize(seifert_matrix(w).matrix)
        assert congruence_diagonalize(sym).signature % 2 == 0
        assert abs(det_fraction(sym)) % 2 == 1


def test_alexander_agrees_with_burau_route():
    rng = random.Random(21)
    for w in random_knot_words(rng, 30):
        v = [list(row) for row in seifert_matrix(w).matrix]
        assert alexander_from_seifert(v) == burau_alexander(w)


def test_genus_upper_bounds():
    assert seifert_matrix(family_word(1)).genus == 4
    assert seifert_matrix(TREFOIL).genus == 1
    assert seifert_matrix(BraidWord(2, (1,))).genus == 0


def test_family_saddles_certify_genus_n():
    # K1 = sigma_1^-5 sigma_2 sigma_1^3 sigma_2 keeps sigma_1^-4 sigma_1^3 sigma_2
    assert family_saddles(1) == (0, 5)
    # up to n = 497, the largest family index under the Seifert rank cap
    for n in range(1, 498):
        deleted = family_saddles(n)
        assert len(deleted) == 2 * n
        assert saddle_genus(family_word(n), deleted) == n
    with pytest.raises(ValueError):
        family_saddles(0)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_saddle_genus_rejects_broken_certificates(n):
    w, saddles = family_word(n), family_saddles(n)
    sigma2 = 2 * n + 3  # the first sigma_2; sigma_1^3 and the second follow
    broken = [
        # an odd count is named before anything else is looked at
        (saddles[:-1], "odd"),  # a dropped deletion
        ((*saddles, sigma2 + 1), "odd"),  # an extra sigma_1
        # the first sigma_2 kept: sigma_1^-4 sigma_2 sigma_1^3
        ((*saddles[:-1], sigma2 + 4), "exactly once"),
        # sigma_1^-4 sigma_1 sigma_2 = sigma_1^-3 sigma_2
        ((*saddles, sigma2 + 1, sigma2 + 2), "exactly once"),
        # sigma_1^-4 sigma_1^2 with sigma_2 unused
        ((*saddles, sigma2 + 1, sigma2 + 4), "exactly once"),
        ((*saddles[:-1], len(w)), "distinct"),
        ((*saddles[:-1], -1), "distinct"),
        ((*saddles[:-1], 0), "distinct"),
    ]
    for deleted, message in broken:
        with pytest.raises(ValueError, match=message):
            saddle_genus(w, deleted)
    # a weaker certificate holds: sigma_1^-2 sigma_1^3 sigma_2 = sigma_1 sigma_2
    assert saddle_genus(w, (*range(2 * n + 1), sigma2)) == n + 1


def test_saddle_genus_needs_a_knot():
    # sigma_1^2 sigma_2^2 closes to three components, and deleting one letter
    # of each square would leave sigma_1 sigma_2
    with pytest.raises(ValueError, match="component"):
        saddle_genus(BraidWord(3, (1, 1, 2, 2)), (0, 2))
    assert saddle_genus(BraidWord(1, ()), ()) == 0
    assert saddle_genus(TREFOIL, (0, 1)) == 1


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(knot_words(), st.data())
def test_accepted_saddle_certificates_respect_the_signature(w, data):
    occurrences = {}
    for i, k in enumerate(w.letters):
        occurrences.setdefault(abs(k), []).append(i)
    kept = {data.draw(st.sampled_from(places)) for places in occurrences.values()}
    deleted = [i for i in range(len(w)) if i not in kept]
    # one occurrence of each generator kept: the Seifert surface's genus
    assert saddle_genus(w, deleted) == seifert_matrix(w).genus
    # also keep pairs of inverse letters, which cancel unless a kept letter
    # lies between them
    letters = w.letters
    pairs = [(i, j) for i in deleted for j in deleted if letters[i] == -letters[j] > 0]
    extra = set()
    if pairs:
        extra = set().union(*data.draw(st.lists(st.sampled_from(pairs), max_size=2)))
    try:
        genus = saddle_genus(w, [i for i in deleted if i not in extra])
    except ValueError:
        return
    assert genus >= math.ceil(abs(knot_signature(w)) / 2)


def test_reduced_surface_matrix_entries():
    v = reduced_surface_seifert_matrix()
    assert v[0][0] == -2
    assert v[0][2] == -1
    assert v[5][5] == 1
    assert v[0] == (-2, 0, -1, 0, 0, 0)
    skew = [[v[i][j] - v[j][i] for j in range(6)] for i in range(6)]
    assert det_fraction(skew) == 1


def test_reduced_surface_alexander_matches_algorithmic_surface():
    v = [list(row) for row in reduced_surface_seifert_matrix()]
    assert alexander_from_seifert(v) == burau_alexander(family_word(1))


def test_twist_chain_base_is_symmetrized_reduced_matrix():
    v = reduced_surface_seifert_matrix()
    expected = tuple(
        tuple(v[i][j] + v[j][i] for j in range(6)) for i in range(6)
    )
    assert twist_chain_matrix(1) == expected
    assert twist_chain_matrix(1)[0] == (-4, -1, -1, 0, 0, 0)


def test_twist_chain_growth():
    m3 = twist_chain_matrix(3)
    assert len(m3) == 8
    assert m3[-1] == (0, 0, 0, 0, 0, 0, -1, 2)
    for k in range(1, 21):
        mat = twist_chain_matrix(k)
        assert len(mat) == k + 5
        for i in range(len(mat)):
            for j in range(len(mat)):
                assert mat[i][j] == mat[j][i]
    # leading block recovers the previous matrix
    for k in range(2, 8):
        mat = twist_chain_matrix(k)
        prev = twist_chain_matrix(k - 1)
        assert tuple(row[: k + 4] for row in mat[: k + 4]) == prev
    with pytest.raises(ValueError):
        twist_chain_matrix(0)


def test_twist_chain_matches_algorithmic_signature():
    for n in range(1, 7):
        sym = symmetrize(seifert_matrix(family_word(n)).matrix)
        chain = twist_chain_matrix(2 * n - 1)
        assert (
            congruence_diagonalize(sym).signature
            == congruence_diagonalize(chain).signature
        )


def test_rank_cap_is_checked_before_the_matrix_is_built():
    # sigma_1^c closes to a knot for odd c, with rank c - 1: knot ranks are
    # even, so MAX_RANK + 2 is the first one past the cap
    at_cap = seifert_matrix(BraidWord(2, (1,) * (MAX_RANK + 1)))
    assert len(at_cap.matrix) == MAX_RANK
    with pytest.raises(ValueError, match=f"rank {MAX_RANK + 2} "):
        seifert_matrix(BraidWord(2, (1,) * (MAX_RANK + 3)))
