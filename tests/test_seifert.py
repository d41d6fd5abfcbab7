"""Seifert matrices from braid words, reference fixtures, band counts."""

import random

import pytest

from bennequin.alexander import alexander_from_seifert, burau_alexander
from bennequin.braid import BraidWord, family_word
from bennequin.quadform import congruence_diagonalize
from bennequin.seifert import (
    MAX_RANK,
    BandPresentation,
    DisconnectedSurfaceError,
    NotAKnotError,
    family_four_ball_surface,
    reduced_surface_seifert_matrix,
    seifert_matrix,
    twist_chain_matrix,
)
from oracles import det_fraction, mirror, random_knot_words

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


def test_band_presentations():
    disk = BandPresentation(1, 0)
    assert disk.euler_characteristic == 1
    assert disk.genus == 0
    with pytest.raises(ValueError):
        BandPresentation(0, 2)
    with pytest.raises(ValueError):
        BandPresentation(1, -1)


def test_family_four_ball_surface_counts():
    first = family_four_ball_surface(1)
    assert first == BandPresentation(3, 4)
    assert first.euler_characteristic == -1
    assert first.genus == 1
    for n in (2, 3, 10, 100):
        surface = family_four_ball_surface(n)
        assert surface.bands == 2 * n + 2
        assert surface.euler_characteristic == 1 - 2 * n
        assert surface.genus == n
    with pytest.raises(ValueError):
        family_four_ball_surface(0)


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
