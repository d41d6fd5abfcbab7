"""Properties of congruence diagonalization on generated symmetric forms.

The forms are zero-heavy, so zero pivots that need a repair and rows that
are zero past their pivot both occur often.
"""

import random
from dataclasses import astuple
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from bennequin.quadform import congruence_diagonalize, elimination_work
from oracles import (
    congruence_transform,
    dense_congruence,
    det_fraction,
    measured_elimination_work,
    random_unimodular,
)

# fixed examples and no example database, so every run checks the same forms
PROPERTY = settings(derandomize=True, database=None, max_examples=150, deadline=None)
NONZERO = (-4, -3, -2, -1, 1, 2, 3, 4)


@st.composite
def symmetric_forms(draw):
    size = draw(st.integers(0, 10))
    # from no zeros up to three zero entries in four
    entry = st.sampled_from((0,) * draw(st.integers(0, 24)) + NONZERO)
    mat = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            mat[i][j] = mat[j][i] = draw(entry)
    return mat


@PROPERTY
@given(symmetric_forms(), st.integers(0, 2**32 - 1))
def test_unimodular_congruence_keeps_signature_and_nullity(mat, seed):
    moved = congruence_transform(mat, random_unimodular(random.Random(seed), len(mat)))
    a = congruence_diagonalize(mat)
    b = congruence_diagonalize(moved)
    assert (b.signature, b.nullity) == (a.signature, a.nullity)


@PROPERTY
@given(symmetric_forms())
def test_determinant_is_the_exact_determinant(mat):
    assert congruence_diagonalize(mat).determinant == det_fraction(mat)


@PROPERTY
@given(symmetric_forms(), st.integers(1, 60))
def test_scaling_by_a_positive_rational(mat, q):
    # dividing by q leaves mixed denominators per row once entries reduce
    scaled = [[Fraction(x, q) for x in row] for row in mat]
    a = congruence_diagonalize(mat)
    b = congruence_diagonalize(scaled)
    assert (b.signature, b.nullity) == (a.signature, a.nullity)
    assert b.determinant == a.determinant / Fraction(q) ** len(mat)


@PROPERTY
@given(symmetric_forms(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_sparse_congruence_is_the_dense_one(mat, q, seed):
    # the same pivots bit for bit, so every field agrees, not only the inertia
    moved = congruence_transform(mat, random_unimodular(random.Random(seed), len(mat)))
    for rows in (mat, moved, [[Fraction(x, q) for x in row] for row in mat]):
        assert astuple(congruence_diagonalize(rows)) == dense_congruence(rows)


@PROPERTY
@given(symmetric_forms(), st.integers(1, 60), st.integers(0, 2**32 - 1))
def test_elimination_work_bounds_the_measured_work(mat, q, seed):
    # unimodular congruences widen the entries, and 1/q adds denominators
    moved = congruence_transform(mat, random_unimodular(random.Random(seed), len(mat)))
    for rows in (mat, moved, [[Fraction(x, q) for x in row] for row in moved]):
        assert measured_elimination_work(rows) <= elimination_work(rows)
