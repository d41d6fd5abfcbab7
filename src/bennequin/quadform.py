"""Exact analysis of symmetric bilinear forms over the rationals.

Everything here runs on ``fractions.Fraction``; there is no floating point,
so signatures and determinants of integer forms are never at the mercy of
rounding.  Two reductions are provided:

- :func:`congruence_diagonalize` applies paired row/column operations
  (a congruence), which is valid for every symmetric matrix and preserves
  signature and nullity by Sylvester's law of inertia;
- :func:`gauss_pivots` runs plain fraction-exact Gaussian elimination in
  natural pivot order without swaps, whose pivot signs also determine the
  signature when all leading principal minors are nonzero (Jacobi's
  criterion).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord

Matrix = list[list[Fraction]]


class PivotError(ValueError):
    """Swap-free elimination hit a zero pivot it could not repair."""


@dataclass(frozen=True)
class CongruenceDiagnosis:
    """Result of diagonalizing a symmetric form by congruence."""

    diagonal: tuple[Fraction, ...]
    signature: int
    nullity: int
    determinant: Fraction


def _to_matrix(rows) -> Matrix:
    mat = [[Fraction(x) for x in row] for row in rows]
    size = len(mat)
    for row in mat:
        if len(row) != size:
            raise ValueError("matrix must be square")
    return mat


def _check_symmetric(mat: Matrix) -> None:
    size = len(mat)
    for i in range(size):
        for j in range(i + 1, size):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")


def congruence_diagonalize(rows) -> CongruenceDiagnosis:
    """Diagonalize a symmetric rational matrix by congruence.

    Pivots are taken in natural order.  A zero pivot with a nonzero
    off-diagonal entry in its row is repaired by adding that row (and the
    matching column) into the pivot row/column; the repair coefficient is
    chosen so the new diagonal entry is nonzero, which is always possible
    with c in {1, 2, 3}.  All operations are transvections, so the
    determinant is preserved exactly, not just up to squares.
    """
    mat = _to_matrix(rows)
    _check_symmetric(mat)
    size = len(mat)

    def add_row_col(target: int, source: int, coeff: Fraction) -> None:
        for j in range(size):
            mat[target][j] += coeff * mat[source][j]
        for i in range(size):
            mat[i][target] += coeff * mat[i][source]

    for k in range(size):
        if mat[k][k] == 0:
            pivot_source = next(
                (j for j in range(k + 1, size) if mat[k][j] != 0), None
            )
            if pivot_source is not None:
                for c in (1, 2, 3):
                    coeff = Fraction(c)
                    new_diag = (
                        mat[k][k]
                        + coeff * coeff * mat[pivot_source][pivot_source]
                        + 2 * coeff * mat[k][pivot_source]
                    )
                    if new_diag != 0:
                        add_row_col(k, pivot_source, coeff)
                        break
                # c*c*S_pp + 2c*S_kp has at most one nonzero root in c
                assert mat[k][k] != 0
        if mat[k][k] == 0:
            continue  # row (and column) k is entirely zero past this point
        for i in range(k + 1, size):
            if mat[i][k] != 0:
                add_row_col(i, k, -mat[i][k] / mat[k][k])

    diagonal = tuple(mat[k][k] for k in range(size))
    positives = sum(1 for d in diagonal if d > 0)
    negatives = sum(1 for d in diagonal if d < 0)
    det = Fraction(1)
    for d in diagonal:
        det *= d
    return CongruenceDiagnosis(
        diagonal=diagonal,
        signature=positives - negatives,
        nullity=size - positives - negatives,
        determinant=det,
    )


def gauss_pivots(rows) -> list[Fraction]:
    """Pivots of swap-free fraction-exact Gaussian elimination.

    Raises :class:`PivotError` when a zero pivot still has nonzero entries
    below it, since clearing them would need a row swap.
    """
    mat = _to_matrix(rows)
    _check_symmetric(mat)
    size = len(mat)
    for k in range(size):
        if mat[k][k] == 0:
            if any(mat[i][k] != 0 for i in range(k + 1, size)):
                raise PivotError(f"zero pivot at position {k + 1} needs a row swap")
            continue
        for i in range(k + 1, size):
            if mat[i][k] != 0:
                factor = mat[i][k] / mat[k][k]
                for j in range(size):
                    mat[i][j] -= factor * mat[k][j]
    return [mat[k][k] for k in range(size)]


def signature(rows) -> int:
    """Count of positive minus negative eigenvalues of a symmetric form."""
    return congruence_diagonalize(rows).signature


def nullity(rows) -> int:
    return congruence_diagonalize(rows).nullity


def det_exact(rows) -> Fraction:
    return congruence_diagonalize(rows).determinant


def knot_signature(w: BraidWord) -> int:
    """Signature of the closure of w: signature of V + V^T for a Seifert
    matrix V of the algorithmic closed-braid surface."""
    from .seifert import seifert_matrix

    v = seifert_matrix(w).matrix
    size = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]
    return signature(sym)
