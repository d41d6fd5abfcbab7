"""Exact analysis of symmetric bilinear forms over the rationals.

There is no floating point, so signatures and determinants are never at
the mercy of rounding.  :func:`congruence_diagonalize` is the one
reduction: a congruence in natural pivot order, which is valid for every
symmetric matrix and preserves signature and nullity by Sylvester's law
of inertia.  It runs fraction-free on integers (Bareiss, *Sylvester's
identity and multistep integer-preserving Gaussian elimination*, Math.
Comp. 22, 1968); only the reported diagonal is made of fractions.

The elimination stores the upper triangle of its block sparse, one dict of
nonzero entries per row.  A step rewrites only the rows with a nonzero in
the pivot column.  Every other row would only be multiplied by
pivot / prev; these factors telescope, so such a row is scaled once, by
prev_now / prev_then, when a later step reads it.  The Seifert forms
V + V^T of braid closures are mostly zero, so this touches a small part of
the block (George and Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981).  The pivot order stays natural, so the integers,
and the reported pivots, are those of the dense elimination.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .braid import BraidWord


@dataclass(frozen=True)
class CongruenceDiagnosis:
    """Result of diagonalizing a symmetric form by congruence."""

    diagonal: tuple[Fraction, ...]
    signature: int
    nullity: int
    determinant: Fraction


def _integer_form(rows) -> tuple[list[int], list[list[int]]]:
    """Scale row and column i of a symmetric rational matrix by d_i, the
    lcm of row i's denominators, giving ``(scale, integer matrix)``."""
    # converted whole: row-by-row conversion made the process's RSS creep
    # across many calls interleaved with other work (CPython 3.11, glibc),
    # and so did skipping the conversion for all-int input: 3.5 MB over 40
    # rounds of 14 random 4- to 7-strand knots through word_report, against
    # 0.35 MB with it.  Most of that 3.5 MB was tuples parked on CPython's
    # freelists, where a tuple built from a generator is resized from one
    # length to another; since LaurentPoly builds its tuples from lists the
    # shortcut adds 0.6 MB over the same rounds.
    rational = [[Fraction(x) for x in row] for row in rows]
    size = len(rational)
    if any(len(row) != size for row in rational):
        raise ValueError("matrix must be square")
    scale = [lcm(*(x.denominator for x in row)) for row in rational]
    mat = [
        [x.numerator * (di // x.denominator) * dj for x, dj in zip(row, scale)]
        for row, di in zip(rational, scale)
    ]
    # d_i * d_j > 0, so the scaled matrix is symmetric where the input is
    for i in range(size):
        for j in range(i + 1, size):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix is not symmetric at ({i + 1},{j + 1})")
    return scale, mat


def elimination_work(rows) -> int:
    """An upper estimate of the integer work of :func:`congruence_diagonalize`,
    in squared bits summed over the entry updates that can be nonzero.

    The scaled matrix is M = D A D with D = diag(d_i), so a minor of M is a
    minor of the integer matrix D A times the d_j of its columns.  Row i
    counts the bits of the largest entry of row i of D A and of d_i, plus 3
    for the half of log2(size) that Hadamard's inequality adds per row and
    for the pivot repairs.  After pivots 0..k every entry of the block is a
    minor of M on rows and columns 0..k and one more, so it has at most the
    bits of rows 0..k plus those of the largest row left.  An update can be
    nonzero only within a connected component of the graph of M's nonzero
    off-diagonal entries: neither elimination nor a pivot repair fills in
    across components.  Each update costs about the square of its bits,
    since CPython divides by schoolbook.

    The estimate is of the dense elimination, which updates every entry of
    the block at every step.  The sparse route computes an entry only where
    the dense one updates it, and at most as often, so it is bounded too.
    """
    scale, mat = _integer_form(rows)
    size = len(mat)
    bits = [
        max(abs(x // dj).bit_length() for x, dj in zip(row, scale))
        + di.bit_length()
        + 3
        for row, di in zip(mat, scale)
    ]
    parent = list(range(size))

    def root(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(size):
        for j in range(i + 1, size):
            if mat[i][j]:
                parent[root(i)] = root(j)
    component = [root(i) for i in range(size)]
    left = Counter(component)  # members not yet eliminated, per component
    updates = sum(m * m for m in left.values())
    largest_after = [0] * (size + 1)
    for i in range(size - 1, -1, -1):
        largest_after[i] = max(largest_after[i + 1], bits[i])
    work = done = 0
    for k in range(size):
        m = left[component[k]]
        left[component[k]] = m - 1
        updates -= 2 * m - 1  # now the sum of squares of members past k
        done += bits[k]
        work += updates * (done + largest_after[k + 1]) ** 2
    return work


def _pivots(mat: list[list[int]]) -> list[tuple[int, int]]:
    """Fraction-free congruence of a symmetric integer matrix in natural
    pivot order: the k-th pair is the k-th pivot and ``prev``, the last
    nonzero pivot before it (1 at first).

    The block keeps its upper triangle as one ``{column: nonzero}`` dict
    per row, and a step rewrites only the rows with a nonzero in the pivot
    column.  Every other row i is scaled lazily: a Bareiss step multiplies
    it by pivot / prev, these factors telescope, so row i holds its exact
    entries as of ``prev == stamp[i]`` and ``x * prev // stamp[i]`` brings
    an entry up to date, exactly.
    """
    block = [{j: x for j, x in enumerate(row[i:], i) if x} for i, row in enumerate(mat)]
    stamp = [1] * len(mat)
    out = []
    prev = 1
    for k, head in enumerate(block):
        s = stamp[k]
        if s != prev:
            head = {j: x * prev // s for j, x in head.items()}
        if k not in head and head:
            # a zero pivot: add c times row and column j, the first nonzero
            # of row k, into row and column k.  Row j's entries left of
            # column j are held, by symmetry, in the rows between k and j.
            j = min(head)
            row = block[j]
            s = stamp[j]
            if s != prev:
                row = block[j] = {i: x * prev // s for i, x in row.items()}
                stamp[j] = prev
            b = head[j]
            # the new pivot is c*(c*M_jj + 2*M_kj) with M_kj != 0: when
            # c = 1 gives 0, M_jj = -2*M_kj and c = 2 gives -4*M_kj
            c = 1 if row.get(j, 0) + 2 * b else 2
            for i in range(k + 1, j):
                r = block[i]
                if j in r:
                    head[i] = c * (r[j] * prev // stamp[i])
            for i, x in row.items():
                y = head.get(i, 0) + c * x
                if y:
                    head[i] = y
                else:
                    del head[i]
            # the row step put c*M_jk at (k, k); the column step adds c*M'_kj
            head[k] = c * (b + head.get(j, 0))
        pivot = head[k] if k in head else 0
        out.append((pivot, prev))
        if not pivot:
            continue  # row k is zero, and so is column k
        cols = sorted(head)  # k first
        for t in range(1, len(cols)):
            i = cols[t]
            a = head[i]
            old = block[i]
            s = stamp[i]
            # a step scales the columns where row k is zero by pivot / prev
            new = block[i] = {j: x * pivot // s for j, x in old.items() if j not in head}
            if s != prev:
                old = {j: x * prev // s for j, x in old.items()}
            for j in cols[t:]:
                x = pivot * old[j] - a * head[j] if j in old else -a * head[j]
                if x:
                    new[j] = x // prev
            stamp[i] = pivot
        prev = pivot
    return out


def congruence_diagonalize(rows) -> CongruenceDiagnosis:
    """Diagonalize a symmetric rational matrix by congruence.

    Row i and column i are first scaled by d_i, the lcm of row i's
    denominators; a congruence by a positive diagonal matrix keeps the
    signature and nullity, and gives an integer matrix M.  Pivots are then
    taken in natural order by fraction-free elimination: the block holds
    ``prev`` times the trailing Schur complement, where ``prev`` is the last
    nonzero pivot, and the update ``(pivot*a - a_ik*a_kj) // prev`` divides
    exactly.  The k-th diagonal entry is the pivot of M over ``prev`` and
    over d_k squared.  Natural order keeps each pivot a ratio of leading
    principal minors whenever none of them vanishes (Jacobi), which the
    twist-chain checks read.

    The block's upper triangle is stored sparse, one dict of nonzero
    entries per row, and rows with a zero in the pivot column are scaled
    lazily (see :func:`_pivots`); the integers are those of the dense
    elimination.

    A zero pivot with a nonzero entry in column j of its row is repaired by
    adding c times row and column j into row and column k, with c in
    {1, 2}: both are transvections, so the determinant is kept exactly.  A
    zero row records 0 and leaves ``prev`` as it was.
    """
    scale, mat = _integer_form(rows)
    diagonal = tuple(
        Fraction(p, prev * d * d) for (p, prev), d in zip(_pivots(mat), scale)
    )
    positives = sum(1 for d in diagonal if d > 0)
    negatives = sum(1 for d in diagonal if d < 0)
    det = Fraction(1)
    for d in diagonal:
        det *= d
    return CongruenceDiagnosis(
        diagonal=diagonal,
        signature=positives - negatives,
        nullity=len(diagonal) - positives - negatives,
        determinant=det,
    )


def seifert_form_diagonalize(v) -> CongruenceDiagnosis:
    """:func:`congruence_diagonalize` of V + V^T for a Seifert matrix V."""
    size = len(v)
    sym = [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]
    return congruence_diagonalize(sym)


def knot_signature(w: BraidWord) -> int:
    """Signature of the closure of w: signature of V + V^T for a Seifert
    matrix V of the algorithmic closed-braid surface."""
    from .seifert import seifert_matrix

    return seifert_form_diagonalize(seifert_matrix(w).matrix).signature
