"""Exact reference computations that the benchmark checks outputs against.

Nothing here imports the program: words are plain tuples of signed
generator indices, Laurent polynomials are ``{exponent: coefficient}``
dicts with no zero values, and matrices are lists of rows.
"""

from __future__ import annotations

Laurent = dict[int, int]


def exponent_sum(letters: tuple[int, ...]) -> int:
    return sum(1 if k > 0 else -1 for k in letters)


def inverse(letters: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(-k for k in reversed(letters))


def closure_components(letters: tuple[int, ...], strands: int) -> int:
    """Cycle count of the strand permutation, the closure's component count."""
    perm = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if not seen[start]:
            cycles += 1
            p = start
            while not seen[p]:
                seen[p] = True
                p = perm[p]
    return cycles


# --- integer determinants -------------------------------------------------


def bareiss_det(rows) -> int:
    """Exact determinant of a square integer matrix, fraction-free."""
    mat = [list(row) for row in rows]
    size = len(mat)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if mat[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if mat[i][k] != 0), None)
            if swap is None:
                return 0
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, size):
            row_i = mat[i]
            row_k = mat[k]
            factor = row_i[k]
            for j in range(k + 1, size):
                row_i[j] = (row_i[j] * pivot - factor * row_k[j]) // prev
        prev = pivot
    return sign * mat[size - 1][size - 1]


# --- Laurent polynomials and the unreduced Burau representation ------------


def _add_into(out: Laurent, p: Laurent, scale: int = 1, shift: int = 0) -> None:
    for e, c in p.items():
        e += shift
        value = out.get(e, 0) + scale * c
        if value:
            out[e] = value
        else:
            out.pop(e, None)


def poly_mul(p: Laurent, q: Laurent) -> Laurent:
    out: Laurent = {}
    for e, c in p.items():
        _add_into(out, q, c, e)
    return out


def mat_mul(a: list[list[Laurent]], b: list[list[Laurent]]) -> list[list[Laurent]]:
    size = len(a)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for k in range(size):
            if not a[i][k]:
                continue
            for j in range(size):
                if b[k][j]:
                    _add_into(out[i][j], poly_mul(a[i][k], b[k][j]))
    return out


def burau(letters: tuple[int, ...], strands: int) -> list[list[Laurent]]:
    """Unreduced Burau matrix, sigma_i -> [[1-t, t], [1, 0]] on rows i, i+1.

    Right multiplication by a generator only mixes columns i-1 and i, so
    each letter costs two column updates.
    """
    mat: list[list[Laurent]] = [
        [{0: 1} if i == j else {} for j in range(strands)] for i in range(strands)
    ]
    for k in letters:
        i = abs(k)
        for row in mat:
            left, right = row[i - 1], row[i]
            new_left: Laurent = {}
            new_right: Laurent = {}
            if k > 0:  # left' = (1 - t) left + right, right' = t left
                _add_into(new_left, left)
                _add_into(new_left, left, -1, 1)
                _add_into(new_left, right)
                _add_into(new_right, left, 1, 1)
            else:  # left' = t^-1 right, right' = left + (1 - t^-1) right
                _add_into(new_left, right, 1, -1)
                _add_into(new_right, left)
                _add_into(new_right, right)
                _add_into(new_right, right, -1, -1)
            row[i - 1], row[i] = new_left, new_right
    return mat


def conjugates_onto(
    strands: int, source: tuple[int, ...], target: tuple[int, ...], c: tuple[int, ...]
) -> bool:
    """Burau image of target = c * source * c^-1, tested as B(target) B(c) = B(c) B(source)."""
    bc = burau(c, strands)
    return mat_mul(burau(target, strands), bc) == mat_mul(bc, burau(source, strands))


def trace_powers(letters: tuple[int, ...], strands: int) -> list[Laurent]:
    """Traces of B^1 .. B^strands; over Q they fix the characteristic polynomial."""
    base = burau(letters, strands)
    power = base
    traces = []
    for k in range(strands):
        if k:
            power = mat_mul(power, base)
        total: Laurent = {}
        for i in range(strands):
            _add_into(total, power[i][i])
        traces.append(total)
    return traces


def burau_distinguishes(strands: int, w1: tuple[int, ...], w2: tuple[int, ...]) -> bool:
    """True proves w1 and w2 are not conjugate: their Burau charpolys differ."""
    return trace_powers(w1, strands) != trace_powers(w2, strands)
