"""Alexander polynomials of braid closures, two independent ways.

:func:`burau_alexander` evaluates the reduced Burau representation and uses
det(I - B(w)) * (1 - t) / (1 - t^n); it is the route every report takes.
:func:`reduced_burau` builds B(w) letter by letter as column updates on
its Laurent polynomial entries, with no polynomial multiplication.
:func:`alexander_from_seifert` uses the classical det(V - t V^T) of a
Seifert matrix and serves as its oracle in :mod:`bennequin.checks` and the
tests.  Both normalize to the same canonical representative, so they can
cross-validate each other exactly.

Laurent polynomials are integer-coefficient maps exponent -> coefficient
with finite support; all arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .braid import BraidWord, closure_components


@dataclass(frozen=True)
class LaurentPoly:
    """Integer Laurent polynomial; ``coeffs`` holds no zero values."""

    coeffs: tuple[tuple[int, int], ...]  # sorted (exponent, coefficient) pairs

    @staticmethod
    def from_dict(d: dict[int, int]) -> "LaurentPoly":
        return LaurentPoly(tuple(sorted((e, c) for e, c in d.items() if c != 0)))

    @staticmethod
    def constant(c: int) -> "LaurentPoly":
        return LaurentPoly.from_dict({0: c})

    @staticmethod
    def monomial(exponent: int, c: int = 1) -> "LaurentPoly":
        return LaurentPoly.from_dict({exponent: c})

    def as_dict(self) -> dict[int, int]:
        return dict(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = self.as_dict()
        for e, c in other.coeffs:
            out[e] = out.get(e, 0) + c
        return LaurentPoly.from_dict(out)

    # __neg__ and shift build their tuples from lists.  A tuple built from a
    # generator starts at a guessed length and is resized, so CPython takes
    # it from one tuple freelist and returns it to another; the freelists of
    # the final lengths fill to 2,000 tuples each (4.5 MB held after 560
    # corpus words through reduced_burau, CPython 3.11).
    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(tuple([(e, -c) for e, c in self.coeffs]))

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out: dict[int, int] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                out[e] = out.get(e, 0) + c1 * c2
        return LaurentPoly.from_dict(out)

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by t^k."""
        return LaurentPoly(tuple([(e + k, c) for e, c in self.coeffs]))

    def min_exp(self) -> int:
        return self.coeffs[0][0]

    def max_exp(self) -> int:
        return self.coeffs[-1][0]

    def eval_at(self, value: Fraction | int) -> Fraction:
        value = Fraction(value)
        total = Fraction(0)
        for e, c in self.coeffs:
            total += c * value**e
        return total

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " ".join(f"{e}:{c}" for e, c in self.coeffs)


ZERO = LaurentPoly(())
ONE = LaurentPoly.constant(1)


def exact_div(num: LaurentPoly, den: LaurentPoly) -> LaurentPoly:
    """Divide Laurent polynomials, requiring the division to be exact."""
    if den.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    if num.is_zero():
        return ZERO
    rem = num.as_dict()
    den_pairs = den.coeffs
    lead_exp, lead_coeff = den_pairs[-1]
    # an exact quotient has no exponent below this (t is a unit, so an
    # inexact division would otherwise descend forever)
    min_shift = num.min_exp() - den.min_exp()
    quot: dict[int, int] = {}
    while rem:
        top = max(rem)
        q, r = divmod(rem[top], lead_coeff)
        shift = top - lead_exp
        if r != 0 or shift < min_shift:
            raise ValueError("polynomial division is not exact")
        quot[shift] = quot.get(shift, 0) + q
        for e, c in den_pairs:
            e2 = e + shift
            val = rem.get(e2, 0) - q * c
            if val == 0:
                rem.pop(e2, None)
            else:
                rem[e2] = val
    return LaurentPoly.from_dict(quot)


def laurent_det(matrix: list[list[LaurentPoly]]) -> LaurentPoly:
    """Determinant of a square matrix of Laurent polynomials.

    Fraction-free Bareiss elimination: every step divides exactly by the
    previous pivot, so all entries stay Laurent polynomials.  A zero pivot
    is replaced by swapping in a lower row; when none is left, the matrix
    is singular.
    """
    size = len(matrix)
    for row in matrix:
        if len(row) != size:
            raise ValueError("matrix must be square")
    if size == 0:
        return ONE
    mat = [row[:] for row in matrix]
    sign = 1
    prev = ONE
    for k in range(size - 1):
        if mat[k][k].is_zero():
            swap = next(
                (i for i in range(k + 1, size) if not mat[i][k].is_zero()), None
            )
            if swap is None:
                return ZERO
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                num = mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]
                mat[i][j] = exact_div(num, prev)
        prev = mat[k][k]
    det = mat[size - 1][size - 1]
    return det if sign == 1 else -det


def normalize(p: LaurentPoly) -> LaurentPoly:
    """Canonical unit multiple of p: centered exponents, then sign.

    The exponent shift centers the support (exactly symmetric around 0
    whenever the span is even, as it is for knot polynomials).  The sign
    makes the value at 1 positive when it is nonzero, otherwise makes the
    leading coefficient positive.
    """
    if p.is_zero():
        return p
    shift = -((p.min_exp() + p.max_exp()) // 2)
    p = p.shift(shift)
    at_one = p.eval_at(1)
    if at_one != 0:
        return p if at_one > 0 else -p
    return p if p.coeffs[-1][1] > 0 else -p


def alexander_from_seifert(v: list[list[int]]) -> LaurentPoly:
    """Normalized Alexander polynomial det(V - t V^T) of a Seifert matrix."""
    size = len(v)
    for row in v:
        if len(row) != size:
            raise ValueError("Seifert matrix must be square")
    if size == 0:
        return ONE
    t = LaurentPoly.monomial(1)
    mat = [
        [
            LaurentPoly.constant(v[i][j]) - t * LaurentPoly.constant(v[j][i])
            for j in range(size)
        ]
        for i in range(size)
    ]
    return normalize(laurent_det(mat))


def reduced_burau(w: BraidWord) -> list[list[LaurentPoly]]:
    """Reduced Burau matrix of a braid word, size (strands-1)^2.

    The product is built left to right, each letter applied to the running
    matrix as a column update: sigma_i and its inverse rewrite only columns
    i-1 and i, and sigma_{n-1}^{+-1} folds the other columns into the last
    one.  So it takes only additions, subtractions and shifts by t^{+-1}.
    """
    dim = w.strands - 1
    cols = [[ONE if r == j else ZERO for r in range(dim)] for j in range(dim)]
    for k in w.letters:
        i = abs(k)
        if i < dim:
            a, b = cols[i - 1], cols[i]
            if k > 0:  # a, b <- a(1 - t) + b, t a
                ta = [x.shift(1) for x in a]
                cols[i - 1] = [x - y + z for x, y, z in zip(a, ta, b)]
                cols[i] = ta
            else:  # a, b <- b / t, a + b(1 - 1/t)
                b_t = [y.shift(-1) for y in b]
                cols[i - 1] = b_t
                cols[i] = [x + y - z for x, y, z in zip(a, b, b_t)]
        elif k > 0:  # last <- -(sum of the other columns) - t last
            cols[-1] = [-sum(row[:-1], row[-1].shift(1)) for row in zip(*cols)]
        else:  # last <- -(sum of all columns) / t
            cols[-1] = [-sum(row, ZERO).shift(-1) for row in zip(*cols)]
    return [[col[r] for col in cols] for r in range(dim)]


def burau_alexander(w: BraidWord) -> LaurentPoly:
    """Normalized Alexander polynomial of a knot closure via reduced Burau."""
    if closure_components(w) != 1:
        raise ValueError("closure has more than one component")
    n = w.strands
    dim = n - 1
    burau = reduced_burau(w)
    mat = [
        [(ONE if i == j else ZERO) - burau[i][j] for j in range(dim)]
        for i in range(dim)
    ]
    det = laurent_det(mat)
    # Delta(t) = det(I - B) * (1 - t) / (1 - t^n); the quotient is exact.
    cyclotomic_sum = LaurentPoly.from_dict({e: 1 for e in range(n)})
    return normalize(exact_div(det, cyclotomic_sum))
