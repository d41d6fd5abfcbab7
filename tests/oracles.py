"""Independent slow-route helpers shared by the test modules.

Everything here is deliberately written against raw lists/dicts rather
than the package's own types, so an agreement test really compares two
implementations.  The word moves (conjugation, cyclic shift, mirror) build
plain ``BraidWord`` values; only tests use them.  :func:`rewriting_equal`
decides the word problem with no normal form, for the strand counts where
the Burau check of ``bennequin verify`` would not be exact, and
:func:`fixpoint_propagate` bounds tau by rounds of edge relaxation, where
the package takes shortest paths.  The seeded corpora are not oracles:
they come from :mod:`bennequin.checks`, so the tests and ``bennequin
verify`` draw the same words and matrices from a seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from bennequin.braid import BraidWord, closure_permutation, exponent_sum, free_reduce
from bennequin.checks import (  # noqa: F401  (re-exported corpora)
    EXTRA_LENGTH,
    congruence_transform,
    random_knot_words,
    random_symmetric,
    random_unimodular,
    relation_neighbors,
    word_pairs,
)
from bennequin.tau import Interval, PropagationContradiction, TauConstraintGraph


def det_fraction(rows) -> Fraction:
    """Exact determinant by fraction Gaussian elimination with pivoting."""
    mat = [[Fraction(x) for x in row] for row in rows]
    size = len(mat)
    det = Fraction(1)
    for k in range(size):
        pivot = next((i for i in range(k, size) if mat[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            mat[k], mat[pivot] = mat[pivot], mat[k]
            det = -det
        det *= mat[k][k]
        for i in range(k + 1, size):
            factor = mat[i][k] / mat[k][k]
            for j in range(k, size):
                mat[i][j] -= factor * mat[k][j]
    return det


def dense_congruence_steps(rows):
    """The fraction-free congruence of ``quadform`` in natural pivot order,
    run dense: every entry of the trailing block is updated at every step.

    Yields ``(pivot, denominator, block)`` per step, the k-th diagonal entry
    being ``pivot / denominator`` and ``block`` the trailing block after the
    step.  Rows and columns are first scaled by the lcm of their row's
    denominators; a zero pivot with a nonzero in column j of its row is
    repaired by adding c times row and column j, c in {1, 2}.
    """
    mat = [[Fraction(x) for x in row] for row in rows]
    scale = [math.lcm(*(x.denominator for x in row)) for row in mat]
    block = [
        [int(x * di * dj) for x, dj in zip(row, scale)] for row, di in zip(mat, scale)
    ]
    prev = 1
    for dk in scale:
        head = block[0]
        if head[0] == 0:
            j = next((j for j, x in enumerate(head) if x), None)
            if j is not None:
                c = 1 if block[j][j] + 2 * head[j] else 2
                head = block[0] = [a + c * b for a, b in zip(head, block[j])]
                for row in block:
                    row[0] += c * row[j]
        pivot = head[0]
        if pivot == 0:
            block = [row[1:] for row in block[1:]]
            yield 0, 1, block
            continue
        block = [
            [(pivot * a - row[0] * b) // prev for a, b in zip(row[1:], head[1:])]
            for row in block[1:]
        ]
        yield pivot, prev * dk * dk, block
        prev = pivot


def dense_congruence(rows) -> tuple:
    """``(diagonal, signature, nullity, determinant)`` of the dense
    congruence: the fields of ``quadform.CongruenceDiagnosis``, in order."""
    diagonal = tuple(Fraction(p, q) for p, q, _ in dense_congruence_steps(rows))
    positives = sum(1 for d in diagonal if d > 0)
    negatives = sum(1 for d in diagonal if d < 0)
    return (
        diagonal,
        positives - negatives,
        len(diagonal) - positives - negatives,
        math.prod(diagonal, start=Fraction(1)),
    )


def measured_elimination_work(rows) -> int:
    """Squared bits summed over the nonzero entries that the dense
    congruence computes, each step after a nonzero pivot counted at its
    widest entry."""
    work = 0
    for pivot, _, block in dense_congruence_steps(rows):
        if pivot:
            entries = [x for row in block for x in row if x]
            work += len(entries) * max((abs(x).bit_length() for x in entries), default=0) ** 2
    return work


# -- naive Laurent polynomial arithmetic on plain dicts ---------------------


def poly_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def poly_neg(a: dict) -> dict:
    return {e: -c for e, c in a.items()}


def cofactor_laurent_det(matrix: list[list[dict]]) -> dict:
    """Plain cofactor expansion over dict polynomials."""
    size = len(matrix)
    if size == 0:
        return {0: 1}
    if size == 1:
        return dict(matrix[0][0])
    total: dict = {}
    for j in range(size):
        entry = matrix[0][j]
        if not entry:
            continue
        minor = [
            [matrix[i][k] for k in range(size) if k != j] for i in range(1, size)
        ]
        term = poly_mul(entry, cofactor_laurent_det(minor))
        total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
    return total


def burau_letter(strands: int, letter: int) -> list[list[dict]]:
    """Reduced Burau matrix of one letter, entries as dict polynomials."""
    dim = strands - 1
    i = abs(letter)
    mat = [[{0: 1} if r == c else {} for c in range(dim)] for r in range(dim)]
    if letter > 0:
        if i < dim:
            mat[i - 1][i - 1] = {0: 1, 1: -1}
            mat[i - 1][i] = {1: 1}
            mat[i][i - 1] = {0: 1}
            mat[i][i] = {}
        else:  # i == n-1: the quotient by the fixed vector folds the last column
            for row in range(dim - 1):
                mat[row][dim - 1] = {0: -1}
            mat[dim - 1][dim - 1] = {1: -1}
    else:
        if i < dim:
            mat[i - 1][i - 1] = {}
            mat[i - 1][i] = {0: 1}
            mat[i][i - 1] = {-1: 1}
            mat[i][i] = {0: 1, -1: -1}
        else:
            for row in range(dim):
                mat[row][dim - 1] = {-1: -1}
    return mat


def poly_mat_mul(a: list[list[dict]], b: list[list[dict]]) -> list[list[dict]]:
    """Plain matrix product over dict polynomials."""
    size = len(a)
    out = [[{} for _ in range(size)] for _ in range(size)]
    for i in range(size):
        for j in range(size):
            for k in range(size):
                out[i][j] = poly_add(out[i][j], poly_mul(a[i][k], b[k][j]))
    return out


def burau_product(w: BraidWord) -> list[list[dict]]:
    """Reduced Burau matrix of a word as the product of its letter matrices."""
    dim = w.strands - 1
    result = [[{0: 1} if r == c else {} for c in range(dim)] for r in range(dim)]
    for k in w.letters:
        result = poly_mat_mul(result, burau_letter(w.strands, k))
    return result


# -- braid words -------------------------------------------------------------


def conjugate(w: BraidWord, c: BraidWord) -> BraidWord:
    """The word c * w * c^-1, unsimplified (a conjugation of the closure)."""
    if w.strands != c.strands:
        raise ValueError("strand counts differ")
    inverse = tuple(-k for k in reversed(c.letters))
    return BraidWord(w.strands, c.letters + w.letters + inverse)


def cyclic_shift(w: BraidWord, k: int) -> BraidWord:
    """Rotate the word left by k letters (a conjugation of the closure)."""
    if not w.letters:
        return w
    k %= len(w.letters)
    return BraidWord(w.strands, w.letters[k:] + w.letters[:k])


def mirror(w: BraidWord) -> BraidWord:
    """Negate every letter; the closure becomes the mirror-image link."""
    return BraidWord(w.strands, tuple(-k for k in w.letters))


def rewriting_equal(w1: BraidWord, w2: BraidWord) -> bool:
    """Decide equality by bounded rewriting, independently of normal forms.

    Exponent sum and permutation are checked first, since every relation
    move keeps them.  Then a bidirectional breadth-first search runs over
    words at most :data:`EXTRA_LENGTH` letters longer than the longer
    input; "unequal" means no rewriting within that bound, so the answer is
    exact only where the bound is known to suffice (short words here).
    """
    if w1.strands != w2.strands:
        raise ValueError("strand counts differ")
    if exponent_sum(w1) != exponent_sum(w2):
        return False
    if closure_permutation(w1) != closure_permutation(w2):
        return False
    a = free_reduce(w1).letters
    b = free_reduce(w2).letters
    if a == b:
        return True
    max_len = max(len(a), len(b)) + EXTRA_LENGTH
    sides = [{a}, {b}]
    frontiers = [[a], [b]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        seen, other = sides[side], sides[1 - side]
        next_frontier = []
        for word in frontiers[side]:
            for nb in relation_neighbors(word, w1.strands, max_len):
                if nb in other:
                    return True
                if nb not in seen:
                    seen.add(nb)
                    next_frontier.append(nb)
        frontiers[side] = next_frontier
    # one side's bounded component is exhausted and never met the other
    return False


# -- permutations ------------------------------------------------------------


def word_cycle_count(letters, strands: int) -> int:
    """Cycle count of the permutation of a braid word, computed directly."""
    occupant = list(range(strands))
    for k in letters:
        i = abs(k) - 1
        occupant[i], occupant[i + 1] = occupant[i + 1], occupant[i]
    image = [0] * strands
    for pos, strand in enumerate(occupant):
        image[strand] = pos
    seen = [False] * strands
    cycles = 0
    for start in range(strands):
        if seen[start]:
            continue
        cycles += 1
        p = start
        while not seen[p]:
            seen[p] = True
            p = image[p]
    return cycles


# -- Garside normal forms ---------------------------------------------------


def perm_letters(image) -> tuple[int, ...]:
    """A positive word for a permutation braid, by bubble-sorting its image."""
    img = list(image)
    letters = []
    while True:
        descent = next((i for i in range(len(img) - 1) if img[i] > img[i + 1]), None)
        if descent is None:
            return tuple(letters)
        letters.append(descent + 1)
        img[descent], img[descent + 1] = img[descent + 1], img[descent]


def normal_form_word(nf):
    """Spell a Garside normal form back as a braid word, letter by letter."""
    n = nf.strands
    delta = perm_letters(range(n - 1, -1, -1))
    if nf.power >= 0:
        letters = delta * nf.power
    else:
        letters = tuple(-k for k in reversed(delta)) * -nf.power
    for factor in nf.factors:
        letters += perm_letters(factor)
    return BraidWord(n, letters)


# -- corpora -----------------------------------------------------------------


def random_words(rng: random.Random, count: int, strands: int, max_len: int):
    words = []
    for _ in range(count):
        letters = tuple(
            rng.choice((1, -1)) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, max_len))
        )
        words.append(BraidWord(strands, letters))
    return words


def float_signature(mat) -> int | None:
    """Eigenvalue-sign count via numpy; None when too close to singular."""
    import numpy as np

    if not mat:
        return 0
    eigenvalues = np.linalg.eigvalsh(np.array(mat, dtype=float))
    if min(abs(eigenvalues)) < 1e-8:
        return None
    return int((eigenvalues > 0).sum() - (eigenvalues < 0).sum())


# -- left-weighting, written without the garside module ----------------------


def perm_inverse(image) -> tuple[int, ...]:
    out = [0] * len(image)
    for i, x in enumerate(image):
        out[x] = i
    return tuple(out)


def perm_descents(image) -> set[int]:
    """Generators i (1-based) whose strands at positions i-1 and i cross:
    the letters a positive word for the permutation braid can start with."""
    return {i for i in range(1, len(image)) if image[i - 1] > image[i]}


def normal_form_defects(nf) -> list[str]:
    """Why a Garside normal form is not one; empty when it is.

    Every factor must be a permutation other than the identity and the half
    twist, and every consecutive pair (x, y) left-weighted: each letter a
    word for y can start with is one a word for x can end with.
    """
    n = nf.strands
    identity = tuple(range(n))
    delta = identity[::-1]
    defects = []
    for i, factor in enumerate(nf.factors):
        if sorted(factor) != list(identity):
            defects.append(f"factor {i} is not a permutation of {n} points")
        elif factor in (identity, delta):
            defects.append(f"factor {i} is the identity or Delta")
    for i, (x, y) in enumerate(zip(nf.factors, nf.factors[1:])):
        if not perm_descents(y) <= perm_descents(perm_inverse(x)):
            defects.append(f"factors {i} and {i + 1} are not left-weighted")
    return defects


def _left_weight_pair(n: int, x, y):
    """Move starting letters of y onto the end of x until none can move."""
    changed = False
    while True:
        movable = sorted(perm_descents(y) - perm_descents(perm_inverse(x)))
        if not movable:
            return x, y, changed
        t = list(range(n))
        i = movable[0]
        t[i - 1], t[i] = i, i - 1
        x = tuple(t[v] for v in x)
        y = tuple(y[t[j]] for j in range(n))
        changed = True


def left_weight_factors(n: int, power: int, factors) -> tuple[int, tuple]:
    """Normal form of Delta^power x1..xk for any simples x_i: left-weight
    every consecutive pair, in full passes, until a pass changes nothing."""
    work = list(factors)
    changed = True
    while changed:
        changed = False
        for i in range(len(work) - 1):
            x, y, moved = _left_weight_pair(n, work[i], work[i + 1])
            if moved:
                work[i], work[i + 1] = x, y
                changed = True
    identity = tuple(range(n))
    lo, hi = 0, len(work)
    while lo < hi and work[lo] == identity[::-1]:
        lo += 1
    while lo < hi and work[hi - 1] == identity:
        hi -= 1
    return power + lo, tuple(work[lo:hi])


def half_twist_conjugate(image, times: int = 1) -> tuple[int, ...]:
    """Conjugate a permutation braid by the half twist ``times`` times."""
    n = len(image)
    for _ in range(times % 2):
        image = tuple(n - 1 - image[n - 1 - i] for i in range(n))
    return tuple(image)


def word_factors(w) -> tuple[int, list]:
    """Delta^p x1..xk equal to a word, before left-weighting.

    sigma_i^-1 = Delta^-1 (Delta sigma_i^-1) with Delta sigma_i^-1 simple,
    and each Delta^-1 moves to the front past the factors before it, each
    of which it conjugates by the half twist.
    """
    n = w.strands
    delta = tuple(range(n - 1, -1, -1))
    factors, inverses = [], 0  # inverse letters right of the current one
    for k in reversed(w.letters):
        i = abs(k)
        t = list(range(n))
        t[i - 1], t[i] = i, i - 1
        factor = tuple(t) if k > 0 else tuple(t[v] for v in delta)
        factors.append(half_twist_conjugate(factor, inverses))
        inverses += k < 0
    factors.reverse()
    return -inverses, factors


def _max_lower(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return max(a, b)


def _min_upper(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def fixpoint_propagate(graph: TauConstraintGraph) -> dict[str, Interval]:
    """The tau intervals of ``tau.propagate``, relaxed to a fixed point.

    The reference for the shortest-path route, kept as written before it:
    every edge is relaxed in both directions for up to nodes x edges rounds.

    Each edge a -> b yields tau(b) in [lower(a), upper(a) + 1] and
    tau(a) in [lower(b) - 1, upper(b)].  Exact nodes start as point
    intervals, others unbounded.  Raises
    :class:`PropagationContradiction` naming the node whose interval
    emptied and its incident edges.
    """
    lower: dict[str, int | None] = {}
    upper: dict[str, int | None] = {}
    for node in graph.nodes:
        lower[node.name] = node.tau
        upper[node.name] = node.tau

    def tighten(name: str, new_lower: int | None, new_upper: int | None) -> bool:
        lo = _max_lower(lower[name], new_lower)
        hi = _min_upper(upper[name], new_upper)
        if lo is not None and hi is not None and lo > hi:
            incident = [e for e in graph.edges if name in e]
            raise PropagationContradiction(
                f"node {name!r} forced into empty interval [{lo}, {hi}]"
                f" by edges {incident}"
            )
        changed = (lo, hi) != (lower[name], upper[name])
        lower[name], upper[name] = lo, hi
        return changed

    max_rounds = max(1, len(graph.nodes) * max(1, len(graph.edges)))
    for _ in range(max_rounds + 1):
        changed = False
        for a, b in graph.edges:
            up_a = None if upper[a] is None else upper[a] + 1
            changed |= tighten(b, lower[a], up_a)
            lo_b = None if lower[b] is None else lower[b] - 1
            changed |= tighten(a, lo_b, upper[b])
        if not changed:
            break
    return {
        node.name: Interval(lower[node.name], upper[node.name])
        for node in graph.nodes
    }
