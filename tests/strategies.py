"""Hypothesis strategies shared by the property suites."""

from hypothesis import strategies as st

from bennequin.alexander import RUN
from bennequin.braid import BraidWord, closure_components

SIGN = st.sampled_from((1, -1))


def letters(strands: int):
    """One signed generator index on the given strand count."""
    return st.builds(lambda s, i: s * i, SIGN, st.integers(1, strands - 1))


def complete_to_knot(draw, strands: int, word: list[int]) -> BraidWord:
    """The word completed to a knot closure with every generator used.

    A letter sigma_i^{+-1} is appended wherever it merges two closure
    components, and sigma_i^{+-2} wherever generator i is still unused.
    """
    for i in range(1, strands):
        sign = draw(SIGN)
        before = closure_components(BraidWord(strands, tuple(word)))
        if closure_components(BraidWord(strands, (*word, i))) < before:
            word.append(sign * i)
        elif i not in map(abs, word):
            word += [sign * i, sign * i]
    return BraidWord(strands, tuple(word))


@st.composite
def knot_words(draw, strands=st.integers(1, 6), max_size=14, min_size=None):
    """A random word completed to a knot closure with every generator used
    (:func:`complete_to_knot`).

    The random part has ``min_size`` (by default the strand count) to
    ``max_size`` letters.
    """
    strands = draw(strands)
    if strands == 1:
        return BraidWord(1, ())
    size = strands if min_size is None else min_size
    word = draw(st.lists(letters(strands), min_size=size, max_size=max_size))
    return complete_to_knot(draw, strands, word)


@st.composite
def run_words(draw, strands=st.integers(1, 7), max_runs=5, knot=False):
    """Words built from runs sigma_i^m of 1 to 12 equal letters.

    Up to ``max_runs`` runs are drawn.  Three more runs of RUN - 1, RUN and
    RUN + 1 letters, the first on the fold generator sigma_{n-1}, go in at
    drawn places, so every word crosses the length at which
    ``alexander._burau_columns`` switches to its closed form, on both kinds
    of column update.  With ``knot`` the word is completed to a knot
    (:func:`complete_to_knot`).
    """
    strands = draw(strands)
    if strands == 1:
        return BraidWord(1, ())
    run = st.tuples(letters(strands), st.integers(1, 12))
    runs = draw(st.lists(run, max_size=max_runs))
    fixed = (draw(SIGN) * (strands - 1), draw(letters(strands)), draw(letters(strands)))
    for k, length in zip(fixed, (RUN - 1, RUN, RUN + 1)):
        runs.insert(draw(st.integers(0, len(runs))), (k, length))
    word = [k for k, length in runs for _ in range(length)]
    if knot:
        return complete_to_knot(draw, strands, word)
    return BraidWord(strands, tuple(word))


def words(strands: int, max_size: int):
    """Random words on a fixed strand count, free of any closure condition."""
    return st.lists(letters(strands), max_size=max_size).map(
        lambda word: BraidWord(strands, tuple(word))
    )
