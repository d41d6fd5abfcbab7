"""Hypothesis strategies shared by the property suites."""

from hypothesis import strategies as st

from bennequin.braid import BraidWord, closure_components

SIGN = st.sampled_from((1, -1))


def letters(strands: int):
    """One signed generator index on the given strand count."""
    return st.builds(lambda s, i: s * i, SIGN, st.integers(1, strands - 1))


@st.composite
def knot_words(draw, strands=st.integers(1, 6), max_size=14, min_size=None):
    """A random word completed to a knot closure with every generator used.

    A letter sigma_i^{+-1} is appended wherever it merges two closure
    components, and sigma_i^{+-2} wherever generator i is still unused.
    The random part has ``min_size`` (by default the strand count) to
    ``max_size`` letters.
    """
    strands = draw(strands)
    if strands == 1:
        return BraidWord(1, ())
    size = strands if min_size is None else min_size
    word = draw(st.lists(letters(strands), min_size=size, max_size=max_size))
    for i in range(1, strands):
        sign = draw(SIGN)
        before = closure_components(BraidWord(strands, tuple(word)))
        if closure_components(BraidWord(strands, (*word, i))) < before:
            word.append(sign * i)
        elif i not in map(abs, word):
            word += [sign * i, sign * i]
    return BraidWord(strands, tuple(word))


def words(strands: int, max_size: int):
    """Random words on a fixed strand count, free of any closure condition."""
    return st.lists(letters(strands), max_size=max_size).map(
        lambda word: BraidWord(strands, tuple(word))
    )
