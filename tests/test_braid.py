"""Braid word parsing, printing, and diagram-level invariants."""

import random
import tracemalloc

import pytest

from bennequin.braid import (
    MAX_LETTERS,
    BraidWord,
    ParseError,
    closure_components,
    closure_permutation,
    exponent_sum,
    family_word,
    format_braid,
    free_reduce,
    inverse_word,
    parse_braid,
    self_linking,
    sl2_image,
)
from bennequin.threebraid import type1_word
from oracles import conjugate, cyclic_shift, mirror, random_words, word_cycle_count


def test_parse_caret_expansion():
    w = parse_braid("-1^5 2 1^3 2", strands=3)
    assert w.letters == (-1, -1, -1, -1, -1, 2, 1, 1, 1, 2)
    assert w == family_word(1)


def test_parse_empty_is_trivial_braid():
    w = parse_braid("", strands=1)
    assert w.letters == ()
    assert w.strands == 1


def test_parse_accepts_commas_and_plus_signs():
    assert parse_braid("+1, -2, 1", strands=3).letters == (1, -2, 1)


@pytest.mark.parametrize(
    "text, strands, fragment",
    [
        ("3", 3, "out of range"),
        ("0", 2, "index 0"),
        ("1^0", 2, "must be >= 1"),
        ("1^", 2, "not a signed integer"),
        ("x", 2, "not a signed integer"),
        ("1^-2", 2, "not a signed integer"),
        ("1", 0, "at least one strand"),
    ],
)
def test_parse_errors_are_distinct(text, strands, fragment):
    with pytest.raises(ParseError, match=fragment):
        parse_braid(text, strands)


def test_parse_letter_limit():
    assert len(parse_braid(f"1^{MAX_LETTERS}", strands=2)) == MAX_LETTERS
    with pytest.raises(ParseError, match="letter limit"):
        parse_braid(f"-1 1^{MAX_LETTERS}", strands=2)
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="letter limit"):
            parse_braid("1^1000000000", strands=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6  # rejected before any expansion


def test_parse_long_digit_runs_and_non_ascii_digits():
    # past CPython's 4,300-digit limit of int(), which counts leading zeros
    huge = "9" * 5000
    with pytest.raises(ParseError, match="generator index in '9+' has more than 6"):
        parse_braid(huge, strands=3)
    with pytest.raises(ParseError, match=r"repetition count in '1\^9+' exceeds"):
        parse_braid(f"1^{huge}", strands=3)
    zeros = "0" * 5000
    assert parse_braid(f"-{zeros}2 1^{zeros}3", strands=3).letters == (-2, 1, 1, 1)
    for text in ("１", "1^３", "-２"):  # fullwidth digits
        with pytest.raises(ParseError, match="not a signed integer"):
            parse_braid(text, strands=3)


def test_print_parse_round_trip():
    rng = random.Random(11)
    for w in random_words(rng, 50, strands=4, max_len=10):
        assert parse_braid(format_braid(w), w.strands) == w


def test_braid_word_validation():
    with pytest.raises(ValueError):
        BraidWord(0, ())
    with pytest.raises(ValueError):
        BraidWord(2, (0,))
    with pytest.raises(ValueError):
        BraidWord(2, (2,))


def test_exponent_sum():
    assert exponent_sum(family_word(1)) == 0
    assert exponent_sum(BraidWord(1, ())) == 0
    assert exponent_sum(BraidWord(2, (1, 1, 1))) == 3
    for n in (1, 3, 7):
        assert exponent_sum(family_word(n)) == 2 - 2 * n
        assert exponent_sum(type1_word(1, ((1, 2 * n + 5),))) == 2 - 2 * n


def test_self_linking_examples():
    assert self_linking(BraidWord(1, ())) == -1
    assert self_linking(BraidWord(2, (1, 1, 1))) == 1
    for n in (1, 2, 5, 40):
        assert self_linking(family_word(n)) == -2 * n - 1


def test_closure_components_basics():
    assert closure_components(BraidWord(3, ())) == 3
    assert closure_components(BraidWord(2, (1,))) == 1
    assert closure_components(BraidWord(2, (1, 1))) == 2


def test_closure_permutation_is_bijection_and_matches_direct_count():
    rng = random.Random(5)
    for w in random_words(rng, 80, strands=4, max_len=12):
        image = closure_permutation(w).image
        assert sorted(image) == list(range(1, w.strands + 1))
        assert closure_components(w) == word_cycle_count(w.letters, w.strands)


def test_family_words_are_knots():
    for n in range(1, 101):
        assert closure_components(family_word(n)) == 1


def test_family_letter_sequences():
    assert family_word(1).letters == (-1, -1, -1, -1, -1, 2, 1, 1, 1, 2)
    with pytest.raises(ValueError):
        family_word(0)


def test_free_reduce():
    assert free_reduce(BraidWord(2, (1, -1))).letters == ()
    assert free_reduce(BraidWord(3, (2, 1, -1, -2, 2))).letters == (2,)
    w = BraidWord(3, (1, 2, -2, -1, 1))
    assert free_reduce(free_reduce(w)) == free_reduce(w)


def test_cyclic_shift():
    w = BraidWord(3, (-1, 2, 1))
    assert cyclic_shift(w, 1).letters == (2, 1, -1)
    assert cyclic_shift(w, 3) == w
    assert cyclic_shift(BraidWord(3, ()), 2).letters == ()


def test_mirror_negates():
    w = BraidWord(3, (1, -2, 1))
    assert mirror(w).letters == (-1, 2, -1)
    assert mirror(mirror(w)) == w


def test_conjugate_strand_mismatch():
    with pytest.raises(ValueError):
        conjugate(BraidWord(2, (1,)), BraidWord(3, (1,)))


def test_moves_preserve_closure_invariants():
    rng = random.Random(99)
    for _ in range(60):
        w = random_words(rng, 1, strands=3, max_len=10)[0]
        c = random_words(rng, 1, strands=3, max_len=6)[0]
        moved = conjugate(w, c)
        assert exponent_sum(moved) == exponent_sum(w)
        assert closure_components(moved) == closure_components(w)
        assert self_linking(moved) == self_linking(w)
        shifted = cyclic_shift(w, rng.randint(0, 10))
        assert exponent_sum(shifted) == exponent_sum(w)
        assert closure_components(shifted) == closure_components(w)
        reduced = free_reduce(w)
        assert exponent_sum(reduced) == exponent_sum(w)
        assert closure_components(reduced) == closure_components(w)


def test_sl2_image_of_letters_runs_and_the_half_twist():
    assert sl2_image(BraidWord(1)) == (1, 0, 0, 1)
    assert sl2_image(BraidWord(3, (1,))) == (1, 1, 0, 1)
    assert sl2_image(BraidWord(3, (2,))) == (1, 0, -1, 1)
    assert sl2_image(BraidWord(2, (-1,) * 7)) == (1, -7, 0, 1)
    assert sl2_image(BraidWord(3, (2,) * 5)) == (1, 0, -5, 1)
    half_twist = (0, 1, -1, 0)
    assert sl2_image(BraidWord(3, (1, 2, 1))) == sl2_image(BraidWord(3, (2, 1, 2)))
    assert sl2_image(BraidWord(3, (2, 1, 2))) == half_twist
    assert sl2_image(BraidWord(3, (1, 2, 1) * 2)) == (-1, 0, 0, -1)
    assert sl2_image(BraidWord(3, (1, 2, 1) * 4)) == (1, 0, 0, 1)
    with pytest.raises(ValueError, match="at most 3 strands"):
        sl2_image(BraidWord(4, (1,)))


def test_sl2_image_is_a_homomorphism():
    rng = random.Random(97)
    for strands in (2, 3):
        for w, v in zip(*(random_words(rng, 20, strands, 12) for _ in "wv")):
            (a, b, c, d), (e, f, g, h) = sl2_image(w), sl2_image(v)
            product = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
            assert sl2_image(BraidWord(strands, w.letters + v.letters)) == product
            assert a * d - b * c == 1
            inverse = sl2_image(inverse_word(w))
            assert inverse == (d, -b, -c, a)


def test_inverse_word():
    w = BraidWord(3, (1, -2, 2, 1))
    assert inverse_word(w).letters == (-1, -2, 2, -1)
    assert free_reduce(BraidWord(3, w.letters + inverse_word(w).letters)).letters == ()


def test_words_are_immutable():
    w = BraidWord(3, (1, 2))
    with pytest.raises(AttributeError):
        w.letters = (1,)
