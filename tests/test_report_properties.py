"""Properties of reports and conjugacy certificates on generated words.

Reports survive a JSON round trip exactly, on random knot closures and on
conjugated Type-1 forms, which carry s and a defect delta_s.  A knot's
self-linking number is odd, so its defects are whole Fractions; the round
trip must give them back as Fractions, not ints.  The g4 and tau bounds
share one interval type, and a report states s-bound sharpness exactly
when it knows s.  Conjugacy certificates
verify for random conjugates on 3 and 4 strands.
"""

import json

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bennequin.braid import closure_components, free_reduce
from bennequin.garside import conjugacy_decide, verify_certificate
from bennequin.report import report_from_dict, report_to_dict, word_report
from bennequin.tau import Interval
from bennequin.threebraid import type1_word
from oracles import conjugate
from strategies import knot_words, words

# fixed examples and no example database, so every run checks the same words
PROPERTY = settings(derandomize=True, database=None, max_examples=40, deadline=None)
# each report runs the whole pipeline, the Type-1 search included
REPORTS = settings(PROPERTY, max_examples=20)


@st.composite
def type1_conjugates(draw):
    """A Type-1 form with some a_i > 0, conjugated, whose closure is a knot.

    The form has d = 1 and b_i <= 2: the search tests every d = 1 candidate
    before any d = 2 one, and its cost grows steeply with sum(b_i).
    """
    block = st.tuples(st.integers(1, 2), st.integers(0, 3))
    blocks = draw(st.lists(block, min_size=1, max_size=2))
    assume(any(a > 0 for _, a in blocks))
    form = type1_word(1, blocks)
    assume(closure_components(form) == 1)
    return free_reduce(conjugate(form, draw(words(3, 4))))


def assert_round_trips(report):
    back = report_from_dict(json.loads(json.dumps(report_to_dict(report))))
    assert back == report
    assert repr(back) == repr(report)
    assert type(back.g4) is type(back.tau) is Interval


def assert_sharpness_needs_s(report):
    assert (report.s_bound_sharp is None) == (report.s is None)


@REPORTS
@given(knot_words(st.sampled_from((2, 4, 5, 6)), max_size=24), st.booleans())
def test_knot_reports_round_trip(w, assume_minimal_index):
    report = word_report(w, assume_minimal_index=assume_minimal_index)
    assert_sharpness_needs_s(report)
    assert_round_trips(report)


# a generic 3-braid runs the whole bounded Type-1 search, whose cost grows
# steeply with the length: up to 0.4 s at 10 letters, which is as long as
# these words get once completion adds its at most 4 letters
@REPORTS
@given(knot_words(st.just(3), max_size=6, min_size=4), st.booleans())
def test_three_strand_reports_round_trip(w, assume_minimal_index):
    report = word_report(w, assume_minimal_index=assume_minimal_index)
    assert_sharpness_needs_s(report)
    assert_round_trips(report)


@settings(REPORTS, max_examples=8)
@given(type1_conjugates(), st.booleans())
def test_type1_reports_round_trip(w, assume_minimal_index):
    report = word_report(w, assume_minimal_index=assume_minimal_index)
    assert report.s is not None
    assert report.s.value == report.exponent_sum - 2
    # Martin's rule makes the s-bound sharp on the diagram
    assert report.s_bound_sharp is True
    expected = 0 if assume_minimal_index else None
    assert report.defects.delta_s == expected
    assert_round_trips(report)


@st.composite
def conjugate_pairs(draw):
    strands, length = draw(st.sampled_from(((3, 14), (4, 8))))
    w = draw(words(strands, length))
    return w, free_reduce(conjugate(w, draw(words(strands, 4))))


@PROPERTY
@given(conjugate_pairs())
def test_certificates_verify_for_random_conjugates(pair):
    w, moved = pair
    cert = conjugacy_decide(w, moved)
    assert cert is not None
    assert verify_certificate(w, moved, cert.conjugator)
