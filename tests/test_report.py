"""Defect computations and the aggregated invariant report."""

import json
from dataclasses import replace
from fractions import Fraction

import pytest

from bennequin import checks, garside, report, threebraid
from bennequin.alexander import LaurentPoly
from bennequin.braid import BraidWord, family_word
from bennequin.quadform import congruence_diagonalize
from bennequin.report import (
    CSV_HEADER,
    Defects,
    MaxSelfLinking,
    defects,
    family_report,
    g4_bounds,
    quasipositive_verdict,
    report_csv_row,
    report_from_dict,
    report_to_dict,
    word_report,
)
from bennequin.seifert import MAX_RANK, family_saddles, saddle_genus, twist_chain_matrix
from bennequin.tau import Interval


def test_max_self_linking_flag():
    assert family_report(2).max_self_linking == MaxSelfLinking(-5, True)
    unknot = word_report(BraidWord(1, ()), assume_minimal_index=True)
    assert unknot.max_self_linking == MaxSelfLinking(-1, True)
    stabilized = word_report(BraidWord(4, (1, -2, 3)))  # unknot, SL not maximal
    assert stabilized.max_self_linking == MaxSelfLinking(-3, False)


def test_g4_bounds_pinned_by_surface():
    for n in (1, 2, 7, 100):
        bounds = g4_bounds(2 * n, saddle_genus(family_word(n), family_saddles(n)))
        assert bounds == Interval(n, n)


def test_g4_bounds_unknot_and_fallback():
    assert g4_bounds(0, 0) == Interval(0, 0)
    assert g4_bounds(2, 4) == Interval(1, 4)  # a Seifert genus as the upper bound
    with pytest.raises(ValueError, match="inconsistent"):
        g4_bounds(6, 0)


def test_defects_family_values():
    for n in (1, 2, 4):
        result = defects(-2 * n - 1, g4_exact=n, s=-2 * n, tau_exact=-n)
        assert result == Defects(Fraction(2 * n), Fraction(0), Fraction(0))


def test_defects_unknot_and_positive_trefoil():
    assert defects(-1, 0, 0, 0) == Defects(Fraction(0), Fraction(0), Fraction(0))
    assert defects(1, 1, 2, 1) == Defects(Fraction(0), Fraction(0), Fraction(0))


def test_defects_partial_inputs():
    result = defects(-3, g4_exact=None, s=-2, tau_exact=None)
    assert result.delta4 is None
    assert result.delta_s == 0
    assert result.delta_tau is None


def test_negative_defect_raises():
    with pytest.raises(ValueError, match="negative defect"):
        defects(1, g4_exact=0)


def test_quasipositive_verdict():
    assert quasipositive_verdict(defects(-3, 1, -2, -1)) == "not_quasipositive"
    assert quasipositive_verdict(defects(-1, 0, 0, 0)) == "unknown"
    assert quasipositive_verdict(defects(-1)) == "unknown"


def test_family_report_first_knot():
    report = family_report(1)
    assert report.name == "K1 (10_125)"
    assert report.strands == 3
    assert report.exponent_sum == 0
    assert report.max_self_linking == MaxSelfLinking(-3, True)
    assert report.signature == 2
    assert report.determinant == 11
    assert report.g3_upper == 4
    assert report.g4 == Interval(1, 1)
    assert report.s is not None and report.s.value == -2
    assert report.tau == Interval(-1, -1)
    assert report.defects == Defects(Fraction(2), Fraction(0), Fraction(0))
    assert report.s_bound_sharp is True
    assert report.quasipositive_verdict == "not_quasipositive"


def test_family_report_growth():
    report = family_report(4)
    assert report.defects == Defects(Fraction(8), Fraction(0), Fraction(0))
    assert report.signature == 8
    assert report.s.value == -8
    assert report.tau == Interval(-4, -4)
    assert report.name == "K4"


def test_family_report_second_knot_label():
    assert family_report(2).name == "K2 (12n235)"


def test_family_report_deep_signature_cross_check():
    # the algorithmic surface against the twist chain of the reduced surface
    chain = congruence_diagonalize(twist_chain_matrix(19))
    assert family_report(10).signature == chain.signature == 20


def test_defect_growth_check_compares_the_seifert_route(monkeypatch):
    # family_report takes the Burau route only; the registry holds the oracle
    wrong = LaurentPoly.from_dict({0: 1})
    monkeypatch.setattr(checks, "alexander_from_seifert", lambda v: wrong)
    with pytest.raises(checks.CheckFailed, match="Seifert-route Alexander of K1"):
        checks._defect_growth(1, checks.SEED)


def test_word_problem_check_compares_exponent_sums(monkeypatch):
    # Delta^4 has the empty word's SL(2, Z) image; only its exponent sum, 12,
    # tells it from the empty word
    pair = (BraidWord(3, (1, 2) * 6), BraidWord(3, ()))
    monkeypatch.setattr(checks, "word_pairs", lambda rng, count: [pair])
    assert checks._word_problem(1, checks.SEED).startswith("normal forms agree")
    monkeypatch.setattr(checks, "words_equal", lambda w1, w2: True)
    with pytest.raises(checks.CheckFailed, match="normal forms on '1 2 1 2"):
        checks._word_problem(1, checks.SEED)


def test_family_report_runs_no_summit_search(monkeypatch):
    # the family's Type-1 form comes from its verified closed-form conjugator
    def refuse(*args, **kwargs):
        raise AssertionError("family_report searched for a Type-1 form")

    monkeypatch.setattr(report, "type1_recognize", refuse)
    monkeypatch.setattr(garside, "_summit", refuse)
    for n in range(1, 19):
        result = family_report(n)
        assert result.s == report.SValue(-2 * n, "type1-writhe")


def test_family_report_builds_no_normal_form(monkeypatch):
    # the family's 3-strand certificate is checked through its SL(2, Z) image
    def refuse(*args, **kwargs):
        raise AssertionError("family_report built a Garside normal form")

    monkeypatch.setattr(garside, "normal_form", refuse)
    for n in range(1, 19):
        result = family_report(n)
        assert result.s == report.SValue(-2 * n, "type1-writhe")


def test_family_report_refuses_a_wrong_conjugator(monkeypatch):
    monkeypatch.setattr(threebraid, "FAMILY_CONJUGATOR", (-2, -1))
    with pytest.raises(RuntimeError, match="conjugator fails verification for K2"):
        family_report(2)


def test_family_report_checks_its_saddles_on_the_reported_word(monkeypatch):
    # the saddles of K3 leave sigma_1^-2 sigma_2 sigma_1^2 sigma_2 of the K2 word
    monkeypatch.setattr(report, "family_saddles", lambda n: family_saddles(n + 1))
    with pytest.raises(ValueError, match="exactly once"):
        family_report(2)


def test_family_report_refuses_ranks_past_the_cap_before_building(monkeypatch):
    def built(*args):
        raise AssertionError("built past the cap")

    for name in ("family_word", "family_saddles", "family_tau", "family_type1_form"):
        monkeypatch.setattr(report, name, built)
    with pytest.raises(ValueError, match=f"rank 1002 is more than the limit of {MAX_RANK}"):
        family_report(498)


def test_s_invariant_check_compares_the_search_with_the_closed_form(monkeypatch):
    def other_blocks(n):
        return replace(threebraid.family_type1_form(n), blocks=((1, 2 * n + 3),))

    with monkeypatch.context() as patch:
        patch.setattr(checks, "family_type1_form", other_blocks)
        with pytest.raises(checks.CheckFailed, match=r"Type-1 form \(d, blocks\) of K1"):
            checks._s_invariant(1, checks.SEED)

    def wrong_conjugator(w):
        form = threebraid.type1_recognize(w)
        return replace(form, certificate=garside.ConjugacyCertificate(w))

    monkeypatch.setattr(checks, "type1_recognize", wrong_conjugator)
    with pytest.raises(checks.CheckFailed, match="Type-1 conjugator of K1"):
        checks._s_invariant(1, checks.SEED)


def test_identity_check_error_names_the_identity():
    from bennequin.report import _check

    with pytest.raises(RuntimeError, match="identity violated: tau = -n"):
        _check(False, "tau = -n")


def test_inequality_chain():
    for n in (1, 2, 3):
        report = family_report(n)
        sl_max = report.max_self_linking.value
        s = report.s.value
        assert sl_max == s - 1  # s-bound sharp
        assert sl_max == 2 * report.tau.lower - 1  # tau-bound sharp
        assert s - 1 <= 2 * report.g4.upper - 1
        assert 2 * report.g4.upper - 1 <= 2 * report.g3_upper - 1
        assert (2 * report.g4.upper - 1 - sl_max) == 4 * n


def test_report_json_round_trip():
    family = family_report(2)
    unknown = word_report(BraidWord(2, (1, 1, 1)))  # s, tau and defects missing
    halves = replace(family, defects=Defects(Fraction(5, 2), None, Fraction(-1, 2)))
    for report in (family, unknown, halves):
        payload = json.dumps(report_to_dict(report), sort_keys=True)
        assert report_from_dict(json.loads(payload)) == report
    assert report_to_dict(halves)["defects"]["delta4"] == "5/2"


def test_report_csv_row():
    row = report_csv_row(family_report(1), 1)
    assert CSV_HEADER.count(",") == row.count(",")
    fields = row.split(",")
    assert fields[0] == "K1 (10_125)"
    assert fields[1] == "1"
    assert fields[2] == "-3"
    assert fields[-1] == "not_quasipositive"


def test_word_report_trefoil():
    report = word_report(BraidWord(2, (1, 1, 1)))
    assert report.signature == -2
    assert report.s is None
    assert report.tau == Interval(None, None)
    assert report.defects == Defects(None, None, None)
    assert report.quasipositive_verdict == "unknown"
    assert not report.max_self_linking.assumes_minimal_index


def test_unknown_s_states_no_sharpness():
    # the positive trefoil's psi is nonzero, but without s nothing is claimed
    trefoil = word_report(BraidWord(2, (1, 1, 1)))
    four_strand = word_report(BraidWord(4, (1, -2, 3)))
    for report in (trefoil, four_strand):
        assert report.s is None
        assert report.s_bound_sharp is None
        assert report_to_dict(report)["s_bound_sharp"] is None


def test_word_report_family_word_with_assumption():
    report = word_report(family_word(1), assume_minimal_index=True)
    assert report.s is not None and report.s.value == -2
    assert report.defects.delta_s == 0
    assert report.defects.delta4 is None  # genus bounds not pinned without a surface
    assert report.s_bound_sharp is True
    json.dumps(report_to_dict(report))


def test_word_report_rejects_links():
    with pytest.raises(ValueError, match="component"):
        word_report(BraidWord(2, (1, 1)))
