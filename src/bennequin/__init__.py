"""Braid-closure knot invariants and Bennequin-type defect computations."""

from .braid import (
    BraidWord,
    ParseError,
    closure_components,
    closure_permutation,
    exponent_sum,
    family_word,
    format_braid,
    free_reduce,
    parse_braid,
    self_linking,
    sl2_image,
)
from .garside import (
    ConjugacyCertificate,
    GarsideNormalForm,
    SearchBudgetExceeded,
    conjugacy_decide,
    normal_form,
    verify_certificate,
    words_equal,
)
from .quadform import (
    CongruenceDiagnosis,
    congruence_diagonalize,
    knot_signature,
)
from .report import InvariantReport, defects, family_report, quasipositive_verdict
from .seifert import SeifertData, saddle_genus, seifert_matrix, twist_chain_matrix
from .tau import Interval, TauConstraintGraph, family_tau, propagate, torus_knot_tau
from .threebraid import Type1Form, s_bound_sharp, type1_recognize

__version__ = "0.1.0"

__all__ = [
    "BraidWord",
    "CongruenceDiagnosis",
    "ConjugacyCertificate",
    "GarsideNormalForm",
    "Interval",
    "InvariantReport",
    "ParseError",
    "SearchBudgetExceeded",
    "SeifertData",
    "TauConstraintGraph",
    "Type1Form",
    "closure_components",
    "closure_permutation",
    "congruence_diagonalize",
    "conjugacy_decide",
    "defects",
    "exponent_sum",
    "family_report",
    "family_tau",
    "family_word",
    "format_braid",
    "free_reduce",
    "knot_signature",
    "normal_form",
    "parse_braid",
    "propagate",
    "quasipositive_verdict",
    "s_bound_sharp",
    "saddle_genus",
    "seifert_matrix",
    "self_linking",
    "sl2_image",
    "torus_knot_tau",
    "twist_chain_matrix",
    "type1_recognize",
    "verify_certificate",
    "words_equal",
]
