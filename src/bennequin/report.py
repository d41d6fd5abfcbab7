"""Aggregate invariant reports and Bennequin-type defect computations.

For a knot K with maximal self-linking number SL, the three defects are

    delta_4   = (2*g4(K) - 1 - SL) / 2     (slice-Bennequin slack)
    delta_s   = (s(K)  - 1 - SL) / 2       (s-Bennequin slack)
    delta_tau = (2*tau(K) - 1 - SL) / 2    (tau-Bennequin slack)

all nonnegative, and all zero for quasipositive knots, so a positive
defect certifies nonquasipositivity.  One pipeline builds every report,
with one route per quantity: :func:`word_report` runs it on any
knot-closure word, and :func:`family_report` runs it on the built-in
family with the family's certified tau and four-ball genus saddles, then
checks every closed-form identity (delta_4 = 2n while delta_s and
delta_tau stay 0) before returning.  Second routes (the Seifert-route
Alexander polynomial, the twist-chain signature) run only in
:mod:`bennequin.checks` and the tests.

A report stores each fact once: the self-linking number only as
``max_self_linking``, the writhe only as ``exponent_sum``, the bounds on
g4 and tau as one :class:`~bennequin.tau.Interval` type, and the
transverse detectors as the one ``s_bound_sharp`` field, which is None
when s is unknown.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass
from fractions import Fraction

from . import quadform
from .alexander import LaurentPoly, burau_alexander, knot_determinant
from .braid import (
    BraidWord,
    closure_components,
    exponent_sum,
    family_word,
    format_braid,
    self_linking,
)
from .garside import NODE_CAP, SearchBudgetExceeded
from .seifert import MAX_RANK, family_saddles, saddle_genus, seifert_matrix
from .tau import Interval, family_tau
from .threebraid import (
    CANDIDATE_CAP,
    Type1Form,
    family_type1_form,
    s_bound_sharp,
    type1_recognize,
)

NOT_QUASIPOSITIVE = "not_quasipositive"
UNKNOWN = "unknown"

# Knot-table names of the first family closures, recorded but not verified.
FAMILY_TABLE_NAMES = {1: "10_125", 2: "12n235"}


@dataclass(frozen=True)
class MaxSelfLinking:
    """SL value with an explicit flag for the minimal-index assumption.

    The diagram value -strands + writhe always bounds SL from below; it
    equals SL when the word realizes the minimal braid index of its
    closure (by the generalized Jones conjecture), which the caller must
    assert.
    """

    value: int
    assumes_minimal_index: bool


@dataclass(frozen=True)
class SValue:
    value: int
    method: str


@dataclass(frozen=True)
class Defects:
    delta4: Fraction | None
    delta_s: Fraction | None
    delta_tau: Fraction | None


@dataclass(frozen=True)
class InvariantReport:
    name: str
    word: str
    strands: int
    exponent_sum: int
    max_self_linking: MaxSelfLinking
    signature: int
    alexander: LaurentPoly
    determinant: int
    g3_upper: int
    g4: Interval
    s: SValue | None
    tau: Interval
    defects: Defects
    s_bound_sharp: bool | None
    quasipositive_verdict: str


def g4_bounds(sigma: int, upper: int) -> Interval:
    """Four-ball genus bounds: |signature|/2 below, a surface genus above.

    ``upper`` is the genus of a surface the knot bounds, in the three-sphere
    or the four-ball; the caller vouches that it belongs to the same knot
    as the signature.
    """
    lower = math.ceil(abs(sigma) / 2)
    if upper < lower:
        raise ValueError(
            f"inconsistent genus bounds: lower {lower} exceeds upper {upper}"
        )
    return Interval(lower, upper)


def defects(
    sl_max: int,
    g4_exact: int | None = None,
    s: int | None = None,
    tau_exact: int | None = None,
) -> Defects:
    """Defects of the three Bennequin-type inequalities, where computable.

    Each defect needs its ingredient exactly; a negative result signals an
    upstream bug or a false minimal-index assumption and raises.
    """
    values: dict[str, Fraction | None] = {
        "delta4": None,
        "delta_s": None,
        "delta_tau": None,
    }
    if g4_exact is not None:
        values["delta4"] = Fraction(2 * g4_exact - 1 - sl_max, 2)
    if s is not None:
        values["delta_s"] = Fraction(s - 1 - sl_max, 2)
    if tau_exact is not None:
        values["delta_tau"] = Fraction(2 * tau_exact - 1 - sl_max, 2)
    for name, value in values.items():
        if value is not None and value < 0:
            raise ValueError(
                f"negative defect {name} = {value}: upstream invariants are"
                " inconsistent or the minimal-index assumption is false"
            )
    return Defects(values["delta4"], values["delta_s"], values["delta_tau"])


def quasipositive_verdict(d: Defects) -> str:
    """A positive defect rules quasipositivity out; nothing certifies it."""
    for value in (d.delta4, d.delta_s, d.delta_tau):
        if value is not None and value > 0:
            return NOT_QUASIPOSITIVE
    return UNKNOWN


def _check(condition: bool, identity: str) -> None:
    if not condition:
        raise RuntimeError(f"family report identity violated: {identity}")


def _pipeline(
    w: BraidWord,
    name: str,
    assume_minimal_index: bool,
    candidate_cap: int = CANDIDATE_CAP,
    node_cap: int = NODE_CAP,
    saddles: tuple[int, ...] | None = None,
    tau: int | None = None,
    type1_form: Type1Form | None = None,
) -> InvariantReport:
    """Report of a knot-closure word, each stage run once.

    ``saddles`` are the positions of letters whose deletion certifies a
    four-ball surface (:func:`seifert.saddle_genus`), checked on w itself;
    without them the Seifert genus bounds g4 from above.  ``tau``
    is a certified tau; without it tau stays unbounded.  ``type1_form`` is
    a Type-1 form with a verified conjugator onto w; without it a 3-strand
    word is searched for one.
    """
    if closure_components(w) != 1:
        raise ValueError("closure has more than one component")
    word = format_braid(w)
    data = seifert_matrix(w)
    sigma = quadform.seifert_form_diagonalize(data.matrix).signature
    alex = burau_alexander(w)
    g3_upper = data.genus
    g4 = g4_bounds(sigma, g3_upper if saddles is None else saddle_genus(w, saddles))

    s_value: SValue | None = None
    form = type1_form
    if form is None and w.strands == 3:
        try:
            form = type1_recognize(w, candidate_cap=candidate_cap, node_cap=node_cap)
        except SearchBudgetExceeded:
            pass
    if form is not None and form.s_invariant is not None:
        s_value = SValue(form.s_invariant, "type1-writhe")

    sl = self_linking(w)
    # the diagram value is SL only under the minimal-index assumption
    defect_values = defects(
        sl,
        g4_exact=g4.upper if (assume_minimal_index and g4.lower == g4.upper) else None,
        s=s_value.value if (assume_minimal_index and s_value) else None,
        tau_exact=tau if assume_minimal_index else None,
    )
    return InvariantReport(
        name=name or word,
        word=word,
        strands=w.strands,
        exponent_sum=exponent_sum(w),
        max_self_linking=MaxSelfLinking(sl, assume_minimal_index),
        signature=sigma,
        alexander=alex,
        determinant=knot_determinant(alex),
        g3_upper=g3_upper,
        g4=g4,
        s=s_value,
        tau=Interval(tau, tau),
        defects=defect_values,
        s_bound_sharp=None if s_value is None else s_bound_sharp(w, s_value.value),
        quasipositive_verdict=quasipositive_verdict(defect_values),
    )


def family_report(n: int) -> InvariantReport:
    """Full invariant report of the n-th family knot.

    The word pipeline runs with the family's certified inputs: the saddles
    of its four-ball surface (:func:`seifert.family_saddles`, checked on
    the reported word), its propagated tau and its Type-1 form with
    the verified conjugator sigma_2^-1 sigma_1^-2
    (:func:`threebraid.family_type1_form`), which Type-1 recognition
    tries on its first candidate, so no summit search runs;
    :func:`word_report` still searches.  Every closed-form identity the
    family satisfies is then checked on the finished report.
    The second routes to its signature and Alexander polynomial (the
    twist-chain matrices, det(V - tV^T)) run in ``bennequin verify`` and
    the tests, not here.  An n past the Seifert rank cap raises ValueError
    before anything is built.
    """
    rank = 2 * n + 6  # that of family_word(n): 2n + 8 letters on 3 strands
    if rank > MAX_RANK:
        raise ValueError(f"family rank {rank} is more than the limit of {MAX_RANK}")
    w = family_word(n)
    name = f"K{n}"
    if n in FAMILY_TABLE_NAMES:
        name = f"K{n} ({FAMILY_TABLE_NAMES[n]})"
    report = _pipeline(
        w,
        name,
        assume_minimal_index=True,
        saddles=family_saddles(n),
        tau=family_tau(n),
        type1_form=family_type1_form(n),
    )
    sl, s, g4 = report.max_self_linking.value, report.s, report.g4
    _check(sl == -2 * n - 1, "self-linking = -2n-1")
    _check(report.signature == 2 * n, "signature = 2n")
    _check(g4 == Interval(n, n), "four-ball genus = n")
    _check(s is not None and s.value == -2 * n, "s = -2n")
    _check(report.tau == Interval(-n, -n), "tau = -n")
    _check(
        report.defects == Defects(Fraction(2 * n), Fraction(0), Fraction(0)),
        "defects = (2n, 0, 0)",
    )
    _check(
        sl <= s.value - 1 <= 2 * g4.upper - 1 <= 2 * report.g3_upper - 1,
        "self-linking chain",
    )
    _check(report.s_bound_sharp is True, "s-bound sharp")
    return report


def _to_json(value):
    """JSON-ready form of a report value, recursing through dataclass fields.

    A Fraction becomes an int or a "p/q" string, a Laurent polynomial an
    {exponent: coefficient} object with string keys.
    """
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, LaurentPoly):
        return {str(e): c for e, c in value.coeffs}
    if dataclasses.is_dataclass(value):
        return {
            f.name: _to_json(getattr(value, f.name)) for f in dataclasses.fields(value)
        }
    return value


def _from_json(annotation, value):
    """Inverse of :func:`_to_json` for a value of the annotated field type."""
    if value is None:
        return None
    optional = [t for t in typing.get_args(annotation) if t is not type(None)]
    tp = optional[0] if optional else annotation  # ``X | None`` -> X
    if tp is Fraction:
        return Fraction(value)
    if tp is LaurentPoly:
        return LaurentPoly.from_dict({int(e): c for e, c in value.items()})
    if dataclasses.is_dataclass(tp):
        hints = typing.get_type_hints(tp)
        fields = dataclasses.fields(tp)
        return tp(*(_from_json(hints[f.name], value[f.name]) for f in fields))
    return value


def report_to_dict(report: InvariantReport) -> dict:
    """JSON-ready dictionary mirroring the report fields, in field order."""
    return _to_json(report)


def report_from_dict(data: dict) -> InvariantReport:
    """Inverse of :func:`report_to_dict`."""
    return _from_json(InvariantReport, data)


CSV_HEADER = (
    "name,n,SL,sigma,g4_lower,g4_upper,s,tau,delta4,delta_s,delta_tau,verdict"
)


def report_csv_row(report: InvariantReport, n: int | None = None) -> str:
    """One summary line matching :data:`CSV_HEADER`."""

    def frac(value: Fraction | None) -> str:
        json_value = _to_json(value)
        return "" if json_value is None else str(json_value)

    tau = report.tau
    if tau.exact:
        tau_text = str(tau.lower)
    else:
        lo = "-inf" if tau.lower is None else str(tau.lower)
        hi = "+inf" if tau.upper is None else str(tau.upper)
        tau_text = f"{lo}..{hi}"
    name = report.name.replace(",", " ")
    fields = [
        name,
        "" if n is None else str(n),
        str(report.max_self_linking.value),
        str(report.signature),
        str(report.g4.lower),
        str(report.g4.upper),
        "" if report.s is None else str(report.s.value),
        tau_text,
        frac(report.defects.delta4),
        frac(report.defects.delta_s),
        frac(report.defects.delta_tau),
        report.quasipositive_verdict,
    ]
    return ",".join(fields)


def word_report(
    w: BraidWord,
    assume_minimal_index: bool = False,
    candidate_cap: int = CANDIDATE_CAP,
    node_cap: int = NODE_CAP,
) -> InvariantReport:
    """Best-effort report for an arbitrary knot-closure braid word.

    Exact s and tau are only available through the combinatorial rules
    this package implements; outside their reach the fields stay None or
    unbounded and the corresponding defects are omitted.  Defects need SL,
    so they are only computed when the caller asserts the minimal braid
    index (or the diagram value is provably maximal for another reason).
    """
    return _pipeline(w, "", assume_minimal_index, candidate_cap, node_cap)
