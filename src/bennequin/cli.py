"""Command-line front end.

Subcommands::

    parse       echo a braid word in canonical form
    invariants  full report for a knot-closure braid word
    seifert     Seifert matrix of a knot closure (CSV or JSON)
    alexander   Alexander polynomial as exponent:coefficient pairs
    signature   exact signature/nullity/determinant of a matrix file
    conj        decide conjugacy of two words, printing a verified conjugator
    tau         propagate a tau constraint graph from a JSON file
    family      report for the n-th built-in family knot
    verify      run the whole identity suite up to a family index

Exit codes: 0 success, 1 usage error, 2 computation error, 3 verification
failure.  Braid text is whitespace-separated signed generator indices with
optional k^m repetition; the strand count is always passed explicitly.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import asdict
from fractions import Fraction

from . import checks, quadform
from .alexander import burau_alexander
from .braid import BraidWord, ParseError, format_braid, parse_braid
from .garside import NODE_CAP, conjugacy_decide, verify_certificate
from .report import (
    CSV_HEADER,
    family_report,
    report_csv_row,
    report_to_dict,
    word_report,
)
from .seifert import seifert_matrix
from .tau import graph_from_dict, propagate
from .threebraid import CANDIDATE_CAP

USAGE_ERROR = 1
COMPUTATION_ERROR = 2
VERIFICATION_FAILURE = 3

# Largest matrix ``signature`` reads.  Exact diagonalization costs about
# size**3 operations on integers that grow with the size: a dense 100x100
# form with entries in -4..4 took 0.23 to 0.27 s, read and diagonalized, on
# a 2-core x86-64 host under CPython 3.11, a 50x50 one 0.03 to 0.05 s.
MAX_MATRIX_SIZE = 100
# The most a matrix file may hold: the size line and MAX_MATRIX_SIZE**2
# entries, each up to 31 characters and a separator.  Nothing past it is read.
MAX_MATRIX_BYTES = 32 * (MAX_MATRIX_SIZE**2 + 1)
# The most denominator bits a matrix file may hold, summed over its entries:
# a denominator q > 1 counts q.bit_length() bits, an integer entry none.
# Each row is scaled by the lcm of its denominators, and the integers of the
# elimination carry those factors.  On the host above, one 256-bit
# denominator at (1,1) of a dense 100x100 form took 0.7 s (1.5 to 1.6 s at
# 512 bits), the slowest shape measured; a 30x30 form with a distinct prime
# denominator at every entry (9,421 bits) took 0.5 to 0.7 s, a 45x45 one 9.5
# to 11 s.
MAX_DENOMINATOR_BITS = 256
# The most digits one matrix entry may have: the digits written in it plus
# the magnitude of its decimal exponent ("-12e3" counts 3 + 3 = 6), checked
# before any entry is converted.  Without it "1e1000000000" would expand to
# a 415 MB integer, and an entry of more than 4,300 digits would fail in
# CPython 3.10.7 and later with advice meant for programs
# (sys.set_int_max_str_digits), yet be read by older interpreters.  The
# cap is that same 4,300, so every interpreter reads the same files.
MAX_ENTRY_DIGITS = 4300
# The most integer work a matrix file may ask of the diagonalization, as
# estimated by quadform.elimination_work: squared entry bits summed over the
# updates that can be nonzero.  Entry bits alone bound nothing: one 4,096-bit
# entry in a dense 100x100 form of -4..4 took 14 to 15 s, while the 100x100
# diagonal of 10**44 (14,700 bits) takes 0.1 s.  On the host above the
# slowest shapes at this cap took 0.5 to 0.9 s: one 680-bit entry at (1,1)
# of a dense 100x100 form of -4..4, or one 341-bit pair at (1,2); dense
# forms of 22-bit (100x100), 143-bit (50x50) and 508-bit (30x30) entries;
# an arrow of 22-bit diagonal entries.  The dense form of 30-digit entries
# estimates 3.7e12 (8.2 to 8.8 s), the diagonal of 10**44 2.0e11 and the
# dense -4..4 form 1.7e10.
MAX_ELIMINATION_WORK = 250 * 10**9
# Largest tau graph file, nodes and edges ``tau`` reads.  Propagation is two
# Dijkstra searches: on the host above, a 500-node chain listed head first,
# its one known tau at the tail, propagates in 2 to 3 ms (1,000 nodes: 4 ms),
# and ``tau`` on that file takes 0.10 to 0.15 s, mostly interpreter start.
MAX_TAU_BYTES = 64 * 1024
MAX_TAU_NODES = 500
MAX_TAU_EDGES = 500


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # braid words like "-1^5 2 1^3 2" are positionals, not option flags
        self._negative_number_matcher = re.compile(r"^-\d")

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"usage error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


def _positive_int(text: str) -> int:
    """argparse type for counts and caps: a bad value is a usage error."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bennequin", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_word_options(p):
        p.add_argument("word", help="braid word text, e.g. '-1^5 2 1^3 2'")
        p.add_argument("--strands", type=int, required=True)

    p = sub.add_parser("parse", help="echo a braid word in canonical form")
    add_word_options(p)

    p = sub.add_parser("invariants", help="invariant report for a knot closure")
    add_word_options(p)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")
    p.add_argument(
        "--assume-minimal-index",
        action="store_true",
        help="treat the diagram self-linking as maximal (enables defects)",
    )
    p.add_argument("--candidate-cap", type=_positive_int, default=CANDIDATE_CAP)
    p.add_argument("--node-cap", type=_positive_int, default=NODE_CAP)

    p = sub.add_parser("seifert", help="Seifert matrix of a knot closure")
    add_word_options(p)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = sub.add_parser("alexander", help="Alexander polynomial of a knot closure")
    add_word_options(p)

    p = sub.add_parser("signature", help="signature of a symmetric matrix file")
    p.add_argument("matrix_file", help="first line n, then n rows of n entries")

    p = sub.add_parser("conj", help="decide conjugacy of two braid words")
    p.add_argument("word1")
    p.add_argument("word2")
    p.add_argument("--strands", type=int, required=True)
    p.add_argument("--node-cap", type=_positive_int, default=NODE_CAP)

    p = sub.add_parser("tau", help="propagate a tau constraint graph")
    p.add_argument("graph_file", help="JSON: {nodes: [{name, tau?}], edges: [[a,b]]}")

    p = sub.add_parser("family", help="report for the n-th family knot")
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--format", choices=("json", "csv", "text"), default="text")

    p = sub.add_parser("verify", help="check the family identity suite")
    p.add_argument("--max-n", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, default=checks.SEED)
    p.add_argument("--format", choices=("json", "text"), default="text")
    return parser


def _print_report(report, fmt: str, n: int | None = None) -> None:
    if fmt == "json":
        print(json.dumps(report_to_dict(report), sort_keys=True))
    elif fmt == "csv":
        print(CSV_HEADER)
        print(report_csv_row(report, n))
    else:
        for key, value in report_to_dict(report).items():
            print(f"{key}: {value}")


def _cmd_parse(args) -> int:
    print(format_braid(parse_braid(args.word, args.strands)))
    return 0


def _knot_word(args) -> BraidWord:
    """The parsed word of a command that needs a knot closure.

    A knot closure on n strands needs at least n - 1 letters, since its
    permutation is one n-cycle, so a larger strand count is refused here,
    before any strand is tracked: a count in the millions would otherwise
    build lists that size.
    """
    w = parse_braid(args.word, args.strands)
    if w.strands > len(w.letters) + 1:
        raise ValueError(
            f"a knot closure on {w.strands} strands needs at least"
            f" {w.strands - 1} letters, got {len(w.letters)}"
        )
    return w


def _cmd_invariants(args) -> int:
    w = _knot_word(args)
    report = word_report(
        w,
        assume_minimal_index=args.assume_minimal_index,
        candidate_cap=args.candidate_cap,
        node_cap=args.node_cap,
    )
    _print_report(report, args.format)
    return 0


def _cmd_seifert(args) -> int:
    w = _knot_word(args)
    matrix = seifert_matrix(w).matrix
    if args.format == "json":
        print(json.dumps([list(row) for row in matrix]))
    else:
        for row in matrix:
            print(",".join(str(x) for x in row))
    return 0


def _cmd_alexander(args) -> int:
    w = _knot_word(args)
    print(burau_alexander(w))
    return 0


def _read_matrix(path: str) -> list[list[Fraction]]:
    with open(path, "rb") as handle:
        data = handle.read(MAX_MATRIX_BYTES + 1)
    if len(data) > MAX_MATRIX_BYTES:
        raise ValueError(f"matrix file exceeds {MAX_MATRIX_BYTES} bytes")
    tokens = data.decode("utf-8").split()
    if not tokens:
        raise ValueError("matrix file is empty")
    size = int(tokens[0])
    if not 0 <= size <= MAX_MATRIX_SIZE:
        raise ValueError(
            f"matrix size must be between 0 and {MAX_MATRIX_SIZE}, got {size}"
        )
    entries = tokens[1:]
    if len(entries) != size * size:
        raise ValueError(
            f"expected {size * size} entries for a {size}x{size} matrix,"
            f" found {len(entries)}"
        )
    for index, tok in enumerate(entries):
        digits = _entry_digits(tok)
        if digits > MAX_ENTRY_DIGITS:
            row, col = divmod(index, size)
            raise ValueError(
                f"matrix entry ({row + 1},{col + 1}) has {digits} digits,"
                f" more than the limit of {MAX_ENTRY_DIGITS}"
            )
    values = [Fraction(tok) for tok in entries]
    bits = sum(x.denominator.bit_length() for x in values if x.denominator != 1)
    if bits > MAX_DENOMINATOR_BITS:
        raise ValueError(
            f"matrix denominators total {bits} bits,"
            f" more than the limit of {MAX_DENOMINATOR_BITS}"
        )
    rows = [values[i * size : (i + 1) * size] for i in range(size)]
    work = quadform.elimination_work(rows)
    if work > MAX_ELIMINATION_WORK:
        raise ValueError(
            f"matrix elimination is estimated at {work} squared bits,"
            f" more than the limit of {MAX_ELIMINATION_WORK}"
        )
    return rows


def _entry_digits(tok: str) -> int:
    """Digits written in a matrix entry plus the magnitude of its exponent."""
    digits = sum(map(str.isdigit, tok))
    _, e, exponent = tok.lower().partition("e")
    if e and digits <= MAX_ENTRY_DIGITS:  # short enough for int() anywhere
        try:
            digits += abs(int(exponent))
        except ValueError:
            pass  # not a number; Fraction reports it
    return digits


def _cmd_signature(args) -> int:
    matrix = _read_matrix(args.matrix_file)
    diag = quadform.congruence_diagonalize(matrix)
    print(
        f"signature: {diag.signature}\n"
        f"nullity: {diag.nullity}\n"
        f"determinant: {_unlimited_str(diag.determinant)}"
    )
    return 0


def _unlimited_str(value) -> str:
    """``str(value)`` past the interpreter's digit limit for int conversion.

    The matrix file caps already bound a determinant's size, but a valid file
    can give it more digits than CPython (3.10.7 and later) converts by
    default.  The limit is lifted for this one conversion, then restored.
    """
    if not hasattr(sys, "get_int_max_str_digits"):  # no limit to lift
        return str(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(value)
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_conj(args) -> int:
    w1 = parse_braid(args.word1, args.strands)
    w2 = parse_braid(args.word2, args.strands)
    cert = conjugacy_decide(w1, w2, node_cap=args.node_cap)
    if cert is None:
        print("not conjugate")
        return 0
    conjugator = format_braid(cert.conjugator) or "(empty)"
    if not verify_certificate(w1, w2, cert.conjugator):
        print(f"error: conjugator {conjugator} fails verification", file=sys.stderr)
        return VERIFICATION_FAILURE
    print("conjugate")
    print(f"conjugator: {conjugator}")
    return 0


def _cmd_tau(args) -> int:
    with open(args.graph_file, "rb") as handle:
        data = handle.read(MAX_TAU_BYTES + 1)
    if len(data) > MAX_TAU_BYTES:
        raise ValueError(f"tau graph file exceeds {MAX_TAU_BYTES} bytes")
    graph = graph_from_dict(json.loads(data))
    if len(graph.nodes) > MAX_TAU_NODES or len(graph.edges) > MAX_TAU_EDGES:
        raise ValueError(
            f"tau graph has more than the limits of {MAX_TAU_NODES} nodes"
            f" or {MAX_TAU_EDGES} edges"
        )
    intervals = {name: asdict(iv) for name, iv in propagate(graph).items()}
    print(json.dumps(intervals, sort_keys=True))
    return 0


def _cmd_family(args) -> int:
    report = family_report(args.n)
    _print_report(report, args.format, args.n)
    return 0


def _cmd_verify(args) -> int:
    results = checks.run_checks(args.max_n, seed=args.seed)
    if args.format == "json":
        rows = [{**asdict(r), "seconds": round(r.seconds, 3)} for r in results]
        print(json.dumps(rows))
    else:
        width = max(len(r.name) for r in results)
        for r in results:
            mark = "pass" if r.passed else "FAIL"
            print(f"{r.name:<{width}}  {mark}  {r.seconds:7.2f}s  {r.detail}")
    return 0 if all(r.passed for r in results) else VERIFICATION_FAILURE


_COMMANDS = {
    "parse": _cmd_parse,
    "invariants": _cmd_invariants,
    "seifert": _cmd_seifert,
    "alexander": _cmd_alexander,
    "signature": _cmd_signature,
    "conj": _cmd_conj,
    "tau": _cmd_tau,
    "family": _cmd_family,
    "verify": _cmd_verify,
}


def run(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, ValueError, RuntimeError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTATION_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
