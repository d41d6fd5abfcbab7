"""Command-line behavior: output formats, exit codes, file interfaces."""

import argparse
import ast
import json
import os
import random
import shlex
import subprocess
import sys
import time
import tracemalloc
from bisect import bisect_right
from pathlib import Path

import pytest

from bennequin import braid, checks, cli, garside, quadform, seifert, threebraid
from bennequin.braid import BraidWord
from bennequin.cli import run
from bennequin.garside import ConjugacyCertificate
from oracles import float_signature, random_symmetric

# Exact CLI outputs, so any change to them is deliberate; verify rows omit
# their timings.
GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command", [c for c in GOLDEN if not c.startswith("verify")])
def test_golden_output(capsys, command):
    code, out, _ = run_cli(capsys, *shlex.split(command))
    assert code == 0
    assert out == GOLDEN[command]


def test_parse_canonical_output(capsys):
    code, out, _ = run_cli(capsys, "parse", "-1^5 2 1^3 2", "--strands", "3")
    assert code == 0
    assert out.strip() == "-1 -1 -1 -1 -1 2 1 1 1 2"


def test_usage_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "parse", "1")  # missing --strands
    assert code == 1
    assert "usage" in err


def test_unknown_subcommand_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 1


def test_parse_error_is_computation_error(capsys):
    code, _, err = run_cli(capsys, "parse", "3", "--strands", "3")
    assert code == 2
    assert err.startswith("error:")


def test_invariants_multi_component_exit(capsys):
    code, _, err = run_cli(capsys, "invariants", "1 1", "--strands", "2")
    assert code == 2
    assert "component" in err


def test_family_json_defect(capsys):
    code, out, _ = run_cli(capsys, "family", "--n", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["defects"]["delta4"] == 2
    assert data["defects"]["delta_s"] == 0
    assert data["quasipositive_verdict"] == "not_quasipositive"


def test_family_output_deterministic(capsys):
    _, first, _ = run_cli(capsys, "family", "--n", "1", "--format", "json")
    _, second, _ = run_cli(capsys, "family", "--n", "1", "--format", "json")
    assert first == second


def test_family_csv(capsys):
    code, out, _ = run_cli(capsys, "family", "--n", "2", "--format", "csv")
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("name,n,SL,")
    assert row.split(",")[1] == "2"


def test_family_usage_error_for_bad_index(capsys):
    code, _, err = run_cli(capsys, "family", "--n", "0")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize("n", ["498", "100000"])
def test_family_past_the_rank_cap_exits_2(capsys, n):
    # K_498 has Seifert rank 2n + 6 = 1002; nothing is built before the check
    tracemalloc.start()
    start = time.perf_counter()
    try:
        code, out, err = run_cli(capsys, "family", "--n", n)
        seconds = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"more than the limit of {seifert.MAX_RANK}" in err
    assert seconds < 0.5
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "command, strands",
    [
        ("invariants", "100000000"),
        ("invariants", "1000000"),
        ("seifert", "1000000"),
        ("alexander", "1000000"),
        ("seifert", "3"),
    ],
)
def test_strands_past_the_letters_exit_2(capsys, monkeypatch, command, strands):
    # a knot closure on n strands needs n - 1 letters; no strand is tracked
    def tracked(w):
        raise AssertionError(f"tracked {w.strands} strands")

    monkeypatch.setattr(braid, "closure_permutation", tracked)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, command, "1", "--strands", strands)
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert f"needs at least {int(strands) - 1} letters, got 1" in err
    assert len(err) < 120


def test_strands_at_the_letters_pass_the_bound(capsys):
    code, out, _ = run_cli(capsys, "alexander", "1 2", "--strands", "3")
    assert (code, out) == (0, "0:1\n")


def test_parse_echoes_any_strand_count(capsys):
    code, out, _ = run_cli(capsys, "parse", "1 -1", "--strands", "100000000")
    assert code == 0
    assert out == "1 -1\n"


def test_seifert_formats(capsys):
    code, out, _ = run_cli(capsys, "seifert", "1 1 1", "--strands", "2")
    assert code == 0
    assert out.strip().split("\n") == ["-1,1", "0,-1"]
    code, out, _ = run_cli(
        capsys, "seifert", "1 1 1", "--strands", "2", "--format", "json"
    )
    assert json.loads(out) == [[-1, 1], [0, -1]]


def test_seifert_past_the_rank_cap_exits_2(capsys):
    word = f"1^{seifert.MAX_RANK + 3}"  # a knot of rank MAX_RANK + 2
    code, out, err = run_cli(capsys, "seifert", word, "--strands", "2")
    assert code == 2
    assert out == ""
    assert f"more than the limit of {seifert.MAX_RANK}" in err


def test_alexander_output(capsys):
    code, out, _ = run_cli(capsys, "alexander", "1 1 1", "--strands", "2")
    assert code == 0
    assert out.strip() == "-1:1 0:-1 1:1"


def test_alexander_past_the_rank_cap_exits_2(capsys):
    word = f"1^{seifert.MAX_RANK + 3}"  # a knot of rank MAX_RANK + 2
    code, out, err = run_cli(capsys, "alexander", word, "--strands", "2")
    assert code == 2
    assert out == ""
    assert f"more than the limit of {seifert.MAX_RANK}" in err


def test_family_with_a_wrong_conjugator_exits_2(capsys, monkeypatch):
    monkeypatch.setattr(threebraid, "FAMILY_CONJUGATOR", (-2, -1))
    code, out, err = run_cli(capsys, "family", "--n", "2", "--format", "csv")
    assert code == 2
    assert out == ""
    assert "conjugator fails verification for K2" in err


def test_signature_matrix_file(tmp_path, capsys):
    path = tmp_path / "form.txt"
    path.write_text("2\n0 1/2\n1/2 0\n")
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    lines = dict(line.split(": ") for line in out.strip().split("\n"))
    assert lines["signature"] == "0"
    assert lines["nullity"] == "0"
    assert lines["determinant"] == "-1/4"


def test_signature_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    too_big = cli.MAX_MATRIX_SIZE + 1
    for text, message in (
        ("2\n1 2\n", "expected 4 entries"),
        ("-1\n5\n", "got -1"),
        (f"{too_big}\n1\n", f"got {too_big}"),  # the size is checked first
    ):
        path.write_text(text)
        code, out, err = run_cli(capsys, "signature", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err


def test_signature_byte_cap(tmp_path, capsys):
    path = tmp_path / "padded.txt"
    form = "2\n0 1/2\n1/2 0\n"
    path.write_text(form.ljust(cli.MAX_MATRIX_BYTES))
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    assert out.startswith("signature: 0\n")
    path.write_text(form.ljust(8 * cli.MAX_MATRIX_BYTES))
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, "signature", str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == ""
    assert f"exceeds {cli.MAX_MATRIX_BYTES} bytes" in err
    assert peak < 2 * cli.MAX_MATRIX_BYTES  # the file was not read whole


def test_signature_dense_form_at_the_size_cap(tmp_path, capsys):
    mat = random_symmetric(random.Random(100), cli.MAX_MATRIX_SIZE)
    reference = float_signature(mat)
    assert reference is not None  # well conditioned, so the float count is right
    path = tmp_path / "dense.txt"
    rows = "\n".join(" ".join(map(str, row)) for row in mat)
    path.write_text(f"{cli.MAX_MATRIX_SIZE}\n{rows}\n")
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    assert out.startswith(f"signature: {reference}\nnullity: 0\n")


def test_signature_denominator_bits_cap(tmp_path, capsys, monkeypatch):
    cap = cli.MAX_DENOMINATOR_BITS
    path = tmp_path / "rational.txt"
    # a denominator q counts q.bit_length() bits, so 2**(cap - 1) is at the cap
    path.write_text(f"2\n1/{2 ** (cap - 1)} 0\n0 1/1\n")
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    assert out.startswith("signature: 2\nnullity: 0\n")

    def unreachable(rows):
        raise AssertionError("an over-cap file reached the diagonalization")

    monkeypatch.setattr(cli.quadform, "congruence_diagonalize", unreachable)
    # one bit over, summed across entries: (cap - 3) + 2 + 2
    path.write_text(f"2\n1/{2 ** (cap - 4)} 1/2\n1/2 1\n")
    code, out, err = run_cli(capsys, "signature", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"total {cap + 1} bits, more than the limit of {cap}" in err


def _unreachable_diagonalization(monkeypatch):
    def unreachable(rows):
        raise AssertionError("an over-cap file reached the diagonalization")

    monkeypatch.setattr(cli.quadform, "congruence_diagonalize", unreachable)


def _write_matrix(path, mat):
    rows = "\n".join(" ".join(map(str, row)) for row in mat)
    path.write_text(f"{len(mat)}\n{rows}\n")


def test_signature_elimination_work_cap(tmp_path, capsys, monkeypatch):
    cap = cli.MAX_ELIMINATION_WORK
    size = cli.MAX_MATRIX_SIZE

    def diagonal(last_bits):
        # the 10**44 diagonal with its last entry widened to last_bits bits
        entries = [10**44] * (size - 1) + [2 ** (last_bits - 1)]
        return [[entries[i] if i == j else 0 for j in range(size)] for i in range(size)]

    # the widest last entry within the cap; one bit more is over it
    widths = range(148, 4000)
    bits = widths[
        bisect_right(widths, cap, key=lambda b: quadform.elimination_work(diagonal(b)))
        - 1
    ]
    path = tmp_path / "diagonal.txt"
    _write_matrix(path, diagonal(bits))
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    assert out.startswith(f"signature: {size}\nnullity: 0\n")

    _unreachable_diagonalization(monkeypatch)
    _write_matrix(path, diagonal(bits + 1))
    code, out, err = run_cli(capsys, "signature", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"squared bits, more than the limit of {cap}" in err


def test_signature_rejects_the_slow_dense_shapes(tmp_path, capsys, monkeypatch):
    # each took 8 to 15 s to diagonalize on a 2-core x86-64 host
    _unreachable_diagonalization(monkeypatch)
    rng = random.Random(5)
    size = cli.MAX_MATRIX_SIZE
    thirty_digits = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            thirty_digits[i][j] = thirty_digits[j][i] = rng.randrange(10**29, 10**30)
    one_wide_entry = random_symmetric(rng, size)
    one_wide_entry[0][0] = 2**4095 + 1
    for mat in (thirty_digits, one_wide_entry):
        path = tmp_path / "dense.txt"
        _write_matrix(path, mat)
        code, out, err = run_cli(capsys, "signature", str(path))
        assert (code, out) == (2, "")
        assert f"more than the limit of {cli.MAX_ELIMINATION_WORK}" in err


def test_signature_entry_digit_cap(tmp_path, capsys, monkeypatch):
    cap = cli.MAX_ENTRY_DIGITS
    path = tmp_path / "wide.txt"
    path.write_text(f"1\n{'9' * cap}\n")  # at the cap
    code, out, _ = run_cli(capsys, "signature", str(path))
    assert code == 0
    assert out == f"signature: 1\nnullity: 0\ndeterminant: {'9' * cap}\n"
    # a denominator's digits count too; at the cap this entry passes the digit
    # check and meets the denominator-bits cap
    path.write_text(f"1\n1/{'3' * (cap - 1)}\n")
    code, out, err = run_cli(capsys, "signature", str(path))
    assert (code, out) == (2, "")
    assert f"more than the limit of {cli.MAX_DENOMINATOR_BITS}" in err

    def unreachable(tok):
        raise AssertionError("an over-cap entry reached the conversion")

    monkeypatch.setattr(cli, "Fraction", unreachable)
    _unreachable_diagonalization(monkeypatch)
    for entry, digits in (
        ("-" + "9" * (cap + 1), cap + 1),  # one digit over
        # a short entry, but a wide value; Fraction alone would read it, since
        # it builds 10**cap without converting a digit string
        (f"1e{cap}", 1 + len(str(cap)) + cap),
        (f"1/{'3' * cap}", cap + 1),
    ):
        path.write_text(f"2\n0 0\n0 {entry}\n")
        code, out, err = run_cli(capsys, "signature", str(path))
        assert (code, out) == (2, ""), entry
        assert err == (
            f"error: matrix entry (2,2) has {digits} digits,"
            f" more than the limit of {cap}\n"
        )


def test_signature_prints_a_determinant_past_the_digit_limit(tmp_path, capsys):
    # 10**4400 has more digits than the interpreter converts by default
    size = cli.MAX_MATRIX_SIZE
    entry = "1" + "0" * 44
    rows = [" ".join(entry if i == j else "0" for j in range(size)) for i in range(size)]
    path = tmp_path / "diagonal.txt"
    path.write_text(f"{size}\n" + "\n".join(rows) + "\n")
    # CPython before 3.10.7 has no digit limit, so there is none to restore
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = get_limit()
    code, out, err = run_cli(capsys, "signature", str(path))
    assert (code, err) == (0, "")
    assert out == f"signature: {size}\nnullity: 0\ndeterminant: 1{'0' * 4400}\n"
    assert get_limit() == limit


def test_signature_missing_file(capsys):
    code, _, _ = run_cli(capsys, "signature", "/nonexistent/matrix.txt")
    assert code == 2


def test_conj_family_pair(capsys):
    code, out, _ = run_cli(
        capsys,
        "conj",
        "-1^5 2 1^3 2",
        "1 2 1 2 1 2 1 -2^7",
        "--strands",
        "3",
    )
    assert code == 0
    assert out.startswith("conjugate")
    assert "conjugator:" in out


def test_conj_rejects_a_wrong_conjugator(capsys, monkeypatch):
    wrong = ConjugacyCertificate(BraidWord(3, ()))
    monkeypatch.setattr(cli, "conjugacy_decide", lambda *args, **kwargs: wrong)
    code, out, err = run_cli(capsys, "conj", "1 2", "2 1", "--strands", "3")
    assert code == 3
    assert out == ""
    assert "fails verification" in err


def test_conj_rejects_a_wrong_conjugator_on_4_strands(capsys, monkeypatch):
    # verify_certificate's normal-form route; 3 strands take the Burau route
    wrong = ConjugacyCertificate(BraidWord(4, ()))
    monkeypatch.setattr(cli, "conjugacy_decide", lambda *args, **kwargs: wrong)
    code, out, err = run_cli(capsys, "conj", "1 3", "3 2", "--strands", "4")
    assert code == 3
    assert out == ""
    assert "fails verification" in err


def test_conj_negative(capsys):
    code, out, _ = run_cli(capsys, "conj", "1^3", "-1^3", "--strands", "2")
    assert code == 0
    assert out.strip() == "not conjugate"


def test_conj_past_the_strand_cap_exits_2(capsys, monkeypatch):
    def listed(n):
        raise AssertionError(f"listed the simple elements of {n} strands")

    monkeypatch.setattr(garside, "_nontrivial_simples", listed)
    strands = str(garside.MAX_CONJUGACY_STRANDS + 1)
    code, out, err = run_cli(capsys, "conj", "1", "8", "--strands", strands)
    assert code == 2
    assert out == ""
    assert "at most 8 strands" in err


def tau_chain(nodes: int, edges: int) -> dict:
    """A chain listed head first with its one known tau at the tail, the
    slowest shape to propagate: one node per round.  Edges past the chain
    repeat its first one."""
    names = [f"n{i}" for i in range(nodes)]
    chain = [[a, b] for a, b in zip(names, names[1:])]
    nodes = [{"name": name} for name in names]
    nodes[-1]["tau"] = 0
    return {"nodes": nodes, "edges": (chain + chain[:1] * edges)[:edges]}


# The documented caps, written out: a test that read cli.MAX_TAU_NODES would
# move its boundary with the constant, and 501 nodes would pass unnoticed.
TAU_NODES, TAU_EDGES = 500, 500


def test_tau_graph_at_its_caps(tmp_path, capsys):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(tau_chain(TAU_NODES, TAU_EDGES)))
    code, out, _ = run_cli(capsys, "tau", str(path))
    assert code == 0
    intervals = json.loads(out)
    assert len(intervals) == TAU_NODES
    assert intervals["n0"] == {"lower": -(TAU_NODES - 1), "upper": 0}


@pytest.mark.parametrize(
    "nodes, edges",
    [(TAU_NODES + 1, TAU_EDGES), (2, TAU_EDGES + 1), (TAU_NODES, TAU_EDGES + 1)],
)
def test_tau_graph_past_its_caps_exits_2(tmp_path, capsys, nodes, edges):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(tau_chain(nodes, edges)))
    code, out, err = run_cli(capsys, "tau", str(path))
    assert code == 2
    assert out == ""
    assert "more than the limits" in err


def test_tau_file_past_its_byte_cap_exits_2(tmp_path, capsys):
    graph = json.dumps(tau_chain(2, 1))
    path = tmp_path / "graph.json"
    path.write_text(graph + " " * (cli.MAX_TAU_BYTES - len(graph)))
    code, _, _ = run_cli(capsys, "tau", str(path))
    assert code == 0
    path.write_text(graph + " " * (cli.MAX_TAU_BYTES + 1 - len(graph)))
    code, out, err = run_cli(capsys, "tau", str(path))
    assert code == 2
    assert out == ""
    assert f"exceeds {cli.MAX_TAU_BYTES} bytes" in err


def test_tau_graph_file(tmp_path, capsys):
    graph = {
        "nodes": [{"name": "K"}, {"name": "P", "tau": -1}],
        "edges": [["P", "K"]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, _ = run_cli(capsys, "tau", str(path))
    assert code == 0
    assert out == '{"K": {"lower": -1, "upper": 0}, "P": {"lower": -1, "upper": -1}}\n'


def test_tau_contradiction_exit(tmp_path, capsys):
    graph = {
        "nodes": [{"name": "A", "tau": 0}, {"name": "B", "tau": 5}],
        "edges": [["A", "B"]],
    }
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, _, err = run_cli(capsys, "tau", str(path))
    assert code == 2
    assert "empty interval" in err


@pytest.mark.parametrize(
    "graph, message",
    [
        ({"nodes": [{"name": "P", "tau": 1.5}], "edges": []}, "not an integer"),
        ({"nodes": [{"name": "P", "tau": True}], "edges": []}, "not an integer"),
        ({"nodes": [{"name": 7, "tau": 1}], "edges": []}, "not a string"),
        ({"nodes": [{"name": "P"}], "edges": [["P"]]}, "not a pair"),
        ([{"name": "P"}], "expected"),
        ({"nodes": [{"tau": 1}], "edges": []}, "has no name"),
        # misspelt keys would drop a constraint unseen
        (
            {
                "nodes": [{"name": "P", "Tau": -1}, {"name": "K"}],
                "edges": [["P", "K"]],
                "edgez": [],
            },
            "no other key",
        ),
        (
            {"nodes": [{"name": "P", "Tau": -1}, {"name": "K"}], "edges": [["P", "K"]]},
            "other than name and tau",
        ),
    ],
)
def test_tau_malformed_graph_exit(tmp_path, capsys, graph, message):
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, out, err = run_cli(capsys, "tau", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_invariants_json_round_trips(capsys):
    code, out, _ = run_cli(
        capsys, "invariants", "1 1 1", "--strands", "2", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["signature"] == -2
    assert json.loads(json.dumps(data)) == data


def test_verify_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "--max-n", "1", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    assert all(row.pop("seconds") >= 0 for row in rows)
    assert rows == GOLDEN["verify --max-n 1 --format json"]


def test_verify_usage_error(capsys):
    code, _, err = run_cli(capsys, "verify", "--max-n", "0")
    assert code == 1
    assert "usage" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-n", "-1"),
        ("invariants", "1 1 1", "--strands", "2", "--candidate-cap", "0"),
        ("conj", "1", "1", "--strands", "2", "--node-cap", "-1"),
        ("invariants", "1 1 1", "--strands", "2", "--node-cap", "0"),
        ("invariants", "1 1 1", "--strands", "2", "--candidate-cap", "many"),
    ],
)
def test_nonpositive_counts_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "positive integer" in err


@pytest.mark.parametrize("flag", ["--candidate-cap", "--node-cap"])
def test_verify_takes_no_search_budget(capsys, flag):
    # verify runs fixed inputs with the package's default budgets
    code, out, err = run_cli(capsys, "verify", "--max-n", "1", flag, "5")
    assert code == 1
    assert out == ""
    assert f"unrecognized arguments: {flag} 5" in err


def test_checks_fail_under_python_optimize():
    # Wrong identities must fail even when ``python -O`` strips asserts.
    script = (
        "import json, sys\n"
        "from bennequin import checks\n"
        "if not sys.flags.optimize:\n"
        "    raise SystemExit('not running under -O')\n"
        "checks.family_tau = lambda n: 0\n"
        "checks.self_linking = lambda w: 0\n"
        "print(json.dumps({r.name: r.passed for r in checks.run_checks(1)}))\n"
    )
    src = str(Path(checks.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    passed = json.loads(done.stdout)
    assert [name for name, ok in passed.items() if not ok] == ["self-linking", "tau"]


def test_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check the package relies on must
    # raise instead; the CI runs ``verify`` under -O as well
    package = Path(cli.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _subcommands(parser) -> list[str]:
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


def test_readme_command_lines_parse():
    # every example of the README's command-line block is valid for the parser
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    examples = [
        shlex.split(line, comments=True)
        for line in block.splitlines()
        if line.startswith("bennequin ")
    ]
    parser = cli._build_parser()
    for argv in examples:
        parser.parse_args(argv[1:])  # a usage error raises SystemExit
    assert sorted({argv[1] for argv in examples}) == sorted(_subcommands(parser))


def test_module_docstring_lists_the_subcommands():
    listing = cli.__doc__.split("Subcommands::", 1)[1].split("Exit codes", 1)[0]
    names = [line.split()[0] for line in listing.splitlines() if line.strip()]
    assert names == _subcommands(cli._build_parser())
