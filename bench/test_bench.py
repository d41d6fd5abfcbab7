"""Tests of the benchmark itself: every output check rejects a corrupted
value, the reference computations are right, the inputs are reproducible
and fresh, the call count repeats, and the tracer's self times add up.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from bennequin import garside, report, seifert, threebraid  # noqa: E402
from bennequin.braid import BraidWord  # noqa: E402
from workloads import CheckFailed, Op, Word  # noqa: E402

PROGRAM = workloads.Program(BraidWord, seifert.seifert_matrix)


# --- reference computations -----------------------------------------------


def leibniz_det(rows) -> int:
    size = len(rows)
    total = 0
    for perm in itertools.permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for i in range(size) for j in range(i + 1, size))
        term = -1 if inversions % 2 else 1
        for i in range(size):
            term *= rows[i][perm[i]]
        total += term
    return total


def test_bareiss_matches_leibniz_on_random_matrices():
    rng = random.Random(3)
    for size in range(1, 6):
        for _ in range(20):
            rows = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
            if rng.random() < 0.3:
                rows[0][0] = 0  # force the row swap
            assert references.bareiss_det(rows) == leibniz_det(rows)


def test_burau_satisfies_the_braid_relations():
    def same(a, b, strands=4):
        return references.burau(a, strands) == references.burau(b, strands)

    assert same((1, 2, 1), (2, 1, 2))
    assert same((1, 3), (3, 1))
    assert same((2, -2, 1, -1), ())
    assert not same((1, 2), (2, 1))


def test_trace_powers_are_conjugacy_invariants():
    w = (1, 2, -3, 2, 1, 1, -2, 3)
    c = (3, -1, 2)
    assert not references.burau_distinguishes(4, w, c + w + references.inverse(c))
    assert references.conjugates_onto(4, w, c + w + references.inverse(c), c)
    assert not references.conjugates_onto(4, w, c + w + references.inverse(c), c + (1,))


# --- inputs ----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed_and_never_repeat(name):
    workload = workloads.WORKLOADS[name]

    def rounds(seed):
        seen = set()

        def fresh(word):
            if word in seen:
                return False
            seen.add(word)
            return True

        out = [workload.count_round(fresh)]  # drawn first, as in a run
        for index in range(3):
            ops = workload.make_round(random.Random(f"{seed}/{index}"), index, fresh)
            if ops is None:
                break
            out.append(ops)
        return out

    first = rounds(5)
    assert first == rounds(5)
    count, timed = first[0], first[1:]
    assert count and count == rounds(6)[0]  # the counting round ignores the seed
    assert len({len(ops) for ops in timed}) == 1  # whole rounds of the same shape
    inputs = [op.args for ops in timed for op in ops]
    assert len(set(inputs)) == len(inputs)
    if name != "family":
        assert timed != rounds(6)[1:]
        assert not {op.args for op in count} & set(inputs)


@pytest.mark.parametrize("name", ["conjugacy", "type1"])
def test_fresh_inputs_last_longer_than_any_run(name):
    seen = set()

    def fresh(word):
        if word in seen:
            return False
        seen.add(word)
        return True

    for index in range(60):  # rounds take over a second each
        workloads.WORKLOADS[name].make_round(random.Random(f"1/{index}"), index, fresh)


def test_constructed_inputs_have_their_stated_properties():
    for strands, length in workloads.KNOT_SLOTS:
        assert length % 2 == (strands - 1) % 2
    for w, same, other in workloads.CONJUGACY_CLASSES:
        for partner in (same, other):
            assert references.exponent_sum(partner) == references.exponent_sum(w)
            assert references.burau_distinguishes(4, w, partner)
    for blocks in workloads.TYPE1_FORMS:
        letters = workloads.type1_letters(1, blocks)
        assert references.closure_components(letters, 3) == 1
        assert workloads.canonical_blocks(blocks) == blocks


def test_canonical_blocks_rotates_and_merges():
    assert workloads.canonical_blocks(((3, 1), (1, 2))) == ((1, 2), (3, 1))
    assert workloads.canonical_blocks(((1, 0), (2, 3))) == ((3, 3),)
    assert workloads.canonical_blocks(((2, 0),)) == ((2, 0),)


# --- each check rejects a corrupted value ----------------------------------


def replace_nested(obj, path: str, value):
    head, _, rest = path.partition(".")
    inner = value if not rest else replace_nested(getattr(obj, head), rest, value)
    return dataclasses.replace(obj, **{head: inner})


FAMILY_CORRUPTIONS = [
    ("max_self_linking.value", -2),
    ("signature", 4),
    ("g4.upper", 2),
    ("s.value", -3),
    ("tau.upper", 0),
    ("defects.delta4", Fraction(1)),
    ("defects.delta_s", Fraction(1)),
    ("quasipositive_verdict", "unknown"),
]


@pytest.fixture(scope="module")
def family_one():
    return Op("K1", "report.family_report", (1,), 1), report.family_report(1)


def test_family_check_accepts_the_program_output(family_one):
    op, result = family_one
    workloads.check_family(op, result, PROGRAM)


@pytest.mark.parametrize("path,value", FAMILY_CORRUPTIONS)
def test_family_check_rejects(family_one, path, value):
    op, result = family_one
    with pytest.raises(CheckFailed):
        workloads.check_family(op, replace_nested(result, path, value), PROGRAM)


@pytest.fixture(scope="module")
def knot():
    rng = random.Random(11)
    while True:
        letters = workloads.random_letters(rng, 4, 13)
        if references.closure_components(letters, 4) == 1:
            break
    w = Word(4, letters)
    return Op("4x13", "report.word_report", (w,), None), report.word_report(BraidWord(*w))


def test_knot_check_accepts_the_program_output(knot):
    op, result = knot
    workloads.check_knot(op, result, PROGRAM)


def knot_corruptions(result):
    alex = result.alexander
    shifted = dataclasses.replace(alex, coeffs=tuple((e + 1, c) for e, c in alex.coeffs))
    scaled = dataclasses.replace(alex, coeffs=tuple((e, 3 * c) for e, c in alex.coeffs))
    return [
        dataclasses.replace(result, signature=result.signature + 1),
        dataclasses.replace(result, signature=result.signature + 2),
        dataclasses.replace(result, signature=len(result.alexander.coeffs) * 100),
        dataclasses.replace(result, alexander=shifted),
        dataclasses.replace(result, alexander=scaled),
        dataclasses.replace(result, determinant=result.determinant + 2),
    ]


def test_knot_check_rejects(knot):
    op, result = knot
    for corrupted in knot_corruptions(result):
        with pytest.raises(CheckFailed):
            workloads.check_knot(op, corrupted, PROGRAM)


def test_knot_check_rejects_a_corrupted_seifert_matrix(knot):
    op, result = knot

    def doubled(w):
        data = seifert.seifert_matrix(w)
        return dataclasses.replace(data, matrix=tuple(tuple(2 * x for x in row) for row in data.matrix))

    def bumped(w):
        data = seifert.seifert_matrix(w)
        rows = [list(row) for row in data.matrix]
        rows[0][0] += 1
        return dataclasses.replace(data, matrix=tuple(map(tuple, rows)))

    for matrix in (doubled, bumped):
        with pytest.raises(CheckFailed):
            workloads.check_knot(op, result, workloads.Program(BraidWord, matrix))


@pytest.fixture(scope="module")
def conjugacy_ops():
    w, same, other = workloads.CONJUGACY_CLASSES[0]
    c = (2, -1)
    w1 = Word(4, w)
    w2 = Word(4, c + w + references.inverse(c))
    yes = Op("yes", "garside.conjugacy_decide", (w1, w2), True)
    no = Op("no", "garside.conjugacy_decide", (w1, Word(4, other)), False)
    return yes, garside.conjugacy_decide(BraidWord(*w1), BraidWord(*w2)), no


def test_conjugacy_check_accepts_the_program_output(conjugacy_ops):
    yes, cert, no = conjugacy_ops
    workloads.check_conjugacy(yes, cert, PROGRAM)
    workloads.check_conjugacy(no, None, PROGRAM)


def test_conjugacy_check_rejects(conjugacy_ops):
    yes, cert, no = conjugacy_ops
    wrong = dataclasses.replace(cert, conjugator=BraidWord(4, cert.conjugator.letters + (1,)))
    for op, corrupted in ((yes, wrong), (yes, None), (no, cert)):
        with pytest.raises(CheckFailed):
            workloads.check_conjugacy(op, corrupted, PROGRAM)


@pytest.fixture(scope="module")
def type1_op():
    blocks = ((1, 1), (3, 1))
    c = (2, 2, -1)
    letters = c + workloads.type1_letters(1, blocks[1:] + blocks[:1]) + references.inverse(c)
    op = Op("h[1,1][3,1]", "threebraid.type1_recognize", (Word(3, letters),), blocks)
    return op, threebraid.type1_recognize(BraidWord(3, letters))


def test_type1_check_accepts_the_program_output(type1_op):
    op, form = type1_op
    workloads.check_type1(op, form, PROGRAM)


def test_type1_check_rejects(type1_op):
    op, form = type1_op
    conjugator = form.certificate.conjugator
    corruptions = [
        None,
        dataclasses.replace(form, d=2),
        dataclasses.replace(form, blocks=((1, 1), (3, 2))),
        dataclasses.replace(form, blocks=((4, 1),)),
        dataclasses.replace(form, blocks=((1, 1), (3, 0))),
        dataclasses.replace(
            form,
            certificate=dataclasses.replace(
                form.certificate, conjugator=BraidWord(3, conjugator.letters + (1,))
            ),
        ),
    ]
    for corrupted in corruptions:
        with pytest.raises(CheckFailed):
            workloads.check_type1(op, corrupted, PROGRAM)


# --- counting and tracing ---------------------------------------------------


COUNT_FAMILY_2 = (
    "import sys; sys.path[:0] = [{src!r}, {bench!r}]; import tracing; "
    "from bennequin import report; report.family_report(2); "
    "print(tracing.count_calls(report.family_report, (2,))[1])"
)


def test_call_count_repeats_across_runs_and_hash_seeds():
    # The first call of a process also fills lazy caches (abstract base class
    # checks, for one), so, as in the benchmark, the count follows one run.
    code = COUNT_FAMILY_2.format(src=str(SRC), bench=str(BENCH_DIR))
    counts = set()
    for hash_seed in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={"PYTHONHASHSEED": hash_seed},
            capture_output=True,
            text=True,
            check=True,
        )
        counts.add(int(done.stdout))
    report.family_report(2)
    counts.add(tracing.count_calls(report.family_report, (2,))[1])
    assert len(counts) == 1 and counts.pop() > 0


def test_host_slowdown_is_the_mean_kernel_time_near_a_span():
    clock = hostspeed.HostClock()
    clock.ends = [10.0, 10.2, 11.0, 13.0]
    clock.total = [0.0, 0.002, 0.006, 0.008, 0.018]
    ms = hostspeed.KERNEL_MS
    # samples ending within WINDOW = 0.5 s of [10.4, 10.6]: all but the last
    assert clock.slowdown(10.4, 10.6) == pytest.approx((2 + 4 + 2) / 3 / ms)
    assert clock.slowdown(12.6, 12.7) == pytest.approx(10 / ms)
    clock = hostspeed.HostClock()
    clock.sample(0.0)
    assert len(clock.ends) == 1 and clock.total[1] > 0


def test_tracer_wraps_every_binding_and_self_times_add_up():
    original = seifert.seifert_matrix
    tracer = tracing.Tracer()
    tracer.install("bennequin")
    try:
        assert report.seifert_matrix is not original  # a `from .x import f` binding
        assert seifert.seifert_matrix is report.seifert_matrix
        tracer.op = 0
        report.family_report(1)
    finally:
        tracer.uninstall()
    assert seifert.seifert_matrix is original and report.seifert_matrix is original
    top = [span for span in tracer.spans if span[1] == -1]
    assert [span[3] for span in top] == ["report.family_report"]
    top_seconds = top[0][5] - top[0][4]
    assert sum(tracer.self_s.values()) == pytest.approx(top_seconds, rel=1e-9)
    assert len({span[0] for span in tracer.spans}) == len(tracer.spans)
    metrics = tracer.metrics(1, top_seconds)
    assert metrics["threebraid.candidates_tested"] == 1
    assert set(metrics) == set(tracing.per_layer_units())
