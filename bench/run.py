"""Closed-loop benchmark of the bennequin package.

    python3 bench/run.py --workload family --seed 1 --seconds 22 --trace 0

One caller runs one operation at a time, single-threaded, and waits for
each result.  Each round of a workload is generated from the seed before it
is timed; rounds run until the timed operations add up to ``--seconds`` or
the workload runs out of fresh inputs.  Each round's outputs are checked
right after it, outside the timed calls.  After the timed pass, the
workload's counting round, the same for every seed, runs under a
call-counting profile hook: that count repeats exactly, whatever speed the
host runs at.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``).
``--workload all`` runs each workload in its own process, one after another.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = "bennequin"
SETUP_SAMPLES = 5  # per sampling point; there are three points in a run
IMPORT_PROGRAM = (
    "import time; t = time.perf_counter(); import bennequin; "
    "print(time.perf_counter() - t)"
)

sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def setup_seconds() -> list[float]:
    """Import the package in fresh interpreters; interpreter start-up is excluded.

    Bytecode is cached as an installed package would have it, whatever the
    caller's PYTHONDONTWRITEBYTECODE says; only a first sample compiles.
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_PROGRAM],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout))
    return samples


def import_program() -> None:
    sys.path.insert(0, str(SRC))
    package = importlib.import_module(PACKAGE)
    if Path(package.__file__).resolve().parent != SRC / PACKAGE:
        raise SystemExit(f"error: imported {package.__file__}, not the package under {SRC}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / PACKAGE / "__init__.py").is_file():
        raise SystemExit(f"error: no {PACKAGE} package under {SRC}")
    setup = setup_seconds()
    import_program()
    modules = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in ("report", "garside", "threebraid")}
    braid_word = importlib.import_module(f"{PACKAGE}.braid").BraidWord
    program = workloads.Program(braid_word, importlib.import_module(f"{PACKAGE}.seifert").seifert_matrix)
    workload = workloads.WORKLOADS[name]

    seen: set = set()

    def fresh(word) -> bool:
        if word in seen:
            return False
        seen.add(word)
        return True

    def call(op: workloads.Op):
        module, func = op.func.split(".")
        args = tuple(braid_word(*a) if isinstance(a, workloads.Word) else a for a in op.args)
        return getattr(modules[module], func), args  # looked up late, so wrappers apply

    attempted = failed = 0
    errors: list[str] = []

    def check(op: workloads.Op, result) -> None:
        nonlocal attempted, failed
        attempted += 1
        try:
            if isinstance(result, Exception):  # an operation that raises is a failed one
                raise result
            workload.check(op, result, program)
        except Exception as exc:
            failed += 1
            errors.append(f"{op.label} {op.args}: {type(exc).__name__}: {exc}")

    # Drawn first, so no timed input repeats one of them.
    count_ops = workload.count_round(fresh)
    tracer = tracing.Tracer() if trace else None
    clock = hostspeed.HostClock()
    spans: list[tuple[float, float]] = []
    timed = 0.0
    index = 0
    while timed < seconds:
        ops = workload.make_round(random.Random(f"{seed}/{index}"), index, fresh)
        if ops is None:
            break
        results = []
        clock.sample(0.0)
        if tracer:
            tracer.install(PACKAGE)
        for op in ops:
            fn, args = call(op)
            if tracer:
                tracer.op = len(spans)
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:
                result = exc
            end = time.perf_counter()
            clock.after(end - start)
            spans.append((start, end))
            timed += end - start
            results.append(result)
        if tracer:
            tracer.uninstall()
        # Checked between rounds, outside the timed calls and the spans, and
        # then dropped, so memory does not grow with the number of rounds.
        for op, result in zip(ops, results):
            check(op, result)
        index += 1
    completed = len(spans) - failed
    times = [end - start for start, end in spans]
    slowdowns = [clock.slowdown(start, end) for start, end in spans]
    scaled = [t / k for t, k in zip(times, slowdowns)]  # times at the reference speed
    slowdown = statistics.median(slowdowns)
    setup += setup_seconds()

    # The counting pass comes after every timed call and counts the same
    # seed-independent ops in every run, so its figure repeats exactly.
    calls = 0
    if not tracer:
        for op in count_ops:
            fn, args = call(op)
            try:
                result, n = tracing.count_calls(fn, args)
            except Exception as exc:
                result, n = exc, 0
            calls += n
            check(op, result)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += setup_seconds()

    if tracer:
        out = BENCH_DIR / "out" / f"spans-{name}-seed{seed}.jsonl"
        tracer.write(out)
        values = {**tracer.metrics(len(times), timed), "host.slowdown": slowdown}
        units = {**tracing.per_layer_units(), "host.slowdown": "ratio"}
    else:
        # The host's phases move wall times by up to half, and times at the
        # reference speed by far less.
        values = {
            "ops_per_s": completed / sum(scaled),
            "latency_p50_ms": 1000.0 * statistics.median(scaled),
            "calls_per_op": calls / len(count_ops),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup),
        }
        units = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "calls_per_op": "calls", "peak_rss_mb": "MB", "setup_s": "s"}
    for line in errors:
        print(f"{name}: {line}", file=sys.stderr)
    print(
        f"{name}: seed {seed}, {index} round(s), {len(times)} timed ops, {timed:.2f} s timed, "
        f"host slowdown {slowdown:.3f}; wall-clock {completed / timed:.4f} ops/s, "
        f"p50 {1000.0 * statistics.median(times):.2f} ms",
        file=sys.stderr,
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        status = 0
        for name in workloads.WORKLOADS:
            child = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode or not lines:
                status = child.returncode or 1
                continue
            print(json.dumps({"workload": name, **json.loads(lines[-1])}))
        return status
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
