"""Benchmark command for torusdescent.

    python3 perfbench/run.py --workload family|wide-j|cli-mix --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
`src/`.  With --trace 0 the command times whole rounds of the workload's
operations for S seconds and prints the end-to-end metrics, scaled to a
reference CPU speed, with the unscaled figures on the line before them.  With --trace 1
it runs a fixed amount of work, one warm-up round, one round untraced and
one under the span recorder, so that call counts are exact, and prints the
per-layer metrics.  Either way every output is checked by `oracle.py`,
which shares no code with the program, and the last line of standard output
is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import workloads  # noqa: E402
from spans import MODULES, SpanRecorder  # noqa: E402

MIN_TIMED_ROUNDS = 2

# The reference computation: the benchmark's own pure-Python integer and
# Fraction code on a fixed spec, sharing nothing with the program.  It is
# timed before each set-up, after each round and between operations
# whenever REFERENCE_EVERY_S of operation time have passed since it last
# ran, and every timing of the round is scaled by REFERENCE_S over its
# median (see measure).
REFERENCE_SPEC = inputs.RawSpec((2,), 5, 6, ((1, 1, 0), (2, 1, 6), (3, 3, -7), (4, 2, 9)), (1, 3))
REFERENCE_S = 360e-6  # its median time on the host of the README's figures
REFERENCE_EVERY_S = 0.05

# per-layer metrics: (layer, span name or None for the layer, statistic)
LAYER_METRICS = [
    ("arith", None, "self_ms"),
    ("arith", "hilbert_symbol", "calls"), ("arith", "hilbert_symbol", "self_ms"),
    ("arith", "legendre", "calls"),
    ("arith", "is_prime", "calls"), ("arith", "is_prime", "self_ms"),
    ("arith", "factorize", "calls"), ("arith", "factorize", "self_ms"),
    ("arith", "square_class", "calls"), ("arith", "local_square_class", "calls"),
    ("arith", "valuation", "calls"),
    ("arith", "hensel_solve", "calls"), ("arith", "hensel_solve", "total_ms"),
    ("surface", None, "self_ms"),
    ("surface", "factor_value", "calls"), ("surface", "validate_spec", "total_ms"),
    ("surface", "compute_s_bad", "calls"), ("surface", "parse_spec_text", "total_ms"),
    ("conditiond", None, "self_ms"),
    ("conditiond", "check_condition_d", "calls"), ("conditiond", "check_condition_d", "total_ms"),
    ("brauer", None, "self_ms"), ("brauer", "invariant", "calls"),
    ("selmer", None, "self_ms"),
    ("selmer", "relative_fiber", "calls"), ("selmer", "relative_selmer", "total_ms"),
    ("selmer", "relative_dual_selmer", "total_ms"), ("selmer", "dimension_identity", "total_ms"),
    ("points", None, "self_ms"),
    ("points", "local_solubility", "calls"), ("points", "local_solubility", "total_ms"),
    ("points", "solve_global", "calls"), ("points", "solve_global", "total_ms"),
    ("gf2", None, "self_ms"), ("gf2", "kernel_basis", "calls"),
    ("descent", None, "self_ms"),
    ("descent", "check_hypotheses", "total_ms"), ("descent", "find_admissible", "total_ms"),
    ("descent", "_make_state", "calls"),
    ("descent", "_scan_prime", "calls"), ("descent", "_scan_prime", "total_ms"),
    ("descent", "reduce_dual_selmer", "calls"),
    ("cli", None, "self_ms"), ("cli", "main", "total_ms"),
]


def import_program() -> Dict[str, object]:
    return {name: importlib.import_module(f"torusdescent.{name}") for name in MODULES}


# Importing in a child interpreter times what a user of the CLI pays and
# leaves this process's memory alone: dropping the package from
# sys.modules and importing it again here would keep ~0.4 MB per import.
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "start = time.perf_counter(); import torusdescent, torusdescent.cli; "
                "print(time.perf_counter() - start)")


def reference_seconds() -> float:
    """Time of one run of the reference computation."""
    start = time.perf_counter()
    inputs.s_bad_primes(REFERENCE_SPEC)
    for t in (38, 41):
        inputs.fiber_point(REFERENCE_SPEC, t, 60)
    return time.perf_counter() - start


def import_seconds() -> float:
    """Time to import torusdescent and its CLI in a fresh interpreter."""
    child = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                           text=True, check=True, timeout=120)
    return float(child.stdout)


class Round:
    """Latencies, failures and output digest of one pass over the operations.

    Only a round made with keep=True holds its outputs; the others are
    compared with it through the digest, so memory does not grow with the
    length of the run.  With probe=True the reference computation is timed
    between operations, outside their timers, and after the last one.
    """

    def __init__(self, ops, keep: bool = True, probe: bool = False):
        self.latencies: List[float] = []
        self.failures: List[Tuple[int, str, str]] = []  # (index, label, exception)
        self.references: List[float] = []
        outputs: List[str] = []
        since_probe = 0.0
        for label, call, render in ops:
            start = time.perf_counter()
            try:
                result = call()
            except Exception as exc:  # counted as a failed operation and checked below
                self.latencies.append(time.perf_counter() - start)
                self.failures.append((len(outputs), label, type(exc).__name__))
                outputs.append(f"{type(exc).__name__}: {exc}")
            else:
                self.latencies.append(time.perf_counter() - start)
                outputs.append(render(result))
            since_probe += self.latencies[-1]
            if probe and since_probe >= REFERENCE_EVERY_S:
                self.references.append(reference_seconds())
                since_probe = 0.0
        if probe:
            self.references.append(reference_seconds())
        self.digest = hashlib.sha256("\n".join(outputs).encode()).hexdigest()
        self.outputs = outputs if keep else None

    def checkable(self) -> List[Optional[str]]:
        """Outputs with None in place of each operation that raised."""
        failed = {index for index, _, _ in self.failures}
        return [None if k in failed else text for k, text in enumerate(self.outputs)]


def unexpected_failures(workload, failures) -> List[str]:
    may_fail = getattr(workload, "may_fail", lambda label: False)
    return [f"{label} failed with {kind}" for _, label, kind in failures
            if not (may_fail(label) and kind == workloads.KNOWN_FAULT)]


def find_problems(workload, rounds: List[Round]) -> List[str]:
    """Rounds that differ from the first, unexpected failures, and every
    problem the oracle finds in the first round's outputs."""
    first = rounds[0]
    problems = [f"round {k}: outputs differ from round 0" for k, r in enumerate(rounds)
                if r.digest != first.digest]
    problems += unexpected_failures(workload, [f for r in rounds for f in r.failures])
    problems += workload.check(first.checkable())
    return problems


def measure(workload, seconds: float):
    """One warm-up round, then timed rounds until `seconds` have passed in
    all, at least MIN_TIMED_ROUNDS of them.  Each round follows its own
    set-up: importing the program in a child interpreter plus validating the
    round's specs and points here.

    The host slows its CPUs by up to 1.5x for stretches of a second to
    several minutes, longer than a run.  The reference computation slows
    with them: over 47 rounds of one seed of cli-mix its median per round
    correlated 0.85 with the round's time.  So each round's set-up and
    latencies are scaled by REFERENCE_S over the median of the reference
    times taken in that round: the timings are those of a CPU on which the
    reference computation takes REFERENCE_S.  Every timing is then a median:
    `setup_s` over the set-ups, `ops_per_s` from each operation's median
    over the timed rounds, `op_p50_ms` and `op_p90_ms` over every timed
    execution.  Successive rounds run pinned to successive CPUs of this
    process's affinity set, so that every run samples each CPU.  The
    warm-up round runs the first calls of every code path; it is checked
    and counted but not timed.

    Returns the rounds, the metrics and the same metrics unscaled.
    """
    mods = import_program()
    rounds: List[Round] = []
    setups: List[float] = []
    scales: List[float] = []
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    try:
        while len(rounds) <= MIN_TIMED_ROUNDS or time.perf_counter() - start < seconds:
            os.sched_setaffinity(0, {cpus[len(rounds) % len(cpus)]})
            before = reference_seconds()
            validate_start = time.perf_counter()
            prepared = workload.prepare(mods)
            setups.append(time.perf_counter() - validate_start + import_seconds())
            rounds.append(Round(workload.operations(mods, prepared), keep=not rounds, probe=True))
            scales.append(REFERENCE_S / statistics.median([before] + rounds[-1].references))
    finally:
        os.sched_setaffinity(0, cpus)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def timings(scaled: bool) -> Dict[str, Tuple[float, str]]:
        factor = scales if scaled else [1.0] * len(rounds)
        timed = [[x * f for x in r.latencies] for r, f in zip(rounds[1:], factor[1:])]
        latencies = [x for r in timed for x in r]
        medians = [statistics.median(per_op) for per_op in zip(*timed)]
        return {
            "setup_s": (statistics.median(x * f for x, f in zip(setups, factor)), "s"),
            "ops_per_s": (len(medians) / sum(medians), "1/s"),
            "op_p50_ms": (statistics.median(latencies) * 1e3, "ms"),
            "op_p90_ms": (statistics.quantiles(latencies, n=10)[8] * 1e3, "ms"),
        }

    metrics = timings(scaled=True)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return rounds, metrics, timings(scaled=False)


def trace_run(workload):
    mods = import_program()
    warm = Round(workload.operations(mods, workload.prepare(mods)))  # first calls run cold
    start = time.perf_counter()
    untraced = Round(workload.operations(mods, workload.prepare(mods)))
    untraced_s = time.perf_counter() - start
    recorder = SpanRecorder()
    recorder.install()
    try:
        start = time.perf_counter()
        traced = Round(workload.operations(mods, workload.prepare(mods)))
        traced_s = time.perf_counter() - start
    finally:
        recorder.uninstall()
    summary = recorder.summary()
    os.makedirs(WORK, exist_ok=True)
    recorder.write(os.path.join(WORK, f"spans-{workload.name}.tsv.gz"))

    metrics = {}
    for layer, span, stat in LAYER_METRICS:
        if span is None:
            value = sum(entry["self_ms"] for name, entry in summary.items()
                        if name.startswith(layer + "."))
            metrics[f"{layer}.self_ms"] = (value, "ms")
        else:
            value = summary.get(f"{layer}.{span}", {}).get(stat, 0)
            metrics[f"{layer}.{span}.{stat}"] = (value, "count" if stat == "calls" else "ms")
    found, scanned = workloads.admissible_counts(traced.checkable())
    metrics["descent.admissible_candidates"] = (scanned, "count")
    metrics["descent.admissible_yield"] = (found / scanned if scanned else 0.0, "ratio")
    metrics["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return [warm, untraced, traced], metrics


def make_workload(name: str, seed: int):
    if name == "family":
        return workloads.Family(seed)
    if name == "wide-j":
        return workloads.WideJ(seed)
    return workloads.CliMix(seed, os.path.join(WORK, f"cli-mix-seed{seed}-pid{os.getpid()}"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["family", "wide-j", "cli-mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "torusdescent", "__init__.py")):
        print(f"error: no torusdescent sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = make_workload(args.workload, args.seed)
    unscaled = {}
    try:
        if args.trace:
            rounds, metrics = trace_run(workload)
        else:
            rounds, metrics, unscaled = measure(workload, args.seconds)
    finally:
        close = getattr(workload, "close", None)
        if close:
            close()

    problems = find_problems(workload, rounds)
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"output digest {rounds[0].digest}")
    if unscaled:
        print("unscaled: " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in unscaled.items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
