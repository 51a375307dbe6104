"""Golden `descend` certificates, compared byte for byte.

The cases are the 25 curated family members of fixtures.py, its two
large-prime members and its bounded-chamber member, each with fiber solving
on and off under the default bounds, one random spec per
fixed seed drawn as in test_pipeline_fuzz.py, seeded inputs that fail
each hypothesis of the descent theorem or the input checks, and tight
bounds that end the search at each exhaustion stage.  Every certificate is
also re-checked by the benchmark's independent oracle (perfbench/oracle.py),
and the file must show every outcome, exhaustion stage and trace step.
Regenerate the golden file only on purpose, from a checkout whose
certificates are trusted:

    PYTHONPATH=src:tests python tests/test_golden_descend.py
"""

import ast
import importlib.util
import json
import os
import random
import sys

import pytest

from torusdescent import descent
from torusdescent.cli import canonical_json
from torusdescent.arith import REAL, Place
from torusdescent.descent import DescentBounds, DescentError, check_hypotheses, descend
from torusdescent.surface import LocalPoint, PartialAdelicPoint, make_spec

from fixtures import (
    ALL_FAMILY,
    BOUNDED_CHAMBER_MEMBER,
    LARGE_PRIME_FAMILY,
    family_point,
    large_prime_point,
    member_point,
)
from test_pipeline_fuzz import _candidate_point, _random_spec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "descend.jsonl")
BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def _load_bench_module(name, requires=None):
    """perfbench/<name>.py loaded as the module perfbench_<name>, leaving sys.path
    alone.  `requires` maps the top-level names the file imports (perfbench's
    own modules) to the modules to give it; they are visible only while it loads."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    saved = {key: sys.modules.get(key) for key in requires or {}}
    sys.modules.update(requires or {})
    try:
        spec.loader.exec_module(module)
    finally:
        for key, previous in saved.items():
            if previous is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = previous
    return module


inputs = _load_bench_module("inputs")
oracle = _load_bench_module("oracle", requires={"inputs": inputs})

# seeds chosen so that every outcome and up to three reductions occur
FUZZ_SEEDS = (1, 2, 6, 10, 20, 22, 25, 30, 31, 33, 62, 69)
# seeds whose input fails valuation_bound, split_place and valuation_at_2 alone
HYPOTHESIS_SEEDS = (5, 35, 2493)
# seeds whose descent inserts two dual-side S_D witness places (sd_witness)
SD_WITNESS_SEEDS = (1741, 2515)
# (seed, variant): brauer_sum_1 and brauer_sum_2 fail; the input is rejected
VARIANT_CASES = ((2, "real-moved"), (10, "place-dropped"))
# a tight bound, named after the last "/", ends each of these searches at
# the stage chebotarev_prime, descent_loop, sd_retries or sd_witness_prime
EXHAUSTION_CASES = (
    "family-09/solve=0/prime_scan=3",
    "family-16/solve=0/max_steps=1",
    "family-23/solve=0/max_steps=1",
    "fuzz-1741/prime_scan=2",
    "fuzz-2515/prime_scan=2",
)
# a `cli-mix` benchmark spec (seed 13) at the benchmark's descend bounds:
# its first admissible point is candidate 70, so the benchmark's admissible
# bound 60 exhausts the scan and 200 decides it
CLI_MIX_CASES = (
    "cli-mix-13/admissible_candidates=60",
    "cli-mix-13/admissible_candidates=200",
)

# the suitable points of fixtures.LARGE_PRIME_FAMILY, whose T holds a prime
# too large for the integral Hensel search; 317 ends dual_selmer_minimized
# and 331 point_found
LARGE_PRIME_CASES = tuple(f"large-{p}/solve={solve}" for p in LARGE_PRIME_FAMILY
                          for solve in (1, 0))

# fixtures.BOUNDED_CHAMBER_MEMBER, the global point (25/2, 11/2) at t* = 9:
# its scan ends at once, the real chamber holding no second progression value
BOUNDED_CHAMBER_CASES = tuple(f"chamber-9/solve={solve}" for solve in (1, 0))

CASES = (
    [f"family-{k:02d}/solve={solve}" for k in range(len(ALL_FAMILY)) for solve in (1, 0)]
    + [f"fuzz-{seed}" for seed in FUZZ_SEEDS + HYPOTHESIS_SEEDS]
    + [f"fuzz-{seed}/{variant}" for seed, variant in VARIANT_CASES]
    + [f"fuzz-{seed}" for seed in SD_WITNESS_SEEDS]
    + list(EXHAUSTION_CASES)
    + list(CLI_MIX_CASES)
    + list(LARGE_PRIME_CASES)
    + list(BOUNDED_CHAMBER_CASES)
)


def _move_real(spec, point):
    """The point with its real t moved across every root of p_J."""
    roots = [spec.root(i) for i in spec.indices]
    real = point.entries[REAL]
    t = min(roots) - 1 if real.t > max(roots) else max(roots) + 1
    return point.with_entry(REAL, LocalPoint.make(real.x, real.y, t, real.precision))


def _fuzz_input(seed, variant=None):
    """The first random spec of the seed's stream whose point passes input checks.

    Variant "real-moved" moves the real component first, which flips the
    real invariants of the generators; "place-dropped" drops the point's
    last place afterwards, so that descend rejects the input.
    """
    rng = random.Random(seed)
    while True:
        spec = _random_spec(rng)
        point = _candidate_point(spec, rng)
        if point is None:
            continue
        if variant == "real-moved":
            point = _move_real(spec, point)
        if check_hypotheses(spec, point).input_problems:
            continue
        bounds = DescentBounds(
            height=120,
            admissible_candidates=4000,
            prime_scan=4000,
            max_steps=8,
            solve_each_fiber=rng.random() < 0.7,
        )
        if variant == "place-dropped":
            point = PartialAdelicPoint(spec, dict(sorted(point.entries.items())[:-1]))
        return spec, point, bounds


def _cli_mix_input():
    """The `cli-mix` case: S0 = {real}; a = 2; b = -3; p_1 = t - 3,
    p_2 = 2t + 3 and p_3 = t + 3 with partA {1, 2}; the point (1, 1) at
    t = 4 at the real place, 2 and 3; the descend bounds of
    perfbench/inputs.py."""
    spec = make_spec([], 2, -3, {1: (1, -3), 2: (2, 3), 3: (1, 3)}, [1, 2])
    point = PartialAdelicPoint(
        spec, {v: LocalPoint.make(1, 1, 4, 12) for v in (REAL, Place.finite(2), Place.finite(3))}
    )
    return spec, point, DescentBounds(height=20, admissible_candidates=60, prime_scan=2000,
                                      max_steps=6)


def case_input(name):
    """(spec, point, bounds) of the case: its family, large-prime or
    bounded-chamber member, fuzz seed or `cli-mix` spec, the variant, fiber solving ("solve=") and
    any bound overridden by "bound=value"."""
    head, *parts = name.split("/")
    settings = dict(part.split("=") for part in parts if "=" in part)
    variant = next((part for part in parts if "=" not in part), None)
    if head.startswith(("family-", "large-")):
        kind, _, number = head.partition("-")
        spec, point, _ = (family_point if kind == "family" else large_prime_point)(int(number))
        bounds = DescentBounds(solve_each_fiber=settings.pop("solve") == "1")
    elif head == "chamber-9":
        spec, point, _ = member_point(BOUNDED_CHAMBER_MEMBER)
        bounds = DescentBounds(solve_each_fiber=settings.pop("solve") == "1")
    elif head == "cli-mix-13":
        spec, point, bounds = _cli_mix_input()
    else:
        spec, point, bounds = _fuzz_input(int(head[len("fuzz-"):]), variant)
    bounds = bounds._replace(**{key: int(value) for key, value in settings.items()})
    return spec, point, bounds


def run_case(name):
    """Canonical certificate JSON of the case, or the text of its DescentError."""
    spec, point, bounds = case_input(name)
    try:
        return canonical_json(descend(spec, point, bounds).as_dict())
    except DescentError as exc:
        return f"error: {exc}"


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {entry["case"]: entry["output"] for entry in map(json.loads, fh)}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


def test_golden_has_every_outcome():
    outputs = list(_golden().values())
    outcomes = {json.loads(out)["outcome"] for out in outputs if not out.startswith("error:")}
    assert outcomes == {
        "point_found", "dual_selmer_minimized", "search_exhausted", "hypothesis_failed"
    }
    assert any(out.startswith("error: invalid input point") for out in outputs)


def test_golden_has_every_hypothesis_failure():
    failures = set()
    for out in _golden().values():
        if not out.startswith("error:"):
            failures.update(json.loads(out)["data"].get("failures", ()))
    assert failures == {
        "condition_D", "valuation_bound", "valuation_at_2", "split_place",
        "brauer_sum_1", "brauer_sum_2",
    }


def _trace_steps():
    """Every "step" value of a trace entry that descent.py writes, read with ast."""
    with open(descent.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return {value.value for node in ast.walk(tree) if isinstance(node, ast.Dict)
            for key, value in zip(node.keys, node.values)
            if isinstance(key, ast.Constant) and key.value == "step"
            and isinstance(value, ast.Constant)}


def test_golden_has_every_exhaustion_stage_and_trace_step():
    certificates = [json.loads(out) for out in _golden().values() if not out.startswith("error:")]
    exhausted = [cert["data"] for cert in certificates if cert["outcome"] == "search_exhausted"]
    steps = {entry["step"] for cert in certificates for entry in cert["trace"]}
    assert {data["stage"] for data in exhausted} == oracle.EXHAUSTED_STAGES
    assert "the real chamber contains no further progression values" in {
        data["detail"] for data in exhausted}
    assert steps == _trace_steps()
    assert {"hypotheses", "admissible_point", "sd_witness", "reduce_dual_selmer", "point",
            "exhausted"} <= steps


@pytest.mark.parametrize("name", CASES)
def test_descend_certificate_matches_golden(name):
    assert run_case(name) == _golden()[name]


def _raw_spec(spec):
    """The spec as the oracle's inputs.RawSpec; golden specs have integer coefficients."""
    def integer(x):
        assert x.denominator == 1, x
        return x.numerator

    return inputs.RawSpec(
        s0=spec.s0_finite_primes, a=integer(spec.a), b=integer(spec.b),
        factors=tuple((i, integer(c), integer(d)) for i, (c, d) in spec.factors),
        part_a=tuple(sorted(spec.part_a)),
    )


@pytest.mark.parametrize("name", [name for name, out in _golden().items()
                                  if not out.startswith("error:")])
def test_golden_certificate_passes_the_independent_oracle(name):
    raw = _raw_spec(case_input(name)[0])
    cert = json.loads(_golden()[name])
    assert oracle.check_certificate(raw, cert, oracle.condition_d(raw)["holds"]) == []


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for name in CASES:
            fh.write(json.dumps({"case": name, "output": run_case(name)}, sort_keys=True) + "\n")
