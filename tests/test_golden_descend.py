"""Golden `descend` certificates, compared byte for byte.

The cases are the 25 curated family members of fixtures.py, each with
fiber solving on and off under the default bounds, one random spec per
fixed seed drawn as in test_pipeline_fuzz.py, and seeded inputs that fail
each hypothesis of the descent theorem or the input checks.  Regenerate the golden file
only on purpose, from a checkout whose certificates are trusted:

    PYTHONPATH=src:tests python tests/test_golden_descend.py
"""

import json
import os
import random

import pytest

from torusdescent.cli import certificate_json
from torusdescent.arith import REAL
from torusdescent.descent import DescentBounds, DescentError, check_hypotheses, descend
from torusdescent.surface import LocalPoint, PartialAdelicPoint

from fixtures import ALL_FAMILY, family_point
from test_pipeline_fuzz import _candidate_point, _random_spec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "descend.jsonl")

# seeds chosen so that every outcome and up to three reductions occur
FUZZ_SEEDS = (1, 2, 6, 10, 20, 22, 25, 30, 31, 33, 62, 69)
# seeds whose input fails valuation_bound, split_place and valuation_at_2 alone
HYPOTHESIS_SEEDS = (5, 35, 2493)
# seeds whose descent inserts two dual-side S_D witness places (sd_witness)
SD_WITNESS_SEEDS = (1741, 2515)
# (seed, variant): brauer_sum_1 and brauer_sum_2 fail; the input is rejected
VARIANT_CASES = ((2, "real-moved"), (10, "place-dropped"))

CASES = (
    [f"family-{k:02d}/solve={solve}" for k in range(len(ALL_FAMILY)) for solve in (1, 0)]
    + [f"fuzz-{seed}" for seed in FUZZ_SEEDS + HYPOTHESIS_SEEDS]
    + [f"fuzz-{seed}/{variant}" for seed, variant in VARIANT_CASES]
    + [f"fuzz-{seed}" for seed in SD_WITNESS_SEEDS]
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


def run_case(name):
    """Canonical certificate JSON of the case, or the text of its DescentError."""
    if name.startswith("family-"):
        member, solve = name[len("family-"):].split("/solve=")
        spec, point, _ = family_point(int(member))
        bounds = DescentBounds(solve_each_fiber=solve == "1")
    else:
        seed, _, variant = name[len("fuzz-"):].partition("/")
        spec, point, bounds = _fuzz_input(int(seed), variant or None)
    try:
        return certificate_json(descend(spec, point, bounds))
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


@pytest.mark.parametrize("name", CASES)
def test_descend_certificate_matches_golden(name):
    assert run_case(name) == _golden()[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for name in CASES:
            fh.write(json.dumps({"case": name, "output": run_case(name)}, sort_keys=True) + "\n")
