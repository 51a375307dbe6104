"""Golden `descend` certificates, compared byte for byte.

The cases are the 25 curated family members of fixtures.py, each with
fiber solving on and off under the default bounds, and one random spec per
fixed seed drawn as in test_pipeline_fuzz.py.  Regenerate the golden file
only on purpose, from a checkout whose certificates are trusted:

    PYTHONPATH=src:tests python tests/test_golden_descend.py
"""

import json
import os
import random

import pytest

from torusdescent.cli import certificate_json
from torusdescent.descent import DescentBounds, DescentError, check_hypotheses, descend

from fixtures import ALL_FAMILY, family_point
from test_pipeline_fuzz import _candidate_point, _random_spec

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "descend.jsonl")

# seeds chosen so that every outcome and up to three reductions occur
FUZZ_SEEDS = (1, 2, 6, 10, 20, 22, 25, 30, 31, 33, 62, 69)

CASES = [
    f"family-{k:02d}/solve={solve}" for k in range(len(ALL_FAMILY)) for solve in (1, 0)
] + [f"fuzz-{seed}" for seed in FUZZ_SEEDS]


def _fuzz_input(seed):
    """The first random spec of the seed's stream whose point passes input checks."""
    rng = random.Random(seed)
    while True:
        spec = _random_spec(rng)
        point = _candidate_point(spec, rng)
        if point is None or check_hypotheses(spec, point).input_problems:
            continue
        bounds = DescentBounds(
            height=120,
            admissible_candidates=4000,
            prime_scan=4000,
            max_steps=8,
            solve_each_fiber=rng.random() < 0.7,
        )
        return spec, point, bounds


def run_case(name):
    """Canonical certificate JSON of the case, or the text of its DescentError."""
    if name.startswith("family-"):
        member, solve = name[len("family-"):].split("/solve=")
        spec, point, _ = family_point(int(member))
        bounds = DescentBounds(solve_each_fiber=solve == "1")
    else:
        spec, point, bounds = _fuzz_input(int(name[len("fuzz-"):]))
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
    outcomes = {json.loads(out)["outcome"] for out in _golden().values()}
    assert outcomes == {
        "point_found", "dual_selmer_minimized", "search_exhausted", "hypothesis_failed"
    }


@pytest.mark.parametrize("name", CASES)
def test_descend_certificate_matches_golden(name):
    assert run_case(name) == _golden()[name]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for name in CASES:
            fh.write(json.dumps({"case": name, "output": run_case(name)}, sort_keys=True) + "\n")
