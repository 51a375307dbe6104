"""Golden `validate --json` and `selmer --json --t <t>` reports of the curated
family, compared byte for byte.

The validate report pins S_bad; the selmer reports pin the torus parameter,
the place set and the echelon bases of both Selmer groups at t_star and at
two more values of t off the roots of p_J.  Regenerate the golden file only
on purpose, from a checkout whose reports are trusted:

    PYTHONPATH=src:tests python tests/test_golden_cli.py
"""

import json
import os
from fractions import Fraction

import pytest

from fixtures import ALL_FAMILY
from test_golden_conditiond import run_case

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli.jsonl")


def _selmer_ts(factors, t_star):
    """t_star and the first two of t_star + 1, 1/3 - t_star, t_star + 2 off the roots."""
    roots = {Fraction(-d, c) for c, d in factors.values()}
    extra = [Fraction(t_star + 1), Fraction(1, 3) - t_star, Fraction(t_star + 2)]
    return [Fraction(t_star)] + [t for t in extra if t not in roots][:2]


def _cases():
    cases = []
    for k, (s0, a, b, factors, part_a, t_star) in enumerate(ALL_FAMILY):
        spec = (s0, a, b, factors, part_a)
        cases.append((f"family-{k:02d}/validate", spec, "validate", ()))
        for t in _selmer_ts(factors, t_star):
            cases.append((f"family-{k:02d}/selmer/t={t}", spec, "selmer", (f"--t={t}",)))
    return cases


CASES = _cases()


def _run(case):
    name, spec, command, options = case
    return run_case(name.replace("/", "_"), *spec, command=command, options=options)


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {entry["case"]: entry for entry in map(json.loads, fh)}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_cli_report_matches_golden(case):
    expected = _golden()[case[0]]
    code, stdout = _run(case)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case in CASES:
            code, stdout = _run(case)
            entry = {"case": case[0], "exit": code, "stdout": stdout}
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
