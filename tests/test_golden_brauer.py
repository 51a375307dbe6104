"""Golden `brauer --json` reports of the curated family, compared byte for byte.

Each report lists the vertical generators (a*D_i^A or b*D_i^B, p_i(t))
and their residues at the roots of p_J.  Regenerate the golden file only
on purpose, from a checkout whose reports are trusted:

    PYTHONPATH=src:tests python tests/test_golden_brauer.py
"""

import json
import os

import pytest

from fixtures import ALL_FAMILY
from test_golden_conditiond import run_case

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "brauer.jsonl")

CASES = [(f"family-{k:02d}", *entry[:5]) for k, entry in enumerate(ALL_FAMILY)]


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {entry["case"]: entry for entry in map(json.loads, fh)}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_brauer_report_matches_golden(case):
    expected = _golden()[case[0]]
    code, stdout = run_case(*case, command="brauer")
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case in CASES:
            code, stdout = run_case(*case, command="brauer")
            entry = {"case": case[0], "exit": code, "stdout": stdout}
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
