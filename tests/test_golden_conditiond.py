"""Golden `condition-d --json` reports, compared byte for byte.

The cases are the curated family of fixtures.py, the SPECS of
test_conditiond.py, and specs with |J| = 4..8, among them both failing
constructions (G_D too large, G^D too large).  Regenerate the golden file
only on purpose, from a checkout whose reports are trusted:

    PYTHONPATH=src:tests python tests/test_golden_conditiond.py
"""

import contextlib
import io
import json
import os
import tempfile

import pytest

from torusdescent.cli import main
from torusdescent.surface import make_spec, serialize_spec

from fixtures import ALL_FAMILY
from test_conditiond import SPECS

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "condition_d.jsonl")

# (name, s0_primes, a, b, factors, part_a)
WIDE_SPECS = [
    ("random-4", [2], 3, -5, {1: (1, 0), 2: (1, 1), 3: (1, -2), 4: (2, 3)}, [1, 3]),
    ("random-5", [], -2, 7, {1: (1, 1), 2: (1, -3), 3: (3, 1), 4: (1, 5), 5: (2, -1)}, [2]),
    ("random-6", [2, 3], 6, -1,
     {1: (1, 0), 2: (1, 4), 3: (1, -7), 4: (3, 2), 5: (1, 9), 6: (2, 5)}, [1, 4, 6]),
    ("random-7", [2, 5], -10, 3,
     {1: (1, 2), 2: (1, -5), 3: (1, 11), 4: (2, 1), 5: (1, -13), 6: (3, -4), 7: (1, 6)},
     [3, 5]),
    ("random-8", [2], 5, 2,
     {1: (1, 0), 2: (1, 1), 3: (1, -1), 4: (1, 3), 5: (1, -6), 6: (2, 7), 7: (3, -1),
      8: (1, 15)}, [2, 5, 8]),
    # p_k = t, p_j = t - m_j^2, A = {k}, b = a*(-1)^|B|: G_D too large
    ("g-d-fails-4", [2], 3, -3, {1: (1, 0), 2: (1, -1), 3: (1, -4), 4: (1, -9)}, [1]),
    ("g-d-fails-6", [], -5, 5,
     {1: (1, -4), 2: (1, -9), 3: (1, 0), 4: (1, -25), 5: (1, -1), 6: (1, -16)}, [3]),
    ("g-d-fails-8", [2, 3], 7, -7,
     {1: (1, -1), 2: (1, -36), 3: (1, -4), 4: (1, -49), 5: (1, -9), 6: (1, -16),
      7: (1, -25), 8: (1, 0)}, [8]),
    # A = {k}, b = -[p_B(-d_k/c_k)]: G^D too large
    ("dual-fails-5", [2], -3, -462,
     {1: (1, 2), 2: (1, -5), 3: (2, 1), 4: (1, 7), 5: (1, -3)}, [2]),
    ("dual-fails-7", [2, 5], 6, -6902,
     {1: (1, 0), 2: (1, 3), 3: (1, -8), 4: (3, 1), 5: (1, 10), 6: (2, -5), 7: (1, -2)},
     [4]),
    ("dual-fails-8", [], 2, 38874,
     {1: (1, 1), 2: (1, -2), 3: (1, 4), 4: (2, -3), 5: (1, -9), 6: (3, 5), 7: (1, 12),
      8: (1, -17)}, [6]),
]

CASES = (
    [(f"family-{k:02d}", *entry[:5]) for k, entry in enumerate(ALL_FAMILY)]
    + [(f"conditiond-{k}", *entry) for k, entry in enumerate(SPECS)]
    + WIDE_SPECS
)


def run_case(name, s0, a, b, factors, part_a, command="condition-d", options=()):
    """(exit code, stdout) of `--json <command> <spec file> <options>`."""
    text = serialize_spec(make_spec(s0, a, b, factors, part_a))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, f"{name}.spec")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["--json", command, path, *options])
    return code, out.getvalue()


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {entry["case"]: entry for entry in map(json.loads, fh)}


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted(case[0] for case in CASES)


def test_golden_has_both_failures():
    reports = {name: json.loads(e["stdout"]) for name, e in _golden().items()}
    assert not reports["g-d-fails-8"]["holds"] and len(reports["g-d-fails-8"]["g_d"]) > 4
    assert not reports["dual-fails-8"]["holds"] and len(reports["dual-fails-8"]["g_d_dual"]) > 2


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_condition_d_report_matches_golden(case):
    expected = _golden()[case[0]]
    code, stdout = run_case(*case)
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for case in CASES:
            code, stdout = run_case(*case)
            entry = {"case": case[0], "exit": code, "stdout": stdout}
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
