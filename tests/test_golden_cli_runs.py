"""Golden CLI runs: exit code, stdout and stderr of `cli.main`, byte for byte.

Per curated family member: the text report of every subcommand (`local` at
2, `descend --point-file` under the default bounds and under
`--admissible-bound=1`), and the `--json` reports of `local` (integral at
2, rational at 3, real) and `solve`.  A few more runs reach every exit
code: a fiber at a root of p_J (1), a point that fails a hypothesis (2)
and a point search with nothing in reach (3).  SPEC and POINTS in an argv
stand for the paths of the spec and point files.  Regenerate the golden
file only on purpose, from a checkout whose output is trusted:

    PYTHONPATH=src:tests python tests/test_golden_cli_runs.py
"""

import contextlib
import functools
import io
import json
import os
import tempfile

import pytest

from torusdescent.cli import main
from torusdescent.surface import serialize_point, serialize_spec

from fixtures import ALL_FAMILY, family_point

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cli_runs.jsonl")

# a spec whose points all fail the descent's hypotheses
_FAILING_SPEC = "s0 real 2\na 2\nb -1\nfactor 1 1 0\npartA 1\n"
_FAILING_POINTS = "real 1 1 1 10\n2 1 1 1 10\n"


def _member_argvs(t_star):
    t = ["--t", str(t_star)]
    return {
        "validate": ["validate", "SPEC"],
        "condition-d": ["condition-d", "SPEC"],
        "selmer": ["selmer", "SPEC", *t],
        "brauer": ["brauer", "SPEC"],
        "local": ["local", "SPEC", *t, "--place", "2"],
        "solve": ["solve", "SPEC", *t],
        "descend": ["descend", "SPEC", "--point-file", "POINTS"],
        "descend-1": ["descend", "SPEC", "--point-file=POINTS", "--admissible-bound=1"],
        "json/local@2": ["--json", "local", "SPEC", *t, "--place", "2"],
        "json/local@3-rational": ["--json", "local", "SPEC", *t, "--place=3",
                                  "--model=rational"],
        "json/local@real": ["--json", "local", "SPEC", *t, "--place", "real"],
        "json/solve": ["--json", "solve", "SPEC", *t],
    }


def _cases():
    """(name, files, argv), files naming a family member or "failing"."""
    cases = []
    for k, member in enumerate(ALL_FAMILY):
        for label, argv in _member_argvs(member[5]).items():
            cases.append((f"family-{k:02d}/{label}", k, argv))
    cases += [
        ("family-00/solve@root", 0, ["solve", "SPEC", "--t", "0"]),
        ("family-00/json/selmer@root", 0, ["--json", "selmer", "SPEC", "--t=0"]),
        ("family-06/solve-height-1", 6, ["solve", "SPEC", "--t", "7/5", "--height", "1"]),
        ("failing/descend", "failing", ["descend", "SPEC", "--point-file", "POINTS"]),
        ("failing/json/descend", "failing", ["--json", "descend", "SPEC", "--point-file",
                                             "POINTS"]),
    ]
    return cases


CASES = _cases()


@functools.cache
def _files(which):
    """(spec text, point file text) of a family member, or of the failing spec."""
    if which == "failing":
        return _FAILING_SPEC, _FAILING_POINTS
    spec, point, _ = family_point(which)
    return serialize_spec(spec), serialize_point(point)


def run(which, argv):
    """(exit code, stdout, stderr) of main(argv) on the files of `which`."""
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"SPEC": os.path.join(tmp, "surface.spec"),
                 "POINTS": os.path.join(tmp, "surface.points")}
        for path, text in zip(paths.values(), _files(which)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [arg.replace("SPEC", paths["SPEC"]).replace("POINTS", paths["POINTS"])
                for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    return code, out.getvalue(), err.getvalue()


def _golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return {entry["case"]: entry for entry in map(json.loads, fh)}


def test_golden_covers_every_case_and_exit_code():
    golden = _golden()
    assert sorted(golden) == sorted(case[0] for case in CASES)
    assert {entry["exit"] for entry in golden.values()} == {0, 1, 2, 3}


@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
def test_cli_run_matches_golden(case):
    name, which, argv = case
    expected = _golden()[name]
    assert expected["argv"] == argv
    assert run(which, argv) == (expected["exit"], expected["stdout"], expected["stderr"])


if __name__ == "__main__":
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        for name, which, argv in CASES:
            code, stdout, stderr = run(which, argv)
            entry = {"case": name, "argv": argv, "exit": code, "stdout": stdout,
                     "stderr": stderr}
            fh.write(json.dumps(entry, sort_keys=True) + "\n")
