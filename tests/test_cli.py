import ast
import contextlib
import functools
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdescent import arith, cli, descent, surface
from torusdescent.cli import COMMANDS, main, parse_argv
from torusdescent.descent import DescentBounds
from torusdescent.surface import make_spec, serialize_point, serialize_spec

from fixtures import LARGE_PRIME_FAMILY, family_point


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SPEC_TEXT = """# running example
s0 real 2
a 2
b 3
factor 1 1 0
factor 2 1 1
partA 1
"""


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "surface.spec"
    path.write_text(SPEC_TEXT)
    return str(path)


def test_validate(spec_file, capsys):
    assert main(["validate", spec_file]) == 0
    out = capsys.readouterr().out
    assert "d = 6" in out
    assert "S_bad" in out


def test_validate_json_deterministic(spec_file, capsys):
    assert main(["--json", "validate", spec_file]) == 0
    first = capsys.readouterr().out
    assert main(["--json", "validate", spec_file]) == 0
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["valid"] is True
    assert payload["s_bad"] == ["3"]
    assert "spec_hash" in payload and "readings" in payload


def test_validate_coefficient_past_the_primality_range(tmp_path, capsys):
    # c = 1 and d coprime: nothing needs the factorization of d, however large
    path = tmp_path / "big.spec"
    path.write_text(f"s0 real 2\na 1\nb 1\nfactor 1 1 {arith._MR_LIMIT}\npartA 1\n")
    assert main(["validate", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("spec valid")
    assert captured.err == ""


@pytest.mark.parametrize(
    "factors, quantity",
    [
        ([(1, arith._MR_LIMIT, 1)], "c_1"),
        ([(1, arith._MR_LIMIT, 0)], "c_1"),
        ([(1, 1, 0), (2, 1, arith._MR_LIMIT)], "c_1*d_2 - c_2*d_1"),
        # both c_2 and the cross-resultant are past the range: the
        # cross-resultant of 1 and 2 is factored before c_2
        pytest.param([(1, 1, 0), (2, arith._MR_LIMIT, arith._MR_LIMIT + 10)],
                     "c_1*d_2 - c_2*d_1 = 3317044064679887385961991",
                     id="cross-resultant-before-c_2"),
    ],
)
def test_validate_names_a_quantity_past_the_primality_range(tmp_path, capsys, factors, quantity):
    path = tmp_path / "big.spec"
    lines = "".join(f"factor {i} {c} {d}\n" for i, c, d in factors)
    path.write_text(f"s0 real 2\na 1\nb 1\n{lines}partA 1\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    named = quantity if " = " in quantity else f"{quantity} = {arith._MR_LIMIT}"
    assert captured.err == (
        f"error: {named} cannot be factored within the "
        "certified primality range (n < 3.317e+24)\n"
    )
    assert captured.out == ""


def run_module(*argv, hash_seed=None):
    """Run `python -m torusdescent *argv` in a fresh interpreter, under
    PYTHONHASHSEED=hash_seed when one is given."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )}
    if hash_seed is not None:
        env["PYTHONHASHSEED"] = hash_seed
    return subprocess.run(
        [sys.executable, "-m", "torusdescent", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_importing_the_cli_loads_no_dataclasses_inspect_argparse_or_gettext():
    """Every CLI call imports the package afresh: dataclasses, the inspect,
    ast and dis it pulls in, and its class builds were about a quarter of
    that import; parse_argv reads argv from the command table, so neither
    argparse nor the gettext it loads is needed."""
    probe = ("import sys; before = set(sys.modules); import torusdescent.cli; "
             "print(*sorted(set(sys.modules) - before))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=120)
    loaded = set(done.stdout.split())
    assert "torusdescent.cli" in loaded, done.stderr
    assert not loaded & {"dataclasses", "inspect", "argparse", "gettext"}


def test_python_dash_m_runs_the_cli(spec_file):
    done = run_module("validate", spec_file)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("spec valid; d = 6")


def test_validate_rejects_bad_file(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("s0 real\na 0\nb 1\nfactor 1 1 0\npartA 1\n")
    assert main(["validate", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_validate_rejects_junk_tokens_and_repeated_keys(tmp_path, capsys):
    # each line alone used to be accepted, the later a silently winning
    path = tmp_path / "junk.spec"
    path.write_text("s0 real 2\na 1 junk\nb 1\nfactor 1 1 0 99\npartA 1\na 7\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 2: a line has 2 values, expected 1\n"
    path.write_text("s0 real 2\na 1\nb 1\nfactor 1 1 0\npartA 1\na 7\n")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 6: repeated key 'a'\n"


def test_validate_rejects_a_repeated_part_a_index(tmp_path, capsys):
    # "partA 1 1" used to collapse to "partA 1" and validate
    path = tmp_path / "repeat.spec"
    path.write_text("s0 real 2\na 1\nb 1\nfactor 1 1 0\nfactor 2 1 1\npartA 1 1\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 6: repeated index 1 on partA\n"
    assert captured.out == ""


def test_validate_rejects_proportional(tmp_path, capsys):
    path = tmp_path / "bad.spec"
    path.write_text("s0 real\na 1\nb 1\nfactor 1 1 0\nfactor 2 2 0\npartA 1\n")
    assert main(["validate", str(path)]) == 1


_SEVENTEEN_FACTORS = "s0 real 2\na 1\nb 1\n" + "".join(
    f"factor {i} 1 {i}\n" for i in range(1, 18)) + "partA 1\n"


@pytest.mark.parametrize("command, spec_text, points, message", [
    ("validate", SPEC_TEXT.replace("s0 real 2", "s0 real 2 2"), None,
     "S0 has repeated places"),
    ("validate", _SEVENTEEN_FACTORS, None, "more than 16 factors is not supported"),
    ("validate", SPEC_TEXT.replace("partA 1", "partA 3"), None,
     "partA contains unknown factor indices"),
    ("validate", SPEC_TEXT.replace("factor 1 1 0", "factor 1 0 5"), None,
     "factor 1: leading coefficient c must be nonzero"),
    ("descend", SPEC_TEXT, "real 1 1 1\n", "point line 1: expected 5 fields"),
    ("descend", SPEC_TEXT, "real 1e999999999 1 1 10\n",
     "point line 1: 1e999999999: exponents are not accepted"),
    ("descend", SPEC_TEXT, "real 1 1 1 0\n", "point line 1: precision must be >= 1"),
    ("descend", SPEC_TEXT, "real 1 1 1 10\nreal 1 1 1 10\n",
     "point line 2: duplicate place real"),
], ids=["repeated-s0-place", "seventeen-factors", "unknown-part-a-index", "zero-c",
        "four-point-fields", "exponent-in-point", "precision-0", "repeated-point-place"])
def test_input_rejections_exit_1_with_their_message(tmp_path, capsys, command, spec_text,
                                                    points, message):
    spec_path = tmp_path / "input.spec"
    spec_path.write_text(spec_text)
    argv = [command, str(spec_path)]
    if points is not None:
        point_path = tmp_path / "input.points"
        point_path.write_text(points)
        argv += ["--point-file", str(point_path)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


def test_condition_d(spec_file, capsys):
    assert main(["condition-d", spec_file]) == 0
    assert "Condition (D) holds" in capsys.readouterr().out


def test_condition_d_failure(tmp_path, capsys):
    path = tmp_path / "fail.spec"
    path.write_text("s0 real 2\na 2\nb -1\nfactor 1 1 0\npartA 1\n")
    assert main(["condition-d", str(path)]) == 2
    out = capsys.readouterr().out
    assert "FAILS" in out


def test_selmer_command(spec_file, capsys):
    assert main(["--json", "selmer", spec_file, "--t", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["t"] == "1"
    assert payload["torus_d"] == "-3"  # -12 mod squares
    assert payload["dim_selmer"] - payload["dim_dual_selmer"] >= 0


def test_selmer_factors_the_torus_parameter_once(tmp_path, capsys):
    # -d*p_J(t) = -3*P/Q with P and Q prime: each factors on its own, but the
    # square-free class -3*P*Q is past the primality range as one integer
    p, q = 2000000000003, 2000001000001
    path = tmp_path / "two-primes.spec"
    path.write_text("s0 real 2\na 1\nb 3\nfactor 1 1 0\npartA 1\n")
    assert -3 * p * q < -arith._MR_LIMIT
    assert main(["--json", "selmer", str(path), "--t", f"{p}/{q}"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["places"] == ["real", "2", "3", str(p), str(q)]
    assert payload["torus_d"] == str(-3 * p * q) == "-12000006000024000009000009"


def test_selmer_rejects_an_exponent_in_t_at_once(spec_file, capsys):
    # Fraction("1e999999999") is 10^999999999: reading it would not end
    assert main(["selmer", spec_file, "--t", "1e999999999"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: 1e999999999: exponents are not accepted\n"
    assert captured.out == ""


def test_selmer_names_a_torus_parameter_past_the_primality_range(tmp_path, capsys):
    path = tmp_path / "big.spec"
    path.write_text("s0 real 2\na 1\nb 1\nfactor 1 1 0\nfactor 2 1 1\npartA 1\n")
    t = Fraction(10**31 + 1, 3)
    assert main(["selmer", str(path), "--t", str(t)]) == 1
    captured = capsys.readouterr()
    # d = 1 and p_J(t) = t(t + 1): a cofactor of the numerator is past the range
    assert captured.err == (
        f"error: torus parameter -d*p_J(t) = {-t * (t + 1)} cannot be factored "
        "within the certified primality range (n < 3.317e+24)\n"
    )
    assert captured.out == ""


def test_brauer_command(spec_file, capsys):
    assert main(["--json", "brauer", spec_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    lefts = {g["index"]: g["left"] for g in payload["generators"]}
    assert lefts == {1: "3", 2: "-2"}


def test_brauer_constant_past_the_primality_range(tmp_path, capsys):
    # the constant of factor t is (10^13 + 37)*(10^13 + 51), past the proven
    # primality range; its class is read over the spec's primes, unfactored
    path = tmp_path / "big.spec"
    path.write_text("s0 real 2\na 1\nb 1\nfactor 1 1 0\nfactor 2 1 10000000000037\n"
                    "factor 3 1 10000000000051\npartA 1\n")
    assert main(["--json", "brauer", str(path)]) == 0
    generators = json.loads(capsys.readouterr().out)["generators"]
    assert generators[0]["residues"]["t=0"] == "100000000000880000000001887"


def test_local_command(spec_file, capsys):
    assert main(["local", spec_file, "--t", "1", "--place", "7"]) == 0
    assert "soluble" in capsys.readouterr().out
    assert main(["local", spec_file, "--t", "1", "--place", "real", "--model", "rational"]) == 0


@pytest.mark.parametrize("t, status, witness, certificate", [
    ("-44", "soluble", ["17017556", "2"], "(1 - bB*y^2)/aA at y = 2 is a unit square"),
    ("634", "insoluble", None, "neither aA*x^2 nor bB*y^2 is a unit at any point"),
])
def test_local_integral_verdict_at_a_prime_above_316(tmp_path, capsys, t, status, witness,
                                                     certificate):
    # the LARGE_PRIME_FAMILY member of 317: the fiber above t_star = -44 holds
    # a global point; above 634 = 2*317 both coefficients are divisible by 317
    s0, a, b, factors, part_a, _ = LARGE_PRIME_FAMILY[317]
    path = tmp_path / "large.spec"
    path.write_text(serialize_spec(make_spec(s0, a, b, factors, part_a)))
    argv = ["--json", "local", str(path), f"--t={t}", "--model", "integral", "--place=317"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert (payload["status"], payload["witness"], payload["certificate"]) == (
        status, witness, certificate)


@pytest.mark.parametrize(
    "place, reason",
    [("3317044064679887385961981", "exceeds the deterministic Miller-Rabin range"),
     ("4", "4 is not prime"),
     ("x", "invalid literal for int()")],
    ids=["past-primality-range", "composite", "not-an-integer"],
)
def test_local_names_the_place_option_in_its_error(spec_file, capsys, place, reason):
    assert main(["local", spec_file, "--t", "1", "--place", place]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --place {place}: ")
    assert reason in captured.err
    assert captured.out == ""


def test_local_real_witness_for_a_large_leading_coefficient(tmp_path, capsys):
    # at t = 2*10^8 the conic is t*x^2 + y^2 = 1: the witness is (x, 0)
    # with x just below 1/sqrt(t), not (0, 0)
    path = tmp_path / "small.spec"
    path.write_text("s0 real 2\na 1\nb 1\nfactor 1 1 0\npartA 1\n")
    t = 2 * 10**8
    assert main(["--json", "local", str(path), "--t", str(t), "--place", "real"]) == 0
    payload = json.loads(capsys.readouterr().out)
    x, y = (Fraction(c) for c in payload["witness"])
    assert payload["status"] == "soluble" and x != 0 and y == 0
    assert 0 < 1 - t * x * x < Fraction(1, 10**4)


def test_descent_flag_defaults_are_the_descent_bounds():
    defaults = DescentBounds()
    args = parse_argv(["descend", "s.spec", "--point-file", "p.txt"])
    assert (args.height, args.admissible_bound, args.prime_bound, args.max_steps) == (
        defaults.height, defaults.admissible_candidates, defaults.prime_scan,
        defaults.max_steps)
    assert parse_argv(["solve", "s.spec", "--t", "1"]).height == defaults.height


def _readme_section(title):
    with open(os.path.join(os.path.dirname(SRC), "README.md"), encoding="utf-8") as fh:
        return fh.read().split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _readme_cli_lines():
    """The `torusdescent ...` lines of the README's CLI block, continuation
    lines joined."""
    block = _readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("torusdescent ")]


def test_readme_cli_lines_parse_to_their_command_and_options(capsys):
    """Each README command line (an optional part in brackets given) yields
    its command, handler, spec path and option values; -h names every
    command and option of the table."""
    expected = {
        "validate": {}, "condition-d": {}, "brauer": {}, "selmer": {"t": "1"},
        "local": {"t": "1", "place": "7", "model": "rational"},
        "solve": {"t": "1/2", "height": 1000},
        "descend": {"point_file": "surface.points", "height": 1000,
                    "admissible_bound": 50000, "prime_bound": 50000, "max_steps": 24},
    }
    seen = []
    for line in _readme_cli_lines():
        args = parse_argv(shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:])
        seen.append(args.command)
        assert (args.func, args.spec, args.json) == (COMMANDS[args.command][0], "surface.spec",
                                                     False), line
        assert {k: getattr(args, k) for k in expected[args.command]} == expected[args.command]
    assert sorted(seen) == sorted(COMMANDS)
    with pytest.raises(SystemExit) as helped:
        parse_argv(["-h"])
    assert helped.value.code == 0
    text = capsys.readouterr().out
    for command, (_, _, options) in COMMANDS.items():
        assert command in text and all(name in text for name in options), command


def test_readme_cli_lines_run_in_process(tmp_path, monkeypatch, capsys):
    """Each README command line (an optional part in brackets given), in text
    and with --json, runs on a family member's spec and point file and exits
    0 with its report on stdout."""
    spec, point, _ = family_point(0)
    (tmp_path / "surface.spec").write_text(serialize_spec(spec))
    (tmp_path / "surface.points").write_text(serialize_point(point))
    monkeypatch.chdir(tmp_path)
    for line in _readme_cli_lines():
        argv = shlex.split(line.replace("[", "").replace("]", ""), comments=True)[1:]
        assert main(argv) == cli.EXIT_OK, line
        captured = capsys.readouterr()
        assert captured.out and not captured.err, line
        assert main(["--json", *argv]) == cli.EXIT_OK, line
        report = json.loads(capsys.readouterr().out)
        assert report["readings"] == cli.READINGS, line


def test_readme_exit_codes_and_outcomes_are_the_cli_tables():
    """The README's exit-code list names the EXIT_* constants of the CLI, and
    its descend outcomes, with their exit codes, are OUTCOME_EXIT: the
    outcomes that descend builds its certificates with."""
    names = {"success": "EXIT_OK", "input error": "EXIT_INPUT",
             "hypothesis failed": "EXIT_HYPOTHESIS", "search exhausted": "EXIT_EXHAUSTED"}
    assert sorted(name for name in vars(cli) if name.startswith("EXIT_")) == sorted(
        names.values())
    listed = re.findall(r"^\* `(\d)` ([^:]+):", _readme_section("CLI"), re.M)
    assert {text: int(code) for code, text in listed} == {
        text: getattr(cli, name) for text, name in names.items()}
    outcomes = re.findall(r"^\* `(\w+)` \(exit (\d)\)", _readme_section("descend outcomes"),
                          re.M)
    assert {outcome: int(code) for outcome, code in outcomes} == cli.OUTCOME_EXIT
    with open(os.path.join(SRC, "torusdescent", "descent.py"), encoding="utf-8") as fh:
        built = {node.args[2].value for node in ast.walk(ast.parse(fh.read()))
                 if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_certificate"}
    assert built == set(cli.OUTCOME_EXIT)


def test_only_main_and_the_usage_writers_print():
    """A handler returns its report and main prints it, so no other function
    of the CLI reads print, sys.stdout or sys.stderr, and only main loads
    the spec: a new subcommand cannot grow a writer of its own."""
    with open(cli.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    users = {}
    for top in tree.body:
        owner = top.name if isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and node.id in ("print", "load_spec"):
                users.setdefault(node.id, set()).add(owner)
            elif isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr"):
                users.setdefault("print", set()).add(owner)
    assert users["print"] == {"main", "_help", "_usage_error"}
    assert users["load_spec"] == {"main"}


@pytest.mark.parametrize(
    "command, options",
    [("selmer", []), ("local", ["--place", "3"]), ("solve", ["--height", "20"])],
)
def test_negative_fractional_t_reads_as_with_an_equals_sign(tmp_path, capsys, command, options):
    """argparse took `-1/2` after `--t` for an option and exited 2."""
    path = tmp_path / "roots-0-and-minus-1.spec"
    path.write_text("s0 real 2\na 2\nb 3\nfactor 1 1 0\nfactor 2 1 1\npartA 1\n")
    runs = []
    for t in (["--t", "-1/2"], ["--t=-1/2"]):
        runs.append((main([command, str(path), *t, *options]), capsys.readouterr()))
    assert runs[0] == runs[1]
    assert "t = -1/2" in runs[0][1].out


def test_solve_command(spec_file, capsys):
    # t = 1/2 gives x^2 + 9/2 y^2 = 1 with the axis point (1, 0)
    assert main(["solve", spec_file, "--t", "1/2"]) == 0
    out = capsys.readouterr().out
    assert "verified: True" in out
    # an insoluble-at-height fiber exits 3
    assert main(["solve", spec_file, "--t", "-3", "--height", "5"]) == 3


@pytest.mark.parametrize(
    "extra",
    [["selmer"], ["local", "--place", "7"], ["solve", "--height", "5"]],
    ids=["selmer", "local", "solve"],
)
@pytest.mark.parametrize(
    "t, message",
    [("0", "p_J"), ("-1", "p_J"), ("1/0", "zero denominator")],
    ids=["0", "-1", "zero-denominator"],
)
def test_fiber_at_root_of_p_j_is_input_error(spec_file, capsys, extra, t, message):
    assert main(["--json", extra[0], spec_file, "--t", t, *extra[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert captured.out == ""


def test_point_file_zero_denominator_is_input_error(tmp_path, capsys):
    spec, point, _ = family_point(0)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point) + "3 1/0 1 1 10\n")
    assert main(["descend", str(spec_path), "--point-file", str(point_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: point line")
    assert "zero denominator" in captured.err
    assert captured.out == ""


def test_factoring_failure_is_input_error(tmp_path, capsys, monkeypatch):
    def give_up(n):
        raise arith.FactorizationError(f"Pollard rho failed on {n}")

    monkeypatch.setattr(arith, "_pollard_rho", give_up)
    path = tmp_path / "hard.spec"
    path.write_text(f"s0 real 2\na 1\nb 1\nfactor 1 {1009 * 1013} 1\npartA 1\n")
    assert main(["validate", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: Pollard rho failed on {1009 * 1013}\n"
    assert captured.out == ""


def test_descend_command(tmp_path, capsys):
    spec, point, _ = family_point(0)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point))
    code = main(
        [
            "--json",
            "descend",
            str(spec_path),
            "--point-file",
            str(point_path),
            "--height",
            "400",
        ]
    )
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["outcome"] == "point_found"
    assert payload["data"]["reverified"] is True
    assert payload["trace"][0]["step"] == "hypotheses"


def test_json_reports_hash_the_spec_once(tmp_path, capsys, monkeypatch):
    """A descend certificate carries the spec hash, which main prints
    without hashing again; a report without one gets it from main."""
    calls = []

    def counted(spec):
        calls.append(spec)
        return surface.spec_hash(spec)

    monkeypatch.setattr(cli, "spec_hash", counted)
    monkeypatch.setattr(descent, "spec_hash", counted)
    spec, point, _ = family_point(0)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point))
    for argv in (["descend", str(spec_path), "--point-file", str(point_path), "--height", "400"],
                 ["validate", str(spec_path)], ["condition-d", str(spec_path)]):
        calls.clear()
        main(["--json", *argv])
        assert json.loads(capsys.readouterr().out)["spec_hash"] == surface.spec_hash(spec)
        assert calls == [spec], argv


def test_descend_json_round_trip_and_determinism(tmp_path, capsys):
    spec, point, _ = family_point(4)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point))
    argv = [
        "--json", "descend", str(spec_path),
        "--point-file", str(point_path), "--height", "200",
    ]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
    from torusdescent.descent import Certificate

    cert = Certificate.from_dict(json.loads(first))
    assert json.dumps(cert.as_dict(), sort_keys=True, separators=(",", ":")) + "\n" == first


def test_descend_hypothesis_exit_code(tmp_path, capsys):
    path = tmp_path / "fail.spec"
    path.write_text("s0 real 2\na 2\nb -1\nfactor 1 1 0\npartA 1\n")
    points = tmp_path / "fail.points"
    points.write_text("real 1 1 1 10\n2 1 1 1 10\n")
    assert main(["descend", str(path), "--point-file", str(points)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{spec}", "--t", "1/2", "--height", "-5"],
        ["descend", "{spec}", "--point-file", "{points}", "--height", "-1"],
        ["descend", "{spec}", "--point-file", "{points}", "--admissible-bound", "-1"],
        ["descend", "{spec}", "--point-file", "{points}", "--prime-bound", "-1"],
        ["descend", "{spec}", "--point-file", "{points}", "--max-steps", "-1"],
    ],
    ids=["solve-height", "height", "admissible-bound", "prime-bound", "max-steps"],
)
def test_negative_search_bound_is_input_error(tmp_path, capsys, argv):
    spec, point, _ = family_point(0)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point))
    argv = [arg.format(spec=spec_path, points=point_path) for arg in argv]
    with pytest.raises(SystemExit) as rejected:
        main(["--json", *argv])
    captured = capsys.readouterr()
    assert (rejected.value.code, captured.out) == (1, "")
    assert captured.err.startswith("usage: torusdescent ")
    assert f"\ntorusdescent: error: argument {argv[-2]}: must be nonnegative" in captured.err


def test_no_option_value_carries_over_between_calls(tmp_path, spec_file, capsys):
    # --json on one call does not carry over to the next
    assert main(["--json", "validate", spec_file]) == 0
    assert json.loads(capsys.readouterr().out)["valid"] is True
    assert main(["validate", spec_file]) == 0
    assert capsys.readouterr().out.startswith("spec valid; d = 6\n")
    # nor does an option value: the second descend runs at the default height
    spec, point, _ = family_point(0)
    spec_path = tmp_path / "family.spec"
    spec_path.write_text(serialize_spec(spec))
    point_path = tmp_path / "family.points"
    point_path.write_text(serialize_point(point))
    argv = ["descend", str(spec_path), "--point-file", str(point_path)]
    assert parse_argv([*argv, "--height", "5"]).height == 5
    assert parse_argv([*argv, "--height", "5", "--height=7"]).height == 7  # the last one wins
    assert parse_argv(argv).height == DescentBounds().height
    main(["--json", *argv, "--height", "5"])
    assert json.loads(capsys.readouterr().out)["bounds"]["height"] == 5
    main(["--json", *argv])
    bounds = json.loads(capsys.readouterr().out)["bounds"]
    assert bounds["height"] == DescentBounds().height


def test_usage_error_leaves_the_next_call_as_in_a_fresh_process(spec_file, capsys):
    argv = ["selmer", spec_file, "--t", "1/2"]
    assert main(["--json", *argv]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as rejected:
        main(["selmer", spec_file])  # --t is required
    assert rejected.value.code == 1
    assert "--t" in capsys.readouterr().err
    rc = main(argv)
    captured = capsys.readouterr()
    fresh = run_module(*argv)
    assert (rc, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert captured.out.startswith("fiber t = 1/2: ")


@pytest.mark.parametrize(
    "argv, named",
    [([], "required: command"), (["--json"], "required: command"),
     (["solv", "s.spec"], "invalid choice: 'solv'"), (["validate"], "required: spec"),
     (["validate", "a.spec", "b.spec"], "unrecognized arguments: b.spec"),
     (["validate", "s.spec", "--json"], "unrecognized arguments: --json"),
     (["local", "s.spec", "--t", "1", "--pl", "3"], "unrecognized arguments: --pl"),
     (["local", "s.spec", "--t", "1", "--place=3", "--model=r"], "argument --model: invalid choice"),
     (["selmer", "s.spec", "--t"], "argument --t: expected one argument"),
     (["selmer", "s.spec"], "required: --t"),
     (["descend", "s.spec", "--point-file", "p", "--max-steps", "1.5"], "argument --max-steps: ")],
    ids=["no-command", "json-only", "unknown-command", "no-spec", "two-specs", "json-after",
         "prefix", "model", "missing-value", "missing-option", "non-integer-bound"],
)
def test_usage_errors_exit_1_naming_the_problem(capsys, argv, named):
    with pytest.raises(SystemExit) as rejected:
        main(argv)
    captured = capsys.readouterr()
    assert (rejected.value.code, captured.out) == (1, "")
    assert captured.err.startswith("usage: torusdescent ") and named in captured.err
    assert "\ntorusdescent: error: " in captured.err


_JUNK = ["", "x", "3/-4", "3 /4", "3/+4", "1_0", "１/２", "1e3", "1e999999999", "0.5", "-", "1/0",
         "٣"]
_PLACES = ["real", "oo", "2", "3", "5", "7", "11", "4", "1", "0", "-3"]


def _rational_tokens():
    return st.one_of(
        st.integers(-50, 50).map(str),
        st.builds("{}/{}".format, st.integers(-50, 50), st.integers(0, 12)),
        st.sampled_from(_JUNK),
    )


@st.composite
def _spec_text(draw):
    """A spec file: mostly well formed, with small or 10^6-sized integers,
    and now and then a junk token or a dropped, repeated or commented line."""
    integer = st.one_of(st.integers(-20, 20), st.integers(-10**6, 10**6)).map(str)
    token = st.one_of(integer, integer, integer, st.sampled_from(_JUNK))
    indices = draw(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    lines = ["s0 " + " ".join(draw(st.lists(st.sampled_from(_PLACES), max_size=4))),
             f"a {draw(token)}", f"b {draw(token)}",
             *(f"factor {i} {draw(st.sampled_from(['1', '-1', '2', '3']) | token)} {draw(token)}"
               for i in indices),
             "partA" + "".join(f" {i}" for i in draw(st.lists(st.sampled_from(indices),
                                                              max_size=2)))]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["drop", "repeat", "junk", "comment"]))
        if edit == "drop":
            del lines[k]
        elif edit == "repeat":
            lines.insert(k, lines[k])
        elif edit == "junk":
            lines[k] += " " + draw(token)
        else:
            lines[k] = "# " + lines[k]
    return "\n".join(lines) + "\n"


@functools.cache
def _family_files(index):
    """The spec and point file texts of a family member."""
    spec, point, _ = family_point(index)
    return serialize_spec(spec), serialize_point(point)


@st.composite
def _cli_inputs(draw):
    """(spec text, point file text, subcommand and its options, --json or
    not) of one call: a family member's files, perhaps with one coordinate
    replaced, or fuzzed ones."""
    if draw(st.booleans()):
        spec_text, point_text = _family_files(draw(st.sampled_from([0, 5, 13])))
        if draw(st.booleans()):
            rows = point_text.splitlines()
            k, field = draw(st.integers(0, len(rows) - 1)), draw(st.integers(1, 3))
            tokens = rows[k].split()
            tokens[field] = draw(_rational_tokens())
            rows[k] = " ".join(tokens)
            point_text = "\n".join(rows) + "\n"
    else:
        spec_text = draw(_spec_text())
        rows = [f"{v} {draw(_rational_tokens())} {draw(_rational_tokens())} "
                f"{draw(_rational_tokens())} {draw(st.sampled_from(['1', '12', '0', 'x']))}"
                for v in draw(st.lists(st.sampled_from(_PLACES), max_size=4))]
        point_text = "\n".join(rows) + "\n"
    t = ("--t", draw(_rational_tokens()))
    command, *options = draw(st.sampled_from([
        ("validate",), ("condition-d",), ("brauer",), ("selmer", t),
        ("local", t, ("--place", draw(st.sampled_from(_PLACES))),
         ("--model", draw(st.sampled_from(["integral", "rational"])))),
        ("solve", t, ("--height", "20")),
        ("descend", ("--point-file", "POINTS"), ("--height", "20"), ("--admissible-bound", "60"),
         ("--prime-bound", "2000"), ("--max-steps", "6")),
    ]))
    return (spec_text, point_text) + draw(_argv(command, options, draw(st.booleans())))


_ARGV_DEFECTS = ("unknown", "prefix", "missing-value", "repeat", "json-after", "no-command",
                 "no-spec", "two-specs", "help")


@st.composite
def _argv(draw, command, options, as_json):
    """(argv, defect or None) of one call, SPEC and POINTS standing for the
    file paths: the spec path and the options in a shuffled order, each
    option as `--name value` or `--name=value`, and half the time one
    defect. Only a repeated option leaves the argv well formed; -h is a
    value when it lands after an option name in the space form."""
    defect = draw(st.sampled_from((None,) * len(_ARGV_DEFECTS) + _ARGV_DEFECTS))
    names = [name for name, _ in options] or ["--t"]
    if defect == "repeat" and options:
        options.append(draw(st.sampled_from(options)))
    elif defect in ("unknown", "prefix"):
        prefixes = [name[:k] for name in names for k in range(3, len(name))] or ["--pl"]
        options.append((draw(st.sampled_from(["--bogus", "-x", "--", "--point_file"]
                                             if defect == "unknown" else prefixes)), "3"))
    items = [["SPEC"]] + [[name, value] if draw(st.booleans()) else [f"{name}={value}"]
                          for name, value in options]
    argv = [token for item in draw(st.permutations(items)) for token in item]
    if defect == "missing-value":
        argv.append(draw(st.sampled_from(names)))
    elif defect == "no-spec":
        argv.remove("SPEC")
    elif defect == "two-specs":
        argv.append("SPEC")
    elif defect in ("json-after", "help"):
        argv.insert(draw(st.integers(0, len(argv))), "--json" if defect == "json-after" else "-h")
    argv = ["--json"] * as_json + [command] * (defect != "no-command") + argv
    return argv, defect


@given(_cli_inputs())
@settings(max_examples=250, deadline=None, derandomize=True)
def test_cli_fuzz_exits_with_a_known_code(case):
    """Fuzzed spec text, point file lines, --t values and argv shapes: a
    well-formed call returns one of the four exit codes, -h exits 0 after
    the help (or 1 when it is taken for a value) and every other defect
    exits 1 after a usage error; no other exception leaves main."""
    spec_text, point_text, argv, defect = case
    exits = {None: (), "repeat": (), "help": (0, 1)}.get(defect, (1,))
    with tempfile.TemporaryDirectory() as tmp:
        spec_path, point_path = os.path.join(tmp, "fuzz.spec"), os.path.join(tmp, "fuzz.points")
        for path, text in ((spec_path, spec_text), (point_path, point_text)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        argv = [{"SPEC": spec_path, "POINTS": point_path}.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:
            assert exc.code in exits, argv
            assert (err if exc.code else out).getvalue().startswith("usage:"), argv
            assert exc.code == 0 or "torusdescent: error: " in err.getvalue(), argv
        else:
            assert not exits and code in (0, 1, 2, 3), argv


# three family members: a point found, one dual Selmer reduction and two
_DETERMINISM_MEMBERS = (0, 5, 16)


def _golden_entry(name, case):
    path = os.path.join(os.path.dirname(__file__), "golden", f"{name}.jsonl")
    with open(path, encoding="utf-8") as fh:
        return next(entry for entry in map(json.loads, fh) if entry["case"] == case)


def test_reports_are_byte_identical_across_hash_seeds(tmp_path):
    """validate, condition-d and descend --point-file in fresh interpreters
    under two hash seeds print the same text as each other and as the
    goldens (ASCII JSON, so the same bytes): the set-built parts of a spec
    (S0, partA) reach spec_hash and the reports in a fixed order."""
    for k in _DETERMINISM_MEMBERS:
        spec_text, point_text = _family_files(k)
        spec_path, point_path = tmp_path / f"family-{k}.spec", tmp_path / f"family-{k}.points"
        spec_path.write_text(spec_text)
        point_path.write_text(point_text)
        validate = _golden_entry("cli", f"family-{k:02d}/validate")
        condition_d = _golden_entry("condition_d", f"family-{k:02d}")
        descend = _golden_entry("descend", f"family-{k:02d}/solve=1")
        expected = {  # every member's descent ends in an exit-0 outcome
            ("validate",): (validate["exit"], validate["stdout"]),
            ("condition-d",): (condition_d["exit"], condition_d["stdout"]),
            ("descend", "--point-file", str(point_path)): (0, descend["output"] + "\n"),
        }
        for (command, *options), (code, stdout) in expected.items():
            runs = [run_module("--json", command, str(spec_path), *options, hash_seed=seed)
                    for seed in ("0", "1")]
            for done in runs:
                assert done.returncode == code, (k, command, done.stderr)
            assert runs[0].stdout == runs[1].stdout == stdout, (k, command)
