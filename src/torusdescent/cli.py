"""Command-line front end: spec ingestion, subcommand dispatch, and
report emission.

Grammar: torusdescent [--json] COMMAND SPEC [--name value | --name=value]...
--json comes before the command, and there is exactly one spec path. Option
names are exact (no prefixes). The token after an option name is its value,
even when it starts with "-" (--t -1/2). A repeated option's last value wins.
-h or --help prints the help and exits 0. Any other problem is a usage error:
a usage line and the error on stderr, then SystemExit(1).

A subcommand is a handler and its row of COMMANDS. The handler takes the
loaded spec and the parsed namespace and returns (exit code, report fields,
text lines); it neither loads nor prints. Text lines that cost work are
returned lazily, so --json never builds them. main loads the spec, runs the
handler and prints the report: with --json the canonical_json of the spec
hash, the readings and the fields, otherwise the text lines. The fields of
descend are its certificate, and its exit code is OUTCOME_EXIT[outcome].

Exit codes: 0 success (including point_found and dual_selmer_minimized),
1 input or usage error, 2 hypothesis failed, 3 search exhausted.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace
from typing import Dict, Iterator, List, Optional

from .arith import REAL, Place, PrimalityRangeError, factorize, parse_place, parse_rational
from .brauer import residue_at
from .conditiond import check_condition_d
from .descent import (
    READINGS,
    Certificate,
    DescentBounds,
    DescentError,
    descend,
)
from .points import local_solubility, solve_global, verify_integral_point
from .selmer import selmer_groups, torus_data
from .surface import (
    fiber,
    load_spec,
    parse_point_file,
    past_primality_range,
    spec_hash,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_HYPOTHESIS = 2
EXIT_EXHAUSTED = 3

# descend outcome -> exit code
OUTCOME_EXIT = {
    "point_found": EXIT_OK,
    "dual_selmer_minimized": EXIT_OK,
    "hypothesis_failed": EXIT_HYPOTHESIS,
    "search_exhausted": EXIT_EXHAUSTED,
}


_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(payload: Dict) -> str:
    """The canonical JSON form of a report: sorted keys, no spaces, by the
    one encoder built at import."""
    return _CANONICAL.encode(payload)


def _validate_lines(spec, s_bad: List[str]) -> Iterator[str]:
    yield f"spec valid; d = {spec.d}"
    yield "S_bad = {" + ", ".join(s_bad) + "}"
    yield f"spec hash {spec_hash(spec)}"


def cmd_validate(spec, args):
    fields = {"valid": True, "d": str(spec.d), "s_bad": [str(v) for v in spec.s_bad]}
    return EXIT_OK, fields, _validate_lines(spec, fields["s_bad"])


def cmd_condition_d(spec, args):
    report = check_condition_d(spec)
    fields = {
        "holds": report.holds,
        "g_d": [str(g) for g in report.g_d],
        "g_d_dual": [str(g) for g in report.g_d_dual],
        "witnesses": [str(g) for g in report.witnesses],
    }
    return EXIT_OK if report.holds else EXIT_HYPOTHESIS, fields, map(str, [report])


def cmd_selmer(spec, args):
    t = parse_rational(args.t)
    x = fiber(spec, t).torus_d
    # one factorization gives both the class and its primes: the square-free
    # class can be past the primality range when its factors are not
    try:
        factors = {**factorize(x.numerator), **factorize(x.denominator)}
    except PrimalityRangeError:
        name = "torus parameter -d*p_J(t)"
        raise ValueError(past_primality_range(name, x)) from None
    ramified = [p for p, e in factors.items() if e % 2]
    support = {2} | set(spec.s0_finite_primes) | set(ramified)
    places = [REAL] + [Place.finite(p) for p in sorted(support)]
    torus = torus_data(math.prod(ramified, start=-1 if x < 0 else 1), places)
    lattice, sel, dual = selmer_groups(torus)
    names = [str(v) for v in torus.places]
    basis = [str(lattice.decode(m).c) for m in sel.basis]
    dual_basis = [str(lattice.decode(m).c) for m in dual.basis]
    fields = {
        "t": str(t),
        "torus_d": str(torus.d),
        "places": names,
        "selmer_basis": basis,
        "dual_selmer_basis": dual_basis,
        "dim_selmer": sel.dim,
        "dim_dual_selmer": dual.dim,
    }
    return EXIT_OK, fields, [
        f"fiber t = {t}: torus parameter {torus.d} over S = {{{', '.join(names)}}}",
        f"Selmer group: dim {sel.dim}, basis {{{', '.join(basis)}}}",
        f"dual Selmer group: dim {dual.dim}, basis {{{', '.join(dual_basis)}}}",
    ]


def cmd_brauer(spec, args):
    gens = []
    lines = []
    roots = [(f"t={root}", root) for root in map(spec.root, spec.indices)]
    for i in spec.indices:
        left, (c, d) = spec.brauer_constants[i], spec.coeffs(i)
        residues = {name: str(residue_at(spec, i, root)) for name, root in roots}
        gens.append({"index": i, "left": str(left), "right": [str(d), str(c)],
                     "residues": residues})
        lines.append(f"generator {i}: ({left}, p_{i}(t)); residues: "
                     + ", ".join(f"{k} -> {v}" for k, v in residues.items()))
    return EXIT_OK, {"generators": gens}, lines


def cmd_local(spec, args):
    t = parse_rational(args.t)
    try:
        v = parse_place(args.place)
    except ValueError as exc:  # not an integer, not prime, or past the primality range
        raise ValueError(f"--place {args.place}: {exc}") from None
    fib = fiber(spec, t)
    result = local_solubility(fib.aA, fib.bB, v, model=args.model)
    witness = result.witness
    fields = {
        "t": str(t),
        "place": str(v),
        "model": args.model,
        "status": result.status,
        "witness": [str(c) for c in witness] if witness else None,
        "certificate": result.certificate,
    }
    return EXIT_OK, fields, [
        f"fiber t = {t} at {v} ({args.model} model): {result.status}"
        + (f"; witness ({witness[0]}, {witness[1]})" if witness else "")
        + (f"; {result.certificate}" if result.certificate else "")
    ]


def cmd_solve(spec, args):
    t = parse_rational(args.t)
    fib = fiber(spec, t)
    sol = solve_global(fib.aA, fib.bB, spec.s0_finite_primes, args.height)
    if sol is None:
        fields = {"t": str(t), "found": False, "height": args.height}
        return EXIT_EXHAUSTED, fields, [
            f"no point on the fiber t = {t} within height {args.height}"]
    x, y = sol
    verified = verify_integral_point(spec, x, y, t)
    fields = {"t": str(t), "found": True, "x": str(x), "y": str(y), "verified": verified}
    return EXIT_OK, fields, [f"point (x, y, t) = ({x}, {y}, {t}); verified: {verified}"]


def render_certificate(cert: Certificate) -> Iterator[str]:
    """The lines of the deterministic human-readable rendering of a certificate."""
    yield f"outcome: {cert.outcome}"
    for key in sorted(cert.data):
        yield f"  {key}: {cert.data[key]}"
    yield f"spec hash: {cert.spec_sha}"
    for key in sorted(cert.readings):
        yield f"reading {key}: {cert.readings[key]}"
    yield "trace:"
    for entry in cert.trace:
        step = entry.get("step", "?")
        rest = ", ".join(
            f"{k}={entry[k]}" for k in sorted(entry) if k not in ("step", "details")
        )
        yield f"  - {step}: {rest}"


def cmd_descend(spec, args):
    with open(args.point_file, "rb") as fh:
        point = parse_point_file(fh.read().decode("utf-8"), spec)
    bounds = DescentBounds(
        admissible_candidates=args.admissible_bound,
        prime_scan=args.prime_bound,
        height=args.height,
        max_steps=args.max_steps,
    )
    cert = descend(spec, point, bounds)
    # the certificate carries the spec hash and the readings itself
    return OUTCOME_EXIT[cert.outcome], cert.as_dict(), render_certificate(cert)


def _bound(value: str) -> int:
    # a negative search bound would silently mean an empty search
    bound = int(value)
    if bound < 0:
        raise ValueError("must be nonnegative")
    return bound


def _model(value: str) -> str:
    if value in ("integral", "rational"):
        return value
    raise ValueError(f"invalid choice: {value!r} (choose from 'integral', 'rational')")


_BOUNDS = DescentBounds()
_T = {"--t": (str, None)}

# command -> (handler, help, options); an option maps its exact name to
# (converter, default), and a default of None marks it required
COMMANDS = {
    "validate": (cmd_validate, "validate a surface spec file", {}),
    "condition-d": (cmd_condition_d, "compute the Condition (D) groups", {}),
    "selmer": (cmd_selmer, "Selmer groups of the fiber torus at t", _T),
    "brauer": (cmd_brauer, "vertical Brauer generators and residues", {}),
    "local": (cmd_local, "local solubility of a fiber (--model integral or rational)", {
        **_T, "--place": (str, None), "--model": (_model, "integral")}),
    "descend": (cmd_descend, "run the full descent pipeline", {
        "--point-file": (str, None),
        "--height": (_bound, _BOUNDS.height),
        "--admissible-bound": (_bound, _BOUNDS.admissible_candidates),
        "--prime-bound": (_bound, _BOUNDS.prime_scan),
        "--max-steps": (_bound, _BOUNDS.max_steps)}),
    "solve": (cmd_solve, "bounded point search on one fiber", {
        **_T, "--height": (_bound, _BOUNDS.height)}),
}


def _synopsis(command: str) -> str:
    return f"{command} spec" + "".join(
        f" {name} {name[2:].upper()}" if default is None else f" [{name} {default}]"
        for name, (_, default) in COMMANDS[command][2].items())


def _usage_error(command: Optional[str], what: str):
    usage = _synopsis(command) if command else "{" + ",".join(COMMANDS) + "} spec [options]"
    print(f"usage: torusdescent [-h] [--json] {usage}\ntorusdescent: error: {what}",
          file=sys.stderr)
    raise SystemExit(EXIT_INPUT)


def _help():
    print("usage: torusdescent [-h] [--json] COMMAND spec [options]\n\n"
          "--json (before the command): machine-readable output\n\n"
          "commands (an optional value in brackets shows its default):")
    for command, (_, text, _) in COMMANDS.items():
        print(f"  {command:<12} {text}\n      torusdescent {_synopsis(command)}")
    raise SystemExit(0)


def parse_argv(argv: List[str]) -> SimpleNamespace:
    """The namespace of one command line (grammar in the module docstring):
    json, command, func, spec and one field per option of the command. -h
    prints the help and raises SystemExit(0); a usage error prints the
    usage and the error and raises SystemExit(1)."""
    k = 0
    while k < len(argv) and argv[k] == "--json":
        k += 1
    if k == len(argv):
        _usage_error(None, "the following arguments are required: command")
    command = argv[k]
    if command in ("-h", "--help"):
        _help()
    if command not in COMMANDS:
        _usage_error(None, f"argument command: invalid choice: {command!r} "
                     f"(choose from {', '.join(COMMANDS)})")
    func, _, options = COMMANDS[command]
    positionals, values = [], {}
    tokens = iter(argv[k + 1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help()
        if token[:1] != "-" or token == "-":
            positionals.append(token)
            continue
        name, equals, value = token.partition("=")
        if name not in options:
            _usage_error(command, f"unrecognized arguments: {token}")
        if not equals:  # the next token is the value, even when it starts with "-"
            value = next(tokens, None)
            if value is None:
                _usage_error(command, f"argument {name}: expected one argument")
        try:
            values[name] = options[name][0](value)
        except ValueError as exc:
            _usage_error(command, f"argument {name}: {exc}")
    missing = ["spec"] * (not positionals) + [
        name for name, (_, default) in options.items() if default is None and name not in values]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if len(positionals) > 1:
        _usage_error(command, f"unrecognized arguments: {' '.join(positionals[1:])}")
    return SimpleNamespace(json=k > 0, command=command, func=func, spec=positionals[0], **{
        name[2:].replace("-", "_"): values.get(name, default)
        for name, (_, default) in options.items()})


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        spec = load_spec(args.spec)
        code, fields, lines = args.func(spec, args)
        if args.json:
            if "spec_hash" not in fields:  # a certificate carries its own
                fields = {"spec_hash": spec_hash(spec), **fields}
            print(canonical_json({"readings": READINGS, **fields}))
        else:
            for line in lines:
                print(line)
        return code
    except (DescentError, OSError, ValueError) as exc:  # input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
