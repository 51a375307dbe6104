"""Command-line front end: spec ingestion, subcommand dispatch, and
certificate/report emission.

Grammar: torusdescent [--json] COMMAND SPEC [--name value | --name=value]...
--json comes before the command, and there is exactly one spec path. Option
names are exact (no prefixes). The token after an option name is its value,
even when it starts with "-" (--t -1/2). A repeated option's last value wins.
-h or --help prints the help and exits 0. Any other problem is a usage error:
a usage line and the error on stderr, then SystemExit(2).

Exit codes: 0 success (including point_found), 1 input error,
2 hypothesis failed, 3 search exhausted.
"""

from __future__ import annotations

import json
import math
import sys
from types import SimpleNamespace
from typing import Dict, List, Optional

from .arith import Place, PrimalityRangeError, factorize, parse_place, parse_rational
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


def _emit(payload: Dict, as_json: bool, text_lines: List[str]) -> None:
    if as_json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in text_lines:
            print(line)


def _report_base(spec) -> Dict:
    return {"spec_hash": spec_hash(spec), "readings": dict(READINGS)}


def cmd_validate(args) -> int:
    spec = load_spec(args.spec)
    payload = _report_base(spec)
    payload.update(
        {
            "valid": True,
            "d": str(spec.d),
            "s_bad": [str(v) for v in spec.s_bad],
        }
    )
    _emit(
        payload,
        args.json,
        [
            f"spec valid; d = {spec.d}",
            "S_bad = {" + ", ".join(payload["s_bad"]) + "}",
            f"spec hash {payload['spec_hash']}",
        ],
    )
    return EXIT_OK


def cmd_condition_d(args) -> int:
    spec = load_spec(args.spec)
    report = check_condition_d(spec)
    payload = _report_base(spec)
    payload.update(
        {
            "holds": report.holds,
            "g_d": [str(g) for g in report.g_d],
            "g_d_dual": [str(g) for g in report.g_d_dual],
            "witnesses": [str(g) for g in report.witnesses],
        }
    )
    _emit(payload, args.json, [str(report)])
    return EXIT_OK if report.holds else EXIT_HYPOTHESIS


def cmd_selmer(args) -> int:
    spec = load_spec(args.spec)
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
    places = [Place.real()] + [Place.finite(p) for p in sorted(support)]
    torus = torus_data(math.prod(ramified, start=-1 if x < 0 else 1), places)
    lattice, sel, dual = selmer_groups(torus)
    payload = _report_base(spec)
    payload.update(
        {
            "t": str(t),
            "torus_d": str(torus.d),
            "places": [str(v) for v in torus.places],
            "selmer_basis": [str(lattice.decode(m).c) for m in sel.basis],
            "dual_selmer_basis": [str(lattice.decode(m).c) for m in dual.basis],
            "dim_selmer": sel.dim,
            "dim_dual_selmer": dual.dim,
        }
    )
    _emit(
        payload,
        args.json,
        [
            f"fiber t = {t}: torus parameter {torus.d} over S = "
            + "{" + ", ".join(str(v) for v in torus.places) + "}",
            f"Selmer group: dim {sel.dim}, basis "
            + "{" + ", ".join(payload["selmer_basis"]) + "}",
            f"dual Selmer group: dim {dual.dim}, basis "
            + "{" + ", ".join(payload["dual_selmer_basis"]) + "}",
        ],
    )
    return EXIT_OK


def cmd_brauer(args) -> int:
    spec = load_spec(args.spec)
    payload = _report_base(spec)
    gens = []
    lines = []
    for i in spec.indices:
        left, (c, d) = spec.brauer_constants[i], spec.coeffs(i)
        entries = {
            "index": i,
            "left": str(left),
            "right": [str(d), str(c)],
            "residues": {},
        }
        for j in spec.indices:
            root = spec.root(j)
            res = residue_at(spec, i, root)
            entries["residues"][f"t={root}"] = str(res)
        gens.append(entries)
        lines.append(
            f"generator {i}: ({left}, p_{i}(t)); residues: "
            + ", ".join(f"{k} -> {v}" for k, v in entries["residues"].items())
        )
    payload["generators"] = gens
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_local(args) -> int:
    spec = load_spec(args.spec)
    t = parse_rational(args.t)
    try:
        v = parse_place(args.place)
    except ValueError as exc:  # not an integer, not prime, or past the primality range
        raise ValueError(f"--place {args.place}: {exc}") from None
    fib = fiber(spec, t)
    model = args.model
    result = local_solubility(fib.aA, fib.bB, v, model=model)
    payload = _report_base(spec)
    payload.update(
        {
            "t": str(t),
            "place": str(v),
            "model": model,
            "status": result.status,
            "witness": [str(c) for c in result.witness] if result.witness else None,
            "certificate": result.certificate,
        }
    )
    witness_text = (
        f"; witness ({result.witness[0]}, {result.witness[1]})"
        if result.witness
        else ""
    )
    _emit(
        payload,
        args.json,
        [
            f"fiber t = {t} at {v} ({model} model): {result.status}"
            + witness_text
            + (f"; {result.certificate}" if result.certificate else "")
        ],
    )
    return EXIT_OK


def cmd_solve(args) -> int:
    spec = load_spec(args.spec)
    t = parse_rational(args.t)
    fib = fiber(spec, t)
    sol = solve_global(fib.aA, fib.bB, spec.s0_finite_primes, args.height)
    payload = _report_base(spec)
    if sol is None:
        payload.update({"t": str(t), "found": False, "height": args.height})
        _emit(payload, args.json, [f"no point on the fiber t = {t} within height {args.height}"])
        return EXIT_EXHAUSTED
    x, y = sol
    verified = verify_integral_point(spec, x, y, t)
    payload.update(
        {"t": str(t), "found": True, "x": str(x), "y": str(y), "verified": verified}
    )
    _emit(payload, args.json, [f"point (x, y, t) = ({x}, {y}, {t}); verified: {verified}"])
    return EXIT_OK


def render_certificate(cert: Certificate) -> str:
    """Deterministic human-readable rendering of a certificate."""
    lines = [f"outcome: {cert.outcome}"]
    for key in sorted(cert.data):
        lines.append(f"  {key}: {cert.data[key]}")
    lines.append(f"spec hash: {cert.spec_sha}")
    for key in sorted(cert.readings):
        lines.append(f"reading {key}: {cert.readings[key]}")
    lines.append("trace:")
    for entry in cert.trace:
        step = entry.get("step", "?")
        rest = ", ".join(
            f"{k}={entry[k]}" for k in sorted(entry) if k not in ("step", "details")
        )
        lines.append(f"  - {step}: {rest}")
    return "\n".join(lines)


def certificate_json(cert: Certificate) -> str:
    return json.dumps(cert.as_dict(), sort_keys=True, separators=(",", ":"))


def cmd_descend(args) -> int:
    spec = load_spec(args.spec)
    with open(args.point_file, "rb") as fh:
        point = parse_point_file(fh.read().decode("utf-8"), spec)
    bounds = DescentBounds(
        admissible_candidates=args.admissible_bound,
        prime_scan=args.prime_bound,
        height=args.height,
        max_steps=args.max_steps,
    )
    cert = descend(spec, point, bounds)
    if args.json:
        print(certificate_json(cert))
    else:
        print(render_certificate(cert))
    if cert.outcome == "point_found":
        return EXIT_OK
    if cert.outcome == "dual_selmer_minimized":
        return EXIT_OK
    if cert.outcome == "hypothesis_failed":
        return EXIT_HYPOTHESIS
    return EXIT_EXHAUSTED


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
        "--height": (int, _BOUNDS.height),
        "--admissible-bound": (int, _BOUNDS.admissible_candidates),
        "--prime-bound": (int, _BOUNDS.prime_scan),
        "--max-steps": (int, _BOUNDS.max_steps)}),
    "solve": (cmd_solve, "bounded point search on one fiber", {
        **_T, "--height": (int, _BOUNDS.height)}),
}


def _synopsis(command: str) -> str:
    return f"{command} spec" + "".join(
        f" {name} {name[2:].upper()}" if default is None else f" [{name} {default}]"
        for name, (_, default) in COMMANDS[command][2].items())


def _usage_error(command: Optional[str], what: str):
    usage = _synopsis(command) if command else "{" + ",".join(COMMANDS) + "} spec [options]"
    print(f"usage: torusdescent [-h] [--json] {usage}\ntorusdescent: error: {what}",
          file=sys.stderr)
    raise SystemExit(2)


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
    usage and the error and raises SystemExit(2)."""
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


# search bounds: a negative value would silently mean an empty search
BOUND_OPTIONS = ("height", "admissible_bound", "prime_bound", "max_steps")


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_argv(sys.argv[1:] if argv is None else argv)
    try:
        for name in BOUND_OPTIONS:
            if getattr(args, name, 0) < 0:
                raise ValueError(f"--{name.replace('_', '-')} must be nonnegative")
        return args.func(args)
    except (DescentError, OSError, ValueError) as exc:  # input errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
