"""Command-line front end: spec ingestion, subcommand dispatch, and
certificate/report emission.

Exit codes: 0 success (including point_found), 1 input error,
2 hypothesis failed, 3 search exhausted.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built at the first call and shared by every later
    one: parse_args returns a fresh Namespace each time and every default is
    an immutable value, so no option value carries over between calls."""
    parser = argparse.ArgumentParser(
        prog="torusdescent",
        description="Integral points on conic bundles via descent on norm-one torus fibrations",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a surface spec file")
    p.add_argument("spec")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("condition-d", help="compute the Condition (D) groups")
    p.add_argument("spec")
    p.set_defaults(func=cmd_condition_d)

    p = sub.add_parser("selmer", help="Selmer groups of the fiber torus at t")
    p.add_argument("spec")
    p.add_argument("--t", required=True)
    p.set_defaults(func=cmd_selmer)

    p = sub.add_parser("brauer", help="vertical Brauer generators and residues")
    p.add_argument("spec")
    p.set_defaults(func=cmd_brauer)

    p = sub.add_parser("local", help="local solubility of a fiber")
    p.add_argument("spec")
    p.add_argument("--t", required=True)
    p.add_argument("--place", required=True)
    p.add_argument("--model", choices=["integral", "rational"], default="integral")
    p.set_defaults(func=cmd_local)

    defaults = DescentBounds()
    p = sub.add_parser("descend", help="run the full descent pipeline")
    p.add_argument("spec")
    p.add_argument("--point-file", required=True)
    p.add_argument("--height", type=int, default=defaults.height)
    p.add_argument("--admissible-bound", type=int, default=defaults.admissible_candidates)
    p.add_argument("--prime-bound", type=int, default=defaults.prime_scan)
    p.add_argument("--max-steps", type=int, default=defaults.max_steps)
    p.set_defaults(func=cmd_descend)

    p = sub.add_parser("solve", help="bounded point search on one fiber")
    p.add_argument("spec")
    p.add_argument("--t", required=True)
    p.add_argument("--height", type=int, default=defaults.height)
    p.set_defaults(func=cmd_solve)

    return parser


# search bounds: a negative value would silently mean an empty search
BOUND_OPTIONS = ("height", "admissible_bound", "prime_bound", "max_steps")


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
