"""Independent checks of every output the benchmark collects.

Nothing here imports torusdescent.  Arithmetic is sympy's factoring and
primality plus this module's own `Fraction` code: valuations, local square
tests, Hilbert symbols, and F2 elimination for the Condition (D) groups.
Each `check_*` function returns a list of problems; an empty list means the
output is right.
"""

from __future__ import annotations

import hashlib
import json
import re
from fractions import Fraction
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from sympy import factorint, isprime

from inputs import CliCase, RawSpec, s_bad_primes

GElem = Tuple[int, FrozenSet[int]]  # (signed square-free c, subset J')


def _factor(n: int) -> Dict[int, int]:
    return {int(p): int(e) for p, e in factorint(abs(n)).items()}


def sqfree(x) -> int:
    """Signed square-free integer in the square class of x."""
    x = Fraction(x)
    out = 1 if x > 0 else -1
    for n in (x.numerator, x.denominator):
        for p, e in _factor(n).items():
            if e % 2:
                out *= p
    return out


def val(x, p: int) -> int:
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _unit_mod(x: Fraction, p: int, k: int) -> int:
    """The unit part of x modulo p^k."""
    x = Fraction(x) / Fraction(p) ** val(x, p)
    m = p**k
    return x.numerator * pow(x.denominator, -1, m) % m


def legendre(x, p: int) -> int:
    """Legendre symbol of a rational at an odd prime, by Euler's criterion."""
    x = Fraction(x)
    if x.numerator % p == 0 or x.denominator % p == 0:
        return 0
    r = pow(x.numerator * pow(x.denominator, -1, p) % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def is_local_square(x, p: Optional[int]) -> bool:
    """x in (Q_p^*)^2, or in (R^*)^2 when p is None."""
    x = Fraction(x)
    if p is None:
        return x > 0
    if val(x, p) % 2:
        return False
    if p == 2:
        return _unit_mod(x, 2, 3) == 1
    return legendre(_unit_mod(x, p, 1), p) == 1


def hilbert(a, b, p: Optional[int]) -> int:
    """Additive Hilbert symbol (a, b)_p in {0, 1}; p None is the real place."""
    a, b = Fraction(a), Fraction(b)
    if p is None:
        return int(a < 0 and b < 0)
    al, be = val(a, p), val(b, p)
    if p == 2:
        u, w = _unit_mod(a, 2, 3), _unit_mod(b, 2, 3)
        eps = lambda z: (z - 1) // 2 % 2  # noqa: E731
        omega = lambda z: (z * z - 1) // 8 % 2  # noqa: E731
        return (eps(u) * eps(w) + al * omega(w) + be * omega(u)) % 2
    u, w = _unit_mod(a, p, 1), _unit_mod(b, p, 1)
    chi = lambda z: 0 if legendre(z, p) == 1 else 1  # noqa: E731
    return (al * be * ((p - 1) // 2) + be * chi(u) + al * chi(w)) % 2


# ---------------------------------------------------------------------------
# Condition (D) by F2 linear algebra
# ---------------------------------------------------------------------------


def _d_value(spec: RawSpec, i: int, subset: Iterable[int], dual: bool = False) -> Fraction:
    """D_i^{J'} from its definition; the dual constant negates it when i is in J'."""
    subset, root = set(subset), spec.root(i)
    if i not in subset:
        return spec.product(sorted(subset), root)
    rest = [j for j in spec.indices if j not in subset]
    return (-1 if dual else 1) * spec.a * spec.b * spec.product(rest, root)


def _kernel(rows: Sequence[int], ncols: int) -> List[int]:
    pivots: Dict[int, int] = {}
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = row.bit_length() - 1
            for c in list(pivots):
                if pivots[c] >> col & 1:
                    pivots[c] ^= row
            pivots[col] = row
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = 1 << free
        for col, prow in pivots.items():
            if prow >> free & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


def g_d_groups(spec: RawSpec) -> Tuple[Set[GElem], Set[GElem]]:
    """(G_D, G^D) as the kernels of the stacked residue maps.

    An element ([c], J') lies in G_i when [c*D_i^{J'}] is 1 or [a*D_i^A].
    [D_i^{J'}] is the sum of [p_j(r_i)] over j in J' other than i, plus
    [d * prod_{j != i} p_j(r_i)] when i is in J' (negated on the dual side),
    so membership in every G_i is the linear system
    c + [D_i^{J'}] + lambda_i [a*D_i^A] = 0 over F2 in (c, J', lambda).
    """
    idx = list(spec.indices)
    n = len(idx)
    d = Fraction(spec.a * spec.b)

    def self_term(i, dual):
        return (-d if dual else d) * spec.product([j for j in idx if j != i], spec.root(i))

    values = [Fraction(spec.a), d]
    for i in idx:
        values += [spec.value(j, spec.root(i)) for j in idx if j != i]
        values.append(self_term(i, False))
    primes = sorted({p for x in values for n_ in (x.numerator, x.denominator)
                     for p in _factor(n_)})
    width = 1 + len(primes)

    def vec(x) -> int:
        x = Fraction(x)
        out = int(x < 0)
        for n_ in (x.numerator, x.denominator):
            for p, e in _factor(n_).items():
                if e % 2:
                    out ^= 1 << (1 + primes.index(p))
        return out

    def group(dual: bool) -> Set[GElem]:
        # columns: c bits, then J' bits, then lambda bits
        cols = width + 2 * n
        rows = []
        for k, i in enumerate(idx):
            term = {j: vec(spec.value(j, spec.root(i))) for j in idx if j != i}
            term[i] = vec(self_term(i, dual))
            target = vec(spec.a * _d_value(spec, i, spec.part_a))
            for bit in range(width):
                row = 1 << bit
                for m, j in enumerate(idx):
                    if term[j] >> bit & 1:
                        row |= 1 << (width + m)
                if target >> bit & 1:
                    row |= 1 << (width + n + k)
                rows.append(row)
        projections = {v & ((1 << (width + n)) - 1) for v in _kernel(rows, cols)}
        span = {0}
        for v in projections:
            span |= {v ^ s for s in span}
        out = set()
        for v in span:
            c = -1 if v & 1 else 1
            for k, p in enumerate(primes):
                if v >> (1 + k) & 1:
                    c *= p
            out.add((c, frozenset(idx[m] for m in range(n) if v >> (width + m) & 1)))
        return out

    return group(False), group(True)


def _span(gens: Sequence[GElem]) -> Set[GElem]:
    out: Set[GElem] = {(1, frozenset())}
    for c, poly in gens:
        out |= {(sqfree(c * c2), poly ^ p2) for c2, p2 in out}
    return out


def condition_d(spec: RawSpec) -> Dict:
    """holds, G_D, G^D and the violating elements, all as sets."""
    g_d, g_dual = g_d_groups(spec)
    J = frozenset(spec.indices)
    target = _span([(sqfree(spec.a), frozenset(spec.part_a)), (sqfree(spec.a * spec.b), J)])
    target_dual = _span([(sqfree(-spec.a * spec.b), J)])
    witnesses = (g_d - target) | (g_dual - target_dual)
    missing = (target - g_d) | (target_dual - g_dual)
    return {"holds": not witnesses, "g_d": g_d, "g_d_dual": g_dual,
            "witnesses": witnesses, "missing": missing}


_ELEM = re.compile(r"^\[(-?\d+)\](?:\[(p\d+(?:\*p\d+)*)\])?$")


def parse_elem(text: str) -> GElem:
    m = _ELEM.match(text)
    if not m:
        raise ValueError(f"unreadable group element {text!r}")
    poly = frozenset(int(tok[1:]) for tok in m.group(2).split("*")) if m.group(2) else frozenset()
    return int(m.group(1)), poly


def elem_str(c: int, poly: Iterable[int]) -> str:
    poly = sorted(poly)
    return f"[{c}]" + (f"[{'*'.join(f'p{i}' for i in poly)}]" if poly else "")


def check_condition_d_report(spec: RawSpec, report: Dict) -> List[str]:
    """report: holds, g_d, g_d_dual and witnesses, elements as strings."""
    ref = condition_d(spec)
    problems = []
    if ref["missing"]:
        problems.append(f"target elements outside the groups: {sorted(ref['missing'])}")
    if report["holds"] != ref["holds"]:
        problems.append(f"holds = {report['holds']}, expected {ref['holds']}")
    for key in ("g_d", "g_d_dual", "witnesses"):
        got = [parse_elem(s) for s in report[key]]
        if len(set(got)) != len(got) or set(got) != ref[key]:
            problems.append(f"{key} = {report[key]} differs from the F2 computation")
    return problems


# ---------------------------------------------------------------------------
# Shared facts about a spec
# ---------------------------------------------------------------------------


def spec_hash(spec: RawSpec) -> str:
    return hashlib.sha256(spec.spec_text().encode()).hexdigest()


def t_places(spec: RawSpec) -> Set[int]:
    """Finite primes of T = S0 + S_bad."""
    return set(spec.s0) | set(s_bad_primes(spec, _factor))


def _is_s0_integral(x: Fraction, s0: Iterable[int]) -> bool:
    return set(_factor(Fraction(x).denominator)) <= set(s0)


def _on_surface(spec: RawSpec, x, y, t) -> bool:
    x, y, t = Fraction(x), Fraction(y), Fraction(t)
    return (spec.a * spec.product(spec.part_a, t) * x * x
            + spec.b * spec.product(spec.part_b, t) * y * y) == 1


# ---------------------------------------------------------------------------
# descend certificates
# ---------------------------------------------------------------------------

EXHAUSTED_STAGES = {"admissible_point", "chebotarev_prime", "sd_witness_prime",
                    "sd_retries", "descent_loop"}


def _check_prime_conditions(conditions, w, banned, what) -> List[str]:
    """w is an odd prime outside banned with the Legendre symbol (value | w) = sign
    for every (value, sign) in conditions."""
    problems = []
    if w == 2 or not isprime(w):
        problems.append(f"{what}: {w} is not an odd prime")
        return problems
    if w in banned:
        problems.append(f"{what}: {w} lies in T or among the witnesses")
    for value, sign in conditions:
        if legendre(value, w) != sign:
            problems.append(f"{what}: ({value} | {w}) != {sign}")
    return problems


def check_certificate(spec: RawSpec, cert: Dict, holds: Optional[bool] = None) -> List[str]:
    """Re-derive every claim of a descend certificate from the spec.

    holds, when given, is the independent Condition (D) verdict that the
    hypotheses entry must repeat.
    """
    problems: List[str] = []
    trace = cert["trace"]
    data = cert["data"]
    if cert["spec_hash"] != spec_hash(spec):
        problems.append("spec hash does not match the spec")
    if not trace or trace[0].get("step") != "hypotheses":
        return problems + ["trace does not start with the hypotheses"]
    hyp = trace[0]
    if holds is None:
        holds = condition_d(spec)["holds"]
    if hyp["condition_d_holds"] != holds or ("condition_D" in hyp["failures"]) == holds:
        problems.append(f"hypotheses report Condition (D) wrongly (expected holds={holds})")
    outcome = cert["outcome"]
    if outcome == "hypothesis_failed":
        if not hyp["failures"] or data["failures"] != hyp["failures"]:
            problems.append("hypothesis_failed without matching failures")
        return problems
    if hyp["failures"]:
        problems.append(f"descent ran past failed hypotheses {hyp['failures']}")

    T = t_places(spec)
    adms: List[Dict] = []
    dims: List[int] = []
    for k, entry in enumerate(trace[1:], 1):
        step = entry["step"]
        if step == "admissible_point":
            nxt = trace[k + 1] if k + 1 < len(trace) else {}
            here = T | ({nxt["w"]} if nxt.get("step") == "reduce_dual_selmer" else set())
            problems += _check_admissible(spec, entry, here)
            adms.append(entry)
            dims.append(entry["dim_dual_selmer"])
        elif step == "sd_witness":
            x = parse_elem(entry["element"])
            i, w = entry["index"], entry["place"]
            dual = entry["side"] == "dual"
            conditions = [(spec.a * _d_value(spec, i, spec.part_a), 1),
                          (x[0] * _d_value(spec, i, x[1], dual), -1)]
            banned = T | {int(u) for u in adms[-1]["witnesses"].values()}
            problems += _check_prime_conditions(conditions, w, banned, "sd_witness")
            T = T | {w}
        elif step == "reduce_dual_selmer":
            x0, x1, i, w = (parse_elem(entry["x0"]), parse_elem(entry["x1"]),
                            entry["i_x"], entry["w"])
            if i in x0[1] or i in x1[1]:
                problems.append("reduction elements not normalized away from i_x")
            conditions = [(spec.a * _d_value(spec, i, spec.part_a), 1),
                          (x0[0] * _d_value(spec, i, x0[1]), -1),
                          (x1[0] * _d_value(spec, i, x1[1]), -1)]
            if len(adms) < 2:
                problems.append("reduction without a preceding admissible point")
                continue
            banned = T | {int(u) for u in adms[-2]["witnesses"].values()}
            problems += _check_prime_conditions(conditions, w, banned, "reduction")
            if not entry["dim_after"] < entry["dim_before"]:
                problems.append(f"dual dimension {entry['dim_before']} -> {entry['dim_after']}")
            if entry["dim_before"] != dims[-2] or entry["dim_after"] != dims[-1]:
                problems.append("reduction dimensions disagree with the admissible points")
            T = T | {w}
        elif step not in ("point", "exhausted"):
            problems.append(f"unknown trace step {step!r}")

    if outcome == "point_found":
        x, y, t = (Fraction(data[k]) for k in ("x", "y", "t"))
        if not _on_surface(spec, x, y, t):
            problems.append(f"({x}, {y}, {t}) is not on the surface")
        if not all(_is_s0_integral(z, spec.s0) for z in (x, y, t)):
            problems.append(f"({x}, {y}, {t}) is not S0-integral")
        if not adms or Fraction(adms[-1]["t0"]) != t:
            problems.append("point is not on the last admissible fiber")
    elif outcome == "dual_selmer_minimized":
        t = Fraction(data["t"])
        d = spec.a * spec.b
        if not adms or Fraction(adms[-1]["t0"]) != t or dims[-1] != 1:
            problems.append("minimized group is not the last admissible point at dimension 1")
        if Fraction(data["torus_d"]) != -d * spec.product(spec.indices, t):
            problems.append("torus_d differs from -ab*p_J(t)")
        if (Fraction(data["aA"]) != spec.a * spec.product(spec.part_a, t)
                or Fraction(data["bB"]) != spec.b * spec.product(spec.part_b, t)):
            problems.append("fiber coefficients differ from a*p_A(t), b*p_B(t)")
        if data["dual_generator"] != elem_str(sqfree(-d), spec.indices):
            problems.append(f"dual generator {data['dual_generator']} is not [-d][p_J]")
    elif outcome == "search_exhausted":
        last = trace[-1]
        if (data["stage"] not in EXHAUSTED_STAGES or last.get("step") != "exhausted"
                or last.get("stage") != data["stage"]):
            problems.append(f"search_exhausted at an unknown stage {data['stage']!r}")
    else:
        problems.append(f"unknown outcome {outcome!r}")
    return problems


def _check_admissible(spec: RawSpec, entry: Dict, T: Set[int]) -> List[str]:
    """Each p_i(t0) is +-(T-unit) * u_i with pairwise distinct primes u_i outside T."""
    problems = []
    t0 = Fraction(entry["t0"])
    witnesses = {int(i): int(u) for i, u in entry["witnesses"].items()}
    if sorted(witnesses) != sorted(spec.indices):
        return [f"witnesses {witnesses} do not cover J"]
    if len(set(witnesses.values())) != len(witnesses):
        problems.append(f"witnesses {witnesses} are not pairwise distinct")
    for i, u in witnesses.items():
        if not isprime(u):
            problems.append(f"witness u_{i} = {u} is not prime")
            continue
        if u in T:
            problems.append(f"witness u_{i} = {u} lies in T")
        value = spec.value(i, t0)
        if value == 0:
            problems.append(f"p_{i}(t0) = 0")
            continue
        rest = Fraction(value) / u
        support = set(_factor(rest.numerator)) | set(_factor(rest.denominator))
        if not support <= T:
            problems.append(f"p_{i}({t0}) = {value} is not a T-unit times u_{i} = {u}")
    return problems


# ---------------------------------------------------------------------------
# CLI reports
# ---------------------------------------------------------------------------


def _s_places(spec: RawSpec, torus_d: int) -> List[Optional[int]]:
    primes = {2} | set(spec.s0) | set(_factor(torus_d))
    return [None] + sorted(primes)


def _class_value(mask: int, gens: Sequence[int]) -> int:
    out = 1
    for k, g in enumerate(gens):
        if mask >> k & 1:
            out *= g
    return out


def _selmer_sets(d: int, places: Sequence[Optional[int]]) -> Tuple[Set[int], Set[int]]:
    """Selmer and dual Selmer groups of x^2 - d*y^2 = 1 by enumerating S-unit classes."""
    gens = [-1] + [p for p in places if p is not None]
    sel, dual = set(), set()
    for mask in range(1 << len(gens)):
        x = _class_value(mask, gens)
        if all(hilbert(x, d, v) == 0 for v in places):
            sel.add(x)
        if all(is_local_square(x, v) or is_local_square(Fraction(x, d), v) for v in places):
            dual.add(x)
    return sel, dual


def _spans(values: Sequence[int]) -> Set[int]:
    out = {1}
    for v in values:
        out |= {sqfree(v * w) for w in out}
    return out


def check_cli(case: CliCase, label: str, rc: int, out: str, err: str) -> List[str]:
    """Check one CLI invocation from its exit code and its output."""
    spec = case.spec
    if label.endswith("@root"):
        if rc == 1 and err.startswith("error:") and not out:
            return []
        return [f"{label}: expected a clean exit-1 message, got rc={rc}"]
    try:
        payload = json.loads(out)
    except ValueError:
        return [f"{label}: output is not JSON (rc={rc}, stderr {err[:80]!r})"]
    problems = []
    if label == "descend":
        expected_rc = {"point_found": 0, "dual_selmer_minimized": 0,
                       "hypothesis_failed": 2, "search_exhausted": 3}.get(payload.get("outcome"))
        if rc != expected_rc:
            problems.append(f"descend: exit code {rc} for outcome {payload.get('outcome')}")
        return problems + check_certificate(spec, payload)
    if payload.get("spec_hash") != spec_hash(spec):
        problems.append(f"{label}: spec hash does not match the spec")
    t = Fraction(case.t)
    aA = spec.a * spec.product(spec.part_a, t)
    bB = spec.b * spec.product(spec.part_b, t)
    if label == "validate":
        bad = [str(p) for p in s_bad_primes(spec, _factor)]
        if rc != 0 or payload["d"] != str(spec.a * spec.b) or payload["s_bad"] != bad:
            problems.append(f"validate: d/S_bad {payload['d']}/{payload['s_bad']}, expected {bad}")
    elif label == "condition-d":
        ref_holds = condition_d(spec)["holds"]
        if rc != (0 if ref_holds else 2):
            problems.append(f"condition-d: exit code {rc}")
        problems += check_condition_d_report(spec, payload)
    elif label == "brauer":
        gens = payload["generators"]
        if [g["index"] for g in gens] != list(spec.indices):
            problems.append("brauer: generators do not follow J")
        for g in gens:
            i = g["index"]
            c, d = spec.coeffs(i)
            root = spec.root(i)
            left = (spec.a * spec.product(spec.part_a, root) if i not in spec.part_a
                    else spec.b * spec.product(spec.part_b, root))
            if Fraction(g["left"]) != left or g["right"] != [str(d), str(c)]:
                problems.append(f"brauer: generator {i} is not ({left}, p_{i})")
            expected = {f"t={spec.root(j)}": str(sqfree(left) if j == i else 1)
                        for j in spec.indices}
            if g["residues"] != expected:
                problems.append(f"brauer: residues of generator {i} {g['residues']} != {expected}")
    elif label == "selmer":
        d = sqfree(-spec.a * spec.b * spec.product(spec.indices, t))
        places = _s_places(spec, d)
        if payload["torus_d"] != str(d) or payload["places"] != [
                "real" if v is None else str(v) for v in places]:
            problems.append(f"selmer: torus {payload['torus_d']} over {payload['places']}")
            return problems
        sel, dual = _selmer_sets(d, places)
        for key, group, dim_key in (("selmer_basis", sel, "dim_selmer"),
                                    ("dual_selmer_basis", dual, "dim_dual_selmer")):
            basis = [int(x) for x in payload[key]]
            if not set(basis) <= group or _spans(basis) != group or len(basis) != payload[dim_key]:
                problems.append(f"selmer: {key} {basis} does not span the group of size {len(group)}")
    elif label == "local":
        # the benchmark's own point (x, y) on this fiber is integral at the
        # place, which lies outside S0, so the fiber is soluble there
        p = case.place
        if payload["status"] != "soluble" or payload["witness"] is None:
            problems.append(f"local: status {payload['status']} at {p}, expected soluble")
        else:
            x, y = (Fraction(z) for z in payload["witness"])
            residual = aA * x * x + bB * y * y - 1
            if residual != 0 and val(residual, p) < 1:
                problems.append(f"local: witness ({x}, {y}) misses the fiber mod {p}")
    elif label == "solve":
        if rc != 0 or not payload.get("found"):
            problems.append("solve: no point although the benchmark's own point fits the bound")
        else:
            x, y = Fraction(payload["x"]), Fraction(payload["y"])
            if not _on_surface(spec, x, y, t) or not all(
                    _is_s0_integral(z, spec.s0) for z in (x, y)) or payload["verified"] is not True:
                problems.append(f"solve: ({x}, {y}) is not an S0-integral point of the fiber")
    else:
        problems.append(f"unknown subcommand label {label!r}")
    return problems
