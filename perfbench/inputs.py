"""Seeded inputs for the three workloads, made without calling torusdescent.

Specs are plain tuples of integers; the program only ever sees the
validated objects that `run.py` builds from them during set-up.  Nothing
here imports sympy, so generating inputs does not raise the peak RSS that
the benchmark reports.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Factorizer = Callable[[int], Dict[int, int]]


@dataclass(frozen=True)
class RawSpec:
    """a*p_A(t)x^2 + b*p_B(t)y^2 = 1 with p_i(t) = c_i*t + d_i, all integers."""

    s0: Tuple[int, ...]  # finite primes of S0; the real place is implicit
    a: int
    b: int
    factors: Tuple[Tuple[int, int, int], ...]  # (i, c_i, d_i), i ascending
    part_a: Tuple[int, ...]

    @property
    def indices(self) -> Tuple[int, ...]:
        return tuple(i for i, _, _ in self.factors)

    @property
    def part_b(self) -> Tuple[int, ...]:
        return tuple(i for i in self.indices if i not in self.part_a)

    def coeffs(self, i: int) -> Tuple[int, int]:
        for j, c, d in self.factors:
            if j == i:
                return c, d
        raise KeyError(i)

    def root(self, i: int) -> Fraction:
        c, d = self.coeffs(i)
        return Fraction(-d, c)

    def value(self, i: int, t) -> Fraction:
        c, d = self.coeffs(i)
        return c * Fraction(t) + d

    def product(self, subset: Sequence[int], t) -> Fraction:
        out = Fraction(1)
        for i in subset:
            out *= self.value(i, t)
        return out

    def factor_dict(self) -> Dict[int, Tuple[int, int]]:
        return {i: (c, d) for i, c, d in self.factors}

    def spec_text(self) -> str:
        lines = ["s0 real" + "".join(f" {p}" for p in self.s0), f"a {self.a}", f"b {self.b}"]
        lines += [f"factor {i} {c} {d}" for i, c, d in self.factors]
        lines.append("partA" + "".join(f" {i}" for i in sorted(self.part_a)))
        return "\n".join(lines) + "\n"


def trial_factor(n: int) -> Dict[int, int]:
    """Factorization of |n| by trial division; the inputs here stay small."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor 0")
    out: Dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def squarefree_part(x: Fraction, factor: Factorizer = trial_factor) -> int:
    """Signed square-free integer in the square class of the nonzero rational x."""
    x = Fraction(x)
    out = 1 if x > 0 else -1
    for n in (x.numerator, x.denominator):
        for p, e in factor(n).items():
            if e % 2:
                out *= p
    return out


def s_bad_primes(spec: RawSpec, factor: Factorizer = trial_factor) -> List[int]:
    """Bad primes outside S0: 2, primes of d = ab, of each c_i and of each
    cross-resultant c_i*d_j - c_j*d_i, and primes p <= |J| at which every
    residue class of t is a root of some factor."""
    s0 = set(spec.s0)
    bad = set() if 2 in s0 else {2}
    values = [spec.a * spec.b]
    items = list(spec.factors)
    for k, (_, ci, di) in enumerate(items):
        values.append(ci)
        values += [ci * dj - cj * di for _, cj, dj in items[k + 1 :]]
    for x in values:
        bad.update(p for p in factor(x) if p not in s0)
    for p in range(2, len(items) + 1):
        if p in s0 or p in bad or factor(p) != {p: 1}:
            continue
        if all(any((c * t + d) % p == 0 for _, c, d in items) for t in range(p)):
            bad.add(p)
    return sorted(bad)


def is_valid(spec: RawSpec) -> bool:
    """The spec invariants: nonzero a, b, c_i; c_i, d_i coprime outside S0;
    pairwise distinct roots."""
    if spec.a == 0 or spec.b == 0 or not spec.factors:
        return False
    s0 = set(spec.s0)
    roots = set()
    for _, c, d in spec.factors:
        if c == 0:
            return False
        if any(p not in s0 for p in trial_factor(math.gcd(c, d))):
            return False
        roots.add(Fraction(-d, c))
    return len(roots) == len(spec.factors) and set(spec.part_a) <= set(spec.indices)


# ---------------------------------------------------------------------------
# Points on fibers
# ---------------------------------------------------------------------------


def _s0_denominators(s0: Sequence[int], bound: int) -> List[int]:
    values = [1]
    for p in s0:
        values = [u * p**e for u in values for e in range(bound.bit_length() + 1)
                  if u * p**e <= bound]
    return sorted(set(values))


def fiber_point(spec: RawSpec, t: int, height: int) -> Optional[Tuple[Fraction, Fraction]]:
    """An S0-integral (x, y) = (m/u, n/u) on the fiber above t, |m|, |n|, u <= height."""
    aA = spec.a * spec.product(spec.part_a, t)
    bB = spec.b * spec.product(spec.part_b, t)
    if aA == 0 or bB == 0:
        return None
    # aA m^2 + bB n^2 = u^2, cleared of denominators: A m^2 + B n^2 = L u^2
    L = math.lcm(aA.denominator, bB.denominator)
    A, B = int(aA * L), int(bB * L)
    for u in _s0_denominators(spec.s0, height):
        for m in range(height + 1):
            rest = L * u * u - A * m * m
            if rest % B:
                continue
            square = rest // B
            if square < 0:
                continue
            n = math.isqrt(square)
            if n * n == square and n <= height:
                return Fraction(m, u), Fraction(n, u)
    return None


def point_rows(spec: RawSpec, x: Fraction, y: Fraction, t: int) -> List[Tuple[str, Fraction, Fraction, int, int]]:
    """Constant-t local point at every place of S0 and every bad place."""
    places = ["real"] + [str(p) for p in sorted(set(spec.s0) | set(s_bad_primes(spec)))]
    return [(v, x, y, t, 12) for v in places]


def point_text(rows) -> str:
    return "".join(f"{v} {x} {y} {t} {prec}\n" for v, x, y, t, prec in rows)


# ---------------------------------------------------------------------------
# family: the 25 curated surfaces, copied so that edits elsewhere leave the
# workload unchanged.  (s0, a, b, factors, partA, t_star)
# ---------------------------------------------------------------------------

FAMILY = [
    ((2,), 1, 1, ((1, 1, 0),), (1,), -60),
    ((2,), 2, 1, ((1, 1, 3),), (1,), -60),
    ((2,), 1, 3, ((1, 1, -4),), (), -60),
    ((2,), 1, -1, ((1, 1, 0),), (), -47),
    ((2,), 1, -2, ((1, 1, 0), (2, 1, 1)), (), -60),
    ((2,), 1, 10, ((1, 1, 0), (2, 1, 2)), (1,), 4),
    ((2,), 5, 1, ((1, 1, 0), (2, 1, 1)), (1,), 3),
    ((2,), 1, -2, ((1, 1, 1), (2, 1, -1)), (1,), -45),
    ((2,), -2, 2, ((1, 1, 0), (2, 1, 2)), (1,), -60),
    ((2,), 7, -3, ((1, 1, 1), (2, 1, -1)), (1,), -54),
    ((2,), 10, -2, ((1, 1, 0), (2, 1, 1)), (1,), -48),
    ((2,), -1, -2, ((1, 1, 1), (2, 1, -1)), (1,), -43),
    ((), 1, -1, ((1, 1, 0),), (), 2),
    ((2, 5), 5, 1, ((1, 1, 0),), (1,), -60),
    ((2,), 1, 1, ((1, 3, 1),), (1,), -60),
    ((2,), 7, 1, ((1, 1, 0), (2, 1, 1)), (1, 2), -53),
    ((2,), 7, 2, ((1, 1, 0), (2, 1, 2)), (1,), 2),
    ((2,), 7, -1, ((1, 1, 0), (2, 1, 6)), (1,), -59),
    ((2,), 7, -2, ((1, 1, 0), (2, 1, 6)), (1,), -52),
    ((2,), 5, 6, ((1, 1, 0), (2, 1, 6)), (1,), 38),
    ((2,), -3, -1, ((1, 1, 0), (2, 1, 6)), (1,), -40),
    ((2,), 10, 1, ((1, 1, 3),), (1,), -60),
    ((2,), -2, 10, ((1, 1, 0), (2, 1, 1)), (1,), -48),
    ((2,), 1, 1, ((1, 1, 0), (2, 1, 1), (3, 1, -1)), (1, 2, 3), -47),
    ((2,), 1, 1, ((1, 1, 0), (2, 1, 1), (3, 1, 3)), (3,), -8),
]


@dataclass(frozen=True)
class FamilyCase:
    member: int
    spec: RawSpec
    rows: Tuple
    solve_each_fiber: bool


def family_cases(seed: int) -> List[FamilyCase]:
    """Every member with fiber solving on and off, in a seeded order."""
    cases = []
    for k, (s0, a, b, factors, part_a, t_star) in enumerate(FAMILY):
        spec = RawSpec(s0, a, b, factors, part_a)
        found = fiber_point(spec, t_star, 400)
        if found is None:
            raise RuntimeError(f"family member {k}: no point on the fiber t = {t_star}")
        rows = tuple(point_rows(spec, found[0], found[1], t_star))
        cases += [FamilyCase(k, spec, rows, flag) for flag in (True, False)]
    random.Random(seed).shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# wide-j: Condition (D) at |J| = 6..10
# ---------------------------------------------------------------------------

# (|J|, random specs, specs built so G_D is too large, so G^D is too large).
# The 0.5 and 0.9 quantiles of the per-call time fall in the middle of the
# |J| = 7 and |J| = 9 rows (24/62 < 0.5 < 44/62, 52/62 < 0.9 < 60/62), so
# p50 and p90 do not jump between rows from one seed to the next.  Sixty-two
# specs a round keep the cost of a round from swinging with the few random
# specs that happen to be slow.
WIDE_J_ROWS = [(6, 12, 6, 6), (7, 12, 4, 4), (8, 4, 2, 2), (9, 4, 2, 2), (10, 2, 0, 0)]
_NONSQUARES = [-7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7]


@dataclass(frozen=True)
class WideCase:
    kind: str  # 'random' | 'g_d_fails' | 'dual_fails'
    spec: RawSpec


def _random_factors(rng: random.Random, n: int, s0: Sequence[int]) -> Tuple:
    factors: List[Tuple[int, int, int]] = []
    roots = set()
    while len(factors) < n:
        c, d = rng.choice([1, 1, 2, 3]), rng.randint(-20, 20)
        if Fraction(-d, c) in roots or any(p not in s0 for p in trial_factor(math.gcd(c, d))):
            continue
        roots.add(Fraction(-d, c))
        factors.append((len(factors) + 1, c, d))
    return tuple(factors)


def _wide_random(rng: random.Random, n: int) -> RawSpec:
    s0 = rng.choice([(2,), (2, 3), (2, 5), ()])
    factors = _random_factors(rng, n, s0)
    a = rng.choice([x for x in range(-10, 11) if x])
    b = rng.choice([x for x in range(-10, 11) if x])
    part_a = tuple(i for i, _, _ in factors if rng.random() < 0.5)
    return RawSpec(s0, a, b, factors, part_a)


def _wide_g_d_fails(rng: random.Random, n: int) -> RawSpec:
    """p_k = t and p_j = t - m_j^2 otherwise, A = {k}, b = a*(-1)^|B|.

    Then [a*D_i^A] = [a] for every i, so ([a], {}) lies in G_D but not in
    the target <([a], A), ([d], J)> when a is not a square.
    """
    ms = rng.sample(range(1, n + 8), n - 1)
    k = rng.randint(1, n)
    factors, rest = [], iter(ms)
    for i in range(1, n + 1):
        factors.append((i, 1, 0) if i == k else (i, 1, -next(rest) ** 2))
    a = rng.choice(_NONSQUARES)
    b = a * (-1) ** (n - 1)
    return RawSpec(rng.choice([(2,), (2, 3), (2, 5), ()]), a, b, tuple(factors), (k,))


def _wide_dual_fails(rng: random.Random, n: int) -> RawSpec:
    """A = {k} and b = -[p_B(-d_k/c_k)], so [a*D_k^A] = [-1].

    Then ([a], A) lies in G^D but not in its target <([-d], J)>.
    """
    s0 = rng.choice([(2,), (2, 3), (2, 5), ()])
    factors = _random_factors(rng, n, s0)
    k = rng.randint(1, n)
    spec = RawSpec(s0, 1, 1, factors, (k,))
    b = -squarefree_part(spec.product(spec.part_b, spec.root(k)))
    return RawSpec(s0, rng.choice(_NONSQUARES), b, factors, (k,))


def wide_j_cases(seed: int, rows=WIDE_J_ROWS) -> List[WideCase]:
    rng = random.Random(seed)
    cases = []
    for n, n_random, n_g_d, n_dual in rows:
        cases += [WideCase("random", _wide_random(rng, n)) for _ in range(n_random)]
        cases += [WideCase("g_d_fails", _wide_g_d_fails(rng, n)) for _ in range(n_g_d)]
        cases += [WideCase("dual_fails", _wide_dual_fails(rng, n)) for _ in range(n_dual)]
    for case in cases:
        if not is_valid(case.spec):
            raise RuntimeError(f"generated an invalid spec: {case.spec}")
    rng.shuffle(cases)
    return cases


# ---------------------------------------------------------------------------
# cli-mix: small specs through every subcommand
# ---------------------------------------------------------------------------

CLI_S0 = [(), (2,), (2, 3), (2, 5)]
CLI_PER_CELL = 16  # specs per (|J|, S0) cell: 192 specs, 1920 invocations a round
DESCEND_BOUNDS = ["--height", "20", "--admissible-bound", "60", "--prime-bound", "2000",
                  "--max-steps", "6"]
SOLVE_HEIGHT = 60


@dataclass(frozen=True)
class CliCase:
    spec: RawSpec
    t: int  # base value whose fiber carries the benchmark's own point
    rows: Tuple
    root: Fraction  # a root of p_J: the fiber above it is degenerate
    place: int  # a prime outside S0 for the `local` subcommand


def _cli_spec(rng: random.Random, n: int, s0: Tuple[int, ...]) -> RawSpec:
    while True:
        factors = tuple((i, rng.choice([1, 1, 1, 2, 3]), rng.randint(-6, 6)) for i in range(1, n + 1))
        a = rng.choice([x for x in range(-10, 11) if x])
        b = rng.choice([x for x in range(-10, 11) if x])
        part_a = tuple(i for i in range(1, n + 1) if rng.random() < 0.5)
        spec = RawSpec(s0, a, b, factors, part_a)
        if is_valid(spec):
            return spec


def cli_cases(seed: int, per_cell: int = CLI_PER_CELL) -> List[CliCase]:
    """per_cell specs for each |J| in 1..3 and each S0, each with a global
    point on some fiber, so the point file is complete and every
    subcommand has a well-defined answer.  Fixed counts per cell keep the
    cost of a round from depending on how the seed falls."""
    rng = random.Random(seed)
    cases = []
    for n in (1, 2, 3):
        for s0 in CLI_S0:
            made = 0
            while made < per_cell:
                case = _cli_case(rng, _cli_spec(rng, n, s0))
                if case is not None:
                    cases.append(case)
                    made += 1
    rng.shuffle(cases)
    return cases


def _cli_case(rng: random.Random, spec: RawSpec) -> Optional[CliCase]:
    roots = [spec.root(i) for i in spec.indices]
    ts = [t for t in range(-45, 46) if t and (t < min(roots) or t > max(roots))]
    rng.shuffle(ts)
    for t in ts[:30]:
        if spec.product(spec.indices, t) == 0:
            continue
        found = fiber_point(spec, t, 50)
        if found is None:
            continue
        bad = [p for p in s_bad_primes(spec) if p not in spec.s0]
        place = bad[0] if bad else next(p for p in (3, 5, 7, 11) if p not in spec.s0)
        return CliCase(spec, t, tuple(point_rows(spec, found[0], found[1], t)),
                       rng.choice(roots), place)
    return None


def cli_invocations(case: CliCase, spec_path: str, point_path: str) -> List[Tuple[str, List[str]]]:
    """(label, argv) for every subcommand; the last three sit on a root of p_J."""
    t, root = f"--t={case.t}", f"--t={case.root}"
    return [
        ("validate", ["--json", "validate", spec_path]),
        ("condition-d", ["--json", "condition-d", spec_path]),
        ("brauer", ["--json", "brauer", spec_path]),
        ("selmer", ["--json", "selmer", spec_path, t]),
        ("local", ["--json", "local", spec_path, t, f"--place={case.place}"]),
        ("solve", ["--json", "solve", spec_path, t, f"--height={SOLVE_HEIGHT}"]),
        ("descend", ["--json", "descend", spec_path, "--point-file", point_path, *DESCEND_BOUNDS]),
        ("selmer@root", ["--json", "selmer", spec_path, root]),
        ("local@root", ["--json", "local", spec_path, root, f"--place={case.place}"]),
        ("solve@root", ["--json", "solve", spec_path, root, f"--height={SOLVE_HEIGHT}"]),
    ]
