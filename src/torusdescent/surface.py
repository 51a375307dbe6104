"""The fibered surface a*p_A(t)x^2 + b*p_B(t)y^2 = 1 as validated data.

Holds the surface specification (place set, coefficients, linear factors,
partition), derived place sets, fibers, local points, and the line-oriented
spec-file format.  Every coefficient is an int: a spec with S0-integer
coefficients has an integral model with the same S0-integral points (scale
each p_i, then a and b, by S0-units; see the README).  `SurfaceSpec.forms`
maps i -> (c_i, d_i): factor_value, product_value and fiber_coeffs multiply
them out on ints and build one Fraction per value returned.  The conic
coefficients (a*p_A(t), b*p_B(t)) above t are fiber_coeffs(t), or
fiber_coeffs_of(values) for p_i(t) at hand; fibers, point residuals,
d*p_J(t) and the Brauer constants are read off them.  Each point is
evaluated once: a partial adelic point keeps one row per place, made with
its entry, Brauer invariants included, and an admissible point keeps the
p_i(t0) and the fiber made from them, read by every later step.
"""

from __future__ import annotations

import hashlib
import math
from functools import cached_property
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .arith import (
    _MR_LIMIT,
    REAL,
    Place,
    PrimalityRangeError,
    Rational,
    class_mask,
    factorize,
    is_prime,
    local_mask,
    parse_place,
    parse_rational,
    strip_primes,
    valuation,
)
from .brauer import invariant_vector

MAX_FACTORS = 16  # cap on |J|; G_D can hold up to 2^(|J|+1) elements


class SpecValidationError(ValueError):
    """Invalid surface specification; carries the list of violations."""

    def __init__(self, violations: Sequence[str]):
        super().__init__("; ".join(violations))
        self.violations = list(violations)


def past_primality_range(name: str, x: Rational) -> str:
    """The input-error message for a quantity x, called name, whose
    factorization needs a primality proof past the certified range."""
    return (f"{name} = {x} cannot be factored within the certified primality "
            f"range (n < {_MR_LIMIT:.4g})")


def _input_primes(n: int, name: str, *fields: object) -> Dict[int, int]:
    """factorize the spec quantity n, called name.format(*fields) in the
    SpecValidationError raised when it is past the certified primality
    range; the name is formatted only then."""
    try:
        return factorize(n)
    except PrimalityRangeError:
        raise SpecValidationError([past_primality_range(name.format(*fields), n)]) from None


class DegenerateFiberError(ValueError):
    """Fiber over a root of p_J."""


class SurfaceSpec:
    """Validated surface data; construct through validate_spec.  Equal and
    hashed by its five fields; the derived tables below are cached in its
    __dict__ at first use."""

    def __init__(self, s0: Tuple[Place, ...], a: int, b: int,
                 factors: Tuple[Tuple[int, Tuple[int, int]], ...],  # (i, (c_i, d_i))
                 part_a: frozenset):
        self.s0, self.a, self.b, self.factors, self.part_a = s0, a, b, factors, part_a

    def _key(self) -> tuple:
        return self.s0, self.a, self.b, self.factors, self.part_a

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is SurfaceSpec else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return ("SurfaceSpec(s0={!r}, a={!r}, b={!r}, factors={!r}, part_a={!r})"
                .format(*self._key()))

    @cached_property
    def d(self) -> int:
        return self.a * self.b

    @cached_property
    def indices(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.factors)

    @property
    def s0_finite_primes(self) -> Tuple[int, ...]:
        return tuple(v.p for v in self.s0 if v.is_finite)

    @cached_property
    def forms(self) -> Dict[int, Tuple[int, int]]:
        """i -> (c_i, d_i): for t = n/m, p_i(t) = (c_i*n + d_i*m) / m."""
        return dict(self.factors)

    def coeffs(self, i: int) -> Tuple[int, int]:
        return self.forms[i]

    def root(self, i: int) -> Fraction:
        """The root -d_i/c_i of p_i."""
        c, d = self.forms[i]
        return Fraction(-d, c)

    def factor_value(self, i: int, t: Rational) -> Fraction:
        c, d = self.forms[i]
        n, m = t.numerator, t.denominator
        return Fraction(c * n + d * m, m)

    def product_value(self, subset: Iterable[int], t: Rational, scale: int = 1) -> Fraction:
        """scale * p_{subset}(t), multiplied out on ints into one Fraction."""
        n, m = t.numerator, t.denominator
        num, den = scale, 1
        for i in subset:
            c, d = self.forms[i]
            num *= c * n + d * m
            den *= m
        return Fraction(num, den)

    @cached_property
    def partition(self) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
        """(A, B), each in index order."""
        return (tuple(i for i in self.indices if i in self.part_a),
                tuple(i for i in self.indices if i not in self.part_a))

    def fiber_coeffs(self, t: Rational) -> Tuple[Fraction, Fraction]:
        """(a*p_A(t), b*p_B(t)), the coefficients of the conic above t.

        Every fiber quantity is read off this pair: their product is
        d*p_J(t), and at the root of p_i the entry that stays nonzero is
        brauer_constants[i].
        """
        part_a, part_b = self.partition
        return self.product_value(part_a, t, self.a), self.product_value(part_b, t, self.b)

    def fiber_coeffs_of(self, values: Mapping[int, Fraction]) -> Tuple[Fraction, Fraction]:
        """fiber_coeffs(t) from values[i] = p_i(t), multiplied out on ints."""
        def scaled(scale: int, part: Tuple[int, ...]) -> Fraction:
            num, den = scale, 1
            for x in map(values.__getitem__, part):
                num, den = num * x.numerator, den * x.denominator
            return Fraction(num, den)

        part_a, part_b = self.partition
        return scaled(self.a, part_a), scaled(self.b, part_b)

    def is_s0_integer(self, x: Rational) -> bool:
        return strip_primes(Fraction(x).denominator, self.s0_finite_primes) == 1

    @cached_property
    def _tables(self) -> _FactorTables:
        """The tables of the one factorization pass, built at first use."""
        return _factor_tables(self)

    @cached_property
    def s_bad(self) -> Tuple[Place, ...]:
        """compute_s_bad of this spec, computed at first use."""
        return compute_s_bad(self)

    @cached_property
    def basis_primes(self) -> Tuple[int, ...]:
        """The finite primes of S0 + S_bad, ascending.

        With -1 they generate the square class of every constant of the
        descent: d, a, each D_i^{J'} and each a*D_i^A is a product of a, b,
        the c_i and the cross-resultants c_i*d_j - c_j*d_i, whose primes
        outside S0 all lie in S_bad.
        """
        return tuple(sorted({*self.s0_finite_primes, *(v.p for v in self.s_bad)}))

    @cached_property
    def cross_resultants(self) -> Dict[Tuple[int, int], int]:
        """(i, j) -> c_i*d_j - c_j*d_i over forms, for i before j in
        indices, each formed once for the one factorization pass."""
        items = list(self.forms.items())
        return {(i, j): ci * dj - cj * di
                for k, (i, (ci, di)) in enumerate(items) for j, (cj, dj) in items[k + 1:]}

    @cached_property
    def a_mask(self) -> int:
        """class_mask of a over basis_primes."""
        return class_mask(self.a, self.basis_primes)

    @cached_property
    def d_mask(self) -> int:
        """class_mask of d over basis_primes."""
        return class_mask(self.d, self.basis_primes)

    @cached_property
    def root_masks(self) -> Dict[Tuple[int, int], int]:
        """(i, j) -> the class mask of p_j(-d_i/c_i) over basis_primes, for
        i != j: every descent constant is an XOR of these and [a] or [d].
        Read off the one factorization pass (see _factor_tables)."""
        return self._tables.root_masks

    @cached_property
    def brauer_constants(self) -> Dict[int, Fraction]:
        """i -> the left entry of the vertical Brauer generator of factor i:
        the entry of fiber_coeffs(root(i)) that stays nonzero, b*p_B for i in
        A and a*p_A otherwise.  Both are a*D_i^A up to squares (for i in A,
        a*D_i^A is a^2 times b*p_B(-d_i/c_i))."""
        return {i: self.fiber_coeffs(self.root(i))[i in self.part_a] for i in self.indices}


def spec_violations(
    s0: Sequence[Place],
    a: Rational,
    b: Rational,
    factors: Mapping[int, Tuple[Rational, Rational]],
    part_a: Iterable[int],
) -> List[str]:
    """All violated invariants of a raw specification (empty list = valid).

    Every coefficient must be an integer: an int, or a Fraction of
    denominator 1.  The gcd check of a factor runs only once both of its
    coefficients are integers, and on their numerators.
    """
    problems: List[str] = []
    if REAL not in s0:
        problems.append("S0 must contain the real place")
    if len(set(s0)) != len(s0):
        problems.append("S0 has repeated places")
    s0_primes = [v.p for v in s0 if v.is_finite]
    if not a or not b:
        problems.append("a and b must be nonzero")
    for name, x in (("a", a), ("b", b)):
        if x.denominator != 1:
            problems.append(f"{name} = {x} is not an integer")
    if not factors:
        problems.append("the factor set J must be non-empty")
    if len(factors) > MAX_FACTORS:
        problems.append(f"more than {MAX_FACTORS} factors is not supported")
    part_a = set(part_a)
    if not part_a <= set(factors):
        problems.append("partA contains unknown factor indices")
    items = sorted(factors.items())
    for i, (c, d) in items:
        if not c:
            problems.append(f"factor {i}: leading coefficient c must be nonzero")
            continue
        fractional = [f"{name} = {x} is not an integer"
                      for name, x in ((f"c_{i}", c), (f"d_{i}", d)) if x.denominator != 1]
        if fractional:
            problems += fractional
            continue
        # coprimality as S0-integers: no prime outside S0 divides both
        # (for d = 0 the gcd is c: c must be an S0-unit)
        common = math.gcd(c.numerator, d.numerator)
        if common == 1:
            continue
        name = "c_{0}" if not d else "gcd(c_{0}, d_{0})"
        try:
            common = _input_primes(common, name, i)
        except SpecValidationError as exc:
            problems += exc.violations
            continue
        bad = sorted(q for q in common if q not in s0_primes)
        if bad and not d:
            problems.append(f"factor {i}: d = 0 and c has primes {bad} outside S0")
        elif bad:
            problems.append(f"factor {i}: c,d share primes {bad} outside S0")
    for k, (i, (ci, di)) in enumerate(items):
        for j, (cj, dj) in items[k + 1:]:
            if ci * dj == cj * di:
                problems.append(f"factors {i},{j} are proportional")
    return problems


def validate_spec(
    s0: Sequence[Place],
    a: Rational,
    b: Rational,
    factors: Mapping[int, Tuple[Rational, Rational]],
    part_a: Iterable[int],
) -> SurfaceSpec:
    """The SurfaceSpec of a raw specification, or SpecValidationError with
    every violation.  spec_violations checks the raw coefficients, ints or
    integral Fractions, and the spec stores each as its int numerator."""
    part_a = frozenset(part_a)
    problems = spec_violations(s0, a, b, factors, part_a)
    if problems:
        raise SpecValidationError(problems)
    return SurfaceSpec(s0=tuple(sorted(s0)), a=a.numerator, b=b.numerator,
                       factors=tuple((i, (c.numerator, d.numerator))
                                     for i, (c, d) in sorted(factors.items())),
                       part_a=part_a)


def make_spec(
    s0_primes: Sequence[int],
    a: Rational,
    b: Rational,
    factors: Mapping[int, Tuple[Rational, Rational]],
    part_a: Iterable[int],
) -> SurfaceSpec:
    """Convenience constructor: S0 = {real} + the given finite primes."""
    places = [REAL] + [Place.finite(p) for p in s0_primes]
    return validate_spec(places, a, b, factors, part_a)


# ---------------------------------------------------------------------------
# Derived place sets
# ---------------------------------------------------------------------------


class _FactorTables(NamedTuple):
    """What a spec keeps of its one factorization pass: no factorization,
    only the tables derived from them."""

    s_bad: Tuple[Place, ...]
    root_masks: Dict[Tuple[int, int], int]


def _factor_tables(spec: SurfaceSpec) -> _FactorTables:
    """The one factorization pass over the constants of spec: it factors d,
    then each c_i followed by R_ij = c_i*d_j - c_j*d_i (spec.cross_resultants)
    for each j after i, once each and in that order, and reads S_bad (see
    compute_s_bad) and root_masks off them, keeping no factorization.

    p_j(-d_i/c_i) = R_ij/c_i and p_i(-d_j/c_j) = -R_ij/c_j, so the class of
    each over basis_primes is the XOR of the classes of R_ij and of c_i (or
    -1 and c_j), each read off its sign and its primes of odd exponent.
    """
    s0_primes = spec.s0_finite_primes
    forms, cross = spec.forms, spec.cross_resultants
    d_primes = _input_primes(spec.d, "d = ab")
    lead_primes, cross_primes = {}, {}
    for k, (i, (c, _)) in enumerate(spec.factors):
        lead_primes[i] = _input_primes(c, "c_{}", i)
        for j in spec.indices[k + 1:]:
            cross_primes[i, j] = _input_primes(cross[i, j], "c_{0}*d_{1} - c_{1}*d_{0}", i, j)
    bad = {q for primes in (d_primes, *lead_primes.values(), *cross_primes.values())
           for q in primes if q not in s0_primes}
    if 2 not in s0_primes:
        bad.add(2)
    # residue-covering primes: every t mod p is a root of p_J.  Such p lies
    # outside S0 and divides no c_i (the primes of c_i are bad already), so
    # p_i(t) = 0 mod p at t = -d_i/c_i only.
    for p in range(2, len(spec.factors) + 1):
        if p in s0_primes or p in bad or not is_prime(p):
            continue
        if len({-d * pow(c, -1, p) % p for c, d in forms.values()}) == p:
            bad.add(p)
    bit = {p: 1 << k for k, p in enumerate(sorted({*s0_primes, *bad}), 1)}

    def class_of(negative: bool, primes: Dict[int, int]) -> int:
        """The class over basis_primes of +-(the factored number)."""
        mask = int(negative)
        for p, e in primes.items():
            if e & 1:
                mask ^= bit[p]
        return mask

    lead = {i: class_of(c < 0, lead_primes[i]) for i, (c, _) in spec.factors}
    table = {}
    for (i, j), primes in cross_primes.items():
        mask = class_of(cross[i, j] < 0, primes)
        table[i, j] = mask ^ lead[i]
        table[j, i] = mask ^ 1 ^ lead[j]
    return _FactorTables(tuple(Place.proved(q) for q in sorted(bad)), table)


def compute_s_bad(spec: SurfaceSpec) -> Tuple[Place, ...]:
    """Finite places outside S0 of bad reduction for the fibration.

    Primes dividing a cross-resultant c_i*d_j - c_j*d_i, a leading
    coefficient c_i, or d = ab; the prime 2; and primes p with
    p_J(t) = 0 mod p for every residue t (only possible for p <= |J|).
    Read off the one factorization pass of the spec (_factor_tables),
    which factors each of these quantities once, at first use, and from
    which root_masks is read too.  Leading-coefficient primes are included
    so that the constants a*p_A(-d_i/c_i) are v-units at every place
    outside S0 and S_bad.  A quantity that cannot be factored within the
    certified primality range raises SpecValidationError naming it.
    """
    return spec._tables.s_bad


# ---------------------------------------------------------------------------
# Fibers and points
# ---------------------------------------------------------------------------


class FiberSpec(NamedTuple):
    """The fiber above t: the conic aA*x^2 + bB*y^2 = 1."""

    t: Fraction
    aA: Fraction
    bB: Fraction
    torus_d: Fraction  # -d * p_J(t); the fiber is a torsor under x^2 - torus_d*y^2 = 1


def fiber(spec: SurfaceSpec, t: Rational) -> FiberSpec:
    """The fiber above t."""
    t = Fraction(t)
    aA, bB = spec.fiber_coeffs(t)
    if not aA or not bB:
        raise DegenerateFiberError(f"p_J({t}) = 0")
    return FiberSpec(t=t, aA=aA, bB=bB, torus_d=-aA * bB)


def _residual(aA: Fraction, bB: Fraction, x: Rational, y: Rational) -> Fraction:
    """aA*x^2 + bB*y^2 - 1 over one common integer denominator."""
    a_den = aA.denominator * x.denominator ** 2
    b_den = bB.denominator * y.denominator ** 2
    return Fraction(aA.numerator * x.numerator ** 2 * b_den
                    + bB.numerator * y.numerator ** 2 * a_den - a_den * b_den,
                    a_den * b_den)


def evaluate_point(spec: SurfaceSpec, x: Rational, y: Rational, t: Rational) -> Fraction:
    """Residual a*p_A(t)x^2 + b*p_B(t)y^2 - 1; zero iff on the surface."""
    return _residual(*spec.fiber_coeffs(t), x, y)


# ---------------------------------------------------------------------------
# Partial adelic points
# ---------------------------------------------------------------------------


class LocalPoint(NamedTuple):
    """A local point stored as exact rationals with a v-adic precision claim."""

    x: Fraction
    y: Fraction
    t: Fraction
    precision: int

    @staticmethod
    def make(x: Rational, y: Rational, t: Rational, precision: int) -> "LocalPoint":
        return LocalPoint(Fraction(x), Fraction(y), Fraction(t), precision)


class PlaceRow(NamedTuple):
    """What the checks read of place v, from one evaluation of the p_i(t_v):
    i -> (val_v, local mask) of p_i(t_v) (val 0 at real), those of
    -d*p_J(t_v), its Brauer invariant vector (brauer.invariant_vector), all
    three None where -d*p_J(t_v) is 0, and what `validate` reports."""

    factors: Optional[Dict[int, Tuple[int, int]]]
    torus: Optional[Tuple[int, int]]
    brauer: Optional[int]
    problems: Tuple[str, ...]


def factor_row(v: Place, values: Mapping[int, Fraction]) -> Dict[int, Tuple[int, int]]:
    """i -> (val_v, local mask) of the values p_i(t), val 0 at real."""
    return {i: (0 if v.is_real else valuation(x, v.p), local_mask(x, v))
            for i, x in values.items()}


def _place_row(spec: SurfaceSpec, v: Place, pt: LocalPoint) -> PlaceRow:
    values = {i: spec.factor_value(i, pt.t) for i in spec.indices}
    aA, bB = spec.fiber_coeffs_of(values)
    if not aA or not bB:
        return PlaceRow(None, None, None, (f"{v}: d*p_J(t_v) = 0",))
    problems = []
    if v.is_real and aA <= 0 and bB <= 0:
        problems.append(f"real: fiber at t = {pt.t} has no real points")
    residual = 0 if v.is_real else _residual(aA, bB, pt.x, pt.y)
    if residual != 0 and valuation(residual, v.p) < pt.precision:
        problems.append(f"{v}: residual {residual} below stated precision {pt.precision}")
    if v.is_finite and v not in spec.s0:
        problems += [f"{v}: coordinate {name} is not v-integral"
                     for name, x in (("x", pt.x), ("y", pt.y), ("t", pt.t))
                     if x != 0 and valuation(x, v.p) < 0]
    factors = factor_row(v, values)
    val, mask = 0 if v.is_real else valuation(spec.d, v.p), local_mask(-spec.d, v)
    for val_i, mask_i in factors.values():
        val, mask = val + val_i, mask ^ mask_i
    return PlaceRow(factors, (val, mask), invariant_vector(spec, v, factors), tuple(problems))


class PartialAdelicPoint:
    """Local points indexed by an ordered finite set of places T.

    At finite v outside S0 the coordinates are v-integral and satisfy the
    surface equation to the stated precision; at finite v in S0 only the
    v-adic residual bound is required; at the real place the fiber above
    t_v must be soluble over R.

    Each entry is evaluated once, when it is made, into rows[v]; `rows` hands
    over another point's rows of the same entries, to share.  places is T.
    """

    def __init__(self, spec: SurfaceSpec, entries: Mapping[Place, LocalPoint],
                 rows: Optional[Mapping[Place, PlaceRow]] = None):
        self.spec, self.entries, rows = spec, dict(entries), rows or {}
        self.places = tuple(sorted(self.entries))
        self.rows = {v: rows[v] if v in rows else _place_row(spec, v, self.entries[v])
                     for v in self.places}

    def with_entry(self, v: Place, point: LocalPoint) -> "PartialAdelicPoint":
        return PartialAdelicPoint(self.spec, {**self.entries, v: point},
                                  {w: row for w, row in self.rows.items() if w != v})

    def validate(self) -> List[str]:
        return [problem for v in self.places for problem in self.rows[v].problems]


class AdmissiblePoint(NamedTuple):
    """A base value t0 with prime uniformizer places for each factor, the
    fiber above t0 and i -> p_i(t0) in index order, as the admissible scan
    computed them; no later step evaluates anything at t0 again.  Its T is
    that of the partial adelic point it was found for, read from there."""

    fiber: FiberSpec
    values: Dict[int, Fraction]
    witnesses: Tuple[Tuple[int, Place], ...]  # (factor index, place u_i)

    @property
    def t0(self) -> Fraction:
        return self.fiber.t

    def witness(self, i: int) -> Place:
        for j, u in self.witnesses:
            if j == i:
                return u
        raise KeyError(i)


# ---------------------------------------------------------------------------
# Spec file format
# ---------------------------------------------------------------------------


_ARITY = {"a": 1, "b": 1, "factor": 3}  # the keys whose lines carry a fixed number of values


def parse_spec_text(text: str) -> SurfaceSpec:
    """Parse the line-oriented key-value spec format.

    Keys: s0, a, b, factor <i> <c> <d>, partA; integers in decimal;
    '#' starts a comment.  Each key but factor appears once, a, b and
    factor lines carry exactly their values, and partA names each index
    at most once.
    """
    s0: List[Place] = []
    a: Optional[int] = None
    b: Optional[int] = None
    factors: Dict[int, Tuple[int, int]] = {}
    part_a: List[int] = []
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), 1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        key = tokens[0]
        try:
            if key in seen and key != "factor":
                raise ValueError(f"repeated key {key!r}")
            seen.add(key)
            arity = _ARITY.get(key)
            if arity is not None and len(tokens) - 1 != arity:
                raise ValueError(f"{key} line has {len(tokens) - 1} values, expected {arity}")
            if key == "s0":
                s0 = [parse_place(tok) for tok in tokens[1:]]
            elif key == "a":
                a = int(tokens[1])
            elif key == "b":
                b = int(tokens[1])
            elif key == "factor":
                i = int(tokens[1])
                if i in factors:
                    raise ValueError(f"duplicate factor index {i}")
                factors[i] = (int(tokens[2]), int(tokens[3]))
            elif key == "partA":
                part_a = [int(tok) for tok in tokens[1:]]
                for k, i in enumerate(part_a):
                    if i in part_a[:k]:
                        raise ValueError(f"repeated index {i} on partA")
            else:
                raise ValueError(f"unknown key {key!r}")
        except ValueError as exc:
            raise SpecValidationError([f"line {lineno}: {exc}"]) from exc
    missing = [
        name
        for name, ok in (("s0", bool(s0)), ("a", a is not None), ("b", b is not None),
                         ("factor", bool(factors)), ("partA", "partA" in seen))
        if not ok
    ]
    if missing:
        raise SpecValidationError([f"missing keys: {', '.join(missing)}"])
    return validate_spec(s0, a, b, factors, part_a)


def serialize_spec(spec: SurfaceSpec) -> str:
    """Canonical bit-exact serialization; round-trips through parse_spec_text."""
    lines = ["s0 " + " ".join(map(str, sorted(spec.s0))), f"a {spec.a}", f"b {spec.b}"]
    lines += [f"factor {i} {c} {d}" for i, (c, d) in spec.factors]
    lines.append("partA" + "".join(f" {i}" for i in sorted(spec.part_a)))
    return "\n".join(lines) + "\n"


def spec_hash(spec: SurfaceSpec) -> str:
    return hashlib.sha256(serialize_spec(spec).encode()).hexdigest()


def load_spec(path: str) -> SurfaceSpec:
    """parse_spec_text of the file at path, read as bytes and decoded once."""
    with open(path, "rb") as fh:
        return parse_spec_text(fh.read().decode("utf-8"))


# ---------------------------------------------------------------------------
# Point file format
# ---------------------------------------------------------------------------


def parse_point_file(text: str, spec: SurfaceSpec) -> PartialAdelicPoint:
    """Rows: <place> <x> <y> <t> <precision>, rationals as p/q."""
    entries: Dict[Place, LocalPoint] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 5:
            raise SpecValidationError([f"point line {lineno}: expected 5 fields"])
        try:
            v = parse_place(tokens[0])
            x, y, t = (parse_rational(tok) for tok in tokens[1:4])
            precision = int(tokens[4])
        except ValueError as exc:
            raise SpecValidationError([f"point line {lineno}: {exc}"]) from exc
        if precision < 1:
            raise SpecValidationError([f"point line {lineno}: precision must be >= 1"])
        if v in entries:
            raise SpecValidationError([f"point line {lineno}: duplicate place {v}"])
        entries[v] = LocalPoint(x, y, t, precision)
    return PartialAdelicPoint(spec, entries)


def serialize_point(point: PartialAdelicPoint) -> str:
    lines = []
    for v in point.places:
        pt = point.entries[v]
        lines.append(f"{v} {pt.x} {pt.y} {pt.t} {pt.precision}")
    return "\n".join(lines) + "\n"
