"""Independent brute-force oracles used to validate the library computations.

Everything here is deliberately naive: residue enumeration, exhaustive
subgroup filters, direct point scans.  None of it shares code paths with
the implementations under test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np
from sympy import factorint

from torusdescent import gf2
from torusdescent.arith import (
    REAL,
    Place,
    PrimalityRangeError,
    class_mask,
    factorize,
    hilbert_row,
    legendre,
    local_dim,
    local_mask,
    mod_prime_power,
    strip_primes,
    valuation,
)
from torusdescent.conditiond import (
    ConditionDReport,
    GElement,
    Lattice,
    constant_mask,
    target_generators,
)
from torusdescent.selmer import TorusData, selmer_groups, torus_data
from torusdescent.surface import MAX_FACTORS, compute_s_bad, past_primality_range


# ---------------------------------------------------------------------------
# The fibration by its defining Fraction formulas
# ---------------------------------------------------------------------------


def factor_value_reference(spec, i: int, t) -> Fraction:
    """p_i(t) = c_i*t + d_i in Fraction arithmetic."""
    c, d = spec.coeffs(i)
    return c * Fraction(t) + d


def factor_values_reference(spec, t) -> Dict[int, Fraction]:
    """i -> p_i(t) for every index, in index order."""
    return {i: factor_value_reference(spec, i, t) for i in spec.indices}


def cross_resultant_reference(spec, i: int, j: int) -> Fraction:
    """c_i*d_j - c_j*d_i in Fraction arithmetic."""
    (ci, di), (cj, dj) = spec.coeffs(i), spec.coeffs(j)
    return ci * dj - cj * di


def factored_numerators_reference(spec) -> List[int]:
    """The numerators S_bad factors, in the order it factors them: d, then
    each c_i followed by c_i*d_j - c_j*d_i for each j after i."""
    expected = [spec.d.numerator]
    for i, (c, _) in spec.factors:
        expected.append(c.numerator)
        expected += [cross_resultant_reference(spec, i, j).numerator
                     for j in spec.indices if j > i]
    return expected


def product_value_reference(spec, subset, t) -> Fraction:
    """p_{subset}(t), one Fraction product per factor."""
    value = Fraction(1)
    for i in subset:
        value *= factor_value_reference(spec, i, t)
    return value


def fiber_coeffs_reference(spec, t) -> Tuple[Fraction, Fraction]:
    """(a*p_A(t), b*p_B(t)) in Fraction arithmetic."""
    part_b = [i for i in spec.indices if i not in spec.part_a]
    return (spec.a * product_value_reference(spec, sorted(spec.part_a), t),
            spec.b * product_value_reference(spec, part_b, t))


def residual_reference(spec, x, y, t) -> Fraction:
    """a*p_A(t)x^2 + b*p_B(t)y^2 - 1 in Fraction arithmetic."""
    aA, bB = fiber_coeffs_reference(spec, t)
    return aA * Fraction(x) ** 2 + bB * Fraction(y) ** 2 - 1


# ---------------------------------------------------------------------------
# The input layer by its Fraction forms
# ---------------------------------------------------------------------------


def spec_violations_reference(s0, a, b, factors, part_a) -> List[str]:
    """The violated invariants of a raw specification with S0-integer
    coefficients allowed, every coefficient wrapped in a Fraction and
    proportionality tested by Fraction products.  On integer coefficients
    its messages are those of spec_violations."""
    problems: List[str] = []
    a, b = Fraction(a), Fraction(b)
    if REAL not in s0:
        problems.append("S0 must contain the real place")
    if len(set(s0)) != len(s0):
        problems.append("S0 has repeated places")
    s0_primes = [v.p for v in s0 if v.is_finite]
    if a == 0 or b == 0:
        problems.append("a and b must be nonzero")
    for name, x in (("a", a), ("b", b)):
        if x and strip_primes(x.denominator, s0_primes) != 1:
            problems.append(f"{name} = {x} is not an S0-integer")
    if not factors:
        problems.append("the factor set J must be non-empty")
    if len(factors) > MAX_FACTORS:
        problems.append(f"more than {MAX_FACTORS} factors is not supported")
    part_a = set(part_a)
    if not part_a <= set(factors):
        problems.append("partA contains unknown factor indices")
    items = [(i, Fraction(c), Fraction(d)) for i, (c, d) in sorted(factors.items())]
    for i, c, d in items:
        if c == 0:
            problems.append(f"factor {i}: leading coefficient c must be nonzero")
            continue
        for name, x in ((f"c_{i}", c), (f"d_{i}", d)):
            if x and strip_primes(x.denominator, s0_primes) != 1:
                problems.append(f"{name} = {x} is not an S0-integer")
        common = math.gcd(c.numerator, d.numerator)
        try:
            primes = factorize(common)
        except PrimalityRangeError:
            name = f"c_{i}" if d == 0 else f"gcd(c_{i}, d_{i})"
            problems.append(past_primality_range(name, Fraction(common)))
            continue
        bad = sorted(q for q in primes if q not in s0_primes)
        if bad and d == 0:
            problems.append(f"factor {i}: d = 0 and c has primes {bad} outside S0")
        elif bad:
            problems.append(f"factor {i}: c,d share primes {bad} outside S0")
    for idx, (i, ci, di) in enumerate(items):
        for j, cj, dj in items[idx + 1:]:
            if ci * dj == cj * di:
                problems.append(f"factors {i},{j} are proportional")
    return problems


def integral_model_reference(a, b, factors, part_a):
    """The integral model of a raw spec with S0-integer coefficients, in
    Fraction arithmetic: p_i times L_i, the lcm of the denominators of c_i
    and d_i, is C_i*t + D_i with C_i = L_i*c_i and D_i = L_i*d_i; and with
    a / prod_{i in A} L_i = n/m in lowest terms, a' = n*m (b' likewise over
    B).  Returns (a', b', {i: (C_i, D_i)}, (m_a, m_b)): (x, y, t) lies on the
    raw surface exactly when (x/m_a, y/m_b, t) lies on the model, and the m
    are S0-units."""
    lcm = {i: math.lcm(Fraction(c).denominator, Fraction(d).denominator)
           for i, (c, d) in factors.items()}
    model = {i: (int(Fraction(c) * lcm[i]), int(Fraction(d) * lcm[i]))
             for i, (c, d) in factors.items()}

    def scaled(x, part):
        q = Fraction(x) / math.prod(lcm[i] for i in part)
        return q.numerator * q.denominator, q.denominator

    a_model, m_a = scaled(a, part_a)
    b_model, m_b = scaled(b, [i for i in factors if i not in part_a])
    return a_model, b_model, model, (m_a, m_b)


def serialize_spec_reference(spec) -> str:
    """The spec file text of spec, each coefficient formatted as a Fraction."""
    for x in (spec.a, spec.b, *(x for _, cd in spec.factors for x in cd)):
        if Fraction(x).denominator != 1:
            raise ValueError("spec file format carries integers only")
    lines = ["s0 " + " ".join(str(v) for v in sorted(spec.s0)), f"a {spec.a}", f"b {spec.b}"]
    lines += [f"factor {i} {c} {d}" for i, (c, d) in spec.factors]
    lines.append("partA" + "".join(f" {i}" for i in sorted(spec.part_a)))
    return "\n".join(lines) + "\n"


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd positive n, by quadratic-reciprocity recursion."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be odd and positive")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def local_basis(v: Place):
    """Generators of Q_v*/(Q_v*)^2 in the order of the local_mask bits."""
    if v.is_real:
        return (-1,)
    p = v.p
    if p == 2:
        return (-1, 5, 2)
    return (next(u for u in range(2, p) if legendre(u, p) == -1), p)


def hilbert_symbol_closed_form(a, b, v: Place) -> int:
    """Additive Hilbert symbol <a,b>_v from Serre's closed-form local formulas."""
    a, b = Fraction(a), Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol needs nonzero arguments")
    if v.is_real:
        return 1 if (a < 0 and b < 0) else 0
    p = v.p
    alpha, beta = valuation(a, p), valuation(b, p)
    u, w = a / Fraction(p) ** alpha, b / Fraction(p) ** beta
    if p == 2:
        eps_u = (mod_prime_power(u, 2, 2) - 1) // 2 & 1  # (u-1)/2 mod 2
        eps_w = (mod_prime_power(w, 2, 2) - 1) // 2 & 1
        omega_u = (mod_prime_power(u, 2, 3) ** 2 - 1) // 8 & 1  # (u^2-1)/8 mod 2
        omega_w = (mod_prime_power(w, 2, 3) ** 2 - 1) // 8 & 1
        return (eps_u * eps_w + alpha * omega_w + beta * omega_u) & 1
    eps_p = ((p - 1) // 2) & 1
    chi_u = 0 if legendre(u, p) == 1 else 1
    chi_w = 0 if legendre(w, p) == 1 else 1
    return (alpha * beta * eps_p + beta * chi_u + alpha * chi_w) & 1


def is_local_square_closed_form(x, v: Place) -> bool:
    """x a square in Q_v, from its valuation and the residue of its unit part."""
    x = Fraction(x)
    if v.is_real:
        return x > 0
    p = v.p
    val = valuation(x, p)
    if val % 2:
        return False
    u = x / Fraction(p) ** val
    if p == 2:
        return mod_prime_power(u, 2, 3) == 1
    return legendre(u, p) == 1


def hilbert_relevant_places(a, b):
    """Places where <a,b>_v can be nonzero: real plus primes dividing 2ab."""
    primes = {2}
    for x in (Fraction(a), Fraction(b)):
        primes.update(factorize(x.numerator))
        primes.update(factorize(x.denominator))
    return [REAL] + [Place.finite(p) for p in sorted(primes)]


def conic_soluble_bruteforce(a, b, p: int) -> bool:
    """Primitive-solution search for z^2 = a x^2 + b y^2 mod p^k.

    a, b are scaled by squares to valuation <= 1 first; k = 3 for odd p and
    6 for p = 2 certify Q_p-solubility for such coefficients.  A primitive
    solution must have x or y a unit (z alone cannot be: z^2 would be a
    unit while a x^2 + b y^2 is divisible by p), so after scaling by that
    unit the search reduces to two one-variable sweeps.
    """
    a, b = Fraction(a), Fraction(b)
    va = valuation(a, p)
    a = a / Fraction(p) ** (va - (va % 2))
    vb = valuation(b, p)
    b = b / Fraction(p) ** (vb - (vb % 2))
    k = 6 if p == 2 else 3
    pk = p**k
    am = a.numerator * pow(a.denominator, -1, pk) % pk
    bm = b.numerator * pow(b.denominator, -1, pk) % pk
    x = np.arange(pk, dtype=np.int64)
    x2 = (x * x) % pk
    squares = np.zeros(pk, dtype=bool)
    squares[np.unique(x2)] = True
    chart_x = (am + bm * x2) % pk
    chart_y = (am * x2 + bm) % pk
    return bool(squares[chart_x].any() or squares[chart_y].any())


def is_square_mod_enumeration(x, v: Place) -> bool:
    """x a square in Q_v, by enumerating y^2 = x mod p^k on the unit part."""
    if v.is_real:
        return Fraction(x) > 0
    p = v.p
    val = valuation(x, p)
    if val % 2:
        return False
    unit = Fraction(x) / Fraction(p) ** val
    k = 4 if p == 2 else 2
    pk = p**k
    um = unit.numerator * pow(unit.denominator, -1, pk) % pk
    return any(y * y % pk == um for y in range(pk))


def selmer_by_enumeration(d, places) -> set:
    """All S-unit classes pairing trivially with d at every place of S."""
    gens = [-1] + [v.p for v in places if v.is_finite]
    members = set()
    for mask in range(1 << len(gens)):
        value = 1
        for j, g in enumerate(gens):
            if (mask >> j) & 1:
                value *= g
        if all(hilbert_symbol_closed_form(value, d, v) == 0 for v in places):
            members.add(sqfree(value))
    return members


def dual_selmer_by_enumeration(d, places) -> set:
    """All S-unit classes locally equal to 1 or [d] at every place of S.

    Membership is tested by local squareness of x or x*d, not by Hilbert
    pairings, so the oracle is independent of the kernel computation under
    test.
    """
    gens = [-1] + [v.p for v in places if v.is_finite]
    members = set()
    for mask in range(1 << len(gens)):
        value = 1
        for j, g in enumerate(gens):
            if (mask >> j) & 1:
                value *= g
        if all(
            is_local_square_closed_form(value, v)
            or is_local_square_closed_form(value * d, v)
            for v in places
        ):
            members.add(sqfree(value))
    return members


def split_places(torus: TorusData, base: Sequence[Place]) -> List[Place]:
    """The places of base where the torus splits: d is a local square."""
    return [v for v in sorted(base) if is_local_square_closed_form(torus.d, v)]


def dimension_identity(torus: TorusData, base: Sequence[Place]) -> Tuple[int, int, int]:
    """(dim Sel, dim dual Sel, #split base places) of the package's
    selmer_groups; asserts the dimension gap.

    Every place of S outside the designated base set must be non-split for
    the torus (in the descent those are the ramified places), else the
    identity does not apply and a ValueError is raised.
    """
    base = set(base)
    if not base <= set(torus.places):
        raise ValueError("base places must lie inside S")
    for v in torus.places:
        if v not in base and is_local_square_closed_form(torus.d, v):
            raise ValueError(f"place {v} outside the base set is split; identity not applicable")
    n_split = len(split_places(torus, sorted(base)))
    _, sel, dual = selmer_groups(torus)
    if sel.dim - dual.dim != n_split:
        raise AssertionError(f"dimension identity failed: {sel.dim} - {dual.dim} != {n_split}")
    return sel.dim, dual.dim, n_split


def fiber_torus_reference(state) -> TorusData:
    """The norm-one torus of the fiber above a descent state's t0, over
    T0, the witness places u_i, the real place and 2.

    T0 is S0 and the places v of T with val_v(-d*p_J(t_v)) = 1, from the
    Fraction formulas.  -d*p_J(t0) is a T-unit times the u_i, so its square
    class is read off its valuations at those primes; nothing is factored.
    """
    spec, p_t, adm = state.spec, state.p_t, state.adm
    t0_places = {v for v in p_t.places if v in spec.s0 or valuation(
        -spec.d * product_value_reference(spec, spec.indices, p_t.entries[v].t), v.p) == 1}
    u_places = {u for _, u in adm.witnesses}
    primes = [v.p for v in set(p_t.places) | u_places if v.is_finite]
    value = Fraction(adm.fiber.torus_d)
    assert strip_primes(abs(value.numerator) * value.denominator, primes) == 1
    d_t = 1 if value > 0 else -1
    for p in primes:
        if valuation(value, p) % 2:
            d_t *= p
    return torus_data(d_t, t0_places | u_places | {REAL, Place.finite(2)})


def encode(lattice: Lattice, x: GElement) -> int:
    """The mask of x in lattice: its factor bits, then class_mask of x.c over
    -1 and the lattice's primes.  ValueError if x has a prime or a factor
    outside the lattice."""
    return lattice.poly_mask(x.poly) | class_mask(x.c, lattice.primes) << lattice.shift


def inserted_places(trace) -> List[int]:
    """The primes a descent inserted, in the order of its trace: the place
    of each sd_witness step and the w of each reduce_dual_selmer step."""
    return [entry["place"] if entry["step"] == "sd_witness" else entry["w"]
            for entry in trace if entry["step"] in ("sd_witness", "reduce_dual_selmer")]


def state_lattice_reference(spec, p_t, trace) -> Lattice:
    """The lattice of the descent state over p_t: the factor indices, -1,
    the finite primes of S0 + S_bad ascending, then the other places of p_t
    in the order the descent of `trace` inserted them."""
    basis = sorted({*spec.s0_finite_primes, *(v.p for v in compute_s_bad(spec))})
    finite = [v.p for v in p_t.places if v.is_finite]
    primes = basis + [p for p in inserted_places(trace) if p in finite]
    assert sorted(primes) == finite
    return Lattice(primes, spec.indices)


def relative_selmer_reference(spec, lattice, p_t, adm):
    """(R, R-hat) of selmer.relative_selmer in lattice, cut out from the
    values p_i(t0) and -d*p_J(t0): their local masks are computed at every
    place of T and at the witness places u_i.  At T0 (S0 and the places v
    with val_v(d*p_J(t_v)) = 1, from the Fraction formulas) and at the u_i a
    class must lie in <[-d*p_J(t0)]_v>^perp (R) or in <[-d*p_J(t0)]_v>
    (R-hat); at the rest of T it must be a local unit class (both)."""
    values = [adm.values[i] for i in lattice.factor_indices]
    t0_places = [v for v in p_t.places if v in spec.s0 or valuation(
        spec.d * product_value_reference(spec, spec.indices, p_t.entries[v].t), v.p) == 1]
    ramified = sorted({*t0_places, *(u for _, u in adm.witnesses)})
    units = [v for v in p_t.places if v not in t0_places]

    def form_rows(v, forms):
        masks = [local_mask(g, v) for g in (*values, -1, *lattice.primes)]
        return [sum(gf2.dot(m, f) << k for k, m in enumerate(masks)) for f in forms]

    sel_rows, dual_rows = [], []
    for v in ramified:
        d_v = local_mask(adm.fiber.torus_d, v)
        sel_rows += form_rows(v, [hilbert_row(d_v, v)])
        dual_rows += form_rows(v, gf2.kernel_basis([d_v], local_dim(v)))
    for v in units:
        unit_rows = form_rows(v, [1 << local_dim(v) - 1])  # the valuation parity
        sel_rows += unit_rows
        dual_rows += unit_rows
    return tuple(gf2.Subspace(lattice.ncols, gf2.kernel_basis(rows, lattice.ncols))
                 for rows in (sel_rows, dual_rows))


def d_constant(spec, i: int, subset) -> Fraction:
    """D_i^{J'} = p_{J'}(-d_i/c_i) for i outside J', d*p_{J'^c}(-d_i/c_i) inside,
    as the rational product of the definition."""
    subset = frozenset(subset)
    root = spec.root(i)
    if i not in subset:
        return product_value_reference(spec, sorted(subset), root)
    complement = sorted(set(spec.indices) - subset)
    return spec.d * product_value_reference(spec, complement, root)


def d_constant_dual(spec, i: int, subset) -> Fraction:
    """Dual constant: d replaced by -d in the i-in-J' branch."""
    value = d_constant(spec, i, subset)
    return -value if i in frozenset(subset) else value


def membership_reference(spec, dual: bool):
    """(x, i) -> whether the GElement x lies in G_i (G^i when dual), by the
    definition: [c*D_i^{J'}] is trivial or [a*D_i^A], on sqfree of the
    rational constants d_constant / d_constant_dual."""
    constant = d_constant_dual if dual else d_constant
    targets = {i: sqfree(spec.a * d_constant(spec, i, spec.part_a)) for i in spec.indices}
    classes = {}

    def member(x: GElement, i: int) -> bool:
        if (i, x.poly) not in classes:
            classes[i, x.poly] = sqfree(constant(spec, i, x.poly))
        cls = class_mul(x.c, classes[i, x.poly])
        return class_is_identity(cls) or cls == targets[i]

    return member


def g_d_bruteforce(spec, dual: bool) -> set:
    """Support-bounded enumeration of the intersection subgroup.

    Candidate square classes run over all sign/support combinations inside
    the primes dividing 2, a, b, every c_i, d_i, and every cross-resultant;
    membership is tested factor by factor with membership_reference.
    """
    primes = {2}
    values = [spec.a, spec.b]
    items = list(spec.factors)
    for idx, (i, (ci, di)) in enumerate(items):
        values.extend([ci] + ([di] if di else []))
        for j, (cj, dj) in items[idx + 1 :]:
            values.append(ci * dj - cj * di)
    for value in values:
        value = Fraction(value)
        primes |= set(factorize(value.numerator)) | set(factorize(value.denominator))
    primes = sorted(primes)
    subsets = [
        frozenset(subset)
        for size in range(len(spec.indices) + 1)
        for subset in itertools.combinations(spec.indices, size)
    ]
    member = membership_reference(spec, dual)
    members = set()
    for sign in (1, -1):
        for r in range(len(primes) + 1):
            for support in itertools.combinations(primes, r):
                cls = _ClassWithValue(math.prod(support, start=sign))
                for subset in subsets:
                    x = GElement(cls, subset)
                    if all(member(x, i) for i in spec.indices):
                        members.add(x)
    return members


class _ClassWithValue(int):
    """A signed square-free int that also answers value(), for callers that
    still read x.c.value() off g_d_bruteforce (perfbench/tests does).  It
    compares and hashes as the int; delete it once they read x.c."""

    def value(self) -> int:
        return int(self)


def sqfree(x) -> int:
    """Signed square-free integer in the square class of the nonzero
    rational x, by sympy's factorint."""
    x = Fraction(x)
    out = 1 if x > 0 else -1
    for n in (x.numerator, x.denominator):
        for p, e in factorint(abs(n)).items():
            if e % 2:
                out *= int(p)
    return out


def class_of_bits(mask: int, primes: Sequence[int]) -> int:
    """The signed square-free integer of the low 1 + len(primes) bits of
    mask, bit 0 being -1 and bit k the k-th prime, by a direct product."""
    factors = [p for k, p in enumerate(primes, 1) if mask >> k & 1]
    return math.prod(factors, start=-1 if mask & 1 else 1)


def class_mul(x: int, y: int) -> int:
    """The group law of Q*/(Q*)^2 on signed square-free ints: signs
    multiply, shared primes square away."""
    return x * y // math.gcd(x, y) ** 2


def class_is_identity(x: int) -> bool:
    return x == 1


def selmer_elements(lattice, group) -> List[GElement]:
    """Every element of group, a gf2.Subspace of lattice, decoded, in
    gf2.Subspace.elements order."""
    return [lattice.decode(mask) for mask in group.elements()]


def g_identity() -> GElement:
    return GElement(1, frozenset())


def g_mul(x: GElement, y: GElement) -> GElement:
    """The group law of G: classes multiply, subsets add mod 2."""
    return GElement(class_mul(x.c, y.c), x.poly ^ y.poly)


def g_is_identity(x: GElement) -> bool:
    return class_is_identity(x.c) and not x.poly


def span_of(generators: Sequence[GElement]) -> List[GElement]:
    """Every product of the generators, in GElement.sort_key order."""
    out = {g_identity()}
    for g in generators:
        out |= {g_mul(g, x) for x in out}
    return sorted(out, key=GElement.sort_key)


def expected_g_d_generators(spec, dual: bool = False) -> List[GElement]:
    """The program's target_generators over the spec lattice, decoded:
    [a][p_A], [d][p_J] ([-d][p_J] when dual)."""
    lattice = Lattice.of_spec(spec)
    return [lattice.decode(mask) for mask in target_generators(spec, dual)]


def pick_elements_reference(state) -> Tuple[GElement, GElement]:
    """The elements the reduction step picks, on GElement objects: x0 is
    the first of the sorted relative dual Selmer group that is neither the
    identity nor [-d][p_J], x1 the first of the sorted relative Selmer
    group outside <[a][p_A], [d][p_J]>, with the generators from
    target_generators_reference."""
    (neg_gen,) = target_generators_reference(state.spec, dual=True)
    span = span_of(target_generators_reference(state.spec, dual=False))
    lattice = state.lattice
    x0 = next(g for g in sorted(selmer_elements(lattice, state.dual), key=GElement.sort_key)
              if not g_is_identity(g) and g != neg_gen)
    x1 = next(g for g in sorted(selmer_elements(lattice, state.sel), key=GElement.sort_key)
              if g not in span)
    return x0, x1


def target_generators_reference(spec, dual: bool) -> List[GElement]:
    """[a][p_A] and [d][p_J] ([-d][p_J] when dual), the generators of the
    target subgroup of G_D (G^D), from sqfree of a, d and -d."""
    p_j = frozenset(spec.indices)
    if dual:
        return [GElement(sqfree(-spec.d), p_j)]
    return [GElement(sqfree(spec.a), frozenset(spec.part_a)),
            GElement(sqfree(spec.d), p_j)]


def _intersection_reference(spec, dual: bool) -> List[GElement]:
    """G_D (G^D when dual) from the row-stacked map, as GElement objects.

    The row of index k and bit b holds bit b of c, of each r_kj =
    [D_k^{{j}}] and of t_k = sqfree(a*D_k^A); the kernel's projection to
    (c, J') is the intersection, each generator re-checked on signed
    square-free ints.
    """
    n = len(spec.indices)
    primes = spec.basis_primes
    width = 1 + len(primes)
    targets = {i: sqfree(spec.a * d_constant(spec, i, spec.part_a)) for i in spec.indices}
    rows = []
    for k, i in enumerate(spec.indices):
        r = [constant_mask(spec, i, {j}, dual) for j in spec.indices]
        t = class_mask(targets[i], primes)
        for b in range(width):
            row = 1 << b | (t >> b & 1) << width + n + k
            for m, r_kj in enumerate(r):
                row |= (r_kj >> b & 1) << width + m
            rows.append(row)
    kernel = gf2.kernel_basis(rows, width + 2 * n)
    group = gf2.Subspace(width + n, [v % (1 << width + n) for v in kernel])

    def element(vec: int) -> GElement:
        poly = frozenset(j for k, j in enumerate(spec.indices) if vec >> (width + k) & 1)
        return GElement(class_of_bits(vec % (1 << width), primes), poly)

    def member(x: GElement, i: int) -> bool:
        cls = class_mul(x.c, class_of_bits(constant_mask(spec, i, x.poly, dual), primes))
        return class_is_identity(cls) or cls == targets[i]

    for x in map(element, group.basis):
        if not all(member(x, i) for i in spec.indices):
            raise AssertionError(f"kernel generator {x} is outside the intersection")
    return sorted(map(element, group.elements()), key=GElement.sort_key)


def check_condition_d_reference(spec) -> ConditionDReport:
    """check_condition_d on GElement objects and signed square-free ints: the
    intersections from the row-stacked map, compared with span_of the
    reference generators element by element.  The targets and generators
    are square classes of the rational constants; only the constants
    [D_i^{{j}}] come from the program's constant_mask, which
    test_constant_masks_match_rational_constants checks against the
    rational constants."""
    g_d = _intersection_reference(spec, dual=False)
    g_d_dual = _intersection_reference(spec, dual=True)
    target = span_of(target_generators_reference(spec, dual=False))
    target_dual = span_of(target_generators_reference(spec, dual=True))
    assert all(g in g_d for g in target) and all(g in g_d_dual for g in target_dual)
    witnesses = [g for g in g_d if g not in target]
    witnesses += [g for g in g_d_dual if g not in target_dual]
    return ConditionDReport(
        holds=not witnesses,
        g_d=tuple(g_d),
        g_d_dual=tuple(g_d_dual),
        witnesses=tuple(sorted(set(witnesses), key=GElement.sort_key)),
    )


def fiber_point_bruteforce(spec, t, height: int):
    """Direct scan over x = m/u on one fiber, solving exactly for y.

    Covers |m|, |n|, u <= height with u an S0-supported denominator; returns
    the first S0-integral point found or None.  Independent of solve_global
    (y is reconstructed by exact square testing on the residual).
    """
    import math

    from torusdescent.points import _denominators

    t = Fraction(t)
    aA, bB = fiber_coeffs_reference(spec, t)
    if aA * bB == 0:
        return None
    dens = _denominators(spec.s0_finite_primes, height)
    for u in dens:
        for m in range(height + 1):
            for sx in (1, -1) if m else (1,):
                x = Fraction(sx * m, u)
                rest = (1 - aA * x * x) / bB
                if rest < 0:
                    continue
                num, den = rest.numerator, rest.denominator
                rn, rd = math.isqrt(num), math.isqrt(den)
                if rn * rn != num or rd * rd != den:
                    continue
                y = Fraction(rn, rd)
                if y.numerator > height or y.denominator > height:
                    continue
                if not spec.is_s0_integer(y):
                    continue
                if residual_reference(spec, x, y, t) == 0:
                    return (x, y, t)
    return None


def solve_global_fullscan(aA, bB, s0_primes, height_bound: int):
    """solve_global as a scan over every 0 <= m <= height_bound per denominator.

    The reference for solve_global's scan of the shorter of the m- and
    n-ranges, through two residue classes when it is long: same canonical
    order, same re-verification, no interval argument, no residue classes.
    """
    import math

    from torusdescent.points import _denominators, _rational_sqrt

    aA, bB = Fraction(aA), Fraction(bB)
    if aA * bB == 0:
        raise ValueError("degenerate conic")
    for lead, axis in ((aA, 0), (bB, 1)):
        root = _rational_sqrt(1 / lead)
        if root is not None and strip_primes(root.denominator, s0_primes) == 1:
            if root.numerator <= height_bound and root.denominator <= height_bound:
                return (root, Fraction(0)) if axis == 0 else (Fraction(0), root)
    lcm_den = math.lcm(aA.denominator, bB.denominator)
    A = int(aA * lcm_den)
    B = int(bB * lcm_den)
    for u in _denominators(s0_primes, height_bound):
        target = lcm_den * u * u
        for m in range(height_bound + 1):
            rest = target - A * m * m
            if rest % B != 0:
                continue
            square = rest // B
            if square < 0:
                continue
            n = math.isqrt(square)
            if n * n != square or n > height_bound:
                continue
            for sm, sn in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
                x = Fraction(sm * m, u)
                y = Fraction(sn * n, u)
                if aA * x * x + bB * y * y == 1:
                    return (x, y)
    return None


def admissible_candidate_reference(spec, t_primes, t0: Fraction):
    """The witnesses (i, u_i) of t0 by the unsieved Fraction test, or None.

    p_i(t0) is evaluated by factor_value_reference; the primes of T are
    divided out of its numerator and the leftover is proved prime by
    building its Place.  A root of p_J or a repeated leftover rejects t0.
    """
    from torusdescent.descent import DescentAnomaly

    witnesses = []
    for i in spec.indices:
        value = factor_value_reference(spec, i, t0)
        if value == 0:
            return None
        if strip_primes(value.denominator, t_primes) != 1:
            raise DescentAnomaly(f"denominator of {value} escapes the working primes")
        leftover = strip_primes(abs(value.numerator), t_primes)
        if any(u.p == leftover for _, u in witnesses):
            return None
        try:
            witnesses.append((i, Place.finite(leftover)))
        except ValueError:
            return None
    return witnesses


def find_admissible_reference(spec, p_t, bounds, reject=()):
    """find_admissible as the unsieved scan: (t0, witnesses, candidates_checked).

    Every progression value t0 = (tau0 + M*n)/D with n = 0, 1, -1, 2, -2, ...
    inside the open real chamber is a candidate, and the first one that
    admissible_candidate_reference gives witnesses is the result: for a
    suitable p_t admissibility is that test alone.  The values in `reject`
    are counted but not tested, which gives a second admissible value.  The
    real chamber is the open interval between the nearest roots -d_i/c_i on
    either side of t_real.  The scan ends when the values on both sides
    have left the chamber; SearchExhausted is raised as find_admissible
    raises it.
    """
    from torusdescent.descent import SearchExhausted, _approximation_data

    reject = {Fraction(t) for t in reject}
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    t_real = p_t.entries[REAL].t
    roots = [-d / c for _, (c, d) in spec.factors]
    lo = max((r for r in roots if r < t_real), default=None)
    hi = min((r for r in roots if r > t_real), default=None)
    t_primes = [v.p for v in p_t.places if v.is_finite]
    checked = 0
    for k in itertools.count():
        ts = [Fraction(tau0 + modulus * n, denominator) for n in ((k,) if k == 0 else (k, -k))]
        if hi is not None and lo is not None and ts[0] >= hi and ts[-1] <= lo:
            raise SearchExhausted("admissible_point", checked)
        for t0 in ts:
            if (lo is not None and t0 <= lo) or (hi is not None and t0 >= hi):
                continue
            checked += 1
            if checked > bounds.admissible_candidates:
                raise SearchExhausted("admissible_point", bounds.admissible_candidates)
            if t0 in reject:
                continue
            witnesses = admissible_candidate_reference(spec, t_primes, t0)
            if witnesses is not None:
                return t0, tuple(witnesses), checked


def same_valuation_and_class_bruteforce(x, y, p: int) -> bool:
    """x and y nonzero with one p-adic valuation and x/y a square in Q_p.

    The valuations come from dividing by p; the unit x/y is a square when
    it is one modulo p^2, or modulo 16 at 2, which is checked against every
    square of that ring.
    """
    x, y = Fraction(x), Fraction(y)
    if x == 0 or y == 0:
        return False

    def val(z: Fraction) -> int:
        num, den, k = z.numerator, z.denominator, 0
        while num % p == 0:
            num, k = num // p, k + 1
        while den % p == 0:
            den, k = den // p, k - 1
        return k

    if val(x) != val(y):
        return False
    ratio = x / y
    pk = 16 if p == 2 else p * p
    unit = ratio.numerator * pow(ratio.denominator, -1, pk) % pk
    return any(z * z % pk == unit for z in range(pk))


def uniformizer_t_reference(spec, i: int, w: int) -> int:
    """The least t_w = root + w*shift, shift in [0, w), with val_w(p_i(t_w))
    exactly 1, root the residue of -d_i/c_i mod w; p_i(t_w) as a Fraction."""
    from torusdescent.descent import DescentAnomaly

    cw, dw = (mod_prime_power(x, w, 2) for x in spec.coeffs(i))
    root = (-dw * pow(cw, -1, w)) % w
    for shift in range(w):
        t_w = root + w * shift
        value = factor_value_reference(spec, i, t_w)
        if value != 0 and valuation(value, w) == 1:
            return t_w
    raise DescentAnomaly(f"no uniformizer value for p_{i} at {w}")


def brauer_constant_reference(spec, i: int) -> Fraction:
    """The Brauer constant of factor i, rebuilt from fiber_coeffs_reference at
    the root of p_i: b*p_B for i in A, a*p_A otherwise."""
    aA, bB = fiber_coeffs_reference(spec, spec.root(i))
    return bB if i in spec.part_a else aA


def obstruction_sum_reference(spec, point, i: int) -> int:
    """Sum over the point's places of <constant_i, p_i(t_v)>_v, each symbol
    from Serre's closed-form formulas on the Fraction values."""
    left = brauer_constant_reference(spec, i)
    return sum(
        hilbert_symbol_closed_form(left, factor_value_reference(spec, i, point.entries[v].t), v)
        for v in point.places
    ) % 2


def row_brauer_sums(point) -> List[int]:
    """Bit k of the XOR of the point's invariant vectors (PlaceRow.brauer),
    for each k: the Brauer sum of the generator of spec.indices[k] that
    suitability reads off the rows."""
    total = 0
    for v in point.places:
        total ^= point.rows[v].brauer
    return [total >> k & 1 for k in range(len(point.spec.indices))]


def good_place_solubility_reference(spec, v: Place, values) -> str:
    """'soluble' or 'insoluble': integral solubility of the fiber whose factor
    values are values (i -> p_i(t_v)) at an odd good place v, by the
    good-place criterion alone; ValueError where v is not good for them.

    At v outside S0 and S_bad with val_v(p_i(t_v)) > 0 for (necessarily
    unique) i, the fiber has Z_v-points iff the Brauer constant of i, a unit
    at v, is a square there.  When no factor degenerates the special fiber
    is a smooth affine conic over F_v, which always has a rational point.
    """
    if v.is_real or v.p == 2:
        raise ValueError("good-place criterion applies to odd finite places")
    p = v.p
    if valuation(Fraction(spec.a * spec.b), p) != 0:
        raise ValueError(f"{v} divides d = ab; not a good place")
    degenerate = [i for i, value in values.items() if valuation(Fraction(value), p) > 0]
    if len(degenerate) > 1:
        raise ValueError(f"{v} is not a good place: two factors vanish there")
    if not degenerate:
        return "soluble"
    constant = brauer_constant_reference(spec, degenerate[0])
    if valuation(constant, p) != 0:
        raise ValueError(f"{v} divides the Brauer constant; not a good place")
    return "soluble" if is_local_square_closed_form(constant, v) else "insoluble"


def suitability_reference(spec, point):
    """The non-input verdict names of suitability and the split place, by the
    Fraction path: d*p_J(t_v) as one product of the fiber coefficients, its
    valuation and closed-form local squareness, and obstruction_sum_reference.
    The point must pass its input checks."""
    import math

    def d_p_j(v):
        return math.prod(fiber_coeffs_reference(spec, point.entries[v].t))

    names = []
    for v in point.places:
        if v.is_real or v in spec.s0:
            continue
        val = valuation(d_p_j(v), v.p)
        if val > 1:
            names.append("valuation_bound")
        if v.p == 2 and val != 1:
            names.append("valuation_at_2")
    split_place = next(
        (v for v in spec.s0
         if v in point.entries and is_local_square_closed_form(-d_p_j(v), v)), None
    )
    if split_place is None:
        names.append("split_place")
    names += [f"brauer_sum_{i}" for i in spec.indices if obstruction_sum_reference(spec, point, i)]
    return names, split_place


# ---------------------------------------------------------------------------
# Test-only helpers: place sets, evaluation maps, ranks, local classes
# ---------------------------------------------------------------------------


def s_bad_reference(spec) -> set:
    """The primes of S_bad by their definition: 2 unless in S0, the primes
    outside S0 of d, of every c_i and of every c_i*d_j - c_j*d_i, and each
    prime p <= |J| outside S0 at which every residue t mod p makes some
    p_i(t) vanish or have positive valuation."""
    s0 = set(spec.s0_finite_primes)
    values = [spec.d] + [c for _, (c, _) in spec.factors]
    values += [cross_resultant_reference(spec, i, j) for i in spec.indices
               for j in spec.indices if i < j]
    bad = {q for x in values for q in factorize(Fraction(x).numerator)} | {2}
    for p in range(3, len(spec.factors) + 1):
        if all(p % q for q in range(2, p)) and all(
                any(factor_value_reference(spec, i, t) == 0
                    or valuation(factor_value_reference(spec, i, t), p) > 0
                    for i in spec.indices) for t in range(p)):
            bad.add(p)
    return bad - s0


def compute_s(spec, s_d=()):
    """S = S0 union S_bad union S_D, canonically ordered."""
    return tuple(sorted(set(spec.s0) | set(compute_s_bad(spec)) | set(s_d)))


def g_element(value, subset=()) -> GElement:
    """[value][p_subset], with the square class of value found by factoring."""
    return GElement(sqfree(value), frozenset(subset))


def ev(spec, t0, x: GElement) -> int:
    """[c][p_{J'}] evaluated at t0: the square class of c * p_{J'}(t0)."""
    value = x.c * product_value_reference(spec, sorted(x.poly), t0)
    if value == 0:
        raise ValueError(f"evaluation at {t0} hit a root of the factors")
    return sqfree(value)


def gf2_rank(rows) -> int:
    """Rank over F2 of int bitset rows, by plain elimination on lowest bits."""
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        pivot = rows.pop()
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rank += 1
    return rank


def echelon_reference(rows) -> List[int]:
    """Reduced echelon form by elimination over every basis row: each new row
    is reduced against each earlier row's pivot (its lowest bit), then
    cleared from the earlier rows; the rows are sorted by pivot."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            low = b & -b
            if row & low:
                row ^= b
        if row:
            basis.append(row)
            low = row & -row
            for k in range(len(basis) - 1):
                if basis[k] & low:
                    basis[k] ^= row
    basis.sort(key=lambda r: r & -r)
    return basis


@dataclass(frozen=True)
class LocalSquareClass:
    """Coordinates of a nonzero rational in Q_v*/(Q_v*)^2 over local_basis(v)."""

    place: Place
    coordinates: Tuple[int, ...]

    @property
    def dim(self) -> int:
        return len(self.coordinates)

    def __mul__(self, other: "LocalSquareClass") -> "LocalSquareClass":
        if self.place != other.place:
            raise ValueError("mismatched places")
        coords = tuple(a ^ b for a, b in zip(self.coordinates, other.coordinates))
        return LocalSquareClass(self.place, coords)

    def mask(self) -> int:
        return sum(c << i for i, c in enumerate(self.coordinates))


def local_square_class(x, v: Place) -> LocalSquareClass:
    """Local class from the sign, the valuation parity and the unit's residue
    (Jacobi symbol at odd p, the unit mod 8 at 2)."""
    x = Fraction(x)
    if v.is_real:
        return LocalSquareClass(v, (int(x < 0),))
    p = v.p
    val = valuation(x, p)
    unit = x / Fraction(p) ** val
    u = unit.numerator * unit.denominator  # same class as the unit
    if p == 2:
        # u = (-1)^e * 5^f mod 8: 1 -> (0,0), 3 = -5 -> (1,1), 5 -> (0,1), 7 = -1 -> (1,0)
        e = int(u % 4 == 3)
        f = int(u % 8 in (3, 5))
        return LocalSquareClass(v, (e, f, val % 2))
    return LocalSquareClass(v, (int(jacobi(u, p) == -1), val % 2))


# ---------------------------------------------------------------------------
# The general tame-symbol oracle: polynomial right entries
# ---------------------------------------------------------------------------


def poly_from_factors(spec, subset) -> Tuple[Fraction, ...]:
    """Coefficients of prod_{i in subset} p_i(t), constant term first."""
    coeffs = [Fraction(1)]
    for i in sorted(subset):
        c, d = spec.coeffs(i)
        new = [Fraction(0)] * (len(coeffs) + 1)
        for k, a in enumerate(coeffs):
            new[k] += a * d
            new[k + 1] += a * c
        coeffs = new
    return tuple(coeffs)


def _rational_point(point) -> Fraction:
    """A rational number m, or the coefficient pair of the monic t - m."""
    if isinstance(point, (int, Fraction)):
        return Fraction(point)
    coeffs = [Fraction(c) for c in point]
    if len(coeffs) == 2:
        if coeffs[1] != 1:
            raise ValueError("closed point polynomial must be monic")
        return -coeffs[0]
    raise ValueError("only rational (degree-1) closed points are supported")


def _root_multiplicity(coeffs: Sequence[Fraction], m: Fraction) -> Tuple[int, Fraction]:
    """Multiplicity of the root m in the polynomial, plus cofactor value."""
    work = list(coeffs)
    mult = 0
    while True:
        value = Fraction(0)
        power = Fraction(1)
        for c in work:
            value += c * power
            power *= m
        if value != 0:
            return mult, value
        # synthetic division by (t - m), Horner from the top coefficient
        quotient: List[Fraction] = []
        acc = Fraction(0)
        for c in reversed(work[1:]):
            acc = acc * m + c
            quotient.append(acc)
        quotient.reverse()
        work = quotient
        mult += 1
        if not work:
            raise ValueError("right entry vanished identically during division")


def tame_residue(left, right: Sequence[Fraction], point) -> int:
    """Residue of the quaternion symbol (left, right(t)) at a rational closed
    point, for a nonzero constant left and any nonzero polynomial right:
    the tame symbol (-1)^{v_f v_g} f^{v_g} / g^{v_f} with v_f = 0."""
    if Fraction(left) == 0 or not any(right):
        raise ValueError("both entries must be nonzero")
    v_g, _cofactor = _root_multiplicity(right, _rational_point(point))
    return 1 if v_g % 2 == 0 else sqfree(left)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HenselResult:
    """Outcome of hensel_solve_reference, a bounded residue search with
    smooth-point certification.

    status 'witness': witness solves f = 0 mod p^precision and the partial
    derivative 2*c_j*x_j in j = smooth_var satisfies the strong Hensel
    condition val(f) > 2*val(2*c_j*x_j) there, so the witness lifts to Z_p
    (at odd p and a unit c_j the derivative is simply a unit).  status
    'none': a complete residue analysis at the stated precision excluded
    all solutions.  status 'inconclusive': solutions mod p^precision exist
    (or the node budget ran out) but none could be certified.
    """

    status: str  # 'witness' | 'none' | 'inconclusive'
    p: int
    precision: int
    witness: Optional[Tuple[int, ...]] = None
    smooth_var: Optional[int] = None
    detail: str = ""


def hensel_solve_reference(
    coeffs: Sequence,
    constant,
    p: int,
    precision: int,
    node_limit: int = 100_000,
) -> HenselResult:
    """Search residues mod p^precision for a certified-liftable zero of the
    diagonal quadric f = sum(coeffs[k]*x_k^2) + constant, one or two
    variables, every coefficient p-integral: f and every Newton step
    evaluated in Fraction, the whole level-1 frontier built before any node
    is tested for a certificate.  The reference for the unit-square
    criterion of points.local_solubility and for arith.sqrt_lift."""
    nvars = len(coeffs)
    if nvars not in (1, 2):
        raise ValueError("hensel_solve handles 1 or 2 variables")
    coeffs = [Fraction(c) for c in coeffs]
    constant = Fraction(constant)
    for coeff in (*coeffs, constant):
        if coeff != 0 and valuation(coeff, p) < 0:
            raise ValueError("coefficients must be p-integral")
    if p**nvars > node_limit:
        return HenselResult(
            "inconclusive", p, precision, detail="residue space exceeds node budget"
        )
    top = max(precision, 1)
    residues = [mod_prime_power(c, p, top) for c in coeffs]
    residue0 = mod_prime_power(constant, p, top)

    def vanishes_mod(point: Sequence[int], k: int) -> bool:
        return (sum(r * x * x for r, x in zip(residues, point)) + residue0) % p**k == 0

    def f(point: Sequence[int]) -> Fraction:
        return sum((c * x * x for c, x in zip(coeffs, point)), constant)

    def certificate_var(point: Sequence[int]) -> Optional[int]:
        fval = f(point)
        vf = None if fval == 0 else valuation(fval, p)
        for j in range(nvars):
            dval = 2 * coeffs[j] * point[j]
            if dval == 0:
                continue
            if vf is None or vf > 2 * valuation(dval, p):
                return j
        return None

    def newton_lift(point: Tuple[int, ...], var: int) -> Tuple[int, ...]:
        modulus = p**precision
        pt = [x % modulus for x in point]
        while True:
            fval = f(pt)
            if fval == 0 or valuation(fval, p) >= precision:
                return tuple(pt)
            dval = 2 * coeffs[var] * pt[var]
            delta = -fval / dval
            pt[var] = (pt[var] + mod_prime_power(delta, p, precision)) % modulus

    frontier = [pt for pt in itertools.product(range(p), repeat=nvars) if vanishes_mod(pt, 1)]
    level = 1
    nodes = len(frontier)
    while True:
        for pt in frontier:
            var = certificate_var(pt)
            if var is not None:
                return HenselResult("witness", p, precision, newton_lift(tuple(pt), var), var)
        if not frontier:
            return HenselResult(
                "none", p, precision, detail=f"all residues excluded at level {level}"
            )
        if level >= precision:
            return HenselResult(
                "inconclusive",
                p,
                precision,
                detail="singular solutions remain at stated precision",
            )
        new_frontier = []
        step = p**level
        for pt in frontier:
            for delta in itertools.product(range(p), repeat=nvars):
                cand = tuple(x + step * t for x, t in zip(pt, delta))
                if vanishes_mod(cand, level + 1):
                    new_frontier.append(cand)
            nodes += p**nvars
            if nodes > node_limit:
                return HenselResult(
                    "inconclusive", p, precision, detail="node budget exhausted"
                )
        frontier = new_frontier
        level += 1
