"""Local solubility of the conics aA*x^2 + bB*y^2 = 1 over Z_v and Q_v,
and bounded global search for S0-integral points on fibers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Optional, Sequence, Tuple

from .arith import (
    _MR_LIMIT,
    _SMALL_PRIMES,
    REAL,
    Place,
    Rational,
    hilbert_symbol,
    is_local_square,
    is_prime,
    mod_prime_power,
    sqrt_lift,
    sqrt_mod,
    strip_primes,
    valuation,
)
from .surface import SurfaceSpec, evaluate_point


class LocalSolubility(NamedTuple):
    """Outcome of a local solubility decision.

    status 'soluble' may carry a witness (x, y): exact rationals satisfying
    the equation to the stated v-adic precision.  'insoluble' carries a
    certificate description.  Every verdict is definite.
    """

    status: str  # 'soluble' | 'insoluble'
    place: Place
    witness: Optional[Tuple[Fraction, Fraction]] = None
    precision: int = 0
    certificate: str = ""


def _real_solubility(aA: Fraction, bB: Fraction) -> LocalSolubility:
    if aA <= 0 and bB <= 0:
        return LocalSolubility("insoluble", REAL, certificate="negative definite form")
    # informational witness: x = n/scale just below 1/sqrt(c) on the positive
    # axis; scale >= 10^5*sqrt(c) puts 1 - c*x^2 in (0, 4*10^-5) for every c > 0
    c = aA if aA > 0 else bB
    scale = 10**5
    while scale * scale < 10**10 * c:
        scale *= 10
    approx = Fraction(math.isqrt(math.ceil(scale * scale / c) - 1), scale)
    witness = (approx, Fraction(0)) if aA > 0 else (Fraction(0), approx)
    return LocalSolubility("soluble", REAL, witness=witness)


def local_solubility(
    aA: Rational,
    bB: Rational,
    v: Place,
    model: str = "integral",
) -> LocalSolubility:
    """Decide solubility of aA*x^2 + bB*y^2 = 1 at the place v.

    model 'rational' decides over Q_v via the Hilbert symbol of the
    projective closure (a smooth conic with one Q_v-point carries points off
    the line at infinity, so no separate affine obstruction remains) and
    attaches a witness when the bounded scan finds one.  model 'integral'
    decides over Z_v by `unit_square_scan` and lifts the square root at its
    first y by sqrt_lift to precision val(4*aA*bB) + 3, the witness.
    """
    aA, bB = Fraction(aA), Fraction(bB)
    if aA * bB == 0:
        raise ValueError("degenerate conic")
    if v.is_real:
        return _real_solubility(aA, bB)
    p = v.p
    if model == "rational":
        if hilbert_symbol(aA, bB, v) != 0:
            return LocalSolubility(
                "insoluble", v, certificate=f"Hilbert symbol <aA,bB>_{p} = 1"
            )
        witness, prec = _rational_witness(aA, bB, v)
        return LocalSolubility(
            "soluble", v, witness=witness, precision=prec,
            certificate="Hilbert symbol vanishes",
        )
    if model != "integral":
        raise ValueError(f"unknown model {model!r}")
    if valuation(aA, p) < 0 or valuation(bB, p) < 0:
        raise ValueError("integral model needs v-integral coefficients")
    precision = valuation(4 * aA * bB, p) + 3
    found = unit_square_scan(aA, bB, v)
    if found is None:
        return LocalSolubility("insoluble", v, precision=precision,
                               certificate="neither aA*x^2 nor bB*y^2 is a unit at any point")
    j, y = found
    s, c, text = ((aA, bB, "(1 - bB*y^2)/aA at y"), (bB, aA, "(1 - aA*x^2)/bB at x"))[j]
    x, y = Fraction(sqrt_lift((1 - c * y * y) / s, p, precision)), Fraction(y)
    return LocalSolubility("soluble", v, witness=(y, x) if j else (x, y), precision=precision,
                           certificate=f"{text} = {y} is a unit square")


def unit_square_scan(aA: Fraction, bB: Fraction, v: Place) -> Optional[Tuple[int, int]]:
    """The first (j, y) with (1 - c*y^2)/s a unit square at the finite v,
    (s, c) = (aA, bB) for j = 0 and (bB, aA) for j = 1, or None exactly when
    aA*x^2 + bB*y^2 = 1, aA and bB v-integral, has no Z_v-point; no witness
    is lifted.  1 is a unit, so at a Z_v-point s*x^2 is a unit for (s, x) =
    (aA, x) or (bB, y), and then x^2 = (1 - c*y^2)/s is a unit square.  That
    depends on y mod p only (mod 4 at 2), and only on y = 0 when c is not a
    unit at an odd p, so the scan of those y in both orientations is exact.
    With two units at an odd p the reduction is a smooth conic with points
    off each axis, so the scan stops within a few y even at a large p.

    The scan reads (1 - c*y^2)*s^-1 mod p (mod 8 at 2), from the residues
    of s and c: a unit square is a nonzero residue with Euler's criterion 1
    at an odd p, and 1 mod 8 at 2.  A coefficient that is not v-integral
    raises ValueError.
    """
    p = v.p
    k = 3 if p == 2 else 1
    m = p**k
    for j, (s, c) in enumerate(((aA, bB), (bB, aA))):
        s_res = mod_prime_power(s, p, k)
        if s_res % p == 0:
            continue
        s_inv, c_res = pow(s_res, -1, m), mod_prime_power(c, p, k)
        if p == 2:
            for y in range(4):
                if (1 - c_res * y * y) * s_inv % 8 == 1:
                    return j, y
            continue
        half = (p - 1) // 2
        for y in range(p) if c_res else (0,):
            u = (1 - c_res * y * y) * s_inv % p
            if u and pow(u, half, p) == 1:
                return j, y
    return None


# the most numerators x = m/p^e that _rational_witness tries at one level e
_WITNESS_SCAN = 2_000


def _rational_witness(
    aA: Fraction, bB: Fraction, v: Place
) -> Tuple[Optional[Tuple[Fraction, Fraction]], int]:
    """Best-effort Q_v witness scan once solubility is already decided, to
    precision max(val(4*aA*bB), 0) + 3; None when no level holds one."""
    p = v.p
    target = max(valuation(4 * aA * bB, p), 0) + 3
    depth = max(0, -(min(valuation(aA, p), valuation(bB, p)) // 2)) + 2
    for e in range(depth + 1):
        for m in range(min(p ** min(target, 3), _WITNESS_SCAN)):
            x = Fraction(m, p**e)
            c = (1 - aA * x * x) / bB
            if c == 0:
                return (x, Fraction(0)), target
            if not is_local_square(c, v):
                continue
            # c = p^(2*shift) * (a unit square); a root r of the unit lifted
            # to `inner` digits gives y = p^shift*r with aA*x^2 + bB*y^2 - 1
            # = bB*(y^2 - c) of valuation >= val(bB) + 2*shift + inner >= target
            shift = valuation(c, p) // 2
            inner = max(target - valuation(bB, p) - 2 * shift, 2)
            y = sqrt_lift(c / Fraction(p) ** (2 * shift), p, inner) * Fraction(p) ** shift
            return (x, y), target
    return None, target


# ---------------------------------------------------------------------------
# Global search
# ---------------------------------------------------------------------------


def _denominators(s0_primes: Sequence[int], bound: int) -> List[int]:
    """S0-supported positive integers up to bound, ascending."""
    values = [1]
    for p in s0_primes:
        extended = []
        for u in values:
            power = u
            while power <= bound:
                extended.append(power)
                power *= p
        values = extended
    return sorted(set(values))


def _rational_sqrt(x: Fraction) -> Optional[Fraction]:
    if x < 0:
        return None
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


# a scan longer than this steps through two residue classes of a prime
_CLASS_SCAN_MIN = 32
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES)


def _root_range(C: int, D: int, target: int, height_bound: int) -> range:
    """The k in [0, h] with C*k^2 = target - D*j^2 for a real j in [0, h],
    h = height_bound."""
    ends = (target, target - D * height_bound * height_bound)
    # lo <= |C|*k^2 <= hi, with the sign of C folded into the ends
    lo, hi = (min(ends), max(ends)) if C > 0 else (-max(ends), -min(ends))
    sq_lo, sq_hi = -(-lo // abs(C)), hi // abs(C)  # bounds on k^2
    if sq_hi < 0:
        return range(0)
    k_lo = math.isqrt(sq_lo - 1) + 1 if sq_lo > 0 else 0
    return range(k_lo, min(math.isqrt(sq_hi), height_bound) + 1)


def _class_root(
    C: int, D: int, L: int, s0_primes: Sequence[int]
) -> Optional[Tuple[int, Optional[int]]]:
    """(q, r): q an odd prime outside S0 dividing D but not C*L, r^2 = L/C
    mod q, r None for a non-residue; None without such a q.  q is the
    cofactor of D after one gcd with the primes below 1000 if is_prime
    proves it prime, else the largest such small prime."""
    small = math.gcd(D, _SMALL_PRIME_PRODUCT)
    usable = lambda q: q % 2 == 1 and (C * L) % q != 0 and q not in s0_primes
    q = abs(D) // small
    if not (usable(q) and q < _MR_LIMIT and is_prime(q)):
        q = None
        for p in _SMALL_PRIMES:  # small is square-free: divide its primes out
            if small == 1:
                break
            if small % p == 0:
                small //= p
                if usable(p):
                    q = p
        if q is None:
            return None
    return q, sqrt_mod(L * pow(C, -1, q), q)


def solve_global(
    aA: Rational,
    bB: Rational,
    s0_primes: Sequence[int],
    height_bound: int,
) -> Optional[Tuple[Fraction, Fraction]]:
    """First S0-integral solution of aA*x^2 + bB*y^2 = 1 in canonical order.

    Canonical order: axis solutions (y = 0, then x = 0), then x = m/u,
    y = n/u scanned by ascending denominator u (an S0-supported integer),
    then |m|, then |n|, preferring positive signs.  Every returned solution
    re-verifies exactly.  Absence within the bound is the legitimate
    "not found" outcome, distinct from insolubility.

    With A, B the coefficients scaled to integers by L, x = m/u, y = n/u
    solves the conic iff A*m^2 + B*n^2 = L*u^2.  For each u, _root_range
    gives the exact range of m (integer ceiling division and isqrt, no
    floats); only when it is longer than _CLASS_SCAN_MIN is that of n
    computed, and the shorter is scanned in the direction of growing m:
    m^2 = (L*u^2 - B*n^2)/A grows with n iff A and B differ in sign.  The
    least m found is kept, so the result is that of the scan over all
    0 <= m <= h.

    A range longer than _CLASS_SCAN_MIN, say of m, is scanned in two
    residue classes, each to its first solution.  With q an odd prime
    outside S0 dividing B but not A*L (_class_root), A*m^2 = L*u^2 mod q
    and u is a unit mod q, so every solution has m = +-u*r mod q with
    r^2 = L/A: both classes are nonzero, as q divides neither L*u^2 nor A.
    If L/A is a non-residue mod q, no S0-supported u has a solution, and
    the search ends; the axis checks have run before.  Every descent fiber
    has such a q: a p_i(t0) is a T-unit times its witness prime u_i, and
    the admissible point's reciprocity certificate makes the other
    coefficient a square mod u_i.
    """
    aA, bB = Fraction(aA), Fraction(bB)
    if aA * bB == 0:
        raise ValueError("degenerate conic")
    for lead, axis in ((aA, 0), (bB, 1)):
        root = _rational_sqrt(1 / lead)
        if root is not None and strip_primes(root.denominator, s0_primes) == 1:
            if root.numerator <= height_bound and root.denominator <= height_bound:
                return (root, Fraction(0)) if axis == 0 else (Fraction(0), root)
    L = math.lcm(aA.denominator, bB.denominator)
    A = aA.numerator * (L // aA.denominator)
    B = bB.numerator * (L // bB.denominator)
    classes = {}  # swap -> _class_root of the scanned coefficient, found at most once
    for u in _denominators(s0_primes, height_bound):
        target = L * u * u
        ms = _root_range(A, B, target, height_bound)
        ns = _root_range(B, A, target, height_bound) if len(ms) > _CLASS_SCAN_MIN else ms
        swap = len(ns) < len(ms)
        C, D, ks = (B, A, ns) if swap else (A, B, ms)
        scans = [ks]
        if len(ks) > _CLASS_SCAN_MIN:
            if swap not in classes:
                classes[swap] = _class_root(C, D, L, s0_primes)
            if classes[swap] is not None:
                q, r = classes[swap]
                if r is None:
                    return None
                scans = [range(ks.start + (c - ks.start) % q, ks.stop, q)
                         for c in (u * r % q, -u * r % q)]
        found = []
        for scan in scans:
            for k in (scan[::-1] if swap and (A > 0) == (B > 0) else scan):
                rest = target - C * k * k
                if rest % D != 0:
                    continue
                square = rest // D
                if square < 0:
                    continue
                j = math.isqrt(square)
                if j * j == square and j <= height_bound:
                    found.append((j, k) if swap else (k, j))
                    break
        if found:  # each pair solves A*m^2 + B*n^2 = L*u^2
            x, y = (Fraction(k, u) for k in min(found))
            if aA * x * x + bB * y * y == 1:
                return (x, y)
    return None


def verify_integral_point(
    spec: SurfaceSpec, x: Rational, y: Rational, t: Rational
) -> bool:
    """True iff (x, y, t) lies on the surface and is S0-integral."""
    if evaluate_point(spec, x, y, t) != 0:
        return False
    return all(spec.is_s0_integer(c) for c in (Fraction(x), Fraction(y), Fraction(t)))
