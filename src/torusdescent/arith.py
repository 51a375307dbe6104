"""Exact local and global arithmetic over Q.

Valuations, square classes (an element of Q*/(Q*)^2 is its signed
square-free integer, or its F2 mask over -1 and known primes), local
square classes as F2 bitmasks (local_class gives the valuation and the
mask of a rational from one pass dividing p out of its numerator and
denominator; local_mask is its mask), the Hilbert symbol at every place
as a bilinear form on those masks, Hensel lifting of unit square roots
and deterministic prime streams.  Everything is computed with exact
integer/Fraction arithmetic; nothing here touches floating point.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .gf2 import dot

Rational = Fraction | int


class FactorizationError(ValueError):
    """Raised when an integer resists the desk-scale factoring stack."""


class PrimalityRangeError(ValueError):
    """Raised by is_prime past the range where Miller-Rabin is a proof."""


# ---------------------------------------------------------------------------
# Primality and factorization
# ---------------------------------------------------------------------------

# (psi_k, k): psi_k is the least strong pseudoprime to the first k primes;
# is_prime's docstring gives the sources.  _MR_LIMIT is psi_13.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
_MR_TIERS = (
    (2_047, 1),
    (1_373_653, 2),
    (25_326_001, 3),
    (3_215_031_751, 4),
    (2_152_302_898_747, 5),
    (3_474_749_660_383, 6),
    (341_550_071_728_321, 7),
    (3_825_123_056_546_413_051, 9),
    (318_665_857_834_031_151_167_461, 12),
    (_MR_LIMIT, 13),
)


def _primes_below(n: int) -> List[int]:
    """The primes below n, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * n
    sieve[:2] = bytes(2)
    for p in range(2, math.isqrt(n - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, n, p)))
    return list(itertools.compress(range(n), sieve))


_SMALL_PRIME_BOUND = 1000
_SMALL_PRIMES = _primes_below(_SMALL_PRIME_BOUND)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; rejects inputs beyond the proven range.

    n is tested to the first k bases of _MR_BASES for the first tier of
    _MR_TIERS with n < psi_k, since no composite below psi_k is a strong
    probable prime to all of them.  The psi_k are published: psi_1 to psi_4
    by Pomerance, Selfridge and Wagstaff (Math. Comp. 35, 1980), psi_5 to
    psi_8 by Jaeschke (Math. Comp. 61, 1993), psi_9 to psi_11 (all equal)
    by Jiang and Deng (Math. Comp. 83, 2014), and psi_12 and psi_13 by
    Sorenson and Webster (Math. Comp. 86, 2017).
    """
    if n >= _MR_LIMIT:
        raise PrimalityRangeError(f"{n} exceeds the deterministic Miller-Rabin range")
    if n < 2:
        return False
    for p in _SMALL_PRIMES[:12]:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for bound, k in _MR_TIERS:
        if n < bound:
            break
    # n > 37 here, so no base is a multiple of n
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """Brent's cycle-finding rho; returns a nontrivial factor of odd composite n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 40):
        y, m, g, r, q = 2, 128, 1, 1, 1
        x = ys = y
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g
    raise FactorizationError(f"Pollard rho failed on {n}")


def factorize(n: int) -> Dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor 0")
    n = abs(n)
    factors: Dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > n:  # n has no prime factor below p, so it is 1 or a prime
            if n > 1:
                factors[n] = 1
            return factors
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            factors[m] = factors.get(m, 0) + 1
            continue
        g = _pollard_rho(m)
        if g in (1, m):
            raise FactorizationError(f"could not split {m}")
        stack.append(g)
        stack.append(m // g)
    return dict(sorted(factors.items()))


def prime_stream(start: int, avoid: Sequence[int] = ()) -> Iterator[int]:
    """Ascending primes strictly greater than start, skipping `avoid`."""
    skip = set(avoid)
    n = max(start, 1)
    while True:
        n += 1
        if n > 2 and n % 2 == 0:
            continue
        if n in skip:
            continue
        if is_prime(n):
            yield n


def crt(congruences: Sequence[Tuple[int, int]]) -> Tuple[int, int]:
    """Solve x = r (mod m) for pairwise coprime moduli; returns (x, M)."""
    x, modulus = 0, 1
    for r, m in congruences:
        inv = pow(modulus % m, -1, m)
        x = x + modulus * ((r - x) * inv % m)
        modulus *= m
        x %= modulus
    return x, modulus


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------


class Place:
    """A place of Q: a finite prime or the real place (p is None)."""

    __slots__ = ("p",)

    def __init__(self, p: Optional[int]):
        if p is not None and not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    @staticmethod
    def real() -> "Place":
        return Place(None)

    @staticmethod
    def finite(p: int) -> "Place":
        return Place(p)

    @staticmethod
    def proved(p: int) -> "Place":
        """Place(p) for a p just proved prime, built without a second proof."""
        place = object.__new__(Place)
        place.p = p
        return place

    @property
    def is_real(self) -> bool:
        return self.p is None

    @property
    def is_finite(self) -> bool:
        return self.p is not None

    def sort_key(self) -> Tuple[int, int]:
        return (0, 0) if self.p is None else (1, self.p)

    def __eq__(self, other: object) -> bool:
        return self.p == other.p if other.__class__ is Place else NotImplemented

    def __hash__(self) -> int:
        return hash(self.p)

    def __lt__(self, other: "Place") -> bool:
        return self.sort_key() < other.sort_key()

    def __str__(self):
        return "real" if self.p is None else str(self.p)

    def __repr__(self):
        return f"Place({self})"


REAL = Place.real()


def parse_place(token: str) -> Place:
    if token in ("real", "oo", "inf"):
        return REAL
    return Place.finite(int(token))


def parse_rational(token: str) -> Fraction:
    """A rational as Fraction(token) reads it, less exponents (1e999999999
    would build a billion-digit integer): [sign] digits [/ digits] or a
    finite decimal such as 5. or .5, digits grouped by single underscores,
    whitespace around.  ValueError if malformed, with Fraction's message, or
    "{token}: zero denominator".  ASCII -?digits and -?digits/digits are
    read with int(), every other token by Fraction(token)."""
    if "e" in token or "E" in token:
        raise ValueError(f"{token}: exponents are not accepted")
    num, slash, den = token.partition("/")
    try:
        if (token.isascii() and num.removeprefix("-").isdecimal()
                and (den.isdecimal() or not slash)):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        return Fraction(token)
    except ZeroDivisionError:
        raise ValueError(f"{token}: zero denominator") from None


# ---------------------------------------------------------------------------
# Valuations and square classes
# ---------------------------------------------------------------------------


def valuation(x: Rational, p: int) -> int:
    """p-adic valuation of a nonzero rational at the prime p."""
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("valuation of 0 is undefined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def strip_primes(n: int, primes: Iterable[int]) -> int:
    """n with every listed prime divided out; n must be nonzero."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


def mod_prime_power(x: Rational, p: int, k: int) -> int:
    """Residue of a p-integral rational mod p^k."""
    m = p**k
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not {p}-integral")
    return x.numerator * pow(x.denominator, -1, m) % m


def class_mask(x: Rational, primes: Sequence[int]) -> int:
    """Coordinates of [x] in Q*/(Q*)^2 over -1 (bit 0) and primes (bit k+1).

    Trial division by the listed primes only, so nothing is factored;
    raises ValueError on 0, on a listed entry below 2 (1 and -1 divide
    everything) and when x has a prime outside the list.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("0 has no square class")
    mask = int(num < 0)
    num = abs(num)
    for k, p in enumerate(primes, 1):
        if p < 2:
            raise ValueError(f"{p} in {list(primes)} is not a prime")
        while num % p == 0:
            num //= p
            mask ^= 1 << k
        while den % p == 0:
            den //= p
            mask ^= 1 << k
    if num != 1 or den != 1:
        raise ValueError(f"{x} has a prime outside {list(primes)}")
    return mask


def class_from_mask(mask: int, primes: Sequence[int]) -> int:
    """The square class with coordinates mask over -1 and ascending primes.

    Reads bits 0..len(primes) only: bit 0 is -1 and bit k the k-th prime,
    and the bits above are ignored.
    """
    c = -1 if mask & 1 else 1
    mask = mask >> 1 & (1 << len(primes)) - 1
    while mask:
        low = mask & -mask
        c *= primes[low.bit_length() - 1]
        mask ^= low
    return c


# ---------------------------------------------------------------------------
# Square roots modulo primes
# ---------------------------------------------------------------------------


def sqrt_mod(c: int, q: int) -> Optional[int]:
    """A square root of c modulo the odd prime q, or None if c is a
    non-residue: Tonelli-Shanks (H. Cohen, A Course in Computational
    Algebraic Number Theory, Alg. 1.5.1)."""
    c %= q
    if c == 0:
        return 0
    if pow(c, (q - 1) // 2, q) != 1:
        return None
    s, e = q - 1, 0
    while s % 2 == 0:
        s, e = s // 2, e + 1
    root, b = pow(c, (s + 1) // 2, q), pow(c, s, q)  # root^2 = c*b, b of order 2^m < 2^e
    z = next(n for n in itertools.count(2) if pow(n, (q - 1) // 2, q) == q - 1)
    y = pow(z, s, q)  # of order exactly 2^e
    while b != 1:
        m, t = 0, b
        while t != 1:
            t, m = t * t % q, m + 1
        t = pow(y, 1 << (e - m - 1), q)
        y, e = t * t % q, m
        root, b = root * t % q, b * y % q
    return root


# ---------------------------------------------------------------------------
# Local square classes
# ---------------------------------------------------------------------------


def local_dim(v: Place) -> int:
    """Dimension of Q_v*/(Q_v*)^2 over F2: 1 at the real place, 2 at odd p, 3 at 2."""
    return 1 if v.p is None else 3 if v.p == 2 else 2


# local_mask bits 0 (-1) and 1 (5) of an odd unit, indexed by its residue mod 8
_UNIT_MASK_MOD_8 = (0, 0, 0, 0b11, 0, 0b10, 0, 0b01)


def local_class(x: Rational, v: Place) -> Tuple[int, int]:
    """(val_v x, local_mask(x, v)) of a nonzero rational, val 0 at real.

    p is divided out of the numerator and the denominator once, on ints,
    for both: the valuation parity is the top local bit.  The primality of
    v.p was proved when the Place was built.
    """
    num, den = x.numerator, x.denominator
    if num == 0:
        raise ValueError("0 has no square class")
    p = v.p
    if p is None:
        return 0, int(num < 0)
    val = 0
    while num % p == 0:
        num //= p
        val += 1
    while den % p == 0:
        den //= p
        val -= 1
    # num/den and num*den differ by the square den^2
    if p == 2:
        return val, _UNIT_MASK_MOD_8[num * den % 8] | (val & 1) << 2
    return val, (pow(num * den, (p - 1) // 2, p) != 1) | (val & 1) << 1


def local_mask(x: Rational, v: Place) -> int:
    """Coordinates of a nonzero rational in Q_v*/(Q_v*)^2 as an F2 bitmask.

    Bit i is the exponent of the i-th local generator: -1 at the real place;
    a non-residue unit (bit 0) and p (bit 1) at odd p; -1, 5 and 2 (bits 0,
    1, 2) at 2.  The mask half of local_class.
    """
    return local_class(x, v)[1]


def is_local_square(x: Rational, v: Place) -> bool:
    """True iff x is a square in the completion at v."""
    return local_mask(x, v) == 0


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------


def hilbert_row(mask: int, v: Place) -> int:
    """H_v * mask, for the Gram matrix H_v of the Hilbert pairing on local_mask
    coordinates: <x, y>_v = dot(local_mask(x, v), hilbert_row(local_mask(y, v), v)).

    H_v (Serre, A Course in Arithmetic, Ch. III) is [1] at the real place
    (<-1,-1> = 1); at odd p it is [[0, 1], [1, (p-1)/2]] on (unit, p), since
    <u,u> = 0, <u,p> = 1 and <p,p> = <-1,p>; at 2 it is [[1,0,0], [0,0,1],
    [0,1,0]] on (-1, 5, 2), since <-1,-1> = <5,2> = 1 and the other pairings
    of the generators vanish.
    """
    p = v.p
    if p is None:
        return mask
    if p == 2:
        minus, five, two = mask & 1, mask >> 1 & 1, mask >> 2
        return minus | two << 1 | five << 2
    unit, uniformizer = mask & 1, mask >> 1
    return uniformizer | (unit ^ uniformizer & p >> 1 & 1) << 1


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """Additive Hilbert symbol <a,b>_v in F2.

    0 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion
    at v.  Evaluated as the bilinear form local_mask(a)^T H_v local_mask(b)
    of hilbert_row; the test suite checks it against the closed-form local
    formulas and a mod-p^k solubility oracle.
    """
    return dot(local_mask(a, v), hilbert_row(local_mask(b, v), v))


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def sqrt_lift(u: Rational, p: int, k: int) -> Optional[int]:
    """The square root mod p^k of u, or None unless u is a unit square in Z_p.

    Starts from the least root mod p (1 at 2, where a unit square is 1 mod
    8) and runs Newton's method on F = den(u)*x^2 - num(u), with
    F' = 2*den(u)*x: at odd p F' is a unit, and at 2 val(F) >= 3 > 2*val(F')
    (Serre, A Course in Arithmetic, Ch. II), so each step keeps x integral
    and raises val(F).
    """
    u = Fraction(u)
    num, den = u.numerator, u.denominator
    if num % p == 0 or den % p == 0:
        return None
    if p == 2:
        if (num - den) % 8:
            return None
        x = 1
    else:
        root = sqrt_mod(num * pow(den, -1, p), p)
        if root is None:
            return None
        x = min(root, p - root)
    modulus = p**k
    x %= modulus
    while (f := den * x * x - num) % modulus:
        g = 2 * den * x
        if p == 2:  # cancel the one factor 2 of F'
            f, g = f // 2, g // 2
        x = (x - f * pow(g, -1, modulus)) % modulus
    return x
