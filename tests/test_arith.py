import itertools
import math
import random
import time
from fractions import Fraction

import pytest
import sympy
from sympy.ntheory.primetest import mr
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdescent.arith import (
    _MR_BASES,
    _MR_LIMIT,
    _MR_TIERS,
    REAL,
    Place,
    PrimalityRangeError,
    class_from_mask,
    class_mask,
    crt,
    factorize,
    hilbert_symbol,
    is_local_square,
    is_prime,
    legendre,
    local_mask,
    parse_rational,
    prime_stream,
    sqrt_lift,
    valuation,
)

from oracles import (
    class_mul,
    class_of_bits,
    conic_soluble_bruteforce,
    hensel_solve_reference,
    hilbert_relevant_places,
    hilbert_symbol_closed_form,
    is_square_mod_enumeration,
    jacobi,
    local_basis,
    local_square_class,
    sqfree,
)

# desk-scale values: products of three test rationals stay far below the
# deterministic Miller-Rabin certification limit
nonzero_rationals = st.fractions(
    min_value=-10**4, max_value=10**4, max_denominator=200
).filter(lambda x: x != 0)


# ---------------------------------------------------------------------------
# primality / factorization
# ---------------------------------------------------------------------------


def test_is_prime_small():
    primes = [p for p in range(2, 100) if is_prime(p)]
    assert primes[:10] == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert not is_prime(1)
    assert not is_prime(0)
    assert is_prime(2**31 - 1)
    assert not is_prime(2**32 + 1)


def test_is_prime_rejects_oversized():
    with pytest.raises(ValueError):
        is_prime(10**25)


def test_miller_rabin_tiers_cover_the_range_once():
    bounds = [bound for bound, _ in _MR_TIERS]
    counts = [k for _, k in _MR_TIERS]
    assert bounds == sorted(set(bounds)) and counts == sorted(set(counts))
    assert _MR_TIERS[-1] == (_MR_LIMIT, len(_MR_BASES))
    assert list(_MR_BASES) == list(sympy.primerange(2, _MR_BASES[-1] + 1))


@pytest.mark.parametrize("bound,k", _MR_TIERS)
def test_each_tier_bound_is_a_strong_pseudoprime_to_its_bases(bound, k):
    """psi_k fools the first k bases, so a tier that tested psi_k with only
    k bases would call it prime; is_prime must reject it."""
    assert not sympy.isprime(bound)
    assert mr(bound, list(_MR_BASES[:k]))
    if bound == _MR_LIMIT:
        with pytest.raises(PrimalityRangeError):
            is_prime(bound)
    else:
        assert not is_prime(bound)


@st.composite
def primality_inputs(draw):
    """Integers of 2 to 81 bits, and primes and composites just below and
    just above each tier bound: the nearest primes, nearby integers and
    products of two primes of about half the size."""
    kind = draw(st.sampled_from(["bits", "near", "prime", "semiprime"]))
    if kind == "bits":
        bits = draw(st.integers(2, 81))
        return draw(st.integers(2 ** (bits - 1), 2**bits - 1))
    bound = draw(st.sampled_from([bound for bound, _ in _MR_TIERS]))
    above = bound < _MR_LIMIT and draw(st.booleans())
    if kind == "near":
        offset = draw(st.integers(1, 5000))
        return bound + offset if above else bound - offset
    if kind == "prime":
        return sympy.nextprime(bound) if above else sympy.prevprime(bound)
    root = sympy.integer_nthroot(bound, 2)[0]
    half = sympy.prevprime(max(root - draw(st.integers(0, 500)), 5))
    other = sympy.nextprime(half) if above else sympy.prevprime(half)
    return half * other


@given(primality_inputs())
@settings(max_examples=600, deadline=None, derandomize=True)
def test_is_prime_matches_sympy(n):
    assert n < _MR_LIMIT
    assert is_prime(n) == sympy.isprime(n)


def test_factorize():
    assert factorize(720) == {2: 4, 3: 2, 5: 1}
    assert factorize(-720) == {2: 4, 3: 2, 5: 1}
    assert factorize(1) == {}
    n = 1000003 * 999983
    assert factorize(n) == {999983: 1, 1000003: 1}


@given(st.integers(min_value=-10**12, max_value=10**12).filter(bool))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_factorize_matches_sympy(n):
    assert factorize(n) == sympy.factorint(abs(n))


# ---------------------------------------------------------------------------
# valuations and square classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "x,p,expected",
    [(24, 2, 3), (1, 7, 0), (Fraction(9, 14), 7, -1), (Fraction(-8, 9), 3, -2)],
)
def test_valuation(x, p, expected):
    assert valuation(x, p) == expected


def test_valuation_rejects_zero():
    with pytest.raises(ValueError):
        valuation(0, 5)


@pytest.mark.parametrize(
    "x,expected",
    [
        (18, (1, (2,))),
        (-12, (-1, (3,))),
        (1, (1, ())),
        (Fraction(4, 9), (1, ())),
        (Fraction(-5, 8), (-1, (2, 5))),
    ],
)
def test_square_class(x, expected):
    # expected is (sign, square-free support); the class is their product,
    # read off the mask of x over its primes
    sign, support = expected
    primes = (2, 3, 5)
    assert class_from_mask(class_mask(x, primes), primes) == math.prod(support, start=sign)


def _primes_of(*xs):
    """The ascending primes of the numerators and denominators, by sympy."""
    return sorted({int(p) for x in xs for n in (x.numerator, x.denominator)
                   for p in sympy.factorint(abs(n))})


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_square_class_homomorphism(x, y):
    # the group law of Q*/(Q*)^2 is the XOR of masks
    primes = _primes_of(x, y)
    assert class_mask(x * y, primes) == class_mask(x, primes) ^ class_mask(y, primes)
    assert class_mask(x * y * y, primes) == class_mask(x, primes)
    assert class_from_mask(class_mask(x * y, primes), primes) == class_mul(sqfree(x), sqfree(y))


@given(st.integers(1, 10**12), st.integers(1, 10**12), st.sampled_from((1, -1)))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_square_class_matches_sympy_factoring(num, den, sign):
    x = Fraction(sign * num, den)
    primes = _primes_of(x)
    assert class_from_mask(class_mask(x, primes), primes) == sqfree(x)


def test_class_from_mask_ignores_bits_above_the_primes():
    # bits 0..len(primes) give the class by a direct product; higher bits,
    # such as the factor bits of a lattice mask, are ignored
    rng = random.Random(11)
    pool = list(sympy.primerange(2, 200))
    for _ in range(300):
        primes = sorted(rng.sample(pool, rng.randint(0, 16)))
        above = rng.getrandbits(rng.randint(0, 40)) | 1
        mask = rng.getrandbits(1 + len(primes)) | above << 1 + len(primes)
        assert class_from_mask(mask, primes) == class_of_bits(mask, primes)


@pytest.mark.parametrize("primes", [(2, 1), (-1, 3), (0,), (2, -3)])
def test_class_mask_rejects_entries_below_2(primes):
    # 1 and -1 divide every numerator, so the trial division would never end
    with pytest.raises(ValueError, match="is not a prime"):
        class_mask(Fraction(6, 5), primes)


@pytest.mark.parametrize("token,value", [
    ("-3/4", Fraction(-3, 4)), (" 5/15 ", Fraction(1, 3)), ("1_0", 10),
    ("１/２", Fraction(1, 2)), ("1000", 1000), ("0.25", Fraction(1, 4)),
])
def test_parse_rational_reads_fraction_tokens(token, value):
    assert parse_rational(token) == value


@pytest.mark.parametrize("token", ["1e3", "2.5E-1", "-1e-2", "1e999999999"])
def test_parse_rational_rejects_exponents(token):
    # Fraction("1e999999999") would build 10^999999999: the check must come first
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exponent"):
        parse_rational(token)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("token", ["3/-4", "3 /4", "3/+4", "3/", "x", "3/0"])
def test_parse_rational_rejects_malformed_tokens(token):
    with pytest.raises(ValueError):
        parse_rational(token)


def test_places_ordered():
    places = [Place.finite(5), REAL, Place.finite(2), Place.finite(3)]
    assert [str(v) for v in sorted(places)] == ["real", "2", "3", "5"]
    with pytest.raises(ValueError):
        Place.finite(6)


def test_places_are_equal_and_hashed_by_p_alone():
    assert Place.proved(7) == Place(7) != Place(5)
    assert hash(Place.proved(7)) == hash(Place(7)) == hash(7)
    assert Place(7) != 7 and REAL == Place(None) != None  # noqa: E711
    assert not Place(7) < Place(7) and REAL < Place(2)


# ---------------------------------------------------------------------------
# quadratic symbols
# ---------------------------------------------------------------------------


def test_legendre_examples():
    assert legendre(2, 7) == 1  # 3^2 = 2 mod 7
    assert legendre(14, 7) == 0
    assert legendre(3, 7) == -1  # squares mod 7 are {1, 2, 4}


def test_legendre_matches_enumeration():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            assert legendre(a, p) == (1 if a in squares else -1)


def test_legendre_agrees_with_jacobi():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 30):
            if a % p == 0:
                continue
            assert legendre(a, p) == jacobi(a, p)


# ---------------------------------------------------------------------------
# local squares
# ---------------------------------------------------------------------------


def test_is_local_square_examples():
    assert is_local_square(2, Place.finite(7))
    assert not is_local_square(-5, REAL)
    assert is_local_square(17, Place.finite(2))
    assert not is_local_square(2, Place.finite(3))
    assert not is_local_square(5, Place.finite(2))  # 5 = 5 mod 8


@given(nonzero_rationals)
@settings(max_examples=120, deadline=None, derandomize=True)
def test_is_local_square_matches_enumeration(x):
    for v in (REAL, Place.finite(2), Place.finite(3), Place.finite(7)):
        assert is_local_square(x, v) == is_square_mod_enumeration(x, v)


def test_local_square_class_dimensions():
    assert local_square_class(5, REAL).dim == 1
    assert local_square_class(5, Place.finite(3)).dim == 2
    assert local_square_class(5, Place.finite(2)).dim == 3


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_local_square_class_homomorphism(x, y):
    for v in (REAL, Place.finite(2), Place.finite(5)):
        assert (
            local_square_class(x * y, v)
            == local_square_class(x, v) * local_square_class(y, v)
        )


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=100, deadline=None, derandomize=True)
def test_local_class_depends_on_square_class_only(x, y):
    for v in (REAL, Place.finite(2), Place.finite(7)):
        assert local_square_class(x * y * y, v) == local_square_class(x, v)


# the real place, 2, and odd primes on both sides of 4
MASK_PLACES = [REAL] + [Place.finite(p) for p in (2, 3, 5, 7, 13, 10007)]


@st.composite
def local_arguments(draw):
    """(a, b, v) with powers of the place's prime in numerators and denominators."""
    v = draw(st.sampled_from(MASK_PLACES))
    p = v.p or 3

    def rational():
        num = draw(st.integers(-10**6, 10**6).filter(bool)) * p ** draw(st.integers(0, 5))
        den = draw(st.integers(1, 10**6)) * p ** draw(st.integers(0, 5))
        return Fraction(num, den)

    return rational(), rational(), v


@given(local_arguments())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_mask_form_matches_closed_form(args):
    a, b, v = args
    assert hilbert_symbol(a, b, v) == hilbert_symbol_closed_form(a, b, v)
    assert local_mask(a, v) == local_square_class(a, v).mask()
    # the mask is the exponent vector of a over the local generators
    value = a
    for bit, gen in enumerate(local_basis(v)):
        if local_mask(a, v) >> bit & 1:
            value /= gen
    if v.is_real or v.p < 100:
        assert is_square_mod_enumeration(value, v)


def test_local_basis_spans():
    # every local class is a product of basis classes
    for v in (REAL, Place.finite(2), Place.finite(5)):
        basis = local_basis(v)
        cls = local_square_class(Fraction(-50, 7), v)
        value = Fraction(1)
        for bit, gen in zip(cls.coordinates, basis):
            if bit:
                value *= gen
        assert local_square_class(value, v) == cls


# ---------------------------------------------------------------------------
# Hilbert symbol
# ---------------------------------------------------------------------------


def test_hilbert_examples():
    assert hilbert_symbol(1, 17, REAL) == 0
    assert hilbert_symbol(-1, -1, REAL) == 1
    assert hilbert_symbol(-1, -1, Place.finite(2)) == 1
    assert hilbert_symbol(3, 7, Place.finite(3)) == 0


def test_hilbert_symmetry_and_square_invariance():
    places = [REAL, Place.finite(2), Place.finite(3), Place.finite(5)]
    values = [1, -1, 2, 3, 5, 6, -10, Fraction(3, 4), Fraction(-7, 5)]
    for v in places:
        for a in values:
            for b in values:
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
                assert hilbert_symbol(a * 9, b, v) == hilbert_symbol(a, b, v)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
@settings(max_examples=150, deadline=None, derandomize=True)
def test_hilbert_bilinear(a, b, c):
    for v in (REAL, Place.finite(2), Place.finite(3)):
        left = hilbert_symbol(a * b, c, v)
        right = hilbert_symbol(a, c, v) ^ hilbert_symbol(b, c, v)
        assert left == right


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_hilbert_reciprocity(a, b):
    total = 0
    for v in hilbert_relevant_places(a, b):
        total ^= hilbert_symbol(a, b, v)
    assert total == 0


def test_hilbert_at_large_prime():
    p = 1_000_003  # prime
    v = Place.finite(p)
    assert hilbert_symbol(p, p, v) == hilbert_symbol(-1, p, v)  # <p,p> = <-1,p>
    assert hilbert_symbol(4, p, v) == 0
    # unit arguments pair trivially at odd places
    assert hilbert_symbol(3, 5, v) == 0


def test_hilbert_vs_bruteforce_small():
    for p in (2, 3, 5):
        v = Place.finite(p)
        for a in range(-9, 10):
            for b in range(-9, 10):
                if a == 0 or b == 0:
                    continue
                closed = hilbert_symbol(a, b, v)
                assert (closed == 0) == conic_soluble_bruteforce(a, b, p)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def test_hensel_sqrt2_at_7():
    result = hensel_solve_reference((1,), -2, 7, 2)
    assert result.status == "witness"
    assert result.witness == (10,)  # lifts 3 mod 7
    assert result.smooth_var == 0


def test_hensel_certified_none():
    result = hensel_solve_reference((1,), -2, 3, 3)
    assert result.status == "none"


def test_hensel_trivial_root():
    result = hensel_solve_reference((1,), -1, 5, 2)
    assert result.status == "witness"
    assert result.witness == (1,)


def test_hensel_two_variables():
    # x^2 + y^2 = 1 over Z_7 to depth 3
    result = hensel_solve_reference((1, 1), -1, 7, 3)
    assert result.status == "witness"
    x, y = result.witness
    assert (x * x + y * y - 1) % 7**3 == 0


def test_hensel_witness_reduces_correctly():
    result = hensel_solve_reference((1,), -17, 2, 6)
    assert result.status == "witness"
    (x,) = result.witness
    assert (x * x - 17) % 2**6 == 0


def test_hensel_rejects_bad_coefficients():
    with pytest.raises(ValueError):
        hensel_solve_reference((Fraction(1, 7),), 1, 7, 2)


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    precision=st.integers(1, 6),
    coeffs=st.lists(st.integers(-300, 300).filter(bool), min_size=1, max_size=2),
    constant=st.integers(-300, 300),
)
def test_hensel_on_diagonal_quadrics(p, precision, coeffs, constant):
    nvars = len(coeffs)

    def f(point):
        return sum(c * x * x for c, x in zip(coeffs, point)) + constant

    result = hensel_solve_reference(coeffs, constant, p, precision)
    if result.status == "witness":
        point, j = result.witness, result.smooth_var
        assert f(point) % p**precision == 0
        # strong Hensel: val(f) > 2*val(df/dx_j) with df/dx_j = 2*c_j*x_j
        derivative = 2 * coeffs[j] * point[j]
        assert derivative != 0
        assert f(point) == 0 or valuation(f(point), p) > 2 * valuation(derivative, p)
    elif result.status == "none":
        level = int(result.detail.rsplit(" ", 1)[1])
        assert level <= precision
        if p ** (nvars * level) <= 10**5:
            residues = itertools.product(range(p**level), repeat=nvars)
            assert not any(f(point) % p**level == 0 for point in residues)


def test_sqrt_lift_examples():
    assert sqrt_lift(2, 7, 2) == 10  # lifts 3, the least root mod 7
    assert sqrt_lift(1, 5, 2) == 1
    assert sqrt_lift(2, 3, 3) is None  # a unit non-square
    assert sqrt_lift(7, 7, 3) is None and sqrt_lift(Fraction(1, 7), 7, 3) is None
    # at 2 a unit square is 1 mod 8: 5 has a root mod 4 but none in Z_2
    assert sqrt_lift(5, 2, 2) is None
    x = sqrt_lift(17, 2, 6)
    assert x % 2 == 1 and (x * x - 17) % 2**6 == 0
    x = sqrt_lift(Fraction(-3, 13), 2**61 - 1, 3)
    assert (13 * x * x + 3) % (2**61 - 1) ** 3 == 0


# ---------------------------------------------------------------------------
# prime streams and CRT
# ---------------------------------------------------------------------------


def test_prime_stream_examples():
    assert list(itertools.islice(prime_stream(10, {13}), 3)) == [11, 17, 19]
    assert list(itertools.islice(prime_stream(1, set()), 3)) == [2, 3, 5]
    assert list(itertools.islice(prime_stream(0, {2, 3}), 3)) == [5, 7, 11]


def test_crt():
    x, m = crt([(2, 3), (3, 5), (2, 7)])
    assert m == 105
    assert x % 3 == 2 and x % 5 == 3 and x % 7 == 2
