import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import nextprime, primerange

from torusdescent import points
from torusdescent.arith import (
    REAL,
    Place,
    hilbert_symbol,
    local_mask,
    sqrt_lift,
    sqrt_mod,
    valuation,
)
from torusdescent.points import (
    _denominators,
    local_solubility,
    solve_global,
    unit_square_scan,
    verify_integral_point,
)
from torusdescent.surface import evaluate_point, fiber, make_spec

from fixtures import LARGE_PRIME_FAMILY, large_prime_point
from oracles import (
    factor_values_reference,
    fiber_point_bruteforce,
    good_place_solubility_reference,
    hensel_solve_reference,
    is_local_square_closed_form,
    solve_global_fullscan,
)


def test_local_trivial_witness():
    for v in (REAL, Place.finite(3), Place.finite(2)):
        model = "rational" if v.is_finite else "integral"
        res = local_solubility(1, 7, v, model="rational" if v.is_finite else "integral")
        assert res.status == "soluble"


def _real_witness_gap(aA, bB):
    """1 - c*x^2 for the real witness, with c the positive coefficient on its axis."""
    x, y = local_solubility(aA, bB, REAL).witness
    return 1 - Fraction(aA) * x * x - Fraction(bB) * y * y, x or y


@pytest.mark.parametrize("aA, bB", [
    (1, 1), (Fraction(1, 3), -1), (-5, Fraction(1, 10**12)), (2, 7), (4, -1),
    (2 * 10**8, 1), (10**30 + 7, -3), (-1, Fraction(10**9, 7)),
])
def test_real_witness_near_the_conic(aA, bB):
    # the positive coefficient c gives 0 < 1 - c*x^2 < 10^-4 with x nonzero
    gap, coordinate = _real_witness_gap(aA, bB)
    assert coordinate != 0
    assert 0 < gap < Fraction(1, 10**4)


@settings(max_examples=200, deadline=None)
@given(st.fractions(min_value=Fraction(1, 10**15), max_value=10**15))
def test_real_witness_near_the_conic_for_every_coefficient(c):
    gap, coordinate = _real_witness_gap(c, -1)
    assert coordinate > 0 and 0 < gap < Fraction(1, 10**4)


def test_local_negative_definite():
    res = local_solubility(-1, -1, REAL)
    assert res.status == "insoluble"


def test_local_insoluble_at_2():
    res = local_solubility(-1, -1, Place.finite(2), model="rational")
    assert res.status == "insoluble"
    res = local_solubility(-1, -1, Place.finite(2), model="integral")
    assert res.status == "insoluble"


def test_local_rational_matches_hilbert():
    rng = random.Random(5)
    for _ in range(150):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        v = rng.choice([Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)])
        res = local_solubility(a, b, v, model="rational")
        expected = "soluble" if hilbert_symbol(a, b, v) == 0 else "insoluble"
        assert res.status == expected
        if res.status == "soluble" and res.witness is not None:
            x, y = res.witness
            residual = a * x * x + b * y * y - 1
            assert residual == 0 or valuation(residual, v.p) >= res.precision


def test_rational_witness_scans_a_capped_number_of_numerators(monkeypatch):
    """The fiber at t = 1 of a = b = p, p_1 = t + 1, partA {1}, at p = 233:
    no x = m with m < p^3 gives a witness, and the scan of that level stops
    after _WITNESS_SCAN values of m, where it once tried all p^3."""
    p, calls = 233, []
    real = points.is_local_square

    def counted(x, v):
        calls.append(x)
        assert len(calls) <= 2 * points._WITNESS_SCAN, "the witness scan passed its cap"
        return real(x, v)

    monkeypatch.setattr(points, "is_local_square", counted)
    res = local_solubility(2 * p, p, Place.finite(p), "rational")
    assert res.status == "soluble"
    assert res.witness == (Fraction(1, p), Fraction(157844283313701, p))
    assert points._WITNESS_SCAN < len(calls)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    aA=st.builds(Fraction, st.integers(-10**4, 10**4).filter(bool), st.integers(1, 200)),
    bB=st.builds(Fraction, st.integers(-10**4, 10**4).filter(bool), st.integers(1, 200)),
    p=st.sampled_from([2, 3, 5]),
)
def test_hilbert_symbol_decides_rational_solubility(aA, bB, p):
    # the S0-place test of the admissible scan reads the Hilbert symbol alone
    v = Place.finite(p)
    insoluble = local_solubility(aA, bB, v, "rational").status != "soluble"
    assert (hilbert_symbol(aA, bB, v) != 0) == insoluble


def test_local_integral_witnesses_verify():
    rng = random.Random(6)
    for _ in range(100):
        a = rng.choice([x for x in range(-20, 21) if x])
        b = rng.choice([x for x in range(-20, 21) if x])
        v = rng.choice([Place.finite(3), Place.finite(5), Place.finite(2)])
        res = local_solubility(a, b, v, model="integral")
        if res.status == "soluble":
            x, y = res.witness
            residual = a * x * x + b * y * y - 1
            assert residual == 0 or valuation(residual, v.p) >= res.precision
        else:
            assert res.status == "insoluble"
            # the residue search excludes every point at the same precision
            reference = hensel_solve_reference((a, b), -1, v.p, res.precision)
            assert reference.status == "none"


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), data=st.data())
def test_integral_verdict_reads_only_valuations_and_classes(p, data):
    # two coefficient pairs with one key (p, val aA, [aA], val bB, [bB]) get
    # one verdict from the unit-square criterion: the admissible point's
    # row check fixes all that local_solubility(..., "integral") reads
    v = Place.finite(p)
    units = st.integers(1, 10**4).filter(lambda n: n % p)
    pairs = []
    for _ in range(2):
        x = data.draw(st.sampled_from([1, -1])) * p ** data.draw(st.integers(0, 5)) * data.draw(units)
        # (s/w)^2 times 1 + p*z (1 + 8*z at 2): a unit square by Hensel's lemma
        square = Fraction(data.draw(units), data.draw(units)) ** 2 * (
            1 + p ** (3 if p == 2 else 1) * data.draw(st.integers(-10**4, 10**4)))
        y = x * square
        assert (valuation(y, p), local_mask(y, v)) == (valuation(x, p), local_mask(x, v))
        pairs.append((x, y))
    (aA, aA_same), (bB, bB_same) = pairs
    verdict = local_solubility(aA, bB, v, "integral").status
    assert verdict in ("soluble", "insoluble")
    assert local_solubility(aA_same, bB_same, v, "integral").status == verdict


def _p_adic_units(p):
    """Rationals prime to p, numerator and denominator both."""
    return st.builds(Fraction, st.integers(-10**4, 10**4).filter(lambda n: n % p),
                     st.integers(1, 500).filter(lambda n: n % p))


def _first_unit_square(aA, bB, v):
    """The first (j, y), y over every residue mod p (mod 4 at 2), with
    (1 - c*y^2)/s a unit square by the closed form, (s, c) = (aA, bB) for
    j = 0 and (bB, aA) for j = 1, s a unit; None if there is none."""
    p = v.p
    for j, (s, c) in enumerate(((aA, bB), (bB, aA))):
        if valuation(s, p) != 0:
            continue
        for y in range(4 if p == 2 else p):
            u = (1 - c * y * y) / s
            if u != 0 and valuation(u, p) == 0 and is_local_square_closed_form(u, v):
                return j, y
    return None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(p=st.sampled_from([2, 3, 5, 7, 11]), data=st.data())
def test_integral_criterion_matches_the_residue_search(p, data):
    """The unit-square criterion against hensel_solve_reference: the same
    verdict wherever the search is definite, for local_solubility and for
    the witness-free unit_square_scan, which picks the y of the witness and
    the first y at which the oracle's closed form finds a unit square;
    witnesses to the stated precision, and sqrt_lift equal to the search's
    one-variable witness."""
    v = Place.finite(p)
    aA, bB = (data.draw(_p_adic_units(p)) * p ** data.draw(st.integers(0, 5)) for _ in range(2))
    res = local_solubility(aA, bB, v, "integral")
    assert res.precision == valuation(4 * aA * bB, p) + 3
    found = unit_square_scan(aA, bB, v)
    assert (found is not None) == (res.status == "soluble")
    if res.status == "soluble":
        x, y = res.witness
        residual = aA * x * x + bB * y * y - 1
        assert residual == 0 or valuation(residual, p) >= res.precision
        j, first = found
        assert res.witness[1 - j] == first
    assert found == _first_unit_square(aA, bB, v)
    reference = hensel_solve_reference((aA, bB), -1, p, res.precision)
    if reference.status != "inconclusive":
        assert res.status == {"witness": "soluble", "none": "insoluble"}[reference.status]
    # a unit, a unit square half the time: (s/w)^2 * (1 + p*z) (1 + 8*z at 2)
    u = data.draw(st.one_of(
        _p_adic_units(p),
        st.builds(lambda w, z: w * w * (1 + p ** (3 if p == 2 else 1) * z),
                  _p_adic_units(p), st.integers(-10**3, 10**3)).filter(bool),
    ))
    k = data.draw(st.integers(1, 9))
    root = sqrt_lift(u, p, k)
    for coeffs, constant in (((1,), -u), ((1 / u,), -1)):
        reference = hensel_solve_reference(coeffs, constant, p, k)
        if reference.status == "witness":
            assert root == reference.witness[0]
        elif reference.status == "none":
            assert root is None


@pytest.mark.parametrize("p", sorted(LARGE_PRIME_FAMILY))
def test_integral_verdicts_at_the_large_primes(p):
    """Definite verdicts at the prime p > 316 of T: the fiber above t_star
    holds the member's global point, and above 2p both coefficients are
    divisible by p, so neither term can be a unit."""
    spec, _, (_, _, t_star) = large_prime_point(p)
    v = Place.finite(p)
    fib = fiber(spec, t_star)
    res = local_solubility(fib.aA, fib.bB, v, "integral")
    assert res.status == "soluble" and res.precision == 3
    x, y = res.witness
    assert valuation(fib.aA * x * x + fib.bB * y * y - 1, p) >= res.precision
    fib = fiber(spec, 2 * p)
    assert (valuation(fib.aA, p), valuation(fib.bB, p)) == (1, 1)
    res = local_solubility(fib.aA, fib.bB, v, "integral")
    assert res.status == "insoluble" and res.witness is None


def test_good_place_criterion_examples():
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    v = Place.finite(5)
    # t = 5: p_1 degenerates, criterion value b*p_B(0) = 3*1 = 3; (3|5) = -1
    # t = 4: p_2 degenerates, criterion value a*p_A(-1) = -2; (-2|5) = -1
    # t = 1: no factor degenerates, a smooth special fiber
    for t, status in ((5, "insoluble"), (4, "insoluble"), (1, "soluble")):
        assert good_place_solubility_reference(spec, v, factor_values_reference(spec, t)) == status
        fib = fiber(spec, t)
        assert local_solubility(fib.aA, fib.bB, v, "integral").status == status


def test_good_place_criterion_agrees_with_hensel():
    rng = random.Random(7)
    specs = [
        make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1]),
        make_spec([2], 1, 5, {1: (1, 0), 2: (1, 2)}, [1]),
        make_spec([], 3, -1, {1: (1, 1), 2: (1, -1)}, [1]),
        make_spec([2], 2, 5, {1: (1, 0), 2: (1, 1)}, []),
    ]
    checked = 0
    for _ in range(400):
        spec = rng.choice(specs)
        v = Place.finite(rng.choice([5, 7, 11, 13, 17, 19]))
        t = rng.randint(-40, 40)
        if spec.product_value(spec.indices, t) == 0:
            continue
        try:
            crit = good_place_solubility_reference(spec, v, factor_values_reference(spec, t))
        except ValueError:
            continue  # not a good place for this t
        fib = fiber(spec, t)
        direct = local_solubility(fib.aA, fib.bB, v, model="integral")
        assert direct.status == crit, (spec, v, t)
        search = hensel_solve_reference((fib.aA, fib.bB), -1, v.p, direct.precision)
        assert search.status == {"soluble": "witness", "insoluble": "none"}[crit]
        checked += 1
    assert checked > 250


def test_solve_global_examples():
    assert solve_global(1, 7, [], 10) == (1, 0)
    assert solve_global(2, -1, [], 10) == (1, 1)
    assert solve_global(5, -1, [], 10) == (1, 2)
    assert solve_global(3, 3, [], 50) is None  # x^2 + y^2 = 1/3 has no rational point


def test_solve_global_with_denominators():
    # 8x^2 - y^2 = 1 needs x = 3/8? no: try S0 = {2}: x = 1/2 gives 2 - y^2 = 1
    sol = solve_global(8, -1, [2], 20)
    assert sol is not None
    x, y = sol
    assert 8 * x * x - y * y == 1


def _coefficient(draw, s0):
    """A rational of either sign with denominator 1..8: a small or 6-digit
    numerator, or, shaped like a descent fiber's, an S0-unit times one or
    two primes in [3, 10^7]."""
    if draw(st.booleans()):
        num = draw(st.integers(1, 60) | st.integers(1, 10**6))
    else:
        num = math.prod(draw(st.lists(st.sampled_from(s0 or [1]), max_size=4)))
        for _ in range(draw(st.integers(1, 2))):
            num *= nextprime(draw(st.integers(2, 9_999_990)))
    return Fraction(num, draw(st.integers(1, 8))) * draw(st.sampled_from([1, -1]))


@st.composite
def _conic(draw):
    """(aA, bB, s0, height): coefficients from _coefficient, or bB chosen so
    that some (m/u, n/u) within the height solves the conic; heights up to
    1,000 make long scans, which step through residue classes."""
    s0 = draw(st.sampled_from([[], [2], [2, 3], [5]]))
    height = draw(st.integers(1, 60) | st.integers(61, 1000))
    aA = _coefficient(draw, s0)
    if draw(st.booleans()):
        m, n = draw(st.integers(0, height)), draw(st.integers(1, height))
        u = draw(st.sampled_from(_denominators(s0, height)))
        bB = (u * u - aA * m * m) / (n * n)
        if bB:
            return aA, bB, s0, height
    return aA, _coefficient(draw, s0), s0, height


@settings(max_examples=500, deadline=None, derandomize=True)
@given(conic=_conic())
@example(conic=(7778368004, 77783680060, [2], 1000))  # positive definite
@example(conic=(-480, 94, [2], 1000))  # indefinite: (23/16, 13/4)
@example(conic=(5, -1, [], 2))  # the only m is the bottom of the range
# fibers of the family round: three without a point, and one with
@example(conic=(-4112261, 16910711093432, [2], 1000))
@example(conic=(-21610547, 9261669, [2], 1000))
@example(conic=(-7427, 3189, [2], 1000))
@example(conic=(96, -470, [2], 1000))  # (9/16, 1/4)
def test_solve_global_matches_full_scan(conic):
    assert solve_global(*conic) == solve_global_fullscan(*conic)


def test_sqrt_mod_against_brute_force():
    for q in primerange(3, 600):
        squares = {x * x % q for x in range(q)}
        for c in range(q):
            r = sqrt_mod(c, q)
            assert (r is not None) == (c in squares), (c, q)
            assert r is None or r * r % q == c
    # the ten primes in [10^12, 10^12 + 200), four of them 1 mod 8
    for q in primerange(10**12, 10**12 + 200):
        for c in (2, 3, 5, -1, 10**11 + 3, 123_456_789):
            r = sqrt_mod(c, q)
            assert (r is not None) == (pow(c, (q - 1) // 2, q) == 1)
            assert r is None or r * r % q == c % q


def test_a_short_scan_runs_no_primality_test(monkeypatch):
    # 30-digit coefficients at height 20 leave scans no longer than 21; each
    # is a square-free smooth part times a prime that is_prime could prove
    calls = []
    real = points.is_prime
    monkeypatch.setattr(points, "is_prime", lambda n: calls.append(n) or real(n))
    a = 3 * 5 * 7 * 11 * 13 * 17 * 19 * 23 * nextprime(10**21)
    b = -2 * 29 * 31 * 37 * 41 * 43 * 47 * nextprime(10**20)
    for aA, bB in ((a, b), (-a, -b), (Fraction(a, 4), b), (a, Fraction(-b, 9))):
        assert solve_global(aA, bB, [2], 20) == solve_global_fullscan(aA, bB, [2], 20)
    assert calls == []


def test_solve_global_verifies():
    rng = random.Random(8)
    for _ in range(60):
        a = rng.choice([x for x in range(-12, 13) if x])
        b = rng.choice([x for x in range(-12, 13) if x])
        sol = solve_global(a, b, [2], 40)
        if sol:
            x, y = sol
            assert a * x * x + b * y * y == 1


def test_verify_integral_point():
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    assert verify_integral_point(spec, 1, 0, Fraction(1, 2)) is False  # 1/2 not S0-int
    spec2 = make_spec([2], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    assert verify_integral_point(spec2, 1, 0, Fraction(1, 2)) is True
    assert verify_integral_point(spec2, 1, 1, Fraction(1, 2)) is False  # off surface
    assert verify_integral_point(spec2, Fraction(1, 7), 0, 1) is False


def test_hasse_consistency_samples():
    # whenever solve_global finds a point, every local solubility check passes
    rng = random.Random(9)
    spec = make_spec([2], 1, 5, {1: (1, 0), 2: (1, 2)}, [1])
    places = [REAL, Place.finite(2), Place.finite(3), Place.finite(5), Place.finite(7)]
    for _ in range(40):
        t = Fraction(rng.randint(-30, 30), rng.choice([1, 2]))
        if spec.product_value(spec.indices, t) == 0:
            continue
        fib = fiber(spec, t)
        sol = solve_global(fib.aA, fib.bB, [2], 50)
        if sol is None:
            continue
        for v in places:
            model = "rational" if (v.is_real or v in spec.s0) else "integral"
            res = local_solubility(fib.aA, fib.bB, v, model=model)
            assert res.status == "soluble"


def test_bruteforce_oracle_agrees_with_solver():
    spec = make_spec([2], 1, -2, {1: (1, 1), 2: (1, -1)}, [1])
    for t in (3, 5, -45):
        fib = fiber(spec, t)
        ours = solve_global(fib.aA, fib.bB, [2], 60)
        brute = fiber_point_bruteforce(spec, t, 60)
        assert (ours is None) == (brute is None)
        if ours:
            x, y = ours
            assert evaluate_point(spec, x, y, t) == 0
