import ast
import math
import os
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusdescent import arith, surface
from torusdescent.arith import _MR_LIMIT, REAL, Place, class_mask
from torusdescent.descent import DescentBounds, descend
from torusdescent.surface import (
    MAX_FACTORS,
    DegenerateFiberError,
    LocalPoint,
    PartialAdelicPoint,
    SpecValidationError,
    SurfaceSpec,
    compute_s_bad,
    evaluate_point,
    fiber,
    make_spec,
    parse_point_file,
    parse_spec_text,
    serialize_point,
    serialize_spec,
    spec_hash,
    spec_violations,
    validate_spec,
)

from fixtures import (
    ALL_FAMILY,
    BOUNDED_CHAMBER_MEMBER,
    LARGE_PRIME_FAMILY,
    REDUCTION_MEMBERS,
    family_point,
)
from oracles import (
    compute_s,
    cross_resultant_reference,
    factor_value_reference,
    factored_numerators_reference,
    fiber_coeffs_reference,
    integral_model_reference,
    product_value_reference,
    residual_reference,
    s_bad_reference,
    serialize_spec_reference,
    spec_violations_reference,
)


@pytest.fixture
def running_spec():
    return make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])


def test_validate_running_example(running_spec):
    assert running_spec.d == 6
    assert running_spec.partition == ((1,), (2,))
    assert running_spec.indices == (1, 2)


def test_validate_rejects_proportional():
    with pytest.raises(SpecValidationError, match="proportional"):
        make_spec([], 2, 3, {1: (1, 0), 2: (2, 0)}, [1])


def test_validate_rejects_zero_coefficient():
    with pytest.raises(SpecValidationError):
        make_spec([], 0, 3, {1: (1, 0)}, [1])


def test_validate_rejects_missing_real():
    problems = spec_violations([Place.finite(2)], 1, 1, {1: (1, 0)}, [1])
    assert any("real" in p for p in problems)


def test_validate_rejects_empty_factor_set():
    with pytest.raises(SpecValidationError, match="non-empty"):
        make_spec([], 1, 1, {}, [])


def test_validate_rejects_non_coprime():
    with pytest.raises(SpecValidationError, match="share primes"):
        make_spec([], 1, 1, {1: (3, 6)}, [1])
    # the shared prime is fine once it sits inside S0
    make_spec([3], 1, 1, {1: (3, 6)}, [1])


def _coefficients(spec):
    return [spec.a, spec.b, *(x for _, cd in spec.factors for x in cd)]


def test_validate_rejects_non_integers():
    # S0-integers that are not integers are rejected at validation, before
    # any descent runs on them
    with pytest.raises(SpecValidationError) as excinfo:
        make_spec([2, 3], Fraction(1, 2), 1, {1: (Fraction(1, 3), 1), 2: (1, -5)}, [1])
    assert excinfo.value.violations == ["a = 1/2 is not an integer",
                                        "c_1 = 1/3 is not an integer"]
    # an integral Fraction is accepted and stored as an int
    spec = make_spec([], Fraction(4), 1, {1: (Fraction(2), 1)}, [1])
    assert (spec.a, spec.factors) == (4, ((1, (2, 1)),))
    assert all(type(x) is int for x in _coefficients(spec))
    members = [*ALL_FAMILY, *LARGE_PRIME_FAMILY.values(), BOUNDED_CHAMBER_MEMBER]
    for s0, a, b, factors, part_a, _ in members:
        spec = make_spec(s0, a, b, factors, part_a)
        assert all(type(x) is int for x in _coefficients(spec)), spec


def test_validate_spec_reads_a_one_shot_part_a_once():
    # the checks and the spec see the same partA, also from an iterator
    spec = make_spec([2], 1, 3, {1: (1, 0), 2: (1, 1)}, iter([1]))
    assert spec.part_a == frozenset({1})
    with pytest.raises(SpecValidationError, match="unknown factor indices"):
        make_spec([2], 1, 3, {1: (1, 0)}, iter([5]))


def test_specs_are_equal_and_hashed_by_their_five_fields():
    spec, same = (make_spec([2], 5, 1, {1: (1, 0), 2: (1, 3)}, [1]) for _ in range(2))
    assert spec.s_bad and "s_bad" in vars(spec)  # a cached table, not a field
    assert spec == same and hash(spec) == hash(same) and len({spec, same}) == 1
    assert spec != make_spec([2], 5, 1, {1: (1, 0), 2: (1, 3)}, [2])
    assert spec != (spec.s0, spec.a, spec.b, spec.factors, spec.part_a)
    assert str(spec) == ("SurfaceSpec(s0=(Place(real), Place(2)), a=5, b=1, "
                         "factors=((1, (1, 0)), (2, (1, 3))), part_a=frozenset({1}))")


def test_s_bad_running_example(running_spec):
    assert [v.p for v in compute_s_bad(running_spec)] == [2, 3]


def test_s_bad_contains_2_unless_in_s0():
    spec = make_spec([], 1, 1, {1: (1, 0)}, [1])
    assert 2 in {v.p for v in compute_s_bad(spec)}
    spec2 = make_spec([2], 1, 1, {1: (1, 0)}, [1])
    assert 2 not in {v.p for v in compute_s_bad(spec2)}


def test_s_bad_single_factor_no_covering():
    # one linear factor always takes unit values, so condition (4) never fires
    spec = make_spec([2], 1, 1, {1: (1, 0)}, [1])
    assert compute_s_bad(spec) == ()


def test_s_bad_covering_prime():
    # p_J = t(t+1): every residue mod 2 is a root
    spec = make_spec([], 1, 1, {1: (1, 0), 2: (1, 1)}, [1])
    assert 2 in {v.p for v in compute_s_bad(spec)}


def test_s_bad_covering_prime_above_2():
    # p_J = t(t+1)(t+2) with 2 in S0: every residue mod 3 is a root
    spec = make_spec([2], 1, 1, {1: (1, 0), 2: (1, 1), 3: (1, 2)}, [1])
    assert [v.p for v in compute_s_bad(spec)] == [3]


def test_s_bad_matches_its_definition():
    rng = random.Random(13)
    checked = 0
    while checked < 150:
        n = rng.randint(1, 6)
        s0 = rng.choice([[], [2], [2, 3], [2, 5]])
        factors = {i: (rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(-12, 12))
                   for i in range(1, n + 1)}
        raw = (s0, rng.choice([-3, -1, 1, 2, 5]), rng.choice([-2, 1, 3, 7]), factors, [1])
        if spec_violations([REAL] + [Place.finite(p) for p in s0], *raw[1:]):
            continue
        spec = make_spec(*raw)
        assert {v.p for v in compute_s_bad(spec)} == s_bad_reference(spec), raw
        checked += 1


@st.composite
def _specs_over_a_large_prime(draw):
    """Specs over S0 = {2, q} with coefficients times powers of q, so that
    the constants carry q's: for q = 1009, above the primes that factorize
    divides out by trial, a q^2 in a cross-resultant reaches its Pollard rho
    stage."""
    q = draw(st.sampled_from([3, 211, 1009]))

    def s0_integer(numerators):
        return st.builds(lambda n, k: n * q**k, numerators, st.integers(0, 2))

    n = draw(st.integers(1, 5))
    factors = {i: (draw(s0_integer(st.sampled_from([-6, -5, -2, -1, 1, 3, 7]))),
                   draw(s0_integer(st.integers(-60, 60)))) for i in range(1, n + 1)}
    a, b = (draw(s0_integer(st.sampled_from([-3, -1, 1, 2, 5]))) for _ in range(2))
    part_a = draw(st.sets(st.sampled_from(sorted(factors))))
    raw = ([2, q], a, b, factors, part_a)
    assume(not spec_violations([REAL, Place.finite(2), Place.finite(q)], *raw[1:]))
    return make_spec(*raw)


@given(_specs_over_a_large_prime())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_integer_constants_match_the_fraction_formulas(spec):
    pairs = [(i, j) for k, i in enumerate(spec.indices) for j in spec.indices[k + 1:]]
    assert list(spec.cross_resultants) == pairs
    for (i, j), r in spec.cross_resultants.items():
        assert r == cross_resultant_reference(spec, i, j)
    # factorize sees each quantity, in order
    with mock.patch.object(surface, "factorize", wraps=surface.factorize) as factored:
        assert {v.p for v in compute_s_bad(spec)} == s_bad_reference(spec)
    expected = factored_numerators_reference(spec)
    assert [call.args[0] for call in factored.call_args_list] == expected
    for i in spec.indices:
        for j in spec.indices:
            if j != i:
                value = factor_value_reference(spec, j, spec.root(i))
                assert spec.root_masks[i, j] == class_mask(value, spec.basis_primes)


def test_s_bad_leading_coefficient_prime():
    spec = make_spec([2], 1, 1, {1: (5, 1), 2: (1, 1)}, [1])
    assert 5 in {v.p for v in compute_s_bad(spec)}


def test_s_bad_names_the_cross_resultant_past_the_primality_range():
    # c_1*d_2 - c_2*d_1 = M + 10 with M = _MR_LIMIT: the error names the
    # cross-resultant, the number that cannot be factored
    spec = make_spec([2], 1, 1, {1: (1, 1), 2: (1, _MR_LIMIT + 11)}, [1])
    with pytest.raises(SpecValidationError) as excinfo:
        spec.s_bad
    assert excinfo.value.violations == [
        "c_1*d_2 - c_2*d_1 = 3317044064679887385961991 cannot be factored within "
        "the certified primality range (n < 3.317e+24)"]


def test_s_bad_primes_are_proved_once(monkeypatch):
    # factorize proves the cross-resultant 1000003 with is_prime (it passes
    # trial division) and finds 5 | d by trial division; the S_bad places
    # are built without proving either again, while Place(p) still proves p
    proved = []
    real = arith.is_prime

    def counted(n):
        proved.append(n)
        return real(n)

    monkeypatch.setattr(arith, "is_prime", counted)
    monkeypatch.setattr(surface, "is_prime", counted)
    spec = make_spec([2], 5, 1, {1: (1, 0), 2: (1, 1_000_003)}, [1])
    assert [v.p for v in spec.s_bad] == [5, 1_000_003]
    assert [proved.count(v.p) for v in spec.s_bad] == [0, 1]
    for make in (Place, Place.finite):
        with pytest.raises(ValueError, match="not prime"):
            make(1_000_001)  # 101 * 9901
        assert {make(1_000_003)} == {Place.proved(1_000_003)}
    assert proved.count(1_000_003) == 3


def test_s_bad_is_computed_once_per_spec(monkeypatch):
    calls = []

    def counted(spec):
        calls.append(spec)
        return compute_s_bad(spec)

    monkeypatch.setattr(surface, "compute_s_bad", counted)
    spec, point, _ = family_point(5)
    assert calls == []  # validation does not compute S_bad
    descend(spec, point, DescentBounds(solve_each_fiber=False, height=50))
    assert calls == [spec]
    assert spec.s_bad == compute_s_bad(spec)
    assert spec.basis_primes == (2, 5)


def test_brauer_constants_are_built_once_per_spec(monkeypatch):
    # the rows of the point and of every place a reduction inserts read the
    # constants, and so do the prime scans and the good-place criterion
    calls = []
    real = SurfaceSpec.fiber_coeffs

    def counted(self, t):
        calls.append(Fraction(t))
        return real(self, t)

    monkeypatch.setattr(SurfaceSpec, "fiber_coeffs", counted)
    spec, point, _ = family_point(REDUCTION_MEMBERS[0])
    cert = descend(spec, point, DescentBounds(solve_each_fiber=False, height=50))
    assert any(entry["step"] == "reduce_dual_selmer" for entry in cert.trace)
    roots = sorted(spec.root(i) for i in spec.indices)
    assert sorted(t for t in calls if t in roots) == roots


# every table of a spec, each computed at first read (surface._lazy_table)
SPEC_TABLES = ("d", "indices", "forms", "partition", "_tables", "s_bad", "basis_primes",
               "cross_resultants", "a_mask", "d_mask", "root_masks", "brauer_constants")


def test_spec_tables_are_computed_once_per_spec(monkeypatch):
    """A descent and every later read compute each table once, stored under
    its name; the class attribute of a table keeps its function as .func."""
    lazy = type(SurfaceSpec.__dict__["d"])
    assert {name for name, attr in vars(SurfaceSpec).items()
            if type(attr) is lazy} == set(SPEC_TABLES)
    calls = []
    for name in SPEC_TABLES:
        table = getattr(SurfaceSpec, name)
        assert table.func.__name__ == name

        def counted(spec, real=table.func):
            calls.append(real.__name__)
            return real(spec)

        counted.__name__ = name
        monkeypatch.setattr(table, "func", counted)
    spec, point, _ = family_point(REDUCTION_MEMBERS[0])
    descend(spec, point, DescentBounds(solve_each_fiber=False, height=50))
    for name in SPEC_TABLES:
        assert getattr(spec, name) is vars(spec)[name] is getattr(spec, name)
    assert sorted(calls) == sorted(SPEC_TABLES)


def test_no_module_uses_cached_property():
    """functools.cached_property locks on each first read before Python
    3.12; the spec tables go through surface._lazy_table instead."""
    src = os.path.dirname(surface.__file__)
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                assert "cached_property" not in {alias.name for alias in node.names}, name
            elif isinstance(node, ast.Attribute):
                assert node.attr != "cached_property", name


def test_root_masks_running_example(running_spec):
    # p_2(0) = 1 and p_1(-1) = -1, over -1 (bit 0), 2 and 3
    assert running_spec.basis_primes == (2, 3)
    assert running_spec.root_masks == {(1, 2): 0, (2, 1): 1}


def test_compute_s_union(running_spec):
    s = compute_s(running_spec, ())
    assert [str(v) for v in s] == ["real", "2", "3"]
    s = compute_s(running_spec, (Place.finite(7),))
    assert [str(v) for v in s] == ["real", "2", "3", "7"]


def test_fiber_examples(running_spec):
    f = fiber(running_spec, 1)
    assert (f.aA, f.bB, f.torus_d) == (2, 6, -12)
    assert f.aA * f.bB == -f.torus_d
    f = fiber(running_spec, -2)
    assert (f.aA, f.bB, f.torus_d) == (-4, -3, -12)
    with pytest.raises(DegenerateFiberError):
        fiber(running_spec, 0)


def test_fiber_torsor_relation(running_spec):
    for t in (Fraction(1, 3), 5, -7, Fraction(-9, 2)):
        f = fiber(running_spec, t)
        assert f.aA * f.bB == -f.torus_d


def test_fiber_coeffs_random_specs():
    rng = random.Random(9)
    checked = 0
    while checked < 300:
        factors = {i: (rng.choice([-3, -2, -1, 1, 2, 5]), rng.randint(-9, 9))
                   for i in range(1, rng.randint(1, 4) + 1)}
        part_a = [i for i in factors if rng.random() < 0.5]
        a, b = (rng.choice([-6, -2, -1, 1, 2, 3, 5]) for _ in range(2))
        try:
            spec = make_spec([3], a, b, factors, part_a)
        except SpecValidationError:
            continue

        def by_hand(coefficient, subset, t):
            value = Fraction(coefficient)
            for i in subset:
                c, d = factors[i]
                value *= c * t + d
            return value

        part_b = [i for i in factors if i not in part_a]
        t = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 3, 9]))
        aA, bB = spec.fiber_coeffs(t)
        assert (aA, bB) == (by_hand(a, part_a, t), by_hand(b, part_b, t))
        assert aA * bB == spec.d * spec.product_value(spec.indices, t)
        if aA * bB == 0:
            with pytest.raises(DegenerateFiberError):
                fiber(spec, t)
        else:
            f = fiber(spec, t)
            assert (f.aA, f.bB, f.torus_d) == (aA, bB, -spec.d * by_hand(1, factors, t))
        for i, (c, d) in factors.items():
            root = Fraction(-d, c)
            expected = by_hand(b, part_b, root) if i in part_a else by_hand(a, part_a, root)
            assert spec.brauer_constants[i] == expected != 0
        checked += 1


def _s0_multiples(numerators):
    """Integers for S0 = {2, 3}: a numerator times 2^k or 3^k."""
    return st.builds(lambda n, p, k: n * p**k, numerators,
                     st.sampled_from([2, 3]), st.integers(0, 5))


_RATIONALS = st.one_of(
    st.integers(-10**6, 10**6),
    st.builds(Fraction, st.integers(-10**40, 10**40), st.integers(1, 10**12)),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
)


@st.composite
def _fibration_cases(draw):
    """(spec, t, x, y): S0 = {2, 3}, integer coefficients with powers of 2
    and 3, and t a rational of either sign, sometimes a root of p_J."""
    n = draw(st.integers(1, 4))
    factors = {i: (draw(_s0_multiples(st.sampled_from([-7, -5, -2, -1, 1, 3, 4, 11]))),
                   draw(_s0_multiples(st.integers(-60, 60)))) for i in range(1, n + 1)}
    part_a = draw(st.sets(st.sampled_from(sorted(factors))))
    a, b = (draw(_s0_multiples(st.integers(1, 30).map(lambda k: k * (-1) ** k)))
            for _ in range(2))
    assume(not spec_violations([REAL, Place.finite(2), Place.finite(3)], a, b, factors, part_a))
    spec = make_spec([2, 3], a, b, factors, part_a)
    roots = [spec.root(i) for i in spec.indices]
    t = draw(st.one_of(_RATIONALS, st.sampled_from(roots)))
    return spec, t, draw(_RATIONALS), draw(_RATIONALS)


@given(_fibration_cases())
@settings(max_examples=200, deadline=None, derandomize=True)
def test_fibration_matches_the_fraction_formulas(case):
    spec, t, x, y = case
    for i in spec.indices:
        assert spec.factor_value(i, t) == factor_value_reference(spec, i, t)
    for k in range(len(spec.indices) + 1):
        subset = spec.indices[:k]
        assert spec.product_value(subset, t) == product_value_reference(spec, subset, t)
    aA, bB = fiber_coeffs_reference(spec, t)
    assert spec.fiber_coeffs(t) == (aA, bB)
    residual = residual_reference(spec, x, y, t)
    assert evaluate_point(spec, x, y, t) == residual
    place = Place.finite(3)
    problems = PartialAdelicPoint(spec, {place: LocalPoint.make(x, y, t, 10**6)}).validate()
    if aA * bB == 0:
        assert problems == [f"{place}: d*p_J(t_v) = 0"]
        with pytest.raises(DegenerateFiberError):
            fiber(spec, t)
        return
    expected = [] if residual == 0 else [f"{place}: residual {residual} below stated precision"
                                         f" {10**6}"]
    assert problems == expected
    f = fiber(spec, t)
    assert (f.t, f.aA, f.bB, f.torus_d) == (t, aA, bB, -aA * bB)


def test_evaluate_point(running_spec):
    assert evaluate_point(running_spec, 1, 0, 1) != 0
    assert evaluate_point(running_spec, 1, 0, Fraction(1, 2)) == 0
    # scaling x by -1 preserves the residual
    assert evaluate_point(running_spec, -1, 0, Fraction(1, 2)) == 0


def test_spec_file_round_trip(running_spec):
    text = serialize_spec(running_spec)
    again = parse_spec_text(text)
    assert again == running_spec
    assert serialize_spec(again) == text
    assert spec_hash(again) == spec_hash(running_spec)


_PAST_RANGE = 2**89 - 1  # a prime past the certified primality range


@st.composite
def _raw_specs(draw):
    """Raw specifications as the input layer meets them: ints and integral
    Fractions, and one time in five each of these defects: repeated or
    missing places, a zero a or b, zero and proportional factors, shared
    primes, a gcd past the primality range, too many factors, unknown partA
    indices."""
    def rarely():
        return draw(st.integers(0, 4)) == 0

    finite = draw(st.sets(st.sampled_from([2, 3, 5])))
    s0 = [REAL] + [Place.finite(p) for p in sorted(finite)]
    if rarely():
        s0 = draw(st.lists(st.sampled_from(s0 + [Place.finite(7)]), max_size=5))

    def coefficient(numerators):
        n = draw(numerators)
        return Fraction(n) if rarely() else n

    a, b = (coefficient(st.integers(-30, 30).filter(lambda n: n or rarely())) for _ in "ab")
    n = MAX_FACTORS + 1 if rarely() and rarely() else draw(st.integers(1, 5))
    factors = {}
    for i in draw(st.lists(st.integers(-3, 20), min_size=n, max_size=n, unique=True)):
        c = coefficient(st.sampled_from([-3, -2, -1, 1, 1, 2, 3]))
        d = coefficient(st.integers(-30, 30))
        if rarely():
            kind = draw(st.sampled_from(["zero", "proportional", "shared", "past range"]))
            if kind == "zero":
                c = 0
            elif kind == "proportional" and factors:
                base, k = factors[draw(st.sampled_from(sorted(factors)))], coefficient(st.integers(-3, 3))
                c, d = base[0] * k, base[1] * k
            elif kind == "shared":
                q = draw(st.sampled_from([2, 3, 7, 13]))
                c, d = c * q, d * q
            elif kind == "past range":
                c, d = c * _PAST_RANGE, d * _PAST_RANGE
        factors[i] = (c, d)
    part_a = draw(st.lists(st.sampled_from([*factors, 99] if rarely() else list(factors)),
                           max_size=4))
    return s0, a, b, factors, part_a


@given(_raw_specs())
@settings(max_examples=400, deadline=None, derandomize=True)
def test_input_layer_matches_the_fraction_forms(raw):
    """On integer coefficients spec_violations gives the messages of its
    Fraction form, in order; validate_spec raises them or builds the spec of
    the int values, and spec files parse and serialize as the Fraction forms
    do."""
    s0, a, b, factors, part_a = raw
    problems = spec_violations(*raw)
    assert problems == spec_violations_reference(*raw)
    try:
        spec = validate_spec(*raw)
    except SpecValidationError as exc:
        assert exc.violations == problems
    else:
        assert not problems
        assert spec == SurfaceSpec(
            s0=tuple(sorted(s0)), a=int(a), b=int(b),
            factors=tuple((i, (int(c), int(d))) for i, (c, d) in sorted(factors.items())),
            part_a=frozenset(part_a))
        assert all(type(x) is int for x in _coefficients(spec))
        assert serialize_spec(spec) == serialize_spec_reference(spec)
    if not (s0 and factors):
        return
    part_a = list(dict.fromkeys(part_a))
    text = "".join([f"s0 {' '.join(map(str, s0))}\n", f"a {a}\nb {b}\n",
                    *(f"factor {i} {c} {d}\n" for i, (c, d) in factors.items()),
                    "partA" + "".join(f" {i}" for i in part_a) + "\n"])
    expected = spec_violations_reference(s0, a, b, factors, part_a)
    try:
        spec = parse_spec_text(text)
    except SpecValidationError as exc:
        assert exc.violations == expected
    else:
        assert not expected
        assert serialize_spec(spec) == serialize_spec_reference(spec)


@st.composite
def _s0_integer_specs(draw):
    """Raw specs over S0 = {2} or {2, 3} with S0-integer coefficients: a
    numerator over a power of a prime of S0."""
    s0 = draw(st.sampled_from([[2], [2, 3]]))

    def s0_integer(numerators):
        return st.builds(lambda n, p, k: Fraction(n, p**k), numerators,
                         st.sampled_from(s0), st.integers(0, 3))

    n = draw(st.integers(1, 4))
    factors = {i: (draw(s0_integer(st.sampled_from([-7, -5, -2, -1, 1, 3, 4, 11]))),
                   draw(s0_integer(st.integers(-60, 60)))) for i in range(1, n + 1)}
    part_a = draw(st.sets(st.sampled_from(sorted(factors))))
    a, b = (draw(s0_integer(st.integers(1, 30).map(lambda k: k * (-1) ** k))) for _ in range(2))
    return [REAL] + [Place.finite(p) for p in s0], a, b, factors, part_a


@given(_s0_integer_specs(), _RATIONALS, _RATIONALS, _RATIONALS)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_integral_model_keeps_the_surface(raw, x, y, t):
    """A spec with S0-integer coefficients that passes the S0-integer rules
    has an integral model that passes validate_spec, and (x, y, t) has the
    residual on the raw surface, in Fraction arithmetic, that
    (x/m_a, y/m_b, t) has on the model."""
    s0, a, b, factors, part_a = raw
    assume(not spec_violations_reference(*raw))
    a_model, b_model, model_factors, (m_a, m_b) = integral_model_reference(a, b, factors, part_a)
    model = validate_spec(s0, a_model, b_model, model_factors, part_a)
    t = Fraction(t)

    def raw_value(scale, part):
        return Fraction(scale) * math.prod((factors[i][0] * t + factors[i][1] for i in part),
                                           start=Fraction(1))

    part_b = [i for i in factors if i not in part_a]
    residual = raw_value(a, part_a) * Fraction(x) ** 2 + raw_value(b, part_b) * Fraction(y) ** 2 - 1
    assert evaluate_point(model, Fraction(x, m_a), Fraction(y, m_b), t) == residual
    # an integral spec is its own model; any other is rejected
    coeffs = [a, b, *(c for cd in factors.values() for c in cd)]
    if all(Fraction(c).denominator == 1 for c in coeffs):
        assert validate_spec(*raw) == model
    else:
        with pytest.raises(SpecValidationError, match="is not an integer"):
            validate_spec(*raw)


def test_spec_file_parsing_errors():
    valid = "s0 real\na 1\nb 1\nfactor 1 1 0\npartA 1\n"
    cases = [
        ("s0 real\na 1\n", "missing keys"),
        ("s0 real\nbogus 1\n", "unknown key"),
        ("s0 real\na 1\nb 1\nfactor 1 1 0\nfactor 1 1 1\npartA 1\n", "duplicate factor"),
        # extra or missing tokens on a, b and factor lines
        (valid.replace("a 1", "a 1 junk"), "line 2: a line has 2 values, expected 1"),
        (valid.replace("b 1", "b 1 2"), "line 3: b line has 2 values, expected 1"),
        (valid.replace("factor 1 1 0", "factor 1 1 0 99"),
         "line 4: factor line has 4 values, expected 3"),
        (valid.replace("factor 1 1 0", "factor 1 1"), "line 4: factor line has 2 values"),
        # a repeated key would silently override the earlier line
        (valid + "a 7\n", "line 6: repeated key 'a'"),
        (valid + "b 7\n", "line 6: repeated key 'b'"),
        (valid + "s0 real 2\n", "line 6: repeated key 's0'"),
        (valid + "partA\n", "line 6: repeated key 'partA'"),
        # a repeated index on the partA line would silently collapse
        (valid.replace("partA 1", "partA 1 1"), "line 5: repeated index 1 on partA"),
    ]
    for text, message in cases:
        with pytest.raises(SpecValidationError, match=message):
            parse_spec_text(text)
    parse_spec_text(valid + "factor 2 1 1\n")  # factor is the one repeatable key


def test_spec_file_comments_and_empty_part():
    text = "# comment\ns0 real 2\na 1\nb -1\nfactor 1 1 0  # p1 = t\npartA\n"
    spec = parse_spec_text(text)
    assert spec.part_a == frozenset()
    assert spec.partition == ((), (1,))


def test_point_file_round_trip(running_spec):
    text = "real 1 0 1/2 10\n2 1 0 1/2 10\n"
    point = parse_point_file(text, running_spec)
    assert point.entries[REAL].t == Fraction(1, 2)
    assert serialize_point(point) == text
    assert parse_point_file(serialize_point(point), running_spec).entries == point.entries
    # comments and blank lines are skipped
    commented = ("# the running point\n\nreal 1 0 1/2 10  # x y t precision\n"
                 "   \n# at 2\n2 1 0 1/2 10\n\n")
    assert parse_point_file(commented, running_spec).entries == point.entries


def test_partial_adelic_point_validation(running_spec):
    good = PartialAdelicPoint(
        running_spec,
        {
            REAL: LocalPoint.make(1, 0, Fraction(1, 2), 10),
            Place.finite(3): LocalPoint.make(1, 0, Fraction(1, 2), 1),
        },
    )
    problems = good.validate()
    # at 3 the triple is exact so the residual check passes, but t = 1/2 is
    # 3-integral and the point is exact: no problems at all
    assert problems == []


def test_partial_adelic_point_rejects_degenerate(running_spec):
    bad = PartialAdelicPoint(
        running_spec, {REAL: LocalPoint.make(1, 0, 0, 5)}
    )
    assert any("d*p_J" in p for p in bad.validate())


def test_partial_adelic_point_integrality(running_spec):
    bad = PartialAdelicPoint(
        running_spec,
        {Place.finite(3): LocalPoint.make(Fraction(1, 3), 0, 1, 2)},
    )
    assert any("not v-integral" in p for p in bad.validate())


def test_partial_adelic_point_precision(running_spec):
    # residual at t=1, (1,0) is 1, valuation 0 < claimed precision
    bad = PartialAdelicPoint(
        running_spec, {Place.finite(3): LocalPoint.make(1, 0, 1, 2)}
    )
    assert any("below stated precision" in p for p in bad.validate())


def test_a_local_point_is_evaluated_once_for_all_its_places(monkeypatch):
    """One local point at k places evaluates the p_i(t) |J| times, not
    |J|*k, whatever the Fraction objects and precisions of its entries; a
    second local point adds |J|.  Each row is that of a point holding its
    place alone."""
    spec, point, _ = family_point(REDUCTION_MEMBERS[0])
    pt = point.entries[REAL]
    entries = {v: LocalPoint.make(pt.x, pt.y, pt.t, pt.precision + k)
               for k, v in enumerate(point.places)}
    w = next(Place.finite(p) for p in (3, 5, 7, 11, 13) if Place.finite(p) not in entries)
    calls = []
    real = SurfaceSpec.factor_value

    def counted(self, i, t):
        calls.append(t)
        return real(self, i, t)

    monkeypatch.setattr(SurfaceSpec, "factor_value", counted)
    shared = PartialAdelicPoint(spec, entries)
    assert len(entries) >= 3 and len(calls) == len(spec.indices)
    calls.clear()
    two = PartialAdelicPoint(spec, {**entries, w: LocalPoint.make(pt.x, pt.y, pt.t + 1, 1)})
    assert len(calls) == 2 * len(spec.indices)
    for v, entry in two.entries.items():
        assert PartialAdelicPoint(spec, {v: entry}).rows[v] == two.rows[v]
        assert v == w or shared.rows[v] == two.rows[v]


def test_unique_degenerate_factor_at_good_places():
    # away from S0 and S_bad at most one factor can have positive valuation
    import random

    from torusdescent.arith import is_prime, valuation

    rng = random.Random(31)
    specs = [
        make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1]),
        make_spec([2], 1, 5, {1: (1, 0), 2: (1, 2), 3: (3, 1)}, [1]),
        make_spec([], -2, 3, {1: (1, 2), 2: (2, 1)}, [2]),
    ]
    for _ in range(300):
        spec = rng.choice(specs)
        bad = {v.p for v in compute_s_bad(spec)} | set(spec.s0_finite_primes)
        p = rng.randint(5, 97)
        if not is_prime(p) or p in bad:
            continue
        t = rng.randint(-80, 80)
        degenerate = [
            i
            for i in spec.indices
            if spec.factor_value(i, t) == 0
            or valuation(spec.factor_value(i, t), p) > 0
        ]
        assert len(degenerate) <= 1, (spec, p, t)


def test_real_entry_requires_solubility():
    spec = make_spec([], -1, -1, {1: (1, 0), 2: (1, 1)}, [1])
    # at t = 1 both coefficients are negative: no real points
    bad = PartialAdelicPoint(spec, {REAL: LocalPoint.make(0, 0, 1, 5)})
    assert any("no real points" in p for p in bad.validate())
