import itertools
import random
from fractions import Fraction
from functools import cached_property

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from torusdescent import conditiond, gf2, surface
from torusdescent.arith import class_from_mask, class_mask, factorize
from torusdescent.conditiond import (
    GElement,
    Lattice,
    check_condition_d,
    constant_mask,
    in_g_i,
    target_generators,
    target_mask,
)
from torusdescent.surface import (
    REAL,
    Place,
    SurfaceSpec,
    compute_s_bad,
    make_spec,
    serialize_spec,
    spec_violations,
)

from fixtures import ALL_FAMILY, family_spec
from oracles import (
    check_condition_d_reference,
    d_constant,
    d_constant_dual,
    encode,
    expected_g_d_generators,
    factored_numerators_reference,
    g_d_bruteforce,
    g_element,
    g_identity,
    g_is_identity,
    g_mul,
    membership_reference,
    span_of,
    sqfree,
    target_generators_reference,
)
from test_pipeline_fuzz import _random_spec


@pytest.fixture
def running_spec():
    return make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])


def _in_g_i(spec, x: GElement, i, dual=False):
    """in_g_i on x, encoded in the spec lattice with the other primes of x
    appended."""
    extra = sorted(set(factorize(x.c)) - set(spec.basis_primes))
    lattice = Lattice((*spec.basis_primes, *extra), spec.indices)
    return in_g_i(spec, encode(lattice, x), i, dual)


def test_d_constant_examples(running_spec):
    assert d_constant(running_spec, 1, {2}) == 1  # p2(0)
    assert d_constant(running_spec, 2, {2}) == -6  # d * p1(-1)
    assert d_constant_dual(running_spec, 2, {2}) == 6
    assert d_constant(running_spec, 1, set()) == 1  # empty product
    assert d_constant(running_spec, 1, {1}) == 6  # d * p_emptyset


def test_d_constant_dual_only_differs_inside(running_spec):
    for i in running_spec.indices:
        for subset in (set(), {1}, {2}, {1, 2}):
            plain = d_constant(running_spec, i, subset)
            dual = d_constant_dual(running_spec, i, subset)
            if i in subset:
                assert dual == -plain
            else:
                assert dual == plain


def test_group_law():
    # the group law of G is the XOR of lattice masks
    x = g_element(6, {1})
    y = g_element(-10, {1, 2})
    lattice = Lattice((2, 3, 5), (1, 2))
    z = lattice.decode(encode(lattice, x) ^ encode(lattice, y))
    assert z == g_mul(x, y)
    assert z.c == sqfree(-60)
    assert z.poly == frozenset({2})
    assert g_is_identity(g_mul(z, z))


def test_generators_always_members(running_spec):
    spec = running_spec
    for gen in target_generators(spec):
        assert all(in_g_i(spec, gen, i) for i in spec.indices)
    for gen in target_generators(spec, dual=True):
        assert all(in_g_i(spec, gen, i, dual=True) for i in spec.indices)
    assert all(in_g_i(spec, 0, i) for i in spec.indices)


def test_membership_square_invariance(running_spec):
    rng = random.Random(3)
    for _ in range(30):
        value = rng.choice([1, -1, 2, 3, 5, -6, 30])
        subset = frozenset(rng.sample([1, 2], rng.randint(0, 2)))
        square = rng.choice([1, 4, 9, 49]) * rng.choice([1, Fraction(1, 25)])
        x = g_element(value, subset)
        y = g_element(value * square, subset)
        for i in running_spec.indices:
            assert _in_g_i(running_spec, x, i) == _in_g_i(running_spec, y, i)
            assert _in_g_i(running_spec, x, i, True) == _in_g_i(running_spec, y, i, True)


def _assert_generators_match_reference(spec):
    for dual in (False, True):
        assert expected_g_d_generators(spec, dual) == target_generators_reference(spec, dual)


@pytest.mark.parametrize("member", range(len(ALL_FAMILY)))
def test_expected_generators_match_reference_family(member):
    _assert_generators_match_reference(family_spec(member))


def test_condition_d_running_example(running_spec):
    report = check_condition_d(running_spec)
    assert report.holds
    assert set(report.g_d) == set(span_of(expected_g_d_generators(running_spec)))
    assert set(report.g_d_dual) == {
        g_identity(),
        g_element(-6, {1, 2}),
    }


def test_condition_d_failure_with_witness():
    # |J| = 1 with A = {1}: the groups collapse iff b is a square
    spec = make_spec([2], 2, -1, {1: (1, 0)}, [1])
    report = check_condition_d(spec)
    assert not report.holds
    assert report.witnesses
    # every witness genuinely satisfies all memberships but escapes the span
    for x in report.witnesses:
        in_plain = all(_in_g_i(spec, x, i) for i in spec.indices)
        in_dual = all(_in_g_i(spec, x, i, dual=True) for i in spec.indices)
        assert in_plain or in_dual


def test_single_factor_bound():
    # |J| = 1: at most 2 candidate classes for each of the 2 subsets
    spec = make_spec([2], 2, 1, {1: (1, 0)}, [1])
    report = check_condition_d(spec)
    assert len(report.g_d) <= 4
    assert len(report.g_d_dual) <= 4


SPECS = [
    ([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1]),
    ([2], 2, -1, {1: (1, 0)}, [1]),
    ([2], 1, 1, {1: (1, 3)}, [1]),
    ([], 1, -2, {1: (1, 1), 2: (1, -1)}, [1]),
    ([2], 3, 1, {1: (1, 0), 2: (1, 2)}, [1]),
    ([], 5, 2, {1: (1, 0), 2: (1, 1)}, [1, 2]),
    ([2], 2, 5, {1: (1, 0), 2: (1, 1)}, []),
    ([], 1, 6, {1: (3, 1), 2: (1, 1)}, [1]),
    ([2, 3], 2, 3, {1: (1, 0), 2: (1, 1), 3: (1, 2)}, [1, 2]),
    ([], -2, 3, {1: (1, 2), 2: (2, 1)}, [2]),
]


@pytest.mark.parametrize("s0,a,b,factors,part_a", SPECS)
def test_intersection_matches_bruteforce(s0, a, b, factors, part_a):
    spec = make_spec(s0, a, b, factors, part_a)
    report = check_condition_d(spec)
    assert set(report.g_d) == g_d_bruteforce(spec, dual=False)
    assert set(report.g_d_dual) == g_d_bruteforce(spec, dual=True)


@st.composite
def small_specs(draw, max_factors=3, d_bound=5):
    """Raw specs with |J| <= max_factors and coefficients small enough for the
    oracle: c_i of either sign, and c_i, d_i with a factor 2 or 4 when 2
    lies in S0."""
    s0 = draw(st.sampled_from([(), (2,), (2, 3)]))
    a, b = (draw(st.sampled_from([x for x in range(-6, 7) if x])) for _ in range(2))
    n = draw(st.integers(1, max_factors))
    scales = st.sampled_from([1, 1, 2, 4] if 2 in s0 else [1])
    factors = {i: (draw(st.sampled_from([-3, -2, -1, 1, 2, 3])) * draw(scales),
                   draw(st.integers(-d_bound, d_bound)) * draw(scales))
               for i in range(1, n + 1)}
    part_a = [i for i in factors if draw(st.booleans())]
    return s0, a, b, factors, part_a


def _valid(raw) -> bool:
    s0, a, b, factors, part_a = raw
    return not spec_violations([REAL] + [Place.finite(p) for p in s0], a, b, factors, part_a)


@given(small_specs())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_intersection_matches_bruteforce_random(raw):
    assume(_valid(raw))
    test_intersection_matches_bruteforce(*raw)


@given(small_specs(max_factors=6, d_bound=30))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_expected_generators_match_reference_random(raw):
    assume(_valid(raw))
    _assert_generators_match_reference(make_spec(*raw))


@given(small_specs(max_factors=4))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_constant_masks_match_rational_constants(raw):
    """Every D_i^{J'} and Dhat_i^{J'} read off root_masks has the class of the
    rational product, and so does every spec.brauer_constants entry.  The
    specs draw negative coefficients and leading coefficients with a factor
    2 or 4 in S0, so root_masks meets the sign of the reversed pair and the
    class of the leading coefficient."""
    assume(_valid(raw))
    spec = make_spec(*raw)
    primes = spec.basis_primes
    for i in spec.indices:
        for j in spec.indices:
            if j != i:
                value = spec.factor_value(j, spec.root(i))
                assert spec.root_masks[i, j] == class_mask(value, primes)
        for size in range(len(spec.indices) + 1):
            for subset in map(frozenset, itertools.combinations(spec.indices, size)):
                for dual, constant in ((False, d_constant), (True, d_constant_dual)):
                    expected = class_mask(constant(spec, i, subset), primes)
                    assert constant_mask(spec, i, subset, dual) == expected
        left, part = (spec.a, spec.part_a) if i not in spec.part_a else (spec.b, spec.partition[1])
        mask = class_mask(left, primes)
        for j in part:
            mask ^= spec.root_masks[i, j]
        assert class_mask(spec.brauer_constants[i], primes) == mask
        assert target_mask(spec, i) == mask


def _g_d_too_large_spec(n):
    """p_1 = t, p_j = t - (j-1)^2, A = {1}, b = a*(-1)^|B| with a = 3.

    Every target class [a*D_i^A] is [3], so ([3], {}) lies in G_D outside
    its target <([a], A), ([d], J)>: Condition (D) fails.
    """
    factors = {1: (1, 0), **{j: (1, -((j - 1) ** 2)) for j in range(2, n + 1)}}
    return make_spec([2], 3, 3 * (-1) ** (n - 1), factors, [1])


@pytest.mark.parametrize("n", [12, 16])
def test_wide_j_known_failure(n):
    spec = _g_d_too_large_spec(n)
    report = check_condition_d(spec)
    assert not report.holds
    x = g_element(3, ())
    assert x in report.g_d and x in report.witnesses
    assert set(span_of(expected_g_d_generators(spec))) <= set(report.g_d)
    assert set(span_of(expected_g_d_generators(spec, dual=True))) <= set(report.g_d_dual)
    assert all(_in_g_i(spec, g, i) for g in report.g_d for i in spec.indices)
    assert all(_in_g_i(spec, g, i, dual=True) for g in report.g_d_dual for i in spec.indices)


@pytest.mark.parametrize("s0,a,b,factors,part_a", SPECS)
def test_product_of_generators_identity(s0, a, b, factors, part_a):
    spec = make_spec(s0, a, b, factors, part_a)
    g_a = g_element(spec.a, spec.part_a)
    g_b = g_element(spec.b, spec.partition[1])
    g_d = g_element(spec.d, spec.indices)
    assert g_mul(g_a, g_b) == g_d
    assert set(span_of([g_a, g_d])) == set(span_of([g_a, g_b]))


def test_descent_constants_lie_over_the_spec_basis():
    """Every constant the descent reads a class of has all its primes, to any
    power, among -1 and the finite primes of S0 + S_bad."""
    rng = random.Random(2024)
    specs = [family_spec(k) for k in range(len(ALL_FAMILY))]
    specs += [_random_spec(rng) for _ in range(120)]
    for spec in specs:
        values = [spec.a, spec.b, spec.d]
        for i in spec.indices:
            values.append(spec.brauer_constants[i])
            for j in spec.indices:
                values += [d_constant(spec, i, {j}), d_constant_dual(spec, i, {j})]
        for x in values:
            primes = set(factorize(x.numerator)) | set(factorize(x.denominator))
            assert primes <= set(spec.basis_primes), (serialize_spec(spec), x)
            basis = spec.basis_primes
            assert class_from_mask(class_mask(x, basis), basis) == sqfree(x)


def _assert_matches_reference(spec):
    report, reference = check_condition_d(spec), check_condition_d_reference(spec)
    assert report == reference
    assert str(report) == str(reference)


@given(small_specs(max_factors=8, d_bound=30))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_condition_d_matches_object_reference_random(raw):
    assume(_valid(raw))
    _assert_matches_reference(make_spec(*raw))


@pytest.mark.parametrize("member", range(len(ALL_FAMILY)))
def test_condition_d_matches_object_reference_family(member):
    _assert_matches_reference(family_spec(member))


def test_condition_d_reads_no_fiber_value_and_forms_each_cross_resultant_once(monkeypatch):
    """A cold check_condition_d evaluates no p_i, forms each cross-resultant
    once, factors each quantity of S_bad once and in its order, and takes
    the class of no quantity but a and d with class_mask: the classes of
    the cross-resultants are read off their factorizations."""
    values, builds, factored, classes = [], [], [], []
    real_value = SurfaceSpec.factor_value
    real_cross = SurfaceSpec.__dict__["cross_resultants"].func
    real_factorize, real_class_mask = surface.factorize, surface.class_mask

    def counted_value(self, i, t):
        values.append((i, t))
        return real_value(self, i, t)

    def counted_cross(self):
        builds.append(self)
        return real_cross(self)

    def counted_factorize(n):
        factored.append(n)
        return real_factorize(n)

    def counted_class_mask(x, primes):
        classes.append(x)
        return real_class_mask(x, primes)

    cross = cached_property(counted_cross)
    cross.__set_name__(SurfaceSpec, "cross_resultants")
    monkeypatch.setattr(SurfaceSpec, "factor_value", counted_value)
    monkeypatch.setattr(SurfaceSpec, "cross_resultants", cross)
    # |J| = 3, 3, 8 and 16; t, t+1, t+2 over S0 = {2} makes 3 a
    # residue-covering prime of S_bad
    specs = [family_spec(23), _g_d_too_large_spec(8), _g_d_too_large_spec(16),
             make_spec([2], 1, 3, {1: (1, 0), 2: (1, 1), 3: (1, 2)}, [1])]
    monkeypatch.setattr(surface, "factorize", counted_factorize)
    # conditiond takes no class: every mask it reads is a spec table's
    assert not hasattr(conditiond, "class_mask")
    monkeypatch.setattr(surface, "class_mask", counted_class_mask)
    for spec in specs:
        factored.clear()
        classes.clear()
        check_condition_d(spec)
        assert factored == factored_numerators_reference(spec)
        assert classes and set(classes) <= {spec.a, spec.d}
        assert len(spec.root_masks) == len(spec.indices) * (len(spec.indices) - 1)
        assert compute_s_bad(spec) == spec.s_bad
    assert [len(spec.indices) for spec in specs] == [3, 8, 16, 3]
    assert values == []
    assert builds == specs
    assert 3 in specs[3].basis_primes


def test_spec_keeps_the_derived_tables_and_no_factorization():
    """After check_condition_d a spec holds its fields and the named tables,
    none of them a factorization."""
    for spec in (family_spec(23), _g_d_too_large_spec(16)):
        check_condition_d(spec)
        fields = {"s0", "a", "b", "factors", "part_a"}
        assert set(vars(spec)) - fields == {
            "d", "indices", "forms", "cross_resultants", "_tables", "s_bad",
            "basis_primes", "root_masks", "a_mask", "d_mask"}
        assert tuple(spec._tables) == (spec.s_bad, spec.root_masks)


def test_check_condition_d_decodes_each_reported_element_once(monkeypatch):
    """Every distinct element of G_D and G^D is decoded once, the witnesses
    included; a failing and a holding spec."""
    decoded = []
    real_decode = Lattice.decode

    def counted_decode(self, mask):
        decoded.append(mask)
        return real_decode(self, mask)

    monkeypatch.setattr(Lattice, "decode", counted_decode)
    for spec in (_g_d_too_large_spec(8), family_spec(23)):
        decoded.clear()
        report = check_condition_d(spec)
        lattice = Lattice.of_spec(spec)
        reported = {real_decode(lattice, x) for x in decoded}
        assert len(decoded) == len(reported) == len({*report.g_d, *report.g_d_dual})
        assert set(report.witnesses) <= reported


def test_check_condition_d_builds_one_lattice(monkeypatch):
    """check_condition_d builds the spec lattice once, for a failing and a
    holding spec; target_generators and in_g_i build none."""
    built = []
    real_init = Lattice.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Lattice, "__init__", counted_init)
    for spec in (_g_d_too_large_spec(8), family_spec(23)):
        built.clear()
        check_condition_d(spec)
        assert len(built) == 1
        built.clear()
        for dual in (False, True):
            for x in target_generators(spec, dual):
                assert all(in_g_i(spec, x, i, dual) for i in spec.indices)
        assert built == []


def test_self_checks_catch_a_wrong_kernel(monkeypatch, running_spec):
    # a kernel over the unknowns (J', e) holding e_1 alone, which gives the
    # bare class c = t_1 = [3] ([3] is not in G_D), fails the generator
    # re-check; an empty kernel loses the target generators
    monkeypatch.setattr(gf2, "column_kernel", lambda columns: [0b100])
    with pytest.raises(AssertionError, match=r"kernel generator \[3\] is outside"):
        check_condition_d(running_spec)
    monkeypatch.setattr(gf2, "column_kernel", lambda columns: [])
    with pytest.raises(AssertionError, match="missing from G_D"):
        check_condition_d(running_spec)


@pytest.mark.parametrize("member", range(len(ALL_FAMILY)))
def test_in_g_i_on_a_relative_lattice_matches_the_definition(member):
    """in_g_i on masks of a lattice over the basis primes with three primes
    outside them appended, as a relative lattice appends witness and
    reduction places, agrees with the definition; a class with an outside
    prime is in no G_i."""
    spec = family_spec(member)
    extra = [p for p in (23, 3, 17, 5, 11, 7, 19, 13) if p not in spec.basis_primes][:3]
    lattice = Lattice((*spec.basis_primes, *extra), spec.indices)
    outside = sum(1 << lattice.shift + k for k, p in enumerate(lattice.primes, 1) if p in extra)
    report = check_condition_d(spec)
    rng = random.Random(member)
    masks = [encode(lattice, g) for g in report.g_d + report.g_d_dual]
    masks += [rng.getrandbits(lattice.ncols) & ~(outside if k % 2 else 0) for k in range(60)]
    for dual in (False, True):
        reference = membership_reference(spec, dual)
        for x in masks:
            for i in spec.indices:
                found = in_g_i(spec, x, i, dual)
                assert found == reference(lattice.decode(x), i), (lattice.decode(x), i, dual)
                assert not (found and x & outside)
    assert all(in_g_i(spec, encode(lattice, g), i)
               for g in report.g_d for i in spec.indices)
