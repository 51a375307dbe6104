import random
from fractions import Fraction

import pytest

from torusdescent.arith import (
    REAL,
    Place,
    hilbert_symbol,
    local_mask,
)
from torusdescent.brauer import (
    invariant,
    residue_at,
)
from torusdescent.points import local_solubility
from torusdescent.surface import LocalPoint, PartialAdelicPoint, fiber, make_spec

from oracles import (
    class_mul,
    d_constant,
    factor_values_reference,
    good_place_solubility_reference,
    hilbert_relevant_places,
    obstruction_sum_reference,
    poly_from_factors,
    row_brauer_sums,
    sqfree,
    tame_residue,
)


@pytest.fixture
def running_spec():
    return make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])


def _invariant_at(spec, i, t, v):
    """inv_v of generator i at a local point with coordinate t."""
    return invariant(spec, i, local_mask(spec.factor_value(i, t), v), v)


def test_generator_examples(running_spec):
    # the generator of factor i is (brauer_constants[i], p_i(t)), p_i = c*t + d
    spec = running_spec
    assert spec.brauer_constants[2] == -2  # 2 not in A: 2 * p_A(-1) = 2 * (-1)
    assert spec.coeffs(2) == (1, 1)  # t + 1
    assert spec.brauer_constants[1] == 3  # 1 in A: 3 * p_B(0) = 3 * 1
    assert spec.coeffs(1) == (1, 0)  # t


def test_generator_empty_part():
    spec = make_spec([2], 5, 1, {1: (1, 0), 2: (1, 1)}, [])
    for i in spec.indices:
        assert spec.brauer_constants[i] == 5  # empty product = 1


def test_generator_left_matches_d_constant(running_spec):
    spec = running_spec
    for i in spec.indices:
        left = spec.brauer_constants[i]
        if i not in spec.part_a:
            assert left == spec.a * d_constant(spec, i, spec.part_a)
        else:
            assert left == spec.b * d_constant(spec, i, spec.partition[1])
        # in both cases the square class is [a * D_i^A]
        assert sqfree(left) == sqfree(spec.a * d_constant(spec, i, spec.part_a))


def test_residue_examples(running_spec):
    spec = running_spec  # generators (3, t) and (-2, t + 1)
    assert residue_at(spec, 2, Fraction(-1)) == sqfree(-2)
    assert residue_at(spec, 1, Fraction(5)) == 1  # unramified
    assert residue_at(spec, 1, Fraction(0)) == 3
    # the constant 4 = a*p_A(0) with p_A = t + 2 is a square: residue 1
    spec = make_spec([], 2, 3, {1: (1, 2), 2: (1, 0)}, [1])
    assert spec.brauer_constants[2] == 4 and residue_at(spec, 2, Fraction(0)) == 1
    spec = make_spec([], 4, 3, {1: (2, 3), 2: (1, 0)}, [1])
    assert spec.brauer_constants[2] == 12 and residue_at(spec, 2, Fraction(0)) == 3
    spec = make_spec([], 2, 3, {1: (1, -1), 2: (1, 1)}, [1])
    assert spec.brauer_constants[2] == -4 and residue_at(spec, 2, Fraction(-1)) == -1
    # the linear residues agree with the general tame-symbol oracle
    for spec in (running_spec, make_spec([2], 6, -5, {1: (3, 2), 2: (2, -7), 3: (1, 4)}, [1, 3])):
        for i in spec.indices:
            c, d = spec.coeffs(i)
            for m in (*(spec.root(j) for j in spec.indices), Fraction(5), Fraction(-3, 2)):
                expected = tame_residue(spec.brauer_constants[i], (d, c), m)
                assert residue_at(spec, i, m) == expected, (i, m)


def test_residue_rejects_higher_degree_points():
    with pytest.raises(ValueError):
        tame_residue(3, (Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(1)))


def test_residue_even_multiplicity():
    # right = (t-1)^2: residue at 1 vanishes (general tame-symbol oracle)
    assert tame_residue(3, (Fraction(1), Fraction(-2), Fraction(1)), Fraction(1)) == 1


def test_generators_unramified_at_other_roots(running_spec):
    # the class attached to factor i has trivial residue at roots of p_j, j != i,
    # and at its own root the residue is the split-field class
    spec = running_spec
    for i in spec.indices:
        for j in spec.indices:
            root = spec.root(j)
            res = residue_at(spec, i, root)
            if j != i:
                assert res == 1
            else:
                assert res == sqfree(spec.brauer_constants[i])


def test_combination_residues(running_spec):
    # residues are additive: a combination (c, p_1 p_2) has residue [c] at
    # both roots, and subtracting the matching generators clears them
    spec = running_spec
    c = Fraction(30)
    combo = poly_from_factors(spec, {1, 2})
    for i in spec.indices:
        root = spec.root(i)
        assert tame_residue(c, combo, root) == sqfree(c)
        total = class_mul(tame_residue(c, combo, root),
                          residue_at(spec, i, root))
        expected = class_mul(sqfree(c), sqfree(spec.brauer_constants[i]))
        assert total == expected


def test_invariant_examples(running_spec):
    spec = running_spec
    # real place: left = -2 < 0 for i = 2; p_2(t) < 0 at t = -3
    assert _invariant_at(spec, 2, -3, REAL) == 1
    assert _invariant_at(spec, 2, 1, REAL) == 0
    at_root = PartialAdelicPoint(spec, {REAL: LocalPoint.make(1, 0, 0, 4)})
    assert at_root.rows[REAL].factors is None


def test_invariant_unit_square_left():
    spec = make_spec([2], 1, 1, {1: (1, 0), 2: (1, 1)}, [1])
    # left entries are +-1 times squares; at a good odd place with unit value
    # the symbol vanishes
    v = Place.finite(7)
    for i in spec.indices:
        assert _invariant_at(spec, i, 3, v) == 0


def test_invariant_vanishes_at_good_soluble_places(running_spec):
    # Lemma-style check: at good places the invariant of an integrally
    # soluble fiber vanishes, sampled over t and v
    spec = running_spec
    rng = random.Random(11)
    good = [Place.finite(p) for p in (5, 7, 11, 13, 17)]
    checked = 0
    for _ in range(200):
        t = rng.randint(-50, 50)
        if spec.product_value(spec.indices, t) == 0:
            continue
        for v in good:
            fib = fiber(spec, t)
            status = local_solubility(fib.aA, fib.bB, v, "integral").status
            assert status == good_place_solubility_reference(
                spec, v, factor_values_reference(spec, t)), (t, v)
            if status != "soluble":
                continue
            for i in spec.indices:
                assert _invariant_at(spec, i, t, v) == 0
                checked += 1
    assert checked > 100


def test_reciprocity_sum_on_soluble_fibers(running_spec):
    # for a fiber with a global point the invariant sum over all relevant
    # places vanishes
    spec = running_spec
    count = 0
    for t in [Fraction(1, 2), Fraction(-1, 2), Fraction(2), Fraction(-3)]:
        fib = fiber(spec, t)
        for i in spec.indices:
            left = spec.brauer_constants[i]
            value = spec.factor_value(i, t)
            total = 0
            for v in hilbert_relevant_places(left, value):
                total ^= hilbert_symbol(left, value, v)
            assert total == 0
            count += 1
    assert count == 8


def test_obstruction_sum(running_spec):
    spec = running_spec
    point = PartialAdelicPoint(
        spec,
        {
            REAL: LocalPoint.make(1, 0, Fraction(1, 2), 10),
            Place.finite(2): LocalPoint.make(1, 0, Fraction(1, 2), 10),
            Place.finite(3): LocalPoint.make(1, 0, Fraction(1, 2), 10),
        },
    )
    assert row_brauer_sums(point) == [0, 0] == [
        obstruction_sum_reference(spec, point, i) for i in spec.indices]


def test_obstructed_point_via_real_signs():
    # left entry negative and factor negative at the real place only:
    # a one-place "adelic" point shows a nonzero sum
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    point = PartialAdelicPoint(spec, {REAL: LocalPoint.make(1, 1, -3, 4)})
    # at t = -3: aA = -6, bB = -6 -> not soluble over R, but the invariant
    # itself is still defined through the t-coordinate
    assert _invariant_at(spec, 2, -3, REAL) == 1
    assert row_brauer_sums(point)[1] == obstruction_sum_reference(spec, point, 2) == 1
