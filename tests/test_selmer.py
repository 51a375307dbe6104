import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from torusdescent.arith import (
    _MR_LIMIT,
    REAL,
    Place,
    class_from_mask,
    class_mask,
    factorize,
    is_local_square,
    local_mask,
)
from torusdescent import gf2
from torusdescent.conditiond import Lattice
from torusdescent.descent import DescentBounds, build_suitable, find_admissible
from torusdescent.selmer import selmer_groups, torus_data
from torusdescent.surface import make_spec

from fixtures import REDUCTION_MEMBERS, family_point
from oracles import (
    class_mul,
    dimension_identity,
    dual_selmer_by_enumeration,
    encode,
    ev,
    g_element,
    g_identity,
    g_mul,
    selmer_by_enumeration,
    selmer_elements,
    split_places,
    sqfree,
)


def places_of(*primes):
    return [REAL] + [Place.finite(p) for p in primes]


def test_torus_data_validation():
    torus = torus_data(-4, places_of(2))
    assert torus.d == -1  # square-free representative
    with pytest.raises(ValueError, match="real"):
        torus_data(-1, [Place.finite(2)])
    with pytest.raises(ValueError, match="contain 2"):
        torus_data(-1, [REAL, Place.finite(3)])
    with pytest.raises(ValueError, match="ramified"):
        torus_data(5, places_of(2))


def test_torus_data_reads_d_over_s_without_factoring():
    # 3*P*Q is past the primality range, so factoring d would raise
    p, q = 2000000000003, 2000001000001
    assert p * q > _MR_LIMIT
    torus = torus_data(-3 * p * q, places_of(2, 3, p, q))
    assert torus.d == -3 * p * q
    with pytest.raises(ValueError, match="ramified"):
        torus_data(-3 * p * q, places_of(2, 3, p))


def test_selmer_minus_one():
    torus = torus_data(-1, places_of(2))
    lattice, sel, dual = selmer_groups(torus)
    assert sel.dim == 1 and sel.contains(encode(lattice, g_element(2)))
    assert dual.dim == 1 and dual.contains(encode(lattice, g_element(-1)))


def test_selmer_square_discriminant():
    torus = torus_data(1, places_of(2, 5))
    _, sel, dual = selmer_groups(torus)
    assert sel.dim == 3  # everything
    assert dual.dim == 0  # only the trivial class


def test_dimension_identity_examples():
    torus = torus_data(-1, places_of(2))
    assert dimension_identity(torus, places_of(2)) == (1, 1, 0)
    torus = torus_data(17, places_of(2, 17))
    assert dimension_identity(torus, places_of(2)) == (3, 1, 2)
    torus = torus_data(1, places_of(2))
    assert dimension_identity(torus, places_of(2)) == (2, 0, 2)


def test_dimension_identity_rejects_split_outside_base():
    # 17 is a square at 13; with 13 in S but not in the base set the
    # identity does not apply
    torus = torus_data(17, places_of(2, 13, 17))
    with pytest.raises(ValueError, match="split"):
        dimension_identity(torus, places_of(2))


def _random_torus(rng):
    d = 1
    for p in (2, 3, 5, 7, 11):
        if rng.random() < 0.3:
            d *= p
    if rng.random() < 0.5:
        d = -d
    primes = set(factorize(d)) | {2}
    for p in (3, 5, 7, 11, 13):
        if len(primes) >= 5:
            break
        if p not in primes and rng.random() < 0.3:
            primes.add(p)
    if len(primes) > 5:
        return None
    return torus_data(d, places_of(*sorted(primes)))


def test_selmer_matches_enumeration_random():
    rng = random.Random(17)
    checked = 0
    while checked < 60:
        torus = _random_torus(rng)
        if torus is None:
            continue
        lattice, sel, dual = selmer_groups(torus)
        assert {g.c for g in selmer_elements(lattice, sel)} == selmer_by_enumeration(
            torus.d, torus.places)
        assert {g.c for g in selmer_elements(lattice, dual)} == dual_selmer_by_enumeration(
            torus.d, torus.places
        )
        checked += 1


def test_dimension_identity_random():
    rng = random.Random(23)
    checked = 0
    while checked < 60:
        torus = _random_torus(rng)
        if torus is None:
            continue
        base = [
            v
            for v in torus.places
            if is_local_square(torus.d, v) or rng.random() < 0.5
        ]
        if REAL not in base:
            base.append(REAL)
        dim_sel, dim_dual, n_split = dimension_identity(torus, base)
        assert dim_sel - dim_dual == n_split
        assert n_split == len(split_places(torus, base))
        checked += 1


BASIS_PRIMES = (2, 3, 5, 7, 13, 10007)
FACTOR_INDICES = (1, 3, 7)


@settings(max_examples=200, deadline=None)
@given(
    sign=st.sampled_from((1, -1)),
    chosen=st.sets(st.sampled_from(BASIS_PRIMES), min_size=1),
    exponents=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=len(BASIS_PRIMES), max_size=len(BASIS_PRIMES),
    ),
    extra=st.sampled_from((11, 17, 10009)),
    extra_exponent=st.integers(-2, 2).filter(bool),
    poly=st.sets(st.sampled_from(FACTOR_INDICES)),
    outside=st.sampled_from((0, 2, 8)),
)
def test_lattice_encode_decode(sign, chosen, exponents, extra, extra_exponent, poly, outside):
    lattice = Lattice(sorted(chosen), FACTOR_INDICES)
    x = Fraction(sign)
    for p, (up, down) in zip(sorted(chosen), exponents):
        x *= Fraction(p**up, p**down)
    cls = class_mask(x, lattice.primes)
    assert class_from_mask(cls, lattice.primes) == sqfree(x)
    # the class bits sit above the factor symbols
    mask = cls << len(FACTOR_INDICES)
    assert lattice.decode(mask) == g_element(x)
    assert encode(lattice, lattice.decode(mask)) == mask
    # the factor symbols are the low bits, in the order given
    assert [lattice.poly_mask([i]) for i in FACTOR_INDICES] == [1, 2, 4]
    mask |= lattice.poly_mask(poly)
    assert lattice.decode(mask) == g_element(x, poly)
    assert encode(lattice, lattice.decode(mask)) == mask
    with pytest.raises(ValueError, match="outside"):
        encode(lattice, g_element(x, poly | {outside}))
    # a prime outside the list is an error even to an even power, and so is 0
    with pytest.raises(ValueError, match="outside"):
        class_mask(x * Fraction(extra) ** extra_exponent, lattice.primes)
    with pytest.raises(ValueError, match="outside"):
        encode(lattice, g_element(x * extra))
    with pytest.raises(ValueError, match="0 has no square class"):
        class_mask(Fraction(0), lattice.primes)


def test_lattice_report_sorts_by_sort_key():
    # GElement.sort_key order: |c|, then the sign, then the sorted indices
    order = [g_element(1), g_element(-1), g_element(2, {1}), g_element(2, {7}),
             g_element(-2, {1}), g_element(3), g_element(-3, {3}), g_element(6, {1, 3, 7})]
    lattice = Lattice((2, 3, 5), FACTOR_INDICES)
    # symbols 1, 3, 7 at bits 0-2, then -1, 2, 3 and 5
    assert lattice.decode(0b0011101) == g_element(-2, {1, 7})
    masks = [encode(lattice, x) for x in order]
    assert list(lattice.report(reversed(masks))) == order
    assert list(lattice.report(random.Random(5).sample(masks, len(masks)))) == order


def test_ev_examples():
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    assert ev(spec, 2, g_identity()) == 1
    assert ev(spec, 2, g_element(1, {1})) == sqfree(2)
    x = g_element(3, {1})
    y = g_element(-1, {2})
    assert ev(spec, 5, g_mul(x, y)) == class_mul(ev(spec, 5, x), ev(spec, 5, y))
    with pytest.raises(ValueError):
        ev(spec, 0, g_element(1, {1}))


@pytest.mark.parametrize("index", REDUCTION_MEMBERS)
def test_evaluation_map_is_the_local_mask_of_the_evaluated_element(index):
    """The XOR of Lattice.local_masks at the bits of a mask is local_mask of
    c * p_{J'}(t0) for the decoded [c][p_{J'}], at the places of T, at the
    witness places and at primes outside both."""
    spec, point, _ = family_point(index)
    p_t = build_suitable(spec, point)
    adm = find_admissible(spec, p_t, DescentBounds()).point
    lattice = Lattice.of_spec(spec)  # the first state's lattice, over T = S0 + S_bad
    values = [spec.factor_value(i, adm.t0) for i in lattice.factor_indices]
    places = list(p_t.places) + [u for _, u in adm.witnesses]
    places += [Place.finite(p) for p in (3, 7, 13, 101) if Place.finite(p) not in places]
    rng = random.Random(index)
    masks = [0, (1 << lattice.ncols) - 1] + [rng.getrandbits(lattice.ncols) for _ in range(30)]
    for v in places:
        columns = lattice.local_masks([local_mask(x, v) for x in values], v)
        for mask in masks:
            x = lattice.decode(mask)
            value = Fraction(x.c) * spec.product_value(sorted(x.poly), adm.t0)
            assert gf2.combine(columns, mask) == local_mask(value, v), (v, x)
