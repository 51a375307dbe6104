import functools
import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from sympy import primefactors, primerange
from sympy.functions.combinatorial.numbers import legendre_symbol

from torusdescent import arith, brauer, descent, gf2, points, selmer
from torusdescent.arith import REAL, Place, hilbert_symbol, local_mask, valuation
from torusdescent.conditiond import Lattice
from torusdescent.descent import (
    Certificate,
    DescentAnomaly,
    DescentBounds,
    DescentError,
    SearchExhausted,
    _SIEVE_PRIMES,
    _approximation_data,
    _candidate_test,
    _make_state,
    _scan_prime,
    _uniformizer_t,
    build_suitable,
    check_hypotheses,
    descend,
    find_admissible,
    reduce_dual_selmer,
    suitability,
)
from torusdescent.points import verify_integral_point
from torusdescent.selmer import relative_selmer
from torusdescent.surface import (
    LocalPoint,
    PartialAdelicPoint,
    SpecValidationError,
    SurfaceSpec,
    make_spec,
)

from fixtures import (
    ALL_FAMILY,
    LARGE_PRIME_FAMILY,
    MULTI_REDUCTION_MEMBERS,
    REDUCTION_MEMBERS,
    SOLUBLE_FAMILY,
    family_point,
    family_spec,
    large_prime_point,
)
from oracles import (
    admissible_candidate_reference,
    brauer_constant_reference,
    compute_s,
    dimension_identity,
    encode,
    factor_value_reference,
    factor_values_reference,
    fiber_coeffs_reference,
    fiber_torus_reference,
    find_admissible_reference,
    g_element,
    good_place_solubility_reference,
    hilbert_symbol_closed_form,
    inserted_places,
    is_local_square_closed_form,
    local_square_class,
    obstruction_sum_reference,
    progression_reference,
    pick_elements_reference,
    product_value_reference,
    relative_selmer_reference,
    row_brauer_sums,
    same_valuation_and_class_bruteforce,
    selmer_elements,
    split_places,
    state_lattice_reference,
    suitability_reference,
    uniformizer_t_reference,
)
from test_golden_descend import SD_WITNESS_SEEDS, _fuzz_input, case_input


# ---------------------------------------------------------------------------
# hypothesis checking
# ---------------------------------------------------------------------------


def test_condition_d_failure_reported():
    spec = make_spec([2], 2, -1, {1: (1, 0)}, [1])
    point = PartialAdelicPoint(
        spec, {v: LocalPoint.make(1, 1, 1, 10) for v in compute_s(spec)}
    )
    report = check_hypotheses(spec, point)
    assert not report.passed
    assert "condition_D" in report.failures


def test_valuation_hypothesis_failure():
    # p_J = t(t+1) is always even, so val_2(d p_J) >= 2 when 2 is outside S0
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    point = PartialAdelicPoint(
        spec, {v: LocalPoint.make(1, 0, Fraction(1, 2), 10) for v in (REAL,)}
    )
    # need all required places: 2 and 3
    entries = {
        REAL: LocalPoint.make(1, 0, Fraction(1, 2), 10),
        Place.finite(2): LocalPoint.make(0, 1, 1, 1),
        Place.finite(3): LocalPoint.make(1, 0, Fraction(1, 2), 10),
    }
    # (0,1,1) is not on the surface; build an honest local point at 2 instead
    from torusdescent.points import local_solubility
    from torusdescent.surface import fiber

    fib = fiber(spec, 1)
    res = local_solubility(fib.aA, fib.bB, Place.finite(2), "integral")
    if res.status == "soluble":
        entries[Place.finite(2)] = LocalPoint.make(*res.witness, 1, res.precision)
        point = PartialAdelicPoint(spec, entries)
        report = check_hypotheses(spec, point)
        assert "valuation_at_2" in report.failures or "valuation_bound" in report.failures
    else:
        # fiber at t=1 insoluble at 2: the hypothesis cannot even be set up
        assert res.status == "insoluble"


def test_missing_places_is_input_problem():
    spec = family_spec(0)
    point = PartialAdelicPoint(spec, {REAL: LocalPoint.make(0, 1, -60, 5)})
    report = check_hypotheses(spec, point)
    assert report.input_problems
    with pytest.raises(DescentError, match="invalid input point"):
        descend(spec, point)


def test_split_place_hypothesis():
    # a = b = 1, p = t, A = {1}: -d p_J(t) = -t; at t = 2 the value -2 is
    # negative at the real place and has odd valuation at 2: no split place
    spec = family_spec(0)
    entries = {
        v: LocalPoint.make(0, 1, 2, 12) for v in compute_s(spec)
    }
    report = check_hypotheses(spec, PartialAdelicPoint(spec, entries))
    assert "split_place" in report.failures


def test_family_hypotheses_pass():
    for index in range(len(SOLUBLE_FAMILY)):
        spec, point, _ = family_point(index)
        report = check_hypotheses(spec, point)
        assert report.passed, (index, report.failures, report.input_problems)
        assert report.split_place is not None
        assert all(s == 0 for s in report.brauer_sums.values())


@settings(max_examples=150, deadline=None, derandomize=True)
@given(index=st.integers(0, len(ALL_FAMILY) - 1), data=st.data())
def test_point_table_matches_the_fraction_path(index, data):
    # the point's (valuation, local mask) table, and every verdict read off
    # it, agree with the Fraction path of the oracles; each finite place
    # keeps the fixture's local point or gets a random S0-integral t_v
    spec, point, _ = family_point(index)
    dens = [1, *(p**k for p in spec.s0_finite_primes for k in (1, 2, 3))]
    entries = dict(point.entries)
    for v in sorted(entries):
        if v.is_finite and data.draw(st.booleans()):
            t_v = Fraction(data.draw(st.integers(-300, 300)), data.draw(st.sampled_from(dens)))
            # precision 0 claims no residual: the checks read t_v alone
            entries[v] = LocalPoint.make(0, 0, t_v, 0)
    p_t = PartialAdelicPoint(spec, entries)
    assume(not p_t.validate())  # t_v off the roots of p_J
    for v, row in p_t.rows.items():
        for i, (val, mask) in row.factors.items():
            value = spec.factor_value(i, p_t.entries[v].t)
            assert val == (0 if v.is_real else valuation(value, v.p))
            assert mask == local_mask(value, v)
    violations, split_place = suitability(spec, p_t)
    assert ([name for name, _ in violations], split_place) == suitability_reference(spec, p_t)
    assert row_brauer_sums(p_t) == [obstruction_sum_reference(spec, p_t, i) for i in spec.indices]


def _assert_rows_are_fresh(spec, p_t):
    """p_t's rows, validate list and verdicts equal those of a point built
    fresh from its entries, and the Fraction path of the oracles."""
    fresh = PartialAdelicPoint(spec, p_t.entries)
    assert p_t.places == fresh.places == tuple(sorted(p_t.entries))
    assert p_t.rows == fresh.rows
    assert p_t.validate() == fresh.validate()
    for v in p_t.places:
        row = p_t.rows[v]
        values = {i: factor_value_reference(spec, i, p_t.entries[v].t) for i in spec.indices}
        torus = -spec.d * math.prod(values.values())
        if torus == 0:
            assert (row.factors, row.torus) == (None, None)
            assert row.problems == (f"{v}: d*p_J(t_v) = 0",)
            continue
        assert row.factors == {i: (0 if v.is_real else valuation(x, v.p), local_mask(x, v))
                               for i, x in values.items()}
        assert row.torus[0] == (0 if v.is_real else valuation(torus, v.p))
        assert (row.torus[1] == 0) == is_local_square_closed_form(torus, v)
    violations, split_place = suitability(spec, p_t)
    assert (violations, split_place) == suitability(spec, fresh)
    if p_t.validate() or any(name == "input" for name, _ in violations):
        return
    assert ([name for name, _ in violations], split_place) == suitability_reference(spec, p_t)
    assert row_brauer_sums(p_t) == row_brauer_sums(fresh) == [
        obstruction_sum_reference(spec, p_t, i) for i in spec.indices]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(index=st.integers(0, len(ALL_FAMILY) - 1), data=st.data())
def test_shared_rows_match_a_point_built_fresh(index, data):
    # with_entry adds one row and a restriction to T keeps rows: along a
    # chain of both, every point reads as if built from its entries
    spec, point, _ = family_point(index)
    t_places = set(compute_s(spec))
    extra = [Place.finite(p) for p in (101, 103) if Place.finite(p) not in t_places]
    dens = [1, *(p**k for p in spec.s0_finite_primes for k in (1, 2))]
    p_t = point
    for _ in range(data.draw(st.integers(1, 5))):
        if data.draw(st.booleans()):
            v = data.draw(st.sampled_from(sorted(t_places) + extra))
            t_v = Fraction(data.draw(st.integers(-60, 60)), data.draw(st.sampled_from(dens)))
            new = p_t.with_entry(v, LocalPoint.make(0, 0, t_v, 0))
            assert all(new.rows[w] is p_t.rows[w] for w in p_t.places if w != v)
        else:
            new = PartialAdelicPoint(
                spec, {v: pt for v, pt in p_t.entries.items() if v in t_places}, p_t.rows)
            assert all(new.rows[w] is p_t.rows[w] for w in new.places)
            try:
                assert build_suitable(spec, p_t).rows == new.rows
            except DescentAnomaly:  # the restriction is unsuitable
                pass
        p_t = new
        _assert_rows_are_fresh(spec, p_t)


def test_with_entry_evaluates_only_the_new_place(monkeypatch):
    # the new row costs |J| factor values and no product; validate reads
    # the rows and evaluates nothing
    spec, point, (x, y, t) = family_point(0)
    calls = []
    for name in ("factor_value", "product_value"):
        real = getattr(SurfaceSpec, name)
        monkeypatch.setattr(SurfaceSpec, name,
                            lambda self, *args, _real=real, _name=name:
                            calls.append(_name) or _real(self, *args))
    extra = Place.finite(101)
    new = point.with_entry(extra, LocalPoint.make(x, y, t, 12))
    assert calls == ["factor_value"] * len(spec.indices)
    assert all(new.rows[v] is point.rows[v] for v in point.places)
    calls.clear()
    assert new.validate() == [] and point.validate() == []
    assert calls == []


@pytest.mark.parametrize("case", ["family-23", "fuzz-2515"])
def test_insert_place_evaluates_t_w_once(case, monkeypatch):
    # each insertion (both stages) computes the fiber above t_w once, for
    # its local point (fiber_coeffs, whose two products are the
    # product_value calls), and the new row's |J| factor values
    kind, _, number = case.partition("-")
    if kind == "family":
        spec, point, _ = family_point(int(number))
        bounds = DescentBounds(solve_each_fiber=False)
    else:
        spec, point, bounds = _fuzz_input(int(number))
    calls, per_insert = [], []
    for name in ("factor_value", "product_value", "fiber_coeffs"):
        real = getattr(SurfaceSpec, name)
        monkeypatch.setattr(SurfaceSpec, name,
                            lambda self, *args, _real=real, _name=name:
                            calls.append(_name) or _real(self, *args))
    real_insert = descent._insert_place

    def counted(*args):
        calls.clear()
        result = real_insert(*args)
        per_insert.append((args[3], sorted(calls)))
        return result

    monkeypatch.setattr(descent, "_insert_place", counted)
    descend(spec, point, bounds)
    expected = sorted(["factor_value"] * len(spec.indices) + ["fiber_coeffs"]
                      + ["product_value"] * 2)
    assert {stage for stage, _ in per_insert} == {"sd_witness_prime", "chebotarev_prime"}
    assert all(made == expected for _, made in per_insert)


def test_an_entry_at_a_root_of_p_j_is_reported_by_validate():
    # t = 0 is the root of p_1 = t: building the point raises nothing, the
    # entry is an input problem, and its row holds no factor data
    spec = make_spec([], 2, 3, {1: (1, 0), 2: (1, 1)}, [1])
    point = PartialAdelicPoint(spec, {REAL: LocalPoint.make(1, 0, 0, 4)})
    assert point.validate() == ["real: d*p_J(t_v) = 0"]
    three = point.with_entry(Place.finite(3), LocalPoint.make(1, 0, -1, 4))
    assert three.validate() == ["real: d*p_J(t_v) = 0", "3: d*p_J(t_v) = 0"]
    for p_t in (point, three):
        assert all(row.factors is None for row in p_t.rows.values())
        violations, split_place = suitability(spec, p_t)
        assert split_place is None and {name for name, _ in violations} == {"input"}


# ---------------------------------------------------------------------------
# suitable points and admissible fibers
# ---------------------------------------------------------------------------


def test_bounds_dict_lists_every_field():
    bounds = DescentBounds(admissible_candidates=7, solve_each_fiber=False)
    assert bounds.as_dict() == {
        "admissible_candidates": 7, "prime_scan": 50_000, "height": 1_000,
        "max_steps": 24, "solve_each_fiber": 0,
    }
    assert type(bounds.as_dict()["solve_each_fiber"]) is int


def test_build_suitable_family():
    for index in (0, 4, 6):
        spec, point, _ = family_point(index)
        p_t = build_suitable(spec, point)
        assert set(p_t.places) == set(compute_s(spec))
        violations, split_place = suitability(spec, p_t)
        assert violations == [] and split_place in spec.s0


def _count_calls(monkeypatch, name, module=descent):
    """Record the arguments of every call to module.<name> from now on, made
    under any name a torusdescent module binds it to."""
    calls = []
    real = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    for loaded in list(sys.modules.values()):
        if loaded.__name__.startswith("torusdescent") and vars(loaded).get(name) is real:
            monkeypatch.setattr(loaded, name, counted)
    return calls


@pytest.mark.parametrize("index", range(len(ALL_FAMILY)))
def test_descend_checks_the_input_point_once(index, monkeypatch):
    # check_hypotheses checks the input point; build_suitable keeps every
    # place of it and checks nothing; each witness insertion checks once
    spec, point, _ = family_point(index)
    checks = _count_calls(monkeypatch, "suitability")
    rechecks = _count_calls(monkeypatch, "_require_suitable")
    descend(spec, point)
    insertions = {"witness insertion broke suitability", "extension broke suitability"}
    assert all(context in insertions for *_, context in rechecks)
    assert len(checks) == 1 + len(rechecks)
    assert checks[0][1] is point


def test_build_suitable_rechecks_a_restricted_point(monkeypatch):
    # -d*p_J(2) = -2 is a square at no place of S0: the restriction to T is
    # unsuitable, whatever the extra place outside T carried
    spec, point, (x, y, t) = family_point(0)
    extra = Place.finite(101)
    assert extra not in compute_s(spec)
    entries = {v: LocalPoint.make(0, 1, 2, 12) for v in compute_s(spec)}
    entries[extra] = LocalPoint.make(x, y, t, 12)
    checks = _count_calls(monkeypatch, "suitability")
    with pytest.raises(DescentAnomaly, match="suitability failed: split_place"):
        build_suitable(spec, PartialAdelicPoint(spec, entries))
    assert len(checks) == 1
    point = PartialAdelicPoint(spec, {**point.entries, extra: LocalPoint.make(x, y, t, 12)})
    p_t = build_suitable(spec, point)
    assert set(p_t.places) == set(compute_s(spec)) and len(checks) == 2
    # a restricted copy: the input point keeps its extra place
    assert p_t is not point and extra in point.entries and extra not in p_t.entries


def test_build_suitable_returns_a_point_on_T_itself(monkeypatch):
    # a point whose places are exactly T is the point check_hypotheses
    # checked: the descent reads the rows built there
    checks = _count_calls(monkeypatch, "suitability")
    for index in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(index)
        assert set(point.entries) == set(compute_s(spec))
        rows = point.rows
        p_t = build_suitable(spec, point)
        assert p_t is point and p_t.rows is rows
    assert checks == []


def test_build_suitable_rejects_a_restriction_that_breaks_a_brauer_sum():
    # t_real = 1 flips the real invariants of both generators of member 10,
    # and nothing else: the restriction to T fails only its Brauer sums
    spec, point, (x, y, t) = family_point(10)
    extra = Place.finite(101)
    assert extra not in compute_s(spec)
    real = point.entries[REAL]
    entries = {**point.entries, REAL: LocalPoint.make(real.x, real.y, 1, real.precision),
               extra: LocalPoint.make(x, y, t, 12)}
    with pytest.raises(DescentAnomaly,
                       match="^suitability failed: brauer_sum_1: .*; brauer_sum_2: [^;]*$"):
        build_suitable(spec, PartialAdelicPoint(spec, entries))


@pytest.mark.parametrize(
    "case", [f"family-{k}" for k in range(len(ALL_FAMILY))]
    + [f"fuzz-{seed}" for seed in SD_WITNESS_SEEDS])
def test_admissible_points_keep_p_i_t0_and_the_fiber(case, monkeypatch):
    """Every admissible point that descend reaches, the first and those
    after each reduction or witness insertion, carries p_i(t0) in index
    order and the fiber above t0 as the Fraction formulas give them."""
    points = []
    real_try = descent._try_admissible

    def recorded(*args):
        points.append(real_try(*args))
        return points[-1]

    monkeypatch.setattr(descent, "_try_admissible", recorded)
    kind, _, number = case.partition("-")
    if kind == "family":
        spec, point, _ = family_point(int(number))
        bounds = DescentBounds(solve_each_fiber=False)
    else:
        spec, point, bounds = _fuzz_input(int(number))
    cert = descend(spec, point, bounds)
    steps = [step["step"] for step in cert.trace]
    assert [str(adm.t0) for adm in points] == \
        [step["t0"] for step in cert.trace if step["step"] == "admissible_point"]
    if kind == "fuzz":
        assert "sd_witness" in steps
    if kind == "family" and int(number) in REDUCTION_MEMBERS + MULTI_REDUCTION_MEMBERS:
        assert "reduce_dual_selmer" in steps and len(points) > 1
    for adm in points:
        t0 = adm.t0
        assert list(adm.values.items()) == list(factor_values_reference(spec, t0).items())
        aA, bB = fiber_coeffs_reference(spec, t0)
        assert (adm.fiber.t, adm.fiber.aA, adm.fiber.bB, adm.fiber.torus_d) == \
            (t0, aA, bB, -aA * bB)


# every family spec, and one whose residue roots at 7 have valuation 2
UNIFORMIZER_SPECS = [family_spec(k) for k in range(len(ALL_FAMILY))] + [
    make_spec([2], 1, 1, {1: (1, 46), 2: (3, -49)}, [1])]
PRIMES_BELOW_500 = list(primerange(3, 500))


@settings(max_examples=300, deadline=None)
@given(k=st.integers(0, len(UNIFORMIZER_SPECS) - 1), w=st.sampled_from(PRIMES_BELOW_500))
@example(k=len(UNIFORMIZER_SPECS) - 1, w=7)
def test_uniformizer_t_matches_the_residue_scan(k, w):
    spec = UNIFORMIZER_SPECS[k]
    assume(Place.finite(w) not in compute_s(spec))
    for i in spec.indices:
        assert _uniformizer_t(spec, i, w) == uniformizer_t_reference(spec, i, w)


def _scan_prime_reference(conditions, avoid, bound):
    """The least odd prime outside avoid, among the first `bound` of them,
    at which each n/m has the Legendre symbol (n|w)(m|w) = sign, by sympy's
    legendre_symbol; None if there is none."""
    primes = (w for w in primerange(3, 10**6) if w not in avoid)
    for w, _ in zip(primes, range(bound)):
        if all(legendre_symbol(value.numerator, w) * legendre_symbol(value.denominator, w) == sign
               for value, sign in conditions):
            return w
    return None


def test_scan_prime_matches_a_sympy_reference():
    """Seeded conditions, integers and fractions of either sign, with their
    primes and a few others avoided; the bound is reached in some."""
    rng = random.Random(39)
    exhausted = 0
    for _ in range(400):
        conditions = [(Fraction(rng.choice((-1, 1)) * rng.randint(1, 400), rng.choice((1, rng.randint(1, 60)))),
                       rng.choice((1, -1))) for _ in range(rng.randint(1, 4))]
        avoid = {p for value, _ in conditions for p in primefactors(value.numerator * value.denominator)}
        avoid.update(rng.sample(PRIMES_BELOW_500[:20], 3))
        bound = rng.randint(1, 40)
        expected = _scan_prime_reference(conditions, avoid, bound)
        if expected is None:
            exhausted += 1
            with pytest.raises(SearchExhausted):
                _scan_prime(conditions, avoid, bound, "test")
        else:
            assert _scan_prime(conditions, avoid, bound, "test") == expected
    assert 0 < exhausted < 400


def test_find_admissible_properties():
    spec, point, _ = family_point(6)  # a=5, b=1, two factors
    p_t = build_suitable(spec, point)
    bounds = DescentBounds(admissible_candidates=100_000)
    search = find_admissible(spec, p_t, bounds)
    adm = search.point
    # factor values are T-units times a single prime, pairwise distinct
    witnesses = dict(adm.witnesses)
    assert set(witnesses) == set(spec.indices)
    assert len({u.p for u in witnesses.values()}) == len(spec.indices)
    # reciprocity certificate vanished at every witness place: the symbol at
    # u_i is 0, and so is the sum over T and u_i
    for i, u in adm.witnesses:
        left, value = spec.brauer_constants[i], spec.factor_value(i, adm.t0)
        assert hilbert_symbol(left, value, u) == 0
        assert sum(hilbert_symbol(left, value, v) for v in (*p_t.places, u)) % 2 == 0
    # approximation preserved local square classes (checked internally, but
    # re-assert through the closed-form local classes)
    for v in p_t.places:
        for i in spec.indices:
            assert local_square_class(
                spec.factor_value(i, adm.t0), v
            ) == local_square_class(spec.factor_value(i, p_t.entries[v].t), v)


@pytest.mark.parametrize(
    "case", [f"family-{k}" for k in range(len(ALL_FAMILY))]
    + [f"large-{p}" for p in LARGE_PRIME_FAMILY])
def test_each_admissible_scan_tries_one_candidate(case, monkeypatch):
    """The first candidate whose leftovers pass is the admissible point:
    every find_admissible call of a descent makes one _try_admissible call,
    also where T holds a prime above 316."""
    tries = []
    real_find, real_try = descent.find_admissible, descent._try_admissible

    def find(*args):
        tries.append(0)
        return real_find(*args)

    def try_once(*args):
        tries[-1] += 1
        return real_try(*args)

    monkeypatch.setattr(descent, "find_admissible", find)
    monkeypatch.setattr(descent, "_try_admissible", try_once)
    kind, _, number = case.partition("-")
    spec, point, _ = (family_point if kind == "family" else large_prime_point)(int(number))
    descend(spec, point, DescentBounds(admissible_candidates=3000, solve_each_fiber=False))
    assert tries and tries == [1] * len(tries)


@pytest.mark.parametrize("index, v, t, text", [
    # the fiber above t_real = 5, and so above every t0 > 1, has no real points
    (11, REAL, 5, "fiber above t0 = 21 is negative definite"),
    (7, Place.finite(2), -28, "fiber above t0 = -4 insoluble over Q_2"),
    (9, Place.finite(3), -29, "fiber above t0 = -110 has no integral point at 3"),
    # t_real = 1 flips the real invariants of both generators of member 10
    (10, REAL, 1, "reciprocity symbol 1 at u_1 = 37"),
], ids=["negative-definite", "hilbert-symbol-at-s0", "integral-insoluble", "reciprocity"])
def test_a_broken_premise_of_admissibility_is_an_anomaly(index, v, t, text):
    # the member's entry at v moves to a t_v above which the fiber is no
    # longer locally soluble at v, or which makes a Brauer sum 1: the first
    # candidate whose leftovers pass breaks the invariant it fed
    spec, point, _ = family_point(index)
    p_t = point.with_entry(v, LocalPoint.make(0, 0, t, 0))  # precision 0: no residual claimed
    with pytest.raises(DescentAnomaly, match=f"^{re.escape(text)}$"):
        find_admissible(spec, p_t, DescentBounds())


def test_a_value_off_the_progression_loses_the_row():
    # t_real + 1 = -59 is a 2-adic unit, and p_1(t_real) = -60 is not
    spec, p_t = _progression(0)[:2]
    with pytest.raises(DescentAnomaly, match="^approximation lost the row of p_t at 2$"):
        descent._try_admissible(spec, p_t, p_t.entries[REAL].t + 1, [])


@functools.lru_cache(maxsize=None)
def _progression(index):
    """Spec, suitable point, T primes, progression data and candidate test of a member."""
    spec, point, _ = family_point(index)
    p_t = build_suitable(spec, point)
    t_primes = [v.p for v in p_t.places if v.is_finite]
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    witnesses = _candidate_test(spec, tau0, modulus, denominator, t_primes)
    return spec, p_t, t_primes, (tau0, modulus, denominator), witnesses


def _leftovers(spec, t_primes, t0):
    """|numerator of p_i(t0)| with the primes of T divided out, per factor."""
    out = []
    for i in spec.indices:
        num = abs(spec.factor_value(i, t0).numerator)
        for q in t_primes:
            while num and num % q == 0:
                num //= q
        out.append(num)
    return out


def _should_strike(spec, t_primes, t0):
    """A root of p_J, or a leftover with a sieving prime outside T not equal to it."""
    return any(
        num == 0
        or any(num % q == 0 and num != q for q in _SIEVE_PRIMES if q not in t_primes)
        for num in _leftovers(spec, t_primes, t0)
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    index=st.integers(0, len(ALL_FAMILY) - 1),
    start=st.integers(-3000, 3000),
)
@example(index=7, start=-12)  # n = -1: the leftovers are 3 and 7
def test_sieve_strikes_only_candidates_try_admissible_rejects(index, start):
    # the integer candidate test gives the witnesses of the Fraction test,
    # and every candidate a sieving prime strikes has none
    spec, p_t, t_primes, (tau0, modulus, denominator), witnesses = _progression(index)
    for n in range(start, start + 24):
        t0 = Fraction(tau0 + modulus * n, denominator)
        expected = admissible_candidate_reference(spec, t_primes, t0)
        assert witnesses(n) == expected, n
        if _should_strike(spec, t_primes, t0):
            assert expected is None, n


def test_sieve_keeps_a_leftover_equal_to_a_sieving_prime():
    # family member 7 is admissible at n = -1 with witness primes 3 and 7,
    # both sieving primes outside T
    spec, p_t, t_primes, (tau0, modulus, denominator), witnesses = _progression(7)
    t0 = Fraction(tau0 - modulus, denominator)
    assert _leftovers(spec, t_primes, t0) == [3, 7]
    assert witnesses(-1) == [(1, Place.finite(3)), (2, Place.finite(7))]
    assert find_admissible(spec, p_t, DescentBounds()).point.t0 == t0


def _digits(spec, t_v, p):
    """The progression (tau0, M, D) of the point whose only place is p, at
    t_v, and k with M/D = p^k: its values agree with t_v to k digits."""
    p_t = PartialAdelicPoint(spec, {Place.finite(p): LocalPoint.make(0, 0, t_v, 0)})
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    return tau0, modulus, denominator, valuation(Fraction(modulus, denominator), p)


def _keeps_classes(spec, t_v, t0, p):
    return all(same_valuation_and_class_bruteforce(factor_value_reference(spec, i, t0),
                                                   factor_value_reference(spec, i, t_v), p)
               for i in spec.indices)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), primes=st.sampled_from([(2,), (3,), (5,), (7,), (2, 3)]))
def test_approximation_keeps_every_valuation_and_square_class(data, primes):
    # c_i and d_i are integers that the primes of S0 may divide, and each
    # t_v may have its prime in the denominator; at S0 = {2, 3} the
    # progression's D may hold two prime powers
    exponents = st.lists(st.integers(0, 2), min_size=len(primes), max_size=len(primes))
    s0_integer = st.builds(lambda num, es: num * math.prod(q**e for q, e in zip(primes, es)),
                           st.integers(-40, 40), exponents)
    factors = {}
    for i in range(1, data.draw(st.integers(1, 3)) + 1):
        c, d = data.draw(s0_integer.filter(bool)), data.draw(s0_integer)
        g = math.gcd(c, d)  # no common prime outside S0
        factors[i] = (c // g, d // g)
    try:
        spec = make_spec(list(primes), 1, 1, factors, [1])
    except SpecValidationError:
        assume(False)
    points = {p: Fraction(data.draw(st.integers(-40, 40)), p ** data.draw(st.integers(0, 2)))
              for p in primes}
    assume(all(factor_value_reference(spec, i, t_v)
               for t_v in points.values() for i in spec.indices))
    p_t = PartialAdelicPoint(spec, {Place.finite(p): LocalPoint.make(0, 0, t_v, 0)
                                    for p, t_v in points.items()})
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    assert (tau0, modulus, denominator) == progression_reference(spec, p_t)
    progression = [Fraction(tau0 + modulus * n, denominator) for n in range(-4, 5)]
    for p, t_v in points.items():
        k = valuation(Fraction(modulus, denominator), p)
        units = st.builds(Fraction, st.integers(-10**6, 10**6),
                          st.integers(1, 60).filter(lambda q: q % p))
        agreeing = progression + [t_v + Fraction(p) ** k * x
                                  for x in data.draw(st.lists(units, max_size=8))]
        for t0 in agreeing:
            assert t0 == t_v or valuation(t0 - t_v, p) >= k
            assert _keeps_classes(spec, t_v, t0, p), (p, t0)
        # with p dividing no c_i, one digit fewer changes a class, unless k
        # is only the floor -e that keeps D*t_v integral
        e = max(0, -valuation(t_v, p)) if t_v else 0
        if all(c % p for _, (c, _) in spec.factors) and k > -e:
            assert any(not _keeps_classes(spec, t_v, t_v + Fraction(p) ** (k - 1) * s, p)
                       for s in range(1, p))


@pytest.mark.parametrize("t_2, t_3", [
    (Fraction(1, 2), Fraction(1, 3)), (Fraction(-3, 4), Fraction(5, 9)), (0, Fraction(2, 3))])
def test_progression_at_two_places_of_s0_matches_the_reference(t_2, t_3):
    # both t_v may have their prime in the denominator: D = 2^e_2 * 3^e_3
    spec = make_spec([2, 3], 1, 1, {1: (1, 1), 2: (3, -4)}, [1])
    p_t = PartialAdelicPoint(spec, {Place.finite(2): LocalPoint.make(0, 0, t_2, 0),
                                    Place.finite(3): LocalPoint.make(0, 0, t_3, 0)})
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    assert (tau0, modulus, denominator) == progression_reference(spec, p_t)
    assert denominator == Fraction(t_2).denominator * Fraction(t_3).denominator
    t0 = Fraction(tau0, denominator)
    assert _keeps_classes(spec, t_2, t0, 2) and _keeps_classes(spec, t_3, t0, 3)


@pytest.mark.parametrize("p, factor, t_v, k", [
    # p_1 = t + 3 at t_v = 0: p_1(t_v) = 3 has val 1, so 2 digits at 3
    (3, (1, 3), Fraction(0), 2),
    # p_1 = t + 1 at t_v = 1/2: p_1(t_v) = 3/2 has val -1, so 2 digits at 2
    (2, (1, 1), Fraction(1, 2), 2),
])
def test_approximation_digits_are_the_least_that_keep_the_classes(p, factor, t_v, k):
    spec = make_spec([p], 1, 1, {1: factor}, [1])
    assert _digits(spec, t_v, p)[3] == k
    assert _keeps_classes(spec, t_v, t_v + p**k, p)
    # one digit fewer: t + 3 is 6 at t0 = 3, 3 times a non-square at 3, and
    # t + 1 is 7/2 at t0 = 5/2, and 7/3 = 5 mod 8 is a non-square at 2
    assert not _keeps_classes(spec, t_v, t_v + p ** (k - 1), p)


@pytest.mark.parametrize("index", range(len(ALL_FAMILY)))
def test_admissible_budget_counts_struck_candidates(index):
    spec, p_t = _progression(index)[:2]
    bounds = DescentBounds(solve_each_fiber=False)
    search = find_admissible(spec, p_t, bounds)
    budget = search.candidates_checked
    with pytest.raises(SearchExhausted) as info:
        find_admissible(spec, p_t, bounds._replace(admissible_candidates=budget - 1))
    assert info.value.stage == "admissible_point"
    again = find_admissible(spec, p_t, bounds._replace(admissible_candidates=budget))
    assert again.point.t0 == search.point.t0
    assert again.candidates_checked == budget


def test_admissible_scan_strikes_candidates_before_its_hits():
    # the budget test above counts struck candidates only if some are struck
    struck_before_hit = 0
    for index in range(len(ALL_FAMILY)):
        spec, p_t, t_primes, (tau0, modulus, denominator), witnesses = _progression(index)
        t0 = find_admissible(spec, p_t, DescentBounds()).point.t0
        hit = int((t0 * denominator - tau0) / modulus)
        for n in range(-abs(hit), abs(hit) + 1):
            if _should_strike(spec, t_primes, Fraction(tau0 + modulus * n, denominator)):
                assert witnesses(n) is None
                struck_before_hit += 1
    assert struck_before_hit > 0


@settings(max_examples=60, deadline=None)
@given(index=st.integers(0, len(ALL_FAMILY) - 1), budget=st.integers(1, 200))
def test_find_admissible_matches_reference_scan(index, budget):
    # the first candidate with witnesses, or exhaustion at the same budget
    spec, p_t = _progression(index)[:2]
    bounds = DescentBounds(admissible_candidates=budget)

    def outcome(scan):
        try:
            return scan(spec, p_t, bounds)
        except SearchExhausted as exc:
            return exc.stage, exc.bound

    def scan(*args):
        search = find_admissible(*args)
        return search.point.t0, search.point.witnesses, search.candidates_checked

    assert outcome(scan) == outcome(find_admissible_reference)


def test_admissible_scan_reaches_a_far_real_chamber():
    # p_1 = t - 1000001 and p_2 = 1262145 - t: the real chamber
    # (1000001, 1262145) holds the progression indices 125000..157767 only
    spec = make_spec([2], 1, 1, {1: (1, -1000001), 2: (-1, 1262145)}, [1])
    p_t = PartialAdelicPoint(
        spec, {v: LocalPoint.make(1, 0, 1131074, 10) for v in compute_s(spec)}
    )
    assert p_t.validate() == []
    search = find_admissible(spec, p_t, DescentBounds())
    assert (search.point.t0, search.candidates_checked) == (1000018, 3)
    assert search.point.witnesses == ((1, Place.finite(17)), (2, Place.finite(262127)))
    reference = find_admissible_reference(spec, p_t, DescentBounds())
    assert reference == (search.point.t0, search.point.witnesses, search.candidates_checked)


def test_relative_groups_independent_of_admissible_point():
    spec, point, _ = family_point(7)
    p_t = build_suitable(spec, point)
    bounds = DescentBounds(admissible_candidates=100_000)
    first = find_admissible(spec, p_t, bounds).point
    t0, witnesses, _ = find_admissible_reference(spec, p_t, bounds, reject=[first.t0])
    second = descent._try_admissible(spec, p_t, t0, list(witnesses))
    assert first.t0 != second.t0
    lattice = Lattice.of_spec(spec)
    sel_a, dual_a = relative_selmer(spec, lattice, p_t, first)
    sel_b, dual_b = relative_selmer(spec, lattice, p_t, second)
    assert dual_a == dual_b
    assert sel_a == sel_b


def _dual_selmer_by_lemma_conditions(spec, p_t, adm):
    """Independent enumeration of the relative dual Selmer group.

    Conditions at the places of T0 (S0 and the places with
    val_v(d*p_J(t_v)) = 1, from each entry's own t_v) are tested by direct
    local squareness of the evaluated element or its product with the torus
    parameter, and the rest of T asks for even valuation; conditions at the
    witness places use the branch form: the closed-form pairing of p_i(t0)
    against the evaluated element, twisted by [-d][p_J] when i lies in the
    subset.
    """
    lattice = Lattice.of_spec(spec)  # T = S0 + S_bad
    t0 = adm.t0
    torus_value = -spec.d * spec.product_value(spec.indices, t0)
    t0_places = [v for v in p_t.places if v in spec.s0 or valuation(
        spec.d * product_value_reference(spec, spec.indices, p_t.entries[v].t), v.p) == 1]
    unit_places = [v for v in p_t.places if v not in t0_places]
    members = []
    for mask in range(1 << lattice.ncols):
        x = lattice.decode(mask)
        value = Fraction(x.c) * spec.product_value(sorted(x.poly), t0)
        ok = True
        for v in t0_places:
            if not (
                is_local_square_closed_form(value, v)
                or is_local_square_closed_form(value * torus_value, v)
            ):
                ok = False
                break
        if ok:
            for v in unit_places:
                if valuation(value, v.p) % 2:
                    ok = False
                    break
        if ok:
            for i, u in adm.witnesses:
                p_val = spec.factor_value(i, t0)
                if i not in x.poly:
                    cond = hilbert_symbol_closed_form(p_val, value, u)
                else:
                    cond = hilbert_symbol_closed_form(p_val, value * torus_value, u)
                if cond:
                    ok = False
                    break
        if ok:
            members.append(x)
    return set(members)


@pytest.mark.parametrize("index", [0, 5, 7])
def test_relative_dual_selmer_matches_lemma_conditions(index):
    spec, point, _ = family_point(index)
    p_t = build_suitable(spec, point)
    bounds = DescentBounds(admissible_candidates=100_000)
    adm = find_admissible(spec, p_t, bounds).point
    lattice = Lattice.of_spec(spec)
    _, dual = relative_selmer(spec, lattice, p_t, adm)
    computed = set(selmer_elements(lattice, dual))
    assert computed == _dual_selmer_by_lemma_conditions(spec, p_t, adm)


def test_state_invariants():
    spec, point, _ = family_point(5)
    p_t = build_suitable(spec, point)
    state = _make_state(spec, p_t, Lattice.of_spec(spec), DescentBounds(), [])
    lattice = state.lattice
    assert state.dual.contains(encode(lattice, g_element(-spec.d, spec.indices)))
    assert state.sel.contains(encode(lattice, g_element(spec.a, spec.part_a)))
    assert state.sel.contains(encode(lattice, g_element(spec.d, spec.indices)))
    assert state.sel.dim > state.dual.dim


def test_evaluation_map_injective():
    # no nonzero lattice element evaluates to a square at the admissible
    # point: the witness places are distinct and outside T
    import math

    from torusdescent.arith import valuation

    spec, point, _ = family_point(6)
    p_t = build_suitable(spec, point)
    adm = find_admissible(spec, p_t, DescentBounds()).point
    lattice = Lattice.of_spec(spec)  # T = S0 + S_bad
    primes = [v.p for v in p_t.places if v.is_finite]
    primes += [u.p for _, u in adm.witnesses]
    for mask in range(1, 1 << lattice.ncols):
        x = lattice.decode(mask)
        value = Fraction(x.c) * spec.product_value(sorted(x.poly), adm.t0)
        if value < 0:
            continue  # nontrivial at the real place already
        trivial = True
        residual = abs(value)
        for q in primes:
            val = valuation(value, q)
            residual /= Fraction(q) ** val
            if val % 2:
                trivial = False
        cofactor = residual.numerator * residual.denominator
        if math.isqrt(cofactor) ** 2 != cofactor:
            trivial = False
        assert not trivial, f"{x} evaluates to a square"


def _record_states(monkeypatch):
    """(state, selmer._cut_out calls while building it, its trace entry) of
    every state that _make_state builds from now on."""
    states = []
    cuts = []
    real_cut, real_make = selmer._cut_out, descent._make_state

    def counted_cut(*args):
        cuts.append(args)
        return real_cut(*args)

    def recorded_make(*args):
        before = len(cuts)
        state = real_make(*args)
        states.append((state, len(cuts) - before, state.trace[-1]))
        return state

    monkeypatch.setattr(selmer, "_cut_out", counted_cut)
    monkeypatch.setattr(descent, "_make_state", recorded_make)
    return states


# every descend input of the curated family and the large-prime members,
# with fiber solving on and off
DESCEND_CASES = (
    [f"family-{k:02d}/solve={solve}" for k in range(len(ALL_FAMILY)) for solve in (1, 0)]
    + [f"large-{p}/solve={solve}" for p in LARGE_PRIME_FAMILY for solve in (1, 0)])


@pytest.mark.parametrize("case", DESCEND_CASES)
def test_each_state_is_the_preimage_of_the_fiber_torus_selmer_pair(case, monkeypatch):
    """R and R-hat of every state that descend builds have the dimensions of
    the Selmer pair of the fiber torus above t0, over T0, the u_i, the real
    place and 2, and the state's split count is that torus's, as the
    _make_state docstring argues."""
    states = _record_states(monkeypatch)
    spec, point, bounds = case_input(case)
    descend(spec, point, bounds)
    assert states
    for state, _, entry in states:
        torus = fiber_torus_reference(state)
        n_split = entry["split_places"]
        assert len(split_places(torus, spec.s0)) == n_split
        # the torus's selmer_groups, with the identity checked on them
        assert dimension_identity(torus, spec.s0) == (state.sel.dim, state.dual.dim, n_split)


@pytest.mark.parametrize("case", DESCEND_CASES)
def test_each_state_matches_the_value_based_selmer_build(case, monkeypatch):
    """The pair relative_selmer reads off p_t's rows at T is the one cut
    out from the values p_i(t0) evaluated at every place, on every state
    that descend builds."""
    states = _record_states(monkeypatch)
    spec, point, bounds = case_input(case)
    descend(spec, point, bounds)
    assert states
    for state, _, _ in states:
        lattice = state_lattice_reference(spec, state.p_t, state.trace)
        assert (state.lattice.primes, state.lattice.factor_indices) == \
            (lattice.primes, lattice.factor_indices)
        assert (state.sel, state.dual) == relative_selmer_reference(
            spec, lattice, state.p_t, state.adm)


@pytest.mark.parametrize(
    "case", [f"family-{k:02d}/solve=0" for k in REDUCTION_MEMBERS + MULTI_REDUCTION_MEMBERS]
    + [f"fuzz-{seed}" for seed in SD_WITNESS_SEEDS])
def test_each_state_appends_its_new_place_to_the_lattice(case, monkeypatch):
    """The first state's lattice is the spec lattice, and each later one
    appends the one place its insertion added, in the trace's order, so a
    basis mask of an earlier state's R or R-hat decodes to the same element
    in every later state's lattice."""
    recorded = _record_states(monkeypatch)
    spec, point, bounds = case_input(case)
    descend(spec, point, bounds)
    states = [state for state, _, _ in recorded]
    assert len(states) > 1
    inserted = inserted_places(states[-1].trace)
    assert len(inserted) == len(states) - 1
    for k, state in enumerate(states):
        assert state.lattice.primes == (*spec.basis_primes, *inserted[:k])
        assert state.lattice.factor_indices == spec.indices
    for old, new in zip(states, states[1:]):
        assert set(new.p_t.places) - set(old.p_t.places) == {Place.finite(new.lattice.primes[-1])}
    for k, state in enumerate(states):
        masks = state.sel.basis + state.dual.basis
        decoded = [state.lattice.decode(m) for m in masks]
        for later in states[k + 1:]:
            assert [later.lattice.decode(m) for m in masks] == decoded


def test_relative_selmer_evaluates_t0_only_at_the_witness_places(monkeypatch):
    """At a place of T every local mask relative_selmer computes is that of
    -1 or of a lattice prime: the classes of the p_i(t0) and of -d*p_J(t0)
    there are read off p_t's rows.  Each witness place u_i gets the masks of
    the p_i(t0) and of -d*p_J(t0)."""
    masks = _count_calls(monkeypatch, "local_mask", arith)
    built = _calls_during(monkeypatch, descent, "relative_selmer", masks)
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        descend(spec, point, DescentBounds(solve_each_fiber=False))
    assert len(built) > len(ALL_FAMILY)
    for (spec, _, p_t, adm), calls in built:
        generators = {-1, *(v.p for v in p_t.places if v.is_finite)}
        assert all(x in generators for x, v in calls if v in p_t.places)
        for _, u in adm.witnesses:
            evaluated = [x for x, v in calls if v == u and x not in generators]
            assert evaluated == [adm.values[j] for j in spec.indices] + [adm.fiber.torus_d]


def test_make_state_builds_one_selmer_pair(monkeypatch):
    states = _record_states(monkeypatch)
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        descend(spec, point, DescentBounds(solve_each_fiber=False))
    assert len(states) > len(ALL_FAMILY)
    assert [cuts for _, cuts, _ in states] == [1] * len(states)


@pytest.mark.parametrize(
    "case", [f"family-{k:02d}/solve=0" for k in range(len(ALL_FAMILY))]
    + [f"large-{p}/solve=0" for p in LARGE_PRIME_FAMILY])
def test_row_invariant_vectors_match_the_closed_form(case, monkeypatch):
    """On the input point and every state's p_t, made by with_entry after a
    reduction, bit k of rows[v].brauer is the closed-form invariant at v of
    the generator of spec.indices[k], and bit k of the XOR of the rows is
    obstruction_sum_reference."""
    states = _record_states(monkeypatch)
    spec, point, bounds = case_input(case)
    descend(spec, point, bounds)
    assert states
    for p_t in [point] + [state.p_t for state, _, _ in states]:
        total = 0
        for v in p_t.places:
            vector, t_v = p_t.rows[v].brauer, p_t.entries[v].t
            total ^= vector
            assert [vector >> k & 1 for k in range(len(spec.indices))] == [
                hilbert_symbol_closed_form(brauer_constant_reference(spec, i),
                                           factor_value_reference(spec, i, t_v), v)
                for i in spec.indices]
        assert [total >> k & 1 for k in range(len(spec.indices))] == [
            obstruction_sum_reference(spec, p_t, i) for i in spec.indices]


def _calls_during(monkeypatch, owner, name, calls):
    """For each call of owner.name from now on, its arguments and the slice
    of `calls` made during it."""
    spans, real = [], getattr(owner, name)

    def recorded(*args):
        before = len(calls)
        result = real(*args)
        spans.append((args, calls[before:]))
        return result

    monkeypatch.setattr(owner, name, recorded)
    return spans


def test_suitability_of_a_built_point_computes_no_local_mask(monkeypatch):
    masks = _count_calls(monkeypatch, "local_class", arith)  # local_mask calls it
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        before = len(masks)
        suitability(spec, point)
        assert masks[before:] == []


def test_an_inserted_place_costs_one_row_of_invariants(monkeypatch):
    """with_entry computes the invariants of the new place alone, and
    neither a suitability check the descent makes nor an admissible point's
    checks compute any: the reciprocity check at u_i is one Hilbert symbol."""
    invariants = _count_calls(monkeypatch, "invariant", brauer)
    inserted = _calls_during(monkeypatch, PartialAdelicPoint, "with_entry", invariants)
    checks = _calls_during(monkeypatch, descent, "_require_suitable", invariants)
    tried = _calls_during(monkeypatch, descent, "_try_admissible", invariants)
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        descend(spec, point, DescentBounds(solve_each_fiber=False))
    assert inserted and len(checks) >= len(inserted)
    assert len(tried) > len(ALL_FAMILY)
    assert all(calls == [] for _, calls in checks + tried)
    for (p_t, w, _), calls in inserted:
        assert [(i, v) for _, i, _, v in calls] == [(i, w) for i in p_t.spec.indices]


def test_the_admissible_checks_lift_no_witness(monkeypatch):
    lifts = _count_calls(monkeypatch, "sqrt_lift", arith)
    scans = _count_calls(monkeypatch, "unit_square_scan", points)
    lifted = _calls_during(monkeypatch, descent, "_try_admissible", lifts)
    scanned = _calls_during(monkeypatch, descent, "_try_admissible", scans)
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        descend(spec, point, DescentBounds())
    assert len(lifted) > len(ALL_FAMILY)
    assert sum(len(calls) for _, calls in scanned) > len(ALL_FAMILY)
    assert all(calls == [] for _, calls in lifted)


def test_the_admissible_checks_scan_each_place_outside_s0_once(monkeypatch):
    """Integral solubility at every finite place outside S0, those of T and
    the witness places u_i, is decided by one unit_square_scan each; the
    good-place criterion is left to the test oracles."""
    scans = _count_calls(monkeypatch, "unit_square_scan", points)
    tried = _calls_during(monkeypatch, descent, "_try_admissible", scans)
    for k in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(k)
        descend(spec, point, DescentBounds(solve_each_fiber=False))
    for p in LARGE_PRIME_FAMILY:
        spec, point, _ = large_prime_point(p)
        descend(spec, point, DescentBounds(solve_each_fiber=False))
    assert len(tried) > len(ALL_FAMILY) + len(LARGE_PRIME_FAMILY)
    for (spec, p_t, t0, witnesses), calls in tried:
        expected = [v for v in p_t.places if v.is_finite and v not in spec.s0]
        assert [v for _, _, v in calls] == expected + [u for _, u in witnesses]
        for _, u in witnesses:  # the scan found a point there, as the criterion says
            assert good_place_solubility_reference(
                spec, u, factor_values_reference(spec, t0)) == "soluble"
    assert "good_place_solubility" not in vars(points)


@pytest.mark.parametrize("witnesses, text", [
    ([(1, Place.finite(37)), (2, Place.finite(37))], "37, 37"),
    ([(1, Place.finite(2)), (2, Place.finite(37))], "2, 37"),
], ids=["repeated", "inside-T"])
def test_witness_places_must_be_distinct_and_outside_t(witnesses, text):
    spec, p_t = _progression(0)[:2]
    with pytest.raises(DescentAnomaly,
                       match=f"^witness places {text} are not distinct places outside T$"):
        descent._try_admissible(spec, p_t, p_t.entries[REAL].t, witnesses)


@pytest.mark.parametrize("groups, text", [
    ("zero dual", r"\] escaped the relative dual Selmer group$"),
    ("zero sel", r"\] escaped the relative Selmer group$"),
    ("whole", r"^relative dimension gap (\d+)-\1 != split count [1-9]\d*$"),
    ("whole, no split", r"^no split place: suitability \(4\) violated upstream$"),
])
def test_make_state_anomalies(groups, text, monkeypatch):
    """Each DescentAnomaly of _make_state, forced by replacing its groups: a
    zero R-hat or R loses a target generator, the whole lattice for both
    has the gap 0, and that gap is the split count when no place splits."""
    spec, point, _ = family_point(5)
    p_t = build_suitable(spec, point)
    real_selmer = descent.relative_selmer

    def replaced(spec, lattice, *args):
        sel, dual = real_selmer(spec, lattice, *args)
        zero = gf2.Subspace(lattice.ncols)
        whole = gf2.Subspace(lattice.ncols, [1 << k for k in range(lattice.ncols)])
        return {"zero dual": (sel, zero), "zero sel": (zero, dual)}.get(groups, (whole, whole))

    monkeypatch.setattr(descent, "relative_selmer", replaced)
    if groups.endswith("no split"):
        # -d*p_J(t_v) a non-square in every S0 row; the scan reads only factors
        p_t = PartialAdelicPoint(spec, p_t.entries, {
            v: row._replace(torus=(row.torus[0], 1)) if v in spec.s0 else row
            for v, row in p_t.rows.items()})
    with pytest.raises(DescentAnomaly, match=text):
        _make_state(spec, p_t, Lattice.of_spec(spec), DescentBounds(), [])


# ---------------------------------------------------------------------------
# the reduction step
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("index", REDUCTION_MEMBERS)
def test_reduce_strictly_decreases(index):
    spec, point, _ = family_point(index)
    p_t = build_suitable(spec, point)
    state = _make_state(spec, p_t, Lattice.of_spec(spec), DescentBounds(), [])
    assert state.dual.dim >= 2
    neg = g_element(-spec.d, spec.indices)
    before = state.dual.dim
    new_state = reduce_dual_selmer(state, DescentBounds())
    assert new_state.dual.dim < before
    assert new_state.dual.contains(encode(new_state.lattice, neg))
    # the trace recorded the reduction with the chosen prime
    steps = [s for s in new_state.trace if s["step"] == "reduce_dual_selmer"]
    assert steps and steps[-1]["dim_after"] < steps[-1]["dim_before"]


def test_descend_with_reduction_terminates(index=5):
    spec, point, _ = family_point(index)
    bounds = DescentBounds(solve_each_fiber=False, height=50)
    cert = descend(spec, point, bounds)
    assert cert.outcome in ("dual_selmer_minimized", "point_found", "search_exhausted")
    reduces = [s for s in cert.trace if s["step"] == "reduce_dual_selmer"]
    dims = [s["dim_dual_selmer"] for s in cert.trace if s["step"] == "admissible_point"]
    assert reduces, "expected at least one executed reduction"
    for step in reduces:
        assert step["dim_after"] < step["dim_before"]
    assert len(reduces) <= dims[0]


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------


def test_descend_trivially_soluble():
    spec, point, _ = family_point(0)
    cert = descend(spec, point, DescentBounds(height=400))
    assert cert.outcome == "point_found"
    x = Fraction(cert.data["x"])
    y = Fraction(cert.data["y"])
    t = Fraction(cert.data["t"])
    assert verify_integral_point(spec, x, y, t)
    assert cert.data["reverified"] is True


def test_descend_hypothesis_failure_short_circuits():
    spec = make_spec([2], 2, -1, {1: (1, 0)}, [1])
    point = PartialAdelicPoint(
        spec, {v: LocalPoint.make(1, 1, 1, 10) for v in compute_s(spec)}
    )
    cert = descend(spec, point)
    assert cert.outcome == "hypothesis_failed"
    assert "condition_D" in cert.data["failures"]
    assert len(cert.trace) == 1  # no descent work after the failed check


def test_certificate_round_trip():
    spec, point, _ = family_point(0)
    cert = descend(spec, point, DescentBounds(height=400))
    payload = cert.as_dict()
    again = Certificate.from_dict(payload)
    assert again.as_dict() == payload
    assert payload["spec_hash"]
    assert payload["readings"]


def test_search_exhaustion_is_reported():
    spec, point, _ = family_point(5)
    bounds = DescentBounds(
        solve_each_fiber=False, height=10, admissible_candidates=3
    )
    cert = descend(spec, point, bounds)
    assert cert.outcome == "search_exhausted"
    assert cert.data["stage"] == "admissible_point"
    assert cert.data["bound"] == 3


def test_bounded_chamber_exhausts_immediately():
    # p_1 = t, p_2 = 1 - t and a real component inside (0, 1): the sign
    # chamber is shorter than the approximation progression step
    spec = make_spec([2], 1, 1, {1: (1, 0), 2: (-1, 1)}, [1])
    entries = {
        v: LocalPoint.make(1, 1, Fraction(1, 2), 10)
        for v in compute_s(spec)
    }
    p_t = PartialAdelicPoint(spec, entries)
    assert p_t.validate() == []
    with pytest.raises(DescentError, match="admissible_point"):
        find_admissible(spec, p_t, DescentBounds())


def test_sd_witness_insertion_kills_element():
    # insert an on-demand witness place for a dual-group element and check
    # the recomputed group excludes it while keeping [-d][p_J]
    from torusdescent.descent import _add_sd_witness

    spec, point, _ = family_point(5)
    p_t = build_suitable(spec, point)
    state = _make_state(spec, p_t, Lattice.of_spec(spec), DescentBounds(), [])
    neg = g_element(-spec.d, spec.indices)
    lattice = state.lattice
    x = next(m for m in state.dual.elements() if m and lattice.decode(m) != neg)
    target = lattice.decode(x)
    new_state = _add_sd_witness(state, x, bounds=DescentBounds())
    assert not new_state.dual.contains(encode(new_state.lattice, target))
    assert new_state.dual.contains(encode(new_state.lattice, neg))
    inserted = [s for s in new_state.trace if s["step"] == "sd_witness"]
    assert inserted and inserted[-1]["side"] == "dual"
    # the one new place is the trace's, appended to the old lattice's primes
    w = Place.finite(inserted[-1]["place"])
    assert set(new_state.p_t.places) - set(p_t.places) == {w}
    assert new_state.lattice.primes == (*lattice.primes, w.p)


# golden fuzz seeds (tests/test_golden_descend.py) whose descent reduces
PICK_FUZZ_SEEDS = (2, 10, 22, 25, 30, 31, 33, 62, 69)


@pytest.mark.parametrize(
    "case", [f"family-{k}" for k in REDUCTION_MEMBERS + MULTI_REDUCTION_MEMBERS]
    + [f"fuzz-{seed}" for seed in PICK_FUZZ_SEEDS])
def test_pick_elements_matches_the_sorted_element_reference(case, monkeypatch):
    """On every state that descend reduces, the masks _pick_elements picks
    decode to the elements the sorted-GElement reference picks."""
    picks = []
    real_pick = descent._pick_elements

    def checked_pick(state):
        x0, x1 = real_pick(state)
        assert (state.lattice.decode(x0), state.lattice.decode(x1)) == \
            pick_elements_reference(state)
        picks.append(state)
        return x0, x1

    monkeypatch.setattr(descent, "_pick_elements", checked_pick)
    kind, _, number = case.partition("-")
    if kind == "family":
        spec, point, _ = family_point(int(number))
        bounds = DescentBounds(solve_each_fiber=False)
    else:
        spec, point, bounds = _fuzz_input(int(number))
    descend(spec, point, bounds)
    assert picks
