"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the summary lines
and timings.  Random draws are seeded, so the suite is deterministic.
"""

import random
import time
from fractions import Fraction

from torusdescent.arith import (
    REAL,
    Place,
    factorize,
    hilbert_symbol,
    is_local_square,
)
from torusdescent.brauer import residue_at
from torusdescent.conditiond import Lattice, check_condition_d
from torusdescent.descent import (
    DescentBounds,
    _make_state,
    _try_admissible,
    build_suitable,
    descend,
    find_admissible,
)
from torusdescent.points import local_solubility, verify_integral_point
from torusdescent.selmer import relative_selmer, selmer_groups, torus_data
from torusdescent.surface import SpecValidationError, fiber, make_spec

from fixtures import (
    ALL_FAMILY,
    MULTI_REDUCTION_MEMBERS,
    REDUCTION_MEMBERS,
    SOLUBLE_FAMILY,
    family_point,
)
from oracles import (
    class_is_identity,
    conic_soluble_bruteforce,
    dimension_identity,
    dual_selmer_by_enumeration,
    encode,
    expected_g_d_generators,
    factor_values_reference,
    fiber_point_bruteforce,
    find_admissible_reference,
    g_d_bruteforce,
    g_element,
    good_place_solubility_reference,
    hensel_solve_reference,
    hilbert_relevant_places,
    selmer_by_enumeration,
    selmer_elements,
    span_of,
    sqfree,
)


def report(criterion: str, detail: str, started: float):
    print(f"criterion {criterion}: PASS ({time.time()-started:.2f}s) {detail}")


# ---------------------------------------------------------------------------
# 1. Hilbert reciprocity
# ---------------------------------------------------------------------------


def test_criterion_1_hilbert_reciprocity():
    started = time.time()
    rng = random.Random(101)
    for _ in range(2000):
        a = rng.randint(1, 10**4) * rng.choice([1, -1])
        b = rng.randint(1, 10**4) * rng.choice([1, -1])
        total = 0
        for v in hilbert_relevant_places(a, b):
            total ^= hilbert_symbol(a, b, v)
        assert total == 0, (a, b)
    elapsed = time.time() - started
    assert elapsed < 5.0, f"too slow: {elapsed:.2f}s"
    report("1 (Hilbert reciprocity)", "2000 random pairs", started)


# ---------------------------------------------------------------------------
# 2. Hilbert symbol vs brute-force conic solubility
# ---------------------------------------------------------------------------


def test_criterion_2_hilbert_oracle_equivalence():
    started = time.time()
    disagreements = 0
    for p in (2, 3, 5, 7, 13):
        v = Place.finite(p)
        for a in range(-50, 51):
            if a == 0:
                continue
            for b in range(-50, 51):
                if b == 0:
                    continue
                closed = hilbert_symbol(a, b, v)
                brute = conic_soluble_bruteforce(a, b, p)
                if (closed == 0) != brute:
                    disagreements += 1
    assert disagreements == 0
    elapsed = time.time() - started
    assert elapsed < 60.0, f"too slow: {elapsed:.2f}s"
    report("2 (Hilbert oracle equivalence)", "|a|,|b| <= 50, p in {2,3,5,7,13}", started)


# ---------------------------------------------------------------------------
# 3 and 4. Selmer groups vs exhaustive enumeration; dimension identity
# ---------------------------------------------------------------------------


def _random_torus_suite(seed, count):
    rng = random.Random(seed)
    suite = []
    while len(suite) < count:
        d = 1
        for p in (2, 3, 5, 7, 11, 13):
            if rng.random() < 0.25:
                d *= p
        if rng.random() < 0.5:
            d = -d
        primes = set(factorize(d)) | {2}
        for p in (3, 5, 7, 11, 13):
            if len(primes) >= 5:
                break
            if p not in primes and rng.random() < 0.25:
                primes.add(p)
        if len(primes) > 5:
            continue
        places = [REAL] + [Place.finite(p) for p in sorted(primes)]
        suite.append(torus_data(d, places))
    return suite


def test_criterion_3_selmer_oracle():
    started = time.time()
    for torus in _random_torus_suite(103, 200):
        lattice, sel, dual = selmer_groups(torus)
        assert {g.c for g in selmer_elements(lattice, sel)} == selmer_by_enumeration(
            torus.d, torus.places)
        assert {g.c for g in selmer_elements(lattice, dual)} == dual_selmer_by_enumeration(
            torus.d, torus.places
        )
    elapsed = time.time() - started
    assert elapsed < 30.0, f"too slow: {elapsed:.2f}s"
    report("3 (Selmer enumeration oracle)", "200 random square-free d, |S| <= 6", started)


def test_criterion_4_dimension_identity():
    started = time.time()
    rng = random.Random(104)
    for torus in _random_torus_suite(103, 200):
        base = [
            v
            for v in torus.places
            if is_local_square(torus.d, v) or rng.random() < 0.5
        ]
        if REAL not in base:
            base.append(REAL)
        dim_sel, dim_dual, n_split = dimension_identity(torus, base)
        assert dim_sel - dim_dual == n_split
    report("4 (dimension identity)", "same suite, exact", started)


# ---------------------------------------------------------------------------
# 5. Condition (D) exactness
# ---------------------------------------------------------------------------


def _random_specs(seed, count, max_factors=3):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, max_factors)
        factors = {}
        for i in range(1, n + 1):
            factors[i] = (rng.choice([1, 1, 2, 3, -1]), rng.randint(-8, 8))
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        part_a = [i for i in factors if rng.random() < 0.5]
        s0 = rng.choice([[], [2], [2, 3]])
        try:
            out.append(make_spec(s0, a, b, factors, part_a))
        except SpecValidationError:
            continue
    return out


def test_criterion_5_condition_d_exactness():
    started = time.time()
    for spec in _random_specs(105, 50):
        condition_d = check_condition_d(spec)
        g_d, g_d_dual = condition_d.g_d, condition_d.g_d_dual
        assert set(g_d) == g_d_bruteforce(spec, dual=False)
        assert set(g_d_dual) == g_d_bruteforce(spec, dual=True)
        for gen in span_of(expected_g_d_generators(spec)):
            assert gen in g_d
        for gen in span_of(expected_g_d_generators(spec, dual=True)):
            assert gen in g_d_dual
    elapsed = time.time() - started
    assert elapsed < 30.0, f"too slow: {elapsed:.2f}s"
    report("5 (Condition D exactness)", "50 random specs, |J| <= 3", started)


# ---------------------------------------------------------------------------
# 6. Vertical Brauer residues and invariant sums
# ---------------------------------------------------------------------------


def test_criterion_6_brauer_residues_and_sums():
    started = time.time()
    rng = random.Random(106)
    fibers_checked = 0
    for spec in _random_specs(106, 50):
        for i in spec.indices:
            for j in spec.indices:
                res = residue_at(spec, i, spec.root(j))
                if j != i:
                    assert class_is_identity(res), (spec, i, j)
                else:
                    assert res == sqfree(spec.brauer_constants[i])
            # unramified at every other rational point
            for t in (rng.randint(-20, 20), Fraction(rng.randint(-9, 9), 2)):
                if spec.factor_value(i, t) != 0:
                    assert class_is_identity(residue_at(spec, i, Fraction(t)))
        # invariant sums over everywhere-locally-soluble sampled fibers
        sampled = 0
        for t in range(-60, 61):
            if sampled >= 20:
                break
            t = Fraction(t)
            if spec.product_value(spec.indices, t) == 0:
                continue
            fib = fiber(spec, t)
            soluble = fib.aA > 0 or fib.bB > 0
            if soluble:
                for v in hilbert_relevant_places(fib.aA, fib.bB):
                    if hilbert_symbol(fib.aA, fib.bB, v):
                        soluble = False
                        break
            if not soluble:
                continue
            sampled += 1
            fibers_checked += 1
            for i in spec.indices:
                left = spec.brauer_constants[i]
                value = spec.factor_value(i, t)
                total = 0
                for v in hilbert_relevant_places(left, value):
                    total ^= hilbert_symbol(left, value, v)
                assert total == 0, (spec, i, t)
    assert fibers_checked >= 200
    report(
        "6 (vertical Brauer residues)",
        f"50 specs, {fibers_checked} soluble fibers", started,
    )


# ---------------------------------------------------------------------------
# 7. Good-place criterion vs the integral model's unit-square criterion
# ---------------------------------------------------------------------------


def test_criterion_7_good_place_agreement():
    started = time.time()
    rng = random.Random(107)
    specs = _random_specs(107, 25)
    checked = searched = 0
    while checked < 500:
        spec = rng.choice(specs)
        v = Place.finite(rng.choice([3, 5, 7, 11, 13, 17, 19, 23]))
        t = rng.randint(-60, 60)
        if spec.product_value(spec.indices, t) == 0:
            continue
        try:
            crit = good_place_solubility_reference(spec, v, factor_values_reference(spec, t))
        except ValueError:
            continue  # not a good place; the criterion does not apply
        fib = fiber(spec, t)
        direct = local_solubility(fib.aA, fib.bB, v, model="integral")
        assert direct.status == crit, (spec, v, t)
        # the residue search of the oracles, wherever it is definite
        search = hensel_solve_reference((fib.aA, fib.bB), -1, v.p, direct.precision)
        if search.status != "inconclusive":
            assert search.status == {"soluble": "witness", "insoluble": "none"}[crit], \
                (spec, v, t)
            searched += 1
        checked += 1
    assert searched > 400
    report("7 (good-place solubility)",
           f"500 sampled triples, {searched} also against the residue search", started)


# ---------------------------------------------------------------------------
# 8. Admissible-point machinery
# ---------------------------------------------------------------------------


def test_criterion_8_admissible_machinery():
    started = time.time()
    assert len(ALL_FAMILY) >= 20
    bounds = DescentBounds(admissible_candidates=100_000)
    for index in range(len(ALL_FAMILY)):
        spec, point, _ = family_point(index)
        p_t = build_suitable(spec, point)
        search = find_admissible(spec, p_t, bounds)
        for i, u in search.point.witnesses:  # the reciprocity certificate is 0
            left, value = spec.brauer_constants[i], spec.factor_value(i, search.point.t0)
            assert hilbert_symbol(left, value, u) == 0, index
            assert sum(hilbert_symbol(left, value, v) for v in (*p_t.places, u)) % 2 == 0, index
        t0, witnesses, _ = find_admissible_reference(spec, p_t, bounds,
                                                     reject=[search.point.t0])
        second = _try_admissible(spec, p_t, t0, list(witnesses))
        assert search.point.t0 != second.t0
        lattice = Lattice.of_spec(spec)
        _, dual_a = relative_selmer(spec, lattice, p_t, search.point)
        _, dual_b = relative_selmer(spec, lattice, p_t, second)
        assert dual_a == dual_b, index
    report(
        "8 (admissible machinery)",
        "20 specs; reciprocity 0; relative groups equal at two points", started,
    )


# ---------------------------------------------------------------------------
# 9. Strict decrease of the dual Selmer dimension
# ---------------------------------------------------------------------------


def test_criterion_9_strict_decrease():
    started = time.time()
    executed = 0
    for index in REDUCTION_MEMBERS + MULTI_REDUCTION_MEMBERS:
        spec, point, _ = family_point(index)
        cert = descend(spec, point, DescentBounds(solve_each_fiber=False, height=40))
        dims = [
            s["dim_dual_selmer"] for s in cert.trace if s["step"] == "admissible_point"
        ]
        steps = [s for s in cert.trace if s["step"] == "reduce_dual_selmer"]
        assert steps, f"member {index} executed no reductions"
        for step in steps:
            assert step["dim_after"] <= step["dim_before"] - 1
        assert len(steps) <= dims[0]
        assert cert.outcome in (
            "point_found",
            "dual_selmer_minimized",
            "search_exhausted",
        )
        executed += len(steps)
        # preservation of [-d][p_J] is asserted inside every step; re-check
        # the terminal group on a fresh state
        p_t = build_suitable(spec, point)
        state = _make_state(spec, p_t, Lattice.of_spec(spec), DescentBounds(), [])
        neg = encode(state.lattice, g_element(-spec.d, spec.indices))
        assert state.dual.contains(neg)
    assert executed >= 4
    report("9 (strict decrease)", f"{executed} executed reductions", started)


# ---------------------------------------------------------------------------
# 10. End-to-end soundness on the curated soluble family
# ---------------------------------------------------------------------------


def test_criterion_10_end_to_end():
    started = time.time()
    assert len(SOLUBLE_FAMILY) >= 10
    outcomes = []
    for index in range(len(SOLUBLE_FAMILY)):
        spec, point, (x, y, t_star) = family_point(index)
        # independent brute force finds a point within height 1000
        brute = fiber_point_bruteforce(spec, t_star, 1000)
        assert brute is not None, f"member {index} is not demonstrably soluble"
        cert = descend(spec, point, DescentBounds(height=1000))
        assert cert.outcome in (
            "point_found",
            "search_exhausted",
            "dual_selmer_minimized",
        ), f"member {index}: {cert.outcome}"
        if cert.outcome == "point_found":
            px = Fraction(cert.data["x"])
            py = Fraction(cert.data["y"])
            pt = Fraction(cert.data["t"])
            assert verify_integral_point(spec, px, py, pt)
        outcomes.append(cert.outcome)
    assert outcomes.count("point_found") >= 5
    elapsed = time.time() - started
    assert elapsed < 600.0, f"too slow: {elapsed:.2f}s"
    report(
        "10 (end-to-end soundness)",
        f"{len(outcomes)} specs: " + ", ".join(sorted(set(outcomes))), started,
    )
