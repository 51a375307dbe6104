"""Randomized robustness pass over the whole pipeline.

Random specs are driven through hypothesis checking and, where the input
data qualifies, through the full descent with small bounds.  Any outcome
is acceptable; what must never happen is an escaped anomaly (the internal
method invariants double as a correctness oracle) or a malformed
certificate.
"""

import json
import random
import time
from fractions import Fraction

from torusdescent.cli import canonical_json
from torusdescent.descent import (
    Certificate,
    DescentBounds,
    DescentError,
    check_hypotheses,
    descend,
)
from torusdescent.points import solve_global
from torusdescent.surface import (
    LocalPoint,
    PartialAdelicPoint,
    SpecValidationError,
    fiber,
    make_spec,
)

from oracles import compute_s


def _random_spec(rng):
    while True:
        n = rng.randint(1, 3)
        factors = {
            i: (rng.choice([1, 1, 1, 2, 3]), rng.randint(-6, 6))
            for i in range(1, n + 1)
        }
        a = rng.choice([x for x in range(-10, 11) if x])
        b = rng.choice([x for x in range(-10, 11) if x])
        part_a = [i for i in factors if rng.random() < 0.5]
        s0 = rng.choice([[2], [2], [2, 3], [2, 5], []])
        try:
            return make_spec(s0, a, b, factors, part_a)
        except SpecValidationError:
            continue


def _candidate_point(spec, rng):
    """Constant-t adelic data from a global point, when one exists nearby."""
    roots = [spec.root(i) for i in spec.indices]
    ts = [t for t in range(-45, 46) if t and (t < min(roots) or t > max(roots))]
    rng.shuffle(ts)
    for t in ts[:30]:
        t = Fraction(t)
        if spec.product_value(spec.indices, t) == 0:
            continue
        fib = fiber(spec, t)
        sol = solve_global(fib.aA, fib.bB, spec.s0_finite_primes, 50)
        if sol is None:
            continue
        entries = {
            v: LocalPoint.make(sol[0], sol[1], t, 12) for v in compute_s(spec)
        }
        return PartialAdelicPoint(spec, entries)
    return None


def test_pipeline_never_breaks_its_invariants():
    rng = random.Random(2024)
    started = time.time()
    ran_descents = 0
    checked_specs = 0
    while checked_specs < 120 and time.time() - started < 120:
        spec = _random_spec(rng)
        checked_specs += 1
        point = _candidate_point(spec, rng)
        if point is None:
            continue
        report = check_hypotheses(spec, point)
        if report.input_problems:
            continue
        bounds = DescentBounds(
            height=120,
            admissible_candidates=4000,
            prime_scan=4000,
            max_steps=8,
            solve_each_fiber=rng.random() < 0.7,
        )
        try:
            cert = descend(spec, point, bounds)
        except DescentError as exc:
            # input-level rejections are fine; anomalies are not
            assert "invalid input point" in str(exc), exc
            continue
        ran_descents += 1
        assert cert.outcome in (
            "point_found",
            "dual_selmer_minimized",
            "search_exhausted",
            "hypothesis_failed",
        )
        payload = json.loads(canonical_json(cert.as_dict()))
        assert Certificate.from_dict(payload).as_dict() == cert.as_dict()
        if cert.outcome == "point_found":
            from torusdescent.points import verify_integral_point

            assert verify_integral_point(
                spec,
                Fraction(cert.data["x"]),
                Fraction(cert.data["y"]),
                Fraction(cert.data["t"]),
            )
    assert ran_descents >= 25, f"only {ran_descents} descents ran"
