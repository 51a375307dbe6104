"""Curated surface specifications used across the descent test modules.

Each entry carries a base value t_star whose fiber holds a small global
point; the constant-t point file built from it satisfies every hypothesis
of the pipeline (verified at curation time and re-verified by the tests).
"""

from fractions import Fraction

from torusdescent.points import solve_global
from torusdescent.surface import (
    LocalPoint,
    PartialAdelicPoint,
    fiber,
    make_spec,
)

from oracles import compute_s

# (s0_primes, a, b, factors, part_a, t_star)
SOLUBLE_FAMILY = [
    ([2], 1, 1, {1: (1, 0)}, [1], -60),
    ([2], 2, 1, {1: (1, 3)}, [1], -60),
    ([2], 1, 3, {1: (1, -4)}, [], -60),
    ([2], 1, -1, {1: (1, 0)}, [], -47),
    ([2], 1, -2, {1: (1, 0), 2: (1, 1)}, [], -60),
    ([2], 1, 10, {1: (1, 0), 2: (1, 2)}, [1], 4),
    ([2], 5, 1, {1: (1, 0), 2: (1, 1)}, [1], 3),
    ([2], 1, -2, {1: (1, 1), 2: (1, -1)}, [1], -45),
    ([2], -2, 2, {1: (1, 0), 2: (1, 2)}, [1], -60),
    ([2], 7, -3, {1: (1, 1), 2: (1, -1)}, [1], -54),
    ([2], 10, -2, {1: (1, 0), 2: (1, 1)}, [1], -48),
    ([2], -1, -2, {1: (1, 1), 2: (1, -1)}, [1], -43),
    # 2 outside S0: the exact val_2 = 1 requirement is live
    ([], 1, -1, {1: (1, 0)}, [], 2),
    # S0 with an odd prime: denominators at 5 allowed everywhere
    ([2, 5], 5, 1, {1: (1, 0)}, [1], -60),
    # non-monic factor: the leading coefficient 3 joins S_bad
    ([2], 1, 1, {1: (3, 1)}, [1], -60),
]

# additional suitable-capable members used by the admissible-point criteria
EXTRA_FAMILY = [
    ([2], 7, 1, {1: (1, 0), 2: (1, 1)}, [1, 2], -53),
    ([2], 7, 2, {1: (1, 0), 2: (1, 2)}, [1], 2),
    ([2], 7, -1, {1: (1, 0), 2: (1, 6)}, [1], -59),
    ([2], 7, -2, {1: (1, 0), 2: (1, 6)}, [1], -52),
    ([2], 5, 6, {1: (1, 0), 2: (1, 6)}, [1], 38),
    ([2], -3, -1, {1: (1, 0), 2: (1, 6)}, [1], -40),
    ([2], 10, 1, {1: (1, 3)}, [1], -60),
    ([2], -2, 10, {1: (1, 0), 2: (1, 1)}, [1], -48),
    ([2], 1, 1, {1: (1, 0), 2: (1, 1), 3: (1, -1)}, [1, 2, 3], -47),
    ([2], 1, 1, {1: (1, 0), 2: (1, 1), 3: (1, 3)}, [3], -8),
]

# members whose initial relative dual Selmer group has dimension >= 2, so
# the descent loop must execute reductions when fiber solving is disabled;
# indices into SOLUBLE_FAMILY + EXTRA_FAMILY
REDUCTION_MEMBERS = [5, 6, 12, 24]
MULTI_REDUCTION_MEMBERS = [16]  # initial dual dimension 3: two reductions


ALL_FAMILY = SOLUBLE_FAMILY + EXTRA_FAMILY

# members whose T holds a prime p > 316, keyed by p: a residue search over
# the p^2 pairs (x, y) would be too large there, and the unit-square
# criterion of local_solubility(..., "integral") decides them all the same
LARGE_PRIME_FAMILY = {
    317: ([2], 3, -4, {1: (1, 0), 2: (1, -317)}, [1], -44),
    331: ([2], -5, 2, {1: (1, 0), 2: (1, 331)}, [1], -14),
}

# a member whose real chamber, between the roots -22 and 17, holds a single
# value of the admissible progression: the scan ends after one candidate
BOUNDED_CHAMBER_MEMBER = ([2], 3, 4, {1: (1, 22), 2: (1, -17)}, [2], 9)


def family_spec(index):
    s0, a, b, factors, part_a, _ = ALL_FAMILY[index]
    return make_spec(s0, a, b, factors, part_a)


def family_point(index, height=400):
    """Constant-t adelic point data built from a global point on the fiber."""
    return member_point(ALL_FAMILY[index], height)


def large_prime_point(p):
    """family_point of the LARGE_PRIME_FAMILY member of the prime p."""
    return member_point(LARGE_PRIME_FAMILY[p])


def member_point(member, height=400):
    """(spec, point, (x, y, t_star)) of a member: the global point (x, y) on
    the fiber above t_star, copied to every place of T."""
    s0, a, b, factors, part_a, t_star = member
    spec = make_spec(s0, a, b, factors, part_a)
    fib = fiber(spec, t_star)
    sol = solve_global(fib.aA, fib.bB, spec.s0_finite_primes, height)
    assert sol is not None, f"family member {member} lost its point"
    x, y = sol
    entries = {
        v: LocalPoint.make(x, y, t_star, 12) for v in compute_s(spec)
    }
    return spec, PartialAdelicPoint(spec, entries), (x, y, Fraction(t_star))
