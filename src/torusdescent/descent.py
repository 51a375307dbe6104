"""The descent loop: hypothesis verification, suitable partial adelic
points, admissible fiber search, and dual-Selmer reduction by place
enlargement.

The two conjectural inputs are replaced by bounded searches that report
exhaustion as a first-class outcome: simultaneous-prime values of the
factors are found by scanning an arithmetic progression, and the character
conditions normally supplied by Chebotarev are found by scanning primes.

The reduction step works on masks of the state's relative lattice
(DescentState.lattice): the elements it picks, normalizes, tests for
membership in G_i / G^i and localizes at the new place are ints from the
moment they are picked, and are decoded only for trace strings.  The first
state's lattice is the spec lattice, and each inserted place appends its
prime, so a mask of one state is the same element in every later state,
and the checks that compare two states test it directly.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from . import gf2
from .arith import (
    _SMALL_PRIMES,
    REAL,
    Place,
    Rational,
    class_from_mask,
    crt,
    hilbert_symbol,
    local_dim,
    prime_stream,
    strip_primes,
    valuation,
)
from .conditiond import (
    ConditionDReport,
    Lattice,
    check_condition_d,
    constant_mask,
    in_g_i,
    target_generators,
)
from .points import local_solubility, solve_global, unit_square_scan, verify_integral_point
from .selmer import relative_selmer
from .surface import (
    AdmissiblePoint,
    FiberSpec,
    LocalPoint,
    PartialAdelicPoint,
    SurfaceSpec,
    factor_row,
    spec_hash,
)

# Interpretation choices recorded in every report (see the module notes).
READINGS = {
    "delta_normalization": "integral cross-resultants c_i*d_j - c_j*d_i; "
    "S_bad additionally contains the supports of the leading coefficients c_i",
    "suitability_condition_4": "-d*p_J(t_v) is required to be a nonzero square "
    "at some place of S0",
}


class DescentError(Exception):
    pass


class SearchExhausted(DescentError):
    def __init__(self, stage: str, bound: int, detail: str = ""):
        super().__init__(f"{stage}: search exhausted at bound {bound} {detail}")
        self.stage = stage
        self.bound = bound
        self.detail = detail


class DescentAnomaly(DescentError):
    """An invariant the method guarantees failed; indicates a bug or bad input."""


class DescentBounds(NamedTuple):
    admissible_candidates: int = 50_000
    prime_scan: int = 50_000
    height: int = 1_000
    max_steps: int = 24
    solve_each_fiber: bool = True

    def as_dict(self) -> Dict[str, int]:
        return {name: int(value) for name, value in self._asdict().items()}


# ---------------------------------------------------------------------------
# Hypothesis verification
# ---------------------------------------------------------------------------


class HypothesisReport(NamedTuple):
    condition_d: ConditionDReport
    failures: List[str]  # names of failed hypotheses
    input_problems: List[str]  # malformed or insufficient point data
    split_place: Optional[Place]
    brauer_sums: Dict[int, int]
    details: List[str]

    @property
    def passed(self) -> bool:
        return not self.failures and not self.input_problems

    def as_dict(self) -> Dict:
        return {
            "condition_d_holds": self.condition_d.holds,
            "failures": list(self.failures),
            "input_problems": list(self.input_problems),
            "split_place": str(self.split_place) if self.split_place else None,
            "brauer_sums": {str(i): s for i, s in sorted(self.brauer_sums.items())},
            "details": list(self.details),
        }


def _working_places(spec: SurfaceSpec) -> Set[Place]:
    """S0 + S_bad: the places a suitable point supplies."""
    return set(spec.s0) | set(spec.s_bad)


def suitability(
    spec: SurfaceSpec, point: PartialAdelicPoint
) -> Tuple[List[Tuple[str, str]], Optional[Place]]:
    """The hypotheses of the descent theorem that the point violates, as
    (name, detail) pairs in a fixed order, and the split place.

    Name "input" marks malformed point data or a missing place of
    S0 + S_bad (each place the descent adds is an entry of the point it
    makes); nothing else is checked then.  The other names
    are "valuation_bound" and "valuation_at_2" (per place outside S0),
    "split_place" (-d*p_J(t_v) is a nonzero square at no place of S0; the
    first place of S0 where it is one is the split place) and
    "brauer_sum_i" (the invariants of generator i sum to 1).  Each verdict
    is read off the point's rows: bit k of the XOR of their invariant
    vectors (PlaceRow.brauer) is the sum for spec.indices[k].
    """
    violations = [("input", problem) for problem in point.validate()]
    missing = sorted(_working_places(spec) - set(point.entries))
    if missing:
        violations.append(
            ("input", "point lacks required places: " + ", ".join(str(v) for v in missing))
        )
    if violations:
        return violations, None

    for v in point.places:
        if v.is_real or v in spec.s0:
            continue
        val = point.rows[v].torus[0]
        if val > 1:
            violations.append(("valuation_bound", f"val_{v}(d*p_J(t_v)) = {val} > 1"))
        if v.p == 2 and val != 1:
            violations.append(
                ("valuation_at_2", f"val_2(d*p_J(t_2)) = {val} != 1 with 2 outside S0")
            )
    split_place = next((v for v in spec.s0 if point.rows[v].torus[1] == 0), None)
    if split_place is None:
        violations.append(
            ("split_place", "-d*p_J(t_v) is a nonzero square at no supplied place of S0")
        )
    brauer_sums = 0
    for v in point.places:
        brauer_sums ^= point.rows[v].brauer
    for k, i in enumerate(spec.indices):
        if brauer_sums >> k & 1:
            violations.append((f"brauer_sum_{i}", f"sum of invariants of generator {i} is 1"))
    return violations, split_place


def check_hypotheses(spec: SurfaceSpec, point: PartialAdelicPoint) -> HypothesisReport:
    """Verdict for each hypothesis of the main descent theorem.

    Places absent from the point are certified internally: at a finite place
    of good reduction one may pick t_v with p_J(t_v) a unit, where the fiber
    is a smooth conic with unit coefficients, giving an integral point whose
    Brauer invariants vanish.  The supplied places are checked directly.
    """
    violations, split_place = suitability(spec, point)
    cond_d = check_condition_d(spec)
    failures = [] if cond_d.holds else ["condition_D"]
    details = [] if cond_d.holds else [str(cond_d)]
    input_problems = [detail for name, detail in violations if name == "input"]
    if input_problems:
        return HypothesisReport(cond_d, failures, input_problems, None, {}, details)
    failures += [name for name, _ in violations]
    details += [detail for _, detail in violations]
    brauer_sums = {i: int(f"brauer_sum_{i}" in failures) for i in spec.indices}
    return HypothesisReport(
        cond_d, sorted(set(failures)), [], split_place, brauer_sums, details
    )


# ---------------------------------------------------------------------------
# Suitable partial adelic points
# ---------------------------------------------------------------------------


def _require_suitable(spec: SurfaceSpec, p_t: PartialAdelicPoint, context: str) -> None:
    """Raise DescentAnomaly if a point built by the descent is not suitable."""
    violations, _ = suitability(spec, p_t)
    if violations:
        raise DescentAnomaly(
            f"{context}: " + "; ".join(f"{name}: {detail}" for name, detail in violations)
        )


def build_suitable(
    spec: SurfaceSpec, point: PartialAdelicPoint
) -> PartialAdelicPoint:
    """Restrict a point that passed check_hypotheses to T = S0 + S_bad.

    A point with no place outside T is returned itself.  A restriction
    shares the rows of the places it keeps, but dropping a place changes
    the Brauer sums, so a restriction that drops one is verified again.
    """
    t_places = _working_places(spec)
    if set(point.entries) <= t_places:
        return point
    p_t = PartialAdelicPoint(spec, {v: pt for v, pt in point.entries.items() if v in t_places},
                             point.rows)
    _require_suitable(spec, p_t, "suitability failed")
    return p_t


# ---------------------------------------------------------------------------
# Admissible fiber search: the simultaneous-prime-values surrogate
# ---------------------------------------------------------------------------


def _approximation_data(
    spec: SurfaceSpec, p_t: PartialAdelicPoint
) -> Tuple[int, int, int]:
    """CRT data (tau0, M, D) so that every t0 = (tau0 + M*n)/D agrees with
    each finite t_v to k_v digits, val_v(t0 - t_v) >= k_v, and so keeps
    val_v(p_i(t0)) and the square class [p_i(t0)]_v of p_i(t_v).

    Why k_v digits suffice: p_i(t0) = p_i(t_v)*(1 + x) with
    x = c_i*(t0 - t_v)/p_i(t_v), so val_v(x) >= k_v + val_v(c_i) -
    val_v(p_i(t_v)).  A unit 1 + x is a square in Q_p once val_p(x) >= 1
    at an odd p and val_p(x) >= 3 at 2 (Serre, A Course in Arithmetic,
    Ch. II Sec. 3.3, Theorems 3 and 4).  So k_v = m_v + delta_p, with
    delta_p = 1 at an odd p and 3 at 2, and m_v the largest
    val_v(p_i(t_v)), as val_v(c_i) >= 0 for the integer c_i.  The valuation
    is signed: t_v may have p in the denominator at a place of S0.  The
    bound is tight when p divides no c_i: one digit fewer lets x be any unit
    at an odd p (1 + x a non-square, or of higher valuation) and 4 times a
    unit at 2 (1 + x = 5 mod 8).  k_v is at least -e_v, e_v the number of
    p's in the denominator of t_v, so that D*t_v is taken modulo an integer.
    """
    congruences = []
    denominator = 1
    s0_primes = set(spec.s0_finite_primes)
    for v in p_t.places:
        if v.is_real:
            continue
        t_v, p = p_t.entries[v].t, v.p
        m_v = max(val for val, _ in p_t.rows[v].factors.values())
        e_v = valuation(t_v.denominator, p)
        if e_v and p not in s0_primes:
            raise DescentAnomaly(f"non-integral t_v at {v} outside S0")
        k_v = max(m_v + (3 if p == 2 else 1), -e_v)
        denominator *= p**e_v
        congruences.append((t_v, p**e_v, p ** (k_v + e_v)))
    # t_v * D = num * (D / p^e_v) / (den / p^e_v), p-integral at v
    entries = [(t_v.numerator * (denominator // p_e) * pow(t_v.denominator // p_e, -1, m) % m, m)
               for t_v, p_e, m in congruences]
    tau0, M = crt(entries) if entries else (0, 1)
    return tau0, M, denominator


def _real_chamber(
    spec: SurfaceSpec, p_t: PartialAdelicPoint
) -> Tuple[Optional[Fraction], Optional[Fraction]]:
    """Open interval of t with the same factor sign pattern as t_real: the
    real local mask of p_i(t_real) in p_t.rows is 1 when it is negative."""
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    for i, (_, negative) in p_t.rows[REAL].factors.items():
        root = spec.root(i)
        if (spec.forms[i][0] < 0) == negative:  # t_real right of the root
            lo = root if lo is None else max(lo, root)
        else:
            hi = root if hi is None else min(hi, root)
    return lo, hi


class AdmissibleSearch(NamedTuple):
    point: AdmissiblePoint
    candidates_checked: int


# the primes below 200; most leftovers that are not prime have one of them
_SIEVE_PRIMES = frozenset(_SMALL_PRIMES[:46])


def _candidate_test(
    spec: SurfaceSpec, tau0: int, modulus: int, denominator: int, t_primes: Sequence[int]
) -> Callable[[int], Optional[List[Tuple[int, Place]]]]:
    """The witnesses of t0 = (tau0 + modulus*n)/denominator as a function of n:
    the pairs (i, u_i) with p_i(t0) a T-unit times the prime u_i, or None
    (the u_i are distinct, as `_try_admissible` argues and checks).  That
    is all of admissibility: the first n with witnesses gives the
    admissible point (`find_admissible`).

    With (c_i, d_i) = spec.forms[i], D*p_i(t0) is the integer form
    A_i + B_i*n with A_i = c_i*tau0 + d_i*D and B_i = c_i*modulus, where D
    is `denominator`, a product of primes of T (`_approximation_data`).  So
    the leftover of p_i(t0), its T-free part, is that of A_i + B_i*n.  A
    zero form (a root of p_J) or a leftover with a sieving prime outside T
    other than itself (one gcd per form with the product of those primes)
    rejects n before any leftover is proved prime.
    """
    forms = [(i, c * tau0 + d * denominator, c * modulus) for i, (c, d) in spec.forms.items()]
    sieve = math.prod(_SIEVE_PRIMES.difference(t_primes))

    def witnesses(n: int) -> Optional[List[Tuple[int, Place]]]:
        values = [a + b * n for _, a, b in forms]
        for value in values:
            if value == 0:
                return None
            g = math.gcd(value, sieve)
            # two sieving primes divide the leftover, or one that is not all of it
            if g != 1 and (g not in _SIEVE_PRIMES or strip_primes(abs(value) // g, t_primes) != 1):
                return None
        found: List[Tuple[int, Place]] = []
        for (i, _, _), value in zip(forms, values):
            leftover = strip_primes(abs(value), t_primes)
            try:  # building the place proves the leftover prime
                found.append((i, Place.finite(leftover)))
            except ValueError:  # 1, composite, or past the proven primality range
                return None
        return found

    return witnesses


def find_admissible(
    spec: SurfaceSpec, p_t: PartialAdelicPoint, bounds: DescentBounds
) -> AdmissibleSearch:
    """The admissible point: the first t0 of the approximation progression
    with each p_i(t0) a T-unit times a single new prime u_i (its
    uniformizer place).  For a suitable p_t nothing more is needed: local
    solubility at T and the reciprocity certificate at each u_i follow, and
    `_try_admissible` checks them as invariants.  Exhaustion of the scan is
    the explicit conditionality of the whole pipeline.

    The scan visits n = k, -k for k = k0, k0 + 1, ..., where k0 is the
    least |n| in the real chamber, until neither lies in it.  Each n runs
    one integer candidate test (`_candidate_test`) on the forms
    D*p_i(t0) = A_i + B_i*n, read off `spec.forms`.  It strikes n
    early when a leftover has a prime below 200 outside T other than
    itself, which is exact: such a leftover is composite.  The first
    candidate whose leftovers are proved prime is the result.  Every
    candidate, struck or not, counts in `candidates_checked` and against
    `bounds.admissible_candidates`.
    """
    if REAL not in p_t.entries:
        raise DescentAnomaly("partial adelic point lacks a real component")
    tau0, modulus, denominator = _approximation_data(spec, p_t)
    lo, hi = _real_chamber(spec, p_t)
    t_primes = [v.p for v in p_t.places if v.is_finite]
    witnesses = _candidate_test(spec, tau0, modulus, denominator, t_primes)
    # (tau0 + modulus*n)/denominator lies in the open chamber exactly when n_min <= n <= n_max
    n_min = None if lo is None else (lo * denominator - tau0) // modulus + 1
    n_max = None if hi is None else -((tau0 - hi * denominator) // modulus) - 1
    nearest = max(0, 0 if n_min is None else n_min, 0 if n_max is None else -n_max)
    checked = 0
    for k in itertools.count(nearest):
        candidates = [k] if k == 0 else [k, -k]
        alive = False
        for n in candidates:
            if n_min is not None and n < n_min:
                continue
            if n_max is not None and n > n_max:
                continue
            alive = True
            checked += 1
            if checked > bounds.admissible_candidates:
                raise SearchExhausted("admissible_point", bounds.admissible_candidates)
            found = witnesses(n)
            if found is not None:
                t0 = Fraction(tau0 + modulus * n, denominator)
                return AdmissibleSearch(_try_admissible(spec, p_t, t0, found), checked)
        if not alive and k > 0:
            raise SearchExhausted("admissible_point", checked,
                                  "the real chamber contains no further progression values")


def _try_admissible(
    spec: SurfaceSpec,
    p_t: PartialAdelicPoint,
    t0: Fraction,
    witnesses: List[Tuple[int, Place]],
) -> AdmissiblePoint:
    """The admissible point at a candidate t0 whose leftovers are the primes
    u_i of `witnesses`; p_i(t0) and the fiber are evaluated here once.  For
    a suitable p_t each check holds, and a failure raises DescentAnomaly:

    - The u_i are outside T, as `_candidate_test` makes them, and pairwise
      distinct: a prime dividing two leftovers divides c_i*d_j - c_j*d_i
      (t0's denominator is S0-supported), so it lies in S0 + S_bad, inside
      T, whose primes every leftover has lost.  The relative Selmer build
      reads them as new places.
    - Row check: each p_i(t0) has the (val_v, local mask) of p_t.rows[v], as
      `_approximation_data` promises, and so then do aA and bB.
    - t0 lies in t_real's chamber, so the fiber above it has the signs of
      the one above t_real, which holds p_t's real point.
    - At the places of S0 the fiber is soluble over Q_v: the Hilbert symbol
      reads only the classes of aA and bB, which the row check fixes.
    - Integral solubility over Z_v at every other finite place, those of T
      and the u_i, is the one exact criterion `unit_square_scan`, which
      lifts no witness.  At v in T it depends only on the valuations and
      unit square classes of aA and bB (scaling aA by a unit square maps
      integral solutions to integral ones), so p_t's entry at v gives one
      above t0.  At u_i the reciprocity certificate below makes a*D_i^A a
      square, and with it the unit coefficient of the fiber.
    - Reciprocity at u_i: a*D_i^A and p_i(t0) are units at every place
      outside T and u_i, all of them odd, so (a*D_i^A, p_i(t0))_{u_i} is
      the sum over T of their symbols.  By the row check each of those is
      the invariant in p_t's row, so the sum is p_t's Brauer sum i: 0.
    """
    u_places = [u for _, u in witnesses]
    if len(set(u_places)) != len(u_places) or set(u_places) & set(p_t.places):
        raise DescentAnomaly("witness places " + ", ".join(map(str, u_places))
                             + " are not distinct places outside T")
    values = {i: spec.factor_value(i, t0) for i in spec.indices}
    for v in p_t.places:
        if factor_row(v, values) != p_t.rows[v].factors:
            raise DescentAnomaly(f"approximation lost the row of p_t at {v}")
    aA, bB = spec.fiber_coeffs_of(values)
    if aA <= 0 and bB <= 0:
        raise DescentAnomaly(f"fiber above t0 = {t0} is negative definite")
    for v in p_t.places:
        if v.is_real:
            continue
        if v in spec.s0:  # over Q_v: the test local_solubility(..., "rational") makes
            if hilbert_symbol(aA, bB, v) != 0:
                raise DescentAnomaly(f"fiber above t0 = {t0} insoluble over Q_{v}")
        elif unit_square_scan(aA, bB, v) is None:
            raise DescentAnomaly(f"fiber above t0 = {t0} has no integral point at {v}")
    for i, u in witnesses:
        if hilbert_symbol(spec.brauer_constants[i], values[i], u) != 0:
            raise DescentAnomaly(f"reciprocity symbol 1 at u_{i} = {u}")
        if unit_square_scan(aA, bB, u) is None:
            raise DescentAnomaly(f"fiber above t0 = {t0} has no integral point at {u}")
    return AdmissiblePoint(FiberSpec(t0, aA, bB, -aA * bB), values, tuple(witnesses))


# ---------------------------------------------------------------------------
# Descent state
# ---------------------------------------------------------------------------


class DescentState(NamedTuple):
    """R and R-hat at one admissible point adm of p_t, as F2 subspaces of
    the relative lattice over T = p_t.places (relative_selmer): the spec
    lattice with the primes of the inserted places appended in the order of
    insertion, so each of its masks is a mask of every later state's."""

    spec: SurfaceSpec
    p_t: PartialAdelicPoint
    adm: AdmissiblePoint
    lattice: Lattice
    sel: gf2.Subspace  # relative Selmer group R
    dual: gf2.Subspace  # relative dual Selmer group R-hat
    trace: List[Dict]

    def terminal(self) -> bool:
        """R-hat is generated by [-d][p_J]."""
        (neg_gen,) = target_generators(self.spec, dual=True)
        return self.dual.dim == 1 and self.dual.contains(neg_gen)


def _make_state(
    spec: SurfaceSpec,
    p_t: PartialAdelicPoint,
    lattice: Lattice,
    bounds: DescentBounds,
    trace: List[Dict],
) -> DescentState:
    """The state at the next admissible point, with R and R-hat built once
    in lattice, whose primes are the finite places of p_t, by one
    relative_selmer call on p_t and that point.  They are the
    preimages under evaluation at t0 of the fiber torus's Selmer pair, so
    dim R - dim R-hat is its number of split places in S0:
    - ev sends symbol i to p_i(t0), a T-unit times u_i, so it maps the
      lattice onto the classes over T and the u_i; the unit conditions at
      T \\ T0 cut those down to the classes over T0 and the u_i, the torus's
      S (real is in S0, and 2 in T0: in S0, or val = 1 by valuation_at_2);
    - there the local conditions of -d*p_J(t0) are the same on both sides.
    The split places are read off p_t's rows: by the row check -d*p_J(t0)
    has the class of -d*p_J(t_v) at each place of S0.
    """
    search = find_admissible(spec, p_t, bounds)
    adm = search.point
    sel, dual = relative_selmer(spec, lattice, p_t, adm)
    for group, side, name in ((dual, True, "relative dual Selmer group"),
                              (sel, False, "relative Selmer group")):
        for gen in target_generators(spec, dual=side):
            if not group.contains(gen):
                raise DescentAnomaly(f"{lattice.decode(gen)} escaped the {name}")
    n_split = sum(p_t.rows[v].torus[1] == 0 for v in spec.s0)
    if sel.dim - dual.dim != n_split:
        raise DescentAnomaly(
            f"relative dimension gap {sel.dim}-{dual.dim} != split count {n_split}"
        )
    if n_split < 1:
        raise DescentAnomaly("no split place: suitability (4) violated upstream")
    trace.append(
        {
            "step": "admissible_point",
            "t0": str(adm.t0),
            "witnesses": {str(i): str(u) for i, u in adm.witnesses},
            "candidates_checked": search.candidates_checked,
            "dim_selmer": sel.dim,
            "dim_dual_selmer": dual.dim,
            "split_places": n_split,
        }
    )
    return DescentState(spec, p_t, adm, lattice, sel, dual, trace)


# ---------------------------------------------------------------------------
# Prime scans: the Chebotarev surrogate
# ---------------------------------------------------------------------------


def _scan_prime(
    conditions: Sequence[Tuple[Rational, int]],
    avoid: Set[int],
    bound: int,
    stage: str,
) -> int:
    """Least odd prime outside `avoid` with the prescribed Legendre values for
    each rational; `avoid` must hold every prime of the rationals.

    Each rational n/m is reduced once to the integer n*m, of the same
    Legendre symbol, which Euler's criterion reads at each w; prime_stream
    has proved w prime already."""
    residues = [(value.numerator * value.denominator, sign) for value, sign in conditions]
    count = 0
    for w in prime_stream(2, avoid):
        count += 1
        if count > bound:
            raise SearchExhausted(stage, bound)
        if all(pow(n, (w - 1) // 2, w) == sign % w for n, sign in residues):
            return w


def _uniformizer_t(spec: SurfaceSpec, i: int, w: int) -> int:
    """Integer t_w with val_w(p_i(t_w)) exactly 1: w lies outside T, so w
    divides no c_i and c_i*t + d_i vanishes mod w at one residue root; where
    its valuation there is 2 or more, it is 1 at root + w."""
    c, d = spec.forms[i]
    root = -d * pow(c, -1, w) % w
    for t_w in (root, root + w):
        value = c * t_w + d
        if value != 0 and valuation(value, w) == 1:
            return t_w
    raise DescentAnomaly(f"no uniformizer value for p_{i} at {w}")


# ---------------------------------------------------------------------------
# The reduction step
# ---------------------------------------------------------------------------


def _pick_elements(state: DescentState) -> Tuple[int, int]:
    """x0, the least element of R-hat other than 0 and [-d][p_J], and x1,
    the least element of R outside <[a][p_A], [d][p_J]>, least in the
    GElement.sort_key order of the decoded masks (a total order)."""
    lattice = state.lattice
    (neg_gen,) = target_generators(state.spec, dual=True)
    span = gf2.Subspace(lattice.ncols, target_generators(state.spec))
    key = lambda mask: lattice.decode(mask).sort_key()
    x0 = min((m for m in state.dual.elements() if m not in (0, neg_gen)),
             key=key, default=None)
    x1 = min((m for m in state.sel.elements() if not span.contains(m)),
             key=key, default=None)
    if x0 is None or x1 is None:
        raise DescentAnomaly("reduction invoked without reducible elements")
    return x0, x1


def _normalize(state: DescentState, x0: int, x1: int, i: int) -> Tuple[int, int]:
    """Add the always-present generators [-d][p_J] to x0 and [d][p_J] to
    x1 where needed, so that i avoids both subsets."""
    bit = state.lattice.poly_mask([i])
    (neg_gen,) = target_generators(state.spec, dual=True)
    _, d_gen = target_generators(state.spec)
    return x0 ^ (neg_gen if x0 & bit else 0), x1 ^ (d_gen if x1 & bit else 0)


def _character_value(
    spec: SurfaceSpec, lattice: Lattice, x: int, i: int, dual: bool = False
) -> int:
    """Square-free [c*D_i^{J'}] (Dhat if dual) for x = [c][p_{J'}], a mask
    of lattice: the constant's Legendre symbols outside T.  The constant's
    class is a mask over spec.basis_primes, which begin lattice.primes."""
    constant = constant_mask(spec, i, lattice.poly(x), dual)
    return class_from_mask(x >> lattice.shift ^ constant, lattice.primes)


def _insert_place(
    state: DescentState,
    i: int,
    characters: Sequence[Rational],
    stage: str,
    bounds: DescentBounds,
) -> Tuple[Place, int, PartialAdelicPoint]:
    """Extend p_t by a new place w where a*D_i^A is a square and every
    character value a non-square: the least such prime outside T and the
    witness places, an integer t_w with val_w(p_i(t_w)) = 1, and the point
    with an integral local point above t_w added at w.

    The fiber above t_w is soluble over Z_w: p_i(t_w) has valuation 1, and
    the other coefficient is a unit congruent mod w to brauer_constants[i],
    a square mod w, so local_solubility lifts the axis point on it."""
    spec = state.spec
    avoid = {v.p for v in state.p_t.places if v.is_finite}
    avoid.update(u.p for _, u in state.adm.witnesses)
    conditions = [(spec.brauer_constants[i], 1)] + [(value, -1) for value in characters]
    place = Place.proved(_scan_prime(conditions, avoid, bounds.prime_scan, stage))
    t_w = _uniformizer_t(spec, i, place.p)
    local = local_solubility(*spec.fiber_coeffs(t_w), place)
    if local.witness is None:
        raise DescentAnomaly(f"fiber above t = {t_w} has no integral point at {place}")
    point = LocalPoint.make(*local.witness, t_w, local.precision)
    return place, t_w, state.p_t.with_entry(place, point)


def _add_sd_witness(state: DescentState, x: int, bounds: DescentBounds) -> DescentState:
    """Insert an on-demand witness place killing x, a mask of R-hat, from
    the relative dual Selmer group.

    x lies in G^{i_x} but not in G^D, so some other index carries a
    violated membership; a prime where the violated constant is a
    non-square while a*D^A is a square forces the Selmer condition that
    excludes x.
    """
    spec, lattice = state.spec, state.lattice
    i_prime = next((i for i in spec.indices if not in_g_i(spec, x, i, dual=True)), None)
    if i_prime is None:
        raise DescentAnomaly(
            "element lies in every membership subgroup: Condition (D) "
            "verification should have caught this"
        )
    character = _character_value(spec, lattice, x, i_prime, dual=True)
    place, t_w, new_pt = _insert_place(state, i_prime, [character], "sd_witness_prime", bounds)
    _require_suitable(spec, new_pt, "witness insertion broke suitability")
    element = lattice.decode(x)
    state.trace.append(
        {
            "step": "sd_witness",
            "side": "dual",
            "element": str(element),
            "index": i_prime,
            "place": place.p,
            "t_w": t_w,
        }
    )
    new_state = _make_state(spec, new_pt, lattice.with_prime(place.p), bounds, state.trace)
    if new_state.dual.contains(x):
        raise DescentAnomaly(f"witness place {place} failed to kill {element}")
    return new_state


def _chebotarev_step(
    state: DescentState,
    x0: int,
    x1: int,
    i_x: int,
    bounds: DescentBounds,
) -> DescentState:
    """One reduction at index i_x with x0 in R-hat and x1 in R, masks of
    the state's lattice normalized away from i_x.  They, and every mask of
    the old groups, are masks of the new state's lattice too."""
    spec, lattice = state.spec, state.lattice
    bit = lattice.poly_mask([i_x])
    if (x0 | x1) & bit:
        raise DescentAnomaly("elements must be normalized away from the index")
    characters = [_character_value(spec, lattice, x, i_x) for x in (x0, x1)]
    place, t_w, new_pt = _insert_place(state, i_x, characters, "chebotarev_prime", bounds)
    _require_suitable(spec, new_pt, "extension broke suitability")

    old_adm, old_sel, old_dual = state.adm, state.sel, state.dual
    new_state = _make_state(spec, new_pt, lattice.with_prime(place.p), bounds, state.trace)

    # the subgroups avoiding the distinguished factor index
    sel0_old = old_sel.intersect_hyperplane(bit)
    dual0_old = old_dual.intersect_hyperplane(bit)
    dual0_new = new_state.dual.intersect_hyperplane(bit)

    # the localization at w: the local masks of the p_i(t1) at w are those
    # of the new point's row there, which t1 keeps
    factor_masks = [mask for _, mask in new_state.p_t.rows[place].factors.values()]
    columns = new_state.lattice.local_masks(factor_masks, place)

    def loc_image(space: gf2.Subspace) -> gf2.Subspace:
        return gf2.Subspace(local_dim(place), [gf2.combine(columns, m) for m in space.basis])

    p_lower_0 = loc_image(sel0_old)
    p_upper_0 = loc_image(dual0_old)
    p_upper_1 = loc_image(dual0_new)
    if p_lower_0.dim == 0 or p_upper_0.dim == 0:
        raise DescentAnomaly("localization images at w vanished; wrong prime choice")
    if p_upper_1.dim != 0:
        raise DescentAnomaly("image of the reduced dual group at w is nonzero")

    # comparison checks between the two admissible points, on p_i(t0) and p_i(t1)
    old_values, new_values = old_adm.values, new_state.adm.values
    for i, u0 in old_adm.witnesses:
        if i == i_x:
            continue
        u1 = new_state.adm.witness(i)
        for j in spec.indices:
            if j == i:
                continue
            s0 = hilbert_symbol(old_values[i], old_values[j], u0)
            s1 = hilbert_symbol(new_values[i], new_values[j], u1)
            if s0 ^ s1:
                raise DescentAnomaly(
                    f"comparison identity failed at u_{i} for factors ({i},{j})"
                )

    # persistence: reduced dual elements with trivial localization live in the
    # old group, and the distinguished element is gone
    for mask in dual0_new.basis:
        if not old_dual.contains(mask):
            raise DescentAnomaly(f"persistence failed for {new_state.lattice.decode(mask)}")
    x0_element = lattice.decode(x0)
    if new_state.dual.contains(x0):
        raise DescentAnomaly(f"{x0_element} survived the reduction")
    if not new_state.dual.contains(target_generators(spec, dual=True)[0]):
        raise DescentAnomaly("[-d][p_J] lost during reduction")
    if new_state.dual.dim >= old_dual.dim:
        raise DescentAnomaly(
            f"dual Selmer dimension failed to decrease: {old_dual.dim} -> "
            f"{new_state.dual.dim}"
        )
    state.trace.append(
        {
            "step": "reduce_dual_selmer",
            "x0": str(x0_element),
            "x1": str(lattice.decode(x1)),
            "i_x": i_x,
            "w": place.p,
            "t_w": t_w,
            "dim_before": old_dual.dim,
            "dim_after": new_state.dual.dim,
        }
    )
    return new_state


def reduce_dual_selmer(state: DescentState, bounds: DescentBounds) -> DescentState:
    """One reduction: extend T by a new place and strictly shrink the dual group.

    When the Selmer-side element lies in the membership subgroup at the
    chosen index (or the dual-side character would be trivial at every
    usable index), an on-demand witness place is inserted first and the
    step retries with the shrunken groups.
    """
    if state.dual.dim < 2:
        raise DescentAnomaly("reduction requires dual dimension at least 2")
    for _ in range(bounds.max_steps):
        spec, lattice = state.spec, state.lattice
        x0, x1 = _pick_elements(state)
        usable = []
        for i in spec.indices:
            if in_g_i(spec, x1, i):
                continue
            x0n, x1n = _normalize(state, x0, x1, i)
            if not in_g_i(spec, x0n, i, dual=True):
                usable.append((bool((x0 | x1) & lattice.poly_mask([i])), i, x0n, x1n))
        if usable:
            _, i_x, x0n, x1n = min(usable)
            return _chebotarev_step(state, x0n, x1n, i_x, bounds)
        # dual-side trigger: x0 sits in G^i at every index usable for x1;
        # kill it with a witness place and retry
        state = _add_sd_witness(state, x0, bounds)
        if state.terminal() or state.dual.dim < 2:
            return state
    raise SearchExhausted("sd_retries", bounds.max_steps)


# ---------------------------------------------------------------------------
# Certificates and the full pipeline
# ---------------------------------------------------------------------------


class Certificate(NamedTuple):
    outcome: str  # point_found | dual_selmer_minimized | search_exhausted | hypothesis_failed
    data: Dict
    trace: List[Dict]
    spec_sha: str
    readings: Dict[str, str]
    bounds: Dict[str, int]

    def as_dict(self) -> Dict:
        return {
            "outcome": self.outcome,
            "data": self.data,
            "trace": self.trace,
            "spec_hash": self.spec_sha,
            "readings": self.readings,
            "bounds": self.bounds,
        }

    @staticmethod
    def from_dict(payload: Dict) -> "Certificate":
        return Certificate(
            outcome=payload["outcome"],
            data=payload["data"],
            trace=payload["trace"],
            spec_sha=payload["spec_hash"],
            readings=payload["readings"],
            bounds=payload["bounds"],
        )


def _certificate(spec, bounds, outcome, data, trace) -> Certificate:
    return Certificate(
        outcome=outcome,
        data=data,
        trace=trace,
        spec_sha=spec_hash(spec),
        readings=dict(READINGS),
        bounds=bounds.as_dict(),
    )


def descend(
    spec: SurfaceSpec,
    point: PartialAdelicPoint,
    bounds: Optional[DescentBounds] = None,
) -> Certificate:
    """Run the full pipeline and emit a certificate.

    Loops dual-Selmer reductions until the group is generated by [-d][p_J];
    the fiber at the final admissible point then satisfies the integral
    Hasse principle, and the bounded global search either finds a verified
    point or reports the minimized group with the search bound.
    """
    bounds = bounds or DescentBounds()
    trace: List[Dict] = []
    report = check_hypotheses(spec, point)
    trace.append({"step": "hypotheses", **report.as_dict()})
    if report.input_problems:
        raise DescentError("invalid input point: " + "; ".join(report.input_problems))
    if not report.passed:
        return _certificate(
            spec, bounds, "hypothesis_failed",
            {"failures": report.failures, "details": report.details}, trace,
        )
    try:
        p_t = build_suitable(spec, point)
        state = _make_state(spec, p_t, Lattice.of_spec(spec), bounds, trace)
        steps = 0
        while True:
            fib = state.adm.fiber
            if bounds.solve_each_fiber or state.terminal():
                found = solve_global(fib.aA, fib.bB, spec.s0_finite_primes, bounds.height)
                if found is not None:
                    x, y = found
                    if not verify_integral_point(spec, x, y, state.adm.t0):
                        raise DescentAnomaly("found point failed re-verification")
                    trace.append(
                        {"step": "point", "x": str(x), "y": str(y), "t": str(state.adm.t0)}
                    )
                    return _certificate(
                        spec, bounds, "point_found",
                        {
                            "x": str(x), "y": str(y), "t": str(state.adm.t0),
                            "reverified": True,
                        },
                        trace,
                    )
            if state.terminal():
                return _certificate(
                    spec, bounds, "dual_selmer_minimized",
                    {
                        "t": str(state.adm.t0),
                        "aA": str(fib.aA),
                        "bB": str(fib.bB),
                        "torus_d": str(fib.torus_d),
                        # the one basis vector of a terminal R-hat is [-d][p_J]
                        "dual_generator": str(state.lattice.decode(state.dual.basis[0])),
                        "height_bound": bounds.height,
                        "note": "fiber satisfies the integral Hasse principle; "
                        "no point within the height bound",
                    },
                    trace,
                )
            if state.dual.dim < 2:
                raise DescentAnomaly(
                    "dual Selmer group of dimension 1 with unexpected generator"
                )
            steps += 1
            if steps > bounds.max_steps:
                raise SearchExhausted("descent_loop", bounds.max_steps)
            state = reduce_dual_selmer(state, bounds)
    except SearchExhausted as exc:
        trace.append({"step": "exhausted", "stage": exc.stage, "bound": exc.bound})
        return _certificate(
            spec, bounds, "search_exhausted",
            {"stage": exc.stage, "bound": exc.bound, "detail": exc.detail}, trace,
        )
