"""Condition (D): the class group G, the constants D_i^{J'}, and the
subgroup intersections that control which Selmer elements descent can kill.

Elements of G are pairs (square class, subset of J).  The class of
D_i^{J'} is linear in the indicator vector of J', so each membership
condition is linear over F2 and the intersection groups are kernels of one
stacked F2 map, computed in polynomial time in |J|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, Iterable, List, Sequence, Tuple

from . import gf2
from .arith import SquareClass, class_from_mask, class_mask
from .brauer import generator_left
from .surface import SurfaceSpec


@dataclass(frozen=True)
class GElement:
    """[c][p_{J'}]: a square class times a formal product of factors."""

    c: SquareClass
    poly: FrozenSet[int]

    @staticmethod
    def identity() -> "GElement":
        return GElement(SquareClass.identity(), frozenset())

    def __mul__(self, other: "GElement") -> "GElement":
        return GElement(self.c * other.c, self.poly ^ other.poly)

    def is_identity(self) -> bool:
        return self.c.is_identity() and not self.poly

    def sort_key(self):
        return (abs(self.c.value()), 0 if self.c.sign > 0 else 1, tuple(sorted(self.poly)))

    def __str__(self):
        if not self.poly:
            return f"[{self.c}]"
        prod = "*".join(f"p{i}" for i in sorted(self.poly))
        return f"[{self.c}][{prod}]"


def d_constant(spec: SurfaceSpec, i: int, subset: Iterable[int]) -> Fraction:
    """D_i^{J'} = p_{J'}(-d_i/c_i) for i outside J', d*p_{J'^c}(-d_i/c_i) inside."""
    subset = frozenset(subset)
    root = spec.root(i)
    if i not in subset:
        value = spec.product_value(sorted(subset), root)
    else:
        complement = sorted(set(spec.indices) - subset)
        value = spec.d * spec.product_value(complement, root)
    if value == 0:
        raise ValueError(f"D_{i}^{sorted(subset)} vanished: spec invariant violated")
    return value


def d_constant_dual(spec: SurfaceSpec, i: int, subset: Iterable[int]) -> Fraction:
    """Dual constant: d replaced by -d in the i-in-J' branch."""
    subset = frozenset(subset)
    if i not in subset:
        return d_constant(spec, i, subset)
    return -d_constant(spec, i, subset)


def in_g_i(spec: SurfaceSpec, x: GElement, i: int) -> bool:
    """Membership in G_i: [c*D_i^{J'}] lies in <[a*D_i^A]>."""
    cls = x.c * spec.class_of(d_constant(spec, i, x.poly))
    return cls.is_identity() or cls == spec.class_of(generator_left(spec, i))


def in_g_i_dual(spec: SurfaceSpec, x: GElement, i: int) -> bool:
    """Membership in G^i: [c*Dhat_i^{J'}] lies in <[a*D_i^A]>."""
    cls = x.c * spec.class_of(d_constant_dual(spec, i, x.poly))
    return cls.is_identity() or cls == spec.class_of(generator_left(spec, i))


def _compute_intersection(spec: SurfaceSpec, dual: bool) -> List[GElement]:
    """The x = (c, J') with [c*D_i^{J'}] in <t_i = [a*D_i^A]> for every i.

    [D_i^{J'}] = sum over j in J' of r_ij = [D_i^{{j}}], so the intersection is the
    projection to (c, J') of the kernel of (c, J', e) -> (c + sum_j J'_j r_ij + e_i t_i)_i,
    with every class a mask over -1 and the spec's basis primes.
    """
    constant = d_constant_dual if dual else d_constant
    n = len(spec.indices)
    primes = spec.basis_primes
    width = 1 + len(primes)
    r = [[class_mask(constant(spec, i, {j}), primes) for j in spec.indices] for i in spec.indices]
    t = [class_mask(generator_left(spec, i), primes) for i in spec.indices]
    cols = [sum(1 << b << k * width for k in range(n)) for b in range(width)]
    cols += [sum(r[k][j] << k * width for k in range(n)) for j in range(n)]
    cols += [t[k] << k * width for k in range(n)]
    rows = [sum((col >> q & 1) << m for m, col in enumerate(cols)) for q in range(n * width)]
    kernel = gf2.kernel_basis(rows, width + 2 * n)
    group = gf2.Subspace(width + n, [v % (1 << width + n) for v in kernel])

    def element(vec: int) -> GElement:
        poly = frozenset(j for k, j in enumerate(spec.indices) if vec >> (width + k) & 1)
        return GElement(class_from_mask(vec, primes), poly)

    member = in_g_i_dual if dual else in_g_i
    for x in map(element, group.basis):
        if not all(member(spec, x, i) for i in spec.indices):
            raise AssertionError(f"kernel generator {x} is outside the intersection (bug)")
    return sorted(map(element, group.elements()), key=GElement.sort_key)


def compute_g_d(spec: SurfaceSpec) -> List[GElement]:
    """G_D = intersection of the G_i, its generators re-checked one by one."""
    return _compute_intersection(spec, dual=False)


def compute_g_d_dual(spec: SurfaceSpec) -> List[GElement]:
    """G^D = intersection of the G^i."""
    return _compute_intersection(spec, dual=True)


def span_of(generators: Sequence[GElement]) -> List[GElement]:
    out = {GElement.identity()}
    for g in generators:
        out |= {g * x for x in out}
    return sorted(out, key=GElement.sort_key)


def expected_g_d_generators(spec: SurfaceSpec) -> List[GElement]:
    """[a][p_A] and [d][p_J], the generators of the target subgroup of G_D."""
    return [
        GElement(spec.class_of(spec.a), spec.part_a),
        GElement(spec.class_of(spec.d), frozenset(spec.indices)),
    ]


def expected_g_d_dual_generators(spec: SurfaceSpec) -> List[GElement]:
    """[-d][p_J], the generator of the target subgroup of G^D."""
    return [GElement(spec.class_of(-spec.d), frozenset(spec.indices))]


@dataclass(frozen=True)
class ConditionDReport:
    holds: bool
    g_d: Tuple[GElement, ...]
    g_d_dual: Tuple[GElement, ...]
    witnesses: Tuple[GElement, ...]  # elements breaking either equality

    def __str__(self):
        status = "holds" if self.holds else "FAILS"
        lines = [f"Condition (D) {status}"]
        lines.append("  G_D  = {" + ", ".join(str(g) for g in self.g_d) + "}")
        lines.append("  G^D  = {" + ", ".join(str(g) for g in self.g_d_dual) + "}")
        if self.witnesses:
            lines.append(
                "  violating elements: " + ", ".join(str(g) for g in self.witnesses)
            )
        return "\n".join(lines)


def check_condition_d(spec: SurfaceSpec) -> ConditionDReport:
    """Compare G_D, G^D against their target subgroups."""
    g_d = compute_g_d(spec)
    g_d_dual = compute_g_d_dual(spec)
    target = span_of(expected_g_d_generators(spec))
    target_dual = span_of(expected_g_d_dual_generators(spec))
    for g in target:
        if g not in g_d:
            raise AssertionError(f"generator {g} missing from G_D (bug)")
    for g in target_dual:
        if g not in g_d_dual:
            raise AssertionError(f"generator {g} missing from G^D (bug)")
    witnesses = [g for g in g_d if g not in target]
    witnesses += [g for g in g_d_dual if g not in target_dual]
    return ConditionDReport(
        holds=not witnesses,
        g_d=tuple(g_d),
        g_d_dual=tuple(g_d_dual),
        witnesses=tuple(sorted(set(witnesses), key=GElement.sort_key)),
    )
