"""Condition (D): the class group G, the constants D_i^{J'}, and the
subgroup intersections that control which Selmer elements descent can kill.

Elements of G are pairs (square class, subset of J).  No constant is built
as a rational: [D_i^{J'}] is the XOR of SurfaceSpec.root_masks over its
factors p_j(-d_i/c_i), plus [d] or [-d] when i lies in J'.  It is linear in
J', so each membership condition is linear over F2 and the intersection
groups are kernels of one stacked F2 map, polynomial in |J|.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, List, Sequence, Tuple

from . import gf2
from .arith import SquareClass, class_from_mask, class_mask
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


def constant_mask(spec: SurfaceSpec, i: int, subset: AbstractSet[int], dual: bool = False) -> int:
    """[D_i^{J'}] over -1 and spec.basis_primes; [Dhat_i^{J'}] when dual.

    D_i^{J'} = p_{J'}(-d_i/c_i) for i outside J', d*p_{J'^c}(-d_i/c_i)
    inside, and Dhat_i^{J'} puts -d for d.  The class of each factor
    p_j(-d_i/c_i) is the table entry spec.root_masks[i, j].
    """
    others, mask = subset, 0
    if i in subset:
        others = [j for j in spec.indices if j not in subset]
        mask = class_mask(spec.d, spec.basis_primes) ^ dual
    for j in others:
        mask ^= spec.root_masks[i, j]
    return mask


def generator_mask(spec: SurfaceSpec, i: int) -> int:
    """[a*D_i^A], the class of spec.brauer_constants[i]."""
    return class_mask(spec.a, spec.basis_primes) ^ constant_mask(spec, i, spec.part_a)


def in_g_i(spec: SurfaceSpec, x: GElement, i: int, dual: bool = False) -> bool:
    """Membership in G_i (G^i when dual): [c*D_i^{J'}] lies in <[a*D_i^A]>."""
    primes = spec.basis_primes
    cls = x.c * class_from_mask(constant_mask(spec, i, x.poly, dual), primes)
    return cls.is_identity() or cls == class_from_mask(generator_mask(spec, i), primes)


def compute_intersection(spec: SurfaceSpec, dual: bool = False) -> List[GElement]:
    """G_D (G^D when dual): the x = (c, J') with [c*D_i^{J'}] in <t_i = [a*D_i^A]>
    for every i, its generators re-checked one by one.

    [D_i^{J'}] = sum over j in J' of r_ij = [D_i^{{j}}], so the intersection is the
    projection to (c, J') of the kernel of (c, J', e) -> (c + sum_j J'_j r_ij + e_i t_i)_i,
    with every class a mask over -1 and the spec's basis primes.  The row of
    index k and bit b holds bit b of c, of each r_kj and of t_k.
    """
    n = len(spec.indices)
    primes = spec.basis_primes
    width = 1 + len(primes)
    rows = []
    for k, i in enumerate(spec.indices):
        r = [constant_mask(spec, i, {j}, dual) for j in spec.indices]
        t = generator_mask(spec, i)
        for b in range(width):
            row = 1 << b | (t >> b & 1) << width + n + k
            for m, r_kj in enumerate(r):
                row |= (r_kj >> b & 1) << width + m
            rows.append(row)
    kernel = gf2.kernel_basis(rows, width + 2 * n)
    group = gf2.Subspace(width + n, [v % (1 << width + n) for v in kernel])

    def element(vec: int) -> GElement:
        poly = frozenset(j for k, j in enumerate(spec.indices) if vec >> (width + k) & 1)
        return GElement(class_from_mask(vec, primes), poly)

    for x in map(element, group.basis):
        if not all(in_g_i(spec, x, i, dual) for i in spec.indices):
            raise AssertionError(f"kernel generator {x} is outside the intersection (bug)")
    return sorted(map(element, group.elements()), key=GElement.sort_key)


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
    g_d = compute_intersection(spec)
    g_d_dual = compute_intersection(spec, dual=True)
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
