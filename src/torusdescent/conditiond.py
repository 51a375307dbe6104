"""Condition (D): the class group G, the constants D_i^{J'}, and the
subgroup intersections that control which Selmer elements descent can kill.

Elements of G are pairs (square class, subset of J).  No constant is built
as a rational: [D_i^{J'}] is the XOR of SurfaceSpec.root_masks over its
factors p_j(-d_i/c_i), plus [d] or [-d] when i lies in J'.  It is linear in
J', so each membership condition is linear over F2 and the intersection
groups are kernels of one stacked F2 map, polynomial in |J|.

check_condition_d works on masks end to end: an element of G is one int
(the class bits over -1 and the spec's basis primes, then one bit per
factor), the kernel generators are re-checked and the targets compared on
those ints, and only the reported elements are decoded to GElement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, FrozenSet, Iterable, List, Sequence, Set, Tuple

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
    return _constant(spec, i, subset, class_mask(spec.d, spec.basis_primes) ^ dual)


def _constant(spec: SurfaceSpec, i: int, subset: AbstractSet[int], d_mask: int) -> int:
    """constant_mask with the class put for d given as d_mask."""
    others, mask = subset, 0
    if i in subset:
        others = [j for j in spec.indices if j not in subset]
        mask = d_mask
    for j in others:
        mask ^= spec.root_masks[i, j]
    return mask


def generator_mask(spec: SurfaceSpec, i: int) -> int:
    """[a*D_i^A], the class of spec.brauer_constants[i]."""
    return class_mask(spec.a, spec.basis_primes) ^ constant_mask(spec, i, spec.part_a)


def in_g_i(spec: SurfaceSpec, x: GElement, i: int, dual: bool = False) -> bool:
    """Membership in G_i (G^i when dual): [c*D_i^{J'}] lies in <[a*D_i^A]>.
    A class with a prime outside spec.basis_primes lies in no G_i."""
    try:
        cls = class_mask(x.c.value(), spec.basis_primes)
    except ValueError:
        return False
    cls ^= constant_mask(spec, i, x.poly, dual)
    return cls == 0 or cls == generator_mask(spec, i)


class _Masks:
    """G over one spec as ints: bit 0 is -1, bit k the k-th basis prime, and
    bit width + m the m-th factor index in ascending order.  Holds [a], [d]
    and the targets t_i = [a*D_i^A], each read once."""

    def __init__(self, spec: SurfaceSpec):
        self.spec = spec
        self.primes = spec.basis_primes
        self.indices = tuple(sorted(spec.indices))
        self.width = 1 + len(self.primes)
        self.a = class_mask(spec.a, self.primes)
        self.d = class_mask(spec.d, self.primes)
        self.targets = {i: self.a ^ _constant(spec, i, spec.part_a, self.d)
                        for i in self.indices}

    def poly_bits(self, subset: AbstractSet[int]) -> int:
        return sum(1 << self.width + m for m, j in enumerate(self.indices) if j in subset)

    def poly(self, vec: int) -> Tuple[int, ...]:
        return tuple(j for m, j in enumerate(self.indices) if vec >> self.width + m & 1)

    def sort_key(self, vec: int):
        """GElement.sort_key of the decoded vec, read off its bits."""
        value = 1
        for k, p in enumerate(self.primes, 1):
            if vec >> k & 1:
                value *= p
        return (value, vec & 1, self.poly(vec))

    def report(self, vecs: Iterable[int]) -> Tuple[GElement, ...]:
        """The elements of vecs as GElements, in GElement.sort_key order."""
        return tuple(GElement(class_from_mask(vec, self.primes), frozenset(self.poly(vec)))
                     for vec in sorted(vecs, key=self.sort_key))

    def intersection(self, dual: bool = False) -> Set[int]:
        """G_D (G^D when dual): the x = (c, J') with [c*D_i^{J'}] in <t_i>
        for every i, its generators re-checked one by one.

        [D_i^{J'}] = sum over j in J' of r_ij = [D_i^{{j}}], so the intersection is the
        projection to (c, J') of the kernel of (c, J', e) -> (c + sum_j J'_j r_ij + e_i t_i)_i.
        The map is stacked by columns, one per unknown, with bits
        width*k and up holding the image in block k: the column of J'_j
        holds r_kj there and the column of e_k holds t_k.  Off the diagonal
        r_ij = root_masks[i, j]; on it r_ii is [d] ([-d] when dual) plus
        every root_masks[i, j].  The re-check reads each constant off
        root_masks by its definition, not off the columns.
        """
        spec, indices, width = self.spec, self.indices, self.width
        n = len(indices)
        d_mask = self.d ^ dual
        table = spec.root_masks
        diagonal = dict.fromkeys(indices, d_mask)
        for (i, _), mask in table.items():
            diagonal[i] ^= mask
        shifts = [width * k for k in range(n)]
        ones = sum(1 << shift for shift in shifts)
        columns = [ones << b for b in range(width)]
        columns += [sum((table[i, j] if i != j else diagonal[i]) << shift
                        for i, shift in zip(indices, shifts)) for j in indices]
        columns += [self.targets[i] << shift for i, shift in zip(indices, shifts)]
        kernel = gf2.column_kernel(columns)
        group = gf2.Subspace(width + n, [v & (1 << width + n) - 1 for v in kernel])
        low = (1 << width) - 1
        for vec in group.basis:
            poly = frozenset(self.poly(vec))
            for i in indices:
                cls = vec & low ^ _constant(spec, i, poly, d_mask)
                if cls and cls != self.targets[i]:
                    raise AssertionError(
                        f"kernel generator {self.report([vec])[0]} is outside the "
                        "intersection (bug)")
        return set(group.elements())


def compute_intersection(spec: SurfaceSpec, dual: bool = False) -> List[GElement]:
    """G_D (G^D when dual), sorted by GElement.sort_key."""
    masks = _Masks(spec)
    return list(masks.report(masks.intersection(dual)))


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
    """Compare G_D, G^D against their target subgroups <[a][p_A], [d][p_J]>
    and <[-d][p_J]>, all as masks."""
    masks = _Masks(spec)
    g_d, g_d_dual = masks.intersection(), masks.intersection(dual=True)
    p_j = masks.poly_bits(spec.indices)
    gen_a, gen_d = masks.a | masks.poly_bits(spec.part_a), masks.d | p_j
    target, target_dual = {0, gen_a, gen_d, gen_a ^ gen_d}, {0, masks.d ^ 1 | p_j}
    for group, span, name in ((g_d, target, "G_D"), (g_d_dual, target_dual, "G^D")):
        missing = masks.report(span - group)
        if missing:
            raise AssertionError(f"generator {missing[0]} missing from {name} (bug)")
    witnesses = (g_d - target) | (g_d_dual - target_dual)
    return ConditionDReport(
        holds=not witnesses,
        g_d=masks.report(g_d),
        g_d_dual=masks.report(g_d_dual),
        witnesses=masks.report(witnesses),
    )
