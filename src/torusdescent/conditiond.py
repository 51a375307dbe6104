"""Condition (D): the class group G, the constants D_i^{J'}, and the
subgroup intersections that control which Selmer elements descent can kill.

Elements of G are pairs (square class, subset of J), the square class
being its signed square-free integer.  `Lattice` is the one encoding of G
as F2 masks (the sign bit, bits over ascending primes, then one bit per
factor symbol): Condition (D) works over the spec lattice, and `selmer`
and the descent over the lattices of tori and fibers.  Each
constant has one function: constant_mask is [D_i^{J'}] (the XOR of
SurfaceSpec.root_masks over its factors p_j(-d_i/c_i), plus [d] or [-d]
when i lies in J'), target_mask is t_i = [a*D_i^A] and target_generators
spans the target subgroups in any lattice whose primes hold those of a
and d.  [D_i^{J'}] is linear in J', so each membership condition is
linear over F2 and the intersection groups are kernels of one stacked F2
map, polynomial in |J|.  Everything here takes and returns masks;
GElement is the report type, made by Lattice.decode for reports, trace
strings and containment across two lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import AbstractSet, Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from . import gf2
from .arith import Place, class_from_mask, class_mask, local_mask
from .surface import SurfaceSpec


@dataclass(frozen=True)
class GElement:
    """[c][p_{J'}]: a square class, given as its signed square-free integer
    c, times a formal product of factors."""

    c: int
    poly: FrozenSet[int]

    def sort_key(self):
        return (abs(self.c), self.c < 0, tuple(sorted(self.poly)))

    def __str__(self):
        if not self.poly:
            return f"[{self.c}]"
        prod = "*".join(f"p{i}" for i in sorted(self.poly))
        return f"[{self.c}][{prod}]"


class Lattice:
    """Elements [c][p_{J'}] of G as F2 masks: bit 0 is -1, bit k the k-th of
    the ascending primes, then one formal symbol per factor index in the
    given order (none for the lattice of a torus).  The spec lattice
    (Lattice.of_spec) is G over a spec: every constant of Condition (D)
    is a mask of it."""

    def __init__(self, primes: Sequence[int], factor_indices: Sequence[int] = ()):
        self.primes = tuple(primes)
        self.factor_indices = tuple(factor_indices)
        self.width = 1 + len(self.primes)
        self.ncols = self.width + len(self.factor_indices)
        self._bits = {i: self.width + m for m, i in enumerate(self.factor_indices)}

    @classmethod
    def of_places(cls, places: Iterable[Place], factor_indices: Sequence[int] = ()) -> "Lattice":
        return cls([v.p for v in sorted(set(places)) if v.is_finite], factor_indices)

    @classmethod
    def of_spec(cls, spec: SurfaceSpec) -> "Lattice":
        """G over spec: -1, spec.basis_primes and the factor indices."""
        return cls(spec.basis_primes, spec.indices)

    def poly_mask(self, subset: Iterable[int]) -> int:
        """The bits of p_{J'}; ValueError on an index outside the lattice."""
        mask = 0
        for i in subset:
            if i not in self._bits:
                raise ValueError(f"factor index {i} is outside the lattice")
            mask |= 1 << self._bits[i]
        return mask

    def poly(self, mask: int) -> FrozenSet[int]:
        """The J' of the mask [c][p_{J'}]."""
        return frozenset(i for i, bit in self._bits.items() if mask >> bit & 1)

    def encode(self, x: GElement) -> int:
        """ValueError if x has a prime or a factor outside the lattice."""
        return class_mask(x.c, self.primes) | self.poly_mask(x.poly)

    def decode(self, mask: int) -> GElement:
        return GElement(class_from_mask(mask, self.primes), self.poly(mask))

    def report(self, masks: Iterable[int]) -> Tuple[GElement, ...]:
        """The decoded masks in GElement.sort_key order."""
        return tuple(sorted(map(self.decode, masks), key=GElement.sort_key))

    def local_masks(self, factor_masks: Sequence[int], v: Place) -> List[int]:
        """The evaluation map at v: the local_mask of each generator, -1 and
        the primes, then factor_masks, the local masks at v of the values the
        factor symbols stand for, in factor_indices order.  The local class
        of a mask is the XOR of the entries at its bits."""
        return [local_mask(g, v) for g in (-1, *self.primes)] + list(factor_masks)


def constant_mask(spec: SurfaceSpec, i: int, subset: AbstractSet[int], dual: bool = False) -> int:
    """[D_i^{J'}] over -1 and spec.basis_primes; [Dhat_i^{J'}] when dual.

    D_i^{J'} = p_{J'}(-d_i/c_i) for i outside J', d*p_{J'^c}(-d_i/c_i)
    inside, and Dhat_i^{J'} puts -d for d.  The class of each factor
    p_j(-d_i/c_i) is the table entry spec.root_masks[i, j].
    """
    others, mask = subset, 0
    if i in subset:
        others = [j for j in spec.indices if j not in subset]
        mask = spec.d_mask ^ dual
    for j in others:
        mask ^= spec.root_masks[i, j]
    return mask


def target_mask(spec: SurfaceSpec, i: int) -> int:
    """t_i = [a*D_i^A], the class of spec.brauer_constants[i]."""
    return spec.a_mask ^ constant_mask(spec, i, spec.part_a)


def _member(spec: SurfaceSpec, cls: int, poly: AbstractSet[int], i: int, dual: bool,
            target: int) -> bool:
    """([c], J') in G_i (G^i when dual), [c] given as a mask: [c*D_i^{J'}]
    lies in <t_i>, t_i given as target."""
    return cls ^ constant_mask(spec, i, poly, dual) in (0, target)


def in_g_i(spec: SurfaceSpec, lattice: Lattice, x: int, i: int, dual: bool = False) -> bool:
    """Membership of x = [c][p_{J'}], a mask of lattice, in G_i (G^i when
    dual): [c*D_i^{J'}] lies in <[a*D_i^A]>.  A class with a prime outside
    spec.basis_primes lies in no G_i."""
    try:
        cls = class_mask(class_from_mask(x, lattice.primes), spec.basis_primes)
    except ValueError:
        return False
    return _member(spec, cls, lattice.poly(x), i, dual, target_mask(spec, i))


def target_generators(spec: SurfaceSpec, lattice: Lattice, dual: bool = False) -> List[int]:
    """The generators of the target subgroup as masks of lattice: [a][p_A]
    and [d][p_J] for G_D, [-d][p_J] for G^D when dual.  The lattice's
    primes must hold those of a and d: the spec lattice's do, and so do
    those of every relative lattice, whose T contains S0 + S_bad."""
    d_gen = class_mask(spec.d, lattice.primes) | lattice.poly_mask(spec.indices)
    if dual:
        return [d_gen ^ 1]
    return [class_mask(spec.a, lattice.primes) | lattice.poly_mask(spec.part_a), d_gen]


def _stacked_map(spec: SurfaceSpec, lattice: Lattice,
                 targets: Dict[int, int]) -> Tuple[List[int], List[int], int]:
    """The F2 map whose kernel gives G_D, as (first, columns, ones).

    [D_i^{J'}] = sum over j in J' of r_ij = [D_i^{{j}}], so G_D is the
    projection to (c, J') of the solutions (c, J', e) of
    c = B_i(J', e) := sum_j J'_j r_ij + e_i t_i for every i, t_i =
    targets[i].  first lists B_i0 for the first index i0, one entry per
    unknown J'_j, then e_j; it gives c outright.  Substituting it leaves
    (B_k + B_i0)(J', e) = 0 for the other k, a map stacked by columns, one
    per unknown, with bits width*s and up holding block s; B_i0 is added
    to every block as x*ones, ones holding bit 0 of each block.  Off the
    diagonal r_ij = root_masks[i, j]; on it r_ii is [d] plus every
    root_masks[i, j].  G^D puts [-d] for [d], which flips bit 0 of every
    r_ii: check_condition_d makes its map from this one in three edits.
    """
    indices, width = lattice.factor_indices, lattice.width
    table = spec.root_masks
    diagonal = dict.fromkeys(indices, spec.d_mask)
    for (i, _), mask in table.items():
        diagonal[i] ^= mask
    i0, *rest = indices
    shifts = [width * s for s in range(len(rest))]
    ones = 0
    for shift in shifts:
        ones |= 1 << shift
    first, columns = [], []
    for j in indices:
        r = diagonal[j] if j == i0 else table[i0, j]
        column = r * ones
        for k, shift in zip(rest, shifts):
            column ^= (diagonal[k] if k == j else table[k, j]) << shift
        first.append(r)
        columns.append(column)
    first.append(targets[i0])
    columns.append(targets[i0] * ones)
    for k, shift in zip(rest, shifts):
        first.append(0)
        columns.append(targets[k] << shift)
    return first, columns, ones


def _intersection(spec: SurfaceSpec, lattice: Lattice, targets: Dict[int, int], dual: bool,
                  first: Sequence[int], columns: Sequence[int]) -> Set[int]:
    """G_D (G^D when dual) as spec-lattice masks: the x = (c, J') with
    [c*D_i^{J'}] in <t_i> for every i, t_i = targets[i], from the kernel
    of its stacked map (first, columns) of _stacked_map.  Its generators
    are re-checked one by one, each constant read off root_masks by its
    definition, not off the columns.
    """
    indices, width = lattice.factor_indices, lattice.width
    poly_bits = (1 << len(indices)) - 1
    group = gf2.Subspace(lattice.ncols, [gf2.combine(first, x) | (x & poly_bits) << width
                                         for x in gf2.column_kernel(columns)])
    low = (1 << width) - 1
    for vec in group.basis:
        poly = lattice.poly(vec)
        if not all(_member(spec, vec & low, poly, i, dual, targets[i]) for i in indices):
            raise AssertionError(
                f"kernel generator {lattice.decode(vec)} is outside the intersection (bug)")
    return set(group.elements())


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
    and <[-d][p_J]>, all as masks of one spec lattice.  Each reported
    element is decoded once."""
    lattice = Lattice.of_spec(spec)
    targets = {i: target_mask(spec, i) for i in spec.indices}
    first, columns, ones = _stacked_map(spec, lattice, targets)
    groups, decoded, witnesses = [], {}, set()
    for dual, name in ((False, "G_D"), (True, "G^D")):
        if dual:
            # flip bit 0 of every r_ii: in B_i0, in the column of i0 (B_i0
            # is added to every block) and in block s of the column of the
            # index s + 1
            first[0] ^= 1
            columns[0] ^= ones
            for s in range(len(spec.indices) - 1):
                columns[s + 1] ^= 1 << lattice.width * s
        group = _intersection(spec, lattice, targets, dual, first, columns)
        span = {0}
        for gen in target_generators(spec, lattice, dual):
            span |= {gen ^ x for x in span}
        if not span <= group:
            missing = lattice.report(span - group)
            raise AssertionError(f"generator {missing[0]} missing from {name} (bug)")
        for x in group - decoded.keys():
            decoded[x] = lattice.decode(x)
        groups.append(tuple(sorted(map(decoded.__getitem__, group), key=GElement.sort_key)))
        witnesses |= group - span
    return ConditionDReport(
        holds=not witnesses,
        g_d=groups[0],
        g_d_dual=groups[1],
        witnesses=tuple(sorted(map(decoded.__getitem__, witnesses), key=GElement.sort_key)),
    )
