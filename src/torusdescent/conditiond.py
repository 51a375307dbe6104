"""Condition (D): the class group G, the constants D_i^{J'}, and the
subgroup intersections that control which Selmer elements descent can kill.

Elements of G are pairs (square class, subset of J), the square class
being its signed square-free integer.  `Lattice` is the one encoding of G
as F2 masks (one bit per factor symbol, then the sign bit and one bit per
prime): Condition (D) works over the spec lattice, and `selmer` and the
descent over the lattices of tori and fibers.  A descent only appends
primes to the spec lattice, so every mask of the spec lattice, and every
mask of an earlier state, is a mask of each later state's lattice.  Each
constant has one function: constant_mask is [D_i^{J'}] (the XOR of
SurfaceSpec.root_masks over its factors p_j(-d_i/c_i), plus [d] or [-d]
when i lies in J'), target_mask is t_i = [a*D_i^A] and target_generators
spans the target subgroups.  [D_i^{J'}] is linear in J', so each
membership condition is linear over F2 and the intersection groups are
kernels of one stacked F2 map, polynomial in |J|.  Everything here takes
and returns masks; GElement is the report type, made by Lattice.decode
for reports and trace strings.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

from . import gf2
from .arith import Place, class_from_mask, local_mask
from .surface import SurfaceSpec


class GElement(NamedTuple):
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
    """Elements [c][p_{J'}] of G as F2 masks: the low bits are one formal
    symbol per factor index in the given order (none for the lattice of a
    torus), then -1 at bit `shift`, then one bit per prime in the given
    order.  Above `shift` a mask is the class_mask of c over the primes.
    The spec lattice (Lattice.of_spec) is G over a spec: every constant of
    Condition (D) is a mask of it.  A lattice whose primes extend another's
    holds each of its masks unchanged, so every descent state's lattice
    holds the spec lattice's masks and those of every earlier state."""

    def __init__(self, primes: Sequence[int], factor_indices: Sequence[int] = ()):
        self.primes = tuple(primes)
        self.factor_indices = tuple(factor_indices)
        self.shift = len(self.factor_indices)
        self.width = 1 + len(self.primes)
        self.ncols = self.shift + self.width
        self._bits = {i: m for m, i in enumerate(self.factor_indices)}

    @classmethod
    def of_places(cls, places: Iterable[Place]) -> "Lattice":
        """The lattice of a torus over places: -1 and the ascending finite primes."""
        return cls([v.p for v in sorted(set(places)) if v.is_finite])

    @classmethod
    def of_spec(cls, spec: SurfaceSpec) -> "Lattice":
        """G over spec: the factor indices, -1 and spec.basis_primes."""
        return cls(spec.basis_primes, spec.indices)

    def with_prime(self, p: int) -> "Lattice":
        """This lattice with p appended to its primes."""
        return Lattice((*self.primes, p), self.factor_indices)

    def poly_mask(self, subset: Iterable[int]) -> int:
        """The bits of p_{J'}; ValueError on an index outside the lattice."""
        mask = 0
        for i in subset:
            if i not in self._bits:
                raise ValueError(f"factor index {i} is outside the lattice")
            mask |= 1 << self._bits[i]
        return mask

    def poly(self, mask: int) -> FrozenSet[int]:
        """The J' of the mask [c][p_{J'}], read off its set factor bits."""
        mask &= (1 << self.shift) - 1
        poly = []
        while mask:
            low = mask & -mask
            poly.append(self.factor_indices[low.bit_length() - 1])
            mask ^= low
        return frozenset(poly)

    def decode(self, mask: int) -> GElement:
        return GElement(class_from_mask(mask >> self.shift, self.primes), self.poly(mask))

    def report(self, masks: Iterable[int]) -> Tuple[GElement, ...]:
        """The decoded masks in GElement.sort_key order."""
        return tuple(sorted(map(self.decode, masks), key=GElement.sort_key))

    def local_masks(self, factor_masks: Sequence[int], v: Place) -> List[int]:
        """The evaluation map at v, one local mask per bit: factor_masks, the
        local masks at v of the values the factor symbols stand for, in
        factor_indices order, then the local_mask of -1 and of each prime.
        The local class of a mask is the XOR of the entries at its bits."""
        return [*factor_masks, *(local_mask(g, v) for g in (-1, *self.primes))]


def constant_mask(spec: SurfaceSpec, i: int, subset: AbstractSet[int], dual: bool = False) -> int:
    """[D_i^{J'}] over -1 and spec.basis_primes; [Dhat_i^{J'}] when dual.

    D_i^{J'} = p_{J'}(-d_i/c_i) for i outside J', d*p_{J'^c}(-d_i/c_i)
    inside, and Dhat_i^{J'} puts -d for d.  The class of each factor
    p_j(-d_i/c_i) is the table entry spec.root_masks[i, j].
    """
    table = spec.root_masks
    if i not in subset:
        mask = 0
        for j in subset:
            mask ^= table[i, j]
        return mask
    mask = spec.d_mask ^ dual
    for j in spec.indices:
        if j not in subset:
            mask ^= table[i, j]
    return mask


def target_mask(spec: SurfaceSpec, i: int) -> int:
    """t_i = [a*D_i^A], the class of spec.brauer_constants[i]."""
    return spec.a_mask ^ constant_mask(spec, i, spec.part_a)


def _member(spec: SurfaceSpec, cls: int, poly: AbstractSet[int], i: int, dual: bool,
            target: int) -> bool:
    """([c], J') in G_i (G^i when dual), [c] given as a mask: [c*D_i^{J'}]
    lies in <t_i>, t_i given as target."""
    return cls ^ constant_mask(spec, i, poly, dual) in (0, target)


def in_g_i(spec: SurfaceSpec, x: int, i: int, dual: bool = False) -> bool:
    """Membership of x = [c][p_{J'}], a mask of any lattice over spec, in
    G_i (G^i when dual): [c*D_i^{J'}] lies in <[a*D_i^A]>.  A class with a
    prime outside spec.basis_primes lies in no G_i.  The factor bits and
    the shift are read off spec.indices, as in Lattice.of_spec."""
    cls = x >> len(spec.indices)
    if cls >> 1 + len(spec.basis_primes):
        return False
    poly = {j for m, j in enumerate(spec.indices) if x >> m & 1}
    return _member(spec, cls, poly, i, dual, target_mask(spec, i))


def target_generators(spec: SurfaceSpec, dual: bool = False) -> List[int]:
    """The generators of the target subgroup as masks of every lattice over
    spec: [a][p_A] and [d][p_J] for G_D, [-d][p_J] for G^D when dual.  The
    factor bits and the shift are read off spec.indices, as in
    Lattice.of_spec."""
    shift = len(spec.indices)
    d_gen = spec.d_mask << shift | (1 << shift) - 1
    if dual:
        return [d_gen ^ 1 << shift]
    a_poly = sum(1 << m for m, j in enumerate(spec.indices) if j in spec.part_a)
    return [spec.a_mask << shift | a_poly, d_gen]


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
    indices, shift = lattice.factor_indices, lattice.shift
    poly_bits = (1 << shift) - 1
    group = gf2.Subspace(lattice.ncols, [gf2.combine(first, x) << shift | x & poly_bits
                                         for x in gf2.column_kernel(columns)])
    for vec in group.basis:
        poly = lattice.poly(vec)
        if not all(_member(spec, vec >> shift, poly, i, dual, targets[i]) for i in indices):
            raise AssertionError(
                f"kernel generator {lattice.decode(vec)} is outside the intersection (bug)")
    return set(group.elements())


class ConditionDReport(NamedTuple):
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
        for gen in target_generators(spec, dual):
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
