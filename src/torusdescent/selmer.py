"""Selmer and dual Selmer groups of norm-one tori over rings of S-integers,
and the relative (dual) Selmer groups of admissible fibers, read straight
off the partial adelic point and its admissible point.

Everything is F2 linear algebra over explicit square-class lattices, read
through conditiond.Lattice, the one encoding of G; a square class outside
a lattice is its signed square-free integer.  The ambient group is
generated by -1, the finite primes of S (and the formal factor symbols in
the relative case).  Both groups are cut out by local subspaces L_v of
Q_v*/(Q_v*)^2, in the local_mask coordinates of `arith`: L_v =
<[d]_v>^perp for the Selmer group and L_v = <[d]_v> for the dual Selmer
group.  Each generator's local mask is taken once per place
(Lattice.local_masks, the lattice's evaluation map at v): those of -1 and
the primes are computed, and at the places of T those of the factor symbols
and [d]_v are read off the partial adelic point's rows.  Q_v*/(Q_v*)^2 has
F2-dimension 1, 2 or 3, so a local condition is one of 22: the constant
table _CONDITIONS, built at import and keyed by the kind of v (real, 2, or
p mod 4, all that H_v reads of p) and [d]_v, holds the bits that the
linear forms whose kernel is L_v (H_v [d]_v, or a basis of the annihilator
of [d]_v) take on each local mask.  Each condition appends those bits of
mask_k to column k, one column per lattice bit, and each group is the
kernel of its columns (gf2.column_kernel).  The groups are two
gf2.Subspace objects in the coordinates of one lattice, which decodes
their elements: selmer_groups builds the torus's lattice over S and
returns it with them, and relative_selmer works in the lattice it is
given, the descent state's, whose primes are those of T in the order the
descent added them.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Sequence, Tuple

from . import gf2
from .arith import (
    REAL,
    Place,
    class_from_mask,
    class_mask,
    hilbert_row,
    local_dim,
    local_mask,
)
from .conditiond import Lattice
from .surface import AdmissiblePoint, PartialAdelicPoint, SurfaceSpec


# ---------------------------------------------------------------------------
# Torus data
# ---------------------------------------------------------------------------


class TorusData(NamedTuple):
    """The torus x^2 - d*y^2 = 1 over the S-integers.

    d is stored square-free; S must contain the real place, 2, and every
    prime in the support of d (so the class group obstruction vanishes and
    the lattice of S-units mod squares computes the cohomology).
    """

    d: int
    places: Tuple[Place, ...]


def torus_data(d: int, places: Iterable[Place]) -> TorusData:
    """The torus of the nonzero integer d over S = places.  Every prime
    dividing d must lie in S: d is read over the primes of S with
    class_mask, so nothing is factored."""
    places = tuple(sorted(set(places)))
    primes = [v.p for v in places if v.is_finite]
    if REAL not in places:
        raise ValueError("S must contain the real place")
    if 2 not in primes:
        raise ValueError("S must contain 2")
    try:
        mask = class_mask(d, primes)
    except ValueError:
        raise ValueError(f"S must contain the ramified primes of {d}") from None
    return TorusData(d=class_from_mask(mask, primes), places=places)


# ---------------------------------------------------------------------------
# Local conditions
# ---------------------------------------------------------------------------


def _condition_bits(v: Place, d_v: Optional[int]) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """(width, bits) of the Selmer side, then of the dual side, at v.  The
    linear forms f whose kernel is L_v are H_v [d]_v (Selmer) and a basis of
    the annihilator of [d]_v (dual), or the top local bit, the valuation
    parity, on both sides where [d]_v is None; width is their number and
    bits[m] their bits dot(f, m) at the local mask m, the first one highest."""
    dim = local_dim(v)
    if d_v is None:
        sides = [[1 << dim - 1]] * 2
    else:
        sides = [[hilbert_row(d_v, v)], gf2.column_kernel([d_v >> b & 1 for b in range(dim)])]
    return tuple((len(forms), tuple(sum(gf2.dot(f, m) << k for k, f in enumerate(reversed(forms)))
                                    for m in range(1 << dim)))
                 for forms in sides)


def _kind(v: Place) -> Optional[int]:
    """What hilbert_row reads of v: the real place (None), 2, or p mod 4."""
    return None if v.p is None else v.p & 3


# (_kind(v), [d]_v or None) -> _condition_bits(v, [d]_v), on one place of each kind
_CONDITIONS = {(_kind(v), d_v): _condition_bits(v, d_v)
               for v in (REAL, Place(2), Place(5), Place(3))
               for d_v in (None, *range(1 << local_dim(v)))}


def _cut_out(
    lattice: Lattice, conditions: Iterable[Tuple[Place, Sequence[int], Optional[int]]]
) -> Tuple[gf2.Subspace, gf2.Subspace]:
    """The Selmer and dual Selmer groups of d, as subspaces of F2^ncols
    in the lattice's coordinates.

    Each condition (v, factor masks, [d]_v) gives the local masks at v of
    the values the factor symbols stand for (Lattice.local_masks) and the
    local mask of d there.  At v a class must lie in <[d]_v>^perp (Selmer)
    or in <[d]_v> (dual); where [d]_v is None it must be a local unit class
    (both).  The bits of column k, the column of lattice bit k, under those
    conditions are _CONDITIONS[_kind(v), [d]_v] at mask_k.
    """
    sel = [0] * lattice.ncols
    dual = [0] * lattice.ncols
    for v, factor_masks, d_v in conditions:
        masks = lattice.local_masks(factor_masks, v)
        (sel_width, sel_bits), (dual_width, dual_bits) = _CONDITIONS[_kind(v), d_v]
        sel = [col << sel_width | sel_bits[m] for col, m in zip(sel, masks)]
        dual = [col << dual_width | dual_bits[m] for col, m in zip(dual, masks)]
    return tuple(gf2.Subspace(lattice.ncols, gf2.column_kernel(columns))
                 for columns in (sel, dual))


def selmer_groups(torus: TorusData) -> Tuple[Lattice, gf2.Subspace, gf2.Subspace]:
    """The lattice of S (-1 and the finite primes of S), the Selmer group
    (classes of I_S pairing trivially with d at every place of S) and the
    dual Selmer group (classes of I_S locally in <[d]_v> at every place of
    S) of the torus, the two groups as subspaces of the lattice."""
    lattice = Lattice.of_places(torus.places)
    conditions = [(v, (), local_mask(torus.d, v)) for v in torus.places]
    return (lattice, *_cut_out(lattice, conditions))


# ---------------------------------------------------------------------------
# Evaluation maps and relative Selmer groups
# ---------------------------------------------------------------------------


def relative_selmer(
    spec: SurfaceSpec, lattice: Lattice, p_t: PartialAdelicPoint, adm: AdmissiblePoint
) -> Tuple[gf2.Subspace, gf2.Subspace]:
    """R and R-hat at the admissible point adm of p_t, as subspaces of
    lattice, whose primes are the finite places of T = p_t.places: the
    pullbacks under evaluation at t0 of the fiber torus's Selmer and dual
    Selmer groups.

    At each place v of T the local classes of the p_i(t0) and of
    -d*p_J(t0) are those of p_t.rows[v], which the admissible scan fixes
    (descent._try_admissible checks the row), so they are read from there;
    t0 is evaluated only at the witness places u_i.  The local conditions of
    -d*p_J(t0) hold at T0 (the places of S0 and those with
    val_v(d*p_J(t_v)) = 1) and at the u_i; the rest of T asks for unit
    classes."""
    conditions = []
    for v in p_t.places:
        row = p_t.rows[v]
        d_v = row.torus[1] if v in spec.s0 or row.torus[0] == 1 else None
        conditions.append((v, [mask for _, mask in row.factors.values()], d_v))
    for _, u in adm.witnesses:
        factor_masks = [local_mask(adm.values[i], u) for i in lattice.factor_indices]
        conditions.append((u, factor_masks, local_mask(adm.fiber.torus_d, u)))
    return _cut_out(lattice, conditions)
