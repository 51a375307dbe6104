"""Vertical Brauer classes of the fibration, their residues at the roots of
the factors, and their local invariants.  A partial adelic point keeps the
invariant vector of each place in its row (PlaceRow.brauer); the invariant
sums the descent checks are bits of the XOR of the rows
(descent.suitability).

The generator of factor i is the quaternion symbol (spec.brauer_constants[i],
p_i(t)): a constant left entry and the linear right entry
spec.coeffs(i) = (c_i, d_i).  Nothing here wraps that pair in a type; every
function takes the spec and the index.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Tuple

from .arith import Place, Rational, class_from_mask, hilbert_row, local_mask
from .gf2 import dot

if TYPE_CHECKING:  # surface imports this module to fill PlaceRow.brauer
    from .surface import SurfaceSpec


def residue_at(spec: SurfaceSpec, i: int, m: Rational) -> int:
    """Tame-symbol residue of the i-th generator at the rational point t = m.

    The left entry is a unit there and the linear right entry p_i vanishes
    to order 1 at its root and to order 0 elsewhere, so the residue is the
    class of spec.brauer_constants[i] at the root and trivial (1) at every
    other point.  That class is read off its mask over spec.basis_primes
    (conditiond.target_mask), so the constant is never factored.
    """
    if Fraction(m) != spec.root(i):
        return 1
    from .conditiond import target_mask  # conditiond imports surface, which imports brauer
    return class_from_mask(target_mask(spec, i), spec.basis_primes)


def invariant(spec: SurfaceSpec, i: int, mask: int, v: Place) -> int:
    """inv_v of the i-th generator where p_i(t_v) has local class `mask` at v:
    the Hilbert pairing dot(local_mask(constant, v), H_v * mask)."""
    return dot(local_mask(spec.brauer_constants[i], v), hilbert_row(mask, v))


def invariant_vector(spec: SurfaceSpec, v: Place,
                     factors: Mapping[int, Tuple[int, int]]) -> int:
    """Bit k: invariant of the generator of spec.indices[k] on a factor row
    (surface.factor_row) at v.  PlaceRow.brauer holds it for a point's row."""
    return sum(invariant(spec, i, factors[i][1], v) << k for k, i in enumerate(spec.indices))

