"""GF(2) linear algebra on int bitsets.

Bit k of an int is column k.  `echelon` returns the reduced echelon form
with each row's lowest bit as its pivot, the canonical basis that
`Subspace` keeps and reads membership off.  `column_kernel`, the one kernel
routine, needs no reduced form: it runs forward elimination alone.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence


def echelon(rows: Sequence[int]) -> List[int]:
    """Row-echelon form (reduced, lowest bit = column 0), zero rows dropped.

    The basis is kept reduced, as a map from each pivot bit to its row, so
    a row is reduced in one pass: it takes in the row of each pivot bit it
    holds, and each of those rows holds no other pivot bit.
    """
    row_at = {}
    pivots = 0
    for row in rows:
        hit = row & pivots
        while hit:
            low = hit & -hit
            row ^= row_at[low]
            hit ^= low
        if row:
            # row holds no pivot bit: clear its own from the rows that hold it
            low = row & -row
            for pivot, b in row_at.items():
                if b & low:
                    row_at[pivot] = b ^ row
            row_at[low] = row
            pivots |= low
    basis = []
    while pivots:
        low = pivots & -pivots
        basis.append(row_at[low])
        pivots ^= low
    return basis


def column_kernel(columns: Sequence[int]) -> List[int]:
    """Basis of {x : XOR of columns[m] over the set bits m of x is 0}, the
    kernel of the matrix with these columns.

    Each column is tagged with its own bit above every column bit and
    reduced, lowest pivot first, by the rows kept so far, each keyed by its
    lowest bit.  A column left with no column bits is a kernel vector, and
    the others are kept: the kernel vectors are independent, each holding
    its own tag above those of the columns before it, and there are ncols
    minus the rank of them.
    """
    shift = max(columns, default=0).bit_length()
    low_bits = (1 << shift) - 1
    row_at, pivots, kernel = {}, 0, []
    for m, col in enumerate(columns):
        row = col | 1 << shift + m
        hit = row & pivots
        while hit:
            row ^= row_at[hit & -hit]
            hit = row & pivots
        if row & low_bits:
            low = row & -row
            row_at[low] = row
            pivots |= low
        else:
            kernel.append(row >> shift)
    return kernel


def combine(vectors: Sequence[int], x: int) -> int:
    """XOR of vectors[m] over the set bits m of x: the image of x under the
    matrix with these columns."""
    out = 0
    for vec in vectors:
        if not x:
            break
        if x & 1:
            out ^= vec
        x >>= 1
    return out


def parity(mask: int) -> int:
    return mask.bit_count() & 1


def dot(a: int, b: int) -> int:
    return parity(a & b)


class Subspace:
    """A subspace of F2^ncols with membership test and enumeration."""

    def __init__(self, ncols: int, vectors: Sequence[int] = ()):
        self.ncols = ncols
        self.basis = echelon(vectors)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def contains(self, vec: int) -> bool:
        # reduce vec by the echelon basis: 0 exactly when it is in the span
        for b in self.basis:
            if vec & (b & -b):
                vec ^= b
        return vec == 0

    def intersect_hyperplane(self, row: int) -> "Subspace":
        """Subspace of vectors x in this space with <x, row> = 0: the even
        basis vectors and the sums of the first odd one with each other."""
        even = [b for b in self.basis if not dot(b, row)]
        odd = [b for b in self.basis if dot(b, row)]
        return Subspace(self.ncols, even + [odd[0] ^ b for b in odd[1:]])

    def elements(self) -> Iterator[int]:
        if self.dim > 24:
            raise ValueError("subspace too large to enumerate")
        # element m is combine(self.basis, m): each basis vector doubles the list
        out = [0]
        for vec in self.basis:
            out += [x ^ vec for x in out]
        yield from out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.ncols == other.ncols and self.basis == other.basis

    def __repr__(self):
        return f"Subspace(ncols={self.ncols}, dim={self.dim})"
