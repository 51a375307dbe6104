import random

from hypothesis import given, settings
from hypothesis import strategies as st

from torusdescent import gf2

from oracles import echelon_reference, gf2_rank, kernel_reference


def test_echelon_and_rank():
    rows = [0b101, 0b011, 0b110]
    assert gf2_rank(rows) == 2 == len(gf2.echelon(rows))
    assert gf2_rank([0b1, 0b10, 0b100]) == 3 == len(gf2.echelon([0b1, 0b10, 0b100]))
    assert gf2_rank([0, 0]) == 0 == len(gf2.echelon([0, 0]))


@st.composite
def _row_lists(draw):
    """Rows of one width, up to 130 bits, with zero rows, duplicate rows and
    sums of other rows mixed in: each extra row XORs the base rows picked by
    the bits of a mask (no bit gives 0, one bit a duplicate)."""
    width = draw(st.sampled_from([1, 7, 64, 65, 130]))
    base = draw(st.lists(st.integers(0, (1 << width) - 1), max_size=10))
    masks = draw(st.lists(st.integers(0, (1 << len(base)) - 1), max_size=6))
    extra = []
    for mask in masks:
        row = 0
        for k, b in enumerate(base):
            if mask >> k & 1:
                row ^= b
        extra.append(row)
    return draw(st.permutations(base + extra))


@given(_row_lists())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_echelon_matches_the_reference(rows):
    reduced = gf2.echelon(rows)
    assert reduced == echelon_reference(rows)
    assert len(reduced) == gf2_rank(rows)


def _transpose(vectors, width):
    """The width vectors whose bit k is bit b of vectors[k], for b < width:
    the rows of the matrix with these columns, or its columns from its rows."""
    return [sum((vec >> b & 1) << k for k, vec in enumerate(vectors)) for b in range(width)]


def test_column_kernel_small():
    # the one row 110 has columns 1, 1, 0: the kernel is {000, 110, 001, 111}
    basis = gf2.column_kernel(_transpose([0b011], 3))
    space = gf2.Subspace(3, basis)
    assert space.dim == 2
    assert space.contains(0b011)
    assert space.contains(0b100)
    assert not space.contains(0b001)


def test_kernel_orthogonality_random():
    rng = random.Random(1)
    for _ in range(50):
        ncols = rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 8))]
        for vec in gf2.column_kernel(_transpose(rows, ncols)):
            assert all(gf2.dot(row, vec) == 0 for row in rows)


def test_kernel_dimension_formula():
    rng = random.Random(2)
    for _ in range(50):
        ncols = rng.randint(1, 12)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randint(0, 8))]
        assert len(gf2.column_kernel(_transpose(rows, ncols))) == ncols - gf2_rank(rows)


def test_subspace_membership_and_elements():
    space = gf2.Subspace(4, [0b0011, 0b0110])
    elements = set(space.elements())
    assert elements == {0, 0b0011, 0b0110, 0b0101}
    # element m combines the basis vectors at the set bits of m
    assert list(space.elements()) == [gf2.combine(space.basis, m) for m in range(4)]
    assert gf2.combine([0b0011, 0b0110, 0b1000], 0b101) == 0b1011
    assert space.contains(0b0101)
    assert not space.contains(0b1000)


def test_intersect_hyperplane():
    space = gf2.Subspace(4, [0b0011, 0b0110, 0b1000])
    half = space.intersect_hyperplane(0b0001)
    assert half.dim == 2
    for vec in half.elements():
        assert gf2.dot(vec, 0b0001) == 0
        assert space.contains(vec)


def _kernel_by_enumeration(rows, ncols):
    return [x for x in range(1 << ncols) if all(gf2.dot(row, x) == 0 for row in rows)]


def test_column_kernel_matches_enumeration():
    # the combinations of columns summing to 0 are the kernel of the rows
    # of the transposed matrix
    rng = random.Random(5)
    for _ in range(200):
        ncols, height = rng.randint(0, 10), rng.randint(0, 8)
        columns = [rng.getrandbits(height) for _ in range(ncols)]
        rows = _transpose(columns, height)
        basis = gf2.column_kernel(columns)
        expected = gf2.Subspace(ncols, _kernel_by_enumeration(rows, ncols))
        assert gf2.Subspace(ncols, basis).basis == expected.basis
        assert len(basis) == expected.dim
        # the reference that test_column_kernel_at_stacked_map_sizes reads
        assert gf2.Subspace(ncols, kernel_reference(rows, ncols)) == expected


def test_column_kernel_at_stacked_map_sizes():
    # up to 2*MAX_FACTORS = 32 columns of up to 300 bits, as in the stacked
    # map of Condition (D): each column is zero, a repeat of an earlier one
    # or a sum of a few base columns, so the kernel is rarely trivial
    rng = random.Random(38)
    for _ in range(150):
        ncols, height = rng.randint(0, 32), rng.randint(1, 300)
        base = [rng.getrandbits(height) for _ in range(rng.randint(1, 12))]
        columns = []
        for _ in range(ncols):
            kind = rng.random()
            if kind < 0.1:
                columns.append(0)
            elif kind < 0.25 and columns:
                columns.append(rng.choice(columns))
            else:
                columns.append(gf2.combine(base, rng.getrandbits(len(base))))
        rows = _transpose(columns, height)
        basis = gf2.column_kernel(columns)
        assert all(gf2.combine(columns, x) == 0 for x in basis)
        assert len(basis) == ncols - gf2_rank(rows)
        assert gf2.Subspace(ncols, basis) == gf2.Subspace(ncols, kernel_reference(rows, ncols))


def test_intersect_hyperplane_matches_enumeration():
    rng = random.Random(4)
    for _ in range(200):
        ncols = rng.randint(0, 10)
        space = gf2.Subspace(ncols, [rng.getrandbits(ncols) for _ in range(rng.randint(0, 6))])
        row = rng.getrandbits(ncols)
        expected = [x for x in space.elements() if gf2.dot(x, row) == 0]
        assert space.intersect_hyperplane(row) == gf2.Subspace(ncols, expected)
