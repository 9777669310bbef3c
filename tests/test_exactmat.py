import hashlib
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prymdice.exactmat import (
    IntMatrix,
    MatrixError,
    det,
    format_matrix_text,
    hermite_lattice_contains,
    hnf,
    hnf_basis,
    minors,
    parse_matrix_text,
    rank,
    row_lattice_contains,
    square_submatrices,
)

from conftest import seeded_rng
from oracles import cofactor_det, rational_rank

small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-6, 6), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


def M(rows):
    return IntMatrix.from_rows(rows)


def test_intmatrix_validation():
    with pytest.raises(MatrixError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(MatrixError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_hnf_identity():
    I3 = IntMatrix.identity(3)
    H, U = hnf(I3)
    assert H == I3
    assert U == I3


def test_hnf_2x2_example():
    m = M([[2, 4], [1, 1]])
    H, U = hnf(m)
    assert U @ m == H
    assert abs(det(U)) == 1
    assert abs(det(H)) == 2
    for row in m.row_list():
        assert row_lattice_contains(H, row)
    for i in range(H.rows):
        assert row_lattice_contains(m, H.row(i))


def test_hnf_zero_row():
    m = M([[0, 0, 0]])
    H, U = hnf(m)
    assert H == m
    assert U == IntMatrix.identity(1)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_hnf_preserves_row_lattice(rows):
    m = M(rows)
    H, U = hnf(m)
    assert U @ m == H
    assert abs(det(U)) == 1
    for row in rows:
        assert row_lattice_contains(H, row)
    for i in range(H.rows):
        assert row_lattice_contains(m, H.row(i))


def test_hermite_outputs_are_pinned():
    # recorded with the earlier hnf, which wrote every row operation once for
    # H and once for U; U is a public witness, so it is pinned with H
    rng = seeded_rng(9)
    found = []
    for _ in range(300):
        nrows, ncols = rng.randint(1, 7), rng.randint(1, 8)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if nrows > 2 and rng.random() < 0.4:
            a, b, c = rng.sample(range(nrows), 3)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows[c] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
        m = M(rows)
        found.append((hnf(m), hnf_basis(m), rank(m)))
    assert sum(r < H.rows for (H, _), _, r in found) > 100  # dependent rows
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "28bb0b8335dd8d5f5938b46b8413a708c42741970b6d23df4b2d39a44c7a2692"
    )


def test_rank_identity_and_zero():
    assert rank(IntMatrix.identity(5)) == 5
    assert rank(IntMatrix.zeros(3, 4)) == 0


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_matches_rational_elimination_and_transpose(rows):
    m = M(rows)
    expected = rational_rank(rows)
    assert rank(m) == expected
    assert rank(IntMatrix.from_rows(zip(*rows))) == expected


def test_det_small_cases():
    assert det(IntMatrix.identity(4)) == 1
    assert det(M([[1, 1], [1, -1]])) == -2
    assert det(IntMatrix(0, 0, ())) == 1
    with pytest.raises(MatrixError):
        det(M([[1, 2, 3], [4, 5, 6]]))


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-5, 5), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
)
def test_det_matches_cofactor_expansion(rows):
    assert det(M(rows)) == cofactor_det(rows)


def test_reference_system_maximal_minors_are_unimodular():
    from prymdice.unimod import e5

    matrix = e5().matrix
    values = {det(sub) for _, _, sub in square_submatrices(matrix, 5)}
    assert values <= {-1, 0, 1}
    assert 1 in values or -1 in values


def test_square_submatrices_counts():
    m22 = M([[1, 2], [3, 4]])
    assert len(list(square_submatrices(m22, 1))) == 4
    m510 = IntMatrix.zeros(5, 10)
    assert len(list(square_submatrices(m510, 5))) == comb(5, 5) * comb(10, 5) == 252
    m33 = M([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    items = list(square_submatrices(m33, 3))
    assert len(items) == 1
    assert items[0][2] == m33
    with pytest.raises(MatrixError):
        list(square_submatrices(m22, 3))
    with pytest.raises(MatrixError):
        list(square_submatrices(m22, 0))


def test_square_submatrices_lexicographic_order():
    m = M([[1, 2, 3], [4, 5, 6]])
    seen = [(r, c) for r, c, _ in square_submatrices(m, 1)]
    assert seen == sorted(seen)
    assert seen[0] == ((0,), (0,))


@settings(max_examples=80, deadline=None)
@given(small_matrices, st.integers(1, 4))
def test_square_submatrices_total_count(rows, k):
    m = M(rows)
    if k > min(m.rows, m.cols):
        return
    assert len(list(square_submatrices(m, k))) == comb(m.rows, k) * comb(m.cols, k)


def _minor_kernel_cases():
    rng = seeded_rng(4)
    shapes = [(1, 1), (4, 2), (5, 3), (3, 3), (2, 6), (5, 7)]
    shapes += [(rng.randint(1, 5), rng.randint(1, 7)) for _ in range(60)]
    cases = [[[rng.randint(-2, 2) for _ in range(c)] for _ in range(r)] for r, c in shapes]
    cases.append([[1, -1, 2], [0, 0, 0], [2, 1, 1]])  # a zero row
    return cases


def test_minors_match_cofactor_oracle_in_square_submatrices_order():
    for rows in _minor_kernel_cases():
        m = M(rows)
        got = list(minors(m))
        order = [
            (r, c)
            for k in range(1, min(m.rows, m.cols) + 1)
            for r, c, _ in square_submatrices(m, k)
        ]
        assert [(r, c) for r, c, _ in got] == order
        for r, c, d in got:
            assert d == cofactor_det([[rows[i][j] for j in c] for i in r])


def test_hnf_basis_zero_matrix():
    b = hnf_basis(M([[0, 0], [0, 0]]))
    assert b.rows == 0
    assert b.cols == 2


@settings(max_examples=120, deadline=None)
@given(small_matrices, st.randoms(use_true_random=False))
def test_hnf_basis_is_canonical_for_the_row_lattice(rows, rnd):
    # two generating sets of the same lattice reduce to the same basis
    m = M(rows)
    mixed = [list(r) for r in rows]
    for _ in range(6):
        kind = rnd.randrange(3)
        i = rnd.randrange(len(mixed))
        j = rnd.randrange(len(mixed))
        if kind == 0 and i != j:
            c = rnd.choice([-2, -1, 1, 2])
            mixed[i] = [x + c * y for x, y in zip(mixed[i], mixed[j])]
        elif kind == 1:
            mixed[i], mixed[j] = mixed[j], mixed[i]
        else:
            mixed[i] = [-x for x in mixed[i]]
    stacked = M(mixed + [list(r) for r in rows])  # same lattice, redundant rows
    assert hnf_basis(stacked) == hnf_basis(m)


def test_matrix_text_round_trip():
    m = M([[1, -2, 3], [0, 5, -6]])
    assert parse_matrix_text(format_matrix_text(m)) == m


def test_matrix_text_comments_and_errors():
    m = parse_matrix_text("# header\n2 2\n1 2 # trailing\n3 4\n")
    assert m == M([[1, 2], [3, 4]])
    with pytest.raises(MatrixError):
        parse_matrix_text("")
    with pytest.raises(MatrixError):
        parse_matrix_text("2 2\n1 2\n3\n")
    with pytest.raises(MatrixError):
        parse_matrix_text("2 2\n1 2\n3 x\n")
    with pytest.raises(MatrixError):
        parse_matrix_text("denominator 5\n1 1\n2\n")
    with pytest.raises(MatrixError):
        parse_matrix_text("1 2\n1 2\n3 4\n")


def test_row_lattice_contains_matches_the_stacked_hermite_definition():
    # the earlier definition: v is in the lattice when stacking it under
    # the Hermite basis leaves that basis unchanged
    def stacked(m, v):
        basis = hnf_basis(m)
        if basis.rows == 0:
            return not any(v)
        return hnf_basis(M(basis.row_list() + [list(v)])) == basis

    rng = seeded_rng(17)
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(nrows)]
        m = M(rows)
        inside = [sum(rng.randint(-3, 3) * r[j] for r in rows) for j in range(ncols)]
        nudged = list(inside)
        nudged[rng.randrange(ncols)] += rng.choice([-1, 1])
        other = [rng.randint(-4, 4) for _ in range(ncols)]
        for v in (inside, nudged, other):
            expected = stacked(m, v)
            assert row_lattice_contains(m, v) == expected
            assert hermite_lattice_contains(hnf_basis(m), v) == expected
            outcomes[expected] += 1
    assert min(outcomes.values()) > 100
