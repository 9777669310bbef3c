import hashlib
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

import pytest

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

SHAPES = list(product(range(1, 5), repeat=2))
SQUARES = [(n, n) for n in range(1, 5)]


def small_matrices(salt, count, shapes=SHAPES, bound=6):
    """Matrices with entries in -bound..bound: for every shape, a zero, a
    range-ends, a repeated-row and a rank-one matrix, then ``count`` random
    ones of random shapes."""
    rng = seeded_rng(salt)
    cases = []
    for r, c in shapes:
        row = [rng.randint(-bound, bound) for _ in range(c)]
        u = [rng.randint(-2, 2) for _ in range(r)]
        v = [rng.randint(-2, 2) for _ in range(c)]
        cases += [
            [[0] * c for _ in range(r)],
            [[rng.choice((-bound, bound)) for _ in range(c)] for _ in range(r)],
            [list(row) for _ in range(r)],
            [[a * b for b in v] for a in u],
        ]
    for _ in range(count):
        r, c = rng.choice(shapes)
        cases.append([[rng.randint(-bound, bound) for _ in range(c)] for _ in range(r)])
    return cases


def boundaries(rows, bound=6):
    """The boundary kinds that ``rows`` hits, its shape among them."""
    r, c = len(rows), len(rows[0])
    flat = [x for row in rows for x in row]
    return {(r, c)} | {
        kind
        for kind, hit in [
            ("zero", not any(flat)),
            ("rank-deficient", min(r, c) > 1 and rational_rank(rows) < min(r, c)),
            ("repeated row", len({tuple(row) for row in rows}) < r),
            ("low end", -bound in flat),
            ("high end", bound in flat),
        ]
        if hit
    }


KINDS = {"zero", "rank-deficient", "repeated row", "low end", "high end"}


def M(rows):
    return IntMatrix.from_rows(rows)


def test_intmatrix_validation():
    with pytest.raises(MatrixError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(MatrixError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_non_integer_entries_are_refused_with_the_same_error():
    for bad in (1.0, "1", None, 2.5):
        with pytest.raises(MatrixError, match="^matrix entries must be integers$"):
            IntMatrix(2, 2, (1, 0, bad, 1))
    # from_rows converts with int(), so integral floats and numeric strings pass
    assert IntMatrix.from_rows([[1.0, "2"], [3, True]]).entries == (1, 2, 3, 1)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, "x"]])
    # but nothing that int() refuses or would round
    for bad in (2.999, 1.5, -0.5, Fraction(3, 2), None, "x", "2.5", [1], float("inf"), float("nan")):
        with pytest.raises(MatrixError, match="^matrix entries must be integers$"):
            IntMatrix.from_rows([[1, 0], [bad, 1]])
    assert IntMatrix.from_rows([[Fraction(4, 2), -3.0, " 7 "]]).entries == (2, -3, 7)


def test_gotmatches_the_entrywise_definition():
    rng = seeded_rng(25)
    # every shape up to 3 x 3 by 3 x 3, 0-row, 0-column and 0-inner factors included
    shapes = [(r, k, c) for r in range(4) for k in range(4) for c in range(4)]
    for r, k, c in shapes + [rng.choice(shapes) for _ in range(50)]:
        a = [rng.randint(-6, 6) for _ in range(r * k)]
        b = [rng.randint(-6, 6) for _ in range(k * c)]
        got = IntMatrix(r, k, tuple(a)) @ IntMatrix(k, c, tuple(b))
        assert (got.rows, got.cols) == (r, c)
        assert got.entries == tuple(
            sum(a[i * k + t] * b[t * c + j] for t in range(k)) for i in range(r) for j in range(c)
        )
    for left, right in (((2, 3), (2, 3)), ((0, 1), (2, 0)), ((3, 0), (1, 3))):
        with pytest.raises(MatrixError, match="incompatible shapes"):
            IntMatrix.zeros(*left) @ IntMatrix.zeros(*right)


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


def test_hnf_preserves_row_lattice():
    seen = Counter()
    for rows in small_matrices(1, 150):
        seen.update(boundaries(rows))
        m = M(rows)
        H, U = hnf(m)
        assert U @ m == H
        assert abs(det(U)) == 1
        for row in rows:
            assert row_lattice_contains(H, row)
        for i in range(H.rows):
            assert row_lattice_contains(m, H.row(i))
    assert seen.keys() == KINDS | set(SHAPES), seen


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


def test_rank_matches_rational_elimination_and_transpose():
    seen = Counter()
    for rows in small_matrices(2, 150):
        seen.update(boundaries(rows))
        m = M(rows)
        expected = rational_rank(rows)
        assert rank(m) == expected
        assert rank(IntMatrix.from_rows(zip(*rows))) == expected
    assert seen.keys() == KINDS | set(SHAPES), seen


def test_det_small_cases():
    assert det(IntMatrix.identity(4)) == 1
    assert det(M([[1, 1], [1, -1]])) == -2
    assert det(IntMatrix(0, 0, ())) == 1
    with pytest.raises(MatrixError):
        det(M([[1, 2, 3], [4, 5, 6]]))


def test_det_matches_cofactor_expansion():
    seen = Counter()
    for rows in small_matrices(3, 200, SQUARES, bound=5):
        seen.update(boundaries(rows, bound=5))
        assert det(M(rows)) == cofactor_det(rows)
    assert seen.keys() == KINDS | set(SQUARES), seen


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


def test_square_submatrices_total_count():
    seen = Counter()
    for rows in small_matrices(4, 80):
        seen.update(boundaries(rows))
        m = M(rows)
        for k in range(1, min(m.rows, m.cols) + 1):
            assert len(list(square_submatrices(m, k))) == comb(m.rows, k) * comb(m.cols, k)
    assert seen.keys() == KINDS | set(SHAPES), seen


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


def test_hnf_basis_is_canonical_for_the_row_lattice():
    # two generating sets of the same lattice reduce to the same basis
    rnd = seeded_rng(6)
    seen = Counter()
    for rows in small_matrices(5, 120):
        seen.update(boundaries(rows))
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
    assert seen.keys() == KINDS | set(SHAPES), seen


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


def test_each_malformed_matrix_input_is_refused_with_its_message():
    cases = [
        (lambda: IntMatrix(-1, 2, ()), "negative matrix dimensions"),
        (lambda: hnf(IntMatrix(0, 2, ())), "hnf requires a nonempty matrix"),
        (lambda: hermite_lattice_contains(IntMatrix.identity(2), [1]),
         "vector length does not match column count"),
        (lambda: hermite_lattice_contains(IntMatrix(1, 2, (0, 0)), [0, 1]),
         "matrix is not in Hermite form"),
        (lambda: hermite_lattice_contains(IntMatrix(2, 2, (1, 0, 0, 0)), [0, 1]),
         "matrix is not in Hermite form"),
        (lambda: hermite_lattice_contains(IntMatrix(2, 2, (0, 1, 1, 0)), [1, 1]),
         "matrix is not in Hermite form"),
        (lambda: parse_matrix_text("# header\n1 2 3\n1 2\n"), "line 2: expected 'rows cols'"),
    ]
    for build, message in cases:
        with pytest.raises(MatrixError) as err:
            build()
        assert str(err.value) == message
