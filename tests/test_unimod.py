import functools
import hashlib
import itertools
import sys
from operator import and_

import pytest

from prymdice import exactmat, unimod
from prymdice.exactmat import IntMatrix, MatrixError, det, gauss_jordan
from prymdice.graph import GraphError, MultiGraph
from prymdice.homology import cographic_dicing_system
from prymdice.prym import prym_dicing
from prymdice.segre import build_cover, fixture
from prymdice.unimod import (
    Equivalence,
    NotTotallyUnimodularError,
    SearchCapExceeded,
    UnimodularSystem,
    bond_system,
    cut_space_matrix,
    e5,
    is_cographic,
    is_totally_unimodular,
    matroid_equivalent,
    spanning_forest_count,
    systems_equivalent,
    verify_equivalence,
)
from prymdice import enumerate_graphs as eg

from conftest import basis_masks, census_covers, random_gl, scramble, seeded_rng
from oracles import (
    cofactor_det,
    first_violating_minor_by_definition,
    independent_column_sets,
    lattice_equivalent_by_definition,
    rational_rank,
    tu_by_definition,
)


def M(rows):
    return IntMatrix.from_rows(rows)


# ---------------------------------------------------------------------------
# the reference system
# ---------------------------------------------------------------------------


def test_e5_matrix_entries():
    S = e5()
    assert S.dim == 5
    assert S.size == 10
    assert S.matrix.column_submatrix(range(5)) == IntMatrix.identity(5)
    assert S.column(5) == (1, 1, 0, 0, 1)
    assert S.column(9) == (1, 1, 1, 1, 1)


def test_e5_is_totally_unimodular():
    assert is_totally_unimodular(e5()).is_tu


def test_e5_matroid_profile():
    # 162 bases, fifteen 4-element circuits, fifteen 6-element circuits
    S = UnimodularSystem(e5().matrix)
    assert len(basis_masks(S)) == S.gate[1] == 162
    # no small circuits: every set of <= 3 columns is independent; a set is
    # independent when the AND of its columns' holders is nonzero
    from math import comb

    census = [
        sum(1 for sub in itertools.combinations(S.holders, k) if functools.reduce(and_, sub))
        for k in range(1, 5)
    ]
    assert census == [10, comb(10, 2), comb(10, 3), comb(10, 4) - 15]


# ---------------------------------------------------------------------------
# total unimodularity
# ---------------------------------------------------------------------------


def test_not_tu_witness_recomputes():
    cert = is_totally_unimodular(M([[1, 1], [1, -1]]))
    assert not cert.is_tu
    rows, cols, value = cert.violating_minor
    sub = [[[1, 1], [1, -1]][i][j] for i in rows for j in cols]
    k = len(rows)
    submatrix = [[sub[i * k + j] for j in range(k)] for i in range(k)]
    assert cofactor_det(submatrix) == value
    assert abs(value) > 1


def test_identity_is_tu():
    assert is_totally_unimodular(IntMatrix.identity(4)).is_tu


def _random_rows(rng, nr, nc):
    density = rng.choice((0.2, 0.35, 0.5))
    big = rng.choice((0.0, 0.0, 0.03))
    return [
        [
            0 if rng.random() > density
            else rng.choice((-2, 2)) if rng.random() < big
            else rng.choice((-1, 1))
            for _ in range(nc)
        ]
        for _ in range(nr)
    ]


def test_tu_agrees_with_definition_oracle():
    rng = seeded_rng(1)
    for _ in range(120):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        assert is_totally_unimodular(M(rows)).is_tu == tu_by_definition(rows)
    # tall matrices, up to 7 x 3, are decided on their columns and wide
    # ones, up to 6 x 9, on their rows
    tall = [(nr, nc) for nr in range(2, 8) for nc in range(1, min(nr, 4)) if nr > nc]
    wide = [(nr, nc) for nr in range(1, 7) for nc in range(max(nr, 6), 10)]
    rng = seeded_rng(3)
    verdicts = set()
    for nr, nc in (tall + wide) * 4:
        rows = _random_rows(rng, nr, nc)
        cert = is_totally_unimodular(M(rows))
        assert cert.is_tu == tu_by_definition(rows), rows
        assert cert.violating_minor == first_violating_minor_by_definition(rows)
        verdicts.add((nr > nc, cert.is_tu))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_tu_certificate_cites_the_first_violating_minor():
    rng = seeded_rng(2)
    verdicts = set()
    for _ in range(320):
        nr, nc = rng.randint(1, 5), rng.randint(1, 8)
        density = rng.choice((0.3, 0.5, 0.8))
        big = rng.choice((0.0, 0.0, 0.05))
        rows = [
            [
                0 if rng.random() > density
                else rng.choice((-2, 2)) if rng.random() < big
                else rng.choice((-1, 1))
                for _ in range(nc)
            ]
            for _ in range(nr)
        ]
        cert = is_totally_unimodular(M(rows))
        expected = first_violating_minor_by_definition(rows)
        assert cert.violating_minor == expected
        assert cert.is_tu == (expected is None)
        verdicts.add((cert.is_tu, expected is not None and len(expected[0]) > 1))
    assert verdicts == {(True, False), (False, False), (False, True)}


def test_tu_edge_cases():
    assert is_totally_unimodular(IntMatrix(0, 3, ())).is_tu == tu_by_definition([]) is True
    assert is_totally_unimodular(IntMatrix(3, 0, ())).is_tu
    # an entry as wide as a packed field must not read as a carry
    for rows in ([[8, -1]], [[1, 0], [-1, 16]], [[0, 1, -64, 1]]):
        cert = is_totally_unimodular(M(rows))
        assert cert.violating_minor == first_violating_minor_by_definition(rows) is not None
    # odd cycles: every proper square submatrix of the incidence matrix is
    # a forest's and unimodular, so the whole determinant 2 is the only
    # violation, on both sides
    for n in (3, 5):
        cycle = [[int(j in (i, (i + 1) % n)) for j in range(n)] for i in range(n)]
        for rows in (cycle, [r + [0, 0] for r in cycle]):
            expected = (tuple(range(n)), tuple(range(n)), 2)
            assert first_violating_minor_by_definition(rows) == expected
            assert is_totally_unimodular(M(rows)).violating_minor == expected
            cols = [list(c) for c in zip(*rows)]
            assert is_totally_unimodular(M(cols)).violating_minor == expected


def test_tu_verdicts_draw_no_minors(monkeypatch, k5):
    drawn = []
    real_minors = unimod.minors

    def counting_minors(*args, **kwargs):
        for item in real_minors(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(unimod, "minors", counting_minors)
    cover, _ = build_cover()
    systems = [e5(), cographic_dicing_system(k5), cographic_dicing_system(cover)]
    assert [(S.dim, S.size) for S in systems] == [(5, 10), (6, 10), (11, 20)]
    for S in systems:
        assert is_totally_unimodular(S).is_tu
    assert drawn == []
    # a refutation sweeps in certificate order up to the first violation:
    # the four 1 x 1 minors, then the 2 x 2
    assert is_totally_unimodular(M([[1, 1], [1, -1]])).violating_minor == ((0, 1), (0, 1), -2)
    assert len(drawn) == 5


def test_refutation_without_a_violating_minor_raises(monkeypatch):
    monkeypatch.setattr(unimod, "_equitably_signable", lambda matrix: False)
    with pytest.raises(RuntimeError):
        is_totally_unimodular(IntMatrix.identity(3))


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------


def test_system_invariants_enforced():
    with pytest.raises(ValueError) as raised:
        UnimodularSystem(M([[1, 0], [0, 0]]))
    assert str(raised.value) == "zero column at index 1"
    # equal and opposite columns are admitted, as a graph's parallel edges give
    for matrix in [[1, 1, 0], [0, 0, 1]], [[1, -1, 0], [2, -2, 1]]:
        S = UnimodularSystem(M(matrix))
        assert (S.dim, S.size, S.basis) == (2, 3, (0, 2))
    # columns with no zero among them that span one dimension of two
    for matrix in [[1, 2, 3], [2, 4, 6]], [[1, 1], [1, 1]], [[1, -1], [2, -2]]:
        with pytest.raises(ValueError) as raised:
            UnimodularSystem(M(matrix))
        assert str(raised.value) == "columns do not span: row rank is deficient"


def test_bond_system_triangle(triangle):
    S = bond_system(triangle)
    assert S.dim == 2
    assert S.size == 3
    assert is_totally_unimodular(S).is_tu


def test_bond_system_tree_is_identity_like():
    path = MultiGraph(
        ["a", "b", "c", "d"],
        [("e1", "a", "b"), ("e2", "b", "c"), ("e3", "c", "d")],
    )
    S = bond_system(path)
    assert S.dim == 3
    assert S.size == 3
    assert abs(det(S.matrix.column_submatrix(range(3)))) == 1


def test_bond_system_wheel_like():
    verts = [f"v{i}" for i in range(6)]
    rim = [(f"r{i}", f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"s{i}", f"v{i}", "v5") for i in range(5)]
    g = MultiGraph(verts, rim + spokes)
    S = bond_system(g)
    assert S.dim == 5
    assert S.size == 10
    assert is_totally_unimodular(S).is_tu


def test_bond_system_rejects_disconnected_and_loops(monkeypatch):
    two = MultiGraph(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "d")])
    with pytest.raises(GraphError, match="requires a connected graph"):
        bond_system(two)
    loopy = MultiGraph(["a", "b"], [("e", "a", "b"), ("l", "a", "a")])
    with pytest.raises(GraphError, match="loop 'l' gives a zero column"):
        bond_system(loopy)
    # no edges first, then connectivity, then loops
    with pytest.raises(GraphError, match="at least one edge"):
        bond_system(MultiGraph(["a", "b"], []))
    looped_pair = MultiGraph(["a", "b", "c"], [("l", "a", "a"), ("e", "b", "c")])
    with pytest.raises(GraphError, match="requires a connected graph"):
        bond_system(looped_pair)
    # connectivity is read off the cut-space matrix: one components pass
    passes = []
    real_components = unimod.components
    monkeypatch.setattr(unimod, "components", lambda g: passes.append(g) or real_components(g))
    assert bond_system(MultiGraph(["a", "b"], [("e", "a", "b"), ("f", "b", "a")])).dim == 1
    assert len(passes) == 1


def test_cut_space_matrix_gives_loops_zero_columns():
    # c is the component's dropped vertex: l0 loops at a kept vertex, l1 at c
    plain = [("e0", "a", "b"), ("e1", "b", "c"), ("e2", "a", "c")]
    edges = plain[:2] + [("l0", "a", "a")] + plain[2:] + [("l1", "c", "c")]
    M = cut_space_matrix(MultiGraph(["a", "b", "c"], edges))
    assert M.column(2) == M.column(4) == (0, 0)
    bare = cut_space_matrix(MultiGraph(["a", "b", "c"], plain))
    assert [M.column(j) for j in (0, 1, 3)] == [bare.column(j) for j in range(3)]


def test_forest_count_equals_basis_count_small():
    for m in range(1, 6):
        for g in eg.connected_multigraphs_any_order(m):
            S = UnimodularSystem(cut_space_matrix(g))
            assert spanning_forest_count(g) == len(basis_masks(S))


# ---------------------------------------------------------------------------
# lattice equivalence
# ---------------------------------------------------------------------------


def test_systems_equivalent_reflexive_identity():
    S = e5()
    eq = systems_equivalent(S, S)
    assert eq is not None
    assert eq.U == IntMatrix.identity(5)
    assert eq.column_map == tuple((j, 1) for j in range(10))
    assert verify_equivalence(S, S, eq)


def test_scrambled_e5_recognized():
    rng = seeded_rng(2)
    S = e5()
    for _ in range(5):
        T = scramble(rng, S)
        eq = systems_equivalent(S, T)
        assert eq is not None
        assert verify_equivalence(S, T, eq)


def test_equivalence_symmetry_and_transitivity():
    rng = seeded_rng(3)
    A = e5()
    B = scramble(rng, A)
    C = scramble(rng, B)
    ab = systems_equivalent(A, B)
    bc = systems_equivalent(B, C)
    assert ab and bc
    # symmetry: invert the transformation explicitly, U^{-1} = adj(U) / det(U)
    rows = [list(ab.U.row(i)) + [int(i == j) for j in range(5)] for i in range(5)]
    _, det_u = gauss_jordan(rows, 5)
    U_inv = M([[x // det_u for x in row[5:]] for row in rows])
    back_map = [None] * B.size
    for j, (target, sign) in enumerate(ab.column_map):
        back_map[target] = (j, sign)
    ba = Equivalence(U_inv, tuple(back_map))
    assert verify_equivalence(B, A, ba)
    # transitivity: compose
    comp_map = []
    for j in range(A.size):
        t1, s1 = ab.column_map[j]
        t2, s2 = bc.column_map[t1]
        comp_map.append((t2, s1 * s2))
    ac = Equivalence(bc.U @ ab.U, tuple(comp_map))
    assert verify_equivalence(A, C, ac)


def test_verify_equivalence_rejects_misshapen_witnesses():
    A = UnimodularSystem(M([[1, 0, 1], [0, 1, 1]]))
    B = UnimodularSystem(IntMatrix.identity(2))
    I2, I3 = IntMatrix.identity(2), IntMatrix.identity(3)
    short = ((0, 1), (1, 1))
    # a map that skips A's third column must not pass unchecked
    assert not verify_equivalence(A, B, Equivalence(I2, short))
    assert not verify_equivalence(B, A, Equivalence(I2, short))
    full = ((0, 1), (1, 1), (2, 1))
    assert verify_equivalence(A, A, Equivalence(I2, full))
    assert not verify_equivalence(A, A, Equivalence(I2, full[:2]))
    assert not verify_equivalence(A, A, Equivalence(I2, full + ((0, 1),)))
    # U must be dim x dim: a non-square U has no det, a 3 x 3 one no product
    assert not verify_equivalence(A, A, Equivalence(M([[1, 0, 0], [0, 1, 0]]), full))
    assert not verify_equivalence(A, A, Equivalence(I3, full))
    assert not verify_equivalence(B, B, Equivalence(M([[1], [0]]), short))
    # one mutation of a real E5 witness per rejection of the column map
    E, T = e5(), scramble(seeded_rng(8), e5())
    eq = systems_equivalent(E, T)
    assert verify_equivalence(E, T, eq)
    cmap = list(eq.column_map)
    (t0, s0), (t1, s1) = cmap[:2]
    for mutated in (
        [(t1, s0)] + cmap[1:],  # two columns sent to one target
        [(t0, 2 * s0)] + cmap[1:],  # a sign outside +-1
        [(t1, s0), (t0, s1)] + cmap[2:],  # a bijection with a wrong image
    ):
        assert not verify_equivalence(E, T, Equivalence(eq.U, tuple(mutated)))
    # every image matches, so only the bijection check, then the sign check, rejects
    twice = UnimodularSystem(M([[1, 0, 1], [0, 1, 0]]))
    assert not verify_equivalence(twice, A, Equivalence(I2, ((0, 1), (1, 1), (0, 1))))
    doubled = UnimodularSystem(M([[2, 0, 1], [0, 1, 1]]))
    assert not verify_equivalence(A, doubled, Equivalence(I2, ((0, 2), (1, 1), (2, 1))))


def test_a_non_integral_solve_is_rejected_by_verify_equivalence():
    # U AT = BT at basis (0, 1) is U = diag(1/2, 1); the solve floors it to
    # the singular diag(0, 1), and verify_equivalence is what rejects it
    A = UnimodularSystem(M([[2, 0, 1], [0, 1, 1]]))
    B = UnimodularSystem(M([[1, 0, 1], [0, 1, 1]]))
    cols_b = [B.column(k) for k in range(B.size)]
    U = unimod._solve_transform(cols_b, (0, 1), (1, 1), A.matrix, (0, 1))
    assert U == M([[0, 0], [0, 1]])
    assert not verify_equivalence(A, B, Equivalence(U, ((0, 1), (1, 1), (2, 1))))
    assert systems_equivalent(A, B) is None
    # the search meets one itself: its first complete bijection, identity on
    # the columns, solves to U = [[1, 0], [1/2, 1]], floored to I
    A = UnimodularSystem(M([[2, 0, 2], [0, 1, 1]]))
    B = UnimodularSystem(M([[2, 0, 2], [1, 1, 2]]))
    cols_b = [B.column(k) for k in range(B.size)]
    assert unimod._solve_transform(cols_b, (0, 1), (1, 1), A.matrix, (0, 1)) == IntMatrix.identity(2)
    eq = systems_equivalent(A, B)
    assert eq.U != IntMatrix.identity(2) and verify_equivalence(A, B, eq)


def test_dimension_mismatch_raises():
    A = e5()
    B = UnimodularSystem(IntMatrix.identity(4))
    with pytest.raises(ValueError):
        systems_equivalent(A, B)


def test_size_mismatch_is_none():
    A = e5()
    B = UnimodularSystem(IntMatrix.identity(5))
    assert systems_equivalent(A, B) is None


def test_e5_not_equivalent_to_k5_dicing_truncation(k5):
    full = cographic_dicing_system(k5)  # 6 x 10
    # dropping a basis row always kills one unit column, so the truncation
    # is a 5 x 9 system and equivalence fails on the column count
    rows = full.matrix.row_list()[:5]
    kept = [j for j in range(10) if any(r[j] for r in rows)]
    truncated = UnimodularSystem(IntMatrix.from_rows([[r[j] for j in kept] for r in rows]))
    assert truncated.dim == 5 and truncated.size == 9
    assert systems_equivalent(e5(), truncated) is None
    # a same-size graph system exercises the exhausted-search branch, and
    # the independent structural comparison reproduces the verdict
    verts = [f"v{i}" for i in range(6)]
    rim = [(f"r{i}", f"v{i}", f"v{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"s{i}", f"v{i}", "v5") for i in range(5)]
    wheel = bond_system(MultiGraph(verts, rim + spokes))
    assert wheel.dim == 5 and wheel.size == 10
    assert systems_equivalent(e5(), wheel) is None
    assert matroid_equivalent(e5(), wheel) is None


def test_lattice_equivalence_refines_matroid_equivalence():
    rng = seeded_rng(4)
    A = e5()
    B = scramble(rng, A)
    assert systems_equivalent(A, B) is not None
    assert matroid_equivalent(A, B) is not None
    # strictly: both are U(2,3), but only the first is unimodular (minors
    # 1, 1, -1 against 2, 1, -2), so unimodularity cannot refute a matroid map
    A, B = UnimodularSystem(M([[1, 0, 1], [0, 1, 1]])), UnimodularSystem(M([[1, 0, 1], [0, 2, 1]]))
    assert A.is_unimodular and not B.is_unimodular
    sigma = matroid_equivalent(A, B)
    assert sigma is not None and _is_valid_matroid_map(A, B, sigma)
    assert systems_equivalent(A, B) is None


def test_adjugate_matches_cofactor_oracle():
    # gauss_jordan over [T | I] leaves [det(T) I | adj(T)]
    rng = seeded_rng(12)
    cases = [[[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)] for n in (1, 2, 3, 4, 5) * 8]
    cases.append([[1, 2, 3], [2, 4, 6], [0, 1, 1]])  # singular
    cases.append([[0, 0], [0, 0]])
    inverted = 0
    for rows in cases:
        n = len(rows)
        work = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
        d = cofactor_det(rows)
        if d == 0:
            with pytest.raises(MatrixError):
                gauss_jordan(work, n)
            continue
        expected = [
            [
                (-1) ** (i + j) * cofactor_det(
                    [[rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i]
                )
                for i in range(n)
            ]
            for j in range(n)
        ]
        assert gauss_jordan(work, n) == (tuple(range(n)), d), rows
        assert [row[:n] for row in work] == [[d * int(i == j) for j in range(n)] for i in range(n)]
        assert [row[n:] for row in work] == expected, rows
        inverted += 1
    assert inverted >= 20


def test_segre_dicing_first_witness_is_pinned():
    f = fixture()
    S = prym_dicing(f.cover, f.involution).system
    eq = systems_equivalent(S, e5())
    assert eq.U == M(
        [[1, 0, 0, 0, 0], [0, -1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
    )
    signs = (1, -1, 1, 1, 1, 1, 1, 1, -1, -1)
    assert eq.column_map == tuple(zip(range(10), signs))


def test_scrambled_e5_first_witness_is_pinned():
    T = scramble(seeded_rng(7), e5())
    eq = systems_equivalent(e5(), T)
    assert eq.U == M(
        [
            [-1, 0, 0, 1, 0],
            [-2, 0, -1, 2, 0],
            [0, 0, 0, -1, 1],
            [1, -1, 2, -2, 0],
            [0, 0, 1, -1, 0],
        ]
    )
    assert eq.column_map == (
        (0, 1), (1, -1), (2, 1), (6, 1), (5, 1), (4, 1), (8, -1), (3, 1), (9, 1), (7, -1)
    )


def test_bulk_witnesses_are_pinned():
    # recorded before the signed bijection was read off U @ A: the first
    # witness of every call, in both argument orders, for E5 scrambles,
    # systems with a determinant-2 basis against scrambles of themselves or
    # of a doubled-column variant (equivalent or not), and scrambled bond
    # systems, whose parallel edges give equal columns, so the choice among
    # equal columns shows in the witness
    rng = seeded_rng(13)
    calls = []
    for _ in range(100):
        T = scramble(rng, e5())
        calls += [(e5(), T), (T, e5())]
    for n, m in ((2, 4), (3, 5), (3, 6)):
        for _ in range(20):
            A = _random_system_with_det_2_basis(rng, n, m)
            B = scramble(rng, _with_a_doubled_column(rng, A) if rng.randrange(2) else A)
            calls += [(A, B), (B, A)]
    witnesses = [systems_equivalent(A, B) for A, B in calls]
    assert sum(eq is None for eq in witnesses) == 54
    found = [(eq.U, eq.column_map) for eq in witnesses if eq is not None]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "9dec7e1686f531873720ef9f8802ab648f41594a61d4e3583e2ebc624a1310fb"
    )
    bonds = []
    for m in range(2, 6):
        for G in eg.connected_multigraphs_any_order(m):
            if G.num_vertices < 3:
                continue  # random_gl needs two rows
            S = bond_system(G)
            T = scramble(rng, S)
            eq, back = systems_equivalent(S, T), systems_equivalent(T, S)
            assert verify_equivalence(S, T, eq) and verify_equivalence(T, S, back)
            bonds += [(eq.U, eq.column_map), (back.U, back.column_map)]
    assert hashlib.sha256(repr(bonds).encode()).hexdigest() == (
        "5d289c7d7ecbde3d490e632bde24b1f1aaf3784ca98718e67dd9ac7e4639f662"
    )


def _repeats_a_column(rows):
    # whether two columns are equal or opposite: these corpora draw systems
    # without repeats, as they did when the constructor refused them
    columns = list(zip(*rows))
    return len({max(c, tuple(-x for x in c)) for c in columns}) < len(columns)


def _random_system_with_det_2_basis(rng, n, m):
    while True:
        rows = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(m)] for _ in range(n)]
        try:
            S = UnimodularSystem(M(rows))
        except ValueError:
            continue
        if _repeats_a_column(rows):
            continue
        bases = itertools.combinations(range(m), n)
        if any(abs(det(S.matrix.column_submatrix(c))) == 2 for c in bases):
            return S


def _with_a_doubled_column(rng, S):
    # same column matroid, usually a different lattice
    while True:
        k = rng.randrange(S.size)
        rows = [[x * (1 + (j == k)) for j, x in enumerate(r)] for r in S.matrix.row_list()]
        if not _repeats_a_column(rows):
            return UnimodularSystem(M(rows))


def test_systems_equivalent_matches_definition_oracle_on_non_tu_systems():
    rng = seeded_rng(8)
    accepted = rejected_past_gate = 0
    for n, m in ((2, 4), (3, 5)):
        for _ in range(30):
            A = _random_system_with_det_2_basis(rng, n, m)
            kind = rng.randrange(3)
            if kind == 0:
                B = scramble(rng, A)
            elif kind == 1:
                B = scramble(rng, _with_a_doubled_column(rng, A))
            else:
                B = _random_system_with_det_2_basis(rng, n, m)
            eq = systems_equivalent(A, B)
            expected = lattice_equivalent_by_definition(A.matrix.row_list(), B.matrix.row_list())
            assert (eq is not None) == expected
            if expected:
                assert verify_equivalence(A, B, eq)
                accepted += 1
            elif A.gate == B.gate:
                rejected_past_gate += 1
    # both verdicts occur, and rejections also come from the search itself
    assert accepted >= 10 and rejected_past_gate >= 10


# ---------------------------------------------------------------------------
# the cached independence data: holders and gate
# ---------------------------------------------------------------------------


def _random_systems(rng, count):
    # 1-5 rows, up to 10 columns, entries outside {-1, 0, 1} and repeated columns
    systems = []
    while len(systems) < count:
        n = rng.randint(1, 5)
        cols = []
        for _ in range(rng.randint(n, 10)):
            if cols and rng.random() < 0.15:
                cols.append(rng.choice(cols))
            else:
                cols.append([rng.choice((-2, -1, 0, 0, 1, 1, 3)) for _ in range(n)])
        try:
            S = UnimodularSystem(M([[c[i] for c in cols] for i in range(n)]))
        except ValueError:
            continue  # a zero column or rank below n
        systems.append(S)
    return systems


def test_standard_form_matches_oracles():
    non_tu_bases = 0
    for S in _random_systems(seeded_rng(21), 300):
        n, m = S.dim, S.size
        cols = [list(S.column(j)) for j in range(m)]
        # the lexicographically first basis: every column that raises the
        # rank of the columns before it
        greedy = [j for j in range(m) if rational_rank(cols[: j + 1]) > rational_rank(cols[:j])]
        assert S.basis == tuple(greedy)
        T = [[cols[j][i] for j in greedy] for i in range(n)]
        assert S.det == cofactor_det(T)
        non_tu_bases += abs(S.det) > 1
        # T * coordinates = det * M
        X = S.coordinates.row_list()
        for i in range(n):
            assert [sum(T[i][k] * X[k][j] for k in range(n)) for j in range(m)] == [
                S.det * x for x in S.matrix.row(i)
            ]
    assert non_tu_bases >= 30


def test_column_matroid_matches_rank_oracle():
    systems = _random_systems(seeded_rng(21), 300) + [e5(), scramble(seeded_rng(5), e5())]
    for m in range(1, 6):
        systems.extend(bond_system(g) for g in eg.connected_multigraphs_any_order(m))
    assert len(systems) > 320
    for S in systems:
        n, m = S.dim, S.size
        independent = independent_column_sets([S.column(j) for j in range(m)])
        fresh = UnimodularSystem(S.matrix)
        oracle_bases = [mask for mask in independent if mask.bit_count() == n]
        assert basis_masks(fresh) == set(oracle_bases)
        per_column = [sum(1 for b in oracle_bases if b >> e & 1) for e in range(m)]
        assert fresh.gate == (n, len(oracle_bases), tuple(sorted(per_column)))
        # a column set is independent iff the AND of its holders is nonzero;
        # the AND over a set is the AND over it minus its top element
        holders = fresh.holders
        common = [-1] * (1 << m)
        for mask in range(1, 1 << m):
            top = mask.bit_length() - 1
            common[mask] = common[mask ^ 1 << top] & holders[top]
            assert bool(common[mask]) == (mask in independent)
        assert [h.bit_count() for h in holders] == per_column


def test_is_unimodular_matches_maximal_minors():
    # full row rank M is unimodular exactly when every maximal minor is
    # in {-1, 0, 1}; E5's scrambles are, though their matrices are not TU
    rng = seeded_rng(26)
    refusal = UnimodularSystem(M([[1, 0, 1, 1], [0, 1, 1, -1]]))
    scrambles = [scramble(rng, e5()) for _ in range(20)]
    dicings = [prym_dicing(g, iota).system for g, iota in census_covers()]
    systems = _random_systems(seeded_rng(21), 300) + [e5(), refusal] + scrambles + dicings
    for S in systems:
        n, m = S.dim, S.size
        maximal = (
            cofactor_det([[S.matrix.entry(i, j) for j in cols] for i in range(n)])
            for cols in itertools.combinations(range(m), n)
        )
        assert S.is_unimodular == all(-1 <= d <= 1 for d in maximal)
    assert abs(refusal.det) == 1 and not refusal.is_unimodular
    assert all(S.is_unimodular and not is_totally_unimodular(S).is_tu for S in scrambles)
    assert {S.is_unimodular for S in dicings} == {True, False}
    assert any(abs(S.det) > 1 for S in systems)
    # is_cographic refuses exactly the systems that are not unimodular
    refused = 0
    for S in systems:
        if S.size > 6:
            continue
        try:
            is_cographic(S)
        except NotTotallyUnimodularError:
            refused += 1
            assert not S.is_unimodular
        else:
            assert S.is_unimodular
    assert refused >= 10


def test_each_system_is_eliminated_once(monkeypatch):
    # K4 with its vertices listed so that no candidate the search builds
    # has the same cut-space matrix
    k4 = MultiGraph(
        ["d", "c", "b", "a"],
        [("ab", "a", "b"), ("ac", "a", "c"), ("ad", "a", "d"),
         ("bc", "b", "c"), ("bd", "b", "d"), ("cd", "c", "d")],
    )
    inputs = [(scramble(seeded_rng(9), e5()).matrix, False), (cut_space_matrix(k4), True)]
    # count the rank and gauss_jordan calls, wherever prymdice binds them,
    # whose rows begin with the system's own matrix
    own = None
    eliminated = []

    def counting(fn):
        def wrapper(rows, *args):
            block = rows.row_list() if isinstance(rows, IntMatrix) else rows
            eliminated.append([row[:len(own[0])] for row in block] == own)
            return fn(rows, *args)

        return wrapper

    originals = exactmat.rank, exactmat.gauss_jordan
    for module in [mod for name, mod in sys.modules.items() if name.startswith("prymdice")]:
        for name, value in list(vars(module).items()):
            if any(value is fn for fn in originals):
                monkeypatch.setattr(module, name, counting(value))
    for matrix, cographic in inputs:
        own = matrix.row_list()
        eliminated.clear()
        S = UnimodularSystem(matrix)
        assert S.det and S.is_unimodular and S.gate[0] == S.dim
        cert = is_cographic(S)
        assert cert.is_cographic is cographic
        if cographic:
            assert cut_space_matrix(cert.witness) != matrix
        assert eliminated.count(True) == 1


def _same_independence(holders_a, holders_b):
    # every column set gets the same verdict from the AND of either holders;
    # a set dependent under both has only dependent supersets, so the walk
    # does not extend it
    stack = [(0, -1, -1)]
    while stack:
        start, common_a, common_b = stack.pop()
        for e in range(start, len(holders_a)):
            grown_a, grown_b = common_a & holders_a[e], common_b & holders_b[e]
            if bool(grown_a) != bool(grown_b):
                return False
            if grown_a:
                stack.append((e + 1, grown_a, grown_b))
    return True


def _transpose(bases, m):
    # per column, the bitset of the numbered bases that contain it
    return tuple(sum(1 << b for b, mask in enumerate(bases) if mask >> e & 1) for e in range(m))


def _routes_agree(matrix):
    """Find the bases both ways; whether the parity route was certified.

    The system's ``holders`` transpose the bases of the route it takes:
    the parity route's when |det| = 1 and its count is certified.
    """
    S = UnimodularSystem(matrix)
    laplace = unimod._laplace_bases(S.basis, S._rows)
    laplace_holders = _transpose(laplace, S.size)
    assert basis_masks(S) == set(laplace)
    assert len(laplace) == len(set(laplace))  # each basis numbered once
    found = unimod._parity_bases(S.basis, S._rows)
    taken = found if found is not None and abs(S.det) == 1 else laplace
    assert S.holders == _transpose(taken, S.size)
    if found is None:
        return False
    holders = _transpose(found, S.size)
    assert set(found) == set(laplace)
    assert len(found) == len(laplace)  # each basis numbered once
    assert [h.bit_count() for h in holders] == [h.bit_count() for h in laplace_holders]
    assert _same_independence(holders, laplace_holders)
    return True


def _complete_bond_system(k, multiplicity=1):
    vertices = [f"v{i}" for i in range(k)]
    edges = [
        (f"e{i}.{j}.{r}", vertices[i], vertices[j])
        for i in range(k) for j in range(i + 1, k) for r in range(multiplicity)
    ]
    return bond_system(MultiGraph(vertices, edges))


def test_parity_and_laplace_routes_agree():
    rng = seeded_rng(24)
    assert _routes_agree(e5().matrix)
    for _ in range(50):
        assert _routes_agree(scramble(rng, e5()).matrix)
    graphs = [G for k in range(1, 8) for G in eg.connected_multigraphs_any_order(k)]
    assert len(graphs) == 489
    for G in graphs:
        assert _routes_agree(bond_system(G).matrix)
    # a dicing takes the parity route exactly when it is a unimodular
    # system: |det T| = 1 and a TU coordinate block
    routes = []
    for g, iota in census_covers():
        S = prym_dicing(g, iota).system
        assert _routes_agree(S.matrix) == S.is_unimodular
        routes.append(S.is_unimodular)
    assert 0 < routes.count(False) < len(routes)
    # square systems have one basis, drawn by neither route
    assert _routes_agree(IntMatrix.identity(1))
    for n in range(2, 7):
        assert _routes_agree(random_gl(rng, n))
    assert _routes_agree(M([[2, 1], [0, 1]]))
    # spanning-tree counts by Cayley's formula, and with every edge doubled
    for S, trees in (
        (_complete_bond_system(6), 6 ** 4),
        (_complete_bond_system(5, 2), 5 ** 3 * 2 ** 4),
        (_complete_bond_system(7), 7 ** 5),
    ):
        assert _routes_agree(S.matrix)
        assert len(basis_masks(S)) == trees
    # |det T| = 1, but the minor at both rows and the last two columns is
    # -2: it is even, so the parity count is 5, while the squared minors
    # sum to det(I + A A^T) = 9
    refusal = M([[1, 0, 1, 1], [0, 1, 1, -1]])
    assert abs(UnimodularSystem(refusal).det) == 1
    assert not _routes_agree(refusal)
    assert len(basis_masks(UnimodularSystem(refusal))) == 6


def test_minor_draws_of_the_matroid_and_the_equivalence_search(monkeypatch):
    drawn = []
    real_minors = unimod.minors

    def counting_minors(*args, **kwargs):
        for item in real_minors(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(unimod, "minors", counting_minors)
    # E5's parity count is certified, so its bases come from exterior
    # products and no minor is drawn (the Laplace route drew C(10, 5) - 1)
    UnimodularSystem(e5().matrix).holders
    assert drawn == []
    # an uncertified count falls back to drawing the coordinate block's
    # minors: 2 + 2 one-by-one and 1 two-by-two
    UnimodularSystem(M([[1, 0, 1, 1], [0, 1, 1, -1]])).holders
    assert len(drawn) == 5
    T = scramble(seeded_rng(7), e5())
    assert T.gate == e5().gate
    drawn.clear()
    # with both systems' holders built, the search reads coordinates from one
    # elimination per candidate basis and sweeps no minors
    assert systems_equivalent(e5(), T) is not None
    assert drawn == []


def test_equivalence_search_builds_no_downward_closure():
    # both searches read independence off holders alone: the system keeps
    # no collection of independent sets to count
    A = UnimodularSystem(e5().matrix)
    T = scramble(seeded_rng(13), e5())
    assert systems_equivalent(A, T) is not None
    # the wheel on a 5-cycle: 6 vertices, 10 edges, rank 5 like E5
    hub = [(f"s{i}", "h", f"r{i}") for i in range(5)]
    rim = [(f"t{i}", f"r{i}", f"r{(i + 1) % 5}") for i in range(5)]
    wheel = MultiGraph(["h"] + [f"r{i}" for i in range(5)], hub + rim)
    W = bond_system(wheel)
    assert (W.dim, W.size) == (5, 10)
    assert systems_equivalent(A, W) is None
    assert matroid_equivalent(A, T) is not None


def _counting_holders_builds(monkeypatch):
    """The list of systems whose ``holders`` get built from now on."""
    built = []
    prop = UnimodularSystem.__dict__["holders"]
    build = prop.func

    def counting(system):
        built.append(system)
        return build(system)

    monkeypatch.setattr(prop, "func", counting)
    return built


def test_matroid_is_cached_and_built_once_per_input(monkeypatch, triangle):
    built = _counting_holders_builds(monkeypatch)
    S = UnimodularSystem(M([[1, 0, 1], [0, 1, 1]]))
    assert S.holders is S.holders and S.gate is S.gate
    assert is_cographic(S).is_cographic
    assert matroid_equivalent(S, bond_system(triangle)) is not None
    assert sum(1 for system in built if system is S) == 1
    assert len(built) > 1  # the candidate systems were counted too


def test_e5_is_shared_and_its_matroid_built_once(monkeypatch):
    assert e5() is e5()
    built = _counting_holders_builds(monkeypatch)
    unimod.e5.cache_clear()  # E5's holders may already be cached by another test
    try:
        X = scramble(seeded_rng(3), e5())
        assert X.matrix != e5().matrix
        assert systems_equivalent(X, e5()) is not None
        assert systems_equivalent(X, e5()) is not None
        assert sum(1 for system in built if system is e5()) == 1
    finally:
        unimod.e5.cache_clear()


# ---------------------------------------------------------------------------
# matroid equivalence
# ---------------------------------------------------------------------------


def _independent_sets(S):
    return independent_column_sets([S.column(j) for j in range(S.size)])


def _is_valid_matroid_map(A, B, sigma):
    # sigma is a column bijection carrying A's bases onto B's: a set of dim
    # columns is a basis in A exactly when its image is one in B
    if sorted(sigma) != list(range(A.size)) or A.dim != B.dim:
        return False
    return all(
        bool(det(A.matrix.column_submatrix(cols)))
        == bool(det(B.matrix.column_submatrix(sorted(sigma[c] for c in cols))))
        for cols in itertools.combinations(range(A.size), A.dim)
    )


def test_matroid_equivalent_identity():
    S = e5()
    assert matroid_equivalent(S, S) == tuple(range(10))


def test_matroid_equivalent_recovers_permutation(triangle):
    S = bond_system(triangle)
    perm = [2, 0, 1]
    shuffled = UnimodularSystem(
        IntMatrix.from_rows(
            [[S.matrix.entry(i, perm[j]) for j in range(3)] for i in range(2)]
        )
    )
    sigma = matroid_equivalent(shuffled, S)
    assert sigma is not None
    assert _is_valid_matroid_map(shuffled, S, sigma)


def test_matroid_equivalent_rejects_k4_with_parallels():
    # pad a complete graph on four vertices to ten edges with parallels
    edges = [
        ("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"),
        ("d", "2", "3"), ("e", "2", "4"), ("f", "3", "4"),
        ("g", "1", "2"), ("h", "1", "3"), ("i", "2", "3"), ("j", "3", "4"),
    ]
    g = MultiGraph(["1", "2", "3", "4"], edges)
    padded = bond_system(g)
    assert padded.size == 10
    with pytest.raises(ValueError):
        matroid_equivalent(e5(), UnimodularSystem(IntMatrix.identity(5)))
    assert matroid_equivalent(e5(), padded) is None


# ---------------------------------------------------------------------------
# cographic recognition
# ---------------------------------------------------------------------------


def test_bond_k4_round_trip():
    k4 = MultiGraph(
        ["1", "2", "3", "4"],
        [("a", "1", "2"), ("b", "1", "3"), ("c", "1", "4"),
         ("d", "2", "3"), ("e", "2", "4"), ("f", "3", "4")],
    )
    cert = is_cographic(bond_system(k4))
    assert cert.is_cographic
    assert cert.witness is not None
    assert sorted(cert.column_to_edge) == sorted(cert.witness.edge_labels)
    # the witness's own system really is structurally equivalent
    witness_sys = UnimodularSystem(cut_space_matrix(cert.witness))
    assert matroid_equivalent(bond_system(k4), witness_sys) is not None


def test_identity_system_is_cographic_with_forest_witness():
    cert = is_cographic(UnimodularSystem(IntMatrix.identity(3)))
    assert cert.is_cographic
    assert cert.witness.num_edges == 3
    assert spanning_forest_count(cert.witness) == 1


def test_non_tu_input_rejected_distinctly():
    bad = UnimodularSystem(M([[1, 1, 0], [1, -1, 1]]))
    with pytest.raises(NotTotallyUnimodularError) as err:
        is_cographic(bad)
    assert err.value.certificate.violating_minor == ((0, 1), (0, 1), -2)
    assert str(err.value) == (
        "matrix is not totally unimodular: minor at rows (0, 1), cols (0, 1) has determinant -2"
    )
    # the first basis has determinant 1, but the coordinates are not TU
    with pytest.raises(NotTotallyUnimodularError):
        is_cographic(UnimodularSystem(M([[1, 0, 1, 1], [0, 1, 1, -1]])))


def test_unimodular_system_with_a_non_tu_matrix_is_searched():
    # unimodularity belongs to the system: U E5 sigma has E5's matroid and
    # gets E5's verdict and report, though its matrix is not TU
    T = scramble(seeded_rng(11), e5())
    assert not is_totally_unimodular(T).is_tu
    cert = is_cographic(T)
    assert not cert.is_cographic
    report = cert.report
    counters = (
        report.graphs_tried, report.connected_tried,
        report.disconnected_tried, report.forest_count_matches,
    )
    assert counters == (3761, 2445, 1316, 0)


def test_search_cap_exceeded():
    with pytest.raises(SearchCapExceeded) as err:
        is_cographic(e5(), max_graphs=10)
    assert err.value.report.cap == 10
    assert err.value.report.graphs_tried == 11


def test_negative_search_cap_is_rejected_before_the_search():
    with pytest.raises(ValueError, match="max_graphs"):
        is_cographic(e5(), max_graphs=-5)
    # the cap is checked before the TU sweep, so a non-TU input gets the same error
    with pytest.raises(ValueError, match="max_graphs"):
        is_cographic(UnimodularSystem(M([[1, 1, 0], [1, -1, 1]])), max_graphs=-1)


def test_cographic_search_results_are_pinned():
    # recorded with the earlier search, which built every candidate graph and
    # counted its spanning forests through the matrix-tree determinant
    report = is_cographic(e5()).report
    counters = (
        report.graphs_tried, report.connected_tried,
        report.disconnected_tried, report.forest_count_matches,
    )
    assert counters == (3761, 2445, 1316, 0)
    certificates = []
    for m in range(1, 7):
        for g in eg.connected_multigraphs_any_order(m):
            cert = is_cographic(bond_system(g))
            w = cert.witness
            certificates.append((
                cert.is_cographic,
                None if w is None else (w.vertices, w.edges),
                cert.column_to_edge,
                cert.report,
            ))
    assert len(certificates) == 156
    assert hashlib.sha256(repr(certificates).encode()).hexdigest() == (
        "fe6f2142b651e9893c4fc113cc56e991d986a49b5723431b9b8b134d60ca75a0"
    )


def _signed_permutation(rng, S):
    # the columns of S shuffled and each multiplied by a random sign
    perm = list(range(S.size))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in perm]
    rows = [[s * S.matrix.entry(i, k) for s, k in zip(signs, perm)] for i in range(S.dim)]
    return UnimodularSystem(M(rows))


def test_seven_edge_certificates_and_matroid_maps_are_pinned():
    # recorded before the matroid search read independence off holders: the
    # certificates of every connected loopless multigraph with 7 edges, and
    # the first bijection found between each bond system with at most 7
    # edges and a signed column permutation of itself, in both orders
    certificates = []
    for g in eg.connected_multigraphs_any_order(7):
        cert = is_cographic(bond_system(g))
        w = cert.witness
        certificates.append((
            cert.is_cographic,
            None if w is None else (w.vertices, w.edges),
            cert.column_to_edge,
            cert.report,
        ))
    assert len(certificates) == 333
    assert hashlib.sha256(repr(certificates).encode()).hexdigest() == (
        "6a6ecf73ed637ef98a569066a3399482500d18b8ec3d1f84f21d6c749d57472d"
    )
    rng = seeded_rng(14)
    maps = []
    for m in range(1, 8):
        for g in eg.connected_multigraphs_any_order(m):
            S = bond_system(g)
            T = _signed_permutation(rng, S)
            maps += [matroid_equivalent(S, T), matroid_equivalent(T, S)]
    assert len(maps) == 2 * 489 and None not in maps
    assert hashlib.sha256(repr(maps).encode()).hexdigest() == (
        "2108f33be56593a3c3e1d66d810cf39ff650b471f240ca82ff52e896fb939fd1"
    )


def _matroid_equivalent_by_brute_force(A, B):
    # some column permutation maps A's independent sets onto B's
    m = A.size
    indep_a, indep_b = _independent_sets(A), _independent_sets(B)
    if len(indep_a) != len(indep_b):
        return False
    for sigma in itertools.permutations(range(m)):
        if all(
            sum(1 << sigma[e] for e in range(m) if mask >> e & 1) in indep_b
            for mask in indep_a
        ):
            return True
    return False


def test_matroid_equivalent_matches_permutation_oracle():
    rng = seeded_rng(15)
    verdicts = []
    for A in _random_systems(rng, 400):
        if A.size > 6:
            continue
        if rng.randrange(2):
            B = _signed_permutation(rng, A)
        else:
            # one column replaced: sometimes the same structure, often not
            rows = A.matrix.row_list()
            k = rng.randrange(A.size)
            for row in rows:
                row[k] = rng.choice((-2, -1, 0, 1, 2))
            try:
                B = UnimodularSystem(M(rows))
            except ValueError:
                continue
        sigma = matroid_equivalent(A, B)
        assert (sigma is not None) == _matroid_equivalent_by_brute_force(A, B)
        if sigma is not None:
            assert _is_valid_matroid_map(A, B, sigma)
        verdicts.append(sigma is not None)
    assert len(verdicts) >= 150
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_matroid_search_on_the_cographic_search_pairs(monkeypatch):
    # every pair the cographic search hands to the matroid search, for the
    # bond systems with at most 7 edges: each refutation is checked by the
    # permutation oracle and each bijection by its bases.  Every refutation
    # here comes from the gate; the grid pairs below pass it
    pairs = []
    real_search = unimod.matroid_equivalent

    def recording_search(A, B):
        sigma = real_search(A, B)
        pairs.append((A, B, sigma))
        return sigma

    monkeypatch.setattr(unimod, "matroid_equivalent", recording_search)
    for m in range(1, 8):
        for g in eg.connected_multigraphs_any_order(m):
            assert is_cographic(bond_system(g)).is_cographic
    refuted = [(A, B) for A, B, sigma in pairs if sigma is None]
    assert (len(pairs), len(refuted)) == (570, 81)
    for A, B in refuted:
        assert not _matroid_equivalent_by_brute_force(A, B)
    for A, B, sigma in pairs:
        if sigma is not None:
            assert _is_valid_matroid_map(A, B, sigma)


def _plane_points(points):
    # the columns (x, y, 1): three are dependent when the points are collinear
    return UnimodularSystem(M([[x for x, _ in points], [y for _, y in points], [1] * len(points)]))


def _triangle_meetings(S):
    # per dependent triple, how many other dependent triples it meets, sorted:
    # a column bijection that maps independent sets onto independent sets
    # keeps it
    independent = _independent_sets(S)
    masks = (sum(1 << e for e in t) for t in itertools.combinations(range(S.size), 3))
    triples = [mask for mask in masks if mask not in independent]
    return sorted(sum(1 for u in triples if u != t and u & t) for t in triples)


def test_matroid_search_refutes_pairs_that_pass_the_gate():
    # pairs of eight points of the 4 x 4 grid with the same basis count and
    # per-column basis counts but different lines: the gate passes them, so
    # the backtracking on holders alone must refute them
    grids = [
        ("00 01 02 10 11 12 20 21", "00 01 02 10 11 13 22 31"),
        ("00 01 02 10 11 12 23 30", "00 01 02 10 11 13 21 32"),
        ("00 01 02 11 12 13 22 31", "00 01 02 11 12 21 22 23"),
    ]
    rng = seeded_rng(25)
    for a, b in grids:
        A, B = (_plane_points([tuple(map(int, p)) for p in s.split()]) for s in (a, b))
        assert A.gate == B.gate
        assert _triangle_meetings(A) != _triangle_meetings(B)
        assert matroid_equivalent(A, B) is None and matroid_equivalent(B, A) is None
        # each is still matched to a relabeling of itself
        for S in (A, B):
            T = _signed_permutation(rng, S)
            assert _is_valid_matroid_map(S, T, matroid_equivalent(S, T))


def test_forest_count_is_the_product_over_components():
    triangle = MultiGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")])
    banana = MultiGraph(
        ["a", "b", "c", "d", "e"],
        [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a"), ("p", "d", "e"),
         ("q", "e", "d"), ("r", "d", "e"), ("l", "e", "e")],
    )
    assert spanning_forest_count(triangle) == 3
    assert spanning_forest_count(banana) == 3 * 3
    # a loop on a kept row of the reduced Laplacian counts for nothing
    looped = MultiGraph(["a", "b"], [("l", "a", "a"), ("x", "a", "b"), ("y", "b", "a")])
    assert spanning_forest_count(looped) == 2


def test_carried_tree_counts_match_the_forest_count():
    # the cographic search reads the tree count each connected loopless
    # representative carries; Kirchhoff on the graph built from it agrees
    counted = 0
    for m in range(1, 9):
        for rank in range(1, m + 1):
            for parts in eg.cycle_space_rank_components(m, rank):
                if len(parts) == 1:
                    (pairs, nverts, trees), = parts
                    G = eg.pair_graph_to_multigraph(pairs, nverts)
                    assert trees == spanning_forest_count(G) >= 1
                    counted += 1
    assert counted == 1672


def _counting_joins(monkeypatch):
    joins = []
    join = eg.disjoint_union

    def counted(components):
        joins.append(len(components))
        return join(components)

    monkeypatch.setattr(eg, "disjoint_union", counted)
    return joins


def test_e5_search_joins_no_pair_graph(monkeypatch):
    # no candidate's forest count equals E5's basis count, so no candidate
    # is joined into a pair-graph, let alone built as a graph
    joins = _counting_joins(monkeypatch)
    cert = is_cographic(e5())
    assert cert.report.graphs_tried == 3761 and cert.report.forest_count_matches == 0
    assert joins == []


def test_search_joins_a_pair_graph_only_on_a_forest_count_match(monkeypatch):
    joins = _counting_joins(monkeypatch)
    searches = 0
    for m in range(1, 7):
        for g in eg.connected_multigraphs_any_order(m):
            joins.clear()
            report = is_cographic(bond_system(g)).report
            assert len(joins) == report.forest_count_matches >= 1
            searches += 1
    assert searches == 156


def test_e5_dual_representation_not_cographic_either():
    # [I | A] and [-A^T | I] represent dual column structures; the reference
    # system fails recognition under both, so the verdict does not depend on
    # which side of the cut/cycle duality "cographic" is read on
    A = e5().matrix
    block = [
        [-A.entry(i, 5 + j) for i in range(5)] + [1 if k == j else 0 for k in range(5)]
        for j in range(5)
    ]
    dual = UnimodularSystem(M(block))
    assert is_totally_unimodular(dual).is_tu
    cert = is_cographic(dual)
    assert not cert.is_cographic


def test_k33_cycle_dicing_is_not_cographic():
    # the cycle-space system of the complete bipartite graph on 3+3
    # vertices is regular but not graph-representable on the cut side
    verts = ["a1", "a2", "a3", "b1", "b2", "b3"]
    edges = [
        (f"e{i}{j}", f"a{i}", f"b{j}") for i in (1, 2, 3) for j in (1, 2, 3)
    ]
    k33 = MultiGraph(verts, edges)
    system = cographic_dicing_system(k33)
    assert system.dim == 4 and system.size == 9
    cert = is_cographic(system)
    assert not cert.is_cographic
    assert cert.report.graphs_tried > 100


def test_each_malformed_system_shape_is_refused_with_its_message():
    cases = [
        (IntMatrix(0, 2, ()), "a unimodular system needs at least one row and column"),
        (IntMatrix(2, 0, ()), "a unimodular system needs at least one row and column"),
        (IntMatrix.from_rows([[1], [0]]), "a system needs at least as many vectors as its dimension"),
    ]
    for matrix, message in cases:
        with pytest.raises(ValueError) as err:
            UnimodularSystem(matrix)
        assert str(err.value) == message
