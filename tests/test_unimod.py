import hashlib
import itertools

import pytest

from prymdice import unimod
from prymdice.exactmat import IntMatrix, MatrixError, det, gauss_jordan
from prymdice.graph import GraphError, MultiGraph
from prymdice.homology import cographic_dicing_system
from prymdice.prym import prym_dicing
from prymdice.segre import fixture
from prymdice.unimod import (
    Equivalence,
    NotTotallyUnimodularError,
    SearchCapExceeded,
    UnimodularSystem,
    _ColumnMatroid,
    bond_system,
    cut_space_matrix,
    dicing_is_lattice,
    e5,
    is_cographic,
    is_totally_unimodular,
    matroid_equivalent,
    spanning_forest_count,
    systems_equivalent,
    verify_equivalence,
)
from prymdice import enumerate_graphs as eg

from conftest import seeded_rng
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
    assert dicing_is_lattice(e5())


def test_e5_matroid_profile():
    # 162 bases, fifteen 4-element circuits, fifteen 6-element circuits
    prof = _ColumnMatroid(e5().matrix)
    assert len(prof.bases) == 162
    # no small circuits: every set of <= 3 columns is independent
    from math import comb

    assert prof.census[1] == 10
    assert prof.census[2] == comb(10, 2)
    assert prof.census[3] == comb(10, 3)
    assert prof.census[4] == comb(10, 4) - 15


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
    assert not dicing_is_lattice(M([[1, 1], [1, -1]]))


def test_identity_is_tu():
    assert is_totally_unimodular(IntMatrix.identity(4)).is_tu


def test_tu_agrees_with_definition_oracle():
    rng = seeded_rng(1)
    for _ in range(120):
        nr = rng.randint(1, 4)
        nc = rng.randint(1, 5)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        assert is_totally_unimodular(M(rows)).is_tu == tu_by_definition(rows)


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


# ---------------------------------------------------------------------------
# system construction
# ---------------------------------------------------------------------------


def test_system_invariants_enforced():
    with pytest.raises(ValueError):
        UnimodularSystem(M([[1, 0], [0, 0]]))  # zero column
    with pytest.raises(ValueError):
        UnimodularSystem(M([[1, -1], [2, -2]]))  # opposite columns
    with pytest.raises(ValueError):
        UnimodularSystem(M([[1, 1], [1, 1]]))  # equal columns (and rank 1)
    # relaxed constructor admits repeats
    UnimodularSystem(M([[1, 1, 0], [0, 0, 1]]), allow_repeats=True)


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


def test_bond_system_rejects_disconnected_and_loops():
    two = MultiGraph(["a", "b", "c", "d"], [("e", "a", "b"), ("f", "c", "d")])
    with pytest.raises(GraphError):
        bond_system(two)
    loopy = MultiGraph(["a", "b"], [("e", "a", "b"), ("l", "a", "a")])
    with pytest.raises(GraphError):
        bond_system(loopy)


def test_forest_count_equals_basis_count_small():
    for m in range(1, 6):
        for g in eg.connected_multigraphs_any_order(m):
            S = UnimodularSystem(cut_space_matrix(g), allow_repeats=True)
            assert spanning_forest_count(g) == len(_ColumnMatroid(S.matrix).bases)


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


def random_gl(rng, n, steps=12):
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                U[i][k] += c * U[j][k]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-x for x in U[i]]
    return IntMatrix.from_rows(U)


def scramble(rng, S):
    n, m = S.dim, S.size
    U = random_gl(rng, n)
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(m)]
    UA = U @ S.matrix
    rows = [[signs[j] * UA.entry(i, perm[j]) for j in range(m)] for i in range(n)]
    return UnimodularSystem(IntMatrix.from_rows(rows), allow_repeats=S.allow_repeats)


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
    truncated = UnimodularSystem(
        IntMatrix.from_rows([[r[j] for j in kept] for r in rows]), allow_repeats=True
    )
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

def _random_system_with_det_2_basis(rng, n, m):
    while True:
        rows = [[rng.choice((-1, 0, 0, 1, 1, 2)) for _ in range(m)] for _ in range(n)]
        try:
            S = UnimodularSystem(M(rows))
        except ValueError:
            continue
        bases = itertools.combinations(range(m), n)
        if any(abs(det(S.matrix.column_submatrix(c))) == 2 for c in bases):
            return S


def _with_a_doubled_column(rng, S):
    # same column matroid, usually a different lattice
    while True:
        k = rng.randrange(S.size)
        rows = [[x * (1 + (j == k)) for j, x in enumerate(r)] for r in S.matrix.row_list()]
        try:
            return UnimodularSystem(M(rows))
        except ValueError:
            continue


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
            elif A.matroid.invariants == B.matroid.invariants:
                rejected_past_gate += 1
    # both verdicts occur, and rejections also come from the search itself
    assert accepted >= 10 and rejected_past_gate >= 10


# ---------------------------------------------------------------------------
# the cached column matroid
# ---------------------------------------------------------------------------


def _brute_force_census(S):
    # number of k-subsets of columns of rank k, for k = 0 .. dim
    cols = [list(S.column(j)) for j in range(S.size)]
    return tuple(
        sum(1 for sub in itertools.combinations(cols, k) if rational_rank(list(sub)) == k)
        for k in range(S.dim + 1)
    )


def test_matroid_census_matches_brute_force():
    systems = [e5(), scramble(seeded_rng(5), e5())]
    for m in range(1, 6):
        systems.extend(bond_system(g) for g in eg.connected_multigraphs_any_order(m))
    assert len(systems) > 20
    for S in systems:
        census = S.matroid.census
        assert census == _brute_force_census(S)
        assert census[S.dim] == len(S.matroid.bases)


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
            S = UnimodularSystem(M([[c[i] for c in cols] for i in range(n)]), allow_repeats=True)
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
        form = S.standard_form
        assert form.basis == tuple(greedy)
        T = [[cols[j][i] for j in greedy] for i in range(n)]
        assert form.det == cofactor_det(T)
        non_tu_bases += abs(form.det) > 1
        # T * coordinates = det * M, and T * adjugate = det * I
        X, adj = form.coordinates.row_list(), form.adjugate.row_list()
        for i in range(n):
            assert [sum(T[i][k] * X[k][j] for k in range(n)) for j in range(m)] == [
                form.det * x for x in S.matrix.row(i)
            ]
            assert [sum(T[i][k] * adj[k][j] for k in range(n)) for j in range(n)] == [
                form.det * int(i == j) for j in range(n)
            ]
    assert non_tu_bases >= 30


def test_column_matroid_matches_rank_oracle():
    for S in _random_systems(seeded_rng(21), 300):
        n, m = S.dim, S.size
        independent = independent_column_sets([S.column(j) for j in range(m)])
        census = [0] * (n + 1)
        profiles = [[0] * n for _ in range(m)]
        for mask in independent:
            members = [e for e in range(m) if mask >> e & 1]
            census[len(members)] += 1
            for e in members:
                profiles[e][len(members) - 1] += 1
        matroid = _ColumnMatroid(S.matrix)
        assert matroid.bases == {mask for mask in independent if mask.bit_count() == n}
        assert matroid.census == tuple(census)
        assert matroid.element_profiles == tuple(map(tuple, profiles))
        # a column set is independent iff the AND of its holders is nonzero;
        # the AND over a set is the AND over it minus its top element
        holders = matroid.holders
        common = [-1] * (1 << m)
        for mask in range(1, 1 << m):
            top = mask.bit_length() - 1
            common[mask] = common[mask ^ 1 << top] & holders[top]
            assert bool(common[mask]) == (mask in independent)
        oracle_bases = [mask for mask in independent if mask.bit_count() == n]
        for e in range(m):
            assert holders[e].bit_count() == sum(1 for b in oracle_bases if b >> e & 1)
        rank, n_bases, _, sorted_profiles = matroid.invariants
        assert matroid.gate == (rank, n_bases, tuple(sorted(p[-1] for p in sorted_profiles)))


def test_minor_draws_of_the_matroid_and_the_equivalence_search(monkeypatch):
    drawn = []
    real_minors = unimod.minors

    def counting_minors(*args, **kwargs):
        for item in real_minors(*args, **kwargs):
            drawn.append(item)
            yield item

    monkeypatch.setattr(unimod, "minors", counting_minors)
    # the bases of E5 other than the first are the nonzero minors of its
    # 5 x 5 coordinate block, over all row sets: C(10, 5) - 1 = 251 drawn
    _ColumnMatroid(e5().matrix)
    assert len(drawn) == 251
    T = scramble(seeded_rng(7), e5())
    assert T.matroid.invariants == e5().matroid.invariants
    drawn.clear()
    # with both matroids built, the search reads coordinates from one
    # elimination per candidate basis and sweeps no minors
    assert systems_equivalent(e5(), T) is not None
    assert drawn == []


def test_equivalence_search_builds_no_downward_closure(monkeypatch):
    closures = []
    real_closure = unimod._ColumnMatroid._downward_closure

    def counting_closure(self):
        closures.append(self)
        return real_closure(self)

    monkeypatch.setattr(unimod._ColumnMatroid, "_downward_closure", counting_closure)
    A = UnimodularSystem(e5().matrix)
    T = scramble(seeded_rng(13), e5())
    assert systems_equivalent(A, T) is not None
    assert len(closures) == 0
    # the wheel on a 5-cycle: 6 vertices, 10 edges, rank 5 like E5
    hub = [(f"s{i}", "h", f"r{i}") for i in range(5)]
    rim = [(f"t{i}", f"r{i}", f"r{(i + 1) % 5}") for i in range(5)]
    wheel = MultiGraph(["h"] + [f"r{i}" for i in range(5)], hub + rim)
    W = bond_system(wheel)
    assert (W.dim, W.size) == (5, 10)
    assert systems_equivalent(A, W) is None
    assert len(closures) == 0
    # the matroid search still reads the full invariants
    assert matroid_equivalent(A, T) is not None
    assert len(closures) == 2


def test_matroid_is_cached_and_built_once_per_input(monkeypatch, triangle):
    built = []

    class CountingMatroid(unimod._ColumnMatroid):
        def __init__(self, matrix):
            built.append(matrix)
            super().__init__(matrix)

    monkeypatch.setattr(unimod, "_ColumnMatroid", CountingMatroid)
    S = UnimodularSystem(M([[1, 0, 1], [0, 1, 1]]))
    assert S.matroid is S.matroid
    assert is_cographic(S).is_cographic
    assert matroid_equivalent(S, bond_system(triangle)) is not None
    assert sum(1 for matrix in built if matrix is S.matrix) == 1
    assert len(built) > 1  # the candidate systems were counted too


def test_e5_is_shared_and_its_matroid_built_once(monkeypatch):
    assert e5() is e5()
    built = []

    class CountingMatroid(unimod._ColumnMatroid):
        def __init__(self, matrix):
            built.append(matrix)
            super().__init__(matrix)

    monkeypatch.setattr(unimod, "_ColumnMatroid", CountingMatroid)
    unimod.e5.cache_clear()  # E5's matroid may already be cached by another test
    try:
        X = scramble(seeded_rng(3), e5())
        assert X.matrix != e5().matrix
        assert systems_equivalent(X, e5()) is not None
        assert systems_equivalent(X, e5()) is not None
        assert sum(1 for matrix in built if matrix == e5().matrix) == 1
    finally:
        unimod.e5.cache_clear()


# ---------------------------------------------------------------------------
# matroid equivalence
# ---------------------------------------------------------------------------


def _rank_of_columns(S, cols):
    if not cols:
        return 0
    from prymdice.exactmat import rank as mrank

    return mrank(IntMatrix.from_rows(zip(*S.matrix.column_submatrix(cols).row_list())))


def _is_valid_matroid_map(A, B, sigma):
    import itertools

    m = A.size
    if sorted(sigma) != list(range(m)):
        return False
    for k in range(1, min(A.dim, m) + 1 + 1):
        for cols in itertools.combinations(range(m), min(k, m)):
            mapped = tuple(sorted(sigma[c] for c in cols))
            if _rank_of_columns(A, cols) != _rank_of_columns(B, mapped):
                return False
    return True


def test_matroid_equivalent_identity():
    S = e5()
    assert matroid_equivalent(S, S) == tuple(range(10))


def test_matroid_equivalent_recovers_permutation(triangle):
    S = bond_system(triangle)
    perm = [2, 0, 1]
    shuffled = UnimodularSystem(
        IntMatrix.from_rows(
            [[S.matrix.entry(i, perm[j]) for j in range(3)] for i in range(2)]
        ),
        allow_repeats=True,
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
    witness_sys = UnimodularSystem(cut_space_matrix(cert.witness), allow_repeats=True)
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
    assert err.value.certificate.violating_minor is not None


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
    return UnimodularSystem(M(rows), allow_repeats=S.allow_repeats)


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
    indep_a = independent_column_sets([A.column(j) for j in range(m)])
    indep_b = independent_column_sets([B.column(j) for j in range(m)])
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
                B = UnimodularSystem(M(rows), allow_repeats=True)
            except ValueError:
                continue
        sigma = matroid_equivalent(A, B)
        assert (sigma is not None) == _matroid_equivalent_by_brute_force(A, B)
        if sigma is not None:
            assert _is_valid_matroid_map(A, B, sigma)
        verdicts.append(sigma is not None)
    assert len(verdicts) >= 150
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 30


def test_forest_count_is_the_product_over_components():
    triangle = MultiGraph(["a", "b", "c"], [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a")])
    banana = MultiGraph(
        ["a", "b", "c", "d", "e"],
        [("x", "a", "b"), ("y", "b", "c"), ("z", "c", "a"), ("p", "d", "e"),
         ("q", "e", "d"), ("r", "d", "e"), ("l", "e", "e")],
    )
    assert spanning_forest_count(triangle) == 3
    assert spanning_forest_count(banana) == 3 * 3


def test_forest_count_leaves_the_tree_count_cache_alone():
    before = unimod._spanning_tree_count.cache_info().currsize
    counted = 0
    for m in range(1, 9):
        for g in eg.connected_multigraphs_any_order(m):
            assert spanning_forest_count(g) >= 1
            counted += 1
    assert counted == 1672
    assert unimod._spanning_tree_count.cache_info().currsize == before


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
