import hashlib

import pytest

from prymdice import homology
from prymdice.exactmat import IntMatrix, det, rank
from prymdice.graph import CochainVector, GraphError, MultiGraph
from prymdice.homology import (
    betti_number,
    cographic_dicing,
    cographic_dicing_system,
    cycle_basis,
    default_spanning_forest,
    is_cycle,
)
from prymdice.segre import TREE_EDGES, build_cover
from prymdice.unimod import is_totally_unimodular
from prymdice import enumerate_graphs as eg

from oracles import rational_rank


def test_single_loop_basis():
    g = MultiGraph(["w"], [("l", "w", "w")])
    cb = cycle_basis(g)
    assert cb.rank == 1
    assert abs(cb.basis[0]["l"]) == 1
    assert is_cycle(g, cb.basis[0])


def test_k5_betti_number(k5):
    assert betti_number(k5) == 6
    cb = cycle_basis(k5)
    assert cb.rank == 6
    assert all(is_cycle(k5, v) for v in cb.basis)


def test_segre_cover_with_recorded_tree():
    g, _ = build_cover()
    cb = cycle_basis(g, TREE_EDGES)
    assert cb.rank == 11
    assert all(is_cycle(g, v) for v in cb.basis)
    coeffs = [[int(c) for c in v.coefficients] for v in cb.basis]
    assert rational_rank(coeffs) == 11


def test_invalid_tree_rejected(triangle):
    with pytest.raises(GraphError, match="'c' closes a cycle"):
        cycle_basis(triangle, ["a", "b", "c"])  # has a cycle
    with pytest.raises(GraphError):
        cycle_basis(triangle, ["a"])  # too small
    with pytest.raises(GraphError, match="unknown edge label 'zzz'"):
        cycle_basis(triangle, ["a", "zzz"])  # unknown label
    # labels are checked in sorted order, whatever the hash seed
    with pytest.raises(GraphError, match="unknown edge label 'yy'"):
        cycle_basis(triangle, ["zz", "yy", "a"])
    # the needed size counts the components, here a triangle and a looped vertex
    g = MultiGraph(["u", "v", "w", "x"], [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("l", "x", "x")])
    assert cycle_basis(g, ["a", "b"]).rank == 2
    with pytest.raises(GraphError, match="supplied forest has 1 edges; a spanning forest needs 2"):
        cycle_basis(g, ["c"])


def test_fundamental_cycle_structure(k5):
    cb = cycle_basis(k5)
    assert cb.tree_edges == default_spanning_forest(k5)
    nontree = [lab for lab in k5.edge_labels if lab not in cb.tree_edges]
    assert len(nontree) == cb.rank
    for own, v in zip(nontree, cb.basis):
        assert v[own] == 1
        assert is_cycle(k5, v)
        for lab in nontree:
            if lab != own:
                assert v[lab] == 0


def test_basis_coefficient_matrix_rank_formula():
    for m in range(1, 6):
        for g in eg.connected_multigraphs_any_order(m, loops=True):
            expected = betti_number(g)
            cb = cycle_basis(g)
            assert cb.rank == expected
            if expected:
                assert rank(IntMatrix.from_rows(cb.rows)) == expected


def test_default_cycle_bases_are_pinned():
    # tree edges and rows of every multigraph with at most 7 edges, loops
    # allowed; recorded before the forests were grown by spanning_forest
    found = [
        (sorted(cb.tree_edges), cb.rows)
        for m in range(1, 8)
        for cb in map(cycle_basis, eg.all_multigraphs(m, loops=True))
    ]
    assert len(found) == 5151
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "97aef995004bc92034d20d6a938307b81d85c59a1bc37a3399a4ab96160171c2"
    )


def test_is_cycle_rejects_single_edge(triangle):
    v = CochainVector.from_edge_dict(triangle, {"a": 1})
    assert not is_cycle(triangle, v)


def test_is_cycle_rejects_a_vector_on_another_graph(triangle):
    # on the banana the first two coefficients would read as a cycle
    banana = MultiGraph(["p", "q"], [("e", "p", "q"), ("f", "p", "q")])
    v = CochainVector(triangle, [1, -1, 0])
    with pytest.raises(GraphError, match="different graph"):
        is_cycle(banana, v)


def test_triangle_dicing_collapses_to_unit(triangle):
    detail = cographic_dicing(triangle)
    assert detail.system.dim == 1
    assert detail.system.size == 1
    assert abs(detail.system.matrix.entry(0, 0)) == 1
    assert detail.column_edges == (("a", "b", "c"),)
    assert detail.dropped_edges == ()


def test_two_disjoint_triangles_block_diagonal():
    verts = ["u1", "v1", "w1", "u2", "v2", "w2"]
    edges = [
        ("a1", "u1", "v1"), ("b1", "v1", "w1"), ("c1", "w1", "u1"),
        ("a2", "u2", "v2"), ("b2", "v2", "w2"), ("c2", "w2", "u2"),
    ]
    g = MultiGraph(verts, edges)
    system = cographic_dicing_system(g)
    assert system.dim == 2
    assert system.size == 2
    cols = {tuple(abs(x) for x in system.matrix.column(j)) for j in range(2)}
    assert cols == {(1, 0), (0, 1)}


def test_k5_dicing_is_totally_unimodular(k5):
    system = cographic_dicing_system(k5)
    assert system.dim == 6
    assert system.size <= 10
    assert is_totally_unimodular(system).is_tu


def test_forest_has_no_dicing(monkeypatch):
    path = MultiGraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "b", "c")])
    with pytest.raises(GraphError, match="graph is a forest"):
        cographic_dicing_system(path)
    with pytest.raises(GraphError, match="graph is a forest"):
        cographic_dicing_system(MultiGraph(["a"], []))
    # the cycle basis has b1 rows, so no components pass is needed
    monkeypatch.setattr(homology, "components", None)
    assert cographic_dicing_system(MultiGraph(["a"], [("l", "a", "a")])).dim == 1


def test_bridge_columns_dropped():
    # triangle with a pendant edge: the pendant is a bridge
    g = MultiGraph(
        ["u", "v", "w", "x"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u"), ("d", "u", "x")],
    )
    detail = cographic_dicing(g)
    assert detail.dropped_edges == ("d",)
    assert detail.system.size == 1


def test_tree_choice_changes_basis_unimodularly(k5):
    cb1 = cycle_basis(k5)
    alt_tree = ["e12", "e23", "e34", "e45"]
    cb2 = cycle_basis(k5, alt_tree)
    b1 = IntMatrix.from_rows(cb1.rows)
    b2 = IntMatrix.from_rows(cb2.rows)
    # columns of b1 at its own non-tree edges form an identity block, so the
    # change of basis is read off from b2 at those same columns
    nontree1 = [j for j, lab in enumerate(k5.edge_labels) if lab not in cb1.tree_edges]
    T = b2.column_submatrix(nontree1)
    assert T @ b1 == b2
    assert abs(det(T)) == 1


def test_small_dicings_are_totally_unimodular():
    for m in range(1, 6):
        for g in eg.connected_multigraphs_any_order(m, loops=True):
            if betti_number(g) == 0:
                continue
            assert is_totally_unimodular(cographic_dicing_system(g)).is_tu


def test_loop_gives_unit_column():
    g = MultiGraph(["w", "x"], [("l", "w", "w"), ("e", "w", "x"), ("f", "w", "x")])
    detail = cographic_dicing(g)
    assert detail.system.dim == 2
    assert is_totally_unimodular(detail.system).is_tu
