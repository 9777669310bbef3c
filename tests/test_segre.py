

import pytest

from prymdice import segre
from prymdice.graph import GraphError, apply_involution
from prymdice.homology import betti_number, is_cycle
from prymdice.prym import MultiplierVector, pi_minus, prym_dicing, x_minus
from prymdice.segre import (
    PROJECTION_PAIRS,
    TREE_EDGES,
    _CYCLE_SUPPORTS,
    degeneration_report,
    dicing_matrix_in_generator_basis,
    fixture,
    validate_basis_data,
)
from prymdice.unimod import (
    UnimodularSystem,
    e5,
    is_totally_unimodular,
    systems_equivalent,
    verify_equivalence,
)


def test_cover_shape():
    f = fixture()
    assert f.cover.num_vertices == 10
    assert f.cover.num_edges == 20
    assert betti_number(f.cover) == 11
    assert all(f.cover.degree(v) == 4 for v in f.cover.vertices)
    assert f.involution.is_fixed_point_free()
    assert len(f.tree_edges) == 9


def test_tree_matches_recorded_data():
    assert TREE_EDGES == frozenset(
        {"e6", "e7", "e8", "e9", "e10", "e10'", "e7'", "e9'", "e8'"}
    )


def test_recorded_endpoints():
    f = fixture()
    assert f.cover.endpoints("e1") == ("b3", "a2")
    assert f.cover.endpoints("e6") == ("a4", "b3")
    assert f.cover.endpoints("e10") == ("b2", "a1")
    # primed partners carry the sides exchanged, same order
    assert f.cover.endpoints("e1'") == ("a3", "b2")
    assert f.cover.endpoints("e9'") == ("b1", "a4")
    for lab in [x for x in f.cover.edge_labels if not x.endswith("'")]:
        t, h = f.cover.endpoints(lab)
        it, ih = f.cover.endpoints(f.involution.edge_map[lab])
        assert (it, ih) == (f.involution.vertex_map[t], f.involution.vertex_map[h])
        assert f.involution.edge_sign[lab] == 1


def test_homology_basis_cycles_and_supports():
    f = fixture()
    assert len(f.homology_basis) == 11
    for vec in f.homology_basis:
        assert is_cycle(f.cover, vec)
        assert vec.is_integral()
    supports = {frozenset(v.support()) for v in f.homology_basis}
    assert supports == {frozenset(s) for s in _CYCLE_SUPPORTS.values()}


def test_specific_recorded_cycle():
    # the four-edge cycle through e2 uses exactly the recorded support
    f = fixture()
    h4 = f.homology_basis[3]
    assert h4.support() == {"e2", "e6", "e7", "e10"}
    assert h4["e2"] == 1


def test_projection_identities_and_h1_kernel():
    f = fixture()
    report = validate_basis_data(f)
    assert report.all_cycles
    assert report.homology_rank == 11
    assert len(report.projection_identities) == 10
    assert all(report.projection_identities)
    assert report.lattice_matches
    assert not pi_minus(f.involution, f.homology_basis[0]).support()


def test_second_expression_of_each_generator():
    f = fixture()
    for gen_index, (first, second) in enumerate(PROJECTION_PAIRS):
        a = pi_minus(f.involution, f.homology_basis[first])
        b = pi_minus(f.involution, f.homology_basis[second])
        assert a == b == f.anti_invariant_basis[gen_index]


def test_generators_are_anti_invariant_half_integral():
    f = fixture()
    for gen in f.anti_invariant_basis:
        assert apply_involution(f.involution, gen) == -gen
        assert any(c.denominator == 2 for c in gen.coefficients)


def test_generator_matrix_equivalent_to_hnf_system():
    f = fixture()
    direct = UnimodularSystem(dicing_matrix_in_generator_basis(f))
    assert direct.dim == 5 and direct.size == 10
    assert is_totally_unimodular(direct).is_tu
    dicing = prym_dicing(f.cover, f.involution)
    eq = systems_equivalent(direct, dicing.system)
    assert eq is not None and verify_equivalence(direct, dicing.system, eq)
    eq2 = systems_equivalent(direct, e5())
    assert eq2 is not None and verify_equivalence(direct, e5(), eq2)


def test_degeneration_report_full():
    f = fixture()
    report = degeneration_report(f)
    assert report.vologodsky_passed
    assert report.torus_rank == 5
    assert report.dicing.system.dim == 5
    assert report.dicing.system.size == 10
    assert report.equivalence is not None
    assert report.equivalence_verified
    assert report.e5_cographic is not None
    assert not report.e5_cographic.is_cographic
    assert report.conclusion == "non-cographic dicing obtained"


def test_x_minus_has_all_half_coordinates():
    # every edge coordinate takes half-integer values somewhere on the lattice
    f = fixture()
    lattice = x_minus(f.cover, f.involution)
    doubled = lattice.doubled
    for j in range(doubled.cols):
        assert any(doubled.entry(i, j) % 2 for i in range(doubled.rows))


def test_non_integral_dicing_entry_raises(monkeypatch):
    # with every multiplier forced to 1 the half-integral generators give
    # non-integral entries; the check is an exception, so ``python -O``
    # cannot strip it and return a zero matrix
    def all_ones(X):
        return MultiplierVector(X.ambient_edges, [1] * len(X.ambient_edges))

    monkeypatch.setattr(segre, "edge_multipliers", all_ones)
    with pytest.raises(GraphError, match="internal error"):
        dicing_matrix_in_generator_basis(fixture())
