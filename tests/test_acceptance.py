"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  All tolerances are exact except the two pinned runtime
bounds (1 s for the end-to-end reproduction, 600 s for the exhaustive
cographic search).
"""

import time

from prymdice.exactmat import IntMatrix
from prymdice.graph import MultiGraph
from prymdice.homology import betti_number, cographic_dicing_system
from prymdice.prym import prym_dicing, torus_rank, vologodsky_check
from prymdice.segre import fixture, validate_basis_data
from prymdice.unimod import (
    bond_system,
    e5,
    is_cographic,
    is_totally_unimodular,
    systems_equivalent,
    verify_equivalence,
)
from prymdice import enumerate_graphs as eg

from conftest import scramble, seeded_rng, two_invariant_triangles
from oracles import tu_by_definition, vologodsky_witness_problem


def _report(name, detail):
    print(f"PASS {name}: {detail}")


def test_criterion_1_end_to_end_reproduction():
    start = time.perf_counter()
    f = fixture()
    dicing = prym_dicing(f.cover, f.involution)
    assert dicing.system.dim == 5
    assert dicing.system.size == 10
    eq = systems_equivalent(dicing.system, e5())
    assert eq is not None
    assert verify_equivalence(dicing.system, e5(), eq)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"pipeline took {elapsed:.3f}s, budget 1s"
    _report(
        "criterion 1 (reproduction)",
        f"5x10 system equivalent to the reference, witness re-verified by "
        f"multiplication, {elapsed:.3f}s",
    )


def test_criterion_2_reference_not_cographic():
    start = time.perf_counter()
    cert = is_cographic(e5())
    elapsed = time.perf_counter() - start
    assert not cert.is_cographic
    assert cert.report.graphs_tried == (
        cert.report.connected_tried + cert.report.disconnected_tried
    )
    assert cert.report.connected_tried > 0
    assert cert.report.disconnected_tried > 0
    assert elapsed < 600.0
    _report(
        "criterion 2 (non-cographic)",
        f"exhausted {cert.report.graphs_tried} canonical graphs "
        f"({cert.report.connected_tried} connected on six vertices, "
        f"{cert.report.disconnected_tried} disconnected shapes), "
        f"{elapsed:.1f}s",
    )


def test_criterion_3_fixture_validation():
    f = fixture()
    report = validate_basis_data(f)
    assert report.all_cycles
    assert report.homology_rank == 11
    assert len(report.projection_identities) == 10
    assert all(report.projection_identities)
    assert report.lattice_matches
    _report(
        "criterion 3 (fixture validation)",
        "11 cycles, rank 11, ten projection identities exact, lattices identical",
    )


def test_criterion_4_torus_rank():
    f = fixture()
    assert torus_rank(f.cover, f.involution) == 5
    _report("criterion 4 (torus rank)", "rank 5, exact")


def test_criterion_5_vologodsky():
    f = fixture()
    assert vologodsky_check(f.cover, f.involution).passed
    g, iota = two_invariant_triangles()
    result = vologodsky_check(g, iota)
    assert not result.passed
    w = result.witness
    witness = (w.subgraph_0, w.subgraph_1, w.connecting_edges)
    assert vologodsky_witness_problem(g.vertices, g.edges, iota.vertex_map, witness) is None
    _report(
        "criterion 5 (family independence)",
        "cover passes; joined-triangles counterexample fails with verified witness",
    )


def test_criterion_6_tu_oracle_agreement():
    rng = seeded_rng(6)
    agreements = 0
    for _ in range(500):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 6)
        rows = [[rng.randint(-2, 2) for _ in range(nc)] for _ in range(nr)]
        assert is_totally_unimodular(IntMatrix.from_rows(rows)).is_tu == tu_by_definition(rows)
        agreements += 1
    _report(
        "criterion 6 (TU oracle)",
        f"{agreements}/500 random matrices agree with the all-minors oracle",
    )


def test_criterion_7_cographic_round_trip_and_dicing_tu():
    start = time.perf_counter()
    round_trips = 0
    for m in range(1, 8):
        for g in eg.connected_multigraphs_any_order(m):
            cert = is_cographic(bond_system(g))
            assert cert.is_cographic, g.edges
            round_trips += 1
    mid = time.perf_counter()
    dicings = 0
    for m in range(1, 9):
        for g in eg.all_multigraphs(m, loops=True):
            if betti_number(g) == 0:
                continue
            assert is_totally_unimodular(cographic_dicing_system(g)).is_tu, g.edges
            dicings += 1
    elapsed = time.perf_counter() - start
    _report(
        "criterion 7 (round trip / dicing TU)",
        f"{round_trips} connected multigraphs up to 7 edges certified cographic "
        f"({mid - start:.1f}s); {dicings} dicing systems up to 8 edges all TU "
        f"({elapsed - (mid - start):.1f}s)",
    )


def _random_connected_6_10(rng):
    verts = [f"v{i}" for i in range(6)]
    order = verts[:]
    rng.shuffle(order)
    edges = [(f"e{k}", order[rng.randrange(k)], order[k]) for k in range(1, 6)]
    for k in range(6, 11):
        u, v = rng.sample(verts, 2)
        edges.append((f"e{k}", u, v))
    return MultiGraph(verts, edges)


def test_criterion_8_equivalence_robustness():
    base = e5()
    rng = seeded_rng(8)
    for trial in range(100):
        scrambled = scramble(rng, base)
        eq = systems_equivalent(base, scrambled)
        assert eq is not None, f"scramble {trial} not recognized"
        assert verify_equivalence(base, scrambled, eq)
    for trial in range(100):
        g = _random_connected_6_10(rng)
        s = bond_system(g)
        assert s.dim == 5 and s.size == 10
        assert systems_equivalent(base, s) is None, f"graph system {trial} misclassified"
    _report(
        "criterion 8 (equivalence robustness)",
        "100 scrambles recognized, 100 graph systems rejected",
    )
