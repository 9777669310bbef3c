from fractions import Fraction

import pytest

from prymdice.graph import (
    CochainVector,
    GraphError,
    GraphFormatError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
    components,
    format_graph_text,
    involution_quotient,
    parse_graph_text,
)
from prymdice.prym import MultiplierVector, lattice_from_vectors, x_minus
from prymdice.segre import build_cover
from prymdice.unimod import e5

from conftest import seeded_rng
from oracles import components_by_search


def test_single_loop_parse():
    g, iota = parse_graph_text("vertex w\nedge l w w\n")
    assert g.num_vertices == 1
    assert g.num_edges == 1
    assert g.is_loop("l")
    assert iota is None


def test_duplicate_edge_label_reports_line():
    text = "vertex a\nvertex b\nedge e a b\nedge e b a\n"
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(text)
    assert "line 4" in str(err.value)


def test_dangling_endpoint_reports_line():
    text = "vertex a\nedge e a missing\n"
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(text)
    assert "line 2" in str(err.value)
    assert "missing" in str(err.value)


def test_incidence_incompatible_involution_rejected():
    # e1 maps to e2 but the endpoints do not correspond under iota_v
    text = (
        "vertex a\nvertex b\nvertex c\nvertex d\n"
        "edge e1 a b\nedge e2 a c\n"
        "iota_v a a\niota_v b b\niota_v c c\niota_v d d\n"
        "iota_e e1 e2\n"
    )
    with pytest.raises(GraphFormatError) as err:
        parse_graph_text(text)
    assert "incidence" in str(err.value)
    # the error cites the iota_e line naming the edge at fault, not the first one
    text = (
        "vertex a\nvertex b\nvertex c\nvertex d\n"
        "edge e1 a b\nedge e2 a b\nedge e3 a c\nedge e4 a d\n"
        "iota_v a a\niota_v b b\n"
        "iota_e e1 e2\n"  # line 11: e1 and e2 have the same endpoints
        "iota_e e3 e4\n"  # line 12: e3 ends at c, e4 at d
    )
    with pytest.raises(GraphFormatError, match="'e3'") as err:
        parse_graph_text(text)
    assert err.value.lineno == 12
    # an edge that no iota_e line names is cited at its own edge line
    text = (
        "vertex a\nvertex b\nvertex c\nvertex d\n"
        "edge e1 a b\nedge e2 a b\nedge e3 a c\n"  # e3 on line 7
        "iota_v c d\n"  # iota fixes e3 but sends its end c to d
        "iota_e e1 e2\n"
    )
    with pytest.raises(GraphFormatError, match="'e3'") as err:
        parse_graph_text(text)
    assert err.value.lineno == 7


def test_non_involutive_edge_map_rejected():
    text = (
        "vertex a\nvertex b\n"
        "edge e1 a b\nedge e2 a b\nedge e3 a b\n"
        "iota_e e1 e2\niota_e e2 e3\n"
    )
    with pytest.raises(GraphFormatError):
        parse_graph_text(text)


def test_involution_rejects_names_outside_the_graph():
    g = MultiGraph(["a", "b"], [("e", "a", "b")])
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        GraphInvolution(g, {"a": "b", "b": "a", "zz": "zz"}, {"e": "e"})
    with pytest.raises(GraphError, match="unknown edge 'f'"):
        GraphInvolution(g, {"a": "b", "b": "a"}, {"e": "e", "f": "f"})


def test_segre_file_parses_to_cover():
    g, iota = build_cover()
    assert g.num_vertices == 10
    assert g.num_edges == 20
    assert iota is not None
    assert iota.is_fixed_point_free()


def test_round_trip_graph_with_involution():
    g, iota = build_cover()
    text = format_graph_text(g, iota)
    g2, iota2 = parse_graph_text(text)
    assert g2 == g
    assert iota2.vertex_map == iota.vertex_map
    assert iota2.edge_map == iota.edge_map


def _random_graphs(count):
    """(vertex count, edge pairs) with 2-5 vertices and 1-6 edges: at both
    ends of each range, all loops and all parallels, then ``count`` random
    graphs."""
    rng = seeded_rng(22)
    cases = [
        (nverts, [pair] * nedges)
        for nverts in (2, 5)
        for nedges in (1, 6)
        for pair in (("v0", "v0"), ("v1", "v0"))
    ]
    for _ in range(count):
        verts = [f"v{i}" for i in range(rng.randint(2, 5))]
        cases.append((len(verts), [(rng.choice(verts), rng.choice(verts)) for _ in range(rng.randint(1, 6))]))
    return cases


def test_round_trip_random_graphs():
    seen = dict.fromkeys(["2 vertices", "5 vertices", "1 edge", "6 edges", "loop", "parallel",
                          "isolated vertex"], 0)
    for nverts, pairs in _random_graphs(60):
        g = MultiGraph([f"v{i}" for i in range(nverts)], [(f"e{k}", t, h) for k, (t, h) in enumerate(pairs)])
        g2, iota2 = parse_graph_text(format_graph_text(g))
        assert g2 == g
        assert iota2 is None
        seen["2 vertices"] += nverts == 2
        seen["5 vertices"] += nverts == 5
        seen["1 edge"] += len(pairs) == 1
        seen["6 edges"] += len(pairs) == 6
        seen["loop"] += any(t == h for t, h in pairs)
        seen["parallel"] += len({frozenset(p) for p in pairs}) < len(pairs)
        seen["isolated vertex"] += any(g.degree(v) == 0 for v in g.vertices)
    assert min(seen.values()) >= 4, seen


def test_components():
    g, iota = build_cover()
    assert len(components(g)) == 1
    two_loops = MultiGraph(["u", "v"], [("p", "u", "u"), ("q", "v", "v")])
    assert components(two_loops) == [frozenset("u"), frozenset("v")]
    bare = MultiGraph(["a", "b", "c"], [])
    assert components(bare) == [frozenset("a"), frozenset("b"), frozenset("c")]
    # listed by smallest-index vertex, not by name
    mixed = MultiGraph(["z", "a", "m", "b"], [("e", "b", "z"), ("l", "a", "a")])
    assert components(mixed) == [frozenset("zb"), frozenset("a"), frozenset("m")]


def test_components_match_breadth_first_search():
    rng = seeded_rng(23)
    seen = dict.fromkeys(["loop", "isolated vertex", "several components", "connected"], 0)
    for _ in range(200):
        vertices = [f"v{i}" for i in range(rng.randint(1, 10))]
        rng.shuffle(vertices)
        edges = [(f"e{k}", rng.choice(vertices), rng.choice(vertices)) for k in range(rng.randint(0, 12))]
        g = MultiGraph(vertices, edges)
        found = components(g)
        assert found == components_by_search(vertices, edges), edges
        seen["loop"] += any(t == h for _, t, h in edges)
        seen["isolated vertex"] += any(g.degree(v) == 0 for v in vertices)
        seen["several components"] += len(found) > 1
        seen["connected"] += len(found) == 1
    assert min(seen.values()) >= 10, seen


def test_edge_sign_computation():
    # involution swaps the endpoints of a fixed edge: orientation reversed
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    iota = GraphInvolution(g, {"u": "v", "v": "u"}, {"e": "e", "f": "f"})
    assert iota.edge_action == ((0, -1), (1, -1))
    # parallel pair between swapped vertices, edges exchanged: sign is forced
    iota2 = GraphInvolution(g, {"u": "v", "v": "u"}, {"e": "f", "f": "e"})
    assert iota2.edge_action == ((1, -1), (0, -1))


def test_loop_fixed_by_involution_gets_plus_sign():
    g = MultiGraph(["w"], [("l", "w", "w")])
    iota = GraphInvolution.identity(g)
    assert iota.edge_action == ((0, 1),)


def test_apply_involution_is_linear_involution():
    g, iota = build_cover()
    zero = CochainVector.zero(g)
    assert apply_involution(iota, zero) == zero
    v = CochainVector.from_edge_dict(g, {"e1": 1, "e7'": Fraction(-1, 2), "e10": 3})
    w = CochainVector.from_edge_dict(g, {"e2": Fraction(1, 2), "e1": -2})
    assert apply_involution(iota, apply_involution(iota, v)) == v
    left = apply_involution(iota, v + w.scaled(3))
    right = apply_involution(iota, v) + apply_involution(iota, w).scaled(3)
    assert left == right


def test_apply_involution_respects_signs():
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    iota = GraphInvolution(g, {"u": "v", "v": "u"}, {"e": "e", "f": "f"})
    v = CochainVector.from_edge_dict(g, {"e": 1})
    assert apply_involution(iota, v) == CochainVector.from_edge_dict(g, {"e": -1})


def test_cochain_denominator_restriction():
    g = MultiGraph(["u", "v"], [("e", "u", "v")])
    with pytest.raises(GraphError):
        CochainVector(g, [Fraction(1, 3)])


def test_cochain_holds_doubled_integers():
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    v = CochainVector(g, [Fraction(-1, 2), 3])
    assert v.doubled == (-1, 6)
    assert v == CochainVector.from_doubled(g, (-1, 6))
    assert v.coefficients == (Fraction(-1, 2), 3)
    assert v["e"] == Fraction(-1, 2)
    assert not v.is_integral() and v.scaled(2).is_integral()
    assert (v - v).support() == frozenset() and (v + v).support() == {"e", "f"}
    with pytest.raises(GraphError, match="not an integer"):
        v.scaled(Fraction(1, 2))
    with pytest.raises(GraphError, match="expected 2 coefficients"):
        CochainVector.from_doubled(g, (1,))


def test_edge_action_pairs_each_edge_with_its_image_and_sign():
    swapped = MultiGraph(["u", "v", "w"], [("e", "u", "v"), ("f", "u", "v"), ("l", "w", "w")])
    covers = [
        build_cover(),
        (swapped, GraphInvolution(swapped, {"u": "v", "v": "u", "w": "w"}, {"e": "f", "f": "e", "l": "l"})),
    ]
    signs = set()
    for g, iota in covers:
        expected = []
        for lab, t, h in g.edges:
            image = iota.edge_map[lab]
            ends = (iota.vertex_map[t], iota.vertex_map[h])
            sign = 1 if g.endpoints(image) == ends else -1
            assert g.endpoints(image) == ends[::sign]
            expected.append((g.edge_index(image), sign))
        assert iota.edge_action == tuple(expected)
        signs.update(sign for _, sign in expected)
    assert signs == {1, -1}


def test_involution_quotient_of_cover_is_k5():
    g, iota = build_cover()
    q = involution_quotient(g, iota)
    assert q.num_vertices == 5
    assert q.num_edges == 10
    pairs = {frozenset(q.endpoints(lab)) for lab in q.edge_labels}
    assert len(pairs) == 10
    assert all(len(p) == 2 for p in pairs)
    assert q.vertices == ("a1", "a2", "a3", "a4", "a5")
    assert q.edges == (
        ("a3|e1", "a3", "a2"), ("a4|e2", "a4", "a2"), ("a5|e3", "a5", "a3"),
        ("a5|e4", "a5", "a4"), ("a5|e5", "a5", "a1"), ("a4|e6", "a4", "a3"),
        ("a3|e7", "a3", "a1"), ("a2|e8", "a2", "a5"), ("a1|e9", "a1", "a4"),
        ("a2|e10", "a2", "a1"),
    )


def test_involution_quotient_names_orbits_by_least_vertex_in_first_vertex_order():
    # y comes before x, so the orbit named x stands first; f, l and m are fixed
    g, iota = parse_graph_text(
        "vertex y\nvertex x\nvertex f\n"
        "edge e y f\nedge e' x f\nedge l x y\nedge m f f\n"
        "iota_v x y\niota_e e e'\n"
    )
    q = involution_quotient(g, iota)
    assert q.vertices == ("x", "f")
    assert q.edges == (("x|e", "x", "f"), ("x|l", "x", "x"), ("f|m", "f", "f"))


def test_unknown_directive_and_conflicts():
    with pytest.raises(GraphFormatError):
        parse_graph_text("wat a b\n")
    with pytest.raises(GraphFormatError):
        parse_graph_text(
            "vertex a\nvertex b\nvertex c\n"
            "edge e a b\n"
            "iota_v a b\niota_v a c\n"
        )


def test_each_malformed_graph_involution_and_file_is_refused_with_its_message():
    # (build, message, cited line): MultiGraph and GraphInvolution cite none
    g = MultiGraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
    fixed_edges = {"e": "e", "f": "f"}
    cases = [
        (lambda: MultiGraph(["a", "a"], []), "duplicate vertex names", None),
        (lambda: MultiGraph(["a"], [(lab, "a", "a") for lab in "fefe"]),
         "duplicate edge labels: e, f", None),
        (lambda: MultiGraph(["a"], [("e", "a", "b")]), "edge e references undeclared vertex", None),
        (lambda: GraphInvolution(g, {"a": "a"}, fixed_edges), "vertex map does not cover 'b'", None),
        (lambda: GraphInvolution(g, {"a": "b", "b": "a"}, {"e": "e"}),
         "edge map does not cover 'f'", None),
        (lambda: GraphInvolution(g, {"a": "zz", "b": "b"}, fixed_edges),
         "vertex map sends 'a' outside the graph", None),
        (lambda: GraphInvolution(g, {"a": "b", "b": "b"}, fixed_edges),
         "vertex map is not an involution at 'a'", None),
        (lambda: GraphInvolution(g, {"a": "a", "b": "b"}, {"e": "zz", "f": "f"}),
         "edge map sends 'e' to unknown edge 'zz'", None),
        (lambda: GraphInvolution(g, {"a": "a", "b": "b"}, {"e": "f", "f": "f"}),
         "edge map is not an involution at 'e'", None),
        (lambda: parse_graph_text("vertex a b\n"), "vertex line needs exactly one name", 1),
        (lambda: parse_graph_text("vertex a\nvertex a\n"), "duplicate vertex 'a'", 2),
        (lambda: parse_graph_text("vertex a\nedge e a\n"), "edge line needs label, tail, head", 2),
        (lambda: parse_graph_text("vertex a\niota_v a\n"), "iota_v line needs two vertex names", 2),
        (lambda: parse_graph_text("vertex a\nedge e a a\n# swap\niota_e e\n"),
         "iota_e line needs two edge labels", 4),
        (lambda: parse_graph_text("vertex a\niota_v a zz\n"), "unknown vertex 'zz' in iota_v", 2),
        (lambda: parse_graph_text("vertex a\nedge e a a\niota_e e zz\n"),
         "unknown edge 'zz' in iota_e", 3),
    ]
    for build, message, lineno in cases:
        with pytest.raises(GraphError) as err:
            build()
        if lineno is None:
            assert not isinstance(err.value, GraphFormatError), message
            assert str(err.value) == message
        else:
            assert err.value.lineno == lineno, message
            assert str(err.value) == f"line {lineno}: {message}"


def test_reprs_and_hashes_of_the_library_types(reversed_banana):
    cover, iota = build_cover()
    banana, flip = reversed_banana
    half = CochainVector.from_edge_dict(banana, {"e": 1, "f": Fraction(-1, 2)})
    reprs = [
        (cover, "MultiGraph(10 vertices, 20 edges)"),
        (iota, "GraphInvolution(5 vertex swaps on MultiGraph(10 vertices, 20 edges))"),
        (flip, "GraphInvolution(1 vertex swaps on MultiGraph(2 vertices, 2 edges))"),
        (half, "CochainVector(+1*e -1/2*f)"),
        (CochainVector.zero(banana), "CochainVector(0)"),
        (x_minus(cover, iota), "HalfLattice(rank=5, edges=20)"),
        (lattice_from_vectors(banana, [half]), "HalfLattice(rank=1, edges=2)"),
        (MultiplierVector(["e", "f"], [2, 0]), "MultiplierVector({'e': 2, 'f': 0})"),
        (e5(), "UnimodularSystem(dim=5, size=10)"),
    ]
    for value, text in reprs:
        assert repr(value) == text
    # equal values hash alike; the pairs are built apart, so equality is by value
    again = MultiGraph(list(banana.vertices), list(banana.edges))
    pairs = [
        (banana, again, True),
        (banana, MultiGraph(["u", "v"], [("f", "u", "v"), ("e", "u", "v")]), False),
        (half, CochainVector.from_doubled(again, (2, -1)), True),
        (half, CochainVector(banana, [1, Fraction(1, 2)]), False),
        (CochainVector.zero(banana), CochainVector.zero(cover), False),
    ]
    for a, b, equal in pairs:
        assert (a == b) is equal and (b == a) is equal
        if equal:
            assert hash(a) == hash(b)
    assert len({banana, again, half, CochainVector.from_doubled(again, (2, -1))}) == 2
