import hashlib
import itertools
from collections import Counter
from fractions import Fraction

import pytest

from prymdice import prym
from prymdice.exactmat import IntMatrix, hnf_basis
from prymdice.graph import (
    CochainVector,
    GraphError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
    components,
    involution_quotient,
)
from prymdice.homology import betti_number, cycle_basis
from prymdice.prym import (
    HalfLattice,
    MultiplierVector,
    VologodskyWitness,
    lattice_from_vectors,
    multipliers,
    pi_minus,
    prym_dicing,
    torus_rank,
    vologodsky_check,
    x_minus,
)
from prymdice.segre import build_cover, fixture
from prymdice.unimod import collapse_columns, e5, is_totally_unimodular, systems_equivalent

from conftest import census_covers, double_cover, seeded_rng, shuffled_graph
from oracles import (
    _orbits_and_connectivity,
    vologodsky_by_bipartition,
    vologodsky_by_definition,
    vologodsky_witness_problem,
)


def test_pi_minus_kills_invariant_cycles():
    f = fixture()
    h1 = f.homology_basis[0]
    assert apply_involution(f.involution, h1) == h1
    assert not pi_minus(f.involution, h1).support()


def test_pi_minus_fixes_anti_invariant_integral_vectors(reversed_banana):
    g, iota = reversed_banana
    z = CochainVector.from_edge_dict(g, {"e": 1, "f": -1})
    assert apply_involution(iota, z) == -z
    assert pi_minus(iota, z) == z


def test_pi_minus_rejects_non_integral():
    f = fixture()
    half = CochainVector.from_edge_dict(f.cover, {"e1": Fraction(1, 2)})
    with pytest.raises(GraphError):
        pi_minus(f.involution, half)


def test_projection_is_anti_invariant_on_random_cycles():
    f = fixture()
    rng = seeded_rng(24)
    # the zero cycle, every coefficient at one range end, then random ones
    draws = [[0] * 11, [-3] * 11, [3] * 11, [rng.choice((-3, 3)) for _ in range(11)]]
    draws += [[rng.randint(-3, 3) for _ in range(11)] for _ in range(60)]
    seen = {"zero": 0, "low end": 0, "high end": 0}
    for coeffs in draws:
        seen["zero"] += not any(coeffs)
        seen["low end"] += -3 in coeffs
        seen["high end"] += 3 in coeffs
        total = CochainVector.zero(f.cover)
        for c, h in zip(coeffs, f.homology_basis):
            total = total + h.scaled(c)
        image = pi_minus(f.involution, total)
        assert apply_involution(f.involution, image) == -image
    assert min(seen.values()) >= 1, seen


def test_x_minus_trivial_involution(triangle):
    iota = GraphInvolution.identity(triangle)
    lattice = x_minus(triangle, iota)
    assert lattice.rank == 0
    assert torus_rank(triangle, iota) == 0


def test_x_minus_swapped_loops(swapped_loops):
    g, iota = swapped_loops
    lattice = x_minus(g, iota)
    assert lattice.rank == 1
    gen = lattice.basis_vectors()[0]
    expected = CochainVector.from_edge_dict(
        g, {"p": Fraction(1, 2), "q": Fraction(-1, 2)}
    )
    assert gen == expected or gen == -expected
    assert torus_rank(g, iota) == 1


def test_x_minus_rank_bounded_by_betti():
    cases = []
    g, iota = build_cover()
    cases.append((g, iota))
    tri = MultiGraph(["u", "v", "w"], [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")])
    cases.append((tri, GraphInvolution.identity(tri)))
    for graph, inv in cases:
        assert x_minus(graph, inv).rank <= betti_number(graph)


def test_x_minus_rejects_an_involution_of_another_graph():
    # K4 with the involution a<->c, b<->d; reversing p gives a second graph
    # on which that edge map would count rank 3 instead of the true 2
    edges = [("e", "a", "b"), ("f", "c", "d"), ("g", "a", "c"),
             ("h", "b", "d"), ("p", "a", "d"), ("q", "c", "b")]
    g1 = MultiGraph(["a", "b", "c", "d"], edges)
    iota = GraphInvolution(
        g1,
        {"a": "c", "c": "a", "b": "d", "d": "b"},
        {"e": "f", "f": "e", "p": "q", "q": "p", "g": "g", "h": "h"},
    )
    g2 = MultiGraph(["a", "b", "c", "d"], edges[:4] + [("p", "d", "a"), edges[5]])
    assert torus_rank(g1, iota) == 2
    for call in (x_minus, torus_rank, prym_dicing):
        with pytest.raises(GraphError, match="different graph"):
            call(g2, iota)


def test_x_minus_refuses_a_basis_that_breaks_anti_invariance(monkeypatch):
    # e and f are swapped with sign +1 and the loop l is fixed with sign +1;
    # only the orbit column of such a fixed edge can break anti-invariance
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v"), ("l", "u", "u")])
    iota = GraphInvolution(g, {"u": "u", "v": "v"}, {"e": "f", "f": "e", "l": "l"})
    assert x_minus(g, iota).rank == 1
    real = prym.fundamental_cycle_rows

    def tampered(G, forest, coordinates, width):
        rows = [list(row) for row in real(G, forest, coordinates, width)]
        rows[0][coordinates[G.edge_index("l")][0]] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(prym, "fundamental_cycle_rows", tampered)
    with pytest.raises(GraphError, match="internal error"):
        x_minus(g, iota)


def test_multipliers_zero_lattice(triangle):
    lattice = x_minus(triangle, GraphInvolution.identity(triangle))
    mult = multipliers(lattice)
    assert set(mult.values) == {0}


def test_multipliers_full_integer_lattice():
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    lattice = HalfLattice(g, IntMatrix.from_rows([[2, 0], [0, 2]]))
    mult = multipliers(lattice)
    assert mult.values == (1, 1)


def test_multipliers_outside_model_rejected():
    g = MultiGraph(["u", "v"], [("e", "u", "v")])
    lattice = HalfLattice(g, IntMatrix.from_rows([[3]]))
    with pytest.raises(GraphError):
        multipliers(lattice)


def test_segre_multipliers_all_two():
    g, iota = build_cover()
    mult = multipliers(x_minus(g, iota))
    assert set(mult.values) == {2}
    assert len(mult.values) == 20


def test_prym_dicing_reversed_banana(reversed_banana):
    g, iota = reversed_banana
    lattice = x_minus(g, iota)
    assert lattice.rank == 1
    mult = multipliers(lattice)
    assert mult.values == (1, 1)  # coordinates already surject onto Z
    dicing = prym_dicing(g, iota)
    assert dicing.system.dim == 1
    assert dicing.system.size == 1
    assert abs(dicing.system.matrix.entry(0, 0)) == 1
    assert dicing.column_edges == (("e", "f"),)


def test_prym_dicing_twin_loops(twin_loops):
    g, iota = twin_loops
    dicing = prym_dicing(g, iota)
    assert dicing.system.dim == 1
    assert dicing.system.size == 1
    assert abs(dicing.system.matrix.entry(0, 0)) == 1
    assert dicing.multipliers.values == (2, 2)


def test_prym_dicing_trivial_involution_rejected(triangle):
    with pytest.raises(GraphError):
        prym_dicing(triangle, GraphInvolution.identity(triangle)).system


def test_dicing_columns_pair_under_involution():
    g, iota = build_cover()
    dicing = prym_dicing(g, iota)
    assert dicing.system.size == 10
    for group in dicing.column_edges:
        assert len(group) == 2
        assert iota.edge_map[group[0]] == group[1]
    assert dicing.dropped_edges == ()


def test_vologodsky_segre_passes():
    g, iota = build_cover()
    assert vologodsky_check(g, iota).passed


from conftest import two_invariant_triangles as _two_triangles_joined_by_four


def test_vologodsky_counterexample_fails_with_verifiable_witness():
    g, iota = _two_triangles_joined_by_four()
    result = vologodsky_check(g, iota)
    assert not result.passed
    assert isinstance(result.witness, VologodskyWitness)
    _assert_agrees_with_oracle(g, iota, _verdict(result))


def test_vologodsky_small_graphs_pass(triangle):
    assert vologodsky_check(triangle, GraphInvolution.identity(triangle)).passed


def test_prym_dicing_flags_family_dependence():
    g, iota = _two_triangles_joined_by_four()
    dicing = prym_dicing(g, iota)
    assert not dicing.family_independent
    assert dicing.vologodsky_witness is not None
    # computation still happened
    assert dicing.system.dim == dicing.lattice.rank >= 1


def test_lattice_membership_and_equality():
    g, iota = build_cover()
    lattice = x_minus(g, iota)
    for v in lattice.basis_vectors():
        assert lattice.contains(v)
        assert lattice.contains(v + v)
    assert lattice.contains(CochainVector.zero(g))
    f = fixture()
    regen = lattice_from_vectors(g, f.anti_invariant_basis)
    assert regen.same_lattice_as(lattice)


def _twenty_edge_banana():
    """Twenty parallel edges: the Segre cover's edge count on another graph."""
    return MultiGraph(["p", "q"], [(f"b{i}", "p", "q") for i in range(20)])


def test_lattice_membership_rejects_a_vector_on_another_graph():
    f = fixture()
    lattice = x_minus(f.cover, f.involution)
    banana = _twenty_edge_banana()
    assert banana.num_edges == f.cover.num_edges
    with pytest.raises(GraphError, match="different graph"):
        lattice.contains(CochainVector.zero(banana))
    assert lattice.contains(CochainVector.zero(f.cover))


def test_lattice_from_vectors_rejects_a_vector_on_another_graph():
    f = fixture()
    cycle = CochainVector.from_edge_dict(_twenty_edge_banana(), {"b0": 1, "b1": -1})
    with pytest.raises(GraphError, match="different graph"):
        lattice_from_vectors(f.cover, [*f.anti_invariant_basis, cycle])


def test_lattices_on_different_graphs_differ():
    # the same labels e, f and the same generator [1, -1] on two graphs
    banana = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    path = MultiGraph(["u", "v", "w"], [("e", "u", "v"), ("f", "v", "w")])
    on_banana = lattice_from_vectors(banana, [CochainVector(banana, [1, -1])])
    on_path = lattice_from_vectors(path, [CochainVector(path, [1, -1])])
    assert on_banana.doubled == on_path.doubled
    assert not on_banana.same_lattice_as(on_path)
    twin = MultiGraph(banana.vertices, banana.edges)
    assert on_banana.same_lattice_as(lattice_from_vectors(twin, [CochainVector(twin, [1, -1])]))


def test_lattice_membership_makes_no_hermite_pass(monkeypatch):
    from prymdice import exactmat, prym

    g, iota = build_cover()
    lattice = x_minus(g, iota)
    vectors = lattice.basis_vectors()
    outside = CochainVector(g, [Fraction(1, 2)] + [0] * (g.num_edges - 1))
    original = exactmat.hnf_basis
    calls = []

    def counted(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(exactmat, "hnf_basis", counted)
    monkeypatch.setattr(prym, "hnf_basis", counted)
    assert lattice.contains(vectors[0] + vectors[1])
    assert not lattice.contains(outside)
    assert calls == []


def test_prym_dicing_makes_one_hermite_pass_at_orbit_width(monkeypatch):
    from prymdice import exactmat

    g, iota = build_cover()
    original = exactmat.hnf_basis
    calls = []

    def counted(m):
        calls.append((m.rows, m.cols))
        return original(m)

    monkeypatch.setattr(exactmat, "hnf_basis", counted)
    monkeypatch.setattr(prym, "hnf_basis", counted)
    prym_dicing(g, iota)
    # the Segre cover has b1 = 11 and 20 edges in 10 orbits, and only
    # b1(G/iota) = 6 of its fundamental cycles reach the pass
    assert calls == [(6, 10)]


def test_x_minus_feeds_b1_of_the_quotient_rows_to_its_hermite_pass(monkeypatch):
    # on these free covers no orbit joins two invariant trees of the forest,
    # so each kept cycle closes a cycle of the quotient; on any cover an
    # orbit keeps at most one cycle
    original = prym.hnf_basis
    rows = []

    def counted(m):
        rows.append(m.rows)
        return original(m)

    monkeypatch.setattr(prym, "hnf_basis", counted)
    free = _k5_cover_classes() + list(census_covers()) + [build_cover()]
    for g, iota in free:
        assert iota.is_fixed_point_free()
        rows.clear()
        x_minus(g, iota)
        assert rows == [betti_number(involution_quotient(g, iota))], g.edges
    for g, iota in _small_covers():
        rows.clear()
        x_minus(g, iota)
        assert len(rows) == 1 and rows[0] <= len(iota.edge_orbits), g.edges


def test_x_minus_walks_the_forest_once_through_the_module_global(monkeypatch):
    # the tampering test and the benchmark tracer rebind
    # prym.fundamental_cycle_rows, so x_minus must reach the walk there
    g, iota = build_cover()
    real = prym.fundamental_cycle_rows
    calls = []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(prym, "fundamental_cycle_rows", counted)
    x_minus(g, iota)
    assert calls == [g]


def test_prym_dicing_reads_its_lattice_through_the_module_x_minus(monkeypatch):
    # the benchmark tracer times the lattice by rebinding prym.x_minus
    g, iota = build_cover()
    calls = []

    def counted(*args):
        calls.append(args)
        return x_minus(*args)

    monkeypatch.setattr(prym, "x_minus", counted)
    prym_dicing(g, iota)
    assert calls == [(g, iota)]


def test_half_lattice_reduces_dependent_generators():
    g, iota = build_cover()
    lattice = x_minus(g, iota)
    rows = lattice.doubled.row_list()
    generators = [[sum(col) for col in zip(*rows)]] + rows[::-1] + [[0] * g.num_edges]
    regen = HalfLattice(g, IntMatrix.from_rows(generators))
    assert regen.rank == lattice.rank == 5
    assert regen.doubled == lattice.doubled
    assert regen.same_lattice_as(lattice)


def test_segre_dicing_is_tu_and_family_independent():
    g, iota = build_cover()
    dicing = prym_dicing(g, iota)
    assert dicing.family_independent
    assert is_totally_unimodular(dicing.system).is_tu


def _involutions_of(graph):
    """All involutive automorphisms of a small multigraph (brute force)."""
    verts = list(graph.vertices)
    n = len(verts)

    def vertex_involutions(i, vmap):
        if i == n:
            yield dict(vmap)
            return
        v = verts[i]
        if v in vmap:
            yield from vertex_involutions(i + 1, vmap)
            return
        vmap[v] = v
        yield from vertex_involutions(i + 1, vmap)
        del vmap[v]
        for w in verts[i + 1 :]:
            if w not in vmap:
                vmap[v], vmap[w] = w, v
                yield from vertex_involutions(i + 1, vmap)
                del vmap[v], vmap[w]

    for vmap in vertex_involutions(0, {}):
        # group edges by the orbit of their endpoint pairs
        labels = list(graph.edge_labels)
        target = {}
        ok = True
        for lab in labels:
            t, h = graph.endpoints(lab)
            target[lab] = frozenset({vmap[t], vmap[h]})
        by_pair = {}
        for lab in labels:
            t, h = graph.endpoints(lab)
            by_pair.setdefault(frozenset({t, h}), []).append(lab)

        def edge_maps(idx, emap):
            if idx == len(labels):
                yield dict(emap)
                return
            lab = labels[idx]
            if lab in emap:
                yield from edge_maps(idx + 1, emap)
                return
            for cand in by_pair.get(target[lab], []):
                if cand in emap.values() and emap.get(cand) != lab:
                    continue
                if cand == lab:
                    emap[lab] = lab
                    yield from edge_maps(idx + 1, emap)
                    del emap[lab]
                elif cand not in emap:
                    back = graph.endpoints(cand)
                    if frozenset({vmap[back[0]], vmap[back[1]]}) == frozenset(
                        graph.endpoints(lab)
                    ):
                        emap[lab], emap[cand] = cand, lab
                        yield from edge_maps(idx + 1, emap)
                        del emap[lab], emap[cand]

        for emap in edge_maps(0, {}):
            try:
                yield GraphInvolution(graph, vmap, emap)
            except GraphError:
                continue


def _free_double_cover(g):
    """Two disjoint copies of a graph with the swap involution."""
    verts = [v + ".0" for v in g.vertices] + [v + ".1" for v in g.vertices]
    edges = []
    for lab, t, h in g.edges:
        edges.append((lab + ".0", t + ".0", h + ".0"))
        edges.append((lab + ".1", t + ".1", h + ".1"))
    cover = MultiGraph(verts, edges)
    vmap = {}
    for v in g.vertices:
        vmap[v + ".0"], vmap[v + ".1"] = v + ".1", v + ".0"
    emap = {}
    for lab, _, _ in g.edges:
        emap[lab + ".0"], emap[lab + ".1"] = lab + ".1", lab + ".0"
    return cover, GraphInvolution(cover, vmap, emap)


def test_family_independent_dicings_are_tu_over_small_corpus():
    from prymdice import enumerate_graphs as eg

    checked = 0
    cases = []
    for m in range(1, 5):
        for g in eg.connected_multigraphs_any_order(m, loops=True):
            cases.extend((g, iota) for iota in _involutions_of(g))
    # free double covers reach up to 10 edges
    for m in range(1, 6):
        for g in eg.connected_multigraphs_any_order(m, loops=True):
            cases.append(_free_double_cover(g))
    for g, iota in cases:
        lattice = x_minus(g, iota)
        if lattice.rank == 0:
            continue
        dicing = prym_dicing(g, iota)
        if dicing.family_independent:
            assert is_totally_unimodular(dicing.system).is_tu, (g.edges, iota.vertex_map)
            checked += 1
    assert checked > 50


# --- seeded covers: the Vologodsky oracle and the pinned Prym pipeline -------

def _random_base(rng, nverts, extra, loops=False):
    """A connected base graph: a random tree plus ``extra`` edges, which may
    be parallel to others (and loops when asked)."""
    base = [f"p{i}" for i in range(nverts)]
    edges = [(base[rng.randrange(k)], base[k]) for k in range(1, nverts)]
    for _ in range(extra):
        t = rng.choice(base)
        h = t if loops and rng.random() < 0.2 else rng.choice(base)
        edges.append((t, h))
    return base, [(h, t) if rng.random() < 0.5 else (t, h) for t, h in edges]


def _random_involution_graph(rng):
    """A small graph with an involution: fixed and swapped vertices, fixed
    edges (kept or reversed), swapped edges, loops and parallel edges."""
    nfixed = rng.randint(0, 2)
    npairs = rng.randint(0 if nfixed else 1, 3)
    fixed = [f"f{i}" for i in range(nfixed)]
    pairs = [(f"s{i}.0", f"s{i}.1") for i in range(npairs)]
    vertices = fixed + [v for pair in pairs for v in pair]
    vmap = {v: v for v in fixed}
    for a, b in pairs:
        vmap[a], vmap[b] = b, a
    edges, emap = [], {}
    for k in range(rng.randint(3, 9)):
        if rng.random() < 0.3:
            # an edge the involution fixes: between fixed vertices (a loop
            # when they agree) or across a swapped pair, reversed
            if fixed and (not pairs or rng.random() < 0.5):
                edges.append((f"e{k}", rng.choice(fixed), rng.choice(fixed)))
            else:
                a, b = rng.choice(pairs)
                edges.append((f"e{k}", a, b))
            emap[f"e{k}"] = f"e{k}"
        else:
            t, h = rng.choice(vertices), rng.choice(vertices)
            if rng.random() < 0.2:
                h = t
            image = (vmap[t], vmap[h]) if rng.random() < 0.5 else (vmap[h], vmap[t])
            edges += [(f"e{k}", t, h), (f"e{k}'", *image)]
            emap[f"e{k}"], emap[f"e{k}'"] = f"e{k}'", f"e{k}"
    return shuffled_graph(rng, vertices, edges, vmap, emap)


def _small_covers():
    """Seeded small graphs with involutions, sized for the oracle."""
    rng = seeded_rng(70)
    out = [_random_involution_graph(rng) for _ in range(160)]
    for _ in range(60):
        base, edges = _random_base(rng, rng.randint(1, 5), rng.randint(0, 4), loops=True)
        cocycle = [0] * len(edges) if rng.random() < 0.3 else [rng.randrange(2) for _ in edges]
        out.append(double_cover(rng, base, edges, cocycle))
    for _ in range(40):
        base, edges = _random_base(rng, rng.randint(5, 7), rng.randint(2, 4))
        out.append(double_cover(rng, base, edges, [rng.randrange(2) for _ in edges]))
    return out


def _verdict(result):
    w = result.witness
    return result.passed, None if w is None else (w.subgraph_0, w.subgraph_1, w.connecting_edges)


def _assert_agrees_with_oracle(g, iota, verdict):
    """``verdict`` passes exactly when the definition oracle's does, and a
    failing one carries a witness that checks out against its definition."""
    passed, witness = verdict
    assert passed == vologodsky_by_definition(g.vertices, g.edges, iota.vertex_map)[0], g.edges
    assert (witness is None) == passed, g.edges
    if witness is not None:
        assert vologodsky_witness_problem(g.vertices, g.edges, iota.vertex_map, witness) is None, g.edges


def _connected(g, vset):
    inside = [e for e in g.edges if e[1] in vset and e[2] in vset]
    return len(components(MultiGraph(list(vset), inside))) == 1


def _is_split(g, part, rest):
    """Whether ``part`` and ``rest``, the rest of its component, are both
    connected and joined by at least four edges."""
    joining = [lab for lab, t, h in g.edges if (t in part) != (h in part)]
    return _connected(g, part) and _connected(g, rest) and len(joining) >= 4


def _pendant_orbits(g, iota):
    """The vertex orbits of invariant components with exactly one
    neighbouring orbit, each with its component."""
    orbit = {v: frozenset((v, iota.vertex_map[v])) for v in g.vertices}
    touching = {o: set() for o in orbit.values()}
    for _, t, h in g.edges:
        if orbit[t] != orbit[h]:
            touching[orbit[t]].add(orbit[h])
            touching[orbit[h]].add(orbit[t])
    # an orbit inside a component makes the component invariant
    return [(o, comp) for comp in components(g) for o in {orbit[v] for v in comp}
            if o <= comp and len(touching[o]) == 1]


def _assert_orbits(orbits, images):
    """``orbits`` are the orbits of i -> ``images[i]``: each index once, each
    orbit led by its least index, and the orbits in leader order."""
    assert sorted(itertools.chain.from_iterable(orbits)) == list(range(len(images)))
    for orbit in orbits:
        assert orbit == tuple(sorted({orbit[0], images[orbit[0]]}))
    leaders = [orbit[0] for orbit in orbits]
    assert leaders == sorted(set(leaders))


def test_involution_orbits_match_the_oracle_and_the_edge_action():
    seen = dict.fromkeys(["fixed vertex", "fixed edge"], 0)
    for g, iota in _small_covers() + list(census_covers()):
        oracle_orbits, _, _ = _orbits_and_connectivity(g.vertices, g.edges, iota.vertex_map)
        assert [{g.vertices[i] for i in orbit} for orbit in iota.vertex_orbits] == oracle_orbits
        index = {v: i for i, v in enumerate(g.vertices)}
        _assert_orbits(iota.vertex_orbits, [index[iota.vertex_map[v]] for v in g.vertices])
        _assert_orbits(iota.edge_orbits, [k for k, _ in iota.edge_action])
        seen["fixed vertex"] += any(len(orbit) == 1 for orbit in iota.vertex_orbits)
        seen["fixed edge"] += any(len(orbit) == 1 for orbit in iota.edge_orbits)
    assert min(seen.values()) >= 20, seen


def test_vologodsky_matches_definition_oracle_on_small_covers():
    covers = _small_covers()
    seen = {"failed": 0, "fixed vertex": 0, "fixed edge": 0, "reversed edge": 0,
            "loop": 0, "parallel": 0, "disconnected": 0, "pendant orbit": 0, "pendant split": 0}
    for g, iota in covers:
        verdict = _verdict(vologodsky_check(g, iota))
        _assert_agrees_with_oracle(g, iota, verdict)
        pendants = _pendant_orbits(g, iota)
        seen["pendant orbit"] += bool(pendants)
        # the split that the pendant reduction checks directly
        seen["pendant split"] += any(_is_split(g, o, comp - o) for o, comp in pendants)
        seen["failed"] += not verdict[0]
        seen["fixed vertex"] += any(iota.vertex_map[v] == v for v in g.vertices)
        fixed_signs = [s for j, (k, s) in enumerate(iota.edge_action) if k == j]
        seen["fixed edge"] += 1 in fixed_signs
        seen["reversed edge"] += -1 in fixed_signs
        seen["loop"] += any(t == h for _, t, h in g.edges)
        seen["parallel"] += len({frozenset((t, h)) for _, t, h in g.edges}) < g.num_edges
        seen["disconnected"] += len(components(g)) > 1
    assert min(seen.values()) >= 10, seen
    assert seen["failed"] < len(covers) - 10


def test_vologodsky_verdicts_on_census_covers_are_pinned():
    # recorded with the earlier scan, which tested every orbit mask for
    # connectivity with set-based searches; the witnesses are not pinned,
    # each is checked against its definition instead
    verdicts = []
    for g, iota in census_covers():
        passed, witness = _verdict(vologodsky_check(g, iota))
        if witness is not None:
            assert vologodsky_witness_problem(g.vertices, g.edges, iota.vertex_map, witness) is None
        verdicts.append(passed)
    assert verdicts.count(False) == 13
    assert hashlib.sha256(repr(verdicts).encode()).hexdigest() == (
        "4afa327d6943fcb3d843a5bee4febf27b51955a3d6db745f74778fa749b97a61"
    )


def test_vologodsky_witnesses_are_pinned():
    # the first witness the search meets, not only the verdict: recorded
    # with the walk over cover-vertex bitmasks, before it moved to units
    def encoded(result):
        w = result.witness
        return result.passed, None if w is None else (
            sorted(w.subgraph_0), sorted(w.subgraph_1), list(w.connecting_edges))

    for covers, failing, digest in (
        (list(census_covers()), 13,
         "0bbb44002549433cd7b021e80cd89c4ffbd6884b295154c66923741061ac5186"),
        (_small_covers(), 49,
         "672179960935ad1707f44c47760bd356131b7f8341fb1c75bf43b13489b3a0c9"),
    ):
        results = [encoded(vologodsky_check(g, iota)) for g, iota in covers]
        assert [passed for passed, _ in results].count(False) == failing
        assert hashlib.sha256(repr(results).encode()).hexdigest() == digest


def test_bipartition_lemma_matches_definition_oracle():
    for g, iota in _small_covers() + list(census_covers()):
        passed, _ = vologodsky_by_definition(g.vertices, g.edges, iota.vertex_map)
        assert vologodsky_by_bipartition(g.vertices, g.edges, iota.vertex_map) == passed, g.edges


def test_tu_and_vologodsky_agree_on_free_covers_only():
    # over the census (free involutions) a Prym dicing is TU exactly when
    # the check passes; over the small covers some TU dicings fail it, and
    # each of those involutions fixes a vertex and an edge
    def tally(covers):
        counts, tu_failing = {}, []
        for g, iota in covers:
            if x_minus(g, iota).rank == 0:
                continue
            dicing = prym_dicing(g, iota)
            key = (is_totally_unimodular(dicing.system).is_tu, dicing.family_independent)
            counts[key] = counts.get(key, 0) + 1
            if key == (True, False):
                tu_failing.append((g, iota))
        return counts, tu_failing

    assert tally(census_covers()) == ({(True, True): 187, (False, False): 13}, [])
    counts, tu_failing = tally(_small_covers())
    assert counts == {(True, True): 183, (False, False): 42, (True, False): 7}
    for g, iota in tu_failing:
        assert any(iota.vertex_map[v] == v for v in g.vertices), g.edges
        assert any(iota.edge_map[lab] == lab for lab in g.edge_labels), g.edges


def _disjoint_union(*covers):
    """The disjoint union of graphs with involutions, names prefixed by position."""
    vertices, edges, vmap, emap = [], [], {}, {}
    for n, (g, iota) in enumerate(covers):
        vertices += [f"{n}{v}" for v in g.vertices]
        edges += [(f"{n}{lab}", f"{n}{t}", f"{n}{h}") for lab, t, h in g.edges]
        vmap.update({f"{n}{v}": f"{n}{w}" for v, w in iota.vertex_map.items()})
        emap.update({f"{n}{a}": f"{n}{b}" for a, b in iota.edge_map.items()})
    g = MultiGraph(vertices, edges)
    return g, GraphInvolution(g, vmap, emap)


def _swapped_copies(g):
    """Two copies of ``g`` exchanged by the involution."""
    vertices = [f"{v}.{s}" for s in (0, 1) for v in g.vertices]
    edges = [(f"{lab}.{s}", f"{t}.{s}", f"{h}.{s}") for s in (0, 1) for lab, t, h in g.edges]
    double = MultiGraph(vertices, edges)
    vswap, eswap = ({f"{x}.{s}": f"{x}.{1 - s}" for s in (0, 1) for x in names}
                    for names in (g.vertices, g.edge_labels))
    return double, GraphInvolution(double, vswap, eswap)


def test_vologodsky_checks_every_invariant_component():
    splitting = _two_triangles_joined_by_four()
    # orbit 0 is a fixed vertex with four loops: an invariant component
    # that cannot split
    loops = MultiGraph(["x"], [(f"l{k}", "x", "x") for k in range(4)])
    lonely = (loops, GraphInvolution.identity(loops))
    # each copy would split if the involution fixed it
    swapped = _swapped_copies(splitting[0])
    for (g, iota), passes in (
        (_disjoint_union(lonely, splitting), False),
        (_disjoint_union(lonely, swapped, splitting), False),
        (swapped, True),
        (_disjoint_union(lonely, swapped), True),
    ):
        verdict = _verdict(vologodsky_check(g, iota))
        assert verdict[0] == passes
        _assert_agrees_with_oracle(g, iota, verdict)


def _all_splits(g, iota):
    """Every split of an invariant component into two connected invariant
    parts joined by at least four edges, by brute force over orbit sets."""
    found = set()
    for comp in components(g):
        orbits = list({frozenset((v, iota.vertex_map[v])) for v in comp})
        if not all(o <= comp for o in orbits):
            continue
        for r in range(1, len(orbits)):
            for chosen in itertools.combinations(orbits, r):
                part = frozenset().union(*chosen)
                if _is_split(g, part, comp - part):
                    found.add(frozenset((part, comp - part)))
    return found


def _verdict_and_walks(g, iota):
    """The verdict of ``vologodsky_check``, and how many union walks it
    started to reach it."""
    walks = 0
    real_walk = prym._unions_from

    def walk(*args):
        nonlocal walks
        walks += 1
        return real_walk(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(prym, "_unions_from", walk)
        verdict = _verdict(vologodsky_check(g, iota))
    return verdict, walks


def _hexagon_with_pendant_hub():
    """A hexagon with the half-turn as involution, and a fixed vertex z
    joined by two edges to each vertex of one antipodal pair."""
    ring = ["p.0", "q.0", "r.0", "p.1", "q.1", "r.1"]
    edges = [(f"h{k}", ring[k], ring[(k + 1) % 6]) for k in range(6)]
    edges += [(f"z{k}", "z", ("p.0", "p.1")[k % 2]) for k in range(4)]
    g = MultiGraph(["z"] + ring, edges)
    vmap = {v: ring[(k + 3) % 6] for k, v in enumerate(ring)} | {"z": "z"}
    emap = {f"h{k}": f"h{(k + 3) % 6}" for k in range(6)} | {f"z{k}": f"z{k ^ 1}" for k in range(4)}
    return g, GraphInvolution(g, vmap, emap)


def test_a_pendant_unit_that_splits_off_fails_before_any_walk():
    # z's orbit is pendant in the orbit quotient (a triangle with a tail);
    # a hexagon less an antipodal pair falls apart, so {z} against the
    # hexagon is the only split
    g, iota = _hexagon_with_pendant_hub()
    hexagon = frozenset(g.vertices) - {"z"}
    assert _all_splits(g, iota) == {frozenset((frozenset({"z"}), hexagon))}
    verdict, walks = _verdict_and_walks(g, iota)
    _assert_agrees_with_oracle(g, iota, verdict)
    assert not verdict[0] and walks == 0
    # the witness is that split, the part holding the first vertex, z, first
    assert verdict[1][:2] == (frozenset({"z"}), hexagon)
    # without z the hexagon has no split and its one walk finds none
    rest = MultiGraph(sorted(hexagon), [e for e in g.edges if "z" not in e[1:]])
    ring_iota = GraphInvolution(rest, {v: iota.vertex_map[v] for v in hexagon},
                                {lab: iota.edge_map[lab] for lab in rest.edge_labels})
    assert _verdict_and_walks(rest, ring_iota) == ((True, None), 1)


def test_tree_quotients_merge_to_one_unit_without_a_walk():
    # a twisted loop at every base vertex joins each orbit's two vertices,
    # so the orbit quotient of the cover is the base tree; one tree edge
    # lifts to two edges, and a doubled one cuts four
    rng = seeded_rng(72)
    base = [f"p{i}" for i in range(6)]
    tree = [("p0", "p1"), ("p1", "p2"), ("p1", "p3"), ("p3", "p4"), ("p3", "p5")]
    covers = [_two_triangles_joined_by_four()]
    for doubled in ([], [("p3", "p4")], [("p1", "p3")], [("p0", "p1"), ("p3", "p5")]):
        edges = [(v, v) for v in base] + tree + doubled
        cocycle = [1] * len(base) + [rng.randrange(2) for _ in tree + doubled]
        covers.append(double_cover(rng, base, edges, cocycle))
    verdicts = []
    for g, iota in covers:
        verdict, walks = _verdict_and_walks(g, iota)
        _assert_agrees_with_oracle(g, iota, verdict)
        assert walks == 0
        verdicts.append(verdict[0])
    assert verdicts == [False, True, False, False, False]


def test_verdict_walk_yields_a_pinned_union_count_over_census_covers(monkeypatch):
    # merging pendant units first: the walk yielded 9,504 unions over these
    # covers (8,715 on the sparse ones) when it ran over single orbits
    yielded = 0
    real_walk = prym._unions_from

    def walk(*args):
        nonlocal yielded
        for union in real_walk(*args):
            yielded += 1
            yield union

    monkeypatch.setattr(prym, "_unions_from", walk)
    for g, iota in census_covers():
        vologodsky_check(g, iota)
    assert yielded == 3490


def test_x_minus_matches_projected_cycle_generators():
    # against every fundamental cycle of the default forest, projected; the
    # empty graph, an isolated vertex, a loop-only vertex and a swapped
    # parallel pair with a fixed loop check that the index walk gives a
    # vertex on no forest edge a path and a loop a cycle of its own
    pair = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v"), ("l", "u", "u")])
    degenerate = [
        (g, GraphInvolution.identity(g))
        for g in (MultiGraph([], []), MultiGraph(["u"], []), MultiGraph(["u"], [("l", "u", "u")]))
    ] + [(pair, GraphInvolution(pair, {"u": "u", "v": "v"}, {"e": "f", "f": "e", "l": "l"}))]
    covers = (
        list(census_covers()) + _small_covers() + _k5_cover_classes() + [build_cover()]
        + degenerate
    )
    for g, iota in covers:
        lattice = x_minus(g, iota)
        projected = [pi_minus(iota, h) for h in cycle_basis(g).basis]
        assert lattice.doubled == lattice_from_vectors(g, projected).doubled, g.edges
    assert [x_minus(g, iota).rank for g, iota in degenerate] == [0, 0, 0, 1]
    assert [cycle_basis(g).rows for g, _ in degenerate] == [
        (), (), ((1,),), ((-1, 1, 0), (0, 0, 1)),
    ]


def _full_width_dicing(g, iota):
    """Multipliers, matrix, column edges and dropped edges of the Prym
    dicing computed on every edge coordinate: the projected cycles'
    lattice, then one column per edge before collapsing."""
    lattice = lattice_from_vectors(g, [pi_minus(iota, h) for h in cycle_basis(g).basis])
    mult = multipliers(lattice)
    rows = [[x * m // 2 for x, m in zip(row, mult.values)] for row in lattice.doubled.row_list()]
    return (mult, *collapse_columns(rows, g.edge_labels))


def test_orbit_dicing_matches_the_full_width_reference_on_small_covers():
    # fixed vertices, fixed edges of both signs, loops and disconnected covers
    checked = 0
    for g, iota in _small_covers():
        if x_minus(g, iota).rank == 0:
            continue
        dicing = prym_dicing(g, iota)
        assert hnf_basis(dicing.lattice.doubled) == dicing.lattice.doubled
        found = (
            dicing.multipliers, dicing.system.matrix, dicing.column_edges, dicing.dropped_edges,
        )
        assert found == _full_width_dicing(g, iota), g.edges
        checked += 1
    assert checked == 232


def _k5_cover_classes():
    """One double cover of K5 per cocycle class modulo coboundaries: a class
    is fixed by its values off the spanning star at p0, here zero on it."""
    rng = seeded_rng(72)
    base = [f"p{i}" for i in range(5)]
    edges = [(base[i], base[j]) for i in range(5) for j in range(i + 1, 5)]
    off_star = [k for k, (t, _) in enumerate(edges) if t != "p0"]
    covers = []
    for values in itertools.product((0, 1), repeat=len(off_star)):
        cocycle = [0] * len(edges)
        for k, value in zip(off_star, values):
            cocycle[k] = value
        covers.append(double_cover(rng, base, edges, cocycle))
    return covers


def test_prym_pipeline_on_every_k5_cover_class_is_pinned():
    # every class the k5_cover benchmark draws; recorded with the full-width
    # x_minus, which reduced all 20 edge coordinates
    shapes, equivalent, found = Counter(), 0, []
    for g, iota in _k5_cover_classes():
        dicing = prym_dicing(g, iota)
        system = dicing.system
        shapes[system.dim, system.size] += 1
        assert is_totally_unimodular(system).is_tu
        assert dicing.family_independent
        if system.dim == 5 and systems_equivalent(system, e5()) is not None:
            equivalent += 1
        doubled = dicing.lattice.doubled
        found.append((
            doubled.rows, doubled.entries, dicing.multipliers.values,
            system.matrix, dicing.column_edges, dicing.dropped_edges,
        ))
    assert shapes == {(5, 8): 15, (5, 9): 25, (5, 10): 23, (6, 10): 1}
    assert equivalent == 1
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "ef1fbceb9d954268ce2615666d58397c165ffbe1b088684d5cd06cd171a79b43"
    )


def test_prym_pipeline_on_census_covers_is_pinned():
    # recorded with the earlier x_minus, which projected every cycle through
    # Fraction arithmetic
    found = []
    for g, iota in census_covers():
        dicing = prym_dicing(g, iota)
        doubled = dicing.lattice.doubled
        found.append((
            doubled.rows, doubled.entries, dicing.multipliers.values,
            dicing.system.matrix, dicing.column_edges, dicing.dropped_edges,
        ))
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "b5b6ec918fd73bea3546c8ec873cf58f191c7020fa36610877a1d2eed313a5b9"
    )


def test_each_malformed_prym_input_is_refused_with_its_message():
    g = MultiGraph(["a", "b"], [("e", "a", "b"), ("f", "a", "b")])
    other = MultiGraph(["a", "b"], [("e", "a", "b")])
    cases = [
        (lambda: HalfLattice(g, IntMatrix(1, 3, (0, 0, 0))),
         "basis width does not match the graph's edge count"),
        (lambda: MultiplierVector(["e"], [1, 2]), "multiplier count does not match edge count"),
        (lambda: MultiplierVector(["e", "f"], [1, 3]), "multipliers must be 0, 1 or 2"),
        (lambda: vologodsky_check(g, GraphInvolution.identity(other)),
         "involution belongs to a different graph"),
    ]
    for build, message in cases:
        with pytest.raises(GraphError) as err:
            build()
        assert str(err.value) == message
