import hashlib
import os
import subprocess
import sys

import prymdice
from prymdice import enumerate_graphs as eg
from prymdice.graph import MultiGraph, components
from prymdice.homology import betti_number
from prymdice.unimod import e5, is_cographic

from conftest import seeded_rng
from oracles import (
    brute_force_multigraph_classes,
    canonical_pair_graph,
    compositions_by_brute_force,
    isomorphic_by_degree_classes,
    isomorphisms_by_brute_force,
)


def _automorphisms(pairs, nverts):
    # every automorphism once, as vertex permutations perm[v]
    return eg._group(*eg._canonical_search(pairs, nverts)[1:])


def _as_pairs(G):
    index = {v: i for i, v in enumerate(G.vertices)}
    return tuple(sorted(tuple(sorted((index[t], index[h]))) for (_, t, h) in G.edges))


def test_connected_simple_graph_counts():
    assert len(eg.connected_simple_graphs(4, 3)) == 2  # path, star
    assert len(eg.connected_simple_graphs(4, 4)) == 2  # cycle, triangle+pendant
    assert len(eg.connected_simple_graphs(5, 4)) == 3  # trees on five vertices
    assert len(eg.connected_simple_graphs(6, 5)) == 6  # trees on six vertices
    assert len(eg.connected_simple_graphs(6, 10)) == 14
    assert eg.connected_simple_graphs(3, 3) == (((0, 1), (0, 2), (1, 2)),)
    # no vertex or a negative edge count: without its guard, (0, 0)
    # recurses to C(-1, 2) and raises
    assert eg.connected_simple_graphs(0, 0) == ()
    assert eg.connected_simple_graphs(3, -1) == ()
    assert eg.connected_simple_graphs(-1, 0) == ()


def test_connected_simple_graphs_are_pinned():
    # recorded before each support carried its automorphism group and
    # before augmentations were pruned by orbit; the totals per vertex
    # count are OEIS A001349
    digest = hashlib.sha256()
    totals = []
    for nverts in range(1, 8):
        totals.append(0)
        for nedges in range(22):
            graphs = eg.connected_simple_graphs(nverts, nedges)
            totals[-1] += len(graphs)
            digest.update(repr((nverts, nedges, graphs)).encode())
    assert totals == [1, 1, 2, 6, 21, 112, 853]
    assert digest.hexdigest() == (
        "d1bfbbbabcedbce35d93c2c1fe89c0c8292aa6a2a5c9370e8f99d44b784c9650"
    )


def test_carried_groups_match_a_fresh_search():
    for nverts in range(1, 7):
        for nedges in range(nverts - 1, nverts * (nverts - 1) // 2 + 1):
            for pairs, actions in eg._supports(nverts, nedges):
                perms = eg._vertex_perms(pairs, actions)
                assert perms[0] == list(range(nverts))
                carried = {tuple(p) for p in perms}
                assert len(carried) == len(actions)
                assert carried == set(_automorphisms(pairs, nverts))


def _adjacency(pairs, nverts):
    # the neighbour bitmasks that the canonical search hands to the refinement
    adj = [0] * nverts
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _is_simple(pairs):
    return all(u < v for u, v in pairs) and len(set(pairs)) == len(pairs)


def test_refinement_is_equitable_and_commutes_with_relabelling():
    rng = seeded_rng(22)
    for _ in range(400):
        nverts = rng.randint(1, 8)
        slots = [(u, v) for u in range(nverts) for v in range(u + 1, nverts)]
        pairs = tuple(sorted(rng.sample(slots, rng.randint(0, len(slots)))))
        # a random start colouring, ranked to colours 0..k-1
        ncolours = rng.randint(1, nverts)
        drawn = [rng.randrange(ncolours) for _ in range(nverts)]
        ranks = {c: i for i, c in enumerate(sorted(set(drawn)))}
        colour = [ranks[c] for c in drawn]
        refined = eg._refine(colour, _adjacency(pairs, nverts))
        assert sorted(set(refined)) == list(range(len(set(refined))))
        # the neighbours of a vertex in each cell
        counts = [[0] * nverts for _ in range(nverts)]
        for u, v in pairs:
            counts[u][refined[v]] += 1
            counts[v][refined[u]] += 1
        for u in range(nverts):
            for v in range(u):
                if refined[u] == refined[v]:
                    assert colour[u] == colour[v]
                    assert counts[u] == counts[v]
        # relabelling the graph and its colouring permutes the refinement
        # the same way
        sigma = list(range(nverts))
        rng.shuffle(sigma)
        moved = tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for u, v in pairs))
        moved_colour = [0] * nverts
        for v in range(nverts):
            moved_colour[sigma[v]] = colour[v]
        moved_refined = eg._refine(moved_colour, _adjacency(moved, nverts))
        assert [moved_refined[sigma[v]] for v in range(nverts)] == refined


def test_cold_e5_search_makes_no_second_search_per_support():
    # a fresh interpreter, so the enumerator's caches start cold; a second
    # search per support (the group found again) would raise the count, and
    # would come from outside the deduplication that admits the support
    src = os.path.dirname(os.path.dirname(prymdice.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    probe = """
from prymdice import enumerate_graphs as eg
from prymdice.unimod import e5, is_cographic
import sys
calls = {"searches": 0, "outside _dedup": 0}
original = eg._canonical_search
def counted(*args):
    calls["searches"] += 1
    if sys._getframe(1).f_code.co_name != "_dedup":
        calls["outside _dedup"] += 1
    return original(*args)
eg._canonical_search = counted
r = is_cographic(e5()).report
print(calls["searches"], calls["outside _dedup"],
      r.graphs_tried, r.connected_tried, r.disconnected_tried, r.forest_count_matches)
"""
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.split() == ["400", "0", "3761", "2445", "1316", "0"]


def test_canonical_search_sees_only_simple_graphs(monkeypatch):
    # every multigraph is a simple support plus a weight orbit, and the
    # canonical search is written for simple graphs alone
    searched = []
    original = eg._canonical_search

    def recorded(pairs, nverts):
        searched.append(pairs)
        return original(pairs, nverts)

    monkeypatch.setattr(eg, "_canonical_search", recorded)
    for cached in (eg._supports, eg.connected_multigraphs, eg._counted_reps):
        cached.cache_clear()
    for m in range(1, 7):
        list(eg.all_multigraphs(m, loops=True))
    is_cographic(e5())
    assert searched
    assert all(_is_simple(pairs) for pairs in searched)


def test_loopless_enumeration_is_cached_once():
    # lru_cache keys a call by how its arguments are spelled, so the two
    # loopless callers must spell it alike to share one entry
    eg.connected_multigraphs.cache_clear()
    list(eg.connected_multigraphs_any_order(6))
    misses = eg.connected_multigraphs.cache_info().misses
    eg._counted_reps.__wrapped__((6, 3))
    assert eg.connected_multigraphs.cache_info().misses == misses


def test_compositions_match_brute_force_order():
    for total in range(7):
        for parts in range(7):
            assert list(eg._compositions(total, parts)) == compositions_by_brute_force(
                total, parts
            )


def test_connected_multigraph_hand_counts():
    # 1 edge: single edge; 2: path, doubled edge; 3: triangle, path,
    # star, doubled+pendant, tripled edge
    counts = [len(list(eg.connected_multigraphs_any_order(m))) for m in (1, 2, 3)]
    assert counts == [1, 2, 5]


def test_connected_multigraphs_match_brute_force():
    for nverts in (2, 3, 4):
        for nedges in range(nverts - 1, 6):
            mine = set(eg.connected_multigraphs(nedges, nverts))
            brute = brute_force_multigraph_classes(
                nverts, nedges, loops=False, connected=True
            )
            canon_mine = {canonical_pair_graph(p, nverts) for p in mine}
            assert len(canon_mine) == len(mine), "enumerator emitted duplicates"
            assert canon_mine == brute


def test_connected_multigraphs_with_loops_match_brute_force():
    # K4, stars and paths have multiplicity patterns with a proper
    # stabiliser, so the loop counts are reduced under a subgroup
    for nverts in (1, 2, 3, 4):
        for nedges in range(max(1, nverts - 1), 7):
            mine = set(eg.connected_multigraphs(nedges, nverts, loops=True))
            brute = brute_force_multigraph_classes(
                nverts, nedges, loops=True, connected=True
            )
            canon_mine = {canonical_pair_graph(p, nverts) for p in mine}
            assert len(canon_mine) == len(mine)
            assert canon_mine == brute


def test_cycle_space_rank_family_matches_brute_force():
    for nedges, rank in [(3, 1), (4, 2), (5, 2), (5, 3), (6, 3)]:
        mine = list(eg.multigraphs_with_cycle_space_rank(nedges, rank))
        seen = set()
        for G in mine:
            assert G.num_edges == nedges
            assert not any(G.is_loop(lab) for lab in G.edge_labels)
            assert G.num_vertices - len(components(G)) == rank
            assert all(G.degree(v) > 0 for v in G.vertices)
            key = canonical_pair_graph(_as_pairs(G), G.num_vertices)
            assert (G.num_vertices, key) not in seen, "duplicate candidate"
            seen.add((G.num_vertices, key))
        # brute force across all plausible labeled vertex counts: without
        # loops or isolated vertices every component has at least two
        # vertices, so |V| <= 2 * (|V| - #components) = 2 * rank
        brute = set()
        for nverts in range(2, 2 * rank + 1):
            for cls in brute_force_multigraph_classes(
                nverts, nedges, loops=False, rank=rank
            ):
                brute.add((nverts, cls))
        assert seen == brute
        if (nedges, rank) in ((3, 1), (4, 2)):
            assert not brute_force_multigraph_classes(
                2 * rank + 1, nedges, loops=False, rank=rank
            )


def test_all_multigraphs_includes_disconnected():
    graphs = list(eg.all_multigraphs(2, loops=False))
    # path, doubled edge, two disjoint edges
    assert len(graphs) == 3
    comp_counts = sorted(len(components(g)) for g in graphs)
    assert comp_counts == [1, 1, 2]


def test_all_multigraphs_with_loops_small():
    graphs = list(eg.all_multigraphs(2, loops=True))
    # connected: path, doubled edge, loop+edge, two loops on one vertex;
    # disconnected: edge+edge, edge+loop, loop+loop
    assert len(graphs) == 7


def test_enumeration_is_deterministic():
    a = [
        _as_pairs(g) for g in eg.multigraphs_with_cycle_space_rank(6, 3)
    ]
    b = [
        _as_pairs(g) for g in eg.multigraphs_with_cycle_space_rank(6, 3)
    ]
    assert a == b


def test_betti_of_rank_family():
    for G in eg.multigraphs_with_cycle_space_rank(6, 3):
        assert betti_number(G) == 6 - 3


def test_full_scale_family_contains_random_samples():
    # randomized completeness check at the scale the headline search uses:
    # every random labeled multigraph with 10 edges and incidence rank 5
    # must be isomorphic to some enumerated candidate; the isomorphism
    # oracle tries vertex permutations, not the package's canonical form
    def signature(G):
        degs = tuple(sorted(G.degree(v) for v in G.vertices))
        mult = {}
        for _, t, h in G.edges:
            key = frozenset((t, h))
            mult[key] = mult.get(key, 0) + 1
        return (G.num_vertices, tuple(sorted(mult.values())), degs)

    buckets = {}
    for G in eg.multigraphs_with_cycle_space_rank(10, 5):
        buckets.setdefault(signature(G), []).append(_as_pairs(G))

    rng = seeded_rng(99)
    found = 0
    while found < 150:
        nverts = rng.choice([6, 6, 6, 7, 8])  # bias to the connected shape
        verts = [f"w{i}" for i in range(nverts)]
        edges = []
        for k in range(10):
            u, v = rng.sample(verts, 2)
            edges.append((f"e{k}", u, v))
        G = MultiGraph(verts, edges)
        if any(G.degree(v) == 0 for v in G.vertices):
            continue
        if G.num_vertices - len(components(G)) != 5:
            continue
        found += 1
        candidates = buckets.get(signature(G), [])
        pairs = _as_pairs(G)
        assert any(
            isomorphic_by_degree_classes(pairs, rep, nverts) for rep in candidates
        ), f"random graph missing from enumeration: {G.edges}"


def _relabelled(rng, pairs, nverts):
    sigma = list(range(nverts))
    rng.shuffle(sigma)
    return tuple(sorted(tuple(sorted((sigma[u], sigma[v]))) for u, v in pairs))


def test_canonical_form_matches_brute_force_oracle():
    # the search sees only simple graphs: every simple graph with at most
    # 5 edges on at most 7 vertices, every connected simple graph on 6
    # vertices (where the cell to branch on first starts to matter), and
    # the symmetric graphs where the search branches most, each in two
    # random relabellings
    graphs = [
        (pairs, G.num_vertices)
        for m in range(1, 6)
        for G in eg.all_multigraphs(m)
        if G.num_vertices <= 7 and _is_simple(pairs := _as_pairs(G))
    ]
    assert len(graphs) == 39
    graphs += [(pairs, 6) for k in range(5, 16) for pairs in eg.connected_simple_graphs(6, k)]
    c6 = tuple(sorted([(i, i + 1) for i in range(5)] + [(0, 5)]))
    k4 = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    k15 = tuple((0, v) for v in range(1, 6))
    k33 = tuple((u, v) for u in range(3) for v in range(3, 6))
    named = [(c6, 6, 12), (k4, 4, 24), (k15, 6, 120), (k33, 6, 72)]
    graphs += [(pairs, nverts) for pairs, nverts, _ in named]
    for pairs, nverts, order in named:
        assert len(_automorphisms(pairs, nverts)) == order

    rng = seeded_rng(5)
    by_certificate, by_oracle = {}, {}
    copy_id = 0
    for pairs, nverts in graphs:
        for copy in (pairs, _relabelled(rng, pairs, nverts), _relabelled(rng, pairs, nverts)):
            certificate = eg._canonical_search(copy, nverts)[0]
            automorphisms = _automorphisms(copy, nverts)
            assert len(set(automorphisms)) == len(automorphisms)
            assert set(automorphisms) == set(isomorphisms_by_brute_force(copy, copy, nverts))
            by_certificate.setdefault((nverts, certificate), set()).add(copy_id)
            by_oracle.setdefault((nverts, canonical_pair_graph(copy, nverts)), set()).add(copy_id)
            copy_id += 1
    # equal certificates exactly when the oracle finds the graphs isomorphic
    assert {frozenset(ids) for ids in by_certificate.values()} == {
        frozenset(ids) for ids in by_oracle.values()
    }


def _digest(graphs):
    h = hashlib.sha256()
    for G in graphs:
        h.update(repr((G.vertices, G.edges)).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_enumeration_order_is_pinned():
    # recorded with the earlier VF2 deduplication: the same representatives
    # in the same order, down to vertex names and edge labels
    assert _digest(eg.multigraphs_with_cycle_space_rank(10, 5)) == (
        "f10b14ca101c7e45d81ed00c08c0be6e497db80b6787ef4a326ce2a464d54095"
    )
    assert _digest(
        G for m in range(1, 7) for G in eg.all_multigraphs(m, loops=True)
    ) == "c006186fa20890fc6752ac8899a05e8b5322bff4d8775ce48abfd6afa5529f9a"


def test_loopless_unions_and_connected_loop_shapes_are_pinned():
    # recorded before the orbit-least test and the shared representative
    # list: loopless disconnected shapes and connected shapes with loops
    assert _digest(
        G for m in range(1, 8) for G in eg.all_multigraphs(m)
    ) == "d6bc2e8fb5125aed52c634fb203bcaaddd927adfa32b7d5b8ffa90d4f23e71a7"
    assert _digest(
        G for m in range(1, 8) for G in eg.connected_multigraphs_any_order(m, loops=True)
    ) == "0202e0b2481b7ba1edc8bc3207c331fb5ba87b1f0d187e7aa260575ab2da26a5"
    # recorded before loop counts joined the support's weight vector: the
    # 8-edge graphs with loops that criterion 7 sweeps
    assert _digest(eg.all_multigraphs(8, loops=True)) == (
        "0e0a4e5d54519a8e1b10388217cf6792c9bbc73143a3a3014ad19344c2bd16e7"
    )


def test_pair_level_unions_match_the_multigraph_view():
    choices = list(eg.cycle_space_rank_components(6, 3))
    unions = [eg.disjoint_union(parts) for parts in choices]
    graphs = list(eg.multigraphs_with_cycle_space_rank(6, 3))
    assert [_as_pairs(G) for G in graphs] == [pairs for pairs, _ in unions]
    for G, (pairs, nverts), parts in zip(graphs, unions, choices):
        assert G.num_vertices == nverts == sum(n for _, n, _ in parts)
        assert len(components(G)) == len(parts)
