"""Exhaustive enumeration of multigraphs up to isomorphism.

Graphs are represented internally as sorted tuples of vertex-index pairs
``(u, v)`` with ``u <= v`` (a pair with ``u == v`` is a loop); parallel
edges repeat the pair.  Deduplication buckets candidates by a cheap
signature and settles ties with networkx's VF2 matcher on multigraphs,
so duplicates are impossible and nothing is missed; the enumerators are
cross-checked against brute-force labeled counts in the tests.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb

import networkx as nx
from networkx.algorithms.isomorphism import MultiGraphMatcher

from .graph import MultiGraph

PairGraph = tuple  # sorted tuple of (u, v) pairs, vertices 0..nverts-1


def _to_nx(pairs, nverts: int) -> nx.MultiGraph:
    g = nx.MultiGraph()
    g.add_nodes_from(range(nverts))
    g.add_edges_from(pairs)
    return g


def _signature(pairs, nverts: int):
    deg = [0] * nverts
    loops = 0
    mult: dict[tuple, int] = {}
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
        if u == v:
            loops += 1
        mult[(u, v)] = mult.get((u, v), 0) + 1
    return (nverts, len(pairs), tuple(sorted(deg)), tuple(sorted(mult.values())), loops)


def _dedup(items: list, nverts: int) -> list:
    """Isomorphism-reduce a list of pair-graphs on the same vertex count."""
    buckets: dict[tuple, list] = {}
    out = []
    for pairs in items:
        sig = _signature(pairs, nverts)
        reps = buckets.setdefault(sig, [])
        g = _to_nx(pairs, nverts)
        if not any(MultiGraphMatcher(g, rep_g).is_isomorphic() for _, rep_g in reps):
            reps.append((pairs, g))
            out.append(pairs)
    return out


@lru_cache(maxsize=None)
def connected_simple_graphs(nverts: int, nedges: int) -> tuple:
    """Connected simple graphs on ``nverts`` unlabeled vertices with ``nedges`` edges.

    Built recursively: every connected graph either has a degree-1 vertex
    (grown by attaching a pendant) or contains a non-bridge edge (grown by
    adding an edge to a smaller connected graph on the same vertices).
    """
    if nverts < 1 or nedges < 0:
        return ()
    if nverts == 1:
        return ((),) if nedges == 0 else ()
    if nedges < nverts - 1 or nedges > comb(nverts, 2):
        return ()
    candidates = []
    for pairs in connected_simple_graphs(nverts, nedges - 1):
        present = set(pairs)
        for u in range(nverts):
            for v in range(u + 1, nverts):
                if (u, v) not in present:
                    candidates.append(tuple(sorted(pairs + ((u, v),))))
    for pairs in connected_simple_graphs(nverts - 1, nedges - 1):
        for u in range(nverts - 1):
            candidates.append(tuple(sorted(pairs + ((u, nverts - 1),))))
    return tuple(_dedup(candidates, nverts))


def _automorphism_vertex_perms(pairs, nverts: int) -> list:
    g = _to_nx(pairs, nverts)
    gm = MultiGraphMatcher(g, g)
    return [tuple(mapping[i] for i in range(nverts)) for mapping in gm.isomorphisms_iter()]


def _compositions(total: int, parts: int, minimum: int = 0):
    """All tuples of ``parts`` integers >= minimum summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


@lru_cache(maxsize=None)
def connected_multigraphs(nedges: int, nverts: int) -> tuple:
    """Connected loopless multigraphs up to isomorphism, as pair-graphs.

    Enumerated as a simple support graph plus a positive multiplicity on
    each support edge, with multiplicity patterns reduced modulo the
    support's automorphisms.
    """
    if nverts == 1:
        return ((),) if nedges == 0 else ()
    out = []
    max_support = min(nedges, comb(nverts, 2))
    for k in range(nverts - 1, max_support + 1):
        for support in connected_simple_graphs(nverts, k):
            perms = _automorphism_vertex_perms(support, nverts)
            edge_list = list(support)
            edge_pos = {e: i for i, e in enumerate(edge_list)}
            perm_actions = []
            for perm in perms:
                action = tuple(
                    edge_pos[tuple(sorted((perm[u], perm[v])))] for (u, v) in edge_list
                )
                perm_actions.append(action)
            for mult in _compositions(nedges - k, k, minimum=0):
                weights = tuple(1 + x for x in mult)
                canonical = min(
                    tuple(weights[action[i]] for i in range(k)) for action in perm_actions
                )
                if weights != canonical:
                    continue
                pairs = []
                for e, w in zip(edge_list, weights):
                    pairs.extend([e] * w)
                out.append(tuple(sorted(pairs)))
    return tuple(sorted(out))


@lru_cache(maxsize=None)
def connected_multigraphs_with_loops(nedges: int, nverts: int) -> tuple:
    """Connected multigraphs with loops allowed (connectivity of the loopless core)."""
    out = []
    for nloops in range(nedges + 1):
        core_edges = nedges - nloops
        cores = connected_multigraphs(core_edges, nverts)
        for core in cores:
            perms = _automorphism_vertex_perms(core, nverts)
            for distribution in _compositions(nloops, nverts, minimum=0):
                canonical = min(
                    tuple(distribution[perm[i]] for i in range(nverts)) for perm in perms
                )
                if distribution != tuple(canonical):
                    continue
                pairs = list(core)
                for v, cnt in enumerate(distribution):
                    pairs.extend([(v, v)] * cnt)
                out.append(tuple(sorted(pairs)))
    return tuple(sorted(out))


def _relabel(pairs, offset: int):
    return [(u + offset, v + offset) for (u, v) in pairs]


def _component_specs(nedges: int, rank: int):
    """Multisets of (edges, rank) component shapes with the given totals.

    Each component is connected and loopless with at least one edge, so its
    rank (vertices - 1) is >= 1 and <= its edge count.
    """

    def rec(e_left, r_left, max_shape):
        if e_left == 0 and r_left == 0:
            yield ()
            return
        if e_left <= 0 or r_left <= 0:
            return
        for e in range(e_left, 0, -1):
            for r in range(min(r_left, e), 0, -1):
                shape = (e, r)
                if shape > max_shape:
                    continue
                for rest in rec(e_left - e, r_left - r, shape):
                    yield (shape,) + rest

    yield from rec(nedges, rank, (nedges, rank))


def _disjoint_unions(parts, reps_of):
    """Disjoint unions with one connected component per entry of ``parts``.

    Equal entries of ``parts`` must be adjacent; ``reps_of(part)`` lists
    that part's ``(pairs, nverts)`` representatives.  A run of equal parts
    takes a multiset of representatives, so each union appears once.
    Yields ``MultiGraph`` objects in a fixed deterministic order.
    """
    runs = [(part, len(list(group))) for part, group in itertools.groupby(parts)]
    rep_lists = [reps_of(part) for part, _ in runs]
    per_run = [
        itertools.combinations_with_replacement(range(len(reps)), count)
        for reps, (_, count) in zip(rep_lists, runs)
    ]
    for combo in itertools.product(*per_run):
        pairs = []
        offset = 0
        for reps, choice in zip(rep_lists, combo):
            for rep_idx in choice:
                comp, nverts_comp = reps[rep_idx]
                pairs.extend(_relabel(comp, offset))
                offset += nverts_comp
        yield pair_graph_to_multigraph(tuple(sorted(pairs)), offset)


def multigraphs_with_cycle_space_rank(nedges: int, rank: int):
    """All loopless multigraphs (no isolated vertices) with ``nedges`` edges
    whose incidence rank |V| - #components equals ``rank``, up to isomorphism.

    Yields ``MultiGraph`` objects: connected ones first, then shapes with
    more components, in a fixed deterministic order.
    """

    def reps_of(shape):
        nedges_comp, rank_comp = shape
        return [(p, rank_comp + 1) for p in connected_multigraphs(nedges_comp, rank_comp + 1)]

    for shape_list in sorted(_component_specs(nedges, rank), key=lambda s: (len(s), s)):
        yield from _disjoint_unions(shape_list, reps_of)


def all_multigraphs(nedges: int, loops: bool = False):
    """All multigraphs with exactly ``nedges`` edges and no isolated vertices,
    up to isomorphism (disconnected shapes included)."""

    def connected_reps(e):
        reps = []
        if loops:
            for nv in range(1, e + 2):
                reps.extend((p, nv) for p in connected_multigraphs_with_loops(e, nv))
        else:
            for nv in range(2, e + 2):
                reps.extend((p, nv) for p in connected_multigraphs(e, nv))
        return reps

    def partitions(n, maximum):
        if n == 0:
            yield ()
            return
        for first in range(min(n, maximum), 0, -1):
            for rest in partitions(n - first, first):
                yield (first,) + rest

    for part in partitions(nedges, nedges):
        yield from _disjoint_unions(part, connected_reps)


def connected_multigraphs_any_order(nedges: int, loops: bool = False):
    """Connected multigraphs with exactly ``nedges`` edges, all vertex counts."""
    if loops:
        for nv in range(1, nedges + 2):
            for pairs in connected_multigraphs_with_loops(nedges, nv):
                yield pair_graph_to_multigraph(pairs, nv)
    else:
        for nv in range(2, nedges + 2):
            for pairs in connected_multigraphs(nedges, nv):
                yield pair_graph_to_multigraph(pairs, nv)


def pair_graph_to_multigraph(pairs, nverts: int) -> MultiGraph:
    vertices = [f"v{i}" for i in range(nverts)]
    edges = [(f"g{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(pairs)]
    return MultiGraph(vertices, edges)
