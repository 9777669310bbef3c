"""Exhaustive enumeration of multigraphs up to isomorphism.

Graphs are represented internally as sorted tuples of vertex-index pairs
``(u, v)`` with ``u <= v`` (a pair with ``u == v`` is a loop); parallel
edges repeat the pair.  Every multigraph is a connected simple support
plus a weight orbit, so isomorphism is decided only between the
connected simple graphs that ``_supports`` grows and ``_dedup`` admits,
by a canonical form: an individualization-refinement search on
neighbour bitmasks labels the vertices, the least relabelled pair tuple
over its leaves is the graph's certificate, and the leaves that reach it
give the automorphism group.  Refinement keys a vertex by its colour
and, for each colour, the number of its neighbours with that colour; the
keys are label-invariant, so the certificates are canonical.
Deduplication is a set of certificates, so duplicates are impossible and
nothing is missed; the enumerators are cross-checked against brute-force
labeled counts in the tests.

Connected simple supports are grown, trees pendant by pendant and all
others edge by edge, and each kept support has had exactly one canonical
search: the one that admitted it, whose leaves give the automorphism
group it carries.  A parent grows only by the least augmentation of each
orbit under that group, and a support's multiplicity and loop patterns
are reduced under the same group.

Disconnected graphs are disjoint unions of connected representatives,
one per part of a multiset of component shapes from ``_multisets``.
The union generators walk the choices of components and join a choice
into one pair-graph only on request.  The cographic search's connected
loopless representatives carry their spanning-tree counts (Kirchhoff,
computed once per representative), so the search reads a candidate's
forest count as a product and joins its pair-graph only when that count
matches; ``multigraphs_with_cycle_space_rank`` joins every choice of the
same walk into a ``MultiGraph``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb
from operator import add, le, sub

from .exactmat import det_of_rows
from .graph import MultiGraph


def _refine(colour: list, adj: list) -> list:
    """Coarsest equitable refinement of a colouring with colours 0..k-1.

    ``adj[v]`` is the bitmask of v's neighbours in a simple graph.  A
    vertex's key is its colour followed by, for each colour, the number
    of its neighbours with that colour; each round builds the keys in one
    pass and ranks them in sorted order, so the result does not depend on
    how the vertices are labelled.
    """
    count = len(set(colour))
    while True:
        cells = [0] * count
        for v, c in enumerate(colour):
            cells[c] |= 1 << v
        keys = [
            (c, *[(mask & cell).bit_count() for cell in cells])
            for c, mask in zip(colour, adj)
        ]
        ranks = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(ranks) == count:
            return colour
        colour = [ranks[key] for key in keys]
        count = len(ranks)


def _canonical_search(pairs, nverts: int):
    """Canonical certificate of a simple pair-graph, with the data of its automorphisms.

    Only the connected simple supports that ``_supports`` grows and
    ``_dedup`` admits are searched: ``pairs`` has no loop and no repeated
    pair.  Colours start uniform and are refined to equitable; every
    vertex of the first non-singleton cell is individualized in turn,
    recursively, until the colouring is a labelling: ``_leaf_labellings``
    yields these leaves depth first.  The least relabelled pair tuple over
    the leaves is the certificate: equal for two graphs on ``nverts``
    vertices exactly when they are isomorphic.

    Twins (vertices with the same neighbours apart from each other, so
    that their transposition is an automorphism) would repeat a subtree,
    so only the first twin of each class in a cell is individualized.
    Returns ``(certificate, found, twin_classes)``: two leaves with the
    same relabelled graph differ by an automorphism, and ``found`` holds
    those of the leaves reaching the certificate, as vertex permutations
    ``perm[v]``.  Composed with the permutations of the twin classes they
    give the whole group.
    """
    adj = [0] * nverts
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    twin_class = list(range(nverts))
    for v in range(nverts):
        for u in range(v):
            if twin_class[u] == u and adj[u] & ~(1 << v) == adj[v] & ~(1 << u):
                twin_class[v] = u
                break
    best = None
    for leaf in _leaf_labellings([0] * nverts, adj, twin_class):
        relabelled = tuple(sorted(
            (leaf[u], leaf[v]) if leaf[u] <= leaf[v] else (leaf[v], leaf[u]) for u, v in pairs
        ))
        if best is None or relabelled < best:
            best, leaves = relabelled, [leaf]
        elif relabelled == best:
            leaves.append(leaf)
    first = leaves[0]
    found = []
    for leaf in leaves:
        inverse = [0] * nverts
        for v, c in enumerate(leaf):
            inverse[c] = v
        found.append(tuple(inverse[c] for c in first))
    twin_classes = {}
    for v, rep in enumerate(twin_class):
        twin_classes.setdefault(rep, []).append(v)
    return best, found, [members for members in twin_classes.values() if len(members) > 1]


def _leaf_labellings(colour: list, adj: list, twin_class: list):
    """The leaves below ``colour`` of ``_canonical_search``'s search tree, depth first.

    The colouring is refined; a labelling is a leaf, and otherwise each
    vertex of the first non-singleton cell, except a twin of one taken
    before it, is individualized in turn.
    """
    colour = _refine(colour, adj)
    sizes = [0] * len(colour)
    for c in colour:
        sizes[c] += 1
    target = next((c for c, size in enumerate(sizes) if size > 1), None)
    if target is None:
        yield colour
        return
    explored = set()
    for v, cell in enumerate(colour):
        if cell != target or twin_class[v] in explored:
            continue
        explored.add(twin_class[v])
        # v goes first in its cell; the rest of the cell and the cells
        # after it move up by one
        yield from _leaf_labellings(
            [c if c < target or u == v else c + 1 for u, c in enumerate(colour)], adj, twin_class
        )


def _group(found, twin_classes) -> list:
    """The automorphism group from a ``_canonical_search``, identity first.

    Composes the ``found`` permutations with every permutation of each
    twin class, keeping each automorphism once.
    """
    group = dict.fromkeys(found)
    for members in twin_classes:
        extended = {}
        for image in itertools.permutations(members):
            moved = dict(zip(members, image))
            for perm in group:
                extended[tuple(moved.get(x, x) for x in perm)] = None
        group = extended
    return list(group)


def _edge_actions(support, perms) -> tuple:
    """Automorphisms ``perms`` of a simple pair-graph as permutations of its
    edge positions followed by its vertices (vertex v at position
    ``len(support) + v``)."""
    position = {e: i for i, e in enumerate(support)}
    k = len(support)
    return tuple(
        tuple(position[(p[u], p[v]) if p[u] <= p[v] else (p[v], p[u])] for u, v in support)
        + tuple(k + w for w in p)
        for p in perms
    )


def _dedup(items: list, nverts: int) -> list:
    """Isomorphism-reduce a list of simple pair-graphs on the same vertex count.

    Keeps the first item of each isomorphism class, in input order, as
    ``(pairs, actions)``: the one canonical search that admits an item
    also gives its automorphism group, kept as ``_edge_actions``.
    """
    seen = set()
    out = []
    for pairs in items:
        certificate, found, twin_classes = _canonical_search(pairs, nverts)
        if certificate not in seen:
            seen.add(certificate)
            out.append((pairs, _edge_actions(pairs, _group(found, twin_classes))))
    return out


def _vertex_perms(support, actions) -> list:
    """The vertex permutations ``perm[v]`` that ``_edge_actions`` carries in its tails."""
    k = len(support)
    return [[x - k for x in action[k:]] for action in actions]


def _least_pair_in_orbit(u: int, v: int, perms) -> bool:
    """Whether the pair ``u < v`` is the least of its images under ``perms``."""
    for p in perms:
        a, b = p[u], p[v]
        if a > b:
            a, b = b, a
        if (a, b) < (u, v):
            return False
    return True


@lru_cache(maxsize=None)
def _supports(nverts: int, nedges: int) -> tuple:
    """Connected simple graphs with their automorphism groups, as ``(pairs, actions)``.

    Built recursively, by one rule per kind of graph: a tree has a leaf,
    so it is a smaller tree grown by a pendant, and any other connected
    graph has a non-bridge edge, so it is a connected graph on the same
    vertices grown by that edge.  A parent grows only by the least
    pendant vertex, or the least non-edge, of each orbit under its group:
    any other choice gives a graph isomorphic to an earlier candidate of
    the same parent, so the first candidate of each isomorphism class,
    the one ``_dedup`` keeps, is still tried.
    """
    if nverts < 1 or nedges < 0:
        return ()
    if nverts == 1:
        return (((), ((0,),)),) if nedges == 0 else ()
    if nedges < nverts - 1 or nedges > comb(nverts, 2):
        return ()
    candidates = []
    if nedges == nverts - 1:
        for pairs, actions in _supports(nverts - 1, nedges - 1):
            perms = _vertex_perms(pairs, actions)
            for u in range(nverts - 1):
                if all(p[u] >= u for p in perms):
                    candidates.append(tuple(sorted(pairs + ((u, nverts - 1),))))
    else:
        for pairs, actions in _supports(nverts, nedges - 1):
            perms = _vertex_perms(pairs, actions)
            present = set(pairs)
            for u in range(nverts):
                for v in range(u + 1, nverts):
                    if (u, v) not in present and _least_pair_in_orbit(u, v, perms):
                        candidates.append(tuple(sorted(pairs + ((u, v),))))
    return tuple(_dedup(candidates, nverts))


def connected_simple_graphs(nverts: int, nedges: int) -> tuple:
    """Connected simple graphs on ``nverts`` unlabeled vertices with ``nedges``
    edges, as pair-graphs (see ``_supports``)."""
    return tuple(pairs for pairs, _ in _supports(nverts, nedges))


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative integers summing to ``total``,
    in lexicographic order.

    Stars and bars, with each of the ``parts - 1`` bars placed by its cut:
    the number of stars before it.  The cuts are a non-decreasing tuple in
    ``0..total``, the parts are their differences, and cuts in
    lexicographic order give the parts in lexicographic order.
    """
    if parts == 0:
        if total == 0:
            yield ()
        return
    for cuts in itertools.combinations_with_replacement(range(total + 1), parts - 1):
        ends = (0,) + cuts + (total,)
        yield tuple(map(sub, ends[1:], ends))


def _least_in_orbit(weights: tuple, actions) -> bool:
    """Whether ``weights`` is the lexicographic least of its images under ``actions``.

    An action maps ``weights`` to ``(weights[action[0]], weights[action[1]], ...)``,
    read up to ``len(weights)``; the test returns at the first image that is smaller.
    """
    for action in actions:
        for a, w in zip(action, weights):
            if weights[a] != w:
                if weights[a] < w:
                    return False
                break
    return True


@lru_cache(maxsize=None)
def connected_multigraphs(nedges: int, nverts: int, loops: bool = False) -> tuple:
    """Connected multigraphs up to isomorphism, as pair-graphs.

    Enumerated as a connected simple support plus one weight vector: a
    positive multiplicity on each support edge followed, with ``loops``,
    by a loop count on each vertex.  Weight vectors are reduced modulo
    the support's automorphisms; the least vector of an orbit has the
    least multiplicities, and then the least loop counts under their
    stabiliser, which is the automorphism group of the loopless core.
    """
    out = []
    slots = nverts if loops else 0
    for k in range(nverts - 1, min(nedges, comb(nverts, 2)) + 1):
        for support, actions in _supports(nverts, k):
            others = actions[1:]  # actions[0] is the identity
            cells = support + tuple((v, v) for v in range(slots))
            minimum = (1,) * k + (0,) * slots
            for extra in _compositions(nedges - k, k + slots):
                weights = tuple(map(add, minimum, extra))
                if not others or _least_in_orbit(weights, others):
                    out.append(tuple(sorted(e for e, w in zip(cells, weights) for _ in range(w))))
    return tuple(sorted(out))


def _connected_reps(nedges: int, loops: bool) -> list:
    """Connected ``(pairs, nverts)`` representatives with ``nedges`` edges, by vertex count."""
    return [
        (pairs, nverts)
        for nverts in range(1, nedges + 2)
        for pairs in connected_multigraphs(nedges, nverts, loops)
    ]


def _multisets(total: tuple, shapes: tuple):
    """Every non-increasing tuple of entries of ``shapes`` whose entrywise sum is ``total``.

    ``shapes`` lists tuples with positive entries in decreasing order, and
    the multisets come with larger first parts first.
    """
    if not any(total):
        yield ()
        return
    for i, shape in enumerate(shapes):
        if all(map(le, shape, total)):
            for rest in _multisets(tuple(map(sub, total, shape)), shapes[i:]):
                yield (shape,) + rest


@lru_cache(maxsize=None)
def _component_specs(nedges: int, rank: int) -> tuple:
    """Multisets of (edges, rank) component shapes with the given totals,
    fewest components first, then in lexicographic order.

    Each component is connected and loopless with at least one edge, so its
    rank (vertices - 1) is >= 1 and <= its edge count.
    """
    shapes = tuple((e, r) for e in range(nedges, 0, -1) for r in range(e, 0, -1))
    return tuple(sorted(_multisets((nedges, rank), shapes), key=lambda s: (len(s), s)))


def _component_choices(parts, reps_of):
    """The component choices of disjoint unions with one connected component
    per entry of ``parts``.

    Equal entries of ``parts`` must be adjacent; ``reps_of(part)`` lists
    that part's representatives, each starting ``(pairs, nverts, ...)``.
    A run of equal parts takes a multiset of representatives, so each union
    appears once.  Yields each choice as a tuple of representatives, in a
    fixed deterministic order; ``disjoint_union`` joins one into a graph.
    """
    runs = [
        itertools.combinations_with_replacement(reps_of(part), len(list(group)))
        for part, group in itertools.groupby(parts)
    ]
    for combo in itertools.product(*runs):
        yield tuple(itertools.chain.from_iterable(combo))


def disjoint_union(components) -> tuple:
    """``(pairs, nverts)`` of the pair-graph with the given components, whose
    entries start ``(pairs, nverts, ...)``, laid out in order."""
    pairs = []
    offset = 0
    for comp, nverts, *_ in components:
        pairs.extend((u + offset, v + offset) for u, v in comp)
        offset += nverts
    # each component is sorted and the offsets rise, so pairs is sorted
    return tuple(pairs), offset


def spanning_tree_count(pairs, nverts: int) -> int:
    """Spanning trees of a connected pair-graph: a reduced Laplacian determinant.

    A loop adds to its vertex's diagonal entry what it then takes away, so
    loops count for nothing.
    """
    lap = [[0] * nverts for _ in range(nverts)]
    for u, v in pairs:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    return det_of_rows([row[:-1] for row in lap[:-1]])


@lru_cache(maxsize=None)
def _counted_reps(shape: tuple) -> tuple:
    """Connected loopless representatives of an ``(edges, rank)`` shape, as
    ``(pairs, nverts, trees)`` with their spanning-tree counts."""
    nedges, rank = shape
    # spelled as ``_connected_reps`` spells it: lru_cache keys a call by its
    # spelling, so ``(nedges, nverts)`` would build a second entry
    return tuple(
        (pairs, rank + 1, spanning_tree_count(pairs, rank + 1))
        for pairs in connected_multigraphs(nedges, rank + 1, False)
    )


def cycle_space_rank_components(nedges: int, rank: int):
    """All loopless multigraphs (no isolated vertices) with ``nedges`` edges
    whose incidence rank |V| - #components equals ``rank``, up to
    isomorphism, as their choices of components.

    Connected graphs come first, then shapes with more components, in a
    fixed deterministic order.  Each choice is a tuple of connected
    loopless representatives ``(pairs, nverts, trees)`` from
    ``connected_multigraphs``, carrying their spanning-tree counts, so a
    caller can read a candidate's forest count and join its pair-graph
    with ``disjoint_union`` only when it needs one.
    """
    for shape_list in _component_specs(nedges, rank):
        yield from _component_choices(shape_list, _counted_reps)


def multigraphs_with_cycle_space_rank(nedges: int, rank: int):
    """The graphs of ``cycle_space_rank_components`` as ``MultiGraph``
    objects, same order."""
    for chosen in cycle_space_rank_components(nedges, rank):
        yield pair_graph_to_multigraph(*disjoint_union(chosen))


def all_multigraphs(nedges: int, loops: bool = False):
    """All multigraphs with exactly ``nedges`` edges and no isolated vertices,
    up to isomorphism (disconnected shapes included)."""
    for parts in _multisets((nedges,), tuple((e,) for e in range(nedges, 0, -1))):
        for chosen in _component_choices(parts, lambda part: _connected_reps(*part, loops)):
            yield pair_graph_to_multigraph(*disjoint_union(chosen))


def connected_multigraphs_any_order(nedges: int, loops: bool = False):
    """Connected multigraphs with exactly ``nedges`` edges, all vertex counts."""
    for pairs, nverts in _connected_reps(nedges, loops):
        yield pair_graph_to_multigraph(pairs, nverts)


def pair_graph_to_multigraph(pairs, nverts: int) -> MultiGraph:
    vertices = [f"v{i}" for i in range(nverts)]
    edges = [(f"g{k}", f"v{u}", f"v{v}") for k, (u, v) in enumerate(pairs)]
    return MultiGraph(vertices, edges)
