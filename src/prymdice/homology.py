"""Cycle space of a multigraph via spanning-forest fundamental cycles.

The integral cycle lattice of a graph sits inside the edge cochain space;
its dicing by the edge-coordinate hyperplanes is the cographic dicing,
produced here as a unimodular system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import sub

from .graph import CochainVector, GraphError, MultiGraph, components, union_find
from .unimod import UnimodularSystem, collapse_columns


def betti_number(G: MultiGraph) -> int:
    """First Betti number: |E| - |V| + #components."""
    return G.num_edges - G.num_vertices + len(components(G))


def default_spanning_forest(G: MultiGraph) -> frozenset:
    """Greedy forest over edges in ascending label order (lexicographically
    smallest tree-edge set)."""
    _, merge = union_find(G.vertices)
    # labels are distinct, so the edges sort by label
    return frozenset(lab for lab, t, h in sorted(G.edges) if merge(t, h))


def _validate_spanning_forest(G: MultiGraph, tree_edges) -> frozenset:
    tree = frozenset(tree_edges)
    for lab in tree:
        G.edge_index(lab)  # raises on unknown label
    _, merge = union_find(G.vertices)
    for lab in sorted(tree):
        if not merge(*G.endpoints(lab)):
            raise GraphError(f"supplied edge set is not a forest: {lab!r} closes a cycle")
    # the edges that still merge trees extend the forest to a spanning one
    missing = sum(merge(t, h) for _, t, h in G.edges)
    if missing:
        raise GraphError(
            f"supplied forest has {len(tree)} edges; a spanning forest needs {len(tree) + missing}"
        )
    return tree


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycle basis with respect to a spanning forest.

    ``rows`` holds one integer tuple per cycle, in the graph's edge order;
    the cycles follow their non-tree edges in that order, and each carries
    +1 on its own non-tree edge.
    """

    graph: MultiGraph
    tree_edges: frozenset
    rows: tuple

    @property
    def rank(self) -> int:
        return len(self.rows)

    @cached_property
    def basis(self) -> tuple:
        """The cycles as ``CochainVector``s."""
        return tuple(CochainVector(self.graph, row) for row in self.rows)


def cycle_basis(G: MultiGraph, tree=None) -> CycleBasis:
    """Fundamental cycle basis; a deterministic forest is chosen when none is given."""
    if tree is None:
        forest = default_spanning_forest(G)
    else:
        forest = _validate_spanning_forest(G, tree)
    identity = [(k, 1) for k in range(G.num_edges)]
    return CycleBasis(G, forest, fundamental_cycle_rows(G, forest, identity, G.num_edges))


def fundamental_cycle_rows(G: MultiGraph, forest, coordinates, width: int) -> tuple:
    """Fundamental cycles of a spanning forest, carried by a linear map on
    edge coordinates.

    ``forest`` is the set of the forest's edge labels.  Edge k's
    coefficient goes, times ``factor``, to coordinate ``column`` of a row
    of length ``width``, where (column, factor) = ``coordinates[k]``.  A
    non-tree edge whose coordinates are None gets no row; the others give
    one row each, in edge order.  ``cycle_basis`` passes the identity map
    and wants every row; the Prym lattice passes edge-orbit coordinates.

    The walk runs on vertex indices: one traversal per tree stores each
    vertex's path to the root, and the cycle of a non-tree edge from t to h
    is the path of h minus the path of t, plus the edge itself.
    """
    index = {v: i for i, v in enumerate(G.vertices)}
    # per vertex, its forest edges as (coordinate, other end, factor times
    # the sign of the edge walked from the other end to it)
    adj = [[] for _ in G.vertices]
    chords = []
    for (lab, t, h), cf in zip(G.edges, coordinates):
        t, h = index[t], index[h]
        if lab in forest:
            c, f = cf
            adj[t].append((c, h, -f))
            adj[h].append((c, t, f))
        elif cf is not None:
            chords.append((t, h, cf))
    # paths[v]: the image of the forest path from v to its tree's root
    zero = [0] * width
    paths = [None] * len(adj)
    for root in range(len(paths)):
        if paths[root] is not None:
            continue
        paths[root] = zero
        stack = [root]
        while stack:
            x = stack.pop()
            for c, y, f in adj[x]:
                if paths[y] is None:
                    paths[y] = path = list(paths[x])
                    path[c] += f
                    stack.append(y)
    rows = []
    for t, h, (c, f) in chords:
        row = list(map(sub, paths[h], paths[t]))
        row[c] += f
        rows.append(tuple(row))
    return tuple(rows)


def is_cycle(G: MultiGraph, v: CochainVector) -> bool:
    """True iff every signed vertex-incidence sum vanishes; ``v`` must live
    on ``G``."""
    boundary = dict.fromkeys(G.vertices, 0)
    for (_, t, h), x in zip(G.edges, v.doubled_on(G)):
        boundary[h] += x
        boundary[t] -= x
    return not any(boundary.values())


@dataclass(frozen=True)
class DicingColumns:
    """A dicing system plus the bookkeeping of how edges map to its columns.

    ``column_edges[k]`` lists the edges whose functionals collapsed onto
    column ``k`` (equal up to global sign); the first entry is the kept
    representative.  ``dropped_edges`` are the edges whose functional is
    identically zero.
    """

    system: UnimodularSystem
    column_edges: tuple
    dropped_edges: tuple


def cographic_dicing(G: MultiGraph) -> DicingColumns:
    """Edge-coordinate functionals restricted to the cycle lattice.

    Columns are expressed in the fundamental cycle basis (the transpose of
    the cycle coefficient matrix); zero columns (bridges) are dropped and
    +-duplicate columns are collapsed to one representative each.
    """
    rows = cycle_basis(G).rows  # one per cycle: b1 rows
    if not rows:
        raise GraphError("graph is a forest: cycle space is trivial, no dicing")
    matrix, groups, dropped = collapse_columns(rows, G.edge_labels)
    return DicingColumns(UnimodularSystem(matrix), groups, dropped)


def cographic_dicing_system(G: MultiGraph) -> UnimodularSystem:
    return cographic_dicing(G).system
