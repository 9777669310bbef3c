"""Cycle space of a multigraph via spanning-forest fundamental cycles.

The integral cycle lattice of a graph sits inside the edge cochain space;
its dicing by the edge-coordinate hyperplanes is the cographic dicing,
produced here as a unimodular system.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .exactmat import IntMatrix
from .graph import CochainVector, GraphError, MultiGraph, components
from .unimod import UnimodularSystem, _sign_normalize


def betti_number(G: MultiGraph) -> int:
    """First Betti number: |E| - |V| + #components."""
    return G.num_edges - G.num_vertices + len(components(G))


def _forest_merger(vertices):
    """Union-find over ``vertices`` (path halving); ``merge(t, h)`` joins the
    trees of an edge's endpoints and returns False when they already agree."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(t, h):
        rt, rh = find(t), find(h)
        if rt == rh:
            return False
        parent[rt] = rh
        return True

    return merge


def default_spanning_forest(G: MultiGraph) -> frozenset:
    """Greedy forest over edges in ascending label order (lexicographically
    smallest tree-edge set)."""
    merge = _forest_merger(G.vertices)
    return frozenset(lab for lab in sorted(G.edge_labels) if merge(*G.endpoints(lab)))


def _validate_spanning_forest(G: MultiGraph, tree_edges) -> frozenset:
    tree = frozenset(tree_edges)
    for lab in tree:
        G.edge_index(lab)  # raises on unknown label
    merge = _forest_merger(G.vertices)
    for lab in sorted(tree):
        if not merge(*G.endpoints(lab)):
            raise GraphError(f"supplied edge set is not a forest: {lab!r} closes a cycle")
    expected = G.num_vertices - len(components(G))
    if len(tree) != expected:
        raise GraphError(
            f"supplied forest has {len(tree)} edges; a spanning forest needs {expected}"
        )
    return tree


@dataclass(frozen=True)
class CycleBasis:
    """Fundamental cycle basis with respect to a spanning forest.

    ``rows`` holds one integer tuple per cycle, in the graph's edge order.
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


def _forest_adjacency(G: MultiGraph, tree_edges) -> dict:
    """Per vertex, the forest edges at it as (label, other end, +1 if it is the tail)."""
    adj: dict[str, list] = {v: [] for v in G.vertices}
    for lab in tree_edges:
        t, h = G.endpoints(lab)
        adj[t].append((lab, h, 1))
        adj[h].append((lab, t, -1))
    return adj


def fundamental_cycle(G: MultiGraph, tree_edges, label: str, sign: int = 1) -> CochainVector:
    """The unique cycle supported on ``label`` plus forest edges.

    The non-tree edge carries coefficient ``sign`` (+1 by default); forest
    edges are signed by the direction the closing path traverses them.
    """
    if label in tree_edges:
        raise GraphError(f"{label!r} is a tree edge; fundamental cycles need a non-tree edge")
    adj = _forest_adjacency(G, tree_edges)
    return CochainVector(G, _fundamental_cycle(G, adj, label, sign))


def _fundamental_cycle(G: MultiGraph, adj: dict, label: str, sign: int) -> tuple:
    """``fundamental_cycle`` as an integer row in the graph's edge order."""
    tail, head = G.endpoints(label)
    row = [0] * G.num_edges
    row[G.edge_index(label)] = sign
    if tail != head:
        prev = {head: None}
        queue = deque([head])
        while queue:
            x = queue.popleft()
            if x == tail:
                break
            for lab, y, s in adj[x]:
                if y not in prev:
                    prev[y] = (x, lab, s)
                    queue.append(y)
        if tail not in prev:
            raise GraphError(f"forest does not connect the endpoints of {label!r}")
        x = tail
        while prev[x] is not None:
            _, lab, s = prev[x]
            row[G.edge_index(lab)] = sign * s
            x = prev[x][0]
    return tuple(row)


def cycle_basis(G: MultiGraph, tree=None) -> CycleBasis:
    """Fundamental cycle basis; a deterministic forest is chosen when none is given."""
    if tree is None:
        forest = default_spanning_forest(G)
    else:
        forest = _validate_spanning_forest(G, tree)
    adj = _forest_adjacency(G, forest)
    rows = tuple(
        _fundamental_cycle(G, adj, lab, 1)
        for lab in G.edge_labels
        if lab not in forest
    )
    return CycleBasis(G, forest, rows)


def is_cycle(G: MultiGraph, v: CochainVector) -> bool:
    """True iff every signed vertex-incidence sum vanishes."""
    boundary = {u: Fraction(0) for u in G.vertices}
    for lab, c in zip(G.edge_labels, v.coefficients):
        if c == 0:
            continue
        t, h = G.endpoints(lab)
        boundary[h] += c
        boundary[t] -= c
    return all(x == 0 for x in boundary.values())


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


def collapse_columns(rows: list, edge_labels) -> tuple[IntMatrix, tuple, tuple]:
    """Drop zero columns, keep one representative per +-duplicate column set.

    ``rows`` is a list of integer row vectors indexed by ``edge_labels``.
    Returns (matrix, column_edges, dropped_edges).
    """
    ncols = len(edge_labels)
    kept: list[int] = []
    groups: list[list[str]] = []
    dropped: list[str] = []
    seen: dict[tuple, int] = {}
    for j in range(ncols):
        col = tuple(r[j] for r in rows)
        if all(x == 0 for x in col):
            dropped.append(edge_labels[j])
            continue
        key = _sign_normalize(col)
        if key in seen:
            groups[seen[key]].append(edge_labels[j])
        else:
            seen[key] = len(kept)
            kept.append(j)
            groups.append([edge_labels[j]])
    matrix = IntMatrix.from_rows([[r[j] for j in kept] for r in rows])
    return matrix, tuple(tuple(g) for g in groups), tuple(dropped)


def cographic_dicing(G: MultiGraph) -> DicingColumns:
    """Edge-coordinate functionals restricted to the cycle lattice.

    Columns are expressed in the fundamental cycle basis (the transpose of
    the cycle coefficient matrix); zero columns (bridges) are dropped and
    +-duplicate columns are collapsed to one representative each.
    """
    if betti_number(G) == 0:
        raise GraphError("graph is a forest: cycle space is trivial, no dicing")
    matrix, groups, dropped = collapse_columns(cycle_basis(G).rows, G.edge_labels)
    return DicingColumns(UnimodularSystem(matrix), groups, dropped)


def cographic_dicing_system(G: MultiGraph) -> UnimodularSystem:
    return cographic_dicing(G).system
