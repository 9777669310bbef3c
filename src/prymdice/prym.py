"""Degeneration data of a double cover with involution.

Given the dual graph of the cover and its involution, the anti-invariant
projection v -> (v - iota(v))/2 carries the integral cycle lattice onto a
sublattice of the half-integer cochains.  The edge coordinate functions,
rescaled by per-edge multipliers so they surject onto Z, dice that
lattice's real span; the resulting unimodular system is the combinatorial
shadow of the degenerating family.

All half-integer work is done exactly by computing on the doubled lattice
inside Z^E and dividing at the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .exactmat import IntMatrix, hermite_lattice_contains, hnf_basis
from .graph import (
    CochainVector,
    GraphError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
)
from .homology import collapse_columns, cycle_basis
from .unimod import UnimodularSystem


def pi_minus(iota: GraphInvolution, h: CochainVector) -> CochainVector:
    """Anti-invariant projection (h - iota(h)) / 2 of an integral cycle."""
    if not h.is_integral():
        raise GraphError("anti-invariant projection requires integer coefficients")
    return (h - apply_involution(iota, h)).scaled(Fraction(1, 2))


class HalfLattice:
    """Sublattice of (1/2)Z^E, given by twice its generators as integer rows.

    The generators may be dependent.  ``doubled`` is the Hermite basis of
    twice the lattice inside Z^E, which is canonical, so two lattices agree
    exactly when their ``doubled`` bases do; its half is a basis of the
    lattice.
    """

    def __init__(self, graph: MultiGraph, doubled_generators: IntMatrix):
        if doubled_generators.cols != graph.num_edges:
            raise GraphError("basis width does not match the graph's edge count")
        self.graph = graph
        self.doubled = hnf_basis(doubled_generators)

    @property
    def ambient_edges(self) -> tuple:
        return self.graph.edge_labels

    @property
    def rank(self) -> int:
        return self.doubled.rows

    def basis_vectors(self) -> tuple:
        return tuple(
            CochainVector(self.graph, [Fraction(x, 2) for x in self.doubled.row(i)])
            for i in range(self.rank)
        )

    def contains(self, v: CochainVector) -> bool:
        if v.graph is not self.graph and v.graph != self.graph:
            raise GraphError("cochain vector lives on a different graph than the lattice")
        return hermite_lattice_contains(self.doubled, [2 * c for c in v.coefficients])

    def same_lattice_as(self, other: "HalfLattice") -> bool:
        return (
            self.graph.edge_labels == other.graph.edge_labels
            and self.doubled == other.doubled
        )

    def __repr__(self):
        return f"HalfLattice(rank={self.rank}, edges={self.graph.num_edges})"


def lattice_from_vectors(G: MultiGraph, vectors) -> HalfLattice:
    """HalfLattice generated by half-integral cochain vectors."""
    rows = [[int(2 * c) for c in v.coefficients] for v in vectors]
    generators = IntMatrix(len(rows), G.num_edges, tuple(x for row in rows for x in row))
    return HalfLattice(G, generators)


def x_minus(G: MultiGraph, iota: GraphInvolution) -> HalfLattice:
    """Image of the integral cycle lattice under the anti-invariant projection.

    Works on the doubled projections 2 * pi_minus(h) = h - iota(h), which
    are integer rows: iota moves coordinate j to coordinate pj with sign
    sj, listed in ``moves`` as (j, pj, sj).
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    moves = [
        (j, G.edge_index(iota.edge_map[lab]), iota.edge_sign[lab])
        for j, lab in enumerate(G.edge_labels)
    ]
    rows = []
    for h in cycle_basis(G).rows:
        row = list(h)
        for j, pj, sj in moves:
            if h[j]:
                row[pj] -= sj * h[j]
        rows.append(row)
    generators = IntMatrix(len(rows), G.num_edges, tuple(x for row in rows for x in row))
    lattice = HalfLattice(G, generators)
    for i in range(lattice.rank):
        row = lattice.doubled.row(i)
        if any(row[pj] != -sj * row[j] for j, pj, sj in moves):
            raise GraphError("internal error: lattice basis vector is not anti-invariant")
    return lattice


def torus_rank(G: MultiGraph, iota: GraphInvolution) -> int:
    """Rank of the anti-invariant lattice (the toric rank of the degeneration)."""
    return x_minus(G, iota).rank


class MultiplierVector:
    """Per-edge multiplier: 2, 1 or 0 as the edge functional's image on the
    lattice is (1/2)Z, Z or zero."""

    def __init__(self, edges, values):
        self.edges = tuple(edges)
        self.values = tuple(int(v) for v in values)
        if len(self.edges) != len(self.values):
            raise GraphError("multiplier count does not match edge count")
        if any(v not in (0, 1, 2) for v in self.values):
            raise GraphError("multipliers must be 0, 1 or 2")
        self._index = {lab: i for i, lab in enumerate(self.edges)}

    def __getitem__(self, label: str) -> int:
        return self.values[self._index[label]]

    def as_dict(self) -> dict:
        return dict(zip(self.edges, self.values))

    def __eq__(self, other):
        return (
            isinstance(other, MultiplierVector)
            and self.edges == other.edges
            and self.values == other.values
        )

    def __repr__(self):
        return f"MultiplierVector({self.as_dict()})"


def multipliers(X: HalfLattice) -> MultiplierVector:
    """Edge multipliers from the doubled HNF basis.

    The image of the j-th coordinate on the lattice is (g/2)Z where g is
    the gcd of the j-th coordinates of the doubled basis; g = 1, 2, 0 give
    multipliers 2, 1, 0.  Any other g falls outside the model of a
    projected cycle lattice and is rejected.
    """
    values = []
    for j, lab in enumerate(X.ambient_edges):
        g = gcd(*X.doubled.column(j))
        if g == 0:
            values.append(0)
        elif g == 1:
            values.append(2)
        elif g == 2:
            values.append(1)
        else:
            raise GraphError(
                f"edge {lab!r}: coordinate image is ({g}/2)Z, outside the multiplier model"
            )
    return MultiplierVector(X.ambient_edges, values)


@dataclass(frozen=True)
class VologodskyWitness:
    """Two disjoint connected invariant subgraphs joined by >= 4 edges."""

    subgraph_0: frozenset
    subgraph_1: frozenset
    connecting_edges: tuple


@dataclass(frozen=True)
class VologodskyResult:
    passed: bool
    witness: VologodskyWitness | None = None


def _connected_orbit_unions(orbits, orbit_adjacency, adjacency, cuts):
    """Every union of vertex orbits that induces a connected subgraph, as
    (orbit mask, vertex mask, cut mask) triples in no particular order.

    ``orbits[i]`` holds the vertex bits of orbit i, ``orbit_adjacency[i]``
    its neighbours in the orbit quotient, ``adjacency`` maps a vertex bit
    to its neighbours' bits and ``cuts[i]`` is the edge mask of orbit i's
    cut.  A union connected in the graph is connected in the quotient, so
    each set is grown along quotient edges from its least orbit: a branch
    adds one orbit of the frontier, and the orbits tried before it at the
    same node are barred below the later branches, so no set repeats.

    Connectivity is carried down the tree.  Paths in the quotient lift
    through the involution, so every component of a quotient-connected
    union meets each of its orbits: the union is connected, or it is
    ``comp`` (the component of the root's first vertex) and the image of
    ``comp``.  Adding an adjacent orbit keeps a connected union connected,
    and joins the two halves exactly when the new vertices that ``comp``
    reaches touch the other half.
    """
    orbit_vertices = [sum(bits) for bits in orbits]
    out = []
    for root, root_bits in enumerate(orbits):
        below = (1 << root) - 1
        comp, reach = _join(root_bits[0], adjacency[root_bits[0]], root_bits, adjacency)
        stack = [(
            1 << root, orbit_vertices[root], comp, reach, cuts[root],
            orbit_adjacency[root] & ~below & ~(1 << root), below,
        )]
        while stack:
            mask, vertices, comp, reach, cut, frontier, barred = stack.pop()
            connected = comp == vertices
            if connected:
                out.append((mask, vertices, cut))
            while frontier:
                bit = frontier & -frontier
                frontier ^= bit
                i = bit.bit_length() - 1
                grown = mask | bit
                grown_vertices = vertices | orbit_vertices[i]
                if connected:
                    grown_comp, grown_reach = grown_vertices, 0
                else:
                    grown_comp, grown_reach = _join(comp, reach, orbits[i], adjacency)
                    if grown_reach & vertices & ~comp:
                        grown_comp = grown_vertices
                stack.append((
                    grown, grown_vertices, grown_comp, grown_reach, cut ^ cuts[i],
                    frontier | (orbit_adjacency[i] & ~grown & ~barred), barred,
                ))
                barred |= bit
    return out


def _join(comp, reach, new_bits, adjacency):
    """Grow the component ``comp`` (neighbourhood ``reach``) into the
    vertices ``new_bits`` it reaches, directly or through each other."""
    grew = True
    while grew:
        grew = False
        for v in new_bits:
            if v & reach and not v & comp:
                comp |= v
                reach |= adjacency[v]
                grew = True
    return comp, reach


def vologodsky_check(G: MultiGraph, iota: GraphInvolution) -> VologodskyResult:
    """Family-independence criterion for the cell decomposition.

    Fails exactly when two disjoint connected invariant subgraphs are
    joined by at least four edges; the witness returned is the first such
    pair in a fixed deterministic order (invariant vertex subsets are
    unions of vertex orbits, scanned in ascending bitmask order).

    Vertex and edge sets are bitmasks over ``G.vertices`` and ``G.edges``.
    The edges joining two disjoint vertex sets are the edges in both cuts.
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    if G.num_edges < 4:
        return VologodskyResult(True)
    bit = {v: 1 << i for i, v in enumerate(G.vertices)}
    # incidence: a vertex's non-loop edges; the cut of a vertex set is the
    # XOR of its vertices' incidences, since an inner edge appears twice
    adjacency = dict.fromkeys(bit.values(), 0)
    incidence = dict.fromkeys(bit.values(), 0)
    for k, (_, t, h) in enumerate(G.edges):
        tb, hb = bit[t], bit[h]
        adjacency[tb] |= hb
        adjacency[hb] |= tb
        if tb != hb:
            incidence[tb] |= 1 << k
            incidence[hb] |= 1 << k
    orbits, cuts, orbit_of = [], [], {}
    for v in G.vertices:
        if v not in orbit_of:
            w = iota.vertex_map[v]
            orbit_of[v] = orbit_of[w] = len(orbits)
            if w == v:
                orbits.append((bit[v],))
                cuts.append(incidence[bit[v]])
            else:
                orbits.append((bit[v], bit[w]))
                cuts.append(incidence[bit[v]] ^ incidence[bit[w]])
    orbit_adjacency = [0] * len(orbits)
    for _, t, h in G.edges:
        orbit_adjacency[orbit_of[t]] |= 1 << orbit_of[h]
        orbit_adjacency[orbit_of[h]] |= 1 << orbit_of[t]
    unions = sorted(_connected_orbit_unions(orbits, orbit_adjacency, adjacency, cuts))
    # containing[i]: the positions in ``unions`` of the sets holding orbit i
    containing = [0] * len(orbits)
    for pos, (mask, _, _) in enumerate(unions):
        while mask:
            low = mask & -mask
            containing[low.bit_length() - 1] |= 1 << pos
            mask ^= low
    everything = (1 << len(unions)) - 1
    for pos, (mask_a, set_a, cut_a) in enumerate(unions):
        overlapping = (2 << pos) - 1
        while mask_a:
            low = mask_a & -mask_a
            overlapping |= containing[low.bit_length() - 1]
            mask_a ^= low
        later = everything & ~overlapping
        while later:
            low = later & -later
            later ^= low
            _, set_b, cut_b = unions[low.bit_length() - 1]
            crossing = cut_a & cut_b
            if crossing.bit_count() >= 4:
                return VologodskyResult(
                    False,
                    VologodskyWitness(
                        _vertex_names(G, set_a),
                        _vertex_names(G, set_b),
                        tuple(sorted(lab for k, lab in enumerate(G.edge_labels) if crossing >> k & 1)),
                    ),
                )
    return VologodskyResult(True)


def _vertex_names(G: MultiGraph, vertices: int) -> frozenset:
    return frozenset(v for i, v in enumerate(G.vertices) if vertices >> i & 1)


@dataclass(frozen=True)
class PrymDicing:
    """Dicing system of the anti-invariant lattice, with provenance.

    ``family_independent`` is False when the Vologodsky criterion fails;
    the system is still the one computed from this degenerate fiber, but
    other one-parameter families through the same fiber may dice
    differently, so the result carries the witness instead of failing.
    """

    system: UnimodularSystem
    lattice: HalfLattice
    multipliers: MultiplierVector
    family_independent: bool
    vologodsky_witness: VologodskyWitness | None
    column_edges: tuple
    dropped_edges: tuple


def prym_dicing(G: MultiGraph, iota: GraphInvolution) -> PrymDicing:
    """Full dicing data: lattice, multipliers, system, family-independence flag.

    Column j of the system is the functional (multiplier * coordinate)
    evaluated on the HNF basis of the lattice; zero columns are dropped
    and +-duplicate columns (the involution pairs each edge's functional
    with its partner's negative) keep their first representative.
    """
    X = x_minus(G, iota)
    if X.rank == 0:
        raise GraphError("anti-invariant lattice is trivial: no dicing to compute")
    mult = multipliers(X)
    # exact: a multiplier is 1 only where every doubled coordinate is even
    rows = [
        [x * m // 2 for x, m in zip(X.doubled.row(i), mult.values)]
        for i in range(X.rank)
    ]
    matrix, groups, dropped = collapse_columns(rows, G.edge_labels)
    system = UnimodularSystem(matrix)
    result = vologodsky_check(G, iota)
    return PrymDicing(
        system=system,
        lattice=X,
        multipliers=mult,
        family_independent=result.passed,
        vologodsky_witness=result.witness,
        column_edges=groups,
        dropped_edges=dropped,
    )
