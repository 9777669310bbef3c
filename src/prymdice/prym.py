"""Degeneration data of a double cover with involution.

Given the dual graph of the cover and its involution, the anti-invariant
projection v -> (v - iota(v))/2 carries the integral cycle lattice onto a
sublattice of the half-integer cochains.  The edge coordinate functions,
rescaled by per-edge multipliers so they surject onto Z, dice that
lattice's real span; the resulting unimodular system is the combinatorial
shadow of the degenerating family.

All half-integer work is exact integer work on doubled values: a lattice
is twice itself inside Z^E, a cochain carries its ``doubled`` integers,
and the involution acts through its integer ``edge_action``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain
from math import gcd
from operator import xor

from .exactmat import IntMatrix, hermite_lattice_contains, hnf_basis
from .graph import (
    CochainVector,
    GraphError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
    union_find,
)
from .homology import fundamental_cycle_rows
from .unimod import UnimodularSystem, collapse_columns


def pi_minus(iota: GraphInvolution, h: CochainVector) -> CochainVector:
    """Anti-invariant projection (h - iota(h)) / 2 of an integral cycle,
    made by halving the doubled coefficients of h - iota(h), all even."""
    if not h.is_integral():
        raise GraphError("anti-invariant projection requires integer coefficients")
    twice = (h - apply_involution(iota, h)).doubled
    return CochainVector.from_doubled(h.graph, (x // 2 for x in twice))


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

    @classmethod
    def from_hermite_basis(cls, graph: MultiGraph, doubled: IntMatrix) -> "HalfLattice":
        """The lattice whose doubled basis ``doubled`` is already in Hermite
        form, as ``hnf_basis`` returns it; no Hermite pass is run."""
        lattice = cls.__new__(cls)
        lattice.graph = graph
        lattice.doubled = doubled
        return lattice

    @property
    def ambient_edges(self) -> tuple:
        return self.graph.edge_labels

    @property
    def rank(self) -> int:
        return self.doubled.rows

    def basis_vectors(self) -> tuple:
        return tuple(
            CochainVector.from_doubled(self.graph, self.doubled.row(i))
            for i in range(self.rank)
        )

    def contains(self, v: CochainVector) -> bool:
        return hermite_lattice_contains(self.doubled, v.doubled_on(self.graph))

    def same_lattice_as(self, other: "HalfLattice") -> bool:
        """Equal lattices on the same graph."""
        return (
            (self.graph is other.graph or self.graph == other.graph)
            and self.doubled == other.doubled
        )

    def __repr__(self):
        return f"HalfLattice(rank={self.rank}, edges={self.graph.num_edges})"


def lattice_from_vectors(G: MultiGraph, vectors) -> HalfLattice:
    """HalfLattice generated by half-integral cochain vectors on ``G``."""
    rows = [v.doubled_on(G) for v in vectors]
    generators = IntMatrix(len(rows), G.num_edges, tuple(x for row in rows for x in row))
    return HalfLattice(G, generators)


def x_minus(G: MultiGraph, iota: GraphInvolution) -> HalfLattice:
    """Image of the integral cycle lattice under the anti-invariant projection.

    Works on the doubled projections 2 * pi_minus(h) = h - iota(h), which
    are integer rows: iota moves coordinate j to coordinate k with sign s,
    where (k, s) = ``iota.edge_action[j]``.  Such a row is anti-invariant,
    so it is fixed by its value at each orbit's representative: h_j enters
    that value with factor 1 at a representative j < k, -s at its partner
    j > k and 1 - s at a fixed edge j = k (the signs agree on an orbit).

    The generators are fundamental cycles c(e) of a spanning forest F,
    mapped to these orbit coordinates during the forest walk.  F is grown
    by ``union_find`` over the edges orbit by orbit, in ``edge_orbits``
    order, and only two kinds of cycle are kept: c(e) for a non-tree e
    that leads its orbit (a fixed edge included), and c(e) for a non-tree
    partner e whose representative is a tree edge.

    Lemma.  For any spanning forest F, the kept cycles' images generate
    (1 - iota) of the cycle lattice.

    Proof.  The fundamental cycles are a basis of the cycle lattice, so it
    is enough to reach (1 - iota)c(e) for a dropped e: a non-tree partner
    whose representative f is a non-tree edge too, with iota(f) = s e.
    Both iota c(f), on e and iota(F), and s c(e), on e and F, have
    coefficient s at e, so z = iota c(f) - s c(e) is a cycle on the edges
    of F and iota(F).  As (1 - iota) iota = -(1 - iota),

        (1 - iota)c(e) = s(1 - iota)(iota c(f) - z)
                       = -s (1 - iota)c(f) - s (1 - iota)z.

    c(f) is kept.  F spans the subgraph on the edges of F and iota(F) too,
    so z is an integer combination of the c(g) for g in iota(F) outside F,
    the fundamental cycles of that subgraph.  Such a g is not fixed and
    its partner iota(g) is a tree edge, so c(g) is kept whether g leads
    its orbit or not.

    The orbit order keeps the kept cycles few.  The edges met before an
    orbit form an invariant set, so when an orbit's representative closes
    a cycle its partner does too: an orbit gives one kept cycle unless all
    its edges are tree edges.  On a free cover that makes b1(G/iota) kept
    cycles, plus one for each orbit whose representative joins two
    invariant trees.

    One Hermite pass runs on the kept rows at orbit width.  Its rows,
    expanded with each partner coordinate -s times its representative's,
    are the Hermite basis at full width: every row in that pass stays
    anti-invariant, so a partner column, which follows its
    representative's, is a unit multiple of it and never takes a pivot or
    is read by a reduction.
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    action = iota.edge_action
    orbits = iota.edge_orbits
    edges = G.edges
    _, merge = union_find(G.vertices)
    forest = set()
    coordinates = [None] * G.num_edges
    # (o, sign) = expansion[j]: edge j's coordinate is orbit o's times sign
    expansion = [None] * G.num_edges
    for o, orbit in enumerate(orbits):
        j, k = orbit[0], orbit[-1]
        s = action[j][1]
        expansion[j] = (o, 1)
        lab, t, h = edges[j]
        tree = merge(t, h)
        if tree:
            forest.add(lab)
        if j == k:
            coordinates[j] = (o, 1 - s)
            continue
        expansion[k] = (o, -s)
        coordinates[j] = (o, 1)
        # the edges before this orbit are invariant, so k closes a cycle
        # when j does, and then only j's cycle is kept
        if tree:
            coordinates[k] = (o, -s)
            lab, t, h = edges[k]
            if merge(t, h):
                forest.add(lab)
    rows = fundamental_cycle_rows(G, forest, coordinates, len(orbits))
    basis = hnf_basis(IntMatrix(len(rows), len(orbits), tuple(chain.from_iterable(rows))))
    # the expansion is anti-invariant except on a fixed edge of sign +1,
    # which it leaves at its orbit value: that value must be zero
    for o, orbit in enumerate(orbits):
        if len(orbit) == 1 and action[orbit[0]][1] == 1 and any(basis.column(o)):
            raise GraphError("internal error: lattice basis vector is not anti-invariant")
    entries = [row[o] * sign for row in map(basis.row, range(basis.rows)) for o, sign in expansion]
    return HalfLattice.from_hermite_basis(G, IntMatrix(basis.rows, G.num_edges, tuple(entries)))


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
    """A split of one invariant component into two connected invariant
    vertex sets joined by >= 4 edges; ``subgraph_0`` holds the component's
    first vertex in ``G.vertices``."""

    subgraph_0: frozenset
    subgraph_1: frozenset
    connecting_edges: tuple


@dataclass(frozen=True)
class VologodskyResult:
    passed: bool
    witness: VologodskyWitness | None = None


def _unions_from(root, units, unit_adjacency, adjacency, unit_cuts):
    """Yield every union of units whose least unit is ``root`` and that
    induces a connected subgraph, as (vertex mask, cut mask) pairs.

    A unit is a union of vertex orbits that is connected in the orbit
    quotient: a single orbit, or orbits merged by ``vologodsky_check``.
    ``units[i]`` holds the vertex bits of unit i (none for a unit merged
    away), ``unit_adjacency[i]`` its neighbouring units, ``adjacency``
    maps a vertex bit to its neighbours' bits and ``unit_cuts[i]`` is the
    edge mask of unit i's cut.  A union connected in the graph is
    connected in the quotient, so each set is grown along quotient edges
    from its least unit: a branch adds one unit of the frontier, and the
    units tried before it at the same node are barred below the later
    branches, so no set repeats.

    Connectivity is carried down the tree.  Paths in the quotient lift
    through the involution, so every component of a quotient-connected
    union meets each of its orbits: the union is connected, or it is
    ``comp`` (the component of the root's first vertex) and the image of
    ``comp``.  Adding an adjacent unit keeps a connected union connected,
    since its orbits can be added one at a time, each adjacent to the
    union so far; and it joins the two halves exactly when the new
    vertices that ``comp`` reaches touch the other half.
    """
    unit_vertices = [sum(bits) for bits in units]
    below = (1 << root) - 1
    root_bits = units[root]
    comp, reach = _join(root_bits[0], adjacency[root_bits[0]], root_bits, adjacency)
    stack = [(
        1 << root, unit_vertices[root], comp, reach, unit_cuts[root],
        unit_adjacency[root] & ~below, below,
    )]
    while stack:
        mask, vertices, comp, reach, cut, frontier, barred = stack.pop()
        connected = comp == vertices
        if connected:
            yield vertices, cut
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            i = bit.bit_length() - 1
            grown = mask | bit
            grown_vertices = vertices | unit_vertices[i]
            if connected:
                grown_comp, grown_reach = grown_vertices, 0
            else:
                grown_comp, grown_reach = _join(comp, reach, units[i], adjacency)
                if grown_reach & vertices & ~comp:
                    grown_comp = grown_vertices
            stack.append((
                grown, grown_vertices, grown_comp, grown_reach, cut ^ unit_cuts[i],
                frontier | (unit_adjacency[i] & ~grown & ~barred), barred,
            ))
            barred |= bit


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


def _component(seed, within, adjacency):
    """The vertices of ``within`` that the vertex bits ``seed`` reach inside it."""
    comp = frontier = seed
    while frontier:
        low = frontier & -frontier
        frontier ^= low
        new = adjacency[low] & within & ~comp
        comp |= new
        frontier |= new
    return comp


def vologodsky_check(G: MultiGraph, iota: GraphInvolution) -> VologodskyResult:
    """Family-independence criterion for the cell decomposition.

    Fails exactly when two disjoint connected invariant subgraphs are
    joined by at least four edges; the witness returned is the first split
    of an invariant component that the search below meets.

    The verdict comes from a search over splits.  Call a component K of G
    invariant when iota(K) = K, and call the edges with exactly one end in
    a vertex set A (loops not counted) the cut of A.

    Lemma.  G has two disjoint, connected, invariant vertex sets joined by
    at least 4 edges if and only if some invariant component K is the
    disjoint union of two vertex sets A and B, both connected and
    invariant, with at least 4 edges in the cut of A.

    Proof.  Such a split is such a pair: K is a component, so every edge
    of A's cut joins A to B.  Conversely, start from a valid pair (A, B).
    Replace B by its component C in G - A.  C is invariant, because iota
    permutes the components of G - A and fixes B.  Then replace A by its
    component A' in G - C, invariant in the same way.  Neither step loses
    a crossing edge.  Every neighbour of C outside C lies in A, which lies
    in A', and every neighbour of A' outside A' lies in C, so the union of
    A' and C is connected and closed under adjacency: one component of G.
    It is invariant, so it is one of the K above, split into A' and C.

    The search works on units: unions of K's orbits that every split of
    K not yet ruled out keeps on one side, the orbits themselves at first.

    Pendant lemma.  If a unit U has exactly one neighbouring unit W in
    the orbit quotient, every split of K has U alone as one part or keeps
    U and W on one side.

    Proof.  Let A be the part that holds U and suppose W lies in the
    other part.  An edge leaving U ends in an orbit outside U next to one
    of U's, which lies in a unit next to U: in W.  A is connected, so if
    A != U some edge joins U to the rest of A; it would end in W, outside
    A.  So A = U.

    So each pendant unit (one neighbouring unit) is first tried alone as a
    part: connected, with at least 4 cut edges and K - U connected.  If it
    is no part, it is merged into its neighbour, and the merged unit keeps
    the lower index, so the unit of K's least orbit keeps that orbit's
    index, the least in K; the merged unit may be pendant in turn.  Either
    part of a remaining split may be taken as A, so the search then walks
    only the connected unions A of units that hold K's least orbit, and
    stops at the first with at least 4 cut edges, A != K and K - A
    connected.  A component left as one unit has no split and no walk.

    Vertex and edge sets are bitmasks over ``G.vertices`` and ``G.edges``.
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    bit = {v: 1 << i for i, v in enumerate(G.vertices)}
    orbit_of = {G.vertices[i]: o for o, orbit in enumerate(iota.vertex_orbits) for i in orbit}
    # incidence: a vertex's non-loop edges; the cut of a vertex set is the
    # XOR of its vertices' incidences, since an inner edge appears twice
    adjacency = dict.fromkeys(bit.values(), 0)
    incidence = dict.fromkeys(bit.values(), 0)
    unit_adjacency = [0] * len(iota.vertex_orbits)
    for k, (_, t, h) in enumerate(G.edges):
        tb, hb = bit[t], bit[h]
        adjacency[tb] |= hb
        adjacency[hb] |= tb
        if tb != hb:
            incidence[tb] |= 1 << k
            incidence[hb] |= 1 << k
            i, j = orbit_of[t], orbit_of[h]
            if i != j:
                unit_adjacency[i] |= 1 << j
                unit_adjacency[j] |= 1 << i
    # units[i]: the vertex bits of the unit whose least orbit is i, empty
    # once merged away; a merged-away unit has no neighbours
    units = [tuple(1 << i for i in orbit) for orbit in iota.vertex_orbits]
    unit_cuts = [reduce(xor, map(incidence.__getitem__, bits)) for bits in units]
    unplaced = (1 << len(G.vertices)) - 1
    while unplaced:
        # orbits are numbered by their first vertex, so the orbit of K's
        # least vertex is K's least orbit when K is invariant
        v = G.vertices[(unplaced & -unplaced).bit_length() - 1]
        component = _component(bit[v], unplaced, adjacency)
        unplaced ^= component
        if not bit[iota.vertex_map[v]] & component:
            continue
        # units of K that may be pendant: every orbit, then each merged unit
        pending = [i for i, bits in enumerate(units) if bits and bits[0] & component]
        while pending:
            u = pending.pop()
            w_bit = unit_adjacency[u]
            if not w_bit or w_bit & (w_bit - 1):
                continue
            part = sum(units[u])
            if (_splits(component, part, unit_cuts[u], adjacency)
                    and _component(units[u][0], part, adjacency) == part):
                return VologodskyResult(False, _witness(G, component, part, unit_cuts[u]))
            # merge u into its neighbour w under the lower index; when that
            # is u's, w's other neighbours are pointed at u
            w = w_bit.bit_length() - 1
            keep, gone = min(u, w), max(u, w)
            nbrs = unit_adjacency[w] ^ 1 << u
            if keep == u:
                others = nbrs
                while others:
                    low = others & -others
                    others ^= low
                    unit_adjacency[low.bit_length() - 1] ^= w_bit | 1 << u
            units[keep] += units[gone]
            unit_cuts[keep] ^= unit_cuts[gone]
            units[gone], unit_adjacency[gone], unit_adjacency[keep] = (), 0, nbrs
            pending.append(keep)
        root = orbit_of[v]
        if not unit_adjacency[root]:
            continue
        for part, cut in _unions_from(root, units, unit_adjacency, adjacency, unit_cuts):
            if _splits(component, part, cut, adjacency):
                return VologodskyResult(False, _witness(G, component, part, cut))
    return VologodskyResult(True)


def _splits(component, part, cut, adjacency):
    """Whether ``part``, with edge cut ``cut``, leaves a nonempty connected
    rest of ``component`` and has at least 4 cut edges (``part`` itself is
    the caller's to check for connectivity)."""
    rest = component ^ part
    return cut.bit_count() >= 4 and rest and _component(rest & -rest, rest, adjacency) == rest


def _witness(G, component, part, cut) -> VologodskyWitness:
    """The split of the component ``component`` into ``part``, with edge
    cut ``cut``, and its rest, the part holding the least vertex first.
    Every edge of the cut joins the two parts, since ``component`` is a
    component and loops are in no cut."""
    rest = component ^ part
    first, second = (part, rest) if part & component & -component else (rest, part)
    return VologodskyWitness(
        *(frozenset(v for i, v in enumerate(G.vertices) if bits >> i & 1)
          for bits in (first, second)),
        tuple(sorted(lab for k, lab in enumerate(G.edge_labels) if cut >> k & 1)),
    )


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
    and +-duplicate columns keep their first representative.  A partner's
    column is -s times its representative's, so the columns are formed and
    collapsed per edge orbit, and each group lists its orbits' edges in
    edge order, as do the dropped edges.
    """
    X = x_minus(G, iota)
    if X.rank == 0:
        raise GraphError("anti-invariant lattice is trivial: no dicing to compute")
    mult = multipliers(X)
    # exact: a multiplier is 1 only where every doubled coordinate is even
    orbits = iota.edge_orbits
    reps = [orbit[0] for orbit in orbits]
    rows = [
        [row[j] * mult.values[j] // 2 for j in reps]
        for row in map(X.doubled.row, range(X.rank))
    ]
    matrix, orbit_groups, dropped_orbits = collapse_columns(rows, orbits)

    def edges_of(group):
        return tuple(G.edge_labels[j] for j in sorted(chain.from_iterable(group)))

    system = UnimodularSystem(matrix)
    result = vologodsky_check(G, iota)
    return PrymDicing(
        system=system,
        lattice=X,
        multipliers=mult,
        family_independent=result.passed,
        vologodsky_witness=result.witness,
        column_edges=tuple(map(edges_of, orbit_groups)),
        dropped_edges=edges_of(dropped_orbits),
    )
