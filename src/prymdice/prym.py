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
from itertools import chain
from math import gcd

from .exactmat import IntMatrix, hermite_lattice_contains, hnf_basis
from .graph import (
    CochainVector,
    GraphError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
)
from .homology import fundamental_cycle_rows, spanning_forest
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
    mapped to these orbit coordinates during the forest walk.  F is the
    greedy forest that ``spanning_forest`` grows over the edges orbit by
    orbit, in ``edge_orbits`` order, and only two kinds of cycle are kept:
    c(e) for a non-tree e that leads its orbit (a fixed edge included),
    and c(e) for a non-tree partner e whose representative is a tree edge.
    A partner is given coordinates only when its representative is in F.

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
    forest = spanning_forest(G, map(edges.__getitem__, chain.from_iterable(orbits)))
    coordinates = [None] * G.num_edges
    # (o, sign) = expansion[j]: edge j's coordinate is orbit o's times sign
    expansion = [None] * G.num_edges
    for o, orbit in enumerate(orbits):
        j, k = orbit[0], orbit[-1]
        s = action[j][1]
        expansion[j] = (o, 1)
        if j == k:
            coordinates[j] = (o, 1 - s)
            continue
        expansion[k] = (o, -s)
        coordinates[j] = (o, 1)
        # the edges before this orbit are invariant, so k closes a cycle
        # when j does, and then only j's cycle is kept
        if edges[j][0] in forest:
            coordinates[k] = (o, -s)
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
        values = tuple(values)
        if len(self.edges) != len(values):
            raise GraphError("multiplier count does not match edge count")
        # checked before int(), which would truncate 1.5 and refuse "x" with its own error
        if any(v not in (0, 1, 2) for v in values):
            raise GraphError("multipliers must be 0, 1 or 2")
        self.values = tuple(map(int, values))

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


def _unions_from(root, even, odd, loose, cuts):
    """Yield every union of units that holds ``root`` and lifts connected,
    as (unit mask, cut mask) pairs, when ``root`` is the least unit of its
    quotient component.

    ``even[i]`` and ``odd[i]`` are the masks of the units that unit i has
    even and odd edges to, ``loose`` is the mask of the loose units and
    ``cuts[i]`` is the edge mask of unit i's cut (see ``vologodsky_check``).
    A union that lifts connected is connected in the quotient, so each set
    is grown along quotient edges from ``root``: a branch adds one unit of
    the frontier, and the units tried before it at the same node are barred
    below the later branches, so no set repeats.

    Sheets are carried down the tree while the union lifts disconnected,
    ``ones`` holding its units on sheet 1 and ``root`` on sheet 0: an added
    unit takes the one sheet that its edges into the union allow.  When
    they allow neither, or the unit is loose, the union lifts connected, and
    so does every union grown from it.
    """
    stack = [(1 << root, 0, loose >> root & 1, cuts[root], even[root] | odd[root], 0)]
    while stack:
        mask, ones, connected, cut, frontier, barred = stack.pop()
        if connected:
            yield mask, cut
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            i = bit.bit_length() - 1
            grown_ones, joined = ones, connected or bit & loose
            if not joined:
                zeros = mask ^ ones
                if even[i] & ones or odd[i] & zeros:
                    if even[i] & zeros or odd[i] & ones:
                        joined = True
                    else:
                        grown_ones |= bit
            grown = mask | bit
            stack.append((
                grown, grown_ones, joined, cut ^ cuts[i],
                frontier | ((even[i] | odd[i]) & ~grown & ~barred), barred,
            ))
            barred |= bit


def _lifts(seed, within, even, odd, loose):
    """The units of ``within`` that the unit ``seed`` reaches inside it,
    and whether their lift is connected: whether one of them is loose or
    the sheets that the search hands out, ``seed`` on sheet 0, disagree on
    some edge."""
    reached = frontier = seed
    ones = clash = 0
    while frontier:
        bit = frontier & -frontier
        frontier ^= bit
        i = bit.bit_length() - 1
        to_zero, to_one = even[i] & within, odd[i] & within
        if bit & ones:
            to_zero, to_one = to_one, to_zero
        new = (to_zero | to_one) & ~reached
        ones |= to_one & new
        reached |= new
        frontier |= new
        clash |= to_one & ~ones | to_zero & ones
    return reached, bool(clash or reached & loose)


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

    The search runs on the orbit quotient, over units: unions of vertex
    orbits, connected in the quotient, that every split of K not yet ruled
    out keeps on one side, the orbits themselves at first.  The lift of a
    set of units is the set of vertices of their orbits.  A unit is loose
    when its lift is connected; otherwise its lift is two components that
    iota swaps (see below), its sheets 0 and 1.  An orbit is loose when it
    is a fixed vertex or has an edge from v to iota(v), loops making
    nothing loose; a free orbit's sheet 0 is the vertex that leads it in
    ``iota.vertex_orbits``.  An edge between two units that are not loose
    is even when its ends lie on sheets with the same number and odd
    otherwise, and iota keeps its parity.  (The unit masks below file an
    edge at a loose unit by the sheets of its end vertices all the same;
    no test reads that parity.)

    Lift lemma.  A set S of units, connected in the quotient, lifts
    connected if and only if some unit of S is loose or the sheets
    disagree on some edge: no choice of one sheet s(U) per unit U of S has
    every edge of S between units U and V odd exactly when s(U) != s(V).

    Proof.  Paths in the quotient lift through iota, so every component of
    the lift meets the lift of every unit of S; a loose unit's connected
    lift lies in one component, which is then the only one.  If no unit is
    loose, each sheet of a unit lies in one component and every component
    holds a sheet of every unit, so there are at most two components; if
    there are two, C and C', C holds exactly one sheet s(U) of each unit
    U.  An edge with an end in C has both there, and one with no end in C
    has both on the other sheets, so every edge is odd exactly when
    s(U) != s(V).  Conversely, if no unit is loose and s exists, no edge
    of the lift leaves the union of the sheets s(U): an edge inside a unit
    stays on its sheet, and an edge between units goes from sheet s(U) to
    sheet s(V) by its parity.  That union is neither empty nor the whole
    lift.

    The sheets of a merged unit U + W that is not loose come from the
    proof: its lift is two components, each holding one sheet of U and
    one of W, which iota swaps because it swaps the sheets of W.

    So a component of the quotient lifts to one invariant component of G
    when it holds a loose unit or its sheets disagree, and otherwise to two
    components that iota swaps, neither invariant.

    Pendant lemma.  If a unit U has exactly one neighbouring unit W in
    the orbit quotient, every split of K has U alone as one part or keeps
    U and W on one side.

    Proof.  Let A be the part that holds U and suppose W lies in the
    other part.  An edge leaving U ends in an orbit outside U next to one
    of U's, which lies in a unit next to U: in W.  A is connected, so if
    A != U some edge joins U to the rest of A; it would end in W, outside
    A.  So A = U.

    Merge lemma.  Every edge that leaves the union of a pendant unit U and
    its neighbour W leaves from W.

    Proof.  An edge with an end in U ends in U or in W, as above, so it
    does not leave the union.

    So each pendant unit is first tried alone as a part: loose, so that
    it is connected, with at least 4 cut edges and K - U lifting
    connected.  If it is no part, it is merged into its neighbour.  By the
    merge lemma the merged unit keeps W's sheets, W's neighbours other
    than U and W's parities to them, and its cut is the XOR of the two
    cuts; by the lift lemma it is loose when U or W is, or when U's edges
    to W come in both parities.  The merged unit keeps the lower index, so
    the unit of K's least orbit keeps that orbit's index, the least in K;
    the merged unit may be pendant in turn.  Either part of a remaining
    split may be taken as A, so the search then walks only the unions A
    of units that hold K's least orbit and lift connected, and stops at
    the first with at least 4 cut edges, A != K and K - A lifting
    connected.  A component left as one unit has no split and no walk.

    Unit sets are bitmasks over the orbits of ``iota.vertex_orbits``, a
    unit taking the index of its least orbit, and cuts are bitmasks over
    ``G.edges``.
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    orbits = iota.vertex_orbits
    place = {G.vertices[v]: (o, s) for o, orbit in enumerate(orbits) for s, v in enumerate(orbit)}
    even, odd, cuts = [0] * len(orbits), [0] * len(orbits), [0] * len(orbits)
    loose = sum(1 << o for o, orbit in enumerate(orbits) if len(orbit) == 1)
    for k, (_, t, h) in enumerate(G.edges):
        (i, s), (j, r) = place[t], place[h]
        if i == j:  # a loop, or an edge from v to iota(v)
            loose |= (s ^ r) << i
            continue
        parity = odd if s != r else even
        parity[i] |= 1 << j
        parity[j] |= 1 << i
        cuts[i] |= 1 << k
        cuts[j] |= 1 << k
    # units[i]: the vertex indices of the unit with index i
    units = list(orbits)
    unplaced = (1 << len(orbits)) - 1
    while unplaced:
        component, invariant = _lifts(unplaced & -unplaced, unplaced, even, odd, loose)
        unplaced ^= component
        if not invariant:
            continue
        # units of K that may be pendant: every orbit, then each merged unit
        pending = [i for i in range(component.bit_length()) if component >> i & 1]
        while pending:
            u = pending.pop()
            w_bit = even[u] | odd[u]
            if not w_bit or w_bit & (w_bit - 1):
                continue
            u_bit = 1 << u
            if loose & u_bit and _splits(component, u_bit, cuts[u], even, odd, loose):
                return VologodskyResult(False, _witness(G, units, component, u_bit, cuts[u]))
            # merge u into its neighbour w under the lower index; when that
            # is u's, w's other neighbours are pointed at u
            w = w_bit.bit_length() - 1
            keep, gone = min(u, w), max(u, w)
            # even[u] and odd[u] hold at most w
            merged_loose = bool(loose & (u_bit | w_bit) or even[u] & odd[u])
            loose = loose & ~(u_bit | w_bit) | merged_loose << keep
            even_w, odd_w = even[w] & ~u_bit, odd[w] & ~u_bit
            if keep == u:
                others = even_w | odd_w
                while others:
                    low = others & -others
                    others ^= low
                    x = low.bit_length() - 1
                    if even[x] & w_bit:
                        even[x] ^= w_bit | u_bit
                    if odd[x] & w_bit:
                        odd[x] ^= w_bit | u_bit
            even[gone] = odd[gone] = 0
            even[keep], odd[keep] = even_w, odd_w
            cuts[keep] ^= cuts[gone]
            units[keep] += units[gone]
            component ^= 1 << gone
            pending.append(keep)
        root = (component & -component).bit_length() - 1
        if not even[root] | odd[root]:
            continue
        for part, cut in _unions_from(root, even, odd, loose, cuts):
            if _splits(component, part, cut, even, odd, loose):
                return VologodskyResult(False, _witness(G, units, component, part, cut))
    return VologodskyResult(True)


def _splits(component, part, cut, even, odd, loose):
    """Whether ``part``, with edge cut ``cut``, leaves a nonempty rest of
    ``component`` that lifts connected and has at least 4 cut edges
    (``part`` itself is the caller's to check)."""
    rest = component ^ part
    return (cut.bit_count() >= 4 and rest
            and _lifts(rest & -rest, rest, even, odd, loose) == (rest, True))


def _witness(G, units, component, part, cut) -> VologodskyWitness:
    """The split of the units ``component`` into ``part``, with edge cut
    ``cut``, and its rest, the part holding the least vertex first.  Every
    edge of the cut joins the two parts, since ``component`` lifts to a
    component and loops are in no cut."""
    rest = component ^ part
    first, second = (part, rest) if part & component & -component else (rest, part)
    return VologodskyWitness(
        *(frozenset(G.vertices[v] for i, unit in enumerate(units) if bits >> i & 1 for v in unit)
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
