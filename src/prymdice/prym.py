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

from .exactmat import IntMatrix, RationalMatrix, column_gcd, hnf_basis, row_lattice_contains
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
    """Sublattice of (1/2)Z^E given by a row basis; rows are anti-invariant."""

    def __init__(self, graph: MultiGraph, basis: RationalMatrix):
        if basis.cols != graph.num_edges:
            raise GraphError("basis width does not match the graph's edge count")
        self.graph = graph
        self.basis = basis
        if basis.rows and hnf_basis(basis.doubled()).rows != basis.rows:
            raise GraphError("basis rows are linearly dependent")

    @property
    def ambient_edges(self) -> tuple:
        return self.graph.edge_labels

    @property
    def rank(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> tuple:
        den = self.basis.denominator
        return tuple(
            CochainVector(
                self.graph,
                [Fraction(x, den) for x in self.basis.numerator.row(i)],
            )
            for i in range(self.basis.rows)
        )

    def contains(self, v: CochainVector) -> bool:
        if self.rank == 0:
            return v.is_zero()
        doubled = self.basis.doubled()
        twice = [2 * c for c in v.coefficients]
        if any(x.denominator != 1 for x in twice):
            return False
        return row_lattice_contains(doubled, twice)

    def same_lattice_as(self, other: "HalfLattice") -> bool:
        if self.graph.edge_labels != other.graph.edge_labels:
            return False
        if self.rank == 0 or other.rank == 0:
            return self.rank == other.rank
        return hnf_basis(self.basis.doubled()) == hnf_basis(other.basis.doubled())

    def __repr__(self):
        return f"HalfLattice(rank={self.rank}, edges={self.graph.num_edges})"


def lattice_from_vectors(G: MultiGraph, vectors) -> HalfLattice:
    """HNF-reduced HalfLattice generated by half-integral cochain vectors."""
    rows = []
    for v in vectors:
        doubled = [2 * c for c in v.coefficients]
        if any(x.denominator != 1 for x in doubled):
            raise GraphError("generators must have half-integer coefficients")
        row = [int(x) for x in doubled]
        if any(row):
            rows.append(row)
    if not rows:
        return HalfLattice(G, RationalMatrix(IntMatrix(0, G.num_edges, ()), 1))
    reduced = hnf_basis(IntMatrix.from_rows(rows))
    return HalfLattice(G, RationalMatrix(reduced, 2))


def x_minus(G: MultiGraph, iota: GraphInvolution) -> HalfLattice:
    """Image of the integral cycle lattice under the anti-invariant projection."""
    basis = cycle_basis(G).basis
    lattice = lattice_from_vectors(G, [pi_minus(iota, h) for h in basis])
    for v in lattice.basis_vectors():
        if apply_involution(iota, v) != -v:
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
    doubled = X.basis.doubled()
    values = []
    for j, lab in enumerate(X.ambient_edges):
        g = column_gcd(doubled, j) if X.rank else 0
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


def vologodsky_check(G: MultiGraph, iota: GraphInvolution) -> VologodskyResult:
    """Family-independence criterion for the cell decomposition.

    Fails exactly when two disjoint connected invariant subgraphs are
    joined by at least four edges; the witness returned is the first such
    pair in a fixed deterministic order (invariant vertex subsets are
    unions of vertex orbits, scanned in ascending bitmask order).
    """
    if iota.graph != G:
        raise GraphError("involution belongs to a different graph")
    if G.num_edges < 4:
        return VologodskyResult(True)
    orbits = []
    seen = set()
    for v in G.vertices:
        if v in seen:
            continue
        orbit = frozenset({v, iota.vertex_map[v]})
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    k = len(orbits)

    def vertex_set(mask: int) -> frozenset:
        out = set()
        for i in range(k):
            if mask >> i & 1:
                out.update(orbits[i])
        return frozenset(out)

    def induced_connected(vset: frozenset) -> bool:
        start = next(iter(vset))
        comp = {start}
        stack = [start]
        while stack:
            x = stack.pop()
            for _, y in G.neighbors(x):
                if y in vset and y not in comp:
                    comp.add(y)
                    stack.append(y)
        return comp == vset

    connected_masks = [
        (mask, vertex_set(mask))
        for mask in range(1, 1 << k)
        if induced_connected(vertex_set(mask))
    ]
    for idx, (mask_a, set_a) in enumerate(connected_masks):
        for mask_b, set_b in connected_masks[idx + 1 :]:
            if mask_a & mask_b:
                continue
            crossing = [
                lab
                for lab, t, h in G.edges
                if (t in set_a and h in set_b) or (t in set_b and h in set_a)
            ]
            if len(crossing) >= 4:
                return VologodskyResult(
                    False,
                    VologodskyWitness(set_a, set_b, tuple(sorted(crossing))),
                )
    return VologodskyResult(True)


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
    doubled = X.basis.doubled()
    rows = []
    for i in range(X.rank):
        row = []
        for j, lab in enumerate(X.ambient_edges):
            m_j = mult[lab]
            if m_j == 2:
                row.append(doubled.entry(i, j))
            elif m_j == 1:
                # image is Z: every doubled coordinate is even
                row.append(doubled.entry(i, j) // 2)
            else:
                row.append(0)
        rows.append(row)
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


def prym_dicing_system(G: MultiGraph, iota: GraphInvolution) -> UnimodularSystem:
    return prym_dicing(G, iota).system
