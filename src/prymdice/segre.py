"""Pentagon double cover: the degeneration fixture and its full pipeline.

The cover is the dual graph of the double cover of a pentagon of five
lines (the degenerate plane quintic obtained by projecting the ten-nodal
cubic threefold from a line): ten vertices a1..a5, b1..b5 and twenty
edges in involution-paired primed/unprimed pairs.  It is read from the
shipped graph file ``data/segre_cover.graph``, its one copy.  The fixed
data here are the nine-edge spanning tree used to build the cycle basis
and the eleven-cycle homology basis together with the five anti-invariant
generators it projects onto; ``fixture`` checks them against the cover.

Orientation conventions: every edge is oriented (tail, head) exactly as
in the recorded endpoint list, and each basis cycle is the fundamental
cycle of its unique non-tree edge, carrying the recorded sign there.  The
signs are normalized so that the two anti-invariant projections of each
cycle pair agree exactly (they are negatives of each other under the
all-plus normalization).
"""

from __future__ import annotations

import importlib.resources
from dataclasses import dataclass

from .exactmat import IntMatrix, rank as matrix_rank
from .graph import (
    GraphError,
    GraphInvolution,
    MultiGraph,
    involution_quotient,
    parse_graph_text,
)
from .homology import cycle_basis, is_cycle
from .prym import (
    PrymDicing,
    lattice_from_vectors,
    multipliers as edge_multipliers,
    pi_minus,
    prym_dicing,
    x_minus,
)
from .unimod import (
    CographicCertificate,
    Equivalence,
    e5,
    is_cographic,
    systems_equivalent,
    verify_equivalence,
)

TREE_EDGES = frozenset({"e6", "e7", "e8", "e9", "e10", "e10'", "e7'", "e9'", "e8'"})

# Homology basis: (non-tree edge, sign of its coefficient), in basis order.
_CYCLE_SPECS = (
    ("e6'", 1),
    ("e1'", 1),
    ("e1", -1),
    ("e2", 1),
    ("e2'", -1),
    ("e5'", 1),
    ("e5", -1),
    ("e4", 1),
    ("e3", 1),
    ("e4'", -1),
    ("e3'", -1),
)

# Recorded support of each basis cycle, keyed by its non-tree edge.
_CYCLE_SUPPORTS = {
    "e6'": {"e6'", "e7'", "e9'", "e6", "e7", "e9"},
    "e1'": {"e1'", "e7'", "e9'", "e6", "e7", "e10"},
    "e1": {"e1", "e10'", "e9'", "e6"},
    "e2": {"e2", "e6", "e7", "e10"},
    "e2'": {"e2'", "e10'", "e9'", "e6", "e7", "e9"},
    "e5'": {"e5'", "e8'", "e10'", "e9'", "e6", "e7"},
    "e5": {"e5", "e9'", "e6", "e7", "e10", "e8"},
    "e4": {"e4", "e9", "e10", "e8"},
    "e3": {"e3", "e7", "e10", "e8"},
    "e4'": {"e4'", "e9'", "e10'", "e8'"},
    "e3'": {"e3'", "e7'", "e10'", "e8'"},
}

# Index pairs (into the basis order above) whose projections coincide; the
# five pairs generate the anti-invariant lattice.
PROJECTION_PAIRS = ((1, 2), (3, 4), (8, 10), (7, 9), (5, 6))


def build_cover() -> tuple[MultiGraph, GraphInvolution]:
    """The cover and its involution, parsed from the shipped graph file."""
    text = (
        importlib.resources.files("prymdice")
        .joinpath("data/segre_cover.graph")
        .read_text(encoding="utf-8")
    )
    return parse_graph_text(text)


@dataclass(frozen=True)
class SegreFixture:
    cover: MultiGraph
    involution: GraphInvolution
    tree_edges: frozenset
    homology_basis: tuple  # 11 integral cycles
    anti_invariant_basis: tuple  # 5 half-integral generators


def fixture() -> SegreFixture:
    """Build and validate the fixture; any defect in the fixed data fails loudly."""
    cover, iota = build_cover()
    if not iota.is_fixed_point_free():
        raise GraphError("fixture involution must be fixed-point free")
    for v in cover.vertices:
        if cover.degree(v) != 4:
            raise GraphError(f"fixture vertex {v} has degree {cover.degree(v)}, expected 4")
    non_tree = [lab for lab in cover.edge_labels if lab not in TREE_EDGES]
    by_edge = dict(zip(non_tree, cycle_basis(cover, TREE_EDGES).basis))
    basis = tuple(by_edge[lab].scaled(sign) for lab, sign in _CYCLE_SPECS)
    for (lab, _), vec in zip(_CYCLE_SPECS, basis):
        if not is_cycle(cover, vec):
            raise GraphError(f"fixture cycle at {lab} is not a cycle")
        if set(vec.support()) != _CYCLE_SUPPORTS[lab]:
            raise GraphError(f"fixture cycle at {lab} has unexpected support")
    anti = tuple(pi_minus(iota, basis[i]) for i, _ in PROJECTION_PAIRS)
    quotient = involution_quotient(cover, iota)
    if quotient.num_vertices != 5 or quotient.num_edges != 10:
        raise GraphError("quotient of the cover is not a 5-vertex, 10-edge graph")
    endpoints = {frozenset(quotient.endpoints(lab)) for lab in quotient.edge_labels}
    if len(endpoints) != 10 or any(len(e) != 2 for e in endpoints):
        raise GraphError("quotient of the cover is not the complete graph on 5 vertices")
    return SegreFixture(cover, iota, TREE_EDGES, basis, anti)


@dataclass(frozen=True)
class BasisReport:
    """Outcome of re-deriving the recorded bases from first principles."""

    all_cycles: bool
    homology_rank: int
    projection_identities: tuple  # ten booleans, two per generator
    lattice_matches: bool


def validate_basis_data(f: SegreFixture) -> BasisReport:
    """Check every recorded datum exactly; raises naming the offender."""
    for i, vec in enumerate(f.homology_basis):
        if not is_cycle(f.cover, vec):
            bad = next(lab for lab, x in zip(f.cover.edge_labels, vec.doubled) if x)
            raise GraphError(f"basis vector {i} is not a cycle (support starts at {bad})")
    # doubling the rows leaves the rank unchanged
    hrank = matrix_rank(IntMatrix.from_rows([v.doubled for v in f.homology_basis]))
    if hrank != 11:
        raise GraphError(f"homology basis has rank {hrank}, expected 11")
    identities = []
    for gen_index, (first, second) in enumerate(PROJECTION_PAIRS):
        target = f.anti_invariant_basis[gen_index]
        for member in (first, second):
            proj = pi_minus(f.involution, f.homology_basis[member])
            same = proj == target
            identities.append(same)
            if not same:
                lab = min((proj - target).support(), key=f.cover.edge_index)
                raise GraphError(
                    f"projection of basis vector {member} differs from generator "
                    f"{gen_index} at edge {lab}"
                )
    ell_lattice = lattice_from_vectors(f.cover, f.anti_invariant_basis)
    computed = x_minus(f.cover, f.involution)
    lattice_matches = ell_lattice.same_lattice_as(computed)
    if not lattice_matches:
        raise GraphError("generator lattice differs from the projected cycle lattice")
    return BasisReport(True, hrank, tuple(identities), True)


def dicing_matrix_in_generator_basis(f: SegreFixture) -> IntMatrix:
    """The dicing matrix written in the recorded generator basis.

    Entry (i, j) is the multiplier-scaled j-th coordinate of generator i,
    over the ten unprimed edges; a sign-retaining reading of incidence
    between generators and edges.  Equivalent to the HNF-basis system.
    """
    labels = f.cover.edge_labels
    base = [j for j, lab in enumerate(labels) if not lab.endswith("'")]
    lattice = lattice_from_vectors(f.cover, f.anti_invariant_basis)
    mult = edge_multipliers(lattice).values
    rows = []
    for gen in f.anti_invariant_basis:
        row = []
        for j in base:
            twice = gen.doubled[j] * mult[j]
            if twice % 2:
                raise GraphError(f"internal error: dicing entry at {labels[j]} is not integral")
            row.append(twice // 2)
        rows.append(row)
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class DegenerationReport:
    """End-to-end result for the pentagon double cover."""

    torus_rank: int
    dicing: PrymDicing
    equivalence: Equivalence | None
    equivalence_verified: bool
    e5_cographic: CographicCertificate
    conclusion: str


def degeneration_report(f: SegreFixture, max_graphs: int | None = None) -> DegenerationReport:
    """Run the full pipeline: admissibility, lattice, dicing, comparison.

    The last stage is the exhaustive cographic search on the reference
    system, which enumerates every candidate multigraph (about 0.2 s).
    """
    dicing = prym_dicing(f.cover, f.involution)
    reference = e5()
    equivalence = systems_equivalent(dicing.system, reference)
    verified = equivalence is not None and verify_equivalence(
        dicing.system, reference, equivalence
    )
    certificate = is_cographic(reference, max_graphs=max_graphs)
    if verified and not certificate.is_cographic:
        conclusion = "non-cographic dicing obtained"
    elif verified:
        conclusion = "cographic dicing obtained"
    else:
        conclusion = "system does not match the reference"
    return DegenerationReport(
        torus_rank=dicing.lattice.rank,
        dicing=dicing,
        equivalence=equivalence,
        equivalence_verified=verified,
        e5_cographic=certificate,
        conclusion=conclusion,
    )
