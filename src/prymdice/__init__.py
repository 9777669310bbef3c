"""Degeneration data of Jacobians and Pryms from stable-curve dual graphs.

Exact combinatorial computation: cycle lattices of multigraphs, the
anti-invariant lattice of a double cover with involution, the unimodular
systems dicing them, and classification of those systems (total
unimodularity, lattice equivalence, cographic recognition).
"""

from .exactmat import (
    IntMatrix,
    MatrixError,
    det,
    format_matrix_text,
    hnf,
    hnf_basis,
    parse_matrix_text,
    rank,
    square_submatrices,
)
from .graph import (
    CochainVector,
    GraphError,
    GraphFormatError,
    GraphInvolution,
    MultiGraph,
    apply_involution,
    components,
    format_graph_text,
    involution_quotient,
    parse_graph_text,
)
from .homology import (
    CycleBasis,
    betti_number,
    cographic_dicing,
    cographic_dicing_system,
    cycle_basis,
    fundamental_cycle,
    is_cycle,
)
from .prym import (
    HalfLattice,
    MultiplierVector,
    PrymDicing,
    VologodskyResult,
    VologodskyWitness,
    multipliers,
    pi_minus,
    prym_dicing,
    torus_rank,
    vologodsky_check,
    x_minus,
)
from .segre import (
    BasisReport,
    DegenerationReport,
    SegreFixture,
    degeneration_report,
    fixture,
    validate_basis_data,
)
from .unimod import (
    CographicCertificate,
    Equivalence,
    NotTotallyUnimodularError,
    SearchCapExceeded,
    TUCertificate,
    UnimodularSystem,
    bond_system,
    dicing_is_lattice,
    e5,
    is_cographic,
    is_totally_unimodular,
    matroid_equivalent,
    systems_equivalent,
    verify_equivalence,
)

__version__ = "0.1.0"
