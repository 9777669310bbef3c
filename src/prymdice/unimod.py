"""Unimodular systems: total unimodularity, equivalence, cographic recognition.

A unimodular system is a full-rank set of integer column vectors all of
whose square subselections have determinant in {-1, 0, 1}.  Two systems
are equivalent when an integer change of basis (GL_n(Z)) plus a signed
relabeling of the vectors carries one onto the other; this is exactly
invariance under change of lattice basis and re-orientation of edges.

Every system caches one column matroid (its independent column subsets,
as bitmasks), and that is the only source of independence data here: its
invariants gate both equivalence searches, its independent sets choose
the basis and drive the prefix pruning of the lattice-equivalence search,
and its bases feed the forest-count filter of cographic recognition.
Coordinates in a chosen basis come from one Cramer solve (adjugate and
determinant), so no rational elimination is needed.

Cographic recognition is decided by brute force: candidate multigraphs
with the right edge count and incidence rank are enumerated exhaustively
up to isomorphism and each is compared through an independence-structure
(matroid) backtracking search.  Certificates in both directions are
returned and independently checkable.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from functools import cache, cached_property

from . import enumerate_graphs
from .exactmat import IntMatrix, det, det_of_rows, minors, rank
from .graph import GraphError, MultiGraph, components


class NotTotallyUnimodularError(ValueError):
    """Raised when an operation requires a TU system; carries the certificate."""

    def __init__(self, certificate: "TUCertificate"):
        self.certificate = certificate
        rows, cols, value = certificate.violating_minor
        super().__init__(
            f"matrix is not totally unimodular: minor at rows {rows}, cols {cols} "
            f"has determinant {value}"
        )


class SearchCapExceeded(RuntimeError):
    """Raised when the cographic search hits its configured graph cap."""

    def __init__(self, report: "SearchReport"):
        self.report = report
        super().__init__(
            f"cographic search cap of {report.cap} candidate graphs exceeded "
            f"(graphs_tried={report.graphs_tried}, connected_tried={report.connected_tried}, "
            f"disconnected_tried={report.disconnected_tried}, "
            f"forest_count_matches={report.forest_count_matches})"
        )


def _sign_normalize(col):
    """The one of ``col`` and ``-col`` whose first nonzero entry is positive."""
    for x in col:
        if x != 0:
            return col if x > 0 else tuple(-y for y in col)
    return col


class UnimodularSystem:
    """A system of m >= n integer vectors spanning R^n (columns of ``matrix``).

    Invariants: full row rank, no zero columns, and (unless constructed
    with ``allow_repeats=True``, as incidence matrices of graphs with
    parallel edges require) no two columns equal or opposite.  A system is
    never mutated after construction, so its column matroid is computed on
    first use and cached as ``matroid``.
    """

    def __init__(self, matrix: IntMatrix, allow_repeats: bool = False):
        if matrix.rows < 1 or matrix.cols < 1:
            raise ValueError("a unimodular system needs at least one row and column")
        if matrix.cols < matrix.rows:
            raise ValueError("a system needs at least as many vectors as its dimension")
        for j in range(matrix.cols):
            if all(x == 0 for x in matrix.column(j)):
                raise ValueError(f"zero column at index {j}")
        if not allow_repeats:
            seen = {}
            for j in range(matrix.cols):
                key = _sign_normalize(matrix.column(j))
                if key in seen:
                    raise ValueError(f"columns {seen[key]} and {j} are equal or opposite")
                seen[key] = j
        if rank(matrix) != matrix.rows:
            raise ValueError("columns do not span: row rank is deficient")
        self.matrix = matrix
        self.allow_repeats = allow_repeats

    @cached_property
    def matroid(self) -> "_ColumnMatroid":
        return _ColumnMatroid(self.matrix)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def size(self) -> int:
        return self.matrix.cols

    def column(self, j: int) -> tuple:
        return self.matrix.column(j)

    def __eq__(self, other):
        return isinstance(other, UnimodularSystem) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"UnimodularSystem(dim={self.dim}, size={self.size})"


@cache
def e5() -> UnimodularSystem:
    """The exceptional rank-5 system on ten vectors, in its standard form.

    Systems are never mutated, so one shared instance (and its cached
    column matroid) serves every caller.
    """
    return UnimodularSystem(
        IntMatrix.from_rows(
            [
                [1, 0, 0, 0, 0, 1, 0, 0, 1, 1],
                [0, 1, 0, 0, 0, 1, 1, 0, 0, 1],
                [0, 0, 1, 0, 0, 0, 1, 1, 0, 1],
                [0, 0, 0, 1, 0, 0, 0, 1, 1, 1],
                [0, 0, 0, 0, 1, 1, 1, 1, 1, 1],
            ]
        )
    )


@dataclass(frozen=True)
class TUCertificate:
    """Verdict of the minor sweep; a violation cites the offending minor."""

    is_tu: bool
    violating_minor: tuple | None = None  # (row indices, col indices, determinant)


def _as_matrix(S) -> IntMatrix:
    return S.matrix if isinstance(S, UnimodularSystem) else S


def is_totally_unimodular(S) -> TUCertificate:
    """Exhaustive minor check: every square submatrix determinant in {-1, 0, 1}.

    Every minor is checked, by ascending size and lexicographic index sets
    (the order of ``square_submatrices``), and the sweep stops at the first
    violation, which the certificate cites.  The minors come from the
    level-wise Laplace recurrence of ``exactmat.minors``: each is expanded
    over smaller minors that already passed, so the integers stay small.
    A cited minor can be recomputed independently from its index sets.
    """
    for row_idx, col_idx, d in minors(_as_matrix(S)):
        if d < -1 or d > 1:
            return TUCertificate(False, (row_idx, col_idx, d))
    return TUCertificate(True)


def dicing_is_lattice(S) -> bool:
    """Whether the hyperplane family of the system dices space into a lattice.

    The intersection points of the hyperplanes form a lattice exactly when
    the system is totally unimodular, so this simply renames the TU check.
    """
    return is_totally_unimodular(S).is_tu


# ---------------------------------------------------------------------------
# Graph-derived systems
# ---------------------------------------------------------------------------


def cut_space_matrix(G: MultiGraph) -> IntMatrix:
    """Vertex-edge incidence matrix with one row dropped per component."""
    comps = components(G)
    drop = {max(sorted(c)) for c in comps}
    kept = [v for v in G.vertices if v not in drop]
    index = {v: i for i, v in enumerate(kept)}
    rows = [[0] * G.num_edges for _ in kept]
    for j, (lab, t, h) in enumerate(G.edges):
        if t == h:
            continue
        if h in index:
            rows[index[h]][j] += 1
        if t in index:
            rows[index[t]][j] -= 1
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, G.num_edges, ())


def bond_system(G: MultiGraph) -> UnimodularSystem:
    """Cut-space system of a connected graph: incidence matrix minus one row.

    Parallel edges give repeated columns and are kept (the ground set of
    the column independence structure must stay intact), so the system is
    built with repeats allowed.  Loops would give zero columns and are
    rejected.
    """
    if G.num_edges == 0:
        raise GraphError("bond system needs at least one edge")
    if len(components(G)) != 1:
        raise GraphError("bond system requires a connected graph; split into components")
    for lab in G.edge_labels:
        if G.is_loop(lab):
            raise GraphError(f"loop {lab!r} gives a zero column; remove loops first")
    return UnimodularSystem(cut_space_matrix(G), allow_repeats=True)


def spanning_forest_count(G: MultiGraph) -> int:
    """Number of spanning forests with |V| - #components edges (Kirchhoff).

    A spanning forest is one spanning tree per component, so the count is
    the product of the components' spanning-tree counts.
    """
    total = 1
    for comp in components(G):
        index = {v: i for i, v in enumerate(sorted(comp))}
        pairs = tuple(sorted(
            (index[t], index[h]) if index[t] <= index[h] else (index[h], index[t])
            for _, t, h in G.edges
            if t in index and t != h
        ))
        # uncached: the cache is for the search's recurring components,
        # not for arbitrary graphs
        total *= _spanning_tree_count.__wrapped__(pairs, len(index))
    return total


@cache
def _spanning_tree_count(pairs, nverts: int) -> int:
    """Spanning trees of a connected pair-graph: a reduced Laplacian determinant.

    Loops are ignored.  Cached, since the cographic search meets the same
    connected components in many disjoint unions.
    """
    if nverts == 1:
        return 1
    lap = [[0] * nverts for _ in range(nverts)]
    for u, v in pairs:
        if u != v:
            lap[u][u] += 1
            lap[v][v] += 1
            lap[u][v] -= 1
            lap[v][u] -= 1
    return det_of_rows([row[:-1] for row in lap[:-1]])


# ---------------------------------------------------------------------------
# Column matroid machinery (independence structure of the columns)
# ---------------------------------------------------------------------------


class _ColumnMatroid:
    """Bases and independence data of a full-row-rank matrix's columns, as bitmasks.

    ``invariants`` (rank, basis count, independent-set census by size and
    the sorted per-element profiles) is preserved by any column bijection
    that maps independent sets to independent sets, so a mismatch refutes
    both matroid and lattice equivalence.
    """

    def __init__(self, M: IntMatrix):
        self.m = M.cols
        self.n = M.rows
        self.bases = self._compute_bases(M)
        self.rank = self.n
        self.independent = self._downward_closure()
        self.census = self._census()
        self.element_profiles = self._element_profiles()
        self.invariants = (
            self.rank, len(self.bases), self.census, tuple(sorted(self.element_profiles))
        )

    def _compute_bases(self, M: IntMatrix):
        # the full-height minors are the top level of the trailing-row sweep
        bases = []
        for _, cols, d in minors(M, trailing_rows=True):
            if d and len(cols) == self.n:
                mask = 0
                for c in cols:
                    mask |= 1 << c
                bases.append(mask)
        return frozenset(bases)

    def _downward_closure(self):
        independent = set(self.bases)
        level = set(self.bases)
        while level:
            nxt = set()
            for mask in level:
                mm = mask
                while mm:
                    bit = mm & -mm
                    nxt.add(mask ^ bit)
                    mm ^= bit
            nxt -= independent
            independent |= nxt
            level = nxt
        independent.add(0)
        return independent

    def _census(self):
        counts = Counter(bin(mask).count("1") for mask in self.independent)
        return tuple(counts.get(k, 0) for k in range(self.rank + 1))

    def _element_profiles(self):
        # per element: how many independent sets of each size 1..rank contain it
        counts = [[0] * self.rank for _ in range(self.m)]
        for mask in self.independent:
            slot = bin(mask).count("1") - 1
            mm = mask
            while mm:
                bit = mm & -mm
                counts[bit.bit_length() - 1][slot] += 1
                mm ^= bit
        return tuple(tuple(c) for c in counts)

    def first_basis(self) -> tuple:
        """The lexicographically first basis, chosen greedily."""
        chosen, mask = [], 0
        for j in range(self.m):
            if mask | 1 << j in self.independent:
                chosen.append(j)
                mask |= 1 << j
        return tuple(chosen)

    def span_size(self, mask: int) -> int:
        """Number of elements in the span of the independent set ``mask``."""
        return sum(
            1 for j in range(self.m) if mask >> j & 1 or mask | 1 << j not in self.independent
        )


def matroid_equivalent(A: UnimodularSystem, B: UnimodularSystem):
    """Column bijection carrying independent sets to independent sets, or None.

    Pruned by the cached matroids' invariants before a backtracking search
    that checks independence of every mapped subset incrementally.
    """
    if A.size != B.size:
        raise ValueError("matroid comparison requires equal ground set sizes")
    MA, MB = A.matroid, B.matroid
    if MA.invariants != MB.invariants:
        return None
    m = MA.m
    by_profile: dict[tuple, list[int]] = {}
    for e in range(m):
        by_profile.setdefault(MB.element_profiles[e], []).append(e)
    # map rarest profile classes first
    order = sorted(range(m), key=lambda e: (len(by_profile[MA.element_profiles[e]]), e))
    image = [-1] * m
    used = [False] * m

    def masks_with_new(depth: int):
        # subsets larger than the rank are dependent on both sides anyway
        fixed = order[:depth]
        new = order[depth]
        for size in range(min(depth, MA.rank - 1) + 1):
            for subset in itertools.combinations(fixed, size):
                mask_a = 1 << new
                mask_b = 1 << image[new]
                for e in subset:
                    mask_a |= 1 << e
                    mask_b |= 1 << image[e]
                yield mask_a, mask_b

    def extend(depth: int):
        if depth == m:
            return True
        e = order[depth]
        for candidate in by_profile[MA.element_profiles[e]]:
            if used[candidate]:
                continue
            image[e] = candidate
            used[candidate] = True
            ok = all(
                (ma in MA.independent) == (mb in MB.independent)
                for ma, mb in masks_with_new(depth)
            )
            if ok and extend(depth + 1):
                return True
            used[candidate] = False
            image[e] = -1
        return False

    if extend(0):
        return tuple(image)
    return None


# ---------------------------------------------------------------------------
# Lattice-level equivalence: U in GL_n(Z) plus a signed column bijection
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Equivalence:
    """Witness for U @ A (column j) == sign_j * (column sigma_j of B)."""

    U: IntMatrix
    column_map: tuple  # per column of A: (index into B, sign)


def verify_equivalence(A: UnimodularSystem, B: UnimodularSystem, eq: Equivalence) -> bool:
    """Re-check an equivalence witness by direct multiplication."""
    if abs(det(eq.U)) != 1:
        return False
    UA = eq.U @ A.matrix
    targets = [t for t, _ in eq.column_map]
    if sorted(targets) != list(range(B.size)):
        return False
    for j, (target, sign) in enumerate(eq.column_map):
        if sign not in (-1, 1):
            return False
        if tuple(sign * x for x in UA.column(j)) != B.column(target):
            return False
    return True


def _coordinates(adj: IntMatrix, d: int, M: IntMatrix) -> list:
    """|d| times the coordinates of M's columns in a basis T with adj(T), det(T) = d.

    Cramer's rule gives T^{-1} M = adj(T) M / d.  The common positive scale
    |d| keeps the coordinates integral and preserves what the search
    compares: equality, absolute values and sign normalization.
    """
    N = adj @ M
    return [tuple(x if d > 0 else -x for x in N.column(j)) for j in range(M.cols)]


def systems_equivalent(A: UnimodularSystem, B: UnimodularSystem):
    """Search for U in GL_n(Z) and a signed column bijection with U*A*sigma = B.

    Systems whose cached column matroids differ in their invariants are
    rejected at once, since such an equivalence is in particular a matroid
    isomorphism.  Otherwise the lexicographically first column basis of A
    is mapped onto candidate ordered column bases of B; each full candidate
    determines U, which is then verified entrywise.  Prefix candidates are
    pruned by span-membership counts, read off the cached matroids: column
    j lies in the span of an independent prefix exactly when j is in the
    prefix or adding j makes it dependent.  Returns the first witness found
    (deterministic order) or None.
    """
    if A.dim != B.dim:
        raise ValueError("systems live in different dimensions")
    if A.size != B.size:
        return None
    n, m = A.dim, A.size
    MA, MB = A.matroid, B.matroid
    if MA.invariants != MB.invariants:
        return None
    basis_a = MA.first_basis()
    AT = A.matrix.column_submatrix(basis_a)
    det_a, adj_a = det(AT), _adjugate(AT)
    coords_a = _coordinates(adj_a, det_a, A.matrix)
    # how many columns of A each prefix of its basis spans
    span_counts_a = []
    prefix = 0
    for j in basis_a:
        prefix |= 1 << j
        span_counts_a.append(MA.span_size(prefix))
    abs_multiset_a = Counter(tuple(abs(x) for x in col) for col in coords_a)
    cols_b = [B.column(k) for k in range(m)]
    keys_b = [_sign_normalize(col) for col in cols_b]

    def try_full(chosen):
        BT = B.matrix.column_submatrix(chosen)
        det_b = det(BT)
        if abs(det_b) != abs(det_a):
            return None  # |det U| = |det BT / det AT| would not be 1
        coords_b = _coordinates(_adjugate(BT), det_b, B.matrix)
        if Counter(tuple(abs(x) for x in col) for col in coords_b) != abs_multiset_a:
            return None
        norm_b = Counter(_sign_normalize(col) for col in coords_b)
        for signs in itertools.product((1, -1), repeat=n):
            norm_a = Counter(
                _sign_normalize(tuple(s * x for s, x in zip(signs, col)))
                for col in coords_a
            )
            if norm_a != norm_b:
                continue
            U = _solve_transform(BT, signs, adj_a, det_a)
            if U is None:
                continue
            # each column of U*A goes to the first free column of B with its
            # sign-normalized key; the equal coordinate keys above guarantee one
            UA = U @ A.matrix
            free = [True] * m
            column_map = []
            for j in range(m):
                col = UA.column(j)
                key = _sign_normalize(col)
                target = next(k for k in range(m) if free[k] and keys_b[k] == key)
                free[target] = False
                column_map.append((target, 1 if cols_b[target] == col else -1))
            eq = Equivalence(U, tuple(column_map))
            if verify_equivalence(A, B, eq):
                return eq
        return None

    def extend(chosen: tuple, mask: int):
        if len(chosen) == n:
            return try_full(chosen)
        for j in range(m):
            grown = mask | 1 << j
            if grown == mask or grown not in MB.independent:
                continue  # chosen already, or dependent on the prefix
            if MB.span_size(grown) == span_counts_a[len(chosen)]:
                result = extend(chosen + (j,), grown)
                if result is not None:
                    return result
        return None

    return extend((), 0)


def _solve_transform(BT: IntMatrix, signs, adj_a: IntMatrix, det_a: int):
    """U = BT * diag(signs) * AT^{-1}, or None when it is not integral.

    AT enters through its adjugate and determinant: AT^{-1} = adj(AT) / det(AT).
    """
    n = BT.rows
    signed = IntMatrix.from_rows(
        [[BT.entry(i, j) * signs[j] for j in range(n)] for i in range(n)]
    )
    num = signed @ adj_a
    if any(x % det_a for x in num.entries):
        return None
    return IntMatrix(n, n, tuple(x // det_a for x in num.entries))


def _adjugate(M: IntMatrix) -> IntMatrix:
    """adj(M)[j][i] = (-1)^(i+j) times the minor of M without row i and column j.

    The (n-1)-minors are the second-to-last level of ``minors``; the sweep
    stops before it computes the determinant level.
    """
    n = M.rows
    if n == 1:
        return IntMatrix.identity(1)  # the empty minor is 1
    out = [[0] * n for _ in range(n)]
    for rows_idx, cols_idx, d in minors(M):
        if len(rows_idx) == n:
            break
        if len(rows_idx) == n - 1:
            i = n * (n - 1) // 2 - sum(rows_idx)
            j = n * (n - 1) // 2 - sum(cols_idx)
            out[j][i] = -d if (i + j) & 1 else d
    return IntMatrix.from_rows(out)


# ---------------------------------------------------------------------------
# Cographic recognition by exhaustive graph search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    """What the exhaustive graph search looked at."""

    graphs_tried: int
    connected_tried: int
    disconnected_tried: int
    forest_count_matches: int
    edge_count: int
    incidence_rank: int
    cap: int | None


@dataclass(frozen=True)
class CographicCertificate:
    is_cographic: bool
    witness: MultiGraph | None
    column_to_edge: tuple | None  # column j of the input -> edge label of witness
    report: SearchReport


def is_cographic(S: UnimodularSystem, max_graphs: int | None = None) -> CographicCertificate:
    """Decide whether the column independence structure is graph-representable.

    Every loopless multigraph with ``size`` edges and incidence rank equal
    to ``dim`` is enumerated up to isomorphism (connected shapes first,
    then all disconnected component splits); each candidate's cut-space
    system is compared via ``matroid_equivalent``.  A fast necessary
    invariant filters candidates before the full search: the spanning-forest
    count must equal the basis count.  The enumeration reports each
    candidate's connected components, so the count is a product of cached
    per-component matrix-tree determinants, and only candidates that pass
    are built as graphs.

    Raises ``ValueError`` on a negative ``max_graphs``,
    ``NotTotallyUnimodularError`` on non-TU input and
    ``SearchCapExceeded`` when ``max_graphs`` is hit.
    """
    if max_graphs is not None and max_graphs < 0:
        raise ValueError(f"max_graphs must be 0 or more, got {max_graphs}")
    tu = is_totally_unimodular(S)
    if not tu.is_tu:
        raise NotTotallyUnimodularError(tu)
    n, m = S.dim, S.size
    n_bases = len(S.matroid.bases)
    tried = connected_tried = disconnected_tried = matches = 0
    witness = None
    for pairs, nverts, parts in enumerate_graphs.pair_graphs_with_cycle_space_rank(m, n):
        tried += 1
        if len(parts) == 1:
            connected_tried += 1
        else:
            disconnected_tried += 1
        if max_graphs is not None and tried > max_graphs:
            break
        forests = 1
        for part in parts:
            forests *= _spanning_tree_count(*part)
        if forests != n_bases:
            continue
        matches += 1
        G = enumerate_graphs.pair_graph_to_multigraph(pairs, nverts)
        candidate = UnimodularSystem(cut_space_matrix(G), allow_repeats=True)
        bijection = matroid_equivalent(S, candidate)
        if bijection is not None:
            witness = G, tuple(G.edge_labels[k] for k in bijection)
            break
    report = SearchReport(tried, connected_tried, disconnected_tried, matches, m, n, max_graphs)
    if max_graphs is not None and tried > max_graphs:
        raise SearchCapExceeded(report)
    if witness is None:
        return CographicCertificate(False, None, None, report)
    return CographicCertificate(True, *witness, report)
