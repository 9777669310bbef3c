"""Unimodular systems: total unimodularity, equivalence, cographic recognition.

A unimodular system is a full-rank set of integer column vectors all of
whose square subselections have determinant in {-1, 0, 1}.  Two systems
are equivalent when an integer change of basis (GL_n(Z)) plus a signed
relabeling of the vectors carries one onto the other; this is exactly
invariance under change of lattice basis and re-orientation of edges.

Every system caches one column matroid, and that is the only source of
independence data here.  The matroid is read off the system's standard
form: one fraction-free Gauss-Jordan pass (``exactmat.gauss_jordan``)
pivots the system at its lexicographically first basis B, with
determinant d, and leaves d times every column's coordinates in B.  The
nonzero minors of that coordinate block are the other bases, and the same
loop records, per column, the bitset of the bases that hold it.  A column
set is independent exactly when it lies in some basis, so when the AND of
its columns' bitsets is nonzero.  Both equivalence searches read
independence only that way, and cographic recognition reads the basis
count.  The census and element profiles that gate and order the matroid
search come from a counting pass made on demand.  Coordinates in any
other chosen basis come from the same elimination routine, and the
lattice search matches columns by them, so no rational elimination is
needed.

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
from .exactmat import IntMatrix, det, det_of_rows, gauss_jordan, minors, rank
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
    first use and cached as ``matroid``, together with the standard form
    it is read from.
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
    def standard_form(self) -> "StandardForm":
        """The system pivoted at its first basis; built once, with ``matroid``."""
        return self.matroid.form

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
    the product of the components' spanning-tree counts.  The counts bypass
    the cache, which holds only the cographic search's components.
    """
    total = 1
    for comp in components(G):
        index = {v: i for i, v in enumerate(sorted(comp))}
        pairs = tuple(sorted(
            (index[t], index[h]) if index[t] <= index[h] else (index[h], index[t])
            for _, t, h in G.edges
            if t in index and t != h
        ))
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


@dataclass(frozen=True)
class StandardForm:
    """A system M pivoted at its lexicographically first basis.

    ``basis`` lists the basis columns in order and ``det`` is the
    determinant of the basis matrix T = M[:, basis].  ``coordinates`` is
    adj(T) M = det * T^{-1} M, which is ``det`` times the identity on the
    basis columns; for a TU system det = +-1, so up to that sign and the
    column order this is the standard representation [I | A].
    ``adjugate`` is adj(T).  The two blocks come from one ``gauss_jordan``
    pass over [M | I].
    """

    basis: tuple
    det: int
    coordinates: IntMatrix
    adjugate: IntMatrix

    @classmethod
    def of(cls, M: IntMatrix) -> "StandardForm":
        """The standard form of a matrix of full row rank."""
        n, m = M.rows, M.cols
        rows = [list(M.row(i)) + [int(i == j) for j in range(n)] for i in range(n)]
        basis, d = gauss_jordan(rows, m)
        return cls(
            basis,
            d,
            IntMatrix.from_rows([row[:m] for row in rows]),
            IntMatrix.from_rows([row[m:] for row in rows]),
        )


class _ColumnMatroid:
    """Bases and independence data of a full-row-rank matrix's columns, as bitmasks.

    Everything is read off the standard form ``form``.  Its basis B is one
    basis; for a set R of basis positions and a set K of other columns of
    the same size, (B minus the columns at R) plus K is a basis exactly
    when the minor of the coordinate block at rows R and columns K is
    nonzero.  So B and the nonzero minors of the n x (m - n) coordinate
    block, over all row sets, give every basis: C(m, n) - 1 minors drawn.

    Number the bases in that order.  ``holders[e]`` is the bitset of the
    bases that contain column e, filled in the same loop: R names the
    columns of B that leave and K the columns that enter.  A column set is
    independent exactly when the AND of its holders is nonzero, since it
    then lies in a basis, and the span of an independent set with AND h is
    the set plus every column j with h & holders[j] zero.

    ``gate`` (rank, basis count and the sorted per-column basis counts)
    and ``invariants`` (rank, basis count, independent-set census by size
    and the sorted per-element profiles) are preserved by any column
    bijection that maps independent sets to independent sets, so a
    mismatch refutes both matroid and lattice equivalence.  The gate is a
    function of the invariants, read off ``holders``; the invariants, with
    ``census`` and ``element_profiles``, come from a counting pass over the
    downward closure of the bases, made on first use.  Independence itself
    is only ever read off ``holders``; no collection of independent sets is
    kept.
    """

    def __init__(self, M: IntMatrix):
        self.m = M.cols
        self.rank = M.rows
        self.form = StandardForm.of(M)
        self.bases, self.holders = self._compute_bases()
        self.gate = (
            self.rank, len(self.bases), tuple(sorted(h.bit_count() for h in self.holders))
        )

    def _compute_bases(self):
        basis = self.form.basis
        others = [j for j in range(self.m) if j not in basis]
        row_bits = [1 << j for j in basis]
        col_bits = [1 << j for j in others]
        first = sum(row_bits)
        bases = [first]
        leaving = [0] * len(basis)  # per basis position: the bases without it
        entering = [0] * len(others)  # per other column: the bases with it
        for rows, cols, d in minors(self.form.coordinates.column_submatrix(others)):
            if d:
                bit = 1 << len(bases)
                mask = first
                for r in rows:
                    mask ^= row_bits[r]
                    leaving[r] |= bit
                for c in cols:
                    mask |= col_bits[c]
                    entering[c] |= bit
                bases.append(mask)
        every = (1 << len(bases)) - 1
        holders = [0] * self.m
        for j, left in zip(basis, leaving):
            holders[j] = every ^ left
        for j, held in zip(others, entering):
            holders[j] = held
        return frozenset(bases), tuple(holders)

    @cached_property
    def _closure(self):
        return self._downward_closure()

    @property
    def census(self) -> tuple:
        return self._closure[0]

    @property
    def element_profiles(self) -> tuple:
        return self._closure[1]

    @cached_property
    def invariants(self) -> tuple:
        return self.rank, len(self.bases), self.census, tuple(sorted(self.element_profiles))

    def _downward_closure(self):
        """The census of independent sets by size and the element profiles.

        The sets are counted a level at a time, from the bases down, each
        level the one-element deletions of the one above; only the current
        level is kept.  Every set of a level has that level's size, so the
        census is the level sizes, and one walk over each set's elements
        both builds the next level and counts, per element and size, the
        independent sets that contain it.
        """
        counts = [[0] * self.rank for _ in range(self.m)]
        level = self.bases
        census = [len(level)]
        for size in range(self.rank, 0, -1):
            smaller = set()
            for mask in level:
                mm = mask
                while mm:
                    bit = mm & -mm
                    smaller.add(mask ^ bit)
                    counts[bit.bit_length() - 1][size - 1] += 1
                    mm ^= bit
            level = smaller
            census.append(len(level))
        return tuple(reversed(census)), tuple(tuple(c) for c in counts)


def matroid_equivalent(A: UnimodularSystem, B: UnimodularSystem):
    """Column bijection carrying independent sets to independent sets, or None.

    Pruned by the cached matroids' gate, then by their invariants, before a
    backtracking search that maps the rarest profile classes first.  The
    search carries, for every independent subset S of the mapped prefix,
    the pair of ANDs of ``holders`` over S in A and over its image in B,
    starting from the empty set's pair (-1, -1).  A candidate image for the
    next element is accepted when, for every pair, the ANDs with the two
    elements' holders are both zero or both nonzero: S plus the element is
    independent in A exactly when its image is in B.  The nonzero ANDs
    are the pairs of the independent subsets of the longer prefix.
    """
    if A.size != B.size:
        raise ValueError("matroid comparison requires equal ground set sizes")
    MA, MB = A.matroid, B.matroid
    if MA.gate != MB.gate or MA.invariants != MB.invariants:
        return None
    m = MA.m
    profiles_a, holders_a = MA.element_profiles, MA.holders
    profiles_b, holders_b = MB.element_profiles, MB.holders
    by_profile: dict[tuple, list[int]] = {}
    for e in range(m):
        by_profile.setdefault(profiles_b[e], []).append(e)
    # map rarest profile classes first
    order = sorted(range(m), key=lambda e: (len(by_profile[profiles_a[e]]), e))
    image = [-1] * m
    used = [False] * m

    def extend(depth: int, pairs: list):
        if depth == m:
            return True
        e = order[depth]
        held_a = holders_a[e]
        for candidate in by_profile[profiles_a[e]]:
            if used[candidate]:
                continue
            held_b = holders_b[candidate]
            grown = []
            for common_a, common_b in pairs:
                new_a, new_b = common_a & held_a, common_b & held_b
                if bool(new_a) != bool(new_b):
                    break
                if new_a:
                    grown.append((new_a, new_b))
            else:
                image[e] = candidate
                used[candidate] = True
                if extend(depth + 1, pairs + grown):
                    return True
                used[candidate] = False
                image[e] = -1
        return False

    if extend(0, [(-1, -1)]):
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
    """Re-check an equivalence witness by direct multiplication.

    A witness of the wrong shape is rejected, not an error: U must be
    dim x dim and the column map must send each column of A to one column
    of B, with A and B of the same dimension and size.
    """
    n = A.dim
    if (B.dim, B.size, len(eq.column_map)) != (n, A.size, A.size):
        return False
    if (eq.U.rows, eq.U.cols) != (n, n) or abs(det(eq.U)) != 1:
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


def _scaled_columns(rows, d: int) -> list:
    """The columns of ``rows`` = d * T^{-1} M, scaled by |d| instead of d.

    The common positive scale |d| keeps the coordinates integral and
    preserves what the search compares: equality, absolute values and sign
    normalization.
    """
    cols = zip(*rows)
    return list(cols) if d > 0 else [tuple(-x for x in col) for col in cols]


def systems_equivalent(A: UnimodularSystem, B: UnimodularSystem):
    """Search for U in GL_n(Z) and a signed column bijection with U*A*sigma = B.

    Systems whose cached column matroids differ in their gate (rank, basis
    count and sorted per-column basis counts) are rejected at once, since
    such an equivalence is in particular a matroid isomorphism.  Otherwise
    A's standard form supplies its lexicographically first basis AT,
    det(AT), adj(AT) and the scaled coordinates of all its columns, and
    that basis is mapped onto candidate ordered column bases of B.  Each
    full candidate BT gets det(BT) and adj(BT) times B from one
    ``gauss_jordan`` pass over [BT | B].  For each sign vector s, column j
    of A goes to the next unused column k of B whose coordinates equal
    diag(s) times A's up to sign, since U a_j = +-b_k exactly then; only a
    complete signed bijection goes on to U = BT diag(s) AT^-1, which is
    then verified entrywise.  Prefix candidates are pruned by
    span-membership counts, read off the matroids' per-column basis
    bitsets ``holders``: the search carries the AND h of its prefix's
    bitsets, the prefix is independent while h is nonzero, and a column j
    outside it lies in its span exactly when h & holders[j] is zero.  No
    list of independent sets is built.  Returns the first witness found
    (deterministic order) or None.
    """
    if A.dim != B.dim:
        raise ValueError("systems live in different dimensions")
    if A.size != B.size:
        return None
    n, m = A.dim, A.size
    MA, MB = A.matroid, B.matroid
    if MA.gate != MB.gate:
        return None
    form_a = MA.form
    basis_a, det_a, adj_a = form_a.basis, form_a.det, form_a.adjugate
    coords_a = _scaled_columns([form_a.coordinates.row(i) for i in range(n)], det_a)
    # how many columns of A each prefix of its basis spans
    span_counts_a = []
    common = -1  # the AND of no bitsets: every basis
    for size, j in enumerate(basis_a, 1):
        common &= MA.holders[j]
        span_counts_a.append(size + sum(1 for h in MA.holders if not common & h))
    abs_multiset_a = Counter(tuple(abs(x) for x in col) for col in coords_a)
    rows_b = [B.matrix.row(i) for i in range(n)]
    cols_b = [B.column(k) for k in range(m)]
    holders_b = MB.holders

    def try_full(chosen):
        rows = [[row[j] for j in chosen] + list(row) for row in rows_b]
        _, det_b = gauss_jordan(rows, n)
        if abs(det_b) != abs(det_a):
            return None  # |det U| = |det BT / det AT| would not be 1
        coords_b = _scaled_columns([row[n:] for row in rows], det_b)
        if Counter(tuple(abs(x) for x in col) for col in coords_b) != abs_multiset_a:
            return None
        # B's columns bucketed by sign-normalized coordinates, in ascending order
        buckets: dict[tuple, list[int]] = {}
        for k, col in enumerate(coords_b):
            buckets.setdefault(_sign_normalize(col), []).append(k)
        for signs in itertools.product((1, -1), repeat=n):
            # U a_j = +-b_k exactly when diag(signs) coords_a[j] = +-coords_b[k],
            # so each column of A takes the next unused column of B in its bucket
            taken = {}
            column_map = []
            for col in coords_a:
                signed = tuple(s * x for s, x in zip(signs, col))
                key = _sign_normalize(signed)
                bucket, i = buckets.get(key, ()), taken.get(key, 0)
                if i == len(bucket):
                    break  # no partner left for this column
                taken[key] = i + 1
                column_map.append((bucket[i], 1 if signed == coords_b[bucket[i]] else -1))
            else:
                U = _solve_transform(cols_b, chosen, signs, adj_a, det_a)
                if U is None:
                    continue
                eq = Equivalence(U, tuple(column_map))
                if verify_equivalence(A, B, eq):
                    return eq
        return None

    def extend(chosen: tuple, common: int):
        depth = len(chosen)
        if depth == n:
            return try_full(chosen)
        for j in range(m):
            grown = common & holders_b[j]
            if not grown or j in chosen:
                continue  # dependent on the prefix, or chosen already
            if depth + 1 + sum(1 for h in holders_b if not grown & h) == span_counts_a[depth]:
                result = extend(chosen + (j,), grown)
                if result is not None:
                    return result
        return None

    try:
        return extend((), -1)
    finally:
        # extend refers to itself through its closure; clearing that cell
        # frees B's matroid at once instead of at the next cyclic collection
        del extend


def _solve_transform(cols_b, chosen, signs, adj_a: IntMatrix, det_a: int):
    """U = BT * diag(signs) * AT^{-1}, or None when it is not integral.

    BT is the columns ``chosen`` of B, and AT enters through its adjugate
    and determinant: AT^{-1} = adj(AT) / det(AT).
    """
    n = len(chosen)
    signed = IntMatrix.from_rows(
        [[cols_b[j][i] * s for j, s in zip(chosen, signs)] for i in range(n)]
    )
    num = signed @ adj_a
    if any(x % det_a for x in num.entries):
        return None
    return IntMatrix(n, n, tuple(x // det_a for x in num.entries))


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
