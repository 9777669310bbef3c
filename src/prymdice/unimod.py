"""Unimodular systems: total unimodularity, equivalence, cographic recognition.

A unimodular system is a full-rank family of integer column vectors all
of whose square subselections have determinant in {-1, 0, 1}; a vector
may repeat, equal or opposite, as a graph's parallel edges do.  Two
systems are equivalent when an integer change of basis (GL_n(Z)) plus a
signed relabeling of the vectors carries one onto the other; this is
exactly invariance under change of lattice basis and re-orientation of
edges.

Total unimodularity of a matrix is decided by Ghouila-Houri's theorem:
every subset of the rows (or of the columns, when there are fewer) must
have a signing whose sum lies in {-1, 0, 1}^m.  Each vector is packed
into one integer, so a signed sum is one addition, and a subset usually
extends the stored signing of a smaller one.  That draws no minor; the
minors are swept, in certificate order, only to cite the first violation
of a matrix found not TU.

Each system is eliminated once, at construction: one fraction-free
Gauss-Jordan pass (``exactmat.gauss_jordan``) checks its rank and leaves
its standard form, the system pivoted at its lexicographically first
basis B with determinant d, every column's coordinates in B times d.
``is_unimodular`` and ``holders``, the only source of independence data
here, are read off that form.

For a set R of basis positions and a set K of other columns of the same
size, (B minus the columns at R) plus K is a basis exactly when the
minor of the n x (m - n) coordinate block at rows R and columns K is
nonzero, so B and the block's nonzero minors give every basis.  Two
routes find them.  When |d| = 1 the parity route (``_parity_bases``)
runs first: a regular matroid is binary (Tutte), so a unimodular
system's nonzero minors are its odd ones, and those come from mod-2
exterior products packed into integers, XOR arithmetic that draws no
minor.  It is taken only when certified: by Cauchy-Binet, det(I + A A^T)
is the sum of the squared minors of the block A, and it equals the
parity count exactly when every nonzero minor is +-1.  That is also the
unimodularity verdict: a system is unimodular exactly when |d| = 1 and
its count is certified, so ``is_unimodular`` and ``holders`` share one
cached enumeration, and the signing test serves only
``is_totally_unimodular``, the verdict on a matrix.  Any other
system takes the Laplace route (``_laplace_bases``), which draws every
minor with ``exactmat.minors``.

Each route lists the bases as column masks, basis b being the b-th in
its list, and ``holders[e]`` is the bitset of the bases that contain
column e, the transpose of that list.  A column set is independent
exactly when the AND of its holders is nonzero, since it then lies in a
basis, and the span of an independent set with AND h is the set plus
every column j with h & holders[j] zero.  The numbering differs between
the routes; the bases, the holders' bit counts and every AND's verdict
do not.  ``gate`` (rank, basis count and the sorted per-column basis
counts) is preserved by any column bijection that maps independent sets
to independent sets, so a mismatch refutes both matroid and lattice
equivalence.  Every basis has n columns, so the basis count is the sum
of the per-column counts over n, and no collection of bases is kept.
Both equivalence searches read independence only off ``holders``, and
cographic recognition reads the basis count.  Coordinates in any other
chosen basis, and a witness's change of basis, come from the same
elimination routine, and the lattice search matches columns by them, so
nothing is eliminated over Q.

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
from math import prod
from operator import mul

from . import enumerate_graphs
from .exactmat import IntMatrix, MatrixError, det, det_of_rows, gauss_jordan, minors
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
    """The one of ``col`` and ``-col`` whose first nonzero entry is positive;
    ``col`` is nonzero."""
    for x in col:
        if x != 0:
            return col if x > 0 else tuple(-y for y in col)


def collapse_columns(rows: list, edge_labels) -> tuple[IntMatrix, tuple, tuple]:
    """Drop zero columns, keep one representative per +-duplicate column set.

    ``rows`` is a nonempty list of integer row vectors indexed by
    ``edge_labels``: edge labels for a Jacobian's cycle system, edge-orbit
    index tuples for ``prym_dicing``.  Returns (matrix, column_edges,
    dropped_edges), which hold those labels.
    """
    kept: list[tuple] = []
    groups: list[list[str]] = []
    dropped: list[str] = []
    seen: dict[tuple, int] = {}
    for col, label in zip(zip(*rows), edge_labels):
        if not any(col):
            dropped.append(label)
            continue
        key = _sign_normalize(col)
        if key in seen:
            groups[seen[key]].append(label)
        else:
            seen[key] = len(kept)
            kept.append(col)
            groups.append([label])
    matrix = IntMatrix(len(rows), len(kept), tuple(itertools.chain.from_iterable(zip(*kept))))
    return matrix, tuple(tuple(g) for g in groups), tuple(dropped)


class UnimodularSystem:
    """A system of m >= n integer vectors spanning R^n (columns of ``matrix``).

    Invariants: full row rank and no zero columns.  A vector may repeat,
    equal or opposite, as the parallel edges of a graph give in its
    incidence matrix; a dicing is determined by its vectors up to sign, so
    a repeat adds no hyperplane, and the dicing builders collapse them
    (``collapse_columns``).

    The one ``gauss_jordan`` pass that checks the rank pivots M at its
    lexicographically first basis: ``basis`` lists the basis columns in
    order and ``det`` is the determinant of the basis matrix T = M[:, basis].
    ``coordinates`` is adj(T) M = det * T^{-1} M, which is ``det`` times the
    identity on the basis columns; for a TU system det = +-1, so up to that
    sign and the column order this is the standard representation [I | A].
    A system is never mutated, so ``coordinates``, ``is_unimodular``,
    ``holders`` and ``gate`` are read off that pass on first use and cached.
    """

    def __init__(self, matrix: IntMatrix):
        if matrix.rows < 1 or matrix.cols < 1:
            raise ValueError("a unimodular system needs at least one row and column")
        if matrix.cols < matrix.rows:
            raise ValueError("a system needs at least as many vectors as its dimension")
        for j in range(matrix.cols):
            if not any(matrix.column(j)):
                raise ValueError(f"zero column at index {j}")
        rows = matrix.row_list()
        try:
            self.basis, self.det = gauss_jordan(rows, matrix.cols)
        except MatrixError:
            raise ValueError("columns do not span: row rank is deficient") from None
        self.matrix, self._rows = matrix, rows

    @cached_property
    def coordinates(self) -> IntMatrix:
        return IntMatrix.from_rows(self._rows)

    @cached_property
    def _parity_holders(self) -> tuple | None:
        # ``holders`` by the parity route, or None where it is not certified
        found = _parity_bases(self.basis, self._rows) if abs(self.det) == 1 else None
        return None if found is None else _transpose(found, self.size)

    @property
    def is_unimodular(self) -> bool:
        """Whether every maximal minor is in {-1, 0, 1}: |det T| = 1 and adj(T) M is TU.

        Unlike the matrix being TU, this is invariant under GL_n(Z).  It is
        read off the parity route: with |det T| = 1 the maximal minors are,
        up to sign, the minors of the coordinate block, and its odd-minor
        count is certified exactly when every nonzero one is +-1.  So the
        verdict and ``holders`` share one cached enumeration, and no signing
        test runs: that serves ``is_totally_unimodular``, the verdict on a
        matrix.
        """
        return self._parity_holders is not None

    @cached_property
    def holders(self) -> tuple:
        """Per column, the bitset of the bases that contain it.

        The bases are the parity route's, the enumeration that decided
        ``is_unimodular``, when the system is unimodular, and the Laplace
        route's otherwise.
        """
        if self.is_unimodular:
            return self._parity_holders
        return _transpose(_laplace_bases(self.basis, self._rows), self.size)

    @cached_property
    def gate(self) -> tuple:
        counts = tuple(sorted(h.bit_count() for h in self.holders))
        return self.dim, sum(counts) // self.dim, counts

    @property
    def dim(self) -> int:
        return self.matrix.rows

    @property
    def size(self) -> int:
        return self.matrix.cols

    def column(self, j: int) -> tuple:
        return self.matrix.column(j)

    def __repr__(self):
        return f"UnimodularSystem(dim={self.dim}, size={self.size})"


@cache
def e5() -> UnimodularSystem:
    """The exceptional rank-5 system on ten vectors, in its standard form.

    Systems are never mutated, so one shared instance (and its cached
    ``holders``) serves every caller.
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
    """Total-unimodularity verdict; a violation cites the first offending minor."""

    is_tu: bool
    violating_minor: tuple | None = None  # (row indices, col indices, determinant)


def is_totally_unimodular(S) -> TUCertificate:
    """Every square submatrix determinant in {-1, 0, 1}, decided by Ghouila-Houri.

    Ghouila-Houri's theorem (1962; Schrijver, Theory of Linear and Integer
    Programming, Thm 19.3): a matrix is totally unimodular exactly when
    every subset of its rows has a signing whose signed sum lies in
    {-1, 0, 1}^m.  ``_equitably_signable`` tests that on the shorter side
    (total unimodularity is invariant under transposition), so a TU verdict
    draws no minor.  A not-TU verdict then sweeps the minors in the order of
    ``square_submatrices`` (ascending size, lexicographic index sets) up to
    the first violation, which the certificate cites; each minor comes from
    the level-wise Laplace recurrence of ``exactmat.minors`` and can be
    recomputed independently from its index sets.
    """
    M = S.matrix if isinstance(S, UnimodularSystem) else S
    if _equitably_signable(M):
        return TUCertificate(True)
    for row_idx, col_idx, d in minors(M):
        if d < -1 or d > 1:
            return TUCertificate(False, (row_idx, col_idx, d))
    raise RuntimeError("a subset has no equitable signing, yet every minor is in {-1, 0, 1}")


def _equitably_signable(M: IntMatrix) -> bool:
    """Whether every subset of M's rows, or of its columns if fewer, signs into {-1, 0, 1}.

    A singleton's signing is the vector itself, so every entry must be in
    {-1, 0, 1}; then each vector is packed into one int with a w-bit field
    per coordinate, and a signed sum of at most k vectors is one integer
    sum whose fields stay in (-2^(w-1), 2^(w-1)) without carrying into the
    next field.  Its range is tested by masking high bits: adding ``high +
    ones`` sets every field's high bit exactly when each coordinate is
    >= -1, and adding ``high - 2 * ones`` clears them all exactly when each
    is <= 1.
    Subsets are visited in bitmask order.  Each first extends the stored
    signed sum of the subset without its top vector by plus or minus that
    vector, and searches all its signings only when both fail.
    """
    if any(x < -1 or x > 1 for x in M.entries):
        return False
    if M.rows <= M.cols:
        vectors, m = [M.row(i) for i in range(M.rows)], M.cols
    else:
        vectors, m = [M.column(j) for j in range(M.cols)], M.rows
    k = len(vectors)
    w = (k + 2).bit_length() + 1  # |coordinate| <= k <= 2^(w-1) - 2
    ones = sum(1 << w * j for j in range(m))
    high = ones << (w - 1)
    up, down = high + ones, high - 2 * ones
    packed = [sum(x << w * j for j, x in enumerate(v)) for v in vectors]
    signed = [0] * (1 << k)  # subset bitmask -> a signed sum in {-1, 0, 1}^m
    for subset in range(1, 1 << k):
        top = subset.bit_length() - 1
        rest, v = signed[subset ^ 1 << top], packed[top]
        for s in (rest + v, rest - v):
            if (s + up) & ~(s + down) & high == high:
                break
        else:
            s = _signed_sum_in_range(
                [packed[i] for i in range(top + 1) if subset >> i & 1], up, down, high
            )
            if s is None:
                return False
        signed[subset] = s
    return True


def _signed_sum_in_range(vectors: list, up: int, down: int, high: int) -> int | None:
    """A signed sum of the packed ``vectors`` with every field in {-1, 0, 1}, or None.

    The first vector keeps its sign (negating a signing negates its sum);
    the others flip one at a time in Gray-code order.
    """
    s = sum(vectors)
    flips = [2 * v for v in vectors[1:]]
    for g in range(1 << len(flips)):
        if g:
            b = (g & -g).bit_length() - 1
            s -= flips[b]
            flips[b] = -flips[b]
        if (s + up) & ~(s + down) & high == high:
            return s
    return None


# ---------------------------------------------------------------------------
# Graph-derived systems
# ---------------------------------------------------------------------------


def cut_space_matrix(G: MultiGraph) -> IntMatrix:
    """Vertex-edge incidence matrix with one row dropped per component.

    A loop's +1 and -1 fall in one row, so its column is zero.
    """
    drop = {max(c) for c in components(G)}
    kept = [v for v in G.vertices if v not in drop]
    index = {v: i for i, v in enumerate(kept)}
    rows = [[0] * G.num_edges for _ in kept]
    for j, (lab, t, h) in enumerate(G.edges):
        if h in index:
            rows[index[h]][j] += 1
        if t in index:
            rows[index[t]][j] -= 1
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, G.num_edges, ())


def bond_system(G: MultiGraph) -> UnimodularSystem:
    """Cut-space system of a connected graph: incidence matrix minus one row.

    Parallel edges give repeated columns and are kept (the ground set of
    the column independence structure must stay intact).  Loops would give
    zero columns and are rejected.
    """
    if G.num_edges == 0:
        raise GraphError("bond system needs at least one edge")
    # a row per vertex less one per component: |V| - 1 rows exactly when connected
    matrix = cut_space_matrix(G)
    if matrix.rows != G.num_vertices - 1:
        raise GraphError("bond system requires a connected graph; split into components")
    for lab in G.edge_labels:
        if G.is_loop(lab):
            raise GraphError(f"loop {lab!r} gives a zero column; remove loops first")
    return UnimodularSystem(matrix)


def spanning_forest_count(G: MultiGraph) -> int:
    """Number of spanning forests with |V| - #components edges (Kirchhoff).

    A spanning forest is one spanning tree per component, so the count is
    the product of the components' spanning-tree counts.
    """
    total = 1
    for comp in components(G):
        index = {v: i for i, v in enumerate(sorted(comp))}
        pairs = [(index[t], index[h]) for _, t, h in G.edges if t in index]
        total *= enumerate_graphs.spanning_tree_count(pairs, len(index))
    return total


# ---------------------------------------------------------------------------
# Column matroid machinery (independence structure of the columns)
# ---------------------------------------------------------------------------


def _parity_bases(basis: tuple, rows: list):
    """The bases, as masks, read off the odd minors of the coordinate block.

    Returns None unless the parity count is certified.  The side of the
    block with fewer lines is packed and the other is walked: each set
    W of walked lines with a nonzero mod-2 exterior product, a 2^w-bit
    integer over the sets P of the w packed lines, gives one basis per
    set bit P, the one whose minor is at W and P.  The count equals
    the sum of the squared minors, det(I + G) with G the Gram matrix of
    the packed lines (Cauchy-Binet, Sylvester), exactly when every
    nonzero minor is +-1.
    """
    coordinates = list(zip(*rows))
    others = [j for j in range(len(coordinates)) if j not in basis]
    columns = [coordinates[j] for j in others]
    # with no other columns this is [], not n empty rows: those join no product
    block = list(zip(*columns))
    if len(others) < len(basis):
        walked, packed, lines, crossing = basis, others, block, columns
    else:
        walked, packed, lines, crossing = others, basis, columns, block
    w = len(packed)
    weight = det_of_rows([
        [sum(map(mul, x, y)) + (a == b) for b, y in enumerate(crossing)]
        for a, x in enumerate(crossing)
    ])
    spread = [0]  # per set P of packed lines: the bits of their columns
    for j in packed:
        spread += [bits | 1 << j for bits in spread]
    first = sum(1 << j for j in basis)
    bases = []
    vectors = [
        (1 << j, sum((x & 1) << a for a, x in enumerate(v))) for j, v in zip(walked, lines)
    ]
    for members, omega in _odd_exterior_products(vectors, w):
        mask = first ^ members
        while omega:
            low = omega & -omega
            omega ^= low
            bases.append(mask ^ spread[low.bit_length() - 1])
    return bases if len(bases) == weight else None


def _laplace_bases(basis: tuple, rows: list) -> list:
    """The bases, as masks, read off the nonzero minors of the coordinate block."""
    others = [j for j in range(len(rows[0])) if j not in basis]
    bases = [sum(1 << j for j in basis)]
    block = IntMatrix.from_rows([[row[j] for j in others] for row in rows])
    for block_rows, cols, d in minors(block):
        if d:
            mask = bases[0]
            for r in block_rows:
                mask ^= 1 << basis[r]
            for c in cols:
                mask ^= 1 << others[c]
            bases.append(mask)
    return bases


# per bit position b < 8: the byte values mapped to the digit of bit b
_BIT_DIGITS = [bytes(48 + (v >> b & 1) for v in range(256)) for b in range(8)]


def _transpose(bases: list, m: int) -> tuple:
    """Per column of the m, the bitset of the ``bases`` (masks) that contain it.

    The masks are laid out as bytes, last basis first; every byte position
    gives a plane of one byte per basis, and the digits of a column's bit
    in that plane, read in binary, are its bitset.
    """
    width = (m + 7) // 8
    layout = itertools.repeat(width), itertools.repeat("little")
    data = b"".join(map(int.to_bytes, reversed(bases), *layout))
    holders = []
    for low in range(width):
        plane = data[low::width]
        holders += [int(plane.translate(table), 2) for table in _BIT_DIGITS[:m - 8 * low]]
    return tuple(holders)


@cache
def _wedge_moves(width: int) -> list:
    """Per coordinate r < ``width``: the mask of the coordinate sets without r,
    runs of 2^r set bits 2^r apart, and the shift 2^r that adds r to them."""
    full = (1 << (1 << width)) - 1
    return [
        (full // ((1 << (2 << r)) - 1) * ((1 << (1 << r)) - 1), 1 << r) for r in range(width)
    ]


def _odd_exterior_products(vectors: list, width: int):
    """Every set of ``vectors`` whose mod-2 exterior product is nonzero, with that product.

    Each vector is a pair: a label bitmask, and a bitmask of its odd
    coordinates among ``width``.  A product is a 2^width-bit integer whose
    bit R is the mod-2 minor of the set's vectors at the coordinate set R.
    Wedging with a vector XORs, over its odd coordinates r, the product's
    bits at the sets without r, moved up to the same sets with r.  The
    sets are walked depth first from the empty set, whose product is 1,
    and a set whose product is 0 is not extended, since every superset's
    is 0 too.  Yields ``(labels, product)``, the labels of a set OR-ed.
    """
    moves = _wedge_moves(width)
    odd = [
        (label, [moves[r] for r in range(width) if bits >> r & 1]) for label, bits in vectors
    ]
    stack = [(0, 1, 0)]
    while stack:
        labels, product, start = stack.pop()
        yield labels, product
        for k in range(start, len(odd)):
            grown = 0
            label, wedge = odd[k]
            for lacks, shift in wedge:
                grown ^= (product & lacks) << shift
            if grown:
                stack.append((labels | label, grown, k + 1))


def matroid_equivalent(A: UnimodularSystem, B: UnimodularSystem):
    """Column bijection carrying independent sets to independent sets, or None.

    Pruned by the systems' cached ``gate`` before a backtracking search that
    maps the rarest classes first, a column's class being its basis count,
    and maps it only into its class.  Independence is read only off
    ``holders``: the search carries, for every independent subset S of the
    mapped prefix, the pair of ANDs of ``holders`` over S in A and over its
    image in B, starting from the empty set's pair (-1, -1).  A candidate
    image for the next element is accepted when, for every pair, the ANDs
    with the two elements' holders are both zero or both nonzero: S plus
    the element is independent in A exactly when its image is in B.  The
    nonzero ANDs are the pairs of the independent subsets of the longer
    prefix.  The search is ``_matroid_map``, walking each class's
    candidates in ascending order; its first complete map is returned.
    """
    if A.size != B.size:
        raise ValueError("matroid comparison requires equal ground set sizes")
    if A.gate != B.gate:
        return None
    m = A.size
    holders_a, holders_b = A.holders, B.holders
    counts_a = [h.bit_count() for h in holders_a]
    by_count: dict[int, list[int]] = {}
    for e, h in enumerate(holders_b):
        by_count.setdefault(h.bit_count(), []).append(e)
    # map rarest classes first
    order = sorted(range(m), key=lambda e: (len(by_count[counts_a[e]]), e))
    steps = [(holders_a[e], by_count[counts_a[e]]) for e in order]
    chosen = _matroid_map(steps, holders_b, (), [(-1, -1)])
    return None if chosen is None else tuple(k for _, k in sorted(zip(order, chosen)))


def _matroid_map(steps: list, holders_b: tuple, chosen: tuple, pairs: list) -> tuple | None:
    """The first images in B of ``matroid_equivalent``'s ordered columns of A
    that extend ``chosen``, or None.

    ``steps[k]`` is the k-th column's ``holders`` in A with its candidate
    columns of B, ascending, and ``pairs`` holds the AND pairs of the
    independent subsets of the mapped prefix.  A candidate not yet chosen
    is taken when every pair's ANDs with the two columns' holders are both
    zero or both nonzero, and the nonzero ones extend ``pairs``.  A plain
    function, not a generator: only the first map is wanted, and closing a
    suspended generator chain costs a few microseconds a call.
    """
    if len(chosen) == len(steps):
        return chosen
    held_a, candidates = steps[len(chosen)]
    for candidate in candidates:
        if candidate in chosen:
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
            found = _matroid_map(steps, holders_b, chosen + (candidate,), pairs + grown)
            if found is not None:
                return found
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

    A witness of the wrong shape is rejected, not an error: U must be a
    dim x dim ``IntMatrix`` and the column map a tuple that sends each
    column of A, as an ``(int, sign)`` pair with sign +-1, to one column
    of B, with A and B of the same dimension and size.
    """
    n, U, column_map = A.dim, eq.U, eq.column_map
    if not (isinstance(U, IntMatrix) and isinstance(column_map, tuple)):
        return False
    if (B.dim, B.size, len(column_map)) != (n, A.size, A.size):
        return False
    if not all(
        isinstance(pair, tuple) and len(pair) == 2
        and isinstance(pair[0], int) and pair[1] in (-1, 1)
        for pair in column_map
    ):
        return False
    if (U.rows, U.cols) != (n, n) or abs(det(U)) != 1:
        return False
    if sorted(target for target, _ in column_map) != list(range(B.size)):
        return False
    UA = U @ A.matrix
    return all(
        tuple(sign * x for x in UA.column(j)) == B.column(target)
        for j, (target, sign) in enumerate(column_map)
    )


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

    Systems that differ in their cached ``gate`` (rank, basis count and
    sorted per-column basis counts) are rejected at once, since
    such an equivalence is in particular a matroid isomorphism.  Otherwise
    A's one elimination supplies its lexicographically first basis AT,
    det(AT) and the scaled coordinates of all its columns, and that basis
    is mapped onto candidate ordered column bases of B.  Each full
    candidate BT gets det(BT) and adj(BT) times B from one
    ``gauss_jordan`` pass over [BT | B].  For each sign vector s, column j
    of A goes to the next unused column k of B whose coordinates equal
    diag(s) times A's up to sign, since U a_j = +-b_k exactly then; only a
    complete signed bijection, which fixes U, goes on to solve U AT = BT
    diag(s) in one more pass and to verify U entrywise.  Prefix candidates are pruned by
    span-membership counts, read off the systems' per-column basis
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
    if A.gate != B.gate:
        return None
    basis_a, det_a = A.basis, A.det
    coords_a = _scaled_columns(A._rows, det_a)
    # how many columns of A each prefix of its basis spans
    span_counts_a = []
    common = -1  # the AND of no bitsets: every basis
    for size, j in enumerate(basis_a, 1):
        common &= A.holders[j]
        span_counts_a.append(size + sum(1 for h in A.holders if not common & h))
    abs_multiset_a = Counter(tuple(abs(x) for x in col) for col in coords_a)
    rows_b = [B.matrix.row(i) for i in range(n)]
    cols_b = [B.column(k) for k in range(m)]
    for chosen in _candidate_bases(B.holders, span_counts_a, (), -1):
        rows = [[row[j] for j in chosen] + list(row) for row in rows_b]
        _, det_b = gauss_jordan(rows, n)
        if abs(det_b) != abs(det_a):
            continue  # |det U| = |det BT / det AT| would not be 1
        coords_b = _scaled_columns([row[n:] for row in rows], det_b)
        if Counter(tuple(abs(x) for x in col) for col in coords_b) != abs_multiset_a:
            continue
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
                U = _solve_transform(cols_b, chosen, signs, A.matrix, basis_a)
                eq = Equivalence(U, tuple(column_map))
                if verify_equivalence(A, B, eq):
                    return eq
    return None


def _candidate_bases(holders: tuple, span_counts: list, chosen: tuple, common: int):
    """The ordered bases of a system that extend ``chosen`` with matching span counts.

    ``holders`` are the system's, ``common`` is the AND of the holders of
    ``chosen``, and ``span_counts[k]`` is how many columns a prefix of
    length k + 1 must span.  Each depth takes the columns in ascending
    order, so the bases come as tuples in lexicographic order.
    """
    depth = len(chosen)
    if depth == len(span_counts):
        yield chosen
        return
    for j, held in enumerate(holders):
        grown = common & held
        if not grown or j in chosen:
            continue  # dependent on the prefix, or chosen already
        if depth + 1 + sum(1 for h in holders if not grown & h) == span_counts[depth]:
            yield from _candidate_bases(holders, span_counts, chosen + (j,), grown)


def _solve_transform(cols_b, chosen, signs, matrix_a: IntMatrix, basis_a: tuple):
    """The U with U AT = BT diag(signs) when that U is integral, else an
    integer matrix that ``verify_equivalence`` rejects.

    AT is A's columns ``basis_a`` and BT is B's columns ``chosen``: one
    ``gauss_jordan`` pass over the rows [AT^T | diag(signs) BT^T] leaves
    det(AT) U^T in the right block, and dividing by det(AT) is exact when
    U is integral.  Otherwise the floored quotient differs from U, the one
    solution since AT is invertible, so it misses BT diag(signs) at some
    column of AT, and the search's column map demands exactly those
    images there; ``verify_equivalence`` is the one check on U.
    """
    n = len(chosen)
    rows = [
        list(matrix_a.column(j)) + [s * x for x in cols_b[k]]
        for j, k, s in zip(basis_a, chosen, signs)
    ]
    _, d = gauss_jordan(rows, n)
    return IntMatrix(n, n, tuple(row[n + i] // d for i in range(n) for row in rows))


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
    count must equal the basis count.  The enumeration walks each
    candidate as a choice of connected components that carry their
    spanning-tree counts, so the forest count is their product, and only
    a candidate that passes is joined into a pair-graph and built as a
    graph.

    The gate is on the system, not its matrix: a matrix that is not TU
    may still be T [I | A] with |det T| = 1 and A TU (any GL_n(Z) image
    of a TU system is), so a system is refused only when it is not
    ``is_unimodular``.  That verdict is the certified parity count that
    ``holders`` reads its bases from, so a unimodular system pays for one
    odd-minor enumeration, which the basis count needs anyway, and signs
    nothing.  The cost falls on a system with |det T| = 1 that is not
    unimodular: it pays for that enumeration before it is refused (on
    random [I | A], A over {-1, 0, 0, 1}, about 0.6 ms at 6 x 15, 10 ms at
    8 x 20 and 0.4 s at 10 x 25, where a signing test took at most 0.2 ms),
    as a unimodular system of its shape does in ``gate``; the graph search
    cannot finish past about 13 columns anyway.  A refusal cites the first
    violating minor of the matrix, which then exists.

    Raises ``ValueError`` on a negative ``max_graphs``,
    ``NotTotallyUnimodularError`` on a system that is not unimodular and
    ``SearchCapExceeded`` when ``max_graphs`` is hit.
    """
    if max_graphs is not None and max_graphs < 0:
        raise ValueError(f"max_graphs must be 0 or more, got {max_graphs}")
    if not S.is_unimodular:
        raise NotTotallyUnimodularError(is_totally_unimodular(S))
    n, m = S.dim, S.size
    n_bases = S.gate[1]
    tried = connected_tried = matches = 0
    witness = None
    for parts in enumerate_graphs.cycle_space_rank_components(m, n):
        tried += 1
        connected_tried += len(parts) == 1
        if max_graphs is not None and tried > max_graphs:
            break
        if prod(trees for _, _, trees in parts) != n_bases:
            continue
        matches += 1
        G = enumerate_graphs.pair_graph_to_multigraph(*enumerate_graphs.disjoint_union(parts))
        candidate = UnimodularSystem(cut_space_matrix(G))
        bijection = matroid_equivalent(S, candidate)
        if bijection is not None:
            witness = G, tuple(G.edge_labels[k] for k in bijection)
            break
    report = SearchReport(tried, connected_tried, tried - connected_tried, matches, m, n, max_graphs)
    if max_graphs is not None and tried > max_graphs:
        raise SearchCapExceeded(report)
    if witness is None:
        return CographicCertificate(False, None, None, report)
    return CographicCertificate(True, *witness, report)
