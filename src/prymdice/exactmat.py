"""Exact integer matrix arithmetic.

Everything here is computed over Z with Python's arbitrary precision
integers; there is deliberately no floating point anywhere in this module.
Half-integer matrices are held doubled, as integer rows, by their users.
The four workhorses are

* ``hnf`` -- row-style Hermite normal form with a unimodular witness,
  read off one Hermite pass over ``[M | I]``; ``hnf_basis`` (the canonical
  basis of a row lattice) and ``rank`` run the same pass without the witness,
  and ``hermite_lattice_contains`` tests membership against such a basis
  without another pass,
* ``det`` -- fraction-free (Bareiss) determinant, also on plain row lists
  (``det_of_rows``),
* ``minors`` -- every k x k minor in the order total-unimodularity
  certificates use, each computed from the (k-1)-minors by Laplace
  expansion; it feeds the total-unimodularity sweep and, through the
  coordinate block of a standard form, the bases of a column matroid,
* ``gauss_jordan`` -- fraction-free (Bareiss) Gauss-Jordan elimination
  with greedy column pivoting: the lexicographically first column basis,
  its determinant d and d times the coordinates of every column in it,
  including any columns appended to the rows (an identity block gives
  the adjugate of the basis).

``square_submatrices`` enumerates the k x k submatrices themselves in
that order; the library no longer calls it, and it stays as the order
reference for ``minors``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import mul


class MatrixError(ValueError):
    """Raised for malformed matrix inputs (shape or format)."""


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, entries stored row-major."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise MatrixError("negative matrix dimensions")
        if len(self.entries) != self.rows * self.cols:
            raise MatrixError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )
        if not all(isinstance(x, int) for x in self.entries):
            raise MatrixError("matrix entries must be integers")

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise MatrixError("ragged rows")
        return cls(n, m, tuple(int(x) for r in rows for x in r))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def row_list(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise MatrixError("incompatible shapes for multiplication")
        columns = [other.column(j) for j in range(other.cols)]
        return IntMatrix(self.rows, other.cols, tuple(
            sum(map(mul, self.row(i), col)) for i in range(self.rows) for col in columns
        ))

    def submatrix(self, row_idx, col_idx) -> "IntMatrix":
        row_idx = tuple(row_idx)
        col_idx = tuple(col_idx)
        return IntMatrix(
            len(row_idx),
            len(col_idx),
            tuple(self.entry(i, j) for i in row_idx for j in col_idx),
        )

    def column_submatrix(self, col_idx) -> "IntMatrix":
        return self.submatrix(range(self.rows), col_idx)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"IntMatrix({self.rows}x{self.cols}: {body})"


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, s, t) with g = s*a + t*b, g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _hermite(rows: list, ncols: int) -> int:
    """Bring ``rows`` to Hermite form on their first ``ncols`` columns, in place.

    Each row operation is unimodular and acts on the whole row, so columns
    past ``ncols`` (say an identity block) record the operations.  Returns
    the pivot count r: the first r rows carry the pivots, positive, with the
    entries above each pivot reduced into ``[0, pivot)``, and the rows below
    them are zero on the first ``ncols`` columns.
    """
    n = len(rows)
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, n):
            b = rows[i][c]
            if b == 0:
                continue
            a = rows[r][c]
            g, s, t = _xgcd(a, b)
            p, q = a // g, b // g
            # [[s, t], [-q, p]] has determinant s*p + t*q = 1
            top, row = rows[r], rows[i]
            rows[r] = [s * x + t * y for x, y in zip(top, row)]
            rows[i] = [p * y - q * x for x, y in zip(top, row)]
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q != 0:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def hnf(M: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns ``(H, U)`` with ``H = U @ M``, ``U`` unimodular
    (``|det U| = 1``).  ``H`` is in row echelon form with positive pivots
    and entries above each pivot reduced into ``[0, pivot)``; its nonzero
    rows are a canonical basis of the row lattice of ``M``.  ``U`` is read
    off the identity block of ``[M | I]`` after one Hermite pass.
    """
    if M.rows == 0 or M.cols == 0:
        raise MatrixError("hnf requires a nonempty matrix")
    rows = [list(M.row(i)) + [int(i == j) for j in range(M.rows)] for i in range(M.rows)]
    _hermite(rows, M.cols)
    return (
        IntMatrix.from_rows([row[: M.cols] for row in rows]),
        IntMatrix.from_rows([row[M.cols :] for row in rows]),
    )


def hnf_basis(M: IntMatrix) -> IntMatrix:
    """The nonzero rows of hnf(M): a canonical basis of the row lattice."""
    rows = M.row_list()
    r = _hermite(rows, M.cols)
    return IntMatrix(r, M.cols, tuple(x for row in rows[:r] for x in row))


def rank(M: IntMatrix) -> int:
    """Rank over the rationals (= number of nonzero rows of the HNF)."""
    return _hermite(M.row_list(), M.cols)


def row_lattice_contains(M: IntMatrix, v) -> bool:
    """Whether integer vector ``v`` lies in the row lattice of ``M``."""
    return hermite_lattice_contains(hnf_basis(M), v)


def hermite_lattice_contains(H: IntMatrix, v) -> bool:
    """``row_lattice_contains`` for an ``H`` already in Hermite form, such
    as ``hnf_basis`` returns.

    Row by row, the entry of ``v`` at the row's pivot must be a multiple of
    the pivot, and subtracting that multiple of the row clears it; ``v`` is
    in the lattice exactly when nothing is left.
    """
    v = [int(x) for x in v]
    if len(v) != H.cols:
        raise MatrixError("vector length does not match column count")
    c = 0
    for i in range(H.rows):
        row = H.row(i)
        while row[c] == 0:
            c += 1
        q, r = divmod(v[c], row[c])
        if r:
            return False
        if q:
            v = [x - q * y for x, y in zip(v, row)]
    return not any(v)


def det(M: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if M.rows != M.cols:
        raise MatrixError("determinant requires a square matrix")
    return det_of_rows(M.row_list())


def det_of_rows(a: list) -> int:
    """``det`` of a square matrix given as a list of row lists, which it overwrites."""
    n = len(a)
    if n == 0:
        return 1
    if n == 1:
        return a[0][0]
    if n == 2:
        return a[0][0] * a[1][1] - a[0][1] * a[1][0]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        akk = a[k][k]
        for i in range(k + 1, n):
            aik = a[i][k]
            row_i = a[i]
            row_k = a[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * akk - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = akk
    return sign * a[n - 1][n - 1]


def gauss_jordan(rows: list, ncols: int) -> tuple[tuple[int, ...], int]:
    """Fraction-free Gauss-Jordan elimination of n independent rows, in place.

    ``rows`` is a list of n row lists.  Pivots are chosen greedily among
    the first ``ncols`` columns: a column is a pivot when it has a nonzero
    entry in a row not yet pivoted, so the pivots are the lexicographically
    first n independent columns.  Each step is Bareiss's, applied to every
    other row, above the pivot as well as below: a row becomes
    ``(p * row - a * pivot_row) / p0`` with p the new pivot, a the row's
    entry in the pivot column and p0 the previous pivot; every entry is
    then a minor of the input, so the division is exact.

    Returns ``(pivots, d)``, with d the determinant of the input's columns
    ``pivots`` (in that order), the basis matrix T.  The rows are left as
    adj(T) times the input, which is d * T^{-1} times it: d times the
    identity on the pivot columns, and on every other column, appended
    ones included, d times its coordinates in the basis.  Raises
    ``MatrixError`` when the first ``ncols`` columns have rank below n, so
    a singular T has no adjugate read off here.
    """
    n = len(rows)
    pivots = []
    prev = 1
    sign = 1
    for c in range(ncols):
        k = len(pivots)
        if k == n:
            break
        i = next((i for i in range(k, n) if rows[i][c]), None)
        if i is None:
            continue
        if i != k:
            rows[k], rows[i] = rows[i], rows[k]
            sign = -sign
        top = rows[k]
        p = top[c]
        for i in range(n):
            if i == k:
                continue
            a = rows[i][c]
            if a:
                rows[i] = [(p * x - a * y) // prev for x, y in zip(rows[i], top)]
            elif p != prev:
                rows[i] = [p * x // prev for x in rows[i]]
        pivots.append(c)
        prev = p
    if len(pivots) < n:
        raise MatrixError(f"rank {len(pivots)} below the {n} rows on the pivot columns")
    if sign < 0:
        # the swaps permuted the rows of T: undo the permutation's sign
        rows[:] = [[-x for x in row] for row in rows]
        prev = -prev
    return tuple(pivots), prev


def square_submatrices(M: IntMatrix, k: int):
    """Yield every k x k submatrix exactly once.

    Yields ``(row_idx, col_idx, submatrix)`` in lexicographic order of the
    index sets; emits exactly C(rows, k) * C(cols, k) items.
    """
    if k < 1 or k > min(M.rows, M.cols):
        raise MatrixError(f"submatrix size {k} out of range for {M.rows}x{M.cols}")
    for row_idx in itertools.combinations(range(M.rows), k):
        for col_idx in itertools.combinations(range(M.cols), k):
            yield row_idx, col_idx, M.submatrix(row_idx, col_idx)


def minors(M: IntMatrix):
    """Yield ``(row_idx, col_idx, det)`` for every k x k minor, k = 1, 2, ...

    The order is that of ``square_submatrices``: ascending k, then
    lexicographic row sets, then lexicographic column sets.  Each k x k
    minor is a Laplace expansion along the first row of its row set over
    the stored (k-1)-minors of the remaining rows, skipping zero entries;
    only two levels are kept and no submatrix is built.
    """
    rows = [M.row(i) for i in range(M.rows)]
    below = {(): {0: 1}}  # row set -> {column bitmask: minor}
    for k in range(1, min(M.rows, M.cols) + 1):
        col_sets = []
        for col_idx in itertools.combinations(range(M.cols), k):
            mask = 0
            for c in col_idx:
                mask |= 1 << c
            col_sets.append((col_idx, mask))
        level = {}
        for row_idx in itertools.combinations(range(M.rows), k):
            top = rows[row_idx[0]]
            rest = below[row_idx[1:]]
            found = level[row_idx] = {}
            for col_idx, mask in col_sets:
                d = 0
                sign = 1
                for c in col_idx:
                    a = top[c]
                    if a:
                        d += sign * a * rest[mask ^ 1 << c]
                    sign = -sign
                found[mask] = d
                yield row_idx, col_idx, d
        below = level


# ---------------------------------------------------------------------------
# Text format: first line "rows cols", then one line of integers per row.
# ---------------------------------------------------------------------------


def parse_matrix_text(text: str) -> IntMatrix:
    """Parse the matrix text format; '#' comments and blank lines are skipped."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((lineno, stripped))
    if not lines:
        raise MatrixError("empty matrix file")
    header = lines[0][1].split()
    if len(header) != 2:
        raise MatrixError(f"line {lines[0][0]}: expected 'rows cols'")
    try:
        nrows, ncols = int(header[0]), int(header[1])
    except ValueError:
        raise MatrixError(f"line {lines[0][0]}: expected 'rows cols'") from None
    body = lines[1:]
    if len(body) != nrows:
        raise MatrixError(f"expected {nrows} data lines, found {len(body)}")
    rows = []
    for lineno, line in body:
        parts = line.split()
        if len(parts) != ncols:
            raise MatrixError(f"line {lineno}: expected {ncols} entries, got {len(parts)}")
        try:
            rows.append([int(p) for p in parts])
        except ValueError:
            raise MatrixError(f"line {lineno}: non-integer entry") from None
    return IntMatrix.from_rows(rows) if rows else IntMatrix(0, ncols, ())


def format_matrix_text(M: IntMatrix) -> str:
    lines = [f"{M.rows} {M.cols}"]
    for i in range(M.rows):
        lines.append(" ".join(str(x) for x in M.row(i)))
    return "\n".join(lines) + "\n"
