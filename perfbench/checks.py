"""Independent checks of the library's answers.

Nothing here imports prymdice.  Determinants are Fraction eliminations,
connectivity is this file's own union-find, and witnesses are multiplied
out column by column, so a check never trusts the code it checks.  Every
check returns ``None`` when the answer holds and a one-line reason when
it does not.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# The exceptional rank-5 system on ten vectors, copied independently of
# prymdice.unimod.e5().
E5_ROWS = (
    (1, 0, 0, 0, 0, 1, 0, 0, 1, 1),
    (0, 1, 0, 0, 0, 1, 1, 0, 0, 1),
    (0, 0, 1, 0, 0, 0, 1, 1, 0, 1),
    (0, 0, 0, 1, 0, 0, 0, 1, 1, 1),
    (0, 0, 0, 0, 1, 1, 1, 1, 1, 1),
)


def det(rows) -> int:
    """Determinant of a square integer matrix by Fraction elimination."""
    work = [[Fraction(x) for x in r] for r in rows]
    n = len(work)
    if any(len(r) != n for r in work):
        raise ValueError("determinant of a non-square matrix")
    result = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if work[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            result = -result
        p = work[col][col]
        result *= p
        for i in range(col + 1, n):
            f = work[i][col] / p
            if f:
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    if result.denominator != 1:
        raise ArithmeticError("integer matrix with a non-integer determinant")
    return int(result)


def columns(rows) -> list[tuple]:
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))] if rows else []


def equivalence_witness(a_rows, b_rows, u_rows, column_map) -> str | None:
    """U @ A column j must equal sign_j * column target_j of B, |det U| = 1."""
    n = len(a_rows)
    if len(u_rows) != n or any(len(r) != n for r in u_rows):
        return "witness U is not square of the system's dimension"
    if abs(det(u_rows)) != 1:
        return "witness U is not unimodular"
    a_cols, b_cols = columns(a_rows), columns(b_rows)
    if len(column_map) != len(a_cols) or sorted(t for t, _ in column_map) != list(range(len(b_cols))):
        return "witness column map is not a bijection"
    for j, (target, sign) in enumerate(column_map):
        if sign not in (1, -1):
            return f"witness sign {sign!r} at column {j}"
        image = tuple(sum(u_rows[i][k] * a_cols[j][k] for k in range(n)) for i in range(n))
        if image != tuple(sign * x for x in b_cols[target]):
            return f"U times column {j} is not {sign:+d} times column {target}"
    return None


def violating_minor(rows, minor) -> str | None:
    """The cited minor must exist and have the cited determinant outside {-1, 0, 1}."""
    try:
        row_idx, col_idx, value = minor
    except (TypeError, ValueError):
        return f"malformed minor certificate {minor!r}"
    if len(row_idx) != len(col_idx) or not row_idx:
        return "cited minor is not square"
    sub = [[rows[i][j] for j in col_idx] for i in row_idx]
    actual = det(sub)
    if actual != value:
        return f"cited minor has determinant {actual}, certificate says {value}"
    if -1 <= actual <= 1:
        return f"cited minor has determinant {actual}, which does not violate TU"
    return None


def component_count(vertices, edges) -> int:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for _, t, h in edges:
        rt, rh = find(t), find(h)
        if rt != rh:
            parent[rt] = rh
    return len({find(v) for v in vertices})


def betti(vertices, edges) -> int:
    """First Betti number |E| - |V| + #components."""
    return len(edges) - len(vertices) + component_count(vertices, edges)


def graph_certificate(rows, vertices, edges, column_to_edge) -> str | None:
    """A graph witness must carry the bases of the system's columns.

    Accepted when the column bases are exactly the spanning forests of the
    witness (cycle matroid) or exactly their complements (bond matroid), so
    the check holds whichever of the two the library's name refers to.
    """
    m, n = len(rows[0]), len(rows)
    by_label = {lab: (lab, t, h) for lab, t, h in edges}
    if len(column_to_edge) != m or sorted(column_to_edge) != sorted(by_label):
        return "witness does not map columns onto the witness edges bijectively"
    cols = columns(rows)
    ground = range(m)
    bases = {c for c in combinations(ground, n) if det([[cols[j][i] for j in c] for i in range(n)])}
    forests = set()
    co_forests = set()
    rank = len(vertices) - component_count(vertices, edges)
    for c in combinations(ground, rank):
        # rank-many edges without a cycle span every component
        if betti(vertices, [by_label[column_to_edge[j]] for j in c]) == 0:
            forests.add(c)
            co_forests.add(tuple(j for j in ground if j not in c))
    if bases == forests or bases == co_forests:
        return None
    return "the system's bases are neither the witness's forests nor their complements"


def vologodsky_witness(vertices, edges, vertex_map, part_0, part_1, connecting) -> str | None:
    """Two disjoint connected invariant vertex sets joined by >= 4 edges."""
    part_0, part_1 = set(part_0), set(part_1)
    if not part_0 or not part_1 or part_0 & part_1:
        return "witness parts are empty or overlap"
    for part in (part_0, part_1):
        if {vertex_map[v] for v in part} != part:
            return "witness part is not invariant"
        inner = [e for e in edges if e[1] in part and e[2] in part]
        if component_count(sorted(part), inner) != 1:
            return "witness part is not connected"
    crossing = sorted(
        lab
        for lab, t, h in edges
        if (t in part_0 and h in part_1) or (t in part_1 and h in part_0)
    )
    if len(crossing) < 4 or crossing != sorted(connecting):
        return "witness connecting edges are wrong or fewer than four"
    return None
