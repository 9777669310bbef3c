"""Independent reference implementations used only to check the package.

Nothing here imports the production linear algebra: determinants are
cofactor expansions, ranks are Fraction Gaussian elimination, and the
total-unimodularity oracles enumerate submatrices with their own loops, and
lattice equivalence is decided by trying every signed image of one basis.
Isomorphism-class counting is done by brute-force canonical forms over
all vertex permutations, isomorphisms and automorphisms are listed by
trying every vertex permutation, and isomorphism of two multigraphs is
decided by trying every permutation within degree classes.  The
Vologodsky criterion is checked on every union of vertex orbits with
set-based searches, and again on every split of an invariant component
into two orbit unions; a witness is checked against its definition with
the same searches.  Connected components come from a breadth-first
search.
"""

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations, product


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return 1
    if any(len(r) != n for r in rows):
        raise ValueError("not square")
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def rational_rank(rows):
    work = [[Fraction(x) for x in r] for r in rows]
    if not work:
        return 0
    ncols = len(work[0])
    rank = 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pivrow = work[rank]
        for i in range(len(work)):
            if i != rank and work[i][col] != 0:
                f = work[i][col] / pivrow[col]
                work[i] = [a - f * b for a, b in zip(work[i], pivrow)]
        rank += 1
    return rank


def independent_column_sets(cols):
    """Bitmasks of the linearly independent subsets of the vectors ``cols``.

    Depth-first over subsets in index order, each vector reduced by Fraction
    elimination against the echelon rows of its prefix; a vector that
    reduces to zero is dependent on the prefix, and so is every superset.
    """
    found = set()

    def grow(mask, start, echelon):
        found.add(mask)
        for j in range(start, len(cols)):
            v = [Fraction(x) for x in cols[j]]
            for p, row in echelon:
                if v[p]:
                    f = v[p] / row[p]
                    v = [a - f * b for a, b in zip(v, row)]
            p = next((i for i, x in enumerate(v) if x), None)
            if p is not None:
                grow(mask | 1 << j, j + 1, echelon + [(p, v)])

    grow(0, 0, [])
    return found


def tu_by_definition(rows):
    """All-minors total unimodularity straight from the definition."""
    if not rows:
        return True
    nr, nc = len(rows), len(rows[0])
    for k in range(1, min(nr, nc) + 1):
        for ridx in combinations(range(nr), k):
            for cidx in combinations(range(nc), k):
                sub = [[rows[i][j] for j in cidx] for i in ridx]
                if abs(cofactor_det(sub)) > 1:
                    return False
    return True


def first_violating_minor_by_definition(rows):
    """The first minor outside {-1, 0, 1} as (rows, cols, det), or None.

    Minors are visited by ascending size, then lexicographic row sets, then
    lexicographic column sets, the order a TU certificate cites.
    """
    nr, nc = len(rows), len(rows[0])
    for k in range(1, min(nr, nc) + 1):
        for ridx in combinations(range(nr), k):
            for cidx in combinations(range(nc), k):
                value = cofactor_det([[rows[i][j] for j in cidx] for i in ridx])
                if abs(value) > 1:
                    return ridx, cidx, value
    return None


def _fraction_inverse(rows):
    n = len(rows)
    work = [
        [Fraction(x) for x in r] + [Fraction(int(i == j)) for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        pivot = next(i for i in range(col, n) if work[i][col] != 0)
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [x / work[col][col] for x in work[col]]
        for i in range(n):
            if i != col and work[i][col] != 0:
                f = work[i][col]
                work[i] = [a - f * b for a, b in zip(work[i], work[col])]
    return [r[n:] for r in work]


def lattice_equivalent_by_definition(rows_a, rows_b):
    """Whether U @ A equals B up to a signed column bijection, U in GL_n(Z).

    Such a U carries a fixed column basis of A onto some signed ordered
    choice of columns of B, so solving for U over every such choice
    decides the question.  Exponential in the size: tiny systems only.
    """
    n, m = len(rows_a), len(rows_a[0])
    if (len(rows_b), len(rows_b[0])) != (n, m):
        return False
    cols_a = [[r[j] for r in rows_a] for j in range(m)]
    cols_b = [[r[j] for r in rows_b] for j in range(m)]

    def unsigned(col):
        return max(tuple(col), tuple(-x for x in col))

    wanted = sorted(unsigned(c) for c in cols_b)
    basis = next(
        c for c in combinations(range(m), n)
        if cofactor_det([[cols_a[j][i] for j in c] for i in range(n)]) != 0
    )
    inverse = _fraction_inverse([[cols_a[j][i] for j in basis] for i in range(n)])
    for image in permutations(range(m), n):
        for signs in product((1, -1), repeat=n):
            targets = [[s * x for x in cols_b[j]] for j, s in zip(image, signs)]
            U = [
                [sum(targets[k][i] * inverse[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
            if any(x.denominator != 1 for row in U for x in row):
                continue
            U = [[int(x) for x in row] for row in U]
            if abs(cofactor_det(U)) != 1:
                continue
            UA = [[sum(U[i][k] * col[k] for k in range(n)) for i in range(n)] for col in cols_a]
            if sorted(unsigned(c) for c in UA) == wanted:
                return True
    return False


def compositions_by_brute_force(total, parts):
    """Every ``parts``-tuple of integers in 0..total summing to ``total``,
    in lexicographic order."""
    return [c for c in product(range(total + 1), repeat=parts) if sum(c) == total]


def canonical_pair_graph(pairs, nverts):
    """Minimum over all vertex permutations of the sorted pair tuple."""
    best = None
    for perm in permutations(range(nverts)):
        relabeled = tuple(sorted(tuple(sorted((perm[u], perm[v]))) for (u, v) in pairs))
        if best is None or relabeled < best:
            best = relabeled
    return best


def isomorphisms_by_brute_force(pairs_a, pairs_b, nverts):
    """Every vertex permutation carrying pair-graph a onto b, as ``perm[v]``.

    Tries all nverts! permutations: at most 7 vertices.
    """
    if nverts > 7:
        raise ValueError("brute-force isomorphism listing is for at most 7 vertices")
    target = sorted(tuple(sorted(p)) for p in pairs_b)
    return [
        perm
        for perm in permutations(range(nverts))
        if sorted(tuple(sorted((perm[u], perm[v]))) for (u, v) in pairs_a) == target
    ]


def isomorphic_by_degree_classes(pairs_a, pairs_b, nverts):
    """Whether some vertex permutation carries multigraph a onto b.

    Graphs are multisets of ``(u, v)`` pairs on vertices 0..nverts-1.  Only
    the permutations sending each vertex of a to a vertex of b with the same
    degree are tried: every bijection within each degree class, combined
    over the classes.
    """
    def degrees(pairs):
        deg = [0] * nverts
        for u, v in pairs:
            deg[u] += 1
            deg[v] += 1
        return deg

    deg_a, deg_b = degrees(pairs_a), degrees(pairs_b)
    if sorted(deg_a) != sorted(deg_b):
        return False
    target = sorted(tuple(sorted(p)) for p in pairs_b)
    classes = sorted(set(deg_a))
    sources = [[v for v in range(nverts) if deg_a[v] == d] for d in classes]
    images = [[v for v in range(nverts) if deg_b[v] == d] for d in classes]
    perm = [0] * nverts
    for choice in product(*(permutations(img) for img in images)):
        for src, img in zip(sources, choice):
            for v, w in zip(src, img):
                perm[v] = w
        if sorted(tuple(sorted((perm[u], perm[v]))) for u, v in pairs_a) == target:
            return True
    return False


def brute_force_multigraph_classes(nverts, nedges, loops=False, connected=None, rank=None):
    """Canonical forms of labeled multigraphs, filtered; exact but tiny-only."""
    slots = []
    for u in range(nverts):
        start = u if loops else u + 1
        for v in range(start, nverts):
            slots.append((u, v))

    classes = set()

    def rec(idx, remaining, acc):
        if remaining == 0:
            consider(tuple(acc))
            return
        if idx == len(slots):
            return
        for count in range(remaining + 1):
            rec(idx + 1, remaining - count, acc + [slots[idx]] * count)

    def consider(pairs):
        touched = {u for (u, v) in pairs} | {v for (u, v) in pairs}
        if len(touched) != nverts:
            return  # isolated vertices excluded
        if connected is not None or rank is not None:
            parent = list(range(nverts))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for (u, v) in pairs:
                ru, rv = find(u), find(v)
                if ru != rv:
                    parent[ru] = rv
            ncomp = len({find(x) for x in range(nverts)})
            if connected is not None and (ncomp == 1) != connected:
                return
            if rank is not None and nverts - ncomp != rank:
                return
        classes.add(canonical_pair_graph(pairs, nverts))

    rec(0, nedges, [])
    return classes


def components_by_search(vertices, edges):
    """The connected components of the graph on ``vertices`` with edges
    ``(label, tail, head)``, as vertex sets, each found by a breadth-first
    search from the first vertex in ``vertices`` that no earlier one holds."""
    neighbours = {v: set() for v in vertices}
    for _, t, h in edges:
        neighbours[t].add(h)
        neighbours[h].add(t)
    found = []
    for v in vertices:
        if any(v in comp for comp in found):
            continue
        comp, queue = {v}, deque([v])
        while queue:
            for y in neighbours[queue.popleft()] - comp:
                comp.add(y)
                queue.append(y)
        found.append(frozenset(comp))
    return found


def _orbits_and_connectivity(vertices, edges, vertex_map):
    """The vertex orbits (numbered by their first vertex in ``vertices``),
    the neighbour sets, and a set-based connectivity test."""
    orbits = []
    for v in vertices:
        if not any(v in orbit for orbit in orbits):
            orbits.append({v, vertex_map[v]})
    neighbours = {v: set() for v in vertices}
    for _, t, h in edges:
        neighbours[t].add(h)
        neighbours[h].add(t)

    def connected(vset):
        start = next(iter(vset))
        seen, stack = {start}, [start]
        while stack:
            for y in neighbours[stack.pop()] & vset:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen == vset

    return orbits, neighbours, connected


def _joining_edges(edges, set_a, set_b):
    return [
        lab for lab, t, h in edges
        if (t in set_a and h in set_b) or (t in set_b and h in set_a)
    ]


def vologodsky_by_definition(vertices, edges, vertex_map):
    """The first pair of disjoint connected invariant vertex sets joined by
    at least four edges, as ``(False, (set_0, set_1, edge_labels))``, or
    ``(True, None)``.

    ``edges`` holds ``(label, tail, head)`` triples.  Invariant sets are
    unions of vertex orbits (orbits numbered by their first vertex in
    ``vertices``), encoded as orbit bitmasks; the connected ones are
    listed in ascending mask order, and pairs are taken in that order,
    the second set after the first.  Exponential in the orbit count.
    """
    orbits, _, connected = _orbits_and_connectivity(vertices, edges, vertex_map)
    listed = []
    for mask in range(1, 1 << len(orbits)):
        vset = set().union(*(orbits[i] for i in range(len(orbits)) if mask >> i & 1))
        if connected(vset):
            listed.append((mask, frozenset(vset)))
    for idx, (mask_a, set_a) in enumerate(listed):
        for mask_b, set_b in listed[idx + 1:]:
            if mask_a & mask_b:
                continue
            crossing = _joining_edges(edges, set_a, set_b)
            if len(crossing) >= 4:
                return False, (set_a, set_b, tuple(sorted(crossing)))
    return True, None


def vologodsky_witness_problem(vertices, edges, vertex_map, witness):
    """Why ``witness``, a ``(part_0, part_1, connecting_edges)`` triple, is
    not a split of one component into two disjoint connected invariant
    vertex sets joined by exactly ``connecting_edges``, at least four of
    them; None when it is one."""
    _, neighbours, connected = _orbits_and_connectivity(vertices, edges, vertex_map)
    part_0, part_1, connecting = witness
    part_0, part_1 = set(part_0), set(part_1)
    if not part_0 or not part_1 or part_0 & part_1:
        return "parts are empty or overlap"
    for part in (part_0, part_1):
        if {vertex_map[v] for v in part} != part:
            return "a part is not invariant"
        if not connected(part):
            return "a part is not connected"
    crossing = _joining_edges(edges, part_0, part_1)
    if len(crossing) < 4 or sorted(crossing) != sorted(connecting):
        return "connecting edges are wrong or fewer than four"
    union = part_0 | part_1
    if not connected(union) or any(neighbours[v] - union for v in union):
        return "the parts do not make up one component"
    return None


def vologodsky_by_bipartition(vertices, edges, vertex_map):
    """Whether no component K with iota(K) = K splits into two connected
    invariant parts joined by at least four edges.

    By the lemma in ``prymdice.prym.vologodsky_check`` this is the verdict
    of ``vologodsky_by_definition``.  The components come from set-based
    searches; every orbit submask of an invariant component is tried as
    one part, the rest of the component as the other.
    """
    orbits, neighbours, connected = _orbits_and_connectivity(vertices, edges, vertex_map)
    unplaced = set(vertices)
    while unplaced:
        start = next(v for v in vertices if v in unplaced)
        component, stack = {start}, [start]
        while stack:
            for y in neighbours[stack.pop()] - component:
                component.add(y)
                stack.append(y)
        unplaced -= component
        if vertex_map[start] not in component:
            continue
        inside = [orbit for orbit in orbits if orbit <= component]
        for mask in range(1, (1 << len(inside)) - 1):
            part = set().union(*(inside[i] for i in range(len(inside)) if mask >> i & 1))
            rest = component - part
            if connected(part) and connected(rest) and len(_joining_edges(edges, part, rest)) >= 4:
                return False
    return True
