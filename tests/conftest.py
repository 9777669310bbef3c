import random
from functools import cache

import pytest

from prymdice.exactmat import IntMatrix
from prymdice.graph import GraphInvolution, MultiGraph
from prymdice.unimod import UnimodularSystem


@pytest.fixture
def triangle():
    return MultiGraph(
        ["u", "v", "w"],
        [("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")],
    )


@pytest.fixture
def k5():
    verts = [f"v{i}" for i in range(1, 6)]
    edges = [
        (f"e{i}{j}", f"v{i}", f"v{j}")
        for i in range(1, 6)
        for j in range(i + 1, 6)
    ]
    return MultiGraph(verts, edges)


@pytest.fixture
def swapped_loops():
    """One vertex carrying two loops exchanged by the involution."""
    g = MultiGraph(["w"], [("p", "w", "w"), ("q", "w", "w")])
    return g, GraphInvolution(g, {"w": "w"}, {"p": "q", "q": "p"})


@pytest.fixture
def reversed_banana():
    """Two vertices, two parallel edges, each edge flipped end-for-end."""
    g = MultiGraph(["u", "v"], [("e", "u", "v"), ("f", "u", "v")])
    return g, GraphInvolution(g, {"u": "v", "v": "u"}, {"e": "e", "f": "f"})


@pytest.fixture
def twin_loops():
    """Two disjoint single-loop vertices exchanged by the involution."""
    g = MultiGraph(["u", "v"], [("p", "u", "u"), ("q", "v", "v")])
    return g, GraphInvolution(g, {"u": "v", "v": "u"}, {"p": "q", "q": "p"})


def seeded_rng(salt: int = 0) -> random.Random:
    return random.Random(987654321 + salt)


def random_gl(rng, n, steps=12):
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice([-2, -1, 1, 2])
            for k in range(n):
                U[i][k] += c * U[j][k]
        elif kind == 1:
            U[i], U[j] = U[j], U[i]
        else:
            U[i] = [-x for x in U[i]]
    return IntMatrix.from_rows(U)


def scramble(rng, S):
    n, m = S.dim, S.size
    U = random_gl(rng, n)
    perm = list(range(m))
    rng.shuffle(perm)
    signs = [rng.choice([1, -1]) for _ in range(m)]
    UA = U @ S.matrix
    rows = [[signs[j] * UA.entry(i, perm[j]) for j in range(m)] for i in range(n)]
    return UnimodularSystem(IntMatrix.from_rows(rows))


def basis_masks(S) -> set:
    """The bases of S as column masks, recovered from ``S.holders``.

    Basis b holds column e when bit b of holders[e] is set; every basis
    holds a column, so the longest bitset is as long as the basis count.
    """
    count = max(h.bit_length() for h in S.holders)
    return {sum(1 << e for e, h in enumerate(S.holders) if h >> b & 1) for b in range(count)}


def two_invariant_triangles():
    """Two invariant triangles joined by four invariant edges: the standard
    family-dependence counterexample."""
    verts = ["u1", "u2", "u3", "w1", "w2", "w3"]
    edges = [
        ("a1", "u1", "u2"), ("a2", "u2", "u3"), ("a3", "u3", "u1"),
        ("b1", "w1", "w2"), ("b2", "w2", "w3"), ("b3", "w3", "w1"),
        ("c1", "u1", "w1"), ("c2", "u2", "w2"), ("c3", "u1", "w2"), ("c4", "u2", "w1"),
    ]
    g = MultiGraph(verts, edges)
    vmap = {"u1": "u2", "u2": "u1", "u3": "u3", "w1": "w2", "w2": "w1", "w3": "w3"}
    emap = {
        "a1": "a1", "a2": "a3", "a3": "a2",
        "b1": "b1", "b2": "b3", "b3": "b2",
        "c1": "c2", "c2": "c1", "c3": "c4", "c4": "c3",
    }
    return g, GraphInvolution(g, vmap, emap)


def shuffled_graph(rng, vertices, edges, vertex_map, edge_map):
    """The graph and involution with vertex and edge order shuffled."""
    vertices, edges = list(vertices), list(edges)
    rng.shuffle(vertices)
    rng.shuffle(edges)
    g = MultiGraph(vertices, edges)
    return g, GraphInvolution(g, vertex_map, edge_map)


def double_cover(rng, base_vertices, base_edges, cocycle):
    """The free double cover of a base graph given by a Z/2 cocycle.

    Base edge k = (t, h) lifts to x_k, y_k: (t.0, h.0), (t.1, h.1) when
    the cocycle is 0 and (t.0, h.1), (t.1, h.0) when it is 1; the
    involution swaps the sheets.  A zero cocycle gives the trivial,
    disconnected cover.
    """
    vertices = [f"{v}.{s}" for v in base_vertices for s in (0, 1)]
    vmap = {f"{v}.{s}": f"{v}.{1 - s}" for v in base_vertices for s in (0, 1)}
    edges, emap = [], {}
    for k, ((t, h), twist) in enumerate(zip(base_edges, cocycle)):
        edges.append((f"x{k}", f"{t}.0", f"{h}.{twist}"))
        edges.append((f"y{k}", f"{t}.1", f"{h}.{1 - twist}"))
        emap[f"x{k}"], emap[f"y{k}"] = f"y{k}", f"x{k}"
    return shuffled_graph(rng, vertices, edges, vmap, emap)


@cache
def census_covers():
    """100 sparse covers (10-12 base vertices, b1 = 4, no parallel base
    edges) and 100 covers of K5, seeded."""
    rng = seeded_rng(71)
    out = []
    for _ in range(100):
        n = rng.randint(10, 12)
        base = [f"p{i}" for i in range(n)]
        edges = [(base[rng.randrange(k)], base[k]) for k in range(1, n)]
        present = {frozenset(e) for e in edges}
        while len(edges) < n + 3:
            u, v = rng.sample(base, 2)
            if frozenset((u, v)) not in present:
                present.add(frozenset((u, v)))
                edges.append((u, v))
        out.append(double_cover(rng, base, edges, [rng.randrange(2) for _ in edges]))
    k5 = [f"p{i}" for i in range(5)]
    for _ in range(100):
        edges = [(k5[i], k5[j]) for i in range(5) for j in range(i + 1, 5)]
        rng.shuffle(edges)
        edges = [(h, t) if rng.random() < 0.5 else (t, h) for t, h in edges]
        out.append(double_cover(rng, k5, edges, [rng.randrange(2) for _ in edges]))
    return tuple(out)
