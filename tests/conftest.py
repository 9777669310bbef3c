import random

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
    return UnimodularSystem(IntMatrix.from_rows(rows), allow_repeats=S.allow_repeats)


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
