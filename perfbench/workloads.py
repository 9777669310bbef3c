"""The benchmark's in-process workloads: seeded inputs, timed calls, checks.

Inputs are plain data made from the seed (edge lists, integer rows).  An
item builds the library objects from them inside the timed region, so
construction through the public API is part of what is measured.  The
library is reached through module attributes at call time, which is what
lets the tracer's rebinding see every call.

Each workload is a closed loop with one client: ``run`` is called for the
next input only after the previous call and its check have finished.
``generate`` returns the inputs and a set-up problem (``None`` when the
set-up is sound); ``check`` returns ``None`` or a one-line reason.
"""

from __future__ import annotations

import itertools

import checks
from prymdice import enumerate_graphs, exactmat, graph, homology, prym, unimod

# Enough inputs that a run cycles through them only if the program gets
# about ten times faster than at the benchmark's first commit.
STREAM_LENGTH = 2000

# Isomorphism classes up to seven edges, fixed by mathematics, not by the
# enumerator: a different count is a set-up failure.
ALL_MULTIGRAPHS_UP_TO_7 = 5151
CONNECTED_LOOPLESS_UP_TO_7 = 489


def _shuffled(rng, values):
    values = list(values)
    rng.shuffle(values)
    return values


def _relabel(rng, vertices, edges, v_prefix="n", e_prefix="d"):
    """Fresh vertex names, edge labels, edge order and orientations.

    Returns the plain graph and the vertex and edge renamings.
    """
    names = dict(zip(vertices, _shuffled(rng, (f"{v_prefix}{i}" for i in range(len(vertices))))))
    labels = dict(zip((e[0] for e in edges), _shuffled(rng, (f"{e_prefix}{k}" for k in range(len(edges))))))
    out = []
    for label, t, h in edges:
        t, h = names[t], names[h]
        out.append([labels[label], *((h, t) if rng.random() < 0.5 else (t, h))])
    plain = {"vertices": _shuffled(rng, names.values()), "edges": _shuffled(rng, out)}
    return plain, names, labels


def _graph(inp):
    return graph.MultiGraph(inp["vertices"], inp["edges"])


def _rows(matrix):
    return [list(matrix.entries[i * matrix.cols:(i + 1) * matrix.cols]) for i in range(matrix.rows)]


def _tu_problem(rows, cert):
    return None if cert.is_tu else checks.violating_minor(rows, cert.violating_minor)


def _witness_problem(a_rows, b_rows, eq):
    return checks.equivalence_witness(a_rows, b_rows, _rows(eq.U), eq.column_map)


def random_gl(rng, n, steps=12):
    """A random matrix in GL_n(Z) as a product of elementary moves."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        kind = rng.randrange(3)
        i, j = rng.sample(range(n), 2)
        if kind == 0:
            c = rng.choice((-2, -1, 1, 2))
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        elif kind == 1:
            u[i], u[j] = u[j], u[i]
        else:
            u[i] = [-x for x in u[i]]
    return u


def scramble(rng, rows):
    """U @ rows with its columns signed and permuted, U random in GL_n(Z)."""
    n, m = len(rows), len(rows[0])
    u = random_gl(rng, n)
    ua = [[sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(m)] for i in range(n)]
    perm = _shuffled(rng, range(m))
    signs = [rng.choice((1, -1)) for _ in range(m)]
    return [[signs[j] * ua[i][perm[j]] for j in range(m)] for i in range(n)]


def random_connected_6_10(rng):
    """A connected multigraph on six vertices with ten edges (criterion 8's shape)."""
    verts = [f"v{i}" for i in range(6)]
    order = _shuffled(rng, verts)
    edges = [[f"e{k}", order[rng.randrange(k)], order[k]] for k in range(1, 6)]
    for k in range(6, 11):
        u, v = rng.sample(verts, 2)
        edges.append([f"e{k}", u, v])
    return {"vertices": verts, "edges": edges}


def double_cover(rng, base_vertices, base_edges, cocycle):
    """The free double cover given by a Z/2 cocycle, relabelled at random.

    Base edge (t, h) with cocycle 0 lifts to (t.0, h.0) and (t.1, h.1);
    with cocycle 1 to (t.0, h.1) and (t.1, h.0).  The involution swaps
    the two sheets.
    """
    edges, pairs = [], []
    for k, ((t, h), twist) in enumerate(zip(base_edges, cocycle)):
        edges.append((f"x{k}", f"{t}.0", f"{h}.{twist}"))
        edges.append((f"y{k}", f"{t}.1", f"{h}.{1 - twist}"))
        pairs += [(f"x{k}", f"y{k}"), (f"y{k}", f"x{k}")]
    vertices = [f"{v}.{s}" for v in base_vertices for s in (0, 1)]
    plain, names, labels = _relabel(rng, vertices, edges, "c", "f")
    plain["vertex_map"] = {names[v]: names[f"{v[:-1]}{1 - int(v[-1])}"] for v in vertices}
    plain["edge_map"] = {labels[a]: labels[b] for a, b in pairs}
    plain["base_betti"] = checks.betti(base_vertices, [(k, t, h) for k, (t, h) in enumerate(base_edges)])
    plain["base_edges"] = len(base_edges)
    return plain


def _random_orientation(rng, pairs):
    return [(h, t) if rng.random() < 0.5 else (t, h) for t, h in pairs]


def k5_covers(rng, count):
    """Double covers of K5 (the flagship's base graph), random order and orientation.

    The cover depends only on the cocycle's class modulo coboundaries, and
    the class decides the system's shape (5x8 to 5x10, or 6x10 for the
    trivial class), so each block of 64 covers holds every class once, in a
    random order and with a random coboundary added.  Runs then see the
    same mix of shapes whatever the seed.
    """
    base = [f"p{i}" for i in range(5)]
    edges = [(base[i], base[j]) for i in range(5) for j in range(i + 1, 5)]
    # a class is fixed by its values off the spanning star at p0
    off_star = [k for k, (t, _) in enumerate(edges) if t != "p0"]
    classes = list(itertools.product((0, 1), repeat=len(off_star)))
    covers = []
    while len(covers) < count:
        for values in _shuffled(rng, classes):
            side = {v for v in base if rng.random() < 0.5}
            cocycle = [int((t in side) != (h in side)) for t, h in edges]
            for k, value in zip(off_star, values):
                cocycle[k] ^= value
            order = _shuffled(rng, range(len(edges)))
            covers.append(double_cover(
                rng, base, _random_orientation(rng, [edges[k] for k in order]),
                [cocycle[k] for k in order],
            ))
    return covers[:count]


def sparse_cover(rng):
    """Random cocycle on a random connected simple base, 10-12 vertices, b1 = 4."""
    n = rng.randint(10, 12)
    base = [f"p{i}" for i in range(n)]
    order = _shuffled(rng, base)
    edges = [(order[rng.randrange(k)], order[k]) for k in range(1, n)]
    present = {frozenset(e) for e in edges}
    while len(edges) < n + 3:
        u, v = rng.sample(base, 2)
        if frozenset((u, v)) not in present:
            present.add(frozenset((u, v)))
            edges.append((u, v))
    return double_cover(rng, base, _random_orientation(rng, _shuffled(rng, edges)),
                        [rng.randrange(2) for _ in edges])


def _cover_problem(inp, dicing, tu):
    """Checks shared by both cover kinds; returns (rows, problem)."""
    rows = _rows(dicing.system.matrix)
    expected = checks.betti(inp["vertices"], inp["edges"]) - inp["base_betti"]
    if len(rows) != expected:
        return rows, f"torus rank {len(rows)}, expected b1(cover) - b1(base) = {expected}"
    if len(rows[0]) > inp["base_edges"]:
        return rows, f"{len(rows[0])} columns from {inp['base_edges']} edge orbits"
    if not dicing.family_independent:
        w = dicing.vologodsky_witness
        problem = checks.vologodsky_witness(
            inp["vertices"], inp["edges"], inp["vertex_map"],
            w.subgraph_0, w.subgraph_1, w.connecting_edges,
        )
        if problem:
            return rows, problem
    return rows, _tu_problem(rows, tu)


class DicingSweep:
    """Criterion 7's TU sweep one size smaller: every dicing up to seven edges."""

    name = "jacobian_sweep.dicing"

    def generate(self, rng):
        corpus = [g for m in range(1, 8) for g in enumerate_graphs.all_multigraphs(m, loops=True)]
        items = [
            _relabel(rng, g.vertices, g.edges)[0]
            for g in corpus
            if checks.betti(g.vertices, g.edges) > 0
        ]
        problem = None
        if len(corpus) != ALL_MULTIGRAPHS_UP_TO_7:
            problem = f"{len(corpus)} multigraphs up to 7 edges, expected {ALL_MULTIGRAPHS_UP_TO_7}"
        return _shuffled(rng, items), problem

    def run(self, inp):
        system = homology.cographic_dicing_system(_graph(inp))
        return system, unimod.is_totally_unimodular(system)

    def check(self, inp, outcome):
        system, tu = outcome
        rows = _rows(system.matrix)
        b1 = checks.betti(inp["vertices"], inp["edges"])
        if len(rows) != b1:
            return f"dicing has dimension {len(rows)}, b1 is {b1}"
        if not tu.is_tu:  # cycle-space dicings are TU by theorem
            return "cycle-space dicing reported not TU: " + str(_tu_problem(rows, tu))
        return None


class RoundTrip:
    """Criterion 7's round trip one size smaller: bond systems back to graphs."""

    name = "jacobian_sweep.roundtrip"

    def generate(self, rng):
        corpus = [g for m in range(1, 8) for g in enumerate_graphs.connected_multigraphs_any_order(m)]
        items = [_relabel(rng, g.vertices, g.edges)[0] for g in corpus]
        problem = None
        if len(corpus) != CONNECTED_LOOPLESS_UP_TO_7:
            problem = f"{len(corpus)} connected graphs up to 7 edges, expected {CONNECTED_LOOPLESS_UP_TO_7}"
        return _shuffled(rng, items), problem

    def run(self, inp):
        system = unimod.bond_system(_graph(inp))
        return system, unimod.is_cographic(system)

    def check(self, inp, outcome):
        system, cert = outcome
        rows = _rows(system.matrix)
        if len(rows) != len(inp["vertices"]) - 1:
            return f"bond system has dimension {len(rows)}"
        # graphs with at most 8 edges are planar: graphic and cographic alike
        if not cert.is_cographic:
            return "bond system of a planar graph reported not cographic"
        if cert.witness is not None:
            w = cert.witness
            return checks.graph_certificate(rows, w.vertices, w.edges, cert.column_to_edge)
        return None


class E5Accept:
    """E5 against U @ E5 with its columns signed and permuted."""

    name = "equiv_stream.e5_accept"

    def generate(self, rng):
        return [{"rows": scramble(rng, checks.E5_ROWS)} for _ in range(STREAM_LENGTH)], None

    def run(self, inp):
        a = unimod.e5()
        b = unimod.UnimodularSystem(exactmat.IntMatrix.from_rows(inp["rows"]))
        return a, unimod.systems_equivalent(a, b)

    def check(self, inp, outcome):
        a, eq = outcome
        if [tuple(r) for r in _rows(a.matrix)] != list(checks.E5_ROWS):
            return "the library's E5 differs from the reference copy"
        if eq is None:
            return "a scramble of E5 reported not equivalent to E5"
        return _witness_problem(checks.E5_ROWS, inp["rows"], eq)


class Reject:
    """E5 against the bond system of a random 6-vertex, 10-edge graph."""

    name = "equiv_stream.reject"

    def generate(self, rng):
        return [random_connected_6_10(rng) for _ in range(STREAM_LENGTH)], None

    def run(self, inp):
        system = unimod.bond_system(_graph(inp))
        return system, unimod.systems_equivalent(unimod.e5(), system)

    def check(self, inp, outcome):
        system, eq = outcome
        if (system.dim, system.size) != (5, 10):
            return f"bond system is {system.dim}x{system.size}, expected 5x10"
        # E5 is not graphic, so no bond system is equivalent to it
        if eq is not None:
            return "E5 reported equivalent to a bond system"
        return None


class K5Cover:
    """Random double covers of K5 through the whole Prym pipeline."""

    name = "prym_census.k5_cover"

    def generate(self, rng):
        return k5_covers(rng, STREAM_LENGTH), None

    def run(self, inp):
        g = _graph(inp)
        dicing = prym.prym_dicing(g, graph.GraphInvolution(g, inp["vertex_map"], inp["edge_map"]))
        tu = unimod.is_totally_unimodular(dicing.system)
        eq = None
        if (dicing.system.dim, dicing.system.size) == (5, 10):
            eq = unimod.systems_equivalent(dicing.system, unimod.e5())
        return dicing, tu, eq

    def check(self, inp, outcome):
        dicing, tu, eq = outcome
        rows, problem = _cover_problem(inp, dicing, tu)
        if problem is None and eq is not None:
            problem = _witness_problem(rows, checks.E5_ROWS, eq)
        return problem


class SparseCover:
    """Random double covers of sparse bases, where the Vologodsky scan dominates."""

    name = "prym_census.sparse_cover"

    def generate(self, rng):
        return [sparse_cover(rng) for _ in range(STREAM_LENGTH)], None

    def run(self, inp):
        g = _graph(inp)
        dicing = prym.prym_dicing(g, graph.GraphInvolution(g, inp["vertex_map"], inp["edge_map"]))
        return dicing, unimod.is_totally_unimodular(dicing.system)

    def check(self, inp, outcome):
        dicing, tu = outcome
        return _cover_problem(inp, dicing, tu)[1]


WORKLOADS = {w.name: w for w in (DicingSweep(), RoundTrip(), E5Accept(), Reject(), K5Cover(), SparseCover())}
