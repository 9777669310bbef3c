"""Multigraphs with oriented labeled edges, involutions, and edge cochains.

The graphs here are the dual graphs of stable curves: a vertex per
component, an edge per node, with parallel edges and loops permitted.
An involution is an order-<=2 automorphism given by a vertex permutation
and an edge permutation; each edge additionally carries a sign recording
whether the involution preserves or reverses its chosen orientation.
A cochain's half-integer coefficients are held doubled, as integers, like
every other half-integer in the package; Fractions appear only at the
edges, for input and display.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Raised for structurally invalid graphs or involutions; ``edge`` names
    the edge at fault, if any."""

    def __init__(self, message: str, edge: str | None = None):
        super().__init__(message)
        self.edge = edge


class GraphFormatError(GraphError):
    """Raised by the text-format parser; carries the offending line number."""

    def __init__(self, lineno: int | None, message: str):
        self.lineno = lineno
        prefix = f"line {lineno}: " if lineno is not None else ""
        super().__init__(prefix + message)


class MultiGraph:
    """Finite multigraph with named vertices and oriented labeled edges.

    ``edges`` is a sequence of ``(label, tail, head)`` triples.  Labels are
    unique; endpoints must be declared vertices.  The edge order given at
    construction is the fixed coordinate order for cochain vectors.
    """

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple((str(lab), str(t), str(h)) for (lab, t, h) in edges)
        if len(set(self.vertices)) != len(self.vertices):
            raise GraphError("duplicate vertex names")
        vset = set(self.vertices)
        labels = [lab for (lab, _, _) in self.edges]
        if len(set(labels)) != len(labels):
            dup = sorted({l for l in labels if labels.count(l) > 1})
            raise GraphError(f"duplicate edge labels: {', '.join(dup)}")
        for lab, t, h in self.edges:
            if t not in vset or h not in vset:
                raise GraphError(f"edge {lab} references undeclared vertex")
        self.edge_labels = tuple(labels)
        self._edge_index = {lab: i for i, lab in enumerate(labels)}

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def edge_index(self, label: str) -> int:
        try:
            return self._edge_index[label]
        except KeyError:
            raise GraphError(f"unknown edge label {label!r}") from None

    def endpoints(self, label: str) -> tuple[str, str]:
        """(tail, head) of the edge."""
        _, t, h = self.edges[self.edge_index(label)]
        return t, h

    def degree(self, vertex: str) -> int:
        d = 0
        for lab, t, h in self.edges:
            if t == vertex:
                d += 1
            if h == vertex:
                d += 1
        return d

    def is_loop(self, label: str) -> bool:
        t, h = self.endpoints(label)
        return t == h

    def __eq__(self, other):
        return (
            isinstance(other, MultiGraph)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return f"MultiGraph({self.num_vertices} vertices, {self.num_edges} edges)"


def union_find(vertices):
    """Union-find over ``vertices`` (path halving): ``find(v)`` is the root
    of v's tree, and ``merge(t, h)`` joins the trees of an edge's endpoints
    and returns False when they already agree."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def merge(t, h):
        rt, rh = find(t), find(h)
        if rt == rh:
            return False
        parent[rt] = rh
        return True

    return find, merge


def components(G: MultiGraph) -> list[frozenset]:
    """Connected components as vertex sets (edges taken undirected).

    Deterministic: components are listed by their smallest-index vertex.
    """
    find, merge = union_find(G.vertices)
    for _, t, h in G.edges:
        merge(t, h)
    # a root is first met at its component's smallest-index vertex
    groups: dict[str, list] = {}
    for v in G.vertices:
        groups.setdefault(find(v), []).append(v)
    return [frozenset(group) for group in groups.values()]


class GraphInvolution:
    """Order-<=2 automorphism of a MultiGraph.

    ``vertex_map`` and ``edge_map`` are total dicts that name nothing
    outside the graph; both must square to the identity and be
    incidence-compatible.  ``edge_action[j]`` is the pair (index of the
    image of edge j, sign of edge j): the one integer form of the action on
    edge coordinates.  The sign is +1 when the image edge carries (tail,
    head) to (tail, head) and -1 when the orientation is reversed (+1 on a
    loop, where both readings agree); both edges of an orbit carry the
    same sign.  ``vertex_orbits`` and ``edge_orbits`` are the orbits in the
    same integer form: tuples of indices, each led by its least index and
    listed in leader order.
    """

    def __init__(self, graph: MultiGraph, vertex_map: dict, edge_map: dict):
        self.graph = graph
        self.vertex_map = dict(vertex_map)
        self.edge_map = dict(edge_map)
        for v in graph.vertices:
            if v not in self.vertex_map:
                raise GraphError(f"vertex map does not cover {v!r}")
        for lab in graph.edge_labels:
            if lab not in self.edge_map:
                raise GraphError(f"edge map does not cover {lab!r}")
        vertex_index = {v: i for i, v in enumerate(graph.vertices)}
        for v in self.vertex_map:
            if v not in vertex_index:
                raise GraphError(f"unknown vertex {v!r} in vertex map")
        edge_index = graph._edge_index
        for lab in self.edge_map:
            if lab not in edge_index:
                raise GraphError(f"unknown edge {lab!r} in edge map")
        for v in graph.vertices:
            w = self.vertex_map[v]
            if w not in vertex_index:
                raise GraphError(f"vertex map sends {v!r} outside the graph")
            if self.vertex_map[w] != v:
                raise GraphError(f"vertex map is not an involution at {v!r}")
        action = []
        for lab, t, h in graph.edges:
            img = self.edge_map[lab]
            k = edge_index.get(img)
            if k is None:
                raise GraphError(f"edge map sends {lab!r} to unknown edge {img!r}")
            if self.edge_map[img] != lab:
                raise GraphError(f"edge map is not an involution at {lab!r}")
            it, ih = self.vertex_map[t], self.vertex_map[h]
            _, jt, jh = graph.edges[k]
            if (jt, jh) == (it, ih):
                sign = 1
            elif (jt, jh) == (ih, it):
                sign = -1
            else:
                raise GraphError(
                    f"edge map incidence mismatch: {lab!r} has image endpoints "
                    f"({it},{ih}) but {img!r} is ({jt},{jh})", edge=lab
                )
            action.append((k, sign))
        self.edge_action = tuple(action)
        self.vertex_orbits = _orbits(vertex_index[self.vertex_map[v]] for v in graph.vertices)
        self.edge_orbits = _orbits(k for k, _ in action)

    @classmethod
    def identity(cls, graph: MultiGraph) -> "GraphInvolution":
        return cls(
            graph,
            {v: v for v in graph.vertices},
            {lab: lab for lab in graph.edge_labels},
        )

    def is_fixed_point_free(self) -> bool:
        return all(len(orbit) == 2 for orbit in self.vertex_orbits + self.edge_orbits)

    def __repr__(self):
        swaps = sum(len(orbit) == 2 for orbit in self.vertex_orbits)
        return f"GraphInvolution({swaps} vertex swaps on {self.graph!r})"


def _orbits(images) -> tuple:
    """The orbits of the index involution i -> ``images[i]``, each led by its
    least index and listed in leader order."""
    return tuple((i,) if i == k else (i, k) for i, k in enumerate(images) if i <= k)


def _doubled(c) -> int:
    """Twice the half-integer ``c``, given as an int or anything Fraction reads."""
    if type(c) is int:
        return 2 * c
    from fractions import Fraction

    c = Fraction(c)
    if c.denominator not in (1, 2):
        raise GraphError(f"coefficient {c} is not a half-integer")
    return c.numerator * (2 // c.denominator)


def _edge_row(graph: MultiGraph, values) -> tuple:
    """``values`` as a tuple, which must hold one entry per edge of ``graph``."""
    row = tuple(values)
    if len(row) != graph.num_edges:
        raise GraphError(f"expected {graph.num_edges} coefficients, got {len(row)}")
    return row


class CochainVector:
    """One half-integer coefficient per edge, in the graph's edge order.

    ``doubled`` holds twice the coefficients as integers; all arithmetic
    runs on it.  ``coefficients`` and ``v[label]`` are Fraction views.
    """

    def __init__(self, graph: MultiGraph, coefficients):
        self.graph = graph
        self.doubled = _edge_row(graph, (_doubled(c) for c in coefficients))

    @classmethod
    def from_doubled(cls, graph: MultiGraph, doubled) -> "CochainVector":
        """The cochain whose coefficients are half the integers ``doubled``."""
        v = cls.__new__(cls)
        v.graph, v.doubled = graph, _edge_row(graph, doubled)
        return v

    @classmethod
    def zero(cls, graph: MultiGraph) -> "CochainVector":
        return cls.from_doubled(graph, (0,) * graph.num_edges)

    @classmethod
    def from_edge_dict(cls, graph: MultiGraph, values: dict) -> "CochainVector":
        doubled = [0] * graph.num_edges
        for lab, c in values.items():
            doubled[graph.edge_index(lab)] = _doubled(c)
        return cls.from_doubled(graph, doubled)

    @property
    def coefficients(self) -> tuple:
        from fractions import Fraction

        return tuple(Fraction(x, 2) for x in self.doubled)

    def __getitem__(self, label: str) -> Fraction:
        from fractions import Fraction

        return Fraction(self.doubled[self.graph.edge_index(label)], 2)

    def doubled_on(self, graph: MultiGraph) -> tuple:
        """``doubled``, after checking that the vector lives on ``graph``."""
        if self.graph is not graph and self.graph != graph:
            raise GraphError("cochain vector lives on a different graph")
        return self.doubled

    def __add__(self, other: "CochainVector") -> "CochainVector":
        pairs = zip(self.doubled, other.doubled_on(self.graph))
        return CochainVector.from_doubled(self.graph, (a + b for a, b in pairs))

    def __sub__(self, other: "CochainVector") -> "CochainVector":
        pairs = zip(self.doubled, other.doubled_on(self.graph))
        return CochainVector.from_doubled(self.graph, (a - b for a, b in pairs))

    def __neg__(self) -> "CochainVector":
        return CochainVector.from_doubled(self.graph, (-a for a in self.doubled))

    def scaled(self, factor: int) -> "CochainVector":
        """The vector times an integer, which keeps it half-integral."""
        if type(factor) is not int:
            raise GraphError(f"scale factor {factor!r} is not an integer")
        return CochainVector.from_doubled(self.graph, (factor * a for a in self.doubled))

    def is_integral(self) -> bool:
        return all(x % 2 == 0 for x in self.doubled)

    def support(self) -> frozenset:
        return frozenset(lab for lab, x in zip(self.graph.edge_labels, self.doubled) if x)

    def __eq__(self, other):
        return (
            isinstance(other, CochainVector)
            and self.graph == other.graph
            and self.doubled == other.doubled
        )

    def __hash__(self):
        return hash(self.doubled)

    def __repr__(self):
        terms = []
        for lab, c in zip(self.graph.edge_labels, self.coefficients):
            if c != 0:
                terms.append(f"{'+' if c > 0 else '-'}{abs(c)}*{lab}")
        return "CochainVector(" + (" ".join(terms) if terms else "0") + ")"


def apply_involution(iota: GraphInvolution, v: CochainVector) -> CochainVector:
    """Push a cochain forward: coefficient of iota(e) = sign(e) * coefficient of e."""
    out = [0] * iota.graph.num_edges
    for x, (k, s) in zip(v.doubled_on(iota.graph), iota.edge_action):
        out[k] = s * x
    return CochainVector.from_doubled(iota.graph, out)


def involution_quotient(G: MultiGraph, iota: GraphInvolution) -> MultiGraph:
    """Quotient by the involution: vertex orbits, one edge per edge orbit.

    An orbit is named by its least vertex name and listed where its first
    vertex stands in ``G.vertices``; an edge orbit keeps its first edge,
    labelled ``"<tail orbit>|<edge label>"``.
    """
    name = {v: min(v, iota.vertex_map[v]) for v in G.vertices}
    kept = (G.edges[orbit[0]] for orbit in iota.edge_orbits)
    edges = [(name[t] + "|" + lab, name[t], name[h]) for lab, t, h in kept]
    return MultiGraph(dict.fromkeys(name.values()), edges)


# ---------------------------------------------------------------------------
# Text format (line oriented):
#   vertex <name>
#   edge <label> <tail> <head>
#   iota_v <a> <b>          (vertex swap; fixed vertices may be omitted)
#   iota_e <e> <f>          (edge swap; fixed edges written "iota_e e e")
# '#' starts a comment.  If any iota_* line is present, an involution is
# built with unlisted vertices/edges fixed.
# ---------------------------------------------------------------------------


def parse_graph_text(text: str) -> tuple[MultiGraph, GraphInvolution | None]:
    vertices: list[str] = []
    edges: list[tuple[str, str, str]] = []
    vlines: dict[str, int] = {}
    elines: dict[str, int] = {}
    iota_v: list[tuple[int, str, str]] = []
    iota_e: list[tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "vertex":
            if len(parts) != 2:
                raise GraphFormatError(lineno, "vertex line needs exactly one name")
            if parts[1] in vlines:
                raise GraphFormatError(lineno, f"duplicate vertex {parts[1]!r}")
            vlines[parts[1]] = lineno
            vertices.append(parts[1])
        elif kind == "edge":
            if len(parts) != 4:
                raise GraphFormatError(lineno, "edge line needs label, tail, head")
            lab, t, h = parts[1], parts[2], parts[3]
            if lab in elines:
                raise GraphFormatError(lineno, f"duplicate edge label {lab!r}")
            elines[lab] = lineno
            edges.append((lab, t, h))
        elif kind == "iota_v":
            if len(parts) != 3:
                raise GraphFormatError(lineno, "iota_v line needs two vertex names")
            iota_v.append((lineno, parts[1], parts[2]))
        elif kind == "iota_e":
            if len(parts) != 3:
                raise GraphFormatError(lineno, "iota_e line needs two edge labels")
            iota_e.append((lineno, parts[1], parts[2]))
        else:
            raise GraphFormatError(lineno, f"unknown directive {kind!r}")
    for lab, t, h in edges:
        for v in (t, h):
            if v not in vlines:
                raise GraphFormatError(elines[lab], f"edge {lab!r} references undeclared vertex {v!r}")
    graph = MultiGraph(vertices, edges)
    if not iota_v and not iota_e:
        return graph, None
    vmap = {v: v for v in vertices}
    for lineno, a, b in iota_v:
        for x in (a, b):
            if x not in vlines:
                raise GraphFormatError(lineno, f"unknown vertex {x!r} in iota_v")
        if (vmap[a] != a and vmap[a] != b) or (vmap[b] != b and vmap[b] != a):
            raise GraphFormatError(lineno, f"conflicting iota_v entries for {a!r}/{b!r}")
        vmap[a], vmap[b] = b, a
    emap = {lab: lab for lab, _, _ in edges}
    for lineno, a, b in iota_e:
        for x in (a, b):
            if x not in elines:
                raise GraphFormatError(lineno, f"unknown edge {x!r} in iota_e")
        if (emap[a] != a and emap[a] != b) or (emap[b] != b and emap[b] != a):
            raise GraphFormatError(lineno, f"conflicting iota_e entries for {a!r}/{b!r}")
        emap[a], emap[b] = b, a
    try:
        involution = GraphInvolution(graph, vmap, emap)
    except GraphError as exc:
        # every error the checks above leave names an edge: cite the first
        # iota_e line naming it, else its edge line
        cited = {x: lineno for lineno, a, b in reversed(iota_e) for x in (a, b)}
        raise GraphFormatError(cited.get(exc.edge, elines.get(exc.edge)), str(exc)) from exc
    return graph, involution


def format_graph_text(G: MultiGraph, iota: GraphInvolution | None = None) -> str:
    lines = [f"vertex {v}" for v in G.vertices]
    lines += [f"edge {lab} {t} {h}" for (lab, t, h) in G.edges]
    if iota is not None:
        names, labels = G.vertices, G.edge_labels
        lines += [f"iota_v {names[o[0]]} {names[o[1]]}" for o in iota.vertex_orbits if len(o) == 2]
        lines += [f"iota_e {labels[o[0]]} {labels[o[-1]]}" for o in iota.edge_orbits]
    return "\n".join(lines) + "\n"
