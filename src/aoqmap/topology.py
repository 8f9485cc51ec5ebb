"""Device coupling graphs, subtopology templates, and layout enumeration."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected device connectivity; edges stored as sorted pairs."""

    num_qubits: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        norm = set()
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop {u}")
            if not (0 <= u < self.num_qubits and 0 <= v < self.num_qubits):
                raise ValueError(f"edge ({u},{v}) out of range")
            norm.add((min(u, v), max(u, v)))
        object.__setattr__(self, "edges", frozenset(norm))

    def neighbors(self, q: int) -> tuple[int, ...]:
        out = [v for u, v in self.edges if u == q] + [u for u, v in self.edges if v == q]
        return tuple(sorted(out))

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges


@dataclass(frozen=True)
class SubtopologyTemplate:
    """Connectivity pattern the routed circuit must respect."""

    kind: str
    n: int
    edges: tuple[tuple[int, int], ...]

    def edge_set(self) -> frozenset:
        return frozenset(self.edges)

    def check_gates(self, gates) -> None:
        """Raise ValueError naming the first two-qubit gate whose positions
        are not a template edge."""
        edges = self.edge_set()
        for g in gates:
            if g.is_two_qubit:
                pair = (min(g.qubits), max(g.qubits))
                if pair not in edges:
                    raise ValueError(f"{g.kind} on {pair} is not an edge of the "
                                     f"{self.kind}-{self.n} template")


_TEMPLATE_MINIMUMS = {"linear": 2, "t": 4, "h": 6}


def template(kind: str, n: int) -> SubtopologyTemplate:
    """Build the linear / T / H template edge set on n positions."""
    if kind not in _TEMPLATE_MINIMUMS:
        raise ValueError(f"unknown template kind {kind!r}")
    if n < _TEMPLATE_MINIMUMS[kind]:
        raise ValueError(f"{kind} template needs at least {_TEMPLATE_MINIMUMS[kind]} qubits, got {n}")
    if kind == "linear":
        edges = tuple((k, k + 1) for k in range(n - 1))
    elif kind == "t":
        edges = ((0, 2), (1, 2)) + tuple((k, k + 1) for k in range(2, n - 1))
    else:
        edges = ((0, 2), (1, 2)) + tuple((k, k + 1) for k in range(2, n - 3)) \
            + ((n - 3, n - 2), (n - 3, n - 1))
    return SubtopologyTemplate(kind, n, edges)


def enumerate_layouts(tmpl: SubtopologyTemplate, graph: CouplingGraph) -> list[tuple[int, ...]]:
    """All injective position->physical maps preserving template edges.

    Ordered monomorphisms: distinct orderings and reflections count
    separately. Output is lexicographically sorted and deterministic.
    """
    if tmpl.n > graph.num_qubits:
        return []
    adj = {q: set(graph.neighbors(q)) for q in range(graph.num_qubits)}
    back_edges: list[list[int]] = [[] for _ in range(tmpl.n)]
    for a, b in tmpl.edges:
        lo, hi = (a, b) if a < b else (b, a)
        back_edges[hi].append(lo)

    out: list[tuple[int, ...]] = []
    assign = [-1] * tmpl.n
    used = [False] * graph.num_qubits

    def extend(pos: int):
        if pos == tmpl.n:
            out.append(tuple(assign))
            return
        anchors = back_edges[pos]
        if anchors:
            cands = adj[assign[anchors[0]]]
            for a in anchors[1:]:
                cands = cands & adj[assign[a]]
            cands = sorted(v for v in cands if not used[v])
        else:
            cands = [v for v in range(graph.num_qubits) if not used[v]]
        for v in cands:
            assign[pos] = v
            used[v] = True
            extend(pos + 1)
            used[v] = False
        assign[pos] = -1

    extend(0)
    out.sort()
    return out


def layout_respects(tmpl: SubtopologyTemplate, graph: CouplingGraph, layout) -> bool:
    if len(set(layout)) != tmpl.n:
        return False
    return all(graph.has_edge(layout[a], layout[b]) for a, b in tmpl.edges)


_DEVICE_7Q_EDGES = ((0, 1), (1, 2), (1, 3), (3, 5), (4, 5), (5, 6))

# 27-qubit heavy-hex lattice (Falcon family); 28 edges, eight degree-3 sites.
_DEVICE_27Q_EDGES = (
    (0, 1), (1, 2), (2, 3), (3, 5), (1, 4), (4, 7), (5, 8), (6, 7), (7, 10),
    (8, 9), (8, 11), (10, 12), (11, 14), (12, 13), (12, 15), (13, 14), (14, 16),
    (15, 18), (16, 19), (17, 18), (18, 21), (19, 20), (19, 22), (21, 23),
    (22, 25), (23, 24), (24, 25), (25, 26),
)

_BUILTIN_DEVICES = {
    "7q-h": (7, _DEVICE_7Q_EDGES),
    "27q-heavy-hex": (27, _DEVICE_27Q_EDGES),
}


def builtin_device(name: str) -> CouplingGraph:
    try:
        num, edges = _BUILTIN_DEVICES[name]
    except KeyError:
        raise ValueError(f"unknown builtin device {name!r}; choose from {sorted(_BUILTIN_DEVICES)}") from None
    return CouplingGraph(num, frozenset(edges))


def graph_to_dict(graph: CouplingGraph) -> dict:
    return {"num_qubits": graph.num_qubits, "edges": sorted([list(e) for e in graph.edges])}


def graph_from_dict(data: dict) -> CouplingGraph:
    return CouplingGraph(int(data["num_qubits"]), frozenset(tuple(e) for e in data["edges"]))
