"""Undirected graphs on {0, ..., p-1} and distance-local vertex separation.

Graphs are immutable once constructed.  Edges are stored as sorted ``(u, v)``
pairs with ``u < v``.  The separation utilities operate on the subgraph that
keeps all ``p`` vertices but only the edges inside the radius-``gamma`` ball
around a vertex, so a separator returned for a pair certifies that every
short path between the two endpoints is cut.  Separators come from
Menger's theorem by unit-capacity vertex max-flow on one node-split network
per ball: a pair costs one max flow, then one residual-graph search per
candidate vertex that carries flow, so the cost follows the ball's edges.

Randomized generators take an explicit integer seed and use the Philox
counter-based generator, so outputs are reproducible across platforms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import GenerationFailed, InvalidParameter, config_kwargs

REGULAR_RETRY_BUDGET = 1000


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


class Graph:
    """Immutable simple undirected graph on vertices 0..p-1.

    :param p: number of vertices, at least 1.
    :param edges: iterable of (u, v) pairs; order within a pair is ignored.
        Self loops and duplicate edges are rejected.
    """

    __slots__ = ("p", "edges", "adjacency", "_edge_set")

    def __init__(self, p: int, edges=()):
        if not isinstance(p, (int, np.integer)) or p < 1:
            raise InvalidParameter(f"p must be a positive integer, got {p!r}")
        normalized = []
        for u, v in edges:
            u, v = int(u), int(v)
            if u == v:
                raise InvalidParameter(f"self loop at vertex {u}")
            if not (0 <= u < p and 0 <= v < p):
                raise InvalidParameter(f"edge ({u}, {v}) outside vertex range 0..{p - 1}")
            normalized.append((u, v) if u < v else (v, u))
        edge_set = set(normalized)
        if len(edge_set) != len(normalized):
            raise InvalidParameter("duplicate edges")
        self.p = int(p)
        self.edges = tuple(sorted(edge_set))
        self._edge_set = frozenset(edge_set)
        adj = [[] for _ in range(self.p)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        self.adjacency = tuple(tuple(sorted(a)) for a in adj)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u > v:
            u, v = v, u
        return (u, v) in self._edge_set

    def degree(self, i: int) -> int:
        return len(self.adjacency[i])

    def max_degree(self) -> int:
        return max((len(a) for a in self.adjacency), default=0)

    def neighbors(self, i: int) -> tuple[int, ...]:
        return self.adjacency[i]

    def adjacency_matrix(self) -> np.ndarray:
        a = np.zeros((self.p, self.p), dtype=float)
        for u, v in self.edges:
            a[u, v] = a[v, u] = 1.0
        return a

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.p == other.p and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.p, self.edges))

    def __repr__(self) -> str:
        return f"Graph(p={self.p}, n_edges={self.n_edges})"


def chain_graph(p: int) -> Graph:
    """Path 0-1-...-(p-1)."""
    return Graph(p, [(i, i + 1) for i in range(p - 1)])


def cycle_graph(p: int) -> Graph:
    if p < 3:
        raise InvalidParameter("a cycle needs at least 3 vertices")
    return Graph(p, [(i, (i + 1) % p) for i in range(p)])


def torus_grid(m: int, d: int) -> Graph:
    """d-dimensional toroidal grid with side m; p = m**d vertices.

    Vertex labels are mixed-radix: coordinate k contributes digit
    ``(label // m**k) % m``.  Each vertex connects to its +1 neighbor
    (mod m) along every dimension; for m = 2 the wrap duplicates collapse.
    """
    if m < 2 or d < 1:
        raise InvalidParameter("torus needs side m >= 2 and dimension d >= 1")
    p = m**d
    edges = set()
    for v in range(p):
        for k in range(d):
            digit = (v // m**k) % m
            w = v + ((digit + 1) % m - digit) * m**k
            if v != w:
                edges.add((v, w) if v < w else (w, v))
    return Graph(p, edges)


def generate_er(p: int, c: float, seed: int) -> Graph:
    """Erdos-Renyi graph where each pair is an edge with probability c/p."""
    if p < 1:
        raise InvalidParameter("p must be positive")
    if not 0 <= c <= p:
        raise InvalidParameter(f"need 0 <= c <= p so that c/p is a probability, got c={c}")
    rng = _rng(seed)
    prob = c / p
    edges = []
    for u in range(p - 1):
        hits = np.nonzero(rng.random(p - 1 - u) < prob)[0]
        edges.extend((u, u + 1 + int(off)) for off in hits)
    return Graph(p, edges)


def generate_regular(p: int, delta: int, seed: int) -> Graph:
    """Random delta-regular graph via the pairing (configuration) model.

    Stubs are shuffled and paired; an attempt producing a self loop or a
    duplicate edge is discarded and redrawn.  Gives up after
    ``REGULAR_RETRY_BUDGET`` attempts.
    """
    if not 0 <= delta < p:
        raise InvalidParameter(f"need 0 <= delta < p, got delta={delta}, p={p}")
    if (p * delta) % 2 != 0:
        raise InvalidParameter(f"p * delta must be even, got p={p}, delta={delta}")
    if delta == 0:
        return Graph(p, [])
    rng = _rng(seed)
    stubs = np.repeat(np.arange(p), delta)
    for _ in range(REGULAR_RETRY_BUDGET):
        perm = rng.permutation(stubs)
        pairs = perm.reshape(-1, 2)
        us = np.minimum(pairs[:, 0], pairs[:, 1])
        vs = np.maximum(pairs[:, 0], pairs[:, 1])
        if np.any(us == vs):
            continue
        keys = us.astype(np.int64) * p + vs.astype(np.int64)
        if len(np.unique(keys)) != len(keys):
            continue
        return Graph(p, zip(us.tolist(), vs.tolist()))
    raise GenerationFailed(
        f"no simple {delta}-regular graph on {p} vertices after {REGULAR_RETRY_BUDGET} attempts"
    )


def generate_smallworld(p: int, d: int, c: float, seed: int) -> Graph:
    """Union of a d-dimensional toroidal grid on p = m**d vertices and an
    ER(p, c/p) overlay drawn with the same seed."""
    if d < 1:
        raise InvalidParameter("dimension d must be at least 1")
    m = round(p ** (1.0 / d))
    if m < 2 or m**d != p:
        raise InvalidParameter(f"p={p} is not a perfect d-th power with side >= 2 for d={d}")
    grid = torus_grid(m, d)
    overlay = generate_er(p, c, seed)
    return Graph(p, set(grid.edges) | set(overlay.edges))


def girth(g: Graph) -> float:
    """Length of a shortest cycle, or math.inf for a forest.

    BFS from every vertex; a non-tree edge (u, v) seen at depths
    dist[u], dist[v] witnesses a closed walk of length dist[u]+dist[v]+1
    through the root, which is never shorter than the girth, and BFS from a
    vertex on a shortest cycle attains it.
    """
    best = math.inf
    adj = g.adjacency
    for s in range(g.p):
        dist = [-1] * g.p
        parent = [-1] * g.p
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            if 2 * dist[u] >= best - 1:
                break
            for v in adj[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    queue.append(v)
                elif parent[u] != v and parent[v] != u:
                    cand = dist[u] + dist[v] + 1
                    if cand < best:
                        best = cand
    return best


def ball(g: Graph, i: int, gamma: int) -> tuple[int, ...]:
    """Sorted vertices within BFS distance gamma of i (including i)."""
    if not 0 <= i < g.p:
        raise InvalidParameter(f"vertex {i} out of range")
    if gamma < 0:
        raise InvalidParameter("gamma must be nonnegative")
    dist = {i: 0}
    queue = deque([i])
    while queue:
        u = queue.popleft()
        if dist[u] == gamma:
            continue
        for v in g.adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return tuple(sorted(dist))


def gamma_subgraph(g: Graph, i: int, gamma: int) -> Graph:
    """Subgraph keeping all p vertices but only edges inside the
    radius-gamma ball around i."""
    inside = set(ball(g, i, gamma))
    return Graph(g.p, [e for e in g.edges if e[0] in inside and e[1] in inside])


def is_locally_treelike(g: Graph, i: int, gamma: int) -> bool:
    """True when the radius-gamma ball around i induces no cycle."""
    return girth(gamma_subgraph(g, i, gamma)) == math.inf


def _ball_network(g: Graph, i: int, gamma: int) -> tuple[tuple[int, ...], dict[int, dict[int, int]]]:
    """The radius-gamma ball around i and the residual capacities of its
    node-split flow network, with no flow yet.

    Vertex v becomes arc v_in = 2v -> v_out = 2v + 1 of capacity 1 (0 for
    i, the source), each edge inside the ball becomes two arcs u_out -> v_in
    of capacity larger than any flow, and every arc has a reverse entry of
    residual capacity 0.  BFS tree edges lie inside the ball, so the ball
    is exactly the component of i in the subgraph of its edges.
    """
    inside = ball(g, i, gamma)
    members = set(inside)
    cap: dict[int, dict[int, int]] = {}
    for v in inside:
        cap[2 * v] = {2 * v + 1: int(v != i)}
        cap[2 * v + 1] = {2 * v: 0}
    for u in inside:
        for v in g.adjacency[u]:
            if v in members:
                cap[2 * u + 1][2 * v] = len(inside)
                cap[2 * v][2 * u + 1] = 0
    return inside, cap


def _residual_path(cap: dict[int, dict[int, int]], src: int, dst: int) -> list[tuple[int, int]] | None:
    """Arcs of a shortest path from src to dst in the residual graph, or None."""
    parent = {src: src}
    queue = deque([src])
    while queue:
        x = queue.popleft()
        for y, c in cap[x].items():
            if c > 0 and y not in parent:
                parent[y] = x
                if y == dst:
                    path = []
                    while y != src:
                        path.append((parent[y], y))
                        y = parent[y]
                    return path
                queue.append(y)
    return None


def _push(cap: dict[int, dict[int, int]], path: list[tuple[int, int]]) -> None:
    for x, y in path:
        cap[x][y] -= 1
        cap[y][x] += 1


def _lex_min_separator(inside: tuple[int, ...], network: dict[int, dict[int, int]], i: int, j: int) -> tuple[int, ...]:
    """Lexicographically smallest minimum vertex separator of i and j in the
    ball network of i (see ``_ball_network``); empty when j is outside it.

    One max flow gives the cut size k.  Greedy on ascending vertex labels:
    v joins the prefix exactly when some minimum separator of the graph with
    the prefix deleted contains v, that is when its arc is saturated and
    v_out is unreachable from v_in in the residual graph (every minimum cut
    is saturated by every maximum flow, and a saturated arc lies in some
    minimum cut exactly when no residual path joins its ends).  On
    acceptance the unit of flow through v is cancelled and v deleted, which
    leaves a maximum flow of the smaller graph.
    """
    if 2 * j not in network:
        return ()
    cap = {x: dict(arcs) for x, arcs in network.items()}
    cap[2 * j][2 * j + 1] = 0  # like the source, the sink is never cut
    src, dst = 2 * i + 1, 2 * j
    k = 0
    while (path := _residual_path(cap, src, dst)) is not None:
        _push(cap, path)
        k += 1
    chosen: list[int] = []
    for v in inside:
        if len(chosen) == k:
            break
        v_in, v_out = 2 * v, 2 * v + 1
        if v == i or v == j or cap[v_in][v_out] or _residual_path(cap, v_in, v_out) is not None:
            continue
        chosen.append(v)
        # the reverse of v's flow path gives residual paths from the sink
        # back to v_out and from v_in back to the source
        _push(cap, _residual_path(cap, dst, v_out))
        cap[v_in][v_out] = cap[v_out][v_in] = 0
        _push(cap, _residual_path(cap, v_in, src))
    if len(chosen) != k:
        raise AssertionError("greedy separator construction failed to reach the cut size")
    return tuple(chosen)


def local_separator(g: Graph, i: int, j: int, gamma: int) -> tuple[int, ...]:
    """Minimum vertex separator of the non-adjacent pair (i, j) with respect
    to the subgraph of edges inside the radius-gamma ball around i.

    Returns a sorted tuple of vertices.  If j is unreachable from i in that
    subgraph (including the whole gamma = 0 case) the separator is empty.
    Ties between minimum separators go to the lexicographically smallest
    vertex set.
    """
    if i == j or not (0 <= i < g.p and 0 <= j < g.p):
        raise InvalidParameter(f"need distinct vertices in range, got ({i}, {j})")
    if g.has_edge(i, j):
        raise InvalidParameter(f"({i}, {j}) is an edge; separators are defined for non-adjacent pairs")
    if gamma < 0:
        raise InvalidParameter("gamma must be nonnegative")
    return _lex_min_separator(*_ball_network(g, i, gamma), i, j)


@dataclass(frozen=True)
class SeparationProfile:
    """Separators for every non-adjacent pair at a fixed locality radius.

    ``eta`` is the largest separator size over all pairs; ``separators``
    maps each non-adjacent pair (i, j) with i < j to its separator computed
    in the ball around i.
    """

    gamma: int
    eta: int
    separators: dict[tuple[int, int], tuple[int, ...]] = field(default_factory=dict)


def separation_profile(g: Graph, gamma: int) -> SeparationProfile:
    """Compute local separators for all non-adjacent pairs; eta is the max size."""
    if gamma < 0:
        raise InvalidParameter("gamma must be nonnegative")
    separators: dict[tuple[int, int], tuple[int, ...]] = {}
    eta = 0
    for i in range(g.p):
        pending = [j for j in range(i + 1, g.p) if not g.has_edge(i, j)]
        if not pending:
            continue
        inside, network = _ball_network(g, i, gamma)
        for j in pending:
            sep = _lex_min_separator(inside, network, i, j)
            separators[(i, j)] = sep
            if len(sep) > eta:
                eta = len(sep)
    return SeparationProfile(gamma=gamma, eta=eta, separators=separators)


def edit_distance(g: Graph, h: Graph) -> int:
    """Number of edges in the symmetric difference of the two edge sets."""
    if g.p != h.p:
        raise InvalidParameter(f"graphs have different orders: {g.p} vs {h.p}")
    return len(set(g.edges) ^ set(h.edges))


# One row per ensemble kind: its builder, the config fields the builder
# takes in order, and the density field that sweeps report.  A kind with a
# density field is randomized, and its builder takes the seed last.
_KINDS: dict[str, tuple[Callable[..., Graph], tuple[str, ...], str | None]] = {
    "er": (generate_er, ("p", "c"), "c"),
    "regular": (generate_regular, ("p", "delta"), "delta"),
    "smallworld": (generate_smallworld, ("p", "d", "c"), "c"),
    "chain": (chain_graph, ("p",), None),
    "cycle": (cycle_graph, ("p",), None),
    "torus": (torus_grid, ("m", "d"), None),
    "explicit": (Graph, ("p", "edges"), None),
}


@dataclass(frozen=True)
class EnsembleConfig:
    """Declarative description of a graph source for experiment configs.

    Kinds: ``er`` (p, c), ``regular`` (p, delta), ``smallworld`` (p, d, c),
    ``chain`` (p), ``cycle`` (p), ``torus`` (m, d), ``explicit`` (p, edges).
    A kind takes exactly its fields: a missing one or one it does not read
    raises InvalidParameter.  Randomized kinds (those with a density, c or
    delta) consume the seed passed to :meth:`build`; deterministic kinds
    ignore it.
    """

    kind: str
    p: int | None = None
    c: float | None = None
    delta: int | None = None
    d: int | None = None
    m: int | None = None
    edges: tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidParameter(f"unknown ensemble kind {self.kind!r}")
        _, taken, _ = _KINDS[self.kind]
        for name in taken:
            if getattr(self, name) is None:
                raise InvalidParameter(f"ensemble kind {self.kind!r} requires field {name!r}")
        for f in fields(self)[1:]:
            if f.name not in taken and getattr(self, f.name) is not None:
                raise InvalidParameter(f"ensemble kind {self.kind!r} does not take field {f.name!r}")

    @property
    def order(self) -> int:
        return self.m**self.d if self.kind == "torus" else self.p

    @property
    def density_param(self) -> float:
        """The c-or-delta column reported by sweeps; 0 for fixed graphs."""
        *_, density = _KINDS[self.kind]
        return 0.0 if density is None else float(getattr(self, density))

    @property
    def nominal_degree(self) -> float:
        """Mean degree used when translating this ensemble into a sample
        complexity bound: the density (c plus the grid's 2d for a small
        world, or delta) of a randomized kind, otherwise the exact mean
        degree 2|E|/p of the deterministic graph."""
        *_, density = _KINDS[self.kind]
        if density is None:
            g = self.build(0)
            return 2.0 * g.n_edges / g.p
        rate = float(getattr(self, density))
        return rate if self.d is None else rate + 2.0 * self.d

    def build(self, seed: int) -> Graph:
        builder, taken, density = _KINDS[self.kind]
        args = [getattr(self, name) for name in taken]
        return builder(*args) if density is None else builder(*args, seed)

    def to_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self) if getattr(self, f.name) is not None}
        if self.edges is not None:
            out["edges"] = [list(e) for e in self.edges]
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "EnsembleConfig":
        kwargs = config_kwargs(cls, data)
        if kwargs.get("edges") is not None:
            kwargs["edges"] = tuple(tuple(e) for e in kwargs["edges"])
        return cls(**kwargs)
