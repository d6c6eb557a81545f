"""Undirected graphs on {0, ..., p-1} and distance-local vertex separation.

Graphs are immutable once constructed.  Edges are stored as sorted ``(u, v)``
pairs with ``u < v``.  The separation utilities operate on the subgraph that
keeps all ``p`` vertices but only the edges inside the radius-``gamma`` ball
around a vertex, so a separator returned for a pair certifies that every
short path between the two endpoints is cut.  Separators come from
Menger's theorem by unit-capacity vertex max-flow on one node-split network
per ball, searched once from the ball's centre at zero flow.  A pair whose
separator has k vertices costs one max flow, whose first path is read off
that search's tree, then k - 1 middle augmenting searches and one failing
search, and one reverse search from the sink; the lexicographic tie-break
then reads every minimum cut off that one residual graph (Picard &
Queyranne, 1980), with candidate searches confined to the nodes between
the source and sink sides, so the cost follows the ball's edges.  A pair
outside the ball costs no search.

Randomized generators take an explicit integer seed and use the Philox
counter-based generator, so outputs are reproducible across platforms.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .errors import GenerationFailed, InvalidParameter, check_fields, check_nonnegative_int, check_type, config_kwargs

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
        u, v = np.asarray(self.edges, dtype=np.intp).reshape(-1, 2).T
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


def _int_root(p: int, d: int) -> int:
    """floor(p ** (1 / d)) for integers p >= 1 and d >= 1, exact at any
    size: Newton's iteration in integers, from a start at or above the root,
    decreases until it stops at the root."""
    m = 1 << -(-p.bit_length() // d)
    while True:
        nxt = ((d - 1) * m + p // m ** (d - 1)) // d
        if nxt >= m:
            return m
        m = nxt


def generate_smallworld(p: int, d: int, c: float, seed: int) -> Graph:
    """Union of a d-dimensional toroidal grid on p = m**d vertices and an
    ER(p, c/p) overlay drawn with the same seed."""
    if d < 1:
        raise InvalidParameter("dimension d must be at least 1")
    # a side m >= 2 needs p >= 2**d, that is more than d bits
    m = _int_root(p, d) if p >= 2 and p.bit_length() > d else 0
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
    check_type("vertex", i, int)
    if not 0 <= i < g.p:
        raise InvalidParameter(f"vertex {i} out of range")
    check_nonnegative_int("gamma", gamma)
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


def _ball_network(g: Graph, i: int, gamma: int) -> tuple[tuple[int, ...], dict[int, int], list, list[int], dict]:
    """The radius-gamma ball around i, its vertices' local indices, its
    node-split flow network with no flow yet, as flat lists, and that
    network's breadth-first search tree from i_out.

    Local vertex a becomes nodes a_in = 2a and a_out = 2a + 1 joined by arc
    2a of capacity 1 (0 for i, the source); each edge inside the ball
    becomes two arcs u_out -> v_in of capacity larger than any flow.  Arc e
    has reverse arc e ^ 1 of residual capacity 0, ``out[x]`` lists the
    ``(arc, head)`` pairs leaving node x and ``cap`` the arcs' residual
    capacities.  BFS tree edges lie inside the ball, so the ball is exactly
    the component of i in the subgraph of its edges.  The tree maps node ->
    (arc, parent) as ``_search`` returns it; at zero flow it holds the
    first augmenting path of every sink in the ball.
    """
    inside = ball(g, i, gamma)
    index = {v: a for a, v in enumerate(inside)}
    out = [[(x, x ^ 1)] for x in range(2 * len(inside))]
    cap = [1, 0] * len(inside)
    cap[2 * index[i]] = 0
    for a, u in enumerate(inside):
        for v in g.adjacency[u]:
            if (b := index.get(v)) is not None:
                out[2 * a + 1].append((len(cap), 2 * b))
                out[2 * b].append((len(cap) + 1, 2 * a + 1))
                cap += (len(inside), 0)
    return inside, index, out, cap, _search(out, cap, 2 * index[i] + 1, 0, (), ())[0]


def _search(out: list, cap: list[int], start: int, flip: int, wall, goal) -> tuple[dict, int | None]:
    """Breadth-first search of the residual graph from start, along its arcs
    (flip=0) or against them (flip=1), never entering ``wall``.  Returns the
    search tree as node -> (arc, parent) and the first node of ``goal`` it
    meets, or None when it meets none."""
    tree = {start: None}
    queue = [start]
    for x in queue:
        for e, y in out[x]:
            if cap[e ^ flip] and y not in tree and y not in wall:
                tree[y] = (e, x)
                if y in goal:
                    return tree, y
                queue.append(y)
    return tree, None


def _push(tree: dict, cap: list[int], src: int, y: int) -> None:
    """Send one unit along the tree path from src to y."""
    while y != src:
        e, y = tree[y]
        cap[e] -= 1
        cap[e ^ 1] += 1


def _augment(out: list, cap: list[int], src: int, dst: int) -> set | None:
    """One augmenting search: breadth-first from src along residual arcs,
    in ``_search``'s order.  On meeting dst it pushes one unit along the
    path found and returns None; otherwise it returns the nodes src
    reaches."""
    tree = {src: None}
    queue = [src]
    for x in queue:
        for e, y in out[x]:
            if cap[e] and y not in tree:
                tree[y] = (e, x)
                if y == dst:
                    _push(tree, cap, src, y)
                    return None
                queue.append(y)
    return set(tree)


def _lex_min_separator(inside: tuple[int, ...], index: dict[int, int], out: list, cap: list[int], tree: dict,
                       i: int, j: int) -> tuple[int, ...]:
    """Lexicographically smallest minimum vertex separator of i and j in the
    ball network of i (see ``_ball_network``); empty when j is outside it.

    One max flow gives the cut size k.  Its first unit follows j_in's path
    in the ball's zero-flow tree: that path was fixed when the tree met
    j_in, before any arc leaving j_in was read, so it is the path a search
    from i_out would find.  Then k - 1 augmenting searches push the others
    and one more fails.  The minimum cuts are exactly the node sets that
    hold the source but not the sink and that no residual arc leaves
    (Picard & Queyranne, Math. Prog. Study 13, 1980), so all of them are
    read off this one residual graph.  ``src_side`` starts as the nodes the
    failing search reached, ``dst_side`` as those that reach the sink.
    Greedy on ascending vertex labels: v joins exactly when some minimum cut
    puts v_in on the source side and v_out on the sink side next to the
    vertices already chosen, that is when v_out is off the source side, v_in
    off the sink side, and the search from v_in, confined to the nodes
    between the two sides, meets neither v_out nor the sink side.  On
    acceptance that search joins the source side and the nodes that reach
    v_out join the sink side; no flow is re-routed.
    """
    if (b := index.get(j)) is None:
        return ()
    cap = cap.copy()
    cap[2 * b] = 0  # like the source, the sink is never cut
    src, dst = 2 * index[i] + 1, 2 * b
    _push(tree, cap, src, dst)  # j is in i's component, so the tree holds j_in
    k = 1
    while (src_side := _augment(out, cap, src, dst)) is None:
        k += 1
    chosen: list[int] = []
    dst_side = set(_search(out, cap, dst, 1, (), ())[0])
    for a, v in enumerate(inside):
        if len(chosen) == k:
            break
        v_in, v_out = 2 * a, 2 * a + 1
        if cap[v_in] or v_out in src_side or v_in in dst_side:  # a free arc is a residual path to v_out
            continue
        dst_side.add(v_out)
        grown, met = _search(out, cap, v_in, 0, src_side, dst_side)
        dst_side.discard(v_out)
        if met is None:
            chosen.append(v)
            src_side.update(grown)
            dst_side.update(_search(out, cap, v_out, 1, dst_side, ())[0])
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
    check_type("vertex", i, int)
    check_type("vertex", j, int)
    if i == j or not (0 <= i < g.p and 0 <= j < g.p):
        raise InvalidParameter(f"need distinct vertices in range, got ({i}, {j})")
    if g.has_edge(i, j):
        raise InvalidParameter(f"({i}, {j}) is an edge; separators are defined for non-adjacent pairs")
    check_nonnegative_int("gamma", gamma)
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
    check_nonnegative_int("gamma", gamma)
    separators: dict[tuple[int, int], tuple[int, ...]] = {}
    eta = 0
    for i in range(g.p):
        pending = [j for j in range(i + 1, g.p) if not g.has_edge(i, j)]
        if not pending:
            continue
        network = _ball_network(g, i, gamma)
        index = network[1]
        for j in pending:
            sep = _lex_min_separator(*network, i, j) if j in index else ()
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
        check_fields(self)
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
    def randomized(self) -> bool:
        """Whether :meth:`build` reads its seed: true for the kinds with a
        density field, false for the deterministic ones."""
        return _KINDS[self.kind][2] is not None

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
        if not self.randomized:
            g = self.build(0)
            return 2.0 * g.n_edges / g.p
        rate = self.density_param
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
