"""Undirected graphs on {0, ..., p-1} and distance-local vertex separation.

Graphs are immutable once constructed.  Edges are stored as sorted ``(u, v)``
pairs with ``u < v``.  The separation utilities operate on the subgraph that
keeps all ``p`` vertices but only the edges inside the radius-``gamma`` ball
around a vertex, so a separator returned for a pair certifies that every
short path between the two endpoints is cut.  Separators come from
Menger's theorem by unit-capacity vertex max-flow: each ball vertex has an
in state and an out state.  One breadth-first search from the centre finds
the ball, and its tree is the states' search tree at zero flow.  A pair's
flow is one list naming, for each vertex that carries a unit, the out state
the unit comes from and the in state it goes to, so an in state takes one
residual step at most.  A pair whose separator has k vertices costs one
max flow and one reverse search from the sink.  The flow starts with one
unit per child of i whose subtree in the search tree holds a neighbour w of
j other than j's own children, along the tree path to w and the edge w-j;
augmenting searches add the rest of the k units, and one more search
fails.  The lexicographic tie-break then reads every minimum cut off that
one residual graph, with candidate searches confined to the states between
the source and sink sides, so the cost follows the ball's edges.  Every
maximum flow leaves the same minimum cuts in its residual graph (Picard &
Queyranne, 1980), so the separator does not depend on which paths the flow
starts with.  A pair outside the ball costs no search.

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


def _ball_parents(g: Graph, i: int, gamma: int) -> dict[int, int]:
    """The breadth-first parent of every vertex within distance gamma of i,
    i its own, in the order the search from i meets them."""
    parent, depth = {i: i}, {i: 0}
    queue = [i]
    for u in queue:
        for v in g.adjacency[u] if depth[u] < gamma else ():
            if v not in parent:
                parent[v], depth[v] = u, depth[u] + 1
                queue.append(v)
    return parent


def ball(g: Graph, i: int, gamma: int) -> tuple[int, ...]:
    """Sorted vertices within BFS distance gamma of i (including i)."""
    check_type("vertex", i, int)
    if not 0 <= i < g.p:
        raise InvalidParameter(f"vertex {i} out of range")
    check_nonnegative_int("gamma", gamma)
    return tuple(sorted(_ball_parents(g, i, gamma)))


def gamma_subgraph(g: Graph, i: int, gamma: int) -> Graph:
    """Subgraph keeping all p vertices but only edges inside the
    radius-gamma ball around i."""
    inside = set(ball(g, i, gamma))
    return Graph(g.p, [e for e in g.edges if e[0] in inside and e[1] in inside])


def is_locally_treelike(g: Graph, i: int, gamma: int) -> bool:
    """True when the radius-gamma ball around i induces no cycle."""
    return girth(gamma_subgraph(g, i, gamma)) == math.inf


def _ball_states(g: Graph, i: int, gamma: int) -> tuple[tuple[int, ...], dict[int, int], list, list[int],
                                                          list[int]]:
    """The radius-gamma ball around i, its vertices' local indices, its
    flow network's edge arcs, their breadth-first search tree from i_out,
    and each ball vertex's first hop.

    Local vertex a has states a_in = 2a and a_out = 2a + 1, joined by a split
    arc of capacity 1.  ``outs[2a + 1]`` lists the in states of a's ball
    neighbours, heads of edge arcs of capacity above any flow, and
    ``outs[2a]`` their out states (the same arcs backwards), both in
    ascending vertex order.  The tree holds a path from i_out to every in
    state of the ball, i's component.  All come from the ball's one search:
    a vertex's in state hangs off its parent's out state, as a search of the
    states from i_out would find, since a vertex closer to i than gamma has
    all its neighbours in the ball.  ``hop[a]`` is the local index of the
    neighbour of i whose subtree holds a, so tree paths to vertices of two
    different hops share no vertex but i.
    """
    parent = _ball_parents(g, i, gamma)
    inside = tuple(sorted(parent))
    index = {v: a for a, v in enumerate(inside)}
    outs = []
    for u in inside:
        ins = [2 * b for v in g.adjacency[u] if (b := index.get(v)) is not None]
        outs += ([x + 1 for x in ins], ins)
    tree = [-1] * len(outs)
    hop = [-1] * len(inside)
    for v, u in parent.items():  # i is its own parent; no path reads its entries
        a = index[v]
        tree[2 * a], tree[2 * a + 1] = 2 * index[u] + 1, 2 * a
        hop[a] = a if u == i else hop[index[u]]  # the search meets u before v
    return inside, index, outs, tree, hop


# A pair's flow: vertex a carrying a unit has link[2a] = the out state it
# comes from, link[2a + 1] = the in state it goes to; a free vertex has -1,
# the source and sink (never cut) _ENDPOINT.  An out state steps along every
# edge arc, then back along its split arc if it carries a unit; an in state
# along its free split arc or back along the arc that brought its unit.
_ENDPOINT = -2


def _search(outs: list, link: list[int], start: int, flip: int, wall, goal) -> tuple[set, bool]:
    """Breadth-first search of the residual graph from start, along its arcs
    (flip=0) or against them (flip=1), never entering ``wall``.  Returns the
    states it reaches and whether it met ``goal``."""
    seen = {start}
    queue = [start]
    for x in queue:
        y = link[x]
        if (x ^ flip) & 1:
            steps = outs[x] if y < 0 else (x ^ 1, *outs[x])
        else:
            steps = (x ^ 1,) if y == -1 else (y,) if y >= 0 else ()
        for y in steps:
            if y not in seen and y not in wall:
                if y in goal:
                    return seen, True
                seen.add(y)
                queue.append(y)
    return seen, False


def _augment(outs: list, link: list[int], src: int, dst: int) -> set | None:
    """One augmenting search, breadth-first in ``_search``'s order: on
    meeting dst it pushes one unit along the path found and returns None,
    otherwise it returns the states src reaches."""
    parent = [-1] * len(link)
    parent[src] = src
    queue = [src]
    for x in queue:
        if x & 1:
            if link[x] >= 0 and parent[x ^ 1] < 0:
                parent[x ^ 1] = x
                queue.append(x ^ 1)
            for y in outs[x]:
                if parent[y] < 0:
                    parent[y] = x
                    if y == dst:
                        _push(parent, link, src, dst)
                        return None
                    queue.append(y)
        elif (y := link[x] if link[x] != -1 else x ^ 1) >= 0 and parent[y] < 0:
            parent[y] = x
            queue.append(y)
    return set(queue)


def _push(parent: list[int], link: list[int], src: int, dst: int) -> None:
    """Send one unit from src to dst along the search path.  An edge arc taken
    forward carries it; one taken backward is cleared at each end that still
    names the other, in any order of steps.  src and dst keep _ENDPOINT."""
    y = parent[dst]
    link[y] = dst
    while (x := parent[y]) != src:
        if x & 1 and x ^ 1 != y:
            link[x], link[y] = y, x
        elif x ^ 1 != y:
            link[x] = -1 if link[x] == y else link[x]
            link[y] = -1 if link[y] == x else link[y]
        y = x
    link[y] = src


def _lex_min_separator(inside: tuple[int, ...], index: dict[int, int], outs: list, tree: list[int],
                       hop: list[int], i: int, j: int) -> tuple[int, ...]:
    """Lexicographically smallest minimum vertex separator of i and j in the
    ball network of i (see ``_ball_states``); empty when j is outside it.

    One max flow gives the cut size k.  It starts from one unit per hop of
    i: for each ball neighbour w of j, in ascending order, whose tree parent
    is not j and whose hop no earlier unit took, a unit follows w's tree path
    and then the arc w -> j.  In a breadth-first tree a neighbour of j below
    j is its child, so j is not on that path, and paths of distinct hops
    share no vertex.  Augmenting searches push the remaining units and one
    more fails.  Which maximum flow this reaches does not matter: for every
    maximum flow the minimum cuts are exactly the state sets that hold the
    source but not the sink and that no residual arc leaves (Picard &
    Queyranne, Math. Prog. Study 13, 1980), so all are read off this one
    residual graph, and the separator is that of any other maximum flow.
    ``src_side`` starts as the states the failing search reached,
    ``dst_side`` as those that reach the sink.  Greedy on ascending vertex
    labels: v joins exactly when some minimum cut puts v_in
    on the source side and v_out on the sink side next to the vertices already
    chosen, that is when v_out is off the source side, v_in off the sink side,
    and the search from v_in, confined to the states between the two sides,
    meets neither v_out nor the sink side. On acceptance that search joins the
    source side and the states that reach v_out join the sink side; no flow is
    re-routed. No backward search reaches i_out, whose link names none of its
    units: every state it reaches leads to its start, which lies off the source
    side.
    """
    if (b := index.get(j)) is None:
        return ()
    src, dst = 2 * index[i] + 1, 2 * b
    link = [-1] * len(outs)
    link[src - 1] = link[src] = link[dst] = link[dst + 1] = _ENDPOINT
    taken = set()
    for x in outs[dst]:  # the out states of j's ball neighbours, j's parent among them
        if tree[x - 1] == dst + 1 or hop[x >> 1] in taken:
            continue
        taken.add(hop[x >> 1])
        y = dst
        while x != src:  # x, x - 1 = w_out, w_in up the tree, each unit's arc pair set at both ends
            link[x], link[x - 1] = y, tree[x - 1]
            y, x = x - 1, tree[x - 1]
    k = len(taken)
    while (src_side := _augment(outs, link, src, dst)) is None:
        k += 1
    chosen: list[int] = []
    dst_side = _search(outs, link, dst, 1, (), ())[0]
    for a, v in enumerate(inside):
        if len(chosen) == k:
            break
        v_in, v_out = 2 * a, 2 * a + 1
        if link[v_in] < 0 or v_out in src_side or v_in in dst_side:  # free, the source or the sink
            continue
        dst_side.add(v_out)
        grown, met = _search(outs, link, v_in, 0, src_side, dst_side)
        dst_side.discard(v_out)
        if not met:
            chosen.append(v)
            src_side.update(grown)
            dst_side.update(_search(outs, link, v_out, 1, dst_side, ())[0])
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
    return _lex_min_separator(*_ball_states(g, i, gamma), i, j)


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
    for i in range(g.p):
        near = set(g.adjacency[i])
        pending = [j for j in range(i + 1, g.p) if j not in near]
        if not pending:
            continue
        network = _ball_states(g, i, gamma)  # one search of the ball serves every j
        index = network[1]
        for j in pending:  # a j outside the ball is separated by no vertex
            separators[(i, j)] = _lex_min_separator(*network, i, j) if j in index else ()
    return SeparationProfile(gamma=gamma, eta=max(map(len, separators.values()), default=0), separators=separators)


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
        if self.edges is not None:  # lists, as JSON gives them, would leave the frozen config unhashable
            object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
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
        return cls(**config_kwargs(cls, data))
