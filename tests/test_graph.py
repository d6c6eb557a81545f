import hashlib
import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggmlearn import (
    EnsembleConfig,
    GenerationFailed,
    Graph,
    InvalidParameter,
    ball,
    chain_graph,
    cycle_graph,
    edit_distance,
    gamma_subgraph,
    generate_er,
    generate_regular,
    generate_smallworld,
    girth,
    is_locally_treelike,
    local_separator,
    separation_profile,
    torus_grid,
)
from ggmlearn import graph as graph_module
from ggmlearn.graph import _int_root
from ggmlearn.io import format_edge_list, parse_edge_list

from helpers import brute_force_local_separator


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 25), st.floats(0.0, 1.0), st.integers(0, 2**32 - 1))
def test_adjacency_matrix_matches_edge_loop(p, density, seed):
    rng = np.random.default_rng(seed)
    edges = [e for e in combinations(range(p), 2) if rng.random() < density]
    g = Graph(p, edges)
    want = np.zeros((p, p))
    for u, v in g.edges:
        want[u, v] = want[v, u] = 1.0
    got = g.adjacency_matrix()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_adjacency_matrix_edge_cases():
    assert Graph(1).adjacency_matrix().tobytes() == np.zeros((1, 1)).tobytes()
    assert Graph(4).adjacency_matrix().tobytes() == np.zeros((4, 4)).tobytes()
    assert np.array_equal(Graph(2, [(1, 0)]).adjacency_matrix(), [[0.0, 1.0], [1.0, 0.0]])


def test_graph_normalizes_and_sorts_edges():
    g = Graph(4, [(2, 1), (0, 3), (0, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.adjacency[0] == (1, 3)
    assert g.adjacency[1] == (0, 2)
    assert g.has_edge(1, 0) and not g.has_edge(2, 3)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidParameter):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameter):
        Graph(3, [(0, 3)])
    with pytest.raises(InvalidParameter):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InvalidParameter):
        Graph(0, [])


def test_chain_cycle_torus_shapes():
    assert chain_graph(5).edges == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert cycle_graph(4).n_edges == 4
    t = torus_grid(3, 2)
    assert t.p == 9
    assert all(t.degree(v) == 4 for v in range(9))
    assert t.n_edges == 18
    # side 2 collapses the two wrap directions into one edge
    t2 = torus_grid(2, 2)
    assert t2.p == 4 and t2.n_edges == 4
    assert all(t2.degree(v) == 2 for v in range(4))


def test_generate_er_is_deterministic_and_calibrated():
    g1 = generate_er(50, 2.0, seed=7)
    g2 = generate_er(50, 2.0, seed=7)
    assert g1 == g2
    assert g1 != generate_er(50, 2.0, seed=8)
    assert generate_er(30, 0.0, seed=1).n_edges == 0
    assert generate_er(12, 12.0, seed=1).n_edges == 12 * 11 // 2
    # mean degree concentrates near c
    big = generate_er(400, 3.0, seed=11)
    mean_degree = 2 * big.n_edges / big.p
    assert abs(mean_degree - 3.0) < 0.5


def _er_one_row_at_a_time(p: int, c: float, seed: int) -> Graph:
    """generate_er's coins drawn with one call per row."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = []
    for u in range(p - 1):
        edges += [(u, u + 1 + int(off)) for off in np.nonzero(rng.random(p - 1 - u) < c / p)[0]]
    return Graph(p, edges)


@pytest.mark.parametrize("p", [1, 2, 60, 700])
def test_generate_er_blocks_draw_the_per_row_coins(p):
    # at p = 700 the coins span several blocks, and rows end blocks at
    # uneven lengths; Philox's stream runs on across the calls
    if p == 700:
        assert p * (p - 1) // 2 > 3 * graph_module.ER_BLOCK_ENTRIES
    for seed in range(3):
        for c in sorted({min(p, 1.5), min(p, 4.0)}):
            assert generate_er(p, c, seed) == _er_one_row_at_a_time(p, c, seed)


@pytest.mark.parametrize("seed, message", [
    (2.7, "seed must be int, got float 2.7"),
    (True, "seed must be int, got bool True"),
    (None, "seed must be int, got NoneType None"),
    (-1, r"seed must lie in \[0, 2\*\*128\), got -1"),
    (2**128, rf"seed must lie in \[0, 2\*\*128\), got {2**128}"),
])
def test_seeds_are_philox_keys(seed, message):
    # 2.7 used to draw seed 2's graph, and -1 ended in numpy's ValueError
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        generate_er(10, 2.0, seed=seed)
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        generate_regular(10, 3, seed=seed)


def test_seed_range_ends_are_accepted():
    assert generate_er(10, 2.0, seed=0) == generate_er(10, 2.0, seed=np.uint64(0))
    assert generate_er(10, 2.0, seed=2**128 - 1).p == 10


def test_generate_regular_degrees_and_errors():
    g = generate_regular(20, 3, seed=5)
    assert g.n_edges == 30
    assert all(g.degree(v) == 3 for v in range(20))
    assert g == generate_regular(20, 3, seed=5)
    with pytest.raises(InvalidParameter):
        generate_regular(5, 3, seed=0)  # odd stub count
    with pytest.raises(InvalidParameter):
        generate_regular(4, 4, seed=0)
    assert generate_regular(6, 0, seed=0).n_edges == 0


def test_generate_smallworld_contains_grid():
    g = generate_smallworld(16, 2, 1.0, seed=3)
    grid = torus_grid(4, 2)
    assert set(grid.edges) <= set(g.edges)
    with pytest.raises(InvalidParameter):
        generate_smallworld(15, 2, 1.0, seed=3)
    ring = generate_smallworld(9, 1, 0.0, seed=0)
    assert ring == cycle_graph(9)


def test_smallworld_side_is_an_exact_integer_root():
    # the side is found in integers, so no p overflows a float and every
    # p = m**d +- 1 is told apart from m**d
    assert _int_root(10**400 + 1, 1) == 10**400 + 1
    for d in range(2, 6):
        for m in (2, 3, 7, 10**20, 2**100 + 1):
            assert _int_root(m**d, d) == m
            assert _int_root(m**d - 1, d) == m - 1
            assert _int_root(m**d + 1, d) == m
    for p, d in ((10**400 + 1, 2), (10**400 + 1, 3), (-4, 2), (0, 1), (2**60 - 1, 60), (10**30 + 1, 10**18)):
        with pytest.raises(InvalidParameter, match="is not a perfect d-th power"):
            generate_smallworld(p, d, 1.0, seed=0)


def test_girth_known_values():
    assert girth(cycle_graph(5)) == 5
    assert girth(chain_graph(6)) == math.inf
    k4 = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert girth(k4) == 3
    assert girth(torus_grid(4, 2)) == 4
    assert girth(torus_grid(3, 2)) == 3
    assert girth(Graph(1, [])) == math.inf
    two_cycles = Graph(9, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 3)])
    assert girth(two_cycles) == 3


def test_ball_and_gamma_subgraph():
    g = chain_graph(7)
    assert ball(g, 3, 0) == (3,)
    assert ball(g, 3, 2) == (1, 2, 3, 4, 5)
    assert ball(g, 0, 100) == tuple(range(7))
    h = gamma_subgraph(g, 3, 1)
    assert h.p == 7
    assert h.edges == ((2, 3), (3, 4))
    c6 = cycle_graph(6)
    assert set(gamma_subgraph(c6, 0, 2).edges) == {(0, 1), (1, 2), (0, 5), (4, 5)}


def test_is_locally_treelike_on_cycle():
    c6 = cycle_graph(6)
    assert is_locally_treelike(c6, 0, 2)
    assert not is_locally_treelike(c6, 0, 3)
    assert is_locally_treelike(chain_graph(10), 4, 9)


def test_local_separator_cycle_cases():
    c6 = cycle_graph(6)
    assert local_separator(c6, 0, 2, 2) == (1,)
    assert local_separator(c6, 0, 2, 5) == (1, 3)
    assert local_separator(c6, 0, 3, 2) == ()
    assert local_separator(c6, 0, 3, 5) == (1, 4)
    assert local_separator(c6, 0, 2, 0) == ()


def test_local_separator_validation():
    c6 = cycle_graph(6)
    with pytest.raises(InvalidParameter):
        local_separator(c6, 0, 1, 3)  # adjacent
    with pytest.raises(InvalidParameter):
        local_separator(c6, 0, 0, 3)
    with pytest.raises(InvalidParameter):
        local_separator(c6, 0, 2, -1)


@pytest.mark.parametrize("call, message", [
    (lambda: ball(cycle_graph(10), 0, 1.5), "gamma must be int, got float 1.5"),
    (lambda: ball(cycle_graph(10), 0, "2"), "gamma must be int, got str '2'"),
    (lambda: ball(cycle_graph(10), 0, True), "gamma must be int, got bool True"),
    (lambda: ball(cycle_graph(10), 0.0, 2), "vertex must be int, got float 0.0"),
    (lambda: local_separator(cycle_graph(10), 0.0, 5, 5), "vertex must be int, got float 0.0"),
    (lambda: local_separator(cycle_graph(10), 0, "5", 5), "vertex must be int, got str '5'"),
    (lambda: local_separator(cycle_graph(10), 0, 5, 2.0), "gamma must be int, got float 2.0"),
    (lambda: separation_profile(cycle_graph(10), 1.5), "gamma must be int, got float 1.5"),
    (lambda: separation_profile(Graph(1), -1), "gamma must be nonnegative, got -1"),
])
def test_radius_and_vertex_labels_must_be_integers(call, message):
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        call()


def test_numpy_integers_are_vertex_labels_and_radii():
    assert ball(cycle_graph(10), np.int64(0), np.int64(1)) == (0, 1, 9)
    assert local_separator(cycle_graph(10), np.int32(0), np.int64(5), np.int8(5)) == (1, 6)
    assert separation_profile(cycle_graph(10), np.int64(5)).eta == 2


def test_local_separator_tree_is_single_cut_vertex():
    g = chain_graph(9)
    assert local_separator(g, 2, 6, 8) == (3,)
    star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert local_separator(star, 1, 4, 2) == (0,)


def test_local_separator_disconnected_pair_is_empty():
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    assert local_separator(g, 0, 5, 10) == ()


def test_local_separator_route_longer_than_ball_is_not_cut():
    # hub 0 with four branches: two short routes to 10 (via 1 and via 2-6),
    # one long detour via 3 whose midpoint 11 sits at distance 5 from 0,
    # and a dangling vertex 4.  At radius 4 the detour is severed, so the
    # cut only needs the two short routes.
    edges = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 10), (2, 6), (6, 10),
             (3, 7), (7, 8), (8, 9), (9, 11), (11, 12), (12, 5), (5, 10)]
    g = Graph(13, edges)
    assert local_separator(g, 0, 10, 4) == (1, 2)
    # with a large enough radius the detour matters and the cut grows
    assert local_separator(g, 0, 10, 6) == (1, 2, 3)


def test_local_separator_matches_brute_force_small_random():
    rng = np.random.default_rng(42)
    for trial in range(25):
        p = int(rng.integers(5, 10))
        g = generate_er(p, 2.5, seed=int(rng.integers(0, 2**32)))
        for gamma in range(0, 5):
            for i in range(p):
                for j in range(i + 1, p):
                    if g.has_edge(i, j):
                        continue
                    assert local_separator(g, i, j, gamma) == brute_force_local_separator(
                        g, i, j, gamma
                    ), (g.edges, i, j, gamma)


@st.composite
def small_graphs(draw):
    p = draw(st.integers(2, 10))
    pairs = list(combinations(range(p), 2))
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(p, [pair for pair, keep in zip(pairs, mask) if keep])


@settings(max_examples=60, deadline=None)
@given(small_graphs(), st.integers(0, 3))
def test_separators_match_brute_force(g, gamma):
    expected = {
        (i, j): brute_force_local_separator(g, i, j, gamma)
        for i, j in combinations(range(g.p), 2) if not g.has_edge(i, j)
    }
    prof = separation_profile(g, gamma)
    # same separators, in row-major pair order
    assert list(prof.separators.items()) == list(expected.items())
    assert prof.eta == max(map(len, expected.values()), default=0)
    for (i, j), sep in expected.items():
        assert local_separator(g, i, j, gamma) == sep


@st.composite
def sparse_graphs(draw):
    """A ring through all p <= 14 vertices in a drawn order, minus at most
    two ring edges, plus chords, keeping every degree at most 3: minimum
    separators of two or three vertices are common."""
    p = draw(st.integers(4, 14))
    order = draw(st.permutations(range(p)))
    dropped = draw(st.sets(st.integers(0, p - 1), max_size=2))
    ring = [(order[k], order[(k + 1) % p]) for k in range(p) if k not in dropped]
    chords = draw(st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)), max_size=p))
    degree = [0] * p
    edges = set()
    for u, v in ring + chords:
        e = (min(u, v), max(u, v))
        if u != v and e not in edges and degree[u] < 3 and degree[v] < 3:
            edges.add(e)
            degree[u] += 1
            degree[v] += 1
    return Graph(p, edges)


@settings(max_examples=60, deadline=None)
@given(sparse_graphs(), st.integers(0, 4))
def test_separators_match_brute_force_on_sparse_graphs(g, gamma):
    test_separators_match_brute_force.hypothesis.inner_test(g, gamma)


@st.composite
def grids_with_deletions(draw):
    """A ladder (2 x up to 8) or a grid (3 or 4 x 3 or 4) on p <= 16
    vertices, labelled in a drawn order, minus at most four edges: minimum
    separators tie often, so the lexicographic tie-break decides them."""
    rows = draw(st.integers(2, 4))
    cols = draw(st.integers(2, 8) if rows == 2 else st.integers(3, 4))
    label = draw(st.permutations(range(rows * cols)))
    edges = [(label[r * cols + c], label[r * cols + c + 1]) for r in range(rows) for c in range(cols - 1)]
    edges += [(label[r * cols + c], label[(r + 1) * cols + c]) for r in range(rows - 1) for c in range(cols)]
    dropped = draw(st.sets(st.integers(0, len(edges) - 1), max_size=4))
    return Graph(rows * cols, [e for k, e in enumerate(edges) if k not in dropped])


@settings(max_examples=100, deadline=None)
@given(grids_with_deletions(), st.integers(0, 5))
def test_separators_match_brute_force_on_grids(g, gamma):
    test_separators_match_brute_force.hypothesis.inner_test(g, gamma)


@pytest.mark.parametrize("g", [torus_grid(6, 2), generate_er(40, 2.5, seed=3)], ids=["torus6x6", "er40"])
def test_separation_profile_pinned_to_brute_force(g):
    expected = {
        (i, j): brute_force_local_separator(g, i, j, 3)
        for i, j in combinations(range(g.p), 2) if not g.has_edge(i, j)
    }
    prof = separation_profile(g, 3)
    assert list(prof.separators.items()) == list(expected.items())
    assert prof.eta == max(map(len, expected.values())) == 4


@st.composite
def generated_graphs(draw):
    """A small ER, 3-regular or torus graph from the package's generators."""
    kind = draw(st.sampled_from(["er", "regular", "torus"]))
    if kind == "torus":
        d = draw(st.integers(1, 3))
        return torus_grid(draw(st.integers(2, {1: 30, 2: 6, 3: 3}[d])), d)
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "regular":
        return generate_regular(2 * draw(st.integers(2, 20)), 3, seed)
    p = draw(st.integers(2, 40))
    return generate_er(p, draw(st.floats(0.5, min(4.0, p))), seed)


@settings(max_examples=60, deadline=None)
@given(generated_graphs(), st.integers(0, 5))
def test_separation_profile_matches_local_separator(g, gamma):
    # the profile shares each ball's first search and skips pairs outside
    # the ball; neither may change a separator or the pairs' order
    expected = [((i, j), local_separator(g, i, j, gamma))
                for i, j in combinations(range(g.p), 2) if not g.has_edge(i, j)]
    assert list(separation_profile(g, gamma).separators.items()) == expected


# sha256 of repr((eta, separator items in order)); a rewrite of the
# separator search must leave every entry as it is
SEPARATOR_DIGESTS = {
    "torus10x10/3": "81b6e069e0c83e8a640adc21cad30608922d610bca251b071151790d1f2553ea",
    "torus8x8/2": "7567334b12d6d53064b1f63f311f1e0d6d80122ffdb39036e9785d17c4afcddb",
    "regular100/4": "f44a546f497dc2d11799f56ae43d3ef799557331c4497e26571a56b938d1eeb3",
    "er80/3": "91d263594be8b0ac8b8212b28c1d349a8d80be9e8988a6fb3ab94f26c6e15170",
    "torus5^3/2": "f4593158a81d4e08c3e66bcedff94031e2172e4de3ec266c5ac0a69558077444",
}
SEPARATOR_DIGEST_CASES = {
    "torus10x10/3": lambda: (torus_grid(10, 2), 3),
    "torus8x8/2": lambda: (torus_grid(8, 2), 2),
    "regular100/4": lambda: (generate_regular(100, 3, seed=1), 4),
    "er80/3": lambda: (generate_er(80, 3.0, seed=5), 3),
    "torus5^3/2": lambda: (torus_grid(5, 3), 2),
}


@pytest.mark.parametrize("name", list(SEPARATOR_DIGEST_CASES))
def test_separation_profile_digests_pinned(name):
    g, gamma = SEPARATOR_DIGEST_CASES[name]()
    prof = separation_profile(g, gamma)
    got = hashlib.sha256(repr((prof.eta, list(prof.separators.items()))).encode()).hexdigest()
    assert got == SEPARATOR_DIGESTS[name]


def test_separation_profile_cycle_and_complete():
    c6 = cycle_graph(6)
    assert separation_profile(c6, 2).eta == 1
    assert separation_profile(c6, 5).eta == 2
    p5 = separation_profile(c6, 5)
    assert p5.separators[(0, 2)] == (1, 3)
    complete = Graph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    prof = separation_profile(complete, 3)
    assert prof.eta == 0 and prof.separators == {}


def test_separation_profile_trees_have_single_cut_vertices():
    for p, seed in ((8, 1), (12, 2), (20, 3)):
        # random tree via a growth process
        rng = np.random.default_rng(seed)
        edges = [(int(rng.integers(0, v)), v) for v in range(1, p)]
        tree = Graph(p, edges)
        for gamma in (2, 3, 6):
            prof = separation_profile(tree, gamma)
            assert prof.eta == 1
            assert all(len(s) <= 1 for s in prof.separators.values())


def test_separation_profile_below_half_girth_is_single_vertex():
    # radius small enough that every radius-gamma neighborhood is a tree
    for g, gamma in ((cycle_graph(8), 3), (cycle_graph(11), 4), (torus_grid(5, 2), 1)):
        prof = separation_profile(g, gamma)
        assert all(len(s) <= 1 for s in prof.separators.values())
        assert prof.eta <= 1
    assert separation_profile(cycle_graph(8), 3).eta == 1


def test_edit_distance_metric():
    g = cycle_graph(5)
    h = chain_graph(5)
    assert edit_distance(g, g) == 0
    assert edit_distance(g, h) == edit_distance(h, g) == 1
    empty = Graph(5, [])
    assert edit_distance(g, empty) == 5
    rng = np.random.default_rng(0)
    graphs = [generate_er(7, 2.0, seed=int(rng.integers(0, 1000))) for _ in range(6)]
    for a in graphs:
        for b in graphs:
            for c in graphs:
                assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)
    with pytest.raises(InvalidParameter):
        edit_distance(g, Graph(6, []))


def test_edge_list_round_trip_and_golden_format():
    assert format_edge_list(chain_graph(3)) == "3 2\n0 1\n1 2\n"
    g = generate_er(30, 2.0, seed=9)
    assert parse_edge_list(format_edge_list(g)) == g
    with pytest.raises(InvalidParameter):
        parse_edge_list("3 2\n0 1\n")
    with pytest.raises(InvalidParameter):
        parse_edge_list("3 1\n1 0\n")
    with pytest.raises(InvalidParameter):
        parse_edge_list("3 2\n1 2\n0 1\n")


def test_ensemble_config_dispatch_and_validation():
    assert EnsembleConfig(kind="chain", p=6).build(0) == chain_graph(6)
    assert EnsembleConfig(kind="cycle", p=6).build(0) == cycle_graph(6)
    assert EnsembleConfig(kind="torus", m=3, d=2).build(0) == torus_grid(3, 2)
    er = EnsembleConfig(kind="er", p=20, c=2.0)
    assert er.build(5) == generate_er(20, 2.0, 5)
    assert er.density_param == 2.0
    assert EnsembleConfig(kind="regular", p=10, delta=3).density_param == 3.0
    explicit = EnsembleConfig(kind="explicit", p=3, edges=((0, 1),))
    assert explicit.build(0) == Graph(3, [(0, 1)])
    with pytest.raises(InvalidParameter):
        EnsembleConfig(kind="er", p=10)
    with pytest.raises(InvalidParameter):
        EnsembleConfig(kind="nope", p=10)
    round_trip = EnsembleConfig.from_dict(er.to_dict())
    assert round_trip == er
    # the mean degree handed to the Fano bounds: the rate of a randomized
    # kind, the exact 2|E|/p of a deterministic one
    assert EnsembleConfig(kind="chain", p=7).nominal_degree == 12 / 7
    assert EnsembleConfig(kind="cycle", p=6).nominal_degree == 2.0
    assert EnsembleConfig(kind="torus", m=3, d=2).nominal_degree == 4.0
    assert EnsembleConfig(kind="torus", m=2, d=3).nominal_degree == 3.0  # wrap edges collapse
    assert EnsembleConfig(kind="smallworld", p=16, d=2, c=1.0).nominal_degree == 5.0
    assert er.nominal_degree == 2.0
    assert EnsembleConfig(kind="regular", p=10, delta=3).nominal_degree == 3.0
    assert explicit.nominal_degree == 2 / 3
    # the kinds whose build reads its seed
    assert not any(EnsembleConfig(kind=k, p=6).randomized for k in ("chain", "cycle"))
    assert not EnsembleConfig(kind="torus", m=3, d=2).randomized and not explicit.randomized
    assert er.randomized and EnsembleConfig(kind="regular", p=10, delta=3).randomized
    assert EnsembleConfig(kind="smallworld", p=16, d=2, c=1.0).randomized


def test_ensemble_config_built_from_lists_is_hashable():
    # edges as JSON gives them, lists, whether from Python or from a config
    built = EnsembleConfig("explicit", p=3, edges=[[0, 1], [1, 2]])
    assert built.edges == ((0, 1), (1, 2))
    loaded = EnsembleConfig.from_dict({"kind": "explicit", "p": 3, "edges": [[0, 1], [1, 2]]})
    assert hash(built) == hash(loaded) and built == loaded
    assert {built: 1}[loaded] == 1
    # the type check still sees the list it was given
    with pytest.raises(InvalidParameter, match=re.escape("[0, 1, 2]")):
        EnsembleConfig("explicit", p=3, edges=[[0, 1, 2]])


KIND_FIELDS = {
    "er": {"p": 10, "c": 2.0},
    "regular": {"p": 10, "delta": 3},
    "smallworld": {"p": 16, "d": 2, "c": 1.0},
    "chain": {"p": 6},
    "cycle": {"p": 6},
    "torus": {"m": 3, "d": 2},
    "explicit": {"p": 3, "edges": ((0, 1),)},
}
FIELD_VALUES = {"p": 9, "c": 1.0, "delta": 2, "d": 1, "m": 3, "edges": ((0, 1),)}


@pytest.mark.parametrize("kind, name", [
    (kind, name) for kind, taken in KIND_FIELDS.items() for name in FIELD_VALUES if name not in taken])
def test_ensemble_config_rejects_fields_its_kind_does_not_take(kind, name):
    with pytest.raises(InvalidParameter, match=f"ensemble kind '{kind}' does not take field '{name}'"):
        EnsembleConfig(kind=kind, **KIND_FIELDS[kind], **{name: FIELD_VALUES[name]})


def test_regular_generator_retry_exhaustion(monkeypatch):
    import ggmlearn.graph as graph_mod

    monkeypatch.setattr(graph_mod, "REGULAR_RETRY_BUDGET", 0)
    with pytest.raises(GenerationFailed):
        generate_regular(10, 3, seed=0)
