import math
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
from ggmlearn.io import format_edge_list, parse_edge_list

from helpers import brute_force_local_separator


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


@pytest.mark.parametrize("g", [torus_grid(6, 2), generate_er(40, 2.5, seed=3)], ids=["torus6x6", "er40"])
def test_separation_profile_pinned_to_brute_force(g):
    expected = {
        (i, j): brute_force_local_separator(g, i, j, 3)
        for i, j in combinations(range(g.p), 2) if not g.has_edge(i, j)
    }
    prof = separation_profile(g, 3)
    assert list(prof.separators.items()) == list(expected.items())
    assert prof.eta == max(map(len, expected.values())) == 4


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
