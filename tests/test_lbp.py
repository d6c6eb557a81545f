import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ggmlearn import (
    GaussianModel,
    Graph,
    InvalidParameter,
    chain_graph,
    cycle_graph,
    generate_er,
    lbp_run,
    lbp_variance_error,
    synthesize_model,
    torus_grid,
)

from helpers import dense_lbp


def random_tree(p, seed):
    rng = np.random.default_rng(seed)
    return Graph(p, [(int(rng.integers(0, v)), v) for v in range(1, p)])


def model_on_graph(g, seed, alpha=0.5, diag_range=(1.0, 1.0)):
    """Random magnitudes and signs on a fixed support, diagonal drawn from
    diag_range, |R| spectral norm rescaled to alpha exactly."""
    rng = np.random.default_rng(seed)
    r = np.zeros((g.p, g.p))
    for u, v in g.edges:
        r[u, v] = r[v, u] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    r *= alpha / np.max(np.abs(np.linalg.eigvalsh(np.abs(r))))
    d = rng.uniform(*diag_range, size=g.p)
    return GaussianModel(g, np.sqrt(np.outer(d, d)) * (np.eye(g.p) - r))


def test_lbp_exact_on_trees():
    for seed in range(6):
        p = 5 + seed
        m = model_on_graph(random_tree(p, seed), seed, alpha=0.6, diag_range=(1.0, 3.0))
        h = np.random.default_rng(seed + 100).normal(size=p)
        res = lbp_run(m, h)
        assert res.converged and not res.breakdown
        assert np.max(np.abs(res.variances - np.diag(m.sigma()))) < 1e-8
        assert np.max(np.abs(res.means - np.linalg.solve(m.precision, h))) < 1e-8


def test_lbp_zero_potential_means_are_zero():
    m = synthesize_model(cycle_graph(6), 0.5)
    res = lbp_run(m)
    assert np.array_equal(res.means, np.zeros(6))


def test_lbp_means_exact_on_loopy_walk_summable():
    for seed in range(4):
        m = model_on_graph(cycle_graph(8), seed, alpha=0.6)
        h = np.random.default_rng(seed).normal(size=8)
        res = lbp_run(m, h)
        assert res.converged
        assert np.max(np.abs(res.means - np.linalg.solve(m.precision, h))) < 1e-7


def test_lbp_variances_biased_but_close_on_loops():
    m = synthesize_model(cycle_graph(6), 0.5)
    res = lbp_run(m)
    per_node, worst = lbp_variance_error(m, res)
    assert per_node.shape == (6,)
    assert 0 < worst < 0.05
    # single-cycle beliefs underestimate the variance
    assert np.all(res.variances <= np.diag(m.sigma()))


def test_lbp_variance_error_decreases_with_girth():
    errors = []
    for p in (6, 10, 14):
        m = synthesize_model(cycle_graph(p), 0.5)
        res = lbp_run(m)
        assert res.converged
        errors.append(lbp_variance_error(m, res)[1])
    assert errors[0] > errors[1] > errors[2] > 0


def test_lbp_iteration_budget_tracks_contraction():
    # geometric message decay at rate alpha: reaching 1e-10 from O(1)
    # needs about log(tol)/log(alpha) sweeps; allow a generous factor
    for alpha in (0.3, 0.5, 0.7):
        m = synthesize_model(cycle_graph(8), alpha)
        res = lbp_run(m)
        assert res.converged
        budget = 10 * int(np.ceil(np.log(1e-10) / np.log(alpha))) + 10
        assert res.iterations <= budget
        assert res.final_change <= 1e-10


def test_lbp_unnormalized_diagonal_rescaling():
    g = cycle_graph(6)
    base = model_on_graph(g, 3, alpha=0.5)
    scaled = GaussianModel(g, 3.0 * np.asarray(base.precision))
    h = np.random.default_rng(9).normal(size=6)
    res_base = lbp_run(base, h)
    res_scaled = lbp_run(scaled, h)
    # covariance scales by 1/3, means solve the scaled system
    assert np.max(np.abs(res_scaled.variances - res_base.variances / 3.0)) < 1e-12
    assert np.max(np.abs(res_scaled.means - res_base.means / 3.0)) < 1e-12


def frustrated_k4():
    # positive definite but far from walk-summable; the cavity precision
    # goes nonpositive
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    signs = [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]
    j = np.eye(4)
    for (u, v), s in zip(edges, signs):
        j[u, v] = j[v, u] = -0.4 * s
    return GaussianModel(Graph(4, edges), j)


def test_lbp_breakdown_reported_not_raised():
    m = frustrated_k4()
    assert m.alpha > 1.0
    res = lbp_run(m)
    assert res.breakdown
    assert not res.converged


def test_lbp_message_layout():
    # graph.edges forward, then the same edges reversed
    m = model_on_graph(random_tree(7, 4), 4, alpha=0.6, diag_range=(1.0, 3.0))
    h = np.random.default_rng(4).normal(size=7)
    res = lbp_run(m, h)
    dense = dense_lbp(m, h)
    forward = np.array(m.graph.edges)
    source = np.concatenate([forward[:, 0], forward[:, 1]])
    target = np.concatenate([forward[:, 1], forward[:, 0]])
    assert res.message_precisions.shape == res.message_potentials.shape == (2 * m.graph.n_edges,)
    assert np.all(res.message_precisions < 0.0)
    for name in ("message_precisions", "message_potentials"):
        np.testing.assert_allclose(getattr(res, name), dense[name][source, target], rtol=0.0, atol=1e-12)


def test_lbp_validation():
    m = synthesize_model(cycle_graph(5), 0.4)
    with pytest.raises(InvalidParameter):
        lbp_run(m, tol=0.0)
    with pytest.raises(InvalidParameter):
        lbp_run(m, h=np.zeros(4))
    with pytest.raises(InvalidParameter):
        lbp_run(m, max_iters=0)


def test_lbp_max_iters_cutoff():
    m = synthesize_model(cycle_graph(6), 0.5)
    res = lbp_run(m, max_iters=2)
    assert not res.converged
    assert res.iterations == 2


@st.composite
def lbp_cases(draw):
    """A model, a potential vector and an iteration budget: trees, cycles,
    ER graphs and tori with random signs, magnitudes and diagonals, or the
    frustrated K4 that breaks down."""
    kind = draw(st.sampled_from(["tree", "cycle", "er", "torus", "k4"]))
    seed = draw(st.integers(0, 2**16))
    if kind == "k4":
        m = frustrated_k4()
    else:
        size = draw(st.integers(3, 12))
        g = {"tree": random_tree(size, seed), "cycle": cycle_graph(size),
             "er": generate_er(3 * size, 2.5, seed), "torus": torus_grid(size, 2)}[kind]
        if g.n_edges == 0:
            g = cycle_graph(size)
        diag = draw(st.sampled_from([(1.0, 1.0), (0.2, 5.0)]))
        m = model_on_graph(g, seed, alpha=draw(st.floats(0.1, 0.95)), diag_range=diag)
    h = np.random.default_rng(seed).normal(size=m.p)
    return m, h, draw(st.sampled_from([1, 2, 5, 10000]))


@settings(max_examples=80, deadline=None)
@given(lbp_cases())
def test_lbp_matches_dense_messages(case):
    m, h, max_iters = case
    res = lbp_run(m, h, max_iters=max_iters)
    ref = dense_lbp(m, h, max_iters=max_iters)
    assert (res.iterations, res.converged, res.breakdown) == (
        ref["iterations"], ref["converged"], ref["breakdown"])
    for name in ("means", "variances", "final_change"):
        np.testing.assert_allclose(getattr(res, name), ref[name], rtol=0.0, atol=1e-12)


# lbp_run's outputs on in-range models, pinned before the out-of-range R
# form was added, so that in-range runs stay bit for bit the same
LBP_DIGESTS = {
    "chain20/0.6": "ee5a257122950cc255fb0536dfde155c63ce13e50284e8349fcb4b2faf4c0bf6",
    "cycle12/0.9": "c1e137c2d1b94eaf3ca548b522eaed08b0eeb73505bbf1a30b6141cdf13a3c0a",
    "torus5x5/0.7": "b77a023641cde7714b31ef14c03d39c411cd0ce10b4e65d323c9e115cf86c82e",
    "er30/0.5/5-sweeps": "9b49daa56206522c7ede06c7b6652bdd036fb0dd799a9b2de18632e8d34504bd",
    "tree15x1e3": "ef8528cc946531f6a46ccd195af899e66685770f3c3aae8116a1baac88381e58",
    "k4-breakdown": "d83bdf365d836c5322ba4a127d55da6e83fec799d5bd70731f9499f8ea790404",
}
LBP_DIGEST_CASES = {
    "chain20/0.6": lambda: (synthesize_model(chain_graph(20), 0.6), 10000),
    "cycle12/0.9": lambda: (model_on_graph(cycle_graph(12), 4, alpha=0.9, diag_range=(0.2, 5.0)), 10000),
    "torus5x5/0.7": lambda: (model_on_graph(torus_grid(5, 2), 7, alpha=0.7, diag_range=(0.2, 5.0)), 10000),
    "er30/0.5/5-sweeps": lambda: (model_on_graph(generate_er(30, 2.5, 2), 2, alpha=0.5, diag_range=(0.2, 5.0)), 5),
    "tree15x1e3": lambda: (model_on_graph(random_tree(15, 1), 1, diag_range=(1e3, 1e3)), 10000),
    "k4-breakdown": lambda: (frustrated_k4(), 10000),
}


@pytest.mark.parametrize("name", list(LBP_DIGEST_CASES))
def test_lbp_digests_pinned(name):
    m, max_iters = LBP_DIGEST_CASES[name]()
    res = lbp_run(m, np.random.default_rng(11).normal(size=m.p), max_iters=max_iters)
    blob = repr((res.iterations, res.converged, res.breakdown, res.final_change)).encode()
    for a in (res.means, res.variances, res.message_precisions, res.message_potentials):
        blob += a.tobytes()
    assert hashlib.sha256(blob).hexdigest() == LBP_DIGESTS[name]


@settings(max_examples=60, deadline=None)
@given(lbp_cases(), st.sampled_from([1.0, 1e160, 1e-200]))
@example((frustrated_k4(), np.ones(4), 10000), 1e160)  # breakdown: NaN beliefs on both sides
@example((synthesize_model(chain_graph(20), 0.6), np.ones(20), 10000), 1e160)
@example((synthesize_model(chain_graph(20), 0.6), np.ones(20), 10000), 1e-200)
def test_lbp_beliefs_follow_a_diagonal_scaling(case, scale):
    # J -> D J D with h -> D h leaves the normalized model unchanged up to
    # rounding, so the means become D^-1 mu and the variances D^-2 var.  At
    # J scales 1e160 and 1e-200 sqrt(J_ss J_tt) would overflow or underflow,
    # and pytest turns the RuntimeWarning into an error
    m, h, max_iters = case
    d = np.sqrt(scale) * np.random.default_rng(m.p).uniform(0.25, 4.0, size=m.p)
    scaled = GaussianModel(m.graph, d[:, None] * np.asarray(m.precision) * d)
    got, want = lbp_run(scaled, d * h, max_iters=max_iters), lbp_run(m, h, max_iters=max_iters)
    assert (got.iterations, got.converged, got.breakdown) == (want.iterations, want.converged, want.breakdown)
    np.testing.assert_allclose(got.variances * d * d, want.variances, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(got.means * d, want.means, rtol=0.0, atol=1e-12 * np.nanmax(np.abs(want.means), initial=0.0))
