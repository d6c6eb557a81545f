import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggmlearn import (
    AssumptionReport,
    GaussianModel,
    InvalidParameter,
    NotPositiveDefinite,
    NumericFailure,
    SynthesisFailed,
    chain_graph,
    check_assumptions,
    conditional_covariance_exact,
    cycle_graph,
    edge_coupling_norms,
    exact_covariance,
    generate_er,
    generate_regular,
    generate_smallworld,
    partial_correlation_matrix,
    separation_profile,
    synthesize_model,
    torus_grid,
    truncated_walksum_covariance,
    walk_summability_alpha,
)
from ggmlearn import model as model_module
from ggmlearn.graph import Graph
from ggmlearn.io import load_model, save_model
from ggmlearn.model import PD_CERTIFICATE_RTOL, _cholesky_pd

from helpers import dense_alpha, dense_partial_correlations, marginal_precision_conditional_cov, random_sparse_model


def test_partial_correlation_examples():
    r = partial_correlation_matrix(np.array([[1.0, -0.2], [-0.2, 1.0]]))
    assert r[0, 0] == r[1, 1] == 0.0
    assert r[0, 1] == pytest.approx(0.2, abs=1e-15)
    r = partial_correlation_matrix(np.array([[4.0, 1.0], [1.0, 1.0]]))
    assert r[0, 1] == pytest.approx(-0.5, abs=1e-15)


def test_alpha_simple_cases():
    # single edge: alpha equals the partial correlation magnitude
    j = np.array([[1.0, -0.3], [-0.3, 1.0]])
    assert walk_summability_alpha(j) == pytest.approx(0.3, abs=1e-9)
    # chain: alpha = 2 rho cos(pi / (p + 1))
    p, rho = 10, 0.25
    r = np.zeros((p, p))
    for i in range(p - 1):
        r[i, i + 1] = r[i + 1, i] = rho
    j = np.eye(p) - r
    expected = 2 * rho * math.cos(math.pi / (p + 1))
    assert walk_summability_alpha(j) == pytest.approx(expected, abs=1e-9)
    assert walk_summability_alpha(np.eye(4)) == 0.0


def test_alpha_matches_dense_eigensolver():
    for seed in range(20):
        m = random_sparse_model(9, seed, target_alpha=0.2 + 0.03 * seed,
                                diagonal_range=(1.0, 4.0))
        assert m.alpha == pytest.approx(dense_alpha(np.asarray(m.precision)), abs=1e-8)


def test_alpha_symmetrizes_rounding_and_rejects_asymmetry():
    j = np.array([[1.0, -0.3, 0.0], [-0.3, 1.0, -0.2], [0.0, -0.2, 1.0]])
    nearly = j.copy()
    nearly[0, 1] += 1e-15
    assert walk_summability_alpha(nearly) == pytest.approx(dense_alpha(j), abs=1e-14)
    skewed = j.copy()
    skewed[2, 1] = -0.4
    with pytest.raises(InvalidParameter, match="symmetric"):
        walk_summability_alpha(skewed)


@pytest.mark.parametrize("p", [300, 800])
def test_long_chain_models_load(p):
    # slow spectral-gap cases: |R| on a chain has gap O(1 / p^2)
    a = chain_graph(p).adjacency_matrix()
    j = np.eye(p) - 0.3 * a
    m = GaussianModel(chain_graph(p), j)
    assert abs(m.alpha - dense_alpha(j)) <= 1e-12
    assert abs(m.alpha - 0.6 * math.cos(math.pi / (p + 1))) <= 1e-12


def test_long_chain_synthesis():
    m = synthesize_model(chain_graph(800), 0.5)
    assert abs(m.alpha - 0.5) <= 1e-12
    assert m.meta["achieved_alpha"] == m.alpha


@st.composite
def synthesis_cases(draw):
    kind = draw(st.sampled_from(["er", "regular", "smallworld"]))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "er":
        graph = generate_er(draw(st.integers(4, 40)), draw(st.floats(0.5, 4.0)), seed)
    elif kind == "regular":
        delta = draw(st.integers(1, 4))
        p = draw(st.integers(delta + 1, 30).filter(lambda q: q * delta % 2 == 0))
        graph = generate_regular(p, delta, seed)
    else:
        graph = generate_smallworld(draw(st.sampled_from([9, 16, 25, 36])), 2, draw(st.floats(0.0, 2.0)), seed)
    return (graph, draw(st.floats(0.01, 0.99)), draw(st.sampled_from(["attractive", "alternating", "random"])),
            draw(st.floats(1.0, 3.0)), seed)


@settings(max_examples=80, deadline=None)
@given(synthesis_cases())
def test_synthesis_is_exact(case):
    graph, target, pattern, diagonal, seed = case
    if not graph.edges:
        return
    m = synthesize_model(graph, target, sign_pattern=pattern, diagonal=diagonal, seed=seed)
    assert abs(m.alpha - target) <= 1e-12
    magnitude = diagonal * target / np.linalg.eigvalsh(graph.adjacency_matrix())[-1]
    for u, v in graph.edges:
        assert abs(m.precision[u, v]) == pytest.approx(magnitude, rel=1e-13)
    assert m.alpha == pytest.approx(dense_alpha(np.asarray(m.precision)), abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1), st.floats(0.01, 0.99), st.floats(0.05, 0.8))
def test_alpha_matches_eigensolver_on_random_sparse_models(p, seed, target, density):
    m = random_sparse_model(p, seed, target_alpha=target, density=density, diagonal_range=(1.0, 5.0))
    assert abs(m.alpha - dense_alpha(np.asarray(m.precision))) <= 1e-12
    assert abs(walk_summability_alpha(np.asarray(m.precision)) - m.alpha) <= 1e-12


def test_exact_covariance_two_node():
    r = 0.4
    sigma = exact_covariance(np.array([[1.0, -r], [-r, 1.0]]))
    assert sigma[0, 1] == pytest.approx(r / (1 - r * r), abs=1e-12)
    assert sigma[0, 0] == pytest.approx(1 / (1 - r * r), abs=1e-12)
    assert np.array_equal(sigma, sigma.T)


def test_exact_covariance_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        exact_covariance(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_truncated_walksum_single_edge():
    r = np.array([[0.0, 0.5], [0.5, 0.0]])
    s3 = truncated_walksum_covariance(r, 3)
    assert s3[0, 0] == pytest.approx(1.25, abs=1e-15)
    assert s3[0, 1] == pytest.approx(0.625, abs=1e-15)
    assert np.array_equal(truncated_walksum_covariance(r, 0), np.eye(2))
    with pytest.raises(InvalidParameter):
        truncated_walksum_covariance(r, -1)


def test_truncated_walksum_error_bound():
    # elementwise error of the partial sum is at most alpha^(K+1) / (1 - alpha)
    for seed in range(10):
        m = random_sparse_model(8, seed, target_alpha=0.45)
        r = m.partial_correlations()
        sigma = exact_covariance(np.eye(8) - r)
        for n_terms in (1, 4, 12):
            err = np.max(np.abs(sigma - truncated_walksum_covariance(r, n_terms)))
            bound = m.alpha ** (n_terms + 1) / (1 - m.alpha)
            assert err <= bound + 1e-12


def test_conditional_covariance_chain_markov_zero():
    m = synthesize_model(chain_graph(5), 0.5)
    sigma = m.sigma()
    assert abs(conditional_covariance_exact(sigma, 0, 2, (1,))) < 1e-12
    assert abs(conditional_covariance_exact(sigma, 0, 4, (2,))) < 1e-12
    assert abs(conditional_covariance_exact(sigma, 1, 4, (3,))) < 1e-12
    # conditioning on a non-separator does not null the covariance
    assert abs(conditional_covariance_exact(sigma, 0, 2, (3,))) > 1e-4


def test_conditional_covariance_matches_marginal_precision_oracle():
    for seed in range(15):
        m = random_sparse_model(7, seed, target_alpha=0.5, diagonal_range=(1.0, 3.0))
        sigma = m.sigma()
        j = np.asarray(m.precision)
        for i, jj in ((0, 1), (2, 5), (3, 6)):
            for cond in ((), (4,), (2, 4) if i != 2 else (1, 4)):
                got = conditional_covariance_exact(sigma, i, jj, cond)
                want = marginal_precision_conditional_cov(j, i, jj, cond)
                assert got == pytest.approx(want, abs=1e-10)


def test_conditional_covariance_validation():
    sigma = np.eye(4)
    with pytest.raises(InvalidParameter):
        conditional_covariance_exact(sigma, 0, 1, (0,))
    with pytest.raises(InvalidParameter):
        conditional_covariance_exact(sigma, 0, 1, (2, 2))
    with pytest.raises(InvalidParameter):
        conditional_covariance_exact(sigma, 0, 7, ())
    with pytest.raises(InvalidParameter):
        conditional_covariance_exact(sigma, 0, 1, (9,))


def test_conditional_variance_positive():
    m = random_sparse_model(6, 3, target_alpha=0.5)
    sigma = m.sigma()
    for i in range(6):
        v = conditional_covariance_exact(sigma, i, i, tuple(x for x in range(6) if x != i))
        assert v > 0
        assert v <= sigma[i, i] + 1e-15  # conditioning never inflates variance


def test_synthesize_hits_alpha_target():
    for target in (0.2, 0.5, 0.8):
        m = synthesize_model(cycle_graph(8), target)
        assert abs(m.alpha - target) <= 1e-6
        assert m.meta["target_alpha"] == target
        assert m.meta["rho"] > 0


def test_synthesize_single_edge_entries():
    g = Graph(2, [(0, 1)])
    m = synthesize_model(g, 0.3)
    assert m.precision[0, 1] == pytest.approx(-0.3, abs=1e-6)
    assert m.precision[0, 0] == 1.0
    m2 = synthesize_model(g, 0.3, diagonal=2.0)
    assert m2.d_min == 2.0
    # alpha is scale free
    assert abs(m2.alpha - 0.3) <= 1e-6


def test_synthesize_sign_patterns():
    g = cycle_graph(6)
    att = synthesize_model(g, 0.4, sign_pattern="attractive")
    assert att.is_attractive()
    alt = synthesize_model(g, 0.4, sign_pattern="alternating")
    for u, v in g.edges:
        expected_sign = -1.0 if (u + v) % 2 == 0 else 1.0
        assert math.copysign(1.0, alt.precision[u, v]) == expected_sign
    r1 = synthesize_model(g, 0.4, sign_pattern="random", seed=9)
    r2 = synthesize_model(g, 0.4, sign_pattern="random", seed=9)
    assert np.array_equal(r1.precision, r2.precision)
    signs = {math.copysign(1.0, r1.precision[u, v]) for u, v in g.edges}
    assert signs == {1.0, -1.0}  # seed 9 mixes both signs on C6


def test_synthesize_rejects_bad_inputs():
    with pytest.raises(InvalidParameter):
        synthesize_model(cycle_graph(4), 1.5)
    with pytest.raises(InvalidParameter):
        synthesize_model(cycle_graph(4), 0.5, sign_pattern="sometimes")
    with pytest.raises(InvalidParameter):
        synthesize_model(cycle_graph(4), 0.5, diagonal=0.5)
    with pytest.raises(SynthesisFailed):
        synthesize_model(Graph(3, []), 0.5)


def test_model_validates_pattern_and_shape():
    g = chain_graph(3)
    good = np.array([[1.0, -0.3, 0.0], [-0.3, 1.0, -0.3], [0.0, -0.3, 1.0]])
    GaussianModel(g, good)
    bad_extra = good.copy()
    bad_extra[0, 2] = bad_extra[2, 0] = 0.1
    with pytest.raises(InvalidParameter):
        GaussianModel(g, bad_extra)
    bad_missing = good.copy()
    bad_missing[0, 1] = bad_missing[1, 0] = 0.0
    with pytest.raises(InvalidParameter):
        GaussianModel(g, bad_missing)
    with pytest.raises(InvalidParameter):
        GaussianModel(chain_graph(4), good)
    asym = good.copy()
    asym[0, 1] = -0.2
    with pytest.raises(InvalidParameter):
        GaussianModel(g, asym)
    with pytest.raises(NotPositiveDefinite):
        GaussianModel(g, 0.3 * good - np.diag([0.0, 0.29, 0.0]) @ np.eye(3))


def test_support_check_names_row_major_first_pair():
    g = chain_graph(5)
    good = np.eye(5) - 0.3 * g.adjacency_matrix()
    # (1, 4) precedes (2, 3) in row-major order but not in column-major
    bad = good.copy()
    bad[1, 4] = bad[4, 1] = 0.1
    bad[2, 3] = bad[3, 2] = 0.0
    with pytest.raises(InvalidParameter, match=r"^non-edge \(1, 4\) has nonzero precision entry$"):
        GaussianModel(g, bad)
    bad = good.copy()
    bad[0, 1] = bad[1, 0] = 0.0
    bad[0, 3] = bad[3, 0] = 0.1
    with pytest.raises(InvalidParameter, match=r"^edge \(0, 1\) has zero precision entry$"):
        GaussianModel(g, bad)


def test_model_does_not_mutate_input_and_is_frozen():
    g = chain_graph(3)
    j = np.array([[1.0, -0.3, 0.0], [-0.3, 1.0, -0.3], [0.0, -0.3, 1.0]])
    keep = j.copy()
    m = GaussianModel(g, j)
    j[0, 0] = 99.0
    assert np.array_equal(keep, m.precision) or m.precision[0, 0] == 1.0
    with pytest.raises(ValueError):
        m.precision[0, 0] = 5.0
    assert m.sigma() is m.sigma()  # cached


def test_model_entry_summaries():
    g = chain_graph(3)
    j = np.array([[2.0, -0.3, 0.0], [-0.3, 1.0, 0.5], [0.0, 0.5, 3.0]])
    m = GaussianModel(g, j)
    assert m.d_min == 1.0
    assert m.j_min == 0.3
    assert m.j_max == 0.5
    assert not m.is_attractive()
    empty = GaussianModel(Graph(2, []), np.eye(2))
    assert empty.j_min == math.inf and empty.j_max == 0.0


def test_check_assumptions_attractive_waiver():
    m = synthesize_model(cycle_graph(6), 0.5, sign_pattern="attractive")
    rep = check_assumptions(m, eta=1, gamma=2)
    assert isinstance(rep, AssumptionReport)
    assert rep.walk_summable and rep.attractive
    assert rep.a4_waived and rep.a4_satisfied
    assert rep.strength_ratio == pytest.approx(m.j_min / (m.d_min * m.alpha**2))
    d = rep.to_dict()
    assert d["eta"] == 1 and d["gamma"] == 2 and "0,1" in d["k_values"]


def test_check_assumptions_two_node_coupling_is_zero():
    m = synthesize_model(Graph(2, [(0, 1)]), 0.3, sign_pattern="alternating")
    rep = check_assumptions(m, eta=1, gamma=1)
    assert rep.k_values[(0, 1)] == 0.0
    assert rep.a4_lhs == math.inf
    assert rep.a4_satisfied


def test_edge_coupling_norms_match_dense_svd():
    m = synthesize_model(chain_graph(5), 0.4, sign_pattern="alternating")
    j = np.asarray(m.precision)
    ks = edge_coupling_norms(m)
    for (u, v), k in ks.items():
        rest = [x for x in range(5) if x not in (u, v)]
        block = j[np.ix_(rest, [u, v])]
        assert k == pytest.approx(np.linalg.norm(block, 2) ** 2, abs=1e-8)
    rep = check_assumptions(m, eta=1, gamma=2)
    lhs = min(m.d_min * (1 - m.alpha) * abs(j[u, v]) / ks[(u, v)] for u, v in m.graph.edges)
    assert rep.a4_lhs == pytest.approx(lhs)
    assert not rep.a4_waived


def _dense_block_coupling_norms(model) -> dict:
    """K(u, v) as the top eigenvalue of the Gram of J's (p - 2) x 2 block
    with rows u, v deleted and columns u, v kept, one dense gather per edge."""
    j = np.asarray(model.precision)
    out = {}
    for u, v in model.graph.edges:
        block = j[np.ix_([r for r in range(model.p) if r not in (u, v)], [u, v])]
        gram = block.T @ block
        tr = gram[0, 0] + gram[1, 1]
        disc = max(tr * tr - 4.0 * (gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]), 0.0)
        out[(u, v)] = float((tr + math.sqrt(disc)) / 2.0)
    return out


COUPLING_MODELS = {
    "er60": lambda s: synthesize_model(generate_er(60, 3.0, s), 0.6, sign_pattern="random", seed=s),
    "regular36": lambda s: synthesize_model(generate_regular(36, 3, s), 0.8, sign_pattern="random", seed=s),
    "torus6x6": lambda s: synthesize_model(torus_grid(6, 2), 0.5, sign_pattern="random", seed=s),
    # dense supports, so many edges lie on triangles and their columns overlap
    "sparse15": lambda s: random_sparse_model(15, s, 0.7, density=0.5, diagonal_range=(0.5, 3.0)),
}


@pytest.mark.parametrize("name", list(COUPLING_MODELS))
def test_edge_coupling_norms_match_dense_blocks(name):
    # K is summed on J's support, so it may round differently from the
    # dense per-edge Gram; 1e-12 relative is a few hundred roundings
    for seed in range(4):
        m = COUPLING_MODELS[name](seed)
        ref = _dense_block_coupling_norms(m)
        got = edge_coupling_norms(m)
        assert list(got) == list(ref)
        for edge, k in ref.items():
            assert got[edge] == pytest.approx(k, rel=1e-12, abs=0.0), edge


@settings(max_examples=40, deadline=None)
@given(st.integers(4, 12), st.integers(0, 2**32 - 1), st.sampled_from([0.3, 0.7, 0.95]),
       st.floats(0.15, 0.6), st.integers(1, 4))
def test_separator_conditional_covariance_obeys_the_walk_sum_bound(p, seed, alpha, density, gamma):
    # S cuts every path of length <= gamma between i and j, and a walk holds
    # a path between its ends, so every i-j walk avoiding S is longer than
    # gamma; every principal submatrix of |R| has spectral radius at most
    # alpha, so those walks sum to at most alpha^(gamma+1) / (1 - alpha)
    m = random_sparse_model(p, seed, alpha, density=density, diagonal_range=(0.5, 3.0))
    sigma, d = m.sigma(), np.diag(m.precision)
    walks = m.alpha ** (gamma + 1) / (1.0 - m.alpha)
    for (i, j), sep in separation_profile(m.graph, gamma).separators.items():
        bound = walks / math.sqrt(d[i] * d[j])
        assert abs(conditional_covariance_exact(sigma, i, j, sep)) <= bound * (1.0 + 1e-12), (i, j, sep)


def test_check_assumptions_validation():
    m = synthesize_model(chain_graph(3), 0.3)
    with pytest.raises(InvalidParameter):
        check_assumptions(m, eta=-1, gamma=0)
    with pytest.raises(InvalidParameter):
        check_assumptions(m, eta=1, gamma=1, delta=0.0)
    # a fractional radius would enter alpha**gamma unnoticed
    with pytest.raises(InvalidParameter, match="gamma must be int, got float 2.5"):
        check_assumptions(m, eta=1, gamma=2.5)
    with pytest.raises(InvalidParameter, match="eta must be int, got float 1.5"):
        check_assumptions(m, eta=1.5, gamma=2)


def test_conditional_covariance_diagonal_rescaling():
    # J = D^{1/2} (I - R) D^{1/2} divides conditional covariances by
    # sqrt(D_ii D_jj) relative to the normalized model
    m = random_sparse_model(7, 11, target_alpha=0.5, diagonal_range=(1.0, 5.0))
    j = np.asarray(m.precision)
    d = np.diag(j)
    r = m.partial_correlations()
    sigma_norm = exact_covariance(np.eye(7) - r)
    sigma = m.sigma()
    for i, jj in ((0, 3), (1, 5), (2, 6)):
        for cond in ((), (4,), (4, 5) if jj != 5 else (3, 4)):
            lhs = conditional_covariance_exact(sigma, i, jj, cond)
            rhs = conditional_covariance_exact(sigma_norm, i, jj, cond)
            assert lhs == pytest.approx(rhs / math.sqrt(d[i] * d[jj]), abs=1e-10)


def test_conditional_variance_cap_walk_summable():
    # normalized conditional variances stay below 1 / (1 - alpha)
    for seed in range(8):
        m = random_sparse_model(6, seed, target_alpha=0.6)
        sigma = exact_covariance(np.eye(6) - m.partial_correlations())
        cap = 1.0 / (1.0 - m.alpha)
        for i in range(6):
            others = [x for x in range(6) if x != i]
            for size in range(0, 4):
                for cond in combinations(others, size):
                    v = conditional_covariance_exact(sigma, i, i, cond)
                    assert v <= cap + 1e-9


def test_attractive_neighbor_conditional_covariance_floor():
    # in an attractive model, conditioning cannot push the covariance of an
    # edge below its two-node restriction |J_uv| / (J_uu J_vv - J_uv^2)
    rng = np.random.default_rng(5)
    for trial in range(10):
        m = random_sparse_model(6, trial, target_alpha=0.55, diagonal_range=(1.0, 2.0))
        j = np.asarray(m.precision)
        j = np.diag(np.diag(j)) - np.abs(j - np.diag(np.diag(j)))
        if np.min(np.linalg.eigvalsh(j)) <= 0:
            continue
        sigma = np.linalg.inv(j)
        for u, v in m.graph.edges:
            floor = abs(j[u, v]) / (j[u, u] * j[v, v] - j[u, v] ** 2)
            others = [x for x in range(6) if x not in (u, v)]
            for size in range(0, 3):
                for cond in combinations(others, size):
                    val = conditional_covariance_exact(sigma, u, v, cond)
                    assert val >= floor - 1e-12


def test_model_save_load_round_trip(tmp_path):
    m = synthesize_model(cycle_graph(7), 0.45, sign_pattern="random", seed=4)
    save_model(m, tmp_path / "model")
    back = load_model(tmp_path / "model")
    assert back.graph == m.graph
    assert np.array_equal(np.asarray(back.precision), np.asarray(m.precision))
    assert back.meta["sign_pattern"] == "random"
    assert back.alpha == pytest.approx(m.alpha, abs=1e-12)


@pytest.mark.parametrize("entry", ["model", "alpha", "partial", "covariance"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_precision_entries_are_rejected(entry, value):
    j = np.eye(3) - 0.3 * chain_graph(3).adjacency_matrix()
    # (0, 2) precedes (1, 0) in row-major order; (2, 0) stays finite
    j[1, 0] = j[0, 2] = value
    call = {
        "model": lambda m: GaussianModel(chain_graph(3), m),
        "alpha": walk_summability_alpha,
        "partial": partial_correlation_matrix,
        "covariance": exact_covariance,
    }[entry]
    with pytest.raises(InvalidParameter, match=rf"^precision matrix entry \(0, 2\) is {value}, not finite$"):
        call(j)


def test_exact_covariance_fails_closed_on_overflowing_inverse():
    # the inverse overflows to inf, so J Sigma - I holds 0 * inf = nan
    with pytest.raises(NumericFailure, match="^inverse residual nan exceeds"):
        exact_covariance(np.diag([1e-320, 1e-320]))


@st.composite
def certificate_cases(draw):
    """A symmetric J on a random graph: J = D^(1/2) (I - R) D^(1/2) with
    random signs on R and alpha drawn on both sides of 1 - margin and of 1;
    then one diagonal entry may be set to zero or a negative value."""
    p = draw(st.integers(2, 8))
    pairs = list(combinations(range(p), 2))
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    r = np.zeros((p, p))
    for u, v in edges:
        r[u, v] = r[v, u] = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    d = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=p, max_size=p)))
    spread = PD_CERTIFICATE_RTOL * float(d.max() / d.min())
    target = draw(st.one_of(st.floats(0.01, 1.5), st.floats(0.5, 2.0).map(lambda k: 1.0 - k * spread)))
    r *= target / float(np.linalg.eigvalsh(np.abs(r))[-1])
    root = np.sqrt(d)
    j = -root[:, None] * r * root[None, :]
    j = (j + j.T) / 2.0
    np.fill_diagonal(j, d)
    diagonal = draw(st.sampled_from(["positive", "zero", "negative"]))
    if diagonal != "positive":
        i = draw(st.integers(0, p - 1))
        j[i, i] = 0.0 if diagonal == "zero" else -draw(st.floats(0.01, 10.0))
    return Graph(p, edges), j


@settings(max_examples=200, deadline=None)
@given(certificate_cases())
def test_model_rejects_exactly_what_cholesky_rejects(case):
    graph, j = case
    try:
        _cholesky_pd(j)
        cholesky_ok = True
    except NotPositiveDefinite:
        cholesky_ok = False
    try:
        GaussianModel(graph, j)
        model_ok = True
    except NotPositiveDefinite:
        model_ok = False
    assert model_ok == cholesky_ok


@pytest.fixture
def cholesky_calls(monkeypatch):
    calls = []

    def spy(j):
        calls.append(j.shape)
        return _cholesky_pd(j)

    monkeypatch.setattr(model_module, "_cholesky_pd", spy)
    return calls


def test_walk_summable_models_load_without_cholesky(cholesky_calls):
    g = chain_graph(400)
    m = GaussianModel(g, np.eye(400) - 0.3 * g.adjacency_matrix())
    assert abs(m.alpha - 0.6 * math.cos(math.pi / 401)) <= 1e-12
    # 1 - alpha just above the margin
    m = GaussianModel(Graph(2, [(0, 1)]), np.array([[1.0, -(1 - 1.1e-6)], [-(1 - 1.1e-6), 1.0]]))
    assert m.alpha == 1 - 1.1e-6
    assert cholesky_calls == []


def test_cholesky_runs_where_the_certificate_does_not_hold(cholesky_calls):
    with pytest.raises(NotPositiveDefinite):
        GaussianModel(Graph(3), np.diag([1.0, 0.0, 1.0]))
    assert len(cholesky_calls) == 1
    # a frustrated triangle: alpha = 1.2 but lambda_min(J) = 0.4, so J loads
    m = GaussianModel(cycle_graph(3), np.eye(3) + 0.6 * cycle_graph(3).adjacency_matrix())
    assert m.alpha == pytest.approx(1.2, abs=1e-12)
    assert len(cholesky_calls) == 2
    # 1 - alpha just under the margin
    m = GaussianModel(Graph(2, [(0, 1)]), np.array([[1.0, -(1 - 0.9e-6)], [-(1 - 0.9e-6), 1.0]]))
    assert m.alpha == 1 - 0.9e-6
    assert len(cholesky_calls) == 3


@pytest.mark.parametrize("diagonal, edge", [
    (1e200, 1e201),  # d_i d_j overflows: sqrt(d_i d_j) would read inf and |R| 0
    (1e-150, 1e200),  # entries of |R| overflow, and eigvalsh fails on them at this p
], ids=["diagonal-product-overflows", "partial-correlation-overflows"])
def test_certificate_declines_what_it_cannot_read(diagonal, edge, cholesky_calls):
    g = chain_graph(60)
    with pytest.raises(NotPositiveDefinite):
        GaussianModel(g, diagonal * np.eye(60) + edge * g.adjacency_matrix())
    assert len(cholesky_calls) == 1


def test_subnormal_diagonal_products_fall_back_to_cholesky(cholesky_calls):
    # d_i d_j = 1e-320 is subnormal, so sqrt(d_i d_j) carries few bits
    m = GaussianModel(Graph(2, [(0, 1)]), np.array([[1e-160, -1e-161], [-1e-161, 1e-160]]))
    assert m.alpha == pytest.approx(0.1, rel=1e-3)
    assert len(cholesky_calls) == 1


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-200])
def test_alpha_does_not_depend_on_the_scale_of_j(scale):
    # sqrt(d_i d_j) is inf at 1e160, subnormal at 1e-160 and 0 at 1e-200;
    # pytest turns a RuntimeWarning into an error
    m = synthesize_model(chain_graph(20), 0.6)
    assert abs(GaussianModel(m.graph, scale * m.precision).alpha - m.alpha) <= 1e-12
    assert abs(walk_summability_alpha(scale * m.precision) - m.alpha) <= 1e-12
    assert np.abs(partial_correlation_matrix(scale * m.precision) - m.partial_correlations()).max() <= 1e-12


def reference_alpha(j: np.ndarray) -> float:
    """The top eigenvalue of |R| from the dense reference R, or inf where an
    entry of R overflows."""
    r = dense_partial_correlations(j)
    return max(float(np.linalg.eigvalsh(np.abs(r))[-1]), 0.0) if np.isfinite(r).all() else math.inf


@st.composite
def sparse_precisions(draw):
    """(graph, J) with J = c D^(1/2) (I - R) D^(1/2) on a random graph: R
    has random magnitudes and signs on the edges and alpha in (0, 1), the
    diagonal D is drawn from [0.5, 3] and the scale c is 1, 1e160 or 1e-200."""
    p = draw(st.integers(2, 10))
    pairs = list(combinations(range(p), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True))
    r = np.zeros((p, p))
    for u, v in edges:
        r[u, v] = r[v, u] = draw(st.floats(0.05, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
    if edges:
        r *= draw(st.floats(0.05, 0.95)) / float(np.linalg.eigvalsh(np.abs(r))[-1])
    d = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=p, max_size=p)))
    j = -np.sqrt(np.outer(d, d)) * r
    np.fill_diagonal(j, d)
    return Graph(p, edges), draw(st.sampled_from([1.0, 1e160, 1e-200])) * j


@settings(max_examples=150, deadline=None)
@given(sparse_precisions())
def test_r_and_alpha_are_the_dense_references_bit_for_bit(case):
    graph, j = case
    assert np.array_equal(partial_correlation_matrix(j), dense_partial_correlations(j))
    want = reference_alpha(j)
    assert walk_summability_alpha(j) == want
    assert GaussianModel(graph, j).alpha == want


@pytest.mark.parametrize("g, rho", [*((chain_graph(p), 0.3) for p in (100, 200, 300, 400)), (torus_grid(20, 2), 0.2)],
                         ids=["chain100", "chain200", "chain300", "chain400", "torus20x20"])
def test_alpha_of_large_sparse_models_is_the_dense_references(g, rho):
    # the precision matrices that the oracle-bp benchmark loads
    j = np.eye(g.p) - rho * g.adjacency_matrix()
    assert GaussianModel(g, j).alpha == walk_summability_alpha(j) == reference_alpha(j)


def test_r_and_alpha_overflow_as_the_dense_reference_does():
    # |R| = 1e200 / 1e-150 overflows; alpha is at least every entry of |R|
    j = 1e-150 * np.eye(3) + 1e200 * chain_graph(3).adjacency_matrix()
    r = partial_correlation_matrix(j)
    assert np.array_equal(r, dense_partial_correlations(j)) and np.isinf(r[0, 1])
    assert walk_summability_alpha(j) == reference_alpha(j) == math.inf


def test_subnormal_diagonal_loads():
    j = np.diag([1e-320, 1e-320])
    assert GaussianModel(Graph(2), j).alpha == walk_summability_alpha(j) == 0.0


def test_certificate_needs_a_positive_diagonal(monkeypatch):
    # with d_min < 0, an infinite alpha would make (1 - alpha) d_min = +inf
    monkeypatch.setattr(model_module, "_top_eigenvalue", lambda a: math.inf)
    j = np.array([[-1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        GaussianModel(Graph(2, [(0, 1)]), j)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.sampled_from([1.0, 1e160, 1e-200]))
def test_alpha_is_invariant_under_diagonal_and_signature_congruence(p, seed, alpha, scale):
    m = random_sparse_model(p, seed, alpha, diagonal_range=(0.2, 5.0))
    j = np.asarray(m.precision)
    rng = np.random.default_rng(seed)
    d = math.sqrt(scale) * rng.uniform(0.25, 4.0, size=p)
    s = rng.choice([-1.0, 1.0], size=p)
    # D J D leaves R unchanged up to the rounding of its entries, at any scale
    assert GaussianModel(m.graph, d[:, None] * j * d).alpha == pytest.approx(m.alpha, rel=1e-12, abs=0.0)
    # S J S only flips signs of R, so |R| and alpha are the same bit for bit
    assert GaussianModel(m.graph, s[:, None] * j * s).alpha == m.alpha
