import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ggmlearn import (
    EstimationResult,
    EstimatorConfig,
    InvalidParameter,
    PairDecision,
    chain_graph,
    cmit,
    conditional_covariance_exact,
    cycle_graph,
    default_threshold,
    edit_distance,
    local_separator,
    min_conditional_statistic,
    oracle_gap,
    sample,
    synthesize_model,
    torus_grid,
)
from ggmlearn.graph import Graph

from helpers import (
    marginal_precision_conditional_cov,
    naive_conditional_statistics,
    random_sparse_model,
)


def chain_model(p=8, alpha=0.5):
    return synthesize_model(chain_graph(p), alpha)


def test_default_threshold_value_and_validation():
    # 2 * sqrt(ln(50) / 4000), checked against 40-digit arithmetic
    assert default_threshold(4000, 50) == pytest.approx(0.06254616699229575, rel=1e-14)
    assert default_threshold(1000, 50, kappa=1.0) == pytest.approx(
        default_threshold(4000, 50) , rel=1e-14)
    with pytest.raises(InvalidParameter):
        default_threshold(0, 50)
    with pytest.raises(InvalidParameter):
        default_threshold(100, 1)
    with pytest.raises(InvalidParameter):
        default_threshold(100, 50, kappa=0.0)


@pytest.mark.parametrize("i, j, cond, message", [
    (0, 7, (), r"indices \(0, 7\) out of range for p=4"),
    (0, 1, (1,), "conditioning set must exclude i and j"),
    (0, 1, (2, 2), "conditioning set has repeated vertices"),
    (0, 1, (9,), r"conditioning set \[9\] out of range for p=4"),
])
def test_pair_validation_shared_with_exact_model(i, j, cond, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        conditional_covariance_exact(np.eye(4), i, j, cond)


def test_conditional_covariance_empty_set_is_entry():
    m = chain_model()
    sigma = m.sigma()
    assert conditional_covariance_exact(sigma, 2, 5) == float(sigma[2, 5])


def test_conditional_covariance_matches_exact_variant():
    m = random_sparse_model(7, 2, target_alpha=0.5, diagonal_range=(1.0, 3.0))
    sigma = np.asarray(m.sigma())
    j = np.asarray(m.precision)
    for i, jj, cond in ((0, 4, (1,)), (2, 6, (3, 5)), (1, 3, ())):
        got = conditional_covariance_exact(sigma, i, jj, cond)
        assert got == pytest.approx(marginal_precision_conditional_cov(j, i, jj, cond), abs=1e-10)


def test_conditional_covariance_flags_singular_block():
    sigma = np.array([
        [1.0, 0.5, 0.5, 0.5],
        [0.5, 1.0, 0.9, 0.9],
        [0.5, 0.9, 1.0, 1.0],
        [0.5, 0.9, 1.0, 1.0],
    ])
    # Sigma[(2, 3), (2, 3)] is singular, so the guard skips S = (2, 3); the
    # well conditioned S = (2,) gives 0.5 - 0.5 * 0.9 = 0.05
    dec = min_conditional_statistic(sigma, 0, 1, eta=2)
    assert dec.subset == (2,) and dec.status == "ok"
    assert dec.value == pytest.approx(0.05, abs=1e-15)


def test_conditional_mutual_information_values():
    sigma = np.array([[1.0, 0.6], [0.6, 1.0]])
    # -0.5 ln(1 - 0.36) = ln(1.25)
    dec = min_conditional_statistic(sigma, 0, 1, eta=0, statistic="mutual_information")
    assert dec.value == pytest.approx(0.22314355131420976, rel=1e-14)
    zero = np.eye(3)
    assert min_conditional_statistic(zero, 0, 2, eta=0, statistic="mutual_information").value == 0.0


def test_min_statistic_chain_separator_found():
    m = chain_model()
    dec = min_conditional_statistic(m.sigma(), 0, 2, eta=1)
    assert dec.status == "ok"
    assert dec.subset == (1,)
    assert dec.value < 1e-12
    edge = min_conditional_statistic(m.sigma(), 3, 4, eta=1)
    assert edge.value > 0.05


def test_min_statistic_monotone_in_eta():
    m = random_sparse_model(7, 5, target_alpha=0.5)
    sigma = m.sigma()
    for i, j in ((0, 3), (1, 5), (2, 6)):
        values = [min_conditional_statistic(sigma, i, j, eta).value for eta in range(4)]
        assert values == sorted(values, reverse=True) or all(
            values[k] >= values[k + 1] - 1e-15 for k in range(3))


def test_min_statistic_canonical_tie_break():
    # on the identity the empty set already achieves the minimum of zero,
    # and it comes first in the canonical subset order
    dec = min_conditional_statistic(np.eye(5), 0, 1, eta=2)
    assert dec.value == 0.0
    assert dec.subset == ()


def test_min_statistic_failed_status_for_degenerate_mi():
    # variance products of zero and below zero
    for sigma in (np.diag([0.0, 1.0]), np.array([[-1.0, 0.5], [0.5, 1.0]])):
        dec = min_conditional_statistic(sigma, 0, 1, eta=0, statistic="mutual_information")
        assert dec.status == "failed"
        assert math.isinf(dec.value)
        assert dec.subset is None
        cfg = EstimatorConfig(eta=0, statistic="mutual_information", xi=0.1, exact_mode=True)
        assert cmit(sigma, cfg).pairs[(0, 1)] == dec


def test_min_statistic_validation():
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 0, eta=1)
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 1, eta=-1)
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 1, eta=1, statistic="nope")


def test_min_statistic_deep_subsets_match_shallow_scan():
    # eta = 3 exercises the generic path; on a chain the eta = 1 minimum is
    # already a separator, so deeper conditioning cannot do better than zero
    m = chain_model(6)
    sigma = m.sigma()
    deep = min_conditional_statistic(sigma, 0, 3, eta=3)
    assert deep.value <= min_conditional_statistic(sigma, 0, 3, eta=1).value + 1e-15
    assert deep.value < 1e-10


def _ill_conditioned_triple():
    """Covariance of (x0, ..., x4) where x0 and x1 are independent given
    {2, 3, 4}, which determines g4, and given no smaller set; the block of
    {2, 3, 4} has condition number about 1e6, each pair in it below 10."""
    delta = 3e-3
    # x = B u for independent standard normal u = (e0, e1, g2, g3, g4)
    loadings = np.array([
        [1.0, 0.0, 1.0, 0.0, 1.0],     # x0 = g2 + g4 + e0
        [0.0, 1.0, 0.0, 1.0, 1.0],     # x1 = g3 + g4 + e1
        [0.0, 0.0, 1.0, 0.0, 0.0],     # x2 = g2
        [0.0, 0.0, 0.0, 1.0, 0.0],     # x3 = g3
        [0.0, 0.0, 1.0, 1.0, delta],   # x4 = g2 + g3 + delta g4
    ])
    return loadings @ loadings.T


def test_cond_limit_honoured_for_three_vertex_sets():
    sigma = _ill_conditioned_triple()
    block = sigma[2:, 2:]
    assert 1e3 < np.linalg.cond(block) < 1e12
    for pair in ((2, 3), (2, 4), (3, 4)):
        assert np.linalg.cond(sigma[np.ix_(pair, pair)]) < 10.0
    # the default limit admits the block, and it separates the pair
    loose = min_conditional_statistic(sigma, 0, 1, eta=3)
    assert loose.subset == (2, 3, 4) and loose.value < 1e-9
    strict_cfg = EstimatorConfig(eta=3, xi=1e-3, exact_mode=True, cond_limit=1e3)
    result = cmit(sigma, strict_cfg)
    dec = result.pairs[(0, 1)]
    assert dec.subset != (2, 3, 4)
    assert dec.value > 1e-3
    assert (0, 1) in result.edges
    assert min_conditional_statistic(sigma, 0, 1, eta=3, cond_limit=1e3) == dec


def test_cmit_exact_chain_recovery():
    m = chain_model(10)
    gap = oracle_gap(m, eta=1, gamma=2)
    assert gap.separable
    cfg = EstimatorConfig(eta=1, xi=gap.threshold_geometric, exact_mode=True)
    result = cmit(m, cfg)
    assert edit_distance(result.graph, m.graph) == 0
    assert result.n is None


def test_cmit_huge_threshold_gives_empty_graph():
    m = chain_model(6)
    result = cmit(m, EstimatorConfig(eta=1, xi=10.0, exact_mode=True))
    assert result.edges == ()


def test_cmit_threshold_is_strict():
    # isolated vertex: its conditional covariances vanish exactly, and a
    # zero threshold must still exclude those pairs
    g = Graph(3, [(0, 1)])
    m = synthesize_model(g, 0.4)
    result = cmit(m, EstimatorConfig(eta=1, xi=0.0, exact_mode=True))
    assert result.edges == ((0, 1),)


def test_cmit_exact_mode_requires_threshold():
    with pytest.raises(InvalidParameter):
        cmit(chain_model(4), EstimatorConfig(eta=1, exact_mode=True))


def test_cmit_permutation_equivariance():
    m = random_sparse_model(6, 8, target_alpha=0.5)
    sigma = np.asarray(m.sigma())
    cfg = EstimatorConfig(eta=1, xi=0.05, exact_mode=True)
    base = cmit(sigma, cfg)
    perm = np.array([3, 0, 5, 1, 4, 2])
    permuted = cmit(sigma[np.ix_(perm, perm)], cfg)
    mapped = {tuple(sorted((int(perm[u]), int(perm[v])))) for u, v in permuted.edges}
    assert mapped == set(base.edges)


def test_cmit_edges_monotone_in_threshold():
    m = chain_model(8)
    data = sample(m, 1500, seed=6)
    lo = cmit(data, EstimatorConfig(eta=1, xi=0.02))
    hi = cmit(data, EstimatorConfig(eta=1, xi=0.2))
    assert set(hi.edges) <= set(lo.edges)


def test_cmit_default_threshold_rule_used_in_sample_mode():
    m = chain_model(8)
    data = sample(m, 2000, seed=1)
    result = cmit(data, EstimatorConfig(eta=1))
    assert result.threshold == pytest.approx(default_threshold(2000, 8), rel=1e-14)


def test_cmit_sample_mode_recovers_chain():
    m = chain_model(8)
    data = sample(m, 4000, seed=11)
    result = cmit(data, EstimatorConfig(eta=1))
    assert edit_distance(result.graph, m.graph) == 0


def test_cmit_early_exit_same_edges():
    m = chain_model(12)
    data = sample(m, 2000, seed=3)
    full = cmit(data, EstimatorConfig(eta=1))
    fast = cmit(data, EstimatorConfig(eta=1, early_exit=True))
    assert fast.edges == full.edges
    statuses = {d.status for d in fast.pairs.values()}
    assert "early_exit" in statuses
    for d in fast.pairs.values():
        if d.status == "early_exit":
            assert d.value <= fast.threshold


def test_cmit_pairs_match_single_pair_scan():
    # the all-pairs walk and the per-pair scan share their arithmetic, so
    # every pair agrees exactly, on both statistics and through eta = 3
    m = random_sparse_model(9, 4, target_alpha=0.5)
    data = sample(m, 800, seed=5)
    sigma = data.empirical_covariance()
    for eta, statistic in ((2, "covariance"), (3, "mutual_information")):
        result = cmit(data, EstimatorConfig(eta=eta, statistic=statistic))
        for (u, v), dec in result.pairs.items():
            assert min_conditional_statistic(sigma, u, v, eta, statistic, n=800) == dec


def test_cmit_mi_exact_recovery():
    m = chain_model(8)
    sigma = m.sigma()
    mi_edge = min(
        min_conditional_statistic(sigma, u, v, 1, statistic="mutual_information").value
        for u, v in m.graph.edges)
    mi_non = max(
        min_conditional_statistic(sigma, u, v, 1, statistic="mutual_information").value
        for u in range(8) for v in range(u + 1, 8) if not m.graph.has_edge(u, v))
    assert mi_non < mi_edge
    xi = math.sqrt(math.sqrt(mi_edge * mi_non))  # threshold enters squared
    result = cmit(m, EstimatorConfig(eta=1, xi=xi, statistic="mutual_information", exact_mode=True))
    assert edit_distance(result.graph, m.graph) == 0
    assert result.statistic == "mutual_information"
    assert result.threshold == pytest.approx(xi * xi, rel=1e-15)


def test_cmit_sample_size_caps_subset_size():
    m = synthesize_model(cycle_graph(5), 0.4)
    data = sample(m, 3, seed=2)
    wide = cmit(data, EstimatorConfig(eta=4, xi=0.3))
    capped = cmit(data, EstimatorConfig(eta=2, xi=0.3))
    assert wide.edges == capped.edges
    for pair, dec in capped.pairs.items():
        assert wide.pairs[pair].value == dec.value
        assert wide.pairs[pair].subset == dec.subset
        assert dec.subset is None or len(dec.subset) <= 2


@st.composite
def scan_cases(draw):
    """(cmit source, config, covariance it scans, largest set size, whether
    exact ties make the canonical argmin observable)."""
    kind = draw(st.sampled_from(["sample", "exact", "identity", "blocks", "degenerate"]))
    p = draw(st.integers(3 if kind == "degenerate" else 2, 9))
    eta = draw(st.integers(0, 3))
    statistic = draw(st.sampled_from(["covariance", "mutual_information"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("sample", "degenerate"):
        # n below eta + 1 caps the set size at n - 1
        n = draw(st.integers(2, p + 3) if kind == "sample" else st.integers(1, 2))
        data = rng.standard_normal((n, p))
        if kind == "degenerate":
            # a zero column (variance products of zero) and two equal
            # columns (rho^2 of one); the scan and the oracle both get
            # these entries exactly, since the equal columns have unit
            # variance and n <= 2 allows sets of at most one vertex
            zero, a, b = draw(st.permutations(range(p)))[:3]
            data[:, zero] = 0.0
            data[:, a] = data[:, b] = rng.choice([-1.0, 1.0], n)
        sigma = data.T @ data / n
        sigma = (sigma + sigma.T) / 2.0
        cfg = EstimatorConfig(eta=eta, statistic=statistic, xi=0.3)
        return data, cfg, sigma, min(eta, n - 1), kind == "degenerate"
    if kind == "exact":
        x = rng.standard_normal((p + 2, p))
        sigma = x.T @ x / (p + 2)
    elif kind == "identity":
        sigma = np.eye(p)
    else:
        # exchangeable blocks: unit variances, covariance 0.5 inside a block
        cuts = sorted(draw(st.lists(st.integers(1, p - 1), max_size=3, unique=True)))
        sigma = 0.5 * np.eye(p)
        for lo, hi in zip([0, *cuts], [*cuts, p]):
            sigma[lo:hi, lo:hi] += 0.5
    cfg = EstimatorConfig(eta=eta, statistic=statistic, xi=0.3, exact_mode=True)
    return sigma, cfg, sigma, eta, kind != "exact"


@settings(max_examples=75, deadline=None)
@given(scan_cases())
def test_scan_matches_naive_enumeration(case):
    source, cfg, sigma, max_size, tie_heavy = case
    result = cmit(source, cfg)
    tables = {}
    for (u, v), dec in result.pairs.items():
        table = tables[(u, v)] = naive_conditional_statistics(sigma, u, v, max_size, cfg.statistic)
        best = min(value for value, _ in table)
        assert min_conditional_statistic(sigma, u, v, cfg.eta, cfg.statistic, n=result.n) == dec
        if math.isinf(best):
            assert dec == PairDecision(value=math.inf, subset=None, status="failed")
            continue
        assert dec.status == "ok"
        assert dec.value == pytest.approx(best, rel=1e-9, abs=1e-12)
        near = [subset for value, subset in table if value <= best + 1e-9 * (1.0 + best)]
        if tie_heavy:
            assert dec.subset == near[0]
        else:
            assert dec.subset in near
    early = cmit(source, replace(cfg, early_exit=True))
    assert early.edges == result.edges
    for (u, v), dec in early.pairs.items():
        # the running minimum at the end of the first size class that
        # reaches the threshold, else the full result
        running, stop = math.inf, None
        for size in range(max_size + 1):
            running = min([running] + [value for value, subset in tables[(u, v)] if len(subset) == size])
            if running <= early.threshold:
                stop = running
                break
        if stop is None:
            assert dec == result.pairs[(u, v)]
        else:
            assert dec.status == "early_exit"
            assert dec.value == pytest.approx(stop, rel=1e-9, abs=1e-12)


def test_estimation_result_json_round_trip():
    m = chain_model(6)
    data = sample(m, 500, seed=14)
    result = cmit(data, EstimatorConfig(eta=1))
    blob = json.dumps(result.to_dict())
    back = EstimationResult.from_dict(json.loads(blob))
    assert back.edges == result.edges
    assert back.threshold == result.threshold
    assert back.config == result.config
    assert back.pairs == result.pairs


def test_cmit_builds_pair_objects_on_demand(monkeypatch):
    built = []

    class CountingDecision(PairDecision):
        def __init__(self, *args, **kwargs):
            built.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr("ggmlearn.estimator.PairDecision", CountingDecision)
    data = sample(synthesize_model(cycle_graph(12), 0.5), 800, seed=3)
    # early exit at eta 2 hands the last open pairs to the per-pair scan
    result = cmit(data, EstimatorConfig(eta=2, early_exit=True))
    result.to_dict()
    assert built == []
    pairs = result.pairs
    assert len(built) == len(pairs) == 66 and result.pairs is pairs
    assert {d.status for d in pairs.values()} == {"ok", "early_exit"}
    with pytest.raises(TypeError):
        pairs[(0, 1)] = None


def test_scans_leave_no_reference_cycles():
    # a cycle would keep each scan's covariance copies alive until the
    # cyclic collector runs, which raises peak memory over many trials
    m = synthesize_model(cycle_graph(12), 0.5)
    data = sample(m, 800, seed=3)
    gc.collect()
    gc.disable()
    try:
        cmit(data, EstimatorConfig(eta=2, early_exit=True)).pairs
        cmit(data, EstimatorConfig(eta=3, statistic="mutual_information")).to_dict()
        min_conditional_statistic(m.sigma(), 0, 5, eta=2)
        oracle_gap(m, eta=1, gamma=2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_estimator_config_validation_and_round_trip():
    with pytest.raises(InvalidParameter):
        EstimatorConfig(eta=-1)
    with pytest.raises(InvalidParameter):
        EstimatorConfig(statistic="pearson")
    with pytest.raises(InvalidParameter):
        EstimatorConfig(xi=-0.1)
    cfg = EstimatorConfig(eta=2, xi=0.1, statistic="mutual_information")
    assert EstimatorConfig.from_dict(cfg.to_dict()) == cfg
    # configs saved while the scan had a thread-count knob still load
    assert EstimatorConfig.from_dict({**cfg.to_dict(), "threads": 4}) == cfg
    with pytest.raises(InvalidParameter, match="unknown key 'kapa'"):
        EstimatorConfig.from_dict({"kapa": 2.0})


def test_oracle_gap_chain_properties():
    m = chain_model(10)
    gap = oracle_gap(m, eta=1, gamma=2)
    assert gap.separable
    assert gap.c_min > gap.c_max > 0.0
    assert gap.c_max < gap.threshold_midpoint < gap.c_min
    assert gap.c_max < gap.threshold_geometric < gap.c_min
    assert gap.threshold_geometric == pytest.approx(math.sqrt(gap.c_min * gap.c_max))
    assert m.graph.has_edge(*gap.c_min_pair)
    assert not m.graph.has_edge(*gap.c_max_pair)


def test_oracle_gap_non_edges_tie_break_in_row_major_order():
    # on the 6 x 6 torus several non-edges share the largest statistic
    # exactly; the first of them in row-major order is reported
    m = synthesize_model(torus_grid(6, 2), 0.5)
    g, sigma = m.graph, m.sigma()
    values = {(u, v): abs(conditional_covariance_exact(sigma, u, v, local_separator(g, u, v, 2)))
              for u in range(g.p) for v in range(u + 1, g.p) if not g.has_edge(u, v)}
    top = [pair for pair, value in values.items() if value == max(values.values())]
    assert len(top) > 1
    gap = oracle_gap(m, eta=1, gamma=2)
    assert (gap.c_max, gap.c_max_pair) == (values[top[0]], top[0])


def test_oracle_gap_cycle_with_full_radius():
    m = synthesize_model(cycle_graph(6), 0.5)
    gap = oracle_gap(m, eta=2, gamma=5)
    assert gap.separable
    result = cmit(m, EstimatorConfig(eta=2, xi=gap.threshold_midpoint, exact_mode=True))
    assert edit_distance(result.graph, m.graph) == 0
