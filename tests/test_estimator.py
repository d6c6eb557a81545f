import gc
import hashlib
import itertools
import json
import math
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    empirical_covariance,
    generate_er,
    local_separator,
    min_conditional_statistic,
    oracle_gap,
    sample,
    synthesize_model,
    torus_grid,
)
from ggmlearn.estimator import STATISTICS, STATUSES
from ggmlearn.graph import Graph
from ggmlearn.io import load_result, save_result

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


@pytest.mark.parametrize("call, message", [
    (lambda s: conditional_covariance_exact(s, 0, 2, (1.7,)), "vertex must be int, got float 1.7"),
    (lambda s: conditional_covariance_exact(s, 0, 2, (True,)), "vertex must be int, got bool True"),
    (lambda s: conditional_covariance_exact(s, 0, 2, ("1",)), "vertex must be int, got str '1'"),
    (lambda s: conditional_covariance_exact(s, 0, 2.0, (1,)), "vertex must be int, got float 2.0"),
    (lambda s: conditional_covariance_exact(s, True, 2), "vertex must be int, got bool True"),
    (lambda s: min_conditional_statistic(s, 0, 1.5, 1), "vertex must be int, got float 1.5"),
    (lambda s: min_conditional_statistic(s, 0, 1, 1, n=10.5), "n must be int, got float 10.5"),
    (lambda s: min_conditional_statistic(s, 0, 1, 1, n=True), "n must be int, got bool True"),
], ids=["set-float", "set-bool", "set-str", "j-float", "i-bool", "pair-j-float", "pair-n-float", "pair-n-bool"])
def test_non_integer_labels_and_sample_sizes_are_rejected(call, message):
    # int() used to read 1.7, True and "1" as vertex 1, and a float i or j
    # ended in an IndexError
    with pytest.raises(InvalidParameter, match=f"^{re.escape(message)}$"):
        call(np.eye(4) + 0.1)


def test_numpy_integer_labels_are_accepted():
    sigma = chain_model().sigma()
    assert conditional_covariance_exact(sigma, np.int64(0), np.int32(2), (np.int64(1), 3)) == \
        conditional_covariance_exact(sigma, 0, 2, (1, 3))
    assert min_conditional_statistic(sigma, np.int64(0), 2, 1, n=np.int64(50)) == \
        min_conditional_statistic(sigma, 0, 2, 1, n=50)


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


def _indefinite_covariances():
    # conditioning on 4 leaves Var(0 | 4) = 1 - 2^2 = -3 and Var(2 | 4) =
    # 1 - 1^2 = 0; the first puts a negative variance product on row 0
    conditioned = np.eye(5)
    for i, j, c in [(0, 4, 2.0), (2, 4, 1.0), (0, 1, 0.3), (1, 4, 0.5), (2, 3, 0.4), (1, 2, 0.2), (0, 3, 0.1)]:
        conditioned[i, j] = conditioned[j, i] = c
    # a variance of -0.0 makes the variance products of its row -0.0
    signed_zero = np.eye(4)
    signed_zero[3, 3] = -0.0
    for i, j, c in [(0, 3, 0.5), (1, 3, 0.2), (0, 1, 0.3)]:
        signed_zero[i, j] = signed_zero[j, i] = c
    return [(conditioned, 1), (conditioned, 2), (signed_zero, 0), (signed_zero, 1)]


@pytest.mark.parametrize("sigma, eta", _indefinite_covariances(),
                         ids=["negative-eta1", "negative-eta2", "signed-zero-eta0", "signed-zero-eta1"])
def test_mi_scan_masks_nonpositive_conditional_variances(sigma, eta):
    if len(sigma) == 5:
        c = sigma[[0, 2], 4]
        assert (np.diag(sigma)[[0, 2]] - c * c / sigma[4, 4]).tolist() == [-3.0, 0.0]
    cfg = EstimatorConfig(eta=eta, statistic="mutual_information", xi=0.1, exact_mode=True, early_exit=False)
    result = cmit(sigma, cfg)
    statuses = set()
    for (u, v), dec in result.pairs.items():
        table = naive_conditional_statistics(sigma, u, v, eta, cfg.statistic)
        best = min(value for value, _ in table)
        assert min_conditional_statistic(sigma, u, v, eta, cfg.statistic) == dec
        statuses.add(dec.status)
        if math.isinf(best):
            assert dec == PairDecision(value=math.inf, subset=None, status="failed")
        else:
            assert dec.value == pytest.approx(best, rel=1e-12) and dec.value >= 0.0
            assert dec.subset == next(subset for value, subset in table if value <= best + 1e-12)
    assert statuses == {"ok", "failed"}


def test_min_statistic_validation():
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 0, eta=1)
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 1, eta=-1)
    with pytest.raises(InvalidParameter):
        min_conditional_statistic(np.eye(3), 0, 1, eta=1, statistic="nope")


@pytest.mark.parametrize("call, message", [
    (lambda: EstimatorConfig(cond_limit=-1), "cond_limit must be at least 1, got -1"),
    (lambda: EstimatorConfig(cond_limit=0.5), "cond_limit must be at least 1, got 0.5"),
    (lambda: EstimatorConfig(cond_limit=math.nan), "cond_limit must be at least 1, got nan"),
    (lambda: EstimatorConfig(xi=math.nan), "threshold must be nonnegative, got nan"),
    (lambda: cmit(np.ones((5, 3)), EstimatorConfig(kappa=math.nan)), "kappa must be positive, got nan"),
    (lambda: default_threshold(100, 10, math.inf), "kappa must be finite, got inf"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 2, cond_limit=-1), "cond_limit must be at least 1, got -1"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 2, cond_limit=0.5), "cond_limit must be at least 1, got 0.5"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 2, cond_limit=math.nan),
     "cond_limit must be at least 1, got nan"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 1, n=0), "need n >= 1 samples, got n=0"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 1, n=-3), "need n >= 1 samples, got n=-3"),
    (lambda: min_conditional_statistic(np.ones((3, 4)), 0, 1, 1), r"covariance matrix must be square, got shape \(3, 4\)"),
    (lambda: EstimatorConfig(eta=1.5), "eta must be int, got float 1.5"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, 1.5), "eta must be int, got float 1.5"),
    (lambda: min_conditional_statistic(np.eye(3), 0, 1, -1), "eta must be nonnegative, got -1"),
], ids=["config-cond-limit-negative", "config-cond-limit-half", "config-cond-limit-nan", "config-xi-nan", "kappa-nan",
        "threshold-kappa-inf", "pair-cond-limit-negative", "pair-cond-limit-half", "pair-cond-limit-nan", "pair-n-zero",
        "pair-n-negative", "pair-not-square", "config-eta-float", "pair-eta-float", "pair-eta-negative"])
def test_invalid_estimator_inputs_are_rejected(call, message):
    # the guard's ratio, largest variance over smallest pivot, is at least 1,
    # so a smaller limit would fail every non-empty set instead of reporting an error
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


# one triangle of each holds the entries the other lacks; before the check
# each matrix and its transpose gave different results: edge (0, 1) or
# none, and a conditional covariance of 0.44 or 0.18
SKEW_2 = np.array([[1.0, 0.5], [0.0, 1.0]])
SKEW_3 = np.array([[1.0, 0.5, 0.3], [0.2, 1.0, 0.1], [0.2, 0.2, 1.0]])
EXACT = EstimatorConfig(eta=1, xi=0.1, exact_mode=True)


@pytest.mark.parametrize("call, message", [
    (lambda: cmit(SKEW_2, EXACT), "covariance matrix must be symmetric"),
    (lambda: cmit(SKEW_2.T, EXACT), "covariance matrix must be symmetric"),
    (lambda: min_conditional_statistic(SKEW_2, 0, 1, 1), "covariance matrix must be symmetric"),
    (lambda: min_conditional_statistic(SKEW_2.T, 0, 1, 1), "covariance matrix must be symmetric"),
    (lambda: conditional_covariance_exact(SKEW_3, 0, 1, (2,)), "covariance matrix must be symmetric"),
    (lambda: conditional_covariance_exact(SKEW_3.T, 0, 1, (2,)), "covariance matrix must be symmetric"),
    (lambda: cmit(np.eye(2) + 0j, EXACT), "covariance matrix must be real, got a complex128 array"),
    (lambda: cmit(np.ones((5, 2)) * 1j, EstimatorConfig()), "data matrix must be real, got a complex128 array"),
    (lambda: min_conditional_statistic(np.eye(2) + 0j, 0, 1, 1),
     "covariance matrix must be real, got a complex128 array"),
    (lambda: conditional_covariance_exact(np.eye(3) + 0j, 0, 1, (2,)),
     "covariance matrix must be real, got a complex128 array"),
], ids=["cmit-upper", "cmit-lower", "min-upper", "min-lower", "conditional-upper", "conditional-lower", "cmit-complex",
        "cmit-sample-complex", "min-complex", "conditional-complex"])
def test_covariance_must_be_symmetric_and_real(call, message):
    with pytest.raises(InvalidParameter, match=f"^{message}$"):
        call()


def test_covariance_within_the_symmetry_tolerance_is_averaged():
    skew = np.array(chain_model(5).sigma())
    skew[0, 2] += 1e-14
    calls = (lambda s: conditional_covariance_exact(s, 0, 1, (2,)), lambda s: min_conditional_statistic(s, 0, 1, 2),
             lambda s: cmit(s, EXACT).values.tobytes())
    for call in calls:
        assert call(skew) == call(skew.T) == call((skew + skew.T) / 2.0)
    # conditional_covariance_exact reads, and checks, only the block on (i, j, S)
    want = calls[0](skew)
    skew[3, 4] += 0.5
    assert calls[0](skew) == want


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
    strict_cfg = EstimatorConfig(eta=3, xi=1e-3, exact_mode=True, cond_limit=1e3, early_exit=False)
    result = cmit(sigma, strict_cfg)
    dec = result.pairs[(0, 1)]
    assert dec.subset != (2, 3, 4)
    assert dec.value > 1e-3
    assert (0, 1) in result.edges
    assert min_conditional_statistic(sigma, 0, 1, eta=3, cond_limit=1e3) == dec
    # the guard bounds r = largest variance / smallest pivot (Cholesky
    # pivots, in ascending order), which is at most the condition number;
    # relabelling x4 as 2 puts the largest variance before the smallest pivot
    for order in ([0, 1, 2, 3, 4], [0, 1, 4, 2, 3]):
        s = sigma[np.ix_(order, order)]
        block = s[2:, 2:]
        r = block.diagonal().max() / np.square(np.linalg.cholesky(block).diagonal()).min()
        assert 1e5 < r <= np.linalg.cond(block)
        for factor, admitted in ((1 - 1e-6, False), (1 + 1e-6, True)):
            cfg = replace(strict_cfg, cond_limit=r * factor)
            dec = min_conditional_statistic(s, 0, 1, eta=3, cond_limit=cfg.cond_limit)
            assert (dec.subset == (2, 3, 4)) is admitted
            assert cmit(s, cfg).pairs[(0, 1)] == dec


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
    full = cmit(data, EstimatorConfig(eta=1, early_exit=False))
    fast = cmit(data, EstimatorConfig(eta=1, early_exit=True))
    assert fast.edges == full.edges
    statuses = {d.status for d in fast.pairs.values()}
    assert "early_exit" in statuses
    for d in fast.pairs.values():
        if d.status == "early_exit":
            assert d.value <= fast.threshold


@pytest.mark.parametrize("seed, eta", [(0, 0), (1, 1), (4, 1)])
def test_early_exit_marks_only_pairs_stopped_before_the_last_size(seed, eta):
    x = np.random.default_rng(seed).standard_normal((200, 6))
    early = cmit(x, EstimatorConfig(eta=eta, xi=0.1))
    full = cmit(x, EstimatorConfig(eta=eta, xi=0.1, early_exit=False))
    # a pair stops when its minimum over the sizes below the last is at or below xi
    below = cmit(x, EstimatorConfig(eta=eta - 1, xi=0.1, early_exit=False)).values <= 0.1 if eta else False
    stopped = early.status == STATUSES.index("early_exit")
    assert np.array_equal(stopped, np.broadcast_to(below, stopped.shape))
    assert early.values[~stopped].tobytes() == full.values[~stopped].tobytes()
    assert np.array_equal(early.status[~stopped], full.status[~stopped])
    # some non-edge first reaches xi in the last size class and keeps "ok"
    assert np.any(~stopped & (full.values <= 0.1))


def test_cmit_pairs_match_single_pair_scan():
    # cmit completes all pairs together and min_conditional_statistic one pair
    # alone, with the same operations per pair and set, so every pair agrees
    # exactly, on both statistics and through eta = 3
    m = random_sparse_model(9, 4, target_alpha=0.5)
    data = sample(m, 800, seed=5)
    sigma = data.empirical_covariance()
    for eta, statistic in ((2, "covariance"), (3, "mutual_information")):
        result = cmit(data, EstimatorConfig(eta=eta, statistic=statistic, early_exit=False))
        for (u, v), dec in result.pairs.items():
            assert min_conditional_statistic(sigma, u, v, eta, statistic, n=800) == dec


def _quantized(x, step):
    # inputs on a coarse binary grid make X^T X exact, so the scanned
    # covariances do not depend on the BLAS summation order
    return np.round(np.asarray(x) / step) * step


def digest_models(kind: str) -> dict:
    """eta -> model of the ``er`` or ``cycle`` families of ``_digest_runs``."""
    if kind == "er":
        return {eta: synthesize_model(generate_er(p, 4.0, 1), 0.8, sign_pattern="random", seed=2)
                for eta, p in ((0, 40), (1, 40), (2, 30), (3, 20))}
    return dict.fromkeys(range(4), synthesize_model(cycle_graph(12), 0.5))


def _digest_runs(family: str) -> dict:
    """eta -> (cmit source, n or None, exact-mode xi or None) of a family:
    ER c=4 models (p = 40, 40, 30, 20 for eta = 0..3), whose open pairs
    after a size class range from all pairs (full scans) to a few with
    early exit, and a 12-cycle, whose n=3 samples cap the sets at two
    vertices."""
    kind, mode = family.split("-")
    models = digest_models(kind)
    if mode == "exact":
        xi = 0.01 if kind == "er" else 0.05
        return {eta: (_quantized(m.sigma(), 2.0**-30), None, xi) for eta, m in models.items()}
    n = 3 if mode == "n3" else 5000 if kind == "er" else 800
    return {eta: (_quantized(sample(m, n, 3).data, 2.0**-6), n, None) for eta, m in models.items()}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def _hex(x):
    return None if x is None else float(x).hex()


def pair_records(result: EstimationResult) -> dict:
    """Every pair's record as ``summary()`` writes an edge's: keyed "u,v",
    value None for a failed pair, set as a list."""
    return {
        f"{u},{v}": {"value": None if math.isinf(d.value) else d.value,
                     "subset": None if d.subset is None else list(d.subset), "status": d.status}
        for (u, v), d in result.pairs.items()
    }


def _scan_digests(family: str, runs: dict) -> dict:
    """Digests of ``cmit`` (the header of ``summary()`` but ``elapsed_s``
    and every pair's record, values as ``float.hex``) for every eta,
    statistic and ``early_exit``, and of ``min_conditional_statistic`` on
    every 7th pair."""
    out = {}
    for eta, (source, n, xi) in runs.items():
        for statistic in STATISTICS:
            for early_exit in (False, True):
                cfg = EstimatorConfig(eta=eta, statistic=statistic, xi=xi, exact_mode=n is None,
                                      early_exit=early_exit)
                result = cmit(source, cfg)
                d = {k: v for k, v in result.summary().items()
                     if k not in ("elapsed_s", "edge_records", "status_counts")}
                d["threshold"] = _hex(d["threshold"])
                d["pairs"] = pair_records(result)
                for rec in d["pairs"].values():
                    rec["value"] = _hex(rec["value"])
                out[f"{family}/cmit/{eta}/{statistic}/{int(early_exit)}"] = _digest(d)
            sigma = source if n is None else empirical_covariance(source)
            p = len(sigma)
            pairs = [(u, v) for u in range(p) for v in range(u + 1, p)][::7]
            decisions = [min_conditional_statistic(sigma, u, v, eta, statistic, n=n) for u, v in pairs]
            out[f"{family}/min/{eta}/{statistic}"] = _digest(
                [[_hex(d.value), d.subset, d.status] for d in decisions])
    return out


# digests of _scan_digests and _oracle_gap_digests; a refactor of the scan
# must leave every entry as it is.  The early-exit ("/1") entries moved once,
# when pairs that first reach the threshold in the last size class kept
# status "ok" instead of "early_exit"; their values and sets did not move
SCAN_DIGESTS = {
    "er-sample/cmit/0/covariance/0": "73c25ea85ec0521d",
    "er-sample/cmit/0/covariance/1": "7995609528ecca4d",
    "er-sample/min/0/covariance": "363d180d96817cf4",
    "er-sample/cmit/0/mutual_information/0": "6a9fd9fa94358eaa",
    "er-sample/cmit/0/mutual_information/1": "72634c4778879998",
    "er-sample/min/0/mutual_information": "6fe7c9fbca5287a8",
    "er-sample/cmit/1/covariance/0": "aa28cb34cdf84c8f",
    "er-sample/cmit/1/covariance/1": "39542a28f9e385d1",
    "er-sample/min/1/covariance": "efc4bb5a25785e4b",
    "er-sample/cmit/1/mutual_information/0": "209a2a1dbc3be46f",
    "er-sample/cmit/1/mutual_information/1": "60da1d208e24641e",
    "er-sample/min/1/mutual_information": "908e965c62112fd5",
    "er-sample/cmit/2/covariance/0": "e4915bd1a6dad75a",
    "er-sample/cmit/2/covariance/1": "f3de5bcb33eedc6b",
    "er-sample/min/2/covariance": "b2cf51ffb9067721",
    "er-sample/cmit/2/mutual_information/0": "d39a5f87225fe038",
    "er-sample/cmit/2/mutual_information/1": "aee00b45bf7b5759",
    "er-sample/min/2/mutual_information": "40890901b32413bb",
    "er-sample/cmit/3/covariance/0": "20112e61c1644576",
    "er-sample/cmit/3/covariance/1": "ef3da1a50f022d5d",
    "er-sample/min/3/covariance": "1077f57df1d7065f",
    "er-sample/cmit/3/mutual_information/0": "25779adebc00a509",
    "er-sample/cmit/3/mutual_information/1": "2cec18ca9039da36",
    "er-sample/min/3/mutual_information": "39dfeab21e71e290",
    "er-exact/cmit/0/covariance/0": "6a21e6c917786a06",
    "er-exact/cmit/0/covariance/1": "3fa5069066316ee2",
    "er-exact/min/0/covariance": "39d4428f2a76c521",
    "er-exact/cmit/0/mutual_information/0": "1882440d55f15b90",
    "er-exact/cmit/0/mutual_information/1": "686398a0fd55a1f0",
    "er-exact/min/0/mutual_information": "1afb4c8b5c693c7e",
    "er-exact/cmit/1/covariance/0": "8cc80e4d16834eac",
    "er-exact/cmit/1/covariance/1": "1b9537b98a367452",
    "er-exact/min/1/covariance": "27b4474357c19089",
    "er-exact/cmit/1/mutual_information/0": "af40b9723e81e556",
    "er-exact/cmit/1/mutual_information/1": "63f87cb1c26f5b2a",
    "er-exact/min/1/mutual_information": "23d50527e703eb80",
    "er-exact/cmit/2/covariance/0": "d074ea28c7043f4f",
    "er-exact/cmit/2/covariance/1": "db2cf1a78e610918",
    "er-exact/min/2/covariance": "1faa4ecfcfb162b5",
    "er-exact/cmit/2/mutual_information/0": "ea84251d4fceb84e",
    "er-exact/cmit/2/mutual_information/1": "87a9fa2a6ab6f3e3",
    "er-exact/min/2/mutual_information": "b66f8d4abafb0dd4",
    "er-exact/cmit/3/covariance/0": "60118e1adf3855a7",
    "er-exact/cmit/3/covariance/1": "1c4a44cf54a187d3",
    "er-exact/min/3/covariance": "49844802411bd186",
    "er-exact/cmit/3/mutual_information/0": "cfc3011c35b5c51b",
    "er-exact/cmit/3/mutual_information/1": "e477aad566bf4d14",
    "er-exact/min/3/mutual_information": "68fb07fa8393a923",
    "cycle-sample/cmit/0/covariance/0": "7e263610458eb6e3",
    "cycle-sample/cmit/0/covariance/1": "19db39d254c5c035",
    "cycle-sample/min/0/covariance": "d3a8b69703c1a992",
    "cycle-sample/cmit/0/mutual_information/0": "df12f6a6495f440a",
    "cycle-sample/cmit/0/mutual_information/1": "0c00f109f7d1a271",
    "cycle-sample/min/0/mutual_information": "331f17efed3ea295",
    "cycle-sample/cmit/1/covariance/0": "1de21f7bc96d7088",
    "cycle-sample/cmit/1/covariance/1": "f67fc809bce66a79",
    "cycle-sample/min/1/covariance": "1ef7cb1b54590277",
    "cycle-sample/cmit/1/mutual_information/0": "ea39065105a07351",
    "cycle-sample/cmit/1/mutual_information/1": "625b86eea36fd924",
    "cycle-sample/min/1/mutual_information": "9ab12f05d28c39a4",
    "cycle-sample/cmit/2/covariance/0": "3ff26c6bae223a1f",
    "cycle-sample/cmit/2/covariance/1": "cc96f83c8422eb0b",
    "cycle-sample/min/2/covariance": "5049ea2196e98ec4",
    "cycle-sample/cmit/2/mutual_information/0": "6300276002a6e008",
    "cycle-sample/cmit/2/mutual_information/1": "5675d4c6d792f25d",
    "cycle-sample/min/2/mutual_information": "a7c18627d3e61157",
    "cycle-sample/cmit/3/covariance/0": "d08f138e6a454fa4",
    "cycle-sample/cmit/3/covariance/1": "08984e201acc123a",
    "cycle-sample/min/3/covariance": "631e90c869f64595",
    "cycle-sample/cmit/3/mutual_information/0": "0d44db9040a4017b",
    "cycle-sample/cmit/3/mutual_information/1": "f19f384e27c30854",
    "cycle-sample/min/3/mutual_information": "4ff5f2d546577479",
    "cycle-n3/cmit/0/covariance/0": "27e513b5a3e26be7",
    "cycle-n3/cmit/0/covariance/1": "f079a885602418b6",
    "cycle-n3/min/0/covariance": "aae9f2e7ae3d1236",
    "cycle-n3/cmit/0/mutual_information/0": "4b15d734400af9a5",
    "cycle-n3/cmit/0/mutual_information/1": "02b4454a07a6c199",
    "cycle-n3/min/0/mutual_information": "920b128788c8c4e8",
    "cycle-n3/cmit/1/covariance/0": "7f90490480fa9947",
    "cycle-n3/cmit/1/covariance/1": "9d93b0048cf5c132",
    "cycle-n3/min/1/covariance": "53d1fa084d0b521e",
    "cycle-n3/cmit/1/mutual_information/0": "208de8791082bb6b",
    "cycle-n3/cmit/1/mutual_information/1": "8222a47fd53bbb6f",
    "cycle-n3/min/1/mutual_information": "1968287be75ce7c0",
    "cycle-n3/cmit/2/covariance/0": "b49a75931e894dc9",
    "cycle-n3/cmit/2/covariance/1": "0778fef8f3f34e68",
    "cycle-n3/min/2/covariance": "f222f6a2ccba5948",
    "cycle-n3/cmit/2/mutual_information/0": "0ca03766a231318e",
    "cycle-n3/cmit/2/mutual_information/1": "f202483edfa91167",
    "cycle-n3/min/2/mutual_information": "1968287be75ce7c0",
    "cycle-n3/cmit/3/covariance/0": "0f0704d72ca7fd39",
    "cycle-n3/cmit/3/covariance/1": "0d1bb0f3ee2443b8",
    "cycle-n3/min/3/covariance": "f222f6a2ccba5948",
    "cycle-n3/cmit/3/mutual_information/0": "1ddeb096f4dd29b0",
    "cycle-n3/cmit/3/mutual_information/1": "87aadc0351465a91",
    "cycle-n3/min/3/mutual_information": "1968287be75ce7c0",
    "cycle-exact/cmit/0/covariance/0": "39716e0a18bfdc87",
    "cycle-exact/cmit/0/covariance/1": "204b7f94608af4ea",
    "cycle-exact/min/0/covariance": "4db63049b43c4b88",
    "cycle-exact/cmit/0/mutual_information/0": "cd6bd3a4ec964fde",
    "cycle-exact/cmit/0/mutual_information/1": "3fd2e393b65bab7c",
    "cycle-exact/min/0/mutual_information": "d1e61412446b333f",
    "cycle-exact/cmit/1/covariance/0": "41b693df7507c7f4",
    "cycle-exact/cmit/1/covariance/1": "74200f4ccc85f129",
    "cycle-exact/min/1/covariance": "261fbcff2bc2fa76",
    "cycle-exact/cmit/1/mutual_information/0": "e32962eb13687b98",
    "cycle-exact/cmit/1/mutual_information/1": "831ccdbf100ff4e8",
    "cycle-exact/min/1/mutual_information": "1de81847ef04cf97",
    "cycle-exact/cmit/2/covariance/0": "781c85a876610e35",
    "cycle-exact/cmit/2/covariance/1": "76bed7ab240b41c2",
    "cycle-exact/min/2/covariance": "7f00a1bb58da99e7",
    "cycle-exact/cmit/2/mutual_information/0": "61aa6b6efb5f678f",
    "cycle-exact/cmit/2/mutual_information/1": "f153017f431f3dbb",
    "cycle-exact/min/2/mutual_information": "bfa69ec46530a77a",
    "cycle-exact/cmit/3/covariance/0": "fdd98c4b36c8b8d8",
    "cycle-exact/cmit/3/covariance/1": "abd381b11701f358",
    "cycle-exact/min/3/covariance": "22b1713c956e974a",
    "cycle-exact/cmit/3/mutual_information/0": "cd5b5df3df152c70",
    "cycle-exact/cmit/3/mutual_information/1": "5be825b46348b878",
    "cycle-exact/min/3/mutual_information": "9878da2a13e030c5",
}

ORACLE_GAP_DIGESTS = {
    "torus6x6/1/2": "2e2a09ca977a0257",
    "torus6x6/2/2": "ed550e16aab11c02",
    "cycle6/1/2": "cfbdd1e563822db4",
    "cycle6/2/5": "8092e74291bb8567",
}


@pytest.mark.parametrize("family", ["er-sample", "er-exact", "cycle-sample", "cycle-n3", "cycle-exact"])
def test_scan_digests_pinned(family):
    got = _scan_digests(family, _digest_runs(family))
    assert got == {k: v for k, v in SCAN_DIGESTS.items() if k.startswith(family + "/")}


def oracle_gap_models() -> dict:
    """name -> (model, its (eta, gamma) runs) of ``ORACLE_GAP_DIGESTS``."""
    return {"torus6x6": (synthesize_model(torus_grid(6, 2), 0.5), ((1, 2), (2, 2))),
            "cycle6": (synthesize_model(cycle_graph(6), 0.5), ((1, 2), (2, 5)))}


def _oracle_gap_digests() -> dict:
    out = {}
    for name, (m, runs) in oracle_gap_models().items():
        for eta, gamma in runs:
            gap = oracle_gap(m, eta=eta, gamma=gamma)
            out[f"{name}/{eta}/{gamma}"] = _digest([_hex(gap.c_min), _hex(gap.c_max), gap.separable,
                                                    gap.c_min_pair, gap.c_max_pair])
    return out


def test_oracle_gap_digests_pinned():
    assert _oracle_gap_digests() == ORACLE_GAP_DIGESTS


@pytest.mark.parametrize("chunk", [5, 64])
def test_completion_chunks_give_the_default_result(monkeypatch, chunk):
    # tier-1 inputs never fill a 2^15-entry chunk.  5 entries are fewer than
    # the 12-cycle's 12 open vertices, so its pairs go in blocks of two, each
    # with its own vertex arrays, and the sets one at a time, which splits
    # every run of sets (m, l) with one m.  64 entries take 5 sets at a time
    # on 12 vertices, and the 66 pairs of a full scan in groups of 12 with a
    # shorter last group.  The completion runs at sizes 1-3 on the 12-cycle
    # (early exit and full scans), at size 2 (and 1 for mutual information)
    # on the ER model, and on the chain's edges.  On the exact 4-cycle the
    # sets (1,) and (3,) tie for the pair (0, 2), one set per chunk at 5
    # entries, and the first must win.
    cycle = _digest_runs("cycle-sample")[3][:2]
    runs = [(*cycle, eta, early_exit) for eta in (2, 3) for early_exit in (True, False)]
    runs.append((*_digest_runs("er-sample")[3][:2], 2, True))
    chain = synthesize_model(chain_graph(20), 0.5)
    tie = np.array([np.roll([1, 1 / 4, 1 / 8, 1 / 4], k) for k in range(4)])  # circulant, exact in binary

    def outputs():
        out = [oracle_gap(chain, eta=2, gamma=2)]
        for statistic in STATISTICS:
            result = cmit(tie, EstimatorConfig(eta=1, xi=0.1, statistic=statistic, exact_mode=True, early_exit=False))
            assert result.pairs[0, 2].subset == (1,)
            out.append(pair_sets(result))
        for (data, n, eta, early_exit), statistic in itertools.product(runs, STATISTICS):
            result = cmit(data, EstimatorConfig(eta=eta, statistic=statistic, early_exit=early_exit))
            out.append((result.values.tobytes(), result.status.tobytes(), pair_sets(result)))
            sigma = empirical_covariance(data)
            out.extend(min_conditional_statistic(sigma, u, v, eta, statistic, n=n) for u, v in ((0, 1), (2, 7), (5, 11)))
        return out

    default = outputs()
    monkeypatch.setattr("ggmlearn.estimator._CHUNK", chunk)
    assert outputs() == default


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


# an indefinite 5 x 5 input whose block on {2, 3, 4} has eigenvalue -0.26
# while its three 2 x 2 blocks are positive definite; the third pivot of
# {2, 3, 4} is negative, so that set must not give pair (0, 1) its minimum
INDEFINITE = np.array([[1, -.77, -.36, -.58, .09], [-.77, 1, -.22, -.17, -.14], [-.36, -.22, 1, -.93, -.17],
                       [-.58, -.17, -.93, 1, -.72], [.09, -.14, -.17, -.72, 1]])

# x0 = g2 + g3 + e0, x1 = g2 + g3 + e1, x2 = delta g2 with delta^2 = 1e-13,
# x3 = g3: {2, 3} separates (0, 1) but has pivots 1e-13 then 1, a ratio
# above the default limit that only the smallest pivot carried past 2 shows
SMALL_PIVOT_FIRST = (lambda b: b @ b.T)(np.array([[1.0, 0, 1, 1], [0, 1, 1, 1], [0, 0, 1e-13 ** 0.5, 0], [0, 0, 0, 1]]))


@settings(max_examples=75, deadline=None)
@given(scan_cases())
@example((INDEFINITE, EstimatorConfig(eta=3, xi=0.3, exact_mode=True), INDEFINITE, 3, False))
@example((SMALL_PIVOT_FIRST, EstimatorConfig(eta=2, xi=0.3, exact_mode=True), SMALL_PIVOT_FIRST, 2, False))
def test_scan_matches_naive_enumeration(case):
    source, cfg, sigma, max_size, tie_heavy = case
    result = cmit(source, replace(cfg, early_exit=False))
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
        # the running minimum at the end of the first size class below the
        # last that reaches the threshold, else the full result
        running, stop = math.inf, None
        for size in range(max_size):
            running = min([running] + [value for value, subset in tables[(u, v)] if len(subset) == size])
            if running <= early.threshold:
                stop = running
                break
        if stop is None:
            assert dec == result.pairs[(u, v)]
        else:
            assert dec.status == "early_exit"
            assert dec.value == pytest.approx(stop, rel=1e-9, abs=1e-12)


@settings(max_examples=75, deadline=None)
@given(scan_cases())
@example((INDEFINITE, EstimatorConfig(eta=3, xi=0.3, exact_mode=True), INDEFINITE, 3, False))
def test_default_early_exit_agrees_with_the_full_scan(case):
    source, cfg, sigma, max_size, _ = case
    assert cfg.early_exit  # scan_cases leaves the default
    default, full = cmit(source, cfg), cmit(source, replace(cfg, early_exit=False))
    assert default.edges == full.edges
    stopped = default.status == STATUSES.index("early_exit")
    # edges and failed pairs keep the full scan's value, bit for bit, and set
    assert default.values[~stopped].tobytes() == full.values[~stopped].tobytes()
    assert np.array_equal(default.status[~stopped], full.status[~stopped])
    sets, full_sets = pair_sets(default), pair_sets(full)
    assert [sets[k] for k in np.flatnonzero(~stopped)] == [full_sets[k] for k in np.flatnonzero(~stopped)]
    # a stopped pair's value bounds its full minimum from above
    assert np.all(default.values[stopped] <= default.threshold)
    assert np.all(default.values[stopped] >= full.values[stopped])
    # and the oracle's, up to rounding
    for u, v, bound in zip(*(x[stopped].tolist() for x in np.triu_indices(default.p, 1)), default.values[stopped]):
        best = min(value for value, _ in naive_conditional_statistics(sigma, u, v, max_size, cfg.statistic))
        assert bound >= best - 1e-9 * (1.0 + best)


def pair_sets(result: EstimationResult) -> list:
    return [None if a < 0 else result.sets[a] for a in result.set_index.tolist()]


# failed mutual information pairs (three zero columns and a duplicated
# one), empty sets at eta 0, early exits at xi = 1.5;
# p = 12 puts "0,10" and "0,11" between "0,1" and "0,2"
DEGENERATE = np.zeros((2, 12))
DEGENERATE[:, 3:] = np.arange(18.0).reshape(2, 9) ** 1.5
DEGENERATE[:, 7] = DEGENERATE[:, 5]


def assert_same_pairs(back: EstimationResult, res: EstimationResult) -> None:
    """Bit-equal values (sign bit included), ``cmit``'s dtypes, equal
    statuses and equal sets."""
    assert back.values.tobytes() == res.values.tobytes()
    assert back.set_index.dtype == np.intp and back.status.dtype == np.int8
    assert np.array_equal(back.status, res.status)
    assert pair_sets(back) == pair_sets(res)
    assert set(back.sets) == set(res.sets)


@settings(max_examples=40, deadline=None)
@given(scan_cases())
@example((DEGENERATE, EstimatorConfig(eta=0, statistic="mutual_information", xi=0.3), None, 0, True))
@example((DEGENERATE, EstimatorConfig(eta=1, statistic="mutual_information", xi=1.5), None, 1, True))
def test_save_result_round_trips_pair_arrays(case):
    source, cfg = case[:2]
    for early_exit in (False, True):
        result = cmit(source, replace(cfg, early_exit=early_exit))
        # a -0.0 value is written with its sign
        values = result.values.copy()
        values[::5] = np.where(np.isinf(values[::5]), values[::5], -0.0)
        for res in (result, replace(result, values=values)):
            with tempfile.TemporaryDirectory() as directory:
                summary = save_result(res, directory)
                assert json.loads(Path(directory, "result.json").read_text()) == summary
                back = load_result(directory)
                assert_same_pairs(back, res)
                assert back.sets == res.sets
                assert back.summary() == summary
                assert pair_records(back) == pair_records(res)
                records = pair_records(res)
                assert summary["edge_records"] == {f"{u},{v}": records[f"{u},{v}"] for u, v in res.edges}
                assert summary["status_counts"] == {s: sum(r["status"] == s for r in records.values())
                                                    for s in STATUSES}
        # every set the result keeps is some pair's
        assert np.array_equal(np.unique(result.set_index[result.set_index >= 0]), np.arange(len(result.sets)))


def test_save_result_examples_cover_every_record_kind():
    result = cmit(DEGENERATE, EstimatorConfig(eta=0, statistic="mutual_information", xi=0.3))
    assert {"ok", "failed"} <= {d.status for d in result.pairs.values()}
    assert () in result.sets and -1 in result.set_index
    early = cmit(DEGENERATE, EstimatorConfig(eta=1, statistic="mutual_information", xi=1.5, early_exit=True))
    assert {"ok", "early_exit", "failed"} <= {d.status for d in early.pairs.values()}


def test_estimation_result_json_round_trip(tmp_path):
    m = chain_model(6)
    data = sample(m, 500, seed=14)
    result = cmit(data, EstimatorConfig(eta=1))
    save_result(result, tmp_path)
    back = load_result(tmp_path)
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
    # early exit at eta 2 hands the last open pairs to the pair-set completion
    result = cmit(data, EstimatorConfig(eta=2, early_exit=True))
    result.summary()
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
        cmit(data, EstimatorConfig(eta=3, statistic="mutual_information", early_exit=False)).summary()
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
    # the scan's thread-count knob is gone, and so is the key
    with pytest.raises(InvalidParameter, match="unknown key 'threads'"):
        EstimatorConfig.from_dict({**cfg.to_dict(), "threads": 4})
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


@pytest.mark.parametrize("eta, gamma, message", [
    (1, 1.5, "gamma must be int, got float 1.5"),
    (1.5, 2, "eta must be int, got float 1.5"),
    (True, 2, "eta must be int, got bool True"),
    (1, -1, "gamma must be nonnegative, got -1"),
    (-1, 2, "eta must be nonnegative, got -1"),
])
def test_oracle_gap_checks_eta_and_gamma_before_it_scans(monkeypatch, eta, gamma, message):
    import ggmlearn.estimator as estimator_mod

    def no_scan(*args):
        raise AssertionError("scanned before checking eta and gamma")

    monkeypatch.setattr(estimator_mod, "_scan_all", no_scan)
    with pytest.raises(InvalidParameter, match=re.escape(message)):
        oracle_gap(chain_model(6), eta, gamma)


def test_oracle_gap_cycle_with_full_radius():
    m = synthesize_model(cycle_graph(6), 0.5)
    gap = oracle_gap(m, eta=2, gamma=5)
    assert gap.separable
    result = cmit(m, EstimatorConfig(eta=2, xi=gap.threshold_midpoint, exact_mode=True))
    assert edit_distance(result.graph, m.graph) == 0


def _source_under(source, cfg: EstimatorConfig, columns, scale):
    """The cmit source whose variable k is variable ``columns[k]`` of
    ``source`` times ``scale[k]``: a column map of the data, or the
    congruence it induces on an exact covariance."""
    if cfg.exact_mode:
        return scale[:, None] * source[np.ix_(columns, columns)] * scale
    return source[:, columns] * scale


@settings(max_examples=60, deadline=None)
@given(scan_cases(), st.data())
def test_cmit_edges_and_statuses_follow_a_column_permutation(case, data):
    source, cfg, sigma = case[:3]
    p = sigma.shape[0]
    perm = np.array(data.draw(st.permutations(range(p))))
    base = cmit(source, cfg)
    moved = cmit(_source_under(source, cfg, perm, np.ones(p)), cfg)
    # pair (a, b) of the permuted source is pair (perm[a], perm[b]) of the original
    assert sorted(tuple(sorted((int(perm[a]), int(perm[b])))) for a, b in moved.edges) == sorted(base.edges)
    statuses = {tuple(sorted((int(perm[a]), int(perm[b])))): d.status for (a, b), d in moved.pairs.items()}
    assert statuses == {pair: d.status for pair, d in base.pairs.items()}


@settings(max_examples=60, deadline=None)
@given(scan_cases(), st.data())
def test_mutual_information_cmit_ignores_a_positive_column_rescaling(case, data):
    # partial correlations are scale-free.  Powers of two scale every
    # product and quotient of the scan exactly, so the values stay the same
    # bit for bit (0 ulps), also where the degenerate cases make a column
    # exactly collinear with others and any other scale would round it off
    source, cfg, sigma = case[:3]
    cfg = replace(cfg, statistic="mutual_information")
    p = sigma.shape[0]
    scale = 2.0 ** np.array(data.draw(st.lists(st.integers(-3, 3), min_size=p, max_size=p)))
    base = cmit(source, cfg)
    scaled = cmit(_source_under(source, cfg, np.arange(p), scale), cfg)
    assert scaled.edges == base.edges
    assert np.array_equal(scaled.status, base.status)
    assert scaled.values.tobytes() == base.values.tobytes()
    assert pair_sets(scaled) == pair_sets(base)
