"""Acceptance gate.

One test per shipping criterion; each prints a single verdict line of the
form ``criterion NN PASS: label`` (or FAIL) before asserting, so the
suite's captured output doubles as the acceptance report.  Monte Carlo
criteria use pinned master seeds and are exactly reproducible.
"""

import math
import time
from functools import lru_cache
from itertools import combinations

import numpy as np

from ggmlearn import (
    EnsembleConfig,
    EstimatorConfig,
    GaussianModel,
    Graph,
    TrialConfig,
    chain_graph,
    cmit,
    conditional_covariance_exact,
    cycle_graph,
    edit_distance,
    fano_lower_bound,
    fano_lower_bound_distortion,
    generate_er,
    girth,
    lbp_run,
    lbp_variance_error,
    local_separator,
    oracle_gap,
    sample,
    separation_profile,
    sweep,
    synthesize_model,
    torus_grid,
    truncated_walksum_covariance,
    typical_set,
)

from helpers import (
    bitmask_adjacency,
    brute_force_local_separator,
    marginal_precision_conditional_cov,
    random_sparse_model,
    separates,
)

N_GRID = (250, 1000, 4000, 16000)
GRID_TRIALS = 50
NOISE_BAND = 2.0 / math.sqrt(GRID_TRIALS)


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {label}{suffix}", flush=True)
    assert ok, f"criterion {num:02d} failed: {label}{suffix}"


def _random_tree_model(p: int, seed: int, alpha: float) -> GaussianModel:
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, p)]
    r = np.zeros((p, p))
    for u, v in edges:
        r[u, v] = r[v, u] = rng.uniform(0.2, 1.0) * rng.choice([-1.0, 1.0])
    r *= alpha / np.max(np.abs(np.linalg.eigvalsh(np.abs(r))))
    d = rng.uniform(1.0, 3.0, size=p)
    return GaussianModel(Graph(p, edges), np.sqrt(np.outer(d, d)) * (np.eye(p) - r))


def test_criterion_01_conditional_covariance_matches_marginal_precision_oracle():
    start = time.perf_counter()
    worst = 0.0
    for k in range(100):
        m = random_sparse_model(8, 4000 + k, target_alpha=0.2 + 0.4 * (k % 10) / 9,
                                diagonal_range=(1.0, 3.0))
        sigma = np.asarray(m.sigma())
        j = np.asarray(m.precision)
        for i in range(8):
            for jj in range(i + 1, 8):
                others = [x for x in range(8) if x not in (i, jj)]
                for size in range(0, 5):
                    for cond in combinations(others, size):
                        got = conditional_covariance_exact(sigma, i, jj, cond)
                        want = marginal_precision_conditional_cov(j, i, jj, cond)
                        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    _verdict(
        1,
        "Schur-complement conditional covariance equals the marginal-precision "
        "oracle on 100 models (p=8, |S|<=4) within 1e-10, under 60 s",
        worst <= 1e-10 and elapsed < 60.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_markov_zeros_on_trees():
    worst = 0.0
    # exhaustive conditioning sets on small trees
    for seed, p in ((1, 7), (2, 9), (3, 10)):
        m = _random_tree_model(p, seed, 0.5)
        sigma = np.asarray(m.sigma())
        adj = bitmask_adjacency(m.graph)
        for i in range(p):
            for jj in range(i + 1, p):
                if m.graph.has_edge(i, jj):
                    continue
                others = [x for x in range(p) if x not in (i, jj)]
                for size in range(len(others) + 1):
                    for cond in combinations(others, size):
                        blocked = 0
                        for v in cond:
                            blocked |= 1 << v
                        if not separates(adj, i, jj, blocked):
                            continue
                        worst = max(worst, abs(conditional_covariance_exact(sigma, i, jj, cond)))
    # single path vertices on larger trees
    for seed, p in ((4, 20), (5, 35), (6, 50)):
        m = _random_tree_model(p, seed, 0.5)
        sigma = np.asarray(m.sigma())
        parent = {v: u for u, v in m.graph.edges}  # growth process orients edges
        def path_to_root(v):
            out = [v]
            while out[-1] in parent:
                out.append(parent[out[-1]])
            return out
        for i in range(p):
            for jj in range(i + 1, p):
                if m.graph.has_edge(i, jj):
                    continue
                a, b = path_to_root(i), path_to_root(jj)
                common = set(a) & set(b)
                meet = next(x for x in a if x in common)
                path = a[: a.index(meet)] + [meet] + b[: b.index(meet)][::-1]
                for v in path[1:-1]:
                    worst = max(worst, abs(conditional_covariance_exact(sigma, i, jj, (v,))))
    _verdict(
        2,
        "conditional covariance vanishes (<=1e-12) across every separating set "
        "on trees up to p=50",
        worst <= 1e-12,
        f"worst={worst:.2e}",
    )


def test_criterion_03_truncated_series_error_bound():
    worst_margin = -math.inf
    ok = True
    for k in range(50):
        alpha = 0.15 + 0.7 * k / 49
        m = random_sparse_model(10, 6000 + k, target_alpha=alpha)
        r = m.partial_correlations()
        sigma = np.linalg.inv(np.eye(10) - r)
        for n_terms in range(1, 31):
            err = float(np.max(np.abs(sigma - truncated_walksum_covariance(r, n_terms))))
            bound = m.alpha ** (n_terms + 1) / (1.0 - m.alpha)
            # 1e-12 absorbs float roundoff in the comparison itself
            if err > bound + 1e-12:
                ok = False
            worst_margin = max(worst_margin, err - bound)
    _verdict(
        3,
        "partial power-series covariance error stays below alpha^(K+1)/(1-alpha) "
        "for 50 models, K=1..30",
        ok,
        f"worst err-bound={worst_margin:.2e}",
    )


def test_criterion_04_conditional_variance_cap():
    worst_excess = -math.inf
    ok = True
    for p in range(4, 9):
        for trial in range(4):
            m = random_sparse_model(p, 100 * p + trial, target_alpha=0.3 + 0.15 * trial)
            sigma = np.linalg.inv(np.eye(p) - m.partial_correlations())
            cap = 1.0 / (1.0 - m.alpha) + 1e-9
            for i in range(p):
                others = [x for x in range(p) if x != i]
                for size in range(len(others) + 1):
                    for cond in combinations(others, size):
                        v = conditional_covariance_exact(sigma, i, i, cond)
                        worst_excess = max(worst_excess, v - cap)
                        if v > cap:
                            ok = False
    _verdict(
        4,
        "normalized conditional variances never exceed 1/(1-alpha)+1e-9, "
        "exhaustive over p<=8",
        ok,
        f"worst excess={worst_excess:.2e}",
    )


def test_criterion_05_exact_mode_structural_recovery():
    start = time.perf_counter()
    cases = [("chain20", chain_graph(20))]
    cases += [(f"C{p}", cycle_graph(p)) for p in range(6, 21)]
    cases += [("torus5x5", torus_grid(5, 2))]
    failures = []
    for name, g in cases:
        gamma = 2
        prof = separation_profile(g, gamma)
        eta = max(prof.eta, 1)
        if eta > 2:
            failures.append(f"{name}: eta={eta}")
            continue
        m = synthesize_model(g, 0.5)
        gap = oracle_gap(m, eta=eta, gamma=gamma)
        result = cmit(m, EstimatorConfig(eta=eta, xi=gap.threshold_midpoint, exact_mode=True))
        dist = edit_distance(result.graph, g)
        if not gap.separable or dist != 0:
            failures.append(f"{name}: separable={gap.separable}, ed={dist}")
    elapsed = time.perf_counter() - start
    _verdict(
        5,
        "exact-mode recovery: margin positive and edit distance 0 on chain, "
        "C6..C20, and the 5x5 torus (eta<=2), under 2 min",
        not failures and elapsed < 120.0,
        f"{len(cases)} graphs, {elapsed:.1f}s" + (f"; failures={failures}" if failures else ""),
    )


@lru_cache(maxsize=None)
def _perr_grid(statistic: str, master: int) -> tuple[float, ...]:
    configs = [
        TrialConfig(
            ensemble=EnsembleConfig(kind="chain", p=20),
            estimator=EstimatorConfig(eta=1, kappa=2.0, statistic=statistic),
            target_alpha=0.5,
            n=n,
            trials=GRID_TRIALS,
            seed=master,
        )
        for n in N_GRID
    ]
    return tuple(row.p_err for row in sweep(configs).rows)


def _smallest_passing_n(perr: tuple[float, ...], level: float = 0.2) -> float:
    for n, pe in zip(N_GRID, perr):
        if pe <= level:
            return float(n)
    return math.inf


def test_criterion_06_sample_mode_error_rate_trend():
    start = time.perf_counter()
    perr = _perr_grid("covariance", 101)
    elapsed = time.perf_counter() - start
    trend = all(perr[k + 1] <= perr[k] + NOISE_BAND for k in range(len(perr) - 1))
    net_decrease = perr[-1] < perr[0]
    final = perr[-1] <= 0.05
    _verdict(
        6,
        "error rate on chain p=20 falls along n=250..16000 (50 trials, default "
        "threshold) and ends at or below 0.05, under 10 min",
        trend and net_decrease and final and elapsed < 600.0,
        f"p_err={list(perr)}, {elapsed:.1f}s",
    )


def test_criterion_07_mutual_information_needs_no_fewer_samples():
    wins = 0
    records = []
    for master in (101, 202, 303):
        n_cov = _smallest_passing_n(_perr_grid("covariance", master))
        n_mi = _smallest_passing_n(_perr_grid("mutual_information", master))
        records.append(f"seed {master}: cov {n_cov:g} vs mi {n_mi:g}")
        if n_mi >= n_cov:
            wins += 1
    _verdict(
        7,
        "mutual-information test reaches 0.2 error with at least as many "
        "samples as the covariance test in >=2 of 3 repetitions",
        wins >= 2,
        "; ".join(records),
    )


def test_criterion_08_belief_propagation_quality():
    worst_tree = 0.0
    for k in range(20):
        m = _random_tree_model(6 + k % 8, 900 + k, 0.4 + 0.3 * (k % 5) / 4)
        h = np.random.default_rng(50 + k).normal(size=m.p)
        res = lbp_run(m, h, tol=1e-12)
        worst_tree = max(worst_tree, lbp_variance_error(m, res)[1])
        worst_tree = max(worst_tree, float(np.max(np.abs(
            res.means - np.linalg.solve(m.precision, h)))))

    worst_loopy_mean = 0.0
    made = 0
    seed = 0
    while made < 20:
        seed += 1
        g = generate_er(12, 2.5, seed=seed)
        if math.isinf(girth(g)) or g.n_edges == 0:
            continue
        m = synthesize_model(g, 0.55, sign_pattern="random", seed=seed)
        h = np.random.default_rng(seed).normal(size=12)
        res = lbp_run(m, h, tol=1e-12)
        if not res.converged:
            continue
        made += 1
        worst_loopy_mean = max(worst_loopy_mean, float(np.max(np.abs(
            res.means - np.linalg.solve(m.precision, h)))))

    errors = []
    for p in (6, 10, 14):
        m = synthesize_model(cycle_graph(p), 0.5)
        errors.append(lbp_variance_error(m, lbp_run(m))[1])
    decreasing = errors[0] > errors[1] > errors[2] > 0
    r1, r2 = errors[1] / errors[0], errors[2] / errors[1]
    # geometric decay: consecutive decade ratios agree within the slack
    # factor, and each decade shrinks at least as fast as alpha^4 x 10
    geometric = (r1 <= 0.5**4 * 10) and (r2 <= 0.5**4 * 10) and (0.1 <= r1 / r2 <= 10.0)
    _verdict(
        8,
        "belief propagation exact on 20 trees, means exact on 20 loopy models "
        "(<=1e-8), cycle variance error decays geometrically in girth",
        worst_tree <= 1e-8 and worst_loopy_mean <= 1e-8 and decreasing and geometric,
        f"tree={worst_tree:.1e}, loopy mean={worst_loopy_mean:.1e}, "
        f"cycle errors={['%.2e' % e for e in errors]}",
    )


def test_criterion_09_bounds_against_high_precision_arithmetic():
    from mpmath import mp, mpf, log, pi, e as m_e

    mp.dps = 50
    denom = log(2 * pi * m_e * (1 / (1 - mpf("0.5")) + 1), 2)
    oracle_simplified = float(3 * log(1024, 2) / denom)
    got = fano_lower_bound(1024, 3, 0.5).n_simplified
    simplified_ok = abs(got - oracle_simplified) <= 1e-3  # agrees to ~1e-12

    dist_ok = True
    for p, c, alpha in ((64, 2, 0.4), (1024, 3, 0.5), (100, 4, 0.3)):
        exact = fano_lower_bound(p, c, alpha).n_exact
        at_zero = fano_lower_bound_distortion(p, c, alpha, 0.0).n
        if abs(exact - at_zero) > 1e-12:
            dist_ok = False

    # per-graph probability sandwich, exhaustive over all 64 graphs on p=4;
    # both halves where the density window sits at the mean or above, the
    # lower half unconditionally
    sandwich_ok = True
    members_seen = 0
    pairs = list(combinations(range(4), 2))
    for c, eps, check_upper in ((1, 0.25, True), (2, 0.25, True), (1, 0.5, False)):
        tset = typical_set(4, c, eps)
        q = c / 4
        lo, hi = tset.log2_probability_bounds()
        for bits in range(2 ** len(pairs)):
            g = Graph(4, [pairs[t] for t in range(len(pairs)) if (bits >> t) & 1])
            if not tset.contains(g):
                continue
            members_seen += 1
            log2_prob = g.n_edges * math.log2(q) + (len(pairs) - g.n_edges) * math.log2(1 - q)
            if log2_prob < lo - 1e-12:
                sandwich_ok = False
            if check_upper and log2_prob > hi + 1e-12:
                sandwich_ok = False
    _verdict(
        9,
        "necessary-sample-size calculator matches 50-digit arithmetic, zero "
        "distortion collapses to the exact bound, probability sandwich holds "
        "over all 64 four-vertex graphs",
        simplified_ok and dist_ok and sandwich_ok and members_seen > 0,
        f"simplified={got:.6f} vs oracle={oracle_simplified:.6f}, members={members_seen}",
    )


def test_criterion_10_separators_match_exhaustive_search():
    start = time.perf_counter()
    rng = np.random.default_rng(777)
    mismatches = 0
    checked = 0
    for _ in range(200):
        p = int(rng.integers(6, 13))
        g = generate_er(p, 2.5, seed=int(rng.integers(0, 2**32)))
        for gamma in range(7):
            for i in range(p):
                for jj in range(i + 1, p):
                    if g.has_edge(i, jj):
                        continue
                    checked += 1
                    if local_separator(g, i, jj, gamma) != brute_force_local_separator(g, i, jj, gamma):
                        mismatches += 1
    elapsed = time.perf_counter() - start
    _verdict(
        10,
        "flow-based local separators equal exhaustive minimum-subset search on "
        "200 random graphs (p<=12, gamma<=6)",
        mismatches == 0,
        f"{checked} comparisons, {mismatches} mismatches, {elapsed:.1f}s",
    )


def test_criterion_11_empirical_covariance_concentration_rate():
    m = synthesize_model(chain_graph(10), 0.5)
    sigma = np.asarray(m.sigma())
    n = 500
    devs_n, devs_4n = [], []
    for t in range(50):
        devs_n.append(float(np.max(np.abs(
            sample(m, n, seed=17 ^ t).empirical_covariance() - sigma))))
        devs_4n.append(float(np.max(np.abs(
            sample(m, 4 * n, seed=1017 ^ t).empirical_covariance() - sigma))))
    ratio = float(np.median(devs_n) / np.median(devs_4n))
    _verdict(
        11,
        "median worst-entry deviation of the empirical covariance shrinks like "
        "1/sqrt(n): the n vs 4n ratio lies in [1.6, 2.5]",
        1.6 <= ratio <= 2.5,
        f"ratio={ratio:.3f}",
    )


def test_criterion_12_large_scan_wall_time():
    model = synthesize_model(chain_graph(100), 0.5)
    data = sample(model, 5000, seed=42)
    start = time.perf_counter()
    result = cmit(data, EstimatorConfig(eta=2, early_exit=False))  # every pair to its exact minimum
    elapsed = time.perf_counter() - start
    dist = edit_distance(result.graph, model.graph)
    _verdict(
        12,
        "all-pairs scan at p=100, eta=2, n=5000 finishes under 60 s on one "
        "thread",
        elapsed < 60.0,
        f"{elapsed:.2f}s, edit distance {dist}",
    )
