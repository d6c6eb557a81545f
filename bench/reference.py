"""Independent references the benchmark checks ggmlearn's outputs against.

Nothing here calls ggmlearn: spectral norms come from dense eigensolvers,
conditional statistics from rank-one Schur updates of the covariance,
Gaussian means and variances from dense solves, and separators are checked
by breadth-first search.
"""

from __future__ import annotations

import json
import math
from collections import deque
from pathlib import Path

import numpy as np

REFERENCES = Path(__file__).with_name("references.json")

# Pairs whose reference statistic lies this close to the threshold may be
# decided either way by a reordered floating-point sum.
THRESHOLD_SLACK = 1e-9


def rng(seed: int, lane: int) -> np.random.Generator:
    """Philox stream for one purpose (lane) of one workload seed; the lane
    sits in the high key word, so lanes are distinct streams."""
    return np.random.Generator(np.random.Philox(key=(lane << 64) | seed))


def er_adjacency(p: int, c: float, gen: np.random.Generator) -> np.ndarray:
    """Symmetric 0/1 adjacency with each pair an edge with probability c/p."""
    upper = np.triu(gen.random((p, p)) < c / p, k=1)
    return (upper | upper.T).astype(float)


def cycle_adjacency(p: int) -> np.ndarray:
    a = np.zeros((p, p))
    idx = np.arange(p)
    a[idx, (idx + 1) % p] = a[(idx + 1) % p, idx] = 1.0
    return a


def edges_of(adjacency: np.ndarray) -> list[tuple[int, int]]:
    us, vs = np.nonzero(np.triu(adjacency, k=1))
    return list(zip(us.tolist(), vs.tolist()))


def scaled_precision(adjacency: np.ndarray, alpha: float) -> np.ndarray:
    """J = I - (alpha / lambda_max(A)) A, whose walk-summability number is alpha."""
    lam = float(np.linalg.eigvalsh(adjacency)[-1])
    scale = alpha / lam if lam > 0 else 0.0
    return np.eye(len(adjacency)) - scale * adjacency


def gaussian_data(precision: np.ndarray, n: int, gen: np.random.Generator) -> np.ndarray:
    low = np.linalg.cholesky(np.linalg.inv(precision))
    return gen.standard_normal((n, len(precision))) @ low.T


def walk_alpha(precision: np.ndarray) -> float:
    """Top eigenvalue of |R| for the partial correlation matrix R."""
    d = np.sqrt(np.diag(precision))
    r = np.abs(precision / np.outer(d, d))
    np.fill_diagonal(r, 0.0)
    return float(np.linalg.eigvalsh(r)[-1])


def fano_n_exact(p: int, c: float, alpha: float) -> float:
    """Necessary sample size for exact recovery (the paper's Fano bound):
    2 / (p log2(2 pi e (1/(1-alpha) + 1))) * C(p, 2) * H(c/p), H in bits."""
    q = c / p
    entropy = 0.0 if q in (0.0, 1.0) else -q * math.log2(q) - (1 - q) * math.log2(1 - q)
    denom = math.log2(2 * math.pi * math.e * (1 / (1 - alpha) + 1))
    return 2 / (p * denom) * (p * (p - 1) / 2) * entropy


def _statistic(s: np.ndarray, statistic: str) -> np.ndarray:
    if statistic == "covariance":
        return np.abs(s)
    d = np.diag(s)
    with np.errstate(divide="ignore", invalid="ignore"):
        rho2 = s * s / np.outer(d, d)
        return -0.5 * np.log1p(-np.minimum(rho2, 1.0))


def min_statistics(sigma: np.ndarray, eta: int, statistic: str) -> np.ndarray:
    """For every pair (i, j), the minimum of the conditional statistic over
    all conditioning sets S of size <= eta that exclude i and j.

    Each step conditions the whole matrix on one more vertex k with
    Sigma(.,.|S+k) = Sigma(.,.|S) - c c^T / c_k, c = Sigma(., k | S).
    """
    p = len(sigma)
    best = np.full((p, p), np.inf)

    def visit(s: np.ndarray, members: list[int], start: int) -> None:
        stat = _statistic(s, statistic)
        stat[members, :] = np.inf
        stat[:, members] = np.inf
        np.minimum(best, np.nan_to_num(stat, nan=np.inf), out=best)
        if len(members) == eta:
            return
        for k in range(start, p):
            c = s[:, k]
            visit(s - np.outer(c, c) / c[k], members + [k], k + 1)

    visit(np.asarray(sigma, dtype=float), [], 0)
    return best


def learned_edges(data: np.ndarray, eta: int, statistic: str, kappa: float = 2.0):
    """Edges of the thresholding rule on the empirical covariance, plus the
    pairs that lie within THRESHOLD_SLACK of the threshold."""
    n, p = data.shape
    sigma = data.T @ data / n
    sigma = (sigma + sigma.T) / 2.0
    xi = kappa * math.sqrt(math.log(p) / n)
    threshold = xi * xi if statistic == "mutual_information" else xi
    best = min_statistics(sigma, min(eta, n - 1), statistic)
    iu = np.triu_indices(p, k=1)
    values = best[iu]
    pairs = list(zip(iu[0].tolist(), iu[1].tolist()))
    edges = {pair for pair, v in zip(pairs, values) if v > threshold}
    exempt = {pair for pair, v in zip(pairs, values) if abs(v - threshold) <= THRESHOLD_SLACK}
    return edges, exempt


def separator_errors(adj: list[list[int]], gamma: int, separators: dict) -> list[str]:
    """Problems with claimed gamma-local separators: each non-adjacent pair
    (i, j), i < j, must be cut by its separator in the subgraph of edges
    inside the radius-gamma ball around i."""
    p = len(adj)
    problems = []
    expected = {(i, j) for i in range(p) for j in range(i + 1, p) if j not in adj[i]}
    if set(separators) != expected:
        problems.append("separators do not cover exactly the non-adjacent pairs")
    for i in range(p):
        dist = {i: 0}
        queue = deque([i])
        while queue:
            u = queue.popleft()
            if dist[u] < gamma:
                for v in adj[u]:
                    if v not in dist:
                        dist[v] = dist[u] + 1
                        queue.append(v)
        for j in range(i + 1, p):
            sep = separators.get((i, j))
            if sep is None:
                continue
            blocked = set(sep)
            if i in blocked or j in blocked:
                problems.append(f"separator of {(i, j)} contains an endpoint")
                continue
            seen = {i}
            queue = deque([i])
            while queue:
                u = queue.popleft()
                for v in adj[u]:
                    if v in dist and v not in seen and v not in blocked:
                        seen.add(v)
                        queue.append(v)
            if j in seen:
                problems.append(f"separator {sep} does not cut {(i, j)}")
    return problems


def recorded(size: str, seed: int, workload: str) -> dict | None:
    """References recorded for (size, seed, workload), if any."""
    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return data.get(size, {}).get(str(seed), {}).get(workload)


def recorded_all(size: str, workload: str) -> list[dict]:
    data = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
    return [by_workload[workload] for by_workload in data.get(size, {}).values() if workload in by_workload]
