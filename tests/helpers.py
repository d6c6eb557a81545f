"""Independent oracles used to cross-check package implementations.

Everything here deliberately avoids the code paths under test: separators
are found by exhaustive subset enumeration, spectral norms by dense
eigensolvers, conditional covariances by inverting marginal precision
matrices, and scalar bound formulas by high-precision arithmetic.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ggmlearn import Graph, GaussianModel, ball, generate_er, synthesize_model


def bitmask_adjacency(g: Graph, edges=None) -> list[int]:
    adj = [0] * g.p
    for u, v in (g.edges if edges is None else edges):
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def separates(adj: list[int], i: int, j: int, blocked: int) -> bool:
    """True when removing the blocked vertex set leaves no i-j path."""
    seen = 1 << i
    frontier = seen
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= adj[low.bit_length() - 1]
            rest ^= low
        nxt &= ~blocked & ~seen
        if (nxt >> j) & 1:
            return False
        seen |= nxt
        frontier = nxt
    return True


def brute_force_local_separator(g: Graph, i: int, j: int, gamma: int) -> tuple[int, ...]:
    """First separating subset in (size, lexicographic) order, enumerated
    exhaustively over the ball-restricted edge set.

    Only subsets of the ball minus {i, j} are tried.  Every i-j path in the
    ball's edges stays inside the ball, so a separator that holds a vertex
    outside it still separates without that vertex; a minimum separator
    therefore lies inside the ball, and the first separating subset in
    (size, lexicographic) order over all p - 2 other vertices is the same.
    """
    if gamma == 0:
        return ()
    inside = set(ball(g, i, gamma))
    adj = bitmask_adjacency(g, [e for e in g.edges if e[0] in inside and e[1] in inside])
    others = sorted(inside - {i, j})
    for size in range(len(others) + 1):
        for subset in combinations(others, size):
            blocked = 0
            for v in subset:
                blocked |= 1 << v
            if separates(adj, i, j, blocked):
                return subset
    raise AssertionError("every pair is separated by removing all other vertices")


def dense_alpha(j: np.ndarray) -> float:
    """Spectral norm of |R| by a dense symmetric eigensolver."""
    d = np.sqrt(np.diag(j))
    r = -j / np.outer(d, d)
    np.fill_diagonal(r, 0.0)
    return float(np.max(np.abs(np.linalg.eigvalsh(np.abs(r)))))


def marginal_precision_conditional_cov(j: np.ndarray, i: int, jj: int, cond) -> float:
    """Sigma(i, j | S) as an entry of the inverse of J with the rows and
    columns of S deleted."""
    p = j.shape[0]
    keep = [v for v in range(p) if v not in set(cond)]
    inv = np.linalg.inv(j[np.ix_(keep, keep)])
    return float(inv[keep.index(i), keep.index(jj)])


def random_sparse_model(
    p: int,
    seed: int,
    target_alpha: float,
    density: float = 0.35,
    diagonal_range: tuple[float, float] = (1.0, 1.0),
) -> GaussianModel:
    """A walk-summable model with varied edge magnitudes and signs.

    Draws a symmetric R with uniform entries on a random support, rescales
    it so the spectral norm of |R| is exactly the target, then applies a
    random diagonal: J = D^{1/2} (I - R) D^{1/2}.
    """
    rng = np.random.default_rng(seed)
    while True:
        r = np.zeros((p, p))
        edges = []
        for u in range(p):
            for v in range(u + 1, p):
                if rng.random() < density:
                    r[u, v] = r[v, u] = rng.uniform(-1.0, 1.0)
                    edges.append((u, v))
        if edges:
            break
    scale = target_alpha / float(np.max(np.abs(np.linalg.eigvalsh(np.abs(r)))))
    r *= scale
    d = rng.uniform(*diagonal_range, size=p)
    j = np.sqrt(np.outer(d, d)) * (np.eye(p) - r)
    # the construction can round a tiny support entry to zero only if the
    # uniform draw was exactly zero, which has probability zero
    return GaussianModel(Graph(p, edges), j)


def random_er_model(p: int, seed: int, target_alpha: float, c: float = 2.5,
                    sign: str = "random") -> GaussianModel:
    """Uniform-magnitude model on an ER draw, retrying empty graphs."""
    for attempt in range(100):
        g = generate_er(p, c, seed + 1000 * attempt)
        if g.n_edges:
            return synthesize_model(g, target_alpha, sign_pattern=sign, seed=seed)
    raise AssertionError("could not draw a non-empty graph")



def _guard_passes(sigma: np.ndarray, cond: list[int], cond_limit: float) -> bool:
    """The conditioning guard of the ascending set ``cond``: every pivot of
    Sigma[cond, cond], eliminated in that order, is positive, and the
    largest variance is at most ``cond_limit`` times the smallest pivot.
    The k-th pivot is the ratio of the k-th to the (k-1)-th leading
    principal minor, from determinants rather than rank-1 steps."""
    block = sigma[np.ix_(cond, cond)]
    minors = [np.linalg.det(block[:k, :k]) for k in range(len(cond) + 1)]
    pivots = []
    for k in range(1, len(cond) + 1):
        pivots.append(minors[k] / minors[k - 1])  # the pivots before, so the minors, are positive
        if not pivots[-1] > 0.0:
            return False
    return not cond or max(np.diag(block)) <= cond_limit * min(pivots)


def naive_conditional_statistics(sigma: np.ndarray, i: int, j: int, max_size: int, statistic: str,
                                 cond_limit: float = 1e12) -> list[tuple[float, tuple[int, ...]]]:
    """(value, set) for every conditioning set of at most max_size vertices
    other than i and j, in (size, lexicographic) order, each from a direct
    solve.  A set whose block fails the conditioning guard, or where mutual
    information is undefined, has value infinity."""
    others = [v for v in range(len(sigma)) if v != i and v != j]
    pair = [i, j]
    out = []
    for size in range(max_size + 1):
        for cond in combinations(others, size):
            cond = list(cond)
            if not _guard_passes(sigma, cond, cond_limit):
                out.append((np.inf, tuple(cond)))
                continue
            schur = sigma[np.ix_(pair, pair)]
            if cond:
                schur = schur - sigma[np.ix_(pair, cond)] @ np.linalg.solve(
                    sigma[np.ix_(cond, cond)], sigma[np.ix_(cond, pair)])
            cov, var_i, var_j = schur[0, 1], schur[0, 0], schur[1, 1]
            den = var_i * var_j
            if statistic == "covariance":
                value = abs(cov)
            elif den <= 0.0 or cov * cov / den >= 1.0:
                value = np.inf
            else:
                value = -0.5 * np.log1p(-cov * cov / den)
            out.append((float(value), tuple(cond)))
    return out


def dense_lbp(model: GaussianModel, h=None, tol: float = 1e-10, max_iters: int = 10000) -> dict:
    """Synchronous Gaussian belief propagation on dense p x p message
    matrices (entry [i, j] carries the i -> j message), masked to the edges
    on every sweep; returns the beliefs and the convergence flags."""
    p = model.p
    h = np.zeros(p) if h is None else np.asarray(h, dtype=float)
    scale = np.sqrt(np.diag(model.precision))
    r = model.partial_correlations()
    h_norm = h / scale
    mask = model.graph.adjacency_matrix() > 0.0
    d_j = np.zeros((p, p))
    d_h = np.zeros((p, p))
    converged = breakdown = False
    iterations = 0
    change = np.inf
    r_sq = r * r
    for iterations in range(1, max_iters + 1):
        cavity_j = (1.0 + d_j.sum(axis=0))[:, None] - d_j.T
        cavity_h = (h_norm + d_h.sum(axis=0))[:, None] - d_h.T
        if np.any(cavity_j[mask] <= 0.0):
            breakdown = True
            break
        new_j = np.where(mask, -r_sq / np.where(mask, cavity_j, 1.0), 0.0)
        new_h = np.where(mask, r * cavity_h / np.where(mask, cavity_j, 1.0), 0.0)
        change = max(float(np.max(np.abs(new_j - d_j), initial=0.0)),
                     float(np.max(np.abs(new_h - d_h), initial=0.0)))
        d_j, d_h = new_j, new_h
        if change <= tol:
            converged = True
            break
    belief_j = 1.0 + d_j.sum(axis=0)
    belief_h = h_norm + d_h.sum(axis=0)
    if np.any(belief_j <= 0.0):
        breakdown = True
        belief_j = np.where(belief_j > 0.0, belief_j, np.nan)
    return {
        "variances": (1.0 / belief_j) / (scale * scale),
        "means": (belief_h / belief_j) / scale,
        "converged": converged and not breakdown,
        "iterations": iterations,
        "final_change": change,
        "breakdown": breakdown,
        "message_precisions": d_j,
        "message_potentials": d_h,
    }
