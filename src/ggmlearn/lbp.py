"""Loopy Gaussian belief propagation in information form.

Messages live on directed edges.  With cavity quantities

    Jhat[i\\j] = J[i, i] + sum over k in N(i) minus j of dJ[k -> i]
    hhat[i\\j] = h[i]   + sum over k in N(i) minus j of dh[k -> i]

a synchronous sweep updates every directed edge from the previous sweep:

    dJ[i -> j] = -J[i, j]^2 / Jhat[i\\j]
    dh[i -> j] = -J[i, j] * hhat[i\\j] / Jhat[i\\j]

Messages are stored on the 2|E| directed edges, so a sweep costs O(|E|):
the graph's edges (u, v), u < v, as u -> v, then the same edges reversed,
which lists the sources of every target in ascending order.  A cavity sum
is one ``np.bincount`` over the targets minus the reverse message.

Beliefs then combine all incoming messages: the belief precision at i is
J[i, i] plus the sum of dJ[k -> i], the variance estimate its reciprocal,
and the mean estimate hhat over the belief precision.  On trees this is
exact; on walk-summable loopy models it converges and the means are exact
while variances carry a locality-controlled error.

Unnormalized models are rescaled to unit diagonal first, with R on the
edges from ``model.partial_correlation_matrix``'s rule, and the beliefs are
mapped back afterwards, which changes nothing mathematically but keeps the
message sweep in the normalized regime the convergence analysis is stated
for.  A nonpositive cavity precision is reported as a breakdown rather than
raised, since it is a diagnostic outcome of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, check_type
from .model import GaussianModel, _as_float, _partial_correlations

LBP_TOL = 1e-10
LBP_MAX_ITERS = 10000


@dataclass
class LbpResult:
    """Belief estimates plus convergence diagnostics.

    ``message_precisions`` and ``message_potentials`` hold the final
    normalized-model messages as arrays of length 2|E|: entry e < |E|
    carries the u -> v message of ``graph.edges[e] = (u, v)``, and entry
    e + |E| the v -> u message of the same edge.
    """

    variances: np.ndarray
    means: np.ndarray
    converged: bool
    iterations: int
    final_change: float
    breakdown: bool
    message_precisions: np.ndarray
    message_potentials: np.ndarray


def lbp_run(
    model: GaussianModel,
    h=None,
    tol: float = LBP_TOL,
    max_iters: int = LBP_MAX_ITERS,
) -> LbpResult:
    """Run synchronous belief propagation from zero-initialized messages.

    ``h`` is the potential vector of the information form (defaults to
    zero, giving zero means) and must be finite.  Convergence is declared
    when the largest message change over all directed edges falls to
    ``tol`` or below; a NaN change never converges.
    """
    check_type("tol", tol, float)
    check_type("max_iters", max_iters, int)
    if not (0.0 < tol < math.inf and max_iters >= 1):
        raise InvalidParameter(f"need 0 < tol < inf and max_iters >= 1, got tol={tol}, max_iters={max_iters}")
    p = model.p
    h = np.zeros(p) if h is None else _as_float(h, "h")
    if h.shape != (p,):
        raise InvalidParameter(f"h must have shape ({p},), got {h.shape}")
    if not np.isfinite(h).all():
        i = int(np.argmin(np.isfinite(h)))
        raise InvalidParameter(f"h entry {i} is {h[i]}, not finite")

    d = np.diag(model.precision)
    scale = np.sqrt(d)
    h_norm = h / scale
    forward = np.array(model.graph.edges, dtype=np.intp).reshape(-1, 2)
    source, target = np.concatenate([forward, forward[:, ::-1]]).T.copy()
    reverse = np.roll(np.arange(len(source)), len(forward))
    r = _partial_correlations(model.precision, d, source, target)
    r_sq = r * r

    d_j = np.zeros(len(source))
    d_h = np.zeros(len(source))
    converged = False
    breakdown = False
    iterations = 0
    change = np.inf
    for iterations in range(1, max_iters + 1):
        cavity_j = (1.0 + np.bincount(target, d_j, minlength=p))[source] - d_j[reverse]
        cavity_h = (h_norm + np.bincount(target, d_h, minlength=p))[source] - d_h[reverse]
        if np.any(cavity_j <= 0.0):
            breakdown = True
            break
        new_j = -r_sq / cavity_j
        new_h = r * cavity_h / cavity_j
        # np.maximum keeps a NaN, which Python's max can drop
        change = float(np.maximum(np.max(np.abs(new_j - d_j), initial=0.0),
                                  np.max(np.abs(new_h - d_h), initial=0.0)))
        d_j, d_h = new_j, new_h
        if change <= tol:
            converged = True
            break

    belief_j = 1.0 + np.bincount(target, d_j, minlength=p)
    belief_h = h_norm + np.bincount(target, d_h, minlength=p)
    if np.any(belief_j <= 0.0):
        breakdown = True
        safe = np.where(belief_j > 0.0, belief_j, np.nan)
    else:
        safe = belief_j
    variances = (1.0 / safe) / (scale * scale)
    means = (belief_h / safe) / scale
    return LbpResult(
        variances=variances,
        means=means,
        converged=converged and not breakdown,
        iterations=iterations,
        final_change=change,
        breakdown=breakdown,
        message_precisions=d_j,
        message_potentials=d_h,
    )


def lbp_variance_error(model: GaussianModel, result: LbpResult) -> tuple[np.ndarray, float]:
    """Per-vertex |exact variance - belief variance| and its maximum."""
    exact = np.diag(model.sigma())
    per_node = np.abs(exact - result.variances)
    return per_node, float(np.max(per_node, initial=0.0))
