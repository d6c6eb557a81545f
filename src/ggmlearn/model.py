"""Gaussian models in information form and their walk-sum structure.

A model is a precision matrix J whose off-diagonal support matches a graph:
J[i, j] != 0 exactly when (i, j) is an edge.  The partial correlation matrix
R has entries -J[i, j] / sqrt(J[i, i] * J[j, j]) off the diagonal and zeros
on it, so a normalized model satisfies J = I - R.  The central regularity
number is alpha, the spectral norm of the entrywise absolute value of R;
alpha < 1 makes the covariance a convergent power series in R and bounds
everything downstream.  |R| is symmetric, so alpha is its top eigenvalue,
read off a dense symmetric eigensolver; nothing here iterates to a
tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite, NumericFailure, SynthesisFailed
from .graph import Graph, _rng

PD_PIVOT_RTOL = 1e-12
INVERSE_RESIDUAL_TOL = 1e-8
SYMMETRY_RTOL = 1e-12
SYNTHESIS_ALPHA_CHECK = 1e-9

SIGN_PATTERNS = ("attractive", "alternating", "random")


def _as_square(m, name="matrix") -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameter(f"{name} must be square, got shape {m.shape}")
    return m


def _symmetric(j: np.ndarray) -> np.ndarray:
    """``j`` averaged with its transpose, provided the two differ by at most
    SYMMETRY_RTOL times the largest entry; larger asymmetry is an error."""
    if np.array_equal(j, j.T):
        return j
    if np.max(np.abs(j - j.T)) > SYMMETRY_RTOL * max(1.0, float(np.max(np.abs(j)))):
        raise InvalidParameter("precision matrix must be symmetric")
    return (j + j.T) / 2.0


def _cholesky_pd(j: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor, rejecting matrices that are not comfortably
    positive definite: every pivot must exceed PD_PIVOT_RTOL times the
    largest diagonal entry."""
    try:
        low = np.linalg.cholesky(j)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(f"Cholesky failed: {exc}") from exc
    pivots = np.diag(low) ** 2
    floor = PD_PIVOT_RTOL * float(np.max(np.diag(j)))
    if np.min(pivots) <= floor:
        raise NotPositiveDefinite(
            f"smallest Cholesky pivot {np.min(pivots):.3e} below tolerance {floor:.3e}"
        )
    return low


def partial_correlation_matrix(j) -> np.ndarray:
    """R with R[i, j] = -J[i, j] / sqrt(J[i, i] J[j, j]) and zero diagonal."""
    j = _as_square(j, "precision matrix")
    d = np.diag(j)
    if np.any(d <= 0):
        raise InvalidParameter("precision matrix needs strictly positive diagonal")
    scale = np.sqrt(np.outer(d, d))
    r = -j / scale
    np.fill_diagonal(r, 0.0)
    return r


def walk_summability_alpha(j) -> float:
    """alpha = spectral norm of |R|.

    |R| is symmetric, so its spectral norm is its top eigenvalue, taken
    from ``np.linalg.eigvalsh``.  That solver reads one triangle only, so
    ``j`` is symmetrized first (or rejected if it is not symmetric to
    SYMMETRY_RTOL).
    """
    j = _symmetric(_as_square(j, "precision matrix"))
    eigenvalues = np.linalg.eigvalsh(np.abs(partial_correlation_matrix(j)))
    return max(float(eigenvalues[-1]), 0.0) if eigenvalues.size else 0.0


def exact_covariance(j) -> np.ndarray:
    """Covariance J^{-1} via Cholesky, with the residual ||J Sigma - I||_max
    checked against INVERSE_RESIDUAL_TOL."""
    j = _as_square(j, "precision matrix")
    low = _cholesky_pd(j)
    low_inv = np.linalg.inv(low)
    sigma = low_inv.T @ low_inv
    sigma = (sigma + sigma.T) / 2.0
    residual = float(np.max(np.abs(j @ sigma - np.eye(j.shape[0]))))
    if residual > INVERSE_RESIDUAL_TOL:
        raise NumericFailure(f"inverse residual {residual:.3e} exceeds {INVERSE_RESIDUAL_TOL:.1e}")
    return sigma


def truncated_walksum_covariance(r, n_terms: int) -> np.ndarray:
    """Partial power series sum_{k=0}^{n_terms} R^k for a normalized model.

    Evaluated Horner style so exactly n_terms matrix products are used.
    """
    r = _as_square(r, "partial correlation matrix")
    if n_terms < 0:
        raise InvalidParameter("number of terms must be nonnegative")
    eye = np.eye(r.shape[0])
    acc = eye.copy()
    for _ in range(n_terms):
        acc = eye + r @ acc
    return acc


def _check_pair(sigma: np.ndarray, i: int, j: int, cond_set) -> list[int]:
    """Validate a pair (i, j) and a conditioning set S against sigma's
    dimension; returns S as a list of ints."""
    p = sigma.shape[0]
    cond = [int(s) for s in cond_set]
    if not (0 <= i < p and 0 <= j < p):
        raise InvalidParameter(f"indices ({i}, {j}) out of range for p={p}")
    if i in cond or j in cond:
        raise InvalidParameter("conditioning set must exclude i and j")
    if len(set(cond)) != len(cond):
        raise InvalidParameter("conditioning set has repeated vertices")
    if any(not 0 <= s < p for s in cond):
        raise InvalidParameter(f"conditioning set {cond} out of range for p={p}")
    return cond


def conditional_covariance_exact(sigma, i: int, j: int, cond_set=()) -> float:
    """Sigma(i, j | S) = Sigma[i, j] - Sigma[i, S] Sigma[S, S]^{-1} Sigma[S, j].

    Works for i == j (conditional variance).  S may be empty.
    """
    sigma = _as_square(sigma, "covariance matrix")
    cond = _check_pair(sigma, i, j, cond_set)
    if not cond:
        return float(sigma[i, j])
    block = sigma[np.ix_(cond, cond)]
    try:
        solved = np.linalg.solve(block, sigma[cond, j])
    except np.linalg.LinAlgError as exc:
        raise NumericFailure(f"singular conditioning block for S={cond}: {exc}") from exc
    return float(sigma[i, j] - sigma[i, cond] @ solved)


class GaussianModel:
    """A precision matrix tied to its sparsity graph.

    The covariance is computed lazily on first access and cached.

    :param graph: sparsity pattern; J[u, v] must be nonzero exactly on edges.
    :param precision: symmetric positive definite matrix of shape (p, p).
    :param meta: optional synthesis metadata carried through serialization.
    """

    def __init__(self, graph: Graph, precision, meta: dict | None = None):
        j = _as_square(precision, "precision matrix")
        if j.shape[0] != graph.p:
            raise InvalidParameter(f"precision is {j.shape[0]}x{j.shape[0]} but graph has p={graph.p}")
        j = _symmetric(j)
        on_edge = graph.adjacency_matrix() != 0.0
        # argwhere lists the upper triangle in row-major order, so the
        # reported pair is the first offending (u, v) with u < v
        mismatch = np.argwhere(np.triu(on_edge != (j != 0.0), k=1))
        if len(mismatch):
            u, v = (int(x) for x in mismatch[0])
            if on_edge[u, v]:
                raise InvalidParameter(f"edge ({u}, {v}) has zero precision entry")
            raise InvalidParameter(f"non-edge ({u}, {v}) has nonzero precision entry")
        _cholesky_pd(j)
        self.graph = graph
        self.precision = j.copy()
        self.precision.setflags(write=False)
        self.meta = dict(meta or {})
        self.alpha = walk_summability_alpha(j)
        self._sigma: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def d_min(self) -> float:
        return float(np.min(np.diag(self.precision)))

    def _edge_magnitudes(self) -> np.ndarray:
        u, v = np.asarray(self.graph.edges, dtype=int).reshape(-1, 2).T
        return np.abs(self.precision[u, v])

    @property
    def j_min(self) -> float:
        """Smallest absolute off-diagonal entry over edges; inf if no edges."""
        return float(np.min(self._edge_magnitudes(), initial=math.inf))

    @property
    def j_max(self) -> float:
        return float(np.max(self._edge_magnitudes(), initial=0.0))

    def is_walk_summable(self) -> bool:
        return self.alpha < 1.0

    def is_attractive(self) -> bool:
        """All off-diagonal precision entries nonpositive."""
        off = self.precision - np.diag(np.diag(self.precision))
        return bool(np.all(off <= 0.0))

    def partial_correlations(self) -> np.ndarray:
        return partial_correlation_matrix(self.precision)

    def sigma(self) -> np.ndarray:
        if self._sigma is None:
            self._sigma = exact_covariance(self.precision)
            self._sigma.setflags(write=False)
        return self._sigma

    def __repr__(self) -> str:
        return f"GaussianModel(p={self.p}, alpha={self.alpha:.4f})"


def synthesize_model(
    graph: Graph,
    target_alpha: float,
    sign_pattern: str = "attractive",
    diagonal: float = 1.0,
    seed: int | None = None,
) -> GaussianModel:
    """Build a model on ``graph`` whose alpha equals ``target_alpha``.

    Every edge gets the same partial correlation magnitude rho; signs follow
    ``sign_pattern``:

    * ``attractive``: all partial correlations positive (J off-diagonals
      nonpositive),
    * ``alternating``: sign +1 when u + v is even, else -1,
    * ``random``: independent signs drawn from the seeded generator.

    ``diagonal`` scales the whole matrix: J = diagonal * (I - rho * signs),
    so the diagonal value is also the smallest (and only) diagonal entry.
    The scale cancels in R, and whatever the signs, |R| = rho * A for the
    adjacency matrix A, so alpha = rho * lambda_max(A) and
    rho = target / lambda_max(A) exactly; no search is involved.  The built
    model's alpha is checked against the target to SYNTHESIS_ALPHA_CHECK.
    """
    if not 0.0 < target_alpha < 1.0:
        raise InvalidParameter(f"target alpha must lie in (0, 1), got {target_alpha}")
    if diagonal < 1.0:
        raise InvalidParameter(f"diagonal must be at least 1, got {diagonal}")
    if sign_pattern not in SIGN_PATTERNS:
        raise InvalidParameter(f"sign_pattern must be one of {SIGN_PATTERNS}")
    if not graph.edges:
        raise SynthesisFailed("graph has no edges; positive alpha is unreachable")

    u, v = np.asarray(graph.edges, dtype=int).T
    if sign_pattern == "attractive":
        edge_signs = np.ones(graph.n_edges)
    elif sign_pattern == "alternating":
        edge_signs = np.where((u + v) % 2 == 0, 1.0, -1.0)
    else:
        gen = _rng(0 if seed is None else seed)
        edge_signs = (gen.integers(0, 2, size=graph.n_edges) * 2 - 1).astype(float)
    signs = np.zeros((graph.p, graph.p))
    signs[u, v] = signs[v, u] = edge_signs

    rho = target_alpha / float(np.linalg.eigvalsh(graph.adjacency_matrix())[-1])
    model = GaussianModel(graph, diagonal * (np.eye(graph.p) - rho * signs))
    if abs(model.alpha - target_alpha) > SYNTHESIS_ALPHA_CHECK:
        raise SynthesisFailed(
            f"synthesized alpha {model.alpha:.12f} misses target {target_alpha:.12f}"
        )
    model.meta = {
        "target_alpha": target_alpha,
        "achieved_alpha": model.alpha,
        "rho": rho,
        "sign_pattern": sign_pattern,
        "diagonal": diagonal,
        "seed": seed,
    }
    return model


@dataclass(frozen=True)
class AssumptionReport:
    """Regularity diagnostics for a model at a given (eta, gamma).

    ``a4_lhs`` is d_min * (1 - alpha) * min over edges of |J(u, v)| / K(u, v)
    where K(u, v) is the squared spectral norm of the (p-2) x 2 block of J
    formed by columns u, v with rows u, v deleted.  The condition holds when
    a4_lhs > 1 + delta; attractive models satisfy it by structure and are
    reported as waived.
    """

    alpha: float
    walk_summable: bool
    attractive: bool
    eta: int
    gamma: int
    delta: float
    k_values: dict[tuple[int, int], float] = field(default_factory=dict)
    a4_lhs: float = math.inf
    a4_satisfied: bool = True
    a4_waived: bool = False
    strength_ratio: float = math.inf
    """j_min / (d_min * alpha**gamma); large values mean edges dominate the
    residual correlation that survives gamma-local conditioning."""

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "walk_summable": self.walk_summable,
            "attractive": self.attractive,
            "eta": self.eta,
            "gamma": self.gamma,
            "delta": self.delta,
            "k_values": {f"{u},{v}": k for (u, v), k in self.k_values.items()},
            "a4_lhs": self.a4_lhs,
            "a4_satisfied": self.a4_satisfied,
            "a4_waived": self.a4_waived,
            "strength_ratio": self.strength_ratio,
        }


def edge_coupling_norms(model: GaussianModel) -> dict[tuple[int, int], float]:
    """K(u, v) = squared spectral norm of J with rows u, v deleted and
    columns restricted to {u, v}.

    The Gram matrix of that block is 2 x 2, so its top eigenvalue has a
    closed form; no iterative solver is involved.
    """
    j = model.precision
    p = model.p
    out: dict[tuple[int, int], float] = {}
    for u, v in model.graph.edges:
        rest = [r for r in range(p) if r != u and r != v]
        if not rest:
            out[(u, v)] = 0.0
            continue
        block = j[np.ix_(rest, [u, v])]
        gram = block.T @ block
        tr = gram[0, 0] + gram[1, 1]
        det = gram[0, 0] * gram[1, 1] - gram[0, 1] * gram[1, 0]
        disc = max(tr * tr - 4.0 * det, 0.0)
        out[(u, v)] = float((tr + math.sqrt(disc)) / 2.0)
    return out


def check_assumptions(model: GaussianModel, eta: int, gamma: int, delta: float = 0.1) -> AssumptionReport:
    """Evaluate the regularity conditions a structure-learning run relies on.

    ``delta`` is the slack in the edge-strength condition; the default 0.1
    is a convention, not a derived constant, and callers may tighten it.
    """
    if eta < 0 or gamma < 0:
        raise InvalidParameter("eta and gamma must be nonnegative")
    if delta <= 0:
        raise InvalidParameter("delta must be positive")
    alpha = model.alpha
    attractive = model.is_attractive()
    k_values = edge_coupling_norms(model)
    a4_lhs = math.inf
    for (u, v), k in k_values.items():
        entry = abs(float(model.precision[u, v]))
        ratio = math.inf if k == 0.0 else entry / k
        a4_lhs = min(a4_lhs, model.d_min * (1.0 - alpha) * ratio)
    a4_ok = a4_lhs > 1.0 + delta
    strength = model.j_min / (model.d_min * alpha**gamma) if alpha > 0 else math.inf
    return AssumptionReport(
        alpha=alpha,
        walk_summable=alpha < 1.0,
        attractive=attractive,
        eta=eta,
        gamma=gamma,
        delta=delta,
        k_values=k_values,
        a4_lhs=a4_lhs,
        a4_satisfied=bool(attractive or a4_ok),
        a4_waived=attractive,
        strength_ratio=strength,
    )
