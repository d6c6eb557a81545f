"""Gaussian models in information form and their walk-sum structure.

A model is a precision matrix J whose off-diagonal support matches a graph:
J[i, j] != 0 exactly when (i, j) is an edge.  The partial correlation matrix
R has entries -J[i, j] / sqrt(J[i, i] * J[j, j]) off the diagonal and zeros
on it, so a normalized model satisfies J = I - R.  The central regularity
number is alpha, the spectral norm of the entrywise absolute value of R;
alpha < 1 makes the covariance a convergent power series in R and bounds
everything downstream.  R, like J, is zero off the support, so one rule
computes it on the support for alpha, R (whose other entries are +0.0) and
belief propagation.  |R| is symmetric, so alpha is its top eigenvalue, read
off a dense symmetric eigensolver; nothing here iterates to a tolerance.
R and alpha do not depend on J's scale: where sqrt(J[i, i] J[j, j]) would
leave the normal floating-point range, R is -J[i, j] s_i s_j with
s = 1 / sqrt(diag J).

Positive definiteness.  A model is accepted only if J is positive definite,
and walk-summability proves it: with D = diag(J), J = D^(1/2) (I - R)
D^(1/2), and x' R x <= |x|' |R| |x| <= alpha |x|^2, so
lambda_min(J) >= (1 - alpha) d_min.  Every Cholesky pivot of J is at least
lambda_min(J), so when (1 - alpha) d_min > PD_CERTIFICATE_RTOL d_max the
alpha that :class:`GaussianModel` computes anyway certifies J and no
factorization runs.  Any other matrix (a diagonal entry <= 0, alpha near or
above 1, or a diagonal so spread that sqrt(d_i d_j) leaves the normal
floating-point range) is factored by the Cholesky check below, with its
messages.

Numeric guards, each a module constant:

* ``PD_PIVOT_RTOL`` (1e-12): a Cholesky factorization is accepted only if
  every pivot exceeds this times the largest diagonal entry.
* ``PD_CERTIFICATE_RTOL`` (1e-6): the walk-sum certificate's margin.  The
  computed alpha and a Cholesky factorization of a matrix with lambda_min
  above the margin both carry rounding errors of order p times machine
  epsilon relative to d_max, far below 1e-6 for any p whose dense matrix
  fits in memory, so a certified matrix's computed pivots stay at least
  about 1e-6 d_max, six orders of magnitude above the pivot floor.
* ``INVERSE_RESIDUAL_TOL`` (1e-8): :func:`exact_covariance` checks
  max |J Sigma - I| against it and fails closed, so a residual that is NaN
  or infinite is an error too.
* ``SYMMETRY_RTOL`` (1e-12): a precision or covariance matrix may differ
  from its transpose by this times its largest finite entry, the rounding
  that a matrix computed in floating point (a product, an inverse) can
  carry; it is then averaged with its transpose, and larger asymmetry is
  an error, as is any at a non-finite entry but NaN opposite NaN.
  :func:`conditional_covariance_exact` checks only the block it reads.
* ``SYNTHESIS_ALPHA_CHECK`` (1e-9): :func:`synthesize_model` checks the
  built model's alpha against the target to this.

Every entry point that takes a precision matrix rejects a non-finite entry
first, naming the first one in row-major order.  Complex input is an
error, not a cast that drops the imaginary part.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import InvalidParameter, NotPositiveDefinite, NumericFailure, SynthesisFailed, check_nonnegative_int
from .graph import Graph, _rng

PD_PIVOT_RTOL = 1e-12
PD_CERTIFICATE_RTOL = 1e-6
INVERSE_RESIDUAL_TOL = 1e-8
SYMMETRY_RTOL = 1e-12
SYNTHESIS_ALPHA_CHECK = 1e-9

SIGN_PATTERNS = ("attractive", "alternating", "random")

_NORMAL_MIN = float(np.finfo(float).tiny)


def _as_float(m, name: str) -> np.ndarray:
    """``m`` as a float array; complex input is an error, not a cast that
    drops the imaginary part."""
    m = np.asarray(m)
    if m.dtype.kind == "c":
        raise InvalidParameter(f"{name} must be real, got a {m.dtype} array")
    return np.asarray(m, dtype=float)


def _as_square(m, name="matrix") -> np.ndarray:
    m = _as_float(m, name)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameter(f"{name} must be square, got shape {m.shape}")
    return m


def _as_precision(m) -> np.ndarray:
    """``m`` as a square float array whose entries are all finite."""
    j = _as_square(m, "precision matrix")
    if not np.isfinite(j).all():
        u, v = (int(x) for x in np.argwhere(~np.isfinite(j))[0])
        raise InvalidParameter(f"precision matrix entry ({u}, {v}) is {j[u, v]}, not finite")
    return j


def _symmetric(j: np.ndarray, name: str = "precision matrix") -> np.ndarray:
    """``j`` averaged with its transpose, provided the two differ by at most
    SYMMETRY_RTOL times the largest finite entry; larger asymmetry, or any
    at a non-finite entry but NaN opposite NaN, is an error naming it."""
    if (j == j.T).all():
        return j
    differ = (j != j.T) & ~(np.isnan(j) & np.isnan(j.T))
    gap = np.abs(j[differ] - j.T[differ]) if np.isfinite(j[differ]).all() else math.inf
    top = float(np.max(np.abs(j), where=np.isfinite(j), initial=0.0))
    if np.max(gap, initial=0.0) > SYMMETRY_RTOL * max(1.0, top):
        raise InvalidParameter(f"{name} must be symmetric")
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


def _positive_diagonal(j: np.ndarray) -> np.ndarray:
    d = np.diag(j)
    if np.any(d <= 0):
        raise InvalidParameter("precision matrix needs strictly positive diagonal")
    return d


def _in_range(d_min: float, d_max: float) -> bool:
    """Whether every product d_i d_j of a positive diagonal with these
    extremes is a finite normal float, so that sqrt(d_i d_j) is accurate."""
    return d_min * d_min >= _NORMAL_MIN and d_max * d_max < math.inf


def _partial_correlations(j: np.ndarray, d: np.ndarray, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """R at the directed index pairs (s, t), for J's diagonal ``d > 0``; an
    entry that overflows is inf.  When ``_in_range`` holds for the whole
    diagonal this is -J[s, t] / sqrt(d_s d_t), and otherwise
    -J[s, t] sigma_s sigma_t with sigma = 1 / sqrt(d), whose factors stay in
    range for any positive diagonal."""
    with np.errstate(over="ignore"):
        if _in_range(float(np.min(d)), float(np.max(d))):
            return -j[s, t] / np.sqrt(d[s] * d[t])
        sigma = 1.0 / np.sqrt(d)
        return -j[s, t] * sigma[s] * sigma[t]


def partial_correlation_matrix(j) -> np.ndarray:
    """R with R[i, j] = -J[i, j] / sqrt(J[i, i] J[j, j]) and zero diagonal,
    built on J's nonzeros, so an entry off J's support is +0.0."""
    j = _as_precision(j)
    s, t = np.nonzero(j)
    r = np.zeros(j.shape)
    r[s, t] = _partial_correlations(j, _positive_diagonal(j), s, t)
    np.fill_diagonal(r, 0.0)
    return r


def _alpha(j: np.ndarray, d: np.ndarray, u: np.ndarray, v: np.ndarray) -> float:
    """alpha of the symmetric finite matrix ``j`` with diagonal ``d > 0``
    and off-diagonal support on the pairs (u, v): the top eigenvalue of |R|,
    or inf when an entry overflows (alpha is at least every entry).  (v, u)
    gets its own product order, so |R| is ``abs(partial_correlation_matrix(j))``
    bit for bit: negation is exact, and rounding symmetric in sign."""
    upper = np.abs(_partial_correlations(j, d, u, v))
    lower = np.abs(_partial_correlations(j, d, v, u))
    if not (np.isfinite(upper).all() and np.isfinite(lower).all()):
        return math.inf
    r = np.zeros(j.shape)
    r[u, v], r[v, u] = upper, lower
    return _top_eigenvalue(r)


def _top_eigenvalue(a: np.ndarray) -> float:
    """Top eigenvalue of a symmetric matrix with nonnegative entries, read
    from one triangle by ``np.linalg.eigvalsh``."""
    eigenvalues = np.linalg.eigvalsh(a)
    return max(float(eigenvalues[-1]), 0.0) if eigenvalues.size else 0.0


def walk_summability_alpha(j) -> float:
    """alpha = spectral norm of |R|.

    |R| is symmetric, so its spectral norm is its top eigenvalue, taken
    from ``np.linalg.eigvalsh``.  That solver reads one triangle only, so
    ``j`` is symmetrized first (or rejected if it is not symmetric to
    SYMMETRY_RTOL).
    """
    j = _symmetric(_as_precision(j))
    d = _positive_diagonal(j)
    u, v = np.nonzero(j)
    upper = u < v
    return _alpha(j, d, u[upper], v[upper])


def exact_covariance(j) -> np.ndarray:
    """Covariance J^{-1} via Cholesky, with the residual ||J Sigma - I||_max
    checked against INVERSE_RESIDUAL_TOL.

    The check fails closed: an inverse that overflows gives a NaN or
    infinite residual, which is reported, not passed."""
    j = _as_precision(j)
    low = _cholesky_pd(j)
    with np.errstate(over="ignore", invalid="ignore"):
        low_inv = np.linalg.inv(low)
        sigma = low_inv.T @ low_inv
        sigma = (sigma + sigma.T) / 2.0
        residual = float(np.max(np.abs(j @ sigma - np.eye(j.shape[0]))))
    if not residual <= INVERSE_RESIDUAL_TOL:
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


def _check_pair(sigma: np.ndarray, i: int, j: int, cond_set) -> np.ndarray:
    """Validate a pair (i, j) and a conditioning set S of integer labels
    (numpy integers too, not bools) against sigma; returns (i, j, *S) as
    indices."""
    p = sigma.shape[0]
    cond = tuple(cond_set)
    for x in (i, j, *cond):
        if type(x) is not int:  # the common case; a bool's type is not int
            check_nonnegative_int("vertex", x)
    if not (0 <= i < p and 0 <= j < p):
        raise InvalidParameter(f"indices ({i}, {j}) out of range for p={p}")
    if i in cond or j in cond:
        raise InvalidParameter("conditioning set must exclude i and j")
    if len(set(cond)) != len(cond):
        raise InvalidParameter("conditioning set has repeated vertices")
    if cond and not (min(cond) >= 0 and max(cond) < p):
        raise InvalidParameter(f"conditioning set {[int(s) for s in cond]} out of range for p={p}")
    return np.array((i, j, *cond), dtype=np.intp)


def _schur_cross(blocks: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Sigma(i, j | S) = B[0, 1] - B[0, S] B[S, S]^{-1} B[S, 1] of a block B,
    Sigma's entries on ``at`` = (i, j, *S) with |S| >= 1, or of each block
    of a stack, given with one row of ``at`` each.  One stacked LU solve and
    one stacked product serve a stack; each block's solve and dot product
    are those of the block alone, so a stack gives every block the bits it
    gets by itself.  A singular B[S, S] raises NumericFailure naming the
    first such S."""
    try:
        solved = np.linalg.solve(blocks[..., 2:, 2:], blocks[..., 2:, 1:2])
    except np.linalg.LinAlgError as exc:
        # LU fails on an exactly zero pivot, which gives an exactly zero determinant
        bad = np.linalg.det(blocks[..., 2:, 2:]) == 0.0
        raise NumericFailure(f"singular conditioning block for S={at[..., 2:][bad][0].tolist()}: {exc}") from exc
    return blocks[..., 0, 1] - (blocks[..., :1, 2:] @ solved)[..., 0, 0]


def conditional_covariance_exact(sigma, i: int, j: int, cond_set=()) -> float:
    """Sigma(i, j | S) = Sigma[i, j] - Sigma[i, S] Sigma[S, S]^{-1} Sigma[S, j].

    Works for i == j (conditional variance).  S may be empty.  Only the
    block of Sigma on (i, j, S) is read, and it must be symmetric to
    SYMMETRY_RTOL, a NaN only opposite a NaN; within that it is averaged
    with its transpose.  A NaN that the formula reads gives NaN, and a
    singular Sigma[S, S] raises NumericFailure.  ``_schur_cross`` holds the
    formula, which ``estimator.oracle_gap`` applies to stacks of sets.
    """
    sigma = _as_square(sigma, "covariance matrix")
    at = _check_pair(sigma, i, j, cond_set)
    block = _symmetric(sigma.take(at, 0).take(at, 1), "covariance matrix")
    if len(at) == 2:
        return float(block[0, 1])
    return float(_schur_cross(block, at))


def _raise_support_mismatch(graph: Graph, j: np.ndarray) -> None:
    on_edge = graph.adjacency_matrix() != 0.0
    # argwhere lists the upper triangle in row-major order, so the
    # reported pair is the first offending (u, v) with u < v
    u, v = (int(x) for x in np.argwhere(np.triu(on_edge != (j != 0.0), k=1))[0])
    if on_edge[u, v]:
        raise InvalidParameter(f"edge ({u}, {v}) has zero precision entry")
    raise InvalidParameter(f"non-edge ({u}, {v}) has nonzero precision entry")


class GaussianModel:
    """A precision matrix tied to its sparsity graph.

    The covariance and its Cholesky factor are computed lazily on first
    access and cached.

    :param graph: sparsity pattern; J[u, v] must be nonzero exactly on edges.
    :param precision: symmetric positive definite matrix of shape (p, p).
    :param meta: optional synthesis metadata carried through serialization.
    """

    def __init__(self, graph: Graph, precision, meta: dict | None = None):
        j = _as_precision(precision)
        if j.shape[0] != graph.p:
            raise InvalidParameter(f"precision is {j.shape[0]}x{j.shape[0]} but graph has p={graph.p}")
        j = _symmetric(j)
        d = np.diag(j)
        # j is symmetric, so its support matches the graph exactly when every
        # edge entry is nonzero and the off-diagonal nonzeros number 2|E|
        u, v = np.asarray(graph.edges, dtype=np.intp).reshape(-1, 2).T
        if np.count_nonzero(j) - np.count_nonzero(d) != 2 * len(u) or not np.all(j[u, v]):
            _raise_support_mismatch(graph, j)
        d_min, d_max = float(np.min(d)), float(np.max(d))
        alpha = _alpha(j, d, u, v) if d_min > 0.0 else math.inf
        # the walk-sum certificate of the module docstring, else Cholesky,
        # which rejects every matrix with a diagonal entry <= 0
        if not (d_min > 0.0 and _in_range(d_min, d_max) and (1.0 - alpha) * d_min > PD_CERTIFICATE_RTOL * d_max):
            _cholesky_pd(j)
        self.graph = graph
        self.precision = j.copy()
        self.precision.setflags(write=False)
        self.meta = dict(meta or {})
        self.alpha = alpha
        self._sigma: np.ndarray | None = None
        self._factor: np.ndarray | None = None

    @property
    def p(self) -> int:
        return self.graph.p

    @property
    def d_min(self) -> float:
        return float(np.min(np.diag(self.precision)))

    def _edge_values(self) -> np.ndarray:
        u, v = np.asarray(self.graph.edges, dtype=np.intp).reshape(-1, 2).T
        return self.precision[u, v]

    @property
    def j_min(self) -> float:
        """Smallest absolute off-diagonal entry over edges; inf if no edges."""
        return float(np.min(np.abs(self._edge_values()), initial=math.inf))

    @property
    def j_max(self) -> float:
        return float(np.max(np.abs(self._edge_values()), initial=0.0))

    def is_walk_summable(self) -> bool:
        return self.alpha < 1.0

    def is_attractive(self) -> bool:
        """All off-diagonal precision entries (those on edges) nonpositive."""
        return bool(np.all(self._edge_values() <= 0.0))

    def partial_correlations(self) -> np.ndarray:
        return partial_correlation_matrix(self.precision)

    def sigma(self) -> np.ndarray:
        if self._sigma is None:
            self._sigma = exact_covariance(self.precision)
            self._sigma.setflags(write=False)
        return self._sigma

    def sigma_factor(self) -> np.ndarray:
        """Lower Cholesky factor of :meth:`sigma`, the factor the sampler
        multiplies normal draws by; computed once and cached read-only."""
        if self._factor is None:
            self._factor = np.linalg.cholesky(self.sigma())
            self._factor.setflags(write=False)
        return self._factor

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
        return {**asdict(self), "k_values": {f"{u},{v}": k for (u, v), k in self.k_values.items()}}


def edge_coupling_norms(model: GaussianModel) -> dict[tuple[int, int], float]:
    """K(u, v) = squared spectral norm of J with rows u, v deleted and
    columns restricted to {u, v}.

    That block's 2 x 2 Gram holds the squared norms of columns u and v
    without their rows u and v, and the columns' inner product, which only
    their common neighbours feed.  On J's support each is a sum over one
    vertex's neighbours, and the top eigenvalue has a closed form; no
    iterative solver is involved.
    """
    j = model.precision
    columns = [dict(zip(near, j[list(near), u].tolist())) for u, near in enumerate(model.graph.adjacency)]
    out: dict[tuple[int, int], float] = {}
    for u, v in model.graph.edges:
        col_u, col_v = columns[u], columns[v]
        a = sum(x * x for w, x in col_u.items() if w != v)
        b = sum(x * x for w, x in col_v.items() if w != u)
        c = sum(x * col_v[w] for w, x in col_u.items() if w in col_v)
        out[(u, v)] = (a + b + math.sqrt((a - b) ** 2 + 4.0 * c * c)) / 2.0
    return out


def check_assumptions(model: GaussianModel, eta: int, gamma: int, delta: float = 0.1) -> AssumptionReport:
    """Evaluate the regularity conditions a structure-learning run relies on.

    ``delta`` is the slack in the edge-strength condition; the default 0.1
    is a convention, not a derived constant, and callers may tighten it.
    """
    check_nonnegative_int("eta", eta)
    check_nonnegative_int("gamma", gamma)
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
