"""Structure estimation by thresholding conditional statistics.

For every vertex pair (i, j) the estimator minimizes a conditional
statistic over all conditioning sets S of size at most eta (excluding i and
j) and declares an edge exactly when the minimized statistic strictly
exceeds the threshold xi.  Statistics:

* ``covariance``: |Sigma(i, j | S)|, the absolute conditional covariance,
* ``mutual_information``: -0.5 * ln(1 - rho(i, j | S)^2) in nats, compared
  against xi squared.

The scan conditions on one vertex at a time, as in the partial-correlation
recursion of the PC algorithm: Sigma(., . | S + k) = Sigma(., . | S) -
c c^T / c_k with c = Sigma(., k | S).  ``cmit`` applies each step to the
whole p x p matrix and reads the statistic of every pair off it.  Sets are
visited in canonical order (sizes ascending, one depth-first walk per size,
lexicographic within a size) and a running minimum keeps the first set in
that order among ties, so results are deterministic.  The cost is the
paper's O(p^(eta+2)) time: O(p^eta) sets at O(p^2) each; memory is
O((eta+1) p^2), one conditional matrix per level of the walk.
``min_conditional_statistic`` runs the same recursion for a single pair in
O(p^max(eta, 1)) time and returns the same value, set and status as ``cmit``.
The conditional covariance for one fixed set is
``model.conditional_covariance_exact``.

The per-set step allocates nothing: each level of the walk writes its
conditional matrix into one preallocated p x p buffer, with the same
floating point operations in the same order as ``sigma - np.outer(c, c) /
c[k]``, and the all-pairs scan keeps its statistic and comparison arrays
preallocated too.  Mutual information is minimized on its key rho^2 =
cov^2 / (var_i var_j), on which it is increasing, and each pair's minimum
is converted to -0.5 * ln(1 - rho^2) once at the end, not at every set;
ties are therefore ties of rho^2.  The all-pairs running minimum of
rho^2 starts at 1, above every defined key, so an undefined one (rho^2 >=
1 or NaN) never wins unmasked; the mask of a variance product <= 0 runs
only at a set that leaves a conditional variance <= 0 (-0.0 included) off
its own rows, since two positive variances have a nonnegative product.
Each level of the walk judges the guard of all the sets that extend its
prefix by one vertex with one call.

``EstimationResult.to_json`` writes the text of ``result.json``, byte for
byte ``json.dumps(to_dict(), indent=2, sort_keys=True) + "\\n"``, with the
pair records formatted from the result's arrays instead of one dict per
pair through the pure-Python indenting encoder.

A set S is skipped when its block Sigma[S, S] fails the conditioning
guard: |S| = 1 needs a positive variance, |S| = 2 a positive smallest
eigenvalue (closed form) and condition number at most ``cond_limit``,
|S| >= 3 the same from the singular values.  For a positive semidefinite
input every superset of a failing set fails too, and the walk skips them
together.  In sample mode sets with |S| >= n are skipped outright since the
empirical block cannot be trusted.  A pair whose sets all fail is reported
as failed and treated as a non-edge.

With ``early_exit`` a pair stops after the first size class at the end of
which its running minimum is at or below the threshold, so the edge set is
that of the full scan.  The pair is reported with status ``early_exit`` and
that minimum, an upper bound of its full minimum; this is the smallest
value of that size class, not the first set found below the threshold.
The scan ends once every pair has stopped.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameter, config_kwargs
from .graph import Graph, separation_profile
from .model import GaussianModel, _check_pair, conditional_covariance_exact
from .sampler import SampleSet, empirical_covariance

DEFAULT_KAPPA = 2.0
DEFAULT_COND_LIMIT = 1e12

STATISTICS = ("covariance", "mutual_information")


def default_threshold(n: int, p: int, kappa: float = DEFAULT_KAPPA) -> float:
    """xi = kappa * sqrt(ln(p) / n)."""
    if n < 1 or p < 2:
        raise InvalidParameter(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    if kappa <= 0:
        raise InvalidParameter("kappa must be positive")
    return kappa * math.sqrt(math.log(p) / n)


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the conditional-statistic test.

    ``xi=None`` selects the default threshold rule in sample mode; exact
    mode has no sample size to plug into the rule, so it requires an
    explicit threshold.  ``early_exit`` stops scanning a pair after the
    first size class that brings its minimum to the threshold or below;
    reported values are then upper bounds for non-edges, edges unchanged.
    """

    eta: int = 1
    xi: float | None = None
    kappa: float = DEFAULT_KAPPA
    statistic: str = "covariance"
    exact_mode: bool = False
    early_exit: bool = False
    cond_limit: float = DEFAULT_COND_LIMIT

    def __post_init__(self):
        if self.eta < 0:
            raise InvalidParameter("eta must be nonnegative")
        if self.statistic not in STATISTICS:
            raise InvalidParameter(f"statistic must be one of {STATISTICS}")
        if self.xi is not None and self.xi < 0:
            raise InvalidParameter("threshold must be nonnegative")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EstimatorConfig":
        # results written while the scan had a pair-level thread pool still load
        return cls(**config_kwargs(cls, data, ignore=("threads",)))


@dataclass(frozen=True)
class PairDecision:
    """Outcome of the subset scan for one pair."""

    value: float
    subset: tuple[int, ...] | None
    status: str  # "ok", "failed", or "early_exit"


STATUSES = ("ok", "failed", "early_exit")


def _json_value(x: float) -> str:
    """A pair value as ``json.dumps`` writes ``to_dict``'s: null when
    infinite, NaN when not a number, else ``float.__repr__``."""
    if math.isfinite(x):
        return repr(x)
    return "null" if math.isinf(x) else "NaN"


def _json_set(subset: tuple[int, ...]) -> str:
    """A pair's set as ``json.dumps(indent=2)`` writes it in ``result.json``."""
    if not subset:
        return "[]"
    return "[\n" + ",\n".join(f"        {k}" for k in subset) + "\n      ]"


@dataclass(eq=False)
class EstimationResult:
    """Outcome of ``cmit``.

    Pair outcomes are arrays over the pairs u < v in row-major order:
    ``values`` (infinite for a failed pair), ``set_index`` into ``sets``
    (-1 for no set) and ``status`` (an index into ``STATUSES``).  ``pairs``,
    the read-only mapping (u, v) -> PairDecision, is materialized on first
    access and cached.
    """

    p: int
    edges: tuple[tuple[int, int], ...]
    threshold: float
    statistic: str
    eta: int
    n: int | None
    elapsed_s: float
    config: EstimatorConfig
    values: np.ndarray
    set_index: np.ndarray
    status: np.ndarray
    sets: list[tuple[int, ...]]

    @property
    def graph(self) -> Graph:
        return Graph(self.p, self.edges)

    def _records(self):
        """(u, v, value, set or None, status) for every pair, in row-major order."""
        sets = self.sets + [None]
        return zip(*(x.tolist() for x in np.triu_indices(self.p, 1)), self.values.tolist(),
                   [sets[a] for a in self.set_index.tolist()], [STATUSES[c] for c in self.status.tolist()])

    @cached_property
    def pairs(self) -> MappingProxyType:
        return MappingProxyType({(u, v): PairDecision(*rec) for u, v, *rec in self._records()})

    def _header(self) -> dict:
        """Every field of ``to_dict`` but ``pairs``."""
        return {
            "p": self.p,
            "edges": [list(e) for e in self.edges],
            "threshold": self.threshold,
            "statistic": self.statistic,
            "eta": self.eta,
            "n": self.n,
            "elapsed_s": self.elapsed_s,
            "config": self.config.to_dict(),
        }

    def to_dict(self) -> dict:
        return {
            **self._header(),
            "pairs": {
                f"{u},{v}": {
                    "value": None if math.isinf(value) else value,
                    "subset": None if subset is None else list(subset),
                    "status": status,
                }
                for u, v, value, subset, status in self._records()
            },
        }

    def to_json(self) -> str:
        """The text of ``json.dumps(self.to_dict(), indent=2, sort_keys=True)
        + "\\n"``, the ``result.json`` layout, without building a dict per
        pair: the header goes through ``json.dumps``, each pair record is
        one f-string over the arrays, and each set is formatted once."""
        text = json.dumps({**self._header(), "pairs": {}}, indent=2, sort_keys=True) + "\n"
        if not len(self.values):
            return text
        sets = [_json_set(s) for s in self.sets] + ["null"]
        records = [
            f'    "{u},{v}": {{\n      "status": "{STATUSES[c]}",\n      "subset": {sets[a]},\n'
            f'      "value": {_json_value(x)}\n    }}'
            for u, v, x, a, c in zip(*(k.tolist() for k in np.triu_indices(self.p, 1)), self.values.tolist(),
                                     self.set_index.tolist(), self.status.tolist())
        ]
        # a record is its key, a closing quote, then the rest; the quote sorts
        # below ',' and the digits, so sorting records sorts keys as sort_keys does
        records.sort()
        return text.replace('\n  "pairs": {}', '\n  "pairs": {\n' + ",\n".join(records) + "\n  }", 1)

    @classmethod
    def from_dict(cls, data: dict) -> "EstimationResult":
        p = data["p"]
        size = p * (p - 1) // 2
        # a pair the file does not list reads as failed
        values = np.full(size, math.inf)
        set_index = np.full(size, -1, dtype=np.intp)
        status = np.full(size, STATUSES.index("failed"), dtype=np.int8)
        sets: dict[tuple[int, ...], int] = {}
        for key, rec in data["pairs"].items():
            u, v = (int(x) for x in key.split(","))
            k = u * (2 * p - u - 1) // 2 + v - u - 1  # row-major position of u < v
            values[k] = math.inf if rec["value"] is None else float(rec["value"])
            if rec["subset"] is not None:
                set_index[k] = sets.setdefault(tuple(rec["subset"]), len(sets))
            status[k] = STATUSES.index(rec["status"])
        return cls(
            p=p,
            edges=tuple(tuple(e) for e in data["edges"]),
            threshold=data["threshold"],
            statistic=data["statistic"],
            eta=data["eta"],
            n=data["n"],
            elapsed_s=data["elapsed_s"],
            config=EstimatorConfig.from_dict(data["config"]),
            values=values,
            set_index=set_index,
            status=status,
            sets=list(sets),
        )


class _Guard:
    """The conditioning guard of every set S, judged on the block Sigma[S, S].

    |S| = 1 needs a positive variance; |S| = 2 uses the closed-form
    eigenvalues of the 2 x 2 block; |S| >= 3 its singular values.  A larger
    block passes when its smallest eigenvalue (singular value) is positive
    and its condition number is at most ``cond_limit``.
    """

    def __init__(self, sigma: np.ndarray, cond_limit: float):
        self.sigma = sigma
        self.cond_limit = cond_limit
        self.d = np.diag(sigma).copy()
        dk, dl = self.d[:, None], self.d[None, :]
        tr = dk + dl
        disc = np.sqrt((dk - dl) ** 2 + 4.0 * sigma * sigma)
        lam_min = (tr - disc) / 2.0
        lam_max = (tr + disc) / 2.0
        self.pair_ok = (lam_min > 0.0) & (lam_max <= cond_limit * lam_min)

    def passes(self, prefix: tuple[int, ...], *last: np.ndarray) -> np.ndarray:
        """Verdict for every set prefix + (last[0][t], ..., last[-1][t])."""
        cols = (*prefix, *last)
        if len(cols) == 1:
            return self.d[cols[0]] > 0.0
        if len(cols) == 2:
            return self.pair_ok[cols[0], cols[1]]
        sets = np.column_stack([np.full(len(last[0]), v) for v in prefix] + list(last))
        svals = np.linalg.svd(self.sigma[sets[:, :, None], sets[:, None, :]], compute_uv=False)
        return (svals[:, -1] > 0.0) & (svals[:, 0] <= self.cond_limit * svals[:, -1])


def _walk(sigma: np.ndarray, size: int, guard: _Guard, candidates: np.ndarray, members=(), start=0,
          bufs=None):
    """Yield (S, Sigma(., . | S)) for every set S of ``size`` vertices from
    the ascending ``candidates`` that passes the guard, in lexicographic
    order; ``sigma`` is conditioned on ``members`` already, and sets extend
    them with candidates from position ``start`` on.

    Depth first, one rank-1 Schur step per level:
    Sigma(., . | S + k) = Sigma(., . | S) - c c^T / c_k with
    c = Sigma(., k | S), written into that level's slice of ``bufs``, so
    the walk allocates nothing per set and a yielded matrix is valid only
    until the next one.  Each level judges the sets of all its candidates
    with one guard call.  A set that fails the guard is skipped with all
    its supersets: for a positive semidefinite input their blocks are at
    least as ill conditioned (Cauchy interlacing).
    """
    if len(members) == size:
        yield members, sigma
        return
    if bufs is None:
        bufs = np.empty((size, *sigma.shape))
    buf = bufs[len(members)]
    ks = candidates[start:len(candidates) - (size - len(members)) + 1]
    for pos in np.flatnonzero(guard.passes(members, ks)).tolist():
        k = int(ks[pos])
        c = sigma[:, k]
        # the operations of sigma - np.outer(c, c) / c[k], in place
        np.multiply(c[:, None], c, out=buf)
        np.divide(buf, c[k], out=buf)
        np.subtract(sigma, buf, out=buf)
        yield from _walk(buf, size, guard, candidates, members + (k,), start + pos + 1, bufs)


def _key(cov, var_i, var_j, statistic: str, out=None, den=None, bad=None, masked=True):
    """The key a pair's statistic is minimized on, from its conditional
    2 x 2 block: |cov| for covariance, rho^2 = cov^2 / (var_i var_j) for
    mutual information, which is increasing in rho^2 (``_value``).  The
    key is infinite where mutual information is undefined (variance product
    not positive, or rho^2 not below one).  Array inputs; ``out``, ``den``
    and ``bad`` are optional scratch arrays of the result's shape (float,
    float, bool).  ``masked=False`` leaves the undefined entries as
    computed, for a caller that has ruled out a variance product <= 0 and
    whose running minimum starts at 1, so a key >= 1 or NaN never wins.
    Callers silence the floating point warnings of the undefined entries."""
    if statistic == "covariance":
        return np.abs(cov, out=out)
    den = np.multiply(var_i, var_j, out=den)
    key = np.multiply(cov, cov, out=out)
    np.divide(key, den, out=key)
    if not masked:
        return key
    bad = np.less_equal(den, 0.0, out=bad)
    np.copyto(key, np.inf, where=bad)
    np.copyto(key, np.inf, where=np.logical_not(np.less(key, 1.0, out=bad), out=bad))
    return key


def _value(key, statistic: str):
    """The statistic of a key: the key itself for covariance, and
    -0.5 * ln(1 - rho^2) for mutual information, infinite for an infinite
    key."""
    if statistic == "covariance":
        return key
    return np.where(key < 1.0, -0.5 * np.log1p(-key), np.inf)


def _max_size(eta: int, n: int | None) -> int:
    """Largest conditioning set scanned; in sample mode |S| < n."""
    return eta if n is None else min(eta, n - 1)


def _scan_all(sigma: np.ndarray, max_size: int, statistic: str, guard: _Guard,
              threshold: float | None):
    """Minimize the key of every pair at once.

    Each size class is one walk.  At every set the key of all pairs is
    read off the conditional matrix into preallocated scratch arrays, with
    the rows and columns of the set's members masked, and a strict ``<``
    keeps the first set in canonical order among ties.  A mutual
    information minimum starts at 1 (module docstring), and pairs that no
    set improved end with an infinite key.

    With a ``threshold`` (early exit) a pair is frozen after the first size
    class that brings its minimum statistic to the threshold or below.
    From size 2 on, once at most a quarter of the pairs are still open,
    they are finished one at a time by ``_scan_pair``, whose cost no longer
    grows with the number of frozen pairs.

    Returns p x p arrays, read above the diagonal (the minimum key, the
    index of the argmin set in the returned list or -1, and the early-exit
    flag), and the list of sets.
    """
    p = sigma.shape[0]
    mi = statistic == "mutual_information"
    best = np.full((p, p), 1.0 if mi else np.inf)
    arg = np.full((p, p), -1, dtype=np.intp)
    stat, den = np.empty((p, p)), np.empty((p, p))
    better, bad = np.empty((p, p), dtype=bool), np.empty((p, p), dtype=bool)
    low = np.empty(p, dtype=bool)
    lower = np.tri(p, dtype=bool)
    # the diagonal and lower triangle start frozen, so ~frozen lists the open pairs
    frozen = lower.copy()
    winners: list[tuple[int, ...]] = []
    vertices = np.arange(p)
    size = 0
    while size <= max_size:
        if threshold is not None:
            still_open = np.count_nonzero(~frozen)
            if still_open == 0 or (size >= 2 and 8 * still_open <= p * (p - 1)):
                break
            open_pairs = ~frozen
        for subset, cond in _walk(sigma, size, guard, vertices):
            d = cond.diagonal()
            if mi:
                # the set's own rows and columns are masked below
                np.less_equal(d, 0.0, out=low)
                low[list(subset)] = False
            _key(cond, d[:, None], d, statistic, stat, den, bad, masked=mi and low.any())
            np.less(stat, best, out=better)
            for k in subset:
                better[k] = False
                better[:, k] = False
            if threshold is not None:
                better &= open_pairs
            if better.any():
                np.copyto(best, stat, where=better)
                np.copyto(arg, len(winners), where=better)
                winners.append(subset)
        if threshold is not None:
            frozen |= _value(best, statistic) <= threshold
        size += 1
    np.copyto(best, np.inf, where=arg < 0)  # pairs no set improved
    if size <= max_size:
        for i, j in np.argwhere(~frozen).tolist():
            resume = (size, float(best[i, j]), winners[arg[i, j]] if arg[i, j] >= 0 else None)
            best[i, j], subset, frozen[i, j] = _scan_pair(
                sigma, i, j, max_size, statistic, guard, threshold, resume)
            if subset is not None:
                arg[i, j] = len(winners)
                winners.append(subset)
    return best, arg, frozen & ~lower, winners


@lru_cache(maxsize=4)  # a scan uses one length, p - 2
def _position_pairs(k: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(k, 1)``, built once per length and read-only: the
    (m, l) position pairs, m < l, in row-major order."""
    pairs = np.triu_indices(k, 1)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _scan_pair(sigma: np.ndarray, i: int, j: int, max_size: int, statistic: str,
               guard: _Guard, threshold: float | None = None, resume=None):
    """Minimize the key of one pair with the same recursion as
    ``_scan_all`` and the same arithmetic, so keys agree bit for bit.

    Only the pair's 2 x 2 block is needed, so the last conditioning vertex
    (size 1) or the last two (size >= 2) of every set are applied to whole
    vectors at once; the walk supplies the rest of the set.  Time per pair
    is O(p^max(eta, 1)) instead of O(p^(eta+2)).

    ``resume`` = (size, minimum key, argmin set) continues a pair whose
    smaller sizes are done; a ``threshold`` stops after the first size
    class that brings the minimum statistic to it or below (early exit).
    Returns the minimum key, the argmin set and whether the pair stopped
    early; a failed pair has an infinite key and no set.
    """
    others = np.delete(np.arange(sigma.shape[0]), [i, j])
    if resume is None:
        resume = (1, float(_key(sigma[[i], [j]], sigma[[i], [i]], sigma[[j], [j]], statistic)[0]), ())
    first, best, best_subset = resume
    if max_size >= 2:
        # the pairs of a suffix others[start:] are the tail with m >= start
        m_pos, l_pos = _position_pairs(len(others))
    for size in range(first, max_size + 1):
        batch = min(size, 2)
        for prefix, cond in _walk(sigma, size - batch, guard, others):
            ci, cj, dg = cond[i], cond[j], np.diagonal(cond)
            if batch == 1:
                last = (others,)
                c_ij, c_ii, c_jj = cond[i, j], cond[i, i], cond[j, j]
                a, b, piv = ci[others], cj[others], dg[others]
            else:
                # sets prefix + (m, l), m < l: condition on m, then on l
                start = int(np.searchsorted(others, prefix[-1], side="right")) if prefix else 0
                cut = int(np.searchsorted(m_pos, start))
                m, l = others[m_pos[cut:]], others[l_pos[cut:]]
                last = (m, l)
                am, bm, pm, c_lm = ci[m], cj[m], dg[m], cond[l, m]
                c_ij = cond[i, j] - am * bm / pm
                if statistic != "covariance":
                    c_ii = cond[i, i] - am * am / pm
                    c_jj = cond[j, j] - bm * bm / pm
                a = ci[l] - am * c_lm / pm
                b = cj[l] - bm * c_lm / pm
                piv = dg[l] - c_lm * c_lm / pm
            if statistic == "covariance":
                values = np.abs(c_ij - a * b / piv)
            else:
                values = _key(c_ij - a * b / piv, c_ii - a * a / piv, c_jj - b * b / piv, statistic)
            values = np.where(guard.passes(prefix, *last) & ~np.isnan(values), values, np.inf)
            pos = int(np.argmin(values)) if len(values) else 0
            if len(values) and values[pos] < best:
                best = float(values[pos])
                best_subset = prefix + tuple(int(col[pos]) for col in last)
        if threshold is not None and _value(best, statistic) <= threshold:
            return best, best_subset, True
    return best, None if math.isinf(best) else best_subset, False


def min_conditional_statistic(
    sigma,
    i: int,
    j: int,
    eta: int,
    statistic: str = "covariance",
    n: int | None = None,
    cond_limit: float = DEFAULT_COND_LIMIT,
) -> PairDecision:
    """Exact minimum of the conditional statistic for one pair.

    Returns the minimizing value, the argmin subset (lexicographically
    smallest among ties, smaller sizes first), and a status flag; equal to
    the pair's entry in ``cmit`` on the same covariance and settings.
    """
    sigma = np.asarray(sigma, dtype=float)
    _check_pair(sigma, i, j, ())
    if i == j:
        raise InvalidParameter("pair statistics need distinct vertices")
    if statistic not in STATISTICS:
        raise InvalidParameter(f"statistic must be one of {STATISTICS}")
    if eta < 0:
        raise InvalidParameter("eta must be nonnegative")
    with np.errstate(divide="ignore", invalid="ignore"):
        key, subset, _ = _scan_pair(sigma, i, j, _max_size(eta, n), statistic, _Guard(sigma, cond_limit))
        value = float(_value(key, statistic))
    return PairDecision(value, subset, STATUSES[int(math.isinf(value))])


def _resolve_source(source, config: EstimatorConfig):
    if config.exact_mode:
        if isinstance(source, GaussianModel):
            return source.sigma(), None
        arr = np.asarray(source, dtype=float)
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            return arr, None
        raise InvalidParameter("exact mode needs a GaussianModel or a square covariance matrix")
    if isinstance(source, SampleSet):
        return source.empirical_covariance(), source.n
    arr = np.asarray(source, dtype=float)
    if arr.ndim == 2:
        return empirical_covariance(arr), arr.shape[0]
    raise InvalidParameter("sample mode needs a SampleSet or an (n, p) data matrix")


def _resolve_threshold(config: EstimatorConfig, n: int | None, p: int) -> float:
    if config.xi is not None:
        return config.xi
    if n is None:
        raise InvalidParameter("exact mode requires an explicit threshold xi")
    return default_threshold(n, p, config.kappa)


def cmit(source, config: EstimatorConfig) -> EstimationResult:
    """Run the conditional-statistic test over all pairs.

    ``source`` is a SampleSet or (n, p) data matrix in sample mode, and a
    GaussianModel or exact covariance matrix when ``config.exact_mode``.
    An edge is declared when the pair's minimized statistic strictly
    exceeds the threshold (xi for covariance, xi squared for mutual
    information).
    """
    start = time.perf_counter()
    sigma, n = _resolve_source(source, config)
    p = sigma.shape[0]
    if p < 2:
        raise InvalidParameter("need at least two variables")
    xi = _resolve_threshold(config, n, p)
    threshold = xi * xi if config.statistic == "mutual_information" else xi
    iu, ju = np.triu_indices(p, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        best, arg, early, winners = _scan_all(
            sigma, _max_size(config.eta, n), config.statistic,
            _Guard(sigma, config.cond_limit), threshold if config.early_exit else None,
        )
        values = _value(best[iu, ju], config.statistic)
    is_edge = np.isfinite(values) & (values > threshold)
    return EstimationResult(
        p=p,
        edges=tuple(zip(iu[is_edge].tolist(), ju[is_edge].tolist())),
        threshold=threshold,
        statistic=config.statistic,
        eta=config.eta,
        n=n,
        elapsed_s=time.perf_counter() - start,
        config=config,
        values=values,
        set_index=arg[iu, ju],  # -1 where no set improved the pair (failed)
        status=np.where(early[iu, ju], 2, np.isinf(values)).astype(np.int8),  # STATUSES order
        sets=winners,
    )


@dataclass(frozen=True)
class OracleGap:
    """Exact-model margin between edges and non-edges.

    ``c_min`` is the smallest minimized |conditional covariance| over true
    edges; ``c_max`` the largest |conditional covariance| over non-edges at
    their locality-limited separators.  Recovery with a threshold inside
    (c_max, c_min) is guaranteed when separable.
    """

    c_min: float
    c_max: float
    separable: bool
    eta: int
    gamma: int
    c_min_pair: tuple[int, int] | None
    c_max_pair: tuple[int, int] | None

    @property
    def threshold_midpoint(self) -> float:
        return (self.c_min + self.c_max) / 2.0

    @property
    def threshold_geometric(self) -> float:
        return math.sqrt(self.c_min * self.c_max)


def oracle_gap(model: GaussianModel, eta: int, gamma: int) -> OracleGap:
    """Compute the recovery margin of a model at locality (eta, gamma).

    Edge statistics minimize over every subset of size <= eta; non-edge
    statistics are evaluated at the gamma-local separator of each pair.
    """
    sigma = model.sigma()
    g = model.graph
    c_min = math.inf
    c_min_pair = None
    guard = _Guard(sigma, DEFAULT_COND_LIMIT)
    for u, v in g.edges:
        with np.errstate(divide="ignore", invalid="ignore"):
            value, _, _ = _scan_pair(sigma, u, v, eta, "covariance", guard)
        if value < c_min:
            c_min = value
            c_min_pair = (u, v)
    separators = separation_profile(g, gamma).separators
    pairs = list(separators)
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    values = np.abs(sigma[u, v])  # an empty separator leaves Sigma[u, v]
    for k, sep in enumerate(separators.values()):
        if sep:
            values[k] = abs(conditional_covariance_exact(sigma, *pairs[k], sep))
    # pairs come in row-major order and argmax keeps the first maximum, so
    # ties keep the first pair; NaN never wins (fmax) and 0 names no pair
    values = np.fmax(values, 0.0)
    k = int(np.argmax(values)) if pairs else -1
    c_max_pair = pairs[k] if k >= 0 and values[k] > 0.0 else None
    c_max = float(values[k]) if c_max_pair else 0.0
    return OracleGap(
        c_min=c_min,
        c_max=c_max,
        separable=c_min > c_max,
        eta=eta,
        gamma=gamma,
        c_min_pair=c_min_pair,
        c_max_pair=c_max_pair,
    )
