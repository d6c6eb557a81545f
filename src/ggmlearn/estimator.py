"""Structure estimation by thresholding conditional statistics.

For every vertex pair (i, j) the estimator minimizes a conditional
statistic over all conditioning sets S of size at most eta (excluding i and
j) and declares an edge exactly when the minimized statistic strictly
exceeds the threshold xi.  Statistics:

* ``covariance``: |Sigma(i, j | S)|, the absolute conditional covariance,
* ``mutual_information``: -0.5 * ln(1 - rho(i, j | S)^2) in nats, compared
  against xi squared.

One scan serves ``cmit`` (every pair), ``min_conditional_statistic`` (one
pair) and ``oracle_gap`` (the edges).  It conditions on one vertex at a
time, as in the partial-correlation recursion of the PC algorithm:
Sigma(., . | S + k) = Sigma(., . | S) - c c^T / c_k with c = Sigma(., k | S).
Sets are visited in canonical order (sizes ascending, lexicographic within
a size) and a running minimum keeps the first set in that order among
ties, so results are deterministic.  Size 0 reads every pair's statistic
off Sigma.  Every size from 1 on runs the pair-set completion on the open
pairs: one depth-first walk visits each prefix (a set but its last one or
two vertices) once and judges the guard of the prefix's sets from their
pivots.  Per prefix the open vertices' rows are gathered once, and per
chunk of sets each open vertex's conditional row (for mutual information
also its conditional variance) is computed once, and each pair's
c(u, v | prefix + m) once per vertex m; the pairs gather these.  With every
pair open, size s costs O(p^s) sets at O(p^2) each, the paper's
O(p^(eta+2)) time.  Memory is O(eta p^2) for the walk's levels and the
gathered rows; every other array of the completion holds at most 2^15
entries (256 KB), or one per open vertex where there are more.  A pair
goes through the same floating point operations in the same order
whichever pairs are open, so its result does not depend on the others.
The conditional covariance for one fixed set is
``model.conditional_covariance_exact``.

Mutual information is minimized on its key rho^2 = cov^2 / (var_i var_j),
on which it is increasing, and each pair's minimum is converted to
-0.5 * ln(1 - rho^2) once at the end; ties are therefore ties of rho^2.
An undefined key (NaN, a variance product <= 0, -0.0 included, or rho^2
>= 1) reads as infinite, so it never wins.

A set S is skipped when its block Sigma[S, S] fails the conditioning
guard on the Schur pivots Sigma(k, k | the members of S below k) that the
rank-1 steps divide by: every pivot must be positive (positive
definiteness, so an indefinite block fails at every size) and the largest
variance Sigma(k, k) of S at most ``cond_limit`` times the smallest pivot.
A pivot is at least the block's smallest eigenvalue and a variance at most
its largest, so no set within the limit on its condition number is
skipped.  The walk skips a failing set with its supersets, which keep its
pivots.  In sample mode sets with |S| >= n are skipped outright since the
empirical block cannot be trusted.  A pair whose sets all fail is reported
as failed and treated as a non-edge.

``cmit`` exits early by default (``early_exit``, as the PC algorithm
stops testing a pair at its first separating set): a pair stops after the
first size class at the end of which its running minimum is at or below
the threshold.  A full scan could only lower that minimum, so the edge set
is that of the full scan, and edges keep their exact minima and sets.  A
stopped pair is reported with status ``early_exit`` and that minimum, an
upper bound of its full minimum; this is the smallest value of that size
class, not the first set found below the threshold.  Stopped pairs leave
the completion, and the scan ends once every pair has stopped.  A pair
that first reaches the threshold in the last size class (every size class
at eta = 0) has been scanned in full, so it keeps status ``ok``.
``early_exit=False`` gives every pair its exact minimum, as
``min_conditional_statistic`` and ``oracle_gap`` always do.

``EstimationResult`` keeps the pair outcomes as arrays.  ``summary()`` is
its small ``result.json`` record (header, edge records, status counts) and
``io.save_result`` writes the arrays beside it as ``pairs.npz``;
``io.load_result`` reads the two back through ``from_header``.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import InvalidParameter, check_fields, check_nonnegative_int, config_kwargs
from .graph import Graph, separation_profile
from .model import GaussianModel, _as_float, _as_square, _check_pair, _schur_cross, _symmetric
from .sampler import SampleSet, empirical_covariance

DEFAULT_KAPPA = 2.0
DEFAULT_COND_LIMIT = 1e12

STATISTICS = ("covariance", "mutual_information")


def default_threshold(n: int, p: int, kappa: float = DEFAULT_KAPPA) -> float:
    """xi = kappa * sqrt(ln(p) / n)."""
    if n < 1 or p < 2:
        raise InvalidParameter(f"need n >= 1 and p >= 2, got n={n}, p={p}")
    _check_kappa(kappa)
    return kappa * math.sqrt(math.log(p) / n)


def _check_kappa(kappa: float) -> None:
    """Reject a kappa that is not positive (NaN included) or is infinite,
    which would make every threshold infinite and every pair a non-edge."""
    if not 0 < kappa < math.inf:
        raise InvalidParameter(f"kappa must be {'finite' if kappa > 0 else 'positive'}, got {kappa!r}")


def _check_scan(eta: int, statistic: str, cond_limit: float) -> None:
    """Reject an eta that is not a nonnegative integer, an unknown statistic,
    and a ``cond_limit`` below 1 or NaN, which would fail every non-empty set."""
    check_nonnegative_int("eta", eta)
    if statistic not in STATISTICS:
        raise InvalidParameter(f"statistic must be one of {STATISTICS}")
    if not cond_limit >= 1.0:
        raise InvalidParameter(f"cond_limit must be at least 1, got {cond_limit!r}")


@dataclass(frozen=True)
class EstimatorConfig:
    """Knobs for the conditional-statistic test.

    ``xi=None`` selects the default threshold rule in sample mode; exact
    mode has no sample size to plug into the rule, so it requires an
    explicit threshold.  ``early_exit`` (the default) stops scanning a pair
    after the first size class that brings its minimum to the threshold or
    below; reported values are then upper bounds for non-edges, edges
    unchanged.  ``early_exit=False`` scans every pair to its exact minimum.
    ``cond_limit`` bounds each conditioning set's largest variance over
    its smallest Schur pivot, a ratio between 1 and the condition number of
    its block; a set above it, or with a pivot not positive, is skipped.
    """

    eta: int = 1
    xi: float | None = None
    kappa: float = DEFAULT_KAPPA
    statistic: str = "covariance"
    exact_mode: bool = False
    early_exit: bool = True
    cond_limit: float = DEFAULT_COND_LIMIT

    def __post_init__(self):
        check_fields(self)
        _check_scan(self.eta, self.statistic, self.cond_limit)
        _check_kappa(self.kappa)
        if self.xi is not None and not self.xi >= 0:
            raise InvalidParameter(f"threshold must be nonnegative, got {self.xi!r}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "EstimatorConfig":
        return cls(**config_kwargs(cls, data))


@dataclass(frozen=True)
class PairDecision:
    """Outcome of the subset scan for one pair."""

    value: float
    subset: tuple[int, ...] | None
    status: str  # "ok", "failed", or "early_exit"


STATUSES = ("ok", "failed", "early_exit")


def _pair_position(p: int, u, v):
    """Row-major position of the pair u < v among the p(p-1)/2 pairs of p
    vertices; ``u`` and ``v`` may be integer arrays."""
    return u * (2 * p - u - 1) // 2 + v - u - 1


@dataclass(eq=False)
class EstimationResult:
    """Outcome of ``cmit``.

    Pair outcomes are arrays over the pairs u < v in row-major order:
    ``values`` (infinite for a failed pair), ``set_index`` into ``sets``
    (-1 for no set) and ``status`` (an index into ``STATUSES``).  ``pairs``,
    the read-only mapping (u, v) -> PairDecision, is materialized on first
    access and cached.  ``io.save_result`` writes the arrays to
    ``pairs.npz`` and ``summary()`` to ``result.json``, and
    ``io.load_result`` reads them back through ``from_header``.
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

    def _records(self, iu=None, ju=None):
        """(u, v, value, set or None, status) for the pairs u < v in the
        arrays ``iu`` and ``ju``, by default every pair in row-major order."""
        if iu is None:
            iu, ju = np.triu_indices(self.p, 1)
        k = _pair_position(self.p, iu, ju)
        sets = self.sets + [None]
        return zip(iu.tolist(), ju.tolist(), self.values[k].tolist(), [sets[a] for a in self.set_index[k].tolist()],
                   [STATUSES[c] for c in self.status[k].tolist()])

    @cached_property
    def pairs(self) -> MappingProxyType:
        return MappingProxyType({(u, v): PairDecision(*rec) for u, v, *rec in self._records()})

    def _header(self) -> dict:
        """The fields of ``summary()`` but the edges' records and counts."""
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

    def _pair_dicts(self, iu, ju) -> dict:
        """The ``"u,v"``-keyed records of the pairs of ``_records``."""
        return {
            f"{u},{v}": {
                "value": None if math.isinf(value) else value,
                "subset": None if subset is None else list(subset),
                "status": status,
            }
            for u, v, value, subset, status in self._records(iu, ju)
        }

    def summary(self) -> dict:
        """The ``result.json`` record: the header, the edges' records
        (``edge_records``) and the number of pairs with each status."""
        u, v = np.array(self.edges, dtype=np.intp).reshape(-1, 2).T
        counts = np.bincount(self.status, minlength=len(STATUSES)).tolist()
        return {
            **self._header(),
            "edge_records": self._pair_dicts(u, v),
            "status_counts": dict(zip(STATUSES, counts)),
        }

    @classmethod
    def from_header(cls, data: dict, values: np.ndarray, set_index: np.ndarray, status: np.ndarray,
                    sets: list[tuple[int, ...]]) -> "EstimationResult":
        """The result with the header fields of ``data`` and these pair arrays."""
        return cls(
            p=data["p"],
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
            sets=sets,
        )


def _minus(head, x, y, pivot, out: np.ndarray) -> np.ndarray:
    """head - x * y / pivot into ``out``, the operations of a rank-1 Schur
    step in one order, which the walk and the completion share."""
    np.multiply(x, y, out=out)
    np.divide(out, pivot, out=out)
    return np.subtract(head, out, out=out)


def _guard(pivot, var, lo, hi, cond_limit: float):
    """The guard verdicts of sets whose last pivot is ``pivot`` and last
    variance ``var``, given the smallest pivot ``lo`` and the largest
    variance ``hi`` of the vertices before them, then the sets' own
    smallest pivots and largest variances."""
    lo, hi = np.minimum(pivot, lo), np.maximum(var, hi)
    return (pivot > 0.0) & (hi <= cond_limit * lo), lo, hi


def _walk(sigma: np.ndarray, size: int, cond_limit: float, var=None, members=(), start=0, lo=math.inf,
          hi=0.0, bufs=None):
    """Yield (S, Sigma(., . | S), smallest pivot, largest variance) for
    every set S of ``size`` vertices that passes the guard, in
    lexicographic order; ``sigma`` is conditioned on ``members`` already,
    whose smallest pivot is ``lo`` and largest variance (``var`` is the
    input's diagonal) ``hi``, and sets extend them from vertex ``start`` on.

    Depth first, one rank-1 Schur step per level into that level's slice
    of ``bufs``, so a yielded matrix is valid only until the next one.  A
    candidate k's pivot is Sigma(k, k | members), on ``sigma``'s diagonal;
    a set that fails is skipped with its supersets, which keep its pivots.
    """
    if len(members) == size:
        yield members, sigma, lo, hi
        return
    if bufs is None:
        var, bufs = sigma.diagonal(), np.empty((size, *sigma.shape))
    buf, ks = bufs[len(members)], slice(start, len(var) - (size - len(members)) + 1)
    ok, lows, highs = _guard(sigma.diagonal()[ks], var[ks], lo, hi, cond_limit)
    lows, highs = lows.tolist(), highs.tolist()
    for pos in np.flatnonzero(ok).tolist():
        k = start + pos
        c = sigma[:, k]
        _minus(sigma, c[:, None], c, c[k], buf)
        yield from _walk(buf, size, cond_limit, var, members + (k,), k + 1, lows[pos], highs[pos], bufs)


def _key(cov, var_i, var_j, statistic: str):
    """The key a pair's statistic is minimized on, from its conditional
    2 x 2 block: |cov| for covariance, rho^2 = cov^2 / (var_i var_j) for
    mutual information, infinite where that is undefined (NaN, a variance
    product not positive, or rho^2 not below one), written over ``cov``.
    Callers silence the warnings of undefined entries."""
    if statistic == "covariance":
        return np.fmin(np.abs(cov, out=cov), np.inf, out=cov)  # NaN -> inf
    den = var_i * var_j
    key = np.divide(np.multiply(cov, cov, out=cov), den, out=cov)
    np.copyto(key, np.inf, where=~((den > 0.0) & (key < 1.0)))
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


_CHUNK = 2**15  # entries per (vertex or pair) x (set or m) array of the completion: 256 KB


def _scan_all(sigma: np.ndarray, us: np.ndarray, vs: np.ndarray, max_size: int, statistic: str,
              cond_limit: float, threshold: float | None):
    """Minimize the key of the pairs (us[t], vs[t]), us[t] < vs[t], given in
    row-major order; the module docstring gives the scan.

    Size 0 reads every pair's key off Sigma, and each size from 1 to
    ``max_size`` runs the completion on the pairs still open.  With a
    ``threshold`` (early exit) a pair is frozen, and skips the larger
    sizes, after the first size class below ``max_size`` that brings its
    minimum statistic to the threshold or below; a pair first brought there
    by the last size was scanned in full and is not frozen.  Returns,
    per pair, the minimum key (infinite if no set gave a defined one), the
    index of its set in the returned list of sets (-1 for none) and the
    early-exit flag, and that list, which holds only the sets some pair
    ends with.
    """
    var = sigma.diagonal()
    best = _key(sigma[us, vs], var[us], var[vs], statistic)
    arg = np.where(best < np.inf, 0, -1)
    winners: list[tuple[int, ...]] = [()]
    frozen = np.zeros(len(us), dtype=bool)
    for size in range(1, max_size + 1):
        if threshold is not None:
            frozen |= _value(best, statistic) <= threshold
        if frozen.all():
            break
        t = np.flatnonzero(~frozen)
        keys, sets = best[t], arg[t]
        _complete(sigma, size, statistic, cond_limit, us[t], vs[t], keys, sets, winners)
        best[t], arg[t] = keys, sets
    used = np.zeros(len(winners) + 1, dtype=bool)  # the winners some pair still references
    used[arg] = True
    used[-1] = False  # the extra last entry is index -1, which stays -1
    remap = np.where(used, np.cumsum(used) - 1, -1)
    return best, remap[arg], frozen, list(itertools.compress(winners, used.tolist()))


@lru_cache(maxsize=4)  # a scan uses one p
def _position_pairs(p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The vertex pairs m < l in row-major order, ``np.triu_indices(p, 1)``,
    and the flat index l * p + m of each; built once per p, read-only."""
    m, l = np.triu_indices(p, 1)
    pairs = (m, l, l * p + m)
    for a in pairs:
        a.flags.writeable = False
    return pairs


def _complete(sigma: np.ndarray, size: int, statistic: str, cond_limit: float, us: np.ndarray,
              vs: np.ndarray, best: np.ndarray, arg: np.ndarray, winners: list):
    """Merge the sets of ``size`` >= 1 vertices into the running minima
    best[t] and arg[t] of the pairs (us[t], vs[t]).

    The guard of a prefix's sets, (l,) or (m, l) after the prefix, reads
    the prefix's smallest pivot and largest variance off the walk, and the
    pivots of the last vertices, the denominators of the steps below.  The
    open vertices' rows of Sigma(., . | prefix) are gathered once, with a
    NaN at each one's own column, so a set holding u or v gives the pair
    (u, v) a NaN key, which never wins.  Per chunk of sets each vertex w
    gets c(w, l | prefix + m) (for mutual information also c(w, w | set))
    once, and each pair c(u, v | prefix + m) once per m.  These (vertex x
    set), (pair x set) and (pair x m) arrays hold at most ``_CHUNK``
    entries, or one per open vertex where there are more open vertices
    than that.  A pair keeps its first argmin, the first set in
    canonical order, and merges it with a strict ``<`` after the prefix,
    so winners are listed by prefix, then by pair.
    """
    p = sigma.shape[0]
    batch = min(size, 2)
    mi = statistic == "mutual_information"
    var = sigma.diagonal()
    verts = np.flatnonzero(np.bincount(us, minlength=p) + np.bincount(vs, minlength=p))  # the open vertices
    iu, iv = np.searchsorted(verts, us), np.searchsorted(verts, vs)  # each pair's two ends among them
    width = max(1, _CHUNK // len(verts))  # sets per chunk
    group = _CHUNK // width  # pairs per group
    for prefix, cond, lo, hi in _walk(sigma, size - batch, cond_limit):
        dg = cond.diagonal()
        if batch == 1:  # sets (l,): l and its pivot Sigma(l, l)
            last = (np.arange(p), dg)
            ok = _guard(dg, var, lo, hi, cond_limit)[0]
        else:  # sets prefix + (m, l), m < l: m, l, Sigma(m, m | prefix), Sigma(l, m | prefix), pivot of l
            cut = int(np.searchsorted(_position_pairs(p)[0], prefix[-1] + 1)) if prefix else 0
            m, l, flat = (col[cut:] for col in _position_pairs(p))
            pm, c_lm = dg.take(m), cond.take(flat)
            last = (m, l, pm, c_lm, _minus(dg.take(l), c_lm, c_lm, pm, np.empty(len(l))))
            ok, lo_m, hi_m = _guard(pm, var.take(m), lo, hi, cond_limit)
            ok &= _guard(last[4], var.take(l), lo_m, hi_m, cond_limit)[0]
        last = last if ok.all() else tuple(col[ok] for col in last)
        l, piv = last[batch - 1], last[-1]
        if batch == 2:  # also the distinct m, the index of each set's m among them, and their pivots
            m, _, pm, c_lm, _ = last
            first = np.ones(len(m), dtype=bool)
            first[1:] = m[1:] != m[:-1]
            ms, pms, mrun = m[first], pm[first], np.cumsum(first) - 1
        # a pair that meets the prefix is computed with the others but never merged
        keep = ~(np.equal.outer(us, prefix).any(axis=1) | np.equal.outer(vs, prefix).any(axis=1))
        rows = cond.take(verts, axis=0)  # the open vertices' rows, NaN at each one's own column
        rows[np.arange(len(verts)), verts] = np.nan
        heads, dv = cond[us, vs][:, None], dg[verts][:, None]
        low, at = np.full(len(iu), np.inf), np.zeros(len(iu), dtype=np.intp)  # minima over the prefix's sets
        for k0 in range(0, len(l), width):
            ks = slice(k0, k0 + width)
            a, v = rows[:, l[ks]], dv  # c(w, l | prefix), c(w, w | prefix)
            if batch == 2:  # condition on m, then on l, in the order of the rank-1 steps
                counts = np.bincount(mrun[ks] - mrun[k0])  # the chunk's sets per m
                js = slice(mrun[k0], mrun[k0] + len(counts))
                a_m = rows[:, ms[js]]  # c(w, m | prefix) per m
                a_ms = np.repeat(a_m, counts, axis=1)
                if mi:
                    v = _minus(dv, a_ms, a_ms, pm[ks], np.empty_like(a))  # c(w, w | prefix + m)
                a = _minus(a, a_ms, c_lm[ks], pm[ks], a_ms)  # c(w, l | prefix + m)
            if mi:
                v = _minus(v, a, a, piv[ks], np.empty_like(a))  # c(w, w | the set)
            for g0 in range(0, len(iu), group):
                gs = slice(g0, g0 + group)
                gi, gj = iu[gs], iv[gs]
                c = heads[gs]
                if batch == 2:  # c(u, v | prefix + m) once per m, repeated per set
                    x = a_m[gi]
                    c = np.repeat(_minus(c, x, a_m[gj], pms[js], x), counts, axis=1)
                x = a[gi]
                key = _key(_minus(c, x, a[gj], piv[ks], x), v[gi], v[gj], statistic)
                pos = key.argmin(axis=1)
                kmin = key[np.arange(len(gi)), pos]
                better = kmin < low[gs]
                low[gs][better] = kmin[better]
                at[gs][better] = k0 + pos[better]
        won = np.flatnonzero((low < best) & keep)
        best[won] = low[won]
        arg[won] = np.arange(len(winners), len(winners) + len(won))
        winners.extend(prefix + tail for tail in zip(*(col[at[won]].tolist() for col in last[:batch])))


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
    the pair's entry in ``cmit`` on the same covariance and settings with
    ``early_exit=False``.  With early exit, ``cmit``'s default, that holds
    for edges and failed pairs, and a non-edge's value is an upper bound of
    this one.  ``sigma`` must be symmetric as ``cmit`` states.
    """
    sigma = _symmetric(_as_square(sigma, "covariance matrix"), "covariance matrix")
    _check_pair(sigma, i, j, ())
    if i == j:
        raise InvalidParameter("pair statistics need distinct vertices")
    _check_scan(eta, statistic, cond_limit)
    if n is not None:
        if type(n) is not int:  # the common case; a bool's type is not int
            check_nonnegative_int("n", n)
        if n < 1:
            raise InvalidParameter(f"need n >= 1 samples, got n={n}")
    us, vs = np.array([min(i, j)]), np.array([max(i, j)])
    with np.errstate(divide="ignore", invalid="ignore"):
        (key,), (a,), _, sets = _scan_all(sigma, us, vs, _max_size(eta, n), statistic, cond_limit, None)
        value = float(_value(key, statistic))
    return PairDecision(value, sets[a] if a >= 0 else None, STATUSES[int(math.isinf(value))])


def _resolve_source(source, config: EstimatorConfig):
    if config.exact_mode:
        if isinstance(source, GaussianModel):
            return source.sigma(), None
        arr = _as_float(source, "covariance matrix")
        if arr.ndim == 2 and arr.shape[0] == arr.shape[1]:
            return _symmetric(arr, "covariance matrix"), None
        raise InvalidParameter("exact mode needs a GaussianModel or a square covariance matrix")
    if isinstance(source, SampleSet):
        return source.empirical_covariance(), source.n
    arr = np.asarray(source)
    if arr.ndim == 2:
        return empirical_covariance(arr), arr.shape[0]  # which rejects complex data
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

    An exact covariance array must be symmetric to ``model.SYMMETRY_RTOL``
    (a NaN only opposite a NaN, and no other asymmetry at a non-finite
    entry); a pair whose every set gives a NaN statistic fails.
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
        best, arg, early, winners = _scan_all(sigma, iu, ju, _max_size(config.eta, n), config.statistic,
                                              config.cond_limit, threshold if config.early_exit else None)
        values = _value(best, config.statistic)
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
        set_index=arg,  # -1 where no set improved the pair (failed)
        status=np.where(early, 2, np.isinf(values)).astype(np.int8),  # STATUSES order
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
    statistics are evaluated at the gamma-local separator of each pair,
    Sigma(i, j | S) for each separator size in one stack through
    ``model._schur_cross``, the formula of ``conditional_covariance_exact``,
    bit for bit what that function gives the pair alone.
    """
    check_nonnegative_int("eta", eta)
    check_nonnegative_int("gamma", gamma)
    sigma = model.sigma()
    g = model.graph
    u, v = np.array(g.edges, dtype=np.intp).reshape(-1, 2).T
    with np.errstate(divide="ignore", invalid="ignore"):
        edge_values = _scan_all(sigma, u, v, eta, "covariance", DEFAULT_COND_LIMIT, None)[0]
    # values come in row-major order, the order of g.edges, and argmin keeps
    # the first minimum; an edge whose sets all fail the guard is infinite
    k = int(np.argmin(edge_values)) if len(edge_values) else -1
    c_min_pair = g.edges[k] if k >= 0 and edge_values[k] < math.inf else None
    c_min = float(edge_values[k]) if c_min_pair else math.inf
    separators = separation_profile(g, gamma).separators
    pairs, seps = list(separators), list(separators.values())
    u, v = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    values = sigma[u, v]  # an empty separator leaves Sigma[u, v]
    sizes = np.fromiter(map(len, seps), dtype=np.intp, count=len(seps))
    for size in np.unique(sizes[sizes > 0]).tolist():  # one stack per separator size
        k = np.flatnonzero(sizes == size)
        at = np.column_stack((u[k], v[k], np.array([seps[x] for x in k.tolist()], dtype=np.intp)))
        values[k] = _schur_cross(sigma[at[:, :, None], at[:, None, :]], at)
    # pairs come in row-major order and argmax keeps the first maximum, so
    # ties keep the first pair; NaN never wins (fmax) and 0 names no pair
    values = np.fmax(np.abs(values), 0.0)
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
