"""Information-theoretic sample-size bounds and typicality accounting for
sparse random graphs.

Entropies here are in bits (base-2 logs); the large-deviation rate
function is in nats, matching the exponential form of the tail bound it
feeds.  The necessary-sample-size bounds apply to learning the structure
of a model whose conditional differential entropy is controlled by the
walk-summability number alpha.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import InvalidParameter, check_fields, config_kwargs


def binary_entropy(q: float) -> float:
    """H(q) = -q log2 q - (1 - q) log2 (1 - q), with H(0) = H(1) = 0."""
    if not 0.0 <= q <= 1.0:
        raise InvalidParameter(f"binary entropy needs q in [0, 1], got {q}")
    if q == 0.0 or q == 1.0:
        return 0.0
    return -q * math.log2(q) - (1.0 - q) * math.log2(1.0 - q)


def _entropy_denominator(alpha: float) -> float:
    return math.log2(2.0 * math.pi * math.e * (1.0 / (1.0 - alpha) + 1.0))


def _check_pca(p: int, c: float, alpha: float) -> None:
    if p < 2:
        raise InvalidParameter("need p >= 2")
    if not 0.0 < c <= p:
        raise InvalidParameter(f"need 0 < c <= p, got c={c}")
    if not 0.0 <= alpha < 1.0:
        raise InvalidParameter(f"need 0 <= alpha < 1, got alpha={alpha}")


@dataclass(frozen=True)
class FanoBound:
    """Necessary sample sizes (real-valued; callers ceil as needed)."""

    n_exact: float
    n_simplified: float


def fano_lower_bound(p: int, c: float, alpha: float) -> FanoBound:
    """Two forms of the necessary sample size for exact recovery.

    The exact form charges the full pairwise entropy of the ensemble:

        n >= 2 / (p * log2(2 pi e (1/(1-alpha) + 1))) * C(p, 2) * H(c/p)

    and the simplified form replaces C(p, 2) * H(c/p) by its dominant
    c * p/2 * log2(p) behaviour, giving c * log2(p) over the same
    denominator.
    """
    _check_pca(p, c, alpha)
    pairs = p * (p - 1) / 2.0
    denom = _entropy_denominator(alpha)
    n_exact = 2.0 / (p * denom) * pairs * binary_entropy(c / p)
    n_simplified = c * math.log2(p) / denom
    return FanoBound(n_exact=n_exact, n_simplified=n_simplified)


@dataclass(frozen=True)
class DistortionBound:
    """Necessary sample size when up to ``distortion`` edge errors are
    tolerated.  ``degenerate`` flags an allowance so large that the bound
    carries no information and is clamped to zero."""

    n: float
    degenerate: bool


def fano_lower_bound_distortion(p: int, c: float, alpha: float, distortion: float) -> DistortionBound:
    """Distortion-tolerant variant; subtracts the entropy of the allowed
    error ball.  At distortion zero it coincides with the exact bound."""
    _check_pca(p, c, alpha)
    if distortion < 0:
        raise InvalidParameter("distortion must be nonnegative")
    pairs = p * (p - 1) / 2.0
    beta = distortion / pairs
    if beta >= c / p:
        return DistortionBound(n=0.0, degenerate=True)
    denom = _entropy_denominator(alpha)
    n = 2.0 / (p * denom) * pairs * (binary_entropy(c / p) - binary_entropy(beta))
    return DistortionBound(n=max(n, 0.0), degenerate=False)


def rate_function(c: float, epsilon: float) -> float:
    """Large-deviation rate (c/2) * ((1 + eps) ln(1 + eps) - eps), in nats."""
    if c <= 0:
        raise InvalidParameter("c must be positive")
    if epsilon < 0:
        raise InvalidParameter("epsilon must be nonnegative")
    return (c / 2.0) * ((1.0 + epsilon) * math.log1p(epsilon) - epsilon)


def atypical_probability_bound(p: int, c: float, epsilon: float) -> float:
    """min(2 exp(-p K(c, eps)), 1): tail mass of graphs outside the typical
    density window."""
    if p < 1:
        raise InvalidParameter("need p >= 1")
    return min(2.0 * math.exp(-p * rate_function(c, epsilon)), 1.0)


@dataclass(frozen=True)
class TypicalSet:
    """Density-typical graphs: edge count m with |m / (c p) - 1/2| <= eps/2.

    Membership depends only on the edge count.  The log2 cardinality upper
    bound holds for every p; the lower bound (and the per-graph probability
    sandwich upper half) are entropy approximations that need the density
    window to sit at or above the mean edge count, which fails for small p
    with wide windows.  They are reported for inspection, not promised.
    """

    p: int
    c: float
    epsilon: float

    def __post_init__(self):
        if self.p < 2:
            raise InvalidParameter("need p >= 2")
        if self.c <= 0 or self.c > self.p:
            raise InvalidParameter(f"need 0 < c <= p, got c={self.c}")
        if self.epsilon < 0:
            raise InvalidParameter("epsilon must be nonnegative")

    @property
    def pairs(self) -> int:
        return self.p * (self.p - 1) // 2

    @property
    def edge_count_window(self) -> tuple[float, float]:
        half = self.c * self.p / 2.0
        return (half * (1.0 - self.epsilon), half * (1.0 + self.epsilon))

    def contains_edge_count(self, m: int) -> bool:
        mean_density = m / (self.c * self.p)
        return abs(mean_density - 0.5) <= self.epsilon / 2.0

    def contains(self, g) -> bool:
        """Membership of a Graph (anything exposing p and n_edges)."""
        if g.p != self.p:
            raise InvalidParameter(f"graph order {g.p} does not match ensemble p={self.p}")
        return self.contains_edge_count(g.n_edges)

    def log2_cardinality_bounds(self) -> tuple[float, float]:
        """(lower, upper) bounds on log2 |T|; the lower bound is asymptotic
        and reported as -inf for epsilon >= 1 where its formula is void."""
        h_total = self.pairs * binary_entropy(self.c / self.p)
        upper = h_total * (1.0 + self.epsilon)
        if self.epsilon >= 1.0:
            return (-math.inf, upper)
        return (math.log2(1.0 - self.epsilon) + h_total, upper)

    def log2_probability_bounds(self) -> tuple[float, float]:
        """Claimed per-member-graph log2 probability window
        [-(1 + eps) C(p,2) H(c/p), -C(p,2) H(c/p)]."""
        h_total = self.pairs * binary_entropy(self.c / self.p)
        return (-h_total * (1.0 + self.epsilon), -h_total)


def typical_set(p: int, c: float, epsilon: float) -> TypicalSet:
    return TypicalSet(p=p, c=c, epsilon=epsilon)


@dataclass(frozen=True)
class BoundsConfig:
    """Inputs for a bounds report; ``distortion`` and ``epsilon`` feed the
    optional distortion and typicality blocks."""

    p: int
    c: float
    alpha: float
    epsilon: float = 0.1
    distortion: float = 0.0

    def __post_init__(self):
        check_fields(self)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "BoundsConfig":
        return cls(**config_kwargs(cls, data))


@dataclass(frozen=True)
class BoundsReport:
    """All bound quantities for one (p, c, alpha, epsilon, distortion)."""

    config: BoundsConfig
    n_exact: float
    n_simplified: float
    n_distortion: float
    distortion_degenerate: bool
    rate: float
    atypical_bound: float
    log2_cardinality_lower: float
    log2_cardinality_upper: float

    def to_dict(self) -> dict:
        def clean(x):
            return None if isinstance(x, float) and math.isinf(x) else x

        return {
            "config": self.config.to_dict(),
            "n_exact": self.n_exact,
            "n_exact_ceil": math.ceil(self.n_exact),
            "n_simplified": self.n_simplified,
            "n_simplified_ceil": math.ceil(self.n_simplified),
            "n_distortion": self.n_distortion,
            "distortion_degenerate": self.distortion_degenerate,
            "rate": self.rate,
            "atypical_bound": self.atypical_bound,
            "log2_cardinality_lower": clean(self.log2_cardinality_lower),
            "log2_cardinality_upper": self.log2_cardinality_upper,
        }


def bounds_report(config: BoundsConfig) -> BoundsReport:
    fano = fano_lower_bound(config.p, config.c, config.alpha)
    dist = fano_lower_bound_distortion(config.p, config.c, config.alpha, config.distortion)
    tset = typical_set(config.p, config.c, config.epsilon)
    lo, hi = tset.log2_cardinality_bounds()
    return BoundsReport(
        config=config,
        n_exact=fano.n_exact,
        n_simplified=fano.n_simplified,
        n_distortion=dist.n,
        distortion_degenerate=dist.degenerate,
        rate=rate_function(config.c, config.epsilon),
        atypical_bound=atypical_probability_bound(config.p, config.c, config.epsilon),
        log2_cardinality_lower=lo,
        log2_cardinality_upper=hi,
    )
