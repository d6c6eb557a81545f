"""Draw i.i.d. zero-mean Gaussian samples from a model and form the
empirical covariance.

Sampling multiplies standard normal draws by the lower Cholesky factor of
the covariance, with the Philox counter-based generator keyed by an
explicit seed, so a (model, n, seed) triple always produces bit-identical
data.  The empirical covariance is (1/n) X^T X by default: the mean is
known to be zero, so no mean is subtracted unless asked for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidParameter
from .graph import _rng
from .model import GaussianModel, _as_float


@dataclass(frozen=True)
class SampleSet:
    """An (n, p) data matrix plus the provenance needed to reproduce it.
    Frozen, so a set made by ``dataclasses.replace`` starts a fresh cache."""

    data: np.ndarray
    seed: int
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def p(self) -> int:
        return self.data.shape[1]

    def empirical_covariance(self, subtract_mean: bool = False) -> np.ndarray:
        """Cached for the default convention; recomputed when a mean is removed."""
        if subtract_mean:
            return empirical_covariance(self.data, subtract_mean=True)
        return self._sigma_hat

    @cached_property
    def _sigma_hat(self) -> np.ndarray:
        return empirical_covariance(self.data)


def sample(model: GaussianModel, n: int, seed: int) -> SampleSet:
    """n i.i.d. rows distributed N(0, Sigma) for the model's covariance."""
    if n < 1:
        raise InvalidParameter(f"need at least one sample, got n={n}")
    z = _rng(seed).standard_normal((n, model.p))
    meta = {"n": n, "p": model.p, "alpha": model.alpha, "model": dict(model.meta)}
    return SampleSet(data=z @ model.sigma_factor().T, seed=seed, meta=meta)


def empirical_covariance(x, subtract_mean: bool = False) -> np.ndarray:
    """(1/n) X^T X, symmetrized exactly.

    With ``subtract_mean`` the sample mean is removed first; the divisor
    stays n either way.
    """
    x = _as_float(x, "data matrix")
    if x.ndim != 2 or x.shape[0] < 1:
        raise InvalidParameter(f"need an (n, p) data matrix, got shape {x.shape}")
    if subtract_mean:
        x = x - x.mean(axis=0)
    c = x.T @ x / x.shape[0]
    return (c + c.T) / 2.0
