"""End-to-end experiment harness: draw a graph, synthesize a model, sample,
estimate, and score, over a grid of configurations.

Per-trial randomness is derived from the master seed as ``seed XOR trial
index``; within a trial, the graph draw, the sign draw, and the noise draw
get disjoint Philox key lanes so the three streams never overlap.  All
statistical outputs are deterministic functions of the configuration; wall
times are diagnostics and are excluded when results are compared for
byte-level equality.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace

from . import __version__
from .bounds import fano_lower_bound
from .errors import InvalidParameter, config_kwargs
from .estimator import EstimationResult, EstimatorConfig, cmit, oracle_gap
from .graph import EnsembleConfig, edit_distance
from .io import config_hash
from .model import GaussianModel, synthesize_model
from .sampler import sample

_MASK64 = (1 << 64) - 1

LANE_GRAPH = 0
LANE_SIGNS = 1
LANE_NOISE = 2

THRESHOLD_MODES = ("auto", "fixed", "oracle-midpoint", "oracle-geometric")

SWEEP_HEADER = "p,c_or_delta,alpha,j_min,n,trials,p_err,mean_edit_distance,mean_runtime_s"
SWEEP_FANO_COLUMNS = ",n_fano_exact,n_fano_simplified"


def trial_seed(master: int, index: int) -> int:
    """Per-trial seed contract: master XOR trial index (64-bit)."""
    return (master ^ index) & _MASK64


def lane_seed(master: int, index: int, lane: int) -> int:
    """Philox key for one purpose lane within a trial; the lane occupies the
    high key word so lanes are distinct streams, not offsets."""
    return (lane << 64) | trial_seed(master, index)


@dataclass(frozen=True)
class TrialConfig:
    """One grid point: ensemble, model synthesis, estimator, and budget.

    ``threshold_mode``:

    * ``auto``: leave the estimator config alone (sample mode then applies
      the default threshold rule when xi is unset),
    * ``fixed``: require an explicit xi in the estimator config,
    * ``oracle-midpoint`` / ``oracle-geometric``: set xi per trial from the
      exact-model margin at (eta, gamma); mostly for exact-mode runs.

    ``gamma`` is required by the oracle modes and rejected by the others,
    which do not read it.
    """

    ensemble: EnsembleConfig
    estimator: EstimatorConfig = field(default_factory=EstimatorConfig)
    target_alpha: float = 0.5
    sign_pattern: str = "attractive"
    diagonal: float = 1.0
    n: int = 1000
    trials: int = 10
    seed: int = 0
    distortion: int = 0
    threshold_mode: str = "auto"
    gamma: int | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise InvalidParameter("need at least one trial")
        if self.threshold_mode not in THRESHOLD_MODES:
            raise InvalidParameter(f"threshold_mode must be one of {THRESHOLD_MODES}")
        if self.threshold_mode == "fixed" and self.estimator.xi is None:
            raise InvalidParameter("threshold_mode 'fixed' needs an explicit xi")
        oracle = self.threshold_mode.startswith("oracle")
        if oracle and self.gamma is None:
            raise InvalidParameter("oracle threshold modes need gamma")
        if not oracle and self.gamma is not None:
            raise InvalidParameter(f"threshold_mode {self.threshold_mode!r} does not read gamma")
        if self.distortion < 0:
            raise InvalidParameter("distortion must be nonnegative")

    def to_dict(self) -> dict:
        return {**asdict(self), "ensemble": self.ensemble.to_dict(), "estimator": self.estimator.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "TrialConfig":
        kwargs = config_kwargs(cls, data)
        kwargs["ensemble"] = EnsembleConfig.from_dict(kwargs["ensemble"])
        if "estimator" in kwargs:
            kwargs["estimator"] = EstimatorConfig.from_dict(kwargs["estimator"])
        return cls(**kwargs)


@dataclass(frozen=True)
class TrialOutcome:
    index: int
    edit_distance: int
    exact: bool
    alpha: float
    j_min: float
    true_edges: int
    estimated_edges: int
    runtime_s: float


def run_trial(config: TrialConfig, index: int) -> TrialOutcome:
    """Execute one trial of a grid point and score it against the truth."""
    start = time.perf_counter()
    graph = config.ensemble.build(lane_seed(config.seed, index, LANE_GRAPH))
    model = synthesize_model(
        graph,
        config.target_alpha,
        sign_pattern=config.sign_pattern,
        diagonal=config.diagonal,
        seed=lane_seed(config.seed, index, LANE_SIGNS),
    )
    est_cfg = config.estimator
    if config.threshold_mode.startswith("oracle"):
        gap = oracle_gap(model, est_cfg.eta, config.gamma)
        xi = gap.threshold_midpoint if config.threshold_mode == "oracle-midpoint" else gap.threshold_geometric
        est_cfg = replace(est_cfg, xi=xi)
    if est_cfg.exact_mode:
        result: EstimationResult = cmit(model, est_cfg)
    else:
        samples = sample(model, config.n, lane_seed(config.seed, index, LANE_NOISE))
        result = cmit(samples, est_cfg)
    dist = edit_distance(graph, result.graph)
    return TrialOutcome(
        index=index,
        edit_distance=dist,
        exact=dist == 0,
        alpha=model.alpha,
        j_min=model.j_min,
        true_edges=graph.n_edges,
        estimated_edges=len(result.edges),
        runtime_s=time.perf_counter() - start,
    )


@dataclass
class ConfigSummary:
    """Aggregates over the trials of one grid point.  ``p_err`` counts
    trials whose edit distance exceeds the configured distortion."""

    config: TrialConfig
    outcomes: tuple[TrialOutcome, ...]

    @property
    def p_err(self) -> float:
        bad = sum(1 for o in self.outcomes if o.edit_distance > self.config.distortion)
        return bad / len(self.outcomes)

    @property
    def mean_edit_distance(self) -> float:
        return sum(o.edit_distance for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_runtime_s(self) -> float:
        return sum(o.runtime_s for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_alpha(self) -> float:
        return sum(o.alpha for o in self.outcomes) / len(self.outcomes)

    @property
    def mean_j_min(self) -> float:
        return sum(o.j_min for o in self.outcomes) / len(self.outcomes)


def run_config(config: TrialConfig) -> ConfigSummary:
    outcomes = tuple(run_trial(config, t) for t in range(config.trials))
    return ConfigSummary(config=config, outcomes=outcomes)


@dataclass(frozen=True)
class SweepRow:
    p: int
    c_or_delta: float
    alpha: float
    j_min: float
    n: int
    trials: int
    p_err: float
    mean_edit_distance: float
    mean_runtime_s: float
    n_fano_exact: float | None = None
    n_fano_simplified: float | None = None


@dataclass
class SweepResult:
    rows: tuple[SweepRow, ...]
    include_fano: bool = False

    def header(self) -> str:
        return SWEEP_HEADER + (SWEEP_FANO_COLUMNS if self.include_fano else "")

    def to_csv(self, include_runtime: bool = True) -> str:
        """Render the sweep as CSV.  ``include_runtime=False`` zeroes the
        runtime column so outputs of identical configurations compare
        byte-for-byte; every other column is deterministic."""

        def fmt(x) -> str:
            if x is None:
                return ""
            if isinstance(x, int):
                return str(x)
            return f"{x:.17g}"

        lines = [self.header()]
        for rec in self.to_dicts():
            if not include_runtime:
                rec["mean_runtime_s"] = 0.0
            lines.append(",".join(map(fmt, rec.values())))
        return "\n".join(lines) + "\n"

    def to_dicts(self) -> list[dict]:
        """One record per row, keyed by the header's columns in order."""
        columns = self.header().split(",")
        return [{name: getattr(row, name) for name in columns} for row in self.rows]


def _fano_for(config: TrialConfig, alpha: float) -> tuple[float | None, float | None]:
    c = config.ensemble.nominal_degree
    p = config.ensemble.order
    if not 0.0 < c <= p or not 0.0 <= alpha < 1.0:
        return None, None
    bound = fano_lower_bound(p, c, alpha)
    return bound.n_exact, bound.n_simplified


def sweep(configs, include_fano: bool = False) -> SweepResult:
    """Run every grid point, one after another, and assemble rows in grid
    order."""
    configs = list(configs)
    if not configs:
        raise InvalidParameter("sweep needs at least one configuration")
    rows = []
    for cfg in configs:
        summary = run_config(cfg)
        fano_exact, fano_simplified = (None, None)
        if include_fano:
            fano_exact, fano_simplified = _fano_for(cfg, summary.mean_alpha)
        rows.append(
            SweepRow(
                p=cfg.ensemble.order,
                c_or_delta=cfg.ensemble.density_param,
                alpha=summary.mean_alpha,
                j_min=summary.mean_j_min,
                n=cfg.n,
                trials=cfg.trials,
                p_err=summary.p_err,
                mean_edit_distance=summary.mean_edit_distance,
                mean_runtime_s=summary.mean_runtime_s,
                n_fano_exact=fano_exact,
                n_fano_simplified=fano_simplified,
            )
        )
    return SweepResult(rows=tuple(rows), include_fano=include_fano)


def run_manifest(command: str, config_obj, seed: int | None) -> dict:
    """Provenance record written next to every CLI artifact."""
    return {
        "tool": "ggmlearn",
        "version": __version__,
        "command": command,
        "config_sha256": config_hash(config_obj),
        "seed": seed,
    }
