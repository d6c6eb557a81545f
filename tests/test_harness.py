import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest

from ggmlearn import (
    BoundsConfig,
    ConfigSummary,
    EnsembleConfig,
    EstimatorConfig,
    InvalidParameter,
    SweepResult,
    TrialConfig,
    TrialOutcome,
    fano_lower_bound,
    lane_seed,
    run_config,
    run_manifest,
    run_trial,
    sample,
    sweep,
    synthesize_model,
    torus_grid,
    trial_seed,
)
from ggmlearn import harness
from ggmlearn.graph import _rng
from ggmlearn.harness import LANE_GRAPH, LANE_NOISE, LANE_SIGNS, SWEEP_HEADER


def chain_config(**over):
    base = dict(
        ensemble=EnsembleConfig(kind="chain", p=10),
        estimator=EstimatorConfig(eta=1),
        n=4000,
        trials=3,
        seed=7,
    )
    base.update(over)
    return TrialConfig(**base)


def test_trial_seed_contract():
    assert trial_seed(0, 0) == 0
    assert trial_seed(12345, 0) == 12345
    assert trial_seed(12345, 7) == 12345 ^ 7
    assert trial_seed(2**70, 1) == ((2**70) ^ 1) & ((1 << 64) - 1)


def test_lane_seeds_are_distinct_streams():
    seeds = {lane_seed(9, 4, lane) for lane in (LANE_GRAPH, LANE_SIGNS, LANE_NOISE)}
    assert len(seeds) == 3
    assert lane_seed(9, 4, LANE_GRAPH) == trial_seed(9, 4)
    # lane occupies the high key word, trial seed the low one
    assert lane_seed(9, 4, LANE_NOISE) >> 64 == LANE_NOISE
    assert lane_seed(9, 4, LANE_NOISE) & ((1 << 64) - 1) == trial_seed(9, 4)


def test_run_trial_exact_mode_recovers():
    cfg = chain_config(
        estimator=EstimatorConfig(eta=1, exact_mode=True),
        threshold_mode="oracle-geometric",
        gamma=2,
        trials=1,
    )
    out = run_trial(cfg, 0)
    assert out.exact and out.edit_distance == 0
    assert out.true_edges == 9 and out.estimated_edges == 9
    assert 0.49 < out.alpha < 0.51


def test_run_trial_sample_mode_deterministic():
    cfg = chain_config(trials=1)
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    assert a.edit_distance == b.edit_distance
    assert a.estimated_edges == b.estimated_edges
    assert a.j_min == b.j_min


def test_run_config_aggregates():
    cfg = chain_config(trials=4)
    summary = run_config(cfg)
    assert len(summary.outcomes) == 4
    assert summary.p_err == sum(o.edit_distance > 0 for o in summary.outcomes) / 4
    assert summary.mean_edit_distance == pytest.approx(
        sum(o.edit_distance for o in summary.outcomes) / 4)
    assert summary.mean_runtime_s > 0


def test_distortion_shifts_the_error_count():
    cfg = chain_config(trials=3, distortion=1)
    outcomes = tuple(
        TrialOutcome(index=i, edit_distance=d, exact=d == 0, alpha=0.5, j_min=0.2,
                     true_edges=9, estimated_edges=9, runtime_s=0.01)
        for i, d in enumerate((0, 1, 2)))
    summary = ConfigSummary(config=cfg, outcomes=outcomes)
    assert summary.p_err == pytest.approx(1 / 3)
    assert summary.mean_edit_distance == pytest.approx(1.0)


def test_trial_config_validation():
    with pytest.raises(InvalidParameter):
        chain_config(trials=0)
    with pytest.raises(InvalidParameter):
        chain_config(threshold_mode="fixed")  # no xi in the estimator
    with pytest.raises(InvalidParameter):
        chain_config(threshold_mode="oracle-midpoint")  # no gamma
    for mode, extra in (("auto", {}), ("fixed", {"estimator": EstimatorConfig(eta=1, xi=0.1)})):
        with pytest.raises(InvalidParameter, match=f"threshold_mode '{mode}' does not read gamma"):
            chain_config(threshold_mode=mode, gamma=2, **extra)
    with pytest.raises(InvalidParameter):
        chain_config(threshold_mode="sorcery")
    with pytest.raises(InvalidParameter):
        chain_config(distortion=-1)


@pytest.mark.parametrize("build, message", [
    (lambda: EstimatorConfig(exact_mode="false"), "exact_mode must be bool, got str 'false'"),
    (lambda: EstimatorConfig(early_exit=0), "early_exit must be bool, got int 0"),
    (lambda: EstimatorConfig(xi="0.1"), "xi must be float | None, got str '0.1'"),
    (lambda: EstimatorConfig(kappa=math.inf), "kappa must be finite, got inf"),
    (lambda: EstimatorConfig(kappa=-1.0), "kappa must be positive, got -1.0"),
    (lambda: chain_config(trials="3"), "trials must be int, got str '3'"),
    (lambda: chain_config(ensemble={"kind": "chain", "p": 5}),
     "ensemble must be EnsembleConfig, got dict {'kind': 'chain', 'p': 5}"),
    (lambda: EnsembleConfig("chain", p=5.0), r"p must be int \| None, got float 5.0"),
    (lambda: BoundsConfig(p=50, c="2", alpha=0.5), "c must be float, got str '2'"),
], ids=["estimator-exact-mode-str", "estimator-early-exit-int", "estimator-xi-str", "estimator-kappa-inf",
        "estimator-kappa-negative", "trial-trials-str", "trial-ensemble-dict", "ensemble-p-float", "bounds-c-str"])
def test_configs_check_field_types_when_built(build, message):
    with pytest.raises(InvalidParameter, match=message):
        build()


def test_trial_config_round_trip():
    cfg = chain_config(
        estimator=EstimatorConfig(eta=2, xi=0.05),
        threshold_mode="fixed",
        sign_pattern="random",
        distortion=2,
    )
    assert TrialConfig.from_dict(cfg.to_dict()) == cfg


def test_sweep_header_golden():
    assert SWEEP_HEADER == "p,c_or_delta,alpha,j_min,n,trials,p_err,mean_edit_distance,mean_runtime_s"
    res = SweepResult(rows=(), include_fano=True)
    assert res.header().endswith(",n_fano_exact,n_fano_simplified")


def test_sweep_deterministic_bytes():
    configs = [
        TrialConfig(ensemble=EnsembleConfig(kind="er", p=12, c=1.5),
                    estimator=EstimatorConfig(eta=1), n=500, trials=3, seed=21),
        chain_config(trials=2, n=800),
    ]
    csv1 = sweep(configs).to_csv(include_runtime=False)
    csv2 = sweep(configs).to_csv(include_runtime=False)
    assert csv1 == csv2
    assert csv1.startswith(SWEEP_HEADER + "\n")
    assert len(csv1.strip().split("\n")) == 3
    # runtime cell is zeroed in comparison form
    for line in csv1.strip().split("\n")[1:]:
        assert line.split(",")[8] == "0"


def test_sweep_seed_changes_er_rows():
    def cfg(seed):
        return TrialConfig(ensemble=EnsembleConfig(kind="er", p=14, c=2.0),
                           estimator=EstimatorConfig(eta=1), n=400, trials=3, seed=seed)

    row_a = sweep([cfg(1)]).rows[0]
    row_b = sweep([cfg(2)]).rows[0]
    assert (row_a.alpha, row_a.j_min) != (row_b.alpha, row_b.j_min)


def test_sweep_repeats_byte_identical_in_input_order():
    configs = [chain_config(ensemble=EnsembleConfig(kind="chain", p=p), trials=2, n=600, seed=s)
               for p, s in ((12, 1), (8, 2), (10, 3))]
    first = sweep(configs).to_csv(include_runtime=False)
    assert sweep(configs).to_csv(include_runtime=False) == first
    # row k is the sweep of configs[k] alone
    lines = first.splitlines()
    assert [line.split(",")[0] for line in lines[1:]] == ["12", "8", "10"]
    assert lines[1:] == [sweep([c]).to_csv(include_runtime=False).splitlines()[1] for c in configs]


def test_sweep_fano_columns():
    cfg = TrialConfig(ensemble=EnsembleConfig(kind="er", p=64, c=2.0),
                      estimator=EstimatorConfig(eta=1), n=200, trials=2, seed=3)
    res = sweep([cfg], include_fano=True)
    row = res.rows[0]
    bound = fano_lower_bound(64, 2.0, row.alpha)
    assert row.n_fano_exact == pytest.approx(bound.n_exact)
    assert row.n_fano_simplified == pytest.approx(bound.n_simplified)
    csv = res.to_csv()
    assert csv.split("\n")[0] == SWEEP_HEADER + ",n_fano_exact,n_fano_simplified"
    recs = res.to_dicts()
    assert recs[0]["n_fano_exact"] == row.n_fano_exact


def test_sweep_rejects_empty_grid():
    with pytest.raises(InvalidParameter):
        sweep([])


def test_error_rate_improves_with_samples():
    rows = sweep([
        chain_config(n=150, trials=8, seed=5),
        chain_config(n=6000, trials=8, seed=5),
    ]).rows
    assert rows[0].p_err >= rows[1].p_err
    assert rows[1].p_err <= 0.25
    assert rows[0].mean_edit_distance >= rows[1].mean_edit_distance


def test_run_manifest_contents():
    cfg = chain_config()
    manifest = run_manifest("sweep", cfg.to_dict(), seed=7)
    assert manifest["tool"] == "ggmlearn"
    assert manifest["command"] == "sweep"
    assert manifest["seed"] == 7 and "threads" not in manifest
    assert len(manifest["config_sha256"]) == 64
    again = run_manifest("sweep", cfg.to_dict(), seed=7)
    assert manifest == again
    other = run_manifest("sweep", chain_config(seed=8).to_dict(), seed=8)
    assert other["config_sha256"] != manifest["config_sha256"]


FIXED_ENSEMBLES = {
    "chain": EnsembleConfig(kind="chain", p=8),
    "cycle": EnsembleConfig(kind="cycle", p=9),
    "torus": EnsembleConfig(kind="torus", m=3, d=2),
    "explicit": EnsembleConfig(kind="explicit", p=7,
                               edges=((0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (4, 6))),
}
RANDOMIZED_ENSEMBLES = {
    "er": EnsembleConfig(kind="er", p=10, c=2.0),
    "regular": EnsembleConfig(kind="regular", p=10, delta=3),
}


def _digest_rows() -> dict:
    """Every fixed kind with every sign pattern and the randomized kinds
    with attractive and random signs, each in sample mode and in exact mode
    with the midpoint oracle threshold.  Each ensemble runs both statistics,
    one per mode, and which mode takes which alternates."""
    ensembles = [(kind, ens, signs) for (kind, ens), signs
                 in itertools.product(FIXED_ENSEMBLES.items(), ("attractive", "alternating", "random"))]
    ensembles += [(kind, ens, signs)
                  for (kind, ens), signs in itertools.product(RANDOMIZED_ENSEMBLES.items(), ("attractive", "random"))]
    rows = {}
    for i, ((kind, ensemble, signs), mode) in enumerate(itertools.product(ensembles, ("sample", "exact"))):
        statistic = ("covariance", "mutual_information")[(i // 2 + i) % 2]
        exact = mode == "exact"
        rows[f"{kind}/{signs}/{mode}/{statistic}"] = TrialConfig(
            ensemble=ensemble,
            estimator=EstimatorConfig(eta=1, statistic=statistic, exact_mode=exact),
            sign_pattern=signs, n=300, trials=4, seed=11,
            threshold_mode="oracle-midpoint" if exact else "auto", gamma=2 if exact else None)
    return rows


DIGEST_ROWS = _digest_rows()

# sha256 prefix of each row's sweep CSV with the Fano columns and the
# runtime column zeroed; a change to how trials are run must leave every
# entry as it is
SWEEP_DIGESTS = {
    "chain/attractive/sample/covariance": "d2764771e395c442",
    "chain/attractive/exact/mutual_information": "1a3c5fd41995dbb4",
    "chain/alternating/sample/mutual_information": "7747df74bc038a1d",
    "chain/alternating/exact/covariance": "1a3c5fd41995dbb4",
    "chain/random/sample/covariance": "788beda835accb8c",
    "chain/random/exact/mutual_information": "1a3c5fd41995dbb4",
    "cycle/attractive/sample/mutual_information": "4d99974f90356263",
    "cycle/attractive/exact/covariance": "e471ca23aeab332e",
    "cycle/alternating/sample/covariance": "fa427a9bbda310fa",
    "cycle/alternating/exact/mutual_information": "e471ca23aeab332e",
    "cycle/random/sample/mutual_information": "93df42ae12b3fdd5",
    "cycle/random/exact/covariance": "e471ca23aeab332e",
    "torus/attractive/sample/covariance": "c09360e7fb284ada",
    "torus/attractive/exact/mutual_information": "97295cbaa6f2addb",
    "torus/alternating/sample/mutual_information": "8e1188748767b6fe",
    "torus/alternating/exact/covariance": "97295cbaa6f2addb",
    "torus/random/sample/covariance": "4a32314f042aade8",
    "torus/random/exact/mutual_information": "97295cbaa6f2addb",
    "explicit/attractive/sample/mutual_information": "0e704115f6aa4210",
    "explicit/attractive/exact/covariance": "f823419dff819c88",
    "explicit/alternating/sample/covariance": "a2de2ec38689d0fd",
    "explicit/alternating/exact/mutual_information": "f823419dff819c88",
    "explicit/random/sample/mutual_information": "e5ef33fbd67683cb",
    "explicit/random/exact/covariance": "f823419dff819c88",
    "er/attractive/sample/covariance": "498da9eecb20f723",
    "er/attractive/exact/mutual_information": "4aa18798dbe7cd3f",
    "er/random/sample/mutual_information": "65e56f8aee539421",
    "er/random/exact/covariance": "4aa18798dbe7cd3f",
    "regular/attractive/sample/covariance": "c62b8b464e1b0fa3",
    "regular/attractive/exact/mutual_information": "8ed228385aaa3dc9",
    "regular/random/sample/mutual_information": "4b2f51f75749e4e1",
    "regular/random/exact/covariance": "8ed228385aaa3dc9",
}


def test_sweep_digests_pinned():
    got = {name: hashlib.sha256(sweep([cfg], include_fano=True).to_csv(include_runtime=False).encode())
           .hexdigest()[:16] for name, cfg in DIGEST_ROWS.items()}
    assert got == SWEEP_DIGESTS


@pytest.mark.parametrize("name", DIGEST_ROWS)
def test_run_config_trials_match_single_trials(name):
    cfg = DIGEST_ROWS[name]
    outcomes = run_config(cfg).outcomes
    assert len(outcomes) == cfg.trials
    for t, outcome in enumerate(outcomes):
        assert dataclasses.replace(outcome, runtime_s=0.0) == dataclasses.replace(run_trial(cfg, t), runtime_s=0.0)


@pytest.mark.parametrize("name", [name for name in DIGEST_ROWS if "/exact/" in name])
def test_fixed_rows_build_their_model_once(monkeypatch, name):
    cfg = DIGEST_ROWS[name]
    calls = {"synthesize_model": 0, "oracle_gap": 0}

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls[fn.__name__] += 1
            return fn(*args, **kwargs)
        return wrapper

    for fn in calls:
        monkeypatch.setattr(harness, fn, counted(getattr(harness, fn)))
    run_config(cfg)
    fixed = cfg.ensemble.kind in FIXED_ENSEMBLES and cfg.sign_pattern != "random"
    assert calls == dict.fromkeys(calls, 1 if fixed else cfg.trials)


def test_sampling_factor_is_cached_read_only():
    model = synthesize_model(torus_grid(3, 2), 0.5, sign_pattern="alternating")
    factor = model.sigma_factor()
    assert factor is model.sigma_factor()
    assert not factor.flags.writeable
    low = np.linalg.cholesky(model.sigma())
    assert np.array_equal(factor, low)
    # the sampler draws through the cached factor
    assert np.array_equal(sample(model, 5, 3).data, _rng(3).standard_normal((5, model.p)) @ low.T)
