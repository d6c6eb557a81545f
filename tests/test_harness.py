import math

import pytest

from ggmlearn import (
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
    sweep,
    trial_seed,
)
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
