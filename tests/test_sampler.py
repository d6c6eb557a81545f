from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from ggmlearn import (
    EstimatorConfig,
    Graph,
    InvalidParameter,
    chain_graph,
    cmit,
    cycle_graph,
    empirical_covariance,
    sample,
    synthesize_model,
)
from ggmlearn.io import load_samples, save_samples


def two_node_model(rho=0.5):
    return synthesize_model(Graph(2, [(0, 1)]), rho)


def test_sampling_is_bit_identical():
    m = synthesize_model(chain_graph(6), 0.5)
    a = sample(m, 100, seed=3)
    b = sample(m, 100, seed=3)
    assert np.array_equal(a.data, b.data)
    c = sample(m, 100, seed=4)
    assert not np.array_equal(a.data, c.data)
    assert a.n == 100 and a.p == 6
    assert a.meta["model"]["target_alpha"] == 0.5


def test_sample_requires_positive_n():
    with pytest.raises(InvalidParameter):
        sample(two_node_model(), 0, seed=0)


def test_empirical_covariance_concentrates():
    m = two_node_model(0.5)
    # Sigma = (I - R)^{-1}: off-diagonal 0.5 / 0.75 = 2/3
    s = sample(m, 40000, seed=1)
    sig = s.empirical_covariance()
    assert sig[0, 1] == pytest.approx(2.0 / 3.0, rel=0.05)
    assert sig[0, 0] == pytest.approx(4.0 / 3.0, rel=0.05)


def test_identity_model_unit_variances():
    m = synthesize_model(Graph(3, [(0, 1)]), 0.05)
    s = sample(m, 30000, seed=7)
    sig = s.empirical_covariance()
    assert sig[2, 2] == pytest.approx(1.0, rel=0.05)
    assert abs(sig[0, 2]) < 0.05


def test_single_sample_outer_product():
    x = np.array([[1.0, 2.0, -1.0]])
    sig = empirical_covariance(x)
    assert np.array_equal(sig, np.outer(x[0], x[0]))


def test_empirical_covariance_exact_symmetry():
    s = sample(synthesize_model(chain_graph(5), 0.4), 37, seed=9)
    sig = s.empirical_covariance()
    assert np.array_equal(sig, sig.T)
    assert s.empirical_covariance() is s.empirical_covariance()  # cached


def test_replaced_data_gets_its_own_covariance():
    a = sample(synthesize_model(chain_graph(6), 0.5), 4000, seed=1)
    b = sample(synthesize_model(cycle_graph(6), 0.5), 4000, seed=2)
    cfg = EstimatorConfig(eta=1)
    assert len(cmit(a, cfg).edges) == 5  # fills a's cache
    swapped = replace(a, data=b.data)
    assert np.array_equal(swapped.empirical_covariance(), empirical_covariance(b.data))
    edges = cmit(swapped, cfg).edges
    assert edges == cmit(b, cfg).edges and len(edges) == 6
    with pytest.raises(FrozenInstanceError):
        a.data = b.data


def test_concatenation_identity():
    m = synthesize_model(chain_graph(4), 0.5)
    a = sample(m, 60, seed=2).data
    b = sample(m, 40, seed=12).data
    whole = empirical_covariance(np.vstack([a, b]))
    parts = (60 * empirical_covariance(a) + 40 * empirical_covariance(b)) / 100
    assert np.max(np.abs(whole - parts)) < 1e-12


def test_subtract_mean_flag():
    rng = np.random.default_rng(0)
    x = rng.normal(5.0, 1.0, size=(500, 3))  # strongly shifted
    raw = empirical_covariance(x)
    centered = empirical_covariance(x, subtract_mean=True)
    assert raw[0, 0] > 20  # dominated by the mean offset
    assert centered[0, 0] == pytest.approx(1.0, rel=0.2)
    mu = x.mean(axis=0)
    manual = (x - mu).T @ (x - mu) / 500
    assert np.max(np.abs(centered - (manual + manual.T) / 2)) < 1e-14


def test_empirical_covariance_validates_shape():
    with pytest.raises(InvalidParameter):
        empirical_covariance(np.zeros(5))
    with pytest.raises(InvalidParameter):
        empirical_covariance(np.zeros((0, 3)))


def test_samples_round_trip(tmp_path):
    m = synthesize_model(chain_graph(4), 0.5)
    s = sample(m, 25, seed=8)
    save_samples(s, tmp_path / "draws")
    back = load_samples(tmp_path / "draws")
    assert np.array_equal(back.data, s.data)
    assert back.seed == 8
    assert back.meta["n"] == 25
