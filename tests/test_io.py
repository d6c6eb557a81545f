import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ggmlearn import GaussianModel, InvalidParameter, SampleSet, harness, synthesize_model
from ggmlearn.harness import run_trial
from ggmlearn.io import (
    config_hash,
    load_model,
    load_samples,
    read_edge_list,
    read_json,
    save_model,
    save_samples,
    write_json,
)

from helpers import random_sparse_model
from test_estimator import digest_models, oracle_gap_models
from test_harness import DIGEST_ROWS
from test_lbp import LBP_DIGEST_CASES

# +-0, the smallest subnormal, the largest subnormal and smallest normal,
# the extremes, +-inf and nan
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def assert_model_round_trips(model: GaussianModel, directory) -> None:
    save_model(model, directory)
    back = load_model(directory)
    assert back.graph == model.graph
    assert back.precision.tobytes() == model.precision.tobytes()
    assert back.alpha == model.alpha
    assert back.meta == model.meta


class _Built(Exception):
    pass


def _sweep_models() -> list:
    """The models that the trials of the sweep digest rows build."""
    built = []

    def synthesize(*args, **kwargs):
        built.append(synthesize_model(*args, **kwargs))
        raise _Built  # the trial has built its model; its scan is not needed

    with mock.patch.object(harness, "synthesize_model", synthesize):
        for cfg in DIGEST_ROWS.values():
            for t in range(cfg.trials):
                with pytest.raises(_Built):
                    run_trial(cfg, t)
    return built


DIGEST_MODELS = {
    "sweep": _sweep_models,
    "scan": lambda: [*digest_models("er").values(), digest_models("cycle")[0]],
    "oracle-gap": lambda: [m for m, _ in oracle_gap_models().values()],
    "lbp": lambda: [case()[0] for case in LBP_DIGEST_CASES.values()],
}


@pytest.mark.parametrize("family", DIGEST_MODELS)
def test_digest_models_round_trip_through_model_directories(tmp_path, family):
    models = DIGEST_MODELS[family]()
    assert models
    for k, model in enumerate(models):
        assert_model_round_trips(model, tmp_path / str(k))


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**32 - 1), st.floats(0.05, 0.95), st.sampled_from([1.0, 1e160, 1e-200]))
def test_model_directory_round_trips_bits(tmp_path_factory, p, seed, alpha, scale):
    # at 1e160 and 1e-200 the diagonal products leave the float range, so
    # alpha and positive definiteness take their out-of-range paths
    m = random_sparse_model(p, seed, alpha, diagonal_range=(0.2, 5.0))
    model = GaussianModel(m.graph, scale * m.precision, meta={"seed": seed})
    assert_model_round_trips(model, tmp_path_factory.mktemp("model"))


FLOAT_MATRICES = arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
                        elements=st.one_of(st.sampled_from(SPECIAL), st.floats()))


def assert_same_bits(back, m):
    assert back.shape == m.shape
    nan = np.isnan(m)
    assert np.array_equal(np.isnan(back), nan)
    # sign bits included: -0.0 and the negative subnormals come back as written
    assert np.array_equal(back[~nan].view(np.int64), m[~nan].view(np.int64))


@settings(max_examples=100, deadline=None)
@given(FLOAT_MATRICES, st.sampled_from(["C", "F", "strided"]), st.integers(0, 2**63 - 1),
       st.dictionaries(st.text(max_size=5), st.integers() | st.text(max_size=5), max_size=3))
@example(np.array([SPECIAL]), "C", 0, {})
@example(np.array([SPECIAL]).T, "F", 7, {"model": "x"})
def test_sample_directory_round_trips_bits(tmp_path_factory, m, layout, seed, meta):
    if layout == "F":
        data = np.asfortranarray(m)
    elif layout == "strided":  # a non-contiguous view: every other row and column of a larger array
        data = np.repeat(np.repeat(m, 2, axis=0), 2, axis=1)[::2, ::2]
        assert data.size == 1 or not (data.flags.c_contiguous or data.flags.f_contiguous)
    else:
        data = m
    directory = tmp_path_factory.mktemp("samples")
    save_samples(SampleSet(data=data, seed=seed, meta=meta), directory)
    back = load_samples(directory)
    assert_same_bits(back.data, m)
    assert back.data.flags.c_contiguous
    assert back.seed == seed
    assert back.meta == meta


@pytest.mark.parametrize("stored", [">f8", "<f8-fortran"])
def test_load_samples_returns_native_c_ordered_float64(tmp_path, stored):
    # a hand-written samples.npy may be big-endian or Fortran-ordered
    m = np.array([[0.1, -0.0, 5e-324], [np.inf, 2.5, -1e308]])
    data = np.asfortranarray(m) if stored.endswith("fortran") else m.astype(stored)
    np.save(tmp_path / "samples.npy", data)
    (tmp_path / "samples.json").write_text('{"n": 2, "p": 3, "seed": 0}')
    back = load_samples(tmp_path).data
    assert back.dtype == np.float64 and back.dtype.isnative and back.flags.c_contiguous
    assert_same_bits(back, m)


def test_json_round_trip(tmp_path):
    payload = {"b": [1, 2], "a": {"nested": True}}
    write_json(payload, tmp_path / "x.json")
    text = (tmp_path / "x.json").read_text()
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert read_json(tmp_path / "x.json") == payload


@pytest.mark.parametrize("reader", [read_edge_list, read_json])
def test_readers_name_the_path_they_cannot_read(tmp_path, reader):
    missing = tmp_path / "nope"
    with pytest.raises(InvalidParameter, match=re.escape(f"cannot read {missing}: No such file or directory")):
        reader(missing)
    with pytest.raises(InvalidParameter, match=re.escape(f"cannot read {tmp_path}: ")):
        reader(tmp_path)  # a directory


def test_read_json_names_a_malformed_file(tmp_path):
    (tmp_path / "x.json").write_text("{")
    with pytest.raises(InvalidParameter, match="x.json is not valid JSON"):
        read_json(tmp_path / "x.json")


def test_config_hash_is_order_insensitive():
    a = {"p": 10, "c": 2.0, "nested": {"x": 1, "y": 2}}
    b = {"nested": {"y": 2, "x": 1}, "c": 2.0, "p": 10}
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash({**a, "p": 11})
    assert len(config_hash(a)) == 64
