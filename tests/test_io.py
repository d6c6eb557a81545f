import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from ggmlearn import InvalidParameter
from ggmlearn.io import (
    config_hash,
    format_matrix_csv,
    parse_matrix_csv,
    read_edge_list,
    read_json,
    read_matrix_csv,
    write_json,
    write_matrix_csv,
)

from helpers import reference_format_matrix_csv

# +-0, the smallest subnormal, the largest subnormal and smallest normal,
# the extremes, +-inf and nan
SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
           1.7976931348623157e308, -1.7976931348623157e308, np.inf, -np.inf, np.nan]


def test_matrix_csv_round_trip_is_exact():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(5, 5))
    m[0, 1] = 1e-300
    m[1, 0] = 0.1 + 0.2  # not exactly 0.3; %.17g must preserve it
    back = parse_matrix_csv(format_matrix_csv(m))
    assert np.array_equal(back, m)


def test_matrix_csv_golden_format():
    text = format_matrix_csv(np.array([[1.0, 0.5], [0.5, 2.0]]))
    assert text == "2\n1,0.5\n0.5,2\n"


def test_matrix_csv_accepts_rectangular_sample_blocks():
    x = np.arange(12, dtype=float).reshape(4, 3)
    back = parse_matrix_csv(format_matrix_csv(x))
    assert back.shape == (4, 3)
    assert np.array_equal(back, x)


def test_matrix_csv_rejects_malformed_input():
    with pytest.raises(InvalidParameter):
        parse_matrix_csv("")
    with pytest.raises(InvalidParameter):
        parse_matrix_csv("2\n1,2\n")  # row count mismatch
    with pytest.raises(InvalidParameter):
        parse_matrix_csv("1\n1,two\n")
    with pytest.raises(InvalidParameter):
        parse_matrix_csv("x\n1,2\n")  # header is not a row count
    with pytest.raises(InvalidParameter):
        format_matrix_csv(np.zeros(3))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 8), st.integers(1, 8)),
              elements=st.one_of(st.sampled_from(SPECIAL), st.floats())))
@example(np.array([SPECIAL]))
@example(np.array([SPECIAL]).T)
def test_matrix_csv_codec_matches_reference_writer_and_round_trips_bits(m):
    text = format_matrix_csv(m)
    assert text == reference_format_matrix_csv(m)
    back = parse_matrix_csv(text)
    assert back.shape == m.shape
    nan = np.isnan(m)
    assert np.array_equal(np.isnan(back), nan)
    # sign bits included: -0.0 and the negative subnormals come back as written
    assert np.array_equal(back[~nan].view(np.int64), m[~nan].view(np.int64))


@pytest.mark.parametrize("text", [
    "2\n1,2\n3\n",        # ragged rows
    "1\n1,,2\n",           # empty field
    "1\n1,x\n",            # non-numeric field
    "1\n1_0,2\n",          # underscore literal: Python's float accepts it, np.loadtxt does not
    "1\n",                 # no rows
])
def test_matrix_csv_malformed_rows_raise_invalid_parameter(text):
    with pytest.raises(InvalidParameter):
        parse_matrix_csv(text)


def test_matrix_csv_file_round_trip(tmp_path):
    m = np.eye(3) * 0.123456789012345678
    write_matrix_csv(m, tmp_path / "m.csv")
    assert np.array_equal(read_matrix_csv(tmp_path / "m.csv"), m)


def test_json_round_trip(tmp_path):
    payload = {"b": [1, 2], "a": {"nested": True}}
    write_json(payload, tmp_path / "x.json")
    text = (tmp_path / "x.json").read_text()
    assert text.index('"a"') < text.index('"b"')  # sorted keys
    assert read_json(tmp_path / "x.json") == payload


@pytest.mark.parametrize("reader", [read_matrix_csv, read_edge_list, read_json])
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
