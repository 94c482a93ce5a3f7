"""The artifact codec: CSV cells and rows, float32 payloads."""

import csv
import io
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from risknet.artifacts import read_f32, render, write_csv, write_f32
from risknet.errors import BadConfig, ModelFormatError, NumericError

SPECIAL = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324,
           -2.2250738585072014e-308, 1e300, -1e300, 0.1, 1.0 / 3.0]
floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))
ints = st.integers(-2**63, 2**63 - 1)


@st.composite
def tables(draw):
    """2-5 columns of one length: float64 columns, float64 columns with
    None, and int64 columns."""
    n = draw(st.integers(0, 30))
    columns = []
    for _ in range(draw(st.integers(2, 5))):
        kind = draw(st.sampled_from(["float", "optional", "int"]))
        cell = {"float": floats, "optional": st.none() | floats,
                "int": ints}[kind]
        columns.append(draw(st.lists(cell, min_size=n, max_size=n)))
    return columns


@settings(max_examples=200, deadline=None)
@given(tables(), st.sampled_from(["\r\n", "\n"]))
def test_write_csv_is_csv_writer_with_repr_cells(tmp_path_factory, columns,
                                                 end):
    """Rows of at least two cells are csv.writer's bytes with each value's
    repr as its cell and an empty cell for None."""
    header = [f"c{i}" for i in range(len(columns))]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator=end)
    writer.writerow(header)
    for row in zip(*columns):
        writer.writerow(["" if v is None else repr(v) for v in row])
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    write_csv(path, header, [render(c) for c in columns], end)
    with open(path, newline="") as fh:
        assert fh.read() == want.getvalue()


def test_render_keeps_the_shape_of_a_grid():
    grid = np.array([[0.0, -0.0, 0.5], [0.5, 2.0, -0.0]])
    assert render(grid) == [["0.0", "-0.0", "0.5"], ["0.5", "2.0", "-0.0"]]
    assert render(grid.T) == [["0.0", "0.5"], ["-0.0", "2.0"],
                              ["0.5", "-0.0"]]


def test_f32_payload_round_trip(tmp_path):
    values = np.array([0.0, -0.0, 1e-45, 0.1, 1.0 / 3.0, -2.5, 3e38,
                       float(np.finfo(np.float32).max), math.nan])
    path = tmp_path / "v.f32"
    write_f32(path, values, "value")
    assert path.read_bytes() == struct.pack("<9f", *values)
    again = read_f32(path, values.size, "payload", BadConfig)
    assert again.dtype == np.dtype("<f4")
    assert np.array_equal(again, values.astype(np.float32), equal_nan=True)
    assert np.signbit(again[1])


@pytest.mark.parametrize("big", [1e39, -1e39, math.inf, 1e300])
def test_write_f32_refuses_beyond_float32_before_opening(tmp_path, big):
    path = tmp_path / "v.f32"
    with pytest.raises(NumericError, match="value beyond the float32 range"):
        write_f32(path, np.array([1.0, big]), "value")
    assert not path.exists()


@pytest.mark.parametrize("error", [BadConfig, ModelFormatError])
@pytest.mark.parametrize("defect", ["short", "long", "missing",
                                    "directory"])
def test_read_f32_refuses_as_the_callers_error(tmp_path, error, defect):
    path = tmp_path / "v.f32"
    if defect == "directory":
        path = tmp_path
    elif defect != "missing":
        path.write_bytes(b"\0" * (8 if defect == "short" else 16))
    with pytest.raises(error, match="payload") as err:
        read_f32(path, 3, "payload", error)
    assert str(path) in str(err.value)
