"""The sweep's CSV writer against Python's own "%.9e", byte for byte."""

import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from esfi import cli


def per_row(columns):
    """The reference: one % per row, as the writer's small blocks do."""
    row = ",".join(["%.9e"] * len(columns)) + "\n"
    return "".join(row % tuple(map(float, values)) for values in zip(*columns))


def vectorised(columns):
    """The writer with its cutover at zero, so every block is vectorised."""
    with mock.patch.object(cli, "_VECTOR_CELLS", 0):
        return cli._csv_rows(columns)


any_floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)


@st.composite
def blocks(draw):
    """1-9 columns of raw 64-bit patterns, some cells overwritten by drawn
    floats, with blocks on both sides of the cutover."""
    n_cols = draw(st.integers(1, 9))
    n = n_cols * draw(st.integers(1, 3 * cli._VECTOR_CELLS // n_cols))
    cells = np.frombuffer(draw(st.binary(min_size=8 * n, max_size=8 * n)), np.float64).copy()
    for i, value in draw(st.lists(st.tuples(st.integers(0, n - 1), any_floats), max_size=20)):
        cells[i] = value
    return list(cells.reshape(n_cols, -1))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(blocks())
def test_writer_matches_percent_formatting(columns):
    assert cli._csv_rows(columns) == per_row(columns)
    assert vectorised(columns) == per_row(columns)


def edge_cells():
    cells = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
             5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 0.5, 1.5, 2.5, 1234567890.5, 12345678905.0,
             12345678915.0, 99999999995.0, 9999999999.5]
    for k in range(-323, 309):
        for base in (float(f"1e{k}"), float(f"9.9999999995e{k}"),
                     float(f"5.0000000005e{k}"), float(f"1.0000000005e{k}")):
            if base == 0.0 or not np.isfinite(base):
                continue
            cells += [base, np.nextafter(base, 0.0), np.nextafter(base, np.inf)]
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


@pytest.mark.parametrize("n_cols", [1, 3, 7])
def test_writer_edge_cells(n_cols):
    cells = edge_cells()
    cells = np.concatenate([cells, np.zeros(-cells.size % n_cols)])
    columns = list(cells.reshape(-1, n_cols).T)
    assert vectorised(columns) == per_row(columns)


def test_writer_is_exact_with_a_float64_mantissa():
    # where long double is float64 the scaled value carries fewer digits and
    # 10^(9 - E) overflows below 1e-299: more cells go to %, none is wrong
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 2**64, size=(3, 20000), dtype=np.uint64).view(np.float64)
    cells = edge_cells()
    columns = list(raw) + [np.resize(cells, raw.shape[1])]
    with mock.patch.object(cli, "_WIDE", np.float64):
        assert vectorised(columns) == per_row(columns)


def test_writer_tables_are_built_on_first_use():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import esfi.cli; print(esfi.cli._csv_tables.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"
