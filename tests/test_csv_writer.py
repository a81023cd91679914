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

from esfi import cli, guard_field, make_atom, rates
from esfi.units import FIELD, FREQUENCY, UnitSystem, from_canonical, to_canonical

# the writer's numpy, which cli binds with the numeric layer when a
# computing command first runs
cli._numeric()


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
    """Zeros, nan, infinities, the ends of the float range and exact ties;
    at every decimal exponent its power of ten, the decimal ties at the
    ends of its decade and at its middle, and 8 random decimal ties, each
    with its 4 neighbours on both sides; and random cells at the exponents
    below -284, where 10^(9 - E) leaves the float range unless the writer
    scales the cell first."""
    cells = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf,
             5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
             1.7976931348623157e308, 0.5, 1.5, 2.5, 1234567890.5, 12345678905.0,
             12345678915.0, 99999999995.0, 9999999999.5, 1234567890500000.0]
    rng = np.random.default_rng(3)
    bases = []
    for k in range(-323, 309):
        bases += [f"1e{k}", f"9.9999999995e{k}", f"5.0000000005e{k}", f"1.0000000005e{k}"]
        bases += [f"{d}.{rng.integers(10**9):09d}5e{k}" for d in rng.integers(1, 10, 8)]
        if k <= -285:
            cells += list(rng.uniform(1.0, 10.0, 40) * 10.0**k)
    bases = np.array([float(b) for b in bases])
    bases = bases[(bases > 0.0) & np.isfinite(bases)]
    steps = np.arange(-4, 5)
    cells += list((bases.view(np.int64)[:, None] + steps).view(np.float64).ravel())
    cells = np.array(cells)
    return np.concatenate([cells, -cells])


@pytest.mark.parametrize("n_cols", [1, 3, 7])
def test_writer_edge_cells(n_cols):
    cells = edge_cells()
    cells = np.concatenate([cells, np.zeros(-cells.size % n_cols)])
    columns = list(cells.reshape(-1, n_cols).T)
    assert vectorised(columns) == per_row(columns)


def test_writer_is_exact_with_a_float64_mantissa():
    # the significands are scaled in double, with two roundings: random bit
    # patterns and the edge cells, side by side in one block
    rng = np.random.default_rng(7)
    raw = rng.integers(0, 2**64, size=(3, 20000), dtype=np.uint64).view(np.float64)
    cells = edge_cells()
    columns = list(raw) + [np.resize(cells, raw.shape[1])]
    assert vectorised(columns) == per_row(columns)


@pytest.mark.parametrize("units", ["evnm", "au", "si"])
def test_few_cells_of_a_closed_form_sweep_go_to_percent(units):
    # a sweep-ll block: fields, K_e from 1e-300 and below (some +0) up to
    # the guard, and the exponents; under 1e-299 a cell's scaled
    # significand must not leave the float range, and the doubt margin
    # (4 eps 1e10) leaves a cell in doubt with odds of about 2e-5
    system = UnitSystem(units)
    scale = to_canonical(1.0, FIELD, system).value
    for Z, I in [(1.0, None), (2.0, None), (1.0, 20.0)]:
        atom = make_atom(Z, I)
        grid = np.geomspace(0.004, 0.95, 2000) * guard_field(atom) / scale
        K_e, exponent = rates._ll_rate_and_exponent(atom, grid * scale)
        columns = [grid, from_canonical(K_e, FREQUENCY, system), exponent]
        assert (columns[1] == 0).any() and ((columns[1] > 0) & (columns[1] < 1e-299)).any()
        x = np.column_stack(columns).ravel()
        _, _, doubtful = cli._significands(x, *cli._csv_tables()[-1])
        assert doubtful.size <= 3, (Z, I, doubtful.size)
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
