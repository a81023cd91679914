"""Property checks: the field-array kernels against the scalar path."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from esfi.barrier import (
    MotiveModel,
    MotiveVariant,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
)
from esfi.errors import BarrierSuppressed, EsfiError
from esfi.hydrogenic import make_atom
from esfi.rates import rate_ll, rate_ll_array


@st.composite
def atoms_and_grids(draw):
    Z = draw(st.floats(0.1, 30.0))
    I = draw(st.one_of(st.none(), st.floats(0.1, 1e4)))
    atom = make_atom(Z, I)
    top = 1.3 * max(suppression_field(atom, v) for v in MotiveVariant)
    f_max = top * 10.0 ** draw(st.floats(-6.0, 0.0))
    f_min = f_max * 10.0 ** -draw(st.floats(0.01, 8.0))
    return atom, np.geomspace(f_min, f_max, draw(st.integers(2, 40)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(atoms_and_grids())
def test_array_kernels_match_scalar_path(case):
    atom, F = case
    r = rate_ll_array(atom, F)
    for i, f in enumerate(F):
        s = rate_ll(atom, float(f), allow_shallow=True)
        batch = (r.K_e[i], r.exponent[i], r.log_K_e[i], r.T[i])
        assert batch == (s.K_e, s.exponent, s.log_K_e, s.T)
        assert r.deep[i] == (s.regime == "deep")
    for variant in MotiveVariant:
        b = rate_jwkb_array(variant, atom, F)
        for i, f in enumerate(F):
            try:
                s = rate_jwkb(MotiveModel(variant, atom, float(f)))
            except BarrierSuppressed:
                assert math.isnan(b.G[i])
                continue
            except EsfiError as exc:
                raise AssertionError(f"{variant.value} at {f!r}: {exc}") from exc
            assert abs(b.G[i] - s.G) <= 1e-13 * s.G
            assert abs(b.log_K_e[i] - s.log_K_e) <= 1e-13 * max(1.0, s.G)
            assert abs(b.coord_out[i] / s.coord_out - 1.0) <= 1e-13
