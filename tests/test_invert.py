"""Inverse field calibration round trips and failure modes."""

import numpy as np
import pytest

from esfi import errors
from esfi.barrier import MotiveModel, MotiveVariant, rate_jwkb
from esfi.hydrogenic import make_atom
from esfi.invert import invert_rate
from esfi.rates import guard_field, rate_ll


def test_round_trip_hydrogen():
    atom = make_atom(1)
    r = rate_ll(atom, 25.0, allow_shallow=True)
    # 25 V/nm lies above the default bracket's guard ceiling
    result = invert_rate(r.K_e, atom, bracket=(1.0, 30.0))
    assert result.F == pytest.approx(25.0, rel=1e-10)
    assert result.residual < 1e-10


def test_round_trip_helium_like():
    atom = make_atom(2)
    for F in (20.0, 60.0, 100.0):
        k = rate_ll(atom, F).K_e
        result = invert_rate(k, atom)
        assert result.F == pytest.approx(F, rel=1e-10)


def test_round_trip_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(10):
        atom = make_atom(rng.uniform(0.5, 3.0))
        F = rng.uniform(0.3, 0.95) * guard_field(atom)
        k = rate_ll(atom, float(F)).K_e
        result = invert_rate(k, atom)
        assert result.F == pytest.approx(F, rel=1e-10)
        assert result.residual < 1e-10


def test_round_trip_jwkb_method():
    atom = make_atom(1)
    sol = rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, 6.0))
    result = invert_rate(sol.K_e, atom, method="jwkb-parabolic")
    assert result.F == pytest.approx(6.0, rel=1e-10)


def test_tiny_target_is_attainable_via_logs():
    # exponent reaches ~1e8 at the bracket's low end, so even the
    # smallest positive float is in range
    atom = make_atom(1)
    result = invert_rate(1e-300, atom)
    assert result.residual < 1e-10
    assert rate_ll(atom, result.F).log_K_e == pytest.approx(
        np.log(1e-300), abs=1e-10
    )


def test_unattainable_target():
    atom = make_atom(1)
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(1e99, atom)
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(-1.0, atom)
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(0.0, atom)


def test_invalid_bracket():
    atom = make_atom(1)
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(1e9, atom, bracket=(5.0, 5.0))
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(1e9, atom, bracket=(-1.0, 5.0))


def test_unknown_method():
    with pytest.raises(ValueError):
        invert_rate(1e9, make_atom(1), method="nope")


def test_jwkb_default_bracket_for_higher_charge():
    # the default bracket starts at 1e-6 V/nm, where G is about 1.5e10
    atom = make_atom(3.5)
    F = 0.3 * guard_field(atom)
    model = MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)
    result = invert_rate(rate_jwkb(model).K_e, atom, method="jwkb-parabolic")
    assert result.F == pytest.approx(F, rel=1e-10)
    assert result.residual < 1e-10


def test_jwkb_inversion_converges_at_rounding_floor():
    result = invert_rate(
        6.255178052107686e-67, make_atom(1, 10.70946), method="jwkb-parabolic"
    )
    assert result.iterations < 40
    assert result.residual < 1e-10


@pytest.mark.parametrize("Z", [10.0, 20.0, 30.0])
def test_ll_inversion_converges_deep_in_the_barrier(Z):
    # ln K moves by more than 1e-13 between neighbouring floats of ln F
    atom = make_atom(Z)
    F = 0.05 * guard_field(atom)
    result = invert_rate(rate_ll(atom, F).K_e, atom)
    assert result.F == pytest.approx(F, rel=1e-12)
    assert result.iterations < 40


@pytest.mark.filterwarnings("error")
def test_numpy_scalar_bracket_gives_the_float_result():
    atom = make_atom(1)
    numpy_bracket = (np.float64(1.0), np.float64(50.0))
    result = invert_rate(1e9, atom, method="jwkb-parabolic", bracket=numpy_bracket)
    expected = invert_rate(1e9, atom, method="jwkb-parabolic", bracket=(1.0, 50.0))
    assert result.F == expected.F
