"""Inverse field calibration round trips and failure modes."""

import math

import numpy as np
import pytest

from esfi import errors, invert
from esfi.barrier import MotiveModel, MotiveVariant, rate_jwkb
from esfi.hydrogenic import make_atom
from esfi.invert import _log_rate_fn, invert_rate
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


def test_falling_bracket_is_non_monotone():
    # H's closed form peaks near 340 V/nm and falls beyond it
    with pytest.raises(errors.NonMonotoneBracket):
        invert_rate(1e10, make_atom(1), bracket=(400.0, 1e5))


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


_PARITY_FIELDS = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-50,
                  1e-6, 0.01, 0.3, 1.0, 3.7, 12.0, 16.07, 40.0, 1e3, 1e6,
                  1e50, 1e200, 1e308]


@pytest.mark.parametrize("Z", [1e-4, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0])
@pytest.mark.parametrize("I", [None, 0.1, 30.0, 3000.0])
def test_ll_evaluator_is_rate_ll_bit_for_bit(Z, I):
    atom = make_atom(Z, I)
    log_rate = _log_rate_fn(atom, "ll")
    guard = guard_field(atom)
    fields = _PARITY_FIELDS + [0.5 * guard, np.nextafter(guard, 0.0), guard, 2.0 * guard]
    for F in map(float, fields):
        expected = rate_ll(atom, F, allow_shallow=True).log_K_e
        assert log_rate(F) == expected, F  # inf == inf, -inf == -inf
    for F in (0.0, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(errors.NonPositiveField) as raised:
            log_rate(F)
        with pytest.raises(errors.NonPositiveField) as expected:
            rate_ll(atom, F, allow_shallow=True)
        assert str(raised.value) == str(expected.value)


def _outcome(target, atom, bracket):
    try:
        return invert_rate(target, atom, bracket=bracket)
    except errors.EsfiError as exc:
        return type(exc), str(exc)


def test_ll_inversion_matches_the_rate_ll_evaluations(monkeypatch):
    # 200 targets around each atom's attainable range, in and out of it
    rng = np.random.default_rng(808)
    cases = []
    for _ in range(200):
        atom = make_atom(float(rng.uniform(0.3, 12.0)),
                         float(rng.uniform(1.0, 100.0)) if rng.random() < 0.3 else None)
        guard = guard_field(atom)
        lo, hi = (rate_ll(atom, F, allow_shallow=True).log_K_e for F in (guard / 40, guard))
        target = math.exp(rng.uniform(lo - 5.0, hi + 5.0))
        bracket = (guard / 50, 1.5 * guard) if rng.random() < 0.2 else None
        cases.append((target, atom, bracket))
    now = [_outcome(*case) for case in cases]

    monkeypatch.setattr(
        invert, "_log_rate_fn",
        lambda atom, method: lambda F: rate_ll(atom, F, allow_shallow=True).log_K_e,
    )
    assert [_outcome(*case) for case in cases] == now
    solved = sum(isinstance(result, invert.InversionResult) for result in now)
    assert 100 < solved < 200  # both results and refusals are compared


# (target, Z, I, bracket) -> (F, iterations, residual) of 'll' inversions,
# pinned: its Newton keeps the central difference at the same points
_LL_GOLDEN = [
    (1e-300, 1, None, None, 0.46487565871077213, 22, 0.0),
    (1e-50, 1, None, None, 2.1391307942580546, 22, 1.4210854715202105e-14),
    (1.0, 1, None, None, 7.820944868810926, 22, 1.7451318168326664e-15),
    (1e9, 1, None, None, 15.276920949794167, 22, 7.105427357601027e-15),
    (1e9, 2, None, None, 114.80298748287717, 22, 7.105427357601027e-15),
    (1e6, 0.5, None, None, 1.5201281064830117, 22, 0.0),
    (1e3, 2.5, 30.0, None, 29.88258856994929, 22, 0.0),
    (1e3, 10, None, None, 8265.571304453095, 23, 2.57571741713033e-14),
    (1e8, 30.0, None, None, 290186.6603360526, 23, 3.552713678800507e-15),
    (1e-10, 0.3, None, None, 0.14274597128857403, 22, 7.105427357600977e-15),
    (1e13, 1, 1000.0, None, 12511.736517833397, 20, 1.065814103640156e-14),
    (1e15, 1, 5000.0, None, 171721.71010873024, 23, 7.105427357601027e-15),
    (1e9, 1, None, (1.0, 50.0), 15.276920949794167, 20, 7.105427357601027e-15),
    (1e6, 3, None, (5.0, 300.0), 290.1866603360527, 20, 1.065814103640156e-14),
]


@pytest.mark.parametrize("target, Z, I, bracket, F, iterations, residual", _LL_GOLDEN)
def test_ll_inversion_results_are_unchanged(target, Z, I, bracket, F, iterations, residual):
    result = invert_rate(target, make_atom(Z, I), bracket=bracket)
    assert result == invert.InversionResult(F, iterations, residual)


def test_jwkb_inversion_of_hydrogen_takes_one_solve_per_newton_step():
    # two bracket ends, eleven bisection steps, then Newton steps whose
    # slope comes with the evaluation
    atom = make_atom(1)
    for F in (3.0, 6.0, 12.0):
        target = rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)).K_e
        result = invert_rate(target, atom, method="jwkb-parabolic")
        assert result.F == pytest.approx(F, rel=1e-12)
        assert result.iterations <= 17
    assert invert_rate(1e8, atom, method="jwkb-parabolic").iterations <= 17


def _jwkb_log_rate_at(atom, F):
    return rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)).log_K_e


@pytest.mark.parametrize("I, target", [(1086.0, 3.83999e13), (1498.0, 1.4e11)])
def test_jwkb_default_bracket_answers_below_the_rate_maximum(I, target):
    # at 1086 eV the rate peaks below the guard; at 1498 eV the barrier is
    # also suppressed below it
    atom = make_atom(1, I)
    result = invert_rate(target, atom, method="jwkb-parabolic")
    assert result.residual < 1e-10
    assert _jwkb_log_rate_at(atom, result.F) == pytest.approx(math.log(target), abs=1e-12)
    # the answer lies below the maximum, where the rate still rises
    up = _jwkb_log_rate_at(atom, result.F * (1 + 1e-6))
    assert up > _jwkb_log_rate_at(atom, result.F)


def test_jwkb_user_bracket_past_the_maximum_is_non_monotone():
    # the default bracket would end at the maximum, near 7.7e4 V/nm
    atom = make_atom(1, 1086.0)
    with pytest.raises(errors.NonMonotoneBracket):
        invert_rate(1e13, atom, method="jwkb-parabolic", bracket=(8e4, guard_field(atom)))
