"""Inverse field calibration round trips and failure modes."""

import math

import numpy as np
import pytest
from helpers import exact_jwkb_root

from esfi import errors, invert
from esfi.barrier import MotiveModel, MotiveVariant, rate_jwkb
from esfi.hydrogenic import make_atom
from esfi.invert import _log_rate_fn, invert_rate
from esfi.rates import guard_field, rate_ll
from esfi.units import REGISTRY


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


@pytest.mark.parametrize("Z, I", [(0.3, None), (1.0, None), (17.0, None), (1.0, 30.0)])
def test_closed_form_has_no_root_at_or_above_its_maximum(Z, I):
    # C_FI I^(5/2)/F exp(-b I^(3/2)/F) peaks at F = b I^(3/2), at C_FI I/(b e)
    atom = make_atom(Z, I)
    peak = math.log(REGISTRY.C_FI.value * atom.I / REGISTRY.b.value) - 1.0
    for log_t in (peak, peak + 1e-12, peak + math.log(2.0), math.log(1e300)):
        assert invert._closed_form_root(atom, log_t) is None
    # a factor e below the maximum, the W_-1 root is back
    log_t = peak - 1.0
    root = invert._closed_form_root(atom, log_t)
    assert rate_ll(atom, math.exp(root), allow_shallow=True).log_K_e == pytest.approx(
        log_t, abs=1e-12
    )


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


def test_unknown_method_is_a_validation_error():
    with pytest.raises(errors.ValidationError, match="unknown inversion method 'nope'"):
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


@pytest.mark.parametrize("Z", [1e-4, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0])
@pytest.mark.parametrize("I", [None, 0.1, 30.0, 3000.0])
def test_ll_evaluator_takes_numpy_and_int_fields_bit_for_bit(Z, I):
    atom = make_atom(Z, I)
    log_rate = _log_rate_fn(atom, "ll")
    guard = guard_field(atom)
    fields = _PARITY_FIELDS + [0.5 * guard, np.nextafter(guard, 0.0), guard, 2.0 * guard]
    numbers = [np.float64(F) for F in fields] + [np.longdouble(F) for F in fields]
    numbers += [int(F) for F in fields if F >= 1.0]
    for F in numbers:
        expected = rate_ll(atom, F, allow_shallow=True).log_K_e
        assert log_rate(F) == expected, (F, type(F))


@pytest.mark.parametrize("Z", [1e-4, 0.5, 1.0, 7.0, 30.0])
@pytest.mark.parametrize("I", [None, 0.1, 3000.0])
def test_ll_inside_is_the_evaluator_bit_for_bit(Z, I):
    log_rate = _log_rate_fn(make_atom(Z, I), "ll")
    for F in _PARITY_FIELDS:
        assert log_rate.inside(F) == log_rate(F), F


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

    def rate_ll_log_rate(atom, method):
        def log_rate(F):
            return rate_ll(atom, F, allow_shallow=True).log_K_e

        log_rate.inside = log_rate
        return log_rate

    monkeypatch.setattr(invert, "_log_rate_fn", rate_ll_log_rate)
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
    # two bracket ends, the closed form's root, Newton steps whose slope
    # comes with the evaluation, and one step past the stop
    atom = make_atom(1)
    for F in (3.0, 6.0, 12.0):
        target = rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)).K_e
        result = invert_rate(target, atom, method="jwkb-parabolic")
        assert result.F == pytest.approx(F, rel=1e-12)
        assert result.iterations <= 9
    assert invert_rate(1e8, atom, method="jwkb-parabolic").iterations <= 9


@pytest.mark.parametrize("method", ["jwkb-parabolic", "jwkb-cartesian", "jwkb-naive"])
def test_jwkb_target_above_the_closed_form_at_the_guard_takes_a_handful_of_solves(method):
    # between hydrogen's closed-form rate at the guard (2.88e9 s^-1) and
    # the JWKB rate there: the closed form's root lies above the bracket,
    # so Newton starts at its top, one solve more for the slope there
    atom = make_atom(1)
    guard = guard_field(atom)
    lo = rate_ll(atom, guard, allow_shallow=True).log_K_e
    hi = rate_jwkb(MotiveModel(MotiveVariant(method), atom, guard)).log_K_e
    for fraction in (0.01, 0.3, 0.7, 0.999):
        target = math.exp(lo + fraction * (hi - lo))
        result = invert_rate(target, atom, method=method)
        assert result.iterations <= 9, fraction
        assert result.residual < 1e-13, fraction


@pytest.mark.parametrize("Z, I, method", [
    (1, None, "jwkb-parabolic"), (1, None, "jwkb-cartesian"), (1, None, "jwkb-naive"),
    (2, None, "jwkb-parabolic"), (2.5, None, "jwkb-parabolic"), (1, 20.0, "jwkb-parabolic"),
])
def test_jwkb_inversion_lands_within_a_few_ulps_of_the_exact_root(Z, I, method):
    # targets: the rates at guard/3 to the guard; the root is that of ln K
    # in mpmath from the same float inputs, so what is left is the
    # rounding of G's float sum over the nodes and of ln K
    atom = make_atom(Z, I)
    for fraction in (1 / 3, 0.45, 0.6, 0.8, 0.99):
        F = fraction * guard_field(atom)
        target = rate_jwkb(MotiveModel(MotiveVariant(method), atom, F)).K_e
        answer = invert_rate(target, atom, method=method).F
        root = exact_jwkb_root(atom, method, target, answer)
        assert abs(answer - root) <= 6.0 * math.ulp(answer), (
            fraction, float((answer - root) / math.ulp(answer))
        )


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


# (target, Z, I, method, bracket) -> (F, iterations, residual) of JWKB
# inversions, pinned: every shape, default and given brackets, the default
# bracket ending at the rate's maximum (I = 1086 eV), and a target above
# the closed form's rate at the guard (5e9), which starts at the guard
_JWKB_GOLDEN = [
    (1e8, 1, None, "jwkb-parabolic", None, 13.464690817226831, 7, 3.552713678800507e-15),
    (1e8, 1, None, "jwkb-cartesian", None, 13.464690817226831, 7, 3.552713678800507e-15),
    (1e8, 1, None, "jwkb-naive", None, 11.202502571351634, 8, 0.0),
    (1e-30, 1, None, "jwkb-parabolic", None, 2.994585336393798, 6, 0.0),
    (5e9, 1, None, "jwkb-cartesian", None, 16.04696784381655, 7, 3.5527136788004946e-15),
    (1e9, 1, None, "jwkb-parabolic", (1.0, 50.0), 14.870456021456317, 7, 0.0),
    (1e9, 1, None, "jwkb-naive", (2.0, 20.0), 12.181698367410181, 8, 0.0),
    (1e6, 2.5, None, "jwkb-parabolic", None, 166.66553493721617, 7, 1.7763568394002662e-14),
    (1e10, 2.5, None, "jwkb-naive", (20.0, 400.0), 193.80888517455102, 8, 3.552713678800507e-15),
    (1e3, 2.5, 30.0, "jwkb-cartesian", None, 26.48824829255789, 8, 3.5527136788004946e-15),
    (1e11, 1, 30.0, "jwkb-parabolic", (1.0, 80.0), 65.95849964740297, 7, 0.0),
    (3.83999e13, 1, 1086.0, "jwkb-parabolic", None, 51190.3093440342, 45, 7.105427357601027e-15),
]


@pytest.mark.parametrize("target, Z, I, method, bracket, F, iterations, residual", _JWKB_GOLDEN)
def test_jwkb_inversion_results_are_unchanged(
    target, Z, I, method, bracket, F, iterations, residual
):
    result = invert_rate(target, make_atom(Z, I), method=method, bracket=bracket)
    assert result == invert.InversionResult(F, iterations, residual)


def test_jwkb_refused_target_names_the_attainable_range():
    with pytest.raises(errors.TargetUnattainable) as raised:
        invert_rate(1e99, make_atom(1), method="jwkb-parabolic")
    assert str(raised.value) == (
        "target 1e+99 s^-1 outside attainable range [0, 5.14366e+09] s^-1 "
        "on bracket (1e-06, 16.0694) V/nm"
    )
