"""Inverse field calibration round trips and failure modes."""

import math
import sys

import numpy as np
import pytest
from helpers import exact_jwkb_root, exact_ll_root

from esfi import errors, invert
from esfi.barrier import MotiveModel, MotiveVariant, rate_jwkb, suppression_field
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


class _Float(float):
    pass


@pytest.mark.parametrize("Z", [1e-4, 0.1, 0.5, 1.0, 2.5, 7.0, 30.0])
@pytest.mark.parametrize("I", [None, 0.1, 30.0, 3000.0])
def test_ll_evaluator_is_rate_ll_bit_for_bit(Z, I):
    # a float field is checked by 0 < F < inf alone: its edges, and the
    # numbers that are not floats but compare as one
    atom = make_atom(Z, I)
    log_rate = _log_rate_fn(atom, "ll")
    guard = guard_field(atom)
    fields = _PARITY_FIELDS + [0.5 * guard, np.nextafter(guard, 0.0), guard, 2.0 * guard]
    edges = [sys.float_info.max, _Float(3.7), True]
    for F in [*map(float, fields), *edges]:
        expected = rate_ll(atom, F, allow_shallow=True).log_K_e
        assert log_rate(F) == expected, F  # inf == inf, -inf == -inf
    for F in (0.0, -0.0, -1.0, math.nan, np.float64("nan"), _Float(math.inf), math.inf,
              -math.inf, 10**400, -10**400):
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
def test_ll_slope_is_the_rate_ll_exponent_less_one(Z, I):
    # d ln K/d ln F = b I^(3/2)/F - 1, the exponent of the field evaluated
    # last; and it is the slope of ln K on ln F
    atom = make_atom(Z, I)
    log_rate = _log_rate_fn(atom, "ll")
    du = 1e-6
    for F in _PARITY_FIELDS:
        exponent = rate_ll(atom, F, allow_shallow=True).exponent
        log_rate(F)
        assert log_rate.slope() == exponent - 1.0, F  # inf == inf
        if math.isfinite(exponent):
            u = math.log(F)
            central = (log_rate(math.exp(u + du)) - log_rate(math.exp(u - du))) / (2.0 * du)
            assert central == pytest.approx(exponent - 1.0, rel=1e-6, abs=1e-6), F


def test_ll_refusal_above_the_maximum_solves_the_ends_only(monkeypatch):
    # at I > 455 Z^2 I_H the default bracket ends at the closed form's
    # maximum, where its slope vanishes: a target above the rate there is
    # refused from the two ends, without a search for the maximum
    solves = _recording(monkeypatch)
    atom = make_atom(1, 8000.0)
    peak = REGISTRY.b.value * atom.I**1.5
    target = 1.5 * rate_ll(atom, peak, allow_shallow=True).K_e
    with pytest.raises(errors.TargetUnattainable) as raised:
        invert_rate(target, atom)
    assert str(raised.value) == (
        "target 8.04826e+19 s^-1 outside attainable range [0, 5.36551e+19] s^-1 "
        "on bracket (1e-06, 4.88779e+06) V/nm"
    )
    assert solves == [peak, 1e-6]  # the top, then the bottom


@pytest.mark.parametrize("bracket, fields", [
    (None, [16.06939539647527, 1e-06, 0.004008665039196375, 0.25380469563598224,
            2.0195266791148514, 5.696715959254698, 9.567799183233031, 12.399546288047992,
            14.11570798931249, 15.06090611422325, 15.556980921073514, 15.306934019360325,
            15.183421754077564, 15.276620344706908, 15.276920946698667, 15.27692094979416]),
    ((1.0, 50.0), [50.0, 1.0, 7.071067811865475, 18.803015465431965, 11.530715390799681,
                   14.724544808607863, 16.639286155292233, 15.652664775585304,
                   15.181513885717191, 15.415289411458506, 15.297955100352677,
                   15.27690580680945, 15.27692094978631, 15.27692094979416]),
])
def test_ll_inversion_evaluates_the_ends_then_bisects_then_takes_newton_steps(
    monkeypatch, bracket, fields
):
    # the top, the bottom, the midpoints on ln F until the bracket is 1e-2
    # wide, then Newton's steps and the one past the stop, bit for bit
    solves = _recording(monkeypatch)
    result = invert_rate(1e9, make_atom(1), bracket=bracket)
    assert solves == fields
    assert result.iterations == len(fields)


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
        exponent = None

        def log_rate(F):
            nonlocal exponent
            result = rate_ll(atom, F, allow_shallow=True)
            exponent = result.exponent
            return result.log_K_e

        log_rate.slope = lambda: exponent - 1.0
        return log_rate

    monkeypatch.setattr(invert, "_log_rate_fn", rate_ll_log_rate)
    assert [_outcome(*case) for case in cases] == now
    solved = sum(isinstance(result, invert.InversionResult) for result in now)
    assert 100 < solved < 200  # both results and refusals are compared


def test_ll_inversion_lands_within_a_few_ulps_of_the_exact_root():
    # 320 round trips from fields F0 uniform between guard/30 and 0.99 of
    # the guard: Z log-uniform in 0.3-30, 40 % of the atoms with I within
    # a factor e of Z^2 I_H (the closed form's maximum then lies far above
    # the guard).  The root is that of esfi's own long-double factors in
    # mpmath, so what is left is the solver's.  (The solve runs on ln F:
    # exp of neighbouring floats of ln F lies up to 16 ulps of F apart
    # here, so the answer can be some 8 ulps from the root; an F0 drawn
    # as exp of a float would hide that, as exp reaches it exactly)
    rng = np.random.default_rng(2021)
    worst = 0.0
    trips = 0
    while trips < 320:
        Z = math.exp(rng.uniform(math.log(0.3), math.log(30.0)))
        I = Z * Z * REGISTRY.I_H.value * math.exp(rng.uniform(-1.0, 1.0))
        atom = make_atom(Z, I if rng.random() < 0.4 else None)
        guard = guard_field(atom)
        F0 = guard * rng.uniform(1.0 / 30.0, 0.99)
        target = rate_ll(atom, F0).K_e
        if target == 0.0:  # below the double range: no target to give
            continue
        trips += 1
        answer = invert_rate(target, atom).F
        ulps = float((answer - exact_ll_root(atom, target)) / math.ulp(answer))
        worst = max(worst, abs(ulps))
    assert worst <= 10.0, worst


# (target, Z, I, bracket) -> (F, iterations, residual) of 'll' inversions,
# pinned: bisection to 1e-2 on ln F, then Newton with the closed form's
# exact slope and one step more once converged
_LL_GOLDEN = [
    (1e-300, 1, None, None, 0.4648756587107721, 16, 0.0),
    (1e-50, 1, None, None, 2.1391307942580546, 17, 1.4210854715202105e-14),
    (1.0, 1, None, None, 7.820944868810926, 16, 1.7451318168326664e-15),
    (1e9, 1, None, None, 15.27692094979416, 16, 3.5527136788004946e-15),
    (1e9, 2, None, None, 114.80298748287717, 16, 7.105427357601027e-15),
    (1e6, 0.5, None, None, 1.5201281064830117, 16, 0.0),
    (1e3, 2.5, 30.0, None, 29.88258856994929, 16, 0.0),
    (1e3, 10, None, None, 8265.571304453095, 17, 2.57571741713033e-14),
    (1e8, 30.0, None, None, 290186.6603360526, 17, 3.552713678800507e-15),
    (1e-10, 0.3, None, None, 0.14274597128857405, 17, 7.105427357601027e-15),
    (1e13, 1, 1000.0, None, 12511.736517833397, 16, 1.065814103640156e-14),
    (1e15, 1, 5000.0, None, 171721.71010873024, 17, 7.105427357601027e-15),
    (1e9, 1, None, (1.0, 50.0), 15.27692094979416, 14, 3.5527136788004946e-15),
    (1e6, 3, None, (5.0, 300.0), 290.1866603360527, 14, 1.065814103640156e-14),
]


@pytest.mark.parametrize("target, Z, I, bracket, F, iterations, residual", _LL_GOLDEN)
def test_ll_inversion_results_are_unchanged(target, Z, I, bracket, F, iterations, residual):
    result = invert_rate(target, make_atom(Z, I), bracket=bracket)
    assert result == invert.InversionResult(F, iterations, residual)


def test_jwkb_inversion_of_hydrogen_takes_one_solve_per_newton_step():
    # the closed form's root, Newton steps whose slope comes with the
    # evaluation, and one step past the stop; the bracket's ends are not
    # solved, as Newton converges inside the bracket
    atom = make_atom(1)
    for F in (3.0, 6.0, 12.0):
        target = rate_jwkb(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)).K_e
        result = invert_rate(target, atom, method="jwkb-parabolic")
        assert result.F == pytest.approx(F, rel=1e-12)
        assert result.iterations <= 7
    assert invert_rate(1e8, atom, method="jwkb-parabolic").iterations <= 7


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


def test_rate_peak_returns_the_lower_end_where_its_ln_k_is_larger():
    # ln K = -(u - p)^2 over ln F in (0, 1): two bisections end with the
    # bracket (0.25, 0.5), whose lower end lies nearer the peak at p
    p = 0.30000001

    class Parabola:
        def __call__(self, F):
            self.u = math.log(F)
            return -(self.u - p) ** 2

        def slope(self):
            return -2.0 * (self.u - p)

    got = invert._rate_peak(Parabola(), 0.0, 0.0, 1.0, -(1.0 - p) ** 2, 2)
    assert got == (0.25, -0.0025000010000001066, 2)


@pytest.mark.parametrize("target, bracket, message", [
    (1e13, (8e4, guard_field(make_atom(1, 1086.0))),
     "rate not increasing over bracket (80000, 102381) V/nm"),
    # across the maximum, with the root inside, below it (e^0.01 times
    # the rate at 6e4 V/nm): a given bracket's ends are solved first
    (60556562064170.516, (6e4, 1.02e5), "rate not increasing over bracket (60000, 102000) V/nm"),
])
def test_jwkb_user_bracket_past_the_maximum_is_non_monotone(target, bracket, message):
    # the default bracket would end at the maximum, near 7.7e4 V/nm, and
    # answers below it
    atom = make_atom(1, 1086.0)
    with pytest.raises(errors.NonMonotoneBracket) as raised:
        invert_rate(target, atom, method="jwkb-parabolic", bracket=bracket)
    assert str(raised.value) == message
    assert invert_rate(target, atom, method="jwkb-parabolic").F < 7.7e4


# (target, Z, I, method, bracket) -> (F, iterations, residual) of JWKB
# inversions, pinned: every shape, default and given brackets, the default
# bracket ending at the rate's maximum (I = 1086 eV), and a target above
# the closed form's rate at the guard (5e9), which starts at the guard.
# With the default bracket, the ends go unsolved (the top solved once
# where Newton starts there)
_JWKB_GOLDEN = [
    (1e8, 1, None, "jwkb-parabolic", None, 13.464690817226831, 5, 3.552713678800507e-15),
    (1e8, 1, None, "jwkb-cartesian", None, 13.464690817226831, 5, 3.552713678800507e-15),
    (1e8, 1, None, "jwkb-naive", None, 11.202502571351634, 6, 0.0),
    (1e-30, 1, None, "jwkb-parabolic", None, 2.994585336393798, 4, 0.0),
    (5e9, 1, None, "jwkb-cartesian", None, 16.04696784381655, 5, 3.5527136788004946e-15),
    (1e9, 1, None, "jwkb-parabolic", (1.0, 50.0), 14.870456021456317, 7, 0.0),
    (1e9, 1, None, "jwkb-naive", (2.0, 20.0), 12.181698367410181, 8, 0.0),
    (1e6, 2.5, None, "jwkb-parabolic", None, 166.66553493721617, 5, 1.7763568394002662e-14),
    (1e10, 2.5, None, "jwkb-naive", (20.0, 400.0), 193.80888517455102, 8, 3.552713678800507e-15),
    (1e3, 2.5, 30.0, "jwkb-cartesian", None, 26.48824829255789, 6, 3.5527136788004946e-15),
    (1e11, 1, 30.0, "jwkb-parabolic", (1.0, 80.0), 65.95849964740297, 7, 0.0),
    (3.83999e13, 1, 1086.0, "jwkb-parabolic", None, 51190.3093440342, 8, 7.105427357601027e-15),
    # a given bracket below the closed form's root (Newton from its top),
    # and one above it (bisection, then Newton)
    (4.4e6, 1, None, "jwkb-parabolic", (1.0, 12.0), 11.941170806255803, 6, 3.552713678800507e-15),
    (1e11, 1, 100.0, "jwkb-parabolic", (400.0, 800.0), 431.9784830726715, 13,
     7.105427357601027e-15),
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


def _recording(monkeypatch):
    """The fields the inversion's evaluator solves, in order."""
    solves = []
    make = invert._log_rate_fn

    def recording(atom, method):
        log_rate = make(atom, method)

        def recorded(F):
            solves.append(F)
            return log_rate(F)

        recorded.slope = log_rate.slope
        return recorded

    monkeypatch.setattr(invert, "_log_rate_fn", recording)
    return solves


def _jwkb_outcome(target, atom, method, bracket=None):
    try:
        result = invert_rate(target, atom, method=method, bracket=bracket)
    except errors.EsfiError as exc:
        return type(exc), str(exc)
    return result.F, result.residual


_CALIBRATIONS = [(1, None), (2, None), (2.5, None), (1, 20.0)]


@pytest.mark.parametrize("method", ["jwkb-parabolic", "jwkb-cartesian", "jwkb-naive"])
def test_jwkb_default_bracket_solves_its_ends_only_when_needed(monkeypatch, method):
    solves = _recording(monkeypatch)
    inside_seeds = 0
    for Z, I in _CALIBRATIONS:
        atom = make_atom(Z, I)
        guard = guard_field(atom)
        for fraction in (1 / 3, 0.5, 0.8, 0.99):
            target = rate_jwkb(MotiveModel(MotiveVariant(method), atom, fraction * guard)).K_e
            solves.clear()
            result = invert_rate(target, atom, method=method)
            assert len(solves) == result.iterations
            assert 1e-6 not in solves
            if invert._closed_form_root(atom, math.log(target)) < math.log(guard):
                # the seed lies inside the bracket: the top goes unsolved too
                assert guard not in solves
                inside_seeds += 1
            else:
                # Newton starts at the top, solved first and once
                assert solves[0] == guard
                assert solves.count(guard) == 1
    assert inside_seeds >= 8
    # the closed form's root lies above the top: Newton starts there, the
    # top is solved once, and the bottom stays unsolved
    solves.clear()
    result = invert_rate(5e9, make_atom(1), method=method)
    assert solves[0] == guard_field(make_atom(1))
    assert solves.count(guard_field(make_atom(1))) == 1
    assert 1e-6 not in solves
    assert len(solves) == result.iterations


def _default_top(atom, method):
    """The top of a JWKB method's default bracket, before any search for
    the rate's maximum."""
    return min(guard_field(atom), invert._BELOW_SUPPRESSION
               * suppression_field(atom, MotiveVariant(method)))


def _ends_first_bracket(atom, method, target):
    """The bracket that the default stands for, to be given to invert_rate,
    which then solves its ends first: (1e-6, top), or, for a target above
    the rate at the top where the rate falls there, (1e-6, the field of
    the rate's maximum), located by bisection on the sign of the
    evaluator's slope."""
    log_rate = _log_rate_fn(atom, method)
    top = _default_top(atom, method)
    at_top = log_rate(top)
    if math.log(target) <= at_top or log_rate.slope() > 0.0:
        return 1e-6, top
    u_lo, u_hi = math.log(top / 3), math.log(top)
    while u_hi - u_lo > 1e-10:
        u = 0.5 * (u_lo + u_hi)
        log_rate(math.exp(u))
        if log_rate.slope() > 0.0:
            u_lo = u
        else:
            u_hi = u
    return 1e-6, math.exp(u_lo)


def test_jwkb_lazy_ends_give_the_ends_first_answers_and_refusals():
    # the calibration mix, the default bracket ending at the rate's maximum
    # or below the suppression field, targets above the attainable range
    # and at the bottom of the bracket (the ends solved mid-search, then an
    # answer), against the same targets over the bracket the default
    # stands for, given, whose ends are solved first
    rng = np.random.default_rng(2024)
    cases = []
    for Z, I in _CALIBRATIONS + [(1, 1086.0), (1, 1498.0), (0.0105, None)]:
        atom = make_atom(Z, I)
        for method in ("jwkb-parabolic", "jwkb-cartesian", "jwkb-naive"):
            log_rate = _log_rate_fn(atom, method)
            top = _default_top(atom, method)
            lo, hi = sorted((log_rate(top / 3), log_rate(top)))
            for log_t in [*rng.uniform(lo, hi, 3), *rng.uniform(hi, hi + 3.0, 2)]:
                cases.append((math.exp(log_t), atom, method))
    atom = make_atom(0.0105)
    bottom = _log_rate_fn(atom, "jwkb-parabolic")(1e-6)
    cases += [(math.exp(bottom + d), atom, "jwkb-parabolic") for d in (-1e-3, 1e-6, 0.1)]
    cases += [(target, make_atom(1, 1086.0), "jwkb-parabolic") for target in (3.83999e13, 1e14)]
    cases.append((1.4e11, make_atom(1, 1498.0), "jwkb-parabolic"))
    lazy = [_jwkb_outcome(*case) for case in cases]
    brackets = [_ends_first_bracket(atom, method, target) for target, atom, method in cases]
    assert [_jwkb_outcome(*case, bracket) for case, bracket in zip(cases, brackets)] == lazy
    refused = sum(isinstance(outcome[0], type) for outcome in lazy)
    assert 10 < refused < len(cases) - 10  # both answers and refusals are compared
    # and so are both over a bracket that ends at the rate's maximum
    peaked = [outcome for outcome, (_, F_hi), (_, atom, method) in zip(lazy, brackets, cases)
              if F_hi < _default_top(atom, method)]
    assert 1 < sum(isinstance(outcome[0], type) for outcome in peaked) < len(peaked) - 1


def test_jwkb_ends_solved_mid_search_go_on_from_their_midpoint(monkeypatch):
    # the rate at the bottom of the bracket, 1e-6 V/nm, times e^(1e-6):
    # Newton's first step from the closed form's root would leave the
    # bracket, so the ends are solved there, and the search goes on from
    # the midpoint (on ln F) of the bracket they give
    atom = make_atom(0.0105)
    target = 8.872453579785156e-157
    solves = _recording(monkeypatch)
    result = invert_rate(target, atom, method="jwkb-parabolic")
    assert result == invert.InversionResult(1.0000000025261931e-06, 21, 1.136868377216225e-13)
    seed = math.exp(invert._closed_form_root(atom, math.log(target)))
    top = guard_field(atom)
    assert top == 1.8602333845844685e-05
    midpoint = math.exp(0.5 * (math.log(1e-6) + math.log(top)))
    assert solves[:4] == [seed, top, 1e-6, midpoint]
    assert len(solves) == 21


@pytest.mark.parametrize("target, I, bracket, seed_at, fields", [
    # the seed inside a given bracket: the ends, then Newton from the seed
    (1e9, None, (1.0, 50.0), "inside",
     [50.0, 1.0, 15.276920949794167, 14.86469880742751, 14.870454847019678,
      14.87045602145627, 14.870456021456317]),
    # the seed at or above a given top: Newton starts at the top, which is
    # solved again, after the bottom, for the slope there
    (4.4e6, None, (1.0, 12.0), "above",
     [12.0, 1.0, 12.0, 11.941020530371254, 11.941170805272213, 11.941170806255803]),
    # the closed-form root below a given bottom: no seed, so the ends, the
    # midpoints on ln F until the bracket is 1e-2 wide, then Newton
    (1e11, 100.0, (400.0, 800.0), "below",
     [800.0, 400.0, 565.6854249492379, 475.6828460010881, 436.20309306610267,
      417.7095129709651, 426.85616027072905, 431.5043191028475, 433.8473448853235,
      431.97428392291187, 431.978483051416, 431.9784830726715, 431.97848307267117]),
])
def test_jwkb_given_bracket_searches_solve_their_fields_in_order(
    monkeypatch, target, I, bracket, seed_at, fields
):
    atom = make_atom(1, I)
    seed = invert._closed_form_root(atom, math.log(target))
    lo, hi = math.log(bracket[0]), math.log(bracket[1])
    assert {"inside": lo < seed < hi, "above": seed >= hi, "below": seed <= lo}[seed_at]
    solves = _recording(monkeypatch)
    result = invert_rate(target, atom, method="jwkb-parabolic", bracket=bracket)
    assert solves == fields
    assert result.iterations == len(fields)


def test_jwkb_rate_peak_search_solves_its_fields_in_order(monkeypatch):
    # above the rate's maximum at I = 1086 eV: Newton from the seed steps
    # past the maximum, where the slope is not positive; the ends step then
    # solves the top, where the rate falls and lies below the target,
    # bisects the default bracket on the slope's sign down to the maximum,
    # solves the bottom and refuses
    solves = _recording(monkeypatch)
    with pytest.raises(errors.TargetUnattainable):
        invert_rate(1e14, make_atom(1, 1086.0), method="jwkb-parabolic")
    walk = [16410.39121913159, 33246.39877811555, 53118.3944529933, 69511.96569072639,
            90765.20959254692]
    top = guard_field(make_atom(1, 1086.0))
    peak = [0.31996976423334217, 180.9936806910356, 4304.677767185525, 20993.23005033616,
            46360.54937818512, 68894.28989972269, 83984.77351784571, 76066.22991775665,
            79927.49897250114, 77972.96655632342, 77013.69749234772, 76538.49763530429,
            76775.72991124276, 76894.62164637161, 76835.15278275321, 76805.43560020822,
            76790.58131930593, 76798.00810061744, 76794.29462018106, 76796.15133795363,
            76797.07971367399, 76797.54390574277, 76797.31180935766, 76797.19576142821,
            76797.25378537095, 76797.28279735876, 76797.26829136348, 76797.26103836687,
            76797.26466486516, 76797.26285161606, 76797.2637582406, 76797.26330492826,
            76797.26307827217, 76797.26319160021, 76797.26313493612]
    assert solves == walk + [top] + peak + [1e-6]


def test_jwkb_no_convergence_is_refused_without_a_second_try(monkeypatch):
    # with three solves allowed, hydrogen at 1e8 s^-1 (five solves) does not
    # converge: nothing starts over, and the refusal counts the three
    monkeypatch.setattr(invert, "_MAX_ITER", 3)
    solves = _recording(monkeypatch)
    with pytest.raises(errors.NumericError) as raised:
        invert_rate(1e8, make_atom(1), method="jwkb-parabolic")
    assert str(raised.value).startswith("inversion did not converge in 3 evaluations")
    assert len(solves) == 3


def test_jwkb_ends_wait_for_solves_the_budget_allows(monkeypatch):
    # hydrogen at 1e10 s^-1 lies above the JWKB rate at the guard and the
    # closed form's root above it: Newton starts at the top, whose rate
    # falls short, so the ends are next; with one solve allowed, none is
    # left for them, and the refusal is the budget's, not the bracket's
    monkeypatch.setattr(invert, "_MAX_ITER", 1)
    solves = _recording(monkeypatch)
    with pytest.raises(errors.NumericError) as raised:
        invert_rate(1e10, make_atom(1), method="jwkb-parabolic")
    assert str(raised.value).startswith("inversion did not converge in 1 evaluations")
    assert solves == [guard_field(make_atom(1))]


@pytest.mark.parametrize("target, I, message", [
    (1e14, 1086.0, "target 1e+14 s^-1 outside attainable range [0, 8.04054e+13] s^-1 "
                   "on bracket (1e-06, 76797.3) V/nm"),
    (8.863576697372891e-157, None,
     "target 8.86358e-157 s^-1 outside attainable range [8.87244e-157, 567089] s^-1 "
     "on bracket (1e-06, 1.86023e-05) V/nm"),
])
def test_jwkb_refusal_met_mid_search_names_the_attainable_range(target, I, message):
    # above the rate's maximum, and just below the rate at 1e-6 V/nm
    atom = make_atom(1 if I else 0.0105, I)
    with pytest.raises(errors.TargetUnattainable) as raised:
        invert_rate(target, atom, method="jwkb-parabolic")
    assert str(raised.value) == message


def test_jwkb_given_bracket_past_the_suppression_field_is_refused():
    # a given bracket's ends are solved first, so the barrier gone at its
    # top refuses, though hydrogen's root for 1e9 s^-1 (14.87 V/nm) lies
    # inside; below the suppression field the same target answers
    atom = make_atom(1)
    with pytest.raises(errors.BarrierSuppressed) as raised:
        invert_rate(1e9, atom, method="jwkb-parabolic", bracket=(1.0, 70.0))
    assert str(raised.value) == (
        "barrier vanished at F=70 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)"
    )
    result = invert_rate(1e9, atom, method="jwkb-parabolic", bracket=(1.0, 57.9))
    assert result.F == 14.870456021456317
