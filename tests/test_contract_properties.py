"""Derandomized contract properties over the documented domain: any charge
in [0.1, 30], the default or any ionization energy in [0.1, 1e4] eV, and
fields from 1e-6 to 3 times the naive suppression field (1/30 to 0.99 of
the deep-tunnelling guard where a property holds below the guard only)."""

import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from helpers import exact_barrier, naive_strength_forbes_deane
from hypothesis import example, given, settings
from hypothesis import strategies as st

from esfi.barrier import (
    MotiveModel,
    MotiveVariant,
    _coefficients,
    _jwkb_log_rate,
    attempt_frequency_rate,
    barrier_strength,
    motive,
    motive_peak,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
    turning_points,
)
from esfi.errors import (
    EsfiError,
    NonFiniteValue,
    NonPositiveCoordinate,
    ShallowBarrierWarning,
    TargetUnattainable,
)
from esfi.hydrogenic import cartesian_axis_to_parabolic, make_atom, parabolic_to_cartesian
from esfi.invert import invert_rate
from esfi.rates import (
    barrier_integral_log_part,
    barrier_integral_main_part,
    barrier_term,
    barrier_term_from_parts,
    effective_escape_probability,
    guard_field,
    rate_gaussian_check,
    rate_ll,
    rate_ll_array,
    rate_z_form,
    suppression_field_naive,
)
from esfi.units import (
    FIELD,
    REGISTRY,
    Quantity,
    UnitSystem,
    from_canonical,
    gaussian_field_to_isq,
    to_canonical,
)

CONTRACT = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def atoms(draw):
    Z = draw(st.floats(0.1, 30.0))
    return make_atom(Z, draw(st.one_of(st.none(), st.floats(0.1, 1e4))))


@st.composite
def fields(draw, atom):
    """A field in [1e-6, 3] F_bs, as a float or as a numpy scalar."""
    F = draw(st.floats(1e-6, 3.0)) * suppression_field_naive(atom)
    return draw(st.sampled_from([float, np.float64]))(F)


@st.composite
def atom_and_fields(draw, count):
    atom = draw(atoms())
    return atom, sorted(draw(fields(atom)) for _ in range(count))


def _finite_or_refused(call):
    """call()'s numeric result, every number of it finite; None where it
    raises an EsfiError.  Anything else raised fails the property."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShallowBarrierWarning)
            result = call()
    except EsfiError:
        return None
    values = result.as_dict().values() if hasattr(result, "as_dict") else np.ravel(result)
    numbers = [v for v in values if isinstance(v, (float, np.floating))]
    assert all(math.isfinite(v) for v in numbers), result
    return result


@CONTRACT
@given(atom_and_fields(1))
def test_every_call_is_finite_or_an_esfi_error(case):
    atom, (F,) = case
    for shallow in (False, True):
        _finite_or_refused(lambda: rate_ll(atom, F, allow_shallow=shallow))
    for variant in MotiveVariant:
        model = MotiveModel(variant, atom, F)
        _finite_or_refused(lambda: suppression_field(atom, variant))
        _finite_or_refused(lambda: motive_peak(model))
        _finite_or_refused(lambda: turning_points(model))
        _finite_or_refused(lambda: barrier_strength(model))
        for simple in (False, True):
            _finite_or_refused(lambda: rate_jwkb(model, simple_prefactor=simple))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ShallowBarrierWarning)
            batch = rate_jwkb_array(variant, atom, [F])
        assert all(math.isfinite(v[0]) for v in batch) or all(math.isnan(v[0]) for v in batch)


def _strength(variant, atom, F):
    return _finite_or_refused(lambda: barrier_strength(MotiveModel(variant, atom, F)))


@CONTRACT
@given(atom_and_fields(2))
def test_barrier_strength_falls_with_field(case):
    atom, (f_lo, f_hi) = case
    for variant in MotiveVariant:
        G_lo, G_hi = _strength(variant, atom, f_lo), _strength(variant, atom, f_hi)
        if G_lo is not None and G_hi is not None:
            assert G_lo >= G_hi


@CONTRACT
@given(atom_and_fields(1))
def test_parabolic_and_cartesian_strengths_agree(case):
    atom, (F,) = case
    G_eta = _strength(MotiveVariant.TRANSFORMED_PARABOLIC, atom, F)
    G_z = _strength(MotiveVariant.TRANSFORMED_CARTESIAN, atom, F)
    if G_eta is not None and G_z is not None:
        assert G_z == pytest.approx(G_eta, rel=1e-12, abs=1e-9)


@CONTRACT
@given(atom_and_fields(1))
def test_naive_strength_is_forbes_deane(case):
    atom, (F,) = case
    G = _strength(MotiveVariant.NAIVE_1D, atom, F)
    if F < (1.0 - 1e-9) * suppression_field_naive(atom):  # a barrier exists
        assert G == pytest.approx(naive_strength_forbes_deane(atom, F), rel=1e-12)


def test_escape_probability_stays_below_its_bound():
    # D_eff = P_eff e^-G depends on the atom only through I/(sigma B)^2 and
    # on F/F_bs; at suppression x = (2I/B) eta_in >= 4, so
    # P_eff <= 2 pi 4 e^-4 = 0.46 there, and the unit pre-factor keeps the
    # naive barrier and the simple mode at or below 1 (G >= 0)
    ratios = np.concatenate([np.geomspace(1e-6, 0.95, 100), np.linspace(0.95, 1.0, 200),
                             1.0 - np.geomspace(1e-3, 1e-12, 100)])
    bound = {MotiveVariant.TRANSFORMED_PARABOLIC: 0.5,
             MotiveVariant.TRANSFORMED_CARTESIAN: 0.5,
             MotiveVariant.NAIVE_1D: 1.0}
    for Z in (0.01, 1.0, 30.0):
        for I in Z * Z * REGISTRY.I_H.value * np.geomspace(1e-12, 1e12, 25):
            atom = make_atom(Z, float(I))
            for variant in MotiveVariant:
                f_bs = suppression_field(atom, variant)
                batch = rate_jwkb_array(variant, atom, ratios * f_bs)
                assert np.nanmax(batch.D_eff) <= bound[variant], (Z, I, variant)
                solved = ~np.isnan(batch.G)
                assert (batch.G[solved] >= 0.0).all(), (Z, I, variant)
                for ratio in (1e-6, 0.3, 0.99, 1.0 - 1e-9):
                    model = MotiveModel(variant, atom, ratio * f_bs)
                    sol = _finite_or_refused(lambda: rate_jwkb(model, simple_prefactor=True))
                    assert sol is None or sol.D_eff <= 1.0, (Z, I, variant, ratio)


@CONTRACT
@given(st.floats(0.1, 30.0), st.floats(0.01, 20.0))
def test_jwkb_rates_scale_with_the_charge(Z, f):
    # a default-I atom at F is hydrogen at F/Z^3: the same G, and K_e
    # scaled by Z^2 (nu_Z); Z^2, Z^3 and F/Z^3 each round once.  An
    # identity of the physics, so the array path keeps it too
    atom, hydrogen, F = make_atom(Z), make_atom(1.0), f * Z**3
    for variant in MotiveVariant:
        scaled = rate_jwkb(MotiveModel(variant, atom, F))
        ref = rate_jwkb(MotiveModel(variant, hydrogen, F / Z**3))
        scaled_array = rate_jwkb_array(variant, atom, [F])
        ref_array = rate_jwkb_array(variant, hydrogen, [F / Z**3])
        for (G, log_K), (G_ref, log_K_ref) in (
            ((scaled.G, scaled.log_K_e), (ref.G, ref.log_K_e)),
            ((scaled_array.G[0], scaled_array.log_K_e[0]), (ref_array.G[0], ref_array.log_K_e[0])),
        ):
            assert G == pytest.approx(G_ref, rel=8 * sys.float_info.epsilon, abs=0)
            assert log_K - log_K_ref == pytest.approx(
                2.0 * math.log(Z), rel=0, abs=1e-14 * max(1.0, G_ref)
            )


@pytest.mark.parametrize("Z, I, fields", [
    # x = (2I/B) eta_in is some 2700: P_jwkb = x e^-x underflows
    (1.0, 1e8, np.geomspace(1e9, 1e12, 5)),
    # x is some 3e204, and 2 pi nu_Z x overflows as well
    (1e-155, 1e100, [1e-156]),
])
@pytest.mark.parametrize("variant", [MotiveVariant.TRANSFORMED_PARABOLIC,
                                     MotiveVariant.TRANSFORMED_CARTESIAN])
def test_prefactor_underflow_keeps_the_log_rate_finite(variant, Z, I, fields):
    # ln K_e = ln(2 pi nu_Z) + ln x - x - G, where the pre-factor is lost
    atom = make_atom(Z, I)
    batch = rate_jwkb_array(variant, atom, fields)
    for i, F in enumerate(fields):
        sol = rate_jwkb(MotiveModel(variant, atom, float(F)))
        eta_in = sol.coord_in * (1.0 if variant is MotiveVariant.TRANSFORMED_PARABOLIC else 2.0)
        x = 2.0 * atom.I / atom.B * eta_in
        assert x > 1000.0 and sol.P_eff == 0.0 and sol.K_e == 0.0
        expected = math.log(2.0 * math.pi * atom.nu_Z) + math.log(x) - x - sol.G
        assert sol.log_K_e == pytest.approx(expected, rel=1e-12)
        assert batch.log_K_e[i] == pytest.approx(sol.log_K_e, rel=1e-13)


@pytest.mark.parametrize("Z, I", [(1e155, 1.0), (4e-47, 1e-150), (1.0, None)])
def test_transformed_suppression_field_without_overflow(Z, I):
    # B^2 or z*^3 leave the float range for the first two atoms; the
    # closed form in 40 digits is the reference
    atom = make_atom(Z, I)
    with mpmath.workdps(40):
        B, I, e = mpmath.mpf(atom.B), mpmath.mpf(atom.I), mpmath.mpf(REGISTRY.e.value)
        s2 = mpmath.mpf(REGISTRY.sigma.value) ** 2
        z = (B + mpmath.sqrt(B * B + 3 * I / s2)) / (2 * I)
        expected = float((B / (2 * z * z) + 1 / (2 * s2 * z**3)) / e)
    for variant in (MotiveVariant.TRANSFORMED_PARABOLIC, MotiveVariant.TRANSFORMED_CARTESIAN):
        assert suppression_field(atom, variant) == pytest.approx(expected, rel=1e-14)


@st.composite
def deep_fields(draw, atom):
    """A field in [1/30, 0.99] of the deep-tunnelling guard, as a float or as
    a numpy scalar."""
    F = draw(st.floats(1.0 / 30.0, 0.99)) * guard_field(atom)
    return draw(st.sampled_from([float, np.float64]))(F)


@st.composite
def atom_and_deep_fields(draw, count):
    atom = draw(atoms())
    return atom, sorted(draw(deep_fields(atom)) for _ in range(count))


def _jwkb(variant):
    return lambda atom, F: rate_jwkb(MotiveModel(variant, atom, F))


def _ll_peak(atom):
    """The field of the closed form's maximum, where b I^(3/2)/F = 1."""
    return REGISTRY.b.value * atom.I**1.5


def _jwkb_peaks_below_guard(atom):
    """Whether the transformed-barrier JWKB rates may peak below the guard:
    from about 47.7 Z^2 I_H up, they do below 0.99 of it (a FOUND line in
    CHANGES.md)."""
    return atom.I > 45.0 * atom.Z**2 * REGISTRY.I_H.value


def _jwkb_slope(atom, F):
    """d ln K / d ln F of the transformed-parabolic JWKB rate at F."""
    log_rate = _jwkb_log_rate(atom, MotiveVariant.TRANSFORMED_PARABOLIC)
    log_rate(F)
    return log_rate.slope()


def _stopping_tolerance(rate, atom, F):
    """The slope d ln K / d ln F at F by a central difference, and the
    inverter's float-resolution stopping rule on |ln K - ln target|
    there, max(1e-13, 4 slope (ulp(ln F) + eps)), widened by the rounding
    of ln K itself."""
    u, du = math.log(F), 1e-6
    slope = (rate(atom, math.exp(u + du)).log_K_e
             - rate(atom, math.exp(u - du)).log_K_e) / (2.0 * du)
    tol = max(1e-13, 4.0 * abs(slope) * (math.ulp(u) + sys.float_info.epsilon))
    return slope, tol + math.ulp(rate(atom, F).log_K_e)


def _check_round_trip(rate, method, atom, F):
    """invert_rate(K(F)) is F to within the inverter's resolution: its
    stopping rule plus the rounding of the target K, over the slope."""
    result = rate(atom, F)
    if result.K_e == 0.0:  # the rate underflows: no float target stands for it
        with pytest.raises(TargetUnattainable):
            invert_rate(result.K_e, atom, method=method)
        return
    answer = invert_rate(result.K_e, atom, method=method)
    slope, tol = _stopping_tolerance(rate, atom, F)
    target_rounding = abs(math.log(result.K_e) - result.log_K_e)
    u = math.log(F)
    assert abs(math.log(answer.F) - u) <= (tol + target_rounding) / slope + 2.0 * math.ulp(u)


@settings(CONTRACT, max_examples=20)
@given(atom_and_deep_fields(1))
def test_barrier_strength_is_the_exact_integral_of_its_coefficients(case):
    # the quadrature's rules are within 1.5 ulps of the exact G; rounding
    # of the float sum over the nodes adds up to about 3 more
    atom, (F,) = case
    for variant in MotiveVariant:
        G = _strength(variant, atom, F)
        if G is not None:
            _, exact = exact_barrier(_coefficients(variant, atom, F))
            assert abs(G - exact) <= 5.0 * math.ulp(G), (variant, float((G - exact) / math.ulp(G)))


@CONTRACT
@given(atom_and_deep_fields(1))
def test_ll_inversion_of_the_rate_is_the_identity(case):
    atom, (F,) = case
    if F <= _ll_peak(atom):
        _check_round_trip(rate_ll, "ll", atom, F)
        return
    # past the closed form's maximum the rate falls: the inverter answers
    # with the field below the maximum that gives the same rate
    target = rate_ll(atom, F).K_e
    answer = invert_rate(target, atom)
    _, tol = _stopping_tolerance(rate_ll, atom, answer.F)
    assert answer.F < _ll_peak(atom)
    assert abs(rate_ll(atom, answer.F).log_K_e - math.log(target)) <= tol


@settings(CONTRACT, max_examples=12)
@given(atom_and_deep_fields(1))
# past the maximum (near 7.7e4 and 1.2e5 V/nm), below the guard
@example((make_atom(1, 1086.0), [9e4]))
@example((make_atom(1, 1498.0), [1.5e5]))
def test_jwkb_inversion_of_the_rate_is_the_identity(case):
    atom, (F,) = case
    rate = _jwkb(MotiveVariant.TRANSFORMED_PARABOLIC)
    if _finite_or_refused(lambda: rate(atom, F)) is None:
        return  # no barrier at F: no rate to invert
    if not _jwkb_peaks_below_guard(atom) or _jwkb_slope(atom, F) > 0.0:
        _check_round_trip(rate, "jwkb-parabolic", atom, F)
        return
    # past the JWKB rate's maximum the rate falls: the inverter answers
    # with the field below the maximum that gives the same rate
    target = rate(atom, F).K_e
    answer = invert_rate(target, atom, method="jwkb-parabolic")
    _, tol = _stopping_tolerance(rate, atom, answer.F)
    assert answer.F < F and _jwkb_slope(atom, answer.F) > 0.0
    assert abs(rate(atom, answer.F).log_K_e - math.log(target)) <= tol


@CONTRACT
@given(atom_and_deep_fields(2))
def test_log_rate_does_not_fall_with_field_below_the_guard(case):
    atom, (f_lo, f_hi) = case
    rates = {"ll": rate_ll,
             "jwkb-parabolic": _jwkb(MotiveVariant.TRANSFORMED_PARABOLIC),
             "jwkb-cartesian": _jwkb(MotiveVariant.TRANSFORMED_CARTESIAN)}
    for name, rate in rates.items():
        lo = _finite_or_refused(lambda: rate(atom, f_lo))
        hi = _finite_or_refused(lambda: rate(atom, f_hi))
        if lo is None or hi is None or lo.log_K_e <= hi.log_K_e:
            continue
        # the known falls: past the closed form's maximum, and the JWKB
        # rates of an atom whose I is far above Z^2 I_H
        assert f_hi > _ll_peak(atom) if name == "ll" else _jwkb_peaks_below_guard(atom)


_HYDROGEN = make_atom(1)
# each scalar entry point as a function of one field, target, bracket end,
# quantity, coordinate or escape probability
_NUMBER_CALLS = {
    "rate_ll": lambda x: rate_ll(_HYDROGEN, x),
    "rate_gaussian_check": rate_gaussian_check,
    "effective_escape_probability": lambda x: effective_escape_probability(_HYDROGEN, x),
    "barrier_term": lambda x: barrier_term(_HYDROGEN, x),
    "barrier_integral_main_part": lambda x: barrier_integral_main_part(_HYDROGEN, x, 1.0),
    "barrier_integral_log_part": lambda x: barrier_integral_log_part(_HYDROGEN, x, 1.0),
    "barrier_integral_main_part-eta0": lambda x: barrier_integral_main_part(_HYDROGEN, 1.0, x),
    "barrier_integral_log_part-eta0": lambda x: barrier_integral_log_part(_HYDROGEN, 1.0, x),
    "barrier_term_from_parts-eta0": lambda x: barrier_term_from_parts(_HYDROGEN, 1.0, x),
    "rate_z_form": lambda x: rate_z_form(1.0, x),
    **{f"MotiveModel-{v.value}": lambda x, v=v: MotiveModel(v, _HYDROGEN, x)
       for v in MotiveVariant},
    "invert_rate-target": lambda x: invert_rate(x, _HYDROGEN),
    **{f"invert_rate-{m}-top":
       lambda x, m=m: invert_rate(1e9, _HYDROGEN, method=m, bracket=(1.0, x))
       for m in ("ll", "jwkb-parabolic", "jwkb-cartesian", "jwkb-naive")},
    "invert_rate-bottom": lambda x: invert_rate(1e9, _HYDROGEN, bracket=(x, 50.0)),
    "Quantity": Quantity,
    "Quantity-mul": lambda x: Quantity(2.0) * x,
    "Quantity-truediv": lambda x: Quantity(2.0) / x,
    "Quantity-rtruediv": lambda x: x / Quantity(2.0),
    "Quantity-add": lambda x: Quantity(2.0) + x,
    "Quantity-sub": lambda x: Quantity(2.0) - x,
    # an exponent is an int or a Fraction: the float infinity stands in as
    # the power of the value
    "Quantity-pow": lambda x: Quantity(2.0) ** x if isinstance(x, int) else Quantity(2.0**x),
    "to_canonical": lambda x: to_canonical(x, FIELD, UnitSystem.EVNM),
    "from_canonical": lambda x: from_canonical(x, FIELD, UnitSystem.EVNM),
    "gaussian_field_to_isq": gaussian_field_to_isq,
    "motive": lambda x: motive(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, _HYDROGEN, 6.0), x),
    "attempt_frequency_rate": lambda x: attempt_frequency_rate(_HYDROGEN, x),
    "parabolic_to_cartesian": lambda x: parabolic_to_cartesian(x, 1.0, 0.0),
    "parabolic_to_cartesian-phi": lambda x: parabolic_to_cartesian(1.0, 1.0, x),
    "cartesian_axis_to_parabolic": cartesian_axis_to_parabolic,
}
# each array entry point as a function of one field, which it refuses
# nowhere
_ARRAY_CALLS = {
    "rate_ll_array": lambda x: rate_ll_array(_HYDROGEN, [x]),
    "rate_jwkb_array": lambda x: rate_jwkb_array(
        MotiveVariant.TRANSFORMED_PARABOLIC, _HYDROGEN, [x]
    ),
}


# the (call form, sign) pairs that answer an infinity with a value; every
# other pair refuses it
_VALUE_OF_AN_INFINITY = {("Quantity-pow", -1), ("from_canonical", 1), ("from_canonical", -1),
                         ("parabolic_to_cartesian", 1), ("cartesian_axis_to_parabolic", 1)}


def _outcome(call, x):
    """The refusal (class and text) or the value of call(x)."""
    try:
        return "value", repr(call(x))
    except EsfiError as exc:
        return type(exc), str(exc)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("name", list(_NUMBER_CALLS) + list(_ARRAY_CALLS))
def test_int_beyond_the_float_range_is_refused_as_an_infinity(name, sign):
    # math.isfinite and float() raise OverflowError on such an int
    if name in _ARRAY_CALLS:
        call = _ARRAY_CALLS[name]
        for got, expected in zip(call(sign * 10**400), call(sign * math.inf)):
            assert got.tobytes() == expected.tobytes()
        return
    call = _NUMBER_CALLS[name]
    outcome = _outcome(call, sign * 10**400)
    assert outcome == _outcome(call, sign * math.inf)
    if (name, sign) in _VALUE_OF_AN_INFINITY:
        assert outcome[0] == "value"
    else:
        assert outcome[0] != "value"
        assert ("-inf" if sign < 0 else "inf") in outcome[1]


@pytest.mark.parametrize("name", ["rate_z_form", "invert_rate-target", "invert_rate-ll-top",
                                  "invert_rate-bottom"])
def test_a_number_given_as_a_string_is_refused(name):
    # float() takes "12"; these entry points refuse it as math.isfinite does
    with pytest.raises(TypeError, match="must be real number, not str"):
        _NUMBER_CALLS[name]("12")


@pytest.mark.parametrize("call, refusal, text", [
    # Fraction() cannot hold a float infinity or nan exponent
    (lambda: Quantity(2.0) ** math.inf, NonFiniteValue, "exponent must be finite, got inf"),
    (lambda: Quantity(2.0) ** -math.inf, NonFiniteValue, "exponent must be finite, got -inf"),
    (lambda: Quantity(2.0) ** math.nan, NonFiniteValue, "exponent must be finite, got nan"),
    # math.cos refuses an infinity raw and answers nan for nan
    (lambda: parabolic_to_cartesian(1.0, 1.0, math.inf), NonFiniteValue,
     "phi must be finite, got inf"),
    (lambda: parabolic_to_cartesian(1.0, 1.0, math.nan), NonFiniteValue,
     "phi must be finite, got nan"),
    # numpy orders complex numbers, so 1j would pass c > 0
    (lambda: motive(MotiveModel(MotiveVariant.TRANSFORMED_PARABOLIC, _HYDROGEN, 6.0), 1j),
     NonPositiveCoordinate, "got 1j"),
    (lambda: motive(MotiveModel(MotiveVariant.NAIVE_1D, _HYDROGEN, 6.0), [2.0, 3.0 + 0j]),
     NonPositiveCoordinate, "got [2.0, (3+0j)]"),
], ids=["pow-inf", "pow-minus-inf", "pow-nan", "phi-inf", "phi-nan", "motive-1j",
        "motive-complex-list"])
def test_a_non_finite_or_complex_input_is_refused_by_name(call, refusal, text):
    with pytest.raises(refusal) as info:
        call()
    assert text in str(info.value)
