"""Closed-form rate constants: reference values, decompositions, scaling."""

import math
import random
import warnings

import numpy as np
import pytest

from esfi import errors, rates
from esfi.hydrogenic import make_atom
from esfi.rates import (
    EXTENDED,
    barrier_integral_log_part,
    barrier_integral_main_part,
    barrier_term,
    barrier_term_from_parts,
    effective_escape_probability,
    geometric_prefactor,
    guard_field,
    rate_gaussian_check,
    rate_ll,
    rate_ll_array,
    rate_z_form,
    suppression_field_naive,
)
from esfi.units import REGISTRY, UnitSystem

AU_FIELD = REGISTRY.au_field
AU_TIME = REGISTRY.au_time


def test_atomic_units_hydrogen_value():
    # (4/F) exp(-2/(3F)) at F = 0.05: high-precision evaluation
    r = rate_z_form(1, 0.05, unit_system=UnitSystem.AU, allow_shallow=True)
    assert r.K_e == pytest.approx(1.2956774338501e-4, rel=1e-12)
    assert r.pre_exponential == pytest.approx(80.0, rel=1e-14)
    assert r.regime == "extrapolated"


def test_z_form_refuses_gaussian_units():
    # the Gaussian system converts charges and fields, not rates
    with pytest.raises(errors.UnsupportedGaussianDimension, match="charge and field"):
        rate_z_form(1, 1e-3, unit_system=UnitSystem.GAUSSIAN)


# fields from the least subnormal to near the largest double
_PREMISE_FIELDS = [5e-324, 1e-320, 1e-310, 2.2250738585072014e-308, 1e-200, 1e-6,
                   0.3, 1.0, 12.0, 16.07, 1e6, 1e200, 1e308]


def _as_float_float64_and_int(values):
    for v in values:
        yield v
        yield np.float64(v)
        if v >= 1.0:
            yield int(v)


@pytest.mark.parametrize("I", [1e-300, 1.36e-4, 13.605692534724878, 3000.0, 1e150])
def test_floats_meet_long_doubles_exactly(I):
    # the ll evaluator divides float fields into long-double factors
    # computed from a float I; numpy converts a float, a float64 or an int
    # that meets a long double exactly, so each result is the long
    # double's own
    ld = np.longdouble
    for c in rates._coefficients(EXTENDED[UnitSystem.EVNM], ld(I)):
        for F in _as_float_float64_and_int(_PREMISE_FIELDS):
            assert type(c / F) is ld, type(F)
            assert c / F == c / ld(F), (F, type(F))
    for I_any in _as_float_float64_and_int([I]):
        for power in (rates._THREE_HALVES, rates._FIVE_HALVES):
            assert type(I_any**power) is ld
            assert I_any**power == ld(I_any) ** power, (I_any, type(I_any))


def test_cached_ll_factors_equal_fresh_ones():
    # the ll evaluator keeps an atom's factors by its I; a cached pair,
    # also one stored for an equal I of another type, is the pair
    # computed afresh from I as a long double
    ld = np.longdouble
    for Z, I in [(1.0, None), (2.0, None), (np.float64(2.5), None), (1.0, 20.0), (0.3, 3000.0)]:
        atom = make_atom(Z, I)
        rates._ll_log_rate(atom)  # stores the pair
        fresh = rates._coefficients(EXTENDED[UnitSystem.EVNM], ld(atom.I))[:2]
        for I_any in (atom.I, float(atom.I), np.float64(atom.I)):
            cached = rates._ll_factors(I_any)
            assert [type(c) for c in cached] == [ld, ld]
            assert cached == fresh, (Z, I, type(I_any))


def test_canonical_hydrogen_value_at_25_v_per_nm():
    # frozen from an arbitrary-precision evaluation of the closed form
    r = rate_ll(make_atom(1), 25.0, allow_shallow=True)
    assert r.K_e == pytest.approx(3.7702424525966e12, rel=1e-10)
    assert r.exponent == pytest.approx(13.712550738326, rel=1e-12)


def test_rate_decreases_to_zero_at_low_field():
    atom = make_atom(1)
    fields = np.geomspace(0.5, 0.99 * guard_field(atom), 1000)
    rates = [rate_ll(atom, float(F)).K_e for F in fields]
    assert all(k2 > k1 for k1, k2 in zip(rates, rates[1:]))
    assert rates[0] < 1e-250


def test_guard_rejects_high_field():
    atom = make_atom(1)
    guard = guard_field(atom)
    assert guard == pytest.approx(16.0693953965, rel=1e-10)
    assert suppression_field_naive(atom) == pytest.approx(2 * guard, rel=1e-15)
    with pytest.raises(errors.ShallowTunnellingRegime):
        rate_ll(atom, guard * 1.000001)
    assert rate_ll(atom, guard * 0.999999).regime == "deep"


def test_non_positive_field_rejected():
    atom = make_atom(1)
    for bad in (0.0, -5.0, float("nan")):
        with pytest.raises(errors.NonPositiveField):
            rate_ll(atom, bad)


def test_z_form_matches_ll_route():
    for Z in (1.0, 2.0, 3.0):
        atom = make_atom(Z)
        for F in np.geomspace(0.05, 0.9, 20) * guard_field(atom):
            a = rate_z_form(Z, float(F))
            b = rate_ll(atom, float(F))
            assert a.K_e == pytest.approx(b.K_e, rel=5e-13)
            assert a.exponent == pytest.approx(b.exponent, rel=5e-14)


def test_z_scaling_of_pre_exponential_and_exponent():
    F = 10.0
    base = rate_z_form(1, F)
    for Z in (2.0, 3.0):
        r = rate_z_form(Z, F)
        assert r.pre_exponential / base.pre_exponential == pytest.approx(Z**5, rel=1e-12)
        assert r.exponent / base.exponent == pytest.approx(Z**3, rel=1e-12)


def test_au_reduction_reproduces_hydrogen_formula():
    for F in np.geomspace(1e-4, 3e-2, 20):
        r = rate_z_form(1, float(F), unit_system=UnitSystem.AU, allow_shallow=True)
        Fl = np.longdouble(F)
        reference_log = float(np.log(4 / Fl) - 2 / (3 * Fl))
        assert abs(math.expm1(r.log_K_e - reference_log)) < 1e-12


def test_unit_route_consistency_au_vs_canonical():
    # computing in atomic units then converting equals the canonical route
    for Z in (1.0, 1.5, 2.0):
        for F_au in (1e-3, 5e-3, 1e-2):
            k_au = rate_z_form(Z, F_au, unit_system=UnitSystem.AU).K_e / AU_TIME
            k_ev = rate_z_form(Z, F_au * AU_FIELD).K_e
            assert k_au == pytest.approx(k_ev, rel=1e-10)


def test_gaussian_form_equivalence():
    atom = make_atom(1)
    for F in np.geomspace(1e-4, 3e-2, 20) * AU_FIELD:
        g = rate_gaussian_check(float(F))
        l = rate_ll(atom, float(F))
        assert abs(math.expm1(g.log_K_e - l.log_K_e)) < 1e-10


def test_gaussian_form_coefficients():
    # exponent coefficient b I_H^(3/2); pre-exponential coefficient
    # C_FI I_H^(5/2)
    r = REGISTRY
    F = 7.0
    g = rate_gaussian_check(F)
    assert g.exponent * F == pytest.approx(
        r.b.value * r.I_H.value**1.5, rel=1e-12
    )
    assert g.pre_exponential * F == pytest.approx(
        r.C_FI.value * r.I_H.value**2.5, rel=1e-12
    )


def test_escape_probability_is_rate_per_attempt():
    rng = random.Random(3)
    for _ in range(20):
        Z = rng.uniform(0.5, 3.0)
        atom = make_atom(Z)
        F = rng.uniform(0.1, 0.9) * guard_field(atom)
        r = rate_ll(atom, F)
        assert r.K_e / atom.nu_Z == pytest.approx(r.D_eff, rel=1e-12)
        assert effective_escape_probability(atom, F) == r.D_eff


def test_attempt_frequency_constant_value():
    assert "%.6e" % REGISTRY.pi_hbar_C_FI.value == "%.6e" % 257.5185


def test_rate_equals_angular_frequency_times_barrier_term():
    rng = random.Random(11)
    for _ in range(20):
        Z = rng.uniform(0.5, 3.0)
        atom = make_atom(Z)
        F = rng.uniform(0.1, 0.9) * guard_field(atom)
        r = rate_ll(atom, F)
        assert atom.omega_Z * r.T == pytest.approx(r.K_e, rel=1e-12)
        assert barrier_term(atom, F) == r.T
        assert r.D_eff == pytest.approx(geometric_prefactor() * r.T, rel=1e-12)


def test_geometric_prefactor_is_two_pi():
    assert geometric_prefactor() == 2.0 * math.pi


def test_ionization_power_law_in_pre_exponential():
    F = 1.0
    I_grid = np.geomspace(5.0, 60.0, 12)
    logs = [
        math.log(rate_ll(make_atom(1, I_override=float(I)), F).pre_exponential)
        for I in I_grid
    ]
    slope = np.polyfit(np.log(I_grid), logs, 1)[0]
    assert slope == pytest.approx(2.5, abs=1e-10)


def test_barrier_integral_parts_eta0_cancellation():
    rng = random.Random(5)
    for _ in range(10):
        Z = rng.uniform(0.5, 3.0)
        atom = make_atom(Z)
        F = rng.uniform(0.2, 0.8) * guard_field(atom)
        with warnings.catch_warnings():
            # the soft window does not affect the algebraic cancellation
            warnings.simplefilter("ignore", errors.Eta0OutsideWindow)
            t_near = barrier_term_from_parts(atom, F, 10.0 * atom.a_Z)
            t_far = barrier_term_from_parts(atom, F, 30.0 * atom.a_Z)
        assert t_near == pytest.approx(t_far, rel=1e-12)
        assert t_near == pytest.approx(barrier_term(atom, F), rel=1e-12)


def test_sigma_sqrt_i_identity():
    rng = random.Random(13)
    for _ in range(10):
        atom = make_atom(rng.uniform(0.5, 10.0))
        assert REGISTRY.sigma.value * math.sqrt(atom.I) == pytest.approx(
            2.0 * atom.I / atom.B, rel=1e-12
        )


def test_barrier_integral_main_part_au_leading_term():
    # at eta0 -> 0 the main part reduces to (2/3)/F_au for hydrogen
    atom = make_atom(1)
    F_au = 0.01
    F = F_au * AU_FIELD
    eta0 = 10.0 * atom.a_Z
    with pytest.warns(errors.Eta0OutsideWindow):
        # tiny eta0 deliberately violates the soft window
        small = barrier_integral_main_part(atom, F, 1e-9)
    assert small == pytest.approx((2.0 / 3.0) / F_au, rel=1e-6)
    leading = barrier_integral_main_part(atom, F, eta0) + (
        REGISTRY.sigma.value * math.sqrt(atom.I) * eta0
    )
    assert leading == pytest.approx((2.0 / 3.0) / F_au, rel=1e-12)


def test_eta0_window_warning_boundaries():
    atom = make_atom(1)
    F = 5.0

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        barrier_integral_main_part(atom, F, 10.0 * atom.a_Z)
        barrier_integral_log_part(atom, F, 10.0 * atom.a_Z)
    with pytest.warns(errors.Eta0OutsideWindow):
        barrier_integral_main_part(atom, F, atom.a_Z)
    with pytest.warns(errors.Eta0OutsideWindow):
        outer = 2.0 * atom.I / F
        barrier_integral_log_part(atom, F, 0.5 * outer)


@pytest.mark.parametrize("part", [
    barrier_integral_main_part, barrier_integral_log_part, barrier_term_from_parts
])
def test_eta0_outside_the_window_warns_once_at_the_caller(part):
    # barrier_term_from_parts sums both parts but checks eta0 only once
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        part(make_atom(1), 12.0, 1e-4)
    assert [(w.category, w.filename) for w in caught] == [(errors.Eta0OutsideWindow, __file__)]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("part", [
    barrier_integral_main_part, barrier_integral_log_part, barrier_term_from_parts
])
@pytest.mark.parametrize("eta0", [0.0, -1.0, math.nan, math.inf])
def test_matching_coordinate_must_be_positive_and_finite(part, eta0):
    # refused before the soft window would warn
    atom = make_atom(1)
    with pytest.raises(errors.NonPositiveCoordinate, match="eta0"):
        part(atom, 5.0, eta0)


def test_rate_result_serialization_round_trip():
    import json

    r = rate_ll(make_atom(1), 10.0)
    loaded = json.loads(json.dumps(r.as_dict()))
    assert loaded == r.as_dict()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def _field_of_log_rate(atom, log_K):
    """The field [V/nm] where ln K_e = log_K, deep below the guard, by the
    fixed point F = b I^(3/2) / (ln(C_FI I^(5/2)) - ln F - log_K)."""
    exponent_coeff, pre_coeff = (float(c) for c in rates._ll_factors(atom.I))
    F = exponent_coeff / -log_K
    for _ in range(60):
        F = exponent_coeff / (math.log(pre_coeff) - math.log(F) - log_K)
    return F


@pytest.mark.parametrize("Z, I", [(1.0, None), (2.5, None), (1.0, 30.0), (1.0, 4000.0)])
def test_lean_sweep_kernel_keeps_the_bits_across_the_skipped_exp(Z, I):
    # exp is skipped where ln K_e is below about -747, K_e being a zero in
    # double there; a dense grid where ln K_e crosses -749...-743 holds
    # skipped fields, fields whose K_e rounds to a zero through the cast,
    # and nonzero subnormals (ln K_e > -744.44), each bit for bit the full
    # closed form, as are fields that are not positive or not finite, the
    # least subnormal field and 1e300 V/nm, whose K_e is small through its
    # prefactor alone
    atom = make_atom(Z, I)
    F = np.geomspace(_field_of_log_rate(atom, -749.0), _field_of_log_rate(atom, -743.0), 4001)
    specials = [0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, 5e-324, 1e300]
    F = np.concatenate([F, specials])
    r = rate_ll_array(atom, F)
    K_e, exponent = rates._ll_rate_and_exponent(atom, F)
    assert _bits(K_e).tolist() == _bits(r.K_e).tolist()
    assert _bits(exponent).tolist() == _bits(r.exponent).tolist()
    grid = r.K_e[: -len(specials)]
    assert (grid[:1000] == 0).all() and (grid[-1000:] > 0).all()
    assert ((grid > 0) & (grid < 2.0**-1022)).sum() > 500


def _underflow_grid(atom, n):
    """n fields whose exponent runs from 600 to 800 (K_e normal, then
    subnormal, then zero in double), with a few fields past the guard."""
    coeff = rate_ll(atom, 1.0, allow_shallow=True).exponent
    past = guard_field(atom) * np.array([1.0, 2.0, 3.0])
    return np.concatenate([coeff / np.linspace(600.0, 800.0, n - past.size), past])


@pytest.mark.parametrize("n", [16, 65536, 65537])
def test_lean_sweep_kernel_keeps_the_bits_of_rate_ll_array(n):
    # skipping the exponential changes no bit of K_e, across the block
    # edge of 65 536 fields
    atom = make_atom(1.0)
    F = _underflow_grid(atom, n)
    r = rate_ll_array(atom, F)
    K_e, exponent = rates._ll_rate_and_exponent(atom, F)
    assert _bits(K_e).tolist() == _bits(r.K_e).tolist()
    assert _bits(exponent).tolist() == _bits(r.exponent).tolist()
    K = r.K_e[F < guard_field(atom)]
    assert (K == 0).any() and ((K > 0) & (K < 2.0**-1022)).any() and (K >= 2.0**-1022).any()


@pytest.mark.parametrize("allow_shallow", [False, True])
@pytest.mark.parametrize("Z, I", [(1.0, None), (2.5, 30.0), (0.37, None)])
def test_sweep_column_refuses_and_words_as_rate_ll(Z, I, allow_shallow):
    # a cell is nan exactly where rate_ll raises, and its note reads as
    # that error, at the edges of the rule: not positive or not finite,
    # the least subnormal, and the guard with the floats either side
    atom = make_atom(Z, I)
    guard = guard_field(atom)
    F = np.array([-1.0, -0.0, 0.0, np.nan, np.inf, 5e-324, math.nextafter(guard, 0.0), guard,
                  math.nextafter(guard, math.inf), 0.5 * guard, 2.0 * guard])
    K_e, exponent, texts, template = rates._ll_column(atom, F, allow_shallow)
    for i, f in enumerate(F.tolist()):
        try:
            r = rate_ll(atom, f, allow_shallow=allow_shallow)
        except errors.EsfiError as exc:
            assert math.isnan(K_e[i]) and math.isnan(exponent[i]), f
            assert (texts.get(i) or template.format(f)) == str(exc), f
            continue
        assert (_bits(K_e[i]), _bits(exponent[i])) == (_bits(r.K_e), _bits(r.exponent)), f
        assert i not in texts, f


@pytest.mark.parametrize("Z, I", [(1.0, None), (2.5, None), (0.357, None), (1.0, 30.0)])
def test_lean_sweep_kernel_is_rate_ll_bit_for_bit(Z, I):
    atom = make_atom(Z, I)
    F = np.concatenate([_underflow_grid(atom, 40), [5e-324, 1e-200, 1e300]])
    K_e, exponent = rates._ll_rate_and_exponent(atom, F)
    for i, f in enumerate(F.tolist()):
        s = rate_ll(atom, f, allow_shallow=True)
        assert (_bits(K_e[i]), _bits(exponent[i])) == (_bits(s.K_e), _bits(s.exponent)), f
