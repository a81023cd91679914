"""Motive models, turning points, barrier-strength quadrature, JWKB rates."""

import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from helpers import (
    composite_barrier_strength,
    exact_barrier,
    naive_roots_closed_form,
    naive_strength_forbes_deane,
)

from esfi import barrier, errors
from esfi.barrier import (
    _GAUSS_RULES,
    _SCALAR,
    MotiveModel,
    MotiveVariant,
    _converged,
    _gauss_legendre,
    _jwkb_log_rate,
    _sine_mapped_rules,
    _strength_pair,
    attempt_frequency_rate,
    barrier_strength,
    motive,
    motive_peak,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
    turning_points,
)
from esfi.hydrogenic import make_atom
from esfi.invert import invert_rate
from esfi.rates import guard_field, rate_ll, suppression_field_naive
from esfi.units import REGISTRY

AU_FIELD = REGISTRY.au_field
A0 = REGISTRY.au_length
HARTREE = REGISTRY.hartree

PARABOLIC = MotiveVariant.TRANSFORMED_PARABOLIC
CARTESIAN = MotiveVariant.TRANSFORMED_CARTESIAN
NAIVE = MotiveVariant.NAIVE_1D


def au_model(variant, F_au, Z=1.0):
    return MotiveModel(variant, make_atom(Z), F_au * AU_FIELD)


def test_parabolic_motive_matches_atomic_units_form():
    # M(eta) = 1/8 - F eta/8 - 1/(4 eta) - 1/(8 eta^2) in atomic units
    F_au = 0.02
    model = au_model(PARABOLIC, F_au)
    for eta_au in (0.5, 1.0, 2.0, 5.0, 20.0):
        expected_au = 0.125 - F_au * eta_au / 8 - 1 / (4 * eta_au) - 1 / (8 * eta_au**2)
        value = motive(model, eta_au * A0) / HARTREE
        assert value == pytest.approx(expected_au, rel=1e-12, abs=1e-15)


def test_cartesian_minus_naive_correction_terms():
    # the transformed Cartesian motive differs from the naive one by
    # +B/(2z) - 1/(4 sigma^2 z^2)
    atom = make_atom(1.3)
    F = 2.0
    sigma2 = REGISTRY.sigma.value**2
    for z in (0.05, 0.1, 0.5, 2.0):
        diff = motive(MotiveModel(CARTESIAN, atom, F), z) - motive(
            MotiveModel(NAIVE, atom, F), z
        )
        assert diff == pytest.approx(
            atom.B / (2 * z) - 1.0 / (4.0 * sigma2 * z * z), rel=1e-12
        )


def test_naive_peak_closed_form():
    atom = make_atom(1)
    F = 5.0
    e = REGISTRY.e.value
    z_peak, peak = motive_peak(MotiveModel(NAIVE, atom, F))
    assert z_peak == pytest.approx(math.sqrt(atom.B / (e * F)), rel=1e-12)
    assert peak == pytest.approx(atom.I - 2.0 * math.sqrt(e * F * atom.B), rel=1e-12)


def test_motive_rejects_non_positive_coordinate():
    model = au_model(PARABOLIC, 0.01)
    for coord in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(errors.NonPositiveCoordinate):
            motive(model, coord)
        with pytest.raises(errors.NonPositiveCoordinate):
            motive(model, np.array([1.0, coord]))
    with pytest.raises(errors.NonPositiveField):
        MotiveModel(PARABOLIC, make_atom(1), -2.0)


def test_motive_reads_each_int_of_a_list_as_a_number():
    # a list holding an int beyond the float range becomes an object array,
    # read entry by entry: 10**400 is the float infinity, not an OverflowError
    with pytest.raises(errors.NonPositiveCoordinate):
        motive(au_model(NAIVE, 0.01), [1.0, 10**400])


@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_motive_takes_coordinates_as_a_list_or_tuple(variant):
    model = au_model(variant, 0.01)
    coords = [0.1, 1.0, 7.5]
    expected = motive(model, np.array(coords))
    for given in (coords, tuple(coords)):
        assert motive(model, given).tolist() == expected.tolist()
    assert type(motive(model, 1.0)) is float
    assert motive(model, 1.0) == expected[1]


@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_outer_zero_beyond_the_float_range_is_a_bracketing_failure(variant):
    # e F is normal, but the outer zero, about I/(e F), overflows a double
    model = MotiveModel(variant, make_atom(1.0), 1e-308)
    with pytest.raises(errors.BracketingFailure, match="lies beyond the float range"):
        rate_jwkb(model)


def _strength_at_scale(coeffs):
    """G of :func:`exact_barrier` for coefficients whose zeros lie beyond
    what mpmath's polyroots resolves at their own scale: with c = (A0/A1) y,
    M/A0 has the coefficients (1, 1, A1 A2/A0^2, A3 A1^2/A0^3), and G
    scales by (A0/A1) A0^(1/2)."""
    with mpmath.workdps(30):
        A0, A1, A2, A3 = map(mpmath.mpf, coeffs)
        _, G = exact_barrier((1, 1, A1 * A2 / A0**2, A3 * A1**2 / A0**3))
        return float(G * A0 / A1 * mpmath.sqrt(A0))


@pytest.mark.parametrize("variant, Z, I, F", [
    (NAIVE, 3.666546872716423e+129, 2.0717069298164032e-48, 5.363371100047738e-227),
    (PARABOLIC, 2.3007580669840723e+115, 1.8321833749598286e-42, 3.4653423013508673e-217),
    (CARTESIAN, 2.3007580669840723e+115, 1.8321833749598286e-42, 3.4653423013508673e-217),
], ids=["naive", "parabolic", "cartesian"])
def test_inner_zero_whose_square_overflows_is_resolved(variant, Z, I, F):
    # inner zeros near 2.7e177 nm (naive) and 1.8e157 nm (eta), their
    # squares past the float range, at 0.26 and 7e-18 of the suppression field
    atom = make_atom(Z, I)
    G = rate_jwkb(MotiveModel(variant, atom, F)).G
    assert G == pytest.approx(_strength_at_scale(barrier._coefficients(variant, atom, F)),
                              rel=1e-13)
    assert rate_jwkb_array(variant, atom, [F]).G[0] == pytest.approx(G, rel=1e-13)


@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN], ids=["parabolic", "cartesian"])
@pytest.mark.parametrize("Z, I, F", [
    # A2 s underflows to zero, and kappa = 2 A3/(A2 s) lies past the float
    # range anyway: the peak lies near 4.77e68 nm (eta), at 0.18 f_bs
    (1.0181284273634001e-289, 1.6043478811000583e-138, 1.4069651947950288e-207),
    # kappa^2 overflows, and 2 A3/A1 too, A1 being subnormal: the peak lies
    # near 5.43e105 nm (eta), at 2.8e-5 f_bs
    (5.272001028862301e-242, 4.194732307311614e-210, 9.49545e-319),
], ids=["A2s-underflows", "A1-subnormal"])
def test_peak_whose_kappa_leaves_the_float_range_is_the_cube_root(variant, Z, I, F):
    # there the peak is (2 A3/A1)^(1/3) to rounding
    atom = make_atom(Z, I)
    k = barrier._coefficients(variant, atom, F)
    peak = motive_peak(MotiveModel(variant, atom, F))[0]
    with np.errstate(all="ignore"):  # as the array solver calls it
        array_peak = barrier._peak(barrier._coefficients(variant, atom, np.array([F])),
                                   barrier._ARRAY)
    with mpmath.workdps(40):  # the cubic's root, in units of (2 A3/A1)^(1/3)
        _, A1, A2, A3 = (mpmath.mpf(a) for a in k)
        unit = mpmath.cbrt(2 * A3 / A1)
        root = float(unit * mpmath.findroot(lambda t: t**3 - A2 * unit / (2 * A3) * t - 1, 1))
    for value in (peak, array_peak[0]):
        assert abs(value - root) <= 5 * math.ulp(root)
    G = rate_jwkb(MotiveModel(variant, atom, F)).G
    assert G == pytest.approx(_strength_at_scale(k), rel=1e-13)
    assert rate_jwkb_array(variant, atom, [F]).G[0] == pytest.approx(G, rel=1e-13)


def test_naive_inner_zero_whose_square_underflows_is_the_quadratic_root():
    # the inner zero, about 4e-226 nm, squared underflows to zero, where
    # (g + (g^2)^(1/2))/2 is half the root
    atom = make_atom(3.339947508190545e-213, 11980137500049.91)
    F = 2.3913020859743882e+219
    with mpmath.workdps(30):
        I, B, eF = mpmath.mpf(atom.I), mpmath.mpf(atom.B), REGISTRY.e.value * mpmath.mpf(F)
        exact = float(2 * B / (I + mpmath.sqrt(I * I - 4 * eF * B)))
    assert turning_points(MotiveModel(NAIVE, atom, F))[0] == pytest.approx(exact, rel=1e-13, abs=0)
    assert rate_jwkb_array(NAIVE, atom, [F]).coord_in[0] == pytest.approx(exact, rel=1e-13, abs=0)


def test_naive_turning_points_match_quadratic_oracle():
    model = au_model(NAIVE, 0.03)
    z_in, z_out = turning_points(model)
    assert z_in / A0 == pytest.approx(2.3240812076, rel=1e-9)
    assert z_out / A0 == pytest.approx(14.3425854591, rel=1e-9)
    oracle_in, oracle_out = naive_roots_closed_form(model.atom, model.F)
    assert z_in == pytest.approx(oracle_in, rel=1e-12)
    assert z_out == pytest.approx(oracle_out, rel=1e-12)


def test_naive_turning_points_random_fields_vs_oracle():
    rng = np.random.default_rng(21)
    for _ in range(20):
        atom = make_atom(rng.uniform(0.5, 3.0))
        F = rng.uniform(0.05, 0.95) * suppression_field_naive(atom)
        z_in, z_out = turning_points(MotiveModel(NAIVE, atom, F))
        oracle_in, oracle_out = naive_roots_closed_form(atom, F)
        assert z_in == pytest.approx(oracle_in, rel=1e-12)
        assert z_out == pytest.approx(oracle_out, rel=1e-12)


def test_naive_suppression_detection():
    atom = make_atom(1)
    assert suppression_field_naive(atom) / AU_FIELD == pytest.approx(1 / 16, rel=1e-12)
    with pytest.raises(errors.BarrierSuppressed) as excinfo:
        turning_points(au_model(NAIVE, 1 / 16))
    assert excinfo.value.suppression_field == pytest.approx(AU_FIELD / 16, rel=1e-9)
    # just below suppression the two nearly merged roots are still resolved
    model = au_model(NAIVE, 0.0624)
    z_in, z_out = turning_points(model)
    oracle_in, oracle_out = naive_roots_closed_form(model.atom, model.F)
    assert z_in == pytest.approx(oracle_in, rel=1e-12)
    assert z_out == pytest.approx(oracle_out, rel=1e-12)


def test_transformed_suppression_exceeds_naive():
    atom = make_atom(1)
    f_naive = suppression_field_naive(atom)
    f_parabolic = suppression_field(atom, PARABOLIC)
    f_cartesian = suppression_field(atom, CARTESIAN)
    assert f_parabolic > f_naive
    assert f_parabolic == pytest.approx(f_cartesian, rel=1e-9)
    with pytest.raises(errors.BarrierSuppressed):
        turning_points(MotiveModel(PARABOLIC, atom, 1.01 * f_parabolic))


def test_root_residuals_are_tiny():
    rng = np.random.default_rng(4)
    for _ in range(15):
        atom = make_atom(rng.uniform(0.5, 3.0))
        F = rng.uniform(0.1, 0.9) * guard_field(atom)
        variant = [PARABOLIC, CARTESIAN, NAIVE][int(rng.integers(3))]
        model = MotiveModel(variant, atom, F)
        c_in, c_out = turning_points(model)
        assert c_in < c_out
        assert abs(motive(model, c_in)) < 1e-12 * atom.I
        assert abs(motive(model, c_out)) < 1e-12 * atom.I


def test_inner_zero_low_field_asymptote():
    # eta_in -> (B/2I)(1 + sqrt 2) as F -> 0; 2.41421... a_0 for hydrogen
    limit = (1.0 + math.sqrt(2.0)) * A0
    eta_1e3 = turning_points(au_model(PARABOLIC, 1e-3))[0]
    eta_1e4 = turning_points(au_model(PARABOLIC, 1e-4))[0]
    assert abs(eta_1e3 / limit - 1.0) < 1e-2
    assert abs(eta_1e4 / limit - 1.0) < 1e-3
    # and the approach is from above with a roughly linear field dependence
    assert eta_1e4 > limit
    assert eta_1e3 > eta_1e4


def test_barrier_strength_reference_values():
    # frozen from a 50-digit tanh-sinh evaluation of the same integral
    assert barrier_strength(au_model(PARABOLIC, 1e-3)) == pytest.approx(
        656.23448732208, rel=1e-12
    )
    assert barrier_strength(au_model(PARABOLIC, 1e-4)) == pytest.approx(
        6653.9372156145, rel=1e-12
    )


def test_barrier_strength_low_field_leading_behavior():
    # G F / (b I^(3/2)) -> 1 as F -> 0; about 0.9844 at F_au = 1e-3
    model = au_model(PARABOLIC, 1e-3)
    G = barrier_strength(model)
    leading = REGISTRY.b.value * model.atom.I**1.5 / model.F
    assert abs(G / leading - 1.0) < 0.05
    assert G / leading == pytest.approx(0.984351730983, rel=1e-10)


def test_parametrization_invariance_of_barrier_strength():
    rng = np.random.default_rng(17)
    for _ in range(10):
        atom = make_atom(rng.uniform(0.5, 3.0))
        F = rng.uniform(0.1, 0.9) * guard_field(atom)
        g_eta = barrier_strength(MotiveModel(PARABOLIC, atom, F))
        g_z = barrier_strength(MotiveModel(CARTESIAN, atom, F))
        assert abs(g_eta - g_z) < 1e-9


def test_adaptive_quadrature_against_composite_oracle():
    rng = np.random.default_rng(29)
    for _ in range(5):
        atom = make_atom(rng.uniform(0.5, 3.0))
        F = rng.uniform(0.1, 0.9) * guard_field(atom)
        variant = [PARABOLIC, CARTESIAN, NAIVE][int(rng.integers(3))]
        model = MotiveModel(variant, atom, F)
        assert abs(barrier_strength(model) - composite_barrier_strength(model)) < 1e-8



@pytest.mark.parametrize("n", [32, 64])
def test_gauss_legendre_rules_are_correctly_rounded(n):
    # each node and weight within half an ulp of the exact one, found by
    # Newton steps on P_n in 40-digit mpmath from the rule's own node
    x, w = _gauss_legendre(n)
    assert (np.diff(x) > 0.0).all()
    with mpmath.workdps(40):
        for node, weight in zip(x.tolist(), w.tolist()):
            t = mpmath.mpf(node)
            for _ in range(4):
                p, p_prev = mpmath.legendre(n, t), mpmath.legendre(n - 1, t)
                dp = n * (t * p - p_prev) / (t * t - 1)
                t -= p / dp
            assert abs(node - t) <= 0.5 * math.ulp(node)
            assert abs(weight - 2 / ((1 - t * t) * dp * dp)) <= 0.5 * math.ulp(weight)

def test_jwkb_prefactor_low_field_asymptote():
    # P_eff -> 2 pi (1 + sqrt 2) exp(-(1 + sqrt 2)) ~= 1.36
    limit = 2.0 * math.pi * (1.0 + math.sqrt(2.0)) * math.exp(-(1.0 + math.sqrt(2.0)))
    assert limit == pytest.approx(1.3566753226, rel=1e-9)
    sol = rate_jwkb(au_model(PARABOLIC, 1e-4))
    assert sol.P_eff == pytest.approx(limit, rel=5e-3)
    assert sol.P_eff == pytest.approx(2.0 * math.pi * sol.P_jwkb, rel=1e-15)


def test_jwkb_parabolic_and_cartesian_agree():
    atom = make_atom(1)
    for F_au in (1e-3, 5e-3, 2e-2):
        p = rate_jwkb(au_model(PARABOLIC, F_au))
        c = rate_jwkb(au_model(CARTESIAN, F_au))
        assert c.log_K_e == pytest.approx(p.log_K_e, abs=1e-9)
        assert c.coord_in == pytest.approx(p.coord_in / 2.0, rel=1e-12)


@pytest.mark.parametrize("atom", [make_atom(1), make_atom(2.5), make_atom(0.357),
                                  make_atom(1, 30.0), make_atom(1, 0.5)],
                         ids=["H", "Z=2.5", "Z=0.357", "I=30", "I=0.5"])
def test_parabolic_and_cartesian_agree_bit_for_bit_just_below_suppression(atom):
    # M_par(2 z) = M_cart(z)/4 exactly, so both shapes must call the same
    # fields suppressed; 4 000 fields in steps of 1e-15 of f_bs, down from it
    F = suppression_field(atom, CARTESIAN) * (1.0 - 1e-15 * np.arange(4000))
    p, c = rate_jwkb_array(PARABOLIC, atom, F), rate_jwkb_array(CARTESIAN, atom, F)
    assert not np.isnan(c.G).all()
    for name in ("G", "K_e", "log_K_e"):
        assert np.array_equal(getattr(p, name), getattr(c, name), equal_nan=True), name
    assert np.array_equal(p.coord_in, 2.0 * c.coord_in, equal_nan=True)
    for f in F[::20].tolist():
        try:
            sp = rate_jwkb(MotiveModel(PARABOLIC, atom, f))
        except errors.EsfiError as exc:
            with pytest.raises(type(exc)):
                rate_jwkb(MotiveModel(CARTESIAN, atom, f))
            continue
        sc = rate_jwkb(MotiveModel(CARTESIAN, atom, f))
        assert (sp.G, sp.K_e, sp.log_K_e) == (sc.G, sc.K_e, sc.log_K_e), f
        assert sp.coord_in == 2.0 * sc.coord_in, f


def _identity_corpus():
    """14 atoms: Z log-uniform from 0.01 to 90, half of them with I
    overridden to between 1e-2 and 1e2 times Z^2 I_H."""
    rng = np.random.default_rng(1837)
    atoms = []
    for k in range(14):
        Z = float(np.exp(rng.uniform(math.log(0.01), math.log(90.0))))
        I = Z * Z * REGISTRY.I_H.value * 10.0 ** rng.uniform(-2.0, 2.0) if k % 2 else None
        atoms.append(make_atom(Z, I))
    return atoms


@pytest.mark.parametrize("atom", _identity_corpus())
def test_cartesian_is_parabolic_with_coordinates_halved(atom):
    # M_par(2 z) = M_cart(z)/4 and every scaling between the two
    # parametrizations is a power of two, so they give identical barrier
    # strengths and rates, on the scalar and the array path, and the same
    # inversions
    F = suppression_field(atom, PARABOLIC) * np.geomspace(1e-4, 0.99999, 48)
    p, c = rate_jwkb_array(PARABOLIC, atom, F), rate_jwkb_array(CARTESIAN, atom, F)
    assert not np.isnan(p.G).any()
    for name in ("G", "P_jwkb", "P_eff", "D_eff", "K_e", "log_K_e"):
        assert np.array_equal(getattr(p, name), getattr(c, name)), name
    assert np.array_equal(p.coord_in, 2.0 * c.coord_in)
    assert np.array_equal(p.coord_out, 2.0 * c.coord_out)
    for f in F[::3].tolist():
        sp = rate_jwkb(MotiveModel(PARABOLIC, atom, f)).as_dict()
        sc = rate_jwkb(MotiveModel(CARTESIAN, atom, f)).as_dict()
        assert sp.pop("method") != sc.pop("method")
        assert (sp.pop("coord_in"), sp.pop("coord_out")) == (
            2.0 * sc.pop("coord_in"), 2.0 * sc.pop("coord_out")), f
        assert sp == sc, f
    # the rates at fields up to the guard, where the default bracket ends
    targets = p.K_e[(p.K_e > 0.0) & (F < guard_field(atom))][::4].tolist()
    assert targets
    for target in targets:
        answers = [invert_rate(target, atom, method=method).F
                   for method in ("jwkb-parabolic", "jwkb-cartesian")]
        assert answers[0] == answers[1], target


def test_jwkb_to_closed_form_ratio_weak_field_dependence():
    atom = make_atom(1)
    ratios = []
    for F_au in np.geomspace(1e-3, 1e-2, 5):
        F = F_au * AU_FIELD
        sol = rate_jwkb(MotiveModel(PARABOLIC, atom, F))
        ll = rate_ll(atom, F)
        ratios.append(math.exp(sol.log_K_e - ll.log_K_e))
    assert max(ratios) / min(ratios) - 1.0 < 0.02


def test_simple_prefactor_mode():
    model = au_model(PARABOLIC, 5e-3)
    sol = rate_jwkb(model, simple_prefactor=True)
    assert sol.P_jwkb == 1.0
    assert sol.P_eff == 1.0
    assert sol.D_eff == pytest.approx(math.exp(-sol.G), rel=1e-15)
    assert sol.K_e == pytest.approx(model.atom.nu_Z * math.exp(-sol.G), rel=1e-15)
    assert sol.method.endswith("-simple")


def test_naive_rate_uses_unit_prefactor():
    sol = rate_jwkb(au_model(NAIVE, 1e-2))
    assert sol.P_eff == 1.0
    assert sol.K_e == pytest.approx(sol.D_eff * make_atom(1).nu_Z, rel=1e-15)


def test_attempt_frequency_rate_cases():
    atom = make_atom(1)
    assert attempt_frequency_rate(atom, 0.0) == 0.0
    # D = 1 gives the bare orbital frequency
    assert "%.6e" % attempt_frequency_rate(atom, 1.0) == "%.6e" % 6.579684e15
    # feeding back the closed-form escape probability reproduces the rate
    r = rate_ll(atom, 8.0)
    assert attempt_frequency_rate(atom, r.D_eff) == pytest.approx(r.K_e, rel=1e-15)
    with pytest.warns(errors.ShallowBarrierWarning):
        attempt_frequency_rate(atom, 1.5)


@pytest.mark.parametrize("D", [-1e-300, -1.0, math.inf, -math.inf, math.nan])
def test_attempt_frequency_rate_refuses_invalid_probabilities(D):
    with pytest.raises(errors.ValidationError, match="escape probability"):
        attempt_frequency_rate(make_atom(1), D)


def test_regime_labels():
    atom = make_atom(1)
    deep = rate_jwkb(MotiveModel(PARABOLIC, atom, 0.5 * guard_field(atom)))
    assert deep.regime == "deep"
    above = rate_jwkb(MotiveModel(PARABOLIC, atom, 25.0))
    assert above.regime == "extrapolated"


def test_jwkb_value_at_25_v_per_nm():
    # golden from the high-resolution pre-build run:
    # K_jwkb / K_ll = 1.70255 at 25 V/nm, K_jwkb = 6.4190e12 s^-1
    atom = make_atom(1)
    sol = rate_jwkb(MotiveModel(PARABOLIC, atom, 25.0))
    assert sol.K_e == pytest.approx(6.41902909e12, rel=1e-6)
    ll = rate_ll(atom, 25.0, allow_shallow=True)
    assert sol.K_e / ll.K_e == pytest.approx(1.70255074, rel=1e-6)


def test_barrier_solution_serialization_round_trip():
    import json

    sol = rate_jwkb(au_model(PARABOLIC, 1e-2))
    loaded = json.loads(json.dumps(sol.as_dict()))
    assert loaded == sol.as_dict()


@pytest.mark.parametrize("atom, fields", [
    (make_atom(1), ()),
    (make_atom(2.5), ()),
    # the inner turning point scales like B/I, far below the orbit radius
    (make_atom(1, 3000), (0.5, 1.0, 5.0)),
    # the inner turning point, about 2.7e177 nm, squared leaves the float range
    (make_atom(3.666546872716423e+129, 2.0717069298164032e-48), (5.363371100047738e-227,)),
], ids=["H", "Z2.5", "H-I3000", "inner-zero-past-1e154"])
def test_naive_strength_matches_forbes_deane(atom, fields):
    f_bs = suppression_field_naive(atom)
    for F in [*(float(f * f_bs) for f in np.geomspace(1e-3, 0.95, 12)), *fields]:
        G = barrier_strength(MotiveModel(NAIVE, atom, F))
        assert G == pytest.approx(naive_strength_forbes_deane(atom, F), rel=1e-12)


def test_naive_strength_just_below_suppression_of_a_low_ionization_energy():
    # M's terms cancel near the close turning points: the rules on them
    # disagree by 2.06e-10, so G comes from M's factored form
    atom = make_atom(1.0, 1.3605692534724878e-11)
    F = (1 - 1e-9) * suppression_field_naive(atom)
    G = rate_jwkb(MotiveModel(NAIVE, atom, F)).G
    tolerance = 4.0 * sys.float_info.epsilon / 1e-9  # as below
    assert G == pytest.approx(naive_strength_forbes_deane(atom, F), rel=tolerance)


def test_barrier_strength_where_the_motive_cancels_comes_from_its_zeros(monkeypatch):
    # the escape-probability bound's grid for I at 1e-12 and 1e-11 Z^2 I_H:
    # every field below suppression answers, and where the rules on M's
    # terms disagree, G from M's factored form matches an oracle to the
    # rounding of the coefficients, which costs about eps/(1 - F/F_bs)
    factored = []
    strength_pair = barrier._strength_pair

    def spy(*args, **kwargs):
        factored.append(kwargs.get("factored", False))
        return strength_pair(*args, **kwargs)

    monkeypatch.setattr(barrier, "_strength_pair", spy)
    ratios = np.concatenate([np.geomspace(1e-6, 0.95, 100), np.linspace(0.95, 1.0, 200),
                             1.0 - np.geomspace(1e-3, 1e-12, 100)])
    checked = 0
    for Z in (0.01, 1.0, 30.0):
        for I in Z * Z * REGISTRY.I_H.value * np.geomspace(1e-12, 1e12, 25)[:2]:
            atom = make_atom(Z, float(I))
            for variant in MotiveVariant:
                f_bs = suppression_field(atom, variant)
                for ratio in ratios[ratios < 1.0]:
                    F = float(ratio * f_bs)
                    factored.clear()
                    try:
                        G = barrier_strength(MotiveModel(variant, atom, F))
                    except errors.BarrierSuppressed:
                        continue
                    if not factored[-1]:
                        continue
                    if variant is NAIVE:
                        exact = naive_strength_forbes_deane(atom, F)
                    else:
                        exact = float(exact_barrier(barrier._coefficients(variant, atom, F))[1])
                    tolerance = 4.0 * sys.float_info.epsilon / (1.0 - F / f_bs)
                    assert G == pytest.approx(exact, rel=tolerance), (Z, I, variant, ratio)
                    checked += 1
    assert checked == 81


def _cubic_root(k, start):
    """The positive root of A1 c^3 - A2 c - 2 A3 = 0 in 40-digit arithmetic."""
    with mpmath.workdps(40):
        _, A1, A2, A3 = (mpmath.mpf(a) for a in k)
        return float(mpmath.findroot(lambda c: A1 * c**3 - A2 * c - 2 * A3, mpmath.mpf(start)))


def test_closed_form_peak_is_the_cubic_root_to_a_few_ulps():
    # the peak takes no Newton step: on both branches of the cubic, the
    # trigonometric one (kappa < 2/3^(3/2)) and Cardano's, and for the
    # naive barrier's square root, the scalar and the array peak lie within
    # 5 ulps of the root; high-I atoms take Cardano's branch
    rng = np.random.default_rng(2024)
    atoms = [(make_atom(1.3, 5300.0), [0.14])]
    for _ in range(50):
        Z = math.exp(rng.uniform(math.log(1e-3), math.log(1e2)))
        I = Z * Z * REGISTRY.I_H.value * 10 ** rng.uniform(-4, 4) if rng.random() < 0.7 else None
        atoms.append((make_atom(Z, I), 10 ** rng.uniform(-15, -1e-9, 4)))
    branches = {"trigonometric": 0, "cardano": 0, "naive": 0}
    for atom, ratios in atoms:
        for variant in (PARABOLIC, CARTESIAN, NAIVE):
            F = np.asarray(ratios) * suppression_field(atom, variant)
            peaks = barrier._peak(barrier._coefficients(variant, atom, F), barrier._ARRAY)
            for f, array_peak in zip(F, peaks):
                k = _, A1, A2, A3 = barrier._coefficients(variant, atom, float(f))
                peak = barrier._peak(k, barrier._SCALAR)
                root = _cubic_root(k, peak)
                for value in (peak, array_peak):
                    assert abs(value - root) <= 5 * math.ulp(root), (atom, variant, f)
                kappa = 2 * A3 / (A2 * math.sqrt(A2 / A1))
                if variant is NAIVE:
                    branches["naive"] += 1
                else:
                    branches["cardano" if kappa >= 2 / 3**1.5 else "trigonometric"] += 1
    assert min(branches.values()) >= 20, branches


@pytest.mark.parametrize("atom", [make_atom(1), make_atom(0.357), make_atom(2.5, 40.0)],
                         ids=["H", "Z0.357", "Z2.5-I40"])
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN])
def test_transformed_suppression_field_is_double_root(atom, variant):
    # at the closed-form field the motive maximum, located independently
    # in 30-digit arithmetic, is zero to rounding: M = M' = 0 there
    F = suppression_field(atom, variant)
    with mpmath.workdps(30):
        e, s2 = mpmath.mpf(REGISTRY.e.value), mpmath.mpf(REGISTRY.sigma.value) ** 2
        I, B, Fm = mpmath.mpf(atom.I), mpmath.mpf(atom.B), mpmath.mpf(F)
        if variant is PARABOLIC:
            M = lambda c: I / 4 - e * Fm * c / 8 - B / (4 * c) - 1 / (4 * s2 * c * c)
        else:
            M = lambda c: I - e * Fm * c - B / (2 * c) - 1 / (4 * s2 * c * c)
        peak = mpmath.findroot(lambda c: mpmath.diff(M, c), motive_peak(MotiveModel(variant, atom, F))[0])
        assert abs(M(peak)) < 1e-14 * atom.I
    with pytest.raises(errors.BarrierSuppressed) as excinfo:
        turning_points(MotiveModel(variant, atom, F))
    assert excinfo.value.suppression_field == F
    turning_points(MotiveModel(variant, atom, F * (1 - 1e-6)))
    # the verdict's edge, the same for one field and an array of them
    turning_points(MotiveModel(variant, atom, F * (1 - 1e-12)))
    with pytest.raises(errors.BarrierSuppressed):
        turning_points(MotiveModel(variant, atom, F * (1 - 1e-13)))
    K_e = rate_jwkb_array(variant, atom, [F * (1 - 1e-12), F * (1 - 1e-13), F]).K_e
    assert math.isfinite(K_e[0]) and np.isnan(K_e[1:]).all()


@pytest.mark.parametrize("F", [1e-30, 1e-100, 1e-180, 1e-250, 1e-300, 3e-306])
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
def test_barrier_strength_at_vanishing_field_is_leading_term(variant, F):
    # log c spans about 75, 235 and up to 705 units between the turning
    # points (G reaching 1.1e308 at 3e-306 V/nm); the corrections to
    # G F/(b I^(3/2)) = 1 are of order F
    atom = make_atom(1)
    G = barrier_strength(MotiveModel(variant, atom, F))
    assert G == pytest.approx(REGISTRY.b.value * atom.I**1.5 / F, rel=1e-12)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("F", [1e-306, 1e-307, 1e-320, 5e-324])
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
def test_field_beyond_float_range_is_a_numeric_error(variant, F):
    with pytest.raises(errors.BracketingFailure) as excinfo:
        rate_jwkb(MotiveModel(variant, make_atom(1), F))
    if F > 1e-310:  # G, or the outer zero, past the float range
        assert "float range" in str(excinfo.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
def test_numpy_scalar_field_gives_the_float_result(variant):
    atom = make_atom(1)
    model = MotiveModel(variant, atom, np.float64(12.0))
    assert type(model.F) is float
    assert rate_jwkb(model).G == rate_jwkb(MotiveModel(variant, atom, 12.0)).G


def _log_rate_or_refusal(call):
    try:
        return call()
    except errors.EsfiError as exc:
        return type(exc), str(exc)


class _Float(float):
    pass


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Z", [1e-4, 0.5, 1.0, 2.5, 30.0])
@pytest.mark.parametrize("I", [None, 0.1, 30.0, 3000.0])
def test_jwkb_evaluator_is_rate_jwkb_bit_for_bit(Z, I):
    # from fields whose G leaves the float range, through the composite
    # rule's and the 32/64-node pair's, to past suppression; a float field
    # is checked by 0 < F < inf alone: its edges, and the numbers that are
    # not floats but compare as one
    atom = make_atom(Z, I)
    for variant in MotiveVariant:
        log_rate = _jwkb_log_rate(atom, variant)
        f_bs = suppression_field(atom, variant)
        fields = [5e-324, 1e-310, 1e-300, 1e-200, 1e-50, 1e-6, 1.0, 1e3, 1e6,
                  *(f_bs * np.geomspace(1e-25, 1.0, 30)),
                  f_bs * (1 - 1e-9), f_bs * (1 + 1e-9), 2.0 * f_bs, guard_field(atom),
                  np.float64(0.5 * f_bs), 0.0, -1.0, math.nan, math.inf,
                  10**400, -10**400,
                  True, 12, sys.float_info.max, -0.0, np.float64("nan"),
                  _Float(0.5 * f_bs), _Float(math.inf)]
        for F in fields:
            expected = _log_rate_or_refusal(lambda: rate_jwkb(MotiveModel(variant, atom, F)).log_K_e)
            got = _log_rate_or_refusal(lambda: log_rate(F))
            assert got == expected, (variant, F)


def _central_slope(log_rate, F, du=1e-5):
    u = math.log(F)
    return (log_rate(math.exp(u + du)) - log_rate(math.exp(u - du))) / (2.0 * du)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
@pytest.mark.parametrize("atom", [make_atom(1), make_atom(0.5), make_atom(2.5, 40.0)],
                         ids=["H", "Z0.5", "Z2.5-I40"])
def test_jwkb_slope_matches_a_central_difference(atom, variant):
    # fields below about 1e-19 of suppression take the composite rule
    f_bs = suppression_field(atom, variant)
    log_rate = _jwkb_log_rate(atom, variant)
    tables = _sine_mapped_rules(_GAUSS_RULES)
    composite = []
    for f in (1e-30, 1e-22, 1e-15, 1e-6, 1e-3, 0.05, 0.3, 0.6, 0.9):
        model = MotiveModel(variant, atom, f * f_bs)
        pair, _ = _strength_pair(model._coeffs, *turning_points(model), tables, _SCALAR)
        composite.append(not _converged(*pair))
        log_rate(model.F)
        assert log_rate.slope() == pytest.approx(_central_slope(log_rate, model.F), rel=1e-8)
    assert composite == [True, True] + [False] * 7


# d ln K/d ln F at these fractions of the suppression field, the first two
# settled by the composite rule, the last with nodes where M rounds to zero;
# the Cartesian barrier is the parabolic one at z = eta/2, so its slopes are
# the parabolic row
_SLOPE_FRACTIONS = (1e-30, 1e-22, 1e-3, 1e-2, 0.1, 0.3, 0.6, 0.9, 0.99, 1 - 1e-12)
_SLOPE_GOLDEN = {
    ("H", PARABOLIC): [5.920043196236963e+30, 5.920043196259634e+22, 5919.0436930727265,
                       591.0066937609012, 58.19624328537483, 18.65516608524039,
                       8.448199541636058, 3.0699787553205358, -8.809761683660138,
                       -1747187.3607747164],
    ("H", NAIVE): [1.066666666671051e+31, 1.0666666666617198e+23, 10664.66802389176,
                   1064.6759791730265, 104.71977634962585, 33.66532599049688,
                   15.943573886497925, 10.059083017823642, 8.99235809710539,
                   8.83619180399871],
    ("Z0.37", PARABOLIC): [5.920043196237584e+30, 5.920043196260215e+22, 5919.04369307485,
                           591.0066937608096, 58.196243285367785, 18.655166085236885,
                           8.448199541635189, 3.0699787553185387, -8.809761683635355,
                           -1747319.5225223685],
    ("Z0.37", NAIVE): [1.0666666666707946e+31, 1.0666666666618233e+23, 10664.668023891403,
                       1064.6759791730303, 104.71977634962161, 33.66532599049906,
                       15.943573886497584, 10.059083017843841, 8.992358097094861,
                       8.846283738064498],
    ("Z2.5-I40", PARABOLIC): [8.204170491829847e+30, 8.204170491984776e+22, 8202.713249587405,
                              818.9635763318116, 80.59384568003361, 25.847329768577133,
                              11.878256183112004, 5.404523357520062, -5.890669084972719,
                              -1623842.5000744874],
    ("Z2.5-I40", NAIVE): [1.5552458918038067e+31, 1.5552458917902333e+23, 15549.544810817566,
                          1552.3433837841267, 152.6859393353641, 49.08549369630115,
                          23.246416675794244, 14.666575817554788, 13.111244988811281,
                          12.90467904427471],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
@pytest.mark.parametrize("name", ["H", "Z0.37", "Z2.5-I40"])
def test_jwkb_slope_is_pinned_to_the_bit(name, variant):
    # the slope sums its nodes in numpy's pairwise order, so these digits
    # are the same on every CPU (a BLAS dot picks its order by CPU)
    atom = {"H": make_atom(1), "Z0.37": make_atom(0.37), "Z2.5-I40": make_atom(2.5, 40.0)}[name]
    log_rate = _jwkb_log_rate(atom, variant)
    f_bs = suppression_field(atom, variant)
    slopes = []
    for f in _SLOPE_FRACTIONS:
        log_rate(f * f_bs)
        slopes.append(log_rate.slope())
    assert slopes == _SLOPE_GOLDEN[name, NAIVE if variant is NAIVE else PARABOLIC]


def test_quadrature_tables_are_built_on_first_use():
    # building them costs some milliseconds, which at import would land in
    # every cold process
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import esfi.cli; from esfi import barrier; "
         "print(barrier._sine_mapped_rules.cache_info().currsize)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0"


# the evaluator's slopes on a grid and an inversion whose answer followed
# the BLAS kernel, as a digest
_KERNEL_DIGEST = """
import hashlib
import numpy as np
from esfi import barrier, invert_rate, make_atom
digest = hashlib.sha256()
for Z in (1.0, 0.37, 7.3):
    atom = make_atom(Z)
    for variant in barrier.MotiveVariant:
        log_rate = barrier._jwkb_log_rate(atom, variant)
        f_bs = barrier.suppression_field(atom, variant)
        for F in np.geomspace(1e-3 * f_bs, 0.999 * f_bs, 40).tolist():
            log_rate(F)
            digest.update(repr(log_rate.slope()).encode())
res = invert_rate(2643.1251908411687, make_atom(0.37), method="jwkb-naive")
digest.update(repr((res.F, res.iterations, res.residual)).encode())
print(digest.hexdigest())
"""


def test_jwkb_slope_does_not_depend_on_the_blas_kernel():
    # OPENBLAS_CORETYPE forces a kernel in a DYNAMIC_ARCH OpenBLAS, whose
    # 1-D dot sums in an order of the kernel's own; where numpy's BLAS
    # ignores the variable both runs take the same kernel
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = src
    digests = []
    for kernel in ({}, {"OPENBLAS_CORETYPE": "Prescott"}):
        proc = subprocess.run([sys.executable, "-c", _KERNEL_DIGEST], capture_output=True,
                              text=True, env={**env, **kernel})
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("F", [1e-30, 1e-100, 1e-150, 1e-300, 3e-306])
@pytest.mark.parametrize("variant", [PARABOLIC, CARTESIAN, NAIVE])
def test_jwkb_slope_at_vanishing_field_is_the_leading_term(variant, F):
    # ln K ~ -b I^(3/2)/F, so its slope on ln F is b I^(3/2)/F, up to
    # 1.1e308; the composite rule that settles G to 1e-12 gets the slope's
    # integral to a few 1e-10
    atom = make_atom(1)
    log_rate = _jwkb_log_rate(atom, variant)
    log_rate(F)
    assert log_rate.slope() == pytest.approx(REGISTRY.b.value * atom.I**1.5 / F, rel=1e-9)
