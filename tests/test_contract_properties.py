"""Derandomized contract properties over the documented domain: any charge
in [0.1, 30], the default or any ionization energy in [0.1, 1e4] eV, and
fields from 1e-6 to 3 times the naive suppression field."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from helpers import naive_strength_forbes_deane
from hypothesis import given, settings
from hypothesis import strategies as st

from esfi.barrier import (
    MotiveModel,
    MotiveVariant,
    barrier_strength,
    motive_peak,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
    turning_points,
)
from esfi.errors import EsfiError, ShallowBarrierWarning
from esfi.hydrogenic import make_atom
from esfi.rates import rate_ll, suppression_field_naive
from esfi.units import REGISTRY

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
