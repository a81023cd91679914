"""Hydrogenic atom derived properties and coordinate utilities."""

import math
import random

import numpy as np
import pytest

from esfi import errors
from esfi.hydrogenic import (
    cartesian_axis_to_parabolic,
    make_atom,
    parabolic_to_cartesian,
)
from esfi.invert import invert_rate
from esfi.units import REGISTRY


def test_hydrogen_reference_values():
    atom = make_atom(1)
    assert "%.6e" % atom.I == "%.6e" % 13.60569
    assert "%.6e" % atom.a_Z == "%.6e" % 5.291772e-2
    assert "%.6e" % atom.nu_Z == "%.6e" % 6.579684e15


def test_z_squared_ionization_scaling():
    # 4 * 13.60569 = 54.42276 up to the rounding already present in I_H
    assert make_atom(2).I == pytest.approx(54.42276, rel=5e-7)
    assert make_atom(2).I == pytest.approx(4 * make_atom(1).I, rel=1e-15)


@pytest.mark.parametrize("Z", [0.5, 0.8, 1.0, 1.7, 2.0, 3.3, 5.0, 10.0])
def test_default_ionization_identities(Z):
    atom = make_atom(Z)
    # I a_Z = B/2
    assert atom.I * atom.a_Z == pytest.approx(atom.B / 2.0, rel=1e-12)
    # 1/a_Z = 2I/B and a_Z = a_0/Z
    assert 1.0 / atom.a_Z == pytest.approx(2.0 * atom.I / atom.B, rel=1e-12)
    assert atom.a_Z == pytest.approx(REGISTRY.a_0.value / Z, rel=1e-14)
    # I = B^2 sigma^2 / 4
    assert atom.I == pytest.approx(atom.B**2 * REGISTRY.sigma.value**2 / 4.0, rel=1e-12)


@pytest.mark.parametrize("Z", [0.5, 1.0, 2.0, 3.0, 7.5])
def test_orbital_frequency_scaling(Z):
    atom = make_atom(Z)
    assert atom.nu_Z / REGISTRY.nu_0.value == pytest.approx(Z * Z, rel=1e-14)
    assert atom.omega_Z == pytest.approx(2.0 * math.pi * atom.nu_Z, rel=1e-15)


def test_ionization_override_keeps_B_z_based():
    atom = make_atom(2, I_override=20.0)
    assert atom.I == 20.0
    assert atom.B == make_atom(2).B
    assert atom.a_Z == make_atom(2).a_Z
    assert not atom.default_ionization
    # the frequency follows the overridden I
    assert atom.nu_Z == pytest.approx(20.0 / (math.pi * REGISTRY.hbar.value), rel=1e-15)


def test_invalid_atom_inputs():
    with pytest.raises(errors.NonPositiveZ):
        make_atom(0.0)
    with pytest.raises(errors.NonPositiveZ):
        make_atom(-1.0)
    with pytest.raises(errors.NonPositiveIonizationEnergy):
        make_atom(1.0, I_override=-5.0)
    with pytest.raises(errors.NonPositiveIonizationEnergy):
        make_atom(1.0, I_override=0.0)


@pytest.mark.parametrize("sign", [1, -1])
def test_int_beyond_the_float_range_is_refused_as_an_infinity(sign):
    # math.isfinite and float() raise OverflowError on such an int
    huge, infinity = sign * 10**400, sign * math.inf
    for args, as_float, error in (
        ((huge,), (infinity,), errors.NonPositiveZ),
        ((1.0, huge), (1.0, infinity), errors.NonPositiveIonizationEnergy),
    ):
        with pytest.raises(error) as raised:
            make_atom(*args)
        with pytest.raises(error) as expected:
            make_atom(*as_float)
        assert str(raised.value) == str(expected.value)
        assert isinstance(raised.value, errors.ValidationError)


@pytest.mark.parametrize("I", [None, 30.0])
def test_charge_number_type_does_not_reach_the_atom(I):
    # a numpy scalar charge would otherwise run the JWKB solver in numpy
    # scalar arithmetic
    atoms = [make_atom(Z, I) for Z in (1.0, 1, np.float64(1.0))]
    assert atoms[0] == atoms[1] == atoms[2]
    for atom in atoms:
        numbers = [v for k, v in vars(atom).items() if k != "default_ionization"]
        assert [type(v) for v in numbers] == [float] * 6
    results = [invert_rate(1e8, atom, method="jwkb-parabolic") for atom in atoms]
    assert results[0] == results[1] == results[2]


def test_on_axis_coordinate_cases():
    assert parabolic_to_cartesian(2.0, 0.0, 0.0) == pytest.approx((0.0, 0.0, 1.0))
    assert parabolic_to_cartesian(1.0, 1.0, 0.0) == pytest.approx((1.0, 0.0, 0.0))


def test_radius_identity_random_samples():
    rng = random.Random(42)
    for _ in range(50):
        eta = rng.uniform(0.0, 10.0)
        xi = rng.uniform(0.0, 10.0)
        phi = rng.uniform(0.0, 2.0 * math.pi)
        x, y, z = parabolic_to_cartesian(eta, xi, phi)
        r = math.sqrt(x * x + y * y + z * z)
        assert r == pytest.approx((eta + xi) / 2.0, rel=1e-12, abs=1e-12)


def test_coordinate_round_trip():
    rng = random.Random(7)
    for _ in range(25):
        eta = rng.uniform(1e-6, 50.0)
        z = parabolic_to_cartesian(eta, 0.0, 0.0)[2]
        assert cartesian_axis_to_parabolic(z) == pytest.approx(eta, rel=1e-14)


def test_negative_coordinates_rejected():
    with pytest.raises(errors.NegativeCoordinate):
        parabolic_to_cartesian(-1.0, 0.0, 0.0)
    with pytest.raises(errors.NegativeCoordinate):
        parabolic_to_cartesian(1.0, -2.0, 0.0)
    with pytest.raises(errors.NegativeCoordinate):
        cartesian_axis_to_parabolic(-0.1)
