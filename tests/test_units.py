"""Constants registry, dimensional algebra and unit conversions."""

import math
import sys
from fractions import Fraction

import pytest

from esfi import errors
from esfi.rates import EXTENDED
from esfi.units import (
    CHARGE,
    DIMENSIONLESS,
    ENERGY,
    FIELD,
    LENGTH,
    REGISTRY,
    TIME,
    Quantity,
    UnitSystem,
    build_registry,
    convert,
    from_canonical,
    gaussian_charge_to_isq,
    gaussian_field_to_isq,
    to_canonical,
)


def assert_sig_figs(value: float, reference: str, figs: int) -> None:
    """Both values print identically at the given significant figures."""
    fmt = f"%.{figs - 1}e"
    assert fmt % value == fmt % float(reference), (value, reference)


# reference values in the canonical eV/V/nm/s system (7 significant
# figures, 8 for fundamentals)
EVNM_REFERENCE = {
    "eV": ("1.0", 8),
    "e": ("1.0", 8),
    "m_e": ("5.685630e-30", 7),
    "hbar": ("6.582119e-16", 7),
    "eps0": ("5.526350e-2", 7),
    "four_pi_eps0": ("0.6944616", 7),
    "B_H": ("1.439964", 7),
    "a_0": ("5.291772e-2", 7),
    "nu_0": ("6.579684e15", 7),
    "omega_0": ("4.134137e16", 7),
    "I_H": ("13.60569", 7),
    "sigma": ("5.123167", 7),
    "b": ("6.830890", 7),
    "C_FI": ("1.245354e17", 7),
    "pi_hbar_C_FI": ("257.5185", 7),
}

SI_REFERENCE = {
    "eV": ("1.6021766e-19", 8),
    "e": ("1.6021766e-19", 8),
    "m_e": ("9.1093829e-31", 8),
    "hbar": ("1.0545717e-34", 8),
    "eps0": ("8.8541878e-12", 8),
    "four_pi_eps0": ("1.1126501e-10", 8),
    # B_H printed in J m follows from its eV nm value and the ISQ
    # expression e^2/(4 pi eps0); the tabulated 2.8991589e-27 elsewhere is
    # off by exactly 4 pi from both
    "B_H": ("2.3070773e-28", 7),
    "a_0": ("5.291772e-11", 7),
    "nu_0": ("6.579684e15", 7),
    "omega_0": ("4.134137e16", 7),
}

AU_REFERENCE = {
    "e": 1.0,
    "m_e": 1.0,
    "hbar": 1.0,
    "eps0": 1.0 / (4.0 * math.pi),
    "four_pi_eps0": 1.0,
    "B_H": 1.0,
    "a_0": 1.0,
    "nu_0": 1.0 / (2.0 * math.pi),
    "omega_0": 1.0,
    "I_H": 0.5,
    "sigma": 2.0**0.5,
    "b": 2.0**2.5 / 3.0,
    "C_FI": 2.0**4.5,
    "pi_hbar_C_FI": 2.0**4.5 * math.pi,
}


@pytest.mark.parametrize("name,expected", EVNM_REFERENCE.items())
def test_registry_reproduces_reference_values(name, expected):
    reference, figs = expected
    assert_sig_figs(getattr(REGISTRY, name).value, reference, figs)


@pytest.mark.parametrize("name,expected", SI_REFERENCE.items())
def test_si_view_matches_reference(name, expected):
    reference, figs = expected
    converted = convert(getattr(REGISTRY, name), UnitSystem.SI)
    assert_sig_figs(converted.value, reference, figs)


@pytest.mark.parametrize("name,expected", AU_REFERENCE.items())
def test_au_view_matches_substitution_values(name, expected):
    converted = convert(getattr(REGISTRY, name), UnitSystem.AU)
    assert converted.value == pytest.approx(expected, rel=1e-12)


def test_au_field_unit_is_derived_not_tabulated():
    # 2 I_H / (e a_0); approx 514.22 V/nm
    r = REGISTRY
    expected = 2.0 * r.I_H.value / (r.e.value * r.a_0.value)
    assert REGISTRY.au_field == pytest.approx(expected, rel=1e-15)
    assert REGISTRY.au_field == pytest.approx(514.2206526872, rel=1e-10)
    one_au = to_canonical(1.0, FIELD, UnitSystem.AU)
    assert one_au.value == pytest.approx(514.22, rel=1e-4)


def test_registry_is_immutable():
    with pytest.raises(Exception):
        REGISTRY.b = None
    with pytest.raises(Exception):
        REGISTRY.b.value = 0.0


def test_build_registry_is_reproducible():
    again = build_registry()
    for name, q in REGISTRY.constants().items():
        assert getattr(again, name).value == q.value


def test_dimension_algebra_of_rate_formula():
    r = REGISTRY
    exponent_dim = r.b.dim * ENERGY ** Fraction(3, 2) / FIELD
    assert exponent_dim.is_dimensionless
    rate_dim = r.C_FI.dim * ENERGY ** Fraction(5, 2) / FIELD
    assert rate_dim == TIME**-1
    # barrier term T = (2I/B)(8I/eF) exp(...)
    t_dim = (ENERGY / r.B_H.dim) * (ENERGY / (CHARGE * FIELD))
    assert t_dim.is_dimensionless


def test_dimension_labels():
    assert REGISTRY.b.dim.label(UnitSystem.EVNM) == "eV^-3/2 V nm^-1"
    assert REGISTRY.a_0.dim.label(UnitSystem.SI) == "m"
    assert DIMENSIONLESS.label(UnitSystem.EVNM) == ""


def test_quantity_addition_requires_matching_dimension():
    with pytest.raises(ValueError):
        Quantity(1.0, ENERGY) + Quantity(1.0, LENGTH)
    total = Quantity(1.0, ENERGY) + Quantity(2.0, ENERGY)
    assert total.value == 3.0


def test_quantity_subtraction_negation_and_reciprocal():
    diff = Quantity(3.0, ENERGY) - Quantity(1.0, ENERGY)
    assert diff == Quantity(2.0, ENERGY)
    with pytest.raises(ValueError):
        Quantity(1.0, ENERGY) - Quantity(1.0, LENGTH)
    assert -Quantity(2.5, LENGTH) == Quantity(-2.5, LENGTH)
    assert 1.0 / Quantity(4.0, TIME) == Quantity(0.25, TIME**-1)
    assert 2 / Quantity(4.0, LENGTH) == Quantity(0.5, LENGTH**-1)


def test_quantity_rejects_non_finite():
    with pytest.raises(ValueError):
        Quantity(float("nan"), ENERGY)
    with pytest.raises(ValueError):
        Quantity(float("inf"))


@pytest.mark.parametrize(
    "make",
    [
        lambda: gaussian_field_to_isq(float("inf")),
        lambda: gaussian_charge_to_isq(float("nan")),
        lambda: to_canonical(1e308, FIELD, UnitSystem.AU),  # overflows in V/nm
    ],
)
def test_non_finite_input_is_a_validation_error(make):
    with pytest.raises(errors.NonFiniteValue):
        make()


@pytest.mark.parametrize(
    "name",
    ["four_pi_eps0", "B_H", "a_0", "nu_0", "omega_0", "I_H", "sigma", "b", "C_FI",
     "pi_hbar_C_FI"],
)
def test_extended_constants_agree_with_the_registry(name):
    # one derivation serves both precisions; the float64 registry keeps the
    # rounding of its chain of up to a dozen operations (3 ulps at most,
    # for C_FI), so the bound is 8 float64 epsilons, not one ulp
    registry = getattr(REGISTRY, name).value
    extended = float(getattr(EXTENDED[UnitSystem.EVNM], name))
    assert extended == pytest.approx(registry, rel=8 * sys.float_info.epsilon, abs=0)


def test_from_canonical_passes_non_finite_values():
    assert from_canonical(math.inf, TIME**-1, UnitSystem.AU) == math.inf
    assert math.isnan(from_canonical(math.nan, LENGTH, UnitSystem.SI))


@pytest.mark.parametrize("system", [UnitSystem.SI, UnitSystem.EVNM, UnitSystem.AU])
@pytest.mark.parametrize(
    "quantity",
    [
        Quantity(25.0, FIELD),
        Quantity(13.6, ENERGY),
        Quantity(3.7e12, TIME**-1),
        Quantity(6.83, ENERGY ** Fraction(-3, 2) * FIELD),
    ],
)
def test_conversion_round_trip(system, quantity):
    viewed = convert(quantity, system)
    back = to_canonical(viewed.value, quantity.dim, system)
    assert back.value == pytest.approx(quantity.value, rel=1e-14)


def test_gaussian_field_definitional_inverse():
    root = math.sqrt(REGISTRY.four_pi_eps0.value)
    F = 17.3
    assert gaussian_field_to_isq(root * F).value == pytest.approx(F, rel=1e-14)


def test_gaussian_charge_round_trip():
    e_isq = REGISTRY.e
    e_s = convert(e_isq, UnitSystem.GAUSSIAN).value
    assert gaussian_charge_to_isq(e_s).value == pytest.approx(e_isq.value, rel=1e-14)
    F_s = convert(Quantity(25.0, FIELD), UnitSystem.GAUSSIAN).value
    assert gaussian_field_to_isq(F_s).value == pytest.approx(25.0, rel=1e-14)


def test_gaussian_rejects_other_dimensions():
    with pytest.raises(errors.UnsupportedGaussianDimension):
        convert(Quantity(1.0, ENERGY), UnitSystem.GAUSSIAN)
    with pytest.raises(errors.UnsupportedGaussianDimension):
        to_canonical(1.0, LENGTH, UnitSystem.GAUSSIAN)


@pytest.mark.parametrize("dim, value", [(CHARGE, REGISTRY.e.value), (FIELD, 25.0)])
def test_from_canonical_round_trips_gaussian(dim, value):
    viewed = from_canonical(value, dim, UnitSystem.GAUSSIAN)
    assert viewed == convert(Quantity(value, dim), UnitSystem.GAUSSIAN).value
    assert to_canonical(viewed, dim, UnitSystem.GAUSSIAN).value == pytest.approx(value, rel=1e-14)


def test_gaussian_label_refuses_other_dimensions():
    assert FIELD.label(UnitSystem.GAUSSIAN) == "eV^1/2 nm^-3/2"
    with pytest.raises(errors.UnsupportedGaussianDimension, match="charge and field"):
        ENERGY.label(UnitSystem.GAUSSIAN)


@pytest.mark.parametrize(
    "dim, name", [(TIME**-1, "s^-1"), (ENERGY / LENGTH**2, "eV nm^-2"), (DIMENSIONLESS, "dimensionless")]
)
def test_gaussian_refusal_names_the_dimension_by_its_label(dim, name):
    with pytest.raises(errors.UnsupportedGaussianDimension) as raised:
        from_canonical(1.0, dim, UnitSystem.GAUSSIAN)
    assert str(raised.value).endswith(f"dimensions, not {name}")


def test_from_canonical_refuses_other_gaussian_dimensions():
    with pytest.raises(errors.UnsupportedGaussianDimension):
        from_canonical(1.0, ENERGY, UnitSystem.GAUSSIAN)
