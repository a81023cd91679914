"""Free-space electrostatic field ionization of ground-state hydrogenic
atoms: closed-form rate constants, JWKB barrier integrals, unit-system
conversions and inverse field calibration.

The public names are resolved on first access, each from the module
that defines it as :data:`_EXPORTS` lists them, so ``import esfi``
loads neither numpy nor any module that a program does not use."""

from importlib import import_module as _import_module

from . import errors

__version__ = "0.1.0"

# each public name by the module that defines it
_EXPORTS = {
    "barrier": (
        "BarrierArrays",
        "BarrierSolution",
        "MotiveModel",
        "MotiveVariant",
        "attempt_frequency_rate",
        "barrier_strength",
        "motive",
        "motive_peak",
        "rate_jwkb",
        "rate_jwkb_array",
        "suppression_field",
        "turning_points",
    ),
    "hydrogenic": (
        "HydrogenicAtom",
        "cartesian_axis_to_parabolic",
        "make_atom",
        "parabolic_to_cartesian",
    ),
    "invert": ("InversionResult", "invert_rate"),
    "rates": (
        "RateArrays",
        "RateResult",
        "barrier_integral_log_part",
        "barrier_integral_main_part",
        "barrier_term",
        "barrier_term_from_parts",
        "effective_escape_probability",
        "geometric_prefactor",
        "guard_field",
        "rate_gaussian_check",
        "rate_ll",
        "rate_ll_array",
        "rate_z_form",
        "suppression_field_naive",
    ),
    "units": (
        "REGISTRY",
        "ConstantsRegistry",
        "Converted",
        "Dimension",
        "Quantity",
        "UnitSystem",
        "build_registry",
        "convert",
        "gaussian_charge_to_isq",
        "gaussian_field_to_isq",
        "to_canonical",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "errors"])


def __getattr__(name: str):
    """A public name or a submodule, imported on its first access; a
    name is then bound here, so later accesses do not come back."""
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__, *_EXPORTS})
