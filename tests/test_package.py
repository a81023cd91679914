"""The package namespace: its public names and submodules, each resolved
from the module that defines it when first accessed."""

import os
import subprocess
import sys
from pathlib import Path

import esfi

PUBLIC_NAMES = [
    "BarrierArrays",
    "BarrierSolution",
    "ConstantsRegistry",
    "Converted",
    "Dimension",
    "HydrogenicAtom",
    "InversionResult",
    "MotiveModel",
    "MotiveVariant",
    "Quantity",
    "REGISTRY",
    "RateArrays",
    "RateResult",
    "UnitSystem",
    "attempt_frequency_rate",
    "barrier_integral_log_part",
    "barrier_integral_main_part",
    "barrier_strength",
    "barrier_term",
    "barrier_term_from_parts",
    "build_registry",
    "cartesian_axis_to_parabolic",
    "convert",
    "effective_escape_probability",
    "errors",
    "gaussian_charge_to_isq",
    "gaussian_field_to_isq",
    "geometric_prefactor",
    "guard_field",
    "invert_rate",
    "make_atom",
    "motive",
    "motive_peak",
    "parabolic_to_cartesian",
    "rate_gaussian_check",
    "rate_jwkb",
    "rate_jwkb_array",
    "rate_ll",
    "rate_ll_array",
    "rate_z_form",
    "suppression_field",
    "suppression_field_naive",
    "to_canonical",
    "turning_points",
]
SUBMODULES = ["barrier", "errors", "hydrogenic", "invert", "rates", "units"]


def run_fresh(statements: str) -> None:
    """Run `statements` in a fresh interpreter; any failure fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", statements],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr


def test_all_is_unchanged():
    assert esfi.__all__ == PUBLIC_NAMES


def test_each_name_is_the_object_of_its_defining_module():
    # errors is a module; any other name's object tells its module
    run_fresh(
        "import sys, esfi\n"
        f"for name in {PUBLIC_NAMES!r}:\n"
        "    value = getattr(esfi, name)\n"
        "    if name == 'errors':\n"
        "        assert value is sys.modules['esfi.errors']\n"
        "    else:\n"
        "        assert getattr(sys.modules[value.__module__], name) is value, name\n"
    )


def test_star_import_binds_every_public_name():
    run_fresh(
        "namespace = {}\n"
        "exec('from esfi import *', namespace)\n"
        f"assert sorted(set(namespace) - {{'__builtins__'}}) == sorted({PUBLIC_NAMES!r})\n"
    )


def test_submodules_resolve_as_attributes():
    run_fresh(
        "import sys, esfi\n"
        f"for name in {SUBMODULES!r}:\n"
        "    assert getattr(esfi, name) is sys.modules['esfi.' + name], name\n"
    )


def test_unknown_names_raise_and_dir_lists_the_public_ones():
    assert not hasattr(esfi, "nope")
    listed = dir(esfi)
    assert "__all__" in listed and "__version__" in listed
    assert set(PUBLIC_NAMES) <= set(listed)
