"""Command-line surface: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esfi import barrier, cli, rates
from esfi.barrier import (
    MotiveModel,
    MotiveVariant,
    rate_jwkb,
    rate_jwkb_array,
    suppression_field,
)
from esfi.cli import main
from esfi.errors import EsfiError
from esfi.hydrogenic import make_atom
from esfi.rates import rate_ll
from esfi.units import FIELD, REGISTRY, UnitSystem, to_canonical


def run_cli(argv, capsys, env_override=None, monkeypatch=None):
    if env_override:
        for key, value in env_override.items():
            monkeypatch.setenv(key, value)
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_csv_evnm(capsys):
    code, out, _ = run_cli(["constants", "--units", "evnm", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "symbol,value,units"
    rows = {line.split(",")[0]: line.split(",") for line in lines[1:]}
    assert "%.6e" % float(rows["b"][1]) == "%.6e" % 6.830890
    assert rows["b"][2] == "eV^-3/2 V nm^-1"
    assert "%.6e" % float(rows["C_FI"][1]) == "%.6e" % 1.245354e17


GOLDEN_CONSTANTS_CSV = """\
symbol,value,units
eV,1.000000000e+00,eV
e,1.000000000e+00,eV V^-1
m_e,5.685629854e-30,eV nm^-2 s^2
hbar,6.582119281e-16,eV s
eps0,5.526349599e-02,eV V^-2 nm^-1
four_pi_eps0,6.944615720e-01,eV V^-2 nm^-1
B_H,1.439964485e+00,eV nm
a_0,5.291772107e-02,nm
nu_0,6.579683924e+15,s^-1
omega_0,4.134137336e+16,s^-1
I_H,1.360569253e+01,eV
sigma,5.123167332e+00,eV^-1/2 nm^-1
b,6.830889776e+00,eV^-3/2 V nm^-1
C_FI,1.245353872e+17,eV^-5/2 V nm^-1 s^-1
pi_hbar_C_FI,2.575184777e+02,eV^-3/2 V nm^-1
"""


def test_constants_csv_golden_output(capsys):
    # the rows are the registry's Quantity fields, in declaration order
    code, out, err = run_cli(["constants", "--format", "csv"], capsys)
    assert (code, out, err) == (0, GOLDEN_CONSTANTS_CSV, "")


def test_constants_json_au(capsys):
    code, out, _ = run_cli(["constants", "--units", "au", "--format", "json"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["C_FI"]["value"] == pytest.approx(2.0**4.5, rel=1e-12)
    assert record["C_FI"]["unit_system"] == "au"
    assert record["sigma"]["value"] == pytest.approx(2.0**0.5, rel=1e-12)
    assert record["b"]["sig_figs"] == 7
    assert record["e"]["sig_figs"] == 8


def test_constants_si_omits_not_used_rows(capsys):
    code, out, _ = run_cli(["constants", "--units", "si", "--format", "csv"], capsys)
    assert code == 0
    symbols = {line.split(",")[0] for line in out.strip().split("\n")[1:]}
    for absent in ("sigma", "b", "C_FI", "pi_hbar_C_FI", "I_H"):
        assert absent not in symbols
    for present in ("e", "m_e", "hbar", "eps0", "four_pi_eps0", "a_0", "nu_0"):
        assert present in symbols


def test_rate_atomic_units(capsys, monkeypatch):
    code, out, _ = run_cli(
        ["rate", "--Z", "1", "--field", "0.05", "--units", "au", "--method", "ll"],
        capsys,
        env_override={"ESFI_GUARD_OVERRIDE": "1"},
        monkeypatch=monkeypatch,
    )
    assert code == 0
    record = json.loads(out)
    assert record["K_e"] == pytest.approx(1.2956774338501e-4, rel=1e-12)
    assert record["regime"] == "extrapolated"
    assert record["unit_system"] == "au"


def test_rate_guard_exit_code(capsys):
    code, _, err = run_cli(["rate", "--Z", "1", "--field", "25"], capsys)
    assert code == 3
    assert "deep-tunnelling guard" in err
    assert "ESFI_GUARD_OVERRIDE" in err


def test_rate_negative_field_validation(capsys):
    code, _, err = run_cli(["rate", "--Z", "1", "--field", "-5"], capsys)
    assert code == 2
    assert "field must be positive" in err


def test_rate_jwkb_at_25_v_per_nm(capsys):
    # golden ratio to the closed form from the pre-build oracle run: 1.7026
    code, out, _ = run_cli(
        ["rate", "--Z", "1", "--field", "25", "--method", "jwkb-parabolic"], capsys
    )
    assert code == 0
    record = json.loads(out)
    assert record["K_e"] == pytest.approx(6.41902909e12, rel=1e-6)
    assert record["regime"] == "extrapolated"


def test_rate_json_round_trip(capsys):
    code, out, _ = run_cli(["rate", "--Z", "2", "--field", "40"], capsys)
    assert code == 0
    record = json.loads(out)
    assert json.loads(json.dumps(record)) == record
    assert record["K_e"] == pytest.approx(
        record["pre_exponential"] * math.exp(-record["exponent"]), rel=1e-12
    )


def test_sweep_log_spacing_monotone(capsys):
    code, out, _ = run_cli(
        ["sweep", "--f-min", "2", "--f-max", "10", "--points", "3",
         "--spacing", "log", "--methods", "ll"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "F,K_ll,exponent_ll"
    assert len(lines) == 4
    rates = [float(line.split(",")[1]) for line in lines[1:]]
    assert rates[0] < rates[1] < rates[2]


def test_sweep_validation_errors(capsys):
    code, _, err = run_cli(
        ["sweep", "--f-min", "9", "--f-max", "1", "--points", "5", "--methods", "ll"],
        capsys,
    )
    assert code == 2
    assert "F_min < F_max" in err
    code, _, err = run_cli(
        ["sweep", "--f-min", "1", "--f-max", "2", "--points", "1", "--methods", "ll"],
        capsys,
    )
    assert code == 2
    code, _, err = run_cli(
        ["sweep", "--f-min", "1", "--f-max", "2", "--points", "3", "--methods", "bogus"],
        capsys,
    )
    assert code == 2


@pytest.mark.parametrize("flag, value, message", [
    ("--Z", "-1", "charge number Z must be positive"),
    ("--ionization-energy", "-3", "ionization energy must be positive"),
])
def test_sweep_invalid_atom_exits_2(capsys, flag, value, message):
    code, out, err = run_cli(
        ["sweep", flag, value, "--f-min", "1", "--f-max", "2", "--points", "3",
         "--methods", "ll,jwkb-naive"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err == f"error: {message}, got {float(value)}\n"


def test_sweep_grid_past_the_float_range_exits_2(capsys):
    # 1e308 atomic field units overflow V/nm
    code, out, err = run_cli(
        ["sweep", "--f-min", "1", "--f-max", "1e308", "--points", "5", "--units", "au"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "exceeds the float range" in err


def _scalar_sweep(Z, I, units, f_min, f_max, points, methods, allow_shallow, spacing="log"):
    """The sweep CSV and notes rebuilt field by field from the scalar
    rate_ll and rate_jwkb, except that numeric JWKB cells carry the array
    solver's values, which are checked against the scalar ones here."""
    system = UnitSystem(units)
    atom = make_atom(Z, I)
    grid = (np.geomspace if spacing == "log" else np.linspace)(f_min, f_max, points)
    F = [to_canonical(float(f), FIELD, system).value for f in grid]
    rate_scale = REGISTRY.au_time if system is UnitSystem.AU else 1.0
    batch = {m: rate_jwkb_array(MotiveVariant(m), atom, F) for m in methods if m != "ll"}
    rows, notes = [], []
    for i, (f, Fc) in enumerate(zip(grid, F)):
        ks, exps = [], []
        for m in methods:
            try:
                if m == "ll":
                    r = rate_ll(atom, Fc, allow_shallow=allow_shallow)
                    K, G = r.K_e, r.exponent
                else:
                    s = rate_jwkb(MotiveModel(MotiveVariant(m), atom, Fc))
                    b = batch[m]
                    assert b.G[i] == pytest.approx(s.G, rel=1e-13, abs=0)
                    assert abs(b.log_K_e[i] - s.log_K_e) <= 1e-13 * max(1.0, s.G)
                    K, G = b.K_e[i], b.G[i]
            except EsfiError as exc:
                notes.append(f"note: {m} at F={f:.9e}: {exc}")
                ks.append("nan")
                exps.append("nan")
                continue
            ks.append("%.9e" % (K * rate_scale))
            exps.append("%.9e" % G)
        rows.append(",".join(["%.9e" % f] + ks + exps))
    header = "F," + ",".join(f"K_{m}" for m in methods) + "," + ",".join(
        f"exponent_{m}" for m in methods)
    return "\n".join([header] + rows) + "\n", notes


ALL_METHODS = ["ll", "jwkb-parabolic", "jwkb-cartesian", "jwkb-naive"]


@pytest.mark.parametrize("override", [False, True])
@pytest.mark.parametrize("Z, I, units, f_min, f_max, points, methods", [
    # through the ll guard (16 V/nm) and both suppression fields (32, 58 V/nm)
    (1.0, None, "evnm", 2.0, 80.0, 41, ALL_METHODS),
    (1.0, None, "au", 4e-3, 0.16, 23, ALL_METHODS),
    (2.0, None, "si", 2e10, 1e12, 17, ALL_METHODS),
    (1.0, 11.5, "evnm", 1.0, 40.0, 13, ALL_METHODS),
    # the F3 grid, G up to about 3e4
    (0.357, None, "evnm", 1e-4, 2e-3, 50, ["jwkb-parabolic", "ll"]),
    # fields below 1e-19 of suppression take the composite quadrature, and
    # below about 1e-100 V/nm only it converges
    (1.0, None, "evnm", 1e-200, 1e-17, 10, ALL_METHODS),
    # enough cells for the vectorised CSV writer
    (1.0, None, "evnm", 2.0, 80.0, 600, ALL_METHODS),
])
def test_sweep_matches_scalar_path(capsys, monkeypatch, Z, I, units, f_min, f_max,
                                   points, methods, override):
    argv = ["sweep", "--Z", repr(Z), "--f-min", repr(f_min), "--f-max", repr(f_max),
            "--points", str(points), "--methods", ",".join(methods),
            "--units", units]
    if I is not None:
        argv += ["--ionization-energy", repr(I)]
    if override:
        monkeypatch.setenv("ESFI_GUARD_OVERRIDE", "1")
    else:
        monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    expected, notes = _scalar_sweep(Z, I, units, f_min, f_max, points, methods, override)
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == expected
    assert [line for line in err.splitlines() if line.startswith("note:")] == notes


_F_BS = {v: suppression_field(make_atom(1.0), v) for v in MotiveVariant}


@pytest.mark.parametrize("I, units, f_min, f_max, points, spacing, methods, override, reasons", [
    # the ll guard (16 V/nm) and both suppression fields (32, 58 V/nm); from
    # 60.5 V/nm on every method refuses the row, or all three JWKB ones
    (None, "evnm", 2.0, 80.0, 9, "linear", ALL_METHODS, False,
     ["deep-tunnelling guard", "barrier vanished"]),
    (None, "evnm", 2.0, 80.0, 9, "linear", ALL_METHODS, True, ["barrier vanished"]),
    # the same fields in atomic units, whose notes give the grid's field
    (None, "au", 0.004, 0.16, 11, "linear", ALL_METHODS, False,
     ["deep-tunnelling guard", "barrier vanished"]),
    # I = 30 eV: the guard at 78 V/nm, suppression at 156 and 257 V/nm
    (30.0, "evnm", 10.0, 300.0, 13, "linear", ALL_METHODS, False,
     ["deep-tunnelling guard", "barrier vanished"]),
    # fields that are 0 after conversion to V/nm
    (None, "si", 5e-324, 1e10, 12, "log", ALL_METHODS, False,
     ["field must be positive, got 0.0"]),
    (None, "si", 5e-324, 1e10, 12, "log", ["ll", "jwkb-naive"], True,
     ["field must be positive, got 0.0"]),
    (None, "evnm", 5e-324, 1e-309, 5, "log", ALL_METHODS, False, ["e F underflows"]),
    (None, "evnm", 1e-308, 2e-308, 2, "log", ["jwkb-naive", "jwkb-parabolic", "ll"], False,
     ["lies beyond the float range"]),
    # each shape's suppression field, within and past its 1e-6 margin
    *[(None, "evnm", f_bs * (1.0 - 3e-6), f_bs * (1.0 + 3e-6), 13, "linear", [v.value, "ll"],
       False, ["barrier vanished"]) for v, f_bs in _F_BS.items()],
])
def test_sweep_notes_word_each_refusal_as_the_scalar_path(
    capsys, monkeypatch, I, units, f_min, f_max, points, spacing, methods, override, reasons
):
    # notes are worded a column at a time; each must read as the error the
    # scalar path raises for its cell, in row order, then column order
    if override:
        monkeypatch.setenv("ESFI_GUARD_OVERRIDE", "1")
    else:
        monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    expected, notes = _scalar_sweep(1.0, I, units, f_min, f_max, points, methods, override,
                                    spacing=spacing)
    argv = ["sweep", "--f-min", repr(f_min), "--f-max", repr(f_max), "--points", str(points),
            "--spacing", spacing, "--methods", ",".join(methods), "--units", units]
    if I is not None:
        argv += ["--ionization-energy", repr(I)]
    code, out, err = run_cli(argv, capsys)
    assert code == 0
    assert out == expected
    assert err.splitlines() == notes
    assert all(any(reason in note for note in notes) for reason in reasons)
    assert not (override and "guard" in err)


def test_sweep_nan_sentinel_keeps_row_count(capsys):
    code, out, err = run_cli(
        ["sweep", "--f-min", "5", "--f-max", "40", "--points", "4",
         "--spacing", "linear", "--methods", "jwkb-naive"],
        capsys,
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 5
    assert lines[-1].split(",")[1] == "nan"
    assert "barrier vanished" in err


def test_sweep_is_byte_stable(tmp_path, capsys):
    args = ["sweep", "--f-min", "1", "--f-max", "9", "--points", "5",
            "--methods", "ll,jwkb-cartesian"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    a, b = first.read_bytes(), second.read_bytes()
    assert a == b
    assert b"\r" not in a  # LF line endings
    capsys.readouterr()


GOLDEN_SWEEP_CSV = """\
F,K_ll,K_jwkb-parabolic,K_jwkb-cartesian,K_jwkb-naive,exponent_ll,exponent_jwkb-parabolic,exponent_jwkb-cartesian,exponent_jwkb-naive
1.000000000e-30,0.000000000e+00,0.000000000e+00,0.000000000e+00,0.000000000e+00,3.428137685e+32,3.428137685e+32,3.428137685e+32,3.428137685e+32
4.000000000e+00,1.279388447e-18,2.349919397e-18,2.349919397e-18,8.404628813e-16,8.570344211e+01,7.729633019e+01,7.729633019e+01,7.113534199e+01
8.000000000e+00,2.607584700e+00,4.774560355e+00,4.774560355e+00,9.044173470e+02,4.285172106e+01,3.511516143e+01,3.511516143e+01,2.961547218e+01
1.200000000e+01,2.776957055e+06,5.039279639e+06,5.039279639e+06,6.716971628e+08,2.856781404e+01,2.121753807e+01,2.121753807e+01,1.609744496e+01
1.600000000e+01,2.632336623e+09,4.710763911e+09,4.710763911e+09,4.967308279e+11,2.142586053e+01,1.434618178e+01,1.434618178e+01,9.491448981e+00
2.000000000e+01,nan,2.685534915e+11,2.685534915e+11,2.391826002e+13,nan,1.026855778e+01,1.026855778e+01,5.617099803e+00
2.400000000e+01,nan,3.802497116e+12,3.802497116e+12,2.986482282e+14,nan,7.579643354e+00,7.579643354e+00,3.092475601e+00
2.800000000e+01,nan,2.433605969e+13,2.433605969e+13,1.740010488e+15,nan,5.679697185e+00,5.679697185e+00,1.330095567e+00
3.200000000e+01,nan,9.477828882e+13,9.477828882e+13,6.330831764e+15,nan,4.270030627e+00,4.270030627e+00,3.855508049e-02
3.600000000e+01,nan,2.644711013e+14,2.644711013e+14,nan,nan,3.185353402e+00,3.185353402e+00,nan
4.000000000e+01,nan,5.819027959e+14,5.819027959e+14,nan,nan,2.326876080e+00,2.326876080e+00,nan
4.400000000e+01,nan,1.069383514e+15,1.069383514e+15,nan,nan,1.631975441e+00,1.631975441e+00,nan
4.800000000e+01,nan,1.695003856e+15,1.695003856e+15,nan,nan,1.059063368e+00,1.059063368e+00,nan
5.200000000e+01,nan,2.332958212e+15,2.332958212e+15,nan,nan,5.794586252e-01,5.794586252e-01,nan
5.600000000e+01,nan,2.622857361e+15,2.622857361e+15,nan,nan,1.727531157e-01,1.727531157e-01,nan
6.000000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
6.400000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
6.800000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
7.200000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
7.600000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
8.000000000e+01,nan,nan,nan,nan,nan,nan,nan,nan
"""

GOLDEN_SWEEP_NOTES = """\
note: ll at F=2.000000000e+01: field 20 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: ll at F=2.400000000e+01: field 24 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: ll at F=2.800000000e+01: field 28 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: ll at F=3.200000000e+01: field 32 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: ll at F=3.600000000e+01: field 36 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=3.600000000e+01: barrier vanished at F=36 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=4.000000000e+01: field 40 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=4.000000000e+01: barrier vanished at F=40 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=4.400000000e+01: field 44 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=4.400000000e+01: barrier vanished at F=44 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=4.800000000e+01: field 48 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=4.800000000e+01: barrier vanished at F=48 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=5.200000000e+01: field 52 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=5.200000000e+01: barrier vanished at F=52 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=5.600000000e+01: field 56 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-naive at F=5.600000000e+01: barrier vanished at F=56 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=6.000000000e+01: field 60 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=6.000000000e+01: barrier vanished at F=60 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=6.000000000e+01: barrier vanished at F=60 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=6.000000000e+01: barrier vanished at F=60 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=6.400000000e+01: field 64 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=6.400000000e+01: barrier vanished at F=64 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=6.400000000e+01: barrier vanished at F=64 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=6.400000000e+01: barrier vanished at F=64 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=6.800000000e+01: field 68 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=6.800000000e+01: barrier vanished at F=68 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=6.800000000e+01: barrier vanished at F=68 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=6.800000000e+01: barrier vanished at F=68 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=7.200000000e+01: field 72 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=7.200000000e+01: barrier vanished at F=72 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=7.200000000e+01: barrier vanished at F=72 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=7.200000000e+01: barrier vanished at F=72 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=7.600000000e+01: field 76 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=7.600000000e+01: barrier vanished at F=76 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=7.600000000e+01: barrier vanished at F=76 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=7.600000000e+01: barrier vanished at F=76 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
note: ll at F=8.000000000e+01: field 80 V/nm is at or above the deep-tunnelling guard 16.0694 V/nm (barrier suppression at 32.1388 V/nm)
note: jwkb-parabolic at F=8.000000000e+01: barrier vanished at F=80 V/nm (suppression field 57.9073 V/nm for jwkb-parabolic)
note: jwkb-cartesian at F=8.000000000e+01: barrier vanished at F=80 V/nm (suppression field 57.9073 V/nm for jwkb-cartesian)
note: jwkb-naive at F=8.000000000e+01: barrier vanished at F=80 V/nm (suppression field 32.1388 V/nm for jwkb-naive)
"""

def test_sweep_golden_output(capsys, monkeypatch):
    # H through the composite-rule band (1e-30 V/nm), the ll guard (16.07),
    # and both suppression fields (32.14 naive, 57.91 transformed), frozen
    # as printed
    monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    code, out, err = run_cli(
        ["sweep", "--methods", ",".join(ALL_METHODS), "--spacing", "linear",
         "--f-min", "1e-30", "--f-max", "80", "--points", "21"],
        capsys,
    )
    assert code == 0
    assert out == GOLDEN_SWEEP_CSV
    assert err == GOLDEN_SWEEP_NOTES


def _count_jwkb_solves(monkeypatch):
    """The (shape, field) of each rate_jwkb call, as it is called."""
    solves = []
    solve = barrier.rate_jwkb

    def counted(model, **kwargs):
        solves.append((model.variant.value, model.F))
        return solve(model, **kwargs)

    monkeypatch.setattr(barrier, "rate_jwkb", counted)
    monkeypatch.setattr(cli, "rate_jwkb", counted)
    return solves


def test_sweep_notes_come_without_scalar_solves(capsys, monkeypatch):
    # the golden sweep's refused cells are past the guard or past a
    # suppression field, whose notes the closed-form fields give; only the
    # composite-rule field 1e-30 V/nm goes to rate_jwkb, which solves it
    monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    fields = _count_jwkb_solves(monkeypatch)
    code, out, err = run_cli(
        ["sweep", "--methods", ",".join(ALL_METHODS), "--spacing", "linear",
         "--f-min", "1e-30", "--f-max", "80", "--points", "21"],
        capsys,
    )
    assert code == 0
    assert out == GOLDEN_SWEEP_CSV
    assert err == GOLDEN_SWEEP_NOTES
    assert sorted(fields) == sorted((m, 1e-30) for m in ALL_METHODS[1:])


@pytest.mark.parametrize("variant", list(MotiveVariant))
def test_sweep_cells_just_past_suppression_take_the_scalar_path(capsys, monkeypatch, variant):
    # within 1e-6 above the suppression field, the array solver and the
    # scalar path could disagree by rounding, so the scalar path decides
    atom = make_atom(1.0)
    f_bs = suppression_field(atom, variant)
    grid = np.linspace(f_bs, f_bs * (1.0 + 3e-6), 7)
    fields = _count_jwkb_solves(monkeypatch)
    code, out, err = run_cli(
        ["sweep", "--methods", variant.value, "--spacing", "linear", "--f-min", repr(f_bs),
         "--f-max", repr(f_bs * (1.0 + 3e-6)), "--points", str(grid.size)],
        capsys,
    )
    assert code == 0
    within = [float(f) for f in grid if f < f_bs * (1.0 + 1e-6)]
    assert fields == [(variant.value, f) for f in within]
    expected, notes = _scalar_sweep(1.0, None, "evnm", f_bs, f_bs * (1.0 + 3e-6), grid.size,
                                    [variant.value], False, spacing="linear")
    assert out == expected
    assert err.splitlines() == notes
    assert len(notes) == grid.size


@pytest.mark.parametrize("points", [40, 700])
@pytest.mark.parametrize("units", ["evnm", "au", "si"])
def test_sweep_ll_cells_through_the_underflow_band(capsys, monkeypatch, units, points):
    # H's exponent from 700 to 820: K_e [1/s] runs from normal doubles
    # through the subnormal band to zero, on both sides of the writer's
    # cutover
    monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    atom = make_atom(1.0)
    coeff = rate_ll(atom, 1.0).exponent
    scale = to_canonical(1.0, FIELD, UnitSystem(units)).value
    f_min, f_max = coeff / 820.0 / scale, coeff / 700.0 / scale
    K = np.array([rate_ll(atom, float(f) * scale).K_e
                  for f in np.geomspace(f_min, f_max, points)])
    tiny = np.finfo(float).tiny
    assert (K == 0).any() and ((K > 0) & (K < tiny)).any() and (K >= tiny).any()
    code, out, err = run_cli(
        ["sweep", "--f-min", repr(f_min), "--f-max", repr(f_max), "--points", str(points),
         "--units", units],
        capsys,
    )
    assert code == 0 and err == ""
    expected, notes = _scalar_sweep(1.0, None, units, f_min, f_max, points, ["ll"], False)
    assert out == expected and notes == []


def test_sweep_ll_column_takes_only_the_closed_forms_first_step(capsys, monkeypatch):
    # neither the full kernel nor the array evaluator built on it runs
    def refuse(*args):
        raise AssertionError("the sweep ran the full closed form")

    monkeypatch.setattr(rates, "_closed_form", refuse)
    monkeypatch.setattr(rates, "rate_ll_array", refuse)
    monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    code, out, err = run_cli(
        ["sweep", "--f-min", "2", "--f-max", "30", "--points", "500"], capsys
    )
    assert code == 0
    assert err.count("note: ll at") == sum(
        float(f) >= rates.guard_field(make_atom(1.0)) for f in np.geomspace(2, 30, 500)
    )


def test_sweep_solves_each_refused_jwkb_cell_once(capsys, monkeypatch):
    # e F underflows, or G leaves the float range: the array solver hands
    # each such field to rate_jwkb once, and its error words the note
    solves = []
    solve = barrier.rate_jwkb

    def counted(model, **kwargs):
        solves.append((model.variant.value, model.F))
        return solve(model, **kwargs)

    monkeypatch.setattr(barrier, "rate_jwkb", counted)
    monkeypatch.setattr(cli, "rate_jwkb", counted)
    methods = ALL_METHODS[1:]
    grid = np.geomspace(5e-324, 1e-309, 9)
    code, out, err = run_cli(
        ["sweep", "--f-min", "5e-324", "--f-max", "1e-309", "--points", str(grid.size),
         "--methods", ",".join(methods)],
        capsys,
    )
    assert code == 0
    assert sorted(solves) == sorted((m, float(f)) for f in grid for m in methods)
    expected, notes = _scalar_sweep(1.0, None, "evnm", 5e-324, 1e-309, grid.size, methods, False)
    assert out == expected
    assert err.splitlines() == notes
    assert len(notes) == grid.size * len(methods)


def test_sweep_past_the_float_range_of_the_outer_zero_notes_each_cell(capsys):
    # e F is normal, but the outer turning point overflows a double
    methods = ["jwkb-naive", "jwkb-parabolic"]
    code, out, err = run_cli(
        ["sweep", "--f-min", "1e-308", "--f-max", "2e-308", "--points", "2",
         "--methods", ",".join(methods)],
        capsys,
    )
    assert code == 0
    rows = ["1.000000000e-308,nan,nan,nan,nan", "2.000000000e-308,nan,nan,nan,nan"]
    assert out.splitlines()[1:] == rows
    notes = err.splitlines()
    assert len(notes) == 4
    assert all("lies beyond the float range" in note for note in notes)


def test_sweep_output_does_not_depend_on_its_block_size(capsys, monkeypatch):
    # e F underflowing, the composite-rule band, the ll guard and both
    # suppression fields, in blocks of 1 000, 1 024, 1 537, 2 048 and
    # 65 536 fields: each field's row is its own, whatever its neighbours
    monkeypatch.delenv("ESFI_GUARD_OVERRIDE", raising=False)
    sizes = []
    columns = cli._sweep_columns

    def recorded(methods, atom, F, allow_shallow):
        sizes.append(F.size)
        return columns(methods, atom, F, allow_shallow)

    monkeypatch.setattr(cli, "_sweep_columns", recorded)
    argv = ["sweep", "--f-min", "5e-324", "--f-max", "80", "--points", "5000",
            "--methods", ",".join(ALL_METHODS)]
    runs = []
    for rows in (1000, 1024, 1537, 2048, cli._ROWS_PER_WRITE):
        monkeypatch.setattr(cli, "_ROWS_PER_WRITE", rows)
        sizes.clear()
        runs.append(run_cli(argv, capsys))
        assert sum(sizes) == 5000 and max(sizes) <= rows
    assert runs[0][0] == 0
    assert all(run == runs[0] for run in runs[1:])
    assert "e F underflows" in runs[0][2] and "guard" in runs[0][2]


@pytest.mark.parametrize("argv", [
    ["constants"],
    ["rate", "--field", "12"],
    ["sweep", "--f-min", "1", "--f-max", "40", "--points", "3", "--methods", "ll"],
    ["invert", "--target", "1e9"],
    ["barrier", "--field", "8"],
])
def test_unwritable_out_exits_2(tmp_path, capsys, argv):
    # the sweep opens its output before it solves anything, so a refused
    # path leaves no notes behind
    path = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(argv + ["--out", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write --out {path}: No such file or directory\n"


@pytest.mark.parametrize("bound", [["--f-lo", "1"], ["--f-hi", "1"]])
def test_invert_half_given_bracket_exits_2(capsys, bound):
    code, out, err = run_cli(["invert", "--target", "1e9"] + bound, capsys)
    assert code == 2
    assert out == ""
    assert err == "error: provide both --f-lo and --f-hi or neither\n"


def test_invert_over_a_falling_bracket_exits_4(capsys):
    # H's closed form peaks near 340 V/nm, so the rate falls over the bracket
    code, out, err = run_cli(
        ["invert", "--target", "1e10", "--f-lo", "400", "--f-hi", "1e5"], capsys
    )
    assert code == 4
    assert out == ""
    assert err == "error: rate not increasing over bracket (400, 100000) V/nm\n"


def test_barrier_whose_inner_zero_squared_overflows_answers(capsys):
    # the inner zero, about 2.7e177 nm, squared leaves the float range
    code, out, _ = run_cli(
        ["barrier", "--Z", "3.666546872716423e+129", "--ionization-energy",
         "2.0717069298164032e-48", "--field", "5.363371100047738e-227", "--model", "jwkb-naive"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["coord_in"] == pytest.approx(2.7433082163545293e+177, rel=1e-13)


def test_barrier_whose_peak_kappa_leaves_the_float_range_answers(capsys):
    # A2 s underflows, so the peak is (2 A3/A1)^(1/3), about 2.38e68 nm on the axis
    code, out, _ = run_cli(
        ["barrier", "--Z", "1.0181284273634001e-289", "--ionization-energy",
         "1.6043478811000583e-138", "--field", "1.4069651947950288e-207",
         "--model", "jwkb-cartesian"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["coord_in"] < 2.38e68 < record["coord_out"]


def test_barrier_whose_inner_zero_lies_below_the_float_range_exits_4(capsys):
    # the inner zero, about 3e-434 nm, rounds to zero
    code, out, err = run_cli(
        ["barrier", "--Z", "1.6876609323513246e-299", "--ionization-energy",
         "8.326454833058804e+134", "--field", "2.6331835170619706e+219", "--model", "jwkb-naive"],
        capsys,
    )
    assert code == 4
    assert out == ""
    assert err.startswith("error: the barrier at F=2.63318e+219 V/nm leaves the float range (")


GOLDEN_BARRIER = {
    "jwkb-parabolic": {
        "D_eff": 7.256519325534604e-16, "G": 35.11516142848947, "K_e": 4.774560355368984,
        "P_eff": 1.29136554784793, "P_jwkb": 0.20552721027857154,
        "coord_in": 0.13215910258311192, "coord_out": 3.291162638697561,
    },
    "jwkb-cartesian": {
        "D_eff": 7.256519325534604e-16, "G": 35.11516142848947, "K_e": 4.774560355368984,
        "P_eff": 1.29136554784793, "P_jwkb": 0.20552721027857154,
        "coord_in": 0.06607955129155596, "coord_out": 1.6455813193487805,
    },
    "jwkb-naive": {
        "D_eff": 1.374560476501433e-13, "G": 29.615472182357617, "K_e": 904.4173470422525,
        "P_eff": 1.0, "P_jwkb": 1.0,
        "coord_in": 0.11339622024659574, "coord_out": 1.587315346594014,
    },
}


@pytest.mark.parametrize("model", sorted(GOLDEN_BARRIER))
def test_barrier_golden_output(capsys, model):
    # every digit of one solve per barrier shape for H at 8 V/nm
    code, out, err = run_cli(["barrier", "--field", "8", "--model", model], capsys)
    assert code == 0
    assert err == ""
    record = {**GOLDEN_BARRIER[model], "model": model, "regime": "deep",
              "unit_system": "evnm"}
    assert out == json.dumps(record, indent=2, sort_keys=True) + "\n"


def test_sweep_ratio_between_methods_drifts_slowly(tmp_path, capsys):
    # at low field the jwkb/ll ratio column is nearly flat
    out_path = tmp_path / "r.csv"
    f_lo = 1e-3 * REGISTRY.au_field
    f_hi = 1e-2 * REGISTRY.au_field
    assert main(
        ["sweep", "--f-min", str(f_lo), "--f-max", str(f_hi), "--points", "5",
         "--methods", "ll,jwkb-parabolic", "--out", str(out_path)]
    ) == 0
    capsys.readouterr()
    rows = out_path.read_text().strip().split("\n")[1:]
    ratios = [float(r.split(",")[2]) / float(r.split(",")[1]) for r in rows]
    assert max(ratios) / min(ratios) - 1.0 < 0.02


def test_invert_round_trip_cli(capsys):
    code, out, _ = run_cli(["rate", "--Z", "1", "--field", "12"], capsys)
    target = json.loads(out)["K_e"]
    code, out, _ = run_cli(["invert", "--target", str(target), "--Z", "1"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["F"] == pytest.approx(12.0, rel=1e-10)
    assert record["residual"] < 1e-10
    assert isinstance(record["iterations"], int)


def test_invert_round_trip_cli_atomic_units(capsys):
    # --target is read in the unit of the rates that `rate --units au` prints
    code, out, _ = run_cli(["rate", "--field", "0.02", "--units", "au"], capsys)
    assert code == 0
    target = json.loads(out)["K_e"]
    code, out, _ = run_cli(["invert", "--units", "au", "--target", repr(target)], capsys)
    assert code == 0
    assert json.loads(out)["F"] == pytest.approx(0.02, rel=1e-10)


def test_invert_record_round_trips(capsys):
    code, out, _ = run_cli(["invert", "--target", "1e6", "--Z", "1"], capsys)
    assert code == 0
    record = json.loads(out)
    assert json.loads(json.dumps(record)) == record


def test_numeric_failure_exit_code(capsys, monkeypatch):
    from esfi import cli
    from esfi.errors import NumericError

    def boom(*args, **kwargs):
        raise NumericError("synthetic numeric failure")

    monkeypatch.setattr(cli, "invert_rate", boom)
    code, _, err = run_cli(["invert", "--target", "1e6", "--Z", "1"], capsys)
    assert code == 4
    assert "numeric failure" in err


def test_invert_unattainable(capsys):
    code, _, err = run_cli(["invert", "--target", "1e99", "--Z", "1"], capsys)
    assert code == 2
    assert "outside attainable range" in err


def test_barrier_naive_suppression_exit(capsys):
    code, _, err = run_cli(
        ["barrier", "--Z", "1", "--units", "au", "--field", "0.0625",
         "--model", "jwkb-naive"],
        capsys,
    )
    assert code == 3
    assert "0.0625" in err


def test_barrier_naive_suppression_names_closed_form_field(capsys):
    Z, I = 0.10570197371039264, 46.615238016885996
    code, _, err = run_cli(
        ["barrier", "--Z", repr(Z), "--ionization-energy", repr(I),
         "--field", "8445.8", "--model", "jwkb-naive"],
        capsys,
    )
    assert code == 3
    f_bs = I**2 / (4.0 * REGISTRY.e.value * Z * REGISTRY.B_H.value)
    assert f"suppression field {f_bs:.6g}" in err


@pytest.mark.parametrize("Z, field, G", [
    # G frozen from a 20-digit tanh-sinh evaluation between the polynomial
    # turning points; K_e underflows to 0 in the first case
    ("0.357", "0.0005305", 29387.830759578175),
    ("0.1262", "3.354e-3", 196.16933441069830),
])
def test_rate_jwkb_fractional_charge_deep_barrier(capsys, Z, field, G):
    code, out, _ = run_cli(
        ["rate", "--Z", Z, "--field", field, "--method", "jwkb-parabolic"], capsys
    )
    assert code == 0
    assert json.loads(out)["exponent"] == pytest.approx(G, rel=1e-12)


def test_barrier_parabolic_low_field(capsys):
    code, out, _ = run_cli(
        ["barrier", "--Z", "1", "--units", "au", "--field", "1e-3",
         "--model", "jwkb-parabolic"],
        capsys,
    )
    assert code == 0
    record = json.loads(out)
    assert record["coord_in"] == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-2)
    assert record["P_eff"] == pytest.approx(1.36, rel=2e-2)


def test_barrier_parametrizations_agree_via_cli(capsys):
    records = {}
    for model in ("jwkb-parabolic", "jwkb-cartesian"):
        code, out, _ = run_cli(
            ["barrier", "--Z", "1", "--units", "au", "--field", "5e-3",
             "--model", model],
            capsys,
        )
        assert code == 0
        records[model] = json.loads(out)
    assert records["jwkb-parabolic"]["G"] == pytest.approx(
        records["jwkb-cartesian"]["G"], abs=1e-9
    )


@pytest.mark.parametrize("argv", [
    ["rate", "--field", "inf"],
    ["rate", "--field", "nan"],
    ["barrier", "--field", "inf"],
    ["rate", "--field", "1e308", "--units", "au"],  # overflows in V/nm
    ["invert", "--target", "1e6", "--f-lo", "1e-300", "--f-hi", "1e308", "--units", "au"],
    ["barrier", "--field", "1e308", "--units", "au"],
    ["invert", "--target", "1e308", "--units", "au"],  # overflows in s^-1
    ["invert", "--target", "1e6", "--f-lo", "1e308", "--f-hi", "inf", "--units", "au"],
])
def test_non_finite_input_exits_2(capsys, argv):
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err
    # the message names the first offending flag, its value and unit system
    flag, value = next((f, v) for f, v in zip(argv, argv[1:]) if v in ("inf", "nan", "1e308"))
    units = argv[argv.index("--units") + 1] if "--units" in argv else "evnm"
    assert err.startswith(f"error: {flag} {float(value)} ({units}) is not finite")


def _library_call(argv):
    """The library call behind `esfi rate ...` with these flags."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    I = flags.get("--ionization-energy")
    atom = make_atom(float(flags.get("--Z", 1.0)), None if I is None else float(I))
    F, method = float(flags["--field"]), flags.get("--method", "ll")
    if method == "ll":
        return rate_ll(atom, F, allow_shallow=True)
    return rate_jwkb(MotiveModel(MotiveVariant(method), atom, F))


@pytest.mark.parametrize("argv, code", [
    # I = Z^2 I_H whose square overflows, or which underflows to zero
    (["rate", "--Z", "1e100", "--field", "1"], 2),
    (["rate", "--Z", "1e100", "--field", "1", "--method", "jwkb-parabolic"], 2),
    (["rate", "--Z", "1e200", "--field", "1"], 2),
    (["rate", "--Z", "1e-200", "--field", "1", "--method", "jwkb-parabolic"], 2),
    # the suppression field's z*^3 or B^2 overflowed; the field is far past it
    (["rate", "--Z", "1e-160", "--field", "1e-300", "--method", "jwkb-cartesian"], 3),
    (["rate", "--Z", "1e155", "--ionization-energy", "1", "--field", "1",
      "--method", "jwkb-parabolic"], 3),
    # float arithmetic past the float range, far above suppression
    (["rate", "--Z", "1e-60", "--field", "1e300", "--method", "jwkb-parabolic"], 3),
    (["rate", "--field", "1e308", "--method", "jwkb-cartesian"], 3),
    # quadrature nodes c or 1/c past the float range
    (["rate", "--ionization-energy", "1e12", "--field", "1e-288", "--method", "jwkb-naive"], 4),
    (["rate", "--Z", "1e-320", "--ionization-energy", "1e-10", "--field", "1e-6",
      "--method", "jwkb-naive"], 4),
    # atoms that worked before keep working
    (["rate", "--Z", "1e-30", "--field", "1", "--method", "jwkb-naive"], 3),
    (["rate", "--Z", "1e70", "--field", "1", "--method", "jwkb-parabolic"], 0),
    (["rate", "--Z", "1e40", "--field", "1"], 0),
])
def test_extreme_atoms_keep_the_error_contract(capsys, argv, code):
    got, out, err = run_cli(argv, capsys)
    assert got == code
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        with pytest.raises(EsfiError):
            _library_call(argv)
    else:
        assert math.isfinite(json.loads(out)["exponent"])


def test_rate_output_may_be_infinite(capsys):
    # outputs are converted as plain floats: an overflowing pre-exponential
    # prints as Infinity instead of failing the call
    code, out, _ = run_cli(["rate", "--field", "1e-300", "--units", "si"], capsys)
    assert code == 0
    record = json.loads(out)
    assert record["pre_exponential"] == math.inf
    assert record["K_e"] == 0.0


def test_main_looks_up_the_command_per_call(capsys, monkeypatch):
    from esfi import cli

    assert main(["rate", "--field", "12"]) == 0  # the parser exists now
    calls = []
    monkeypatch.setattr(cli, "cmd_rate", lambda args: calls.append(args.field) or 0)
    assert main(["rate", "--field", "7"]) == 0
    assert calls == [7.0]
    capsys.readouterr()


_COMMANDS = ["constants", "rate", "sweep", "invert", "barrier"]
_SWEEP = ["sweep", "--f-min", "2", "--f-max", "14"]


@pytest.mark.parametrize("argv, full", [
    # valid: every command, --flag=value, abbreviated long options,
    # negative values, "--"
    (["constants"], False),
    (["constants", "--units", "au", "--format", "csv", "--out", "c.csv"], False),
    (["rate", "--field", "12"], False),
    (["rate", "--field=12", "--method=jwkb-parabolic", "--Z=2", "--units=si"], False),
    (["rate", "--fie", "12", "--meth", "ll", "--ion", "20", "--un", "au"], False),
    (["rate", "--field", "-3", "--Z", "-1"], False),
    (["rate", "--field", "-1e-3", "--ionization-energy=-5"], False),
    (_SWEEP + ["--points", "5", "--methods", "ll,jwkb-naive", "--spacing", "linear",
               "--units", "si", "--ionization-energy", "20", "--Z", "2", "--out", "s.csv"], False),
    (["sweep", "--f-mi", "-2", "--f-ma=14", "--po", "-5", "--sp", "log"], False),
    (["invert", "--target", "1e9", "--f-lo", "1", "--f-hi", "50", "--method",
      "jwkb-cartesian", "--units", "evnm", "--out", "i.json"], False),
    (["invert", "--tar=1e9", "--f-l", "-1"], False),
    (["barrier", "--field", "8", "--model", "jwkb-naive", "--simple", "--Z", "0.5"], False),
    (["barrier", "--fi", "8", "--mo=jwkb-cartesian", "--si"], False),
    (["rate", "--", "--field", "12"], False),
    (["rate", "--field", "12", "--"], True),
    (["--", "rate", "--field", "12"], True),
    # help, per command and at the top
    *[([name, flag], False) for name in _COMMANDS for flag in ("-h", "--help")],
    (["sweep", "--he"], False),
    (["--help"], True),
    (["-h"], True),
    (["--version"], True),
    (["--vers"], True),
    # invalid
    ([], True),
    (["frobnicate"], True),
    (["rat", "--field", "12"], True),
    (["RATE", "--field", "12"], True),
    (["--Z", "1", "rate", "--field", "12"], True),
    (["rate", "--field", "12", "--bogus"], True),
    (["rate", "--field", "12", "extra"], True),
    (["rate", "--field", "12", "--", "extra"], True),
    (["rate", "--field", "12", "--version"], True),
    (["rate"], False),
    (["sweep", "--f-min", "2"], False),
    (["rate", "--field", "abc"], False),
    (_SWEEP + ["--points", "2.5"], False),
    (["rate", "--field", "12", "--method", "wkb"], False),
    (["constants", "--units", "cgs"], False),
    (["barrier", "--field", "8", "--model", "jwkb"], False),
    (["rate", "--field"], False),
    (["rate", "--field", "12", "--field"], False),
])
def test_main_parses_as_the_full_parser_does(capsys, monkeypatch, argv, full):
    # main hands a command's arguments to its own sub-parser, and what the
    # top-level pass could word otherwise to the full parser (full): both
    # give the exit code, output and Namespace of build_parser().parse_args
    def outcome(call):
        try:
            value, code = call(), 0
        except SystemExit as exc:
            value, code = None, exc.code
        return (code, *capsys.readouterr(), value)

    parser = cli._parsers()[0]
    parse_args = parser.parse_args
    full_parses = []

    def counted(args):
        full_parses.append(args)
        return parse_args(args)

    monkeypatch.setattr(parser, "parse_args", counted)
    expected = outcome(lambda: vars(cli.build_parser().parse_args(list(argv))))
    assert expected[0] in (0, 2)
    seen = []
    for name in _COMMANDS:
        monkeypatch.setattr(cli, f"cmd_{name}", lambda args: seen.append(vars(args)) or 0)
    got = outcome(lambda: main(list(argv)) or (seen.pop() if seen else None))
    assert got == expected
    assert len(full_parses) == full
    # the console script's path: main() reads sys.argv
    monkeypatch.setattr(sys, "argv", ["esfi"] + argv)
    assert outcome(lambda: main() or (seen.pop() if seen else None)) == expected
    assert seen == []


def test_rate_si_field_input_matches_evnm(capsys):
    code, out_si, _ = run_cli(["rate", "--Z", "1", "--field", "1.2e10", "--units", "si"], capsys)
    assert code == 0
    code, out_ev, _ = run_cli(["rate", "--Z", "1", "--field", "12"], capsys)
    assert code == 0
    k_si = json.loads(out_si)["K_e"]
    k_ev = json.loads(out_ev)["K_e"]
    assert k_si == pytest.approx(k_ev, rel=1e-12)


def test_constants_out_file(tmp_path, capsys):
    path = tmp_path / "constants.json"
    assert main(["constants", "--format", "json", "--out", str(path)]) == 0
    capsys.readouterr()
    record = json.loads(path.read_text())
    assert record["I_H"]["value"] == pytest.approx(13.60569, rel=5e-7)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "esfi.cli", "constants", "--format", "csv"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("symbol,value,units")


def test_cli_import_leaves_scipy_unloaded():
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, esfi.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
