"""Command-line surface: formats, exit codes, determinism."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from esfi.barrier import MotiveModel, MotiveVariant, rate_jwkb, rate_jwkb_array
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


def _scalar_sweep(Z, I, units, f_min, f_max, points, methods, allow_shallow):
    """The sweep CSV and notes rebuilt field by field from the scalar
    rate_ll and rate_jwkb, except that numeric JWKB cells carry the array
    solver's values, which are checked against the scalar ones here."""
    system = UnitSystem(units)
    atom = make_atom(Z, I)
    grid = np.geomspace(f_min, f_max, points)
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
