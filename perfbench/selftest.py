"""Tests of the benchmark itself: every check passes on the program's real
output and rejects a perturbed copy of it, the known faults F1-F3 count
as failures with their error class, and the tracer rebinds and restores.

    python3 -m pytest perfbench/selftest.py
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import oracle as o  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402


def checked(wl, op, result) -> W.Tally:
    tally = W.Tally()
    wl.check(op, result, tally)
    return tally


def assert_clean(tally: W.Tally) -> None:
    assert tally.problems == [] and tally.failed == 0, (tally.problems, tally.failures)


def scaled(s: str, factor: float) -> str:
    return f"{float(s) * factor:.9e}"


def eighth_digit_up(s: str) -> str:
    """The number with its 8th significant digit raised by one."""
    v = float(s)
    return f"{v + math.copysign(10.0 ** (math.floor(math.log10(abs(v))) - 7), v):.9e}"


def edit_csv(out: str, row: int, col: int, text: str) -> str:
    lines = out.splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def rows_of(out: str) -> list:
    return [ln.split(",") for ln in out.splitlines()[1:]]


# ------------------------------------------------------------ closed form

@pytest.mark.parametrize("index", range(5))
def test_sweep_ll_rejects_rate_scaled_by_1e_7(index):
    wl = W.SweepLL(1)
    op = wl.round_ops(0)[index]
    rc, out, err = W.run_cli_inprocess(op.argv)
    assert_clean(checked(wl, op, (rc, out, err)))
    rows = rows_of(out)
    j = max(i for i, r in enumerate(rows) if float(r[1]) > 1e-300)
    bad = edit_csv(out, j + 1, 1, scaled(rows[j][1], 1 + 1e-7))
    assert checked(wl, op, (rc, bad, err)).problems


def test_sweep_ll_checks_the_exponent_where_the_rate_underflows():
    wl = W.SweepLL(1)
    op = wl.round_ops(0)[0]
    rc, out, err = W.run_cli_inprocess(op.argv)
    rows = rows_of(out)
    assert float(rows[0][1]) == 0.0, "the grid should start where K underflows"
    bad = edit_csv(out, 1, 2, eighth_digit_up(rows[0][2]))
    assert checked(wl, op, (rc, bad, err)).problems


# ------------------------------------------------------------------- JWKB

@pytest.fixture(scope="module")
def jwkb_sweep():
    wl = W.SweepJWKB(1)
    op = wl.round_ops(0)[0]
    result = W.run_cli_inprocess(op.argv)
    assert_clean(checked(wl, op, result))
    return wl, op, result


def first_numeric(out: str, col: int, minimum: float = 1.0) -> int:
    return next(i for i, r in enumerate(rows_of(out)) if r[col] != "nan" and float(r[col]) > minimum)


def test_naive_G_shifted_in_8th_digit_is_rejected(jwkb_sweep):
    wl, op, (rc, out, err) = jwkb_sweep
    j = first_numeric(out, 6)  # exponent_jwkb-naive
    bad = edit_csv(out, j + 1, 6, eighth_digit_up(rows_of(out)[j][6]))
    assert checked(wl, op, (rc, bad, err)).problems


def test_parabolic_cartesian_disagreement_is_rejected(jwkb_sweep):
    wl, op, (rc, out, err) = jwkb_sweep
    j = first_numeric(out, 5)  # exponent_jwkb-cartesian
    bad = edit_csv(out, j + 1, 5, eighth_digit_up(rows_of(out)[j][5]))
    assert checked(wl, op, (rc, bad, err)).problems


def test_refusal_below_suppression_is_rejected(jwkb_sweep):
    wl, op, (rc, out, err) = jwkb_sweep
    j = first_numeric(out, 1)
    F = rows_of(out)[j][0]
    f_bs = o.suppression_field(o.Atom(op.spec["Z"]), "jwkb-parabolic")
    bad = edit_csv(edit_csv(out, j + 1, 1, "nan"), j + 1, 4, "nan")
    note = (f"note: jwkb-parabolic at F={F}: barrier vanished at F={float(F):.6g} V/nm "
            f"(suppression field {float(f_bs):.6g} V/nm for jwkb-parabolic)\n")
    tally = checked(wl, op, (rc, bad, err + note))
    assert any("below suppression" in p for p in tally.problems)


def test_refusals_past_suppression_are_correct(jwkb_sweep):
    wl, op, (rc, out, err) = jwkb_sweep
    assert "barrier vanished" in err  # the grid reaches past both suppression fields
    assert rows_of(out)[-1][1] == "nan"


# ------------------------------------------------------------- CLI outputs

@pytest.mark.parametrize("index", range(6))
def test_cli_outputs_pass_and_reject_perturbation(index):
    wl = W.CliCold(1)
    op = wl.round_ops(0)[index]
    rc, out, err = W.run_cli_inprocess(op.argv)
    assert_clean(checked(wl, op, (rc, out, err)))
    kind = op.spec["kind"]
    if kind == "constants":
        bad = out.replace("5.123167332e+00", "5.123168332e+00")  # sigma, 7th digit
        assert bad != out
    else:
        rec = json.loads(out)
        key = {"rate-ll": "K_e", "rate-jwkb": "K_e", "barrier": "G", "invert": "F"}[kind]
        rec[key] *= 1 + 1e-7
        bad = json.dumps(rec)
    assert checked(wl, op, (rc, bad, err)).problems


@pytest.mark.parametrize("cls", [W.CalibrateLL, W.CalibrateJWKB])
def test_inversion_field_off_by_1e_7_is_rejected(cls):
    wl = cls(1)
    op = wl.round_ops(0)[0]
    result = W.run_invert(op.invert)
    assert_clean(checked(wl, op, result))
    bad = W._Inverted(result.F * (1 + 1e-7), result.iterations, result.residual)
    assert checked(wl, op, bad).problems


# ------------------------------------------------------------ known faults

def test_F1_is_a_failure_with_its_error_class():
    wl = W.CliCold(1)
    op = wl.round_ops(0)[-1]
    assert op.known == "F1"
    tally = checked(wl, op, W.run_cli_subprocess(op.argv))
    assert tally.failures == {"F1:ValueError": 1} and tally.problems == []


def test_F1_mended_to_exit_3_counts_as_correct():
    wl = W.CliCold(1)
    op = wl.round_ops(0)[-1]
    f_bs = o.suppression_field(o.Atom(W.F1_Z, W.F1_I), "jwkb-naive")
    message = f"error: barrier suppressed: field 8445.8 is at or above the suppression field {float(f_bs):.6g} (evnm)\n"
    assert_clean(checked(wl, op, (3, "", message)))
    assert checked(wl, op, (3, "", message.replace("field 3", "field 4"))).failed == 1


@pytest.mark.parametrize("known, expected", [("F2", {"F2:BracketingFailure": 10}),
                                             ("F3", {"F3:QuadratureNonConvergence": 3})])
def test_F2_F3_are_failures_with_their_error_class(known, expected):
    wl = W.SweepJWKB(1)
    op = next(op for op in wl.round_ops(0) if op.known == known)
    tally = checked(wl, op, W.run_cli_inprocess(op.argv))
    assert tally.failures == expected and tally.problems == []


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_rounds_have_the_same_size_for_every_seed(name):
    sizes = set()
    for seed in (1, 2, 3):
        wl = W.WORKLOADS[name](seed)
        sizes.add(tuple((wl.cells(op), op.known, op.argv[0] if op.argv else op.invert[3])
                        for op in wl.round_ops(5)))
    assert len(sizes) == 1


# ----------------------------------------------------------------- tracing

def test_tracer_rebinds_every_importer_and_restores():
    import esfi
    import esfi.barrier
    import esfi.cli
    import esfi.invert
    import esfi.rates

    originals = (esfi.cli.rate_ll, esfi.invert.rate_jwkb, esfi.barrier.motive, esfi.invert_rate)
    assert not any(hasattr(f, "__wrapped__") for f in originals)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert esfi.cli.rate_ll.__wrapped__ is originals[0]
        assert esfi.invert.rate_jwkb.__wrapped__ is originals[1]
        assert esfi.barrier.motive.__wrapped__ is originals[2]
        W.run_cli_inprocess(["rate", "--field", "12", "--method", "jwkb-parabolic"])
    finally:
        tracer.uninstall()
    assert (esfi.cli.rate_ll, esfi.invert.rate_jwkb, esfi.barrier.motive, esfi.invert_rate) == originals
    s = tracer.summary()
    assert s["calls"]["cli.main"] == 1 and s["calls"]["barrier.rate_jwkb"] == 1
    assert s["motive_points_in_rate_jwkb"] > 100
    assert 0 < s["turning_points_in_rate_jwkb"] < s["total"]["barrier.rate_jwkb"]
