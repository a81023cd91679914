"""Command-line interface: constants dump, rate evaluation, field sweeps,
barrier inspection and inverse field calibration.

Exit codes: 0 success, 2 validation failure, 3 regime failure (shallow
tunnelling / suppressed barrier), 4 numeric failure.  Setting
ESFI_GUARD_OVERRIDE=1 disables the deep-tunnelling guard for the
closed-form methods; such results are labelled 'extrapolated'.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import sys
from typing import Optional

import numpy as np

from . import __version__
from .barrier import MotiveModel, MotiveVariant, rate_jwkb, rate_jwkb_array
from .errors import (
    BarrierSuppressed,
    NonFiniteValue,
    NumericError,
    RegimeError,
    ShallowTunnellingRegime,
    ValidationError,
)
from .hydrogenic import make_atom
from .invert import invert_rate
from .rates import rate_ll, rate_ll_array
from .units import (
    FIELD,
    FREQUENCY,
    LENGTH,
    REGISTRY,
    UnitSystem,
    convert,
    from_canonical,
    to_canonical,
)

_METHODS = ("ll", "jwkb-parabolic", "jwkb-cartesian", "jwkb-naive")
_ROWS_PER_WRITE = 65536  # sweep rows formatted and written at a time
# below this many cells a block is cheaper to format one row at a time: the
# vectorised writer's fixed cost is some 40 numpy calls, which whole sweeps
# recoup at about 160 cells for closed-form blocks and about 400 for JWKB
# blocks with refused cells, whose solves leave the writer's caches cold
_VECTOR_CELLS = 400
_SLOT = 20  # bytes per cell: "-1.234567890e-308", its separator and zero bytes
_EXP_LO, _EXP_HI = -330, 330  # decimal exponents of the tables; float64 spans -324..308
_WIDE = np.longdouble  # type of the scaled significand; its precision sets the doubt margin


def _guard_override() -> bool:
    return os.environ.get("ESFI_GUARD_OVERRIDE", "") == "1"


@contextlib.contextmanager
def _output(out: Optional[str]):
    if out:
        with open(out, "w", newline="\n") as fh:
            yield fh
    else:
        yield sys.stdout


def _emit(text: str, out: Optional[str]) -> None:
    with _output(out) as fh:
        fh.write(text)


def _emit_json(record: dict, out: Optional[str]) -> None:
    _emit(json.dumps(record, indent=2, sort_keys=True) + "\n", out)


def cmd_constants(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    rows = []
    for name, quantity in REGISTRY.constants().items():
        if system is UnitSystem.SI and name in REGISTRY.SI_NOT_USED:
            continue
        c = convert(quantity, system)
        rows.append((name, c.value, c.units, REGISTRY.sig_figs(name)))
    if args.format == "csv":
        lines = ["symbol,value,units"]
        lines += [f"{name},{value:.9e},{units}" for name, value, units, _ in rows]
        _emit("\n".join(lines) + "\n", args.out)
    else:
        record = {
            name: {
                "value": value,
                "units": units,
                "unit_system": system.value,
                "sig_figs": figs,
            }
            for name, value, units, figs in rows
        }
        _emit_json(record, args.out)
    return 0


def _canonical(value: float, dim, system: UnitSystem, flag: str) -> float:
    """A command-line value in canonical units; one that is not finite
    there is an error naming its flag, value and unit system."""
    try:
        return to_canonical(value, dim, system).value
    except NonFiniteValue:
        raise NonFiniteValue(
            f"{flag} {value} ({system.value}) is not finite in "
            f"{dim.label(UnitSystem.EVNM)}"
        ) from None


def _rate_record(atom, method: str, F_canonical: float, allow_shallow: bool) -> dict:
    """Evaluate one method at one canonical field; values still canonical."""
    if method == "ll":
        r = rate_ll(atom, F_canonical, allow_shallow=allow_shallow)
        return {
            "K_e": r.K_e,
            "pre_exponential": r.pre_exponential,
            "exponent": r.exponent,
            "D_eff": r.D_eff,
            "T": r.T,
            "regime": r.regime,
        }
    sol = rate_jwkb(MotiveModel(MotiveVariant(method), atom, F_canonical))
    pre = atom.nu_Z * sol.P_eff
    return {
        "K_e": sol.K_e,
        "pre_exponential": pre,
        "exponent": sol.G,
        "D_eff": sol.D_eff,
        "T": sol.P_jwkb * math.exp(-sol.G),
        "regime": sol.regime,
    }


def cmd_rate(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    F_canonical = _canonical(args.field, FIELD, system, "--field")
    atom = make_atom(args.Z, args.ionization_energy)
    rec = _rate_record(atom, args.method, F_canonical, _guard_override())
    record = {
        "method": args.method,
        "unit_system": system.value,
        "Z": args.Z,
        "ionization_energy_eV": atom.I,
        "field": args.field,
        "K_e": from_canonical(rec["K_e"], FREQUENCY, system),
        "pre_exponential": from_canonical(rec["pre_exponential"], FREQUENCY, system),
        "exponent": rec["exponent"],
        "D_eff": rec["D_eff"],
        "T": rec["T"],
        "regime": rec["regime"],
    }
    _emit_json(record, args.out)
    return 0


def _sweep_column(method: str, atom, F: np.ndarray, allow_shallow: bool):
    """K_e and exponent of one method over canonical fields, nan where the
    method refuses a field."""
    if method == "ll":
        r = rate_ll_array(atom, F)
        refused = ~((F > 0.0) & (r.deep | allow_shallow))
        return np.where(refused, np.nan, r.K_e), np.where(refused, np.nan, r.exponent)
    sol = rate_jwkb_array(MotiveVariant(method), atom, F)
    return sol.K_e, sol.G


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """Each text zero-padded to `width` bytes, as a row of 4-byte words."""
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint32).reshape(len(texts), width // 4)


@functools.cache
def _csv_tables(wide):
    """Lookup tables of the vectorised writer, as 4-byte words whose zero
    bytes the writer strips: sign, first digit, point and second digit
    for each sign and pair of digits; each group of four digits; "e", the
    exponent's sign and its digits for each exponent E (two words, the
    hundreds a zero byte below 100); nan, inf and -inf; and 10^(9 - E) in
    `wide`, rounded once from its decimal string."""
    heads = _words([b"%c%d.%d" % (s, i // 10, i % 10) for s in b"\0-" for i in range(100)], 4)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32)
    exps = range(_EXP_LO, _EXP_HI + 1)
    exponents = _words(
        [b"e%c%s" % (b"+-"[e < 0], (b"%02d" % abs(e)).rjust(3, b"\0")) for e in exps], 8
    )
    specials = _words([b"nan", b"inf", b"-inf"], _SLOT)
    powers = np.array([wide(f"1e{9 - e}") for e in exps])
    powers.setflags(write=False)  # shared by every caller through the cache
    return heads.ravel(), quads.ravel(), exponents[:, 0], exponents[:, 1], specials, powers


def _significands(x: np.ndarray, powers: np.ndarray):
    """Each cell's decimal exponent E and ten significant digits m, the
    integer nearest to y = |x| 10^(9 - E) with y in [1e9, 1e10) (m = 0
    for zeros, any value for nan and inf), and the cells where m is in
    doubt. `_WIDE` carries y to about 1e-9, while Python rounds the exact
    value half to even: a cell whose y lies within 64 `_WIDE` epsilons
    (times 1e10) of a half-integer is in doubt, as is one whose y stays
    out of range."""
    a = np.abs(x)
    zero = a == 0.0
    a[zero | ~np.isfinite(x)] = 1.0  # scaled to exactly 1e9 below
    E = np.floor(np.log10(a)).astype(np.intp)
    y = a.astype(_WIDE) * powers[E - _EXP_LO]
    y64 = y.astype(np.float64)
    # log10 can land one off next to a power of ten; within 0.05 of either
    # end of the range, y rounds to the same text on both sides
    off = np.flatnonzero((y64 < 1e9) | (y64 >= 1e10))
    if off.size:
        E[off] += np.where(y64[off] < 1e9, -1, 1)
        y[off] = a[off].astype(_WIDE) * powers[E[off] - _EXP_LO]
        y64[off] = y[off]
        off = off[~((y64[off] >= 1e9) & (y64[off] < 1e10))]
        y[off] = y64[off] = 1e9 + 0.5  # a tie, so in doubt below
    m = np.rint(y64)
    margin = 64 * np.finfo(_WIDE).eps * 1e10
    # y64 is y to within 2^-20, so only cells that close to doubt need y
    near = np.flatnonzero(np.abs(y64 - m) > 0.5 - margin - 2.0**-20)
    doubtful = near[~(np.abs((y[near] - m[near]).astype(np.float64)) < 0.5 - margin)]
    carry = m == 1e10
    E += carry
    m[carry] = 1e9
    m[zero] = 0.0
    return E, m.astype(np.int64), doubtful


def _csv_rows(columns: list[np.ndarray]) -> str:
    """Float64 columns as CSV rows of "%.9e" cells, byte-identical to
    formatting each row with Python's % operator: a small block takes %
    itself, a larger one is assembled from lookup tables, with only the
    cells in doubt formatted by %."""
    if len(columns) * columns[0].size < _VECTOR_CELLS:
        row = ",".join(["%.9e"] * len(columns)) + "\n"
        return "".join([row % values for values in zip(*[c.tolist() for c in columns])])
    heads, quads, exp_heads, exp_tails, specials, powers = _csv_tables(_WIDE)
    x = np.column_stack(columns).ravel()
    E, m, doubtful = _significands(x, powers)
    pair = m // 10**8
    low8 = m - pair * 10**8
    high4 = low8 // 10**4

    words = np.empty((x.size, _SLOT // 4), np.uint32)
    words[:, 0] = heads.take(pair + 100 * np.signbit(x))
    words[:, 1] = quads.take(high4)
    words[:, 2] = quads.take(low8 - high4 * 10**4)
    words[:, 3] = exp_heads.take(E - _EXP_LO)
    words[:, 4] = exp_tails.take(E - _EXP_LO)
    special = ~np.isfinite(x)
    if special.any():
        s = x[special]
        words[special] = specials.take(np.isinf(s) * (1 + np.signbit(s)), axis=0)
    text = words.view(np.uint8)
    for i in doubtful:
        text[i] = 0
        cell = b"%.9e" % x[i]
        text[i, : len(cell)] = list(cell)
    text[:, _SLOT - 1] = ord(",")
    text[len(columns) - 1 :: len(columns), _SLOT - 1] = ord("\n")
    return text.tobytes().translate(None, b"\0").decode("ascii")


def cmd_sweep(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    if not (0.0 < args.f_min < args.f_max < math.inf):
        raise ValidationError(
            f"sweep requires 0 < F_min < F_max, got ({args.f_min}, {args.f_max})"
        )
    if not (2 <= args.points <= 10**6):
        raise ValidationError(f"points must be in [2, 1e6], got {args.points}")
    methods = []
    for m in args.methods.split(","):
        m = m.strip()
        if m not in _METHODS:
            raise ValidationError(f"unknown method {m!r}; choose from {_METHODS}")
        if m not in methods:
            methods.append(m)
    atom = make_atom(args.Z, args.ionization_energy)
    allow_shallow = _guard_override()

    if args.spacing == "log":
        grid = np.geomspace(args.f_min, args.f_max, args.points)
    else:
        grid = np.linspace(args.f_min, args.f_max, args.points)
    scale = to_canonical(1.0, FIELD, system).value
    if not args.f_max * scale < math.inf:
        raise ValidationError(f"F_max {args.f_max} exceeds the float range in V/nm")
    F = grid * scale  # the same product as converting each field on its own

    columns = [_sweep_column(m, atom, F, allow_shallow) for m in methods]
    # a refused cell goes through the scalar path, which gives the reason
    # (or, at a rounding-level boundary, the value)
    refused = np.zeros(F.size, dtype=bool)
    for _, exponent in columns:
        refused |= np.isnan(exponent)
    for i in np.flatnonzero(refused):
        for m, (K, exponent) in zip(methods, columns):
            if not np.isnan(exponent[i]):
                continue
            try:
                rec = _rate_record(atom, m, float(F[i]), allow_shallow)
            except (ValidationError, RegimeError, NumericError) as exc:
                print(f"note: {m} at F={grid[i]:.9e}: {exc}", file=sys.stderr)
            else:
                K[i], exponent[i] = rec["K_e"], rec["exponent"]

    cells = [grid] + [from_canonical(K, FREQUENCY, system) for K, _ in columns]
    cells += [e for _, e in columns]
    with _output(args.out) as fh:
        fh.write(
            "F,"
            + ",".join(f"K_{m}" for m in methods)
            + ","
            + ",".join(f"exponent_{m}" for m in methods)
            + "\n"
        )
        for start in range(0, F.size, _ROWS_PER_WRITE):
            fh.write(_csv_rows([c[start : start + _ROWS_PER_WRITE] for c in cells]))
    return 0


def cmd_invert(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    atom = make_atom(args.Z, args.ionization_energy)
    bracket = None
    if args.f_lo is not None or args.f_hi is not None:
        if args.f_lo is None or args.f_hi is None:
            raise ValidationError("provide both --f-lo and --f-hi or neither")
        bracket = (
            _canonical(args.f_lo, FIELD, system, "--f-lo"),
            _canonical(args.f_hi, FIELD, system, "--f-hi"),
        )
    target = _canonical(args.target, FREQUENCY, system, "--target")
    result = invert_rate(target, atom, method=args.method, bracket=bracket)
    record = {
        "F": from_canonical(result.F, FIELD, system),
        "iterations": result.iterations,
        "residual": result.residual,
        "unit_system": system.value,
    }
    _emit_json(record, args.out)
    return 0


def cmd_barrier(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    atom = make_atom(args.Z, args.ionization_energy)
    F_canonical = _canonical(args.field, FIELD, system, "--field")
    try:
        sol = rate_jwkb(
            MotiveModel(MotiveVariant(args.model), atom, F_canonical),
            simple_prefactor=args.simple,
        )
    except BarrierSuppressed as exc:
        if exc.suppression_field is not None:
            f_bs = from_canonical(exc.suppression_field, FIELD, system)
            raise BarrierSuppressed(
                f"barrier suppressed for {args.model}: field "
                f"{args.field:.6g} is at or above the suppression field "
                f"{f_bs:.6g} ({system.value})",
                exc.suppression_field,
            ) from exc
        raise
    record = {
        "model": args.model,
        "unit_system": system.value,
        "coord_in": from_canonical(sol.coord_in, LENGTH, system),
        "coord_out": from_canonical(sol.coord_out, LENGTH, system),
        "G": sol.G,
        "P_jwkb": sol.P_jwkb,
        "P_eff": sol.P_eff,
        "D_eff": sol.D_eff,
        "K_e": from_canonical(sol.K_e, FREQUENCY, system),
        "regime": sol.regime,
    }
    _emit_json(record, args.out)
    return 0


def _add_atom_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--Z", type=float, default=1.0, help="charge number (default 1)")
    p.add_argument(
        "--ionization-energy",
        type=float,
        default=None,
        metavar="EV",
        help="override the ionization energy [eV] (B stays Z-based)",
    )


def _add_units_flag(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--units",
        choices=["si", "evnm", "au"],
        default="evnm",
        help="unit system for fields and rates (default evnm: V/nm, s^-1)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esfi",
        description="Field-ionization rate constants for ground-state "
        "hydrogenic atoms (closed-form and JWKB barrier routes).",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="dump the constants registry")
    _add_units_flag(p)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None, help="output path (default stdout)")

    p = sub.add_parser("rate", help="evaluate a single rate constant")
    _add_atom_flags(p)
    p.add_argument("--field", type=float, required=True, help="field magnitude")
    _add_units_flag(p)
    p.add_argument("--method", choices=_METHODS, default="ll")
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="rate constants over a field grid (CSV)")
    _add_atom_flags(p)
    p.add_argument("--f-min", type=float, required=True)
    p.add_argument("--f-max", type=float, required=True)
    p.add_argument("--points", type=int, default=50)
    p.add_argument("--spacing", choices=["linear", "log"], default="log")
    p.add_argument(
        "--methods",
        default="ll",
        help="comma-separated subset of " + ",".join(_METHODS),
    )
    _add_units_flag(p)
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")

    p = sub.add_parser("invert", help="solve K_e(F) = target for F")
    _add_atom_flags(p)
    p.add_argument("--target", type=float, required=True, help="target rate in --units")
    p.add_argument("--method", choices=_METHODS, default="ll")
    p.add_argument("--f-lo", type=float, default=None, help="bracket low end")
    p.add_argument("--f-hi", type=float, default=None, help="bracket high end")
    _add_units_flag(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("barrier", help="inspect a JWKB barrier solution")
    _add_atom_flags(p)
    p.add_argument("--field", type=float, required=True)
    p.add_argument(
        "--model",
        choices=[v.value for v in MotiveVariant],
        default="jwkb-parabolic",
        help="barrier shape; coordinates in the output are eta for "
        "jwkb-parabolic and z on the symmetry axis otherwise",
    )
    p.add_argument(
        "--simple",
        action="store_true",
        help="use the plain attempt-frequency estimate (tunnelling pre-factor 1)",
    )
    _add_units_flag(p)
    p.add_argument("--out", default=None)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv: Optional[list[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # looked up per call, so that a rebound cmd_* name takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RegimeError as exc:
        hint = (
            "; set ESFI_GUARD_OVERRIDE=1 to extrapolate"
            if isinstance(exc, ShallowTunnellingRegime)
            else ""
        )
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
