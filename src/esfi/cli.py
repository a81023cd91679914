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
from typing import NamedTuple, Optional

import numpy as np

from . import __version__
from .barrier import (
    MotiveModel,
    MotiveVariant,
    _barrier_suppressed,
    _rate_jwkb_arrays,
    rate_jwkb,
    suppression_field,
)
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
from .rates import _check_field, _ll_rate_and_exponent, guard_field, rate_ll
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
# sweep rows solved, noted and written at a time; a multiple of the JWKB
# array solver's block, so that each field is solved beside the same
# neighbours however long the sweep
_ROWS_PER_WRITE = 65536
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
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, "w", newline="\n")
    except OSError as exc:
        raise ValidationError(f"cannot write --out {out}: {exc.strerror}") from None
    with fh:
        yield fh


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


def cmd_rate(args: argparse.Namespace) -> int:
    system = UnitSystem(args.units)
    F_canonical = _canonical(args.field, FIELD, system, "--field")
    atom = make_atom(args.Z, args.ionization_energy)
    if args.method == "ll":
        r = rate_ll(atom, F_canonical, allow_shallow=_guard_override())
        pre, exponent, T = r.pre_exponential, r.exponent, r.T
    else:
        r = rate_jwkb(MotiveModel(MotiveVariant(args.method), atom, F_canonical))
        pre, exponent, T = atom.nu_Z * r.P_eff, r.G, r.P_jwkb * math.exp(-r.G)
    record = {
        "method": args.method,
        "unit_system": system.value,
        "Z": args.Z,
        "ionization_energy_eV": atom.I,
        "field": args.field,
        "K_e": from_canonical(r.K_e, FREQUENCY, system),
        "pre_exponential": from_canonical(pre, FREQUENCY, system),
        "exponent": exponent,
        "D_eff": r.D_eff,
        "T": T,
        "regime": r.regime,
    }
    _emit_json(record, args.out)
    return 0


class _Column(NamedTuple):
    """One method's cells of a sweep over canonical fields, and what words
    the notes of its refused cells."""

    K: np.ndarray  # K_e, nan where the method refuses a field
    exponent: np.ndarray  # nan where the method refuses a field
    # index -> error text of each JWKB field that rate_jwkb refused; every
    # other refused JWKB field lies past the suppression field
    refusals: dict
    f_bs: Optional[float]  # the JWKB shape's suppression field


def _sweep_columns(methods: list[str], atom, F: np.ndarray, allow_shallow: bool):
    """The :class:`_Column` of each method over canonical fields F."""
    variants = [MotiveVariant(m) for m in methods if m != "ll"]
    jwkb = iter(_rate_jwkb_arrays(variants, atom, F) if variants else ())
    columns = []
    for method in methods:
        if method == "ll":
            K, exponent = _ll_rate_and_exponent(atom, F)
            refused = ~((F > 0.0) & ((F < guard_field(atom)) | allow_shallow))
            K[refused] = exponent[refused] = np.nan
            columns.append(_Column(K, exponent, {}, None))
            continue
        sol, refusals = next(jwkb)
        f_bs = suppression_field(atom, MotiveVariant(method))
        columns.append(_Column(sol.K_e, sol.G, refusals, f_bs))
    return columns


def _refusal(method: str, atom, F_canonical: float, allow_shallow: bool, f_bs) -> str:
    """The text of the scalar path's error at a field that a sweep refused
    without solving it: the guard's for ll, whose refused fields are the
    ones the guard rejects, and suppression past the suppression field
    f_bs for JWKB.  Only the text leaves: a caught error's traceback would
    tie the caller's frame, and the block it holds, into a cycle."""
    if method != "ll":
        return str(_barrier_suppressed(MotiveVariant(method), F_canonical, f_bs))
    try:
        _check_field(atom, F_canonical, allow_shallow)
    except (ValidationError, RegimeError) as exc:
        return str(exc)


def _notes(methods, columns, atom, F, grid, allow_shallow: bool) -> str:
    """The note lines of the refused cells over fields F, row by row: the
    error text the array solver recorded, or else the reason the closed
    forms give."""
    notes = []
    refused = np.isnan([column.exponent for column in columns]).any(axis=0)
    for i in np.flatnonzero(refused).tolist():
        for m, (_, exponent, refusals, f_bs) in zip(methods, columns):
            if math.isnan(exponent[i]):
                reason = refusals.get(i) or _refusal(m, atom, float(F[i]), allow_shallow, f_bs)
                notes.append(f"note: {m} at F={grid[i]:.9e}: {reason}\n")
    return "".join(notes)


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
    # a float, and exactly the long-double figure (5^10 2^-47): a long
    # double here would carry the comparisons below into long double
    margin = 64 * float(np.finfo(_WIDE).eps) * 1e10
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

    with _output(args.out) as fh:
        fh.write(
            "F,"
            + ",".join(f"K_{m}" for m in methods)
            + ","
            + ",".join(f"exponent_{m}" for m in methods)
            + "\n"
        )
        for start in range(0, F.size, _ROWS_PER_WRITE):
            block = slice(start, start + _ROWS_PER_WRITE)
            columns = _sweep_columns(methods, atom, F[block], allow_shallow)
            sys.stderr.write(_notes(methods, columns, atom, F[block], grid[block], allow_shallow))
            cells = [grid[block]] + [from_canonical(c.K, FREQUENCY, system) for c in columns]
            fh.write(_csv_rows(cells + [c.exponent for c in columns]))
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
        f_bs = from_canonical(exc.suppression_field, FIELD, system)
        raise BarrierSuppressed(
            f"barrier suppressed for {args.model}: field "
            f"{args.field:.6g} is at or above the suppression field "
            f"{f_bs:.6g} ({system.value})",
            exc.suppression_field,
        ) from exc
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
