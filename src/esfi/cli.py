"""Command-line interface: constants dump, rate evaluation, field sweeps,
barrier inspection and inverse field calibration.

Exit codes: 0 success, 2 validation failure, 3 regime failure (shallow
tunnelling / suppressed barrier), 4 numeric failure.  Setting
ESFI_GUARD_OVERRIDE=1 disables the deep-tunnelling guard for the
closed-form methods; such results are labelled 'extrapolated'.

A sweep writes one note to stderr per refused cell, row by row, then in
column order.  The module of the method that refused the cell words it,
as the error its scalar path raises there: rates._ll_column for ll and
barrier._rate_jwkb_arrays for the JWKB shapes.
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
from .barrier import MotiveModel, MotiveVariant, _rate_jwkb_arrays, rate_jwkb
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
from .rates import _ll_column, rate_ll
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
# sweep rows solved, noted and written at a time
_ROWS_PER_WRITE = 65536
# below this many cells a block is cheaper to format one row at a time: the
# vectorised writer's fixed cost is some 40 us of numpy calls, which whole
# in-process sweeps recoup at about 150 cells for closed-form blocks and at
# 250-300 for JWKB blocks with refused cells, whose solves leave the
# writer's caches cold (2-CPU x86-64 host, AVX-512)
_VECTOR_CELLS = 400
_SLOT = 20  # bytes per cell: "-1.234567890e-308", its separator and zero bytes
_EXP_LO, _EXP_HI = -330, 330  # decimal exponents of the tables; float64 spans -324..308
# below this decimal exponent 10^(9 - E) leaves the float range: such cells
# are scaled by 2^_SHIFT first, exactly, and their table entry by 2^-_SHIFT
_TINY, _SHIFT = -290, 200


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


def _sweep_columns(methods: list[str], atom, F: np.ndarray, allow_shallow: bool):
    """Each method's column over canonical fields F, as rates._ll_column
    and barrier._rate_jwkb_arrays give it: K_e and the exponent, nan
    where the method refuses a field, a dict from the index of a refused
    field to the text of its note, and the template of the text of every
    other refused field."""
    variants = [MotiveVariant(m) for m in methods if m != "ll"]
    solved = _rate_jwkb_arrays(variants, atom, F) if variants else []
    jwkb = iter([(sol.K_e, sol.G, texts, template) for sol, texts, template in solved])
    return [_ll_column(atom, F, allow_shallow) if m == "ll" else next(jwkb) for m in methods]


def _notes(methods, columns, grid, F) -> str:
    """The note lines of a block's refused cells, row by row, then in
    column order: each names the cell's field on the grid, followed by
    the text its column recorded for the cell, or else the column's
    template filled in with the canonical field F."""
    refused = [np.isnan(exponent) for _, exponent, _, _ in columns]
    if not any(r.any() for r in refused):
        return ""
    rows, cols = np.nonzero(np.column_stack(refused))
    wording = []
    for m, (_, _, texts, template) in zip(methods, columns):
        head = f"note: {m} at F={{:.9e}}: "
        wording.append((texts, (head + "{}\n").format, (head + template + "\n").format))
    lines = []
    for i, j, g, f in zip(rows.tolist(), cols.tolist(), grid[rows].tolist(), F[rows].tolist()):
        texts, recorded, templated = wording[j]
        text = texts.get(i)
        lines.append(recorded(g, text) if text else templated(g, f))
    return "".join(lines)


def _words(texts: list[bytes], width: int) -> np.ndarray:
    """Each text zero-padded to `width` bytes, as a row of 4-byte words."""
    padded = b"".join(text.ljust(width, b"\0") for text in texts)
    return np.frombuffer(padded, np.uint32).reshape(len(texts), width // 4)


@functools.cache
def _csv_tables():
    """Lookup tables of the vectorised writer, as 4-byte words whose zero
    bytes the writer strips: sign, first digit, point and second digit
    for each sign and pair of digits; each group of four digits; "e", the
    exponent's sign and its digits for each exponent E (two words, the
    hundreds a zero byte below 100); nan, inf and -inf; and two rows, the
    scale 2^s and the power 10^(9 - E) 2^-s of each E, with s = _SHIFT
    below _TINY and 0 elsewhere, the power the float nearest to the exact
    rational."""
    heads = _words([b"%c%d.%d" % (s, i // 10, i % 10) for s in b"\0-" for i in range(100)], 4)
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    quads = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1).view(np.uint32)
    exps = range(_EXP_LO, _EXP_HI + 1)
    exponents = _words(
        [b"e%c%s" % (b"+-"[e < 0], (b"%02d" % abs(e)).rjust(3, b"\0")) for e in exps], 8
    )
    specials = _words([b"nan", b"inf", b"-inf"], _SLOT)
    # int / int rounds to the nearest float, as does float() of a decimal
    powers = [10 ** (9 - e) / 2**_SHIFT if e < _TINY else float(f"1e{9 - e}") for e in exps]
    scaling = np.array([[2.0**_SHIFT if e < _TINY else 1.0 for e in exps], powers])
    scaling.setflags(write=False)  # shared by every caller through the cache
    return heads.ravel(), quads.ravel(), exponents[:, 0], exponents[:, 1], specials, scaling


def _significands(x: np.ndarray, scales: np.ndarray, powers: np.ndarray):
    """Each cell's decimal exponent E and ten significant digits m, the
    integer nearest to y = |x| 10^(9 - E) with y in [1e9, 1e10) (m = 0
    for zeros, any value for nan and inf), and the cells where m is in
    doubt. y is computed in double as (|x| scales[E]) powers[E]: the first
    product is exact, the power and the second product are each rounded
    once, so y lies within eps 1e10 (some 2.2e-6) of the exact value,
    while Python rounds the exact value half to even. A cell whose y lies
    within 4 eps 1e10 of a half-integer is in doubt, as is one whose y
    stays out of range."""
    a = np.abs(x)
    zero = a == 0.0
    a[zero | ~np.isfinite(x)] = 1.0  # scaled to exactly 1e9 below
    E = np.floor(np.log10(a)).astype(np.intp)
    i = E - _EXP_LO
    y = a * scales.take(i) * powers.take(i)
    # log10 can land one off next to a power of ten; within 0.05 of either
    # end of the range, y rounds to the same text on both sides
    off = np.flatnonzero((y < 1e9) | (y >= 1e10))
    if off.size:
        E[off] += np.where(y[off] < 1e9, -1, 1)
        i = E[off] - _EXP_LO
        y[off] = a[off] * scales.take(i) * powers.take(i)
        off = off[~((y[off] >= 1e9) & (y[off] < 1e10))]
        y[off] = 1e9 + 0.5  # a tie, so in doubt below
    m = np.rint(y)
    doubtful = np.flatnonzero(np.abs(y - m) > 0.5 - 4 * 2.0**-52 * 1e10)
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
    heads, quads, exp_heads, exp_tails, specials, scaling = _csv_tables()
    x = np.column_stack(columns).ravel()
    E, m, doubtful = _significands(x, *scaling)
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
            sys.stderr.write(_notes(methods, columns, grid[block], F[block]))
            rates = [from_canonical(K, FREQUENCY, system) for K, _, _, _ in columns]
            exponents = [exponent for _, exponent, _, _ in columns]
            fh.write(_csv_rows([grid[block]] + rates + exponents))
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
    return _build()[0]


def _build() -> tuple[argparse.ArgumentParser, dict]:
    """esfi's parser, and the sub-parser of each command by name."""
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

    return parser, sub.choices


_parsers = functools.cache(_build)


def main(argv: Optional[list[str]] = None) -> int:
    """Run the command that argv (default sys.argv[1:]) names; its exit code.

    The parse comes from the command's own sub-parser, which is what the
    full parser hands a command's arguments to, so only the top-level
    pass is skipped.  Anything that pass could word otherwise goes to the
    full parser: an empty argv, a first word that names no command (so
    top-level --help, --version and unknown commands), and arguments the
    sub-parser leaves over (the top-level "unrecognized arguments" error).
    Sub-parser help and errors are the sub-parser's own either way."""
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parsers()
    name = argv[0] if argv else None
    if name in commands:
        args, extra = commands[name].parse_known_args(argv[1:])
        args.command = name
    if name not in commands or extra:
        args = parser.parse_args(argv)
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
