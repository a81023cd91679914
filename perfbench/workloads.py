"""The benchmark's workloads: seeded inputs, execution and output checks.

Each workload is a closed loop with one client: an operation starts when
the previous one has finished.  A run attempts whole rounds, and every
round holds the same operations (fresh seeded values, same kinds and
sizes), so the share of failed operations is the same in every run.

Operations go through esfi's public entry points only: the ``esfi`` CLI
as a subprocess, ``esfi.cli.main`` in process, and ``esfi.invert_rate``.
Their outputs are checked against ``oracle`` (mpmath, independent of
esfi) or against a property the method must have.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import mpmath as mp
import numpy as np

import oracle as o

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Known faults, kept as failing operations on fixed inputs.
# F1: motive_peak's brentq is not bracketed; raw ValueError, exit 1.
F1_Z, F1_I = 0.10570197371039264, 46.615238016885996
F1_ARGV = ["barrier", "--Z", repr(F1_Z), "--ionization-energy", repr(F1_I),
           "--field", "8445.8", "--model", "jwkb-naive"]
# F2: turning-point scan starts at a_Z/100, above the inner turning point.
F2_ARGV = ["sweep", "--Z", "1", "--ionization-energy", "3000", "--f-min", "0.5",
           "--f-max", "5", "--points", "10", "--methods", "jwkb-naive"]
# F3: adaptive quadrature misses its error bound near G ~ 2e4.
F3_ARGV = ["sweep", "--Z", "0.357", "--f-min", "1e-4", "--f-max", "2e-3",
           "--points", "50", "--methods", "jwkb-parabolic"]

NOTE_RE = re.compile(r"^note: (\S+) at F=(\S+): (.*)$")
NOTE_CLASSES = (
    ("could not bracket", "BracketingFailure"),
    ("quadrature error", "QuadratureNonConvergence"),
    ("barrier vanished", "BarrierSuppressed"),
    ("deep-tunnelling guard", "ShallowTunnellingRegime"),
)
EXIT_CLASSES = {2: "ValidationError", 3: "RegimeError", 4: "NumericError"}
SUPPRESSION_RE = re.compile(r"suppression field (\S+)")


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("ESFI_GUARD_OVERRIDE", None)
    return env


def num(x) -> str:
    """Exact decimal form of a float for a CLI argument."""
    return repr(float(x))


@dataclass
class Op:
    """One operation: CLI arguments or a library inversion, plus what the
    check needs to know about the inputs."""

    argv: Optional[list] = None
    invert: Optional[tuple] = None      # (target, Z, I_override, method)
    spec: dict = field(default_factory=dict)
    known: Optional[str] = None         # "F1".."F3" for the fault reproducers


@dataclass
class Tally:
    """Counts, timings and check findings accumulated over a run."""

    attempted: int = 0
    failed: int = 0
    failures: Counter = field(default_factory=Counter)
    failed_ops: list = field(default_factory=list)
    problems: list = field(default_factory=list)
    evaluations: int = 0
    durations: list = field(default_factory=list)
    accuracy: dict = field(default_factory=dict)
    iterations: dict = field(default_factory=lambda: {"ll": [], "jwkb-parabolic": []})

    def fail(self, op: Op, error_class: str, n: int = 1) -> None:
        self.failed += n
        self.failures[f"{op.known or 'unexpected'}:{error_class}"] += n
        if not op.known and len(self.failed_ops) < 20:
            self.failed_ops.append(f"{' '.join(op.argv) if op.argv else op.invert}: {error_class}")

    def problem(self, op: Op, message: str) -> None:
        if len(self.problems) < 1000:  # enough to show; a broken program could add millions
            self.problems.append(f"{' '.join(op.argv) if op.argv else op.invert}: {message}")

    def error(self, name: str, value: float) -> None:
        self.accuracy[name] = max(self.accuracy.get(name, 0.0), float(value))


# ---------------------------------------------------------------- execution

def run_cli_subprocess(argv: list) -> tuple:
    p = subprocess.run([sys.executable, "-m", "esfi.cli", *argv], capture_output=True,
                       text=True, env=cli_env(), cwd=ROOT, timeout=120)
    return p.returncode, p.stdout, p.stderr


def run_cli_inprocess(argv: list) -> tuple:
    import esfi.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = esfi.cli.main(argv)
        except Exception:  # an escaped exception is the CLI's exit 1
            traceback.print_exc()
            rc = 1
    return rc, out.getvalue(), err.getvalue()


def run_invert(spec: tuple):
    import esfi

    target, Z, I, method = spec
    try:
        return esfi.invert_rate(target, esfi.make_atom(Z, I), method=method)
    except Exception as exc:
        return exc


def exit_class(rc: int, err: str) -> str:
    """Error class of a failed CLI call: the traceback's last line for an
    escaped exception, else the exit-code family."""
    if rc == 1:
        lines = [ln for ln in err.strip().splitlines() if ln.strip()]
        if lines:
            return lines[-1].split(":", 1)[0].strip().rsplit(".", 1)[-1]
    return EXIT_CLASSES.get(rc, f"exit{rc}")


def note_class(message: str) -> str:
    for pattern, name in NOTE_CLASSES:
        if pattern in message:
            return name
    return "EsfiError"


def within(value: float, ref, rel: float, absolute: float = 0.0) -> bool:
    return abs(mp.mpf(value) - ref) <= absolute + rel * abs(ref)


# ------------------------------------------------------------------ sweeps

def parse_sweep(out: str, err: str):
    lines = out.splitlines()
    header = lines[0].split(",")
    n = (len(header) - 1) // 2
    methods = [h[2:] for h in header[1:1 + n]]
    rows = [ln.split(",") for ln in lines[1:]]
    notes = {}
    for ln in err.splitlines():
        m = NOTE_RE.match(ln)
        if m:
            notes[(m.group(1), m.group(2))] = m.group(3)
    return methods, rows, notes


def check_sweep_ll(op: Op, result: tuple, tally: Tally) -> None:
    rc, out, err = result
    s = op.spec
    if rc != 0:
        tally.fail(op, exit_class(rc, err), s["points"])
        return
    methods, rows, notes = parse_sweep(out, err)
    if methods != ["ll"] or len(rows) != s["points"]:
        tally.problem(op, f"unexpected CSV shape {methods} x {len(rows)}")
        return
    atom = o.Atom(s["Z"], s["I"])
    scale, rscale = o.FIELD_SCALE[s["units"]], o.RATE_SCALE[s["units"]]
    hydrogen_au = s["units"] == "au" and s["Z"] == 1 and s["I"] is None
    c_exp = o.B_FN * atom.I ** mp.mpf(1.5)
    c_log = mp.log(o.C_FI * atom.I ** mp.mpf(2.5) * rscale)
    grid = np.geomspace(s["f_min"], s["f_max"], s["points"])
    prev_K = prev_G = None
    for F, row in zip(grid, rows):
        if row[0] != f"{F:.9e}":
            tally.problem(op, f"field column {row[0]} != {F:.9e}")
            continue
        if row[1] == "nan":
            tally.fail(op, note_class(notes.get(("ll", row[0]), "")))
            continue
        K, G = float(row[1]), float(row[2])
        Fc = mp.mpf(float(F)) * scale
        X = c_exp / Fc
        log_K = o.hydrogen_au_log_rate(F) if hydrogen_au else c_log - mp.log(Fc) - X
        # the mpmath references are rounded to double for the comparison; that
        # rounding, 1e-16 relative, is far inside the tolerances
        X_f = float(X)
        if abs(G - X_f) > o.format_tolerance(X_f) + 1e-13 * X_f:
            tally.problem(op, f"exponent {row[2]} != {mp.nstr(X, 12)} at F={row[0]}")
        K_ref = float(mp.exp(log_K))
        if K_ref > 1e-300:
            diff = abs(K - K_ref)
            tally.error("rates.max_rel_err", diff / K_ref)
            if diff > o.format_tolerance(K_ref) + 1e-12 * K_ref:
                tally.problem(op, f"K {row[1]} != {K_ref:.12e} at F={row[0]}")
        elif K > 1e-290:
            tally.problem(op, f"K {row[1]} where the oracle underflows at F={row[0]}")
        if prev_K is not None and (K < prev_K or G >= prev_G):
            tally.problem(op, f"K not rising or G not falling at F={row[0]}")
        prev_K, prev_G = K, G
    tally.evaluations += s["points"]


def check_sweep_jwkb(op: Op, result: tuple, tally: Tally) -> None:
    rc, out, err = result
    s = op.spec
    cells = s["points"] * len(s["methods"])
    if rc != 0:
        tally.fail(op, exit_class(rc, err), cells)
        return
    methods, rows, notes = parse_sweep(out, err)
    if methods != s["methods"] or len(rows) != s["points"]:
        tally.problem(op, f"unexpected CSV shape {methods} x {len(rows)}")
        return
    tally.evaluations += cells
    atom = o.Atom(s["Z"], s["I"])
    nm = len(methods)
    f_bs = {m: o.suppression_field(atom, m) for m in methods}
    grid = np.geomspace(s["f_min"], s["f_max"], s["points"])
    values = {m: [] for m in methods}     # (row index, F, K, G) of numeric cells
    for j, (F, row) in enumerate(zip(grid, rows)):
        if row[0] != f"{F:.9e}":
            tally.problem(op, f"field column {row[0]} != {F:.9e}")
            continue
        for i, m in enumerate(methods):
            K_s, G_s = row[1 + i], row[1 + nm + i]
            if K_s == "nan":
                message = notes.get((m, row[0]), "")
                cls = note_class(message)
                if cls != "BarrierSuppressed":
                    tally.fail(op, cls)
                    continue
                # a refusal is the correct output past the suppression field
                named = SUPPRESSION_RE.search(message)
                if F < f_bs[m] * (1 - 1e-8):
                    tally.problem(op, f"{m} refused at F={row[0]} below suppression "
                                      f"{mp.nstr(f_bs[m], 9)}")
                elif named is None or not within(float(named.group(1)), f_bs[m], 5.01e-6):
                    tally.problem(op, f"{m} note names the wrong suppression field: {message}")
                continue
            K, G = float(K_s), float(G_s)
            if F >= f_bs[m] * (1 + 1e-8):
                tally.problem(op, f"{m} value at F={row[0]} past suppression")
                continue
            values[m].append((j, F, K, G))
            if m == "jwkb-naive":
                check_jwkb_cell(op, tally, atom, F, m, K, G, K_s, G_s)
    # G falls with F everywhere; K rises with F in the deep-tunnelling
    # regime (past the guard the JWKB pre-factor turns K down just before
    # suppression, and those results are labelled extrapolated)
    guard = o.guard_field(atom)
    for m, cells_m in values.items():
        for (_, _, K0, G0), (_, F1, K1, G1) in zip(cells_m, cells_m[1:]):
            if G1 >= G0 or (K1 < K0 and F1 < guard):
                tally.problem(op, f"{m}: K not rising or G not falling at F={F1:.9e}")
    if "jwkb-parabolic" in values and "jwkb-cartesian" in values:
        par = {j: (K, G) for j, _, K, G in values["jwkb-parabolic"]}
        cart = {j: (K, G) for j, _, K, G in values["jwkb-cartesian"]}
        if par.keys() != cart.keys():
            tally.problem(op, "parabolic and Cartesian cells differ in which are numeric")
        for j in par.keys() & cart.keys():
            for a, b in zip(par[j], cart[j]):
                if a > 0 and b > 0:
                    d = abs(a / b - 1)
                    tally.error("barrier.parabolic_cartesian_max_rel_diff", d)
                    if d > 1.01e-9:
                        tally.problem(op, f"parabolic {a} != Cartesian {b} in row {j}")
    sample = s.get("sample")
    if sample is not None:
        for m in methods:
            if m == "jwkb-naive":
                continue
            for j, F, K, G in values[m]:
                if j == sample:
                    check_jwkb_cell(op, tally, atom, F, m, K, G, f"{K:.9e}", f"{G:.9e}")


def check_jwkb_cell(op, tally, atom, F, m, K, G, K_s, G_s) -> None:
    """G against the oracle (v(f) for the naive barrier, tanh-sinh
    quadrature otherwise) and K = nu P_eff exp(-G) against it too."""
    G_ref = o.barrier_G(atom, float(F), m)
    # the program's own quadrature bound is 1e-10 absolute
    g_abs = 1e-10 + 1e-12 * G_ref
    if m == "jwkb-naive":
        tally.error("barrier.naive_G_max_rel_err", o.rel_diff(G, G_ref))
    if not within(G, G_ref, 0, o.format_tolerance(G_ref) + g_abs):
        tally.problem(op, f"{m} G {G_s} != {mp.nstr(G_ref, 12)} at F={F:.9e}")
    K_ref = atom.nu * o.jwkb_prefactor(atom, float(F), m) * mp.exp(-G_ref)
    if K_ref > 1e-300 and not within(K, K_ref, g_abs + 1e-12, o.format_tolerance(K_ref)):
        tally.problem(op, f"{m} K {K_s} != {mp.nstr(K_ref, 12)} at F={F:.9e}")


# -------------------------------------------------------------- inversions

def check_inversion(op: Op, result, tally: Tally) -> None:
    target, Z, I, method = op.invert
    if isinstance(result, Exception):
        tally.fail(op, type(result).__name__)
        return
    atom = o.Atom(Z, I)
    F = result.F
    tally.evaluations += result.iterations
    tally.iterations[method].append(result.iterations)
    if not (result.residual <= 1e-10 and result.iterations >= 2):
        tally.problem(op, f"residual {result.residual} after {result.iterations} evaluations")
    if method == "ll":
        F_ref = o.ll_inverse_field(atom, target)
        if not within(F, F_ref, 1e-11):
            tally.problem(op, f"F {F!r} != Lambert-W root {mp.nstr(F_ref, 15)}")
        log_K = o.ll_log_rate(atom, F)
        tol = 1e-10
    else:
        log_K = o.jwkb_log_rate(atom, F, method)
        tol = 1e-8
    # round trip: the oracle's rate at the returned field is the target
    err = float(abs(mp.expm1(log_K - mp.log(target))))
    tally.error("invert.roundtrip_max_rel_err", err)
    if err > tol:
        tally.problem(op, f"rate at F={F!r} is off the target by {err:.3e}")


# ------------------------------------------------------------ CLI outputs

def check_cli(op: Op, result: tuple, tally: Tally) -> None:
    rc, out, err = result
    kind = op.spec["kind"]
    if op.known == "F1":
        f_bs = o.suppression_field(o.Atom(F1_Z, F1_I), "jwkb-naive")
        named = SUPPRESSION_RE.search(err)
        if rc == 3 and named and within(float(named.group(1)), f_bs, 5.01e-6):
            return
        tally.fail(op, exit_class(rc, err))
        return
    if rc != 0:
        tally.fail(op, exit_class(rc, err))
        return
    if kind == "constants":
        check_constants(op, out, tally)
        return
    rec = json.loads(out)
    if kind == "invert":
        check_inversion(op, _Inverted(rec["F"], rec["iterations"], rec["residual"]), tally)
        return
    s = op.spec
    atom = o.Atom(s["Z"], None)
    tally.evaluations += 1
    if kind == "rate-ll":
        X = o.ll_exponent(atom, s["F"])
        K_ref = mp.exp(o.ll_log_rate(atom, s["F"]))
        tally.error("rates.max_rel_err", o.rel_diff(rec["K_e"], K_ref))
        if not within(rec["exponent"], X, 1e-13) or not within(rec["K_e"], K_ref, 1e-11):
            tally.problem(op, f"K {rec['K_e']!r} / exponent {rec['exponent']!r} != "
                              f"{mp.nstr(K_ref, 15)} / {mp.nstr(X, 15)}")
        if rec["regime"] != "deep":
            tally.problem(op, f"regime {rec['regime']} below the guard field")
        return
    variant = "jwkb-parabolic" if kind == "rate-jwkb" else "jwkb-cartesian"
    G = rec["exponent"] if kind == "rate-jwkb" else rec["G"]
    check_jwkb_cell(op, tally, atom, s["F"], variant, rec["K_e"], G, repr(rec["K_e"]), repr(G))
    if kind == "barrier":
        c_in, c_out = o.turning_points(atom, s["F"], variant)
        if not (within(rec["coord_in"], c_in, 1e-12) and within(rec["coord_out"], c_out, 1e-12)):
            tally.problem(op, f"turning points {rec['coord_in']!r}, {rec['coord_out']!r} != "
                              f"{mp.nstr(c_in, 15)}, {mp.nstr(c_out, 15)}")


@dataclass
class _Inverted:
    F: float
    iterations: int
    residual: float


def check_constants(op: Op, out: str, tally: Tally) -> None:
    lines = out.splitlines()
    if lines[0] != "symbol,value,units":
        tally.problem(op, f"header {lines[0]!r}")
    seen = set()
    for ln in lines[1:]:
        name, value, _units = ln.split(",", 2)
        seen.add(name)
        ref = o.CONSTANTS.get(name)
        if ref is None or not within(float(value), ref, 1e-15, o.format_tolerance(ref)):
            tally.problem(op, f"{name} = {value}, oracle {mp.nstr(ref, 12) if ref else 'none'}")
        if name in o.TABULATED and f"{float(value):.6e}" != f"{o.TABULATED[name]:.6e}":
            tally.problem(op, f"{name} = {value} does not round to the tabulated {o.TABULATED[name]}")
    if seen != set(o.CONSTANTS):
        tally.problem(op, f"constants {sorted(seen ^ set(o.CONSTANTS))} missing or extra")


# --------------------------------------------------------------- workloads

class Workload:
    """Seeded rounds of operations for one workload."""

    name = ""
    inprocess = True
    # reference units (speed.py) run before every `ref_every`-th operation:
    # chunks of 5 ms or more, a tenth of the operations' time or less (a
    # quarter for the short `ll` inversions)
    ref_units = 100
    ref_every = 1

    def __init__(self, seed: int):
        self.seed = seed
        self._verified = {}

    def rng(self, round_index: int) -> random.Random:
        return random.Random(self.seed * 1_000_003 + round_index)

    def round_ops(self, round_index: int) -> list:
        raise NotImplementedError

    def execute(self, op: Op):
        if op.argv is None:
            return run_invert(op.invert)
        if self.inprocess:
            return run_cli_inprocess(op.argv)
        return run_cli_subprocess(op.argv)

    def check(self, op: Op, result, tally: Tally) -> None:
        tally.attempted += self.cells(op)
        # a deterministic check of identical output gives the same verdict;
        # skip the oracle for repeats of the fixed-input reproducers
        key = None
        if op.known and op.argv is not None:
            key = (tuple(op.argv), result)
            if key in self._verified:
                before = self._verified[key]
                tally.failed += before[0]
                tally.failures.update(before[1])
                tally.evaluations += before[2]
                return
        failed, failures, evaluations = tally.failed, Counter(tally.failures), tally.evaluations
        self.check_output(op, result, tally)
        if key is not None:
            self._verified[key] = (tally.failed - failed, tally.failures - failures,
                                   tally.evaluations - evaluations)

    def check_output(self, op: Op, result, tally: Tally) -> None:
        raise NotImplementedError

    def cells(self, op: Op) -> int:
        """Rate evaluations an operation attempts (its unit of `attempted`)."""
        return 1

    def probe_payload(self) -> dict:
        """First operation of round 0, for the set-up probe."""
        op = self.round_ops(0)[0]
        return {"argv": op.argv} if op.argv is not None else {"invert": list(op.invert)}


class CliCold(Workload):
    """One-shot ``esfi`` processes, one at a time."""

    name = "cli-cold"
    inprocess = False
    ref_units = 1500

    def round_ops(self, round_index: int) -> list:
        r = self.rng(round_index)
        # the JWKB inversion fails for Z above about 3.1: its bracket starts
        # at 1e-6 V/nm, where G ~ 1e10 defeats the quadrature
        Z = r.choice([1.0, 2.0, round(r.uniform(1.0, 2.8), 6)])
        atom = o.Atom(Z)
        guard = o.guard_field(atom)
        f_bs = o.suppression_field(atom, "jwkb-parabolic")
        z = ["--Z", num(Z)]
        F_ll = float(guard * r.uniform(0.2, 0.95))
        F_jw = float(f_bs * r.uniform(0.1, 0.8))
        F_bar = float(f_bs * r.uniform(0.1, 0.8))
        T_ll = log_uniform(r, o.ll_log_rate(atom, guard / 10), o.ll_log_rate(atom, guard))
        T_jw = log_uniform(r, o.jwkb_log_rate(atom, guard / CalibrateJWKB.low),
                           o.jwkb_log_rate(atom, guard))
        return [
            Op(["constants", "--format", "csv"], spec={"kind": "constants"}),
            Op(["rate", *z, "--field", num(F_ll), "--method", "ll"],
               spec={"kind": "rate-ll", "Z": Z, "F": F_ll}),
            Op(["rate", *z, "--field", num(F_jw), "--method", "jwkb-parabolic"],
               spec={"kind": "rate-jwkb", "Z": Z, "F": F_jw}),
            Op(["barrier", *z, "--field", num(F_bar), "--model", "jwkb-cartesian"],
               spec={"kind": "barrier", "Z": Z, "F": F_bar}),
            Op(["invert", *z, "--target", num(T_ll), "--method", "ll"],
               (T_ll, Z, None, "ll"), spec={"kind": "invert"}),
            Op(["invert", *z, "--target", num(T_jw), "--method", "jwkb-parabolic"],
               (T_jw, Z, None, "jwkb-parabolic"), spec={"kind": "invert"}),
            Op(list(F1_ARGV), spec={"kind": "barrier-fault"}, known="F1"),
        ]

    def check_output(self, op: Op, result, tally: Tally) -> None:
        check_cli(op, result, tally)


def log_uniform(r: random.Random, log_lo, log_hi) -> float:
    """A float target drawn log-uniformly inside (exp(log_lo), exp(log_hi))."""
    lo, hi = float(log_lo), float(log_hi)
    return math.exp(lo + (hi - lo) * r.uniform(1e-6, 1 - 1e-6))


class SweepLL(Workload):
    """Closed-form sweeps below the guard field, in all three unit systems."""

    name = "sweep-ll"
    points = 2000

    def round_ops(self, round_index: int) -> list:
        r = self.rng(round_index)
        specs = [
            (1.0, None, "evnm"),
            (1.0, None, "au"),
            (2.0, None, "si"),
            (round(r.uniform(0.6, 3.5), 6), None, "evnm"),
            (1.0, round(r.uniform(6.0, 30.0), 6), "evnm"),
        ]
        ops = []
        for Z, I, units in specs:
            guard = o.guard_field(o.Atom(Z, I)) / o.FIELD_SCALE[units]
            f_min = float(guard * r.uniform(0.004, 0.02))
            f_max = float(guard * r.uniform(0.6, 0.95))
            argv = ["sweep", "--Z", num(Z), "--f-min", num(f_min), "--f-max", num(f_max),
                    "--points", str(self.points), "--methods", "ll", "--units", units]
            if I is not None:
                argv[3:3] = ["--ionization-energy", num(I)]
            ops.append(Op(argv, spec={"Z": Z, "I": I, "units": units, "f_min": f_min,
                                      "f_max": f_max, "points": self.points}))
        return ops

    def cells(self, op: Op) -> int:
        return op.spec["points"]

    def check_output(self, op: Op, result, tally: Tally) -> None:
        check_sweep_ll(op, result, tally)


class SweepJWKB(Workload):
    """Numeric JWKB sweeps through both suppression fields, plus the F2
    and F3 reproducers."""

    name = "sweep-jwkb"
    points = 32
    methods = ["jwkb-parabolic", "jwkb-cartesian", "jwkb-naive"]

    def round_ops(self, round_index: int) -> list:
        r = self.rng(round_index)
        ops = []
        for Z in (1.0, 2.0, 0.5):
            f_bs = o.suppression_field(o.Atom(Z), "jwkb-parabolic")
            f_min = float(f_bs * r.uniform(0.05, 0.1))
            f_max = float(f_bs * r.uniform(1.1, 1.35))
            argv = ["sweep", "--Z", num(Z), "--f-min", num(f_min), "--f-max", num(f_max),
                    "--points", str(self.points), "--methods", ",".join(self.methods)]
            ops.append(Op(argv, spec={"Z": Z, "I": None, "f_min": f_min, "f_max": f_max,
                                      "points": self.points, "methods": self.methods,
                                      "sample": r.randrange(self.points)}))
        ops.append(Op(list(F2_ARGV), spec={"Z": 1.0, "I": 3000.0, "f_min": 0.5, "f_max": 5.0,
                                           "points": 10, "methods": ["jwkb-naive"]}, known="F2"))
        ops.append(Op(list(F3_ARGV), spec={"Z": 0.357, "I": None, "f_min": 1e-4, "f_max": 2e-3,
                                           "points": 50, "methods": ["jwkb-parabolic"],
                                           "sample": 10}, known="F3"))
        return ops

    def cells(self, op: Op) -> int:
        return op.spec["points"] * len(op.spec["methods"])

    def check_output(self, op: Op, result, tally: Tally) -> None:
        check_sweep_jwkb(op, result, tally)


class Calibrate(Workload):
    """Library field calibration on seeded targets inside each atom's
    attainable range, between K(guard/low) and K(guard)."""

    method = ""
    per_atom = 1
    low = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self._spans = {}

    def span(self, Z: float, I: Optional[float]) -> tuple:
        """ln K at guard/low and at the guard, from the oracle."""
        if (Z, I) not in self._spans:
            rate = o.ll_log_rate if self.method == "ll" else o.jwkb_log_rate
            atom = o.Atom(Z, I)
            guard = o.guard_field(atom)
            self._spans[Z, I] = (rate(atom, guard / self.low), rate(atom, guard))
        return self._spans[Z, I]

    def round_ops(self, round_index: int) -> list:
        r = self.rng(round_index)
        # two atoms drawn afresh every round, so that a run's cost averages
        # over many atoms instead of hanging on the seed's
        atoms = [(1.0, None), (2.0, None), (round(r.uniform(0.8, 2.8), 6), None),
                 (1.0, round(r.uniform(8.0, 30.0), 6))]
        return [Op(invert=(log_uniform(r, *self.span(Z, I)), Z, I, self.method))
                for Z, I in atoms for _ in range(self.per_atom)]

    def check_output(self, op: Op, result, tally: Tally) -> None:
        check_inversion(op, result, tally)


class CalibrateLL(Calibrate):
    name = "calibrate-ll"
    method = "ll"
    per_atom = 16
    ref_every = 64  # once a round


class CalibrateJWKB(Calibrate):
    name = "calibrate-jwkb"
    method = "jwkb-parabolic"
    per_atom = 2
    ref_every = 2
    # below guard/3 (G above ~50) the inversion now and then stalls just
    # above its 1e-13 stopping tolerance, at the rounding noise of ln K
    low = 3


WORKLOADS = {w.name: w for w in (CliCold, SweepLL, SweepJWKB, CalibrateLL, CalibrateJWKB)}
