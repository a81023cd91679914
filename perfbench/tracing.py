"""Per-layer spans recorded from outside the program.

``Tracer.install`` wraps every public function of the esfi modules and
rebinds each name in every esfi module that holds it (``esfi.cli.rate_ll``,
``esfi.invert.rate_jwkb``, ``esfi.barrier.motive``, ...), so calls between
modules pass through the wrappers too.  A span is (name, start, end,
parent); spans stay in memory and are written out at the end of the run.
``uninstall`` puts the original functions back.  Nothing is wrapped
unless ``install`` is called.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

LAYERS = ("cli", "units", "hydrogenic", "rates", "barrier", "invert")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.points = array("l")  # coordinates passed to barrier.motive
        self._stack: list[int] = []
        self._restore: list = []

    def __len__(self) -> int:
        return len(self.start)

    def _wrap(self, name: str, fn):
        ident = len(self.names)
        self.names.append(name)
        counts_points = name == "barrier.motive"
        stack, clock = self._stack, time.perf_counter
        name_of, parent, start, end, points = (self.name_of, self.parent, self.start,
                                               self.end, self.points)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(ident)
            parent.append(stack[-1] if stack else -1)
            points.append(np.size(args[1] if len(args) > 1 else kwargs["coord"])
                          if counts_points else 0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def install(self) -> None:
        import esfi.cli  # noqa: F401  (loads every esfi module)

        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"esfi.{layer}"]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for name, mod in list(sys.modules.items()):
            if name != "esfi" and not name.startswith("esfi."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._restore.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, obj in self._restore:
            setattr(mod, attr, obj)
        self._restore.clear()

    def dump(self, path: Path) -> None:
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start_us,end_us,parent\n")
            for i in range(len(self)):
                fh.write(f"{i},{self.names[self.name_of[i]]},{(self.start[i] - t0) * 1e6:.3f},"
                         f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]}\n")

    def summary(self) -> dict:
        """Per span name: calls, total and self time [s], and two derived
        sums: turning-point time inside rate_jwkb, and motive coordinates
        evaluated inside rate_jwkb."""
        n = len(self)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        jwkb = self.names.index("barrier.rate_jwkb") if "barrier.rate_jwkb" in self.names else -2
        tp = self.names.index("barrier.turning_points") if "barrier.turning_points" in self.names else -2
        in_jwkb = [False] * n
        calls, total, self_time = Counter(), Counter(), Counter()
        tp_in_jwkb = 0.0
        points_in_jwkb = 0
        for i in range(n):
            p = self.parent[i]
            ident = self.name_of[i]
            if p >= 0:
                child[p] += dur[i]
                in_jwkb[i] = in_jwkb[p]
                if ident == tp and self.name_of[p] == jwkb:
                    tp_in_jwkb += dur[i]
            if ident == jwkb:
                in_jwkb[i] = True
            if in_jwkb[i]:
                points_in_jwkb += self.points[i]
        for i in range(n):
            name = self.names[self.name_of[i]]
            calls[name] += 1
            total[name] += dur[i]
            self_time[name] += dur[i] - child[i]
        return {"calls": calls, "total": total, "self": self_time,
                "turning_points_in_rate_jwkb": tp_in_jwkb,
                "motive_points_in_rate_jwkb": points_in_jwkb}


def layer_metrics(s: dict, rounds: int, iterations: dict, cells_swept: int) -> dict:
    """Per-layer figures from a span summary of `rounds` traced rounds, in
    which `sweep` evaluated `cells_swept` cells."""
    calls, total, self_time = s["calls"], s["total"], s["self"]

    def mean_us(name: str) -> float:
        return total[name] / calls[name] * 1e6 if calls[name] else 0.0

    def per(count: float, base: float) -> float:
        return count / base if base else 0.0

    rates = calls["rates.rate_ll"] + calls["barrier.rate_jwkb"]
    jwkb = calls["barrier.rate_jwkb"]
    return {
        "cli.command_ms": mean_us("cli.main") / 1e3,
        "cli.sweep_self_us_per_rate": per(self_time["cli.cmd_sweep"] * 1e6, cells_swept),
        "hydrogenic.make_atom_us": mean_us("hydrogenic.make_atom"),
        "hydrogenic.make_atom_calls_per_rate": per(calls["hydrogenic.make_atom"], rates),
        "units.to_canonical_us": mean_us("units.to_canonical"),
        "units.to_canonical_calls_per_rate": per(calls["units.to_canonical"], rates),
        "rates.rate_ll_us": mean_us("rates.rate_ll"),
        "rates.rate_ll_calls": per(calls["rates.rate_ll"], rounds),
        "barrier.rate_jwkb_us": mean_us("barrier.rate_jwkb"),
        "barrier.rate_jwkb_calls": per(jwkb, rounds),
        "barrier.turning_points_us": mean_us("barrier.turning_points"),
        "barrier.motive_peak_us": mean_us("barrier.motive_peak"),
        "barrier.quadrature_us": per((total["barrier.rate_jwkb"]
                                      - s["turning_points_in_rate_jwkb"]) * 1e6, jwkb),
        "barrier.suppression_field_us": mean_us("barrier.suppression_field"),
        "barrier.suppression_field_calls": per(calls["barrier.suppression_field"], rounds),
        "barrier.motive_points_per_solve": per(s["motive_points_in_rate_jwkb"], jwkb),
        "invert.evals_per_inversion_ll": _mean(iterations["ll"]),
        "invert.evals_per_inversion_jwkb": _mean(iterations["jwkb-parabolic"]),
        "invert.self_us": per(self_time["invert.invert_rate"] * 1e6, calls["invert.invert_rate"]),
    }


def _mean(values: list) -> float:
    return statistics.fmean(values) if values else 0.0


def import_times(env: dict, cwd: Path) -> dict:
    """Self import time of ``import esfi.cli`` in a fresh interpreter,
    summed by top-level package [ms]."""
    p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import esfi.cli"],
                       capture_output=True, text=True, env=env, cwd=cwd, timeout=120)
    by_package = Counter()
    for line in p.stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _cumulative, name = line[len("import time:"):].split("|")
        by_package[name.strip().split(".")[0]] += int(self_us)
    return {f"cli.import_{pkg}_ms": by_package[pkg] / 1e3 for pkg in ("numpy", "scipy", "esfi")}
