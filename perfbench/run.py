"""esfi benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep-ll --seed 1 --seconds 12 --trace 0

Run from the repository root; esfi is imported from ``src/``.  The run
measures set-up (fresh interpreters, median of five), then runs whole
rounds of the workload's operations until ``--seconds`` have passed,
checking every output against the independent oracle.  A fixed reference
runs before every set-up probe and every operation (or every few short
ones), and times are divided by the slowdown against that reference
(``speed.py``), so that a shared host's slow periods cancel.  It prints
one line per metric, the attempted and failed counts with error classes,
and as its last line a JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones;
with ``--trace 1`` they are the per-layer ones, from a traced replay of
the rounds.  A record of the run goes to ``perfbench/records/``.  The
exit code is 1 if an output failed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RECORDS = HERE / "records"
SETUP_PROBES = 5
SETUP_REF_UNITS = 1500  # reference units before each set-up probe, about 80 ms
SPAN_CAP = 400_000  # spans kept in memory by one traced run

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "call_ms": "ms",
    "rates_per_s": "1/s",
}
PER_LAYER = {
    "cli.import_numpy_ms": "ms",
    "cli.import_scipy_ms": "ms",
    "cli.import_esfi_ms": "ms",
    "cli.command_ms": "ms",
    "cli.sweep_self_us_per_rate": "us",
    "hydrogenic.make_atom_us": "us",
    "hydrogenic.make_atom_calls_per_rate": "count",
    "units.to_canonical_us": "us",
    "units.to_canonical_calls_per_rate": "count",
    "rates.rate_ll_us": "us",
    "rates.rate_ll_calls": "count",
    "barrier.rate_jwkb_us": "us",
    "barrier.rate_jwkb_calls": "count",
    "barrier.turning_points_us": "us",
    "barrier.motive_peak_us": "us",
    "barrier.quadrature_us": "us",
    "barrier.suppression_field_us": "us",
    "barrier.suppression_field_calls": "count",
    "barrier.motive_points_per_solve": "count",
    "invert.evals_per_inversion_ll": "count",
    "invert.evals_per_inversion_jwkb": "count",
    "invert.self_us": "us",
    "rates.max_rel_err": "rel",
    "barrier.naive_G_max_rel_err": "rel",
    "barrier.parabolic_cartesian_max_rel_diff": "rel",
    "invert.roundtrip_max_rel_err": "rel",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup_time(wl, env, meter) -> float:
    """Wall time of a fresh interpreter that imports esfi.cli and runs the
    workload's first operation."""
    payload = json.dumps(wl.probe_payload())
    meter.chunk(SETUP_REF_UNITS)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "probe.py"), payload], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, timeout=120)
    return time.perf_counter() - t0


def run_round(wl, ops, tally, meter) -> float:
    """Run the operations one after another, with a reference chunk before
    every `ref_every`-th, then check them; returns the summed operation
    time."""
    timed = []
    for i, op in enumerate(ops):
        if i % wl.ref_every == 0:
            meter.chunk(wl.ref_units)
        t0 = time.perf_counter()
        result = wl.execute(op)
        timed.append((op, result, time.perf_counter() - t0))
    for op, result, dt in timed:
        wl.check(op, result, tally)
        tally.durations.append(dt)
    return sum(dt for _, _, dt in timed)


def measure(wl, seconds: float, tally, meter) -> list:
    """Whole rounds until `seconds` have passed; returns (ops, time) per round."""
    rounds = []
    t_end = time.perf_counter() + seconds
    while True:
        ops = wl.round_ops(len(rounds))
        rounds.append((ops, run_round(wl, ops, tally, meter)))
        if time.perf_counter() >= t_end:
            return rounds


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "esfi" / "__init__.py").is_file():
        print(f"error: esfi sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import tracing
    import workloads as W

    if args.workload not in W.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = W.WORKLOADS[args.workload](args.seed)
    env = W.cli_env()
    started = time.perf_counter()
    setup_meter, meter = speed.Meter(), speed.Meter()
    setup = [setup_time(wl, env, setup_meter) for _ in range(SETUP_PROBES)]
    tally = W.Tally()
    if args.trace:
        # in-process both ways, so the traced replay compares like with like
        wl.inprocess = True
    wl.execute(wl.round_ops(0)[0])  # untimed: caches and lazy imports settle

    if not args.trace:
        rounds = measure(wl, args.seconds, tally, meter)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF if wl.inprocess
                                    else resource.RUSAGE_CHILDREN).ru_maxrss
        # at the reference speed: the median set-up, the mean operation
        op_time = sum(tally.durations)
        slowdown = meter.slowdown()
        metrics = {
            "setup_s": statistics.median(setup) / setup_meter.slowdown(),
            "peak_rss_mb": rss_kb / 1024,
            "call_ms": op_time / len(tally.durations) * 1e3 / slowdown,
            "rates_per_s": tally.evaluations / op_time * slowdown,
        }
        units = END_TO_END
        tallies = [tally]
        tracer = None
    else:
        rounds = measure(wl, args.seconds / 2, tally, meter)
        traced = W.Tally()
        tracer = tracing.Tracer()
        tracer.install()
        base = replay = 0.0
        replayed = cells_swept = 0
        t_end = time.perf_counter() + args.seconds / 2
        try:
            for ops, untraced_time in rounds:
                replay += run_round(wl, ops, traced, meter)
                base += untraced_time
                replayed += 1
                cells_swept += sum(wl.cells(op) for op in ops if op.argv and op.argv[0] == "sweep")
                if time.perf_counter() >= t_end or len(tracer) >= SPAN_CAP:
                    break
        finally:
            tracer.uninstall()
        metrics = tracing.layer_metrics(tracer.summary(), replayed, traced.iterations, cells_swept)
        metrics.update(tracing.import_times(env, ROOT))
        for name in ("rates.max_rel_err", "barrier.naive_G_max_rel_err",
                     "barrier.parabolic_cartesian_max_rel_diff", "invert.roundtrip_max_rel_err"):
            metrics[name] = max(t.accuracy.get(name, 0.0) for t in (tally, traced))
        metrics["trace.overhead_pct"] = (replay / base - 1) * 100
        units = PER_LAYER
        tallies = [tally, traced]

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    failures = sum((t.failures for t in tallies), Counter())
    problems = [p for t in tallies for p in t.problems]
    correct = not problems
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }

    RECORDS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.dump(RECORDS / f"spans-{stem}.csv.gz")
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "rounds": len(rounds),
        "operations": len(tally.durations),
        "setup_samples_s": setup,
        "round_op_time_s": [t for _, t in rounds],
        "call_wall_mean_ms": sum(tally.durations) / len(tally.durations) * 1e3,
        # the metrics' times are wall times over the means of these; above 1
        # the host ran slower than the development machine
        "setup_reference_readings": setup_meter.readings,
        "reference_readings": meter.readings,
        "call_quantiles_ms": [q * 1e3 for q in statistics.quantiles(tally.durations, n=10)]
        if len(tally.durations) > 1 else [],
        "wall_s": time.perf_counter() - started,
        "failures": dict(failures),
        "problems": problems[:50],
        "unexpected_failures": [f for t in tallies for f in t.failed_ops],
        **result,
    }
    (RECORDS / f"run-{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} attempted = {attempted}, failed = {failed}"
          + "".join(f", {k} x{v}" for k, v in sorted(failures.items())))
    for p in problems[:20]:
        print(f"{args.workload} CHECK FAILED: {p}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
