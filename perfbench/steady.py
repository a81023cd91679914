"""Steadiness check: run every workload over two sets of seeds and compare.

    python3 perfbench/steady.py                      # 2 sets x 10 runs, all workloads
    python3 perfbench/steady.py --runs 5 --sets 1 --workloads cli-cold

Each run is ``run.py --trace 0`` with its own seed (set k, run i uses seed
first_seed + k*runs + i).  For every workload and end-to-end metric it
prints the median and quartiles of each set and the spread, the distance
between the quartiles as a share of the median.  With two sets it also
reports whether they agree under the bounds in BENCHMARK.json: each
spread within the metric's bound (setup_s exempt), the second median no
worse than the first by more than the bound, and the same share of failed
operations in every run.  A record goes to perfbench/records/.  The exit
code is 1 if a run fails or the sets disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: int) -> dict:
    p = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {p.returncode}:\n{p.stdout}\n{p.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    report = {"args": vars(args), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + k * args.runs + i
                t0 = time.perf_counter()
                runs.append(one_run(workload, seed, args.seconds))
                print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
            sets.append(runs)
        shares = {Fraction(r["failed"], r["attempted"]) for runs in sets for r in runs}
        entry = {"failed_share": sorted(str(s) for s in shares), "metrics": {}}
        if len(shares) != 1:
            ok = False
            print(f"{workload}: failed share differs between runs: {entry['failed_share']}")
        if not all(r["correct"] for runs in sets for r in runs):
            ok = False
            print(f"{workload}: a run reported incorrect output")
        for name, spec in metrics.items():
            rows = []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                q1, q2, q3 = quartiles(values)
                rows.append({"values": values, "q1": q1, "median": q2, "q3": q3,
                             "spread": (q3 - q1) / q2})
            verdict = []
            if name != "setup_s" and any(r["spread"] > spec["bound"] for r in rows):
                verdict.append("spread over bound")
            if len(rows) == 2:
                m1, m2 = rows[0]["median"], rows[1]["median"]
                worse = (m2 / m1 - 1) if spec["better"] == "lower" else (1 - m2 / m1)
                if worse > spec["bound"]:
                    verdict.append(f"second median worse by {worse:.3f}")
            ok &= not verdict
            entry["metrics"][name] = {"sets": rows, "bound": spec["bound"], "verdict": verdict}
            print(f"{workload:15s} {name:12s} "
                  + "  ".join(f"median {r['median']:.6g} [{r['q1']:.6g}, {r['q3']:.6g}] "
                              f"spread {r['spread']:.4f}" for r in rows)
                  + f"  bound {spec['bound']}  {'; '.join(verdict) or 'ok'}")
        report["workloads"][workload] = entry

    (HERE / "records").mkdir(exist_ok=True)
    out = HERE / "records" / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
