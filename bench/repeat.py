"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/repeat.py --seeds 1-10                  # every workload, untraced
    python3 bench/repeat.py --workloads oper --seeds 1-5
    python3 bench/repeat.py --seeds 1 --trace 1           # per-layer table

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(Q3 - Q1) / median next to the metric's bound from ``BENCHMARK.json``.  A
spread under a third of the bound is the steadiness target.  Beside each
rescaled time it summarises the value as measured, and it summarises the
two time factors the rescaling divided by (``time_factor`` for op times,
``setup_factor`` for set-up), so a later run can show that the factors did
not move with the program.  With ``--json PATH`` the runs and the summary
are also written to a file.
Runs are sequential: on a small machine, parallel runs disturb each other.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    if done.returncode != 0 or result is None:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
    detail = json.loads((BENCH / "out" / f"result-{workload}-s{seed}-t{trace}.json").read_text())
    return {"seed": seed, "exit": done.returncode, "result": result, "detail": detail}


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "min": min(values), "max": max(values)}


def print_row(name, row, unit, limit=""):
    print(f"  {name:44s} median {row['median']:12.6g} {unit:6s} "
          f"q1 {row['q1']:10.6g}  q3 {row['q3']:10.6g}  spread {row['spread']:.4f}{limit}")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", help="also write runs and summary to this file")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in parse_seeds(args.seeds)]
        ok &= all(r["exit"] == 0 for r in runs)
        names = list(runs[0]["result"]["metrics"]) if runs[0]["result"] else []
        summary = {}
        print(f"== {workload}  seeds {args.seeds}  trace {args.trace}  "
              f"failed ops {sum(r['detail']['failed'] for r in runs)}")
        for name in names:
            values = [r["result"]["metrics"][name]["value"] for r in runs if r["result"]]
            unit = runs[0]["result"]["metrics"][name]["unit"]
            if len(values) < 2:
                summary[name] = {"values": values, "unit": unit}
                print(f"  {name:44s} {values[0]:12.6g} {unit}")
                continue
            row = summarise(values)
            row.update(values=values, unit=unit)
            summary[name] = row
            bound = bounds.get(name)
            limit = f"  bound {bound:.2f}  spread/bound {row['spread'] / bound:.2f}" if bound else ""
            print_row(name, row, unit, limit)
            measured = [r["detail"].get("as_measured", {}).get(name) for r in runs]
            if None not in measured:
                row["as_measured"] = summarise(measured)
                row["as_measured"]["values"] = measured
                print_row("  as measured", row["as_measured"], unit)
        for factor in ("time_factor", "setup_factor"):
            values = [r["detail"].get(factor) for r in runs]
            if len(values) > 1 and None not in values:
                summary[factor] = summarise(values)
                summary[factor].update(values=values, unit="ratio")
                print_row(factor, summary[factor], "ratio")
        tails = [r["detail"].get("op_tail") for r in runs]
        if tails[0]:
            print("  op_tail percentiles " + ", ".join(
                f"p{t['percentile']:.2f}/{t['samples']}" for t in tails))
        report["workloads"][workload] = {
            "summary": summary,
            "runs": [{"seed": r["seed"], "exit": r["exit"], "attempted": r["detail"]["attempted"],
                      "failed": r["detail"]["failed"], "op_tail": r["detail"].get("op_tail"),
                      "facts": r["detail"]["facts"]} for r in runs],
        }
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
