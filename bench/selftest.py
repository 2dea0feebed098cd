"""Self-test of the benchmark itself; about 30 seconds on two cores.

    python3 bench/selftest.py

For each workload it runs a few ops twice traced and once untraced, all on
one seed, and asserts that

  * the work counts (calls, terms_out, den_degree_out, steps, chars_in)
    repeat exactly between the two traced runs,
  * no op failed,
  * every printed metric is declared in BENCHMARK.json, and every declared
    metric is printed,
  * the traced and untraced runs did the same ops (same ops digest).

It also checks that the benchmark refuses to run, without printing a
result, in a directory holding only BENCHMARK.json and bench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 7
OPS = {"exact-fresh": 3, "exact-shared": 8, "matrix": 6, "oper": 1}
WORK_COUNTS = (".calls", ".terms_out", ".den_degree_out", ".steps", ".chars_in")


def run(workload, trace, cwd=ROOT, extra=()):
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result(workload, trace):
    done = run(workload, trace, extra=("--ops", str(OPS[workload])))
    assert done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}\n{done.stdout}{done.stderr}"
    last = json.loads(done.stdout.strip().splitlines()[-1])
    detail = json.loads((BENCH / "out" / f"result-{workload}-s{SEED}-t{trace}.json").read_text())
    return last, detail


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"] for m in spec["end_to_end"]},
        1: {m["name"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(OPS), "workloads differ from BENCHMARK.json"
    for workload, ops in OPS.items():
        traced = [result(workload, 1) for _ in range(2)]
        untraced = result(workload, 0)
        for trace, (last, detail) in ((1, traced[0]), (1, traced[1]), (0, untraced)):
            assert last["correct"] and last["failed"] == 0, f"{workload}: failed ops {detail['failures']}"
            assert last["attempted"] == ops, f"{workload}: attempted {last['attempted']} != {ops}"
            assert set(last["metrics"]) == declared[trace], (
                f"{workload} trace {trace}: printed and declared metrics differ: "
                f"{sorted(set(last['metrics']) ^ declared[trace])}"
            )
        counts = [
            {k: v["value"] for k, v in last["metrics"].items() if k.endswith(WORK_COUNTS)}
            for last, _ in traced
        ]
        assert counts[0] == counts[1], f"{workload}: work counts differ between runs on one seed"
        assert counts[0]["bench.op.calls"] == ops
        digests = {detail["ops_digest"] for _, detail in (*traced, untraced)}
        assert len(digests) == 1, f"{workload}: traced and untraced runs did different ops"
        print(f"ok {workload}: {ops} ops, {sum(counts[0].values())} counted units, digest {digests.pop()[:16]}")

    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("exact-fresh", 0, cwd=bare, extra=("--seconds", "1"))
    shutil.rmtree(bare)
    assert done.returncode != 0, "benchmark ran without the library sources"
    assert '"correct"' not in done.stdout, "benchmark printed a result without the library sources"
    print(f"ok refuses to run without src/ (exit {done.returncode})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
