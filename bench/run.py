"""Closed-loop benchmark of swapalg: one client, one thread, no think time.

Run from the root of a checkout:

    python3 bench/run.py --workload exact-fresh --seed 1 --seconds 30 --trace 0

The workloads are defined in ``bench/workloads.py`` and declared, with
every metric, in ``BENCHMARK.json``.  Inputs come from ``--seed`` only.
Every op checks its results; a failed check or an exception counts as a
failed op and never stops the run.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when any op failed.

``--trace 0`` measures the end-to-end metrics with no tracing.  The host
shares its cores and its speed drifts (30-second runs of identical work
differ by up to 30%), so a fixed reference kernel (``bench/reference.py``)
is timed every 0.1 s of op time and op latencies are rescaled to the
kernel's nominal speed: ``ops_per_s`` is ops per rescaled second of op
time, and ``op_p50_ms``/``op_tail_ms`` are rescaled latencies.  The values
as measured are printed beside them and kept in the result file.  Set-up
time is measured in fresh processes (``--setup-probe``), several times,
each rescaled by a paired reference process that only imports numpy, and
reported as the median.

``--trace 1`` records a span around every layer call, in blocks of ops
that are each run twice, traced and untraced in alternating order, so the
tracing overhead is measured on the same ops.  It prints the per-layer
metrics (totals over the traced ops) and writes the spans to
``bench/out/spans-<workload>-s<seed>.tsv``.  ``--ops N`` runs exactly N
ops instead of a timed loop; ``bench/selftest.py`` uses it to show that
counts repeat exactly for a seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_PROBES = 5
SETUP_REFERENCE = "import time, numpy; print(repr(time.time()))"
SETUP_REFERENCE_S = 0.15  # nominal time of the set-up reference process
# The reference kernel takes about 1 ms; it runs for 5% of the op time,
# after every 0.1 s of op time.
CALIBRATE_EVERY_S = 0.1
CALIBRATION_SHARE = 0.05
TRACE_BLOCK_S = 0.5  # length of one traced (or untraced) block in a traced run

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
# Per-layer metrics, in report order.  Each span name <module>.<call> a
# workload records has <module>.<call>.calls and .busy_s; <module>.self_s
# sums the self time of the module's spans; the rest are counters or are
# derived in per_layer_metrics.
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def die(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def load():
    """Import the library from this checkout's sources, then the workloads."""
    if not (SRC / "swapalg" / "__init__.py").is_file():
        die(f"no swapalg sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import swapalg

    if Path(swapalg.__file__).resolve().parent != SRC / "swapalg":
        die(f"imported swapalg from {swapalg.__file__}, not from {SRC}")
    import reference
    import tracing
    import workloads

    return workloads, tracing, reference


# -- facts ----------------------------------------------------------------------


def git_commit() -> str:
    """HEAD commit read from .git without running git (the checkout may have none)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def facts(seed) -> dict:
    import numpy

    src_lines = sum(
        len(path.read_text(encoding="utf-8").splitlines()) for path in sorted(SRC.rglob("*.py"))
    )
    return {
        "seed": seed,
        "commit": git_commit(),
        "src_lines": src_lines,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


# -- measurement -------------------------------------------------------------------


def op_rng(workload, seed, i):
    return random.Random(f"{workload}:{seed}:{i}")


def run_op(wl, state, seed, i, tracer, failures):
    """One op; returns (fingerprint or None when it failed, seconds)."""
    rng = op_rng(wl.name, seed, i)
    start = perf_counter()
    try:
        result = wl.op(state, i, rng, tracer)
    except Exception as exc:  # a failed op is counted, never fatal
        elapsed = perf_counter() - start
        failures.append(f"op {i}: {type(exc).__name__}: {exc}")
        return None, elapsed
    return result, perf_counter() - start


def measure_untraced(wl, state, seed, seconds, max_ops, tracing, reference):
    """Closed loop.  Whenever CALIBRATE_EVERY_S of op time has passed, and
    after the last op, the reference kernel runs for CALIBRATION_SHARE of
    that time (at least 5 runs) and gives the machine's time factor."""
    null = tracing.NullTracer()
    failures: list[str] = []
    latencies = []
    calibrations = []  # (ops so far, kernel runs, time factor)
    digest = hashlib.sha256()
    since = 0.0
    t0 = perf_counter()
    i = 0
    while True:
        fingerprint, elapsed = run_op(wl, state, seed, i, null, failures)
        latencies.append(elapsed)
        digest.update(repr((i, fingerprint)).encode())
        i += 1
        done = (i >= max_ops) if max_ops else (perf_counter() - t0 >= seconds)
        since += elapsed
        if since >= CALIBRATE_EVERY_S or done:
            kernels = max(5, round(since * CALIBRATION_SHARE / reference.REFERENCE_S))
            factor = reference.time_kernel(kernels) / kernels / reference.REFERENCE_S
            calibrations.append((i, kernels, factor))
            since = 0.0
        if done:
            break
    return {
        "attempted": i,
        "failed": len(failures),
        "failures": failures,
        "latencies": latencies,
        "scaled": rescale(latencies, calibrations),
        "time_factor": sum(k * f for _, k, f in calibrations) / sum(k for _, k, _ in calibrations),
        "digest": digest.hexdigest(),
    }


def rescale(latencies, calibrations):
    """Each op's latency divided by the time factor around it: the mean over
    the calibration that followed the op and the two before and after.
    A single calibration lasts milliseconds and the machine's speed jumps
    on that scale, so one reading alone is noisy; over the whole run the
    mean would miss slow and fast stretches.  Five readings (about half a
    second) gave the steadiest medians in direct comparison."""
    scaled = []
    start = 0
    for j, (end, _, _) in enumerate(calibrations):
        window = calibrations[max(0, j - 2): j + 3]
        factor = sum(k * f for _, k, f in window) / sum(k for _, k, _ in window)
        scaled.extend(x / factor for x in latencies[start:end])
        start = end
    return scaled


def measure_traced(wl, state, seed, seconds, max_ops, tracing, tracer):
    """Blocks of ops, each run traced and untraced in alternating order."""
    null = tracing.NullTracer()
    failures: list[str] = []
    failed_ops = set()
    digest = hashlib.sha256()
    busy = {True: 0.0, False: 0.0}
    t0 = perf_counter()
    i = 0
    block = 0
    while True:
        first_traced = block % 2 == 0
        results = {}
        for traced in (first_traced, not first_traced):
            results[traced] = []
            start = perf_counter()
            j = i
            while True:
                if traced:
                    tracer.op_id = j
                    tracer.start()
                    with tracer.span("bench.op"):
                        fingerprint, _ = run_op(wl, state, seed, j, tracer, failures)
                    tracer.stop()
                else:
                    fingerprint, _ = run_op(wl, state, seed, j, null, failures)
                results[traced].append(fingerprint)
                if fingerprint is None:
                    failed_ops.add(j)
                j += 1
                if traced == first_traced:
                    # the first pass fixes the block; the second replays it
                    if (max_ops and j >= max_ops) or perf_counter() - start >= TRACE_BLOCK_S:
                        end = j
                        break
                elif j >= end:
                    break
            busy[traced] += perf_counter() - start
        for k, (a, b) in enumerate(zip(results[True], results[False])):
            if a != b:
                failed_ops.add(i + k)
                failures.append(f"op {i + k}: traced and untraced runs differ: {a!r} != {b!r}")
            digest.update(repr((i + k, a)).encode())
        i = end
        block += 1
        if (i >= max_ops) if max_ops else (perf_counter() - t0 >= seconds):
            break
    return {
        "attempted": i,
        "failed": len(failed_ops),
        "failures": failures,
        "traced_ops_per_s": i / busy[True],
        "untraced_ops_per_s": i / busy[False],
        "digest": digest.hexdigest(),
    }


def tail(latencies):
    """Highest percentile with at least 10 samples beyond it (nearest rank);
    the maximum when there are 10 samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def setup_probe(workload, seed):
    """Child process: import, build shared state, print the wall time when ready."""
    workloads, tracing, _ = load()
    workloads.WORKLOADS[workload].setup(seed, tracing.NullTracer())
    print(repr(time.time()), flush=True)


def spawn_until_ready(command):
    """Seconds from spawning `command` to the wall time it prints when ready."""
    started = time.time()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout) - started


def measure_setup(workload, seed):
    """Median time from spawning a fresh interpreter to the first op.

    Each probe is paired with a reference process that starts the
    interpreter and imports numpy, and is rescaled by SETUP_REFERENCE_S /
    (its time).  Process start-up speed drifts with the host by up to 60%
    over minutes, and the reference does the same kind of work, so the
    drift cancels; the CPU-bound reference kernel does not track it."""
    scaled = []
    measured = []
    factors = []
    for _ in range(SETUP_PROBES):
        base = spawn_until_ready([sys.executable, "-c", SETUP_REFERENCE])
        probe = spawn_until_ready([sys.executable, str(Path(__file__).resolve()), "--workload",
                                   workload, "--seed", str(seed), "--setup-probe"])
        measured.append(probe)
        factors.append(base / SETUP_REFERENCE_S)
        scaled.append(probe / factors[-1])
    return statistics.median(scaled), measured, factors


def per_layer_metrics(tracer, traced) -> dict[str, float]:
    rows = tracer.per_name()
    counters = dict(tracer.counters)
    undeclared = [f"span {name}" for name in rows if f"{name}.calls" not in PER_LAYER_UNITS]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    def span_stat(name, stat):
        return rows.get(name, {}).get(stat, 0)

    accepted = counters.pop("representation.accepted", 0)
    derived = {
        "representation.accept_ratio": ratio(accepted, counters.pop("representation.draws", 0)),
        "representation.period3_unchecked_ratio": ratio(
            counters.pop("representation.period3_unchecked", 0), accepted),
        "representation.chi_accept_ratio": ratio(
            counters.pop("representation.chi_accepted", 0), counters.pop("representation.chi_draws", 0)),
        "opers.solve.accept_ratio": ratio(
            counters.pop("opers.solve.accepted", 0), span_stat("opers.solve", "calls")),
        "opers.integrate.ns_per_step": ratio(
            1e9 * span_stat("opers.integrate", "busy_s"), counters.get("opers.integrate.steps", 0)),
        "runtime.gc.collections": tracer.gc_collections,
        "runtime.gc.busy_s": tracer.gc_busy_s,
        "trace.traced_ops_per_s": traced["traced_ops_per_s"],
        "trace.untraced_ops_per_s": traced["untraced_ops_per_s"],
        "trace.overhead_ratio": traced["untraced_ops_per_s"] / traced["traced_ops_per_s"] - 1.0,
    }
    values = {}
    for name in PER_LAYER_UNITS:
        prefix, _, stat = name.rpartition(".")
        if name in derived:
            values[name] = derived[name]
        elif stat == "self_s":
            values[name] = sum(row["self_s"] for span, row in rows.items()
                               if span.startswith(prefix + "."))
        elif stat in ("calls", "busy_s"):
            values[name] = span_stat(prefix, stat)
        else:
            values[name] = counters.pop(name, 0)
    undeclared += [f"counter {name}" for name in counters if name not in PER_LAYER_UNITS]
    if undeclared:
        raise RuntimeError(f"not declared in BENCHMARK.json: {sorted(undeclared)}")
    return values


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    workloads, tracing, reference = load()
    if args.workload not in workloads.WORKLOADS:
        die(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0 or args.ops < 0:
        die("--seconds must be positive and --ops non-negative")
    wl = workloads.WORKLOADS[args.workload]
    info = facts(args.seed)
    OUT.mkdir(exist_ok=True)
    detail = {"workload": wl.name, "trace": args.trace, "seconds": args.seconds, "ops": args.ops,
              "facts": info}

    if args.trace:
        tracer = tracing.Tracer()
        tracer.start()
        state = wl.setup(args.seed, tracer)
        tracer.stop()
        run = measure_traced(wl, state, args.seed, args.seconds, args.ops, tracing, tracer)
        metrics = per_layer_metrics(tracer, run)
        units = PER_LAYER_UNITS
        spans_path = OUT / f"spans-{wl.name}-s{args.seed}.tsv"
        tracer.write(spans_path)
        detail["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        state = wl.setup(args.seed, tracing.NullTracer())
        run = measure_untraced(wl, state, args.seed, args.seconds, args.ops, tracing, reference)
        setup_s, setup_samples, setup_factors = measure_setup(wl.name, args.seed)
        completed = run["attempted"] - run["failed"]

        def timing(latencies):
            tail_s, tail_pct, beyond = tail(latencies)
            return {
                "ops_per_s": completed / sum(latencies),
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_tail_ms": 1e3 * tail_s,
            }, {"percentile": tail_pct, "samples": len(latencies), "beyond": beyond}

        measured, _ = timing(run["latencies"])
        metrics, detail["op_tail"] = timing(run["scaled"])
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = END_TO_END_UNITS
        detail["time_factor"] = run["time_factor"]
        detail["as_measured"] = measured
        detail["setup_samples_s"] = setup_samples
        detail["setup_factor"] = statistics.median(setup_factors)
        measured["setup_s"] = statistics.median(setup_samples)

    reported = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    detail.update(
        attempted=run["attempted"], failed=run["failed"], failures=run["failures"][:20],
        ops_digest=run["digest"], metrics=reported,
    )
    (OUT / f"result-{wl.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n"
    )

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
          + (f"ops {args.ops}" if args.ops else f"seconds {args.seconds:g}"))
    print("facts " + "  ".join(f"{k}={v}" for k, v in info.items()))
    failed_ratio = run["failed"] / run["attempted"]
    print(f"attempted {run['attempted']}  failed {run['failed']}  "
          f"failed_ops_ratio {failed_ratio:g}  ops_digest {run['digest'][:16]}")
    for message in run["failures"][:5]:
        print(f"  FAILED {message}")
    if not args.trace:
        print(f"time factor {detail['time_factor']:.4f} (reference kernel time / nominal), "
              f"set-up factor {detail['setup_factor']:.4f} (reference process time / nominal); "
              "times below are rescaled, as measured in parentheses")
    for name, value in metrics.items():
        note = ""
        if name in detail.get("as_measured", {}):
            note = f"  (as measured {detail['as_measured'][name]:.6g})"
        if name == "op_tail_ms":
            t = detail["op_tail"]
            note += f"  (p{t['percentile']:.2f} of {t['samples']} samples, {t['beyond']} beyond)"
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": reported,
    }))
    return 1 if run["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
