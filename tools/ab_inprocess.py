"""Compare two checkouts of swapalg on one benchmark workload, in one process.

    python3 tools/ab_inprocess.py --base ../parent --workload exact-shared

loads ``swapalg`` and ``bench/workloads.py`` from the base checkout and from
this one (or from ``--change``), each under its own module objects, and
runs the same ops on both in alternating blocks: even blocks run the base
first, odd blocks the change first, so neither tree always runs on a warm
or a cold machine.  Op ``i`` draws from the ``random.Random`` seed that
``bench/run.py`` gives it, so both trees do the same work; their
fingerprints are compared op by op.  Each block is timed with
``time.thread_time`` (the CPU time of this thread, which other processes
on a shared host do not add to).

Prints per-block ops/s of both trees, then the median ops/s of each, the
ratio change / base of the medians, and in how many blocks the change was
faster.  Exits 1 when a fingerprint differs or an op raises.  Nothing is
written: the files under ``bench/`` are only read.
"""

from __future__ import annotations

import argparse
import importlib.util
import random
import statistics
import sys
from pathlib import Path
from time import thread_time

ROOT = Path(__file__).resolve().parents[1]
OWN = ("swapalg", "tracing", "workloads")  # the modules each tree imports afresh


def load_tree(root: Path):
    """(workloads module, NullTracer) of the checkout at `root`, imported
    against that checkout's `src/`, then taken out of `sys.modules` so the
    next tree imports its own `swapalg`."""
    sys.path.insert(0, str(root / "src"))
    try:
        modules = {}
        for name in ("tracing", "workloads"):
            spec = importlib.util.spec_from_file_location(name, root / "bench" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module  # workloads may import tracing by name
            spec.loader.exec_module(module)
            modules[name] = module
        swapalg = sys.modules["swapalg"]
        if Path(swapalg.__file__).resolve().parent != (root / "src" / "swapalg").resolve():
            sys.exit(f"ab: imported swapalg from {swapalg.__file__}, not from {root / 'src'}")
    finally:
        sys.path.remove(str(root / "src"))
        for name in [n for n in sys.modules if n in OWN or n.startswith("swapalg.")]:
            del sys.modules[name]
    return modules["workloads"], modules["tracing"].NullTracer()


def run_block(tree, name, seed, ops):
    """CPU seconds and fingerprints of the ops `ops` of workload `name`."""
    workloads, tracer, state = tree
    workload = workloads.WORKLOADS[name]
    prints = []
    start = thread_time()
    for i in ops:
        rng = random.Random(f"{name}:{seed}:{i}")  # bench/run.py's op_rng
        prints.append(workload.op(state, i, rng, tracer))
    return thread_time() - start, prints


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout to compare against")
    parser.add_argument("--change", type=Path, default=ROOT, help="checkout under test (default: this one)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--blocks", type=int, default=20)
    parser.add_argument("--ops", type=int, default=200, help="ops per block")
    args = parser.parse_args(argv)
    if args.blocks < 1 or args.ops < 1:
        parser.error("--blocks and --ops must be positive")
    sys.dont_write_bytecode = True  # no __pycache__ in either checkout

    trees = []
    for root in (args.base, args.change):
        workloads, tracer = load_tree(root.resolve())
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
        state = workloads.WORKLOADS[args.workload].setup(args.seed, tracer)
        trees.append((workloads, tracer, state))

    rates = ([], [])
    for block in range(args.blocks):
        ops = range(block * args.ops, (block + 1) * args.ops)
        order = (0, 1) if block % 2 == 0 else (1, 0)
        prints = [None, None]
        for side in order:
            seconds, prints[side] = run_block(trees[side], args.workload, args.seed, ops)
            rates[side].append(args.ops / seconds)
        if prints[0] != prints[1]:
            print(f"block {block}: fingerprints differ")
            return 1
        print(f"block {block:3d}  base {rates[0][-1]:10.2f}  change {rates[1][-1]:10.2f} ops/s")

    base, change = (statistics.median(r) for r in rates)
    wins = sum(c > b for b, c in zip(*rates))
    print(f"{args.workload}: median thread-CPU ops/s  base {base:.2f}  change {change:.2f}  "
          f"ratio {change / base:.4f}  change faster in {wins} of {args.blocks} blocks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
