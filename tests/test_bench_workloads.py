"""The benchmark's workloads still run against the library.

Each workload in bench/workloads.py builds its shared state and runs one op
untraced, with a fixed seed.  A library name the benchmark calls but the
library no longer has fails here, not only when the benchmark is run.
"""

import importlib.util
import random
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 3


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_one_op(name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.NullTracer()
    state = workload.setup(SEED, tracer)
    # the op seed of bench/run.py for op 0
    assert workload.op(state, 0, random.Random(f"{name}:{SEED}:0"), tracer) is not None
