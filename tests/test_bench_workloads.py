"""The benchmark's workloads still run against the library.

Each workload in bench/workloads.py builds its shared state and runs one op
untraced, with a fixed seed.  A library name the benchmark calls but the
library no longer has fails here, not only when the benchmark is run.
"""

import hashlib
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


# The first 16 hex digits of the ops digest of `bench/run.py --seed 3 --ops 6`
# for the exact workloads, whose results are exact and so the same on every
# host.  The matrix and oper digests depend on the host's BLAS kernels, so
# they are not pinned.
EXACT_DIGESTS = {"exact-fresh": "32cee6c2c87601e7", "exact-shared": "8f37a0172f2fb45a"}


@pytest.mark.parametrize("name", sorted(EXACT_DIGESTS))
def test_exact_workload_fingerprints_are_pinned(name):
    workload = workloads.WORKLOADS[name]
    tracer = tracing.NullTracer()
    state = workload.setup(SEED, tracer)
    digest = hashlib.sha256()
    for i in range(6):
        result = workload.op(state, i, random.Random(f"{name}:{SEED}:{i}"), tracer)
        digest.update(repr((i, result)).encode())
    assert digest.hexdigest()[:16] == EXACT_DIGESTS[name]
