"""tools/ab_inprocess.py runs a checkout against itself: same fingerprints,
one summary line, exit 0."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_ab_inprocess_compares_a_checkout_with_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_inprocess.py"), "--base", str(ROOT),
         "--workload", "exact-shared", "--blocks", "2", "--ops", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *blocks, summary = proc.stdout.splitlines()
    assert len(blocks) == 2 and blocks[0].startswith("block   0")
    assert summary.startswith("exact-shared: median thread-CPU ops/s") and "of 2 blocks" in summary
