"""The verification suites as a gate: each known one-line defect, put into a
copy of the sources, must make the suites named for it fail (exit 1).

Known blind spots, not run here, because the suites pass with them in:
  M1  Leibniz weight `e * f * lk2` -> `sign(e) * f * lk2` in `swap_bracket`,
  M2  the alpha term of `swap_bracket` dropped (both ROADMAP item 6; the
      Tier-1 algebra tests see them),
  M6  `/ n**2` -> `/ n` in `opers._pair_bracket`: the 1/n^2 terms cancel on
      cross fractions, so only `ds_pair_bracket` itself changes (ROADMAP
      item 10; `test_ds_pair_bracket_matches_the_veronese_closed_form` sees it).
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

# (file under src/swapalg, old text, new text, suites that must fail)
MUTATIONS = {
    "M3-doubled-swapped-part": (
        "algebra.py",
        "acc[m] = acc.get(m, 0) + scaled * weight",
        "acc[m] = acc.get(m, 0) + 2 * scaled * weight",
        ("braelem", "df-swap"),
    ),
    # df-swap raises on the unbalanced fraction this makes, and a suite that
    # raises while it computes fails: exit 1, not the input error's exit 2
    "M4-swapped-pair-reversed": (
        "algebra.py",
        "swaps.append(((((X, y), 1), ((Y, x), 1)",
        "swaps.append(((((y, X), 1), ((Y, x), 1)",
        ("alpha-independence", "braelem", "df-swap", "jacobi"),
    ),
    "M5-linking-first-factor-dropped": (
        "circle.py",
        "return cmp(a, b) * (cmp(a, d) * cmp(d, b) - cmp(a, c) * cmp(c, b))",
        "return (cmp(a, d) * cmp(d, b) - cmp(a, c) * cmp(c, b))",
        ("jacobi", "linking-axioms"),
    ),
    "M7-bracket-halved": (
        "algebra.py",
        "2 * a._denominator * b._denominator * swap_scale",
        "4 * a._denominator * b._denominator * swap_scale",
        ("braelem", "df-swap"),
    ),
}


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_verify_fails_on_a_known_defect(tmp_path, case):
    name, old, new, suites = MUTATIONS[case]
    shutil.copytree(SRC, tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    path = tmp_path / "src" / "swapalg" / name
    text = path.read_text()
    assert text.count(old) == 1, f"{case}: the old text must occur exactly once in {name}"
    path.write_text(text.replace(old, new))
    env = {**os.environ, "PYTHONPATH": str(tmp_path / "src")}
    for suite in suites:
        proc = subprocess.run(
            [sys.executable, "-m", "swapalg.cli", "verify", suite],
            capture_output=True,
            text=True,
            env=env,
            cwd=tmp_path,
            timeout=60,
        )
        # a copy that fails to import would exit 1 too, with a traceback and no rows
        assert "Traceback" not in proc.stderr, f"{case}: {suite} crashed"
        assert proc.returncode == 1 and "FAIL" in proc.stdout, f"{case}: {suite} passed"
