import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapalg.cli import main

POINTS = """
X = 1/16
Z = 3/16
x = 5/16
u = 7/16
Y = 9/16
W = 11/16
y = 13/16
v = 15/16
"""

REP = """
n = 2
element a  2.0 0.0
           0.0 0.5
element b  {c} {s}
           {s} {c}
""".format(c=math.cosh(1.0), s=math.sinh(1.0))

OPER = """
n = 2
q2: k=0 cos={} sin=0
""".format(math.pi**2)


@pytest.fixture
def files(tmp_path):
    points = tmp_path / "points.txt"
    points.write_text(POINTS)
    rep = tmp_path / "rep.txt"
    rep.write_text(REP)
    oper = tmp_path / "oper.txt"
    oper.write_text(OPER)
    return {"points": str(points), "rep": str(rep), "oper": str(oper)}


def test_bracket_verb(files, capsys):
    rc = main(["bracket", "--points", files["points"], "[X x]", "[Y y]", "--alpha", "1/2"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("alpha=1/2")


def test_bracket_of_fractions(files, capsys):
    rc = main(
        ["bracket", "--points", files["points"], "cross(X,Y,x,y)", "cross(Z,W,u,v)"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert " / " in out


def test_jacobi_verb_exit_codes(files, capsys):
    rc = main(
        ["jacobi", "--points", files["points"], "--alpha=-1/4", "[X x]", "[Y y]", "[Z u]"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "zero=true" in out


def test_identities_verb(files, capsys):
    rc = main(["identities", "--points", files["points"]])
    out = capsys.readouterr().out
    assert rc == 0
    assert "linking-axioms" in out and "six-point" in out
    assert "FAIL" not in out


def test_eval_verb(files, capsys):
    rc = main(["eval", "--rep", files["rep"], "elem(a, b)", "cross(a+,b+,a-,b-)"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "elem(a, b) = 0.5" in out
    assert "cross(a+,b+,a-,b-) = 2" in out


def test_eval_verb_on_a_length_cross_fraction(files, capsys):
    from swapalg.representation import Representation

    rc = main(["eval", "--rep", files["rep"], "pbeta(a, b+)"])
    out = capsys.readouterr().out
    assert rc == 0
    value = float(out.split("pbeta(a, b+) = ")[1])
    width = Representation.from_file(files["rep"]).width("a")
    assert abs(math.log(value) - 2 * width) < 1e-9


def test_period_verb(files, capsys):
    rc = main(["period", "--rep", files["rep"], "--word", "a b", "--anchor", "b'+"])
    out = capsys.readouterr().out
    assert rc == 0
    period = float(out.split("period=")[1].splitlines()[0])
    width = float(out.split("width=")[1].splitlines()[0])
    assert abs(period - width) < 1e-9


def test_wolpert_verb(files, capsys):
    rc = main(["wolpert", "--rep", files["rep"], "--gamma", "a", "--eta", "b"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "deviation=" in out


def test_oper_verb(files, capsys):
    rc = main(
        [
            "oper",
            "--oper",
            files["oper"],
            "--steps",
            "256",
            "--cross-ratio",
            "1/8",
            "3/8",
            "5/8",
            "7/8",
            "--coordinate",
            "1/4",
            "3/4",
            "--frenet",
            "3",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "holonomy_class=trivial-in-PSL" in out
    assert "cross_ratio=" in out and "frenet_minimum=" in out


def test_verify_verb_and_determinism(files, capsys):
    rc = main(["verify", "braelem", "--seed", "7"])
    first = capsys.readouterr().out
    assert rc == 0
    rc = main(["verify", "braelem", "--seed", "7"])
    second = capsys.readouterr().out
    assert rc == 0
    assert first == second
    assert "seed=7" in first


def test_verify_tolerance_override(files, capsys):
    # an absurdly tight tolerance forces a failure exit
    rc = main(["verify", "period-width", "--tol", "tolerance=1e-18"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out


def test_input_errors_exit_two(files, capsys):
    assert main(["bracket", "--points", "/nonexistent", "[X x]", "[Y y]"]) == 2
    assert main(["bracket", "--points", files["points"], "[X", "[Y y]"]) == 2
    assert main(["eval", "--rep", files["rep"], "cross(X,Y,x,q)"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_division_by_zero_exits_two_without_traceback(files):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "swapalg.cli", "bracket", "--points", files["points"],
         "[X x] / (1 - 1)", "[Y y]"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error:") and "division by zero" in proc.stderr


def test_divisor_with_several_terms_exits_two_with_its_position(files, capsys):
    rc = main(["bracket", "--points", files["points"], "[X x] / ([X x] + [Y y])", "[Y y]"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err == "error: only monomial fractions are invertible (line 1, column 7)\n"


@pytest.mark.parametrize("verb", ["bracket", "jacobi"])
def test_alpha_must_be_a_rational(files, capsys, verb):
    exprs = ["[X x]", "[Y y]"] + (["[Z u]"] if verb == "jacobi" else [])
    with pytest.raises(SystemExit) as exc:
        main([verb, "--points", files["points"], "--alpha", "1/0", *exprs])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "not an exact rational: '1/0'" in err


@pytest.mark.parametrize(
    "expressions",
    [
        ["cross(X,Y,x,y)", "[X y]", "[Y x]"],
        ["cross(X,Y,x,y)", "cross(Z,W,u,v)", "mf(X Z Y | x u y | (1 2 3))"],
    ],
)
def test_jacobi_verb_on_fractions(files, capsys, expressions):
    rc = main(["jacobi", "--points", files["points"], "--alpha=-1/4", *expressions])
    out = capsys.readouterr().out
    assert rc == 0
    assert "zero=true" in out


def _limit_memory():
    # a missing size guard then fails the test instead of filling memory
    import resource

    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def _run_cli(*argv):
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    return subprocess.run(
        [sys.executable, "-m", "swapalg.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        preexec_fn=_limit_memory,
    )


def test_identities_on_a_single_point(tmp_path, capsys):
    points = tmp_path / "one.txt"
    points.write_text("a = 1/3\n")
    rc = main(["identities", "--points", str(points)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "cut-invariance.pass=true" in out and "FAIL" not in out


def test_identities_on_no_points(tmp_path, capsys):
    points = tmp_path / "empty.txt"
    points.write_text("# no points\n")
    assert main(["identities", "--points", str(points)]) == 2
    assert capsys.readouterr().err == "error: linking-axioms: no points to check\n"


# isolated cases exercise size guards, so they run in a memory-limited
# subprocess; the rest go through `main`, where any escaping exception fails
@pytest.mark.parametrize(
    "argv, isolated, says",
    [
        (["eval", "--rep", "{truncated}", "elem(a, a)"], False, ""),
        (["period", "--rep", "{rep}", "--word", "a b", "--anchor", ""], False, ""),
        (["oper", "--oper", "{oper}", "--cross-ratio", "1/0", "1/8", "3/8", "5/8"], False, ""),
        (["oper", "--oper", "{oper}", "--coordinate", "1/0", "0"], False, ""),
        (["oper", "--oper", "{oper}", "--frenet", "-1"], False, ""),
        (["oper", "--oper", "{oper}", "--coordinate", "1e400", "0"], False, "periods"),
        (["oper", "--oper", "{oper}", "--coordinate", "1e30", "0"], False, "periods"),
        (["oper", "--oper", "{oper}", "--cross-ratio", "1e400", "1/8", "3/8", "5/8"], False, "periods"),
        (["oper", "--oper", "{oper}", "--cross-ratio", "1/8", "3/8", "3/8", "7/8"], False, ""),
        (["bracket", "--points", "{points}", "(" * 3000 + "1" + ")" * 3000, "[X x]"], True, ""),
        (["bracket", "--points", "{points}", "--", "-" * 3000 + "1", "[X x]"], True, ""),
        (["oper", "--oper", "{oper}", "--steps", "200000000"], True, ""),
        (["oper", "--oper", "{order5000}", "--steps", "64"], True, ""),
        (["eval", "--rep", "{rep3}", "wolpert(a, b)"], False, ""),
        # numpy warnings reach stderr only outside pytest's warning capture
        (["oper", "--oper", "{cos_huge}", "--steps", "128"], True, "not finite at 128 steps"),
        (["oper", "--oper", "{cos_nan}", "--steps", "128"], True, "q2 harmonic k=0: cos=nan"),
        (["oper", "--oper", "{cos_inf}", "--steps", "128"], True, "q2 harmonic k=0: cos=inf"),
        (["oper", "--oper", "{cos_overflow}", "--steps", "128"], True, "not finite at 128 steps"),
        (["oper", "--oper", "{det_overflow}", "--steps", "128"], True, "determinants are not finite"),
        (["oper", "--oper", "{det_drift}", "--steps", "128"], True, "drift 8.740e+245 from 1"),
        (["period", "--rep", "{rep}", "--word", "a b", "--anchor", "t=1e308"], True, "t=1e+308 overflows"),
        (["period", "--rep", "{rep}", "--word", "a b", "--anchor", "t=nan"], True, "t=nan is not a number"),
        (["oper", "--oper", "{misspelt}", "--steps", "64"], False, "line 2: unknown field 'cso=9.87'"),
        (["oper", "--oper", "{second_n}", "--steps", "64"], False, "line 3: a second 'n =' line"),
        (["oper", "--oper", "{k_real}", "--steps", "64"], False, "line 2: invalid literal for int()"),
        (["oper", "--oper", "{n_x}", "--steps", "64"], False, "line 1: invalid literal for int()"),
    ],
    ids=[
        "truncated-rep",
        "empty-anchor",
        "cross-ratio-1/0",
        "coordinate-1/0",
        "negative-frenet",
        "coordinate-1e400",
        "coordinate-1e30",
        "cross-ratio-1e400",
        "cross-ratio-z=y",
        "deep-parentheses",
        "deep-unary-minus",
        "too-many-steps",
        "order-5000",
        "wolpert-synthetic-order",
        "oper-cos-1e300",
        "oper-cos-nan",
        "oper-cos-inf",
        "oper-solutions-overflow",
        "oper-det-overflow",
        "oper-det-drift",
        "anchor-overflows",
        "anchor-nan",
        "oper-unknown-fields",
        "oper-second-n",
        "oper-k-1.5",
        "oper-n-x",
    ],
)
def test_bad_input_exits_two_with_one_line(files, tmp_path, capsys, argv, isolated, says):
    paths = dict(files)
    for name, text in (
        ("truncated", REP + "element\n"),
        ("order5000", "n = 5000\n"),
        ("rep3", "n = 3\nelement a 4 0 0 0 1 0 0 0 0.25\nelement b 2 1 0 1 1 0 0 0 1\n"),
        ("cos_huge", "n = 2\nq2: k=0 cos=1e300 sin=0\n"),
        ("cos_nan", "n = 2\nq2: k=0 cos=nan sin=0\n"),
        ("cos_inf", "n = 2\nq2: k=0 cos=inf sin=0\n"),
        ("cos_overflow", "n = 2\nq2: k=0 cos=-1e6 sin=0\n"),
        ("det_overflow", "n = 2\nq2: k=0 cos=-3e5 sin=0\n"),
        ("det_drift", "n = 2\nq2: k=0 cos=-1e5 sin=0\n"),
        ("misspelt", "n = 2\nq2: k=0 cso=9.87 junk\nn = 3\n"),
        ("second_n", "n = 2\nq2: k=0 cos=9.87\nn = 3\n"),
        ("k_real", "n = 2\nq2: k=1.5\n"),
        ("n_x", "n = x\nq2: k=1\n"),
    ):
        path = tmp_path / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in argv]
    if isolated:
        proc = _run_cli(*argv)
        code, err = proc.returncode, proc.stderr
    else:
        code, err = main(argv), capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err and "Warning" not in err
    assert err.startswith("error:") and err.count("\n") == 1 and says in err


@pytest.mark.parametrize(
    "argv, accepted",
    [
        (["verify", "wilson-limit", "--tol", "rate_slak=0"], "rate_slack"),
        (["verify", "period-width", "--count", "1"], "sl2_count"),
    ],
)
def test_verify_rejects_options_the_suite_does_not_take(capsys, argv, accepted):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "does not take" in err and accepted in err


def test_run_suite_skips_unset_and_rejects_unknown_options():
    from swapalg.errors import SwapAlgError
    from swapalg.verify import run_suite

    assert run_suite("wilson-limit", count=1, rate_slack=None).passed
    with pytest.raises(SwapAlgError, match="accepts seed, count, max_power, rate_slack"):
        run_suite("wilson-limit", rate_slak=0)


def test_verify_all_applies_options_where_taken(monkeypatch, capsys):
    from swapalg import cli, verify

    def seeded(seed=0):
        return verify.SuiteReport("seeded", seed)

    def counted(count=0):
        report = verify.SuiteReport("counted", None)
        report.notes["count"] = count
        return report

    fake = {"seeded": seeded, "counted": counted}
    monkeypatch.setattr(verify, "SUITES", fake)
    monkeypatch.setattr(cli, "SUITES", fake)
    assert main(["verify", "all", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "seed=7" in out and "count=0" in out
    assert main(["verify", "all", "--steps", "64"]) == 2
    assert capsys.readouterr().err == "error: no suite takes steps\n"


def test_a_suite_that_raises_fails_and_the_others_run(monkeypatch, capsys):
    from swapalg import cli, verify

    def broken(seed=5):
        raise ZeroDivisionError("division by zero")

    def fine(count=1):
        report = verify.SuiteReport("fine", None)
        report.holds("fine", "holds", True)
        return report

    fake = {"broken": broken, "fine": fine}
    monkeypatch.setattr(verify, "SUITES", fake)
    monkeypatch.setattr(cli, "SUITES", fake)
    assert main(["verify", "all"]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "suite: broken   seed: 5\n" in captured.out and "suite=fine\n" in captured.out
    assert "raised                    ZeroDivisionError: division by zero" in captured.out
    assert "error=ZeroDivisionError: division by zero\nerror_at=test_cli.py:" in captured.out
    assert " in broken\nraised.deviation=1\nraised.pass=false\n" in captured.out
    assert main(["verify", "broken", "--seed", "8"]) == 1
    assert "seed=8\n" in capsys.readouterr().out
    # bad options are still input errors, refused before any suite runs
    assert main(["verify", "broken", "--count", "2"]) == 2


def test_tol_values_take_the_type_of_the_default(capsys):
    assert main(["verify", "jacobi", "--count", "3"]) == 0
    by_count = capsys.readouterr().out
    assert main(["verify", "jacobi", "--tol", "count=3"]) == 0
    assert capsys.readouterr().out == by_count
    assert main(["verify", "jacobi", "--tol", "count=2.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "count" in err and err.count("\n") == 1


def test_verify_all_converts_tol_values_per_suite(monkeypatch, capsys):
    from swapalg import cli, verify

    def whole(limit: int = 1):
        report = verify.SuiteReport("whole", None)
        report.notes["whole_limit"] = limit
        return report

    def real(limit: float = 0.5):
        report = verify.SuiteReport("real", None)
        report.notes["real_limit"] = limit
        return report

    fake = {"whole": whole, "real": real}
    monkeypatch.setattr(verify, "SUITES", fake)
    monkeypatch.setattr(cli, "SUITES", fake)
    assert main(["verify", "all", "--tol", "limit=2"]) == 0
    out = capsys.readouterr().out
    assert "whole_limit=2\n" in out and "real_limit=2.000e+00\n" in out


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobi", "--count", "-1"],
        ["wolpert", "--count", "0"],
        ["wilson-limit", "--tol", "max_power=3"],
        ["wilson-limit", "--tol", "max_power=8"],
    ],
    ids=["jacobi-count", "wolpert-count", "wilson-max-power-3", "wilson-max-power-8"],
)
def test_vacuous_counts_are_refused(capsys, argv):
    assert main(["verify", *argv]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error:") and err.count("\n") == 1


# a NaN bound fails every row; an infinite or negative one passes or fails
# every row with nothing checked
_BAD_BOUNDS = [
    ("wolpert", "tolerance", "nan"),
    ("wolpert", "tolerance", "inf"),
    ("df-swap", "tolerance", "inf"),
    ("period-width", "tolerance", "-1"),
    ("wilson-limit", "rate_slack", "nan"),
    ("chi-rank", "lower", "-1"),
    ("chi-rank", "upper", "-inf"),
]


@pytest.mark.parametrize("suite, key, value", _BAD_BOUNDS)
def test_bad_bounds_are_refused(capsys, suite, key, value):
    from swapalg.errors import SwapAlgError
    from swapalg.verify import run_suite

    for name in (suite, "all"):
        assert main(["verify", name, "--tol", f"{key}={value}"]) == 2
        out, err = capsys.readouterr()
        assert out == ""  # refused before any suite runs
        assert err.startswith("error:") and err.count("\n") == 1 and f"{key} must be finite" in err
    for given in (value, float(value)):
        with pytest.raises(SwapAlgError, match=f"{key} must be finite and at least 0"):
            run_suite(suite, **{key: given})


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_wolpert_verb_refuses_bad_tolerance(files, capsys, value):
    argv = ["wolpert", "--rep", files["rep"], "--gamma", "a", "--eta", "b", "--tolerance", value]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error:") and err.count("\n") == 1 and "--tolerance" in err


def test_wolpert_verb_runs_at_zero_tolerance(files, capsys):
    argv = ["wolpert", "--rep", files["rep"], "--gamma", "a", "--eta", "b", "--tolerance", "0"]
    assert main(argv) == 1
    assert "deviation=" in capsys.readouterr().out


# -- fuzzing the file readers ----------------------------------------------------

_WORDS = [
    "n", "=", "0", "1", "2", "3", "-1", "99", "1/3", "-1/2", "2/1", "1/0", "0.5",
    "2.0", "-0.5", "1e400", "nan", "inf", "q2:", "q3:", "k=1", "k=-2", "cos=0.5",
    "sin=-2", "cos=nan", "element", "a", "b", "#", ":", "\n",
]
# free text carries no decimal digits, so every number comes from _WORDS and
# stays small: an operator order of 999 would ask for gigabytes of frames
_TOKEN = st.one_of(
    st.sampled_from(_WORDS),
    st.text(st.characters(exclude_categories=("Cs", "Nd")), max_size=4),
)
# each reader gets a valid file, then token edits; the command runs on it
_READERS = {
    "identities": (["identities", "--points"], [], "a = 1/3\nb = 2/3\nc = 0\nd = 5/6\n"),
    "eval": (["eval", "--rep"], ["elem(a, b)"], REP),
    "oper": (["oper", "--oper"], ["--steps", "64"], OPER),
}


@st.composite
def _edited(draw, valid):
    tokens = re.findall(r"\S+|\n", valid)
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.sampled_from(range(len(tokens) + 1)))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        if edit == "insert":
            tokens.insert(i, draw(_TOKEN))
        elif tokens:
            i = min(i, len(tokens) - 1)
            tokens[i : i + 1] = [draw(_TOKEN)] if edit == "replace" else []
    return " ".join(tokens)


@pytest.mark.parametrize("reader", sorted(_READERS))
@settings(max_examples=100, derandomize=True, deadline=None)
@given(data=st.data())
def test_file_readers_exit_zero_or_two_with_one_line(reader, data):
    head, tail, valid = _READERS[reader]
    text = data.draw(_edited(valid))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([*head, path, *tail])
    assert rc in (0, 2)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1 and all(line.startswith("error:") for line in lines)


def test_a_fraction_without_pairs_exits_two_with_one_line(files):
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "swapalg.cli", "bracket", "--points", files["points"],
         "mf( | | id)", "[X x]"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error:") and "at least one pair" in proc.stderr


# numpy warnings reach stderr only outside pytest's warning capture, so these
# run in a subprocess
@pytest.mark.parametrize(
    "text, says",
    [
        ("n = 2\nelement a 1e308 1e308 1e308 1e308\nelement b 2 0 0 0.5\n", "determinant is not finite"),
        ("n = 2\nelement a nan 0 0 0.5\nelement b 2 0 0 0.5\n", "entries must be finite"),
        ("n = 2\nelement a inf 0 0 0.5\nelement b 2 0 0 0.5\n", "entries must be finite"),
        ("n = 2\nelement a 1e308 0 0 1e-320\nelement b 2 0 0 0.5\n", "overflow when scaled"),
        ("n = x\nelement a 2 0 0 0.5\n", "<int> a positive integer"),
        ("n = -1\nelement a 2 0 0 0.5\n", "<int> a positive integer"),
        ("n = 0\n", "<int> a positive integer"),
        ("n = 2\nelement a 2 0 0 0.5\nelement a 3 0 0 0.25\n", "line 3: element 'a' is defined twice"),
        ("n = 2\nelement a 2 0\n 0 0.5\nelement b 1 x 0 1\n", "line 4: element 'b': could not convert"),
        ("n = 2\nelement a 2 0 0 0.5\n\nfoo b 1 0 0 1\n", "line 4: expected 'element', found 'foo'"),
        # a refused value names its generator and the line of its label
        ("n = 2\nelement a 2 0 0 0.5\nelement b 1e308 1e308 1e308 1e308\n",
         "error: line 3: generator 'b': matrix determinant is not finite\n"),
        ("n = 2\nelement a 2 0 0 0.5\nelement b\n nan 0 0 1\n",
         "error: line 3: generator 'b': matrix entries must be finite\n"),
        ("n = 2\nelement a 2 0 0 0.5\n\nelement b 1 1 1 1\n", "error: line 4: generator 'b': matrix is singular\n"),
        ("n = 2\nelement a 2 0 0 0.5 element b 1 0 0 -1\n",
         "error: line 2: generator 'b': negative determinant has no loxodromic class\n"),
        ("n = 2\nelement a 2 0 0 0.5\nelement b 1 1 -1 1\n",
         "error: line 3: generator 'b': not loxodromic: complex spectrum for b\n"),
    ],
    ids=[
        "det-overflow", "nan-entry", "inf-entry", "scaled-overflow", "n-x", "n-minus-1", "n-0", "repeated-label",
        "entry-not-real", "not-element", "det-overflow-named", "nan-entry-named", "singular-named",
        "negative-det-named", "complex-named",
    ],
)
def test_bad_representation_exits_two_with_one_line(tmp_path, text, says):
    rep = tmp_path / "rep.txt"
    rep.write_text(text)
    proc = _run_cli("eval", "--rep", str(rep), "cross(a+, a-, b+, b-)")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1 and says in proc.stderr
