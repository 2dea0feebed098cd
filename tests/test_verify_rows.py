"""Report rows as accumulators of their samples.

A numeric row keeps its largest deviation, and a NaN sample is kept and
fails the row; an exact row counts failed samples as an `int`.  Each NaN
case below poisons one sample after the first of its row, because a NaN
that comes first would survive even a plain `max`.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from swapalg import verify
from swapalg.cli import main
from swapalg.opers import integrate, veronese_oper
from swapalg.representation import Representation
from swapalg.verify import CheckRow, SuiteReport, random_hyperbolic_sl2, run_suite


def _poison(monkeypatch, owner, name, call, poison=lambda value: math.nan):
    """Make call number `call` (from 1, counting calls that raise) of
    `owner.name` return `poison` of its value; returns the call counter."""
    original = getattr(owner, name)
    calls = itertools.count(1)

    def patched(*args, **kwargs):
        number = next(calls)
        value = original(*args, **kwargs)
        return poison(value) if number == call else value

    monkeypatch.setattr(owner, name, patched)
    return calls


def _calls(monkeypatch, owner, name, suite, **options):
    """How often `suite` calls `owner.name`."""
    with monkeypatch.context() as patch:
        calls = _poison(patch, owner, name, 0)
        run_suite(suite, **options)
        return next(calls) - 1


def _rows(report):
    return {row.name: row for row in report.rows}


def _nan_fails(row):
    return math.isnan(row.deviation) and not row.passed


# -- the accumulator ---------------------------------------------------------


def test_passed_follows_deviation_and_bound():
    report = SuiteReport("rows", None)
    assert report.exact("zero", "law", Fraction(0)).passed
    assert not report.exact("third", "law", Fraction(1, 3)).passed
    assert not report.exact("negative", "law", Fraction(-1, 4)).passed
    at_bound = report.within("at-bound", "law", 1e-9)
    at_bound.see(1e-9, 0.5e-9)
    assert at_bound.deviation == 1e-9 and at_bound.passed
    above = report.within("above", "law", 1e-9)
    above.see(math.nextafter(1e-9, 1.0))
    assert not above.passed
    nan_row = report.within("nan", "law", 1.0)
    nan_row.see(0.5, math.nan, 0.25)
    nan_row.see(2.0)
    assert _nan_fails(nan_row)
    report.holds("holds", "law", True)
    report.holds("broken", "law", False)
    assert [row.passed for row in report.rows[-2:]] == [True, False]
    assert not report.passed
    assert "passed" not in {f.name for f in CheckRow.__dataclass_fields__.values()}


def test_failures_fed_through_fail_stay_int():
    row = SuiteReport("rows", None).exact("count", "law")
    assert row.deviation == 0 and row.passed
    for failed in (False, True, True, False, True):
        row.fail(failed)
    assert row.deviation == 3 and type(row.deviation) is int
    assert not row.passed


# -- NaN samples fail their rows ---------------------------------------------


def test_nan_period_fails_period_width(monkeypatch):
    _poison(monkeypatch, verify.Representation, "period", 5)
    rows = _rows(run_suite("period-width", sl2_count=5, sl3_count=2))
    assert _nan_fails(rows["period-width-sl2"])
    assert _nan_fails(rows["anchor-independence"])
    assert rows["period-width-sl3"].passed


def test_nan_octuple_fails_df_swap(monkeypatch):
    _poison(monkeypatch, verify, "ds_crossfraction_bracket", 3, lambda v: (math.nan, v[1]))
    rows = _rows(run_suite("df-swap", steps=512, octuples=6, perturbed=1))
    assert _nan_fails(rows["df-swap"])
    assert rows["same-observable"].passed and rows["unlinked"].passed


def test_nan_second_value_fails_same_observable(monkeypatch):
    _poison(monkeypatch, verify, "ds_crossfraction_bracket", 7, lambda v: (v[0], math.nan))
    rows = _rows(run_suite("df-swap", steps=512, octuples=6, perturbed=1))
    assert _nan_fails(rows["same-observable"])
    assert rows["df-swap"].passed and rows["unlinked"].passed


def test_nan_chi_fails_chi_nonvanishing(monkeypatch):
    # calls alternate order 3 and order 2; the fourth is the second order-2 one
    _poison(monkeypatch, verify.Representation, "chi", 4)
    rows = _rows(run_suite("chi-rank", count=5))
    assert not rows["chi-nonvanishing"].passed
    assert rows["chi-nonvanishing"].detail.startswith("min |chi2| = nan")
    assert rows["chi-vanishing"].passed


@pytest.mark.parametrize("call", [2, 50])
def test_nan_wilson_ratio_fails_without_reaching_the_fit(monkeypatch, call):
    _poison(monkeypatch, verify.Representation, "wilson_ratio", call)
    report = run_suite("wilson-limit", count=2)
    rows = _rows(report)
    assert _nan_fails(rows["geometric-rate"])
    assert not report.passed


def test_nan_fails_wolpert_antisymmetry(monkeypatch):
    last = _calls(monkeypatch, verify, "wolpert_check", "wolpert", count=3)
    _poison(monkeypatch, verify, "wolpert_check", last, lambda v: (v[0], math.nan))
    rows = _rows(run_suite("wolpert", count=3))
    assert _nan_fails(rows["antisymmetry"])
    assert rows["crossing-pairs"].passed


OPER = {"steps": 256, "quadruples": 4, "perturbed": 1}


def test_nan_pairing_fails_transport_constancy(monkeypatch):
    # the transport loop makes the suite's first coordinate_function calls
    _poison(monkeypatch, verify, "coordinate_function", 2)
    rows = _rows(run_suite("oper-crossratio", **OPER))
    assert _nan_fails(rows["transport-constancy"])
    assert rows["mod-one"].passed


def test_nan_error_fails_convergence_order(monkeypatch):
    last = _calls(monkeypatch, verify, "weak_cross_ratio", "oper-crossratio", **OPER)
    _poison(monkeypatch, verify, "weak_cross_ratio", last)
    report = run_suite("oper-crossratio", **OPER)
    assert not _rows(report)["convergence-order"].passed
    assert math.isnan(report.notes["convergence_order"])


def test_verify_verb_reports_a_nan_sample_as_a_failure(monkeypatch, capsys):
    _poison(monkeypatch, verify.Representation, "period", 5)
    assert main(["verify", "period-width"]) == 1
    out, err = capsys.readouterr()
    assert "period-width-sl2.deviation=nan" in out
    assert "period-width-sl2.pass=false" in out and "FAIL" in out
    assert "Traceback" not in err and "error" not in err


# -- row order and details ------------------------------------------------------


def test_holonomy_filter_row_keeps_its_place(monkeypatch):
    classes = iter(["trivial-in-PSL", "not-trivial"])
    monkeypatch.setattr(verify, "holonomy_class", lambda sol: next(classes))
    rows = run_suite("oper-crossratio", steps=256, quadruples=4, perturbed=1).rows
    assert [row.name for row in rows] == [
        "circular-holonomy",
        "determinant-drift",
        "classical-oracle",
        "transport-constancy",
        "mod-one",
        "holonomy-filter",
        "parallel-vs-frenet",
        "lift-invariance",
        "convergence-order",
    ]
    assert not rows[5].passed
    assert rows[6].detail == "2 quadruples over 1 operators"


@pytest.mark.parametrize(
    "steps, transport, parallel",
    [
        (4096, "8 pairs x 16 transport targets", "96 quadruples over 6 operators"),
        (1000, "8 pairs x 17 transport targets", "96 quadruples over 6 operators"),
    ],
)
def test_oper_details_state_the_counts_checked(steps, transport, parallel):
    rows = _rows(run_suite("oper-crossratio", steps=steps))
    assert rows["transport-constancy"].detail == transport
    assert rows["parallel-vs-frenet"].detail == parallel


# -- self pairs ------------------------------------------------------------------


def test_a_point_paired_with_itself_is_exactly_zero():
    m = random_hyperbolic_sl2(random.Random(22))
    rep = Representation({"a": m, "b": random_hyperbolic_sl2(random.Random(23))})
    for word in ("a", "b"):
        for sign in (+1, -1):
            point = rep.fixed_point(word, sign)
            assert rep.pair_value(point, point) == 0.0
    sol = integrate(veronese_oper(2), 1024)
    for j in range(0, 1024, 37):
        point = sol.point(Fraction(j, 1024))
        assert sol.pair_value(point, point) == 0.0


# -- chi-rank's floor --------------------------------------------------------------


def _closed_form_chi2(X, x):
    """|chi| of 3 + 3 points of an n = 2 representation, from positions."""
    s = lambda a, b: abs(math.sin(math.pi * float(a.position - b.position)))
    return (
        s(X[0], x[0]) ** 2 * s(X[1], X[2]) * s(x[1], x[2])
        / (s(X[1], x[0]) * s(X[2], x[0]) * s(X[0], x[1]) * s(X[0], x[2]))
    )


def test_order_two_chi_has_a_closed_form_in_circle_positions():
    rng = random.Random(24)
    for _ in range(5):
        rep = Representation({"a": random_hyperbolic_sl2(rng), "b": random_hyperbolic_sl2(rng)})
        points = [rep.fixed_point(w, s) for w in ("a", "b") for s in (1, -1)]
        points += [rep.boundary_point(rng.uniform(-5.0, 5.0)) for _ in range(8)]
        points.append(rep.boundary_point(None))
        for _ in range(40):
            pts = rng.sample(points, 6)
            X, x = pts[:3], pts[3:]
            assert abs(rep.chi(X, x)) == pytest.approx(_closed_form_chi2(X, x), rel=1e-7)


def test_chi_rank_passes_at_seeds_0_to_39_above_the_floor():
    # seeds 0, 1, 18, 25, 38 and 39 failed chi-nonvanishing when the points
    # were drawn by affine coordinate, with no floor on their circle gaps
    floor = math.sin(math.pi * verify.CHI_SEPARATION) ** 4
    assert floor > 5e-4
    for seed in range(40):
        rows = _rows(run_suite("chi-rank", seed=seed))
        assert all(row.passed for row in rows.values()), seed
        least = float(rows["chi-nonvanishing"].detail.split()[3])
        assert least >= floor * (1 - 1e-3), seed


def test_a_vanishing_order_two_chi_fails_chi_nonvanishing(monkeypatch):
    original = Representation.chi

    def chi(rep, X, x):
        return 0.0 if len(X) == 3 else original(rep, X, x)

    monkeypatch.setattr(verify.Representation, "chi", chi)
    rows = _rows(run_suite("chi-rank", count=5))
    assert not rows["chi-nonvanishing"].passed
    assert rows["chi-vanishing"].passed
