"""Command line front end.

Verbs:

  bracket     swapping bracket of two expressions
  jacobi      Jacobi sum of three expressions (prints the exact result)
  identities  exhaustive linking identities over the points of a file
  eval        evaluate balanced fractions against a representation
  period      period and width of a word in a representation
  wolpert     length-bracket cross-check for two crossing words (n = 2)
  oper        integrate an operator file and query it
  verify      run a named verification suite

Reports are deterministic for a fixed command line (seeds are always
explicit in the output).  Exit codes: 0 on success, 1 when a verification
fails, 2 on input errors.  A suite that raises while it computes has
failed, not refused its input: `verify` prints it as a failed report and
goes on with the other suites.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import traceback
from fractions import Fraction

from .algebra import jacobiator, swap_bracket
from .circle import PointConfig
from .errors import ParseError, SwapAlgError
from .opers import (
    OperSpec,
    coordinate_function,
    frenet_validate,
    holonomy_class,
    integrate,
    weak_cross_ratio,
)
from .parser import parse_expression
from .representation import Representation, wolpert_check
from .verify import (
    SIX_POINT_MAX_POINTS,
    SUITES,
    SuiteReport,
    checked_options,
    run_suite,
    suite_options,
)


def _fraction_arg(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not an exact rational: {text!r}") from None


def _build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swapalg",
        description="Exact swapping bracket on circle points, with numeric backends.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("bracket", help="swapping bracket of two expressions")
    p.add_argument("--points", "--config", dest="points", required=True,
                   help="point configuration file")
    p.add_argument("--alpha", type=_fraction_arg, default=Fraction(0))
    p.add_argument("first")
    p.add_argument("second")

    p = sub.add_parser("jacobi", help="Jacobi sum of three expressions")
    p.add_argument("--points", "--config", dest="points", required=True)
    p.add_argument("--alpha", type=_fraction_arg, default=Fraction(0))
    p.add_argument("expressions", nargs=3)

    p = sub.add_parser("identities", help="exact linking identities over a point file")
    p.add_argument("--points", "--config", dest="points", required=True)

    p = sub.add_parser("eval", help="evaluate expressions against a representation")
    p.add_argument("--rep", "--config", dest="rep", required=True,
                   help="representation file")
    p.add_argument("expressions", nargs="+")

    p = sub.add_parser("period", help="period and width of a word")
    p.add_argument("--rep", "--config", dest="rep", required=True)
    p.add_argument("--word", required=True)
    p.add_argument(
        "--anchor",
        required=True,
        help="fixed point like \"b+\" or \"a b'-\" used as the anchor",
    )

    p = sub.add_parser("wolpert", help="length-bracket cross-check (n = 2)")
    p.add_argument("--rep", "--config", dest="rep", required=True)
    p.add_argument("--gamma", required=True)
    p.add_argument("--eta", required=True)
    p.add_argument("--tolerance", type=float, default=1e-6)

    p = sub.add_parser("oper", help="integrate an operator file and query it")
    p.add_argument("--oper", "--config", dest="oper", required=True,
                   help="operator coefficient file")
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--cross-ratio", nargs=4, metavar=("x", "y", "z", "t"))
    p.add_argument("--coordinate", nargs=2, metavar=("Y", "y"))
    p.add_argument("--frenet", type=int, metavar="COUNT", default=0,
                   help="validate COUNT random weighted tuples")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--steps", type=int, default=None)
    p.add_argument(
        "--tol",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a tolerance keyword of the suite (repeatable)",
    )
    return parser


def _fixed_point_arg(rep: Representation, text: str):
    text = text.strip()
    if text.startswith("t="):
        return rep.boundary_point(float(text[2:]))
    if text.endswith(("+", "-")):
        sign = 1 if text[-1] == "+" else -1
        return rep.fixed_point(text[:-1].strip(), sign)
    raise SwapAlgError(f"anchor {text!r} should end in '+' or '-' or be 't=<coord>'")


def _cmd_bracket(args) -> int:
    config = PointConfig.from_file(args.points)
    first = parse_expression(args.first, config)
    second = parse_expression(args.second, config)
    result = swap_bracket(first, second, args.alpha)
    print(f"alpha={args.alpha}")
    print(result)
    return 0


def _cmd_jacobi(args) -> int:
    config = PointConfig.from_file(args.points)
    elements = [parse_expression(text, config) for text in args.expressions]
    result = jacobiator(*elements, args.alpha)
    print(f"alpha={args.alpha}")
    print(result)
    print(f"zero={'true' if result.is_zero else 'false'}")
    return 0 if result.is_zero else 1


def _cmd_identities(args) -> int:
    config = PointConfig.from_file(args.points)
    points = config.points()
    reports = [run_suite("linking-axioms", points=points)]
    if len(points) <= SIX_POINT_MAX_POINTS:
        reports.append(run_suite("six-point", points=points))
    else:
        print(f"# six-point enumeration skipped ({len(points)} points > {SIX_POINT_MAX_POINTS})")
    failed = False
    for report in reports:
        print(report.render())
        print()
        failed = failed or not report.passed
    return 1 if failed else 0


def _cmd_eval(args) -> int:
    rep = Representation.from_file(args.rep)
    for text in args.expressions:
        value = parse_expression(text, universe=rep)
        print(f"{text} = {rep.eval_fraction(value):.12g}")
    return 0


def _cmd_period(args) -> int:
    rep = Representation.from_file(args.rep)
    anchor = _fixed_point_arg(rep, args.anchor)
    period = rep.period(args.word, anchor)
    width = rep.width(args.word)
    print(f"period={period:.12g}")
    print(f"width={width:.12g}")
    print(f"deviation={abs(period - width):.3e}")
    return 0


def _cmd_wolpert(args) -> int:
    if not (math.isfinite(args.tolerance) and args.tolerance >= 0):
        raise SwapAlgError(f"--tolerance must be finite and at least 0, got {args.tolerance}")
    rep = Representation.from_file(args.rep)
    if rep.dimension != 2:
        raise SwapAlgError("the wolpert check needs a 2-dimensional representation")
    lhs, rhs = wolpert_check(rep.matrix(args.gamma), rep.matrix(args.eta))
    print(f"angle_side={lhs:.12g}")
    print(f"bracket_side={rhs:.12g}")
    print(f"deviation={abs(lhs - rhs):.3e}")
    return 0 if abs(lhs - rhs) < args.tolerance else 1


def _rationals(texts) -> list[Fraction]:
    try:
        return [Fraction(v) for v in texts]
    except (ValueError, ZeroDivisionError):
        raise SwapAlgError(f"not exact rationals: {' '.join(texts)}") from None


def _cmd_oper(args) -> int:
    if args.frenet < 0:
        raise SwapAlgError(f"--frenet COUNT must not be negative, got {args.frenet}")
    cross_ratio = _rationals(args.cross_ratio or ())
    coordinate = _rationals(args.coordinate or ())
    oper = OperSpec.from_file(args.oper)
    sol = integrate(oper, args.steps)
    print(f"order={oper.order}")
    print(f"steps={args.steps}")
    print(f"holonomy_class={holonomy_class(sol)}")
    print(f"det_drift={sol.det_drift:.3e}")
    for row in sol.holonomy:
        print("holonomy " + " ".join(f"{v: .12e}" for v in row))
    if cross_ratio:
        print(f"cross_ratio={weak_cross_ratio(sol, *cross_ratio):.12g}")
    if coordinate:
        print(f"coordinate={coordinate_function(sol, *coordinate):.12g}")
    if args.frenet:
        import random

        rng = random.Random(0)
        samples = []
        n = oper.order
        for _ in range(args.frenet):
            k = rng.randint(1, n)
            supports = sorted(rng.sample(range(args.steps), k))
            weights = [1] * k
            budget = n - k
            for _ in range(budget):
                weights[rng.randrange(k)] += 1
            samples.append(
                ([Fraction(s, args.steps) for s in supports], weights)
            )
        result = frenet_validate(sol, samples)
        print(f"frenet_minimum={result['minimum']:.6e}")
    return 0


def _cmd_verify(args) -> int:
    overrides = {}
    for item in args.tol:
        if "=" not in item:
            raise SwapAlgError(f"--tol expects NAME=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value  # checked_options converts it per suite
    options = {"seed": args.seed, "count": args.count, "steps": args.steps, **overrides}
    options = {k: v for k, v in options.items() if v is not None}
    plan = [(args.suite, options)]
    if args.suite == "all":
        plan = [
            (name, {k: v for k, v in options.items() if k in suite_options(name)})
            for name in sorted(SUITES)
        ]
        unused = set(options).difference(*(kwargs for _, kwargs in plan))
        if unused:
            raise SwapAlgError(f"no suite takes {', '.join(sorted(unused))}")
    # every option is checked before any suite runs
    plan = [(name, checked_options(name, kwargs)) for name, kwargs in plan]
    failed = False
    for name, kwargs in plan:
        report = _computed_report(name, kwargs)
        print(report.render())
        print()
        failed = failed or not report.passed
    return 1 if failed else 0


def _computed_report(name: str, kwargs: dict) -> SuiteReport:
    """The named suite's report.  An exception raised while the suite
    computes fails it: the report then holds one failed row whose law is
    the exception, noted in full as `error`, with the place that raised it
    as `error_at`."""
    try:
        return SUITES[name](**kwargs)
    except Exception as exc:
        parameters = suite_options(name)
        seed = kwargs.get("seed", parameters["seed"].default) if "seed" in parameters else None
        message = f"{type(exc).__name__}: {exc}"
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        at = f"{os.path.basename(frame.filename)}:{frame.lineno} in {frame.name}"
        report = SuiteReport(name, seed, notes={"error": message, "error_at": at})
        report.exact("raised", message, 1)
        return report


_COMMANDS = {
    "bracket": _cmd_bracket,
    "jacobi": _cmd_jacobi,
    "identities": _cmd_identities,
    "eval": _cmd_eval,
    "period": _cmd_period,
    "wolpert": _cmd_wolpert,
    "oper": _cmd_oper,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (SwapAlgError, ParseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
