"""The public surface: the exported names and the command-line verbs.

A simplification must not drop a public name or a verb silently; removing
one means editing the lists below.
"""

import argparse
from pathlib import Path

import swapalg
from swapalg.cli import _build_arg_parser

PUBLIC_NAMES = [
    "AlgebraElement", "CirclePoint", "ConfigMismatchError",
    "DegenerateFractionError", "EvaluationError", "FundamentalSolution",
    "GroupElementData", "InvalidCutError", "Monomial",
    "NotLoxodromicError", "OperSpec", "ParseError", "PointConfig",
    "Representation", "SUITES", "SwapAlgError", "SymbolicWords", "WordError",
    "algebra", "birelem_identity", "circle", "cocycle_defect",
    "coordinate_function", "cross_fraction", "ds_crossfraction_bracket",
    "ds_pair_bracket", "eigen_split", "elementary",
    "elementary_bracket_closed_form", "errors", "fraction_bracket",
    "frenet_validate", "generator", "halfplane", "holonomy_class", "integrate",
    "is_balanced", "jacobiator", "length_bracket", "length_cross_fraction",
    "length_length_bracket", "linking_number", "multi_fraction",
    "multifraction", "oper_cross_fraction", "opers", "parse_expression",
    "parser", "random_trivial_holonomy_opers", "representation",
    "richardson_error", "run_suite", "six_point_F", "six_point_G",
    "solve_trivial_holonomy", "swap_bracket", "symmetric_square", "verify",
    "veronese_oper", "weak_cross_ratio", "wolpert_check", "wolpert_rhs",
    "words",
]

VERBS = {"bracket", "jacobi", "identities", "eval", "period", "wolpert", "oper", "verify"}


def test_public_names_are_pinned():
    assert sorted(swapalg.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 63


def test_cli_verbs_are_pinned():
    parser = _build_arg_parser()
    (verbs,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(verbs.choices) == VERBS


def test_only_algebra_knows_the_integer_normal_form():
    package = Path(swapalg.__file__).parent
    knowing = sorted(
        path.name
        for path in package.glob("*.py")
        if "_numerators" in path.read_text() or "_denominator" in path.read_text()
    )
    assert knowing == ["algebra.py"]


def test_only_algebra_builds_pairs_and_monomials():
    package = Path(swapalg.__file__).parent
    building = sorted(
        path.name
        for path in package.glob("*.py")
        if any(call in path.read_text() for call in ("Monomial(", "Monomial._from_exponents"))
    )
    assert building == ["algebra.py"]
