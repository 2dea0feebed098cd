"""Exact Poisson algebra on pairs of circle points, with numeric backends.

The package has three layers:

  * an exact symbolic kernel (`circle`, `algebra`, `multifraction`): circle
    points with the linking form, Laurent polynomials in pair generators
    with the swapping bracket, and the balanced fractions among them:
    cross fractions, multi fractions, elementary functions and length
    functions;
  * a matrix backend (`representation`): eigenvector evaluation of balanced
    fractions, periods and widths, trace asymptotics, and the half-plane
    cross-check of the length-function bracket;
  * an operator backend (`opers`): monodromy of periodic differential
    operators, weak cross ratios of the associated curves, coordinate
    observables and their reduced Poisson bracket.

Both backends are evaluation universes (a `config` and a `pair_value`) for
`AlgebraElement.evaluate` and the rank test `multifraction.chi`.  `verify`
bundles the identity suites behind the `swapalg` command line.
"""

from .algebra import AlgebraElement, Monomial, generator, jacobiator, swap_bracket
from .circle import (
    CirclePoint,
    PointConfig,
    cocycle_defect,
    linking_number,
    six_point_F,
    six_point_G,
)
from .errors import (
    ConfigMismatchError,
    DegenerateFractionError,
    EvaluationError,
    InvalidCutError,
    NotLoxodromicError,
    ParseError,
    SwapAlgError,
    WordError,
)
from .multifraction import (
    SymbolicWords,
    birelem_identity,
    cross_fraction,
    elementary,
    elementary_bracket_closed_form,
    fraction_bracket,
    is_balanced,
    length_bracket,
    length_cross_fraction,
    length_length_bracket,
    multi_fraction,
    wolpert_rhs,
)
from .opers import (
    FundamentalSolution,
    OperSpec,
    coordinate_function,
    ds_crossfraction_bracket,
    ds_pair_bracket,
    frenet_validate,
    holonomy_class,
    integrate,
    oper_cross_fraction,
    richardson_error,
    random_trivial_holonomy_opers,
    solve_trivial_holonomy,
    veronese_oper,
    weak_cross_ratio,
)
from .parser import parse_expression
from .representation import (
    GroupElementData,
    Representation,
    eigen_split,
    symmetric_square,
    wolpert_check,
)
from .verify import SUITES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
