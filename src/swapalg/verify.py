"""Verification suites: exhaustive and seeded checks of every identity.

Each suite returns a :class:`SuiteReport` with one row per checked law.
Reports are deterministic functions of the suite parameters (seed, counts,
tolerances): rerunning a suite with the same arguments produces an
identical report body.  Exact rows demand deviation zero in rational
arithmetic; numeric rows carry explicit tolerances.

The command line front end renders these reports; the test suite asserts
on them.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .algebra import generator, jacobiator, swap_bracket
from .circle import (
    PointConfig,
    doubled_linking,
    ensure_same_config,
    linking_number,
    require_point_order,
    six_point_F,
    six_point_G,
)
from .errors import SwapAlgError
from .multifraction import (
    SymbolicWords,
    birelem_identity,
    cross_fraction,
    elementary,
    elementary_bracket_closed_form,
    fraction_bracket,
    is_balanced,
    wolpert_rhs,
)
from .opers import (
    OperSpec,
    coordinate_function,
    ds_crossfraction_bracket,
    integrate,
    holonomy_class,
    oper_cross_fraction,
    random_trivial_holonomy_opers,
    veronese_oper,
    weak_cross_ratio,
)
from .representation import Representation, symmetric_square, wolpert_check

DEFAULT_SEED = 42
SIX_POINT_MAX_POINTS = 10  # the six-point suite enumerates n^6 sextuples


@dataclass
class CheckRow:
    """One checked law and the samples fed to it: an exact row counts its
    failed samples (`fail`) or holds one exact deviation, a numeric row
    keeps its largest deviation (`see`)."""

    name: str
    law: str
    deviation: object  # Fraction or int (exact rows) or float
    bound: object  # 0 for exact rows, else a float tolerance
    detail: str = ""

    @property
    def passed(self) -> bool:
        return abs(self.deviation) <= self.bound  # false for NaN

    def fail(self, failed) -> None:
        if failed:
            self.deviation += 1

    def see(self, *deviations) -> None:
        """Keep the largest deviation; a NaN sample is kept and fails the row."""
        self.deviation = float(np.max([self.deviation, *deviations]))


@dataclass
class SuiteReport:
    suite: str
    seed: int | None
    rows: list[CheckRow] = field(default_factory=list)
    notes: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def exact(self, name, law, deviation=0, detail="") -> CheckRow:
        self.rows.append(row := CheckRow(name, law, deviation, 0, detail))
        return row

    def within(self, name, law, bound, detail="") -> CheckRow:
        self.rows.append(row := CheckRow(name, law, 0.0, float(bound), detail))
        return row

    def holds(self, name, law, ok, detail=""):
        self.exact(name, law, 0 if ok else 1, detail)

    def render(self) -> str:
        lines = [f"suite: {self.suite}" + (f"   seed: {self.seed}" if self.seed is not None else "")]
        widths = (24, 58, 12, 10, 6)
        header = ("check", "law", "worst", "bound", "status")
        lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
        lines.append("-" * (sum(widths) + 8))
        for row in self.rows:
            worst = _format_quantity(row.deviation)
            bound = "exact" if row.bound == 0 else _format_quantity(row.bound)
            status = "pass" if row.passed else "FAIL"
            law = row.law if len(row.law) <= 58 else row.law[:55] + "..."
            lines.append(
                "  ".join(
                    s.ljust(w)
                    for s, w in zip((row.name, law, worst, bound, status), widths)
                )
            )
        lines.append("")
        lines.append(f"suite={self.suite}")
        if self.seed is not None:
            lines.append(f"seed={self.seed}")
        lines.append(f"checks={len(self.rows)}")
        lines.append(f"failures={sum(not r.passed for r in self.rows)}")
        for key, value in sorted(self.notes.items()):
            lines.append(f"{key}={_format_quantity(value)}")
        for row in self.rows:
            lines.append(f"{row.name}.deviation={_format_quantity(row.deviation)}")
            lines.append(f"{row.name}.pass={'true' if row.passed else 'false'}")
        return "\n".join(lines)


def _format_quantity(value) -> str:
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


# -- shared generators ---------------------------------------------------


def _grid_config(count: int, denominator: int) -> tuple[PointConfig, list]:
    config = PointConfig()
    points = [config.point(f"g{i}", Fraction(i, denominator)) for i in range(count)]
    return config, points


def _linking_table(points) -> np.ndarray:
    """Doubled linking numbers 2 [ab, cd] as int8 (each law below sums at
    most three products, at most 12 in absolute value): `doubled_linking`
    over index grids, on the signs S[i, j] = sign(r_i - r_j) of the points'
    ranks r, read off one sort by order key."""
    if points:
        require_point_order(ensure_same_config(*points))
    rank = {p: r for r, p in enumerate(sorted(set(points), key=lambda p: p.order_key))}
    r = np.array([rank[p] for p in points])
    S = np.sign(r[:, None] - r[None, :]).astype(np.int8)
    n = len(points)
    return doubled_linking(*np.ogrid[:n, :n, :n, :n], cmp=lambda i, j: S[i, j])


def _random_config(rng: random.Random, count: int, denominator: int = 997):
    config = PointConfig()
    positions = rng.sample(range(denominator), count)
    points = [config.point(f"p{i}", Fraction(k, denominator)) for i, k in enumerate(positions)]
    return config, points

def _random_pair(rng, points):
    i, j = rng.sample(range(len(points)), 2)
    return generator(points[i], points[j])


def random_hyperbolic_sl2(rng: random.Random, low: float = 1.2, high: float = 3.0) -> np.ndarray:
    """A random hyperbolic matrix with unit determinant and positive
    eigenvalues in [low, high] x [1/high, 1/low]."""
    lam = rng.uniform(low, high)
    while True:
        basis = np.array(
            [[rng.uniform(-2, 2), rng.uniform(-2, 2)], [rng.uniform(-2, 2), rng.uniform(-2, 2)]]
        )
        if abs(np.linalg.det(basis)) > 0.3:
            break
    return basis @ np.diag([lam, 1.0 / lam]) @ np.linalg.inv(basis)


def _fresh_symbolic_words(rng: random.Random, labels, denominator: int = 499) -> SymbolicWords:
    table = SymbolicWords()
    positions = rng.sample(range(denominator), 2 * len(labels))
    for i, label in enumerate(labels):
        table.register(
            label,
            Fraction(positions[2 * i], denominator),
            Fraction(positions[2 * i + 1], denominator),
        )
    return table


# -- suites ------------------------------------------------------------------


def suite_linking_axioms(grid: int = 10, points=None) -> SuiteReport:
    """Exhaustive linking-form axioms on a rational grid (or given points)."""
    report = SuiteReport("linking-axioms", None)
    if points is None:
        config, points = _grid_config(grid, grid)
    if not points:
        raise SwapAlgError("linking-axioms: no points to check")
    L = _linking_table(points)
    n = len(points)
    # each law is one array expression over open index grids
    X, x, Y, y, Z = np.ogrid[:n, :n, :n, :n, :n]
    report.exact(
        "first-antisymmetry",
        "first antisymmetry: [Xx,Yy] + [Yy,Xx] = 0",
        int(np.count_nonzero(L[X, x, Y, y] + L[Y, y, X, x])),
        detail=f"{n**4} quadruples",
    )
    report.exact(
        "second-antisymmetry",
        "second antisymmetry: [Xx,Yy] + [Xx,yY] = 0",
        int(np.count_nonzero(L[X, x, Y, y] + L[X, x, y, Y])),
        detail=f"{n**4} quadruples",
    )
    # one z at a time, so that no array has more than n^4 entries
    cocycle = sum(
        int(np.count_nonzero(L[z, y, X, Y] + L[z, y, Y, Z] + L[z, y, Z, X]))
        for z in range(n)
    )
    report.exact(
        "cocycle",
        "cocycle identity: [zy,XY] + [zy,YZ] + [zy,ZX] = 0",
        cocycle,
        detail=f"{n**5} quintuples",
    )
    distinct = (X != x) & (X != Y) & (X != y) & (x != Y) & (x != y) & (Y != y)
    report.exact(
        "alternative",
        "linking alternative: [Xx,Yy].[Xy,Yx] = 0 for distinct points",
        int(np.count_nonzero((L[X, x, Y, y] * L[X, y, Y, x])[distinct])),
        detail="all injective quadruples",
    )

    ps = sorted(p.position for p in points)
    # gap midpoints; a lone point's gap is the whole circle
    cuts = [
        (ps[i] + ((ps[(i + 1) % n] - ps[i]) % 1 or Fraction(1)) / 2) % 1
        for i in range(min(3, n))
    ]
    cut_invariance = report.exact(
        "cut-invariance",
        "linking numbers agree for every valid cut",
        detail=f"400 quadruples x {len(cuts) + 1} cuts",
    )
    rng = random.Random(0)
    for _ in range(400):
        a, b, c, d = (rng.randrange(n) for _ in range(4))
        values = {
            linking_number(points[a], points[b], points[c], points[d], cut=u) for u in cuts
        }
        values.add(linking_number(points[a], points[b], points[c], points[d]))
        cut_invariance.fail(len(values) != 1)
    return report


def suite_six_point(pool: int = 8, points=None) -> SuiteReport:
    """Six-point identities over every sextuple from a rational pool."""
    report = SuiteReport("six-point", None)
    if points is None:
        config, points = _grid_config(pool, pool)
    if len(points) > SIX_POINT_MAX_POINTS:
        raise SwapAlgError(f"six-point enumeration is capped at {SIX_POINT_MAX_POINTS} points")
    L = _linking_table(points)
    n = len(points)
    X, x, Y, y, Z, z = np.ogrid[:n, :n, :n, :n, :n, :n]
    report.exact(
        "four-point-relation",
        "[Xy,Zz] + [Yx,Zz] = [Xx,Zz] + [Yy,Zz]",
        int(np.count_nonzero(L[X, y, Z, z] + L[Y, x, Z, z] != L[X, x, Z, z] + L[Y, y, Z, z])),
        detail=f"{n**6} sextuples",
    )
    # the identities need not vanish where one point lies in all three pairs
    off = ~(
        ((X == Y) | (X == y)) & ((X == Z) | (X == z))
        | ((x == Y) | (x == y)) & ((x == Z) | (x == z))
    )
    first = (
        L[X, x, Y, y] * L[X, y, Z, z]
        + L[Z, z, X, x] * L[Z, x, Y, y]
        + L[Y, y, Z, z] * L[Y, z, X, x]
    )
    second = (
        L[X, x, Y, y] * L[Y, x, Z, z]
        + L[Z, z, X, x] * L[X, z, Y, y]
        + L[Y, y, Z, z] * L[Z, y, X, x]
    )
    checked = int(np.count_nonzero(off))
    report.exact(
        "six-point-first",
        "first six-point identity vanishes off the common-point locus",
        int(np.count_nonzero(first[off])),
        detail=f"{checked} sextuples",
    )
    report.exact(
        "six-point-second",
        "second six-point identity vanishes off the common-point locus",
        int(np.count_nonzero(second[off])),
        detail=f"{checked} sextuples",
    )

    config2 = PointConfig()
    X = config2.point("X", Fraction(1, 10))
    x = config2.point("x", Fraction(2, 10))
    Y = config2.point("Y", Fraction(3, 10))
    Z = config2.point("Z", Fraction(4, 10))
    value = six_point_F(X, x, Y, x, Z, x)
    report.exact(
        "degenerate-quarter",
        "F(X,x,Y,x,Z,x) = 1/4 at positions (0.1, 0.2, 0.3, 0.4)",
        value - Fraction(1, 4),
    )
    swapped = six_point_G(X, x, Y, x, Z, x) + six_point_F(Y, x, X, x, Z, x)
    report.exact(
        "f-g-swap",
        "G(X,x,Y,y,Z,z) = -F(Y,y,X,x,Z,z)",
        swapped,
    )
    return report


def suite_jacobi(seed: int = DEFAULT_SEED, count: int = 1000) -> SuiteReport:
    """Jacobi identity on seeded random generator triples."""
    report = SuiteReport("jacobi", seed)
    rng = random.Random(seed)
    alphas = (Fraction(0), Fraction(1), Fraction(-1, 4))
    jacobi = {
        alpha: report.exact(
            f"jacobi-alpha-{alpha}",
            "Jacobi identity: {{a,b},c} + {{b,c},a} + {{c,a},b} = 0",
            detail=f"{count} triples",
        )
        for alpha in alphas
    }
    antisymmetry = report.exact(
        "antisymmetry",
        "bracket antisymmetry: {a,b} + {b,a} = 0",
        detail=f"{count} pairs",
    )
    degree = report.exact(
        "degree",
        "bracket of degree-p and degree-q terms is homogeneous of degree p+q",
    )
    for _ in range(count):
        config, points = _random_config(rng, 12)
        a = _random_pair(rng, points)
        b = _random_pair(rng, points)
        c = _random_pair(rng, points)
        for alpha in alphas:
            jacobi[alpha].fail(not jacobiator(a, b, c, alpha).is_zero)
        bracket = swap_bracket(a, b, alphas[2])
        antisymmetry.fail(not (bracket + swap_bracket(b, a, alphas[2])).is_zero)
        degree.fail(not bracket.is_zero and bracket.degrees() != {2})
    return report


def suite_alpha_independence(seed: int = DEFAULT_SEED, count: int = 500) -> SuiteReport:
    """Brackets of cross-fraction pairs are alpha-free, balanced fractions."""
    report = SuiteReport("alpha-independence", seed)
    rng = random.Random(seed)
    alpha_free = report.exact(
        "alpha-free",
        "bracket of cross fractions is identical for alpha in {0, 1, 5}",
        detail=f"{count} pairs",
    )
    closure = report.exact(
        "closure",
        "bracket of cross fractions is again a balanced multi fraction",
        detail=f"{count} pairs",
    )
    for _ in range(count):
        config, points = _random_config(rng, 10)
        i = rng.sample(range(10), 8)
        f = cross_fraction(points[i[0]], points[i[1]], points[i[2]], points[i[3]])
        g = cross_fraction(points[i[4]], points[i[5]], points[i[6]], points[i[7]])
        b0 = fraction_bracket(f, g, 0)
        alpha_free.fail(fraction_bracket(f, g, 1) != b0 or fraction_bracket(f, g, 5) != b0)
        closure.fail(not is_balanced(b0))
    return report


def suite_braelem(seed: int = DEFAULT_SEED, trials: int = 5) -> SuiteReport:
    """Closed form for brackets of elementary functions, exact equality."""
    report = SuiteReport("braelem", seed)
    rng = random.Random(seed)
    shapes = (
        (("a", "b"), ("c", "d")),
        (("a", "b"), ("c", "d", "e")),
        (("a", "b", "c"), ("d", "e", "f")),
    )
    for gshape, hshape in shapes:
        row = report.exact(
            f"braelem-{len(gshape)}{len(hshape)}",
            "logarithmic-derivative closed form equals the Leibniz bracket",
            detail=f"{trials} word tables, shape ({len(gshape)},{len(hshape)})",
        )
        for _ in range(trials):
            table = _fresh_symbolic_words(rng, sorted({*gshape, *hshape}))
            direct = fraction_bracket(
                elementary(table, gshape), elementary(table, hshape), Fraction(rng.randint(-3, 3))
            )
            row.fail(elementary_bracket_closed_form(table, gshape, hshape) != direct)
    return report


def suite_birelem(seed: int = DEFAULT_SEED) -> SuiteReport:
    """Order-three reduction identity over all injective label quadruples."""
    report = SuiteReport("birelem", seed)
    rng = random.Random(seed)
    labels = ["a", "b", "c", "d", "e"]
    table = _fresh_symbolic_words(rng, labels)
    quadruples = list(itertools.permutations(labels, 4))
    birelem = report.exact(
        "birelem",
        "T(a,b,c) T(c,d) / (T(a,d,c) T(c,b)) = [b+; d+; a-; c-]",
        detail=f"{len(quadruples)} quadruples",
    )
    cyclic = report.exact("cyclic", "cyclic invariance of elementary functions")
    for quadruple in quadruples:
        lhs, rhs = birelem_identity(table, *quadruple)
        birelem.fail(lhs != rhs)
    for _ in range(20):
        words = rng.sample(labels, 3)
        cyclic.fail(elementary(table, words) != elementary(table, words[1:] + words[:1]))
    return report


def suite_period_width(
    seed: int = DEFAULT_SEED,
    sl2_count: int = 100,
    sl3_count: int = 20,
    tolerance: float = 1e-9,
) -> SuiteReport:
    """Periods of the eigenvalue cross ratio equal widths, anchor-free."""
    report = SuiteReport("period-width", seed)
    rng = random.Random(seed)
    sl2 = report.within(
        "period-width-sl2",
        "period equals log of the extreme eigenvalue ratio (n = 2)",
        tolerance,
        detail=f"{sl2_count} matrices",
    )
    sl3 = report.within(
        "period-width-sl3",
        "period equals width on symmetric squares (n = 3)",
        tolerance,
        detail=f"{sl3_count} matrices",
    )
    anchor_free = report.within(
        "anchor-independence",
        "period does not depend on the anchor point",
        tolerance,
    )
    for _ in range(sl2_count):
        rep = Representation(
            {"a": random_hyperbolic_sl2(rng), "b": random_hyperbolic_sl2(rng)}
        )
        anchor1 = rep.fixed_point("b", +1)
        anchor2 = rep.fixed_point("b", -1)
        p1 = rep.period("a", anchor1)
        sl2.see(abs(p1 - rep.width("a")))
        anchor_free.see(abs(p1 - rep.period("a", anchor2)))
    for _ in range(sl3_count):
        rep = Representation(
            {
                "a": symmetric_square(random_hyperbolic_sl2(rng)),
                "b": symmetric_square(random_hyperbolic_sl2(rng)),
            }
        )
        anchor = rep.fixed_point("b", +1)
        sl3.see(abs(rep.period("a", anchor) - rep.width("a")))
    return report


def suite_wilson_limit(
    seed: int = DEFAULT_SEED, count: int = 20, max_power: int = 40, rate_slack: float = 0.10
) -> SuiteReport:
    """Trace ratios converge geometrically to elementary functions."""
    report = SuiteReport("wilson-limit", seed)
    rng = random.Random(seed)
    rate = report.within(
        "geometric-rate",
        "|trace ratio - elementary value| decays like girth^p",
        rate_slack,
        detail=f"{count} pairs, powers up to {max_power}",
    )
    bounded = report.exact(
        "bounded-by-girth-power",
        "error admits a constant C with error(p) <= C girth^p",
    )
    class_equality = report.within("class-equality", "T(g, g) = 1", 1e-12)
    for _ in range(count):
        rep = Representation(
            {
                "a": random_hyperbolic_sl2(rng, 1.15, 1.45),
                "b": random_hyperbolic_sl2(rng, 1.15, 1.45),
            }
        )
        target = rep.elementary_value(("a", "b"))
        girth = rep.girth(["a", "b"])
        errors = {}
        for p in range(4, max_power + 1):
            err = abs(rep.wilson_ratio("a", "b", p) - target)
            if not err <= 1e-12:  # keeps NaN
                errors[p] = err
        if not np.isfinite(list(errors.values())).all():
            rate.see(math.nan)  # no rate can be fitted
            continue
        # calibrate the constant on the early powers only; the geometric
        # bound must then extrapolate to every later power
        constant = np.max([err / girth**p for p, err in errors.items() if p <= 10])
        for p, err in errors.items():
            bounded.fail(p > 10 and err > constant * girth**p * 1.05)
        ps = np.array(sorted(errors))
        slope = np.polyfit(ps, np.log([errors[p] for p in ps]), 1)[0]
        rate.see(abs(math.exp(slope) / girth - 1.0))
    rep = Representation({"a": random_hyperbolic_sl2(rng)})
    class_equality.see(abs(rep.elementary_value(("a", "a")) - 1.0))
    return report


# chi-rank draws its boundary points pairwise at least this far apart on the
# circle.  With s(a, b) = |sin pi(theta_a - theta_b)| on positions theta,
# |chi2| = s(X0,x0)^2 s(X1,X2) s(x1,x2) / (s(X1,x0) s(X2,x0) s(X0,x1) s(X0,x2))
# >= sin(pi delta)^4 = 6.0e-4, six times the bound of `chi-nonvanishing`.
CHI_SEPARATION = 0.05


def suite_chi_rank(
    seed: int = DEFAULT_SEED,
    count: int = 100,
    upper: float = 1e-8,
    lower: float = 1e-4,
) -> SuiteReport:
    """Rank detection by determinants of cross-ratio matrices (n = 2)."""
    report = SuiteReport("chi-rank", seed)
    rng = random.Random(seed)
    rep = Representation(
        {"a": random_hyperbolic_sl2(rng), "b": random_hyperbolic_sl2(rng)}
    )

    def sample_points(k):
        angles = []  # phi in [0, pi) is coordinate cot phi, position 1 - phi / pi
        while len(angles) < k:
            phi = math.pi * rng.random()
            gaps = [abs(phi - a) for a in angles]
            if all(min(d, math.pi - d) >= CHI_SEPARATION * math.pi for d in gaps):
                angles.append(phi)
        return [rep.boundary_point(math.cos(phi) / math.sin(phi) if phi else None) for phi in angles]

    vanishing = report.within(
        "chi-vanishing",
        "order-(n+1) determinant vanishes on a rank-n cross ratio",
        upper,
        detail=f"{count} tuples",
    )
    chi2 = []
    for _ in range(count):
        pts = sample_points(8)
        vanishing.see(abs(rep.chi(pts[:4], pts[4:])))
        pts = sample_points(6)
        chi2.append(abs(rep.chi(pts[:3], pts[3:])))
    least = float(np.min(chi2))  # NaN if any sample is
    report.holds(
        "chi-nonvanishing",
        "order-n determinant stays away from zero",
        least > lower,
        detail=f"min |chi2| = {least:.3e} > {lower:.0e}",
    )
    return report


def suite_wolpert(seed: int = DEFAULT_SEED, count: int = 50, tolerance: float = 1e-6) -> SuiteReport:
    """Length-function bracket against the half-plane angle oracle."""
    report = SuiteReport("wolpert", seed)
    gamma = np.diag([2.0, 0.5])
    eta = np.array(
        [[math.cosh(1.0), math.sinh(1.0)], [math.sinh(1.0), math.cosh(1.0)]]
    )
    report.within(
        "perpendicular",
        "perpendicular axes: alternating sum of elementary functions is 0",
        1e-9,
    ).see(abs(wolpert_check(gamma, eta)[1]))
    crossing = report.within(
        "crossing-pairs",
        "bracket value equals twice the cosine of the axis crossing angle",
        tolerance,
    )
    antisymmetry = report.within(
        "antisymmetry", "swapping the two curves negates both sides", 1e-9
    )
    rng = random.Random(seed)
    produced = 0
    attempts = 0
    while produced < count and attempts < 100 * count:
        attempts += 1
        g = random_hyperbolic_sl2(rng)
        h = random_hyperbolic_sl2(rng)
        try:
            lhs, rhs = wolpert_check(g, h)
        except SwapAlgError:
            continue
        produced += 1
        crossing.see(abs(lhs - rhs))
    crossing.detail = f"{produced} crossing pairs"
    # redraw g until its axis crosses that of h; the row is never dropped
    rng = random.Random(seed + 1)
    h = np.array([[math.cosh(0.7), math.sinh(0.7)], [math.sinh(0.7), math.cosh(0.7)]])
    for _ in range(100):
        g = random_hyperbolic_sl2(rng)
        try:
            l1, r1 = wolpert_check(g, h)
            l2, r2 = wolpert_check(h, g)
        except SwapAlgError:
            continue
        antisymmetry.see(abs(l1 + l2), abs(r1 + r2))
        break
    else:
        antisymmetry.see(math.inf)
        antisymmetry.detail = "no crossing pair in 100 draws"
    return report


def _cot_cross_ratio(a, b, c, d) -> float:
    cot = lambda t: math.cos(math.pi * t) / math.sin(math.pi * t)
    p, q, r, s = cot(a), cot(b), cot(c), cot(d)
    return (p - q) * (r - s) / ((r - q) * (p - s))


def suite_oper_crossratio(
    seed: int = DEFAULT_SEED,
    steps: int = 4096,
    quadruples: int = 100,
    perturbed: int = 5,
) -> SuiteReport:
    """Operator-side cross ratios: holonomy, oracles, and constancy."""
    report = SuiteReport("oper-crossratio", seed)
    rng = random.Random(seed)
    oper = veronese_oper(2)
    sol = integrate(oper, steps)
    report.within(
        "circular-holonomy",
        "constant coefficient pi^2: holonomy is minus the identity",
        1e-8,
    ).see(np.max(np.abs(sol.holonomy + np.eye(2))))
    report.within(
        "determinant-drift",
        "frame determinant is conserved along the integration",
        1e-8,
    ).see(sol.det_drift)

    oracle = report.within(
        "classical-oracle",
        "weak cross ratio matches the classical cross ratio through cot",
        1e-7,
        detail="50 grid quadruples",
    )
    for _ in range(50):
        idx = rng.sample(range(1, steps), 4)
        got = weak_cross_ratio(sol, *(Fraction(j, steps) for j in idx))
        want = _cot_cross_ratio(*(j / steps for j in idx))
        oracle.see(abs(got - want) / max(1.0, abs(want)))

    targets = range(0, steps, steps // 16)
    constancy = report.within(
        "transport-constancy",
        "coordinate pairings do not depend on the transport parameter",
        1e-8,
        detail=f"8 pairs x {len(targets)} transport targets",
    )
    for _ in range(8):
        Y = Fraction(rng.randrange(1, steps), steps)
        y = Fraction(rng.randrange(1, steps), steps)
        values = [
            coordinate_function(sol, Y, y, via=Fraction(k, steps))
            for k in targets
        ]
        constancy.see(np.ptp(values))

    plus_sol = integrate(OperSpec(2, {2: [(0, 4 * math.pi**2, 0.0)]}), steps)
    Y = Fraction(rng.randrange(1, steps), steps)
    y = Fraction(rng.randrange(1, steps), steps)
    report.within(
        "mod-one",
        "with holonomy +Id the pairing depends on parameters mod 1 only",
        1e-8,
    ).see(abs(coordinate_function(plus_sol, Y + 1, y) - coordinate_function(plus_sol, Y, y)))

    opers = [oper] + random_trivial_holonomy_opers(perturbed, seed=seed)
    solutions = [sol] + [integrate(op, steps) for op in opers[1:]]
    kept = [op_sol for op_sol in solutions if holonomy_class(op_sol) == "trivial-in-PSL"]
    for _ in range(len(solutions) - len(kept)):
        report.holds("holonomy-filter", "perturbations keep trivial holonomy", False)
    per_oper = max(1, quadruples // len(opers))
    parallel = report.within(
        "parallel-vs-frenet",
        "transported coordinate pairings reproduce weak cross ratios",
        1e-6,
        detail=f"{per_oper * len(kept)} quadruples over {len(kept)} operators",
    )
    lift = report.within(
        "lift-invariance",
        "cross fractions are unchanged under integer shifts of lifts",
        1e-6,
    )

    def separated_quadruple():
        while True:
            idx = sorted(rng.sample(range(1, steps), 4))
            gaps = [b - a for a, b in zip(idx, idx[1:])] + [steps - idx[3] + idx[0]]
            if min(gaps) >= 16:
                break
        rng.shuffle(idx)
        return [Fraction(j, steps) for j in idx]

    for op_sol in kept:
        for _ in range(per_oper):
            a, b, c, d = separated_quadruple()
            via = Fraction(rng.randrange(steps), steps)
            # route one side through explicit parallel transport so the two
            # pipelines share no intermediate values
            transported = (
                coordinate_function(op_sol, a, d, via=via)
                * coordinate_function(op_sol, c, b, via=via)
                / (
                    coordinate_function(op_sol, a, b, via=via)
                    * coordinate_function(op_sol, c, d, via=via)
                )
            )
            parallel.see(abs(transported - weak_cross_ratio(op_sol, a, d, c, b)))
            direct = oper_cross_fraction(op_sol, a, b, c, d)
            lift.see(abs(oper_cross_fraction(op_sol, a + 1, b, c - 2, d) - direct))

    coarse, fine = 256, 512
    sol_c = integrate(oper, coarse)
    sol_f = integrate(oper, fine)
    errs = []
    rng2 = random.Random(seed + 7)
    for _ in range(20):
        idx = rng2.sample(range(1, coarse), 4)
        truth = _cot_cross_ratio(*(j / coarse for j in idx))
        quad_c = [Fraction(j, coarse) for j in idx]
        errs.append(
            (
                abs(weak_cross_ratio(sol_c, *quad_c) - truth),
                abs(weak_cross_ratio(sol_f, *quad_c) - truth),
            )
        )
    e_coarse, e_fine = np.max(errs, axis=0).tolist()  # NaN if any error is
    order = math.log2(e_coarse / e_fine)
    report.holds(
        "convergence-order",
        "halving the step shrinks cross-ratio errors at order >= 3.5",
        order >= 3.5,
        detail=f"observed order {order:.2f}",
    )
    report.notes["convergence_order"] = order
    return report


def suite_df_swap(
    seed: int = DEFAULT_SEED,
    steps: int = 4096,
    octuples: int = 50,
    perturbed: int = 5,
    tolerance: float = 1e-5,
) -> SuiteReport:
    """Reduced operator bracket against the symbolic swapping bracket."""
    report = SuiteReport("df-swap", seed)
    rng = random.Random(seed)
    opers = [veronese_oper(2)] + random_trivial_holonomy_opers(perturbed, seed=seed)
    solutions = [integrate(op, steps) for op in opers]
    df_swap = report.within(
        "df-swap",
        "reduced bracket of cross fractions equals the swapping bracket",
        tolerance,
        detail=f"{octuples} octuples over {len(opers)} operators",
    )
    same = report.within(
        "same-observable",
        "bracket of an observable with itself vanishes both ways",
        1e-9,
    )
    unlinked = report.within(
        "unlinked",
        "configurations with all linking numbers zero bracket to zero",
        1e-12,
    )
    for index in range(octuples):
        op_sol = solutions[index % len(solutions)]
        idx = rng.sample(range(1, steps), 8)
        q0 = tuple(Fraction(j, steps) for j in idx[:4])
        q1 = tuple(Fraction(j, steps) for j in idx[4:])
        ds_value, swap_value = ds_crossfraction_bracket(op_sol, q0, q1, alpha=Fraction(index % 3))
        df_swap.see(abs(ds_value - swap_value))
    sol = solutions[0]
    idx = rng.sample(range(1, steps), 4)
    quad = tuple(Fraction(j, steps) for j in idx)
    ds_value, swap_value = ds_crossfraction_bracket(sol, quad, quad)
    same.see(abs(ds_value), abs(swap_value))
    ds_value, swap_value = ds_crossfraction_bracket(
        sol,
        (Fraction(1, 64), Fraction(3, 64), Fraction(5, 64), Fraction(7, 64)),
        (Fraction(33, 64), Fraction(35, 64), Fraction(37, 64), Fraction(39, 64)),
    )
    unlinked.see(abs(ds_value), abs(swap_value))
    return report


SUITES = {
    "linking-axioms": suite_linking_axioms,
    "six-point": suite_six_point,
    "jacobi": suite_jacobi,
    "alpha-independence": suite_alpha_independence,
    "braelem": suite_braelem,
    "birelem": suite_birelem,
    "period-width": suite_period_width,
    "chi-rank": suite_chi_rank,
    "wilson-limit": suite_wilson_limit,
    "wolpert": suite_wolpert,
    "oper-crossratio": suite_oper_crossratio,
    "df-swap": suite_df_swap,
}


def suite_options(name: str):
    """The keyword options the named suite accepts, mapped to their
    parameters (which carry the defaults)."""
    try:
        suite = SUITES[name]
    except KeyError:
        raise SwapAlgError(
            f"unknown suite {name!r}; choose from {', '.join(sorted(SUITES))}"
        ) from None
    return inspect.signature(suite).parameters


# the least counts that check anything; wilson-limit checks powers above 10
_MINIMUM_COUNTS = {"count": 1, "trials": 1, "sl2_count": 1, "sl3_count": 1,
                   "quadruples": 1, "octuples": 1, "pool": 1, "max_power": 11}


def checked_options(name: str, kwargs: dict) -> dict:
    """The options for a run of the named suite: options set to None are
    left at the suite's default, options given as text take the type of
    that default, and counts that would check nothing and bounds that are
    not finite and at least 0 are rejected."""
    accepted = suite_options(name)
    passed = {k: v for k, v in kwargs.items() if v is not None}
    unknown = sorted(set(passed) - set(accepted))
    if unknown:
        raise SwapAlgError(
            f"suite {name} does not take {', '.join(unknown)}; "
            f"it accepts {', '.join(accepted)}"
        )
    for key, value in passed.items():
        if isinstance(value, str):
            try:
                passed[key] = value = type(accepted[key].default)(value)
            except (TypeError, ValueError):
                raise SwapAlgError(f"suite {name}: option {key} does not take {value!r}") from None
        least = _MINIMUM_COUNTS.get(key)
        if least is not None and value < least:
            raise SwapAlgError(f"suite {name}: {key} must be at least {least}, got {value}")
        # a NaN bound fails every row, an infinite or negative one passes or fails all
        if isinstance(accepted[key].default, float) and not (math.isfinite(value) and value >= 0):
            raise SwapAlgError(f"suite {name}: {key} must be finite and at least 0, got {value}")
    return passed


def run_suite(name: str, **kwargs) -> SuiteReport:
    """Run a suite with its `checked_options`."""
    return SUITES[name](**checked_options(name, kwargs))
