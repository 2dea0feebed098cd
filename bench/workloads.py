"""The four benchmark workloads: seeded inputs, one op at a time, every
result checked.

An op is ``workload.op(state, i, rng, t)``: ``state`` is the shared state
built by ``workload.setup`` (part of the measured set-up time), ``i`` the op
index, ``rng`` a ``random.Random`` seeded from (workload, seed, i) so op i
is the same in every run with that seed, and ``t`` the tracer every layer
call goes through.  An op returns a small fingerprint of its inputs and
results, which run.py hashes to show that two runs did the same ops.
It raises :class:`CheckFailed` when a result is wrong.  Random draws that a
layer rightly refuses (axes that do not cross, a Newton search that does
not converge, a holonomy that is not trivial) are redrawn inside the op and
counted only in the accept-ratio counters; so are the near-degenerate
6-point tuples of the chi-rank check (``Matrix.op``).

Tolerances are the ones the verification suites pin: exact rows compare
with exact zero, numeric rows use the suite bounds.  One suite row is not
checked per op (``Matrix._wilson`` says which and why), and the n = 3
period row is not checked on the draws ``Matrix.op`` describes, which are
counted.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

import numpy as np

from swapalg import halfplane
from swapalg.algebra import generator, jacobiator, swap_bracket
from swapalg.circle import linking_number
from swapalg.errors import SwapAlgError
from swapalg.multifraction import (
    cross_fraction,
    elementary,
    elementary_bracket_closed_form,
    fraction_bracket,
    is_balanced,
    wolpert_rhs,
)
from swapalg.opers import (
    coordinate_function,
    ds_crossfraction_bracket,
    holonomy_class,
    integrate,
    oper_cross_fraction,
    solve_trivial_holonomy,
    veronese_oper,
    weak_cross_ratio,
)
from swapalg.parser import parse_expression
from swapalg.representation import Representation, symmetric_square
from swapalg.verify import _fresh_symbolic_words, _random_config, random_hyperbolic_sl2


class CheckFailed(Exception):
    """A result of the library disagreed with the law it must satisfy."""


def check(ok, what):
    if not ok:
        raise CheckFailed(what)


# -- shared input helpers ------------------------------------------------------
#
# Inputs are drawn by the verification suites' own generators
# (``random_hyperbolic_sl2``, ``_random_config``, ``_fresh_symbolic_words``
# in ``swapalg.verify``), so the benchmark's configurations are distributed
# exactly as the suites' are.


def _antisymmetric(ab, ba, degree):
    """{a,b} + {b,a} = 0, and {a,b} is homogeneous of degree deg a + deg b."""
    return (ab + ba).is_zero and (ab.is_zero or ab.degrees() == {degree})


def _is_negation(a, b):
    """Antisymmetry row for fractions: a = -b."""
    return a == -b


def _alpha_free(b0, b1, b5):
    return b1 == b0 and b5 == b0


def _count_fraction(t, f):
    if t.enabled:
        t.count("multifraction.fraction_bracket.terms_out", len(f.numerator.monomials()))
        t.count("multifraction.fraction_bracket.den_degree_out", f.denominator.degree)


# -- exact-fresh -----------------------------------------------------------------


ALPHAS = (Fraction(0), Fraction(1), Fraction(-1, 4))
ELEM_SHAPES = (
    (("a", "b"), ("c", "d")),
    (("a", "b"), ("c", "d", "e")),
    (("a", "b", "c"), ("d", "e", "f")),
)


class ExactFresh:
    """Criteria 3-5 traffic, each check on a newly drawn configuration."""

    name = "exact-fresh"
    # One op is a round of checks weighted as `verify all` runs them: the
    # jacobi suite checks 1000 triples, alpha-independence 500 cross pairs
    # and braelem 15 closed forms (5 per shape), i.e. 200 : 100 : 3.  Three
    # consecutive rounds hold 200 triples, 100 pairs and one closed form of
    # each shape.  Single checks as ops would not be steady: the closed
    # forms are 1% of checks but the slowest and most variable, so the tail
    # percentile would fall among the ~30 of them in a run and move by 40%
    # from seed to seed.
    rounds = ((67, 33), (67, 33), (66, 34))  # (Jacobi triples, cross pairs)

    def setup(self, seed, t):
        return None

    def op(self, state, i, rng, t):
        k = i % len(self.rounds)
        jacobi, cross = self.rounds[k]
        results = [self._elem(rng, ELEM_SHAPES[k], t)]
        results += [self._jacobi(rng, t) for _ in range(jacobi)]
        results += [self._cross(rng, t) for _ in range(cross)]
        return ("round", k, tuple(results))

    def _jacobi(self, rng, t):
        _, pts = t.call("circle.config", _random_config, rng, 12)
        pairs = [rng.sample(pts, 2) for _ in range(3)]
        for (X, x), (Y, y) in zip(pairs, pairs[1:] + pairs[:1]):
            lk = t.call("circle.linking_number", linking_number, X, x, Y, y)
            back = t.call("circle.linking_number", linking_number, Y, y, X, x)
            check(lk + back == 0, "linking first antisymmetry")
        a, b, c = (t.call("algebra.generator", generator, X, x) for X, x in pairs)
        for alpha in ALPHAS:
            j = t.call("algebra.jacobiator", jacobiator, a, b, c, alpha)
            check(j.is_zero, f"Jacobi identity at alpha={alpha}")
        ab = t.call("algebra.swap_bracket", swap_bracket, a, b, ALPHAS[2])
        ba = t.call("algebra.swap_bracket", swap_bracket, b, a, ALPHAS[2])
        check(t.call("algebra.compare", _antisymmetric, ab, ba, 2), "bracket antisymmetry")
        if t.enabled:
            t.count("algebra.swap_bracket.terms_out", len(ab.monomials()) + len(ba.monomials()))
        return ("jacobi", len(ab.monomials()))

    def _cross(self, rng, t):
        _, pts = t.call("circle.config", _random_config, rng, 10)
        k = rng.sample(range(10), 8)
        f = t.call("multifraction.construct", cross_fraction, *(pts[j] for j in k[:4]))
        g = t.call("multifraction.construct", cross_fraction, *(pts[j] for j in k[4:]))
        b0, b1, b5 = (
            t.call("multifraction.fraction_bracket", fraction_bracket, f, g, alpha)
            for alpha in (0, 1, 5)
        )
        check(t.call("multifraction.compare", _alpha_free, b0, b1, b5), "alpha independence")
        check(t.call("multifraction.compare", is_balanced, b0), "bracket is balanced")
        for b in (b0, b1, b5):
            _count_fraction(t, b)
        return ("cross", len(b0.numerator.monomials()), b0.denominator.degree)

    def _elem(self, rng, shape, t):
        gwords, hwords = shape
        labels = sorted({*gwords, *hwords})
        table = t.call("circle.config", _fresh_symbolic_words, rng, labels)
        alpha = Fraction(rng.randint(-3, 3))
        tg = t.call("multifraction.construct", elementary, table, gwords)
        th = t.call("multifraction.construct", elementary, table, hwords)
        direct = t.call("multifraction.fraction_bracket", fraction_bracket, tg, th, alpha)
        closed = t.call(
            "multifraction.closed_form", elementary_bracket_closed_form, table, gwords, hwords
        )
        check(t.call("multifraction.compare", operator.eq, closed, direct), "closed form = Leibniz")
        _count_fraction(t, direct)
        return ("elem", len(gwords), len(hwords), len(direct.numerator.monomials()))


# -- exact-shared ----------------------------------------------------------------


SHARED_POINTS = 24


def _cycles(perm):
    """1-based cycle notation of a permutation given as a 0-based list."""
    seen = set()
    parts = []
    for start in range(len(perm)):
        if start in seen:
            continue
        cycle = []
        j = start
        while j not in seen:
            seen.add(j)
            cycle.append(str(j + 1))
            j = perm[j]
        parts.append("(" + " ".join(cycle) + ")")
    return "".join(parts)


def _expr_gen(rng, labels):
    a, b = rng.sample(labels, 2)
    return f"[{a} {b}]"


def _expr_product(rng, labels):
    return f"{_expr_gen(rng, labels)} {_expr_gen(rng, labels)}"


def _expr_cross(rng, labels):
    return "cross({}, {}, {}, {})".format(*rng.sample(labels, 4))


def _expr_cross_sum(rng, labels):
    return f"{_expr_cross(rng, labels)} + {_expr_cross(rng, labels)}"


def _expr_mf(rng, labels):
    k = rng.choice((3, 4))
    pts = rng.sample(labels, 2 * k)
    perm = list(range(k))
    while perm == sorted(perm):
        rng.shuffle(perm)
    return f"mf({' '.join(pts[:k])} | {' '.join(pts[k:])} | {_cycles(perm)})"


DEGREE = {"gen": 1, "product": 2}
_EXPRESSIONS = {
    "gen": _expr_gen,
    "product": _expr_product,
    "cross": _expr_cross,
    "cross-sum": _expr_cross_sum,
    "mf": _expr_mf,
}


class ExactShared:
    """Bracket queries by expression string against one 24-point configuration."""

    name = "exact-shared"
    # Element pairs are bracketed by swap_bracket and checked for
    # antisymmetry; fraction pairs by fraction_bracket and also checked
    # for alpha-independence.  Element queries are the fastest third and
    # cross pairs the middle third, so the median falls in the middle of
    # the cross pairs; sums of cross fractions are the slowest ninth and
    # hold the tail percentile.
    cycle = (
        ("gen", "gen"),
        ("cross", "cross"),
        ("product", "gen"),
        ("mf", "cross"),
        ("cross", "cross"),
        ("product", "product"),
        ("mf", "mf"),
        ("cross", "cross"),
        ("cross-sum", "cross-sum"),
    )

    def setup(self, seed, t):
        rng = random.Random(f"{self.name}:{seed}:setup")
        config, pts = t.call("circle.config", _random_config, rng, SHARED_POINTS)
        return config, [p.label for p in pts]

    def op(self, state, i, rng, t):
        config, labels = state
        left_kind, right_kind = self.cycle[i % len(self.cycle)]
        texts = (_EXPRESSIONS[left_kind](rng, labels), _EXPRESSIONS[right_kind](rng, labels))
        alpha = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 4)))
        a, b = (t.call("parser.parse_expression", parse_expression, s, config) for s in texts)
        if t.enabled:
            t.count("parser.parse_expression.chars_in", len(texts[0]) + len(texts[1]))
        if left_kind in ("gen", "product"):
            ab = t.call("algebra.swap_bracket", swap_bracket, a, b, alpha)
            ba = t.call("algebra.swap_bracket", swap_bracket, b, a, alpha)
            degree = DEGREE[left_kind] + DEGREE[right_kind]
            check(t.call("algebra.compare", _antisymmetric, ab, ba, degree), "bracket antisymmetry")
            if t.enabled:
                t.count("algebra.swap_bracket.terms_out", len(ab.monomials()) + len(ba.monomials()))
            printed = t.call("algebra.render", repr, ab)
            compare = "algebra.compare"
        else:
            ab = t.call("multifraction.fraction_bracket", fraction_bracket, a, b, alpha)
            ab0 = t.call("multifraction.fraction_bracket", fraction_bracket, a, b, 0)
            ba = t.call("multifraction.fraction_bracket", fraction_bracket, b, a, alpha)
            check(t.call("multifraction.compare", operator.eq, ab0, ab), "alpha independence")
            check(t.call("multifraction.compare", _is_negation, ab, ba), "bracket antisymmetry")
            for f in (ab, ab0, ba):
                _count_fraction(t, f)
            printed = t.call("multifraction.render", repr, ab)
            compare = "multifraction.compare"
        back = t.call("parser.parse_expression", parse_expression, printed, config)
        if t.enabled:
            t.count("parser.parse_expression.chars_in", len(printed))
        check(t.call(compare, operator.eq, ab, back), "printed bracket parses back")
        return ("shared", left_kind, right_kind, len(printed))


# -- matrix ------------------------------------------------------------------------


MAX_DRAWS = 40  # a draw is usable with probability about 0.39
MAX_CHI_DRAWS = 10
ALIAS_GAP = 0.005


def _circle_gap(p, q):
    gap = float(p.position - q.position) % 1.0
    return min(gap, 1.0 - gap)


def _symmetric_square_rep(g, h):
    return Representation({"a": symmetric_square(g), "b": symmetric_square(h)})


def _boundary_coordinates(rng, k):
    coords = []
    while len(coords) < k:
        c = rng.uniform(-5.0, 5.0)
        if all(abs(c - s) > 0.15 for s in coords):
            coords.append(c)
    return coords


class Matrix:
    """Criteria 6-9 traffic: loxodromic representations against geometry."""

    name = "matrix"

    def setup(self, seed, t):
        return None

    def op(self, state, i, rng, t):
        for draw in range(1, MAX_DRAWS + 1):
            g, h = random_hyperbolic_sl2(rng), random_hyperbolic_sl2(rng)
            rep = t.call("representation.build", Representation, {"a": g, "b": h})
            a_plus, a_minus, b_plus, b_minus = (
                t.call("representation.resolve", rep.fixed_point, word, sign)
                for word in ("a", "b")
                for sign in (1, -1)
            )
            if t.call("circle.linking_number", linking_number, a_plus, a_minus, b_plus, b_minus):
                break
        else:
            raise CheckFailed(f"no usable draw in {MAX_DRAWS}")
        if t.enabled:
            t.count("representation.draws", draw)
            t.count("representation.accepted", 1)

        width = t.call("representation.spectral", rep.width, "a")
        for anchor in (b_plus, b_minus):
            period = t.call("representation.spectral", rep.period, "a", anchor)
            check(abs(period - width) <= 1e-9, "period = width (n = 2)")
        rep3 = t.call("representation.build", _symmetric_square_rep, g, h)
        anchor3 = t.call("representation.resolve", rep3.fixed_point, "b", 1)
        period3 = t.call("representation.spectral", rep3.period, "a", anchor3)
        width3 = t.call("representation.spectral", rep3.width, "a")
        # Representation.period loses digits at n = 3 when the anchor b+ lies
        # near a fixed point of a (ROADMAP item 4: the numeric layers should
        # refuse such input).  Over 82,000 crossing draws every deviation
        # above the 1e-9 row had b+ within 0.0035 of a+ or a- on the circle
        # (up to 1e-5 below 1e-4); from ALIAS_GAP on the worst was 2.9e-10.
        # Such draws, about 2.6%, still do all the work, but their n = 3 row
        # is not checked, and they are counted.
        if min(_circle_gap(b_plus, a_plus), _circle_gap(b_plus, a_minus)) >= ALIAS_GAP:
            check(abs(period3 - width3) <= 1e-9, "period = width (n = 3)")
        elif t.enabled:
            t.count("representation.period3_unchecked", 1)

        rhs_fraction = t.call("multifraction.construct", wolpert_rhs, rep, "a", "b")
        rhs = t.call("representation.eval_fraction", rep.eval_fraction, rhs_fraction)
        theta = t.call("halfplane.crossing_angle", halfplane.crossing_angle, g, h)
        check(abs(2.0 * math.cos(theta) - rhs) <= 1e-6, "Wolpert bracket = 2 cos(angle)")

        pts = [
            t.call("representation.resolve", rep.boundary_point, c)
            for c in _boundary_coordinates(rng, 8)
        ]
        chi3 = t.call("representation.spectral", rep.chi, pts[:4], pts[4:])
        check(abs(chi3) <= 1e-8, "order-3 chi vanishes at rank 2")
        # The order-2 determinant is nonzero only generically: about 0.3% of
        # random 6-point tuples give |chi| below the suite's 1e-4 floor
        # (smallest seen 1e-5, far above rounding), so such tuples are
        # redrawn and counted, like axes that do not cross.
        for chi_draw in range(1, MAX_CHI_DRAWS + 1):
            pts = [
                t.call("representation.resolve", rep.boundary_point, c)
                for c in _boundary_coordinates(rng, 6)
            ]
            chi2 = t.call("representation.spectral", rep.chi, pts[:3], pts[3:])
            if abs(chi2) > 1e-4:
                break
        else:
            raise CheckFailed(f"order-2 chi below 1e-4 on {MAX_CHI_DRAWS} tuples")
        if t.enabled:
            t.count("representation.chi_draws", chi_draw)
            t.count("representation.chi_accepted", 1)

        rate = self._wilson(rng, t)
        return ("matrix", draw, rhs, chi2, rate)

    def _wilson(self, rng, t):
        """Trace ratios decay to the elementary value at the girth rate."""
        rep = t.call(
            "representation.build",
            Representation,
            {
                "a": random_hyperbolic_sl2(rng, 1.15, 1.45),
                "b": random_hyperbolic_sl2(rng, 1.15, 1.45),
            },
        )
        target_fraction = t.call("multifraction.construct", elementary, rep, ("a", "b"))
        target = t.call("representation.eval_fraction", rep.eval_fraction, target_fraction)
        girth = t.call("representation.spectral", rep.girth, ["a", "b"])
        errors = {}
        for p in range(4, 41):
            err = abs(t.call("representation.spectral", rep.wilson_ratio, "a", "b", p) - target)
            if err > 1e-12:
                errors[p] = err
        # The wilson-limit suite's second row, a constant fitted on p <= 10
        # bounding every later error with 5% slack, also rejects about 1% of
        # correct random draws (the decay is not yet geometric at p ~ 15),
        # so only the decay-rate row is checked per op.
        check(len(errors) >= 2, "trace ratios resolve the decay")
        ps = np.array(sorted(errors))
        slope = np.polyfit(ps, np.log([errors[p] for p in ps]), 1)[0]
        rate = abs(math.exp(slope) / girth - 1.0)
        check(rate <= 0.10, "decay rate matches the girth")
        return rate


# -- oper ----------------------------------------------------------------------------


STEPS = 4096
QUADRUPLES = 16  # per operator, as in the oper-crossratio suite (100 over 6)
OCTUPLES = 8  # per operator, as in the df-swap suite (50 over 6)
MAX_SOLVES = 20  # the attempt budget of random_trivial_holonomy_opers


def _separated_quadruple(rng):
    while True:
        idx = sorted(rng.sample(range(1, STEPS), 4))
        gaps = [b - a for a, b in zip(idx, idx[1:])] + [STEPS - idx[3] + idx[0]]
        if min(gaps) >= 16:
            break
    rng.shuffle(idx)
    return [Fraction(j, STEPS) for j in idx]


def _transported_cross_ratio(sol, a, b, c, d, via):
    F = lambda A, B: coordinate_function(sol, A, B, via)
    return F(a, d) * F(c, b) / (F(a, b) * F(c, d))


# Additive recurrence for the first harmonic draw of each op, with the
# 4-dimensional golden-ratio analogue (positive root of x^5 = x + 1).  The
# draws of consecutive ops cover the box [-2, 2]^4 evenly, so a run's mean
# Newton cost depends little on the seed, which only shifts the sequence.
# Every op still gets harmonics of its own.
_PHI4 = 1.1673039782614187
_STEP = tuple(_PHI4 ** -(d + 1) for d in range(4))


def _harmonics(u):
    c2, s2, c3, s3 = (4.0 * v - 2.0 for v in u)
    return [(2, c2, s2), (3, c3, s3)]


class Oper:
    """Criterion 10 traffic: a fresh trivial-holonomy operator per op."""

    name = "oper"

    def setup(self, seed, t):
        rng = random.Random(f"{self.name}:{seed}:setup")
        return tuple(rng.random() for _ in range(4))

    def op(self, state, i, rng, t):
        base = veronese_oper(2)
        for draw in range(1, MAX_SOLVES + 1):
            if draw == 1:
                u = [(shift + (i + 1) * step) % 1.0 for shift, step in zip(state, _STEP)]
            else:
                u = [rng.random() for _ in range(4)]
            extra = _harmonics(u)
            with t.span("opers.solve"):
                try:
                    oper = solve_trivial_holonomy(base, extra, -1)
                except SwapAlgError:
                    continue
                sol = t.call("opers.integrate", integrate, oper, STEPS)
                trivial = t.call("opers.query", holonomy_class, sol) == "trivial-in-PSL"
            if t.enabled:
                t.count("opers.integrate.steps", STEPS)
            if trivial:
                break
        else:
            raise CheckFailed(f"no trivial-holonomy operator in {MAX_SOLVES} solves")
        if t.enabled:
            t.count("opers.solve.accepted", 1)

        total = 0.0
        for _ in range(QUADRUPLES):
            a, b, c, d = _separated_quadruple(rng)
            via = Fraction(rng.randrange(STEPS), STEPS)
            transported = t.call(
                "opers.query", _transported_cross_ratio, sol, a, b, c, d, via
            )
            weak = t.call("opers.query", weak_cross_ratio, sol, a, d, c, b)
            check(abs(transported - weak) <= 1e-6, "transported = weak cross ratio")
            direct = t.call("opers.query", oper_cross_fraction, sol, a, b, c, d)
            lifted = t.call("opers.query", oper_cross_fraction, sol, a + 1, b, c - 2, d)
            check(abs(lifted - direct) <= 1e-6, "lift invariance")
            total += weak
        for k in range(OCTUPLES):
            idx = rng.sample(range(1, STEPS), 8)
            q0 = tuple(Fraction(j, STEPS) for j in idx[:4])
            q1 = tuple(Fraction(j, STEPS) for j in idx[4:])
            ds_value, swap_value = t.call(
                "opers.ds_bracket", ds_crossfraction_bracket, sol, q0, q1, Fraction(k % 3)
            )
            check(abs(ds_value - swap_value) <= 1e-5, "reduced bracket = swapping bracket")
            total += ds_value
        return ("oper", draw, total)


WORKLOADS = {w.name: w for w in (ExactFresh(), ExactShared(), Matrix(), Oper())}
