import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from swapalg.algebra import AlgebraElement, Monomial, generator, swap_bracket
from swapalg.circle import PointConfig, ensure_same_config
from swapalg.errors import ConfigMismatchError, DegenerateFractionError, EvaluationError, SwapAlgError
from swapalg.multifraction import (
    SymbolicWords,
    birelem_identity,
    chi,
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
from swapalg.opers import integrate, veronese_oper
from swapalg.representation import Representation, symmetric_square
from swapalg.verify import _random_config, random_hyperbolic_sl2
from swapalg.words import parse_word


def fresh_words(rng, labels, denominator=499):
    table = SymbolicWords()
    positions = rng.sample(range(denominator), 2 * len(labels))
    for i, label in enumerate(labels):
        table.register(
            label,
            Fraction(positions[2 * i], denominator),
            Fraction(positions[2 * i + 1], denominator),
        )
    return table


# -- reduction and equality ---------------------------------------------------


def _fraction(numerator, denominator=Monomial(), scale=1):
    """scale * numerator / denominator, for a monomial denominator."""
    return numerator * scale / AlgebraElement.from_monomial(numerator.config, denominator)


def test_cross_fraction_shape(grid_config):
    config, p = grid_config
    f = cross_fraction(p[0], p[1], p[2], p[3])
    assert f.denominator.degree == 2
    assert f.scale == 1
    assert is_balanced(f)


def test_cross_fraction_degenerate_rejections(grid_config):
    config, p = grid_config
    with pytest.raises(DegenerateFractionError, match="degenerate denominator"):
        cross_fraction(p[0], p[1], p[1], p[3])  # x = Y
    with pytest.raises(DegenerateFractionError, match="degenerate denominator"):
        cross_fraction(p[0], p[1], p[2], p[0])  # y = X


def test_cross_fraction_collapses_to_one(grid_config):
    config, p = grid_config
    assert cross_fraction(p[0], p[1], p[2], p[2]) == 1
    assert cross_fraction(p[0], p[0], p[2], p[3]) == 1


def test_cross_multiplication_equality(grid_config):
    config, p = grid_config
    Xx = generator(p[0], p[1])
    Yy = generator(p[2], p[3])
    Zz = generator(p[4], p[5])
    ((mY, _),) = Yy.terms()
    ((mZ, _),) = Zz.terms()
    plain = _fraction(Xx, mY)
    padded = _fraction(Xx * Zz, mY * mZ)
    assert plain == padded  # common factor cancels on reduction


def test_content_normalization(grid_config):
    config, p = grid_config
    numer = 6 * generator(p[0], p[1]) + 4 * generator(p[2], p[3])
    f = _fraction(numer)
    assert f.scale == 2
    coeffs = sorted(c for _, c in f.numerator.terms())
    assert coeffs == [Fraction(2), Fraction(3)]
    scaled = _fraction(numer, scale=Fraction(-5, 9))
    assert scaled == Fraction(-5, 9) * f and scaled.scale == Fraction(-10, 9)
    assert _fraction(numer, scale=0).is_zero


def test_fraction_arithmetic(grid_config):
    config, p = grid_config
    f = cross_fraction(p[0], p[1], p[2], p[3])
    g = cross_fraction(p[4], p[5], p[6], p[7])
    assert (f - f).is_zero
    assert f * g == g * f
    assert f / f == 1
    assert (f + g) - g == f
    assert f * f.inverse() == 1
    assert (2 * f) / 2 == f


def test_inverse_requires_monomial_numerator(grid_config):
    config, p = grid_config
    numer = generator(p[0], p[1]) + generator(p[2], p[3])
    f = _fraction(numer)
    with pytest.raises(SwapAlgError, match="monomial"):
        f.inverse()
    with pytest.raises(ZeroDivisionError):
        AlgebraElement.zero(config).inverse()


# -- multi fractions ----------------------------------------------------------


def test_multi_fraction_identity_permutation(grid_config):
    config, p = grid_config
    assert multi_fraction((p[0], p[1]), (p[2], p[3]), (0, 1)) == 1


def test_multi_fraction_transposition_is_cross_fraction(grid_config):
    config, p = grid_config
    X1, X2, x1, x2 = p[0], p[1], p[2], p[3]
    assert multi_fraction((X1, X2), (x1, x2), (1, 0)) == cross_fraction(
        X1, X2, x2, x1
    )


def test_multi_fraction_three_cycle(grid_config):
    config, p = grid_config
    f = multi_fraction((p[0], p[1], p[2]), (p[3], p[4], p[5]), (1, 2, 0))
    assert f.denominator.degree == 3
    assert is_balanced(f)


def test_multi_fraction_zero_numerator_allowed(grid_config):
    config, p = grid_config
    # X_2 = x_{sigma(2)} makes the numerator vanish; the value is 0
    f = multi_fraction((p[0], p[1]), (p[1], p[2]), (1, 0))
    assert f.is_zero


def test_multi_fraction_input_validation(grid_config):
    config, p = grid_config
    with pytest.raises(DegenerateFractionError):
        multi_fraction((p[0], p[1]), (p[0], p[2]), (0, 1))
    with pytest.raises(SwapAlgError, match="permutation"):
        multi_fraction((p[0], p[1]), (p[2], p[3]), (0, 0))


def test_is_balanced_examples(grid_config):
    config, p = grid_config
    assert is_balanced(cross_fraction(p[0], p[1], p[2], p[3]))
    Yy = generator(p[2], p[3])
    ((mY, _),) = Yy.terms()
    assert not is_balanced(_fraction(generator(p[0], p[1]), mY))
    assert is_balanced(AlgebraElement.zero(config))


@pytest.mark.parametrize("den", [(0, 2), (2, 1)], ids=["same-left", "same-right"])
def test_elements_balanced_on_one_side_only_are_unbalanced(grid_config, den):
    # [X x]/[X y] balances its left points but not its right points, and
    # [X x]/[Y x] the other way round; neither has a scale-free value
    config, p = grid_config
    f = generator(p[0], p[1]) / generator(p[den[0]], p[den[1]])
    assert not is_balanced(f)
    with pytest.raises(EvaluationError, match="not balanced"):
        f.evaluate(lambda X, x: 1.0)


def test_closure_negative_control_one_sided_fractions_bracket_unbalanced():
    # the closure row's negative control: bracketing a cross fraction with
    # [X x]/[X y] (balanced on the left only) or [X x]/[Y x] (on the right
    # only) gives an unbalanced element in 32 of these 40 draws each, and
    # zero in the other 8, while all 40 cross x cross brackets are balanced
    rng = random.Random(21)
    unbalanced = {"same-left": 0, "same-right": 0, "cross": 0}
    zero = 0
    for _ in range(40):
        config, points = _random_config(rng, 8, denominator=499)
        f, g = cross_fraction(*rng.sample(points, 4)), cross_fraction(*rng.sample(points, 4))
        X, x, Y, y = rng.sample(points, 4)
        one_sided = {
            "same-left": generator(X, x) / generator(X, y),
            "same-right": generator(X, x) / generator(Y, x),
        }
        for kind, h in one_sided.items():
            bracket = swap_bracket(f, h)
            unbalanced[kind] += not is_balanced(bracket)
            zero += bracket.is_zero
        unbalanced["cross"] += not is_balanced(swap_bracket(f, g))
    assert unbalanced == {"same-left": 32, "same-right": 32, "cross": 0}
    assert zero == 16


# -- the bracket on fractions ---------------------------------------------------


def test_fraction_bracket_alpha_independence_and_closure():
    rng = random.Random(8)
    for _ in range(30):
        config, points = _random_config(rng, 10, denominator=499)
        i = rng.sample(range(10), 8)
        f = cross_fraction(points[i[0]], points[i[1]], points[i[2]], points[i[3]])
        g = cross_fraction(points[i[4]], points[i[5]], points[i[6]], points[i[7]])
        b0 = fraction_bracket(f, g, 0)
        assert fraction_bracket(f, g, 1) == b0
        assert fraction_bracket(f, g, 5) == b0
        assert fraction_bracket(f, g, Fraction(-1, 4)) == b0
        assert is_balanced(b0)


def test_fraction_bracket_trivial_cases(grid_config):
    config, p = grid_config
    f = cross_fraction(p[1], p[3], p[2], p[4])
    assert fraction_bracket(f, f, Fraction(7)).is_zero
    assert fraction_bracket(f, AlgebraElement.one(config), 1).is_zero
    assert fraction_bracket(f, AlgebraElement.scalar(config, Fraction(5, 3))).is_zero


def test_fraction_bracket_antisymmetry_and_leibniz():
    rng = random.Random(9)
    config, points = _random_config(rng, 10, denominator=499)
    i = list(range(8))
    f = cross_fraction(points[i[0]], points[i[1]], points[i[2]], points[i[3]])
    g = cross_fraction(points[i[4]], points[i[5]], points[i[6]], points[i[7]])
    h = cross_fraction(points[1], points[6], points[0], points[9])
    assert (fraction_bracket(f, g) + fraction_bracket(g, f)).is_zero
    assert fraction_bracket(f * g, h) == f * fraction_bracket(g, h) + g * fraction_bracket(f, h)


# -- elementary functions -------------------------------------------------------


def test_elementary_order_one_and_cyclic():
    rng = random.Random(10)
    table = fresh_words(rng, ["a", "b", "c"])
    assert elementary(table, ("a",)) == 1
    base = elementary(table, ("a", "b", "c"))
    assert elementary(table, ("b", "c", "a")) == base
    assert elementary(table, ("c", "a", "b")) == base


def test_elementary_class_rules():
    rng = random.Random(12)
    table = fresh_words(rng, ["a", "b"])
    assert elementary(table, ("a", "b", "b")) == elementary(table, ("a", "b"))
    assert elementary(table, ("a", "b", "b'")).is_zero
    # powers share the fixed points of the base word
    assert elementary(table, ("a a", "b")) == elementary(table, ("a", "b"))


def test_elementary_two_word_display():
    rng = random.Random(13)
    table = fresh_words(rng, ["g", "h"])
    g_plus = table.fixed_point("g", +1)
    g_minus = table.fixed_point("g", -1)
    h_plus = table.fixed_point("h", +1)
    h_minus = table.fixed_point("h", -1)
    expected_numer = generator(g_plus, h_minus) * generator(h_plus, g_minus)
    value = elementary(table, ("g", "h"))
    assert value.numerator * value.scale == expected_numer


def test_order_reduction_relation():
    rng = random.Random(14)
    for trial in range(5):
        table = fresh_words(rng, ["a", "b", "c", "d", "e"])
        words = ("a", "b", "c", "d", "e")[: 4 + trial % 2]
        lhs = elementary(table, words)
        rhs = (
            elementary(table, (words[0], words[1]))
            * elementary(table, (words[0], words[-1]))
            * elementary(table, words[1:])
            / elementary(table, (words[-1], words[1], words[0]))
        )
        assert lhs == rhs


def test_braelem_closed_form_exact():
    rng = random.Random(15)
    shapes = [(2, 2), (2, 3), (3, 3)]
    labels = ["a", "b", "c", "d", "e", "f"]
    for sg, sh in shapes:
        for _ in range(3):
            table = fresh_words(rng, labels)
            gw = tuple(labels[:sg])
            hw = tuple(labels[sg : sg + sh])
            direct = fraction_bracket(
                elementary(table, gw), elementary(table, hw), Fraction(rng.randint(-2, 2))
            )
            assert elementary_bracket_closed_form(table, gw, hw) == direct


def test_braelem_antisymmetry_and_hypothesis():
    rng = random.Random(16)
    table = fresh_words(rng, ["a", "b", "c", "d"])
    forward = elementary_bracket_closed_form(table, ("a", "b"), ("c", "d"))
    backward = elementary_bracket_closed_form(table, ("c", "d"), ("a", "b"))
    assert (forward + backward).is_zero
    with pytest.raises(SwapAlgError, match="disjoint fixed points"):
        elementary_bracket_closed_form(table, ("a", "a'"), ("c", "d"))


def test_birelem_identity_holds():
    rng = random.Random(17)
    table = fresh_words(rng, ["a", "b", "c", "d", "e"])
    labels = ["a", "b", "c", "d", "e"]
    for quad in [("a", "b", "c", "d"), ("e", "b", "a", "c"), ("d", "e", "b", "a")]:
        lhs, rhs = birelem_identity(table, *quad)
        assert lhs == rhs
    lhs, rhs = birelem_identity(table, "a", "b", "c", "a")  # a = d degenerates
    assert lhs == rhs


def test_birelem_relabel_symmetry():
    # swapping b and d inverts the cross fraction: [X;Y;x;y].[Y;X;x;y] = 1
    rng = random.Random(18)
    table = fresh_words(rng, ["a", "b", "c", "d"])
    lhs1, rhs1 = birelem_identity(table, "a", "b", "c", "d")
    lhs2, rhs2 = birelem_identity(table, "a", "d", "c", "b")
    assert rhs1 * rhs2 == 1
    assert lhs1 * lhs2 == 1


# -- length functions and the four-term sum --------------------------------------


def test_wolpert_rhs_linked_pair():
    rng = random.Random(19)
    table = SymbolicWords()
    table.register("g", Fraction(1, 8), Fraction(5, 8))
    table.register("h", Fraction(3, 8), Fraction(7, 8))
    value = wolpert_rhs(table, "g", "h")
    assert not value.is_zero
    assert is_balanced(value)
    assert (value + wolpert_rhs(table, "h", "g")).is_zero


def test_wolpert_rhs_unlinked_is_zero():
    table = SymbolicWords()
    table.register("g", Fraction(1, 8), Fraction(2, 8))
    table.register("h", Fraction(5, 8), Fraction(6, 8))
    assert wolpert_rhs(table, "g", "h").is_zero


def test_wolpert_rhs_shared_point_rejected():
    table = SymbolicWords()
    table.register("g", Fraction(1, 8), Fraction(2, 8))
    table.register("h", Fraction(1, 8), Fraction(6, 8))
    with pytest.raises(DegenerateFractionError):
        wolpert_rhs(table, "g", "h")


def length_setup():
    table = SymbolicWords()
    # anchor y and its images placed consistently with a north-south flow
    table.register("g", Fraction(1, 16), Fraction(9, 16))
    y = table.config.point("y", Fraction(12, 16))
    table.declare_image("g", y, Fraction(13, 16))
    table.declare_image("g'", y, Fraction(11, 16))
    return table, y


def test_length_cross_fraction_shape():
    table, y = length_setup()
    p = length_cross_fraction(table, "g", y)
    assert p.denominator.degree == 2
    assert is_balanced(p)
    with pytest.raises(DegenerateFractionError):
        length_cross_fraction(table, "g", table.fixed_point("g", +1))


def test_length_bracket_rules():
    table, y = length_setup()
    p = length_cross_fraction(table, "g", y)
    other = cross_fraction(
        table.fixed_point("g", +1),
        table.fixed_point("g", -1),
        y,
        table.act("g", y),
    )
    assert length_bracket(p, other) == fraction_bracket(p, other) / p
    assert length_length_bracket(p, p).is_zero


def _length_fractions_on_symbolic_words():
    table = SymbolicWords()
    table.register("g", Fraction(1, 16), Fraction(9, 16))
    table.register("h", Fraction(5, 16), Fraction(13, 16))
    fractions = []
    for word, anchor, fwd, back in (
        ("g", Fraction(12, 32), Fraction(11, 32), Fraction(13, 32)),
        ("g", Fraction(25, 32), Fraction(27, 32), Fraction(23, 32)),
        ("h", Fraction(15, 32), Fraction(17, 32), Fraction(14, 32)),
        ("h", Fraction(31, 32), Fraction(29, 32), Fraction(1, 64)),
    ):
        y = table.config.point(f"y{len(fractions)}", anchor)
        table.declare_image(word, y, fwd)
        table.declare_image(word + "'", y, back)
        fractions.append(length_cross_fraction(table, word, y))
    return fractions


def _length_fractions_on_representations(seed):
    rng = random.Random(seed)
    rep = Representation(
        {"a": random_hyperbolic_sl2(rng, low=1.3), "b": random_hyperbolic_sl2(rng, low=1.3)}
    )
    anchors = [rep.boundary_point(rng.uniform(-3.0, 3.0)) for _ in range(2)]
    return [length_cross_fraction(rep, word, y) for word in ("a", "b") for y in anchors]


@pytest.mark.parametrize(
    "fractions",
    [_length_fractions_on_symbolic_words()]
    + [_length_fractions_on_representations(seed) for seed in range(1, 9)],
    ids=["symbolic-words"] + [f"representation-{seed}" for seed in range(1, 9)],
)
def test_log_brackets_are_additive_in_products(fractions):
    # a length cross fraction's pairs are short arcs; on seed 0 none link
    nonzero = 0
    for p1, p2, q in itertools.permutations(fractions, 3):
        for alpha in (0, Fraction(-1, 4)):
            assert length_length_bracket(p1 * p2, q, alpha) == (
                length_length_bracket(p1, q, alpha) + length_length_bracket(p2, q, alpha)
            )
            assert length_length_bracket(q, p1 * p2, alpha) == (
                length_length_bracket(q, p1, alpha) + length_length_bracket(q, p2, alpha)
            )
            assert length_bracket(p1 * p2, q, alpha) == (
                length_bracket(p1, q, alpha) + length_bracket(p2, q, alpha)
            )
            nonzero += not length_length_bracket(p1, q, alpha).is_zero
    assert nonzero > 0


def test_log_brackets_refuse_a_divisor_with_several_terms():
    pa, _, pb, pb2 = _length_fractions_on_symbolic_words()
    with pytest.raises(SwapAlgError, match="only monomial fractions are invertible"):
        length_bracket(pa + pb, pb2)
    with pytest.raises(SwapAlgError, match="only monomial fractions are invertible"):
        length_length_bracket(pa, pb + pb2)


def test_symbolic_action_must_be_declared():
    table = SymbolicWords()
    table.register("g", Fraction(1, 16), Fraction(9, 16))
    y = table.config.point("y", Fraction(12, 16))
    with pytest.raises(SwapAlgError, match="not declared"):
        table.act("g", y)


def test_fraction_bracket_jacobi_identity():
    rng = random.Random(21)
    config, points = _random_config(rng, 12, denominator=499)
    f = cross_fraction(points[0], points[5], points[2], points[8])
    g = cross_fraction(points[1], points[7], points[4], points[10])
    h = cross_fraction(points[3], points[9], points[6], points[11])
    alpha = Fraction(2, 3)
    total = (
        fraction_bracket(f, fraction_bracket(g, h, alpha), alpha)
        + fraction_bracket(g, fraction_bracket(h, f, alpha), alpha)
        + fraction_bracket(h, fraction_bracket(f, g, alpha), alpha)
    )
    assert total.is_zero


def test_equality_is_cross_multiplication():
    rng = random.Random(22)
    config, points = _random_config(rng, 8, denominator=499)
    numer = generator(points[0], points[1]) + 3 * generator(points[2], points[3])
    pad = generator(points[4], points[5])
    ((pad_monomial, _),) = pad.terms()
    ((den_monomial, _),) = generator(points[6], points[7]).terms()
    f = _fraction(numer, den_monomial)
    padded = _fraction(numer * pad, den_monomial * pad_monomial)
    assert f == padded
    assert f != _fraction(numer * pad * 5, den_monomial * pad_monomial)


def test_braelem_closed_form_single_word_tuple():
    # T of a single word is 1, so the bracket vanishes; the closed form
    # cancels term by term through cyclic invariance and class truncation
    rng = random.Random(23)
    table = fresh_words(rng, ["a", "c", "d"])
    closed = elementary_bracket_closed_form(table, ("a",), ("c", "d"))
    assert closed.is_zero


def test_bracket_agrees_with_quotient_rule():
    from swapalg.algebra import swap_bracket

    # {n1/d1, n2/d2} d1^2 d2^2 = d1 d2 {n1,n2} - n1 d2 {d1,n2} - n2 d1 {n1,d2}
    #                            + n1 n2 {d1,d2}, every bracket between polynomials
    rng = random.Random(24)
    for trial in range(12):
        config, points = _random_config(rng, 12, denominator=499)

        def draw(kind):
            k = rng.sample(points, 8)
            if kind == "cross":
                return cross_fraction(*k[:4])
            n = rng.choice((2, 3, 4))
            sigma = list(range(n))
            while sigma == sorted(sigma):
                rng.shuffle(sigma)
            return multi_fraction(k[:n], k[4 : 4 + n], sigma)

        f = draw(("cross", "mf")[trial % 2])
        g = draw(("cross", "mf")[trial // 2 % 2])
        n1, n2 = f.numerator * f.scale, g.numerator * g.scale
        d1 = AlgebraElement.from_monomial(config, f.denominator)
        d2 = AlgebraElement.from_monomial(config, g.denominator)
        for alpha in (Fraction(0), Fraction(1), Fraction(-1, 4)):
            expected = (
                d1 * d2 * swap_bracket(n1, n2, alpha)
                - n1 * d2 * swap_bracket(d1, n2, alpha)
                - n2 * d1 * swap_bracket(n1, d2, alpha)
                + n1 * n2 * swap_bracket(d1, d2, alpha)
            )
            got = fraction_bracket(f, g, alpha) * d1 * d1 * d2 * d2
            assert got == expected


# -- the rank test chi -------------------------------------------------------


def _symbolic_chi(universe, X, x):
    """chi as p^2 symbolic cross fractions, each evaluated on its own."""
    p = len(X) - 1
    value = lambda i, j: cross_fraction(X[i], X[0], x[j], x[0]).evaluate(universe.pair_value)
    return float(np.linalg.det(np.array([[value(i, j) for j in range(1, p + 1)] for i in range(1, p + 1)])))


class _Stubbed:
    """A universe whose pair values are another's, except for `stub`."""

    def __init__(self, universe, stub):
        self.universe, self.stub = universe, stub

    def pair_value(self, X, x):
        return self.stub.get((X, x), self.universe.pair_value(X, x))


def _chi_universes():
    rng = random.Random(22)
    pair = Representation(
        {"a": random_hyperbolic_sl2(rng, low=1.3), "b": random_hyperbolic_sl2(rng, low=1.3)}
    )
    pair_points = [pair.fixed_point(w, s) for w in ("a", "b", "a b") for s in (1, -1)]
    pair_points += [pair.boundary_point(t) for t in (-3.0, -1.25, -0.5, 0.0, 0.75, 2.0, None)]
    rng = random.Random(1)
    square = Representation(
        {g: symmetric_square(random_hyperbolic_sl2(rng, low=1.3)) for g in ("a", "b")}
    )
    square_points = [square.fixed_point(w, s) for w in ("a", "b", "a b", "a b'", "a a b") for s in (1, -1)]
    yield pair, pair_points
    yield square, square_points
    for oper, steps in ((veronese_oper(2), 1024), (veronese_oper(3), 512)):
        sol = integrate(oper, steps)
        yield sol, [sol.point(Fraction(j, steps)) for j in rng.sample(range(steps), 12)]


def _chi_tuples(rng, points, p):
    """Tuples chi accepts: X_i may be x_j for i, j >= 1, and X_0 may be x_0."""
    X = rng.sample(points, p + 1)
    x0 = rng.choice([q for q in points if q not in X[1:]])
    rest = [q for q in points if q is not X[0] and q is not x0]
    return X, [x0] + rng.sample(rest, p)


def test_chi_equals_the_symbolic_cross_fractions_bit_for_bit():
    rng = random.Random(7)
    shared = base_shared = 0
    for universe, points in _chi_universes():
        for _ in range(40):
            X, x = _chi_tuples(rng, points, rng.choice([1, 2, 3]))
            assert chi(universe, X, x).hex() == _symbolic_chi(universe, X, x).hex()
            shared += any(Y is y for Y in X[1:] for y in x[1:])
            base_shared += X[0] is x[0]
    assert shared > 20 and base_shared > 0


def test_chi_on_vanishing_pair_values_matches_the_symbolic_cross_fractions():
    universe, points = next(_chi_universes())
    X, x = points[:4], points[4:8]
    # a vanishing denominator raises, as evaluating the cross fraction does
    zeroed = _Stubbed(universe, {(X[0], x[2]): 0.0})
    for route in (chi, _symbolic_chi):
        with pytest.raises(EvaluationError, match="denominator vanishes"):
            route(zeroed, X, x)
    # a vanishing numerator value gives the same zero, of either sign
    for zero in (0.0, -0.0):
        zeroed = _Stubbed(universe, {(X[1], x[1]): zero})
        for p in (1, 3):
            assert chi(zeroed, X[: p + 1], x[: p + 1]).hex() == _symbolic_chi(zeroed, X[: p + 1], x[: p + 1]).hex()


# -- one Laurent monomial per constructor -------------------------------------


def _ring_reference(tops, bottoms):
    """prod tops / prod bottoms by ring arithmetic: a product of generators
    over the monomial of the bottom pairs."""
    config = ensure_same_config(*(point for pair in tops + bottoms for point in pair))
    numer = AlgebraElement.one(config)
    for X, x in tops:
        numer = numer * generator(X, x)
    return _fraction(numer, Monomial(bottoms))


def _assert_reference(value, tops, bottoms):
    reference = _ring_reference(list(tops), list(bottoms))
    assert isinstance(value, AlgebraElement)
    assert value == reference
    assert repr(value) == repr(reference)


def test_cross_fractions_equal_the_ring_reference():
    rng = random.Random(24)
    config, p = _random_config(rng, 6)
    checked = 0
    for _ in range(300):
        X, Y, x, y = (rng.choice(p) for _ in range(4))
        if x is Y or y is X:
            with pytest.raises(DegenerateFractionError, match="^degenerate denominator"):
                cross_fraction(X, Y, x, y)
            continue
        _assert_reference(cross_fraction(X, Y, x, y), [(X, x), (Y, y)], [(Y, x), (X, y)])
        checked += 1
    assert checked > 100
    X, Y, x, y = p[:4]
    assert cross_fraction(X, X, x, x) == 1  # X is Y and x is y
    _assert_reference(cross_fraction(X, X, x, x), [(X, x), (X, x)], [(X, x), (X, x)])
    assert cross_fraction(X, Y, X, y).is_zero  # X is x
    _assert_reference(cross_fraction(X, Y, X, y), [(X, X), (Y, y)], [(Y, X), (X, y)])


def test_multi_fractions_equal_the_ring_reference():
    rng = random.Random(25)
    config, p = _random_config(rng, 8)
    zeros = 0
    for n in range(1, 6):
        identity = tuple(range(n))
        for _ in range(60):
            X = [rng.choice(p) for _ in range(n)]
            x = [rng.choice([q for q in p if q is not Y]) for Y in X]
            sigma = rng.sample(identity, n)
            value = multi_fraction(X, x, sigma)
            _assert_reference(value, [(X[i], x[sigma[i]]) for i in range(n)], list(zip(X, x)))
            zeros += value.is_zero
        assert multi_fraction(X, x, identity) == 1
        _assert_reference(multi_fraction(X, x, identity), list(zip(X, x)), list(zip(X, x)))
    assert zeros > 10


def test_elementary_functions_equal_the_ring_reference():
    rng = random.Random(26)
    table = fresh_words(rng, ["a", "b", "c"])
    rep = Representation(
        {"a": random_hyperbolic_sl2(rng, low=1.3), "b": random_hyperbolic_sl2(rng, low=1.3)}
    )
    universes = [
        (table, ["a", "b", "c", "a'", "b'", "c'", "a a"]),
        (rep, ["a", "b", "a'", "b'", "a b", "b a'"]),
    ]
    zeros = 0
    for universe, words in universes:
        for p in range(1, 5):
            for _ in range(40):
                chosen = [rng.choice(words) for _ in range(p)]
                points = [
                    (universe.fixed_point(parse_word(w), +1), universe.fixed_point(parse_word(w), -1))
                    for w in chosen
                ]
                tops = [(points[(i + 1) % p][0], points[i][1]) for i in range(p)]
                value = elementary(universe, chosen)
                _assert_reference(value, tops, points)
                zeros += value.is_zero
    assert zeros > 10


def test_length_cross_fraction_equals_the_ring_reference():
    table, y = length_setup()
    plus, minus = table.fixed_point("g", +1), table.fixed_point("g", -1)
    fwd, back = table.act("g", y), table.act("g'", y)
    _assert_reference(
        length_cross_fraction(table, "g", y),
        [(plus, back), (minus, fwd)],
        [(plus, fwd), (minus, back)],
    )


def test_a_word_with_one_fixed_point_is_a_degenerate_denominator():
    table = SymbolicWords()
    table.register("g", Fraction(1, 4), Fraction(1, 4))
    table.register("h", Fraction(1, 2), Fraction(3, 4))
    for words in (["g"], ["h", "g"]):
        with pytest.raises(DegenerateFractionError, match="^degenerate denominator"):
            elementary(table, words)


def test_fractions_without_pairs_are_refused():
    table = fresh_words(random.Random(27), ["a"])
    with pytest.raises(SwapAlgError, match="at least one pair"):
        multi_fraction((), (), ())
    with pytest.raises(SwapAlgError, match="at least one pair"):
        elementary(table, [])


def test_multi_fraction_refuses_unequal_lengths(grid_config):
    config, p = grid_config
    with pytest.raises(SwapAlgError, match="equal length"):
        multi_fraction((p[0], p[1]), (p[2],), (0, 1))


def test_fractions_over_two_configurations_are_refused(grid_config):
    config, p = grid_config
    other = PointConfig().point("q", Fraction(1, 3))
    with pytest.raises(ConfigMismatchError):
        cross_fraction(p[0], p[1], p[2], other)


def test_chi_refuses_short_tuples_and_colliding_base_points():
    universe, points = next(_chi_universes())
    with pytest.raises(SwapAlgError, match="length >= 2"):
        chi(universe, points[:1], points[1:2])
    X = points[:3]
    with pytest.raises(SwapAlgError, match="collide with the base points"):
        chi(universe, X, [X[1], points[3], points[4]])
