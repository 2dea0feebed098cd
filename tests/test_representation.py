import math
import random
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from swapalg import halfplane
from swapalg.algebra import generator, swap_bracket
from swapalg.circle import linking_number
from swapalg.errors import EvaluationError, NotLoxodromicError, SwapAlgError
from swapalg.multifraction import (
    cross_fraction,
    elementary,
    elementary_bracket_closed_form,
    multi_fraction,
    wolpert_rhs,
)
from swapalg.representation import (
    Representation,
    _check_moduli,
    eigen_split,
    symmetric_square,
    wolpert_check,
)
from swapalg.verify import random_hyperbolic_sl2, run_suite

COSH1 = math.cosh(1.0)
SINH1 = math.sinh(1.0)


def two_generator_rep(seed=0, low=1.3, **kwargs):
    rng = random.Random(seed)
    return Representation(
        {
            "a": random_hyperbolic_sl2(rng, low=low, **kwargs),
            "b": random_hyperbolic_sl2(rng, low=low, **kwargs),
        }
    )


# -- eigendecomposition ---------------------------------------------------------


def test_eigen_split_diagonal():
    data = eigen_split(np.diag([2.0, 0.5]), "g")
    assert data.n == 2
    assert repr(data).startswith("GroupElementData('g', eigenvalues=")
    assert np.allclose(data.eigenvalues, [2.0, 0.5])
    assert np.allclose(np.abs(data.right[:, 0]), [1.0, 0.0])
    assert np.allclose(np.abs(data.right[:, 1]), [0.0, 1.0])


def test_eigen_split_rejects_rotation():
    with pytest.raises(NotLoxodromicError, match="not loxodromic"):
        eigen_split([[0.0, -1.0], [1.0, 0.0]])


def test_eigen_split_rejects_tied_moduli():
    with pytest.raises(NotLoxodromicError):
        eigen_split(np.diag([2.0, 2.0 * (1.0 - 1e-8)]))
    with pytest.raises(NotLoxodromicError):
        eigen_split(np.diag([2.0, -2.0, 0.25]))


def test_eigen_split_rejects_negative_determinant_even_dim():
    with pytest.raises(SwapAlgError, match="negative determinant"):
        eigen_split([[2.0, 0.0], [0.0, -0.5]])


def test_eigen_split_normalizes_sign_for_odd_dim():
    data = eigen_split(-np.diag([4.0, 1.0, 0.25]))
    assert np.linalg.det(data.matrix) == pytest.approx(1.0)


def _decimal_eigendata(matrix):
    """50-digit eigenvalues and unit right eigenvectors of a real 2x2
    matrix with real spectrum, larger modulus first."""
    with localcontext() as ctx:
        ctx.prec = 50
        (a, b), (c, d) = [[Decimal(float(x)) for x in row] for row in matrix]
        root = ((a - d) ** 2 + 4 * b * c).sqrt()
        if a + d < 0:
            root = -root
        values = [(a + d + root) / 2, (a + d - root) / 2]
        vectors = []
        for lam in values:
            u, v = (b, lam - a), (lam - d, c)
            x, y = u if u[0] ** 2 + u[1] ** 2 >= v[0] ** 2 + v[1] ** 2 else v
            norm = (x * x + y * y).sqrt()
            vectors.append((x / norm, y / norm))
        return values, vectors


def _triangular(rng):
    lam = rng.uniform(1.2, 3.0)
    m = np.array([[lam, rng.uniform(-5.0, 5.0)], [0.0, 1.0 / lam]])
    return m if rng.random() < 0.5 else m.T


_FAMILIES = {
    "default": random_hyperbolic_sl2,
    "wilson": lambda rng: random_hyperbolic_sl2(rng, 1.15, 1.45),
    "negated": lambda rng: -random_hyperbolic_sl2(rng),
    # eigenvalue gaps down to 2e-5, where delta^2 and -4bc nearly cancel
    "near-parabolic": lambda rng: random_hyperbolic_sl2(rng, 1.0 + 1e-5, 1.0 + 1e-2),
    "triangular": _triangular,
    "large-eigenvalues": lambda rng: random_hyperbolic_sl2(rng, 10.0, 1e4),
}


@pytest.mark.parametrize("family", sorted(_FAMILIES))
def test_eigen_split_2x2_matches_decimal_reference(family):
    rng = random.Random(family)
    with localcontext() as ctx:
        ctx.prec = 50
        for _ in range(300):
            data = eigen_split(_FAMILIES[family](rng))
            values, vectors = _decimal_eigendata(data.matrix)
            for i, j in ((0, 1), (1, 0)):
                assert abs(Decimal(float(data.eigenvalues[i])) / values[i] - 1) < Decimal("1e-13")
                x, y = (Decimal(float(e)) for e in data.right[:, i])
                assert abs(x * vectors[i][1] - y * vectors[i][0]) < Decimal("4e-15")
                x, y = (Decimal(float(e)) for e in data.left[i])
                assert abs(x * vectors[j][0] + y * vectors[j][1]) < Decimal("4e-15")


def test_eigen_split_2x2_calls_no_lapack(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK called")

    matrix = random_hyperbolic_sl2(random.Random(3))
    for name in ("eig", "solve", "inv", "det"):
        monkeypatch.setattr(np.linalg, name, refuse)
    data = eigen_split(matrix)
    assert data.pairings.min() > 0.1
    with pytest.raises(AssertionError, match="LAPACK called"):
        eigen_split(np.diag([4.0, 1.0, 0.25]))


@pytest.mark.parametrize(
    "matrix, says",
    [
        ([[1e308, 1e308], [1e308, 1e308]], "determinant is not finite"),
        ([[1e308, 1e308, 0], [1e308, 1e308, 0], [0, 0, 1]], "determinant is not finite"),
        ([[math.nan, 0], [0, 1]], "entries must be finite"),
        ([[math.inf, 0, 0], [0, 1, 0], [0, 0, 1]], "entries must be finite"),
        ([[1e308, 0], [0, 1e-320]], "overflow when scaled"),
        ([[1e308, 0, 0], [0, 1e-320, 0], [0, 0, 1]], "overflow when scaled"),
    ],
    ids=["overflow-2", "overflow-3", "nan-2", "inf-3", "scaled-overflow-2", "scaled-overflow-3"],
)
def test_eigen_split_refuses_overflow_without_warnings(matrix, says):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SwapAlgError, match=says) as caught:
            eigen_split(matrix)
    assert type(caught.value) is SwapAlgError


@pytest.mark.parametrize(
    "matrix, kind, says",
    [
        ([[1e308, 1e308], [1e308, 1e308]], SwapAlgError, "matrix determinant is not finite"),
        ([[math.nan, 0], [0, 1]], SwapAlgError, "matrix entries must be finite"),
        ([[1, 1], [-1, 1]], NotLoxodromicError, "not loxodromic: complex spectrum for b"),
    ],
    ids=["det-overflow", "nan", "complex"],
)
def test_a_refused_generator_is_named(matrix, kind, says):
    with pytest.raises(SwapAlgError) as caught:
        Representation({"a": np.diag([2.0, 0.5]), "b": matrix})
    assert type(caught.value) is kind
    assert str(caught.value) == f"generator 'b': {says}"
    text = "n = 2\nelement a 2 0 0 0.5\n\nelement b " + " ".join(str(v) for row in matrix for v in row)
    with pytest.raises(SwapAlgError) as caught:
        Representation.from_text(text)
    assert type(caught.value) is kind
    assert str(caught.value) == f"line 4: generator 'b': {says}"


def test_loxodromy_test_fails_nan_ratios():
    with pytest.raises(NotLoxodromicError, match="moduli too close"):
        _check_moduli((1.0, math.nan), "x")


def test_eigen_split_2x2_takes_huge_entries_through_lapack():
    # past 2^500 the exact products of the closed form would overflow
    data = eigen_split([[1e160, 3.0], [0.0, 1e-160]])
    assert data.eigenvalues.tolist() == pytest.approx([1e160, 1e-160], rel=1e-12)
    assert np.abs(data.right[:, 0]).tolist() == pytest.approx([1.0, 0.0], abs=1e-15)


def test_projectors_resolve_identity():
    rng = random.Random(1)
    for _ in range(10):
        data = eigen_split(random_hyperbolic_sl2(rng, low=1.3))
        total = data.projector(0) + data.projector(1)
        assert np.max(np.abs(total - np.eye(2))) < 1e-12


def test_biorthogonality():
    rng = random.Random(2)
    data = eigen_split(symmetric_square(random_hyperbolic_sl2(rng, low=1.3)))
    gram = data.left @ data.right
    off = gram - np.diag(np.diag(gram))
    assert np.max(np.abs(off)) < 1e-10
    assert np.min(np.abs(np.diag(gram))) > 1e-12


# -- boundary points and the action ----------------------------------------------


def test_fixed_points_of_inverse_swap():
    rep = two_generator_rep()
    assert rep.fixed_point("a", +1) == rep.fixed_point("a'", -1)
    assert rep.fixed_point("a", -1) == rep.fixed_point("a'", +1)
    assert rep.fixed_point("a a", +1) == rep.fixed_point("a", +1)


def test_inverse_matrix_consistency():
    rep = two_generator_rep()
    assert np.max(np.abs(rep.matrix("a a'") - np.eye(2))) < 1e-12
    inv = np.linalg.inv(rep.matrix("a"))
    assert np.max(np.abs(rep.matrix("a'") - inv)) < 1e-12


def test_action_fixes_own_points():
    rep = two_generator_rep()
    plus = rep.fixed_point("a", +1)
    assert rep.act("a", plus) == plus
    h_plus = rep.fixed_point("b", +1)
    assert rep.act("a'", rep.act("a", h_plus)) == h_plus


def test_action_matches_moebius_for_raw_points():
    rep = two_generator_rep(seed=3)
    m = rep.matrix("a")
    t = 0.37
    image = rep.act("a", rep.boundary_point(t))
    expected = (m[0, 0] * t + m[0, 1]) / (m[1, 0] * t + m[1, 1])
    data = rep._points[image]
    got = data.vector[0] / data.vector[1]
    assert abs(got - expected) < 1e-10


def test_action_on_fixed_points_matches_moebius():
    rep = two_generator_rep(seed=4)
    h_plus = rep.fixed_point("b", +1)
    v = rep._points[h_plus].vector
    t = v[0] / v[1]
    m = rep.matrix("a")
    expected = (m[0, 0] * t + m[0, 1]) / (m[1, 0] * t + m[1, 1])
    image = rep.act("a", h_plus)
    w = rep._points[image].vector
    assert abs(w[0] / w[1] - expected) < 1e-10


# -- pair evaluation ---------------------------------------------------------------


def test_pair_value_determinant_realization():
    rep = two_generator_rep()
    inf = rep.boundary_point(None)
    zero = rep.boundary_point(0.0)
    assert rep.pair_value(inf, zero) == pytest.approx(1.0)
    assert rep.pair_value(inf, inf) == 0.0


def test_pair_value_annihilates_own_point():
    rep = two_generator_rep(seed=5)
    for word in ("a", "b", "a b"):
        for sign in (+1, -1):
            point = rep.fixed_point(word, sign)
            assert rep.pair_value(point, point) == 0.0


def test_top_vector_annihilated_by_lower_left_data():
    rng = random.Random(6)
    data = eigen_split(symmetric_square(random_hyperbolic_sl2(rng, low=1.3)))
    for j in range(1, 3):
        assert abs(data.left[j] @ data.right[:, 0]) < 1e-10


def test_classical_cross_ratio_value():
    rep = two_generator_rep()
    X = rep.boundary_point(None)
    Y = rep.boundary_point(1.0)
    x = rep.boundary_point(0.0)
    y = rep.boundary_point(-1.0)
    assert rep.cross_ratio(X, Y, x, y) == pytest.approx(2.0)


def test_cross_ratio_normalisations_are_symbolic():
    rep = two_generator_rep()
    X = rep.boundary_point(0.3)
    Y = rep.boundary_point(1.7)
    x = rep.boundary_point(-2.0)
    assert cross_fraction(X, Y, x, x) == 1
    assert rep.eval_fraction(cross_fraction(X, Y, x, x)) == 1.0


def test_cross_ratio_cocycles_numerically():
    rep = two_generator_rep(seed=7)
    rng = random.Random(7)
    worst = 0.0
    for _ in range(50):
        coords = []
        while len(coords) < 6:
            t = rng.uniform(-4, 4)
            if all(abs(t - s) > 0.1 for s in coords):
                coords.append(t)
        X, Y, x, y, z, W = (rep.boundary_point(t) for t in coords)
        b = rep.cross_ratio
        worst = max(worst, abs(b(X, Y, x, y) - b(X, Y, x, z) * b(X, Y, z, y)))
        worst = max(worst, abs(b(X, Y, x, y) - b(X, z, x, y) * b(z, Y, x, y)))
    assert worst < 1e-9


def test_eval_rejects_unbalanced():
    rep = two_generator_rep()
    from swapalg.algebra import generator

    X = rep.boundary_point(0.25)
    x = rep.boundary_point(1.25)
    unbalanced = generator(X, x)
    with pytest.raises(EvaluationError, match="scale-dependent"):
        rep.eval_fraction(unbalanced)


def test_eval_rejects_unregistered_points():
    rep = two_generator_rep()
    from swapalg.circle import PointConfig

    other = PointConfig()
    p = other.point("p", Fraction(1, 3))
    q = other.point("q", Fraction(2, 3))
    with pytest.raises(EvaluationError):
        rep.pair_value(p, q)


# -- periods, widths, girth ---------------------------------------------------------


def test_width_of_diagonal():
    rep = Representation({"a": np.diag([2.0, 0.5]), "b": [[COSH1, SINH1], [SINH1, COSH1]]})
    assert rep.width("a") == pytest.approx(math.log(4.0))


def test_period_equals_width_and_anchor_free():
    rep = two_generator_rep(seed=8)
    anchors = [rep.fixed_point("b", +1), rep.fixed_point("b", -1), rep.boundary_point(0.123)]
    values = [rep.period("a", anchor) for anchor in anchors]
    assert abs(values[0] - rep.width("a")) < 1e-9
    assert max(values) - min(values) < 1e-9


def symmetric_square_rep(seed=9, **kwargs):
    rng = random.Random(seed)
    return Representation(
        {
            "a": symmetric_square(random_hyperbolic_sl2(rng, low=1.3)),
            "b": symmetric_square(random_hyperbolic_sl2(rng, low=1.3)),
        },
        **kwargs,
    )


def test_period_on_symmetric_square():
    rep = symmetric_square_rep()
    anchor = rep.fixed_point("b", +1)
    assert rep.config.synthetic_order
    assert abs(rep.period("a", anchor) - rep.width("a")) < 1e-9


def test_brackets_refuse_synthetic_order():
    rep = symmetric_square_rep()
    a_pair = generator(rep.fixed_point("a", +1), rep.fixed_point("a", -1))
    b_pair = generator(rep.fixed_point("b", +1), rep.fixed_point("b", -1))
    with pytest.raises(SwapAlgError, match="synthetic"):
        swap_bracket(a_pair, b_pair)
    with pytest.raises(SwapAlgError, match="synthetic"):
        elementary_bracket_closed_form(rep, ("a",), ("b",))


def test_fixed_points_with_different_eigendata_cannot_share_a_position():
    thirds = lambda word, sign: Fraction(1 if sign > 0 else 2, 3)
    rep = symmetric_square_rep(position_hint=thirds)
    rep.fixed_point("a", +1)
    with pytest.raises(SwapAlgError, match=r"a\+ and b\+"):
        rep.fixed_point("b", +1)
    # commuting generators share their fixed points, and their data
    rep = Representation({"a": np.diag([2.0, 1.0, 0.5]), "b": np.diag([3.0, 1.0, 1 / 3])}, thirds)
    assert rep.fixed_point("a", +1) is rep.fixed_point("b", +1)


def test_boundary_point_on_a_fixed_point_stays_one_point():
    rep = Representation({"a": np.diag([2.0, 0.5])})
    assert rep.boundary_point(None) is rep.fixed_point("a", +1)
    assert rep.fixed_point("a", -1) is rep.boundary_point(0.0)
    assert rep.period("a", rep.boundary_point(1.0)) == pytest.approx(rep.width("a"))


def test_boundary_point_refuses_nan_and_overflowing_coordinates():
    rep = two_generator_rep()
    before = rep.config.points()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SwapAlgError, match=r"^boundary coordinate t=nan is not a number$"):
            rep.boundary_point(math.nan)
        with pytest.raises(SwapAlgError, match=r"^boundary coordinate t=1e\+200 overflows"):
            rep.boundary_point(1e200)
        with pytest.raises(SwapAlgError, match=r"^boundary coordinate 10{400} overflows a float$"):
            rep.boundary_point(Fraction(10**400))
        assert rep.config.points() == before
        # a coordinate that normalises stays an ordinary point
        point = rep.boundary_point(1e154)
        assert point.label == "t=1e+154"
        assert rep.pair_value(point, rep.fixed_point("a", +1)) != 0.0
        # act on a raw point reaches the same refusal
        huge = Representation({"a": np.diag([1e100, 1e-100])})
        with pytest.raises(SwapAlgError, match=r"t=1e\+300 overflows"):
            huge.act("a", huge.boundary_point(1e100))
        # an image whose coordinate leaves the float range is the point at oo
        steep = Representation({"a": np.diag([1e150, 1e-150])})
        assert steep.act("a", steep.boundary_point(1e154)) is steep.boundary_point(None)


@pytest.mark.parametrize(
    "text, says",
    [
        ("n = 2\nelement a 2 0 0 0.5\nelement a 3 0 0 0.25\n", "line 3: element 'a' is defined twice"),
        ("n = 2\nelement a 2 0 x 0.5\n", "line 2: element 'a': could not convert string to float: 'x'"),
    ],
    ids=["repeated-label", "entry-not-real"],
)
def test_representation_file_refuses_what_it_would_drop(text, says):
    with pytest.raises(SwapAlgError) as caught:
        Representation.from_text(text)
    assert str(caught.value) == says


_HEADER = "representation file must begin with 'n = <int>', <int> a positive integer"


@pytest.mark.parametrize(
    "text, says",
    [
        ("n = 2\nelement a 2 0\n 0 0.5\nelement b 1 x 0 1\n", "line 4: element 'b': could not convert string to float: 'x'"),
        ("n = 2\nelement a 2 0 0 0.5\n\nfoo b 1 0 0 1\n", "line 4: expected 'element', found 'foo'"),
        ("n = 2\nelement a 2 0 0 0.5\nelement\n", "line 3: 'element' without a label at the end of the file"),
        ("n = 2\nelement a 2 0 0 0.5\nelement b 1 0\n", "line 3: element 'b' needs 4 entries"),
        ("# header\n\nn = x\nelement a 2 0 0 0.5\n", f"line 3: {_HEADER}"),
        ("\nelement a 2 0 0 0.5\n", f"line 2: {_HEADER}"),
        ("", f"line 1: {_HEADER}"),
    ],
    ids=["entry-not-real", "not-element", "no-label", "too-few-entries", "header-n-x", "no-header", "empty"],
)
def test_representation_file_refusals_name_their_line(text, says):
    with pytest.raises(SwapAlgError) as caught:
        Representation.from_text(text)
    assert str(caught.value) == says


def test_period_rejects_fixed_point_anchor():
    rep = two_generator_rep()
    with pytest.raises(SwapAlgError):
        rep.period("a", rep.fixed_point("a", +1))


def test_girth_examples():
    rep = Representation({"a": np.diag([2.0, 0.5]), "b": [[COSH1, SINH1], [SINH1, COSH1]]})
    assert rep.girth(["a"]) == pytest.approx(0.25)
    assert rep.girth(["a", "b"]) >= rep.girth(["a"])
    assert rep.girth(["a", "b"]) < 1.0
    with pytest.raises(SwapAlgError):
        rep.girth([])


# -- Wilson loops and rank tests -------------------------------------------------------


def test_wilson_ratio_converges_to_elementary():
    rep = two_generator_rep(seed=10, low=1.2, high=1.5)
    target = rep.elementary_value(("a", "b"))
    girth = rep.girth(["a", "b"])
    previous = None
    for p in (5, 10, 20, 30):
        err = abs(rep.wilson_ratio("a", "b", p) - target)
        assert err < 5.0 * girth**p
        if previous is not None:
            assert err < previous
        previous = err


def test_wilson_ratio_same_eigenbasis():
    rep = Representation({"a": np.diag([2.0, 0.5]), "b": np.diag([3.0, 1 / 3.0])})
    assert rep.elementary_value(("a", "b")) == pytest.approx(1.0)
    assert rep.wilson_ratio("a", "b", 25) == pytest.approx(1.0, abs=1e-6)
    assert rep.elementary_value(("a", "a")) == pytest.approx(1.0)


def test_wilson_ratio_validates_exponent():
    rep = two_generator_rep()
    with pytest.raises(SwapAlgError):
        rep.wilson_ratio("a", "b", 0)


def test_wilson_ratio_keeps_one_table_per_word_pair():
    rep = two_generator_rep(seed=12, low=1.15, high=1.45)
    g, h = rep.element("a"), rep.element("a b")
    r = g.eigenvalues / g.eigenvalues[0]
    s = h.eigenvalues / h.eigenvalues[0]
    M = (g.left @ h.right) * (h.left @ g.right).T / np.outer(g.pairings, h.pairings)
    for p in range(1, 61):
        expected = float((r**p) @ M @ (s**p) / (np.sum(r**p) * np.sum(s**p)))
        assert rep.wilson_ratio("a", "a b", p) == expected
        assert rep.wilson_ratio((("a", 1),), (("a", 1), ("b", 1)), p) == expected
    assert len(rep._wilson_tables) == 1


def test_chi_rank_two():
    rep = two_generator_rep(seed=11)
    rng = random.Random(11)
    coords = []
    while len(coords) < 8:
        t = rng.uniform(-4, 4)
        if all(abs(t - s) > 0.2 for s in coords):
            coords.append(t)
    pts = [rep.boundary_point(t) for t in coords]
    assert abs(rep.chi(pts[:4], pts[4:])) < 1e-8
    assert abs(rep.chi(pts[:3], pts[4:7])) > 1e-4


def test_chi_single_entry_is_cross_ratio():
    rep = two_generator_rep(seed=12)
    pts = [rep.boundary_point(t) for t in (-2.0, -0.5, 0.5, 2.0)]
    X = [pts[0], pts[1]]
    x = [pts[2], pts[3]]
    expected = rep.cross_ratio(X[1], X[0], x[1], x[0])
    assert rep.chi(X, x) == pytest.approx(expected)


def test_chi_validates_tuples():
    rep = two_generator_rep()
    pts = [rep.boundary_point(t) for t in (-2.0, -0.5, 0.5, 2.0, -1.0, 1.0)]
    with pytest.raises(SwapAlgError):
        rep.chi([pts[0], pts[1], pts[1]], [pts[2], pts[3], pts[0]])
    # a base point repeated among its own tuple's entries
    with pytest.raises(SwapAlgError, match="distinct"):
        rep.chi([pts[0], pts[0], pts[1]], [pts[2], pts[3], pts[4]])
    with pytest.raises(SwapAlgError, match="distinct"):
        rep.chi([pts[0], pts[1], pts[5]], [pts[2], pts[2], pts[4]])


# -- the length-bracket cross-check ------------------------------------------------------


def test_wolpert_perpendicular_pair():
    lhs, rhs = wolpert_check(np.diag([2.0, 0.5]), [[COSH1, SINH1], [SINH1, COSH1]])
    assert abs(rhs) < 1e-9
    assert abs(lhs) < 1e-9


def test_wolpert_elementary_values_are_half():
    rep = Representation({"g": np.diag([2.0, 0.5]), "h": [[COSH1, SINH1], [SINH1, COSH1]]})
    for words in (("g", "h"), ("g'", "h"), ("g", "h'"), ("g'", "h'")):
        assert rep.elementary_value(words) == pytest.approx(0.5)


def test_wolpert_random_crossing_pairs():
    rng = random.Random(13)
    produced = 0
    while produced < 10:
        g = random_hyperbolic_sl2(rng, low=1.3)
        h = random_hyperbolic_sl2(rng, low=1.3)
        try:
            lhs, rhs = wolpert_check(g, h)
        except SwapAlgError:
            continue
        produced += 1
        assert abs(lhs - rhs) < 1e-6
        assert abs(lhs) <= 2.0 + 1e-9


def test_wolpert_rejects_disjoint_axes():
    g = np.diag([2.0, 0.5])
    shift = np.array([[1.0, 5.0], [0.0, 1.0]])
    h = shift @ np.array([[COSH1, SINH1], [SINH1, COSH1]]) @ np.linalg.inv(shift)
    with pytest.raises(SwapAlgError):
        wolpert_check(g, h)


def test_halfplane_oracle_internals():
    assert halfplane.fixed_points(np.diag([2.0, 0.5])) == (math.inf, 0.0)
    plus, minus = halfplane.fixed_points([[COSH1, SINH1], [SINH1, COSH1]])
    assert plus == pytest.approx(1.0) and minus == pytest.approx(-1.0)
    angle = halfplane.crossing_angle(
        np.diag([2.0, 0.5]), [[COSH1, SINH1], [SINH1, COSH1]]
    )
    assert angle == pytest.approx(math.pi / 2)


def test_linking_gate_matches_halfplane_geometry():
    rng = random.Random(14)
    for _ in range(30):
        g = random_hyperbolic_sl2(rng, low=1.3)
        h = random_hyperbolic_sl2(rng, low=1.3)
        rep = Representation({"g": g, "h": h})
        lk = linking_number(
            rep.fixed_point("g", +1),
            rep.fixed_point("g", -1),
            rep.fixed_point("h", +1),
            rep.fixed_point("h", -1),
        )
        crosses = True
        try:
            halfplane.crossing_angle(g, h)
        except SwapAlgError:
            crosses = False
        assert crosses == (lk != 0)


# -- the representation file format -------------------------------------------------------


def test_representation_from_text():
    rep = Representation.from_text(
        """
        n = 2
        element a  2.0 0.0   # diagonal
                   0.0 0.5
        element b  1.5430806348152437 1.1752011936438014
                   1.1752011936438014 1.5430806348152437
        """
    )
    assert rep.dimension == 2
    assert rep.width("a") == pytest.approx(math.log(4.0))


def test_representation_text_errors():
    with pytest.raises(SwapAlgError):
        Representation.from_text("element a 1 0 0 1")
    with pytest.raises(SwapAlgError):
        Representation.from_text("n = 2\nelement a 1 0 0")


@pytest.mark.parametrize("header", ["", "n", "n =", "n = x", "n = -1", "n = 0", "n = 2.0", "n = 1e400"])
def test_representation_header_needs_a_positive_integer(header):
    with pytest.raises(SwapAlgError, match=r"'n = <int>', <int> a positive integer"):
        Representation.from_text(header + "\nelement a 2 0 0 0.5\n")


def test_multi_fraction_evaluates_to_one_for_identity():
    rep = two_generator_rep(seed=15)
    pts = [rep.boundary_point(t) for t in (-2.0, -0.5, 0.5, 2.0)]
    f = multi_fraction((pts[0], pts[1]), (pts[2], pts[3]), (0, 1))
    assert rep.eval_fraction(f) == 1.0


def test_wolpert_rhs_evaluates_with_representation_universe():
    rep = two_generator_rep(seed=16)
    value = wolpert_rhs(rep, "a", "b")
    if not value.is_zero:
        assert abs(rep.eval_fraction(value)) <= 2.0 + 1e-9


def test_wilson_ratio_extreme_powers_stay_finite():
    rep = two_generator_rep(seed=20)
    import math as _math

    value = rep.wilson_ratio("a", "b", 500)
    assert _math.isfinite(value)
    assert value == pytest.approx(rep.elementary_value(("a", "b")), abs=1e-12)


def test_boundary_point_labels_keep_distinct_coordinates_apart():
    rep = two_generator_rep()
    p = rep.boundary_point(0.1)
    q = rep.boundary_point(0.1 + 1e-14)
    assert p is not q and p.position != q.position
    assert rep.boundary_point(0.1) is p


@pytest.mark.parametrize("seed", [0, 1, 8, 42])
def test_wolpert_suite_always_reports_antisymmetry(seed):
    report = run_suite("wolpert", seed=seed, count=1)
    (row,) = [row for row in report.rows if row.name == "antisymmetry"]
    assert row.passed
