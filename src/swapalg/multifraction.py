"""Fractions with monomial denominators: cross and multi fractions.

Every object of interest here (cross fractions, multi fractions,
elementary functions, and their brackets) is a polynomial numerator over a
coefficient-one monomial denominator, that is, a Laurent polynomial in the
pair generators.  They are ordinary `AlgebraElement` values, compared
syntactically and bracketed by `swap_bracket`.  Cross fractions, multi
fractions, elementary functions and length cross fractions are each a
single Laurent monomial, a product of pairs over a product of pairs; each
constructor checks its own input and names its pairs, and `algebra` builds
the monomial.  The reduced form (common pairs cancelled, content pulled
out as the scale and signed like the leading numerator term) is a view of
every element.

A *cross fraction* is [X; Y; x; y] = Xx.Yy / (Yx.Xy), and a *multi
fraction* is a ratio prod X_i x_{sigma(i)} / prod X_i x_i for a permutation
sigma.  The span of multi fractions is closed under the swapping bracket,
and on it the bracket does not depend on the parameter alpha.

Group-element labels enter through *fixed points*: a word g contributes two
circle points g+ and g-, and elementary functions of tuples of words are
particular multi fractions built from those points.  Positions of such
points are supplied by an evaluation backend (a representation), or
assigned explicitly when working purely symbolically; the bracket only ever
consumes their cyclic order, and `linking_number` refuses points whose order
is synthetic.
"""

from __future__ import annotations

import numpy as np

from .algebra import (
    AlgebraElement,
    _pair_fraction,
    is_balanced,  # re-exported: a property of fractions
    swap_bracket,
)
from .circle import CirclePoint, PointConfig, ensure_same_config, linking_number
from .errors import DegenerateFractionError, EvaluationError, SwapAlgError
from .words import Word, canonical_class, invert_word, parse_word, word_text


# -- cross and multi fractions ---------------------------------------------


def cross_fraction(X: CirclePoint, Y: CirclePoint, x: CirclePoint, y: CirclePoint) -> AlgebraElement:
    """[X; Y; x; y] = Xx.Yy / (Yx.Xy)."""
    return _pair_fraction(((X, x), (Y, y)), ((Y, x), (X, y)))


def multi_fraction(X, x, sigma) -> AlgebraElement:
    """prod X_i x_{sigma(i)} / prod X_i x_i for a permutation sigma.

    `sigma` maps indices 0..n-1 to indices 0..n-1.  The identity gives 1;
    a vanishing numerator (some X_i = x_{sigma(i)}) gives the zero fraction.
    """
    X, x, sigma = tuple(X), tuple(x), tuple(sigma)
    if len(X) != len(x):
        raise SwapAlgError("tuples must have equal length")
    if sorted(sigma) != list(range(len(X))):
        raise SwapAlgError(f"not a permutation of 0..{len(X) - 1}: {sigma}")
    return _pair_fraction(zip(X, (x[s] for s in sigma)), zip(X, x))


# The bracket acts on Laurent monomials directly, so fractions need no
# quotient rule.
fraction_bracket = swap_bracket


# -- fixed points of group words --------------------------------------------


class SymbolicWords:
    """Fixed points for opaque group labels at prescribed circle positions.

    A purely symbolic stand-in for an evaluation backend: each base label g
    is registered with explicit positions for g+ and g-.  Powers share the
    base label's fixed points and inverses swap them.  Images under the
    group action must be declared explicitly (`declare_image`), since no
    geometry is available to place them.
    """

    def __init__(self):
        self.config = PointConfig()
        self._images: dict[tuple[Word, CirclePoint], CirclePoint] = {}

    def register(self, label: str, plus_position, minus_position) -> None:
        self.config.point(f"{label}+", plus_position)
        self.config.point(f"{label}-", minus_position)

    def fixed_point(self, word, sign: int) -> CirclePoint:
        word = parse_word(word)
        root, sign = canonical_class(word, sign)
        if len(root) != 1:
            raise SwapAlgError(
                f"no declared fixed points for composite word {word_text(word)!r}"
            )
        return self.config[word_text(root) + ("+" if sign > 0 else "-")]

    def declare_image(self, word, point: CirclePoint, position) -> CirclePoint:
        word = parse_word(word)
        image = self.config.point(
            f"{word_text(word)}({point.label})", position
        )
        self._images[(word, point)] = image
        return image

    def act(self, word, point: CirclePoint) -> CirclePoint:
        word = parse_word(word)
        try:
            return self._images[(word, point)]
        except KeyError:
            raise SwapAlgError(
                f"image of {point.label!r} under {word_text(word)!r} was not declared"
            ) from None


def _class_points(universe, word) -> tuple[CirclePoint, CirclePoint]:
    word = parse_word(word)
    return universe.fixed_point(word, +1), universe.fixed_point(word, -1)


def elementary(universe, words) -> AlgebraElement:
    """Elementary function of a tuple of words:

        T(g_1, ..., g_p) = prod g_{i+1}+ g_i-  /  prod g_i+ g_i-,

    with cyclic index convention p+1 = 1.  Cyclically invariant, equal to
    its truncation when consecutive words share fixed points, and zero when
    consecutive words are inverse to each other.
    """
    points = [_class_points(universe, w) for w in words]
    tops = [(plus, minus) for (plus, _), (_, minus) in zip(points[1:] + points[:1], points)]
    return _pair_fraction(tops, points)


def elementary_bracket_closed_form(universe, gwords, hwords) -> AlgebraElement:
    """Closed form for the bracket of two elementary functions.

    With a_{ij} = [g_i+ g_i-, h_j+ h_j-], b_{ij} = [g_{i+1}+ g_i-, h_{j+1}+ h_j-],
    c_{ij} = [g_i+ g_i-, h_{j+1}+ h_j-], d_{ij} = [g_{i+1}+ g_i-, h_j+ h_j-]:

        {T_g, T_h} / (T_g T_h) =
            sum_{i,j}  a_{ij} T(g_i, h_j)
                     + b_{ij} T(h_{j+1}, h_j, g_{i+1}, g_i)
                              / (T(h_j, h_{j+1}) T(g_i, g_{i+1}))
                     - c_{ij} T(g_i, h_{j+1}, h_j) / T(h_j, h_{j+1})
                     - d_{ij} T(h_j, g_{i+1}, g_i) / T(g_i, g_{i+1}).

    The right-hand side is assembled and multiplied back by T_g T_h, so the
    return value equals `fraction_bracket(elementary(g), elementary(h))`
    exactly, for every alpha.  Consecutive words in each tuple must have
    disjoint fixed-point sets (the logarithmic-derivative expansion divides
    by the order-two elementary functions of consecutive words).
    """
    g_pts = [_class_points(universe, w) for w in gwords]
    h_pts = [_class_points(universe, w) for w in hwords]
    config = ensure_same_config(*(p for pair in g_pts + h_pts for p in pair))
    for pts in (g_pts, h_pts):
        for i in range(len(pts)):
            here = set(pts[i])
            there = set(pts[(i + 1) % len(pts)])
            if len(pts) > 1 and here & there:
                raise SwapAlgError("consecutive words must have disjoint fixed points")
    p, q = len(gwords), len(hwords)
    gw = list(gwords)
    hw = list(hwords)
    lk = linking_number
    total = AlgebraElement.zero(config)
    for i in range(p):
        gi_p, gi_m = g_pts[i]
        gn_p, _ = g_pts[(i + 1) % p]
        t_gg = elementary(universe, (gw[i], gw[(i + 1) % p]))  # T(g, g) = 1 when p = 1
        for j in range(q):
            hj_p, hj_m = h_pts[j]
            hn_p, _ = h_pts[(j + 1) % q]
            t_hh = elementary(universe, (hw[j], hw[(j + 1) % q]))
            a = lk(gi_p, gi_m, hj_p, hj_m)
            b = lk(gn_p, gi_m, hn_p, hj_m)
            c = lk(gi_p, gi_m, hn_p, hj_m)
            d = lk(gn_p, gi_m, hj_p, hj_m)
            if a != 0:
                total = total + a * elementary(universe, (gw[i], hw[j]))
            if b != 0:
                term = elementary(universe, (hw[(j + 1) % q], hw[j], gw[(i + 1) % p], gw[i]))
                total = total + b * term / t_hh / t_gg
            if c != 0:
                term = elementary(universe, (gw[i], hw[(j + 1) % q], hw[j]))
                total = total - c * term / t_hh
            if d != 0:
                term = elementary(universe, (hw[j], gw[(i + 1) % p], gw[i]))
                total = total - d * term / t_gg
    return total * elementary(universe, gwords) * elementary(universe, hwords)


def birelem_identity(universe, a, b, c, d) -> tuple[AlgebraElement, AlgebraElement]:
    """Both sides of  T(a,b,c) T(c,d) / (T(a,d,c) T(c,b)) = [b+; d+; a-; c-].

    The two reduced fractions are equal whenever the divisions on the left
    are defined.
    """
    lhs = (
        elementary(universe, (a, b, c))
        * elementary(universe, (c, d))
        / (elementary(universe, (a, d, c)) * elementary(universe, (c, b)))
    )
    b_plus = universe.fixed_point(parse_word(b), +1)
    d_plus = universe.fixed_point(parse_word(d), +1)
    a_minus = universe.fixed_point(parse_word(a), -1)
    c_minus = universe.fixed_point(parse_word(c), -1)
    rhs = cross_fraction(b_plus, d_plus, a_minus, c_minus)
    return lhs, rhs


def wolpert_rhs(universe, gamma, eta) -> AlgebraElement:
    """[g+ g-, h+ h-] . sum_{v,v' = +-1} v v' T(g^v, h^v').

    The alternating four-term sum of order-two elementary functions, scaled
    by the linking number of the fixed-point pairs: the bracket of the two
    length functions when the underlying curves meet exactly once.  At
    several intersection points each has its own angle, so no rescaling of
    this term gives the bracket.  Zero when the fixed-point pairs are
    unlinked; rejected when they share a point, and, by `linking_number`,
    when their order on the circle is synthetic.
    """
    gamma = parse_word(gamma)
    eta = parse_word(eta)
    g_plus, g_minus = _class_points(universe, gamma)
    h_plus, h_minus = _class_points(universe, eta)
    if {g_plus, g_minus} & {h_plus, h_minus}:
        raise DegenerateFractionError("words share a fixed point")
    lk = linking_number(g_plus, g_minus, h_plus, h_minus)
    config = g_plus.config
    if lk == 0:
        return AlgebraElement.zero(config)
    total = AlgebraElement.zero(config)
    for v, gw in ((1, gamma), (-1, invert_word(gamma))):
        for vp, hw in ((1, eta), (-1, invert_word(eta))):
            total = total + (v * vp) * elementary(universe, (gw, hw))
    return lk * total


def chi(universe, X, x) -> float:
    """det of the cross-ratio matrix [X_i; X_0; x_j; x_0], i, j >= 1.

    Vanishes for (n+2)-tuples and not for (n+1)-tuples on an
    n-dimensional representation or an order-n operator.  The values
    F[i][j] of the pairs X_i x_j are taken once, as one table, all from
    the universe (a point paired with itself is 0.0 there).  Entry (i, j)
    is F[i][j] F[0][0] / (F[0][j] F[i][0]), the value `evaluate` gives the
    cross fraction.
    """
    X, x = list(X), list(x)
    if len(X) != len(x) or len(X) < 2:
        raise SwapAlgError("need two tuples of equal length >= 2")
    p = len(X) - 1
    if len(set(X)) <= p or len(set(x)) <= p:
        raise SwapAlgError("tuple entries must be distinct")
    if x[0] in X[1:] or X[0] in x[1:]:
        raise SwapAlgError("tuple entries collide with the base points")
    F = [[universe.pair_value(Y, y) for y in x] for Y in X]
    entries = np.empty((p, p))
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            den = F[0][j] * F[i][0]
            if den == 0.0:
                raise EvaluationError("degenerate evaluation: denominator vanishes")
            entries[i - 1, j - 1] = F[i][j] * F[0][0] / den
    return float(np.linalg.det(entries))


def length_cross_fraction(universe, beta, y: CirclePoint) -> AlgebraElement:
    """p_beta(y) = (b+ b^{-1}(y) . b- b(y)) / (b+ b(y) . b- b^{-1}(y)), whose
    log is twice the length of beta."""
    beta = parse_word(beta)
    plus, minus = _class_points(universe, beta)
    if y == plus or y == minus:
        raise DegenerateFractionError("anchor coincides with a fixed point")
    fwd = universe.act(beta, y)
    back = universe.act(invert_word(beta), y)
    return _pair_fraction(((plus, back), (minus, fwd)), ((plus, fwd), (minus, back)))


def length_bracket(p: AlgebraElement, q: AlgebraElement, alpha=0) -> AlgebraElement:
    """{log p, q} = {p, q} / p, for a single-term p."""
    return fraction_bracket(p, q, alpha) / p


def length_length_bracket(p1: AlgebraElement, p2: AlgebraElement, alpha=0) -> AlgebraElement:
    """{log p1, log p2} = {p1, p2} / (p1 p2), for single-term p1 and p2."""
    return fraction_bracket(p1, p2, alpha) / (p1 * p2)
