import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapalg.algebra import (
    AlgebraElement,
    Monomial,
    _sum,
    generator,
    jacobiator,
    swap_bracket,
)
from swapalg.circle import PointConfig, default_cut, linking_number
from swapalg.errors import ConfigMismatchError, SwapAlgError
from swapalg.multifraction import cross_fraction, multi_fraction
from swapalg.opers import integrate, veronese_oper
from swapalg.parser import parse_expression
from swapalg.representation import Representation
from swapalg.verify import _random_config, random_hyperbolic_sl2


def test_generator_basics(grid_config):
    config, p = grid_config
    g = generator(p[0], p[1])
    assert not g.is_zero
    assert g.degrees() == {1}
    assert generator(p[0], p[0]).is_zero
    square = g * g
    ((monomial, coeff),) = square.terms()
    assert coeff == 1 and monomial.degree == 2


def test_aliased_points_give_zero_generator():
    config = PointConfig()
    a = config.point("a", Fraction(1, 5))
    b = config.point("b", Fraction(6, 5))  # same circle position
    assert generator(a, b).is_zero


def test_ring_axioms(grid_config):
    config, p = grid_config
    rng = random.Random(0)
    zero = AlgebraElement.zero(config)
    one = AlgebraElement.one(config)
    for _ in range(50):
        a = generator(p[rng.randrange(10)], p[rng.randrange(10)])
        b = generator(p[rng.randrange(10)], p[rng.randrange(10)])
        c = generator(p[rng.randrange(10)], p[rng.randrange(10)])
        assert a + zero == a
        assert a * one == a
        assert (a * b - b * a).is_zero
        assert (a + b) * c == a * c + b * c
        assert a * (b * c) == (a * b) * c
        assert Fraction(2, 3) * a == a * Fraction(2, 3)


def test_scalar_coercion_and_pow(grid_config):
    config, p = grid_config
    g = generator(p[0], p[3])
    assert g + 0 == g
    assert (g - g).is_zero
    assert g**0 == AlgebraElement.one(config)
    assert g**3 == g * g * g
    with pytest.raises(TypeError):
        g * 0.5  # floats are never exact scalars
    with pytest.raises(ValueError):
        g ** (-1)


def test_bracket_matches_generator_formula(grid_config):
    config, p = grid_config
    # interleaved chords: linking number 1
    X, x, Y, y = p[1], p[3], p[2], p[4]
    lk = linking_number(X, x, Y, y)
    assert lk == 1
    for alpha in (Fraction(0), Fraction(1), Fraction(-1, 4)):
        expected = lk * (
            generator(X, y) * generator(Y, x)
            + alpha * generator(X, x) * generator(Y, y)
        )
        assert swap_bracket(generator(X, x), generator(Y, y), alpha) == expected


def test_bracket_of_unlinked_pairs_vanishes(grid_config):
    config, p = grid_config
    assert swap_bracket(generator(p[0], p[1]), generator(p[2], p[3]), 1).is_zero


def test_self_bracket_vanishes(grid_config):
    config, p = grid_config
    g = generator(p[2], p[7])
    assert swap_bracket(g, g, Fraction(3, 5)).is_zero


def test_leibniz_square_example(grid_config):
    config, p = grid_config
    Xx = generator(p[1], p[3])
    Yy = generator(p[2], p[4])
    alpha = Fraction(1, 2)
    assert swap_bracket(Xx * Xx, Yy, alpha) == 2 * Xx * swap_bracket(Xx, Yy, alpha)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.fractions(min_value=-3, max_value=3))
def test_bracket_axioms_on_random_elements(seed, alpha):
    rng = random.Random(seed)
    config, points = _random_config(rng, 12, denominator=499)

    def element(max_terms=2, max_degree=3):
        out = AlgebraElement.zero(config)
        for _ in range(rng.randint(1, max_terms)):
            term = AlgebraElement.scalar(config, Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
            for _ in range(rng.randint(1, max_degree)):
                i, j = rng.sample(range(12), 2)
                term = term * generator(points[i], points[j])
            out = out + term
        return out

    a, b, c = element(), element(), element()
    assert (swap_bracket(a, b, alpha) + swap_bracket(b, a, alpha)).is_zero
    assert swap_bracket(a * b, c, alpha) == a * swap_bracket(b, c, alpha) + b * swap_bracket(a, c, alpha)


def test_jacobi_identity_random_triples():
    rng = random.Random(11)
    for _ in range(60):
        config, points = _random_config(rng, 12, denominator=499)
        picks = [rng.sample(range(12), 2) for _ in range(3)]
        a, b, c = (generator(points[i], points[j]) for i, j in picks)
        for alpha in (Fraction(0), Fraction(1), Fraction(-1, 4)):
            assert jacobiator(a, b, c, alpha).is_zero


def test_jacobi_with_shared_endpoints(grid_config):
    config, p = grid_config
    a = generator(p[1], p[5])
    b = generator(p[3], p[5])
    c = generator(p[8], p[5])
    for alpha in (Fraction(0), Fraction(1), Fraction(-1, 4)):
        assert jacobiator(a, b, c, alpha).is_zero
    assert jacobiator(a, a, b, Fraction(2)).is_zero


def test_degree_bookkeeping(grid_config):
    config, p = grid_config
    a = generator(p[1], p[3]) * generator(p[2], p[6])  # degree 2
    b = generator(p[4], p[8])  # degree 1
    bracket = swap_bracket(a, b, Fraction(1, 3))
    assert not bracket.is_zero
    assert bracket.degrees() == {3}


def test_config_mixing_rejected():
    c1, c2 = PointConfig(), PointConfig()
    a = generator(c1.point("a", Fraction(0)), c1.point("b", Fraction(1, 2)))
    b = generator(c2.point("a", Fraction(0)), c2.point("b", Fraction(1, 2)))
    with pytest.raises(ConfigMismatchError):
        a + b
    with pytest.raises(ConfigMismatchError):
        a * b
    with pytest.raises(ConfigMismatchError):
        swap_bracket(a, b)
    # an element's monomials are over its own configuration
    with pytest.raises(ConfigMismatchError):
        AlgebraElement.from_monomial(c2, a.monomials()[0])
    with pytest.raises(ConfigMismatchError):
        a / b
    with pytest.raises(TypeError):
        AlgebraElement(c1, {a.monomials()[0]: 1})  # no unchecked public constructor


def test_canonical_printing(grid_config):
    config, p = grid_config
    expr = generator(p[0], p[1]) * generator(p[2], p[3]) - Fraction(1, 2) * generator(p[4], p[5])
    text = repr(expr)
    assert "[p0 p1]" in text and "1/2" in text
    assert repr(AlgebraElement.zero(config)) == "0"


def test_monomial_ordering_is_syntactic(grid_config):
    config, p = grid_config
    a = generator(p[0], p[1]) * generator(p[2], p[3])
    b = generator(p[2], p[3]) * generator(p[0], p[1])
    assert a == b
    ((ma, _),) = a.terms()
    ((mb, _),) = b.terms()
    assert ma.pairs == mb.pairs


def test_generator_pairs_are_tuples_of_identity_equal_points():
    c1, c2 = PointConfig(), PointConfig()
    X, x = c1.point("X", Fraction(1, 7)), c1.point("x", Fraction(3, 7))
    Y, y = c2.point("X", Fraction(1, 7)), c2.point("x", Fraction(3, 7))
    ((p, _),) = Monomial([(X, x)])
    ((q, _),) = generator(X, x).monomials()[0]
    assert p == q and hash(p) == hash(q)
    assert type(p) is tuple and type(q) is tuple
    X0, x0 = p
    assert X0 is X and x0 is x and (X0.position, x0.position) == (Fraction(1, 7), Fraction(3, 7))
    assert p != (x, X)
    # same positions, different configurations: different points, different pairs
    assert p != (Y, y)
    assert Monomial([p]) != Monomial([(Y, y)])
    # Monomial(pairs) is the public way in for caller-made pairs, and checks them
    with pytest.raises(SwapAlgError):
        Monomial([(X, X)])
    with pytest.raises(ConfigMismatchError):
        Monomial([(X, y)])
    with pytest.raises(ConfigMismatchError):
        AlgebraElement.from_monomial(c1, Monomial([(Y, y)]))


def test_pairs_read_out_are_plain_tuples_and_fractions_print_as_before(grid_config):
    config, p = grid_config
    f = cross_fraction(p[0], p[2], p[1], p[3])
    f = f + Fraction(2, 3) * cross_fraction(p[4], p[6], p[5], p[7]) - generator(p[8], p[9])
    read = [q for m, _ in f.terms() for q, _ in m]
    read += [q for m in f.monomials() for q, _ in m]
    read += list(f.denominator.pairs)
    assert len(read) > 8
    for q in read:
        assert type(q) is tuple and len(q) == 2
        X, x = q
        assert X is not x and X.config is config and x.config is config
    text = repr(f)
    assert text == (
        "([p0 p1]*[p2 p3]*[p4 p7]*[p6 p5] + 2/3 [p0 p3]*[p2 p1]*[p4 p5]*[p6 p7]"
        " - [p0 p3]*[p2 p1]*[p4 p7]*[p6 p5]*[p8 p9]) / ([p0 p3]*[p2 p1]*[p4 p7]*[p6 p5])"
    )
    assert parse_expression(text, config) == f
    assert repr(f.denominator) == "[p0 p3]*[p2 p1]*[p4 p7]*[p6 p5]"
    assert repr(cross_fraction(p[0], p[2], p[1], p[3]).denominator.inverse()) == "[p0 p3]^-1*[p2 p1]^-1"


def _shuffled_elements(points, rng):
    """A multi fraction, a sum of two cross fractions over 8 points and their
    bracket, with every product and sum taken in an order drawn from rng."""
    X, x, sigma = points[:4], points[4:], (2, 0, 3, 1)
    order = rng.sample(range(4), 4)
    mf = multi_fraction(
        [X[i] for i in order], [x[i] for i in order], [order.index(sigma[i]) for i in order]
    )

    def cross(A, B, a, b):
        num = [generator(A, a), generator(B, b)]
        den = [generator(B, a), generator(A, b)]
        rng.shuffle(num)
        rng.shuffle(den)
        return num[0] * num[1] / (den[0] * den[1])

    summands = [cross(*points[:4]), cross(*points[4:])]
    rng.shuffle(summands)
    total = summands[0] + summands[1]
    return mf, total, swap_bracket(mf, total, Fraction(1, 3))


def test_elements_do_not_depend_on_insertion_order():
    config = PointConfig()
    positions = [3, 50, 11, 71, 29, 88, 40, 62]
    points = [config.point(f"p{i}", Fraction(k, 97)) for i, k in enumerate(positions)]
    pair_value = lambda A, a: 1.0 + float(A.position) + 3.0 * float(a.position) ** 2
    built = [_shuffled_elements(points, random.Random(seed)) for seed in range(6)]
    for first, other in zip(built, built[1:]):
        for a, b in zip(first, other):
            assert a == b and hash(a) == hash(b)
            assert repr(a) == repr(b)
            assert repr(a.terms()) == repr(b.terms()) and a.terms() == b.terms()
            assert a.evaluate(pair_value) == b.evaluate(pair_value)
    assert not built[0][2].is_zero


def _reference_bracket(a, b, alpha):
    """Sum of e_p f_q (m1/p)(m2/q){p, q} over the powers of each pair of
    terms, in ring operations, with `Fraction` linking numbers from the cut
    route."""
    config = a.config
    out = AlgebraElement.zero(config)
    for m1, c1 in a.terms():
        for m2, c2 in b.terms():
            rest = AlgebraElement.from_monomial(config, m1 * m2, c1 * c2)
            for (X, x), e in m1:
                for (Y, y), f in m2:
                    cut = default_cut(pt.position for pt in (X, x, Y, y))
                    lk = linking_number(X, x, Y, y, cut=cut)
                    Xx, Yy = generator(X, x), generator(Y, y)
                    pq = lk * (generator(X, y) * generator(Y, x) + alpha * Xx * Yy)
                    out = out + e * f * rest / (Xx * Yy) * pq
    return out


def _laurent(rng, points, denominators=(1, 2, 3, 5)):
    """A random Laurent element of two or three terms, of degree up to 3 in
    pairs with exponents +-1, +-2, and coefficients over `denominators`."""
    out = AlgebraElement.zero(points[0].config)
    for _ in range(rng.randint(2, 3)):
        term = AlgebraElement.scalar(
            points[0].config, Fraction(rng.choice([-5, -3, -2, 2, 3, 7]), rng.choice(denominators))
        )
        for _ in range(rng.randint(1, 3)):
            X, x = rng.sample(points, 2)
            g = generator(X, x)
            e = rng.choice([-2, -1, 1, 2])
            term = term * (g**e if e > 0 else g.inverse() ** -e)
        out = out + term
    return out


def test_bracket_matches_reference_leibniz_expansion():
    rng = random.Random(21)
    nonzero = 0
    for _ in range(20):
        config, points = _random_config(rng, 7, denominator=101)
        a, b = _laurent(rng, points), _laurent(rng, points)
        for alpha in (Fraction(0), Fraction(1), Fraction(-1, 4)):
            bracket = swap_bracket(a, b, alpha)
            assert bracket == _reference_bracket(a, b, alpha)
            nonzero += not bracket.is_zero
    assert nonzero > 30


def _assert_normal_form(element):
    """Nonzero integer numerators over a positive integer denominator, with
    gcd 1 over the numerators and the denominator."""
    den = element._denominator
    assert type(den) is int and den > 0
    assert all(type(n) is int and n != 0 for n in element._numerators.values())
    assert gcd(den, *element._numerators.values()) == 1


def test_bracket_over_coprime_denominators():
    """Coefficient denominators coprime across the operands, alpha
    denominators coprime to 2 and to them: the one common denominator of
    the integer accumulation must carry every factor.  Results are stored
    in normal form (nonzero integer numerators over a positive denominator,
    gcd 1 over them all), and {a, a} = {a, -a} = 0 cancels every
    accumulated sum."""
    rng = random.Random(8)
    nonzero = 0
    for _ in range(12):
        config, points = _random_config(rng, 7, denominator=101)
        a = _laurent(rng, points, denominators=(3, 7))
        b = _laurent(rng, points, denominators=(5, 11))
        for alpha in (Fraction(5, 3), Fraction(-7, 6), Fraction(4, 13)):
            bracket = swap_bracket(a, b, alpha)
            assert bracket == _reference_bracket(a, b, alpha)
            _assert_normal_form(bracket)
            nonzero += not bracket.is_zero
            for x in (a, b):
                for zero in (swap_bracket(x, x, alpha), swap_bracket(x, -x, alpha)):
                    assert zero._numerators == {} and zero._denominator == 1
    assert nonzero > 20


def test_synthetic_order_is_refused_only_where_linking_is_needed():
    config = PointConfig()
    X, x = config.point("X", Fraction(1, 5)), config.point("x", Fraction(3, 5))
    Y, y = config.point("Y", Fraction(2, 5)), config.synthetic_point("y")
    Xx, Yy = generator(X, x), generator(Y, y)
    with pytest.raises(SwapAlgError, match="synthetic"):
        swap_bracket(Xx, Yy)
    with pytest.raises(SwapAlgError, match="synthetic"):
        swap_bracket(Xx + 2, Yy, 1)
    three = AlgebraElement.scalar(config, 3)
    assert swap_bracket(three, Yy, 1).is_zero
    assert swap_bracket(Xx, three).is_zero
    assert swap_bracket(three, AlgebraElement.zero(config)).is_zero


# -- the integer form against a `Fraction` reference model --------------------

ALPHAS = (Fraction(0), Fraction(1), Fraction(-1, 4), Fraction(5, 3))


def _model(element):
    """The element as the map {monomial: Fraction coefficient} it denotes."""
    return dict(element.terms())


def _model_add(A, B, sign=1):
    out = dict(A)
    for m, c in B.items():
        out[m] = out.get(m, 0) + sign * c
    return {m: c for m, c in out.items() if c}


def _model_mul(A, B):
    out = {}
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            out[m1 * m2] = out.get(m1 * m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def _model_bracket(A, B, alpha):
    """e_p f_q c1 c2 [p, q] (m1 m2 Xy.Yx / (p q) + alpha m1 m2) over every
    pair of terms and every pair of their powers, with `Fraction` linking
    numbers from the cut route."""
    out, linking = {}, {}
    for m1, c1 in A.items():
        for m2, c2 in B.items():
            for p, e in m1:
                for q, f in m2:
                    (X, x), (Y, y) = p, q
                    if (p, q) not in linking:
                        cut = default_cut(pt.position for pt in (X, x, Y, y))
                        linking[p, q] = linking_number(X, x, Y, y, cut=cut)
                    weight = e * f * c1 * c2 * linking[p, q]
                    if not weight:
                        continue
                    product = m1 * m2
                    out[product] = out.get(product, 0) + alpha * weight
                    if X is not y and Y is not x:
                        swapped = product._times(
                            (((X, y), 1), ((Y, x), 1), (p, -1), (q, -1))
                        )
                        out[swapped] = out.get(swapped, 0) + weight
    return {m: c for m, c in out.items() if c}


def _model_fraction(A):
    """(numerator terms, denominator monomial, |content|) of the reduced
    fraction: the denominator clears the lowest exponent of every pair, and
    the content is the gcd of the coefficients' numerators over the lcm of
    their denominators."""
    lowest = {}
    for m in A:
        for p, e in m:
            lowest[p] = min(lowest.get(p, 0), e)
    denominator = Monomial._from_exponents({p: -e for p, e in lowest.items()})
    num, den = 0, 1
    for c in A.values():
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    return {m * denominator: c for m, c in A.items()}, denominator, Fraction(num, den)


def _check_read_out(element, A):
    numer, denominator, content = _model_fraction(A)
    scale = element.scale
    assert element.denominator == denominator
    assert abs(scale) == content
    if A:
        assert _model(element.numerator) == {m: c / scale for m, c in numer.items()}
        assert element.numerator.terms()[0][1] > 0  # the content is signed like the leading term
    else:
        assert element.numerator.is_zero and element.scale == 0


@pytest.mark.parametrize("alpha", ALPHAS, ids=str)
def test_integer_form_matches_fraction_reference_model(alpha):
    """Ring operations, read-out and the bracket agree with the same
    operations on {monomial: Fraction} maps: Laurent elements with coprime
    coefficient denominators, and squares and quotients of cross fractions
    (exponents beyond +-1)."""
    rng = random.Random(f"reference-model:{alpha}")
    nonzero = 0
    for _ in range(3):
        config, points = _random_config(rng, 7, denominator=101)
        f, g = cross_fraction(*rng.sample(points, 4)), cross_fraction(*rng.sample(points, 4))
        elements = [
            _laurent(rng, points, denominators=(3, 7)),
            _laurent(rng, points, denominators=(5, 11)),
            f * f,
            Fraction(-2, 3) * f / g,
            Fraction(3, 4) * f * f / g - Fraction(2, 9) * g,
        ]
        s = Fraction(rng.choice([-9, -2, 1, 4]), rng.choice([1, 2, 9, 13]))
        for a in elements:
            A = _model(a)
            _assert_normal_form(a)
            _check_read_out(a, A)
            assert _model(s * a) == {m: s * c for m, c in A.items()} and (a * 0).is_zero
            if len(A) == 1:
                ((m, c),) = A.items()
                _assert_normal_form(a.inverse())
                assert _model(a.inverse()) == {m.inverse(): 1 / c}
            for b in elements:
                B = _model(b)
                for result, expected in (
                    (a + b, _model_add(A, B)),
                    (a - b, _model_add(A, B, -1)),
                    (a * b, _model_mul(A, B)),
                    (swap_bracket(a, b, alpha), _model_bracket(A, B, alpha)),
                ):
                    _assert_normal_form(result)
                    assert _model(result) == expected
                _check_read_out(result, expected)
                nonzero += bool(expected)
                assert (a == b) == (A == B)
                same = (a + b) - b
                assert same == a and hash(same) == hash(a)
    assert nonzero > 40


def test_n_ary_sum_matches_fraction_reference_model():
    """`_sum` adds any number of elements at once: over coprime coefficient
    denominators, to a sum that cancels to zero, and the empty sum; the
    result is in normal form and equals the `Fraction` model's sum."""
    rng = random.Random("n-ary-sum")
    config, points = _random_config(rng, 7, denominator=101)
    f = cross_fraction(*rng.sample(points, 4))
    for denominators in ((3,), (5,), (7, 11), (2, 9, 13)):
        elements = [_laurent(rng, points, denominators) for _ in range(rng.randint(2, 6))]
        elements.append(Fraction(-2, 17) * f / generator(*rng.sample(points, 2)))
        expected = {}
        for a in elements:
            expected = _model_add(expected, _model(a))
        total = _sum(config, elements)
        _assert_normal_form(total)
        assert _model(total) == expected
        cancelled = _sum(config, elements + [-a for a in reversed(elements)])
        assert cancelled.is_zero and cancelled._denominator == 1
    empty = _sum(config, [])
    assert empty == AlgebraElement.zero(config) and empty._denominator == 1
    other, other_points = _random_config(rng, 4)
    with pytest.raises(ConfigMismatchError):
        _sum(config, [f, generator(*other_points[:2])])
    with pytest.raises(ConfigMismatchError):
        _sum(other, [f])


def test_jacobiator_sums_its_brackets_once(monkeypatch):
    rng = random.Random("jacobiator-sum")
    config, points = _random_config(rng, 8)
    a, b, c = (cross_fraction(*rng.sample(points, 4)) for _ in range(3))
    added = []
    real_add = AlgebraElement.__add__
    monkeypatch.setattr(AlgebraElement, "__add__", lambda x, y: added.append(1) or real_add(x, y))
    assert jacobiator(a, b, c, Fraction(1, 3)).is_zero
    assert not added


def _canonical_order(term):
    """Sort key of a polynomial term: degree, then its pairs' order keys."""
    pairs = sorted((X.order_key, x.order_key) for (X, x), e in term[0] for _ in range(e))
    return len(pairs), pairs


def _fraction_evaluate(element, pair_value):
    """`evaluate` with `Fraction` coefficients: each numerator term's
    coefficient c as float(c / content), summed in canonical order, times
    float(content) over the denominator's value."""
    if element.is_zero:
        return 0.0
    denominator = element.denominator
    terms = sorted(((m * denominator, c) for m, c in element.terms()), key=_canonical_order)
    num, den = 0, 1
    for _, c in terms:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den) if terms[0][1] > 0 else -Fraction(num, den)
    value = 1.0
    for p in denominator.pairs:
        value *= pair_value(*p)
    total = 0.0
    for m, c in terms:
        v = float(c / content)
        for p in m.pairs:
            v *= pair_value(*p)
        total += v
    return float(content) * total / value


def _balanced_elements(rng, points, count):
    """Cross fractions, their brackets, squares and quotients, and rational
    combinations of them: balanced elements with contents other than 1."""
    out = []
    for _ in range(count):
        f, g = cross_fraction(*rng.sample(points, 4)), cross_fraction(*rng.sample(points, 4))
        c = Fraction(rng.choice([-7, -2, 3, 5]), rng.choice([1, 3, 4, 9]))
        out += [f, swap_bracket(f, g), f * f / g + c * g, c * swap_bracket(f * g, g, Fraction(1, 3))]
    return out


def test_evaluate_matches_the_fraction_formula_bit_for_bit():
    rng = random.Random(5)
    rep = Representation(
        {"a": random_hyperbolic_sl2(rng, low=1.3), "b": random_hyperbolic_sl2(rng, low=1.3)}
    )
    rep_points = [rep.fixed_point(w, s) for w in ("a", "b", "a b", "a b'") for s in (1, -1)]
    sol = integrate(veronese_oper(2), 512)
    sol_points = [sol.point(Fraction(j, 512)) for j in rng.sample(range(512), 8)]
    checked = 0
    for universe, points in ((rep, rep_points), (sol, sol_points)):
        for element in _balanced_elements(rng, points, 20):
            value = element.evaluate(universe.pair_value)
            assert value.hex() == _fraction_evaluate(element, universe.pair_value).hex()
            checked += not element.is_zero and element.scale != 1
    assert checked > 40


def test_evaluate_values_each_distinct_pair_once():
    # a cross fraction has four distinct pairs, each once; an alpha = 0
    # bracket of two cross fractions repeats pairs across its terms and in
    # its denominator, and still takes one value per distinct pair
    rng = random.Random(8)
    sol = integrate(veronese_oper(2), 512)
    points = [sol.point(Fraction(j, 512)) for j in rng.sample(range(512), 8)]
    calls = []

    def counted(X, x):
        calls.append((X, x))
        return sol.pair_value(X, x)

    cf0, cf1 = cross_fraction(*points[:4]), cross_fraction(*points[4:])
    for element in (cf0, swap_bracket(cf0, cf1, 0)):
        occurrences = list(element.denominator.pairs)
        for monomial, _ in element.numerator.terms():
            occurrences += monomial.pairs
        calls.clear()
        value = element.evaluate(counted)
        assert sorted(calls, key=repr) == sorted(set(occurrences), key=repr)
        assert value.hex() == element.evaluate(sol.pair_value).hex()
    assert len(occurrences) > len(set(occurrences))  # the bracket repeats pairs


def _reference_read_out(element):
    """`terms()` and `repr` as the fraction model and a sort on
    `_canonical_order` give them."""
    numer, denominator, _ = _model_fraction(_model(element))
    ordered = sorted(numer.items(), key=_canonical_order)
    terms = [(m * denominator.inverse(), c) for m, c in ordered]
    if not ordered:
        return terms, "0"
    parts = []
    for m, c in ordered:
        if m.degree == 0:
            parts.append(str(c))
        elif c in (1, -1):
            parts.append(f"{'-' if c < 0 else ''}{m!r}")
        else:
            parts.append(f"{c} {m!r}")
    text = " + ".join(parts).replace("+ -", "- ")
    if denominator.degree == 0:
        return terms, text
    if len(ordered) > 1 or ordered[0][1] != 1:
        text = f"({text})"
    den = repr(denominator)
    return terms, f"{text} / ({den})" if denominator.degree > 1 else f"{text} / {den}"


def test_ranked_read_out_matches_the_canonical_order_reference():
    rng = random.Random(22)
    seen = {"squared": 0, "scalar": 0, "den_degree_2": 0, "negative_lead": 0}
    for _ in range(40):
        config, points = _random_config(rng, 6, denominator=101)
        a, b = _laurent(rng, points), _laurent(rng, points)
        f = cross_fraction(*rng.sample(points, 4))
        for element in (a, b, a * b - 3, Fraction(-2, 7) * f * f + Fraction(5, 3), swap_bracket(f, a, 0), -a):
            terms, text = _reference_read_out(element)
            assert element.terms() == terms
            assert repr(element) == text
            assert parse_expression(text, config) == element
            seen["squared"] += any(e == 2 for m, _ in element.numerator.terms() for _, e in m)
            seen["scalar"] += any(m.degree == 0 for m, _ in element.numerator.terms())
            seen["den_degree_2"] += element.denominator.degree >= 2
            seen["negative_lead"] += text.lstrip("(").startswith("-")
    assert min(seen.values()) > 10, seen
