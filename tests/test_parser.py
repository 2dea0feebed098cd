from fractions import Fraction

import pytest

from swapalg.algebra import AlgebraElement, generator
from swapalg.circle import PointConfig
from swapalg.errors import ParseError, SwapAlgError
from swapalg.multifraction import (
    BalancedFraction,
    SymbolicWords,
    cross_fraction,
    elementary,
    fraction_bracket,
    multi_fraction,
    wolpert_rhs,
)
from swapalg.parser import parse_expression


@pytest.fixture
def config():
    config = PointConfig()
    for i, label in enumerate(["X", "Y", "Z", "W", "x", "y", "u", "v"]):
        config.point(label, Fraction(2 * i + 1, 16))
    return config


@pytest.fixture
def words():
    table = SymbolicWords()
    table.register("a", Fraction(1, 8), Fraction(5, 8))
    table.register("b", Fraction(3, 8), Fraction(7, 8))
    table.register("c", Fraction(1, 16), Fraction(9, 16))
    return table


def test_sum_of_products(config):
    value = parse_expression("[X x] * [Y y] + 1/2 [X y] * [Y x]", config)
    expected = generator(config["X"], config["x"]) * generator(
        config["Y"], config["y"]
    ) + Fraction(1, 2) * generator(config["X"], config["y"]) * generator(
        config["Y"], config["x"]
    )
    assert value == expected
    assert value.degrees() == {2}


def test_degenerate_generator_is_zero(config):
    assert parse_expression("[X X]", config).is_zero


def test_whitespace_and_adjacency(config):
    a = parse_expression("2[Xx][Yy]".replace("Xx", "X x").replace("Yy", "Y y"), config)
    b = parse_expression("2 * [X x] * [Y y]", config)
    assert a == b


def test_unary_minus_and_subtraction(config):
    value = parse_expression("-[X x] + [X x] - 0", config)
    assert value.is_zero


def test_scalar_only_expression(config):
    value = parse_expression("3/4 + 1/4", config)
    assert isinstance(value, AlgebraElement)
    assert value == AlgebraElement.scalar(config, 1)


def test_cross_call(config):
    got = parse_expression("cross(X, Y, x, y)", config)
    assert got == cross_fraction(config["X"], config["Y"], config["x"], config["y"])


def test_mf_call_with_cycles(config):
    got = parse_expression("mf(X Y | x y | (1 2))", config)
    want = multi_fraction((config["X"], config["Y"]), (config["x"], config["y"]), (1, 0))
    assert got == want
    assert parse_expression("mf(X Y | x y | id)", config) == 1


def test_elem_and_wolpert_calls(words):
    got = parse_expression("elem(a, b) * elem(b, a)", universe=words)
    want = elementary(words, ("a", "b")) * elementary(words, ("b", "a"))
    assert got == want
    power_word = parse_expression("elem(a a, b)", universe=words)
    assert power_word == elementary(words, ("a", "b"))
    assert parse_expression("wolpert(a, b)", universe=words) == wolpert_rhs(
        words, "a", "b"
    )


def test_division_forms(config):
    f = parse_expression("cross(X,Y,x,y) / cross(Z,W,u,v)", config)
    g = parse_expression("cross(X,Y,x,y) * cross(W,Z,u,v)", config)
    # [Z;W;u;v] inverts under swapping the first two labels
    assert f == g


def test_fraction_roundtrip(config):
    f = cross_fraction(config["X"], config["Y"], config["x"], config["y"])
    g = cross_fraction(config["Z"], config["W"], config["u"], config["v"])
    bracket = fraction_bracket(f, g, 1)
    assert parse_expression(repr(bracket), config) == bracket
    assert parse_expression(repr(f * g + 2), config) == f * g + 2


def test_element_roundtrip(config):
    expr = parse_expression("[X x]*[Y y] - 5/3 [Z u] + 7", config)
    assert parse_expression(repr(expr), config) == expr


def test_unknown_label_reports_position(config):
    with pytest.raises(ParseError) as err:
        parse_expression("[X q]", config)
    assert "unknown label 'q'" in str(err.value)
    assert err.value.column == 4


def test_syntax_errors(config):
    with pytest.raises(ParseError, match="end of input"):
        parse_expression("[X x] +", config)
    with pytest.raises(ParseError):
        parse_expression("cross(X, Y, x", config)
    with pytest.raises(ParseError, match="bare label"):
        parse_expression("X + 1", config)
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expression("[X x] @ [Y y]", config)
    with pytest.raises(ParseError, match="trailing"):
        parse_expression("1 )", config)


def test_word_calls_need_universe(config):
    with pytest.raises(ParseError, match="word calls"):
        parse_expression("elem(a, b)", config)


def test_degenerate_cross_reported_as_parse_error(config):
    with pytest.raises(ParseError, match="degenerate denominator"):
        parse_expression("cross(X, Y, Y, x)", config)


def test_bad_cycle_entries(config):
    with pytest.raises(ParseError, match="bad cycle entry"):
        parse_expression("mf(X Y | x y | (1 3))", config)
    with pytest.raises(ParseError, match="cycle"):
        parse_expression("mf(X Y | x y | nonsense)", config)


def test_requires_some_config():
    with pytest.raises(SwapAlgError):
        parse_expression("[X x]")


def test_pbeta_through_representation():
    import numpy as np

    from swapalg.representation import Representation

    rep = Representation({"a": np.diag([3.0, 1 / 3.0]), "b": [[2.0, 1.0], [1.0, 1.0]]})
    value = parse_expression("pbeta(a, b+)", universe=rep)
    assert isinstance(value, BalancedFraction)
    # p_a(y) evaluates to the squared extreme eigenvalue ratio
    import math

    assert math.log(rep.eval_fraction(value)) == pytest.approx(2 * rep.width("a"), abs=1e-9)


@pytest.mark.parametrize(
    "text, column",
    [("1/0", 1), ("[X x] / 0", 7), ("[X x] / (1 - 1)", 7)],
)
def test_division_by_zero_is_a_parse_error(config, text, column):
    with pytest.raises(ParseError, match="division by zero") as err:
        parse_expression(text, config)
    assert (err.value.line, err.value.column) == (1, column)


def test_nesting_depth_is_bounded(config):
    one = AlgebraElement.scalar(config, 1)
    assert parse_expression("(" * 100 + "1" + ")" * 100, config) == one
    assert parse_expression("-" * 100 + "1", config) == one
    for text in ("(" * 3000 + "1" + ")" * 3000, "-" * 3000 + "1", "(-" * 1500 + "1"):
        with pytest.raises(ParseError, match="nesting deeper") as err:
            parse_expression(text, config)
        assert (err.value.line, err.value.column) == (1, 201)
