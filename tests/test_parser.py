import random
import re
from fractions import Fraction
from math import prod

import pytest

from swapalg.algebra import AlgebraElement, generator
from swapalg.circle import PointConfig
from swapalg.errors import ParseError, SwapAlgError
from swapalg.multifraction import (
    SymbolicWords,
    cross_fraction,
    elementary,
    fraction_bracket,
    multi_fraction,
    wolpert_rhs,
)
from swapalg.parser import _error, _Parser, _run_label_offsets, _tokenize, parse_expression


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
    assert isinstance(value, AlgebraElement)
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


def test_divisor_with_several_terms_is_a_parse_error_at_the_slash(config):
    with pytest.raises(ParseError, match="only monomial fractions are invertible") as err:
        parse_expression("[X x] / ([X x] + [Y y])", config)
    assert (err.value.line, err.value.column) == (1, 7)
    with pytest.raises(ParseError, match="only monomial fractions are invertible") as err:
        parse_expression("1 +\n  2 [Y y] / (1 + [X x])", config)
    assert (err.value.line, err.value.column) == (2, 11)


# -- the tokenizer against the line-tracking reference -----------------------

_REFERENCE_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:/\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*'?(?:(?<=[A-Za-z_0-9'])[+-])?)
      | (?P<op>[\[\]\(\)\|,*/+-])
    """,
    re.VERBOSE,
)


def _reference_tokenize(text):
    """The tokenizer that tracked line and column token by token while
    matching: (kind, value, line, column) tuples, or a ParseError."""
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                line_start = m.end() - len(m.group().rsplit("\n", 1)[1])
        elif m.lastgroup == "num":
            try:
                value = Fraction(m.group())
            except ZeroDivisionError:
                raise ParseError("division by zero", line, pos - line_start + 1) from None
            tokens.append(("num", value, line, pos - line_start + 1))
        elif m.lastgroup == "ident":
            tokens.append(("ident", m.group(), line, pos - line_start + 1))
        else:
            tokens.append((m.group(), m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(("end", None, line, pos - line_start + 1))
    return tokens


_PIECES = (
    "X", "x", "Y", "ab_1", "_q", "a'", "b+", "c-", "a'+", "elem", "cross",
    "+", "-", "3", "12/5", "007", "7/0", "0/0", "1/", "٣",
    "[", "]", "(", ")", "|", ",", "*", "/",
    " ", "  ", "\t", "\n", "\r\n", " ", " ", "\x0b",
    "@", "^", "é", "'", ".", "=",
    "[X x]", "[a' b+]", "[Y\ny]", "[ c- _q ]", "]*[", "] [", "][", "[X x]*", "*[Y y]",
)


def _outcome(tokenize, text):
    try:
        return tokenize(text)
    except ParseError as exc:
        return str(exc), exc.line, exc.column


def test_tokens_and_positions_match_the_line_tracking_reference():
    rng = random.Random("tokenizer")
    errors = runs = 0
    for _ in range(3000):
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(0, 14)))
        try:
            kinds, values, offsets = _tokenize(text)
        except ParseError as exc:
            errors += 1
            assert _outcome(_reference_tokenize, text) == (str(exc), exc.line, exc.column), text
            continue
        positions = [(e.line, e.column) for e in (_error(text, "", offset) for offset in offsets)]
        reference = _reference_tokenize(text)
        got = []
        for i, (kind, value, offset) in enumerate(zip(kinds, values, offsets)):
            if kind != "run":
                got.append((kind, value, *positions[i]))
                continue
            # a run stands for the reference tokens up to the next token:
            # well-formed generators, its labels at their own positions
            covered = [t for t in reference if positions[i] <= t[2:] < positions[i + 1]]
            shape = "".join("L" if t[0] == "ident" else t[0] for t in covered)
            assert re.fullmatch(r"\[LL\](?:\*?\[LL\])*", shape), text
            assert covered[0][2:] == positions[i], text
            labels = [_error(text, "", o) for o in _run_label_offsets(text, offset, len(value))]
            assert [t for t in covered if t[0] == "ident"] == [
                ("ident", label, e.line, e.column) for label, e in zip(value, labels)
            ], text
            runs += 1
            got += covered
        assert got == reference, text
    assert 300 < errors < 2700
    assert runs > 300


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("[X x]\n  @", "unexpected character '@'", 2, 3),
        ("[X x]\n+ [Y q]", "unknown label 'q'", 2, 6),
        ("[X x]\n\n   1/0", "division by zero", 3, 4),
        ("[X x] +\r\n\t[Y", "expected 'ident', found end of input", 2, 4),
        ("", "unexpected end of input", 1, 1),
        ("1 2\n)", "trailing input ')'", 2, 1),
    ],
)
def test_parse_errors_report_line_and_column(config, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text, config)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


# -- generator runs: one token, the same values and errors as one by one ----


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("[X", "expected 'ident', found end of input", 1, 3),
        ("[X x", "expected ']', found end of input", 1, 5),
        ("[X x y]", "expected ']', found 'y'", 1, 6),
        ("[Xx]", "unknown label 'Xx'", 1, 2),
        ("cross([X x], Y, x, y)", "expected 'ident', found '['", 1, 7),
        ("mf([X x] | x | id)", "expected '|', found '['", 1, 4),
        ("[X x] [Y y]\n  *[Z q]*[W u]", "unknown label 'q'", 2, 7),
        ("[X x]*[Y", "expected 'ident', found end of input", 1, 9),
        ("[X x]*[Y y]*", "unexpected end of input", 1, 13),
        ("[X x]*[Y y] )", "trailing input ')'", 1, 13),
        ("[X x] / [X X]*[Y q]", "division by zero", 1, 7),
    ],
)
def test_malformed_generators_and_runs_report_as_one_by_one(config, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse_expression(text, config)
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_a_divisor_or_negation_takes_only_the_first_generator_of_a_run(config):
    X, Y, Z, x, y, u = (config[a] for a in "XYZxyu")
    Xx, Yy, Zu = generator(X, x), generator(Y, y), generator(Z, u)
    assert parse_expression("-[X x]*[Y y]", config) == -(Xx * Yy)
    assert parse_expression("[Z u] / [X x]*[Y y]", config) == parse_expression("[Z u]*[Y y]/[X x]", config)
    assert parse_expression("[Z u] / [X x]*[Y y]", config) == Zu * Yy / Xx
    assert parse_expression("[Z u] / -[X x] [Y y]", config) == -(Zu * Yy) / Xx


def test_labels_written_together_are_read_one_by_one(words):
    # [a+b-] is no run (its labels touch), so it is read as single tokens
    assert _tokenize("[a+b-]")[0] == ["[", "ident", "ident", "]", "end"]
    apart = parse_expression("[a+ b-]*[b+ a-] / [a- b+]", universe=words)
    assert parse_expression("[a+b-]*[b+ a-] / [a-b+]", universe=words) == apart
    assert parse_expression("-[a+b-] [b+ a-] / [a- b+]", universe=words) == -apart


def test_fixed_point_labels_in_a_run_register_left_to_right():
    import numpy as np

    from swapalg.representation import Representation

    def fresh():
        return Representation({"a": np.diag([3.0, 1 / 3.0]), "b": [[2.0, 1.0], [1.0, 1.0]]})

    rep = fresh()
    value = parse_expression("[b- a'+]*[a+ b+]\n [a- b'-]", universe=rep)
    # a'+ is the repelling fixed point of a, registered under its canonical label a-
    assert list(rep.config._by_label) == ["b-", "a-", "a+", "b+"]
    assert repr(value) == "[a+ b+]*[b- a-]*[a- b+]"
    rep = fresh()
    with pytest.raises(ParseError) as err:
        parse_expression("[b- a'+]*[a+ b+]\n [a- q+]", universe=rep)
    assert str(err.value) == "unknown label 'q+' (line 2, column 6)"
    assert list(rep.config._by_label) == ["b-", "a-", "a+", "b+"]


# -- sums and generator runs are built once ---------------------------------


def _counting(monkeypatch, name):
    calls = []
    real = getattr(AlgebraElement, name)
    monkeypatch.setattr(AlgebraElement, name, lambda a, b: calls.append(1) or real(a, b))
    return calls


def test_a_generator_run_is_one_token_read_without_pair(config, monkeypatch):
    rng = random.Random("runs")
    runs = [[rng.sample(_LABELS, 2) for _ in range(16)] for _ in range(60)]
    text = "*".join(f"[{a} {b}]" for a, b in runs[0])
    kinds, values, _ = _tokenize(text)
    assert kinds == ["run", "end"]
    assert values[0] == [label for pair in runs[0] for label in pair]
    total = AlgebraElement.zero(config)
    for run in runs:
        total = total + AlgebraElement.scalar(config, rng.randint(1, 9)) * prod(
            (generator(config[a], config[b]) for a, b in run), start=AlgebraElement.one(config)
        )
    assert len(total.terms()) == 60
    pairs = []
    real = _Parser.pair
    monkeypatch.setattr(_Parser, "pair", lambda self: pairs.append(1) or real(self))
    assert parse_expression(repr(total), config) == total
    assert not pairs
    with pytest.raises(ParseError):
        parse_expression("[X x] [Y", config)
    assert pairs  # a malformed generator still goes through pair


def test_long_sums_and_generator_runs_add_and_multiply_nothing(config, monkeypatch):
    rng = random.Random("linear")
    labels = ["X", "Y", "Z", "W", "x", "y", "u", "v"]
    runs = [[rng.sample(labels, 2) for _ in range(16)] for _ in range(60)]
    expected = AlgebraElement.zero(config)
    for run in runs:
        product = AlgebraElement.one(config)
        for a, b in run:
            product = product * generator(config[a], config[b])
        expected = expected + product
    texts = [" ".join(f"[{a} {b}]" for a, b in run) for run in runs]
    added = _counting(monkeypatch, "__add__")
    multiplied = _counting(monkeypatch, "__mul__")
    assert parse_expression(" + ".join(texts), config) == expected
    assert parse_expression(" * ".join(texts).replace("] [", "] * ["), config) == parse_expression(
        " ".join(texts), config
    )
    assert parse_expression("[X x] * [Y y] [X X] * [Z u]", config).is_zero
    assert not added and not multiplied


_LABELS = ("X", "Y", "Z", "W", "x", "y", "u", "v")


def _random_divisor(rng, config):
    """(text, value) of a random single-term factor with a nonzero value."""
    kind = rng.choice(["scalar", "generator", "cross", "mf", "paren", "minus"])
    if kind == "scalar":
        p, q = rng.randint(1, 9), rng.choice([1, 1, 2, 7])
        return (f"{p}/{q}" if q > 1 else f"{p}"), AlgebraElement.scalar(config, Fraction(p, q))
    if kind == "generator":
        a, b = rng.sample(_LABELS, 2)
        return f"[{a} {b}]", generator(config[a], config[b])
    if kind == "cross":
        labels = rng.sample(_LABELS, 4)
        return "cross({}, {}, {}, {})".format(*labels), cross_fraction(*(config[a] for a in labels))
    if kind == "mf":
        k = rng.randint(2, 3)
        labels = rng.sample(_LABELS, 2 * k)
        swap = rng.random() < 0.5
        sigma = (1, 0, *range(2, k)) if swap else tuple(range(k))
        text = f"mf({' '.join(labels[:k])} | {' '.join(labels[k:])} | {'(1 2)' if swap else 'id'})"
        return text, multi_fraction([config[a] for a in labels[:k]], [config[a] for a in labels[k:]], sigma)
    text, value = _random_divisor(rng, config)
    return (f"({text})", value) if kind == "paren" else (f"-{text}", -value)


def _random_factor(rng, config, depth):
    kind = rng.random()
    if kind < 0.35:
        a, b = rng.choice(_LABELS), rng.choice(_LABELS)  # [X X] is zero
        return f"[{a} {b}]", generator(config[a], config[b])
    if kind < 0.85 or depth == 2:
        return _random_divisor(rng, config)
    if kind < 0.95:
        text, value = _random_expression(rng, config, depth + 1)
        return f"({text})", value
    text, value = _random_factor(rng, config, depth + 1)
    return f"-{text}", -value


def _random_term(rng, config, depth):
    text, value = _random_factor(rng, config, depth)
    for _ in range(rng.randint(0, 5)):
        op = rng.choice([" ", " * ", " / "])
        if op == " / ":
            divisor, divisor_value = _random_divisor(rng, config)
            text, value = f"{text} / {divisor}", value / divisor_value
            continue
        factor, factor_value = _random_factor(rng, config, depth)
        if factor.startswith("-"):
            op = " * "  # juxtaposed, the '-' would subtract
        text, value = text + op + factor, value * factor_value
    return text, value


def _random_expression(rng, config, depth=0):
    """(text, value) of a random expression, the value built by algebra operations."""
    text, value = _random_term(rng, config, depth)
    for _ in range(rng.randint(0, 4)):
        term, term_value = _random_term(rng, config, depth)
        if rng.random() < 0.5:
            text, value = f"{text} + {term}", value + term_value
        else:
            text, value = f"{text} - {term}", value - term_value
    return text, value


def test_random_expressions_parse_to_their_algebra_values(config):
    rng = random.Random("expressions")
    nonzero = 0
    for _ in range(300):
        text, value = _random_expression(rng, config)
        parsed = parse_expression(text, config)
        assert parsed == value, text
        assert repr(parsed) == repr(value)
        assert parse_expression(repr(value), config) == value, text
        nonzero += not value.is_zero
    assert nonzero > 200
