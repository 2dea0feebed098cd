"""Expression language for pair-algebra elements and fractions.

Grammar (whitespace insignificant, juxtaposition multiplies):

    expr     :=  term (('+' | '-') term)*
    term     :=  factor (('*' | '/')? factor)*
    factor   :=  rational | '[' label label ']' | call | '(' expr ')' | '-' factor
    rational :=  integer or integer/integer, e.g. 1/2, -3
    call     :=  cross(X, Y, x, y)
              |  mf(X1 X2 ... | x1 x2 ... | sigma)      sigma: 'id' or cycles '(1 2)(3)'
              |  elem(w1, w2, ...)                      words like  a b a'
              |  pbeta(w, y)                            length cross fraction p_w(y)
              |  wolpert(w1, w2)

Point labels resolve in a point configuration; labels may end in '+' or '-'
(fixed points registered by a representation).  Word arguments need a word
context (a representation or a symbolic fixed-point table).  Every value is
one Laurent element; ``/`` divides by any element with a single term.
Elements with a denominator print as ``NUM / DEN``, and canonical forms
round-trip through the parser.  Parentheses and unary minus nest at most
MAX_NESTING levels; deeper input is a ParseError rather than a recursion
overflow.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .algebra import AlgebraElement, generator
from .circle import PointConfig
from .errors import ParseError, SwapAlgError
from .multifraction import (
    cross_fraction,
    elementary,
    length_cross_fraction,
    multi_fraction,
    wolpert_rhs,
)

_TOKEN = re.compile(
    r"""(?P<ws>\s+)
      | (?P<num>\d+(?:/\d+)?)
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*'?(?:(?<=[A-Za-z_0-9'])[+-])?)
      | (?P<op>[\[\]\(\)\|,*/+-])
    """,
    re.VERBOSE,
)

_CALLS = {"cross", "mf", "elem", "pbeta", "wolpert"}

MAX_NESTING = 200  # 3 stack frames per level, well inside the recursion limit


class _Token:
    __slots__ = ("kind", "value", "line", "column")

    def __init__(self, kind, value, line, column):
        self.kind = kind
        self.value = value
        self.line = line
        self.column = column


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line = 1
    line_start = 0
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        if m.lastgroup == "ws":
            line += m.group().count("\n")
            if "\n" in m.group():
                line_start = m.end() - len(m.group().rsplit("\n", 1)[1])
        elif m.lastgroup == "num":
            try:
                value = Fraction(m.group())
            except ZeroDivisionError:
                raise ParseError("division by zero", line, pos - line_start + 1) from None
            tokens.append(_Token("num", value, line, pos - line_start + 1))
        elif m.lastgroup == "ident":
            tokens.append(_Token("ident", m.group(), line, pos - line_start + 1))
        else:
            tokens.append(_Token(m.group(), m.group(), line, pos - line_start + 1))
        pos = m.end()
    tokens.append(_Token("end", None, line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, text: str, config: PointConfig, universe=None):
        self.tokens = _tokenize(text)
        self.index = 0
        self.config = config
        self.universe = universe
        self.depth = 0

    # -- token plumbing -------------------------------------------------

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.current
        self.index += 1
        return token

    def expect(self, kind) -> _Token:
        token = self.current
        if token.kind != kind:
            found = "end of input" if token.kind == "end" else repr(token.value)
            raise ParseError(
                f"expected {kind!r}, found {found}", token.line, token.column
            )
        return self.advance()

    def fail(self, message):
        if self.current.kind == "end":
            message = message.replace("None", "end of input")
        raise ParseError(message, self.current.line, self.current.column)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> AlgebraElement:
        value = self.expr()
        if self.current.kind != "end":
            self.fail(f"trailing input {self.current.value!r}")
        return value

    def expr(self):
        value = self.term()
        while self.current.kind in ("+", "-"):
            if self.advance().kind == "+":
                value = value + self.term()
            else:
                value = value - self.term()
        return value

    def term(self):
        value = self.factor()
        while True:
            if self.current.kind == "/":
                op = self.advance()
                divisor = self.factor()
                try:
                    value = value / divisor
                except ZeroDivisionError:
                    raise ParseError("division by zero", op.line, op.column) from None
            elif self.current.kind == "*":
                self.advance()
                value = value * self.factor()
            elif self.current.kind in ("num", "ident", "[", "("):
                value = value * self.factor()
            else:
                return value

    def factor(self) -> AlgebraElement:
        token = self.current
        if token.kind in ("-", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING} levels")
            self.depth += 1
            self.advance()
            if token.kind == "-":
                value = -self.factor()
            else:
                value = self.expr()
                self.expect(")")
            self.depth -= 1
            return value
        if token.kind == "num":
            self.advance()
            return AlgebraElement.scalar(self.config, token.value)
        if token.kind == "[":
            return self.generator()
        if token.kind == "ident":
            if token.value in _CALLS:
                return self.call()
            self.fail(f"bare label {token.value!r}; generators are written [X x]")
        self.fail(f"unexpected {token.value!r}")

    def generator(self) -> AlgebraElement:
        self.expect("[")
        left = self.point(self.expect("ident"))
        right = self.point(self.expect("ident"))
        self.expect("]")
        return generator(left, right)

    def point(self, token: _Token):
        try:
            return self.config[token.value]
        except SwapAlgError:
            pass
        if self.universe is not None and token.value[-1] in "+-":
            # fixed-point labels like a+ or b- register on demand
            sign = 1 if token.value[-1] == "+" else -1
            try:
                return self.universe.fixed_point(token.value[:-1], sign)
            except SwapAlgError:
                pass
        raise ParseError(f"unknown label {token.value!r}", token.line, token.column)

    def call(self):
        name = self.advance().value
        self.expect("(")
        try:
            if name == "cross":
                points = [self.point(self.expect("ident"))]
                for _ in range(3):
                    self.expect(",")
                    points.append(self.point(self.expect("ident")))
                self.expect(")")
                return cross_fraction(*points)
            if name == "mf":
                return self.multi_fraction_call()
            if name == "elem":
                words = [self.word_arg()]
                while self.current.kind == ",":
                    self.advance()
                    words.append(self.word_arg())
                self.expect(")")
                return elementary(self.need_universe(), words)
            if name == "pbeta":
                word = self.word_arg()
                self.expect(",")
                anchor = self.point(self.expect("ident"))
                self.expect(")")
                return length_cross_fraction(self.need_universe(), word, anchor).fraction
            if name == "wolpert":
                first = self.word_arg()
                self.expect(",")
                second = self.word_arg()
                self.expect(")")
                return wolpert_rhs(self.need_universe(), first, second)
        except (SwapAlgError, ParseError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), self.current.line, self.current.column) from exc
        self.fail(f"unknown call {name!r}")

    def need_universe(self):
        if self.universe is None:
            self.fail("word calls need a representation or fixed-point table")
        return self.universe

    def word_arg(self) -> str:
        letters = []
        while self.current.kind == "ident":
            letters.append(self.advance().value)
        if not letters:
            self.fail("expected a group word")
        return " ".join(letters)

    def multi_fraction_call(self) -> AlgebraElement:
        tops = []
        while self.current.kind == "ident":
            tops.append(self.point(self.advance()))
        self.expect("|")
        bottoms = []
        while self.current.kind == "ident":
            bottoms.append(self.point(self.advance()))
        self.expect("|")
        sigma = self.cycles(len(tops))
        self.expect(")")
        return multi_fraction(tops, bottoms, sigma)

    def cycles(self, n: int) -> tuple[int, ...]:
        """One-line cycle notation with 1-based entries, or 'id'."""
        sigma = list(range(n))
        if self.current.kind == "ident" and self.current.value == "id":
            self.advance()
            return tuple(sigma)
        seen = set()
        found = False
        while self.current.kind == "(":
            found = True
            self.advance()
            entries = []
            while self.current.kind == "num":
                value = self.advance().value
                if value.denominator != 1:
                    self.fail("cycle entries must be integers")
                entries.append(int(value))
            self.expect(")")
            for e in entries:
                if not 1 <= e <= n or e in seen:
                    self.fail(f"bad cycle entry {e}")
                seen.add(e)
            for i, e in enumerate(entries):
                sigma[e - 1] = entries[(i + 1) % len(entries)] - 1
        if not found:
            self.fail("expected 'id' or cycles like (1 2)")
        return tuple(sigma)


def parse_expression(text: str, config: PointConfig | None = None, universe=None):
    """Parse an expression into an element.

    `config` supplies the point labels; when `universe` is given (a
    representation or symbolic fixed-point table) its configuration is
    used and word calls become available.
    """
    if universe is not None:
        config = universe.config
    if config is None:
        raise SwapAlgError("a point configuration is required")
    return _Parser(text, config, universe).parse()
