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
one Laurent element; ``/`` divides by any element with a single term, and
any other divisor is a ParseError at the ``/``.  Elements with a
denominator print as ``NUM / DEN``, and canonical forms round-trip through
the parser.  Parentheses and unary minus nest at most MAX_NESTING levels;
deeper input is a ParseError rather than a recursion overflow.  The text
is tokenized in one pass of one pattern; a token is a kind, a value and a
character offset, and a ParseError derives its line and column from the
offset.  A run of well-formed generators [X x]*[Y y] ..., joined by '*'
or by whitespace alone, is one token whose value is its list of labels, so
a printed product is read back in one match; a malformed generator never
forms a run and is read token by token, and a run named in an error is
its first '['.  A term builds its generators as one monomial, and a sum
adds its terms once; a divisor or a negated factor takes only the first
generator of a run, so [Z z] / [X x]*[Y y] is [Z z]*[Y y] / [X x].
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import prod

from .algebra import AlgebraElement, _pair_fraction, _sum
from .circle import PointConfig
from .errors import ParseError, SwapAlgError
from .multifraction import (
    cross_fraction,
    elementary,
    length_cross_fraction,
    multi_fraction,
    wolpert_rhs,
)

_LABEL = r"[A-Za-z_][A-Za-z_0-9]*'?[+-]?"  # a point label, or a letter of a word
_GENERATOR = rf"\[\s*{_LABEL}\s+{_LABEL}\s*\]"

_TOKEN = re.compile(
    rf"""(?: (?P<run>{_GENERATOR}(?:\s*(?:\*\s*)?{_GENERATOR})*)
          | (?P<ident>{_LABEL})
          | (?P<op>[\[\]\(\)\|,*/+-])
          | (?P<num>\d+(?:/\d+)?)
          | (?P<end>\Z)
          | (?P<bad>.)
        )\s*  # whitespace after a token; leading whitespace is skipped by the caller
    """,
    re.VERBOSE | re.DOTALL,
)
_RUN_PUNCTUATION = str.maketrans("[]*", "   ")
_RUN_LABEL = re.compile(r"[^\s\[\]*]+")

_CALLS = {"cross", "mf", "elem", "pbeta", "wolpert"}

MAX_NESTING = 200  # 3 stack frames per level, well inside the recursion limit


def _error(text: str, message: str, offset: int) -> ParseError:
    """A ParseError at character `offset` of `text`, with its line and column."""
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset))


def _tokenize(text: str) -> tuple[list, list, list]:
    """The tokens of `text` as three parallel lists: kinds, values and
    character offsets.  An operator's kind is its character; a run's value
    is the list of its labels; the last token is the end, with value None at
    offset len(text).  (Lists, not a tuple per token: freed tuples pile up in
    CPython's per-size tuple free lists.)"""
    kinds, values, offsets = [], [], []
    for m in _TOKEN.finditer(text, len(text) - len(text.lstrip())):
        kind = m.lastgroup
        value = m[kind] or None  # only the end matches the empty string
        if kind == "run":
            value = value.translate(_RUN_PUNCTUATION).split()
        elif kind == "op":
            kind = value
        elif kind == "num":
            try:
                value = Fraction(value)
            except ZeroDivisionError:
                raise _error(text, "division by zero", m.start()) from None
        elif kind == "bad":
            raise _error(text, f"unexpected character {value!r}", m.start())
        kinds.append(kind)
        values.append(value)
        offsets.append(m.start())
    return kinds, values, offsets


def _run_label_offsets(text: str, offset: int, count: int) -> list[int]:
    """The offsets of the first `count` labels of the run token at `offset`."""
    return [m.start() for m, _ in zip(_RUN_LABEL.finditer(text, offset), range(count))]


class _Parser:
    def __init__(self, text: str, config: PointConfig, universe=None):
        self.text = text
        self.kinds, self.values, self.offsets = _tokenize(text)
        self.index = 0
        self.taken = 0  # labels of the run token at `index` already read
        self.config = config
        self.universe = universe
        self.depth = 0

    # -- token plumbing: tokens are read by their index ------------------

    def advance(self) -> int:
        self.index += 1
        return self.index - 1

    def error(self, message, index=None) -> ParseError:
        """A ParseError at token `index`, by default the current token."""
        return _error(self.text, message, self.offsets[self.index if index is None else index])

    def found(self) -> str:
        """The current token as an error names it; a run by its first '['."""
        kind = self.kinds[self.index]
        if kind == "end":
            return "end of input"
        return "'['" if kind == "run" else repr(self.values[self.index])

    def expect(self, kind) -> int:
        if self.kinds[self.index] != kind:
            raise self.error(f"expected {kind!r}, found {self.found()}")
        return self.advance()

    def fail(self, message):
        raise self.error(message)

    # -- grammar ------------------------------------------------------------

    def parse(self) -> AlgebraElement:
        value = self.expr()
        if self.kinds[self.index] != "end":
            self.fail(f"trailing input {self.found()}")
        return value

    def expr(self):
        terms = [self.term()]
        while self.kinds[self.index] in ("+", "-"):
            if self.kinds[self.advance()] == "+":
                terms.append(self.term())
            else:
                terms.append(-self.term())
        return terms[0] if len(terms) == 1 else _sum(self.config, terms)

    def term(self):
        """The term's generators as one monomial, times its other factors;
        a divisor is inverted at its '/', so a bad divisor is reported there."""
        pairs, factors = [], []
        while True:
            kind = self.kinds[self.index]
            if kind == "run":
                pairs += self.run_pairs()
            elif kind == "[":
                pairs.append(self.pair())
            else:
                factors.append(self.factor())
            while self.kinds[self.index] == "/":
                slash = self.advance()
                divisor = self.factor()
                try:
                    factors.append(divisor.inverse())
                except (ZeroDivisionError, SwapAlgError) as exc:
                    message = str(exc) if isinstance(exc, SwapAlgError) else "division by zero"
                    raise self.error(message, slash) from None
            if self.kinds[self.index] == "*":
                self.index += 1
            elif self.kinds[self.index] not in ("run", "num", "ident", "[", "("):
                break
        if pairs:
            factors.append(_pair_fraction(pairs, ()))
        return prod(factors[1:], start=factors[0])

    def factor(self) -> AlgebraElement:
        kind = self.kinds[self.index]
        if kind in ("-", "("):
            if self.depth == MAX_NESTING:
                self.fail(f"nesting deeper than {MAX_NESTING} levels")
            self.depth += 1
            self.index += 1
            if kind == "-":
                value = -self.factor()
            else:
                value = self.expr()
                self.expect(")")
            self.depth -= 1
            return value
        value = self.values[self.index]
        if kind == "run":
            return _pair_fraction(self.run_pairs(first_only=True), ())
        if kind == "num":
            self.index += 1
            return AlgebraElement.scalar(self.config, value)
        if kind == "[":
            return _pair_fraction((self.pair(),), ())
        if kind == "ident":
            if value in _CALLS:
                return self.call()
            self.fail(f"bare label {value!r}; generators are written [X x]")
        self.fail(f"unexpected {self.found()}")

    def pair(self) -> tuple:
        """The points (X, x) of a generator [X x]; X = x makes it zero."""
        self.expect("[")
        left = self.point(self.expect("ident"))
        right = self.point(self.expect("ident"))
        self.expect("]")
        return left, right

    def run_pairs(self, first_only=False) -> list:
        """The pairs of the run token at the current token that are not yet
        read: all of them, or only the first.  The token is passed once its
        last pair is read."""
        labels = self.values[self.index]
        start = self.taken
        stop = start + 2 if first_only else len(labels)
        config = self.config
        try:
            points = [config[label] for label in labels[start:stop]]
        except SwapAlgError:  # fixed-point labels register left to right
            points = [self.point(self.index, k) for k in range(start, stop)]
        if stop == len(labels):
            self.index += 1
            self.taken = 0
        else:
            self.taken = stop
        return list(zip(points[::2], points[1::2]))

    def point(self, index: int, number: int | None = None):
        """The point of label token `index`, or of label `number` of run
        token `index`."""
        label = self.values[index] if number is None else self.values[index][number]
        try:
            return self.config[label]
        except SwapAlgError:
            pass
        if self.universe is not None and label[-1] in "+-":
            # fixed-point labels like a+ or b- register on demand
            sign = 1 if label[-1] == "+" else -1
            try:
                return self.universe.fixed_point(label[:-1], sign)
            except SwapAlgError:
                pass
        offset = self.offsets[index]
        if number is not None:
            offset = _run_label_offsets(self.text, offset, number + 1)[-1]
        raise _error(self.text, f"unknown label {label!r}", offset)

    def call(self):
        name = self.values[self.advance()]
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
                while self.kinds[self.index] == ",":
                    self.advance()
                    words.append(self.word_arg())
                self.expect(")")
                return elementary(self.need_universe(), words)
            if name == "pbeta":
                word = self.word_arg()
                self.expect(",")
                anchor = self.point(self.expect("ident"))
                self.expect(")")
                return length_cross_fraction(self.need_universe(), word, anchor)
            if name == "wolpert":
                first = self.word_arg()
                self.expect(",")
                second = self.word_arg()
                self.expect(")")
                return wolpert_rhs(self.need_universe(), first, second)
        except (SwapAlgError, ParseError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise self.error(str(exc)) from exc
        self.fail(f"unknown call {name!r}")

    def need_universe(self):
        if self.universe is None:
            self.fail("word calls need a representation or fixed-point table")
        return self.universe

    def word_arg(self) -> str:
        letters = []
        while self.kinds[self.index] == "ident":
            letters.append(self.values[self.advance()])
        if not letters:
            self.fail("expected a group word")
        return " ".join(letters)

    def multi_fraction_call(self) -> AlgebraElement:
        tops = []
        while self.kinds[self.index] == "ident":
            tops.append(self.point(self.advance()))
        self.expect("|")
        bottoms = []
        while self.kinds[self.index] == "ident":
            bottoms.append(self.point(self.advance()))
        self.expect("|")
        sigma = self.cycles(len(tops))
        self.expect(")")
        return multi_fraction(tops, bottoms, sigma)

    def cycles(self, n: int) -> tuple[int, ...]:
        """One-line cycle notation with 1-based entries, or 'id'."""
        sigma = list(range(n))
        if self.kinds[self.index] == "ident" and self.values[self.index] == "id":
            self.advance()
            return tuple(sigma)
        seen = set()
        found = False
        while self.kinds[self.index] == "(":
            found = True
            self.advance()
            entries = []
            while self.kinds[self.index] == "num":
                value = self.values[self.advance()]
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
