"""Laurent polynomials in ordered pairs of circle points.

Generators are ordered pairs Xx of points of one configuration, subject to
the single relation Xx = 0 whenever X = x.  A pair is the plain tuple
(X, x) of two identity-equal points, printed ``[X x]``, and a monomial is
the frozenset of its (pair, exponent) powers.  Elements are finite sums of
Laurent monomials (generator pairs with nonzero integer exponents) with
exact rational coefficients, stored in one integer form: a nonzero integer
numerator per monomial over one positive integer denominator, with gcd 1
over them all; zero is the empty sum over 1.  Equality is therefore
syntactic, and needs no order.  Only this module touches that form or
builds monomials; `Monomial(pairs)` checks the pairs a caller makes, and
`_pair_fraction` builds every multifraction, a product of pairs over a
product of pairs, in one pass that checks each pair and adds its exponent
to one map.
Canonical order (pairs by left point, then right point, in the
configuration's position order; terms by degree, then pairs) is applied
only where an element is read out: printing, `terms()`, `numerator`,
`scale` and `evaluate` all read one ranking, `AlgebraElement._ranked`,
which sorts the distinct pairs once by the points' order keys
(`CirclePoint.order_key`, in position order) and the terms by degree and
their pairs' ranks, each term expanded over its own pairs and the
denominator's.  `denominator` needs no order: it reads each pair's lowest
exponent.  These are the only places where coefficients become
`Fraction`s.

Polynomials are the elements without negative exponents.  Every other
element is a reduced fraction: a polynomial numerator over the monomial
denominator that carries the negative exponents.  Cross fractions, multi
fractions, elementary functions and their brackets all have this form, so
one class covers them; `numerator`, `denominator` and `scale` are views of
the fraction, and elements print as ``NUM / DEN``.

The swapping bracket of two generators is

    {Xx, Yy}_a = [Xx, Yy] (Xy.Yx + a Xx.Yy),

where [ , ] is the linking form and `a` is any rational parameter.  It
extends to the whole algebra by bilinearity and the Leibniz rule in each
slot, and satisfies the Jacobi identity, making the algebra Poisson.  It is
computed on the operands' stored integers, with doubled linking numbers as
the Leibniz weights, over the product of the denominators; one gcd pass
brings the result to the integer form, so nested brackets stay in integers.

Values are immutable; operations build fresh elements, and expansion order
never affects the result (terms are accumulated into a canonical map), so
bracket computations may be partitioned and merged freely.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import reduce
from math import gcd, lcm

from .circle import CirclePoint, PointConfig, doubled_linking, ensure_same_config, require_point_order
from .errors import ConfigMismatchError, DegenerateFractionError, EvaluationError, SwapAlgError


def _pair_order(pair):
    return pair[0].order_key, pair[1].order_key


def _pair_name(pair) -> str:
    return f"[{pair[0].label} {pair[1].label}]"


def _shifted(exponents: dict, powers) -> dict:
    """`exponents`, a map from pairs to nonzero exponents, multiplied in
    place by the (pair, exponent) powers; a pair whose exponent reaches 0
    is dropped."""
    for p, e in powers:
        e += exponents.get(p, 0)
        if e:
            exponents[p] = e
        else:
            del exponents[p]
    return exponents


class Monomial(frozenset):
    """A Laurent monomial: the frozenset of its (pair, exponent) powers.

    A pair is the tuple (X, x) of two distinct identity-equal points of one
    configuration.  Each pair occurs once, with a nonzero integer exponent,
    so equality and hash are the set's.  Canonical order, by the points'
    order keys, is applied only on read-out: `pairs` and `repr`.
    `Monomial(pairs)` builds the polynomial monomial of a multiset of pairs,
    and checks each pair.
    """

    __slots__ = ()

    def __new__(cls, pairs=()):
        exponents = Counter()
        for X, x in pairs:
            if X is x:
                raise SwapAlgError("degenerate pair: left point equals right point")
            ensure_same_config(X, x)
            exponents[X, x] += 1
        return frozenset.__new__(cls, exponents.items())

    @classmethod
    def _from_exponents(cls, exponents) -> "Monomial":
        return frozenset.__new__(cls, ((p, e) for p, e in exponents.items() if e))

    @property
    def pairs(self) -> tuple[tuple[CirclePoint, CirclePoint], ...]:
        """The pairs with multiplicity, in canonical order; polynomials only."""
        if any(e < 0 for _, e in self):
            raise SwapAlgError("monomial has negative exponents")
        powers = sorted(self, key=lambda power: _pair_order(power[0]))
        return tuple(p for p, e in powers for _ in range(e))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def _times(self, powers) -> "Monomial":
        return frozenset.__new__(Monomial, _shifted(dict(self), powers).items())

    def __mul__(self, other: "Monomial") -> "Monomial":
        if not other:
            return self
        if not self:
            return other
        return self._times(other)

    def inverse(self) -> "Monomial":
        return Monomial._from_exponents({p: -e for p, e in self})

    def __repr__(self):
        parts = []
        for p, e in sorted(self, key=lambda power: _pair_order(power[0])):
            parts += [_pair_name(p)] * e if e > 0 else [f"{_pair_name(p)}^{e}"]
        return "*".join(parts) or "1"


ONE = Monomial()


def _ratio(value) -> tuple[int, int]:
    """An exact rational scalar as (numerator, positive denominator) in
    lowest terms."""
    if isinstance(value, Fraction):
        return value.numerator, value.denominator
    if isinstance(value, int):
        return int(value), 1
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _element(config: PointConfig, numerators: dict, denominator: int = 1) -> "AlgebraElement":
    """The element sum(n m) / denominator, from its normal form: nonzero
    integer numerators, a positive denominator, and gcd 1 over them all."""
    element = object.__new__(AlgebraElement)
    element.config = config
    element._numerators = numerators
    element._denominator = denominator
    return element


def _reduced(config: PointConfig, numerators: dict, denominator: int) -> "AlgebraElement":
    """The element sum(n m) / denominator, brought to normal form: zero
    numerators dropped, one gcd pass over the rest and the denominator."""
    numerators = {m: n for m, n in numerators.items() if n}
    # reduce, not gcd(*...): an argument tuple per call would pile up in
    # CPython's per-size tuple free lists, which are never given back
    g = reduce(gcd, numerators.values(), denominator)
    if g != 1:
        numerators = {m: n // g for m, n in numerators.items()}
        denominator //= g
    return _element(config, numerators, denominator)


def _sum(config: PointConfig, elements) -> "AlgebraElement":
    """The sum of a sequence of elements over `config`, added once over the
    lcm of their denominators and brought to normal form by one gcd pass."""
    denominator = 1
    for element in elements:
        if element.config is not config:
            raise ConfigMismatchError("elements over different configurations")
        denominator = lcm(denominator, element._denominator)
    acc: dict[Monomial, int] = {}
    for element in elements:
        scale = denominator // element._denominator
        for m, n in element._numerators.items():
            acc[m] = acc.get(m, 0) + n * scale
    return _reduced(config, acc, denominator)


class AlgebraElement:
    """A finite rational combination of Laurent monomials over one configuration.

    Stored as integer numerators per monomial over one positive integer
    denominator, in normal form (no zero numerator, gcd 1 over the
    numerators and the denominator), so equal elements store equal data.
    Elements are built by the constructors below, by `generator` and the
    fraction constructors, and by the operations; every monomial is over
    the element's own configuration.
    """

    __slots__ = ("config", "_numerators", "_denominator")

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(config: PointConfig) -> "AlgebraElement":
        return _element(config, {})

    @staticmethod
    def one(config: PointConfig) -> "AlgebraElement":
        return _element(config, {ONE: 1})

    @staticmethod
    def scalar(config: PointConfig, value) -> "AlgebraElement":
        return AlgebraElement.from_monomial(config, ONE, value)

    @staticmethod
    def from_monomial(config, monomial: Monomial, coeff=1) -> "AlgebraElement":
        if any(X.config is not config for (X, _), _ in monomial):
            raise ConfigMismatchError("monomial over a different configuration")
        num, den = _ratio(coeff)
        return _reduced(config, {monomial: num}, den)

    # -- inspection ---------------------------------------------------

    def _lowest(self) -> dict:
        """Every pair of the element, with its lowest exponent or 0."""
        lowest: dict[tuple[CirclePoint, CirclePoint], int] = {}
        for m in self._numerators:
            for p, e in m:
                if e < lowest.setdefault(p, 0):
                    lowest[p] = e
        return lowest

    def _ranked(self):
        """The reduced fraction, ranked: (pairs, cleared, terms, content).

        `pairs` are the distinct pairs in canonical order; a pair's rank is
        its index, and ranks order pairs as their order keys do.
        `cleared[i]` is the exponent of pairs[i] in the denominator, the
        smallest monomial clearing every negative exponent.  A numerator
        term is (degree, ranks, n, m): the sorted ranks of m * denominator
        with multiplicity, m's integer numerator over `_denominator`, and
        m.  Each term is expanded over its own pairs and the denominator's.
        Terms sort on (degree, ranks), which is canonical order.  The
        content is the gcd of the integers, signed like the leading term,
        and 0 for the zero element.
        """
        lowest = self._lowest()
        pairs = sorted(lowest, key=_pair_order)
        rank = dict(zip(pairs, range(len(pairs))))
        cleared = [-lowest[p] for p in pairs]
        den_ranks = [i for i, c in enumerate(cleared) for _ in range(c)]
        terms = []
        for m, n in self._numerators.items():
            ranks = den_ranks.copy()
            for p, e in m:
                if e > 0:
                    ranks += [rank[p]] * e
                else:
                    for _ in range(-e):
                        ranks.remove(rank[p])
            ranks.sort()
            terms.append((len(ranks), ranks, n, m))
        terms.sort()  # (degree, ranks) never ties, so n and m are never compared
        content = reduce(gcd, [n for _, _, n, _ in terms], 0)
        return pairs, cleared, terms, -content if terms and terms[0][2] < 0 else content

    def terms(self):
        """Terms in canonical order, as (monomial, coefficient) pairs."""
        _, _, terms, _ = self._ranked()
        return [(m, Fraction(n, self._denominator)) for _, _, n, m in terms]

    @property
    def is_zero(self) -> bool:
        return not self._numerators

    def monomials(self):
        """The monomials with nonzero coefficient, in no particular order."""
        return list(self._numerators)

    def degrees(self) -> set[int]:
        return {m.degree for m in self._numerators}

    @property
    def numerator(self) -> "AlgebraElement":
        """The numerator of the reduced fraction, a polynomial of content one."""
        pairs, cleared, terms, content = self._ranked()
        denominator = Monomial._from_exponents(dict(zip(pairs, cleared)))
        return _element(self.config, {m * denominator: n // content for _, _, n, m in terms})

    @property
    def denominator(self) -> Monomial:
        """The denominator of the reduced fraction: each pair to minus its
        lowest exponent, where that is negative."""
        return Monomial._from_exponents({p: -e for p, e in self._lowest().items()})

    @property
    def scale(self) -> Fraction:
        """The content: self = scale * numerator / denominator."""
        return Fraction(self._ranked()[3], self._denominator)

    # -- ring operations ----------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.config is not other.config:
            raise ConfigMismatchError("elements over different configurations")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.scalar(self.config, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return _sum(self.config, (self, other))  # _sum checks the configurations

    __radd__ = __add__

    def __neg__(self):
        return _element(self.config, {m: -n for m, n in self._numerators.items()}, self._denominator)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.scalar(self.config, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            num, den = _ratio(other)
            acc = {m: n * num for m, n in self._numerators.items()}
            return _reduced(self.config, acc, self._denominator * den)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        acc: dict[Monomial, int] = {}
        for ma, na in self._numerators.items():
            for mb, nb in other._numerators.items():
                m = ma * mb
                acc[m] = acc.get(m, 0) + na * nb
        return _reduced(self.config, acc, self._denominator * other._denominator)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "AlgebraElement":
        """Reciprocal; defined for a single nonzero term."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        if len(self._numerators) != 1:
            raise SwapAlgError("only monomial fractions are invertible")
        ((monomial, num),) = self._numerators.items()
        den = self._denominator
        if num < 0:
            num, den = -num, -den
        return _element(self.config, {monomial.inverse(): den}, num)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (1 / Fraction(other))
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self * other.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = AlgebraElement.one(self.config)
        for _ in range(exponent):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.scalar(self.config, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (
            self.config is other.config
            and self._denominator == other._denominator
            and self._numerators == other._numerators
        )

    def __hash__(self):
        return hash((id(self.config), self._denominator, frozenset(self._numerators.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        pairs, cleared, terms, content = self._ranked()
        names = [_pair_name(p) for p in pairs]
        parts = []
        for degree, ranks, n, _ in terms:
            c = Fraction(n, self._denominator)
            monomial = "*".join(names[i] for i in ranks)
            if degree == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(monomial)
            elif c == -1:
                parts.append(f"-{monomial}")
            else:
                parts.append(f"{c} {monomial}")
        num = " + ".join(parts).replace("+ -", "- ")
        degree = sum(cleared)
        if degree == 0:
            return num
        if len(terms) > 1 or content != self._denominator:
            num = f"({num})"
        den = "*".join(names[i] for i, e in enumerate(cleared) for _ in range(e))
        if degree > 1:
            den = f"({den})"
        return f"{num} / {den}"

    # -- evaluation -------------------------------------------------------

    def evaluate(self, pair_value) -> float:
        """Numeric value given a map (left point, right point) -> number.

        Only balanced elements are scale-free under the per-point scale
        ambiguity of the backends, so unbalanced input is rejected.  The
        value is scale * numerator / denominator of the ranked read-out:
        `pair_value` is called once per distinct pair, in rank order, and
        each product multiplies the values in rank order; the numerator
        terms are summed in canonical order.
        """
        if not is_balanced(self):
            raise EvaluationError("scale-dependent: fraction is not balanced")
        pairs, cleared, terms, content = self._ranked()
        values = [pair_value(*p) for p in pairs]
        den = 1.0
        for v, e in zip(values, cleared):
            for _ in range(e):
                den *= v
        if den == 0.0:
            raise EvaluationError("degenerate evaluation: denominator vanishes")
        num = 0.0
        for _, ranks, n, _ in terms:
            v = float(n // content)
            for i in ranks:
                v *= values[i]
            num += v
        # int / int rounds the exact quotient once, as float(Fraction) does
        return content / self._denominator * num / den


def is_balanced(f: AlgebraElement) -> bool:
    """True when every monomial has net exponent zero at each point, as a
    left point and as a right point.

    Equivalently, every numerator monomial carries the same multiset of
    left points and of right points as the denominator.  Such elements are
    exactly the ones whose numeric value is independent of the per-point
    scale choices of an evaluation backend.  Zero counts as balanced.
    """
    for m in f._numerators:
        left: dict[CirclePoint, int] = {}
        right: dict[CirclePoint, int] = {}
        for (X, x), e in m:
            left[X] = left.get(X, 0) + e
            right[x] = right.get(x, 0) + e
        if any(left.values()) or any(right.values()):
            return False
    return True


def generator(X: CirclePoint, x: CirclePoint) -> AlgebraElement:
    """The degree-one element Xx, or zero when X = x."""
    config = ensure_same_config(X, x)
    if X is x:
        return AlgebraElement.zero(config)
    return _element(config, {frozenset.__new__(Monomial, (((X, x), 1),)): 1})


def _pair_fraction(tops, bottoms) -> AlgebraElement:
    """prod tops / prod bottoms for (left, right) point pairs, as one
    Laurent monomial over 1; zero when a top pair joins a point to itself.

    One pass over the tops, then the bottoms, checks each pair and adds its
    exponent, +1 or -1, to one map of nonzero exponents.  The refusals keep their precedence
    whatever the order of the faults: no pair at all, then a pair across
    configurations anywhere, then a bottom pair joining a point to itself
    (`DegenerateFractionError`); only then is a degenerate top zero.
    """
    # no tuple of all the points for ensure_same_config: freed tuples of
    # many sizes would pile up in CPython's per-size free lists
    config = None
    exponents = {}
    degenerate = set()  # the signs of the pairs that join a point to itself
    for pairs, sign in ((tops, 1), (bottoms, -1)):
        for pair in pairs:
            X, x = pair
            if config is None:
                config = X.config
            if X.config is not config or x.config is not config:
                raise ConfigMismatchError("points belong to different configurations")
            if X is x:
                degenerate.add(sign)
            e = exponents.get(pair, 0) + sign
            if e:
                exponents[pair] = e
            else:  # a top cancels a bottom
                del exponents[pair]
    if config is None:
        raise SwapAlgError("a fraction needs at least one pair")
    if -1 in degenerate:
        raise DegenerateFractionError("degenerate denominator: a pair joins a point to itself")
    if degenerate:
        return _element(config, {})
    return _element(config, {frozenset.__new__(Monomial, exponents.items()): 1})


def swap_bracket(a: AlgebraElement, b: AlgebraElement, alpha=0) -> AlgebraElement:
    """Swapping bracket {a, b}_alpha, extended by bilinearity and Leibniz.

    On Laurent monomials the Leibniz rule carries the exponents as weights:

        {m1, m2} = sum over p in m1, q in m2 of  e_p f_q (m1/p)(m2/q) {p, q},

    with e_p, f_q the exponents of p in m1 and of q in m2.  The arithmetic
    is on the operands' integers as stored, numerators over their
    denominators da and db: the weights are the integers e_p f_q 2[p, q]
    of `doubled_linking` on the points' order keys, and alpha = s/t scales
    the swapped terms by t and the alpha terms by s.  The integer sums lie
    over 2 da db t, and one gcd pass brings them to normal form, dropping
    the sums that cancel.  On fractions built from cross fractions the
    result does not depend on alpha.

    For each pair of monomials, the linking numbers come first, with p's
    points and order keys read once for all of m2.  When one is nonzero,
    the exponent map of m1.m2 is built once; each swapped monomial is a
    copy of it with Xy and Yx raised and p and q lowered by one, and m1.m2
    itself becomes a monomial only for a nonzero alpha term.
    """
    if a.config is not b.config:
        raise ConfigMismatchError("elements over different configurations")
    alpha_scale, swap_scale = _ratio(alpha)
    if not (any(a._numerators) and any(b._numerators)):
        return AlgebraElement.zero(a.config)  # a constant brackets to zero, with no linking
    require_point_order(a.config)
    acc: dict[Monomial, int] = {}
    for ma, na in a._numerators.items():
        for mb, nb in b._numerators.items():
            # {p, q} = lk (Xy.Yx + alpha p.q) for p = Xx, q = Yy: the swapped
            # part replaces p.q by Xy.Yx in m1.m2, the alpha part keeps m1.m2
            swaps = []
            alpha_weight = 0
            for p, e in ma:
                X, x = p
                kX, kx = X.order_key, x.order_key
                for q, f in mb:
                    Y, y = q
                    lk2 = doubled_linking(kX, kx, Y.order_key, y.order_key)
                    if not lk2:
                        continue
                    weight = e * f * lk2
                    alpha_weight += weight
                    if X is not y and Y is not x:  # else a swapped pair is 0
                        swaps.append(((((X, y), 1), ((Y, x), 1), (p, -1), (q, -1)), weight))
            if not swaps and not alpha_weight:
                continue
            product = _shifted(dict(ma), mb)  # the exponents of m1.m2
            nab = na * nb
            scaled = nab * swap_scale
            for change, weight in swaps:
                m = frozenset.__new__(Monomial, _shifted(product.copy(), change).items())
                acc[m] = acc.get(m, 0) + scaled * weight
            if alpha_scale and alpha_weight:
                m = frozenset.__new__(Monomial, product.items())
                acc[m] = acc.get(m, 0) + nab * alpha_weight * alpha_scale
    return _reduced(a.config, acc, 2 * a._denominator * b._denominator * swap_scale)


def jacobiator(a, b, c, alpha=0) -> AlgebraElement:
    """{{a,b},c} + {{b,c},a} + {{c,a},b}; identically zero."""
    cycled = ((a, b, c), (b, c, a), (c, a, b))
    return _sum(a.config, [swap_bracket(swap_bracket(x, y, alpha), z, alpha) for x, y, z in cycled])
