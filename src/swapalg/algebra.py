"""Laurent polynomials in ordered pairs of circle points.

Generators are ordered pairs Xx of points of one configuration, subject to
the single relation Xx = 0 whenever X = x.  A pair is a tuple of two
identity-equal points, and a monomial is the frozenset of its (pair,
exponent) powers.  Elements are finite sums of Laurent monomials (generator
pairs with nonzero integer exponents) with exact rational coefficients and
no zero coefficient; zero is the empty sum.  Equality is therefore
syntactic, and needs no order.  Canonical order (pairs by left point, then
right point, in the configuration's position order; terms by degree, then
pairs) is applied only where an element is read out: printing, `terms()`,
the fraction views and `evaluate`.  It compares the points' order keys
(`CirclePoint.order_key`), which order them as their positions do.

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
computed on integers: the coefficients of each operand as numerators over
their common denominator, the Leibniz weights as doubled linking numbers,
and one exact `Fraction` made per result monomial over the product of the
denominators.

Values are immutable; operations build fresh elements, and expansion order
never affects the result (terms are accumulated into a canonical map), so
bracket computations may be partitioned and merged freely.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import gcd
from operator import itemgetter

from .circle import CirclePoint, PointConfig, doubled_linking, ensure_same_config, require_point_order
from .errors import ConfigMismatchError, EvaluationError, SwapAlgError


class GeneratorPair(tuple):
    """An ordered pair of distinct circle points; one algebra generator.

    A tuple (left, right) of identity-equal points, so equality and hash
    are the tuple's: equal pairs join the same points in the same order.
    """

    __slots__ = ()

    def __new__(cls, left: CirclePoint, right: CirclePoint):
        if left is right:
            raise SwapAlgError("degenerate pair: left point equals right point")
        ensure_same_config(left, right)
        return tuple.__new__(cls, (left, right))

    left = property(itemgetter(0))
    right = property(itemgetter(1))

    @property
    def key(self):
        """(left position, right position), the order canonical sorting
        follows (it compares the points' order keys, which order them alike)."""
        return (self[0].position, self[1].position)

    def __repr__(self):
        return f"[{self[0].label} {self[1].label}]"


def _pair_key(power):
    (X, x), _ = power
    return X.order_key, x.order_key


class Monomial(frozenset):
    """A Laurent monomial: the frozenset of its (pair, exponent) powers.

    Each pair occurs once, with a nonzero integer exponent, so equality and
    hash are the set's.  Canonical order, by pair key, is applied only on
    read-out: `pairs` and `repr`.  `Monomial(pairs)` builds the polynomial
    monomial of a multiset of pairs.
    """

    __slots__ = ()

    def __new__(cls, pairs=()):
        return frozenset.__new__(cls, Counter(pairs).items())

    @classmethod
    def _from_exponents(cls, exponents) -> "Monomial":
        return frozenset.__new__(cls, ((p, e) for p, e in exponents.items() if e))

    @property
    def pairs(self) -> tuple[GeneratorPair, ...]:
        """The pairs with multiplicity, in canonical order; polynomials only."""
        if any(e < 0 for _, e in self):
            raise SwapAlgError("monomial has negative exponents")
        return tuple(p for p, e in sorted(self, key=_pair_key) for _ in range(e))

    @property
    def degree(self) -> int:
        return sum(e for _, e in self)

    def _times(self, powers) -> "Monomial":
        exponents = dict(self)
        for p, e in powers:
            e += exponents.get(p, 0)
            if e:
                exponents[p] = e
            else:
                del exponents[p]
        return frozenset.__new__(Monomial, exponents.items())

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
        for p, e in sorted(self, key=_pair_key):
            parts += [repr(p)] * e if e > 0 else [f"{p!r}^{e}"]
        return "*".join(parts) or "1"


ONE = Monomial()


def _coerce_scalar(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact rational scalar, got {type(value).__name__}")


def _canonical_order(term):
    """Sort key of a polynomial term: degree, then its pairs' order keys."""
    pairs = sorted((X.order_key, x.order_key) for (X, x), e in term[0] for _ in range(e))
    return len(pairs), pairs


def _content(terms) -> Fraction:
    """gcd of the coefficients, signed like the leading (first) term."""
    num = 0
    den = 1
    for _, c in terms:
        num = gcd(num, c.numerator)
        den = den * c.denominator // gcd(den, c.denominator)
    content = Fraction(num, den)
    return -content if terms[0][1] < 0 else content


class AlgebraElement:
    """A finite rational combination of Laurent monomials over one configuration."""

    __slots__ = ("config", "_terms")

    def __init__(self, config: PointConfig, terms: dict | None = None):
        self.config = config
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(config: PointConfig) -> "AlgebraElement":
        return AlgebraElement(config, {})

    @staticmethod
    def one(config: PointConfig) -> "AlgebraElement":
        return AlgebraElement(config, {ONE: Fraction(1)})

    @staticmethod
    def scalar(config: PointConfig, value) -> "AlgebraElement":
        return AlgebraElement(config, {ONE: _coerce_scalar(value)})

    @staticmethod
    def from_monomial(config, monomial: Monomial, coeff=Fraction(1)) -> "AlgebraElement":
        if any(X.config is not config for (X, _), _ in monomial):
            raise ConfigMismatchError("monomial over a different configuration")
        return AlgebraElement(config, {monomial: _coerce_scalar(coeff)})

    # -- inspection ---------------------------------------------------

    def _split(self):
        """The reduced fraction: (numerator terms, denominator, content).

        The denominator is the smallest monomial clearing every negative
        exponent, so no pair divides it and all numerator monomials at
        once.  Numerator terms come in canonical order, by (degree, pair
        keys), with their coefficients; the content is their gcd, signed
        like the leading term, and 0 for the zero element.
        """
        if not self._terms:
            return [], ONE, Fraction(0)
        lowest: dict[GeneratorPair, int] = {}
        for m in self._terms:
            for p, e in m:
                if e < lowest.get(p, 0):
                    lowest[p] = e
        denominator = Monomial._from_exponents({p: -e for p, e in lowest.items()})
        terms = sorted(
            ((m * denominator, c) for m, c in self._terms.items()),
            key=_canonical_order,
        )
        return terms, denominator, _content(terms)

    def terms(self):
        """Terms in canonical order, as (monomial, coefficient) pairs."""
        terms, denominator, _ = self._split()
        inverse = denominator.inverse()
        return [(m * inverse, c) for m, c in terms]

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self):
        """The monomials with nonzero coefficient, in no particular order."""
        return list(self._terms)

    def degrees(self) -> set[int]:
        return {m.degree for m in self._terms}

    @property
    def numerator(self) -> "AlgebraElement":
        """The numerator of the reduced fraction, a polynomial of content one."""
        terms, _, content = self._split()
        return AlgebraElement(self.config, {m: c / content for m, c in terms})

    @property
    def denominator(self) -> Monomial:
        return self._split()[1]

    @property
    def scale(self) -> Fraction:
        """The content: self = scale * numerator / denominator."""
        return self._split()[2]

    # -- ring operations ----------------------------------------------

    def _check(self, other: "AlgebraElement"):
        if self.config is not other.config:
            raise ConfigMismatchError("elements over different configurations")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.scalar(self.config, other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        acc = dict(self._terms)
        for m, c in other._terms.items():
            acc[m] = acc.get(m, 0) + c
        return AlgebraElement(self.config, acc)

    __radd__ = __add__

    def __neg__(self):
        return AlgebraElement(self.config, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = AlgebraElement.scalar(self.config, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = _coerce_scalar(other)
            return AlgebraElement(self.config, {m: c * v for m, v in self._terms.items()})
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check(other)
        acc: dict[Monomial, Fraction] = {}
        for ma, ca in self._terms.items():
            for mb, cb in other._terms.items():
                m = ma * mb
                acc[m] = acc.get(m, 0) + ca * cb
        return AlgebraElement(self.config, acc)

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "AlgebraElement":
        """Reciprocal; defined for a single nonzero term."""
        if self.is_zero:
            raise ZeroDivisionError("zero has no inverse")
        if len(self._terms) != 1:
            raise SwapAlgError("only monomial fractions are invertible")
        ((monomial, coeff),) = self._terms.items()
        return AlgebraElement(self.config, {monomial.inverse(): 1 / coeff})

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
        return self.config is other.config and self._terms == other._terms

    def __hash__(self):
        return hash((id(self.config), frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero:
            return "0"
        terms, denominator, content = self._split()
        parts = []
        for m, c in terms:
            if m.degree == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(repr(m))
            elif c == -1:
                parts.append(f"-{m!r}")
            else:
                parts.append(f"{c} {m!r}")
        num = " + ".join(parts).replace("+ -", "- ")
        if denominator.degree == 0:
            return num
        if len(terms) > 1 or content != 1:
            num = f"({num})"
        den = repr(denominator)
        if denominator.degree > 1:
            den = f"({den})"
        return f"{num} / {den}"

    # -- evaluation -------------------------------------------------------

    def evaluate(self, pair_value) -> float:
        """Numeric value given a map (left point, right point) -> number.

        Only balanced elements are scale-free under the per-point scale
        ambiguity of the backends, so unbalanced input is rejected.  The
        value is scale * numerator / denominator, summed in canonical
        order.
        """
        if not is_balanced(self):
            raise EvaluationError("scale-dependent: fraction is not balanced")
        if self.is_zero:
            return 0.0
        terms, denominator, content = self._split()
        den = 1.0
        for p in denominator.pairs:
            den *= pair_value(p.left, p.right)
        if den == 0.0:
            raise EvaluationError("degenerate evaluation: denominator vanishes")
        num = 0.0
        for m, c in terms:
            v = float(c / content)
            for p in m.pairs:
                v *= pair_value(p.left, p.right)
            num += v
        return float(content) * num / den


def is_balanced(f: AlgebraElement) -> bool:
    """True when every monomial has net exponent zero at each point, as a
    left point and as a right point.

    Equivalently, every numerator monomial carries the same multiset of
    left points and of right points as the denominator.  Such elements are
    exactly the ones whose numeric value is independent of the per-point
    scale choices of an evaluation backend.  Zero counts as balanced.
    """
    for m in f._terms:
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
    return AlgebraElement.from_monomial(config, Monomial((GeneratorPair(X, x),)))


def _integer_terms(element: AlgebraElement):
    """The terms as (monomial, integer numerator) over one common denominator,
    the lcm of the coefficients' denominators: (terms, denominator)."""
    den = 1
    for c in element._terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    return [(m, c.numerator * (den // c.denominator)) for m, c in element._terms.items()], den


def swap_bracket(a: AlgebraElement, b: AlgebraElement, alpha=0) -> AlgebraElement:
    """Swapping bracket {a, b}_alpha, extended by bilinearity and Leibniz.

    On Laurent monomials the Leibniz rule carries the exponents as weights:

        {m1, m2} = sum over p in m1, q in m2 of  e_p f_q (m1/p)(m2/q) {p, q},

    with e_p, f_q the exponents of p in m1 and of q in m2.  The arithmetic
    is on integers over one common denominator: each operand's coefficients
    become integer numerators over the lcm of their denominators (da, db),
    the weights are the integers e_p f_q 2[p, q] of `doubled_linking` on
    the points' order keys, and alpha = s/t scales the swapped terms by t
    and the alpha terms by s.  Each output monomial's integer sum becomes
    one `Fraction` over 2 da db t, and a sum that cancels to zero is
    dropped.  On fractions built from cross fractions the result does not
    depend on alpha.
    """
    if a.config is not b.config:
        raise ConfigMismatchError("elements over different configurations")
    alpha = _coerce_scalar(alpha)
    if not (any(a._terms) and any(b._terms)):
        return AlgebraElement.zero(a.config)  # a constant brackets to zero, with no linking
    require_point_order(a.config)
    terms_a, da = _integer_terms(a)
    terms_b, db = _integer_terms(b)
    swap_scale, alpha_scale = alpha.denominator, alpha.numerator
    acc: dict[Monomial, int] = {}
    for ma, na in terms_a:
        for mb, nb in terms_b:
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
                    if X is not y and Y is not x:
                        change = (
                            (GeneratorPair(X, y), 1),
                            (GeneratorPair(Y, x), 1),
                            (p, -1),
                            (q, -1),
                        )
                        swaps.append((change, weight))
            if not swaps and not alpha_weight:
                continue
            product = ma * mb
            nab = na * nb
            scaled = nab * swap_scale
            for change, weight in swaps:
                m = product._times(change)
                acc[m] = acc.get(m, 0) + scaled * weight
            if alpha_scale and alpha_weight:
                acc[product] = acc.get(product, 0) + nab * alpha_weight * alpha_scale
    den = 2 * da * db * swap_scale
    return AlgebraElement(a.config, {m: Fraction(n, den) for m, n in acc.items() if n})


def jacobiator(a, b, c, alpha=0) -> AlgebraElement:
    """{{a,b},c} + {{b,c},a} + {{c,a},b}; identically zero."""
    return (
        swap_bracket(swap_bracket(a, b, alpha), c, alpha)
        + swap_bracket(swap_bracket(b, c, alpha), a, alpha)
        + swap_bracket(swap_bracket(c, a, alpha), b, alpha)
    )
