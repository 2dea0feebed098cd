"""Exact points on the oriented circle and the linking form on ordered pairs.

The circle is R/Z; a point is an exact rational position in [0, 1).  The
linking form assigns to two ordered pairs (X, x) and (Y, y) the half-integer

    [Xx, Yy] = 1/2 (ori(X,x,y) - ori(X,x,Y)),  ori(a,b,c) = Sign(a-b) Sign(a-c) Sign(c-b),

computed on any keys in the order of the raw positions.  `ori` is the
cyclic orientation of three points (0 when two coincide); rotating the
circle flips two of its factors, so no cut is needed.  The form takes values
in {-1, -1/2, 0, 1/2, 1}; for four distinct points it counts (with sign) how
the chord X->x crosses Y->y.  Without a cut, the keys are the points' order
keys (`CirclePoint.order_key`), which order them exactly as their positions
do.  A cut, given per call only, is an optional reference route: the
`Fraction` positions are unrolled from it and the same formula is applied to
them.

Everything here is exact: positions are `fractions.Fraction`, linking values
are `Fraction`, and identity checks compare with exact zero.  Points,
positions and order keys are immutable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigMismatchError, InvalidCutError, SwapAlgError

HALF = Fraction(1, 2)
_HALVES = {k: Fraction(k, 2) for k in range(-2, 3)}


def _cmp(a, b) -> int:
    return (a > b) - (a < b)


def doubled_linking(a, b, c, d, cmp=_cmp) -> int:
    """2 [Xx, Yy] from order keys a, b, c, d of X, x, Y, y.

    `cmp(i, j)` is the sign of key i minus key j; keys in the linear order
    of the points (order keys, ranks, or positions unrolled from a cut) all
    give the same value.
    """
    return cmp(a, b) * (cmp(a, d) * cmp(d, b) - cmp(a, c) * cmp(c, b))


def as_position(value) -> Fraction:
    """Coerce to an exact position in [0, 1).

    Floats are converted exactly (they are dyadic rationals), so positions
    obtained from numeric backends stay consistent with their float order.
    A `Fraction` already in [0, 1) is returned as it is.
    """
    if isinstance(value, Fraction) and 0 <= value.numerator < value.denominator:
        return value
    return Fraction(value) % 1


class CirclePoint:
    """A labeled point of the circle, owned by a :class:`PointConfig`.

    Only :meth:`PointConfig.point` builds points, and it returns the existing
    point for a known position, so two points are equal (same configuration,
    same position) exactly when they are the same object.  Labels are
    bookkeeping for parsing and printing.

    `order_key` is ``(float(position), position)``: float conversion is
    monotone, and the `Fraction` breaks float ties exactly, so keys order
    points exactly as their positions do, and distinct floats decide a
    comparison without touching the `Fraction`.  The float is the integer
    true division ``numerator / denominator``, correctly rounded, the one
    `Fraction.__float__` makes through the generic `numbers.Rational`
    method.
    """

    __slots__ = ("label", "position", "config", "order_key")

    def __init__(self, label: str, position: Fraction, config: "PointConfig"):
        self.label = label
        self.position = position
        self.config = config
        self.order_key = (position.numerator / position.denominator, position)

    def __repr__(self):
        return f"CirclePoint({self.label!r}, {self.position})"


class PointConfig:
    """A finite configuration of labeled circle points.

    Labels are unique.  Registering a second label at an existing position
    aliases the existing point (the two labels denote the same point);
    registering an existing label at a different position is an error.
    Points are found by position through a map keyed by the position's
    (numerator, denominator): a normalized `Fraction` is determined by
    these two integers, and an integer tuple hashes far faster than the
    `Fraction` does.

    Linking numbers are computed on the points' order keys; a
    configuration carries no cut.  A cut is given per call, to
    `linking_number` and the identities built on it.  Once a point is
    placed by `synthetic_point`, the configuration's order is
    `synthetic_order` and its points have no linking numbers.
    """

    def __init__(self):
        self._by_position: dict[tuple[int, int], CirclePoint] = {}
        self._by_label: dict[str, CirclePoint] = {}
        self.synthetic_order = False

    def point(self, label: str, position) -> CirclePoint:
        pos = as_position(position)
        existing = self._by_label.get(label)
        if existing is not None:
            if existing.position != pos:
                raise SwapAlgError(
                    f"label {label!r} already registered at {existing.position}"
                )
            return existing
        key = (pos.numerator, pos.denominator)
        alias = self._by_position.get(key)
        if alias is not None:
            self._by_label[label] = alias
            return alias
        pt = CirclePoint(label, pos, self)
        self._by_position[key] = pt
        self._by_label[label] = pt
        return pt

    def synthetic_point(self, label: str) -> CirclePoint:
        """A point just after every point so far, for labels with no position."""
        self.synthetic_order = True
        last = max((p.position for p in self._by_position.values()), default=0)
        return self.point(label, last + Fraction(1, 1 << 40))

    def __getitem__(self, label: str) -> CirclePoint:
        try:
            return self._by_label[label]
        except KeyError:
            raise SwapAlgError(f"unknown point label {label!r}") from None

    def points(self) -> list[CirclePoint]:
        return sorted(self._by_position.values(), key=lambda p: p.order_key)

    @classmethod
    def from_text(cls, text: str) -> "PointConfig":
        """Parse a line-oriented listing: ``label = numerator/denominator``.

        ``#`` begins a comment; blank lines are ignored.
        """
        config = cls()
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise SwapAlgError(f"line {lineno}: expected 'label = p/q', got {raw!r}")
            label, _, value = line.partition("=")
            label = label.strip()
            value = value.strip()
            if not label:
                raise SwapAlgError(f"line {lineno}: empty label")
            try:
                pos = Fraction(value)
            except (ValueError, ZeroDivisionError) as exc:
                raise SwapAlgError(f"line {lineno}: bad rational {value!r}") from exc
            config.point(label, pos)
        return config

    @classmethod
    def from_file(cls, path) -> "PointConfig":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())


def ensure_same_config(*points: CirclePoint) -> PointConfig:
    config = points[0].config
    for p in points[1:]:
        if p.config is not config:
            raise ConfigMismatchError("points belong to different configurations")
    return config


def default_cut(positions: Iterable[Fraction]) -> Fraction:
    """Midpoint of the largest gap between consecutive argument positions.

    Deterministic and guaranteed distinct from every argument.
    """
    ps = sorted(set(positions))
    if not ps:
        return HALF
    # the first largest gap; a lone point's gap is the whole circle
    gaps = [((q - p) % 1 or Fraction(1), p) for p, q in zip(ps, ps[1:] + ps[:1])]
    gap, p = max(gaps, key=lambda g: g[0])
    return (p + gap / 2) % 1


def _unroll(positions: Sequence[Fraction], cut) -> list[Fraction]:
    cut = as_position(cut)
    if cut in positions:
        raise InvalidCutError("invalid cut")
    return [(p - cut) % 1 for p in positions]


def require_point_order(config: PointConfig) -> None:
    """Refuse linking on a configuration whose order is synthetic."""
    if config.synthetic_order:
        raise SwapAlgError("linking needs the cyclic order of the points, which is synthetic here")


def linking_number(
    X: CirclePoint, x: CirclePoint, Y: CirclePoint, y: CirclePoint, cut=None
) -> Fraction:
    """Linking number [Xx, Yy] of the ordered pairs (X, x) and (Y, y).

    Computed on the points' order keys unless a cut is given, in which
    case the `Fraction` positions are unrolled from it and compared instead.
    Refused on a configuration whose order is synthetic.
    """
    require_point_order(ensure_same_config(X, x, Y, y))
    if cut is None:
        keys = X.order_key, x.order_key, Y.order_key, y.order_key
    else:
        keys = _unroll((X.position, x.position, Y.position, y.position), cut)
    return _HALVES[doubled_linking(*keys)]


def six_point_F(X, x, Y, y, Z, z, cut=None) -> Fraction:
    """[Xx,Yy][Xy,Zz] + [Zz,Xx][Zx,Yy] + [Yy,Zz][Yz,Xx].

    Vanishes whenever {X,x}, {Y,y}, {Z,z} have no common point; nonzero
    values occur only in degenerate configurations such as F(X,x,Y,x,Z,x).
    """
    lk = lambda A, a, B, b: linking_number(A, a, B, b, cut=cut)
    return (
        lk(X, x, Y, y) * lk(X, y, Z, z)
        + lk(Z, z, X, x) * lk(Z, x, Y, y)
        + lk(Y, y, Z, z) * lk(Y, z, X, x)
    )


def six_point_G(X, x, Y, y, Z, z, cut=None) -> Fraction:
    """[Xx,Yy][Yx,Zz] + [Zz,Xx][Xz,Yy] + [Yy,Zz][Zy,Xx].

    Satisfies G(X,x,Y,y,Z,z) = -F(Y,y,X,x,Z,z).
    """
    lk = lambda A, a, B, b: linking_number(A, a, B, b, cut=cut)
    return (
        lk(X, x, Y, y) * lk(Y, x, Z, z)
        + lk(Z, z, X, x) * lk(X, z, Y, y)
        + lk(Y, y, Z, z) * lk(Z, y, X, x)
    )


def cocycle_defect(z, y, X, Y, Z, cut=None) -> Fraction:
    """[zy,XY] + [zy,YZ] + [zy,ZX]; identically zero."""
    lk = lambda A, a, B, b: linking_number(A, a, B, b, cut=cut)
    return lk(z, y, X, Y) + lk(z, y, Y, Z) + lk(z, y, Z, X)
