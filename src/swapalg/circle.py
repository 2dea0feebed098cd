"""Exact points on the oriented circle and the linking form on ordered pairs.

The circle is R/Z; a point is an exact rational position in [0, 1).  The
linking form assigns to two ordered pairs (X, x) and (Y, y) the half-integer

    [Xx, Yy] = 1/2 (Sign(X-x) Sign(X-y) Sign(y-x) - Sign(X-x) Sign(X-Y) Sign(Y-x)),

evaluated after the circle has been cut at a point disjoint from the
arguments and unrolled to the line.  With Sign(0) = 0 this is well defined
for every quadruple, takes values in {-1, -1/2, 0, 1/2, 1}, and does not
depend on the cut.  For four distinct points it counts (with sign) how the
chord X->x crosses the chord Y->y.

Everything here is exact: positions are `fractions.Fraction`, linking values
are `Fraction`, and identity checks compare with exact zero.  All values are
immutable, so the functions are safe to call concurrently.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .errors import ConfigMismatchError, InvalidCutError, SwapAlgError

Rational = Fraction  # positions and linking values are exact rationals

HALF = Fraction(1, 2)


def _sign(a: Fraction) -> int:
    return (a > 0) - (a < 0)


def as_position(value) -> Fraction:
    """Coerce to an exact position in [0, 1).

    Floats are converted exactly (they are dyadic rationals), so positions
    obtained from numeric backends stay consistent with their float order.
    """
    pos = Fraction(value)
    return pos % 1


class CirclePoint:
    """A labeled point of the circle, owned by a :class:`PointConfig`.

    Two points are equal when they live in the same configuration and have
    the same position; labels are bookkeeping for parsing and printing.
    """

    __slots__ = ("label", "position", "config", "_hash")

    def __init__(self, label: str, position: Fraction, config: "PointConfig"):
        self.label = label
        self.position = position
        self.config = config
        # hashing a Fraction is slow, and points are hashed in every bracket
        self._hash = hash((id(config), position))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, CirclePoint)
            and self.config is other.config
            and self.position == other.position
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CirclePoint({self.label!r}, {self.position})"


class PointConfig:
    """A finite configuration of labeled circle points.

    Labels are unique.  Registering a second label at an existing position
    aliases the existing point (the two labels denote the same point);
    registering an existing label at a different position is an error.

    An optional `cut` fixes the base point used to unroll the circle; by
    default every linking computation picks its own valid cut, and the
    values agree either way.
    """

    def __init__(self, cut=None):
        self._by_position: dict[Fraction, CirclePoint] = {}
        self._by_label: dict[str, CirclePoint] = {}
        self.cut = None if cut is None else as_position(cut)

    def point(self, label: str, position) -> CirclePoint:
        pos = as_position(position)
        existing = self._by_label.get(label)
        if existing is not None:
            if existing.position != pos:
                raise SwapAlgError(
                    f"label {label!r} already registered at {existing.position}"
                )
            return existing
        alias = self._by_position.get(pos)
        if alias is not None:
            self._by_label[label] = alias
            return alias
        pt = CirclePoint(label, pos, self)
        self._by_position[pos] = pt
        self._by_label[label] = pt
        return pt

    def __getitem__(self, label: str) -> CirclePoint:
        try:
            return self._by_label[label]
        except KeyError:
            raise SwapAlgError(f"unknown point label {label!r}") from None

    def __contains__(self, label: str) -> bool:
        return label in self._by_label

    def labels(self) -> list[str]:
        return list(self._by_label)

    def points(self) -> list[CirclePoint]:
        return sorted(self._by_position.values(), key=lambda p: p.position)

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
        return Fraction(1, 2)
    if len(ps) == 1:
        return (ps[0] + HALF) % 1
    best_gap = None
    best_mid = None
    for i, p in enumerate(ps):
        q = ps[(i + 1) % len(ps)]
        gap = (q - p) % 1
        if best_gap is None or gap > best_gap:
            best_gap = gap
            best_mid = (p + gap / 2) % 1
    return best_mid


def _unroll(positions: Sequence[Fraction], cut) -> list[Fraction]:
    if cut is None:
        cut = default_cut(positions)
    else:
        cut = as_position(cut)
        if cut in set(positions):
            raise InvalidCutError("invalid cut")
    return [(p - cut) % 1 for p in positions]


def linking_number(
    X: CirclePoint, x: CirclePoint, Y: CirclePoint, y: CirclePoint, cut=None
) -> Fraction:
    """Linking number [Xx, Yy] of the ordered pairs (X, x) and (Y, y)."""
    config = ensure_same_config(X, x, Y, y)
    if cut is None:
        cut = config.cut
    a, b, c, d = _unroll((X.position, x.position, Y.position, y.position), cut)
    s_ab = _sign(a - b)
    return HALF * (
        s_ab * _sign(a - d) * _sign(d - b) - s_ab * _sign(a - c) * _sign(c - b)
    )


def six_point_F(X, x, Y, y, Z, z, cut=None) -> Fraction:
    """[Xx,Yy][Xy,Zz] + [Zz,Xx][Zx,Yy] + [Yy,Zz][Yz,Xx].

    Vanishes whenever {X,x}, {Y,y}, {Z,z} have no common point; nonzero
    values occur only in degenerate configurations such as F(X,x,Y,x,Z,x).
    """
    ensure_same_config(X, x, Y, y, Z, z)
    if cut is None:
        cut = default_cut(
            (X.position, x.position, Y.position, y.position, Z.position, z.position)
        )
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
    ensure_same_config(X, x, Y, y, Z, z)
    if cut is None:
        cut = default_cut(
            (X.position, x.position, Y.position, y.position, Z.position, z.position)
        )
    lk = lambda A, a, B, b: linking_number(A, a, B, b, cut=cut)
    return (
        lk(X, x, Y, y) * lk(Y, x, Z, z)
        + lk(Z, z, X, x) * lk(X, z, Y, y)
        + lk(Y, y, Z, z) * lk(Z, y, X, x)
    )


def cocycle_defect(z, y, X, Y, Z, cut=None) -> Fraction:
    """[zy,XY] + [zy,YZ] + [zy,ZX]; identically zero."""
    ensure_same_config(z, y, X, Y, Z)
    if cut is None:
        cut = default_cut(
            (z.position, y.position, X.position, Y.position, Z.position)
        )
    lk = lambda A, a, B, b: linking_number(A, a, B, b, cut=cut)
    return lk(z, y, X, Y) + lk(z, y, Y, Z) + lk(z, y, Z, X)
