"""Periodic differential operators on the circle as numeric objects.

An operator of order n,

    D psi = psi^(n) + q_2 psi^(n-2) + ... + q_n psi,

with 1-periodic trigonometric-polynomial coefficients, is integrated as the
companion first-order system with a classical fixed-step fourth-order
Runge-Kutta scheme.  The coefficients are sampled once into a table on
the grid and half grid; the system is linear, so each step is a matrix S_k
that does not depend on the state, and all of them are built at once from
the table.  The frames are their prefix products S_{k-1} ... S_0.  The
search for trivial holonomy and the step-halving error estimate need only
the holonomy, the full product, which they take by a pairwise tree product
of the same matrices without forming the frames.  The grid times never
change, so the cos and sin of harmonic k on a grid are computed once per
(k, steps) and kept, under a fixed memory bound, for every operator
sampled on that grid (`_grid_waves`): a table is then only the weighted
sum of its harmonics.  The Newton search sums the harmonics it does not
change once per stage, so a residual adds only its unknown modes to that
sum, and it takes the three probes of a Jacobian as one tree product over
a batch of three tables.  The search starts on a coarse 256-step grid,
where a holonomy costs little more than its numpy calls, and ends on 4096
steps; `integrate` at the last stage's grid then reuses its harmonics.
The companion matrix is trace free (there is no psi^(n-1) term), so the
frame determinant is conserved; the drift measures integration error, and
a solution whose drift exceeds `MAX_DET_DRIFT` is refused.

The frame at t has columns (psi_j, psi_j', ..., psi_j^(n-1)) for the basis
of solutions with frame(0) = Id; the holonomy is frame(1).  The one
primitive is the pairing table of left parameters Y against right
parameters y,

    F_{Y,y} = <xi(Y), xi*(y)>,
    xi(t)  = first row of frame(t)           (the solution values),
    xi*(t) = last column of frame(t)^{-1}    (the osculating hyperplane),

built by `FundamentalSolution.pairing_table` from one gathered vector per
left parameter and one covector per right parameter.

In the companion trivialisation it is a parallel-transport pairing.  The
flag structure filters jets by vanishing order, so the distinguished
section through y is the solution vanishing to maximal order there (jet
(0, ..., 0, 1) at y), and the distinguished covector through Y reads off
the solution value at Y; F_{Y,y} is their pairing.  It is independent of
the transport parameter and vanishes exactly when Y = y on the circle.
Lifts to the real line are handled through holonomy powers, taken by
repeated squaring.  Lifts and pairings sum their products in index order
with plain multiplies and adds, so none goes through BLAS or fuses a
multiply-add.

When the holonomy is +-Id the solutions define a closed projective curve,
and every observable is a quotient of pairings that is independent of all
scale choices: the cross fraction F_{X,y} F_{Y,x} / (F_{X,x} F_{Y,y}), and
the weak cross ratio

    b(x, y, z, t) = F_{x,y} F_{z,t} / (F_{z,y} F_{x,t}),

which is the same cross fraction with its arguments relabelled.

A solution is an evaluation universe like a `Representation`: `point(t)`
is grid parameter t's point in `config`, and `pair_value` is F at the
points' positions, a 1 x 1 table.  `coordinate_function` and the
observables built on it read lifts as given; each observable reads one
table, and only `coordinate_function`'s `via` route reads whole frames.

Everything is deterministic: fixed step size, no adaptivity, and query
parameters must lie on the integration grid.  An exact rational is placed
on it in integers and must lie on it exactly; a float may miss it by 1e-9
of a step.  Lifts of `MAX_LIFT_PERIODS` periods or more are refused.
"""

from __future__ import annotations

import math
import threading
from fractions import Fraction

import numpy as np

from .circle import CirclePoint, PointConfig, linking_number
from .errors import EvaluationError, SwapAlgError
from .multifraction import cross_fraction, fraction_bracket

TRIVIAL_HOLONOMY_TOLERANCE = 1e-6
# the companion matrices on the grid and half grid, (2 steps + 1) n^2
# floats per grid, are the largest array; this admits order 3 past 10^5
# steps.  A fresh Newton Jacobian holds three grids at once, so the search
# counts all three against the bound for every stage (`_require_grid`)
MAX_GRID_ENTRIES = 1 << 22
# lifts reach frames through holonomy powers, whose rounding grows with
# the power: lifting one argument of a cross fraction on the Veronese
# operator at 4096 steps moves it by 1.5e-8 relative at 2^20 periods,
# 2.4e-7 at 2^24 and 1.6e-2 at 2^40 (medians over 50 random quadruples)
MAX_LIFT_PERIODS = 1 << 20
# frame determinants are exactly 1 for the true solutions; a drift beyond
# this bound means the frames have lost their leading digits (to step error
# or to cancellation among huge entries), so no pairing of them means
# anything.  The Veronese operator of order 3 drifts 7.9e-7 at 64 steps,
# q_2 = -100 drifts 1.3e-5 and q_2 = -300 drifts 3.1e-2 there, and
# q_2 = -1000 drifts 1.4e11 at 64 steps and 2.7e11 at 4096.
MAX_DET_DRIFT = 1e-3
# a later Newton stage keeps its first step, taken with the Jacobian carried
# from the stage before (a chord step), only when the step shrinks max|r| at
# least this many times over.  On the oper workload's harmonics the
# 4096-step stage starts near 1e-11 and the chord step lands at the
# rounding floor, near 1e-14; a smaller gain means the carried Jacobian is
# off, and the step is taken again with a fresh one.
_CHORD_SHRINK = 10.0


class OperSpec:
    """Coefficients q_2..q_n of an order-n operator, as trigonometric
    polynomials: lists of (harmonic k, cosine amplitude, sine amplitude)."""

    def __init__(self, order: int, coefficients: dict | None = None):
        if order < 2:
            raise SwapAlgError("operator order must be at least 2")
        self.order = order
        self.coefficients: dict[int, tuple[tuple[int, float, float], ...]] = {}
        for index, harmonics in (coefficients or {}).items():
            if not 2 <= index <= order:
                raise SwapAlgError(f"coefficient index {index} outside 2..{order}")
            self.coefficients[index] = tuple(
                (int(k), float(c), float(s)) for k, c, s in harmonics
            )
            for k, c, s in self.coefficients[index]:
                for name, value in (("cos", c), ("sin", s)):
                    if not math.isfinite(value):
                        raise SwapAlgError(
                            f"q{index} harmonic k={k}: {name}={value} is not finite"
                        )

    def coefficient_values(self, index: int, times: np.ndarray) -> np.ndarray:
        """q_index at the given times."""
        return self._sum_harmonics(index, np.zeros_like(times), lambda k: _waves(k, times))

    def _grid_values(self, index: int, steps: int) -> np.ndarray:
        """q_index at the `steps`-grid times k h / 2, k = 0..2 steps, from the
        memoized harmonics (`_grid_waves`); bit-identical to
        `coefficient_values` at those times.  Run after `_require_grid`."""
        return self._sum_harmonics(index, np.zeros(2 * steps + 1), lambda k: _grid_waves(k, steps))

    def _sum_harmonics(self, index: int, out: np.ndarray, waves) -> np.ndarray:
        """Add the harmonics of q_index into `out` in their order, where
        `waves(k)` gives cos and sin of 2 pi k t at the sampled times."""
        for k, c, s in self.coefficients.get(index, ()):
            if k == 0:
                # c cos 0 + s sin 0 as it rounds, without sampling cos and sin
                out += c + s * 0.0
                continue
            cos, sin = waves(k)
            out += c * cos + s * sin
        return out

    def __repr__(self):
        return f"OperSpec(order={self.order}, coefficients={self.coefficients})"

    @classmethod
    def from_text(cls, text: str) -> "OperSpec":
        """Parse lines ``n = <int>`` then ``q<i>: k=<int> cos=<real> sin=<real>``.

        Harmonic lines may repeat; ``#`` begins a comment.  Any other field,
        a field given twice and a second ``n =`` line are refused.
        """
        order = None
        harmonics: dict[int, list] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if line.replace(" ", "").startswith("n="):
                    if order is not None:
                        raise SwapAlgError("a second 'n =' line")
                    order = int(line.split("=", 1)[1].strip())
                    continue
                if not line.startswith("q"):
                    raise SwapAlgError("expected 'n =' or 'q<i>:' line")
                head, _, rest = line.partition(":")
                index = int(head[1:])
                fields = {}
                for item in rest.split():
                    key, equals, value = item.partition("=")
                    if not equals or key not in ("k", "cos", "sin"):
                        raise SwapAlgError(f"unknown field {item!r}: expected k=, cos= or sin=")
                    if key in fields:
                        raise SwapAlgError(f"field {key}= given twice")
                    fields[key] = value
                harmonics.setdefault(index, []).append(
                    (
                        int(fields.get("k", "0")),
                        float(fields.get("cos", "0")),
                        float(fields.get("sin", "0")),
                    )
                )
            except (SwapAlgError, ValueError) as exc:
                raise SwapAlgError(f"line {lineno}: {exc}") from None
        if order is None:
            raise SwapAlgError("missing 'n = <int>' line")
        return cls(order, harmonics)

    @classmethod
    def from_file(cls, path) -> "OperSpec":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read())


def veronese_oper(order: int) -> OperSpec:
    """The oper of the circle's Veronese curve (base point of the family).

    Solutions are the degree-(n-1) monomials in (cos pi t, sin pi t); the
    holonomy is (-1)^(n-1) Id.  Supported for orders 2 and 3.
    """
    if order == 2:
        return OperSpec(2, {2: [(0, math.pi**2, 0.0)]})
    if order == 3:
        return OperSpec(3, {2: [(0, 4.0 * math.pi**2, 0.0)]})
    raise SwapAlgError("veronese_oper supports orders 2 and 3")


class FundamentalSolution:
    """Frames of a solution basis on a uniform grid over [0, 1].

    `frames` has shape (steps + 1, n, n).  The frame determinants, and the
    frame inverses that `frame_inverse` builds on first use, are taken in
    closed form for n <= 3 (the adjugate over the determinant, computed
    entry by entry over the stack) and by `np.linalg` for larger n; the
    determinants are taken once, for the drift check, and kept for the
    inverses.  The inverse holonomy is the last of those inverses, so a
    negative holonomy power inverts nothing.  Frames whose determinants
    drift from 1 by more than `MAX_DET_DRIFT` are refused.
    """

    __slots__ = (
        "oper", "steps", "frames", "_dets", "_inverses", "holonomy", "holonomy_kind", "det_drift",
        "config", "_points",
    )

    def __init__(self, oper: OperSpec, steps: int, frames: np.ndarray):
        self.oper = oper
        self.steps = steps
        self.frames = frames
        self._inverses = None
        self.config = PointConfig()
        self._points: dict[int, CirclePoint] = {}
        self.holonomy = frames[steps].copy()
        self.holonomy_kind = _classify_holonomy(self.holonomy)
        with np.errstate(over="ignore", invalid="ignore"):
            self._dets = _det(frames.transpose(1, 2, 0))
        _require_finite(self._dets, steps, "frame determinants")
        self.det_drift = float(np.max(np.abs(self._dets - 1.0)))
        if self.det_drift > MAX_DET_DRIFT:
            raise SwapAlgError(
                f"the solutions are unreliable: frame determinants drift {self.det_drift:.3e} "
                f"from 1 at {steps} steps, beyond {MAX_DET_DRIFT:g}"
            )

    # -- grid access -----------------------------------------------------

    def grid_index(self, t) -> int:
        """Index of a parameter on the grid; rejects off-grid values.

        An exact rational (int or Fraction) must lie on the grid exactly,
        checked in integers; a float may miss it by 1e-9 of a step.  Lifts
        of `MAX_LIFT_PERIODS` periods or more are refused.
        """
        limit = MAX_LIFT_PERIODS * self.steps
        if isinstance(t, (int, Fraction)):
            j, rest = divmod(t.numerator * self.steps, t.denominator)
            within = abs(j) < limit
        else:
            scaled = float(t) * self.steps
            within = abs(scaled) < limit  # false for nan and inf
            j = round(scaled) if within else 0
            rest = abs(scaled - j) > 1e-9
        if not within:
            text = str(t) if len(str(t)) <= 40 else str(t)[:20] + "..."
            raise SwapAlgError(f"parameter {text} lies {MAX_LIFT_PERIODS} or more periods from 0")
        if rest:
            raise SwapAlgError(f"parameter {t} does not lie on the {self.steps}-point grid")
        return j

    def frame(self, t) -> np.ndarray:
        """Frame at a lift t in R; uses holonomy powers outside [0, 1)."""
        m, r = divmod(self.grid_index(t), self.steps)
        base = self.frames[r]
        if m == 0:
            return base
        return _product(base, self._holonomy_power(m))

    def frame_inverse(self, t) -> np.ndarray:
        m, r = divmod(self.grid_index(t), self.steps)
        inv = self._frame_inverses()[r]
        if m == 0:
            return inv
        return _product(self._holonomy_power(-m), inv)

    def _frame_inverses(self) -> np.ndarray:
        if self._inverses is None:
            cf_inverses = _inverse(self.frames.transpose(1, 2, 0), self._dets)
            self._inverses = np.ascontiguousarray(cf_inverses.transpose(2, 0, 1))
        return self._inverses

    def _holonomy_power(self, m: int) -> np.ndarray:
        """H^m for m != 0, by repeated squaring with `_product`; a negative
        power raises the inverse holonomy, frame(1)^-1."""
        a = self.holonomy if m > 0 else self._frame_inverses()[self.steps]
        m = abs(m)
        power = None
        while True:
            if m & 1:
                power = a if power is None else _product(power, a)
            m >>= 1
            if not m:
                return power
            a = _product(a, a)

    def pairing_table(self, lefts, rights) -> list[list[float]]:
        """The p x q table F_{Y,y} for lifts Y in `lefts` and y in `rights`.

        Each parameter is placed on the grid once, and gives one vector
        xi(Y), row 0 of `frame(Y)`, or one covector xi*(y), the last column
        of `frame_inverse(y)`; entry [i][j] is their pairing, summed over k
        in ascending order with plain multiplies and adds, as `_product`
        sums.  Rows follow `lefts`, columns `rights`.
        """
        covectors = [self.frame_inverse(y)[:, -1].tolist() for y in rights]
        vectors = [self.frame(Y)[0].tolist() for Y in lefts]
        return [[_dot(v, w) for w in covectors] for v in vectors]

    def point(self, t) -> CirclePoint:
        """Grid parameter t's point in `config`, shared by all its lifts;
        made the first time its grid index r is seen."""
        r = self.grid_index(t) % self.steps
        point = self._points.get(r)
        if point is None:
            point = self._points[r] = self.config.point(f"t{r}", Fraction(r, self.steps))
        return point

    def pair_value(self, X: CirclePoint, x: CirclePoint) -> float:
        """F_{X,x} at the points' positions, a 1 x 1 table; needs trivial
        holonomy.  A point paired with itself is exactly 0.0."""
        _require_trivial(self)
        ((value,),) = self.pairing_table((X.position,), (x.position,))
        return 0.0 if X is x else value


def _require_grid(order: int, steps: int, batch: int = 1) -> None:
    """The step floor and the size guard, for `batch` grids alive at once.

    Run before any array of the grid's size is made.
    """
    if steps < 64:
        raise SwapAlgError("use at least 64 steps")
    entries = batch * (2 * steps + 1) * order**2
    if entries > MAX_GRID_ENTRIES:
        grids = "per grid array" if batch == 1 else f"for {batch} grids at once"
        raise SwapAlgError(
            f"order {order} at {steps} steps needs {entries} matrix entries "
            f"{grids}, more than {MAX_GRID_ENTRIES}"
        )


def _grid_times(steps: int) -> np.ndarray:
    """The grid and half-grid parameters k h / 2, k = 0..2 steps."""
    h = 1.0 / steps
    return np.arange(2 * steps + 1) * (h / 2.0)


def _waves(k: int, times: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k t at the given times."""
    w = 2.0 * math.pi * k * times
    return np.cos(w), np.sin(w)


# the harmonics memo of `_grid_waves`: (k, steps) -> (cos, sin), the least
# recently used first, holding at most `_WAVE_MEMO_FLOATS` floats in all
_wave_memo: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
_wave_lock = threading.Lock()
_WAVE_MEMO_FLOATS = 1 << 17


def _grid_waves(k: int, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """cos and sin of 2 pi k t at the `steps`-grid times, as read-only arrays.

    They are `_waves(k, _grid_times(steps))`, computed once per (k, steps)
    and kept in a least-recently-used memo that retains at most
    `_WAVE_MEMO_FLOATS` = 2^17 floats (1 MiB), whatever grids are asked
    for: a new entry evicts the least recently used ones until it fits, and
    a grid whose two arrays alone exceed the bound is computed and not
    kept.  The oper workload's grids, k = 1, 2, 3 at 256 and 4096 steps,
    hold 0.42 MB.  Run after `_require_grid`.
    """
    key = (k, steps)
    with _wave_lock:
        waves = _wave_memo.pop(key, None)
        if waves is not None:
            _wave_memo[key] = waves  # now the most recently used
            return waves
    waves = _waves(k, _grid_times(steps))
    for array in waves:
        array.flags.writeable = False
    size = 2 * waves[0].size
    if size <= _WAVE_MEMO_FLOATS:
        with _wave_lock:
            held = sum(2 * cos.size for cos, _ in _wave_memo.values())
            for oldest in list(_wave_memo):
                if held + size <= _WAVE_MEMO_FLOATS:
                    break
                held -= 2 * _wave_memo.pop(oldest)[0].size
            _wave_memo[key] = waves
    return waves


def _coefficient_table(oper: OperSpec, steps: int) -> np.ndarray:
    """q_2..q_n on the grid and half grid: row i - 2 holds q_i at k h / 2."""
    _require_grid(oper.order, steps)
    return np.array([oper._grid_values(i, steps) for i in range(2, oper.order + 1)])


# -- the stack kernel ---------------------------------------------------------
#
# Stacks of N small matrices are laid out components-first, (n, n, N): entry
# (i, j) of every matrix is one contiguous array, and the arithmetic is
# elementwise over those arrays.  numpy's `@` hands a stack to BLAS one small
# matrix at a time, and the strided (N, n, n) elementwise form is slower
# still.  A product broadcasts whole stacks, 2n - 1 array operations at every
# n, all plain multiplies and adds: nothing fuses a multiply-add, which BLAS
# and `np.einsum` may do on some hosts, so products round the same
# everywhere.  Determinants and inverses are closed forms for n <= 3 and go
# through `np.linalg` above that, where closed forms grow long.

_ELEMENTWISE_MAX_ORDER = 3


def _companion_times(row: np.ndarray, y: np.ndarray) -> np.ndarray:
    """A y for companion matrices A whose last row is (row, 0).

    Rows 0..n-2 of A y are rows 1..n-1 of y; its last row combines the rows
    of y with the coefficients: n (n - 1) multiply-adds per matrix.
    """
    out = np.empty_like(y)
    out[:-1] = y[1:]
    last = row[0] * y[0]
    for k in range(1, len(row)):
        last += row[k] * y[k]
    out[-1] = last
    return out


def _step_matrices(table: np.ndarray, steps: int) -> np.ndarray:
    """The RK4 step matrices S_0..S_{steps-1} of a coefficient table,
    frame(k+1) = S_k frame(k), components-first: shape (n, n, steps).

    A table of shape (n - 1, B, 2 steps + 1) is a batch of B tables, and
    gives stacks of shape (n, n, B, steps); every entry gets the same
    operations as in a single table's build.  Every product in an RK4 step
    of a linear system has a companion matrix on the left, so each is a row
    shift plus one new row (`_companion_times`).
    """
    n = len(table) + 1
    h = 1.0 / steps
    # q_index multiplies psi^(n-index), i.e. state component n-index, so
    # row[k] = -q_(n-k) is the companion matrix's last row at each time
    row = -table[::-1]
    row0, row1, row2 = row[..., :-1:2], row[..., 1::2], row[..., 2::2]
    a0 = np.zeros((n, n) + row0.shape[1:])
    for i in range(n - 1):
        a0[i, i + 1] = 1.0
    a0[-1, :-1] = row0
    eye = np.eye(n).reshape((n, n) + (1,) * (row0.ndim - 1))
    # the RK4 stages applied to y = Id, where k1 = a0, and the step
    # eye + (h / 6) (a0 + 2 k2 + 2 k3 + k4); the sum is taken in that order
    # in one buffer as the stages come, so that at most two stages of the
    # grid are alive at once
    k2 = _companion_times(row1, eye + (h / 2.0) * a0)
    k3 = _companion_times(row1, eye + (h / 2.0) * k2)
    total = a0 + 2.0 * k2
    del k2
    total += 2.0 * k3
    total += _companion_times(row2, eye + h * k3)  # k4
    total *= h / 6.0
    total += eye
    return total


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The products a_k b_k of two components-first stacks, in a new array.

    Column k of every a_k times row k of every b_k is one broadcast
    multiply over the whole stack, accumulated for k = 0..n-1 with plain
    adds: 2n - 1 array operations, and each entry is
    a[i, 0] b[0, j] + a[i, 1] b[1, j] + ... rounded in that order.  Two
    single n x n matrices multiply the same way.
    """
    out = a[:, :1] * b[None, 0]
    for k in range(1, len(a)):
        out += a[:, k:k + 1] * b[None, k]
    return out


def _det(m: np.ndarray) -> np.ndarray:
    """Determinants of a components-first stack (first-row expansion)."""
    n = len(m)
    if n > _ELEMENTWISE_MAX_ORDER:
        return np.linalg.det(np.moveaxis(m, -1, 0))
    if n == 2:
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
    return (
        m[0, 0] * (m[1, 1] * m[2, 2] - m[1, 2] * m[2, 1])
        + m[0, 1] * (m[1, 2] * m[2, 0] - m[1, 0] * m[2, 2])
        + m[0, 2] * (m[1, 0] * m[2, 1] - m[1, 1] * m[2, 0])
    )


def _inverse(m: np.ndarray, det: np.ndarray) -> np.ndarray:
    """Inverses of a components-first stack: the adjugate over its
    determinants `det`, as `_det` gives them."""
    n = len(m)
    if n > _ELEMENTWISE_MAX_ORDER:
        return np.moveaxis(np.linalg.inv(np.moveaxis(m, -1, 0)), 0, -1)
    adj = np.empty(m.shape)
    if n == 2:
        adj[0, 0], adj[0, 1] = m[1, 1], -m[0, 1]
        adj[1, 0], adj[1, 1] = -m[1, 0], m[0, 0]
    else:
        # with indices taken mod 3 the cofactor needs no sign
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                adj[j, i] = m[i1, j1] * m[i2, j2] - m[i1, j2] * m[i2, j1]
    adj /= det
    return adj


def _dot(v, w) -> float:
    """sum_k v_k w_k over two lists of floats, k ascending, each product
    rounded before it is added (the order of `_product`)."""
    total = v[0] * w[0]
    for k in range(1, len(v)):
        total += v[k] * w[k]
    return total


def _require_finite(values: np.ndarray, steps: int, what: str = "frames") -> None:
    if not np.isfinite(values).all():
        raise SwapAlgError(f"the solutions overflow: {what} are not finite at {steps} steps")


def _table_holonomy(table: np.ndarray, steps: int) -> np.ndarray:
    """frame(1) alone, as a pairwise tree product of the step matrices.

    Each level multiplies neighbouring matrices of the components-first
    stack with `_product`, an odd one out first folded into its neighbour.
    A batch of B tables (see `_step_matrices`) gives the B holonomies as an
    (n, n, B) stack, each bit-identical to its table's single call: the
    levels run over the last axis, and `_product` broadcasts over the rest.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _step_matrices(table, steps)
        while mats.shape[-1] > 1:
            if mats.shape[-1] % 2:
                mats[..., -2:-1] = _product(mats[..., -1:], mats[..., -2:-1])
                mats = mats[..., :-1]
            mats = _product(mats[..., 1::2], mats[..., ::2])
    _require_finite(mats, steps)
    return mats[..., 0]


def _holonomy(oper: OperSpec, steps: int) -> np.ndarray:
    return _table_holonomy(_coefficient_table(oper, steps), steps)


def integrate(oper: OperSpec, steps: int = 4096) -> FundamentalSolution:
    """Fixed-step classical fourth-order integration of the companion system.

    The frames are the prefix products of the per-step RK4 matrices,
    computed by a doubling scan over the components-first stack with
    `_product`: after the pass with offset d, each frame holds the product
    of up to 2d consecutive steps.
    The stack is transposed once at the end to the (steps + 1, n, n)
    frames.  Every frame must be finite: an intermediate frame can overflow
    while frame(1) does not.  So must every frame's determinant, which can
    overflow while the frames do not, and it must stay within
    `MAX_DET_DRIFT` of 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mats = _step_matrices(_coefficient_table(oper, steps), steps)
        frames = np.concatenate([np.eye(oper.order)[:, :, None], mats], axis=2)
        del mats
        d = 1
        while d < steps:
            frames[..., d:] = _product(frames[..., d:], frames[..., :-d])
            d *= 2
    _require_finite(frames, steps)
    return FundamentalSolution(oper, steps, np.ascontiguousarray(frames.transpose(2, 0, 1)))


def richardson_error(oper: OperSpec, steps: int) -> float:
    """Step-halving estimate of the holonomy error at the given resolution."""
    coarse = _holonomy(oper, steps // 2)
    fine = _holonomy(oper, steps)
    return float(np.max(np.abs(fine - coarse)) / 15.0)


def holonomy_class(sol: FundamentalSolution) -> str:
    """One of 'trivial-in-PSL', 'unipotent', 'loxodromic', 'elliptic-like'."""
    return sol.holonomy_kind


def _classify_holonomy(h: np.ndarray) -> str:
    n = h.shape[0]
    eye = np.eye(n)
    tolerance = TRIVIAL_HOLONOMY_TOLERANCE
    if np.max(np.abs(h - eye)) < tolerance or np.max(np.abs(h + eye)) < tolerance:
        return "trivial-in-PSL"
    values = np.linalg.eigvals(h)
    if np.max(np.abs(values.imag)) > 1e-8 * np.max(np.abs(values)):
        return "elliptic-like"
    mags = np.sort(np.abs(values.real))[::-1]
    if all(mags[i + 1] / mags[i] < 1.0 - tolerance for i in range(n - 1)):
        return "loxodromic"
    if np.max(np.abs(np.abs(values.real) - 1.0)) < 1e-6:
        return "unipotent"
    return "elliptic-like"


def is_psl_trivial(sol: FundamentalSolution) -> bool:
    return holonomy_class(sol) == "trivial-in-PSL"


def _require_trivial(sol: FundamentalSolution) -> None:
    if not is_psl_trivial(sol):
        raise EvaluationError("multivalued: holonomy is not trivial in PSL")


def coordinate_function(sol: FundamentalSolution, Y, y, via=None) -> float:
    """F_{Y,y}: value at Y of the solution vanishing to maximal order at y.

    Equivalently, the pairing of the dual-parallel covector that reads off
    solution values at Y with the parallel section whose jet at y is
    (0, ..., 0, 1).  `via` transports both sections to an explicit
    parameter first; the value does not depend on it.  Y and y are lifts
    in R (grid-aligned).  Without `via` it is a 1 x 1 `pairing_table`; the
    `via` route reads whole frames instead, from an independent path.
    """
    if via is None:
        return sol.pairing_table((Y,), (y,))[0][0]
    # the row xi(Y) frame(via)^-1 and the column frame(via) xi*(y)
    xi, xi_star = sol.frame(Y)[0].tolist(), sol.frame_inverse(y)[:, -1].tolist()
    left = [_dot(xi, column) for column in zip(*sol.frame_inverse(via).tolist())]
    right = [_dot(row, xi_star) for row in sol.frame(via).tolist()]
    return _dot(left, right)


def oper_cross_fraction(sol: FundamentalSolution, X, x, Y, y) -> float:
    """F_{X,y} F_{Y,x} / (F_{X,x} F_{Y,y}); requires +-Id holonomy.

    The four pairings are one 2 x 2 `pairing_table`.  Unchanged when any
    lift is shifted by an integer.
    """
    _require_trivial(sol)
    iX, ix, iY, iy = (sol.grid_index(v) % sol.steps for v in (X, x, Y, y))
    if iX == ix or iY == iy:
        raise EvaluationError("degenerate evaluation: a denominator pairing vanishes")
    (Xx, Xy), (Yx, Yy) = sol.pairing_table((X, Y), (x, y))
    den = Xx * Yy
    if den == 0.0:
        raise EvaluationError("degenerate evaluation")
    return Xy * Yx / den


def weak_cross_ratio(sol: FundamentalSolution, x, y, z, t) -> float:
    """b(x, y, z, t), which is oper_cross_fraction(x, t, z, y)."""
    return oper_cross_fraction(sol, x, t, z, y)


# -- Poisson brackets of coordinate observables ------------------------------


def _pair_bracket(lk, n, F, X, x, Y, y) -> float:
    """lk (F_{X,y} F_{Y,x} - F_{X,x} F_{Y,y} / n^2), with lk = [Xx, Yy]."""
    if lk == 0:
        return 0.0
    return float(lk) * (F(X, y) * F(Y, x) - F(X, x) * F(Y, y) / n**2)


def ds_pair_bracket(sol: FundamentalSolution, first, second) -> float:
    """{F_{X,x}, F_{Y,y}} = [Xx, Yy] (F_{X,y} F_{Y,x} - F_{X,x} F_{Y,y} / n^2).

    The bracket of two coordinate observables under the reduced Poisson
    structure on operators; the linking number is taken on the circle
    positions of the four parameters.  The pairing order shown is the one
    under which these brackets extend the swapping bracket of the
    corresponding pair algebra (checked against the symbolic route in
    `ds_crossfraction_bracket`).
    """
    (X, x), (Y, y) = first, second
    points = [sol.point(v) for v in (X, x, Y, y)]
    if len(set(points)) != 4:
        raise SwapAlgError("points must be pairwise distinct")
    lk = linking_number(*points)
    if lk == 0:
        return 0.0
    F = _table_lookup((X, Y), (x, y), sol.pairing_table((X, Y), (x, y)))
    return _pair_bracket(lk, sol.oper.order, F, X, x, Y, y)


def _table_lookup(lefts, rights, table):
    """F(A, a): the entry of `table` in A's row and a's column."""
    values = {(A, a): v for A, row in zip(lefts, table) for a, v in zip(rights, row)}
    return lambda A, a: values[A, a]


def ds_crossfraction_bracket(sol: FundamentalSolution, q0, q1, alpha=0) -> tuple[float, float]:
    """Bracket of two cross-fraction observables, computed two ways.

    `q0` and `q1` are quadruples (X, x, Y, y) of grid parameters; the
    observable is F_{X,x} F_{Y,y} / (F_{Y,x} F_{X,y}).  Both routes read
    one 4 x 4 `pairing_table`: the left parameters {X0, Y0, X1, Y1} by
    the right parameters {x0, y0, x1, y1}.  The first return value
    applies the Leibniz and quotient rules directly over the sixteen pair
    brackets of `ds_pair_bracket`; the second expands the swapping bracket
    of the two cross fractions symbolically and evaluates every generator
    pair Aa from the table (a bracket swaps right points between pairs, so
    no other pair occurs).  The two routes share nothing else but the
    linking form of their eight points in `sol.config`.  They coincide for
    every alpha: on balanced fractions the alpha term and the -1/n^2 term
    both cancel.  Requires +-Id holonomy.
    """
    _require_trivial(sol)
    if tuple(q0) == tuple(q1):
        return 0.0, 0.0  # bracket of an observable with itself, by antisymmetry
    params = list(q0) + list(q1)
    points = [sol.point(v) for v in params]
    if len(set(points)) != 8:
        raise SwapAlgError("the eight points must be pairwise distinct")
    F = _table_lookup(points[0::2], points[1::2], sol.pairing_table(params[0::2], params[1::2]))
    c0, c1 = points[:4], points[4:]

    # direct route: chain rule over pair brackets
    def log_slots(X, x, Y, y):
        return [((X, x), 1), ((Y, y), 1), ((X, y), -1), ((Y, x), -1)]

    def value(X, x, Y, y):
        return F(X, x) * F(Y, y) / (F(X, y) * F(Y, x))

    n = sol.oper.order
    ds_value = 0.0
    for a, sa in log_slots(*c0):
        for b, sb in log_slots(*c1):
            lk = linking_number(*a, *b)
            ds_value += sa * sb / (F(*a) * F(*b)) * _pair_bracket(lk, n, F, *a, *b)
    ds_value *= value(*c0) * value(*c1)

    # symbolic route: swapping bracket, then pairwise evaluation
    (X0, x0, Y0, y0), (X1, x1, Y1, y1) = c0, c1
    cf0 = cross_fraction(X0, Y0, x0, y0)
    cf1 = cross_fraction(X1, Y1, x1, y1)
    return ds_value, fraction_bracket(cf0, cf1, alpha).evaluate(F)


# -- Frenet validation --------------------------------------------------------


def frenet_validate(sol: FundamentalSolution, samples) -> dict:
    """Wedge volumes of jet blocks for weighted tuples.

    Each sample is (supports, weights) with distinct supports and total
    weight at most n.  The block of (t, j) is the first j rows of the frame
    at t (the jet of the solution curve); rows are normalized and the
    reported value is the p-dimensional volume they span, so 0 flags a
    degenerate tuple.  Returns the per-sample volumes and their minimum.
    """
    _require_trivial(sol)
    n = sol.oper.order
    volumes = []
    for supports, weights in samples:
        supports = list(supports)
        weights = list(weights)
        if len(supports) != len(weights):
            raise SwapAlgError("supports and weights must have equal length")
        if len({sol.grid_index(t) % sol.steps for t in supports}) != len(supports):
            raise SwapAlgError("supports must be pairwise distinct")
        if any(w < 1 for w in weights) or sum(weights) > n:
            raise SwapAlgError(f"weights must be positive with total at most {n}")
        rows = []
        for t, j in zip(supports, weights):
            block = sol.frame(t)[:j, :]
            rows.extend(block)
        g = np.array(rows)
        g = g / np.linalg.norm(g, axis=1, keepdims=True)
        gram = g @ g.T
        volumes.append(float(math.sqrt(max(np.linalg.det(gram), 0.0))))
    return {"volumes": volumes, "minimum": min(volumes) if volumes else None}


# -- constructing operators with trivial holonomy -----------------------------


def solve_trivial_holonomy(
    base: OperSpec,
    extra_harmonics,
    target_sign: int,
    stages=(256, 4096),
) -> OperSpec:
    """Adjust (constant, cos 2pi t, sin 2pi t) parts of q_2 by Newton
    iteration until the holonomy equals target_sign * Id.

    `extra_harmonics` is a fixed list of (k, cos, sin) contributions to q_2
    with k >= 2; the three lowest modes are the unknowns.  Order 2 only:
    the holonomy condition is three equations (entries 00, 01 and 10 of
    H - target), matching the three unknowns.  The solve runs through the
    grid resolutions in `stages`, so the final iterate is converged on the
    finest grid, in at most 25 Newton steps per stage.  The default first
    grid is coarse: a 256-step holonomy costs little more than its numpy
    calls, and on the oper workload's harmonics a 1024-step first stage
    took as many Newton steps and refused the same draws.  Each stage
    sums the fixed harmonics on its grid once, from the grid's memoized
    cos and sin (`_grid_waves`), which also give it cos 2pi t and
    sin 2pi t; a residual is that sum plus the three unknown modes, added
    in the order `OperSpec.coefficient_values` adds them (c0, then
    a1 cos + b1 sin as one term), so every iterate is the one that sampling
    `build(u)` afresh would give, bit for bit.  Each residual evaluation
    then takes the holonomy alone.  The residual tolerance 1e-12 lets the
    last Newton step land at the rounding floor: cross fractions of lifts
    go through holonomy powers, so a residual left at 1e-11 moves large
    cross fractions by more than 1e-6.  The fourth entry follows from
    det H = 1 only up to the frame determinant drift, so a result whose
    fourth entry is not within 1e-12 of the target after the last stage is
    refused.

    A Jacobian is a forward difference: three residuals at probes 1e-6
    apart, taken as one batched holonomy (`_table_holonomy` on a batch of
    three tables), each probe bit-identical to its own call.  So a stage
    may hold three grids at once, and every stage is checked against
    `MAX_GRID_ENTRIES` for that before the search starts.

    A later stage starts at the previous stage's root, where its
    Jacobian differs from the previous stage's last one only by the step
    error, O(h^4), and by the last step.  So its first step is a chord
    step with that carried Jacobian, kept when it shrinks max|r| at least
    `_CHORD_SHRINK`-fold; otherwise the trial point is dropped and the
    step is taken afresh from the same u.  Every other step builds a
    fresh Jacobian at its u.  The first stage always builds its own: it
    has nothing to carry, and it starts from u = 0, far from the root,
    where only fresh Jacobians converge quadratically.
    """
    if base.order != 2:
        raise SwapAlgError("the Newton search is implemented for order 2")
    if not stages:
        raise SwapAlgError("the Newton search needs at least one grid in stages")
    for steps in stages:
        _require_grid(2, steps, batch=3)  # a fresh Jacobian's three probes
    target = (target_sign * np.eye(2))[:, :, None]
    fixed = list(base.coefficients.get(2, ())) + list(extra_harmonics)
    fixed_oper = OperSpec(2, {2: fixed})

    def build(u):
        c0, a1, b1 = u
        return OperSpec(2, {2: fixed + [(0, c0, 0.0), (1, a1, b1)]})

    u = np.zeros(3)
    jac = None
    for steps in stages:
        fixed_q2 = fixed_oper._grid_values(2, steps)
        cos1, sin1 = _grid_waves(1, steps)

        def residuals(points):
            """The residuals and fourth entries at a (B, 3) array of
            points, from one batched holonomy: shapes (B, 3) and (B,)."""
            c0, a1, b1 = points.T[:, :, None]
            # the k = 0 mode adds c0 + 0.0 * 0.0 = c0 + 0.0, as
            # `OperSpec.coefficient_values` samples it
            q2 = fixed_q2 + (c0 + 0.0) + (a1 * cos1 + b1 * sin1)
            d = _table_holonomy(q2[None], steps) - target
            # the three equations, and the entry det H = 1 ties to them
            return np.stack([d[0, 0], d[0, 1], d[1, 0]], axis=-1), d[1, 1]

        def residual(u):
            r, fourth = residuals(u[None])
            return r[0], fourth[0]

        r, fourth = residual(u)
        chord = jac is not None
        for taken in range(26):
            # tested after the last of the 25 steps too, before refusing
            size = np.max(np.abs(r))
            if size < 1e-12:
                break
            if taken == 25:
                raise SwapAlgError(
                    f"holonomy search did not converge at {steps} steps: "
                    f"max|r| = {size:.3e} after 25 steps"
                )
            if chord:
                chord = False
                trial = u - np.linalg.solve(jac, r)
                r_trial, fourth_trial = residual(trial)
                if np.max(np.abs(r_trial)) * _CHORD_SHRINK <= size:
                    u, r, fourth = trial, r_trial, fourth_trial
                    continue
            eps = 1e-6
            # row j of the batch is u with eps added to entry j
            jac = ((residuals(u + eps * np.eye(3))[0] - r) / eps).T
            u = u - np.linalg.solve(jac, r)
            r, fourth = residual(u)
    if abs(fourth) >= 1e-12:
        raise SwapAlgError(
            f"holonomy search converged at {steps} steps but left the fourth entry "
            f"H[1,1] - ({target_sign:+g}) = {fourth:.3e}, not below 1e-12"
        )
    return build(u)


def random_trivial_holonomy_opers(count: int, seed: int) -> list[OperSpec]:
    """Deterministic family of order-2 operators with holonomy -Id.

    Random harmonics of order >= 2, amplitudes uniform in [-2, 2], perturb
    the Veronese operator and the low modes are solved for; candidates are
    kept only when the final holonomy is trivial within
    `TRIVIAL_HOLONOMY_TOLERANCE` at 4096 steps.
    """
    import random as _random

    rng = _random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 20 * count:
        attempts += 1
        extra = [
            (k, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            for k in (2, 3)
        ]
        try:
            oper = solve_trivial_holonomy(veronese_oper(2), extra, target_sign=-1)
        except SwapAlgError:
            continue
        if is_psl_trivial(integrate(oper, 4096)):
            out.append(oper)
    if len(out) < count:
        raise SwapAlgError("could not assemble enough trivial-holonomy operators")
    return out
