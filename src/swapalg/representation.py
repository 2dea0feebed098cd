"""Numeric evaluation of pair fractions against matrix representations.

A representation assigns to each generator label an n x n real matrix with
determinant one and purely loxodromic dynamics: real eigenvalues of
pairwise distinct absolute value.  Each group word g then carries

  * eigenvalues  |lambda_1| > ... > |lambda_n| > 0,
  * right eigenvectors R_1..R_n (columns) and left eigenvectors L_1..L_n
    (rows), biorthogonal: L_i R_j = 0 for i != j;

and two boundary fixed points, g+ (attracting) and g-(repelling), which
are registered as circle points.  A generator pair Xx evaluates to the
pairing of the hyperplane data of x against the curve data of X:

    value(Xx) = < hyperplane(x), vector(X) >,

where vector(g+) = R_1, vector(g-) = R_n, hyperplane(g+) = L_n and
hyperplane(g-) = L_1 (the covector annihilating the osculating hyperplane
at the point, so value(Xx) = 0 exactly when X = x).  For n = 2 this is the
determinant pairing det(v_X, v_x) on boundary coordinates and reproduces
the classical projective cross ratio.

Each point's vector and hyperplane are defined only up to scale, so only
balanced fractions of pair values are well defined; `eval_fraction` refuses
anything else.

For n = 2 the circle positions of fixed points come from the eigenvector
directions on the projective line, so linking numbers agree with the
boundary cyclic order.  For n > 2 there is no canonical order: unless the
caller supplies positions, points are placed in registration order by
`PointConfig.synthetic_point`.  That is fine for pure evaluation (periods,
widths, traces, determinants), but `linking_number`, and with it every
bracket and closed form, refuses such points.  Points at one position
share one vector and hyperplane; a fixed point whose own data would be
dropped that way is refused.

Eigendata of a 2 x 2 matrix come in closed form, in plain floats, with no
LAPACK call and no polish: the discriminant and determinant are sums of
exact products, so eigenvalues and eigendirections are accurate to a few
units in the last place even near parabolic matrices.  For n >= 3 they
come from LAPACK's `eig`, polished by inverse iteration.

Representations are built once and then read only; evaluations are pure.
Words used concurrently should be resolved in a pre-pass, since resolution
caches eigendata (and `wilson_ratio` a trace-pairing table per word pair).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from . import halfplane
from .algebra import AlgebraElement
from .circle import CirclePoint, PointConfig, as_position, linking_number
from .errors import EvaluationError, NotLoxodromicError, SwapAlgError
from .multifraction import chi, cross_fraction, elementary, wolpert_rhs
from .words import (
    Word,
    canonical_class,
    conjugate_word,
    parse_word,
    word_text,
)

LOXODROMY_TOLERANCE = 1e-6  # adjacent |eigenvalue| ratios above 1 - tol are rejected


class GroupElementData:
    """Eigendata of one resolved word: sorted eigenvalues and biorthogonal
    left/right eigenvectors."""

    __slots__ = ("label", "matrix", "eigenvalues", "right", "left", "pairings")

    def __init__(self, label, matrix, eigenvalues, right, left, pairings):
        self.label = label
        self.matrix = matrix
        self.eigenvalues = eigenvalues
        self.right = right  # columns R_1..R_n, unit norm
        self.left = left  # rows L_1..L_n, unit norm
        self.pairings = pairings  # L_i R_i, nonzero

    @property
    def n(self) -> int:
        return self.matrix.shape[0]

    def projector(self, i: int) -> np.ndarray:
        """Spectral projector onto the i-th eigenline (trace one)."""
        return np.outer(self.right[:, i], self.left[i]) / self.pairings[i]

    def __repr__(self):
        return f"GroupElementData({self.label!r}, eigenvalues={self.eigenvalues})"


def eigen_split(matrix, label: str = "") -> GroupElementData:
    """Eigendecomposition of a purely loxodromic unimodular matrix.

    Rejects non-finite entries, a determinant that is zero or not finite,
    complex or modulus-tied spectra ("not loxodromic") and negative
    determinants for even n; for odd n the sign ambiguity is removed by
    normalizing the determinant to +1.

    A 2 x 2 matrix is split in closed form, in plain floats, with no LAPACK
    call and no polish (`_split_2x2`).  Larger matrices use LAPACK's `eig`
    and inverse iteration (`_split_lapack`).
    """
    m = np.array(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise SwapAlgError("matrix must be square")
    if not np.isfinite(m).all():
        raise SwapAlgError("matrix entries must be finite")
    n = m.shape[0]
    if n == 2:
        (a, b), (c, d) = m.tolist()
        det = a * d - b * c
    else:
        with np.errstate(all="ignore"):  # an overflow is refused just below
            det = float(np.linalg.det(m))
    if not math.isfinite(det):
        raise SwapAlgError("matrix determinant is not finite")
    if det == 0:
        raise SwapAlgError("matrix is singular")
    if det < 0:
        if n % 2 == 0:
            raise SwapAlgError("negative determinant has no loxodromic class")
        m = -m
        det = -det
    scale = det ** (1.0 / n)
    top = float(abs(m).max()) / scale  # the largest entry at determinant one
    if top == math.inf:
        raise SwapAlgError("matrix entries overflow when scaled to determinant one")
    m = m / scale
    # beyond 2^500 an exact product of two entries could overflow
    split = _split_2x2 if n == 2 and top < 2.0**500 else _split_lapack
    values, right, left, pairings = split(m, label or matrix)
    if abs(pairings).min() < 1e-12:
        raise NotLoxodromicError(f"degenerate eigenbasis for {label or matrix}")
    return GroupElementData(label, m, values, right, left, pairings)


def _check_moduli(mags, name) -> None:
    """Refuse adjacent |eigenvalue| ratios above 1 - tol, and NaN ratios."""
    for i in range(len(mags) - 1):
        if not mags[i + 1] / mags[i] <= 1.0 - LOXODROMY_TOLERANCE:
            raise NotLoxodromicError(f"not loxodromic: eigenvalue moduli too close for {name}")


def _two_product(x: float, y: float) -> tuple[float, float]:
    """x * y as an unevaluated sum hi + lo, exactly (Dekker, with
    Veltkamp's split into 26-bit halves; |x|, |y| below 2^500)."""
    hi = x * y
    t = 134217729.0 * x  # 2^27 + 1
    xh = t - (t - x)
    xl = x - xh
    t = 134217729.0 * y
    yh = t - (t - y)
    yl = y - yh
    return hi, ((xh * yh - hi) + xh * yl + xl * yh) + xl * yl


def _split_2x2(m, name):
    """Closed-form eigendata of a normalized 2 x 2 matrix, in plain floats.

    With t = a + d, delta = a - d and s = sign(t) sqrt(delta^2 + 4 b c),
    lambda_1 = (t + s) / 2 and lambda_2 = (a d - b c) / lambda_1.  The
    discriminant and the determinant are sums of exact products rounded
    once, so s stays accurate where delta^2 and -4 b c nearly cancel (near
    parabolic matrices).  The right eigenvector of lambda_1 is the longer of
    (2b, s - delta) and (s + delta, 2c), the null vectors of the rows of
    2 (m - lambda_1) written in s and delta, so the rounding of lambda_1
    never enters, and a component that cancels is short against the
    length of the vector it is in.  Likewise for lambda_2; the left
    eigenvectors are the rows of the inverse of the right ones.
    """
    (a, b), (c, d) = m.tolist()
    t = a + d
    delta = a - d
    z = delta - a
    delta_lo = (a - (delta - z)) + (-d - z)  # a - d = delta + delta_lo exactly
    dd, dd_lo = _two_product(delta, delta)
    bc, bc_lo = _two_product(b, c)
    disc = math.fsum((dd, dd_lo, 2.0 * delta * delta_lo, 4.0 * bc, 4.0 * bc_lo))
    if disc < 0:
        # LAPACK's rule: |Im lambda| > 1e-9 |lambda|, with |lambda|^2 = (t^2 - disc) / 4
        if math.sqrt(-disc) > 1e-9 * math.sqrt(t * t - disc):
            raise NotLoxodromicError(f"not loxodromic: complex spectrum for {name}")
        disc = 0.0  # a double eigenvalue, refused as tied moduli
    s = math.copysign(math.sqrt(disc), t)
    lam1 = 0.5 * (t + s)
    lam2 = math.fsum((*_two_product(a, d), -bc, -bc_lo)) / lam1
    _check_moduli((abs(lam1), abs(lam2)), name)
    columns = []
    for u, v in (
        ((2.0 * b, s - delta), (s + delta, 2.0 * c)),  # lambda_1
        ((2.0 * b, -s - delta), (delta - s, 2.0 * c)),  # lambda_2
    ):
        x, y = u if math.hypot(*u) >= math.hypot(*v) else v
        norm = math.hypot(x, y)
        columns.append((x / norm, y / norm))
    (p, q), (r, w) = columns
    det_r = p * w - q * r
    sign = math.copysign(1.0, det_r)  # inv(R) = [[w, -r], [-q, p]] / det_r, rows unit
    right = np.array([[p, r], [q, w]])
    left = np.array([[sign * w, -sign * r], [-sign * q, sign * p]])
    return np.array([lam1, lam2]), right, left, np.array([abs(det_r), abs(det_r)])


def _split_lapack(m, name):
    """Eigendata of a normalized n x n matrix: LAPACK's `eig`, then two
    steps of inverse iteration on each eigenvector."""
    n = m.shape[0]
    values, vectors = np.linalg.eig(m)
    if np.max(np.abs(values.imag)) > 1e-9 * np.max(np.abs(values)):
        raise NotLoxodromicError(f"not loxodromic: complex spectrum for {name}")
    values = values.real
    order = np.argsort(-np.abs(values))
    values = values[order]
    right = np.real(vectors[:, order])
    _check_moduli(np.abs(values), name)
    right = right / np.linalg.norm(right, axis=0, keepdims=True)
    # Inverse-iteration polish: with distinct eigenvalues the nearly
    # singular solve amplifies the true eigendirection, gaining several
    # digits over the raw solver output.
    eye = np.eye(n)
    for i in range(n):
        v = right[:, i]
        lam = values[i]
        for _ in range(2):
            try:
                w = np.linalg.solve(m - lam * eye, v)
            except np.linalg.LinAlgError:
                break
            norm = np.linalg.norm(w)
            if not np.isfinite(norm) or norm == 0.0:
                break
            v = w / norm
            lam = float(v @ m @ v) / float(v @ v)
        right[:, i] = v
        values[i] = lam
    left = np.linalg.inv(right)
    norms = np.linalg.norm(left, axis=1, keepdims=True)
    left = left / norms
    return values, right, left, np.einsum("ij,ji->i", left, right)


def symmetric_square(matrix) -> np.ndarray:
    """The 3x3 action on binary quadratics induced by a 2x2 matrix.

    Sends eigenvalues (l, 1/l) to (l^2, 1, l^{-2}); the image of SL(2) is
    the irreducible copy inside SL(3).
    """
    (a, b), (c, d) = np.array(matrix, dtype=float)
    return np.array(
        [
            [a * a, 2 * a * b, b * b],
            [a * c, a * d + b * c, b * d],
            [c * c, 2 * c * d, d * d],
        ]
    )


def _rp1_position(vector) -> Fraction:
    """Exact circle position of a projective-line direction.

    Orientation matches the boundary order of the upper half plane:
    positions increase with the boundary coordinate and wrap through
    infinity.  Floats convert exactly, so distinct directions get distinct
    rational positions in the same cyclic order.
    """
    phi = math.atan2(float(vector[1]), float(vector[0])) % math.pi
    return as_position(Fraction(1.0 - phi / math.pi))


def _parallel(u, v) -> bool:
    """Whether two unit vectors span one line."""
    return 1.0 - abs(float(u @ v)) < 1e-12


def _refusing(label, exc: SwapAlgError) -> SwapAlgError:
    """`exc` as a refusal of generator `label`: of the same type, with the
    label before its message and kept as `generator`, for `from_text` to
    name its line."""
    named = type(exc)(f"generator {label!r}: {exc}")
    named.generator = label
    return named


class _PointData:
    __slots__ = ("vector", "hyperplane", "word", "sign")

    def __init__(self, vector, hyperplane, word=None, sign=0):
        self.vector = vector
        self.hyperplane = hyperplane
        self.word = word
        self.sign = sign


class Representation:
    """A finitely generated matrix group with eigendata and boundary points.

    `generators` maps labels to n x n matrices.  Words are written in the
    ``a b a'`` notation.  The representation resolves words on demand,
    closing the element table under products and inverses, and registers
    fixed points as circle points of `self.config`.
    """

    def __init__(self, generators: dict, position_hint=None):
        if not generators:
            raise SwapAlgError("at least one generator is required")
        mats = {}
        n = None
        for label, matrix in generators.items():
            m = np.array(matrix, dtype=float)
            if n is None:
                n = m.shape[0]
            if m.shape != (n, n):
                raise SwapAlgError("generators must share one dimension")
            if not np.isfinite(m).all():  # before a product turns inf into nan
                raise _refusing(label, SwapAlgError("matrix entries must be finite"))
            mats[label] = m
        self.dimension = n
        self.config = PointConfig()
        self._position_hint = position_hint
        self._generators = mats
        self._generator_inverses: dict[str, np.ndarray] = {}  # made on first use
        self._elements: dict[Word, GroupElementData] = {}
        self._points: dict[CirclePoint, _PointData] = {}
        self._fixed: dict[tuple[Word, int], CirclePoint] = {}
        self._wilson_tables: dict[tuple[Word, Word], tuple] = {}  # (r, s, M) per word pair
        for label in mats:
            try:
                self.element(label)
            except SwapAlgError as exc:
                raise _refusing(label, exc) from None

    @classmethod
    def from_text(cls, text: str, position_hint=None) -> "Representation":
        """Parse ``n = <int>`` followed by ``element <label> <n*n reals>``
        blocks; entries may span lines and ``#`` begins a comment.  Each
        refusal names the line of the token it concerns."""
        words = [
            (word, lineno)
            for lineno, raw in enumerate(text.splitlines(), start=1)
            for word in raw.split("#", 1)[0].split()
        ]
        tokens = [word for word, _ in words]

        def refuse(index, message, kind=SwapAlgError):
            lineno = words[min(index, len(words) - 1)][1] if words else 1
            return kind(f"line {lineno}: {message}")

        header = tokens[:2] == ["n", "="]
        try:
            n = int(tokens[2]) if header else 0
        except (IndexError, ValueError):
            n = 0
        if n < 1:
            raise refuse(
                2 if header else 0,
                "representation file must begin with 'n = <int>', <int> a positive integer",
            )
        generators = {}
        label_at = {}  # the token index of each label
        index = 3
        while index < len(tokens):
            if tokens[index] != "element":
                raise refuse(index, f"expected 'element', found {tokens[index]!r}")
            if index + 1 == len(tokens):
                raise refuse(index, "'element' without a label at the end of the file")
            label = tokens[index + 1]
            if index + 2 + n * n > len(tokens):
                raise refuse(index, f"element {label!r} needs {n * n} entries")
            if label in generators:
                raise refuse(index + 1, f"element {label!r} is defined twice")
            entries = []
            for k in range(index + 2, index + 2 + n * n):
                try:
                    entries.append(float(tokens[k]))
                except ValueError as exc:
                    raise refuse(k, f"element {label!r}: {exc}") from None
            generators[label] = np.array(entries).reshape(n, n)
            label_at[label] = index + 1
            index += 2 + n * n
        try:
            return cls(generators, position_hint=position_hint)
        except SwapAlgError as exc:
            at = label_at.get(getattr(exc, "generator", None))
            if at is None:
                raise
            raise refuse(at, exc, type(exc)) from None

    @classmethod
    def from_file(cls, path, position_hint=None) -> "Representation":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_text(handle.read(), position_hint=position_hint)

    # -- word resolution -----------------------------------------------

    def matrix(self, word) -> np.ndarray:
        word = parse_word(word, allow_identity=True)
        out = np.eye(self.dimension)
        for label, sign in word:
            try:
                m = self._generators[label]
            except KeyError:
                raise SwapAlgError(f"unknown generator {label!r}") from None
            if sign < 0:
                inverse = self._generator_inverses.get(label)
                if inverse is None:
                    inverse = self._generator_inverses[label] = np.linalg.inv(m)
                m = inverse
            out = out @ m
        return out

    def element(self, word) -> GroupElementData:
        word = parse_word(word)
        data = self._elements.get(word)
        if data is None:
            data = eigen_split(self.matrix(word), label=word_text(word))
            self._elements[word] = data
        return data

    # -- boundary points -------------------------------------------------

    def _register_fixed(self, word: Word, sign: int, vector, hyperplane) -> CirclePoint:
        label = word_text(word) + ("+" if sign > 0 else "-")
        if self.dimension == 2:
            point = self.config.point(label, _rp1_position(vector))
        elif self._position_hint is not None:
            point = self.config.point(label, self._position_hint(word, sign))
        else:
            point = self.config.synthetic_point(label)
        held = self._points.setdefault(point, _PointData(vector, hyperplane, word, sign))
        # points sharing a position (those of commuting words, say) share one data
        if not (_parallel(held.vector, vector) and _parallel(held.hyperplane, hyperplane)):
            raise SwapAlgError(
                f"points {point.label} and {label} share a position but not their eigendata"
            )
        self._fixed[(word, sign)] = point
        return point

    def fixed_point(self, word, sign: int) -> CirclePoint:
        """The attracting (+1) or repelling (-1) fixed point of a word.

        Powers and inverses resolve to the canonical primitive root, so
        g, g g and g' share two circle points between them.
        """
        word, sign = canonical_class(parse_word(word), 1 if sign > 0 else -1)
        cached = self._fixed.get((word, sign))
        if cached is not None:
            return cached
        data = self.element(word)
        n = self.dimension
        top = sign > 0
        vector = data.right[:, 0 if top else n - 1]
        hyperplane = data.left[n - 1 if top else 0]
        return self._register_fixed(word, sign, vector, hyperplane)

    def boundary_point(self, coordinate) -> CirclePoint:
        """A raw boundary point for n = 2, by its coordinate (None for oo)."""
        if self.dimension != 2:
            raise SwapAlgError("raw boundary coordinates exist only for n = 2")
        if coordinate is None or (isinstance(coordinate, float) and math.isinf(coordinate)):
            vector = np.array([1.0, 0.0])
            label = "t=oo"
        else:
            try:
                coordinate = float(coordinate)
            except OverflowError:
                raise SwapAlgError(f"boundary coordinate {coordinate} overflows a float") from None
            label = f"t={coordinate!r}"
            if math.isnan(coordinate):
                raise SwapAlgError(f"boundary coordinate {label} is not a number")
            # (t, 1) has a finite norm exactly when t * t does not overflow
            if math.isinf(coordinate * coordinate):
                raise SwapAlgError(f"boundary coordinate {label} overflows when normalised")
            vector = np.array([coordinate, 1.0])
            vector = vector / np.linalg.norm(vector)
        hyperplane = np.array([vector[1], -vector[0]])
        point = self.config.point(label, _rp1_position(vector))
        self._points.setdefault(point, _PointData(vector, hyperplane))
        return point

    def act(self, word, point: CirclePoint) -> CirclePoint:
        """Image of a registered boundary point under a word.

        Fixed points map by conjugation, g(h+-) = (g h g^{-1})+-, with the
        eigendata transported directly (the conjugate's eigenvectors are the
        images of the original ones, so no fresh eigendecomposition is
        needed); raw n = 2 points map by the projective action on their
        coordinate vector.
        """
        word = parse_word(word)
        data = self._points.get(point)
        if data is None:
            raise SwapAlgError(f"point {point.label!r} is not registered here")
        if data.word is not None:
            target, sign = canonical_class(
                conjugate_word(word, data.word), data.sign
            )
            cached = self._fixed.get((target, sign))
            if cached is not None:
                return cached
            matrix = self.matrix(word)
            vector = matrix @ data.vector
            vector = vector / np.linalg.norm(vector)
            hyperplane = data.hyperplane @ np.linalg.inv(matrix)
            hyperplane = hyperplane / np.linalg.norm(hyperplane)
            return self._register_fixed(target, sign, vector, hyperplane)
        top, bottom = (float(v) for v in self.matrix(word) @ data.vector)
        coordinate = math.inf if bottom == 0 else top / bottom
        return self.boundary_point(coordinate)

    # -- evaluation --------------------------------------------------------

    def pair_value(self, X: CirclePoint, x: CirclePoint) -> float:
        """< hyperplane(x), vector(X) >; zero exactly when X = x."""
        try:
            dx = self._points[X]
            dxx = self._points[x]
        except KeyError:
            raise EvaluationError("point was not registered with this representation")
        return 0.0 if X is x else float(dxx.hyperplane @ dx.vector)

    def eval_fraction(self, fraction: AlgebraElement) -> float:
        return fraction.evaluate(self.pair_value)

    def cross_ratio(self, X, Y, x, y) -> float:
        return self.eval_fraction(cross_fraction(X, Y, x, y))

    # -- derived quantities -------------------------------------------------

    def width(self, word) -> float:
        """log |lambda_max / lambda_min|."""
        data = self.element(word)
        return math.log(abs(data.eigenvalues[0] / data.eigenvalues[-1]))

    def period(self, word, anchor: CirclePoint) -> float:
        """|log |cross ratio (g-, g+, g(y), y)||; anchor-independent and
        equal to the width."""
        word = parse_word(word)
        plus = self.fixed_point(word, +1)
        minus = self.fixed_point(word, -1)
        if anchor == plus or anchor == minus:
            raise SwapAlgError("anchor must avoid the fixed points")
        image = self.act(word, anchor)
        value = self.eval_fraction(cross_fraction(minus, plus, image, anchor))
        return abs(math.log(abs(value)))

    def girth(self, words) -> float:
        """Largest adjacent eigenvalue-modulus ratio over the given words.

        A finite-sample stand-in for the supremum over the whole group; it
        is always below one for loxodromic input and grows monotonically as
        words are added.
        """
        words = list(words)
        if not words:
            raise SwapAlgError("girth needs at least one word")
        worst = 0.0
        for w in words:
            mags = np.abs(self.element(w).eigenvalues)
            worst = max(worst, float(np.max(mags[1:] / mags[:-1])))
        return worst

    def wilson_ratio(self, gamma, eta, p: int) -> float:
        """tr(g^p h^p) / (tr(g^p) tr(h^p)), computed from eigendata.

        Powers enter only through ratios lambda_i / lambda_1, so the value
        stays finite for all p.  The ratios and the trace pairing of the
        two words are kept per word pair, so each further p costs one
        power of each ratio vector and one bilinear form.
        """
        if p < 1:
            raise SwapAlgError("exponent must be positive")
        key = (parse_word(gamma), parse_word(eta))
        table = self._wilson_tables.get(key)
        if table is None:
            g = self.element(key[0])
            h = self.element(key[1])
            r = g.eigenvalues / g.eigenvalues[0]
            s = h.eigenvalues / h.eigenvalues[0]
            # M_ij = tr(p_i(g) p_j(h))
            cross = (g.left @ h.right) * (h.left @ g.right).T
            table = self._wilson_tables[key] = (r, s, cross / np.outer(g.pairings, h.pairings))
        r, s, M = table
        rp = r**p
        sp = s**p
        return float(rp @ M @ sp / (rp.sum() * sp.sum()))

    def elementary_value(self, words) -> float:
        return self.eval_fraction(elementary(self, words))

    chi = chi  # the rank test, with this representation as the universe


def wolpert_check(gamma_matrix, eta_matrix) -> tuple[float, float]:
    """Cross-check of the length-function bracket for crossing axes (n = 2).

    Returns (lhs, rhs): `rhs` is the alternating four-term sum of elementary
    functions scaled by the fixed-point linking number, evaluated through
    the eigenvector backend; `lhs` is twice the cosine of the axis crossing
    angle, computed by the independent half-plane oracle.  Under the trace
    normalization used throughout, the bracket of two length functions at a
    single transversal intersection equals exactly twice that cosine, so
    lhs = rhs up to numerical error.
    """
    rep = Representation({"g": gamma_matrix, "h": eta_matrix})
    g_plus = rep.fixed_point("g", +1)
    g_minus = rep.fixed_point("g", -1)
    h_plus = rep.fixed_point("h", +1)
    h_minus = rep.fixed_point("h", -1)
    if linking_number(g_plus, g_minus, h_plus, h_minus) == 0:
        raise SwapAlgError("axes do not cross")
    rhs = rep.eval_fraction(wolpert_rhs(rep, "g", "h"))
    theta = halfplane.crossing_angle(gamma_matrix, eta_matrix)
    lhs = 2.0 * math.cos(theta)
    return lhs, rhs
