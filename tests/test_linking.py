import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swapalg.circle import (
    PointConfig,
    as_position,
    cocycle_defect,
    default_cut,
    linking_number,
    six_point_F,
    six_point_G,
)
from swapalg.errors import ConfigMismatchError, InvalidCutError, SwapAlgError

HALF = Fraction(1, 2)


def chord_crossing_oracle(X, x, Y, y):
    """Independent sign of the chord crossing, by circular interleaving.

    For pairwise distinct points the chords (X, x) and (Y, y) link exactly
    when one of Y, y lies on the arc from X to x and the other does not;
    the sign is +1 when the counterclockwise order is (X, Y, x, y).
    """
    def between(a, b, c):
        # c strictly inside the ccw arc from a to b
        return ((c - a) % 1) < ((b - a) % 1)

    inside_Y = between(X.position, x.position, Y.position)
    inside_y = between(X.position, x.position, y.position)
    if inside_Y == inside_y:
        return Fraction(0)
    return Fraction(1) if inside_Y else Fraction(-1)


def test_interleaved_quadruple_links_once(grid_config):
    config, p = grid_config
    X, x, Y, y = p[1], p[3], p[2], p[4]
    assert linking_number(X, x, Y, y) == 1


def test_equality_cases(grid_config):
    config, p = grid_config
    X, Y, y = p[0], p[4], p[7]
    assert linking_number(X, X, Y, y) == 0
    assert linking_number(X, y, X, y) == 0


def test_positively_oriented_triple_gives_half(grid_config):
    config, p = grid_config
    X, Y, x = p[1], p[2], p[3]
    assert linking_number(X, x, Y, x) == HALF


def test_linking_values_are_half_integers(grid_config):
    config, p = grid_config
    rng = random.Random(1)
    allowed = {Fraction(k, 2) for k in range(-2, 3)}
    for _ in range(300):
        pts = [p[rng.randrange(10)] for _ in range(4)]
        assert linking_number(*pts) in allowed


def test_crossing_oracle_agrees(grid_config):
    config, p = grid_config
    rng = random.Random(2)
    for _ in range(500):
        X, x, Y, y = (p[i] for i in rng.sample(range(10), 4))
        assert linking_number(X, x, Y, y) == chord_crossing_oracle(X, x, Y, y)


@given(st.lists(st.integers(0, 29), min_size=4, max_size=4))
def test_antisymmetries(indices):
    config = PointConfig()
    points = [config.point(f"q{i}", Fraction(i, 30)) for i in range(30)]
    X, x, Y, y = (points[i] for i in indices)
    assert linking_number(X, x, Y, y) + linking_number(Y, y, X, x) == 0
    assert linking_number(X, x, Y, y) + linking_number(X, x, y, Y) == 0


@given(st.lists(st.integers(0, 19), min_size=5, max_size=5))
@settings(max_examples=200)
def test_cocycle_property(indices):
    config = PointConfig()
    points = [config.point(f"q{i}", Fraction(2 * i + 1, 41)) for i in range(20)]
    z, y, X, Y, Z = (points[i] for i in indices)
    assert cocycle_defect(z, y, X, Y, Z) == 0


def test_cocycle_degenerate_cases(grid_config):
    config, p = grid_config
    assert cocycle_defect(p[3], p[3], p[0], p[5], p[8]) == 0
    assert cocycle_defect(p[1], p[6], p[2], p[2], p[2]) == 0


def test_alternative_for_distinct_points(grid_config):
    config, p = grid_config
    rng = random.Random(3)
    for _ in range(300):
        X, x, Y, y = (p[i] for i in rng.sample(range(10), 4))
        assert linking_number(X, x, Y, y) * linking_number(X, y, Y, x) == 0


def test_four_point_relation(grid_config):
    config, p = grid_config
    rng = random.Random(4)
    for _ in range(300):
        X, x, Y, y, Z, z = (p[rng.randrange(10)] for _ in range(6))
        lhs = linking_number(X, y, Z, z) + linking_number(Y, x, Z, z)
        rhs = linking_number(X, x, Z, z) + linking_number(Y, y, Z, z)
        assert lhs == rhs


def test_six_point_identities_vanish_generically(grid_config):
    config, p = grid_config
    rng = random.Random(5)
    for _ in range(200):
        X, x, Y, y, Z, z = (p[i] for i in rng.sample(range(10), 6))
        assert six_point_F(X, x, Y, y, Z, z) == 0
        assert six_point_G(X, x, Y, y, Z, z) == 0


def test_six_point_degenerate_value():
    config = PointConfig()
    X = config.point("X", Fraction(1, 10))
    x = config.point("x", Fraction(2, 10))
    Y = config.point("Y", Fraction(3, 10))
    Z = config.point("Z", Fraction(4, 10))
    assert six_point_F(X, x, Y, x, Z, x) == Fraction(1, 4)


def test_six_point_trivial_cases(grid_config):
    config, p = grid_config
    X, Y, y, Z, z = p[0], p[2], p[4], p[6], p[8]
    assert six_point_F(X, X, Y, y, Z, z) == 0
    assert six_point_G(X, X, Y, y, Z, z) == 0


def test_f_g_swap_relation(grid_config):
    config, p = grid_config
    rng = random.Random(6)
    for _ in range(100):
        X, x, Y, y, Z, z = (p[rng.randrange(10)] for _ in range(6))
        assert six_point_G(X, x, Y, y, Z, z) == -six_point_F(Y, y, X, x, Z, z)


def test_cut_invariance(grid_config):
    config, p = grid_config
    quad = (p[1], p[4], p[2], p[9])
    base = linking_number(*quad)
    for cut in (Fraction(1, 20), Fraction(7, 20), Fraction(19, 20)):
        assert linking_number(*quad, cut=cut) == base


def test_invalid_cut_rejected(grid_config):
    config, p = grid_config
    with pytest.raises(InvalidCutError, match="invalid cut"):
        linking_number(p[1], p[2], p[3], p[4], cut=Fraction(2, 10))


def test_default_cut_avoids_arguments():
    positions = [Fraction(1, 7), Fraction(2, 7), Fraction(6, 7)]
    cut = default_cut(positions)
    assert cut not in positions
    assert 0 <= cut < 1


def test_points_from_different_configs_rejected():
    c1, c2 = PointConfig(), PointConfig()
    a = c1.point("a", Fraction(0))
    b = c1.point("b", Fraction(1, 2))
    c = c2.point("c", Fraction(1, 4))
    d = c2.point("d", Fraction(3, 4))
    with pytest.raises(ConfigMismatchError):
        linking_number(a, b, c, d)


def test_config_text_parsing():
    config = PointConfig.from_text(
        """
        # a comment
        alpha = 1/3
        beta = 2/3   # trailing comment
        gamma = 5/3  # wraps to 2/3: alias of beta
        """
    )
    assert config["alpha"].position == Fraction(1, 3)
    assert config["beta"] == config["gamma"]
    assert len(config.points()) == 2


REPEATED_LABELS = {
    "same-position": "X = 1/3\nx = 1/2\n\nX = 1/3\n",
    "other-position": "X = 1/3\nx = 1/2\n\nX = 2/3\n",
}


@pytest.mark.parametrize("text", REPEATED_LABELS.values(), ids=REPEATED_LABELS.keys())
def test_a_repeated_label_is_refused_with_its_line(text):
    with pytest.raises(SwapAlgError, match=r"^line 4: label 'X' is defined twice$"):
        PointConfig.from_text(text)


def test_config_rejects_relabeled_position():
    config = PointConfig()
    config.point("a", Fraction(1, 3))
    with pytest.raises(SwapAlgError):
        config.point("a", Fraction(2, 3))
    with pytest.raises(SwapAlgError):
        PointConfig.from_text("bad line without equals")


def test_unknown_label_lookup():
    config = PointConfig()
    with pytest.raises(SwapAlgError, match="unknown point label"):
        config["missing"]


def _gap_midpoint_cuts(points):
    """One cut in the middle of every gap between consecutive positions."""
    ps = sorted(p.position for p in points)
    gaps = [((q - p) % 1 or Fraction(1), p) for p, q in zip(ps, ps[1:] + ps[:1])]
    return [(p + gap / 2) % 1 for gap, p in gaps]


def _assert_cut_free_matches_every_cut(points, quadruples):
    cuts = _gap_midpoint_cuts(points)
    for quad in quadruples:
        value = linking_number(*quad)
        for cut in cuts:
            assert linking_number(*quad, cut=cut) == value, (quad, cut)


def test_cut_free_formula_on_every_grid_quadruple():
    config = PointConfig()
    p = [config.point(f"g{i}", Fraction(i, 7)) for i in range(7)]
    quadruples = [
        (p[a], p[b], p[c], p[d])
        for a in range(7) for b in range(7) for c in range(7) for d in range(7)
    ]
    _assert_cut_free_matches_every_cut(p, quadruples)


def test_cut_free_formula_on_random_configurations():
    rng = random.Random(11)
    for _ in range(20):
        config = PointConfig()
        positions = rng.sample(range(997), 8)
        p = [config.point(f"r{i}", Fraction(k, 997)) for i, k in enumerate(positions)]
        quadruples = [tuple(rng.choice(p) for _ in range(4)) for _ in range(100)]
        _assert_cut_free_matches_every_cut(p, quadruples)


def test_six_point_and_cocycle_agree_with_and_without_cut():
    config = PointConfig()
    p = [config.point(f"g{i}", Fraction(i, 7)) for i in range(7)]
    cuts = _gap_midpoint_cuts(p)
    rng = random.Random(12)
    for _ in range(200):
        six = [p[rng.randrange(7)] for _ in range(6)]
        five = six[:5]
        f, g, c = six_point_F(*six), six_point_G(*six), cocycle_defect(*five)
        for cut in cuts:
            assert six_point_F(*six, cut=cut) == f
            assert six_point_G(*six, cut=cut) == g
            assert cocycle_defect(*five, cut=cut) == c


def test_linking_without_a_cut_never_unrolls(grid_config, monkeypatch):
    import swapalg.circle as circle

    def forbidden(*args):
        raise AssertionError("cut machinery on the default path")

    monkeypatch.setattr(circle, "default_cut", forbidden)
    monkeypatch.setattr(circle, "_unroll", forbidden)
    config, p = grid_config
    assert linking_number(p[1], p[3], p[2], p[4]) == 1
    assert six_point_F(p[1], p[2], p[3], p[2], p[4], p[2]) == Fraction(1, 4)
    assert cocycle_defect(p[3], p[3], p[0], p[5], p[8]) == 0


def test_points_are_identity_equal():
    from swapalg.circle import CirclePoint

    config = PointConfig()
    a = config.point("a", Fraction(1, 3))
    # a known label and an aliased position return the existing point
    assert config.point("a", Fraction(1, 3)) is a and config.point("b", Fraction(4, 3)) is a
    assert config.points() == [a]
    assert CirclePoint.__eq__ is object.__eq__ and CirclePoint.__hash__ is object.__hash__


@pytest.mark.parametrize(
    "value",
    [Fraction(0), Fraction(-1, 3), Fraction(4, 3), Fraction(1), 1, 0.25, Fraction(1, 10**400)],
    ids=["0", "-1/3", "4/3", "1", "int-1", "float-0.25", "1/10^400"],
)
def test_as_position_is_the_fraction_mod_one(value):
    pos = as_position(value)
    assert type(pos) is Fraction and pos == Fraction(value) % 1


def test_points_are_found_by_exact_position():
    config = PointConfig()
    a = config.point("a", Fraction(1, 3))
    assert config.point("b", Fraction(4, 3)) is a
    c = config.point("c", 1 / 3)  # the float is a dyadic rational, not 1/3
    assert c is not a and c.position == Fraction(1 / 3)
    # the largest position is neither the last inserted nor the largest
    # (numerator, denominator) pair
    top = config.point("d", Fraction(2, 3))
    config.point("e", Fraction(1, 10**400))
    config.point("f", Fraction(3, 100))
    s = config.synthetic_point("s")
    assert s.position == Fraction(2, 3) + Fraction(1, 1 << 40)
    assert config.points()[-2:] == [top, s]


def test_default_cut_of_a_single_point_is_exact_and_opposite():
    assert default_cut([Fraction(2, 3)]) == Fraction(1, 6)


def test_linking_table_is_doubled_linking_number():
    from swapalg.verify import _linking_table

    grid = PointConfig()
    rng = random.Random(13)
    scattered = PointConfig()
    for p in (
        [grid.point(f"g{i}", Fraction(i, 7)) for i in range(7)],
        [scattered.point(f"r{i}", Fraction(k, 997)) for i, k in enumerate(rng.sample(range(997), 12))],
    ):
        table = _linking_table(p)
        assert table.dtype.name == "int8"
        for cut in (None, default_cut(q.position for q in p)):
            doubled = [
                2 * linking_number(a, b, c, d, cut=cut) for a in p for b in p for c in p for d in p
            ]
            assert table.ravel().tolist() == doubled
    # like linking_number, the table refuses a synthetic order
    with pytest.raises(SwapAlgError, match="synthetic"):
        _linking_table([grid["g1"], grid.synthetic_point("s")])


def test_rank_route_matches_cut_route_across_insertions():
    """Points added below, above and between the old points of a
    configuration shift the ranks of the points after them; linking on
    order keys must still match the cut route (on the points before any
    insertion, test_linking_table_is_doubled_linking_number compares both
    routes on every quadruple)."""
    from swapalg.verify import _linking_table

    rng = random.Random(14)
    grid = PointConfig()
    scattered = PointConfig()
    for config, old, every_new_quadruple in (
        (grid, [grid.point(f"g{i}", Fraction(i + 1, 9)) for i in range(7)], True),
        (
            scattered,
            [scattered.point(f"r{i}", Fraction(k, 997)) for i, k in enumerate(rng.sample(range(1, 996), 12))],
            False,
        ),
    ):
        ps = sorted(p.position for p in old)
        middle = rng.choice([(a + b) / 2 for a, b in zip(ps, ps[1:])])
        points = list(old)
        # below the minimum, above the maximum, then in a gap
        for k, pos in enumerate((ps[0] / 2, (ps[-1] + 1) / 2, middle)):
            new = config.point(f"n{k}", pos)
            points.append(new)
            if every_new_quadruple:
                quads = [q for q in itertools.product(points, repeat=4) if new in q]
            else:
                quads = []
                for _ in range(1000):
                    q = [rng.choice(points) for _ in range(3)]
                    q.insert(rng.randrange(4), new)
                    quads.append(q)
            quads += [[rng.choice(old) for _ in range(4)] for _ in range(300)]
            cut = default_cut(p.position for p in points)
            for q in quads:
                assert linking_number(*q) == linking_number(*q, cut=cut), q
        assert _linking_table(points).ravel().tolist() == [
            2 * linking_number(*q) for q in itertools.product(points, repeat=4)
        ]


def test_order_keys_break_float_ties_exactly():
    """Positions that round to the same float (around 1/3, and a position
    below the smallest float next to 0) keep their exact order."""
    from swapalg.algebra import generator, swap_bracket
    from swapalg.verify import _linking_table

    third, tiny = Fraction(1, 3), Fraction(1, 10**30)
    positions = [third + tiny, Fraction(7, 10), third, Fraction(1, 10**400), third - tiny, Fraction(0)]
    assert len({float(pos) for pos in positions}) == 3
    config = PointConfig()
    points = [config.point(f"t{i}", pos) for i, pos in enumerate(positions)]
    assert [p.position for p in config.points()] == sorted(positions)
    cut = default_cut(positions)
    quads = list(itertools.product(points, repeat=4))
    for q in quads:
        assert linking_number(*q) == linking_number(*q, cut=cut), q
    assert _linking_table(points).ravel().tolist() == [2 * linking_number(*q) for q in quads]
    # the order the bracket prints is the position order
    t = points
    bracket = swap_bracket(
        generator(t[0], t[4]) * generator(t[2], t[5]), generator(t[3], t[2]) + generator(t[4], t[1]), 1
    )
    terms = bracket.terms()
    assert len(terms) > 2

    def key(pair):
        return pair[0].position, pair[1].position

    keys = [(m.degree, [key(p) for p in m.pairs]) for m, _ in terms]
    assert keys == sorted(keys)
    for m, _ in terms:
        assert repr(m) == "*".join(f"[{X.label} {x.label}]" for X, x in sorted(m.pairs, key=key))


def test_order_key_float_is_the_correctly_rounded_position():
    # numerators and denominators past 10**400 have no float of their own
    big = 10**400
    positions = [
        Fraction(0), Fraction(1, 3), Fraction(2**53 - 1, 2**53), Fraction(1, 10**400),
        Fraction(big + 1, 3 * big + 7), Fraction(big - 1, big), Fraction(7 * big + 3, 10 * big + 1),
    ]
    rng = random.Random(5)
    positions += [Fraction(rng.randrange(d), d) for d in (rng.randrange(1, 10**25) for _ in range(200))]
    config = PointConfig()
    for i, pos in enumerate(positions):
        key = config.point(f"k{i}", pos).order_key
        assert key == (float(pos), pos)
        assert type(key[0]) is float
