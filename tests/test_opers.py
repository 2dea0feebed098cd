import math
import random
from fractions import Fraction

import numpy as np
import pytest

from swapalg.circle import PointConfig, linking_number
from swapalg.errors import EvaluationError, SwapAlgError
from swapalg.multifraction import chi
from swapalg.opers import (
    MAX_DET_DRIFT,
    OperSpec,
    _coefficient_table,
    _det,
    _grid_times,
    _holonomy,
    _newton_step,
    _product,
    _step_matrices,
    _table_holonomy,
    coordinate_function,
    ds_crossfraction_bracket,
    ds_pair_bracket,
    frenet_validate,
    holonomy_class,
    integrate,
    oper_cross_fraction,
    random_trivial_holonomy_opers,
    richardson_error,
    solve_trivial_holonomy,
    veronese_oper,
    weak_cross_ratio,
)

PI2 = math.pi**2
M = 512


@pytest.fixture(scope="module")
def circle_solution():
    return integrate(veronese_oper(2), M)


def grid(j, steps=M):
    return Fraction(j, steps)


def cot_cross_ratio(a, b, c, d):
    cot = lambda t: math.cos(math.pi * t) / math.sin(math.pi * t)
    p, q, r, s = cot(a), cot(b), cot(c), cot(d)
    return (p - q) * (r - s) / ((r - q) * (p - s))


# -- integration and holonomy ------------------------------------------------


def test_constant_pi_squared_gives_minus_identity(circle_solution):
    assert np.max(np.abs(circle_solution.holonomy + np.eye(2))) < 1e-8
    assert holonomy_class(circle_solution) == "trivial-in-PSL"


def test_zero_coefficient_is_unipotent():
    sol = integrate(OperSpec(2), 128)
    assert holonomy_class(sol) == "unipotent"
    assert np.max(np.abs(sol.holonomy - [[1.0, 1.0], [0.0, 1.0]])) < 1e-10


def test_four_pi_squared_gives_plus_identity():
    sol = integrate(OperSpec(2, {2: [(0, 4 * PI2, 0.0)]}), M)
    assert np.max(np.abs(sol.holonomy - np.eye(2))) < 1e-8
    assert holonomy_class(sol) == "trivial-in-PSL"


def test_negative_constant_is_loxodromic():
    sol = integrate(OperSpec(2, {2: [(0, -1.0, 0.0)]}), 128)
    assert holonomy_class(sol) == "loxodromic"


def test_small_positive_constant_is_elliptic_like():
    sol = integrate(OperSpec(2, {2: [(0, 1.0, 0.0)]}), 128)
    assert holonomy_class(sol) == "elliptic-like"


def test_holonomy_is_classified_once_per_solution(monkeypatch):
    import swapalg.opers as opers

    sol = integrate(veronese_oper(2), 256)
    loxodromic = integrate(OperSpec(2, {2: [(0, -1.0, 0.0)]}), 128)

    def forbidden(h):
        raise AssertionError("holonomy classified again")

    monkeypatch.setattr(opers, "_classify_holonomy", forbidden)
    assert holonomy_class(sol) == "trivial-in-PSL"
    X, x = sol.point(grid(1, 256)), sol.point(grid(100, 256))
    assert sol.pair_value(X, x) == coordinate_function(sol, X.position, x.position)
    oper_cross_fraction(sol, grid(1, 256), grid(50, 256), grid(100, 256), grid(150, 256))
    with pytest.raises(EvaluationError, match="multivalued"):
        oper_cross_fraction(loxodromic, grid(1, 128), grid(5, 128), grid(9, 128), grid(13, 128))


def test_determinant_conserved(circle_solution):
    assert circle_solution.det_drift < 1e-8


def test_third_order_veronese():
    sol = integrate(veronese_oper(3), M)
    assert holonomy_class(sol) == "trivial-in-PSL"
    assert np.max(np.abs(sol.holonomy - np.eye(3))) < 1e-7
    assert sol.det_drift < 1e-8


def test_drifting_determinants_are_refused():
    assert integrate(veronese_oper(3), 64).det_drift < 1e-6
    assert integrate(OperSpec(2, {2: [(0, -100.0, 0.0)]}), 64).det_drift < MAX_DET_DRIFT
    # the solutions grow like e^sqrt(1000): step error at 64 steps,
    # cancellation among entries near 1e13 at 4096
    for steps in (64, 4096):
        with pytest.raises(SwapAlgError, match="determinants drift"):
            integrate(OperSpec(2, {2: [(0, -1000.0, 0.0)]}), steps)


def test_step_floor_and_grid_snapping(circle_solution):
    with pytest.raises(SwapAlgError):
        integrate(veronese_oper(2), 32)
    with pytest.raises(SwapAlgError, match="64 steps"):
        richardson_error(veronese_oper(2), 100)  # the coarse half has 50 steps
    with pytest.raises(SwapAlgError, match="64 steps"):
        solve_trivial_holonomy(veronese_oper(2), [(2, 0.8, -0.4)], -1, stages=(32, 4096))
    with pytest.raises(SwapAlgError, match="grid"):
        circle_solution.frame(0.1234567)
    assert circle_solution.grid_index(Fraction(3, M)) == 3
    assert circle_solution.grid_index(1.0) == M


def test_exact_rationals_index_the_grid_in_integers(circle_solution):
    for j in (0, 1, M // 3, M - 1):
        for m in range(-3, 4):
            assert circle_solution.grid_index(Fraction(j, M) + m) == j + m * M
    # an exact rational off the grid by any amount is refused; a float
    # keeps the 1e-9-of-a-step tolerance
    with pytest.raises(SwapAlgError, match="grid"):
        circle_solution.grid_index(Fraction(1, 4) + Fraction(1, 10**15))
    assert circle_solution.grid_index(0.25 + 1e-15) == M // 4


def test_lifts_are_bounded(circle_solution):
    from swapalg.opers import MAX_LIFT_PERIODS

    last = Fraction(MAX_LIFT_PERIODS) - Fraction(1, M)
    assert circle_solution.grid_index(last) == MAX_LIFT_PERIODS * M - 1
    assert circle_solution.grid_index(-last) == 1 - MAX_LIFT_PERIODS * M
    for t in (
        Fraction(MAX_LIFT_PERIODS),
        -Fraction(MAX_LIFT_PERIODS),
        Fraction(10**400),
        10**30,
        float(MAX_LIFT_PERIODS),
        1e30,
        math.inf,
        math.nan,
    ):
        with pytest.raises(SwapAlgError, match="periods"):
            circle_solution.grid_index(t)
    with pytest.raises(SwapAlgError, match="periods"):
        coordinate_function(circle_solution, Fraction(10**30), 0)


def test_grid_size_is_bounded_before_allocation(monkeypatch):
    from swapalg import opers

    # the largest grid the package uses: order 3 at 16384 steps
    assert (2 * 16384 + 1) * 3**2 <= opers.MAX_GRID_ENTRIES
    # a small bound, so that a missing guard allocates nothing large
    monkeypatch.setattr(opers, "MAX_GRID_ENTRIES", (2 * 1024 + 1) * 4)
    integrate(veronese_oper(2), 1024)
    for call in (
        lambda: integrate(veronese_oper(2), 1025),
        lambda: integrate(veronese_oper(3), 1024),
        lambda: _holonomy(veronese_oper(2), 1025),
        lambda: richardson_error(veronese_oper(2), 4096),
        lambda: solve_trivial_holonomy(veronese_oper(2), [(2, 0.8, -0.4)], -1),
    ):
        with pytest.raises(SwapAlgError, match="matrix entries"):
            call()


def test_the_newton_search_counts_its_three_probe_grids(monkeypatch):
    from swapalg import opers

    # one grid of 2048 steps fits this bound, the three of a fresh Jacobian
    # do not; the search refuses such a stage before any stage starts
    monkeypatch.setattr(opers, "MAX_GRID_ENTRIES", (2 * 2048 + 1) * 4 * 2)
    integrate(veronese_oper(2), 2048)
    started = []
    # every stage sums its fixed harmonics from the grid's memoized waves
    monkeypatch.setattr(opers, "_grid_waves", lambda *args: started.append(args))
    with pytest.raises(SwapAlgError, match="needs 49164 matrix entries for 3 grids at once"):
        solve_trivial_holonomy(veronese_oper(2), [(2, 0.8, -0.4)], -1, stages=(256, 2048))
    assert started == []


@pytest.mark.parametrize("steps", [64, 256, 4096])
def test_grid_harmonics_match_the_cos_sin_formula_bit_for_bit(steps):
    from swapalg import opers

    times = np.arange(2 * steps + 1) * ((1.0 / steps) / 2.0)
    for k in (1, 2, 3, 5):
        w = 2.0 * math.pi * k * times
        for got, want in zip(opers._grid_waves(k, steps), (np.cos(w), np.sin(w))):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]
    # and a table summed from them is the one sampled at those times afresh
    oper = ORACLE_OPERS["harmonics-3"]
    table = _coefficient_table(oper, steps)
    for index in (2, 3):
        want = oper.coefficient_values(index, times)
        assert [v.hex() for v in table[index - 2].tolist()] == [v.hex() for v in want.tolist()]


def test_integrate_after_the_newton_search_samples_no_harmonic(monkeypatch):
    # the last stage's grid is integrate's: its harmonics k = 1, 2, 3 are
    # all in the memo already
    oper = solve_trivial_holonomy(
        veronese_oper(2), [(2, 0.8, -0.4), (3, 0.3, 0.5)], -1, stages=(256, 4096)
    )
    want = np.array([oper.coefficient_values(2, _grid_times(4096))])

    def forbidden(*args, **kwargs):
        raise AssertionError("a harmonic is sampled again")

    monkeypatch.setattr(np, "cos", forbidden)
    monkeypatch.setattr(np, "sin", forbidden)
    sol = integrate(oper, 4096)
    table = _coefficient_table(oper, 4096)
    monkeypatch.undo()
    assert table.tobytes() == want.tobytes()
    assert sol.frames.tobytes() == integrate(oper, 4096).frames.tobytes()


def test_the_harmonics_memo_keeps_its_bound():
    from swapalg import opers

    memo = opers._read_only_waves
    memo.cache_clear()
    # 16384 and 2^16 steps lie above 4096: computed, and not kept
    for steps in (64, 256, 1024, 4096, 16384, 1 << 16):
        for k in range(1, 9):
            cos, sin = opers._grid_waves(k, steps)
            assert not cos.flags.writeable and not sin.flags.writeable
            with pytest.raises(ValueError):
                cos[0] = 0.0
            assert memo.cache_info().currsize <= 8
    kept = memo.cache_info()
    assert opers._grid_waves(8, 4096) is opers._grid_waves(8, 4096)
    assert opers._grid_waves(8, 16384) is not opers._grid_waves(8, 16384)
    assert opers._grid_waves(8, 1 << 16) is not opers._grid_waves(8, 1 << 16)
    assert memo.cache_info().misses == kept.misses
    assert memo.cache_info().currsize == 8
    # a full memo evicts the least recently used
    memo.cache_clear()
    first = opers._grid_waves(1, 64)
    for k in range(2, 9):
        opers._grid_waves(k, 64)
    assert opers._grid_waves(1, 64) is first  # a hit, now the most recent
    opers._grid_waves(9, 64)
    misses = memo.cache_info().misses
    assert opers._grid_waves(1, 64) is first
    assert memo.cache_info().misses == misses
    opers._grid_waves(2, 64)  # evicted by (9, 64)
    assert memo.cache_info().misses == misses + 1
    assert memo.cache_info().currsize == 8


def test_the_harmonics_memo_is_shared_safely_across_threads():
    import sys
    import threading

    from swapalg import opers

    opers._read_only_waves.cache_clear()
    # twelve grids for a memo of eight, so the threads evict each other's
    keys = [(k, steps) for k in range(1, 5) for steps in (64, 128, 256)]
    want = {key: [a.tobytes() for a in opers._waves(key[0], _grid_times(key[1]))] for key in keys}
    errors = []

    def work(seed):
        rng = random.Random(seed)
        try:
            for _ in range(300):
                key = rng.choice(keys)
                assert [a.tobytes() for a in opers._grid_waves(*key)] == want[key]
                assert opers._read_only_waves.cache_info().currsize <= 8
        except Exception as exc:  # reported by the main thread below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []


def test_richardson_estimate_is_small():
    assert richardson_error(veronese_oper(2), 256) < 1e-8


def _loop_frames(oper, steps):
    """Reference integrator: one classical RK4 step at a time on the frame."""
    n = oper.order
    h = 1.0 / steps
    times = np.arange(2 * steps + 1) * (h / 2.0)
    mats = np.zeros((len(times), n, n))
    for i in range(n - 1):
        mats[:, i, i + 1] = 1.0
    for index in range(2, n + 1):
        mats[:, n - 1, n - index] = -oper.coefficient_values(index, times)
    frames = np.empty((steps + 1, n, n))
    frames[0] = np.eye(n)
    y = frames[0]
    for k in range(steps):
        a0, a1, a2 = mats[2 * k], mats[2 * k + 1], mats[2 * k + 2]
        k1 = a0 @ y
        k2 = a1 @ (y + (h / 2.0) * k1)
        k3 = a1 @ (y + (h / 2.0) * k2)
        k4 = a2 @ (y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        frames[k + 1] = y
    return frames


ORACLE_OPERS = {
    "veronese-2": veronese_oper(2),
    "veronese-3": veronese_oper(3),
    "harmonics": OperSpec(2, {2: [(0, PI2, 0.0), (2, 0.8, -0.4), (3, 0.3, 0.5)]}),
    # q3 makes the companion row of order 3 a sum of two products
    "harmonics-3": OperSpec(
        3, {2: [(0, 4 * PI2, 0.0), (2, 0.5, -0.3)], 3: [(1, 0.7, 0.2), (2, -0.4, 0.9)]}
    ),
    # above order 3, determinants and inverses go through LAPACK
    "harmonics-4": OperSpec(
        4, {2: [(0, 1.0, 0.0), (1, 0.5, -0.3)], 3: [(1, 0.4, 0.2)], 4: [(2, -0.3, 0.6)]}
    ),
}


def _matmul_steps(oper, steps):
    """Reference step build: the companion matrices as a stack, the RK4
    stages as `@` products, summed in the order `_step_matrices` sums them."""
    n = oper.order
    table = _coefficient_table(oper, steps)
    mats = np.zeros((2 * steps + 1, n, n))
    for i in range(n - 1):
        mats[:, i, i + 1] = 1.0
    for index in range(2, n + 1):
        mats[:, n - 1, n - index] = -table[index - 2]
    h = 1.0 / steps
    a0, a1, a2 = mats[:-1:2], mats[1::2], mats[2::2]
    eye = np.eye(n)
    k2 = a1 @ (eye + (h / 2.0) * a0)
    k3 = a1 @ (eye + (h / 2.0) * k2)
    k4 = a2 @ (eye + h * k3)
    total = a0 + 2.0 * k2
    total += 2.0 * k3
    total += k4
    total *= h / 6.0
    total += eye
    return total


@pytest.mark.parametrize("steps", [64, 100, 1023, 4096])
@pytest.mark.parametrize("name", sorted(ORACLE_OPERS))
def test_step_build_matches_the_matmul_reference(name, steps):
    oper = ORACLE_OPERS[name]
    ref = _matmul_steps(oper, steps)
    got = _step_matrices(_coefficient_table(oper, steps), steps).transpose(2, 0, 1)
    if len(oper.coefficients) <= 1:
        # one nonzero product per companion row: the row operations round
        # exactly as @ does
        assert np.array_equal(got, ref)
    else:
        # OpenBLAS fuses the multiply-adds of a row, which an elementwise
        # sum cannot: each fused add skips one rounding
        assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))


@pytest.mark.parametrize("steps", [64, 100, 1023, 4096])
@pytest.mark.parametrize("name", sorted(ORACLE_OPERS))
def test_prefix_scan_matches_step_loop(name, steps):
    # 100 and 1023 are not powers of two: the scan's last pass and the
    # tree product's odd levels are partial there
    oper = ORACLE_OPERS[name]
    sol = integrate(oper, steps)
    ref = _loop_frames(oper, steps)
    bound = 1e-12 * np.max(np.abs(ref))
    assert np.max(np.abs(sol.frames - ref)) <= bound
    assert np.max(np.abs(sol.holonomy - ref[-1])) <= bound
    ref_drift = np.max(np.abs(np.linalg.det(ref) - 1.0))
    assert abs(sol.det_drift - ref_drift) <= bound
    assert np.max(np.abs(_holonomy(oper, steps) - sol.holonomy)) <= 1e-13
    eye = np.eye(oper.order)
    for m in range(-2, 3):
        for j in (0, 1, steps // 3, steps - 1):
            t = Fraction(j, steps) + m
            assert np.max(np.abs(sol.frame_inverse(t) @ sol.frame(t) - eye)) <= 1e-12


@pytest.mark.parametrize("name", [k for k in sorted(ORACLE_OPERS) if ORACLE_OPERS[k].order <= 3])
def test_closed_form_det_and_inverse_match_lapack(name):
    sol = integrate(ORACLE_OPERS[name], 1023)
    want = np.linalg.det(sol.frames)
    got = _det(sol.frames.transpose(1, 2, 0))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    want = np.linalg.inv(sol.frames)
    got = np.array([sol.frame_inverse(Fraction(j, 1023)) for j in range(1024)])
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def _scalar_product(a, b):
    """a_m b_m for every m of two components-first stacks, one Python float
    operation at a time: sum_k a[i][k] b[k][j] with k ascending."""
    n, _, count = a.shape
    a, b = a.tolist(), b.tolist()
    out = np.empty((n, n, count))
    for m in range(count):
        for i in range(n):
            for j in range(n):
                entry = a[i][0][m] * b[0][j][m]
                for k in range(1, n):
                    entry += a[i][k][m] * b[k][j][m]
                out[i, j, m] = entry
    return out


@pytest.mark.parametrize("count", [1, 3, 4097])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_product_matches_the_scalar_reference_bit_for_bit(n, count):
    # entries of mixed sign and scale, so that a fused multiply-add or a
    # sum taken in another order changes the last bit of many products
    rng = np.random.default_rng(100 * n + count)
    shape = (n, n, 2 * count + 1)
    stack = rng.standard_normal(shape) * 10.0 ** rng.uniform(-3.0, 3.0, shape)
    d = count + 1
    operands = [
        (np.ascontiguousarray(stack[..., :count]), np.ascontiguousarray(stack[..., -count:])),
        (stack[..., 1::2], stack[..., :-1:2]),  # a level of the tree product
        (stack[..., d:], stack[..., :-d]),  # a pass of the prefix scan
    ]
    for a, b in operands:
        got = _product(a, b)
        assert got.shape == (n, n, count)
        assert got.tobytes() == _scalar_product(a, b).tobytes()


@pytest.mark.parametrize("steps", [255, 256, 1023])
@pytest.mark.parametrize("n", [2, 3])
def test_batched_holonomies_match_single_calls_bit_for_bit(n, steps):
    # coefficients of mixed sign and scale, so that a batch multiplied in
    # another order, or through `@`, changes the last bits; 255 and 1023
    # steps give odd stack lengths, which the tree product folds in
    rng = np.random.default_rng(10 * n + steps)
    shape = (n - 1, 3, 2 * steps + 1)
    table = rng.standard_normal(shape) * 10.0 ** rng.uniform(-1.0, 1.5, shape)
    got = _table_holonomy(table, steps)
    assert got.shape == (n, n, 3)
    for b in range(3):
        assert np.array_equal(got[..., b], _table_holonomy(table[:, b], steps))


@pytest.mark.parametrize("name", ["harmonics", "harmonics-3"])
def test_frame_inverses_reuse_the_drift_check_determinants(name, monkeypatch):
    import swapalg.opers as opers

    sol = integrate(ORACLE_OPERS[name], 256)
    stack = sol.frames.transpose(1, 2, 0)
    want = opers._inverse(stack, _det(stack)).transpose(2, 0, 1)

    def no_det(*args):
        raise AssertionError("the frame determinants are taken again")

    monkeypatch.setattr(opers, "_det", no_det)
    assert sol._frame_inverses().tobytes() == np.ascontiguousarray(want).tobytes()


def test_negative_holonomy_powers_invert_nothing(circle_solution, monkeypatch):
    # H^-m is the m-th power of the inverse holonomy, the last of the
    # frames' inverses, built once; no lift inverts a matrix again
    import swapalg.opers as opers

    sol = circle_solution
    sol.frame_inverse(0)  # the frames' inverses, built on first use

    def no_inverse(*args):
        raise AssertionError("a matrix is inverted again")

    monkeypatch.setattr(opers, "_inverse", no_inverse)
    for m in (-3, -1, 1, 3):
        t = Fraction(100, M) + m
        assert np.max(np.abs(sol.frame_inverse(t) @ sol.frame(t) - np.eye(2))) <= 1e-12
        want = sol.frames[100] @ np.linalg.matrix_power(sol.holonomy, m)
        assert np.max(np.abs(sol.frame(t) - want)) <= 1e-12


# -- weak cross ratios -----------------------------------------------------------


def test_weak_cross_ratio_matches_classical(circle_solution):
    rng = random.Random(0)
    for _ in range(25):
        idx = rng.sample(range(1, M), 4)
        got = weak_cross_ratio(circle_solution, *(grid(j) for j in idx))
        want = cot_cross_ratio(*(j / M for j in idx))
        assert abs(got - want) <= 1e-7 * max(1.0, abs(want))


def test_weak_cross_ratio_normalisations(circle_solution):
    x, y, t = grid(10), grid(100), grid(400)
    assert weak_cross_ratio(circle_solution, x, y, x, t) == 1.0
    assert weak_cross_ratio(circle_solution, x, y, t, y) == 1.0


def test_weak_cross_ratio_cocycles(circle_solution):
    # the hyperplane slots are arguments 2 and 4, the curve slots 1 and 3;
    # each family satisfies its own multiplicative cocycle
    rng = random.Random(1)
    for _ in range(20):
        x, y, z, t, s = (grid(j) for j in rng.sample(range(1, M), 5))
        lhs = weak_cross_ratio(circle_solution, x, y, z, t)
        chained_hyperplane = weak_cross_ratio(
            circle_solution, x, y, z, s
        ) * weak_cross_ratio(circle_solution, x, s, z, t)
        assert abs(lhs - chained_hyperplane) < 1e-8 * max(1.0, abs(lhs))
        chained_curve = weak_cross_ratio(
            circle_solution, x, y, s, t
        ) * weak_cross_ratio(circle_solution, s, y, z, t)
        assert abs(lhs - chained_curve) < 1e-8 * max(1.0, abs(lhs))


def test_weak_cross_ratio_rejects_multivalued():
    sol = integrate(OperSpec(2), 128)  # unipotent holonomy
    with pytest.raises(EvaluationError, match="multivalued"):
        weak_cross_ratio(sol, grid(1, 128), grid(40, 128), grid(80, 128), grid(100, 128))


def test_weak_cross_ratio_rejects_coincidences(circle_solution):
    with pytest.raises(SwapAlgError):
        weak_cross_ratio(circle_solution, grid(1), grid(2), grid(2), grid(9))


# -- coordinate functions ----------------------------------------------------------


def test_coordinate_sine_pattern(circle_solution):
    Y, y = grid(100), grid(417)
    expected = math.sin(math.pi * (100 - 417) / M) / math.pi
    assert coordinate_function(circle_solution, Y, y) == pytest.approx(expected, abs=1e-10)


def test_coordinate_transport_constancy(circle_solution):
    Y, y = grid(77), grid(303)
    values = [
        coordinate_function(circle_solution, Y, y, via=grid(k))
        for k in range(0, M, M // 16)
    ]
    assert max(values) - min(values) < 1e-8


def test_coordinate_mod_one_for_trivial_holonomy():
    sol = integrate(OperSpec(2, {2: [(0, 4 * PI2, 0.0)]}), M)
    Y, y = grid(33), grid(190)
    assert coordinate_function(sol, Y + 1, y) == pytest.approx(
        coordinate_function(sol, Y, y), abs=1e-8
    )
    assert coordinate_function(sol, Y, y - 2) == pytest.approx(
        coordinate_function(sol, Y, y), abs=1e-8
    )


def test_coordinate_vanishes_on_diagonal(circle_solution):
    t = grid(123)
    assert abs(coordinate_function(circle_solution, t, t)) < 1e-12


def _reference_table(sol, lefts, rights):
    """The pairing table in plain Python floats, every sum k-ascending.

    A lift m multiplies xi by H^m and xi* by H^-m, where H^-1 is the last
    frame inverse and H^2 is H times H (the squaring of
    `_holonomy_power`; |m| <= 2 only).
    """
    n, steps = sol.oper.order, sol.steps
    inverses = sol._frame_inverses()

    def ksum(terms):
        total = terms[0]
        for term in terms[1:]:
            total += term
        return total

    def matmul(a, b):
        return [[ksum([a[i][k] * b[k][j] for k in range(n)]) for j in range(len(b[0]))]
                for i in range(len(a))]

    def power(m):
        h = (sol.holonomy if m > 0 else inverses[steps]).tolist()
        return h if abs(m) == 1 else matmul(h, h)

    def place(t):
        return divmod(sol.grid_index(t), steps)

    vectors, covectors = [], []
    for t in lefts:
        m, r = place(t)
        row = [sol.frames[r, 0].tolist()]
        vectors.append((row if m == 0 else matmul(row, power(m)))[0])
    for t in rights:
        m, r = place(t)
        column = [[v] for v in inverses[r, :, -1].tolist()]
        column = column if m == 0 else matmul(power(-m), column)
        covectors.append([v for (v,) in column])
    return [[ksum([v[k] * w[k] for k in range(n)]) for w in covectors] for v in vectors]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_pairing_table_matches_the_plain_reference_bit_for_bit(n):
    steps = 128
    coefficients = {2: [(0, 3.0, 0.0), (1, 0.5, -0.25)]}
    coefficients[n] = coefficients.get(n, []) + [(2, 0.3, 0.2)]
    sol = integrate(OperSpec(n, coefficients), steps)
    rng = random.Random(n)
    lifts = [-2, -1, 0, 1, 2]
    lefts = [Fraction(rng.randrange(steps), steps) + m for m in lifts]
    rights = [Fraction(rng.randrange(steps), steps) + m for m in lifts[::-1] + [0]]
    table = sol.pairing_table(lefts, rights)
    want = _reference_table(sol, lefts, rights)
    assert np.array(table).tobytes() == np.array(want).tobytes()


# -- cross fractions from coordinates -----------------------------------------------


def test_oper_cross_fraction_matches_weak_cross_ratio(circle_solution):
    rng = random.Random(2)
    for _ in range(20):
        X, x, Y, y = (grid(j) for j in rng.sample(range(1, M), 4))
        direct = oper_cross_fraction(circle_solution, X, x, Y, y)
        assert direct == pytest.approx(
            weak_cross_ratio(circle_solution, X, y, Y, x), rel=1e-9
        )


def test_oper_cross_fraction_lift_invariance(circle_solution):
    X, x, Y, y = grid(50), grid(150), grid(290), grid(460)
    base = oper_cross_fraction(circle_solution, X, x, Y, y)
    shifted = oper_cross_fraction(circle_solution, X + 1, x, Y - 2, y)
    assert shifted == pytest.approx(base, rel=1e-8)


def test_oper_cross_fraction_normalisations(circle_solution):
    # x = y and X = Y are the cross-ratio normalisation cases
    assert oper_cross_fraction(circle_solution, grid(3), grid(9), grid(40), grid(9)) == 1.0
    assert oper_cross_fraction(circle_solution, grid(3), grid(9), grid(3), grid(80)) == 1.0


def test_oper_cross_fraction_rejects_poles(circle_solution):
    with pytest.raises(EvaluationError, match="degenerate"):
        oper_cross_fraction(circle_solution, grid(3), grid(3), grid(9), grid(12))


# -- the reduced bracket --------------------------------------------------------------


def test_ds_pair_bracket_unlinked_vanishes(circle_solution):
    value = ds_pair_bracket(
        circle_solution, (grid(10), grid(20)), (grid(100), grid(200))
    )
    assert value == 0.0


def test_ds_pair_bracket_antisymmetry(circle_solution):
    first = (grid(10), grid(150))
    second = (grid(80), grid(300))
    forward = ds_pair_bracket(circle_solution, first, second)
    backward = ds_pair_bracket(circle_solution, second, first)
    assert abs(forward + backward) < 1e-10
    assert forward != 0.0


def test_ds_pair_bracket_matches_the_veronese_closed_form(circle_solution):
    # On veronese_oper(2), F_{Y,y} = sin(pi (Y - y)) / pi.  Cross fractions
    # cancel the 1/n^2 term, so only a pair value can pin it.
    closed = lambda A, a: math.sin(math.pi * (A - a)) / math.pi

    def lk(quadruple):
        config = PointConfig()
        return float(linking_number(*(config.point(str(i), t) for i, t in enumerate(quadruple))))

    rng = random.Random(5)
    quadruples = [(Fraction(1, 8), Fraction(5, 8), Fraction(3, 8), Fraction(7, 8))]
    while len(quadruples) < 8:
        quadruple = tuple(grid(j) for j in rng.sample(range(M), 4))
        if lk(quadruple):
            quadruples.append(quadruple)
    for X, x, Y, y in quadruples:
        expected = lk((X, x, Y, y)) * (closed(X, y) * closed(Y, x) - closed(X, x) * closed(Y, y) / 4)
        # each F is off by at most e on the grid and at most 1/pi in size
        e = max(
            abs(coordinate_function(circle_solution, A, a) - closed(A, a))
            for A in (X, Y)
            for a in (x, y)
        )
        assert e < 1e-10
        bound = 1.25 * (2 * e / math.pi + e * e) + 1e-15
        assert abs(ds_pair_bracket(circle_solution, (X, x), (Y, y)) - expected) <= bound


def test_ds_pair_bracket_rejects_coincident(circle_solution):
    with pytest.raises(SwapAlgError):
        ds_pair_bracket(circle_solution, (grid(10), grid(20)), (grid(10), grid(200)))


def test_ds_crossfraction_bracket_agreement(circle_solution):
    rng = random.Random(3)
    for _ in range(6):
        idx = rng.sample(range(1, M), 8)
        q0 = tuple(grid(j) for j in idx[:4])
        q1 = tuple(grid(j) for j in idx[4:])
        ds_value, swap_value = ds_crossfraction_bracket(circle_solution, q0, q1)
        assert ds_value == pytest.approx(swap_value, abs=1e-9)
        for alpha in (1, Fraction(5), Fraction(-1, 4)):
            again = ds_crossfraction_bracket(circle_solution, q0, q1, alpha)
            assert again == (ds_value, swap_value)


def test_ds_crossfraction_bracket_self_is_zero(circle_solution):
    quad = (grid(11), grid(111), grid(222), grid(333))
    assert ds_crossfraction_bracket(circle_solution, quad, quad) == (0.0, 0.0)


def test_ds_crossfraction_bracket_unlinked_is_zero(circle_solution):
    q0 = (grid(2), grid(10), grid(20), grid(30))
    q1 = (grid(260), grid(280), grid(300), grid(320))
    ds_value, swap_value = ds_crossfraction_bracket(circle_solution, q0, q1)
    assert ds_value == 0.0 and swap_value == 0.0


def test_ds_crossfraction_bracket_rejects_overlap(circle_solution):
    q0 = (grid(2), grid(10), grid(20), grid(30))
    q1 = (grid(2), grid(280), grid(300), grid(320))
    with pytest.raises(SwapAlgError):
        ds_crossfraction_bracket(circle_solution, q0, q1)


def test_ds_crossfraction_bracket_rejects_multivalued():
    sol = integrate(OperSpec(2, {2: [(0, 5.0, 0.0)]}), 1024)
    assert holonomy_class(sol) == "elliptic-like"
    q0 = tuple(grid(j, 1024) for j in (37, 205, 411, 700))
    q1 = tuple(grid(j, 1024) for j in (120, 333, 590, 901))
    for second in (q1, q0):  # the self-bracket shortcut comes after the check
        with pytest.raises(EvaluationError, match="multivalued"):
            ds_crossfraction_bracket(sol, q0, second)


def test_ds_crossfraction_bracket_reads_one_table(circle_solution, monkeypatch):
    # one 4 x 4 pairing table, 4 left by 4 right parameters, on points of
    # the solution's own configuration; no pairing is taken on its own and
    # no configuration is built per bracket
    import swapalg.opers as opers

    counts = {"tables": [], "pairings": 0, "configs": 0}
    table, pairing, config = (
        opers.FundamentalSolution.pairing_table, opers.coordinate_function, opers.PointConfig
    )

    def counted_table(self, lefts, rights):
        counts["tables"].append((len(lefts), len(rights)))
        return table(self, lefts, rights)

    def counted_pairing(*args, **kwargs):
        counts["pairings"] += 1
        return pairing(*args, **kwargs)

    def counted_config():
        counts["configs"] += 1
        return config()

    monkeypatch.setattr(opers.FundamentalSolution, "pairing_table", counted_table)
    monkeypatch.setattr(opers, "coordinate_function", counted_pairing)
    monkeypatch.setattr(opers, "PointConfig", counted_config)
    rng = random.Random(4)
    for _ in range(5):
        idx = rng.sample(range(1, M), 8)
        counts.update(tables=[], pairings=0, configs=0)
        ds_crossfraction_bracket(
            circle_solution, tuple(grid(j) for j in idx[:4]), tuple(grid(j) for j in idx[4:])
        )
        assert counts == {"tables": [(4, 4)], "pairings": 0, "configs": 0}
        positions = {p.position for p in circle_solution.config.points()}
        assert all(grid(j) in positions for j in idx)


# -- the solution as an evaluation universe --------------------------------------------


def _spread_indices(rng, count, steps, gap):
    """Grid indices at least `gap` steps apart around the circle."""
    while True:
        idx = rng.sample(range(steps), count)
        ring = sorted(idx)
        if all((b - a) % steps >= gap for a, b in zip(ring, ring[1:] + ring[:1])):
            return idx


def test_chi_detects_rank_two_on_the_veronese_oper():
    from swapalg.representation import Representation

    assert Representation.chi is chi  # one rank test for both backends
    steps = 1024
    sol = integrate(veronese_oper(2), steps)
    rng = random.Random(42)
    for _ in range(30):
        pts = [sol.point(grid(j, steps)) for j in _spread_indices(rng, 8, steps, 16)]
        assert abs(chi(sol, pts[:4], pts[4:])) <= 1e-8
        assert abs(chi(sol, pts[:3], pts[3:6])) > 1e-4


def test_universe_refuses_multivalued_solutions():
    sol = integrate(OperSpec(2, {2: [(0, 5.0, 0.0)]}), 1024)
    pts = [sol.point(grid(j, 1024)) for j in (37, 205, 411, 700, 120, 333)]
    with pytest.raises(EvaluationError, match="multivalued"):
        sol.pair_value(pts[0], pts[1])
    with pytest.raises(EvaluationError, match="multivalued"):
        chi(sol, pts[:3], pts[3:])


def test_a_grid_point_is_made_once(monkeypatch):
    sol = integrate(veronese_oper(2), 128)
    made = []
    place = PointConfig.point

    def counted(config, label, position):
        made.append(label)
        return place(config, label, position)

    monkeypatch.setattr(PointConfig, "point", counted)
    first = sol.point(Fraction(5, 128))
    assert made == ["t5"]
    for t in (Fraction(5, 128), Fraction(133, 128), Fraction(-123, 128), 5 / 128, 2 + 5 / 128):
        assert sol.point(t) is first
    assert made == ["t5"]
    sol.point(Fraction(6, 128))
    assert made == ["t5", "t6"]


def test_points_are_shared_by_lifts_and_pair_values_are_coordinates(circle_solution):
    t = grid(77)
    assert circle_solution.point(t) is circle_solution.point(t + 1)
    assert circle_solution.point(t) is circle_solution.point(t - 2)
    with pytest.raises(SwapAlgError, match="grid"):
        circle_solution.point(Fraction(1, 3 * M))
    rng = random.Random(5)
    for _ in range(10):
        Y, y = (grid(j) for j in rng.sample(range(M), 2))
        value = circle_solution.pair_value(circle_solution.point(Y), circle_solution.point(y))
        assert value == coordinate_function(circle_solution, Y, y)


# -- Frenet validation ------------------------------------------------------------------


def test_frenet_veronese_volumes_bounded_away(circle_solution):
    rng = random.Random(4)
    samples = []
    for _ in range(20):
        i, j = sorted(rng.sample(range(M), 2))
        samples.append(([grid(i), grid(j)], [1, 1]))
        samples.append(([grid(i)], [2]))
    result = frenet_validate(circle_solution, samples)
    assert result["minimum"] > 1e-6


def test_frenet_rejects_bad_tuples(circle_solution):
    with pytest.raises(SwapAlgError, match="distinct"):
        frenet_validate(circle_solution, [([grid(3), grid(3)], [1, 1])])
    with pytest.raises(SwapAlgError, match="weights"):
        frenet_validate(circle_solution, [([grid(3), grid(5)], [2, 1])])


def test_full_weight_wedge_is_frame_determinant(circle_solution):
    # the weight-n jet block at one point is the whole frame
    t = grid(200)
    raw = np.linalg.det(circle_solution.frame(t))
    assert raw == pytest.approx(1.0, abs=1e-10)


# -- constructing trivial holonomy --------------------------------------------------------


def test_solve_trivial_holonomy_converges():
    oper = solve_trivial_holonomy(
        veronese_oper(2), [(2, 0.8, -0.4)], target_sign=-1, stages=(512, 1024)
    )
    sol = integrate(oper, 1024)
    assert np.max(np.abs(sol.holonomy + np.eye(2))) < 1e-9


def test_newton_search_converges_to_the_rounding_floor():
    # harmonics of an operator whose lifted cross fraction (about -3765)
    # moved by 1.1e-6 when the search stopped at max|H + Id| < 1e-11
    extra = [
        (2, -0.004103788961629107, 1.5581819892727253),
        (3, -1.5784889608128196, -0.1508481426938033),
    ]
    oper = solve_trivial_holonomy(veronese_oper(2), extra, target_sign=-1)
    sol = integrate(oper, 4096)
    assert np.max(np.abs(sol.holonomy + np.eye(2))) <= 1e-12
    X, x, Y, y = (Fraction(j, 4096) for j in (2077, 2051, 323, 306))
    base = oper_cross_fraction(sol, X, x, Y, y)
    lifted = oper_cross_fraction(sol, X + 1, x, Y - 2, y)
    assert abs(lifted - base) <= 1e-6


def _reference_newton(base, extra, target_sign, stages=(256, 4096), log=None):
    """The Newton search with every residual sampled afresh from an OperSpec.

    A stage that has a Jacobian from the stage before first tries a step
    with it, and keeps the step when it shrinks max|r| tenfold.
    `log`, when given, receives one (steps, event) tuple per residual
    ("residual") and per refused carried step ("refused").  Steps solve
    with the search's own `_newton_step`: this is the reference for how
    residuals are sampled, not for the solver.
    """
    target = target_sign * np.eye(2)
    fixed = list(base.coefficients[2]) + list(extra)
    log = [] if log is None else log

    def build(u):
        c0, a1, b1 = u
        return OperSpec(2, {2: fixed + [(0, c0, 0.0), (1, a1, b1)]})

    def residual(u, steps):
        log.append((steps, "residual"))
        d = _holonomy(build(u), steps) - target
        return np.array([d[0, 0], d[0, 1], d[1, 0]])

    u = np.zeros(3)
    jac = None
    for steps in stages:
        r = residual(u, steps)
        for step in range(26):
            if np.max(np.abs(r)) < 1e-12:
                break
            if step == 25:
                raise SwapAlgError("holonomy search did not converge")
            if step == 0 and jac is not None:
                trial = u - _newton_step(jac, r, steps)
                r_trial = residual(trial, steps)
                if 10.0 * np.max(np.abs(r_trial)) <= np.max(np.abs(r)):
                    u, r = trial, r_trial
                    continue
                log.append((steps, "refused"))
            eps = 1e-6
            jac = np.column_stack(
                [(residual(u + du, steps) - r) / eps for du in eps * np.eye(3)]
            )
            u = u - _newton_step(jac, r, steps)
            r = residual(u, steps)
    return build(u)


def _shifted_draws():
    """Three (base, extra) draws whose base has a shifted constant term,
    which makes the unknown modes of order 1."""
    rng = random.Random(11)
    draws = []
    for _ in range(3):
        base = OperSpec(2, {2: [(0, PI2 + rng.uniform(-1.0, 1.0), 0.0)]})
        extra = [(k, rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for k in (2, 3)]
        draws.append((base, extra))
    return draws


def test_newton_search_matches_the_afresh_reference_bit_for_bit():
    # unknown modes of order 1 make the order in which a residual adds
    # them show in the last bits
    for base, extra in _shifted_draws():
        got = solve_trivial_holonomy(base, extra, target_sign=-1)
        want = _reference_newton(base, extra, target_sign=-1)
        assert got.coefficients[2] == want.coefficients[2]
        # and at the former default, a 1024-step first stage
        got = solve_trivial_holonomy(base, extra, -1, stages=(1024, 4096))
        want = _reference_newton(base, extra, -1, stages=(1024, 4096))
        assert got.coefficients[2] == want.coefficients[2]


def test_a_search_that_converges_on_its_25th_step_is_kept():
    # both first grids take all 25 steps and land below 1e-12 on the last
    # one (7.8e-16 at 1024 steps, 8.3e-15 at 512); a residual tested only
    # before each step refused them
    extra = [
        (2, -23.593270507450054, 20.667532803970175),
        (3, 6.988340443035568, -20.372329448440993),
    ]
    for stages in ((1024, 4096), (512, 4096)):
        oper = solve_trivial_holonomy(veronese_oper(2), extra, -1, stages=stages)
        assert oper.coefficients[2] == _reference_newton(
            veronese_oper(2), extra, -1, stages=stages
        ).coefficients[2]
        sol = integrate(oper, 4096)
        assert np.max(np.abs(sol.holonomy + np.eye(2))) <= 1e-12


def _batch_size(table):
    """The number of holonomies one `_table_holonomy` call takes: a table of
    shape (n - 1, B, 2 steps + 1) is a batch of B."""
    return table.shape[1] if table.ndim == 3 else 1


def test_newton_search_samples_one_table_per_stage(monkeypatch):
    import swapalg.opers as opers

    counts, calls, holonomies = {"samples": 0}, [], []
    # every sampling of coefficients, on a grid or at given times, is one
    # pass of this summation
    sample, holonomy = OperSpec._sum_harmonics, opers._table_holonomy

    def counted_sample(self, index, out, waves):
        counts["samples"] += 1
        return sample(self, index, out, waves)

    def counted_holonomy(table, steps):
        calls.append(steps)
        holonomies.extend([steps] * _batch_size(table))
        return holonomy(table, steps)

    monkeypatch.setattr(OperSpec, "_sum_harmonics", counted_sample)
    monkeypatch.setattr(opers, "_table_holonomy", counted_holonomy)
    stages = (256, 512, 1024)
    solve_trivial_holonomy(veronese_oper(2), [(2, 0.8, -0.4)], -1, stages=stages)
    # the fixed harmonics once per stage, whatever the number of residuals
    assert counts["samples"] == len(stages)
    # the first stage: the start and two Newton steps of four residuals
    # each (three probes and the new point); each later stage: its start
    # and one step with the carried Jacobian
    assert {steps: holonomies.count(steps) for steps in stages} == {256: 9, 512: 2, 1024: 2}
    # the three probes of a Jacobian are one call
    assert {steps: calls.count(steps) for steps in stages} == {256: 5, 512: 2, 1024: 2}


AMPLITUDE_16_HARMONICS = [
    (2, -7.8698527550132695, -7.122186942475821),
    (3, -10.830800831230196, -6.8143051452670065),
]


def test_a_refused_carried_step_rebuilds_the_jacobian(monkeypatch):
    import swapalg.opers as opers

    # harmonics of amplitude up to 16 and target +Id, from a seeded search;
    # at 1024 steps the root of the 64-step stage is far enough off that
    # the step with its Jacobian grows max|r| (0.12 to 0.44), so the stage
    # starts over with a fresh Jacobian.  The 8192-step stage lets the
    # fourth entry of the holonomy, tied to the others by det H = 1, reach
    # the rounding floor as well.
    extra = AMPLITUDE_16_HARMONICS
    stages = (64, 1024, 8192)
    log = []
    want = _reference_newton(veronese_oper(2), extra, 1, stages=stages, log=log)
    assert (1024, "refused") in log
    calls, holonomies, holonomy = [], [], opers._table_holonomy

    def counted_holonomy(table, steps):
        calls.append(steps)
        holonomies.extend([steps] * _batch_size(table))
        return holonomy(table, steps)

    monkeypatch.setattr(opers, "_table_holonomy", counted_holonomy)
    got = solve_trivial_holonomy(veronese_oper(2), extra, 1, stages=stages)
    assert got.coefficients[2] == want.coefficients[2]
    # the search evaluated exactly the reference's residuals: the refused
    # trial point, then a fresh Jacobian (three probes) for every step
    assert holonomies == [steps for steps, event in log if event == "residual"]
    # each Jacobian's three probes in one call: 64 steps, the start and 23
    # Newton steps; 1024, the start, the refused trial and 9 steps; 8192,
    # the start, the kept carried step and one step
    assert {steps: calls.count(steps) for steps in stages} == {64: 47, 1024: 20, 8192: 4}
    assert np.max(np.abs(_holonomy(got, 8192) - np.eye(2))) <= 1e-12


def test_a_fourth_holonomy_entry_off_target_is_refused():
    # with stages (64, 1024) the three equations converge at 1024 steps,
    # but the frame determinants drift by 4e-9 there, and so does H[1,1]
    message = r"fourth entry H\[1,1\] - \(\+1\) = -3\.9[0-9]{2}e-09, not below 1e-12"
    with pytest.raises(SwapAlgError, match=message):
        solve_trivial_holonomy(veronese_oper(2), AMPLITUDE_16_HARMONICS, 1, stages=(64, 1024))


def test_a_search_without_stages_is_refused():
    with pytest.raises(SwapAlgError, match="at least one grid"):
        solve_trivial_holonomy(veronese_oper(2), [], -1, stages=())


# Newton wanders off on target +Id with these harmonics (the unperturbed
# operator has holonomy -Id) in the first stage, which builds all its
# Jacobians
DIVERGING_HARMONICS = [
    (2, 1.4440354434132994, 1.1937557623097041),
    (3, 1.188390250541985, 1.2657494822427635),
]


def test_a_failed_search_names_its_grid_and_residual():
    message = r"did not converge at 256 steps: max\|r\| = 2\.148e\+01 after 25 steps"
    with pytest.raises(SwapAlgError, match=message):
        solve_trivial_holonomy(veronese_oper(2), DIVERGING_HARMONICS, 1)


def test_a_singular_newton_jacobian_is_refused_without_a_warning():
    import warnings

    r = np.array([1.0, -2.0, 0.5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for jac in (np.zeros((3, 3)), np.full((3, 3), np.nan), np.diag([1e200, 1e200, 1e200])):
            with pytest.raises(SwapAlgError, match="singular Jacobian at 256 steps"):
                _newton_step(jac, r, 256)
        assert _newton_step(np.diag([2.0, 4.0, -0.5]), r, 256).tolist() == [0.5, -0.5, -1.0]


def _newton_kernel_results():
    """The Newton searches the three tests above pin, as text: the `repr`
    of each solved q_2, then the failed search's message."""
    lines = []
    for base, extra in _shifted_draws():
        for stages in ((256, 4096), (1024, 4096)):
            lines.append(repr(solve_trivial_holonomy(base, extra, -1, stages=stages).coefficients[2]))
    stages = (64, 1024, 8192)
    oper = solve_trivial_holonomy(veronese_oper(2), AMPLITUDE_16_HARMONICS, 1, stages=stages)
    lines.append(repr(oper.coefficients[2]))
    try:
        solve_trivial_holonomy(veronese_oper(2), DIVERGING_HARMONICS, 1)
    except SwapAlgError as exc:
        lines.append(str(exc))
    return "\n".join(lines)


def _openblas_with_dynamic_arch():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return "openblas" in blas.get("name", "") and "DYNAMIC_ARCH" in blas.get(
        "openblas configuration", ""
    )


@pytest.mark.skipif(
    not _openblas_with_dynamic_arch(),
    reason="OPENBLAS_CORETYPE picks a kernel only in an OpenBLAS built with DYNAMIC_ARCH",
)
def test_the_newton_search_does_not_depend_on_the_blas_kernel():
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    code = "import test_opers; print(test_opers._newton_kernel_results())"
    children = [
        subprocess.Popen(
            [sys.executable, "-c", code],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": kernel},
        )
        for kernel in ("Haswell", "Prescott")
    ]
    want = _newton_kernel_results() + "\n"
    assert "did not converge at 256 steps" in want
    for child in children:
        out, err = child.communicate(timeout=60)
        assert child.returncode == 0, err
        assert out == want


def test_the_coarse_first_stage_refuses_the_same_draws_and_finds_the_same_roots():
    # harmonics as the oper workload draws them, at its amplitude 2 and at
    # 16, for both targets; target +Id refuses some draws at either first
    # grid, and the same ones
    refused = {}
    for amplitude in (2, 16):
        rng = random.Random(f"coarse-stage:{amplitude}")
        for draw in range(8):
            extra = [(k, rng.uniform(-amplitude, amplitude), rng.uniform(-amplitude, amplitude))
                     for k in (2, 3)]
            for sign in (-1, 1):
                roots = []
                for stages in ((256, 4096), (1024, 4096)):
                    try:
                        roots.append(solve_trivial_holonomy(veronese_oper(2), extra, sign, stages))
                    except SwapAlgError:
                        refused.setdefault(stages, set()).add((amplitude, draw, sign))
                if len(roots) < 2:
                    continue
                coarse, fine = (np.array([m[1:] for m in o.coefficients[2]]) for o in roots)
                assert np.max(np.abs(coarse - fine)) <= 1e-9
                sol = integrate(roots[0], 4096)
                assert np.max(np.abs(sol.holonomy - sign * np.eye(2))) <= 1e-12
                for _ in range(3):
                    X, x, Y, y = (Fraction(j, 4096) for j in rng.sample(range(4096), 4))
                    base = oper_cross_fraction(sol, X, x, Y, y)
                    lifted = oper_cross_fraction(sol, X + 1, x, Y - 2, y)
                    assert abs(lifted - base) <= 1e-6
    assert refused[(256, 4096)] and refused[(256, 4096)] == refused[(1024, 4096)]


def test_random_trivial_holonomy_family_is_deterministic():
    first = random_trivial_holonomy_opers(2, seed=5)
    second = random_trivial_holonomy_opers(2, seed=5)
    assert [o.coefficients for o in first] == [o.coefficients for o in second]
    for oper in first:
        assert holonomy_class(integrate(oper, 2048)) == "trivial-in-PSL"


# -- the coefficient file format -----------------------------------------------------------


def test_oper_spec_from_text():
    oper = OperSpec.from_text(
        """
        n = 3
        q2: k=0 cos=39.47841760435743 sin=0
        q3: k=1 cos=0.25 sin=-0.5   # one harmonic
        q3: k=2 cos=0.125 sin=0
        """
    )
    assert oper.order == 3
    assert len(oper.coefficients[3]) == 2
    times = np.array([0.0, 0.25])
    q3 = oper.coefficient_values(3, times)
    assert q3[0] == pytest.approx(0.375)
    again = eval(repr(oper), {"OperSpec": OperSpec})
    assert (again.order, again.coefficients) == (oper.order, oper.coefficients)


def test_constant_harmonics_match_the_cos_sin_formula_bit_for_bit():
    # k = 0 adds c + s * 0.0, what c cos 0 + s sin 0 rounds to; s * 0.0 is
    # -0.0 for negative s.  The constant terms sit among other harmonics,
    # so the order of the sum shows.
    harmonics = [
        (1, 0.3, -0.7),
        (0, PI2, 0.0),
        (0, -0.0, -2.5),
        (2, -1.25, 0.0),
        (0, -1.0 / 3.0, -0.0),
        (0, 0.0, 0.0),
        (3, 0.125, 1.5),
        (0, 1e-300, 3.0),
        (0, -7.5, -1e300),
    ]
    times = _grid_times(64)
    for terms in (harmonics, [h for h in harmonics if h[0] == 0]):
        want = np.zeros_like(times)
        for k, c, s in terms:
            w = 2.0 * math.pi * k * times
            want += c * np.cos(w) + s * np.sin(w)
        got = OperSpec(2, {2: terms}).coefficient_values(2, times)
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want.tolist()]


def test_oper_spec_validation():
    with pytest.raises(SwapAlgError):
        OperSpec(1)
    with pytest.raises(SwapAlgError):
        OperSpec(2, {5: [(0, 1.0, 0.0)]})
    with pytest.raises(SwapAlgError):
        OperSpec.from_text("q2: k=0 cos=1 sin=0")


@pytest.mark.parametrize(
    "text, says",
    [
        ("n = 2\nq2: k=0 cso=9.87 junk\nn = 3\n", "line 2: unknown field 'cso=9.87'"),
        ("n = 2\nq2: k=0 junk\n", "line 2: unknown field 'junk'"),
        ("n = 2\nq2: k=0 cos=1 k=1\n", "line 2: field k= given twice"),
        ("n = 2\nq2: k=0 cos=1\n\nn = 3\n", "line 4: a second 'n =' line"),
        ("n = 2\nq2: k=1.5\n", "line 2: invalid literal for int() with base 10: '1.5'"),
        ("n = 2\nq2: k=1 cos=x\n", "line 2: could not convert string to float: 'x'"),
        ("n = x\nq2: k=1\n", "line 1: invalid literal for int() with base 10: 'x'"),
    ],
    ids=["misspelt-key", "bare-word", "repeated-key", "second-n", "k-not-int", "cos-not-real", "n-not-int"],
)
def test_oper_file_refuses_what_it_would_drop(text, says):
    with pytest.raises(SwapAlgError) as caught:
        OperSpec.from_text(text)
    assert str(caught.value).startswith(says)


# -- higher order ------------------------------------------------------------------


def test_frenet_validation_third_order():
    sol = integrate(veronese_oper(3), 256)
    samples = [
        ([grid(10, 256), grid(100, 256), grid(200, 256)], [1, 1, 1]),
        ([grid(40, 256), grid(190, 256)], [2, 1]),
        ([grid(77, 256)], [3]),
        ([grid(5, 256), grid(128, 256)], [1, 1]),
    ]
    result = frenet_validate(sol, samples)
    assert result["minimum"] > 1e-4
    assert len(result["volumes"]) == 4


def test_third_order_weak_cross_ratio_is_squared_classical():
    # the third-order circle operator traces a conic; its hyperplane
    # pairing vanishes to second order on the diagonal, so each cross
    # ratio is the square of the classical one
    sol = integrate(veronese_oper(3), M)
    rng = random.Random(6)
    for _ in range(15):
        idx = rng.sample(range(1, M), 4)
        got = weak_cross_ratio(sol, *(grid(j) for j in idx))
        classical = cot_cross_ratio(*(j / M for j in idx))
        assert got == pytest.approx(classical**2, rel=1e-6)
