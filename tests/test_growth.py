import math

import pytest

from arithfractal import (
    CountTable,
    FractalSystem,
    IntAffineMap,
    IntPoint,
    counting_function,
    dimension_equation,
    enumerate_system,
    evaluate_pressure,
    fit_growth_exponent,
    geometric_grid,
    lemma_bound_check,
    solve_dimension,
)
from arithfractal.errors import GridExceedsBoundError, InsufficientDataError


def digits_count_oracle(x):
    """Brute count of digit-{0,1} integers in [0, x]."""
    return sum(1 for m in range(x + 1) if set(str(m)) <= {"0", "1"})


def test_counting_function_digits(digits01):
    bag = enumerate_system(digits01, 10**3)
    table = counting_function(bag, [10, 100, 1000])
    assert table.counts == (3, 5, 9)
    assert table.counts == tuple(digits_count_oracle(x) for x in (10, 100, 1000))


def test_counting_function_binary(z_binary):
    bag = enumerate_system(z_binary, 7)
    assert counting_function(bag, [7]).counts == (8,)


def test_counting_function_empty_grid(digits01):
    bag = enumerate_system(digits01, 100)
    table = counting_function(bag, [])
    assert table.grid == () and table.counts == ()


def test_counting_function_counts_whole_bag(q2_powers2, digits01):
    bag = enumerate_system(q2_powers2, 2**8)
    table = counting_function(bag, [math.log(2**8)])
    assert table.counts[-1] == len(bag)
    flat = enumerate_system(digits01, 10**5)
    assert counting_function(flat, [10**5]).counts[-1] == len(flat)


def test_grid_exceeding_bound_rejected(digits01):
    bag = enumerate_system(digits01, 100)
    with pytest.raises(GridExceedsBoundError):
        counting_function(bag, [1000])


def test_counting_function_counts_sizes_past_the_float_range():
    # Four of the seven sizes, 10^310 + 1 and up, have no float; N(x) counts
    # the exact ints against the grid, which the bound 10^311 admits whole.
    big = 10**310
    system = FractalSystem("int", (IntAffineMap(big, 1), IntAffineMap(big, 2)), (IntPoint(0),))
    bag = enumerate_system(system, 10 * big)
    assert bag.raw_sizes() == [0, 1, 2, big + 1, big + 2, 2 * big + 1, 2 * big + 2]
    assert counting_function(bag, [0, 1, 2, 1e308]).counts == (1, 2, 3, 3)


def test_grid_past_the_float_range():
    # 10^311 has no float: the grid stops at the last float product below it,
    # and an int grid point counts exactly.
    assert geometric_grid(4, 10**311, 1e100) == [4.0, 4e100, 4e200, 4e300]
    big = 10**310
    system = FractalSystem("int", (IntAffineMap(big, 1), IntAffineMap(big, 2)), (IntPoint(0),))
    bag = enumerate_system(system, 10 * big)
    assert counting_function(bag, [10**311]).counts == (7,)
    assert counting_function(bag, [big + 1, 2 * big + 1]).counts == (4, 6)
    with pytest.raises(GridExceedsBoundError):
        counting_function(bag, [10**311 + 1])


@pytest.mark.parametrize(
    "start, stop, factor",
    [(10**400, 10**401, 10), (4, 10**500, 10**400), (math.nan, 100, 2), (4, 100, math.nan)],
    ids=["start-past-floats", "factor-past-floats", "nan-start", "nan-factor"],
)
def test_grid_without_float_start_or_factor_is_refused(start, stop, factor):
    with pytest.raises(GridExceedsBoundError):
        geometric_grid(start, stop, factor)


def test_int_grid_point_without_a_float_counts_exactly():
    # float(2^54 + 3) is 2^54 + 4, above the bound.
    system = FractalSystem(
        "int", (IntAffineMap(2**54, 3), IntAffineMap(2**54, 5)), (IntPoint(1),))
    bag = enumerate_system(system, 2**54 + 3)
    assert bag.raw_sizes() == [1, 2**54 + 3]
    assert counting_function(bag, [2**54 + 2, 2**54 + 3]).counts == (1, 2)


def test_grid_point_past_stop_by_rounding_is_stop():
    # 10.0 * 10.0 ... reaches 10^49 one rounding above float(10^49); the
    # grid keeps that point as the bound itself.
    stop = int(1e49)
    grid = geometric_grid(10, stop, 10)
    assert len(grid) == 49 and grid[-1] == 1e49 and all(type(x) is float for x in grid)


def test_fit_exact_power_law():
    table = CountTable(tuple(float(2**k) for k in range(1, 11)),
                       tuple(3 * 2**k for k in range(1, 11)), "abs")
    fit = fit_growth_exponent(table)
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)
    assert fit.rmse == pytest.approx(0.0, abs=1e-12)


def test_fit_needs_three_points():
    table = CountTable((2.0, 4.0), (2, 4), "abs")
    with pytest.raises(InsufficientDataError):
        fit_growth_exponent(table)


def test_fit_drops_degenerate_counts():
    grid = (1.0, 2.0, 4.0, 8.0, 16.0)
    table = CountTable(grid, (1, 2, 4, 8, 16), "abs")
    fit = fit_growth_exponent(table)
    assert fit.points_used == 4  # the N=1 point carries no slope information
    assert fit.exponent == pytest.approx(1.0, abs=1e-12)


def test_digits_fit_near_dimension(digits01):
    bag = enumerate_system(digits01, 10**9)
    table = counting_function(bag, geometric_grid(10, 10**9, 10))
    fit = fit_growth_exponent(table)
    target = math.log(2) / math.log(10)
    assert abs(fit.exponent - target) < 0.03


def test_binary_fit_is_one(z_binary):
    # N(x) = x + 1 on the nonnegative orbit; the +1 transient at small x
    # keeps the fitted slope a touch under 1 on this window.
    bag = enumerate_system(z_binary, 2**20)
    table = counting_function(bag, geometric_grid(2, 2**20, 2))
    fit = fit_growth_exponent(table)
    assert abs(fit.exponent - 1.0) < 0.02


def test_nested_digit_systems_order(digits01, digits012):
    fits = []
    for system in (digits01, digits012):
        bag = enumerate_system(system, 10**8)
        table = counting_function(bag, geometric_grid(10, 10**8, 10))
        fits.append(fit_growth_exponent(table).exponent)
    assert fits[0] < fits[1]
    s1 = solve_dimension(dimension_equation(digits01)).s
    s2 = solve_dimension(dimension_equation(digits012)).s
    assert s1 < s2
    assert abs(fits[0] - s1) < 0.05
    assert abs(fits[1] - s2) < 0.05


def test_projective_fit_uses_log_heights(p1_doubling):
    bag = enumerate_system(p1_doubling, 2**30)
    grid = geometric_grid(math.log(2), 30 * math.log(2), 2.0)
    table = counting_function(bag, grid)
    assert table.size_kind == "log-height"
    fit = fit_growth_exponent(table)
    assert fit.exponent == pytest.approx(1.0, abs=1e-9)


# --- lemma bound checks -------------------------------------------------------


@pytest.fixture(scope="module")
def digits_table(digits01):
    bag = enumerate_system(digits01, 10**9)
    return counting_function(bag, geometric_grid(10, 10**9, 10))


def test_lemma_checks_follow_pressure(digits01, digits_table):
    spec = dimension_equation(digits01)
    # pressure < 1 above the dimension: h decays, upper bound holds
    assert evaluate_pressure(spec, 0.35) < 1
    assert lemma_bound_check(digits_table, 0.35, "upper").bounded
    # pressure > 1 below the dimension: h grows, stays away from zero
    assert evaluate_pressure(spec, 0.25) > 1
    assert lemma_bound_check(digits_table, 0.25, "lower").bounded
    assert not lemma_bound_check(digits_table, 0.25, "upper").bounded


def test_lemma_check_at_dimension_bounded(digits_table):
    s = math.log(2) / math.log(10)
    verdict = lemma_bound_check(digits_table, s, "upper")
    assert verdict.bounded
    # h oscillates in a fixed band: here (2^k+1)/2^k, between 1 and 1.5
    assert 0.9 < min(verdict.h_sequence) and max(verdict.h_sequence) <= 1.5 + 1e-9


def test_lemma_check_gap_properties(digits_table):
    for gap in (0.04, 0.06, 0.1):
        s_dim = math.log(2) / math.log(10)
        assert lemma_bound_check(digits_table, s_dim + gap, "upper").bounded
        assert not lemma_bound_check(digits_table, s_dim - gap, "upper").bounded
        assert lemma_bound_check(digits_table, s_dim - gap, "lower").bounded


def test_lemma_check_reports_sequence(digits_table):
    verdict = lemma_bound_check(digits_table, 0.25, "upper")
    assert len(verdict.h_sequence) == 9
    expected_first = 3 * 10**-0.25
    assert verdict.h_sequence[0] == pytest.approx(expected_first, rel=1e-12)


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_lemma_check_rejects_an_exponent_that_is_not_positive_and_finite(digits_table, s):
    for direction in ("upper", "lower"):
        with pytest.raises(InsufficientDataError, match="positive and finite"):
            lemma_bound_check(digits_table, s, direction)


@pytest.mark.parametrize(
    "grid, s",
    [
        ((10.0, 100.0, 10.0**3, 10.0**9), 400.0),  # x^-s N(x) underflows to 0
        ((10.0**-3, 10.0**-2, 0.1, 1.0), 200.0),  # x^-s overflows a float
    ],
)
def test_lemma_check_rejects_h_outside_the_float_range(grid, s):
    table = CountTable(grid, (1, 2, 3, 4), "abs")
    for direction in ("upper", "lower"):
        with pytest.raises(InsufficientDataError, match="float range"):
            lemma_bound_check(table, s, direction)


def test_repeated_grid_values_are_insufficient_data():
    # Equal log x in the tail (or everywhere) leaves no slope to divide by.
    tail = CountTable((2.0, 3.0, 5.0, 5.0, 5.0, 5.0), (1, 2, 3, 3, 3, 3), "abs")
    with pytest.raises(InsufficientDataError, match="more than one grid value"):
        lemma_bound_check(tail, 0.5, "upper")
    flat = CountTable((5.0, 5.0, 5.0, 5.0), (3, 3, 3, 3), "abs")
    with pytest.raises(InsufficientDataError, match="2 distinct grid values"):
        fit_growth_exponent(flat)
    assert fit_growth_exponent(tail).points_used == 5  # N = 1 at x = 2 is dropped
