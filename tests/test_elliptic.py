import math
import random
from fractions import Fraction
from itertools import product

import pytest

from arithfractal import (
    Curve,
    INFINITY,
    canonical_height,
    ec_add,
    ec_mul,
    ec_neg,
    ec_point,
    is_torsion,
    neron_count,
    parallelogram_defect,
)
from arithfractal.elliptic import _integral_scale
from arithfractal.errors import (
    ConfigError,
    GeneratorIsTorsionError,
    PointNotOnCurveError,
    PrecisionNotReachedError,
)


@pytest.fixture(scope="module")
def curve_37a():
    # y^2 + y = x^3 - x, rank 1, trivial torsion, generator (0,0)
    return Curve.from_coefficients([0, 0, 1, -1, 0])


@pytest.fixture(scope="module")
def gen(curve_37a):
    return ec_point(0, 0)


# --- group law ---------------------------------------------------------------


def test_double_and_triple(curve_37a, gen):
    # Doubling at (0,0): tangent slope -1, third intersection (1,-1),
    # reflect through y -> -y-1.  Chord through (0,0),(1,0) is y=0 with
    # third root x=-1.
    assert ec_mul(curve_37a, 2, gen) == ec_point(1, 0)
    assert ec_mul(curve_37a, 3, gen) == ec_point(-1, -1)


def test_inverse_pair(curve_37a, gen):
    assert ec_add(curve_37a, gen, ec_neg(curve_37a, gen)) == INFINITY


def test_identity(curve_37a, gen):
    assert ec_add(curve_37a, gen, INFINITY) == gen
    assert ec_add(curve_37a, INFINITY, INFINITY) == INFINITY


def test_multiples_stay_on_curve(curve_37a, gen):
    for n in range(-8, 9):
        point = ec_mul(curve_37a, n, gen)
        assert curve_37a.contains(point)
        if not point.is_infinity:
            assert isinstance(point.x, Fraction) and isinstance(point.y, Fraction)


def test_associativity_on_sampled_triples(curve_37a, gen):
    multiples = [ec_mul(curve_37a, n, gen) for n in range(-3, 4)]
    for p, q, r in product(multiples[:5], multiples[1:6], multiples[2:]):
        left = ec_add(curve_37a, ec_add(curve_37a, p, q), r)
        right = ec_add(curve_37a, p, ec_add(curve_37a, q, r))
        assert left == right


def test_group_law_commutes(curve_37a, gen):
    two = ec_mul(curve_37a, 2, gen)
    five = ec_mul(curve_37a, 5, gen)
    assert ec_add(curve_37a, two, five) == ec_add(curve_37a, five, two)
    assert ec_add(curve_37a, two, five) == ec_mul(curve_37a, 7, gen)


def test_off_curve_rejected(curve_37a):
    assert not curve_37a.contains(ec_point(2, 1))
    with pytest.raises(PointNotOnCurveError):
        ec_add(curve_37a, ec_point(2, 1), ec_point(0, 0))


def test_singular_curve_rejected():
    with pytest.raises(PointNotOnCurveError):
        Curve.from_coefficients([0, 0, 0, 0, 0])  # y^2 = x^3 is singular


# --- canonical height ----------------------------------------------------------


def test_height_convergence_and_value(curve_37a, gen):
    result = canonical_height(curve_37a, gen, tol=1e-3)
    assert result.doublings <= 12
    assert not result.torsion
    # Oracle: the same limit continued two doublings further.
    deeper = canonical_height(
        curve_37a, gen, tol=math.inf, min_doublings=result.doublings + 2,
        max_doublings=result.doublings + 2,
    )
    assert result.value == pytest.approx(deeper.value, abs=1e-3)
    assert result.value == pytest.approx(0.0511, abs=1e-3)


# Regulator of 37a1 (Cremona's tables, LMFDB 37.a1): the height of (0,0).
REGULATOR_37A = 0.0511114082399688


def test_height_limit_definition(curve_37a, gen):
    # Independent oracle: 4^-m h(x(2^m P)) by exact doubling.  Silverman's
    # bound on the Weil-canonical difference (Math. Comp. 55 (1990)),
    # -(1/8)h(j) - (1/12)h(Delta) - 0.973 <= h^(P) - h(x(P))/2
    # <= (1/12)h(j) + (1/12)h(Delta) + 1.07 in his normalization, doubled for
    # this one, bounds |h^(2^m P) - h(x(2^m P))|; divide it by 4^m.
    delta = curve_37a.discriminant()
    b2, b4, _, _ = curve_37a.b_invariants()
    j = (b2 * b2 - 24 * b4) ** 3 / delta
    h_j = math.log(max(abs(j.numerator), j.denominator))
    h_delta = math.log(abs(delta))
    difference_bound = 2 * (h_j / 8 + h_delta / 12 + 1.07)
    certified = canonical_height(curve_37a, gen, tol=1e-12).value
    current = gen
    for m in range(1, 11):
        current = ec_add(curve_37a, current, current)
        if m in (6, 10):
            x = current.x
            by_hand = math.log(max(abs(x.numerator), x.denominator)) / 4.0**m
            assert abs(by_hand - certified) <= difference_bound / 4.0**m + 1e-12


@pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-8, 1e-10, 1e-12])
def test_height_certified_against_regulator(curve_37a, gen, tol):
    for n in range(1, 9):
        result = canonical_height(curve_37a, ec_mul(curve_37a, n, gen), tol)
        assert abs(result.value - n * n * REGULATOR_37A) <= tol
        assert result.doublings <= 40


def _transform(curve, point, u, r, s, t):
    """The model x = u^2 x' + r, y = u^3 y' + s u^2 x' + t and P on it."""
    a1, a2, a3, a4, a6 = curve.a1, curve.a2, curve.a3, curve.a4, curve.a6
    new = Curve.from_coefficients([
        (a1 + 2 * s) / u,
        (a2 - s * a1 + 3 * r - s * s) / u**2,
        (a3 + r * a1 + 2 * t) / u**3,
        (a4 - s * a3 + 2 * r * a2 - (t + r * s) * a1 + 3 * r * r - 2 * s * t) / u**4,
        (a6 + r * a4 + r * r * a2 + r**3 - t * a3 - t * t - r * t * a1) / u**6,
    ])
    x = (point.x - r) / u**2
    y = (point.y - s * (point.x - r) - t) / u**3
    moved = ec_point(x, y)
    assert new.contains(moved)
    return new, moved


@pytest.mark.parametrize(
    "u, r, s, t",
    [
        # a_i -> 2^i a_i: (0,0) reduces to the singular point mod 2, as do
        # 2P, 3P and 4P, so the height comes from 5P.
        (Fraction(1, 2), 0, 0, 0),
        # a rational model, scaled to an integral one inside the height
        (Fraction(2), 0, 0, 0),
        (1, Fraction(3), Fraction(-2), Fraction(5)),
        # a6 = 729/16 and a3 = 81/2: the least integral scale is 2, not 16
        (Fraction(1, 3), Fraction(-1, 2), Fraction(1), Fraction(1, 4)),
    ],
)
def test_height_model_invariance(curve_37a, gen, u, r, s, t):
    tol = 1e-10
    for n in (1, 2, 3):
        point = ec_mul(curve_37a, n, gen)
        model, moved = _transform(curve_37a, point, Fraction(u), r, s, t)
        result = canonical_height(model, moved, tol)
        assert abs(result.value - n * n * REGULATOR_37A) <= tol


def test_integral_scale_is_least(curve_37a, gen):
    model, _ = _transform(
        curve_37a, gen, Fraction(1, 3), Fraction(-1, 2), Fraction(1), Fraction(1, 4)
    )
    assert _integral_scale(model) == 2
    assert _integral_scale(curve_37a) == 1
    # A prime above the trial-division limit enters whole: u^i a_i is integral.
    big = 1_000_003 * 1_000_033
    curve = Curve.from_coefficients([0, 0, Fraction(1, 8 * big), 0, Fraction(1, 64)])
    assert _integral_scale(curve) == 2 * big


def test_height_below_float_precision_raises(curve_37a, gen):
    with pytest.raises(PrecisionNotReachedError):
        canonical_height(curve_37a, gen, tol=1e-16)
    with pytest.raises(PrecisionNotReachedError):
        canonical_height(curve_37a, gen, tol=0.0)


def test_quadratic_scaling(curve_37a, gen):
    tol = 1e-3
    base = canonical_height(curve_37a, gen, tol).value
    for n in range(2, 9):
        scaled = canonical_height(curve_37a, ec_mul(curve_37a, n, gen), tol).value
        assert abs(scaled - n * n * base) < n * n * tol


def test_torsion_point_reports_zero():
    curve = Curve.from_coefficients([0, 0, 0, 1, 0])  # y^2 = x^3 + x
    result = canonical_height(curve, ec_point(0, 0), 1e-3)
    assert result.torsion and result.value == 0.0
    assert is_torsion(curve, ec_point(0, 0))


def test_unreachable_precision_raises(curve_37a, gen):
    # Certifying 1e-9 takes more than six series terms.
    with pytest.raises(PrecisionNotReachedError):
        canonical_height(curve_37a, gen, tol=1e-9, max_doublings=6)


# --- parallelogram law ----------------------------------------------------------


def test_parallelogram_small_defect(curve_37a, gen):
    tol = 1e-3
    two = ec_mul(curve_37a, 2, gen)
    three = ec_mul(curve_37a, 3, gen)
    for p, q in [(gen, two), (gen, three), (two, three)]:
        assert parallelogram_defect(curve_37a, p, q, tol) < 10 * tol


def test_parallelogram_defect_on_random_multiples(curve_37a, gen):
    rng = random.Random(7)
    for _ in range(12):
        m, n = rng.randint(-6, 6), rng.randint(-6, 6)
        p, q = ec_mul(curve_37a, m, gen), ec_mul(curve_37a, n, gen)
        assert parallelogram_defect(curve_37a, p, q, 1e-12) < 1e-12


def test_parallelogram_with_infinity(curve_37a, gen):
    assert parallelogram_defect(curve_37a, gen, INFINITY, 1e-3) < 1e-3


def test_parallelogram_inverse_reduces_to_quadraticity(curve_37a, gen):
    # Q = -P: h(inf) + h(2P) = 4 h(P), numerically.
    defect = parallelogram_defect(curve_37a, gen, ec_neg(curve_37a, gen), 1e-3)
    assert defect < 1e-2


# --- Neron counting --------------------------------------------------------------


def test_neron_counts_match_closed_form(curve_37a, gen):
    h = canonical_height(curve_37a, gen, 1e-3).value
    grid = [h * 2**t for t in range(4, 13)]
    result = neron_count(curve_37a, gen, [], grid)
    expected = tuple(2 * int(math.sqrt(x / h)) + 1 for x in grid)
    assert result.table.counts == expected


def test_neron_fit_square_root_growth(curve_37a, gen):
    h = canonical_height(curve_37a, gen, 1e-3).value
    grid = [h * 2**t for t in range(4, 13)]
    result = neron_count(curve_37a, gen, [], grid)
    assert abs(result.fit.exponent - 0.5) < 0.05
    assert result.spot_check_max_delta < 1e-2
    # the bound is (1 + n^2) tol for some sampled n in 2..8
    assert result.spot_check_max_delta <= result.spot_check_bound <= 65e-3


def test_neron_tail_counts_scale_like_sqrt(curve_37a, gen):
    h = canonical_height(curve_37a, gen, 1e-3).value
    result = neron_count(curve_37a, gen, [], [h * 2**10, h * 2**11, h * 2**12])
    a, b, c = result.table.counts
    assert b / a == pytest.approx(math.sqrt(2), rel=0.05)
    assert c / b == pytest.approx(math.sqrt(2), rel=0.05)


def test_neron_small_grid_count_one(curve_37a, gen):
    h = canonical_height(curve_37a, gen, 1e-3).value
    result = neron_count(curve_37a, gen, [], [h * 0.5, h * 16, h * 64, h * 256])
    assert result.table.counts[0] == 1  # only the identity below h(P)


def test_neron_rejects_torsion_generator():
    curve = Curve.from_coefficients([0, 0, 0, 1, 0])
    with pytest.raises(GeneratorIsTorsionError):
        neron_count(curve, ec_point(0, 0), [], [1.0, 2.0, 4.0])


def test_neron_reach_is_exact(curve_37a, gen):
    # count = (2n + 1) |T| with n the largest integer with n^2 h(P) <= x,
    # checked in exact rationals, near every square multiple of h(P) and at
    # grid values where a float step of one n per loop would not end.
    h = canonical_height(curve_37a, gen, 1e-3).value
    grid = [0.0, h, 4 * h, 9 * h * (1 - 1e-15), 1e60, 1e62, 1e306, 1e308]
    result = neron_count(curve_37a, gen, [], grid, tol=1e-3)
    step = Fraction(result.generator_height)
    for x, count in zip(result.table.grid, result.table.counts):
        n = (count - 1) // 2
        assert n * n * step <= Fraction(x) < (n + 1) ** 2 * step, x


def test_neron_rejects_a_negative_grid_value(curve_37a, gen):
    with pytest.raises(ConfigError, match=">= 0"):
        neron_count(curve_37a, gen, [], [-1.0, 1.0, 2.0])
