import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfractal import (
    ProjPoint,
    Target,
    approximants,
    approximation_exponent_profile,
    chordal_distance,
    enumerate_system,
)
from arithfractal.errors import UnsupportedSpaceError
from arithfractal.spaces import system_from_dict

nonzero_pairs = st.tuples(
    st.integers(-10**6, 10**6), st.integers(-10**6, 10**6)
).filter(lambda p: p != (0, 0))


def test_chordal_examples():
    assert chordal_distance((0, 1), (1, 1)) == pytest.approx(1 / math.sqrt(2))
    assert chordal_distance((2, 3), (2, 3)) == 0.0
    for k in (1, 5, 20):
        assert chordal_distance((0, 1), (1, 2**k)) == pytest.approx(
            1 / math.sqrt(1 + 4**k), rel=1e-12
        )


big = st.integers(-(2**600), 2**600)


@given(st.tuples(big, big), st.tuples(big, big))
def test_chordal_matches_fraction_formula(p, q):
    # The squared distance as an exact Fraction, rounded once to a float
    # where that float is normal; below, the root of the exact square.
    (a, b), (c, d) = p, q
    if a == b == 0 or c == d == 0:
        return
    exact = Fraction((a * d - b * c) ** 2, (a * a + b * b) * (c * c + d * d))
    if exact == 0 or float(exact) >= sys.float_info.min:
        assert chordal_distance(p, q) == math.sqrt(float(exact))
    else:
        with localcontext() as context:
            context.prec = 40
            root = (Decimal(exact.numerator) / Decimal(exact.denominator)).sqrt()
        assert chordal_distance(p, q) == pytest.approx(float(root), rel=1e-15, abs=1e-323)


def test_chordal_below_the_normal_floats():
    # The square 2^-2000 has no float, the distance 2^-1000 has one.
    assert chordal_distance((1, 2**1000), (0, 1)) == 2.0**-1000
    assert chordal_distance((1, 2**540), (0, 1)) == 2.0**-540
    # A distance below every float reads as the smallest one, not as 0.0.
    assert chordal_distance((1, 2**1100), (1, 2**1100 + 1)) == math.ulp(0.0)


@given(nonzero_pairs, nonzero_pairs)
def test_chordal_symmetry_exact(p, q):
    assert chordal_distance(p, q) == chordal_distance(q, p)


@settings(max_examples=200)
@given(nonzero_pairs, nonzero_pairs, nonzero_pairs)
def test_chordal_triangle_inequality(p, q, r):
    assert chordal_distance(p, r) <= chordal_distance(p, q) + chordal_distance(q, r) + 1e-12


@given(nonzero_pairs, st.integers(1, 10**6))
def test_chordal_scale_invariance(p, scale):
    a, b = p
    target = (3, 1)
    assert chordal_distance((scale * a, scale * b), target) == pytest.approx(
        chordal_distance(p, target), abs=1e-14
    )


def test_chordal_bounded_by_one():
    for p, q in [((1, 0), (0, 1)), ((123, 7), (-5, 9)), ((1, 1), (1, -1))]:
        assert chordal_distance(p, q) <= 1.0 + 1e-15


# --- approximants -------------------------------------------------------------


@pytest.fixture(scope="module")
def p1_bag(p1_doubling):
    return enumerate_system(p1_doubling, 2**30)


def test_critical_target_every_point_hits(p1_bag):
    target = Target.parse("0:1", "projq")
    result = approximants(p1_bag, target, delta=0.9, C=1.0)
    # every orbit point (1:2^k), k >= 1, satisfies d ~ 2^-k <= e^{-0.9 h}
    assert len(result.hits) == len(p1_bag)
    assert all(count > 0 for count in result.decile_counts)


def test_hit_count_grows_with_bound(p1_doubling):
    target = Target.parse("0:1", "projq")
    small = approximants(enumerate_system(p1_doubling, 2**15), target, 0.9, 1.0)
    large = approximants(enumerate_system(p1_doubling, 2**30), target, 0.9, 1.0)
    assert len(large.hits) > len(small.hits)


def test_noncritical_target_finitely_many_hits(p1_bag):
    target = Target.parse("3:1", "projq")
    result = approximants(p1_bag, target, delta=0.5, C=1.0)
    assert sum(result.decile_counts[5:]) == 0  # no hits in the top half


def test_exact_hit_flagged(p1_bag):
    target = Target.parse("1:16", "projq")
    result = approximants(p1_bag, target, delta=0.5, C=1.0)
    assert any(r.point == ProjPoint((1, 16)) for r in result.exact_hits)
    profile = approximation_exponent_profile(p1_bag, target)
    assert profile.exact_hits == 1


# --- exponent profile ----------------------------------------------------------


def test_profile_critical_target(p1_bag):
    profile = approximation_exponent_profile(p1_bag, Target.parse("0:1", "projq"))
    assert profile.tail_exponent == pytest.approx(1.0, abs=0.01)


def test_profile_noncritical_target(p1_bag):
    profile = approximation_exponent_profile(p1_bag, Target.parse("3:1", "projq"))
    assert profile.tail_exponent < 0.05
    assert profile.max_exponent > profile.tail_exponent  # best at small height


def test_profile_other_critical_point():
    # The coordinate-swapped orbit {(2^k:1)} approximates (1:0) with
    # exponent 1, mirroring the (0:1) case.
    data = {
        "space": "projq",
        "label": "p1-up",
        "maps": [
            {"kind": "proj_homog", "forms": [
                [{"coeff": "1", "exponents": [2, 0]}],
                [{"coeff": "1", "exponents": [0, 2]}],
            ]},
            {"kind": "proj_homog", "forms": [
                [{"coeff": "2", "exponents": [2, 0]}],
                [{"coeff": "1", "exponents": [0, 2]}],
            ]},
        ],
        "seeds": [["1", "1"]],
    }
    bag = enumerate_system(system_from_dict(data), 2**30)
    profile = approximation_exponent_profile(bag, Target.parse("1:0", "projq"))
    assert profile.tail_exponent == pytest.approx(1.0, abs=0.01)


def test_profile_running_max_monotone(p1_bag):
    profile = approximation_exponent_profile(p1_bag, Target.parse("3:1", "projq"))
    values = [v for _, v in profile.running_max]
    assert values == sorted(values)


def test_pointwise_exponents_decay_after_peak(p1_bag):
    # For a target the orbit keeps at positive distance, the pointwise
    # exponent behaves like const/h: after its peak it only decreases.
    target = (3, 1)
    exps = [
        -math.log(chordal_distance(e.point, target)) / e.size.log_size
        for e in p1_bag.entries
        if e.size.log_size > 0
    ]
    peak = exps.index(max(exps))
    tail = exps[peak:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))


def test_integer_line_metric(digits01):
    bag = enumerate_system(digits01, 10**6)
    target = Target.parse("111", "int")
    result = approximants(bag, target, delta=0.5, C=1.0)
    assert any(r.point.value == 111 for r in result.exact_hits)
    profile = approximation_exponent_profile(bag, target)
    assert profile.tail_exponent < 0.1  # distances stay >= 1 at the tail


def test_fuzzy_target_conservative(p1_bag):
    # sqrt(2) with a crude error bound: comparisons widen by the error.
    target = Target.fuzzy(math.sqrt(2), 1e-9, "projq")
    strict = approximants(p1_bag, target, delta=0.5, C=1.0)
    assert all(r.d + 1e-9 <= 1.0 * math.exp(-0.5 * r.h) for r in strict.hits)


def test_unsupported_space_rejected(q2_powers2):
    bag = enumerate_system(q2_powers2, 2**6)
    with pytest.raises(UnsupportedSpaceError):
        approximants(bag, Target.parse("0:1", "projq"), 0.5, 1.0)
