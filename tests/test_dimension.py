import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfractal import (
    WeightSpec,
    counting_function,
    dimension_equation,
    enumerate_system,
    evaluate_pressure,
    fit_growth_exponent,
    geometric_grid,
    load_corpus_system,
    height_growth_audit,
    reciprocal_sum_audit,
    solve_dimension,
    system_from_dict,
    t_module_weights,
    validate_system,
)
from arithfractal.corpus import CORPUS
from arithfractal.errors import NonExpandingWeightError

TOL = 1e-12


def bisect_oracle(weights, iterations=200):
    """Independent plain bisection for sum(w^-s) = 1."""
    lo, hi = 0.0, 1.0
    while sum(w**-hi for w in weights) > 1:
        hi *= 2
    for _ in range(iterations):
        mid = 0.5 * (lo + hi)
        if sum(w**-mid for w in weights) > 1:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_equal_weights_closed_form():
    # k equal weights w solve to log(k)/log(w)
    assert abs(solve_dimension(WeightSpec((2.0, 2.0))).s - 1.0) < 1e-10
    assert abs(solve_dimension(WeightSpec((10.0, 10.0))).s - math.log(2) / math.log(10)) < 1e-10


def test_single_weight_dimension_zero():
    assert solve_dimension(WeightSpec((2.0,))).s == 0.0


def test_golden_ratio_case():
    # 2^-s + 4^-s = 1: t + t^2 = 1 with t = 2^-s, so s = log2((1+sqrt 5)/2)
    expected = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
    result = solve_dimension(WeightSpec((2.0, 4.0)))
    assert abs(result.s - expected) < 1e-10
    assert result.residual < TOL


def test_solver_matches_bisection_oracle():
    for weights in [(2.0, 3.0), (2.0, 5.0), (1.5, 1.5, 7.0), (10.0, 10.0, 10.0)]:
        assert abs(solve_dimension(WeightSpec(weights)).s - bisect_oracle(weights)) < 1e-9


def test_pressure_examples():
    assert evaluate_pressure(WeightSpec((2.0, 2.0)), 1.0) == pytest.approx(1.0)
    assert evaluate_pressure(WeightSpec((2.0, 2.0)), 2.0) == pytest.approx(0.5)
    assert evaluate_pressure(WeightSpec((10.0, 10.0)), 0.2) == pytest.approx(
        2 * 10**-0.2, abs=1e-12
    )


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=1.01, max_value=16.0), min_size=1, max_size=8),
    st.randoms(use_true_random=False),
)
def test_residual_and_shuffle_consistency(weights, rng):
    spec = WeightSpec(tuple(weights))
    result = solve_dimension(spec, TOL)
    assert result.residual < TOL
    shuffled = list(weights)
    rng.shuffle(shuffled)
    again = solve_dimension(WeightSpec(tuple(shuffled)), TOL)
    assert abs(again.s - result.s) < 10 * TOL


@settings(max_examples=60)
@given(
    st.lists(st.floats(min_value=1.3, max_value=16.0), min_size=1, max_size=6),
    st.floats(min_value=1.3, max_value=16.0),
)
def test_monotonicity_append_and_delete(weights, extra):
    # Weights are kept away from 1 so the appended term w^-s stays above
    # the solver's resolution; the strict inequality is not observable in
    # double precision once the dimension climbs past ~12.
    base = solve_dimension(WeightSpec(tuple(weights))).s
    grown = solve_dimension(WeightSpec(tuple(weights) + (extra,))).s
    assert grown > base
    if len(weights) > 1:
        shrunk = solve_dimension(WeightSpec(tuple(weights[:-1]))).s
        assert shrunk < base


def test_composition_representation_independence():
    # {10x, 10x+1} composed with itself: four maps of weight 100.
    s_base = solve_dimension(WeightSpec((10.0, 10.0))).s
    s_composed = solve_dimension(WeightSpec((100.0,) * 4)).s
    assert abs(s_base - s_composed) < 10 * TOL


def test_dimension_equation_weights(z_binary, gauss_base, p1_doubling, q2_powers2):
    assert dimension_equation(z_binary).weights == (2.0, 2.0)
    assert dimension_equation(gauss_base).weights == (2.0, 2.0)
    assert dimension_equation(gauss_base, "abs").weights == (
        math.sqrt(2),
        math.sqrt(2),
    )
    assert dimension_equation(p1_doubling).weights == (2.0, 2.0)
    assert dimension_equation(q2_powers2).weights == (2.0, 2.0, 2.0, 2.0)


def test_gauss_conventions_scale_dimension(gauss_base):
    s_norm = solve_dimension(dimension_equation(gauss_base, "norm")).s
    s_abs = solve_dimension(dimension_equation(gauss_base, "abs")).s
    assert abs(s_norm - 1.0) < 1e-10
    assert abs(s_abs - 2.0) < 1e-10


def test_t_module_preset():
    # degrees r_i with rank d: weights r_i * d
    spec = t_module_weights([1, 2], 3)
    assert spec.weights == (3.0, 6.0)
    assert solve_dimension(spec).residual < TOL


def test_non_expanding_weight_rejected():
    with pytest.raises(NonExpandingWeightError):
        WeightSpec((1.0, 2.0)).validate()
    with pytest.raises(NonExpandingWeightError):
        solve_dimension(WeightSpec(()))


def test_reciprocal_audit_z_binary(z_binary):
    audit = reciprocal_sum_audit(z_binary)
    assert audit.reciprocal_sum == Fraction(1)
    assert audit.s_at_most_one


def test_reciprocal_audit_digit_systems(digits01, digits012):
    # Exact digit systems: dimension stays at most 1 even though the
    # reciprocal sum sits far below 1.
    for system, total in ((digits01, Fraction(1, 5)), (digits012, Fraction(3, 10))):
        audit = reciprocal_sum_audit(system)
        assert audit.reciprocal_sum == total
        assert audit.s_at_most_one


# --- elliptic maps weigh deg [n] = n^2 --------------------------------------

_37A = {"a1": "0", "a2": "0", "a3": "1", "a4": "-1", "a6": "0"}


def _ec_system(*maps):
    """Maps P -> [n]P + T on 37a, given as (n, T) pairs, seeded at (0,0)."""
    return system_from_dict({
        "space": "ec",
        "label": "37a",
        "curve": _37A,
        "maps": [{"kind": "ell_translate", "n": str(n), "translate": t} for n, t in maps],
        "seeds": [["0", "0"]],
    })


@pytest.fixture(scope="module")
def ec_kp():
    """{Q -> [2]Q, Q -> [2]Q + P} from P = (0,0): the orbit {kP : k >= 1}."""
    return _ec_system((2, "inf"), (2, ["0", "0"]))


_LOG2 = math.log(2)
# Per exact corpus system with at least two maps: the bound of its bag, a
# doubling grid (in log height on P^1 and A^2) and the tolerance between
# dim and the fitted exponent, with the fit each gives.  Lower-order terms
# of N(x) set the tolerances: p1-powers2-full has 2k + 1 points of log2
# height at most k, q2-powers2 has (k + 1)^2.  Gauss-base reads 1.014 at 2^20.
_GROWTH_CASES = {
    "z-binary": (10**6, geometric_grid(4, 10**6, 2), 0.02),  # 0.990
    "digits01": (2**29, geometric_grid(4, 2**29, 2), 0.01),  # 0.3015 against 0.3010
    "digits012": (2**29, geometric_grid(4, 2**29, 2), 0.01),  # 0.478 against 0.4771
    "gauss-base": (2**16, geometric_grid(4, 2**16, 2), 0.03),  # 1.022
    "p1-doubling": (2**30, geometric_grid(_LOG2, 30 * _LOG2, 2), 1e-9),  # 1.0
    "p1-powers2-full": (2**1024, geometric_grid(16 * _LOG2, 1024 * _LOG2, 2), 0.01),  # 0.9935
    "q2-powers2": (2**64, geometric_grid(8 * _LOG2, 64 * _LOG2, 2), 0.1),  # 1.903
}


def test_dimension_agrees_with_growth_on_the_exact_corpus():
    # z-2x3x overlaps, so its orbit grows slower than its dim; ec-37a has one map.
    checked = []
    for entry in CORPUS:
        system = load_corpus_system(entry.name)
        if not entry.exact or len(system.maps) < 2:
            continue
        bound, grid, tol = _GROWTH_CASES[entry.name]
        fit = fit_growth_exponent(counting_function(enumerate_system(system, bound), grid))
        dim = solve_dimension(dimension_equation(system)).s
        assert abs(fit.exponent - dim) < tol, (entry.name, fit.exponent, dim)
        checked.append(entry.name)
    assert checked == list(_GROWTH_CASES)


def test_ec_weights_are_degrees(ec_kp):
    assert dimension_equation(ec_kp).weights == (4.0, 4.0)
    assert dimension_equation(ec_kp, "abs").weights == (2.0, 2.0)
    assert [m.degree() for m in ec_kp.maps] == [4, 4]
    assert solve_dimension(dimension_equation(ec_kp)).s == 0.5


def test_ec_dimension_agrees_with_growth_fit(ec_kp):
    # N(x) counts kP with log H(kP) <= x, about c*k^2, so it grows like
    # x^(1/2); the fit over the bag's own log heights reads 0.497.
    bag = enumerate_system(ec_kp, 10**300)
    grid = [x for x in bag.log_sizes() if x > 0]
    fit = fit_growth_exponent(counting_function(bag, grid))
    assert abs(fit.exponent - solve_dimension(dimension_equation(ec_kp)).s) < 0.02


def test_ec_height_audit_constant_does_not_grow(ec_kp):
    # h([2]Q) - 4h(Q) is bounded, so its max |residual| is the same at both
    # bounds.  [2]Q + P adds the cross term 2<[2]Q, P> = 4k*h^(P) for Q = kP,
    # which grows like the square root of h(Q): its max |residual| over the
    # square root of the largest log height holds instead.
    low, high = (height_growth_audit(ec_kp, enumerate_system(ec_kp, 10**e)) for e in (100, 300))
    assert abs(low[0].max_abs_residual - high[0].max_abs_residual) <= 1
    ratios = [s.max_abs_residual / math.sqrt(e * math.log(10)) for s, e in ((low[1], 100), (high[1], 300))]
    assert abs(ratios[0] - ratios[1]) <= 0.05 * ratios[1]


def test_negative_multiplier_expands():
    assert validate_system(_ec_system((-2, "inf"))) == []
    assert dimension_equation(_ec_system((-2, "inf")), "abs").weights == (2.0,)
