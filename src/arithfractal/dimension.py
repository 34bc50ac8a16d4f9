"""The generalized Moran dimension equation sum(w_i^-s) = 1.

Weights derive from the maps: |a| for integer affine maps, the Gaussian
norm of the multiplier under the default norm-counting convention (its
square root under the absolute-value convention), the common degree for
projective maps, the degree n^2 of [n] for elliptic translate maps (|n|
under the absolute-value convention), and the total degree for nonlinear
affine tuples.  The left side is strictly decreasing in s, so the root is
unique and bracketing bisection plus a Newton polish is safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import BoundTooLargeError, NonExpandingWeightError
from .spaces import FractalSystem, SimilarityMap

DEFAULT_TOL = 1e-12

# Gaussian counting conventions: "norm" measures sizes by a^2+b^2 and weighs
# a linear map by Norm(a); "abs" measures by |z| and weighs by sqrt(Norm(a)).
CONVENTIONS = ("norm", "abs")


class WeightSpec(NamedTuple):
    weights: tuple[float, ...]
    convention: str = "norm"

    def validate(self) -> None:
        if not self.weights:
            raise NonExpandingWeightError("weight list is empty")
        for w in self.weights:
            if not w > 1.0:
                raise NonExpandingWeightError(f"weight {w} is not > 1")


class DimensionResult(NamedTuple):
    s: float
    residual: float
    iterations: int


def map_weight(map_: SimilarityMap, convention: str = "norm") -> float:
    if convention not in CONVENTIONS:
        raise NonExpandingWeightError(f"unknown convention {convention!r}")
    return map_.weight(convention)


def dimension_equation(
    system: FractalSystem, convention: str = "norm"
) -> WeightSpec:
    """Expansion weights of a system's maps, in map order, checked to exceed 1
    by ``solve_dimension``; one past the float range raises BoundTooLarge."""
    weights = []
    for i, map_ in enumerate(system.maps):
        try:
            weights.append(map_weight(map_, convention))
        except OverflowError:
            raise BoundTooLargeError(f"the weight of map {i} exceeds the float range") from None
    return WeightSpec(tuple(weights), convention)


def t_module_weights(degrees: Sequence[int], rank: int) -> WeightSpec:
    """Preset weights r_i * d for self-similarities of a t-module of rank d.

    Only the dimension equation is exposed; no t-module arithmetic exists.
    """
    spec = WeightSpec(tuple(float(r * rank) for r in degrees), "norm")
    spec.validate()
    return spec


def evaluate_pressure(spec: WeightSpec, s: float) -> float:
    """sum(w_i^-s); above 1 below the dimension, below 1 above it."""
    return sum(w**-s for w in spec.weights)


def solve_dimension(spec: WeightSpec, tol: float = DEFAULT_TOL) -> DimensionResult:
    """Unique s >= 0 with sum(w_i^-s) = 1, to |residual| < tol.

    Brackets by doubling, bisects until the interval is tame, then Newton
    with the exact derivative -sum(w^-s log w).
    """
    if tol <= 0:
        raise NonExpandingWeightError("tol must be positive")
    spec.validate()
    weights = spec.weights
    if len(weights) == 1:
        return DimensionResult(0.0, 0.0, 0)

    def g(s: float) -> float:
        return sum(w**-s for w in weights) - 1.0

    iterations = 0
    lo, hi = 0.0, 1.0
    while g(hi) > 0:
        lo, hi = hi, hi * 2
        iterations += 1
        if hi > 1e9:
            raise NonExpandingWeightError("failed to bracket the dimension")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        iterations += 1
        if g(mid) > 0:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9:
            break
    s = 0.5 * (lo + hi)
    for _ in range(60):
        value = g(s)
        iterations += 1
        if abs(value) < tol:
            return DimensionResult(s, abs(value), iterations)
        derivative = -sum(w**-s * math.log(w) for w in weights)
        step = value / derivative
        s -= step
        if not math.isfinite(s):
            raise NonExpandingWeightError("Newton step diverged")
    value = g(s)
    if abs(value) < tol:
        return DimensionResult(s, abs(value), iterations)
    raise NonExpandingWeightError(
        f"dimension solve stalled at residual {abs(value)} (tol {tol})"
    )


class ReciprocalAudit(NamedTuple):
    """The sum of reciprocal weights and the dimension bound s <= 1.

    For an exact fractal subset of the integers the dimension cannot exceed
    the dimension of the ambient ring, which is 1; equality in the
    reciprocal sum corresponds to dimension exactly 1.
    """

    reciprocal_sum: Fraction
    s: float
    s_at_most_one: bool


def reciprocal_sum_audit(
    system: FractalSystem, tol: float = DEFAULT_TOL
) -> ReciprocalAudit:
    """Audit sum(1/|a_i|) and the bound s <= 1 for an integer system."""
    if system.space != "int":
        raise NonExpandingWeightError("reciprocal audit applies to integer systems")
    total = sum((Fraction(1, abs(m.a)) for m in system.maps), Fraction(0))
    result = solve_dimension(dimension_equation(system), tol)
    return ReciprocalAudit(total, result.s, result.s <= 1.0 + 10 * tol)
