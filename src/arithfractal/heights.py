"""Exact size and height functions for every supported space.

Sizes are multiplicative and exact (big integers) until the final log:
absolute value on the integers, the norm a^2+b^2 on the Gaussian integers,
and the Weil height via the product formula on projective and affine
rational points (max coordinate after gcd reduction, which is the product
formula specialized to the rationals).  Each size function lives in its
space's ``spaces.SPACES`` entry; ``raw_size`` looks it up.  The census of
P^n(Q) by height counts primitive vectors by a gcd recursion, with no sieve.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import BoundTooLargeError, ConfigError, SpaceMismatchError
from .spaces import FractalSystem, SpacePoint, apply, as_bound, point_space


class SizeValue(NamedTuple):
    """Multiplicative size and its log; raw is an exact nonnegative integer."""

    raw: int
    log_size: float


def _log(raw: int) -> float:
    return math.log(raw) if raw > 1 else 0.0


def raw_size(point: SpacePoint) -> int:
    """Exact multiplicative size of a canonical point."""
    space = point_space(point)
    return space.size(space.payload(point))


def size_of(point: SpacePoint) -> SizeValue:
    raw = raw_size(point)
    return SizeValue(raw, _log(raw))


# ---------------------------------------------------------------------------
# Height growth audit: h(f(p)) - deg(f) * h(p) over an enumerated bag
# ---------------------------------------------------------------------------


class MapGrowthStats(NamedTuple):
    map_index: int
    degree: int
    min_residual: float
    max_residual: float
    mean_residual: float
    max_abs_residual: float
    samples: int


def height_growth_audit(system: FractalSystem, bag) -> list[MapGrowthStats]:
    """Per-map residuals of the height relation h(f(p)) = deg(f)*h(p) + O(1).

    The bag must come from the same system; the reported max |residual| is
    the empirical bounded constant.  Under P -> [n]P + T with T of infinite
    order it is not bounded: the pairing term 2n<P, T> grows like sqrt(h(P)).
    """
    if bag.space != system.space:
        raise SpaceMismatchError("bag was enumerated from a different space")
    stats, entries = [], bag.entries
    for i, map_ in enumerate(system.maps):
        degree = map_.degree()
        residuals = [
            size_of(apply(map_, e.point)).log_size - degree * e.size.log_size for e in entries
        ]
        stats.append(
            MapGrowthStats(
                i,
                degree,
                min(residuals, default=0.0),
                max(residuals, default=0.0),
                sum(residuals) / max(len(residuals), 1),
                max(map(abs, residuals), default=0.0),
                len(residuals),
            )
        )
    return stats


# ---------------------------------------------------------------------------
# Schanuel's asymptotic over the rationals, and the exact census
# ---------------------------------------------------------------------------

# zeta values hard-coded to 1e-12; only small n is ever needed.
_ZETA = {
    2: math.pi**2 / 6,
    3: 1.2020569031595943,
    4: math.pi**4 / 90,
    5: 1.0369277551433699,
}


def schanuel_prediction(n: int, x: float) -> float:
    """Predicted number of points of P^n(Q) with height at most x.

    Specialization of the general number-field constant to the rationals
    (class number 1, regulator 1, two roots of unity, one real embedding):
    2^(n+1) / (2 zeta(n+1)) * x^(n+1).  For n=1 this is 12 x^2 / pi^2.
    """
    if n + 1 not in _ZETA:
        raise BoundTooLargeError(f"no zeta constant for n={n}")
    return 2 ** (n + 1) / (2 * _ZETA[n + 1]) * float(x) ** (n + 1)


_CENSUS_LIMIT = 10**7


def projective_census(n: int, bound: float) -> int:
    """Exact count of points of P^n(Q) with height <= bound.

    Every such point is a pair +-v of primitive integer vectors in the box
    [-x, x]^(n+1) (Schanuel, Bull. SMF 107 (1979)).  Every nonzero vector
    in the box is d times a primitive one, d its gcd, so the number P(m) of
    primitive vectors in [-m, m]^(n+1) satisfies
    sum_{d=1..m} P(floor(m/d)) = (2m+1)^(n+1) - 1.  Solving for P(m),
    grouping the d that share floor(m/d), over the O(sqrt(x)) values
    floor(x/k) in increasing order, takes O(x^(3/4)) steps and O(sqrt(x))
    memory for every n in 1..4 (the range of the zeta table).  Bounds above
    ``_CENSUS_LIMIT`` raise BoundTooLargeError.
    """
    if n + 1 not in _ZETA:
        raise ConfigError(f"census supports n in 1..4, got n={n}")
    x = as_bound(bound)
    if bound < 0:
        raise ConfigError(f"census bound must be nonnegative, got {bound}")
    if x > _CENSUS_LIMIT:
        raise BoundTooLargeError(f"census bound {bound} exceeds the limit {_CENSUS_LIMIT}")
    root = math.isqrt(x)
    # floor(floor(x/a)/b) = floor(x/(ab)), so this set is closed under m -> floor(m/d).
    values = sorted({x // k for k in range(1, root + 1)} | set(range(1, root + 1)))
    primitive: dict[int, int] = {}
    for m in values:
        total = (2 * m + 1) ** (n + 1) - 1
        d = 2
        while d <= m:
            q = m // d
            last = m // q  # the largest d' with floor(m/d') = q
            total -= (last - d + 1) * primitive[q]
            d = last + 1
        primitive[m] = total
    return primitive.get(x, 0) // 2
