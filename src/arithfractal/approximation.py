"""Diophantine-approximation harness on the projective line and the integers.

Measures how well enumerated fractal points approximate a target point,
relative to their heights: a record with distance d and height h realizes
the approximation exponent (-log d)/h.  The metric on the projective line
is the chordal one, computed in double precision from exact integers; on
the integers it is the absolute value on the real line.

Finiteness is always reported as stabilization over the enumerated window,
never as a theorem.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .enumeration import PointBag
from .errors import ConfigError, UnsupportedSpaceError, ZeroProjectivePointError
from .polynomials import parse_rational
from .spaces import ProjPoint, SpacePoint, canonicalize


def chordal_distance(p, q) -> float:
    """d((a:b),(c:d)) = |ad - bc| / (sqrt(a^2+b^2) sqrt(c^2+d^2)).

    Accepts canonical projective points or raw integer pairs; the value is
    scale invariant and bounded by 1.
    """
    a, b = _pair(p)
    c, d = _pair(q)
    if a == 0 and b == 0 or c == 0 and d == 0:
        raise ZeroProjectivePointError("chordal distance of the zero vector")
    num = a * d - b * c
    if num == 0:
        return 0.0
    num2, den = num * num, (a * a + b * b) * (c * c + d * d)
    # int / int is correctly rounded, like float(Fraction(...)), with no gcd.
    square = num2 / den
    if square >= sys.float_info.min:
        return math.sqrt(square)
    # Below the normal floats the square loses bits (0.0 past heights of
    # about 2^537): scale it by 4^k, take the root, scale back by 2^-k.  A
    # distance below every float reads as the smallest one, never as 0.0.
    k = (den.bit_length() - num2.bit_length()) // 2 + 1
    return max(math.ldexp(math.sqrt((num2 << 2 * k) / den), -k), math.ulp(0.0))


def _pair(p) -> tuple[int, int]:
    coords = tuple(getattr(p, "coords", p))
    if len(coords) != 2:
        raise UnsupportedSpaceError("chordal metric lives on the projective line")
    return int(coords[0]), int(coords[1])


@dataclass(frozen=True)
class Target:
    """Approximation target: exact rational data, or a float with an error bound.

    Projective targets are canonical integer pairs; line targets are exact
    rationals.  A fuzzy target (value, error) is treated conservatively:
    the error bound widens every distance comparison.
    """

    projective: Optional[tuple[int, int]] = None
    line: Optional[Fraction] = None
    error: float = 0.0

    @classmethod
    def parse(cls, text: str, space: str) -> "Target":
        text = text.strip()
        if space == "projq":
            parts = text.strip("()").split(":")
            if len(parts) != 2:
                raise ConfigError(f"projective target must be a:b, got {text!r}")
            a, b = (parse_rational(p) for p in parts)
            if a == b == 0:
                raise ConfigError(f"projective target must not be 0:0, got {text!r}")
            lcm = math.lcm(a.denominator, b.denominator)
            point = canonicalize(ProjPoint((int(a * lcm), int(b * lcm))))
            return cls(projective=point.coords)
        if space == "int":
            return cls(line=parse_rational(text))
        raise UnsupportedSpaceError(f"no approximation targets on space {space!r}")

    @classmethod
    def fuzzy(cls, value: float, error: float, space: str = "projq") -> "Target":
        if space == "projq":
            scale = 10**12
            return cls(projective=(int(round(value * scale)), scale), error=float(error))
        return cls(line=Fraction(value).limit_denominator(10**12), error=float(error))


class ApproxRecord(NamedTuple):
    point: SpacePoint
    h: float
    d: float
    exponent: Optional[float]  # (-log d)/h, None for exact hits or h=0
    exact_hit: bool


# Per space: the Target field it is measured against, and the distance
# from a point of the space to that target.
_METRICS = {
    "projq": ("projective", chordal_distance),
    "int": ("line", lambda point, line: abs(float(point.value - line))),
}


def _records(bag: PointBag, target: Target) -> list[ApproxRecord]:
    if bag.space not in _METRICS:
        raise UnsupportedSpaceError(
            f"approximation harness supports projq and int bags, not {bag.space!r}"
        )
    field, distance = _METRICS[bag.space]
    t = getattr(target, field)
    if t is None:
        raise ConfigError(f"{bag.space} bag needs a {field} target")
    # In bag order, by size, so the records come by nondecreasing h = log size.
    return [_record(e.point, e.size.log_size, distance(e.point, t), target.error)
            for e in bag.entries]


def _record(point: SpacePoint, h: float, d: float, error: float) -> ApproxRecord:
    exact = d <= error or d == 0.0
    exponent = None
    if not exact and h > 0:
        exponent = -math.log(d) / h
    return ApproxRecord(point, h, d, exponent, exact)


class ApproximantsResult(NamedTuple):
    hits: tuple[ApproxRecord, ...]
    decile_counts: tuple[int, ...]  # hit count per height decile of the bag
    exact_hits: tuple[ApproxRecord, ...]
    delta: float
    C: float


def check_rate(delta: float, C: float) -> None:
    """Refuses a rate C * exp(-delta * h) unless delta and C are finite and
    positive."""
    if not (0 < delta < math.inf and 0 < C < math.inf):  # also false for nan
        raise ConfigError(f"delta and C must be finite and positive, got {delta!r} and {C!r}")


def approximants(
    bag: PointBag, target: Target, delta: float, C: float
) -> ApproximantsResult:
    """All bag points with d <= C * exp(-delta * h), sorted by height.

    Exact hits (distance zero, or within the target's error bound) are
    flagged and excluded from exponent statistics.  The per-decile counts
    expose whether new hits keep arriving at large heights.
    """
    check_rate(delta, C)
    records = _records(bag, target)
    h_max = max((r.h for r in records), default=0.0)
    hits = []
    exact = []
    for record in records:
        if record.exact_hit:
            exact.append(record)
            continue
        if record.d + target.error <= C * math.exp(-delta * record.h):
            hits.append(record)
    deciles = [0] * 10
    if h_max > 0:
        for record in hits:
            bucket = min(9, int(10 * record.h / h_max))
            deciles[bucket] += 1
    else:
        deciles[0] = len(hits)
    return ApproximantsResult(tuple(hits), tuple(deciles), tuple(exact), delta, C)


class ExponentProfile(NamedTuple):
    running_max: tuple[tuple[float, float], ...]  # (h, best exponent so far)
    max_exponent: float
    tail_exponent: float  # largest pointwise exponent in the top height decile
    tail_window: tuple[float, float]
    exact_hits: int


def approximation_exponent_profile(bag: PointBag, target: Target) -> ExponentProfile:
    """Pointwise exponents (-log d)/h by increasing height.

    Reports the running maximum, the global maximum, and the tail value:
    the largest pointwise exponent among points in the top tenth of the
    height range, which estimates the exponent actually sustained at large
    height.
    """
    records = [r for r in _records(bag, target) if r.h > 0]
    exact_count = sum(1 for r in records if r.exact_hit)
    usable = [r for r in records if r.exponent is not None]
    if not usable:
        raise ConfigError("no usable records: every point is an exact hit or h=0")
    running = []
    best = -math.inf
    for record in usable:
        best = max(best, record.exponent)
        running.append((record.h, best))
    h_max = usable[-1].h
    tail_lo = 0.9 * h_max
    tail = [r.exponent for r in usable if r.h >= tail_lo]
    return ExponentProfile(
        running_max=tuple(running),
        max_exponent=best,
        tail_exponent=max(tail),
        tail_window=(tail_lo, h_max),
        exact_hits=exact_count,
    )
