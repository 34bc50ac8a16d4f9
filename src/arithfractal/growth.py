"""Counting functions N(x), growth-exponent fits, and boundedness tests.

The counting function makes the dimension observable: for an exact system
the number of points of size at most x grows like x^s, and the test
h(x) = x^-s N(x) stays bounded (above, below, or both) depending on which
side of the dimension the probe exponent s sits.
"""

from __future__ import annotations

import bisect
import math
import statistics
import sys
from typing import NamedTuple, Optional, Sequence

from .enumeration import PointBag
from .errors import GridExceedsBoundError, InsufficientDataError

# "Bounded" is not falsifiable from finite data; the verdict below uses a
# windowed tail test with these configurable thresholds.
DEFAULT_TAIL_RATIO = 2.0
DEFAULT_SLOPE_TOL = 0.02


class CountTable(NamedTuple):
    grid: tuple[float, ...]
    counts: tuple[int, ...]
    size_kind: str  # abs | norm | height | log-height | nt-height

    def usable(self) -> list[tuple[float, int]]:
        return [(x, n) for x, n in zip(self.grid, self.counts) if n >= 2 and x > 0]


class GrowthFit(NamedTuple):
    exponent: float
    intercept: float
    rmse: float
    window: tuple[float, float]
    points_used: int


def counting_function(
    bag: PointBag, grid: Sequence[float], use_log_sizes: Optional[bool] = None
) -> CountTable:
    """Exact N(x) over an increasing grid, by binary search in the sorted bag.

    For projective and affine bags the natural size is the logarithmic
    height, so the grid is read in log units there by default; integer and
    Gaussian bags count by raw size.  The grid is kept as given: a raw size
    and a grid point, int or float, compare exactly, past the float range
    too; log sizes and log grid points compare within 1e-12.
    """
    grid = list(grid)
    if any(b > a for a, b in zip(grid[1:], grid)):
        raise GridExceedsBoundError("grid must be nondecreasing")
    if use_log_sizes is None:
        use_log_sizes = bag.size_kind == "height"
    if use_log_sizes:
        sizes, limit, slack = bag.log_sizes(), bag.max_log_bound(), 1e-12
        over = grid and grid[-1] - 1e-9 > limit
    else:
        sizes, limit, slack = bag.raw_sizes(), bag.bound, 0
        over = grid and grid[-1] > limit
    if over:
        raise GridExceedsBoundError(
            f"grid point {grid[-1]} exceeds the bag bound {limit}"
        )
    counts = tuple(bisect.bisect_right(sizes, x + slack) for x in grid)
    kind = "log-height" if use_log_sizes else bag.size_kind
    return CountTable(tuple(grid), counts, kind)


def geometric_grid(start: float, stop: float, factor: float) -> list[float]:
    """The floats start, start*factor, ... up to stop, which may be an int
    past the float range.  A point past stop by rounding alone, 1e-12
    relative, is stop as a float: repeated products of 10.0 overshoot
    10^49 so.  Past the float range no finite float comes near stop."""
    if not (0 < start <= stop and factor > 1):  # nan fails every comparison
        raise GridExceedsBoundError("need 0 < start <= stop and factor > 1")
    try:
        x, factor = float(start), float(factor)
    except OverflowError:  # an int past the float range
        x = math.inf
    if math.inf in (x, factor):
        raise GridExceedsBoundError("grid start and factor must be finite floats")
    top = stop * (1 + 1e-12) if stop <= sys.float_info.max else stop
    grid = []
    while x <= top and x < math.inf:
        grid.append(x if x <= stop else float(stop))
        x *= factor
    return grid


def fit_growth_exponent(
    table: CountTable, window: Optional[tuple[float, float]] = None
) -> GrowthFit:
    """Least-squares slope of log N against log x over usable grid points.

    Points with N < 2 are dropped (log 0 and the one-point plateau carry no
    slope information).  Needs at least three usable points.
    """
    usable = table.usable()
    if window is not None:
        lo, hi = window
        usable = [(x, n) for x, n in usable if lo <= x <= hi]
    if len(usable) < 3:
        raise InsufficientDataError(
            f"growth fit needs at least 3 usable grid points, got {len(usable)}"
        )
    xs = [math.log(x) for x, _ in usable]
    if len(set(xs)) < 2:
        raise InsufficientDataError("growth fit needs at least 2 distinct grid values")
    ys = [math.log(n) for _, n in usable]
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    rmse = math.sqrt(
        sum((y - (intercept + slope * x)) ** 2 for x, y in zip(xs, ys)) / n
    )
    return GrowthFit(
        exponent=slope,
        intercept=intercept,
        rmse=rmse,
        window=(usable[0][0], usable[-1][0]),
        points_used=n,
    )


class BoundVerdict(NamedTuple):
    direction: str
    s: float
    h_sequence: tuple[float, ...]
    tail_ratio: float  # tail extreme / first-half median (or its inverse)
    monotone_tail_ratio: float  # log-log slope of h over the tail
    bounded: bool
    thresholds: tuple[float, float]  # (ratio, slope tolerance)


def lemma_bound_check(
    table: CountTable,
    s: float,
    direction: str,
    ratio: float = DEFAULT_TAIL_RATIO,
    slope_tol: float = DEFAULT_SLOPE_TOL,
) -> BoundVerdict:
    """Judge boundedness of h(x) = x^-s N(x) across the grid.

    direction="upper": h should stay bounded above (true when the pressure
    at s is below 1).  direction="lower": h should stay bounded away from 0
    (true when the pressure exceeds 1).  The verdict combines a windowed
    tail/median ratio with the log-log slope of the tail, both reported.
    """
    if direction not in ("upper", "lower"):
        raise InsufficientDataError(f"direction must be upper or lower: {direction!r}")
    if not 0 < s < math.inf:
        raise InsufficientDataError(f"probe exponent must be positive and finite, got {s}")
    pairs = [(x, n) for x, n in zip(table.grid, table.counts) if x > 0 and n > 0]
    if len(pairs) < 4:
        raise InsufficientDataError("bound check needs at least 4 populated grid points")
    try:
        h_seq = tuple(n * x**-s for x, n in pairs)
    except OverflowError:
        h_seq = (math.inf,)
    if not all(0 < h < math.inf for h in h_seq):
        raise InsufficientDataError(f"x^-s N(x) leaves the float range at s = {s}")
    half = len(h_seq) // 2
    first, tail = h_seq[:half], h_seq[half:]
    median = statistics.median(first)
    log_x = [math.log(x) for x, _ in pairs]
    if log_x[-1] == log_x[half]:
        raise InsufficientDataError("bound check needs a tail of more than one grid value")
    tail_slope = (math.log(h_seq[-1]) - math.log(h_seq[half])) / (
        log_x[-1] - log_x[half]
    )

    if direction == "upper":
        tail_ratio = max(tail) / median
        bounded = tail_ratio <= ratio and tail_slope <= slope_tol
    else:
        tail_ratio = median / min(tail)
        bounded = tail_ratio <= ratio and tail_slope >= -slope_tol
    return BoundVerdict(
        direction=direction,
        s=s,
        h_sequence=h_seq,
        tail_ratio=tail_ratio,
        monotone_tail_ratio=tail_slope,
        bounded=bounded,
        thresholds=(ratio, slope_tol),
    )
