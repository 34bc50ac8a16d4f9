"""Exact elliptic-curve arithmetic over the rationals.

Implements the group law on a long Weierstrass model, the certified
canonical height, the parallelogram-law defect, and the rank-1
point-counting experiment.  Point coordinates stay exact rationals; only
the archimedean local height is computed in floating point.  Heights are
normalized as lim h(x(2^m P)) / 4^m with h(a/b) = log max(|a|, |b|),
twice Silverman's normalization (37a1 has regulator 0.0511114082399688).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ConfigError,
    GeneratorIsTorsionError,
    PointNotOnCurveError,
    PrecisionNotReachedError,
)

# Torsion over the rationals has order at most 12 (Mazur), so a point is
# torsion iff some multiple up to 12 is the identity.
MAZUR_BOUND = 12

DEFAULT_HEIGHT_TOL = 1e-3
MAX_DOUBLINGS = 40
_TRIAL_LIMIT = 10**4  # trial divisors of the coefficient denominators
# float64 rounding allowance: 64 ulps of max(1, |lambda_inf(P)|, log den x(P)).
_ROUNDING = 2.0**-46


class ECPoint(NamedTuple):
    """Affine point (x, y) or the point at infinity (both fields None)."""

    x: Optional[Fraction]
    y: Optional[Fraction]

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __lt__(self, other):
        """O first, then affine points by (x, y); sorts and heaps need only <."""
        if self.x is None or other.x is None:
            return self.x is None and other.x is not None
        return tuple.__lt__(self, other)

    def __str__(self):
        if self.is_infinity:
            return "inf"
        return f"({self.x},{self.y})"


INFINITY = ECPoint(None, None)


def ec_point(x, y) -> ECPoint:
    return ECPoint(Fraction(x), Fraction(y))


@dataclass(frozen=True)
class Curve:
    """Long Weierstrass model y^2 + a1 xy + a3 y = x^3 + a2 x^2 + a4 x + a6."""

    a1: Fraction
    a2: Fraction
    a3: Fraction
    a4: Fraction
    a6: Fraction

    def __post_init__(self):
        for name in ("a1", "a2", "a3", "a4", "a6"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.discriminant() == 0:
            raise PointNotOnCurveError("curve is singular (discriminant 0)")

    @classmethod
    def from_coefficients(cls, coeffs: Sequence) -> "Curve":
        a1, a2, a3, a4, a6 = (Fraction(c) for c in coeffs)
        return cls(a1, a2, a3, a4, a6)

    def b_invariants(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        a1, a2, a3, a4, a6 = self.a1, self.a2, self.a3, self.a4, self.a6
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        return b2, b4, b6, b8

    def discriminant(self) -> Fraction:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def contains(self, point: ECPoint) -> bool:
        if point.is_infinity:
            return True
        x, y = point.x, point.y
        lhs = y * y + self.a1 * x * y + self.a3 * y
        rhs = x**3 + self.a2 * x * x + self.a4 * x + self.a6
        return lhs == rhs

    def require(self, point: ECPoint) -> None:
        if not self.contains(point):
            raise PointNotOnCurveError(f"point {point} is not on {self}")

    def __str__(self):
        return (
            f"y^2+{self.a1}xy+{self.a3}y=x^3+{self.a2}x^2+{self.a4}x+{self.a6}"
        )


def ec_neg(curve: Curve, point: ECPoint) -> ECPoint:
    if point.is_infinity:
        return INFINITY
    x, y = point.x, point.y
    return ECPoint(x, -y - curve.a1 * x - curve.a3)


def ec_add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    """Exact group law, covering doubling, inverse pairs, and infinity."""
    curve.require(p)
    curve.require(q)
    return _add(curve, p, q)


def _add(curve: Curve, p: ECPoint, q: ECPoint) -> ECPoint:
    """The group law on points already known to lie on the curve."""
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    a1, a2, a3, a4 = curve.a1, curve.a2, curve.a3, curve.a4
    x1, y1 = p.x, p.y
    x2, y2 = q.x, q.y
    if x1 == x2 and y1 + y2 + a1 * x2 + a3 == 0:
        return INFINITY
    if p == q:
        lam = (3 * x1 * x1 + 2 * a2 * x1 + a4 - a1 * y1) / (2 * y1 + a1 * x1 + a3)
    else:
        lam = (y2 - y1) / (x2 - x1)
    nu = y1 - lam * x1
    x3 = lam * lam + a1 * lam - a2 - x1 - x2
    y3 = -(lam + a1) * x3 - nu - a3
    return ECPoint(x3, y3)


def ec_mul(curve: Curve, n: int, point: ECPoint) -> ECPoint:
    """n-fold multiple by double-and-add; negative n through negation."""
    curve.require(point)
    if n < 0:
        n, point = -n, ec_neg(curve, point)
    result = INFINITY
    addend = point
    while n:
        if n & 1:
            result = _add(curve, result, addend)
        addend = _add(curve, addend, addend)
        n >>= 1
    return result


def is_torsion(curve: Curve, point: ECPoint) -> bool:
    curve.require(point)
    return _is_torsion(curve, point)


def _is_torsion(curve: Curve, point: ECPoint) -> bool:
    if point.is_infinity:
        return True
    current = point
    for _ in range(MAZUR_BOUND):
        current = _add(curve, current, point)
        if current.is_infinity:
            return True
    return False


class CanonicalHeight(NamedTuple):
    value: float
    doublings: int
    torsion: bool


def canonical_height(
    curve: Curve,
    point: ECPoint,
    tol: float = DEFAULT_HEIGHT_TOL,
    min_doublings: int = 2,
    max_doublings: int = MAX_DOUBLINGS,
) -> CanonicalHeight:
    """Canonical height of a point, certified to within tol.

    h(P) = lambda_inf(P) + log den(x(P)) on the integral model a_i -> u^i a_i
    when no prime divides both the discriminant and the numerators of
    dF/dx(P), dF/dy(P); otherwise h(kP)/k^2 for the least k at which kP
    passes (Silverman, Computing heights on elliptic curves, Math. Comp. 51
    (1988)).  ``doublings`` counts the terms of Silverman's series for
    lambda_inf, one floating-point duplication of x each: the least number
    in [min_doublings, max_doublings] whose truncation bound is tol/2, the
    other tol/2 covering float64 rounding.  Torsion points report 0 after 0
    terms.  Raises PrecisionNotReached if no such number exists or tol/2 is
    below the rounding allowance.
    """
    curve.require(point)
    return _height(curve, point, tol, min_doublings, max_doublings)


def _height(
    curve: Curve, point: ECPoint, tol: float, min_terms: int = 2, max_terms: int = MAX_DOUBLINGS
) -> CanonicalHeight:
    if _is_torsion(curve, point):
        return CanonicalHeight(0.0, 0, True)
    u = _integral_scale(curve)
    model = Curve(curve.a1 * u, curve.a2 * u**2, curve.a3 * u**3, curve.a4 * u**4, curve.a6 * u**6)
    discriminant = model.discriminant().numerator
    k, multiple = 1, point
    while True:
        x, y = multiple.x * u**2, multiple.y * u**3
        d_dx = 3 * x * x + 2 * model.a2 * x + model.a4 - model.a1 * y
        d_dy = 2 * y + model.a1 * x + model.a3
        if math.gcd(discriminant, d_dx.numerator, d_dy.numerator) == 1:
            break
        k, multiple = k + 1, _add(curve, multiple, point)
    try:
        b = tuple(float(v) for v in model.b_invariants())
    except OverflowError:
        raise PrecisionNotReachedError(f"coefficients of {curve} exceed float64") from None
    # Silverman takes N = ceil(5D/3 + offset) terms for D digits; the error
    # is then 10^-D in his normalization, 2 * 10^-D in this one.
    h_bound = max(4.0, abs(b[0]), 2 * abs(b[1]), 2 * abs(b[2]), abs(b[3]))
    offset = 0.5 + 0.75 * math.log10(7 + 4 * math.log(h_bound) / 3)
    half_tol = tol * k * k / 2
    terms = next(
        (n for n in range(min_terms, max_terms + 1) if 2 * 10 ** (0.6 * (offset - n)) <= half_tol),
        None,
    )
    if terms is None:
        raise PrecisionNotReachedError(
            f"height of {point} to tol {tol} needs more than {max_terms} series terms"
        )
    archimedean = _archimedean_height(b, x, terms)
    log_den = math.log(x.denominator)
    if _ROUNDING * max(1.0, abs(archimedean), log_den) > half_tol:
        raise PrecisionNotReachedError(
            f"tol {tol} is below what float64 can certify for the height of {point}"
        )
    return CanonicalHeight((archimedean + log_den) / (k * k), terms, False)


def _integral_scale(curve: Curve) -> int:
    """The least u with u^i a_i integral, from the prime powers of the
    coefficient denominators found by trial division below _TRIAL_LIMIT;
    a cofactor left unfactored enters u whole, so u^i a_i is always
    integral."""
    u = 1
    for i, a in zip((1, 2, 3, 4, 6), (curve.a1, curve.a2, curve.a3, curve.a4, curve.a6)):
        den, p = a.denominator, 2
        while p * p <= den and p < _TRIAL_LIMIT:
            e = 0
            while den % p == 0:
                den, e = den // p, e + 1
            u = math.lcm(u, p ** -(-e // i))
            p += 1
        u = math.lcm(u, den)
    return u


def _archimedean_height(b: tuple, x: Fraction, terms: int) -> float:
    """lambda_inf(P) from x = x(P), truncated after ``terms`` terms.

    With t = 1/x, t(2P) = w/z for w = 4t + b2 t^2 + 2 b4 t^3 + b6 t^4 and
    z = 1 - b4 t^2 - 2 b6 t^3 - b8 t^4, and
    lambda_inf(P) = -log|t| + sum_n 4^-(n+1) log|z(2^n P)|.  Where |x| < 1/2
    the series runs on the model shifted by x -> x + 1, so |t| <= 2 always.
    """
    b2, b4, b6, b8 = b
    shifted = (b2 - 12, b4 - b2 + 6, b6 - 2 * b4 + b2 - 4, b8 - 3 * b6 + 3 * b4 - b2 + 3)
    on_x = 2 * abs(x) >= 1
    t = float(1 / x) if on_x else float(1 / (x + 1))
    total = math.log(abs(x.numerator)) - math.log(x.denominator) if on_x else -math.log(abs(t))
    weight = 1.0
    for _ in range(terms):
        c2, c4, c6, c8 = b if on_x else shifted
        weight /= 4
        w = 4 * t + (c2 + (2 * c4 + c6 * t) * t) * t * t
        z = 1 - (c4 + (2 * c6 + c8 * t) * t) * t * t
        if abs(w) > 2 * abs(z):  # x(2^n P) is within 1/2 of this model's origin: switch
            z, on_x = (z + w if on_x else z - w), not on_x
        total += weight * math.log(abs(z))
        t = w / z
    return total


def parallelogram_defect(
    curve: Curve, p: ECPoint, q: ECPoint, tol: float = DEFAULT_HEIGHT_TOL
) -> float:
    """|h(P+Q) + h(P-Q) - 2h(P) - 2h(Q)| with each height at tol/4."""
    curve.require(p)
    curve.require(q)

    def height(point: ECPoint) -> float:
        return _height(curve, point, tol / 4).value

    plus = _add(curve, p, q)
    minus = _add(curve, p, ec_neg(curve, q))
    return abs(height(plus) + height(minus) - 2 * height(p) - 2 * height(q))


class NeronCountResult(NamedTuple):
    table: "object"  # growth.CountTable
    fit: "object"  # growth.GrowthFit
    generator_height: float
    spot_check_max_delta: float
    spot_check_bound: float  # (1 + n^2) tol at the multiple with that delta


def neron_count(
    curve: Curve,
    generator: ECPoint,
    torsion_points: Sequence[ECPoint],
    x_grid: Sequence[float],
    tol: float = DEFAULT_HEIGHT_TOL,
    rng_seed: int = 0,
) -> NeronCountResult:
    """Counting experiment for the rank-1 subgroup {nP + T}.

    Counts use the quadratic scaling h(nP) = n^2 h(P).  Five random
    multiples are re-measured directly; since each height is within tol,
    h(nP) and n^2 h(P) must agree within (1 + n^2) tol.
    """
    from . import growth  # local import: growth depends on enumeration

    curve.require(generator)
    if _is_torsion(curve, generator):
        raise GeneratorIsTorsionError(f"generator {generator} is torsion")
    torsion = [INFINITY]
    for t in torsion_points:
        curve.require(t)
        if not _is_torsion(curve, t):
            raise PointNotOnCurveError(f"{t} supplied as torsion but is not")
        if t not in torsion:
            torsion.append(t)

    gen_height = _height(curve, generator, tol).value
    grid = sorted(float(x) for x in x_grid)
    if not grid or grid[0] < 0:
        raise ConfigError(f"neron_count needs a non-empty grid of values >= 0, got {grid}")
    # The largest n >= 0 with n^2 h(P) <= x, in exact arithmetic, per grid value.
    reach = [math.isqrt(math.floor(Fraction(x) / Fraction(gen_height))) for x in grid]
    n_max = reach[-1] + 1
    counts = [(2 * n + 1) * len(torsion) for n in reach]

    rng = random.Random(rng_seed)
    max_delta, max_bound = 0.0, 0.0
    candidates = list(range(2, min(n_max, 8) + 1)) or [1]
    multiples = [INFINITY, generator]
    while len(multiples) <= candidates[-1]:
        multiples.append(_add(curve, multiples[-1], generator))
    for n in rng.sample(candidates, min(5, len(candidates))):
        direct = _height(curve, multiples[n], tol).value
        delta = abs(direct - n * n * gen_height)
        bound = (1 + n * n) * tol
        if delta > bound:
            raise PrecisionNotReachedError(
                f"lattice shortcut disagrees with the direct height at n={n}: "
                f"delta {delta:.3g} > bound (1 + n^2) tol = {bound:.3g}"
            )
        if delta >= max_delta:
            max_delta, max_bound = delta, bound

    table = growth.CountTable(grid=tuple(grid), counts=tuple(counts), size_kind="nt-height")
    fit = growth.fit_growth_exponent(table)
    return NeronCountResult(table, fit, gen_height, max_delta, max_bound)
