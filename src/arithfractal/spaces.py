"""Ambient spaces, points, similarity maps, and fractal systems.

Five spaces are supported: the rational integers ("int"), the Gaussian
integers ("gauss"), affine rational tuples ("affq"), projective rational
points in canonical integer coordinates ("projq"), and points of an
elliptic curve over the rationals ("ec").  Everything is exact: integers
are arbitrary precision, rationals are Fractions, and projective points
are kept in a canonical form (coprime coordinates, first nonzero one
positive) so that set membership is well defined.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple, Optional, Sequence, Union

from .elliptic import Curve, ECPoint, INFINITY, ec_add, ec_mul
from .errors import (
    ConfigError,
    SpaceMismatchError,
    UnsupportedMapKindError,
    ZeroProjectivePointError,
)
from .polynomials import (
    Polynomial,
    format_rational,
    parse_rational,
)

SPACES = ("int", "gauss", "affq", "projq", "ec")


# ---------------------------------------------------------------------------
# Points
# ---------------------------------------------------------------------------


class IntPoint(NamedTuple):
    value: int

    def __str__(self):
        return str(self.value)


class GaussPoint(NamedTuple):
    re: int
    im: int

    def __str__(self):
        sign = "+" if self.im >= 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


class AffPoint(NamedTuple):
    coords: tuple[Fraction, ...]

    def __str__(self):
        return "(" + ",".join(format_rational(c) for c in self.coords) + ")"


class ProjPoint(NamedTuple):
    coords: tuple[int, ...]

    def __str__(self):
        return "(" + ":".join(str(c) for c in self.coords) + ")"


SpacePoint = Union[IntPoint, GaussPoint, AffPoint, ProjPoint, ECPoint]


def gauss_mul(a: GaussPoint, b: GaussPoint) -> GaussPoint:
    return GaussPoint(a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re)


def gauss_add(a: GaussPoint, b: GaussPoint) -> GaussPoint:
    return GaussPoint(a.re + b.re, a.im + b.im)


def gauss_norm(a: GaussPoint) -> int:
    return a.re * a.re + a.im * a.im


def gauss_divide_exact(p: GaussPoint, a: GaussPoint) -> Optional[GaussPoint]:
    """p / a in Z[i] when the division is exact, else None."""
    n = gauss_norm(a)
    if n == 0:
        return None
    re = p.re * a.re + p.im * a.im
    im = p.im * a.re - p.re * a.im
    if re % n or im % n:
        return None
    return GaussPoint(re // n, im // n)


def space_of_point(point: SpacePoint) -> str:
    if isinstance(point, IntPoint):
        return "int"
    if isinstance(point, GaussPoint):
        return "gauss"
    if isinstance(point, AffPoint):
        return "affq"
    if isinstance(point, ProjPoint):
        return "projq"
    if isinstance(point, ECPoint):
        return "ec"
    raise SpaceMismatchError(f"unknown point type {type(point)!r}")


def canonicalize(point: SpacePoint) -> SpacePoint:
    """Canonical form; idempotent on every variant.

    Projective tuples are divided by the gcd of their coordinates and the
    first nonzero coordinate is made positive.  Rationals are normalized by
    Fraction itself.
    """
    if isinstance(point, (IntPoint, GaussPoint, ECPoint)):
        return point
    if isinstance(point, AffPoint):
        return AffPoint(tuple(Fraction(c) for c in point.coords))
    if isinstance(point, ProjPoint):
        coords = tuple(int(c) for c in point.coords)
        if not any(coords):
            raise ZeroProjectivePointError("all projective coordinates are zero")
        g = math.gcd(*(abs(c) for c in coords))
        coords = tuple(c // g for c in coords)
        lead = next(c for c in coords if c)
        if lead < 0:
            coords = tuple(-c for c in coords)
        return ProjPoint(coords)
    raise SpaceMismatchError(f"unknown point type {type(point)!r}")


# ---------------------------------------------------------------------------
# Similarity maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IntAffineMap:
    """x -> a*x + b on the integers; expanding when |a| > 1."""

    a: int
    b: int

    kind = "int_affine"
    space = "int"

    def degree(self) -> int:
        return 1

    def describe(self) -> str:
        return f"{self.a}x{self.b:+d}" if self.b else f"{self.a}x"


@dataclass(frozen=True)
class GaussAffineMap:
    """z -> a*z + b on the Gaussian integers."""

    a: GaussPoint
    b: GaussPoint

    kind = "gauss_affine"
    space = "gauss"

    def degree(self) -> int:
        return 1

    def describe(self) -> str:
        return f"({self.a})z+({self.b})"


@dataclass(frozen=True)
class PolyTupleMap:
    """Tuple of n polynomials in n variables acting on affine rational space."""

    components: tuple[Polynomial, ...]

    kind = "poly_tuple"
    space = "affq"

    def nvars(self) -> int:
        return len(self.components)

    def degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    def describe(self) -> str:
        return "(" + "; ".join(str(c) for c in self.components) + ")"

    def monomial_diagonal(self) -> Optional[list[tuple[Fraction, int]]]:
        """[(coeff, exponent)] per coordinate when each component is a single
        monomial c*x_i^e in its own variable; None otherwise."""
        diag = []
        for i, comp in enumerate(self.components):
            if not comp.is_monomial():
                return None
            exps, coeff = comp.terms[0]
            if any(e and j != i for j, e in enumerate(exps)):
                return None
            if exps[i] == 0:
                return None
            diag.append((coeff, exps[i]))
        return diag


@dataclass(frozen=True)
class ProjHomogMap:
    """n+1 homogeneous integer forms of a common degree acting on P^n."""

    forms: tuple[Polynomial, ...]

    kind = "proj_homog"
    space = "projq"

    def nvars(self) -> int:
        return len(self.forms)

    def degree(self) -> int:
        return self.forms[0].total_degree()

    def describe(self) -> str:
        return "(" + " : ".join(str(f) for f in self.forms) + ")"


@dataclass(frozen=True)
class EllTranslateMap:
    """P -> [n]P + T on an elliptic curve."""

    multiplier: int
    translation: ECPoint
    curve: Curve

    kind = "ell_translate"
    space = "ec"

    def degree(self) -> int:
        return self.multiplier

    def describe(self) -> str:
        return f"[{self.multiplier}]P+{self.translation}"


SimilarityMap = Union[
    IntAffineMap, GaussAffineMap, PolyTupleMap, ProjHomogMap, EllTranslateMap
]


# ---------------------------------------------------------------------------
# Apply / preimage
# ---------------------------------------------------------------------------


def apply(map_: SimilarityMap, point: SpacePoint) -> SpacePoint:
    """Exact image of a point, canonicalized."""
    if map_.space != space_of_point(point):
        raise SpaceMismatchError(
            f"map on {map_.space!r} applied to point in {space_of_point(point)!r}"
        )
    if isinstance(map_, IntAffineMap):
        return IntPoint(map_.a * point.value + map_.b)
    if isinstance(map_, GaussAffineMap):
        return gauss_add(gauss_mul(map_.a, point), map_.b)
    if isinstance(map_, PolyTupleMap):
        return AffPoint(tuple(c.evaluate(point.coords) for c in map_.components))
    if isinstance(map_, ProjHomogMap):
        image = tuple(f.evaluate_int(point.coords) for f in map_.forms)
        return canonicalize(ProjPoint(image))
    if isinstance(map_, EllTranslateMap):
        multiple = ec_mul(map_.curve, map_.multiplier, point)
        return ec_add(map_.curve, multiple, map_.translation)
    raise UnsupportedMapKindError(f"unknown map type {type(map_)!r}")


def _fraction_root(value: Fraction, degree: int) -> Optional[Fraction]:
    """Exact degree-th root of a rational, preferring the positive root."""
    if degree == 1:
        return value
    if value == 0:
        return Fraction(0)
    negative = value < 0
    if negative and degree % 2 == 0:
        return None
    num = _int_root(abs(value.numerator), degree)
    den = _int_root(value.denominator, degree)
    if num is None or den is None:
        return None
    root = Fraction(num, den)
    return -root if negative else root


def _int_root(n: int, k: int) -> Optional[int]:
    """Exact k-th root of a nonnegative integer, None if n is not a power."""
    if n in (0, 1):
        return n
    if k == 2:
        root = math.isqrt(n)
        return root if root * root == n else None
    # Integer Newton iteration seeded from the bit length; floats would
    # overflow on big operands.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            break
        x = y
    return x if x**k == n else None


def preimage(map_: SimilarityMap, point: SpacePoint) -> Optional[SpacePoint]:
    """The unique lattice-exact preimage when the map kind supports one.

    Affine integer and Gaussian maps invert by exact division; diagonal
    monomial tuples invert coordinatewise (positive root for even degrees).
    Other kinds raise UnsupportedMapKind: membership for them falls back to
    enumeration.
    """
    if map_.space != space_of_point(point):
        raise SpaceMismatchError("preimage: map and point live in different spaces")
    if isinstance(map_, IntAffineMap):
        delta = point.value - map_.b
        if delta % map_.a:
            return None
        return IntPoint(delta // map_.a)
    if isinstance(map_, GaussAffineMap):
        shifted = GaussPoint(point.re - map_.b.re, point.im - map_.b.im)
        return gauss_divide_exact(shifted, map_.a)
    if isinstance(map_, PolyTupleMap):
        diag = map_.monomial_diagonal()
        if diag is None:
            raise UnsupportedMapKindError(
                "preimage supports only coordinatewise monomial tuples"
            )
        coords = []
        for (coeff, exponent), value in zip(diag, point.coords):
            root = _fraction_root(Fraction(value) / coeff, exponent)
            if root is None:
                return None
            coords.append(root)
        return AffPoint(tuple(coords))
    raise UnsupportedMapKindError(
        f"preimage not available for map kind {map_.kind!r}"
    )


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FractalSystem:
    space: str
    maps: tuple[SimilarityMap, ...]
    seeds: tuple[SpacePoint, ...]
    label: str = ""
    curve: Optional[Curve] = None

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(
            self, "seeds", tuple(canonicalize(s) for s in self.seeds)
        )


class Violation(NamedTuple):
    code: str
    where: str
    index: int
    message: str


# Grid of small integer tuples used as a spot check that homogeneous forms
# have no common nontrivial rational zero; exact elimination is out of scope.
_COMMON_ZERO_GRID_RADIUS = 3


def _common_zero_on_grid(forms: Sequence[Polynomial]) -> Optional[tuple[int, ...]]:
    nvars = forms[0].nvars
    radius = _COMMON_ZERO_GRID_RADIUS

    def tuples(prefix):
        if len(prefix) == nvars:
            yield prefix
            return
        for v in range(-radius, radius + 1):
            yield from tuples(prefix + (v,))

    for candidate in tuples(()):
        if not any(candidate):
            continue
        if all(f.evaluate_int(candidate) == 0 for f in forms):
            return candidate
    return None


def validate_system(system: FractalSystem) -> list[Violation]:
    """Every violated invariant, with the offending map or seed index.

    An empty list means the system is valid.  Violations are data, not
    exceptions: auditing tools want to see all of them at once.
    """
    violations: list[Violation] = []
    if system.space not in SPACES:
        violations.append(
            Violation("UnknownSpace", "system", -1, f"unknown space {system.space!r}")
        )
        return violations
    if not system.maps:
        violations.append(Violation("NoMaps", "system", -1, "at least one map required"))
    if not system.seeds:
        violations.append(Violation("NoSeeds", "system", -1, "at least one seed required"))
    if system.space == "ec" and system.curve is None:
        violations.append(Violation("MissingCurve", "system", -1, "ec system needs a curve"))

    for i, map_ in enumerate(system.maps):
        if map_.space != system.space:
            violations.append(
                Violation(
                    "SpaceMismatch",
                    "map",
                    i,
                    f"map {i} lives on {map_.space!r}, system on {system.space!r}",
                )
            )
            continue
        violations.extend(_validate_map(map_, i, system))

    for j, seed in enumerate(system.seeds):
        if space_of_point(seed) != system.space:
            violations.append(
                Violation(
                    "SpaceMismatch",
                    "seed",
                    j,
                    f"seed {j} lives in {space_of_point(seed)!r}",
                )
            )
            continue
        if isinstance(seed, ECPoint) and system.curve is not None:
            if not system.curve.contains(seed):
                violations.append(
                    Violation("SeedNotOnCurve", "seed", j, f"seed {seed} not on curve")
                )
    return violations


def _validate_map(map_: SimilarityMap, i: int, system: FractalSystem) -> list[Violation]:
    out: list[Violation] = []
    if isinstance(map_, IntAffineMap):
        if abs(map_.a) <= 1:
            out.append(
                Violation("NonExpanding", "map", i, f"|a|={abs(map_.a)} must exceed 1")
            )
    elif isinstance(map_, GaussAffineMap):
        if gauss_norm(map_.a) <= 1:
            out.append(
                Violation(
                    "NonExpanding", "map", i, f"Norm(a)={gauss_norm(map_.a)} must exceed 1"
                )
            )
    elif isinstance(map_, PolyTupleMap):
        n = map_.nvars()
        for comp in map_.components:
            if comp.nvars != n:
                out.append(
                    Violation("BadArity", "map", i, "component arity mismatch")
                )
                return out
        if any(c.total_degree() < 1 or not c for c in map_.components):
            out.append(
                Violation("DegreeTooLow", "map", i, "components need total degree >= 1")
            )
    elif isinstance(map_, ProjHomogMap):
        forms = map_.forms
        nvars = forms[0].nvars
        if any(f.nvars != nvars for f in forms) or len(forms) != nvars:
            out.append(Violation("BadArity", "map", i, "need n+1 forms in n+1 variables"))
            return out
        if any(not f.is_homogeneous() or not f for f in forms):
            out.append(Violation("NotHomogeneous", "map", i, "all forms must be homogeneous"))
            return out
        degrees = {f.total_degree() for f in forms}
        if len(degrees) != 1:
            out.append(Violation("MixedDegrees", "map", i, f"form degrees differ: {degrees}"))
            return out
        if map_.degree() < 2:
            # Projective similarity maps must have degree > 1, unlike the
            # affine case where degree 1 is allowed.
            out.append(
                Violation("DegreeTooLow", "map", i, "projective maps need degree >= 2")
            )
        if any(not f.has_integer_coefficients() for f in forms):
            out.append(
                Violation("NonIntegerForm", "map", i, "forms need integer coefficients")
            )
            return out
        zero = _common_zero_on_grid(forms)
        if zero is not None:
            out.append(
                Violation(
                    "CommonZeroOnGrid",
                    "map",
                    i,
                    f"forms vanish simultaneously at {zero}",
                )
            )
    elif isinstance(map_, EllTranslateMap):
        if map_.multiplier < 2:
            out.append(
                Violation("NonExpanding", "map", i, "multiplier must be at least 2")
            )
        if system.curve is not None and not system.curve.contains(map_.translation):
            out.append(
                Violation("TranslationNotOnCurve", "map", i, "translation not on curve")
            )
    else:
        out.append(Violation("UnknownMapKind", "map", i, f"{type(map_)!r}"))
    return out


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------


def _parse_int(value) -> int:
    if isinstance(value, bool):
        raise ConfigError(f"expected integer, got {value!r}")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        return int(value.strip())
    raise ConfigError(f"expected integer, got {value!r}")


def _parse_gauss(value) -> GaussPoint:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise ConfigError(f"Gaussian integer must be [re, im], got {value!r}")
    return GaussPoint(_parse_int(value[0]), _parse_int(value[1]))


def _point_from_json(value, space: str, curve: Optional[Curve]) -> SpacePoint:
    if space == "int":
        return IntPoint(_parse_int(value))
    if space == "gauss":
        return _parse_gauss(value)
    if space == "affq":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"affine point must be a list, got {value!r}")
        return AffPoint(tuple(parse_rational(v) for v in value))
    if space == "projq":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"projective point must be a list, got {value!r}")
        return canonicalize(ProjPoint(tuple(_parse_int(v) for v in value)))
    if space == "ec":
        if value == "inf":
            return INFINITY
        if not isinstance(value, (list, tuple)) or len(value) != 2:
            raise ConfigError(f"curve point must be [x, y] or \"inf\", got {value!r}")
        return ECPoint(parse_rational(value[0]), parse_rational(value[1]))
    raise ConfigError(f"unknown space {space!r}")


def _point_to_json(point: SpacePoint):
    if isinstance(point, IntPoint):
        return str(point.value)
    if isinstance(point, GaussPoint):
        return [str(point.re), str(point.im)]
    if isinstance(point, AffPoint):
        return [format_rational(c) for c in point.coords]
    if isinstance(point, ProjPoint):
        return [str(c) for c in point.coords]
    if isinstance(point, ECPoint):
        if point.is_infinity:
            return "inf"
        return [format_rational(point.x), format_rational(point.y)]
    raise ConfigError(f"unknown point type {type(point)!r}")


def _map_from_json(record: dict, space: str, curve: Optional[Curve]) -> SimilarityMap:
    if not isinstance(record, dict) or "kind" not in record:
        raise ConfigError(f"map record needs a 'kind': {record!r}")
    kind = record["kind"]
    if kind == "int_affine":
        return IntAffineMap(_parse_int(record["a"]), _parse_int(record["b"]))
    if kind == "gauss_affine":
        return GaussAffineMap(_parse_gauss(record["a"]), _parse_gauss(record["b"]))
    if kind == "poly_tuple":
        comps = record["components"]
        n = len(comps)
        return PolyTupleMap(tuple(Polynomial.from_records(c, n) for c in comps))
    if kind == "proj_homog":
        forms = record["forms"]
        n = len(forms)
        return ProjHomogMap(tuple(Polynomial.from_records(f, n) for f in forms))
    if kind == "ell_translate":
        if curve is None:
            raise ConfigError("ell_translate map requires the system to carry a curve")
        translation = _point_from_json(record.get("translate", "inf"), "ec", curve)
        return EllTranslateMap(_parse_int(record["n"]), translation, curve)
    raise ConfigError(f"unknown map kind {kind!r}")


def _map_to_json(map_: SimilarityMap) -> dict:
    if isinstance(map_, IntAffineMap):
        return {"kind": map_.kind, "a": str(map_.a), "b": str(map_.b)}
    if isinstance(map_, GaussAffineMap):
        return {
            "kind": map_.kind,
            "a": [str(map_.a.re), str(map_.a.im)],
            "b": [str(map_.b.re), str(map_.b.im)],
        }
    if isinstance(map_, PolyTupleMap):
        return {
            "kind": map_.kind,
            "components": [c.to_records() for c in map_.components],
        }
    if isinstance(map_, ProjHomogMap):
        return {"kind": map_.kind, "forms": [f.to_records() for f in map_.forms]}
    if isinstance(map_, EllTranslateMap):
        return {
            "kind": map_.kind,
            "n": str(map_.multiplier),
            "translate": _point_to_json(map_.translation),
        }
    raise ConfigError(f"unknown map type {type(map_)!r}")


def system_from_dict(data: dict) -> FractalSystem:
    try:
        space = data["space"]
        maps = data["maps"]
        seeds = data["seeds"]
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"system document needs space/maps/seeds: {exc}") from exc
    if space not in SPACES:
        raise ConfigError(f"unknown space {space!r}")
    curve = None
    if "curve" in data and data["curve"] is not None:
        c = data["curve"]
        curve = Curve(
            parse_rational(c.get("a1", 0)),
            parse_rational(c.get("a2", 0)),
            parse_rational(c.get("a3", 0)),
            parse_rational(c.get("a4", 0)),
            parse_rational(c.get("a6", 0)),
        )
    return FractalSystem(
        space=space,
        maps=tuple(_map_from_json(m, space, curve) for m in maps),
        seeds=tuple(_point_from_json(s, space, curve) for s in seeds),
        label=data.get("label", ""),
        curve=curve,
    )


def system_to_dict(system: FractalSystem) -> dict:
    data = {
        "space": system.space,
        "label": system.label,
        "maps": [_map_to_json(m) for m in system.maps],
        "seeds": [_point_to_json(s) for s in system.seeds],
    }
    if system.curve is not None:
        c = system.curve
        data["curve"] = {
            "a1": format_rational(c.a1),
            "a2": format_rational(c.a2),
            "a3": format_rational(c.a3),
            "a4": format_rational(c.a4),
            "a6": format_rational(c.a6),
        }
    return data


def load_system(path) -> FractalSystem:
    text = Path(path).read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return system_from_dict(data)


def save_system(system: FractalSystem, path) -> None:
    Path(path).write_text(json.dumps(system_to_dict(system), indent=2) + "\n")


# ---------------------------------------------------------------------------
# Point parsing for the command line
# ---------------------------------------------------------------------------


def parse_point(text: str, space: str, curve: Optional[Curve] = None) -> SpacePoint:
    """Parse a point literal: "7", "3+4i", "2:3", "1/2,3", "0,0" or "inf"."""
    text = text.strip()
    if space == "int":
        return IntPoint(int(text))
    if space == "gauss":
        return _parse_gauss_literal(text)
    if space == "projq":
        parts = text.strip("()").split(":")
        return canonicalize(ProjPoint(tuple(int(p) for p in parts)))
    if space == "affq":
        parts = text.strip("()").split(",")
        return AffPoint(tuple(parse_rational(p) for p in parts))
    if space == "ec":
        if text == "inf":
            return INFINITY
        parts = text.strip("()").split(",")
        if len(parts) != 2:
            raise ConfigError(f"curve point literal must be x,y or inf: {text!r}")
        return ECPoint(parse_rational(parts[0]), parse_rational(parts[1]))
    raise ConfigError(f"unknown space {space!r}")


def _parse_gauss_literal(text: str) -> GaussPoint:
    s = text.replace(" ", "")
    if s.endswith("i"):
        body = s[:-1]
        for cut in range(len(body) - 1, 0, -1):
            if body[cut] in "+-":
                re_part, im_part = body[:cut], body[cut:]
                if im_part in ("+", "-"):
                    im_part += "1"
                return GaussPoint(int(re_part), int(im_part))
        if body in ("", "+", "-"):
            body += "1"
        return GaussPoint(0, int(body))
    return GaussPoint(int(s), 0)
