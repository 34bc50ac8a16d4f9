"""Ambient spaces, points, similarity maps, and fractal systems.

A fractal system is a space together with a finite set of expanding maps
on it.  Five spaces are supported: the rational integers ("int"), the
Gaussian integers ("gauss"), affine rational tuples ("affq"), projective
rational points in canonical integer coordinates ("projq"), and points of
an elliptic curve over the rationals ("ec").  Everything is exact:
integers are arbitrary precision, rationals are Fractions, and projective
points are kept in a canonical form (coprime coordinates, first nonzero
one positive) so that set membership is well defined.

Each space is built once, as one ``Space`` entry of ``SPACES``.  Inside
the library a point travels as a light payload: an int, an (re, im) pair,
a canonical tuple of integers (on affq that of the point (1 : x) of P^n),
or the ECPoint itself.  The entry converts payloads to and from the
wrapper point classes, puts a payload in canonical form, gives its exact
size and the kind of that size, reads its JSON value and its command-line
literal and writes its JSON value, and streams the ambient window of the
exactness audit.  A window is a lazy iterable, made afresh on each call: ``range`` on
Z, rows of a disc on Z[i], and (0:1), (1:0), then (a:b), (a:-b) by rising
a and b on P^1.  The window at a smaller bound lists exactly the points of
that size, in the same relative order.  ``point_space`` is the one lookup
from a point's type to its entry.  Listings order points by size, then by
point, a payload by its ``sort_key`` (None where it sorts like its point).

Each map kind is likewise written once, as one class: ``image_fn`` and
``preimage_fn`` compile a map into closures on payloads, which ``apply``,
``preimage``, the breadth-first enumerator and membership descent all
share; ``weight``, ``problems`` and ``json_fields`` give its Moran weight,
the faults of its record and its JSON record; ``source_bound`` caps the size
of a point that the map can send into an ambient window.  A map expands when
its weight exceeds 1, one rule for every kind.  On every P^n ``problems`` is
exact: the forms share no zero exactly when their Macaulay system solves.
A polynomial tuple on A^n compiles to integer forms on P^n and shares that code.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, fields
from functools import cached_property
from fractions import Fraction
from operator import add, attrgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Optional, Sequence, Union, get_args

from .elliptic import Curve, ECPoint, INFINITY, ec_add, ec_mul
from .errors import (
    BoundTooLargeError,
    ConfigError,
    NonExpandingWeightError,
    PointNotOnCurveError,
    SpaceMismatchError,
    UnsupportedMapKindError,
    UnsupportedSpaceError,
    ZeroProjectivePointError,
)
from .polynomials import (
    Polynomial,
    format_rational,
    parse_rational,
)


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


def gauss_norm(a) -> int:
    return a[0] * a[0] + a[1] * a[1]


def as_bound(bound) -> int:
    """A size bound as an exact integer; nan and infinity are rejected."""
    try:
        return int(bound)
    except (ValueError, OverflowError, TypeError):
        raise ConfigError(f"bound must be a finite number, got {bound!r}") from None


# ---------------------------------------------------------------------------
# The five spaces
# ---------------------------------------------------------------------------


def _identity(payload):
    return payload


def _proj_canonical(coords: tuple) -> tuple:
    g = math.gcd(*(abs(c) for c in coords))
    if g == 0:
        raise ZeroProjectivePointError("all projective coordinates are zero")
    reduced = tuple(c // g for c in coords)
    lead = next(c for c in reduced if c)
    if lead < 0:
        reduced = tuple(-c for c in reduced)
    return reduced


def _max_abs(coords: tuple) -> int:
    return max(abs(c) for c in coords)


def _affine_tuple(coords: Sequence) -> tuple:
    """The rationals x (ints or Fractions) as the canonical tuple (den :
    num_1 : ...) of (1 : x): den, the lcm of their denominators, leads."""
    den = math.lcm(*(c.denominator for c in coords))
    return (den,) + tuple(c.numerator * (den // c.denominator) for c in coords)


def _affine_point(t: tuple) -> AffPoint:
    """The affine point x of the canonical tuple (den : num_1 : ...) of (1 : x)."""
    return AffPoint(tuple(Fraction(c, t[0]) for c in t[1:]))


def _ec_size(point: ECPoint) -> int:
    """max(|num x|, den x); the identity O counts as 0, the one point of size 0."""
    if point.is_infinity:
        return 0
    return max(abs(point.x.numerator), abs(point.x.denominator))


def _parse_int(value) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    try:
        return int(value.strip())
    except (AttributeError, ValueError):
        raise ConfigError(f"expected integer, got {value!r}") from None


def _json_list(value, length: Optional[int] = None) -> list:
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        raise ConfigError(f"expected a list of {length or 'n'} values, got {value!r}")
    return value


def _parse_gauss(value) -> GaussPoint:
    return GaussPoint(*(_parse_int(v) for v in _json_list(value, 2)))


def _gauss_to_json(p) -> list[str]:
    return [str(p[0]), str(p[1])]


def _parse_gauss_literal(text: str) -> tuple[int, int]:
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return _parse_int(s), 0
    body = s[:-1]
    # The imaginary part starts at the last sign that does not lead the body.
    cut = max(body.rfind("+"), body.rfind("-"), 0)
    re_part, im_part = body[:cut] or "0", body[cut:]
    if im_part in ("", "+", "-"):
        im_part += "1"
    return _parse_int(re_part), _parse_int(im_part)


def _ec_from_json(value) -> ECPoint:
    if value == "inf":
        return INFINITY
    x, y = _json_list(value, 2)
    return ECPoint(parse_rational(x), parse_rational(y))


def _ec_to_json(point: ECPoint):
    if point.is_infinity:
        return "inf"
    return [format_rational(point.x), format_rational(point.y)]


def _rationals(value) -> tuple:
    return _affine_tuple([parse_rational(c) for c in _json_list(value)])


def _ints(value) -> tuple:
    return tuple(_parse_int(c) for c in _json_list(value))


def _int_window(bound: int, seeds: list) -> range:
    return range(-bound, bound + 1)


def _gauss_window(bound: int, seeds: list) -> Iterator:
    r = math.isqrt(bound)
    for a in range(-r, r + 1):
        s = math.isqrt(bound - a * a)
        yield from ((a, b) for b in range(-s, s + 1))


def _proj_window(bound: int, seeds: list) -> Iterator:
    if len(seeds[0]) != 2:
        raise UnsupportedSpaceError("ambient window only for the projective line")
    yield from ((0, 1), (1, 0))
    for a in range(1, bound + 1):
        for b in range(1, bound + 1):
            if math.gcd(a, b) == 1:
                yield a, b
                yield a, -b


class Space(NamedTuple):
    """Everything the library knows about one ambient space."""

    name: str
    point: type  # the wrapper point class
    to_point: Callable  # payload -> point
    payload: Callable  # point -> payload
    canonical: Callable  # payload -> canonical payload
    size: Callable  # payload -> exact multiplicative size
    size_kind: str
    from_json: Callable  # JSON value -> payload
    to_json: Callable  # payload -> JSON value
    parse: Callable  # stripped command-line literal -> payload
    tuples: bool = False  # payloads are coordinate tuples of the maps' arity
    window: Optional[Callable] = None  # (bound, seed payloads) -> lazy ambient audit window
    sort_key: Optional[Callable] = None  # payload -> key in point order; None: the payload's own


SPACES = {
    s.name: s
    for s in (
        Space("int", IntPoint, IntPoint, attrgetter("value"), _identity, abs, "abs",
              _parse_int, str, _parse_int, window=_int_window),
        Space("gauss", GaussPoint, lambda p: GaussPoint(*p), tuple, _identity,
              gauss_norm, "norm", _parse_gauss, _gauss_to_json, _parse_gauss_literal,
              window=_gauss_window),
        Space("affq", AffPoint, _affine_point,
              lambda p: _affine_tuple([Fraction(c) for c in p.coords]), _proj_canonical,
              _max_abs, "height", _rationals,
              lambda t: [format_rational(Fraction(c, t[0])) for c in t[1:]],
              lambda t: _rationals(t.strip("()").split(",")), tuples=True,
              sort_key=_affine_point),
        Space("projq", ProjPoint, ProjPoint, attrgetter("coords"), _proj_canonical,
              _max_abs, "height", _ints, lambda coords: [str(c) for c in coords],
              lambda t: _ints(t.strip("()").split(":")), tuples=True, window=_proj_window),
        Space("ec", ECPoint, _identity, _identity, _identity, _ec_size, "height",
              _ec_from_json, _ec_to_json,
              lambda t: _ec_from_json(t if t == "inf" else t.strip("()").split(","))),
    )
}

_SPACE_OF_TYPE = {s.point: s for s in SPACES.values()}


def point_space(point: SpacePoint) -> Space:
    """The space entry of a point: the one lookup from point type to space."""
    try:
        return _SPACE_OF_TYPE[type(point)]
    except KeyError:
        raise SpaceMismatchError(f"unknown point type {type(point)!r}") from None


def canonicalize(point: SpacePoint) -> SpacePoint:
    """Canonical form; idempotent on every variant.

    Projective tuples are divided by the gcd of their coordinates and the
    first nonzero coordinate is made positive.  Affine points pass through
    the canonical tuple of the projective point (1 : x).
    """
    space = point_space(point)
    return space.to_point(space.canonical(space.payload(point)))


# ---------------------------------------------------------------------------
# Similarity maps
# ---------------------------------------------------------------------------


def _polynomials(value) -> tuple[Polynomial, ...]:
    records = _json_list(value)
    return tuple(Polynomial.from_records(r, len(records)) for r in records)


def _polynomial_records(polys) -> list:
    return [p.to_records() for p in polys]


class _MapKind:
    """Defaults shared by the map kinds below.

    ``json_fields`` lists the keys of a map's JSON record in constructor
    order, each with the parser and the formatter of its value.
    """

    json_fields: tuple = ()

    def degree(self) -> int:
        return 1

    def problems(self, curve) -> tuple:
        """(code, message) for each fault of the record; none by default."""
        return ()

    def _escape_height(self) -> Optional[int]:
        """A size above which the map raises sizes; None when none is known."""
        return None

    def preimage_fn(self) -> Callable:
        """A closure from a payload to the tuple of all its parents."""
        raise UnsupportedMapKindError(
            f"preimage not available for map kind {self.kind!r}"
        )

    def to_json(self) -> dict:
        values = (getattr(self, f.name) for f in fields(self))
        record = {key: fmt(v) for (key, _, fmt), v in zip(self.json_fields, values)}
        return {"kind": self.kind, **record}

    @classmethod
    def from_json(cls, record: dict, curve: Optional[Curve]):
        return cls(*(parse(record[key]) for key, parse, _ in cls.json_fields))


@dataclass(frozen=True)
class IntAffineMap(_MapKind):
    """x -> a*x + b on the integers."""

    a: int
    b: int

    kind = "int_affine"
    space = "int"
    json_fields = (("a", _parse_int, str), ("b", _parse_int, str))

    def image_fn(self) -> Callable:
        a, b = self.a, self.b
        return lambda v: a * v + b

    def preimage_fn(self) -> Callable:
        a, b = self.a, self.b

        def preimage(v):
            q, r = divmod(v - b, a)
            return () if r else (q,)

        return preimage

    def source_bound(self, bound: int) -> int:
        """|a*q + b| <= bound forces |a|*|q| <= bound + |b|."""
        return (bound + abs(self.b)) // abs(self.a)

    def weight(self, convention: str) -> float:
        return float(abs(self.a))


@dataclass(frozen=True)
class GaussAffineMap(_MapKind):
    """z -> a*z + b on the Gaussian integers."""

    a: GaussPoint
    b: GaussPoint

    kind = "gauss_affine"
    space = "gauss"
    json_fields = (("a", _parse_gauss, _gauss_to_json), ("b", _parse_gauss, _gauss_to_json))

    def image_fn(self) -> Callable:
        (ar, ai), (br, bi) = self.a, self.b

        def image(p):
            x, y = p
            return (ar * x - ai * y + br, ar * y + ai * x + bi)

        return image

    def preimage_fn(self) -> Callable:
        """Exact division by a in Z[i], no parent when it does not divide."""
        (ar, ai), (br, bi) = self.a, self.b
        n = gauss_norm(self.a)

        def preimage(p):
            x, y = p[0] - br, p[1] - bi
            re, im = x * ar + y * ai, y * ar - x * ai
            if not n or re % n or im % n:
                return ()
            return ((re // n, im // n),)

        return preimage

    def source_bound(self, bound: int) -> int:
        """N(a*z + b) <= bound forces N(a)*N(z) <= (sqrt(bound) + sqrt(N(b)))^2,
        which is bound + N(b) + 2*sqrt(bound*N(b)), the root rounded up."""
        nb = gauss_norm(self.b)
        return (bound + nb + 2 * math.isqrt(bound * nb) + 2) // gauss_norm(self.a)

    def weight(self, convention: str) -> float:
        norm = gauss_norm(self.a)
        return float(norm) if convention == "norm" else math.sqrt(norm)


@dataclass(frozen=True)
class PolyTupleMap(_MapKind):
    """Tuple of n polynomials in n variables acting on affine rational space."""

    components: tuple[Polynomial, ...]

    kind = "poly_tuple"
    space = "affq"
    json_fields = (("components", _polynomials, _polynomial_records),)

    def nvars(self) -> int:
        return len(self.components)

    def degree(self) -> int:
        return max(c.total_degree() for c in self.components)

    @cached_property  # ``apply`` compiles the map on every call
    def _forms(self) -> tuple[Polynomial, ...]:
        """The map on the chart x_0 != 0 of P^n as integer forms of its degree
        d: (L*x_0^d : L*x_0^d*F_1(x/x_0) : ...), L the lcm of the coefficient
        denominators.  L*x_0^d > 0 on payloads, so images stay in the chart."""
        d, n = self.degree(), self.nvars()
        lcm = math.lcm(*(c.denominator for f in self.components for _, c in f.terms))
        lead = Polynomial(n + 1, [((d,) + (0,) * n, lcm)])
        return (lead,) + tuple(
            Polynomial(n + 1, [((d - sum(e),) + e, lcm * c) for e, c in f.terms])
            for f in self.components
        )

    def image_fn(self) -> Callable:
        return _forms_image(self._forms)

    def _escape_height(self) -> Optional[int]:
        return ProjHomogMap(self._forms)._escape_height()

    def preimage_fn(self) -> Callable:
        """Coordinatewise roots when each component is a single monomial
        c*x_i^e in its own variable, x_i read as num_i / den; every sign of
        an even root gives a parent, and the all-positive parent comes last."""
        diag = []
        for i, comp in enumerate(self.components):
            exps, coeff = comp.terms[0] if comp.is_monomial() else ((), 0)
            if not exps or not exps[i] or any(e and j != i for j, e in enumerate(exps)):
                raise UnsupportedMapKindError(
                    "preimage supports only coordinatewise monomial tuples"
                )
            diag.append((coeff.denominator, coeff.numerator, exps[i]))

        def preimage(coords):
            if len(coords) != len(diag) + 1:
                return ()
            roots = []
            for (num_scale, den_scale, exponent), num in zip(diag, coords[1:]):
                value = Fraction(num * num_scale, coords[0] * den_scale)  # x_i / c
                roots.append(_rational_roots(value, exponent))
                if not roots[-1]:
                    return ()
            return tuple(map(_affine_tuple, itertools.product(*roots)))

        return preimage

    def weight(self, convention: str) -> float:
        degree = self.degree()
        if degree >= 2:
            return float(degree)
        if self.nvars() == 1:
            # Linear single-variable map c*x + d: weight is |c|, the
            # one-variable leading-coefficient rule.
            return abs(float(dict(self.components[0].terms).get((1,), 0)))
        raise NonExpandingWeightError(
            "no weight rule for multivariate affine-linear tuples"
        )

    def problems(self, curve):
        n = len(self.components)
        if not n or any(c.nvars != n for c in self.components):
            yield "BadArity", "need n components in n variables"
        elif any(c.total_degree() < 1 or not c for c in self.components):
            yield "DegreeTooLow", "components need total degree >= 1"


# The most entries, rows times columns, that a Macaulay matrix may have: every
# map on P^1 that the parser admits (degree 64, 128 x 128), and on P^2 up to
# degree 5, on P^3 up to degree 2.  Its elimination mod _MACAULAY_PRIME takes
# at most 0.3 s on a shared 2-vCPU VM, whatever the coefficients.  The exact
# elimination runs where that one fails and for escape heights; its cost grows
# like rows^2 * columns * coefficient bits, which _MACAULAY_EXACT_LIMIT caps
# at about 1 s.
_MACAULAY_LIMIT = 128 * 128
_MACAULAY_PRIME = 2**61 - 1
_MACAULAY_EXACT_LIMIT = 10**7


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of one degree in falling lexicographic order."""
    if nvars == 1:
        return [(degree,)]
    return [(degree - k,) + tail for k in range(degree + 1) for tail in _monomials(nvars - 1, k)]


def _macaulay_shape(forms: Sequence[Polynomial]) -> tuple[int, int, int]:
    """Rows, columns and entry bits of the matrix of ``_macaulay_solutions``."""
    nvars, d = len(forms), forms[0].total_degree()
    top = nvars * (d - 1) + 1
    bits = max(c.numerator.bit_length() for f in forms for _, c in f.terms)
    return math.comb(top + nvars - 1, top), nvars * math.comb(top - d + nvars - 1, top - d), bits


def _exact_solve_excess(forms: Sequence[Polynomial]) -> Optional[str]:
    """Why the exact ``_macaulay_solutions`` would pass its limit, or None."""
    nrows, ncols, bits = _macaulay_shape(forms)
    if nrows**2 * ncols * bits <= _MACAULAY_EXACT_LIMIT:
        return None
    return (f"its Macaulay matrix is {nrows} x {ncols} with {bits}-bit entries, "
            "past the limit for an exact solve")


def _macaulay_solutions(forms: Sequence[Polynomial], modulus: int = 0) -> Optional[list]:
    """Coefficients of U_ij of degree D - d with sum_j U_ij*F_j = x_i^D, one
    list per i (U_i0, U_i1, ..., each by ``_monomials``), for integer forms
    F_j of degree d >= 1 on P^n, D = (n+1)(d-1) + 1.  None exactly when the
    forms share a zero over the algebraic numbers, so that some x_i^D is not
    in the span (Macaulay); on P^1 this is the Sylvester matrix.

    With a prime modulus it eliminates the forms mod p and returns [] or
    None.  [] proves that they share no zero: one over the algebraic numbers
    makes the resultant 0, and so the forms mod p would share one too.  None
    may also mean that p divides the resultant."""
    nvars, d = len(forms), forms[0].total_degree()
    top = nvars * (d - 1) + 1
    row_of = {e: k for k, e in enumerate(_monomials(nvars, top))}
    shifts = _monomials(nvars, top - d)
    ncols = nvars * len(shifts)
    # Row k: the k-th monomial of degree D in each product u*F_j, then in each x_i^D.
    rows = [[0] * (ncols + nvars) for _ in row_of]
    for j, form in enumerate(forms):
        for s, u in enumerate(shifts, j * len(shifts)):
            for exps, c in form.terms:
                c = c.numerator % modulus if modulus else c.numerator
                rows[row_of[tuple(map(add, u, exps))]][s] = c
    for i in range(nvars):
        rows[row_of[(0,) * i + (top,) + (0,) * (nvars - 1 - i)]][ncols + i] = 1
    # Gauss-Jordan on integer rows, each divided by its content after every
    # step, with the smallest entry of a column as its pivot.  Mod p only the
    # rows below a pivot are reduced.  A free unknown is 0.
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        pivot = min((k for k in range(r, len(rows)) if rows[k][col]), default=None,
                    key=lambda k: abs(rows[k][col]))
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        p = rows[r][col]
        for k in range(r + 1 if modulus else 0, len(rows)):
            c = rows[k][col]
            if c and k != r:
                row = [p * v - c * t for v, t in zip(rows[k], rows[r])]
                if modulus:
                    rows[k] = [v % modulus for v in row]
                else:
                    content = math.gcd(*row) or 1  # the row may vanish
                    rows[k] = [v // content for v in row]
        pivots.append(col)
    if any(any(row[ncols:]) for row in rows[len(pivots):]):
        return None
    solutions = [] if modulus else [[0] * ncols for _ in forms]
    for row, col in zip(rows, pivots):
        for i, solution in enumerate(solutions):
            solution[col] = Fraction(row[ncols + i], row[col])
    return solutions


def _height_loss(forms: Sequence[Polynomial]) -> Optional[int]:
    """K*D' in H(f(q)) >= H(q)^d / (K*D'), which holds on every P^n for the
    U_ij of ``_macaulay_solutions``; None when the forms share a zero.  K is
    the largest l1 norm sum_j ||U_ij|| over i, so max_j |F_j(q)| >= H(q)^d / K;
    D' is the lcm of their denominators, so for a primitive q the gcd of the
    F_j(q) divides D' (Call-Silverman)."""
    solutions = _macaulay_solutions(forms)
    if solutions is None:
        return None
    lcm = math.lcm(*(c.denominator for solution in solutions for c in solution))
    return max(sum(abs(c.numerator) * (lcm // c.denominator) for c in solution)
               for solution in solutions)


def _forms_image(forms: Sequence[Polynomial]) -> Callable:
    """Integer forms as an image closure on canonical integer tuples."""
    return lambda coords: _proj_canonical(tuple(f.evaluate_int(coords) for f in forms))


@dataclass(frozen=True)
class ProjHomogMap(_MapKind):
    """n+1 homogeneous integer forms of a common degree acting on P^n."""

    forms: tuple[Polynomial, ...]

    kind = "proj_homog"
    space = "projq"
    json_fields = (("forms", _polynomials, _polynomial_records),)

    def nvars(self) -> int:
        return len(self.forms)

    def degree(self) -> int:
        return self.forms[0].total_degree()

    def image_fn(self) -> Callable:
        return _forms_image(self.forms)

    def weight(self, convention: str) -> float:
        return float(self.degree())

    def source_bound(self, bound: int) -> int:
        """Northcott on every P^n: H(f(q)) <= bound forces H(q) <=
        (K*D'*bound)^(1/d), with K*D' from ``_height_loss``.  Defined for maps
        that pass validation, and BoundTooLargeError past the exact solve's limit."""
        excess = _exact_solve_excess(self.forms)
        if excess:
            raise BoundTooLargeError(excess)
        return _floor_root(_height_loss(self.forms) * bound, self.degree())

    def _escape_height(self) -> Optional[int]:
        """C = ceil((K*D')^(1/(d-1))): H(q) > C gives H(f(q)) >= H(q)^d / (K*D')
        > H(q).  None for degree 1, forms that share a zero, or an exact solve
        past its limit."""
        d = self.degree()
        if d < 2 or _exact_solve_excess(self.forms):
            return None
        loss = _height_loss(self.forms)
        return None if loss is None else _floor_root(loss - 1, d - 1) + 1

    def problems(self, curve):
        forms = self.forms
        degrees = {f.total_degree() for f in forms}
        if not forms or any(f.nvars != len(forms) for f in forms):
            yield "BadArity", "need n+1 forms in n+1 variables"
        elif any(not f.is_homogeneous() or not f for f in forms):
            yield "NotHomogeneous", "all forms must be homogeneous"
        elif len(degrees) != 1:
            yield "MixedDegrees", f"form degrees differ: {degrees}"
        elif any(not f.has_integer_coefficients() for f in forms):
            yield "NonIntegerForm", "forms need integer coefficients"
        elif degrees != {0}:  # nonzero constants share no zero
            nrows, ncols, _ = _macaulay_shape(forms)
            if nrows * ncols > _MACAULAY_LIMIT:
                yield "BoundTooLarge", (f"its Macaulay matrix is {nrows} x {ncols}, "
                                        f"past the limit of {_MACAULAY_LIMIT} entries")
            elif _macaulay_solutions(forms, _MACAULAY_PRIME) is not None:
                pass  # no common zero mod p, so none over the algebraic numbers
            elif excess := _exact_solve_excess(forms):
                yield "BoundTooLarge", excess
            elif _macaulay_solutions(forms) is None:
                yield "CommonZero", "the forms share a zero over the algebraic numbers"


@dataclass(frozen=True)
class EllTranslateMap(_MapKind):
    """P -> [n]P + T on an elliptic curve."""

    multiplier: int
    translation: ECPoint
    curve: Curve

    kind = "ell_translate"
    space = "ec"
    json_fields = (("n", _parse_int, str), ("translate", _ec_from_json, _ec_to_json))

    def degree(self) -> int:
        return self.multiplier**2  # [n] has degree n^2: heights grow by n^2

    def image_fn(self) -> Callable:
        n, translation, curve = self.multiplier, self.translation, self.curve
        return lambda point: ec_add(curve, ec_mul(curve, n, point), translation)

    def weight(self, convention: str) -> float:
        """n^2, or |n| under the abs convention, as for Gaussian maps."""
        return float(self.degree() if convention == "norm" else abs(self.multiplier))

    def problems(self, curve):
        if curve is not None and not curve.contains(self.translation):
            yield "TranslationNotOnCurve", "translation not on curve"

    @classmethod
    def from_json(cls, record: dict, curve: Optional[Curve]):
        if curve is None:
            raise ConfigError("ell_translate map requires the system to carry a curve")
        translation = _ec_from_json(record.get("translate", "inf"))
        return cls(_parse_int(record["n"]), translation, curve)


SimilarityMap = Union[
    IntAffineMap, GaussAffineMap, PolyTupleMap, ProjHomogMap, EllTranslateMap
]

MAP_KINDS = {cls.kind: cls for cls in get_args(SimilarityMap)}


# ---------------------------------------------------------------------------
# Apply / preimage
# ---------------------------------------------------------------------------


def _map_space(map_: SimilarityMap, point: SpacePoint) -> Space:
    space = point_space(point)
    if map_.space != space.name:
        raise SpaceMismatchError(
            f"map on {map_.space!r} applied to point in {space.name!r}"
        )
    return space


def apply(map_: SimilarityMap, point: SpacePoint) -> SpacePoint:
    """Exact image of a point, canonicalized."""
    space = _map_space(map_, point)
    return space.to_point(map_.image_fn()(space.payload(point)))


def _rational_roots(value: Fraction, degree: int) -> tuple:
    """Every rational degree-th root of a rational, the positive one last."""
    if degree == 1:
        return (value,)
    num, den = abs(value.numerator), value.denominator
    top, bottom = _floor_root(num, degree), _floor_root(den, degree)
    if top**degree != num or bottom**degree != den or value < 0 and degree % 2 == 0:
        return ()
    root = Fraction(top, bottom)
    if degree % 2:
        return (-root,) if value < 0 else (root,)
    return (-root, root) if root else (root,)


def _floor_root(n: int, k: int) -> int:
    """The integer part of the k-th root of a nonnegative integer."""
    if n in (0, 1):
        return n
    if k == 2:
        return math.isqrt(n)
    # Integer Newton iteration seeded from the bit length; floats would
    # overflow on big operands.
    x = 1 << ((n.bit_length() + k - 1) // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def preimage(map_: SimilarityMap, point: SpacePoint) -> Optional[SpacePoint]:
    """The lattice-exact preimage when the map kind supports one, else None.

    Affine integer and Gaussian maps invert by exact division; diagonal
    monomial tuples invert coordinatewise (positive root for even degrees).
    Other kinds raise UnsupportedMapKind: membership for them falls back to
    enumeration.
    """
    space = _map_space(map_, point)
    parents = map_.preimage_fn()(space.payload(point))
    return space.to_point(parents[-1]) if parents else None


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


def validate_system(system: FractalSystem) -> list[Violation]:
    """Every violated invariant, with the offending map or seed index.

    An empty list means the system is valid.  Violations are data, not
    exceptions: auditing tools want to see all of them at once.
    """
    space = SPACES.get(system.space)
    if space is None:
        return [Violation("UnknownSpace", "system", -1, f"unknown space {system.space!r}")]
    violations: list[Violation] = []
    if not system.maps:
        violations.append(Violation("NoMaps", "system", -1, "at least one map required"))
    if not system.seeds:
        violations.append(Violation("NoSeeds", "system", -1, "at least one seed required"))
    if system.space == "ec" and system.curve is None:
        violations.append(Violation("MissingCurve", "system", -1, "ec system needs a curve"))

    maps = [m for m in system.maps if m.space == system.space]
    for i, map_ in enumerate(system.maps):
        if map_.space != system.space:
            message = f"map {i} lives on {map_.space!r}, system on {system.space!r}"
            violations.append(Violation("SpaceMismatch", "map", i, message))
            continue
        faults = list(map_.problems(system.curve))
        if not faults:
            try:
                weight = map_.weight("norm")  # the one expansion rule: dim's weight > 1
                if not weight > 1:
                    faults.append(("NonExpanding", f"Moran weight {weight:g} must exceed 1"))
            except NonExpandingWeightError as exc:
                faults.append(("NonExpanding", str(exc)))
            except OverflowError:
                pass  # a weight past the float range expands
        violations.extend(Violation(code, "map", i, message) for code, message in faults)

    for j, seed in enumerate(system.seeds):
        seed_space = point_space(seed)
        if seed_space is not space:
            message = f"seed {j} lives in {seed_space.name!r}"
            violations.append(Violation("SpaceMismatch", "seed", j, message))
        elif space.tuples and any(m.nvars() != len(seed.coords) for m in maps):
            message = f"seed {j} has {len(seed.coords)} coordinates, unlike the maps"
            violations.append(Violation("BadArity", "seed", j, message))
        elif system.space == "ec" and system.curve and not system.curve.contains(seed):
            violations.append(Violation("SeedNotOnCurve", "seed", j, f"seed {seed} not on curve"))
    return violations


def require_valid(system: FractalSystem) -> FractalSystem:
    """The system itself when it is valid, else ConfigError naming every
    violation with its code and its map or seed index."""
    violations = validate_system(system)
    if violations:
        lines = "; ".join(f"{v.code} at {v.where} {v.index}: {v.message}" for v in violations)
        raise ConfigError(f"system fails validation: {lines}")
    return system


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_CURVE_KEYS = ("a1", "a2", "a3", "a4", "a6")


def _map_from_json(record: dict, curve: Optional[Curve]) -> SimilarityMap:
    kind = record.get("kind")
    if kind not in MAP_KINDS:
        raise ConfigError(f"unknown map kind {kind!r} in {record!r}")
    return MAP_KINDS[kind].from_json(record, curve)


def _seed_from_json(space: Space, index: int, value) -> SpacePoint:
    try:
        return space.to_point(space.canonical(space.from_json(value)))
    except ZeroProjectivePointError as exc:
        raise ConfigError(f"seed {index}: {exc}") from None


def system_from_dict(data: dict) -> FractalSystem:
    """Build a system from its JSON document; any malformed part of the
    document raises ConfigError."""
    try:
        space = SPACES.get(data["space"])
        if space is None:
            raise ConfigError(f"unknown space {data['space']!r}")
        curve = None
        if data.get("curve") is not None:
            curve = Curve(*(parse_rational(data["curve"].get(k, 0)) for k in _CURVE_KEYS))
        return FractalSystem(
            space=space.name,
            maps=tuple(_map_from_json(m, curve) for m in data["maps"]),
            seeds=tuple(_seed_from_json(space, j, s) for j, s in enumerate(data["seeds"])),
            label=data.get("label", ""),
            curve=curve,
        )
    except (KeyError, TypeError, ValueError, AttributeError, IndexError,
            PointNotOnCurveError) as exc:  # the last from a singular curve
        raise ConfigError(f"malformed system document: {exc!r}") from None


def system_to_dict(system: FractalSystem) -> dict:
    space = SPACES[system.space]
    data = {
        "space": system.space,
        "label": system.label,
        "maps": [m.to_json() for m in system.maps],
        "seeds": [space.to_json(space.payload(s)) for s in system.seeds],
    }
    if system.curve is not None:
        data["curve"] = {k: format_rational(getattr(system.curve, k)) for k in _CURVE_KEYS}
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
    if space not in SPACES:
        raise ConfigError(f"unknown space {space!r}")
    entry = SPACES[space]
    if not isinstance(text, str):  # argparse gives [] for "member SYSTEM -- --"
        raise ConfigError(f"cannot read {text!r} as a point of {space!r}")
    try:
        payload = entry.canonical(entry.parse(text.strip()))
    except (ConfigError, ZeroProjectivePointError) as exc:
        raise ConfigError(f"cannot read {text!r} as a point of {space!r}: {exc}") from None
    point = entry.to_point(payload)
    if space == "ec" and curve is not None and not curve.contains(point):
        raise ConfigError(f"{text!r} is not a point of {curve}")
    return point
