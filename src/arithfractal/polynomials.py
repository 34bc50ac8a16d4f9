"""Sparse multivariate polynomials with rational coefficients.

Used for the polynomial-tuple maps on affine space, the homogeneous forms
of projective maps, and the probe curves of the intersection experiments.
Arithmetic is exact throughout (Fraction coefficients, integer exponents).
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import repeat
from typing import Sequence

from .errors import ConfigError

Exponents = tuple[int, ...]


def parse_rational(text) -> Fraction:
    """Parse "p/q", a decimal integer string, or a plain int into a Fraction."""
    if isinstance(text, (int, Fraction)):
        return Fraction(text)
    try:
        return Fraction(text.strip())
    except (AttributeError, ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse rational from {text!r}") from None


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Polynomial:
    """An immutable polynomial in ``nvars`` variables over the rationals.

    Terms are a sorted tuple of (exponent tuple, coefficient) pairs with
    equal monomials merged and zero coefficients dropped, so equal
    polynomials compare and hash equal.  ``+``, ``-`` and ``*`` are exact.
    """

    __slots__ = ("nvars", "terms")
    nvars: int
    terms: tuple[tuple[Exponents, Fraction], ...]

    def __post_init__(self):
        merged: dict[Exponents, Fraction] = {}
        for exps, coeff in self.terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.nvars:
                raise ConfigError(
                    f"monomial exponent tuple {exps} does not match nvars={self.nvars}"
                )
            if any(e < 0 for e in exps):
                raise ConfigError(f"negative exponent in monomial {exps}")
            coeff = Fraction(coeff)
            if coeff:
                merged[exps] = merged.get(exps, Fraction(0)) + coeff
        object.__setattr__(self, "terms", tuple(sorted((e, c) for e, c in merged.items() if c)))

    def __add__(self, other: Polynomial) -> Polynomial:
        return Polynomial(self.nvars, self.terms + other.terms)

    def __neg__(self) -> Polynomial:
        return Polynomial(self.nvars, [(e, -c) for e, c in self.terms])

    def __pos__(self) -> Polynomial:
        return self

    def __sub__(self, other: Polynomial) -> Polynomial:
        return self + -other

    def __mul__(self, other: Polynomial) -> Polynomial:
        return Polynomial(
            self.nvars,
            [
                (tuple(map(operator.add, e1, e2)), c1 * c2)
                for e1, c1 in self.terms
                for e2, c2 in other.terms
            ],
        )

    def __bool__(self):
        return bool(self.terms)

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ConfigError(
                f"point has {len(point)} coordinates, polynomial expects {self.nvars}"
            )
        total = Fraction(0)
        for exps, coeff in self.terms:
            value = coeff
            for x, e in zip(point, exps):
                if e:
                    value *= Fraction(x) ** e
            total += value
        return total

    def evaluate_int(self, point: Sequence[int]) -> int:
        """Evaluate at integer coordinates; requires integer coefficients."""
        total = 0
        for exps, coeff in self.terms:
            if coeff.denominator != 1:
                raise ConfigError("evaluate_int needs integer coefficients")
            value = coeff.numerator
            for x, e in zip(point, exps):
                if e:
                    value *= x**e
            total += value
        return total

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(exps) for exps, _ in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(exps) for exps, _ in self.terms}
        return len(degrees) <= 1

    def has_integer_coefficients(self) -> bool:
        return all(c.denominator == 1 for _, c in self.terms)

    def to_records(self) -> list[dict]:
        return [
            {"coeff": format_rational(c), "exponents": list(e)} for e, c in self.terms
        ]

    @classmethod
    def from_records(cls, records: Sequence[dict], nvars: int) -> "Polynomial":
        terms = []
        for rec in records:
            try:
                terms.append((tuple(rec["exponents"]), parse_rational(rec["coeff"])))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"bad monomial record {rec!r}") from exc
        return cls(nvars, terms)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exps, coeff in self.terms:
            factors = [format_rational(coeff)] if coeff != 1 or not any(exps) else []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"x{i + 1}")
                elif e > 1:
                    factors.append(f"x{i + 1}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"Polynomial({self.nvars}, {str(self)!r})"


_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
# The largest exponent and total degree a parsed polynomial may have; the
# fold multiplies once per unit of exponent, so this also bounds its work.
_MAX_DEGREE = 64
# The largest bit length a product or power may give a coefficient's
# numerator or denominator, estimated from its factors before multiplying.
_MAX_COEFFICIENT_BITS = 4096


def _coefficient_bits(p: Polynomial) -> int:
    return max(
        (max(c.numerator.bit_length(), c.denominator.bit_length()) for _, c in p.terms),
        default=0,
    )


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse an expression such as ``"x1 + x2 - 6"`` or ``"2*x1^2 - x2/3"``.

    Accepts finite int and float literals, x1..xn, unary + -, binary + - *,
    ^ or ** to a literal integer from 0 to 64, and / by a nonzero constant
    expression, up to total degree 64.  A product or power whose
    coefficients would exceed 4096 bits is refused before it is formed.
    Anything else raises ConfigError.
    """

    def constant(value) -> Polynomial:
        return Polynomial(nvars, [((0,) * nvars, value)])

    def capped(degree: int, bits: int, node) -> None:
        if degree > _MAX_DEGREE:
            limit = f"the exponent and degree limit {_MAX_DEGREE}"
        elif bits > _MAX_COEFFICIENT_BITS:
            limit = f"the coefficient limit of {_MAX_COEFFICIENT_BITS} bits"
        else:
            return
        raise ConfigError(
            f"{ast.get_source_segment(source, node)!r} in polynomial {text!r} exceeds {limit}"
        )

    variables = {f"x{i + 1}": (0,) * i + (1,) + (0,) * (nvars - i - 1) for i in range(nvars)}

    def fold(node) -> Polynomial:
        match node:
            case ast.BinOp(left, op, right) if type(op) in _BINARY:
                return _BINARY[type(op)](fold(left), fold(right))
            case ast.UnaryOp(op, operand) if type(op) in _UNARY:
                return _UNARY[type(op)](fold(operand))
            case ast.BinOp(left, ast.Mult(), right):
                a, b = fold(left), fold(right)
                capped(
                    a.total_degree() + b.total_degree(),
                    _coefficient_bits(a) + _coefficient_bits(b),
                    node,
                )
                return a * b
            case ast.BinOp(base, ast.Pow(), ast.Constant(int(e))) if type(e) is int and e >= 0:
                factor = fold(base)
                capped(
                    max(e, e * factor.total_degree()), e * _coefficient_bits(factor), node
                )
                return reduce(operator.mul, repeat(factor, e), constant(1))
            case ast.BinOp(left, ast.Div(), right) if (d := fold(right)) and d.total_degree() == 0:
                return fold(left) * constant(1 / d.terms[0][1])
            case ast.Constant(int(v) | float(v)) if type(v) is not bool and abs(v) < math.inf:
                return constant(Fraction(v))
            case ast.Name(name) if name in variables:
                return Polynomial(nvars, [(variables[name], 1)])
        raise ConfigError(
            f"cannot use {ast.get_source_segment(source, node)!r} "
            f"in polynomial {text!r} (x1..x{nvars})"
        )

    source = text.replace("^", "**")
    try:
        return fold(ast.parse(source, mode="eval").body)
    except (SyntaxError, ValueError) as exc:
        raise ConfigError(f"cannot parse polynomial {text!r}: {exc}") from None
    except (RecursionError, MemoryError):  # how ast.parse and the fold report deep nesting
        raise ConfigError(f"polynomial {text!r} is nested too deeply or too large") from None
