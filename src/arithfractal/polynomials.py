"""Sparse multivariate polynomials with rational coefficients.

Used for the polynomial-tuple maps on affine space, the homogeneous forms
of projective maps, and the probe curves of the intersection experiments.
Arithmetic is exact throughout (Fraction coefficients, integer exponents).
"""

from __future__ import annotations

import ast
from fractions import Fraction
from typing import Iterable, Sequence

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


class Polynomial:
    """An immutable polynomial in ``nvars`` variables over the rationals.

    Terms are stored as a sorted tuple of (exponent tuple, coefficient)
    pairs with zero coefficients dropped, so equal polynomials compare and
    hash equal.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Iterable[tuple[Exponents, Fraction]]):
        merged: dict[Exponents, Fraction] = {}
        for exps, coeff in terms:
            exps = tuple(int(e) for e in exps)
            if len(exps) != nvars:
                raise ConfigError(
                    f"monomial exponent tuple {exps} does not match nvars={nvars}"
                )
            if any(e < 0 for e in exps):
                raise ConfigError(f"negative exponent in monomial {exps}")
            coeff = Fraction(coeff)
            if coeff:
                merged[exps] = merged.get(exps, Fraction(0)) + coeff
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(
            self,
            "terms",
            tuple(sorted((e, c) for e, c in merged.items() if c)),
        )

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Polynomial is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, self.terms))

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

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

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


_ALLOWED_NODES = (
    ast.Expression,
    ast.BinOp,
    ast.UnaryOp,
    ast.Add,
    ast.Sub,
    ast.Mult,
    ast.Pow,
    ast.Div,
    ast.USub,
    ast.UAdd,
    ast.Constant,
    ast.Name,
    ast.Load,
)


def parse_polynomial(text: str, nvars: int) -> Polynomial:
    """Parse an expression such as ``"x1 + x2 - 6"`` or ``"2*x1^2 - x2/3"``.

    Variables are x1..xn; ^ and ** both denote powers.  Division is only
    allowed by integer constants.
    """
    source = text.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse polynomial {text!r}: {exc}") from exc

    zero = Polynomial(nvars, [])
    one_exps = [
        tuple(1 if j == i else 0 for j in range(nvars)) for i in range(nvars)
    ]

    def build(node) -> Polynomial:
        if not isinstance(node, _ALLOWED_NODES):
            raise ConfigError(f"unsupported syntax in polynomial {text!r}")
        if isinstance(node, ast.Expression):
            return build(node.body)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"bad constant {node.value!r} in {text!r}")
            return Polynomial(nvars, [((0,) * nvars, Fraction(node.value))])
        if isinstance(node, ast.Name):
            name = node.id
            if not (name.startswith("x") and name[1:].isdigit()):
                raise ConfigError(f"unknown variable {name!r}; use x1..x{nvars}")
            idx = int(name[1:]) - 1
            if not 0 <= idx < nvars:
                raise ConfigError(f"variable {name!r} out of range for n={nvars}")
            return Polynomial(nvars, [(one_exps[idx], Fraction(1))])
        if isinstance(node, ast.UnaryOp):
            inner = build(node.operand)
            if isinstance(node.op, ast.USub):
                return Polynomial(
                    nvars, [(e, -c) for e, c in inner.terms]
                )
            return inner
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                base = build(node.left)
                if not isinstance(node.right, ast.Constant) or not isinstance(
                    node.right.value, int
                ):
                    raise ConfigError(f"exponent must be a literal integer in {text!r}")
                result = Polynomial(nvars, [((0,) * nvars, Fraction(1))])
                for _ in range(node.right.value):
                    result = _multiply(result, base)
                return result
            left, right = build(node.left), build(node.right)
            if isinstance(node.op, ast.Add):
                return Polynomial(nvars, left.terms + right.terms)
            if isinstance(node.op, ast.Sub):
                return Polynomial(
                    nvars, left.terms + tuple((e, -c) for e, c in right.terms)
                )
            if isinstance(node.op, ast.Mult):
                return _multiply(left, right)
            if isinstance(node.op, ast.Div):
                if right.total_degree() != 0 or not right.terms:
                    raise ConfigError("division only by nonzero constants")
                scale = right.terms[0][1]
                return Polynomial(nvars, [(e, c / scale) for e, c in left.terms])
        raise ConfigError(f"unsupported syntax in polynomial {text!r}")

    result = build(tree)
    return result if result.terms else zero


def _multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    terms = []
    for e1, c1 in p.terms:
        for e2, c2 in q.terms:
            terms.append((tuple(a + b for a, b in zip(e1, e2)), c1 * c2))
    return Polynomial(p.nvars, terms)
