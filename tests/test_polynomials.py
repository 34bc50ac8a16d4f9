import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfractal.errors import ConfigError
from arithfractal.polynomials import Polynomial, parse_polynomial, parse_rational


def test_parse_rational_forms():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational(5) == Fraction(5)
    with pytest.raises(ConfigError):
        parse_rational([1, 2])


def test_terms_merge_and_drop_zero():
    p = Polynomial(2, [((1, 0), Fraction(2)), ((1, 0), Fraction(-2)), ((0, 1), Fraction(3))])
    assert p.terms == (((0, 1), Fraction(3)),)


def test_evaluate_exact():
    # 2*x1^2 + x2/3 at (3/2, 6)
    p = Polynomial(2, [((2, 0), Fraction(2)), ((0, 1), Fraction(1, 3))])
    assert p.evaluate((Fraction(3, 2), Fraction(6))) == Fraction(9, 2) + 2


def test_degree_and_homogeneity():
    p = parse_polynomial("x1^2 + 2*x1*x2", 2)
    assert p.total_degree() == 2
    assert p.is_homogeneous()
    q = parse_polynomial("x1^2 + x2", 2)
    assert not q.is_homogeneous()


def test_parse_matches_manual_construction():
    parsed = parse_polynomial("x1 + x2 - 6", 2)
    manual = Polynomial(
        2,
        [((1, 0), Fraction(1)), ((0, 1), Fraction(1)), ((0, 0), Fraction(-6))],
    )
    assert parsed == manual


def test_parse_powers_and_caret():
    assert parse_polynomial("2*x1^2", 2) == parse_polynomial("2*x1**2", 2)
    grid = [(Fraction(a), Fraction(b)) for a in range(-3, 4) for b in range(-3, 4)]
    p = parse_polynomial("(x1 - x2)^2", 2)
    assert p == parse_polynomial("x1^2 - 2*x1*x2 + x2^2", 2)
    for point in grid:
        assert p.evaluate(point) == (point[0] - point[1]) ** 2


def test_parse_rejects_junk():
    with pytest.raises(ConfigError):
        parse_polynomial("__import__('os')", 1)
    with pytest.raises(ConfigError):
        parse_polynomial("x3", 2)
    with pytest.raises(ConfigError):
        parse_polynomial("x1 / x2", 2)


def test_records_round_trip():
    p = parse_polynomial("x1^2/2 - 3*x2", 2)
    again = Polynomial.from_records(p.to_records(), 2)
    assert again == p


# --- the accepted grammar, against Python's own Fraction arithmetic ----------

_LEAVES = st.one_of(
    st.sampled_from(["x1", "x2"]),
    st.integers(0, 30).map(str),
    st.sampled_from(["0.5", "1.25", "0.1", "3.0"]),
)
_DIVISORS = st.sampled_from(["3", "0.25", "(2 - 7)", "(x1 - x1 + 2)", "(2*3)"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*"]), children).map(
            lambda t: f"({t[0]}) {t[1]} ({t[2]})"
        ),
        st.tuples(st.sampled_from(["-", "+"]), children).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(children, st.sampled_from(["^", "**"]), st.integers(0, 3)).map(
            lambda t: f"({t[0]}){t[1]}{t[2]}"
        ),
        st.tuples(children, _DIVISORS).map(lambda t: f"({t[0]}) / {t[1]}"),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _compound, max_leaves=10)
_POINTS = st.tuples(*[st.fractions(-5, 5, max_denominator=9)] * 2)


def _python_value(text, point):
    """``text`` evaluated by Python with every literal read as Fraction(literal)."""
    source = re.sub(r"\b\d+(?:\.\d+)?\b", lambda m: f"Fraction({m.group()})", text)
    names = {"Fraction": Fraction, "x1": point[0], "x2": point[1], "__builtins__": {}}
    return eval(source.replace("^", "**"), names)


@settings(max_examples=200, deadline=None)
@given(_EXPRESSIONS, _POINTS)
def test_parse_agrees_with_fraction_evaluation(text, point):
    assert parse_polynomial(text, 2).evaluate(point) == _python_value(text, point)


@settings(max_examples=150, deadline=None)
@given(_EXPRESSIONS, _EXPRESSIONS, _EXPRESSIONS, _POINTS)
def test_operator_laws(a, b, c, point):
    p, q, r = (parse_polynomial(t, 2) for t in (a, b, c))
    at_p, at_q = p.evaluate(point), q.evaluate(point)
    assert (p + q).evaluate(point) == at_p + at_q
    assert (p - q).evaluate(point) == at_p - at_q
    assert (p * q).evaluate(point) == at_p * at_q
    assert (-p).evaluate(point) == -at_p
    assert +p == p and -(-p) == p
    assert p + q == q + p and p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert not p - p and p - p == Polynomial(2, [])
    assert hash(p * q) == hash(q * p)


# --- everything outside the grammar is a ConfigError --------------------------

_REJECTED = [
    pytest.param("__import__('os')", id="call"),
    pytest.param("x3", id="x3-out-of-range"),
    pytest.param("x1 / x2", id="divide-by-variable"),
    pytest.param("x1 / (x2 - x2)", id="divide-by-zero"),
    pytest.param("not x1", id="not"),
    pytest.param("~x1", id="invert"),
    pytest.param("x1 + True", id="bool"),
    pytest.param("x1**True", id="bool-exponent"),
    pytest.param("x1**-1", id="negative-exponent"),
    pytest.param("x1**2.0", id="float-exponent"),
    pytest.param("x1**(1 + 1)", id="exponent-not-literal"),
    pytest.param("1e400*x1", id="float-overflow"),
    pytest.param("1j*x1", id="complex"),
    pytest.param("x1 // 2", id="floor-division"),
    pytest.param("x1 % 2", id="modulo"),
    pytest.param("x1 < x2", id="comparison"),
    pytest.param("x01", id="padded-variable"),
    pytest.param("y", id="unknown-name"),
    pytest.param("x1 +", id="syntax"),
    pytest.param("", id="empty"),
    pytest.param("+".join(["x1"] * 1200), id="sum-of-1200-terms"),
    pytest.param("-" * 7000 + "x1", id="7000-unary-minus"),
    pytest.param("x1" + "**2" * 3000, id="3000-powers"),
    pytest.param("x1**99999999", id="huge-exponent"),
    pytest.param("2**99999999", id="huge-exponent-of-a-constant"),
    pytest.param("(x1+x2)**3000", id="huge-power-of-a-sum"),
    pytest.param("x1**65", id="exponent-above-64"),
    pytest.param("(x1*x2)**33", id="power-above-degree-64"),
    pytest.param("x1**40 * x2**25", id="product-above-degree-64"),
    pytest.param("(((2**64)**64)**64)**64", id="coefficient-above-4096-bits"),
]


@pytest.mark.parametrize("text", _REJECTED)
def test_parse_rejects_outside_grammar(text):
    with pytest.raises(ConfigError):
        parse_polynomial(text, 2)


def test_degree_limit_is_inclusive():
    assert parse_polynomial("x1**64", 2).total_degree() == 64
    assert parse_polynomial("(x1^8)^8", 2) == parse_polynomial("x1^64", 2)
    assert parse_polynomial("x1**40 * x2**24", 2).total_degree() == 64
    assert len(parse_polynomial("(x1+x2)**64", 2).terms) == 65


def test_coefficient_limit_checked_before_multiplying():
    # 63 factors of a 65-bit constant are estimated at 4,095 bits, 64 at 4,160.
    assert parse_polynomial("(2**64)**63", 1) == parse_polynomial(str(2**4032), 1)
    assert parse_polynomial("(0.1*x1)**64", 1).total_degree() == 64
    limit = r"'\(2\*\*64\)\*\*64' in polynomial .* exceeds the coefficient limit of 4096 bits"
    with pytest.raises(ConfigError, match=limit):
        parse_polynomial("((2**64)**64)**64", 1)
    with pytest.raises(ConfigError, match="coefficient limit"):
        parse_polynomial(f"{2**2048} * {2**2048} * x1", 1)
