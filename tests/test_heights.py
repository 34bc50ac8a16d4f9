import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arithfractal import (
    AffPoint,
    GaussPoint,
    IntPoint,
    ProjPoint,
    canonicalize,
    enumerate_system,
    height_growth_audit,
    load_corpus_system,
    projective_census,
    raw_size,
    schanuel_prediction,
    size_of,
)
from arithfractal.errors import BoundTooLargeError, ConfigError


# --- size_of ----------------------------------------------------------------


def test_size_examples():
    assert size_of(ProjPoint((2, 3))) == (3, pytest.approx(math.log(3)))
    assert size_of(AffPoint((Fraction(2), Fraction(2)))).raw == 2
    assert size_of(GaussPoint(3, 4)).raw == 25
    assert size_of(IntPoint(-7)).raw == 7
    assert size_of(IntPoint(0)) == (0, 0.0)


def test_affine_height_via_projective_embedding():
    # H(1 : 1/2 : 3) = H(2 : 1 : 6) = 6
    assert size_of(AffPoint((Fraction(1, 2), Fraction(3)))).raw == 6


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6), st.integers(1, 1000))
def test_product_formula_scalar_invariance(a, b, scale):
    if a == 0 and b == 0:
        return
    base = raw_size(canonicalize(ProjPoint((a, b))))
    scaled = raw_size(canonicalize(ProjPoint((scale * a, scale * b))))
    assert base == scaled


@given(st.integers(-1000, 1000), st.integers(-1000, 1000))
def test_coprime_square_multiplicativity(a, b):
    if a == 0 and b == 0 or math.gcd(abs(a), abs(b)) != 1:
        return
    point = canonicalize(ProjPoint((a, b)))
    squared = canonicalize(ProjPoint((a * a, b * b)))
    assert raw_size(squared) == raw_size(point) ** 2


# --- height growth audit ----------------------------------------------------


def test_growth_audit_p1(p1_doubling):
    bag = enumerate_system(p1_doubling, 2**20)
    stats = height_growth_audit(p1_doubling, bag)
    # Squaring map has exact residual 0; the 2x1^2 map loses exactly log 2
    # on this orbit (the factor 2 cancels into the even power of 2).
    assert stats[0].max_abs_residual == pytest.approx(0.0, abs=1e-12)
    assert stats[1].max_abs_residual == pytest.approx(math.log(2), abs=1e-9)


def test_growth_audit_squaring_exact_on_coprime():
    # x -> x^2 on P^1: H(z^2) = H(z)^2 exactly for coprime coordinates.
    system = load_corpus_system("p1-powers2-full")
    squaring = system.maps[0]
    from arithfractal import apply

    for a, b in [(2, 3), (5, 7), (10, 1)]:
        p = ProjPoint((a, b))
        image = apply(squaring, p)
        assert raw_size(image) == raw_size(p) ** 2


def test_growth_audit_q2_grid(q2_powers2):
    bag = enumerate_system(q2_powers2, 2**10)
    stats = height_growth_audit(q2_powers2, bag)
    for per_map in stats:
        assert per_map.max_abs_residual <= math.log(2) + 1e-9


# --- Schanuel prediction ------------------------------------------------------


def test_schanuel_constants():
    assert schanuel_prediction(1, 100) == pytest.approx(12 * 100**2 / math.pi**2, rel=1e-12)
    assert schanuel_prediction(1, 1) == pytest.approx(12 / math.pi**2, rel=1e-12)
    # n=2 uses zeta(3)
    assert schanuel_prediction(2, 10) == pytest.approx(4 / 1.2020569031595943 * 1000, rel=1e-12)


# --- projective census --------------------------------------------------------


def brute_census_p1(bound):
    """Independent enumeration with explicit canonicalization."""
    seen = set()
    for a in range(-bound, bound + 1):
        for b in range(-bound, bound + 1):
            if a == 0 and b == 0:
                continue
            g = math.gcd(abs(a), abs(b))
            aa, bb = a // g, b // g
            lead = aa if aa else bb
            if lead < 0:
                aa, bb = -aa, -bb
            seen.add((aa, bb))
    return len(seen)


def totient_oracle_p1(bound):
    phi = list(range(bound + 1))
    for p in range(2, bound + 1):
        if phi[p] == p:
            for k in range(p, bound + 1, p):
                phi[k] -= phi[k] // p
    return 4 * sum(phi[1:])


def test_census_tiny_values_pinned():
    # Exhaustive listing at bound 1 gives exactly (0:1), (1:0), (1:1), (1:-1);
    # at bound 2 the brute list has 8 canonical points.
    assert projective_census(1, 1) == 4
    assert brute_census_p1(1) == 4
    assert projective_census(1, 2) == brute_census_p1(2) == 8


def test_census_cross_checks_to_200():
    for bound in (10, 50, 200):
        count = projective_census(1, bound)
        assert count == brute_census_p1(bound)
        assert count == totient_oracle_p1(bound)


def test_census_monotone():
    counts = [projective_census(1, x) for x in range(1, 30)]
    assert counts == sorted(counts)


def test_census_matches_schanuel_at_scale():
    density = 12 / math.pi**2
    n100 = projective_census(1, 100)
    assert abs(n100 / 100**2 - density) < 0.05 * density
    n1000 = projective_census(1, 1000)
    assert abs(n1000 / 1000**2 - density) < 0.02 * density


def test_census_p2_small():
    # Independent triple loop with canonicalization at tiny bounds.
    def brute(bound):
        seen = set()
        rng = range(-bound, bound + 1)
        for a in rng:
            for b in rng:
                for c in rng:
                    if a == b == c == 0:
                        continue
                    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
                    t = (a // g, b // g, c // g)
                    lead = next(v for v in t if v)
                    if lead < 0:
                        t = tuple(-v for v in t)
                    seen.add(t)
        return len(seen)

    for bound in range(1, 9):
        assert projective_census(2, bound) == brute(bound)


def brute_census(n, bound):
    """Canonical primitive vectors of Z^(n+1) in the box, listed one by one."""
    seen = set()
    for v in itertools.product(range(-bound, bound + 1), repeat=n + 1):
        g = math.gcd(*v)
        if g:
            t = tuple(c // g for c in v)
            seen.add(t if next(c for c in t if c) > 0 else tuple(-c for c in t))
    return len(seen)


@pytest.mark.parametrize("n", [3, 4])
def test_census_p3_p4_small(n):
    for bound in range(1, 4):
        assert projective_census(n, bound) == brute_census(n, bound)


@given(st.integers(0, 2000))
def test_census_p1_matches_totient_oracle(bound):
    assert projective_census(1, bound) == totient_oracle_p1(bound)


@functools.cache
def mobius_table(limit):
    """mu(0), ..., mu(limit) by crossing out multiples of each prime."""
    mu = [0] + [1] * limit
    prime = [True] * (limit + 1)
    for p in range(2, limit + 1):
        if prime[p]:
            for k in range(p, limit + 1, p):
                prime[k] = False
                mu[k] = -mu[k]
            for k in range(p * p, limit + 1, p * p):
                mu[k] = 0
    return mu


def mobius_census(n, x):
    """The O(x) Moebius sum 1/2 sum_{d <= x} mu(d) ((2 floor(x/d) + 1)^(n+1) - 1)."""
    mu = mobius_table(10**5)
    return sum(mu[d] * ((2 * (x // d) + 1) ** (n + 1) - 1) for d in range(1, x + 1)) // 2


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_matches_mobius_sum(n):
    for x in (0, 1, 2, 3, 10, 100, 137, 3000, 10**4, 10**5):
        assert projective_census(n, x) == mobius_census(n, x)


@given(st.integers(1, 4), st.integers(0, 10**5))
def test_census_matches_mobius_sum_random(n, x):
    assert projective_census(n, x) == mobius_census(n, x)


def test_census_bound_guard():
    with pytest.raises(BoundTooLargeError):
        projective_census(1, 10**7 + 1)
    with pytest.raises(ConfigError):
        projective_census(5, 10)


def test_census_one_limit_for_every_n():
    # One bound limit, 10^7, for n = 1..4; the recursion is O(x^(3/4)) for each.
    for n in range(1, 5):
        count = projective_census(n, 10**7)
        assert count == pytest.approx(schanuel_prediction(n, 10**7), rel=1e-6)
        with pytest.raises(BoundTooLargeError):
            projective_census(n, 10**7 + 1)
    for n, bound in [(0, 10), (5, 1), (-1, 3), (1, -5), (4, -1), (2, -0.5)]:
        with pytest.raises(ConfigError):
            projective_census(n, bound)
