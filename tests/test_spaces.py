import json
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arithfractal import (
    INFINITY,
    AffPoint,
    Curve,
    FractalSystem,
    GaussAffineMap,
    GaussPoint,
    IntAffineMap,
    IntPoint,
    ProjPoint,
    apply,
    canonicalize,
    ec_mul,
    ec_point,
    enumerate_system,
    load_corpus_system,
    preimage,
    system_from_dict,
    system_to_dict,
    validate_system,
)
from arithfractal.corpus import corpus_names
from arithfractal.errors import (
    ConfigError,
    SpaceMismatchError,
    UnsupportedMapKindError,
    ZeroProjectivePointError,
)
from arithfractal.spaces import (
    SPACES,
    EllTranslateMap,
    PolyTupleMap,
    ProjHomogMap,
    _affine_key,
    _affine_point,
    _affine_tuple,
    _max_abs,
    _proj_canonical,
    parse_point,
)
from arithfractal.polynomials import Polynomial


# --- canonicalize ---------------------------------------------------------


def test_projective_gcd_and_sign():
    assert canonicalize(ProjPoint((4, 6))).coords == (2, 3)
    assert canonicalize(ProjPoint((-2, -4))).coords == (1, 2)
    assert canonicalize(ProjPoint((2, 3))).coords == (2, 3)
    assert canonicalize(ProjPoint((0, -5))).coords == (0, 1)


def test_zero_projective_point_rejected():
    with pytest.raises(ZeroProjectivePointError):
        canonicalize(ProjPoint((0, 0)))


@given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
def test_canonicalize_idempotent_projective(a, b):
    if a == 0 and b == 0:
        return
    once = canonicalize(ProjPoint((a, b)))
    assert canonicalize(once) == once
    lead = next(c for c in once.coords if c)
    assert lead > 0


# --- apply ----------------------------------------------------------------


def test_apply_int_affine():
    assert apply(IntAffineMap(2, 1), IntPoint(3)) == IntPoint(7)


def test_apply_projective_canonicalizes():
    system = load_corpus_system("p1-doubling")
    doubling_with_2 = system.maps[1]  # (2 x1^2 : x2^2)
    image = apply(doubling_with_2, ProjPoint((1, 2)))
    assert image == ProjPoint((1, 2))  # (2:4) reduced


def test_apply_affine_tuple():
    system = load_corpus_system("q2-powers2")
    f2 = system.maps[1]  # (2 x1^2, x2^2)
    image = apply(f2, AffPoint((Fraction(2), Fraction(2))))
    assert image == AffPoint((Fraction(8), Fraction(4)))


def test_apply_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        apply(IntAffineMap(2, 1), GaussPoint(1, 0))


@given(st.integers(-10**4, 10**4), st.integers(-10**4, 10**4))
def test_apply_output_always_canonical(a, b):
    if a == 0 and b == 0:
        return
    system = load_corpus_system("p1-doubling")
    point = canonicalize(ProjPoint((a, b)))
    for map_ in system.maps:
        image = apply(map_, point)
        assert canonicalize(image) == image


# --- preimage -------------------------------------------------------------


def test_preimage_int():
    assert preimage(IntAffineMap(2, 1), IntPoint(7)) == IntPoint(3)
    assert preimage(IntAffineMap(2, 1), IntPoint(8)) is None


def test_preimage_gauss():
    one_plus_i = GaussAffineMap(GaussPoint(1, 1), GaussPoint(0, 0))
    assert preimage(one_plus_i, GaussPoint(1, 1)) == GaussPoint(1, 0)
    # (1+i) does not divide 1
    assert preimage(one_plus_i, GaussPoint(1, 0)) is None


def test_preimage_monomial_tuple():
    system = load_corpus_system("q2-powers2")
    f2 = system.maps[1]  # (2 x1^2, x2^2)
    point = apply(f2, AffPoint((Fraction(2), Fraction(3))))
    assert preimage(f2, point) == AffPoint((Fraction(2), Fraction(3)))
    assert preimage(f2, AffPoint((Fraction(3), Fraction(1)))) is None


def test_apply_and_preimage_refuse_a_point_of_other_arity():
    # zip would pair the map's variables with a prefix of the coordinates.
    f2 = load_corpus_system("q2-powers2").maps[1]
    doubling = load_corpus_system("p1-doubling").maps[0]
    for map_, point in ((f2, AffPoint((Fraction(4),))), (f2, AffPoint((Fraction(1),) * 3)),
                        (doubling, ProjPoint((1, 2, 3)))):
        for function in (apply, preimage):
            with pytest.raises(ConfigError, match="coordinates, unlike the map"):
                function(map_, point)


def test_preimage_unsupported_for_projective():
    system = load_corpus_system("p1-doubling")
    with pytest.raises(UnsupportedMapKindError):
        preimage(system.maps[0], ProjPoint((1, 2)))


@given(st.integers(-10**9, 10**9), st.integers(2, 50), st.integers(-100, 100))
def test_int_roundtrip(value, a, b):
    map_ = IntAffineMap(a, b)
    image = apply(map_, IntPoint(value))
    assert preimage(map_, image) == IntPoint(value)


@given(
    st.integers(-10**4, 10**4),
    st.integers(-10**4, 10**4),
    st.integers(-5, 5),
    st.integers(-5, 5),
    st.integers(-20, 20),
    st.integers(-20, 20),
)
def test_gauss_roundtrip(pr, pi, ar, ai, br, bi):
    if ar * ar + ai * ai <= 1:
        return
    map_ = GaussAffineMap(GaussPoint(ar, ai), GaussPoint(br, bi))
    point = GaussPoint(pr, pi)
    assert preimage(map_, apply(map_, point)) == point


# --- validate -------------------------------------------------------------


def test_validate_all_corpus_systems():
    for name in corpus_names():
        assert validate_system(load_corpus_system(name)) == []


def test_validate_rejects_non_expanding():
    bad = FractalSystem("int", (IntAffineMap(1, 1),), (IntPoint(0),), "bad")
    violations = validate_system(bad)
    assert any(v.code == "NonExpanding" and v.index == 0 for v in violations)


def test_validate_rejects_corpus_mutated_to_unit_multiplier():
    for name in corpus_names():
        system = load_corpus_system(name)
        if system.space != "int":
            continue
        first = system.maps[0]
        mutated = FractalSystem(
            "int",
            (IntAffineMap(1, first.b),) + system.maps[1:],
            system.seeds,
            system.label + "-mutated",
        )
        assert any(v.code == "NonExpanding" for v in validate_system(mutated))


def test_validate_gauss_expanding():
    ok = load_corpus_system("gauss-base")
    assert validate_system(ok) == []
    bad = FractalSystem(
        "gauss",
        (GaussAffineMap(GaussPoint(1, 0), GaussPoint(1, 0)),),
        (GaussPoint(0, 0),),
        "unit",
    )
    assert any(v.code == "NonExpanding" for v in validate_system(bad))


def test_validate_projective_degree_rule():
    # Degree-1 projective tuples have Moran weight 1 and are rejected; the
    # affine space allows degree 1 with a multiplier of weight above 1.
    linear_forms = (
        Polynomial(2, [((1, 0), Fraction(2))]),
        Polynomial(2, [((0, 1), Fraction(1))]),
    )
    from arithfractal.spaces import ProjHomogMap

    bad = FractalSystem(
        "projq", (ProjHomogMap(linear_forms),), (ProjPoint((1, 1)),), "linear"
    )
    assert any(v.code == "NonExpanding" for v in validate_system(bad))
    linear_affine = FractalSystem(
        "affq",
        (PolyTupleMap((Polynomial(1, [((1,), Fraction(3))]),)),),
        (AffPoint((Fraction(1),)),),
        "3x",
    )
    assert validate_system(linear_affine) == []


def _poly(nvars, *terms):
    """A polynomial from (coefficient, exponent, exponent, ...) terms."""
    return Polynomial(nvars, [(tuple(t[1:]), Fraction(t[0])) for t in terms])


_CURVE_37A = Curve.from_coefficients([0, 0, 1, -1, 0])
_ONE = AffPoint((Fraction(1),))
_ONE_ONE = AffPoint((Fraction(1), Fraction(1)))
_P1 = ProjPoint((1, 2))


def _system(space, maps, seeds, curve=None):
    return FractalSystem(space, tuple(maps), tuple(seeds), "case", curve)


def _ec(translation=INFINITY, n=2, seed=ec_point(0, 0), curve=_CURVE_37A):
    return _system("ec", [EllTranslateMap(n, translation, _CURVE_37A)], [seed], curve)


def _proj(*forms, seed=_P1):
    return _system("projq", [ProjHomogMap(forms)], [seed])


def _affq(*components, seed=_ONE):
    return _system("affq", [PolyTupleMap(components)], [seed])


_BIG = 10**400  # past the float range: its weight overflows, and the map expands

# One minimal system per violation that validate_system can report, as the
# (code, where, index) triples it must report and nothing else.
_VIOLATIONS = {
    "UnknownSpace": (_system("nope", [IntAffineMap(2, 0)], [IntPoint(0)]),
                     [("UnknownSpace", "system", -1)]),
    "NoMaps": (_system("int", [], [IntPoint(0)]), [("NoMaps", "system", -1)]),
    "NoSeeds": (_system("int", [IntAffineMap(2, 0)], []), [("NoSeeds", "system", -1)]),
    "MissingCurve": (_ec(curve=None), [("MissingCurve", "system", -1)]),
    "SpaceMismatch-map": (
        _system("int", [IntAffineMap(2, 0), GaussAffineMap(GaussPoint(2, 0), GaussPoint(0, 0))],
                [IntPoint(0)]),
        [("SpaceMismatch", "map", 1)]),
    "SpaceMismatch-seed": (_system("int", [IntAffineMap(2, 0)], [IntPoint(0), GaussPoint(0, 0)]),
                           [("SpaceMismatch", "seed", 1)]),
    "SeedNotOnCurve": (_ec(seed=ec_point(1, 1)), [("SeedNotOnCurve", "seed", 0)]),
    "TranslationNotOnCurve": (_ec(translation=ec_point(1, 1)),
                              [("TranslationNotOnCurve", "map", 0)]),
    # The map computes on y^2 = x^3 - x, the system's seed lies on 37a.
    "CurveMismatch": (_system("ec", [EllTranslateMap(2, INFINITY, Curve(0, 0, 0, -1, 0))],
                              [ec_point(0, 0)], _CURVE_37A),
                      [("CurveMismatch", "map", 0)]),
    "BadArity-proj": (_proj(_poly(3, (1, 2, 0, 0)), _poly(3, (1, 0, 2, 0))),
                      [("BadArity", "map", 0)]),
    "NotHomogeneous": (_proj(_poly(2, (1, 2, 0), (1, 0, 1)), _poly(2, (1, 0, 2))),
                       [("NotHomogeneous", "map", 0)]),
    "MixedDegrees": (_proj(_poly(2, (1, 2, 0)), _poly(2, (1, 0, 3))),
                     [("MixedDegrees", "map", 0)]),
    "NonIntegerForm": (_proj(_poly(2, ("1/2", 2, 0)), _poly(2, (1, 0, 2))),
                       [("NonIntegerForm", "map", 0)]),
    "CommonFactor": (_proj(_poly(2, (1, 1, 1)), _poly(2, (1, 1, 1))),
                     [("CommonZero", "map", 0)]),
    "CommonZeroOnGrid": (
        _proj(_poly(3, (1, 1, 1, 0)), _poly(3, (1, 1, 0, 1)), _poly(3, (1, 0, 1, 1)),
              seed=ProjPoint((1, 1, 1))),
        [("CommonZero", "map", 0)]),
    "BoundTooLarge": (_proj(_poly(3, (1, 6, 0, 0)), _poly(3, (1, 0, 6, 0)), _poly(3, (1, 0, 0, 6)),
                            seed=ProjPoint((1, 1, 1))),
                      [("BoundTooLarge", "map", 0)]),
    "BadArity-poly": (_affq(_poly(2, (1, 2, 0))), [("BadArity", "map", 0)]),
    "BadArity-seed": (_affq(_poly(1, (1, 2)), seed=_ONE_ONE), [("BadArity", "seed", 0)]),
    "DegreeTooLow-poly": (_affq(_poly(1, (3, 0))), [("DegreeTooLow", "map", 0)]),
    "NonExpanding-int": (_system("int", [IntAffineMap(-1, 1)], [IntPoint(0)]),
                         [("NonExpanding", "map", 0)]),
    "NonExpanding-gauss": (
        _system("gauss", [GaussAffineMap(GaussPoint(0, 1), GaussPoint(1, 0))], [GaussPoint(0, 0)]),
        [("NonExpanding", "map", 0)]),
    "NonExpanding-poly-shift": (_affq(_poly(1, (1, 1), (1, 0))), [("NonExpanding", "map", 0)]),
    "NonExpanding-poly-half": (_affq(_poly(1, ("1/2", 1))), [("NonExpanding", "map", 0)]),
    "NonExpanding-poly-multivariate-linear": (
        _affq(_poly(2, (2, 1, 0)), _poly(2, (3, 0, 1)), seed=_ONE_ONE),
        [("NonExpanding", "map", 0)]),
    "NonExpanding-proj": (_proj(_poly(2, (2, 1, 0)), _poly(2, (1, 0, 1))),
                          [("NonExpanding", "map", 0)]),
    "NonExpanding-ec": (_ec(n=1), [("NonExpanding", "map", 0)]),
    "valid-int-1e400": (_system("int", [IntAffineMap(_BIG, 0), IntAffineMap(3, 1)], [IntPoint(0)]),
                        []),
    "valid-gauss-1e400": (
        _system("gauss", [GaussAffineMap(GaussPoint(_BIG, 0), GaussPoint(0, 0))],
                [GaussPoint(0, 0)]),
        []),
    "valid-poly-1e400": (_affq(_poly(1, (_BIG, 1))), []),
}


@pytest.mark.parametrize("case", list(_VIOLATIONS))
def test_each_violation_code(case):
    system, expected = _VIOLATIONS[case]
    assert [(v.code, v.where, v.index) for v in validate_system(system)] == expected


def test_ec_map_on_another_curve_is_refused():
    # (0,0) is 2-torsion on y^2 = x^3 - x, so the map's own curve used to
    # close the orbit at {(0,0), O}, points of neither curve's choosing.
    system, _ = _VIOLATIONS["CurveMismatch"]
    with pytest.raises(ConfigError, match="CurveMismatch at map 0: map on curve"):
        enumerate_system(system, 100)


def test_multivariate_linear_tuple_names_the_missing_weight_rule():
    (violation,) = validate_system(_VIOLATIONS["NonExpanding-poly-multivariate-linear"][0])
    assert violation.message == "no weight rule for multivariate affine-linear tuples"


_COEFFS = st.sampled_from([0, 1, -1, 2, -2, _BIG])


@st.composite
def _polynomials(draw, nvars):
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.lists(st.tuples(_COEFFS, exponents), max_size=3))
    return Polynomial(nvars, [(e, c) for c, e in terms])


@st.composite
def _any_system(draw):
    kind = draw(st.sampled_from(["int", "gauss", "poly", "proj"]))
    if kind == "int":
        return _system("int", [IntAffineMap(draw(_COEFFS), draw(_COEFFS))], [IntPoint(1)])
    if kind == "gauss":
        a, b = (GaussPoint(draw(_COEFFS), draw(_COEFFS)) for _ in range(2))
        return _system("gauss", [GaussAffineMap(a, b)], [GaussPoint(1, 0)])
    n = draw(st.integers(1, 3))
    polys = [draw(_polynomials(n)) for _ in range(n)]
    if kind == "poly":
        return _affq(*polys, seed=AffPoint((Fraction(1),) * n))
    return _proj(*polys, seed=ProjPoint((1,) * n))


@given(_any_system())
def test_validate_returns_a_list_and_never_raises(system):
    assert isinstance(validate_system(system), list)


def test_validate_common_zero_grid():
    from arithfractal.spaces import ProjHomogMap

    def monomial(*exponents):
        return Polynomial(len(exponents), [(exponents, Fraction(1))])

    # On P^2, x1*x2 : x1*x3 : x2*x3 vanish at (1:0:0), (0:1:0) and (0:0:1);
    # on P^1, x1*x2 : x1*x2 vanish at (1:0) and (0:1).  One exact test
    # rejects both.
    plane = ProjHomogMap((monomial(1, 1, 0), monomial(1, 0, 1), monomial(0, 1, 1)))
    bad = FractalSystem("projq", (plane,), (ProjPoint((1, 1, 1)),), "zeros")
    assert [v.code for v in validate_system(bad)] == ["CommonZero"]
    line = ProjHomogMap((monomial(1, 1), monomial(1, 1)))
    bad = FractalSystem("projq", (line,), (ProjPoint((1, 1)),), "zeros")
    assert [v.code for v in validate_system(bad)] == ["CommonZero"]


# --- serialization --------------------------------------------------------


def test_system_json_round_trip():
    for name in corpus_names():
        system = load_corpus_system(name)
        again = system_from_dict(json.loads(json.dumps(system_to_dict(system))))
        assert again == system


def test_parse_point_literals():
    assert parse_point("7", "int") == IntPoint(7)
    assert parse_point("3+4i", "gauss") == GaussPoint(3, 4)
    assert parse_point("-i", "gauss") == GaussPoint(0, -1)
    assert parse_point("2:4", "projq") == ProjPoint((1, 2))
    assert parse_point("1/2,3", "affq") == AffPoint((Fraction(1, 2), Fraction(3)))


def test_literals_by_hand():
    assert [str(GaussPoint(*p)) for p in ((3, -4), (0, 0), (-1, 2))] == ["3-4i", "0+0i", "-1+2i"]
    assert str(AffPoint((Fraction(-1, 2), Fraction(3), Fraction(0)))) == "(-1/2,3,0)"
    assert str(ProjPoint((1, -2))) == "(1:-2)" and str(IntPoint(-7)) == "-7"
    assert SPACES["affq"].to_json((6, -3, 4)) == ["-1/2", "2/3"]


_CURVE_37A = Curve.from_coefficients([0, 0, 1, -1, 0])
# Canonical payloads of each space, built from drawn parts.
_PAYLOADS = {
    "int": st.integers(),
    "gauss": st.tuples(st.integers(), st.integers()),
    "affq": st.lists(st.fractions(max_denominator=10**12), min_size=1, max_size=4).map(
        _affine_tuple),
    "projq": st.lists(st.integers(), min_size=2, max_size=4).filter(any).map(
        lambda c: _proj_canonical(tuple(c))),
    "ec": st.integers(-12, 12).map(lambda m: ec_mul(_CURVE_37A, m, ec_point(0, 0))),
}


@pytest.mark.parametrize("name", sorted(_PAYLOADS))
@settings(deadline=None)
@given(data=st.data())
def test_literal_is_the_inverse_of_parse(name, data):
    space = SPACES[name]
    payload = data.draw(_PAYLOADS[name])
    assert space.canonical(payload) == payload
    text = space.literal(payload)
    assert space.parse(text) == payload
    assert str(space.to_point(payload)) == text


def _order_agrees(payloads, bound):
    by_int = sorted(payloads, key=_affine_key(bound))
    assert by_int == sorted(payloads, key=_affine_point)
    assert len(set(map(_affine_key(bound), payloads))) == len(set(payloads))


def test_affq_integer_key_on_every_small_point():
    for bound in range(1, 13):
        points = {_proj_canonical((d, n)) for d in range(1, bound + 1)
                  for n in range(-bound, bound + 1)}
        _order_agrees(list(points), bound)


@given(st.integers(2, 2**80).flatmap(lambda b: st.tuples(
    st.just(b), st.integers(1, b), st.integers(-b, b))))
def test_affq_integer_key_splits_farey_neighbours(case):
    # p1/q1 and p2/q2 with p2*q1 - p1*q2 = 1 lie 1/(q1*q2) apart, the least
    # gap between rationals of these denominators.
    bound, q1, p1 = case
    g = math.gcd(p1, q1)
    p1, q1 = p1 // g, q1 // g
    q2 = -pow(p1, -1, q1) % q1 if q1 > 1 else 1
    p2 = (1 + p1 * q2) // q1
    assume(abs(p2) <= bound)
    _order_agrees([(q1, p1), (q2, p2)], bound)


@given(st.lists(st.lists(st.fractions(max_denominator=10**6), min_size=2, max_size=2),
                min_size=1, max_size=30), st.integers(0, 10**6))
def test_affq_integer_key_on_pairs(coords, extra):
    payloads = [_affine_tuple(c) for c in coords]
    _order_agrees(payloads, max(map(_max_abs, payloads)) + extra)


# --- hand-computed images ---------------------------------------------------
# apply and the enumerator share one image closure per map, so these values
# are worked out by hand rather than compared against either of them.


def test_gauss_image_by_hand():
    # (1+i)(2+3i) + 1 = 2 + 3i + 2i - 3 + 1 = 5i
    f = GaussAffineMap(GaussPoint(1, 1), GaussPoint(1, 0))
    assert apply(f, GaussPoint(2, 3)) == GaussPoint(0, 5)
    # Next image: (1+i)5i + 1 = -4+5i, of norm 41 > 25.
    system = FractalSystem("gauss", (f,), (GaussPoint(2, 3),), "one-step")
    bag = enumerate_system(system, 25)
    assert [(e.point, e.size.raw, e.depth) for e in bag.entries] == [
        (GaussPoint(2, 3), 13, 0),
        (GaussPoint(0, 5), 25, 1),
    ]


def test_elliptic_images_by_hand():
    # 37a: y^2 + y = x^3 - x with P = (0,0); the tangent at P has slope -1,
    # so [2]P = (1,0), and the chord through (1,0) and P is y = 0, so
    # [2]P + P = (-1,-1).
    curve = Curve.from_coefficients([0, 0, 1, -1, 0])
    p = ec_point(0, 0)
    assert apply(EllTranslateMap(2, INFINITY, curve), p) == ec_point(1, 0)
    assert apply(EllTranslateMap(2, p, curve), p) == ec_point(-1, -1)
