import itertools
import json
import math
import random
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arithfractal import (
    CORPUS,
    AffPoint,
    FractalSystem,
    GaussAffineMap,
    GaussPoint,
    INFINITY,
    IntAffineMap,
    IntPoint,
    PolyTupleMap,
    ProjPoint,
    apply,
    audit_exactness,
    curve_intersection_probe,
    ec_mul,
    ec_point,
    enumerate_system,
    is_member,
    load_corpus_system,
    parse_polynomial,
    replay_certificate,
)
from arithfractal import enumeration, spaces
from arithfractal.cli import main
from arithfractal.errors import (
    BoundTooLargeError,
    ConfigError,
    UndecidedError,
    UnsupportedSpaceError,
    ZeroProjectivePointError,
)
from arithfractal.polynomials import Polynomial
from arithfractal.spaces import (
    SPACES,
    ProjHomogMap,
    _macaulay_solutions,
    gauss_norm,
    system_from_dict,
    system_to_dict,
    validate_system,
)


def digit_oracle(bound, digits):
    """Brute scan: nonnegative integers whose decimal digits lie in a set."""
    allowed = set(str(d) for d in digits)
    return [m for m in range(bound + 1) if set(str(m)) <= allowed]


# --- enumerate --------------------------------------------------------------


def test_digits_bag_matches_brute_scan(digits01):
    bag = enumerate_system(digits01, 1000)
    assert [e.point.value for e in bag.entries] == digit_oracle(1000, (0, 1))
    assert len(bag) == 9
    assert not bag.truncated


def test_binary_bag_is_integer_interval(z_binary):
    bag = enumerate_system(z_binary, 7)
    assert [e.point.value for e in bag.entries] == list(range(8))


def test_p1_bag_with_unit_seed():
    # Seed (1:1) generates exactly the nonnegative powers of two.
    data = {
        "space": "projq",
        "label": "p1-up",
        "maps": [
            {"kind": "proj_homog", "forms": [
                [{"coeff": "1", "exponents": [2, 0]}],
                [{"coeff": "1", "exponents": [0, 2]}],
            ]},
            {"kind": "proj_homog", "forms": [
                [{"coeff": "2", "exponents": [2, 0]}],
                [{"coeff": "1", "exponents": [0, 2]}],
            ]},
        ],
        "seeds": [["1", "1"]],
    }
    system = system_from_dict(data)
    bag = enumerate_system(system, 2**5)
    assert [e.point for e in bag.entries] == [
        ProjPoint((2**k, 1)) if k else ProjPoint((1, 1)) for k in range(6)
    ]
    assert len(bag) == 6


def test_bag_sorted_and_deduplicated(q2_powers2):
    bag = enumerate_system(q2_powers2, 2**6)
    sizes = bag.raw_sizes()
    assert sizes == sorted(sizes)
    assert len(set(bag.points())) == len(bag)


@pytest.mark.parametrize("name", ["z-2x3x", "gauss-base", "p1-powers2-full", "q2-powers2"])
def test_sizes_same_before_and_after_ordering(name):
    # Points, sizes and membership read the records until entries replaces them.
    system = load_corpus_system(name)
    space = SPACES[system.space]
    probes = [space.payload(e.point) for e in enumerate_system(system, 2**9).entries]
    bag = enumerate_system(system, 2**8)
    length = len(bag)
    points = bag.points()
    sizes = bag.raw_sizes()
    logs = bag.log_sizes()
    held = [bag.has_payload(p) for p in probes]
    assert held == [space.size(p) <= 2**8 for p in probes]
    assert 0 < sum(held) < len(probes)
    assert [e.size.raw for e in bag.entries] == sizes
    assert [e.point for e in bag.entries] == points == bag.points()
    assert len(bag) == length == len(bag.entries)
    assert bag.raw_sizes() == sizes
    assert bag.log_sizes() == logs == [e.size.log_size for e in bag.entries]
    assert [bag.has_payload(p) for p in probes] == held


def test_entries_share_one_size_value_per_size(gauss_base):
    entries = enumerate_system(gauss_base, 2**10).entries
    distinct = {id(e.size) for e in entries}
    assert len(distinct) == len({e.size.raw for e in entries}) < len(entries)


def test_entries_peak_memory_within_enumeration_peak(gauss_base):
    # Entries replace the records in place, so materializing never holds a
    # record and an entry for the same point at once.
    tracemalloc.start()
    try:
        bag = enumerate_system(gauss_base, 2**14)
        _, enumeration_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        assert len(bag.entries) == len(bag)
        _, entries_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert entries_peak <= enumeration_peak, (
        f"{entries_peak / len(bag):.0f} B/point reading entries against "
        f"{enumeration_peak / len(bag):.0f} B/point enumerating"
    )


def test_size_ties_in_coordinate_order(gauss_base):
    bag = enumerate_system(gauss_base, 2**10)
    keys = [(e.size.raw, e.point.re, e.point.im) for e in bag.entries]
    assert keys == sorted(keys)
    assert len(set(k[0] for k in keys)) < len(keys)  # the bag has size ties


def test_monotone_window_prefix(digits01):
    small = enumerate_system(digits01, 10**4)
    large = enumerate_system(digits01, 10**6)
    assert large.entries[: len(small)] == small.entries


def test_determinism(gauss_base):
    one = enumerate_system(gauss_base, 2**10)
    two = enumerate_system(gauss_base, 2**10)
    assert one.entries == two.entries


def test_truncation_flag(z_binary):
    bag = enumerate_system(z_binary, 10**6, max_points=100)
    assert bag.truncated
    assert len(bag) == 100


@pytest.mark.parametrize("max_points, truncated", [(141, True), (142, False), (143, False)])
def test_truncation_flag_only_when_points_are_left(z_2x3x, max_points, truncated):
    # z-2x3x has 142 points up to 10^6: a bag that holds them all is complete.
    bag = enumerate_system(z_2x3x, 10**6, max_points=max_points)
    assert (len(bag), bag.truncated) == (min(max_points, 142), truncated)


def test_seeds_count_against_max_points():
    system = FractalSystem(
        "int", (IntAffineMap(2, 0),), tuple(IntPoint(s) for s in (1, 3, 5, 3)), "seeds"
    )
    with pytest.raises(ConfigError, match="max_points 2 is below the 3 distinct seeds"):
        enumerate_system(system, 100, max_points=2)
    bag = enumerate_system(system, 100, max_points=3)
    assert (len(bag), bag.truncated) == (3, True)


def test_depths_are_generations(digits01):
    bag = enumerate_system(digits01, 1000)
    by_value = {e.point.value: e.depth for e in bag.entries}
    assert by_value[0] == 0
    assert by_value[1] == 1
    assert by_value[10] == 2
    assert by_value[101] == 3


def test_orbit_deeper_than_any_generation_cap():
    # No generation count caps the closure: the bounded window is finite.
    system = FractalSystem("int", (IntAffineMap(2, 0),), (IntPoint(1),), "doubling")
    bag = enumerate_system(system, 2**20000)
    assert (len(bag), bag.truncated) == (20001, False)
    assert max(e.depth for e in bag.entries) == 20000


def test_bound_below_seed_rejected(z_2x3x):
    with pytest.raises(ConfigError):
        enumerate_system(z_2x3x, 0)


def _ec_doubling(a4, seeds):
    """{Q -> [2]Q} on y^2 = x^3 + a4 x, seeded at the given integer points."""
    return system_from_dict({
        "space": "ec",
        "label": "ec-doubling",
        "curve": {"a1": "0", "a2": "0", "a3": "0", "a4": str(a4), "a6": "0"},
        "maps": [{"kind": "ell_translate", "n": "2", "translate": "inf"}],
        "seeds": [[str(x), str(y)] for x, y in seeds],
    })


def test_ec_37a_orbit_and_membership():
    system = load_corpus_system("ec-37a")
    curve, p = system.curve, system.seeds[0]
    bag = enumerate_system(system, 10**30)
    assert bag.points() == [ec_mul(curve, 2**k, p) for k in range(6)]
    assert not bag.truncated
    # The fallback enumerates up to the query's size, so 64P (about 10^91)
    # is found although it lies past the bag above.
    for n, member in ((1, True), (2, True), (3, False), (6, False), (64, True)):
        assert is_member(system, ec_mul(curve, n, p)).member is member, n
    assert is_member(system, ec_mul(curve, 2, p)).via_fallback
    with pytest.raises(UnsupportedSpaceError):
        audit_exactness(system, 100, window="ambient")


def test_ec_torsion_orbit_lists_the_identity_first():
    # (1, 0) has order 2 on y^2 = x^3 - x, so its orbit is {(1, 0), O}.
    # O has size 0, so the bag's sort never compares it with a Fraction.
    system = _ec_doubling(-1, [(1, 0)])
    bag = enumerate_system(system, 10)
    assert [(e.point, e.size.raw) for e in bag.entries] == [(INFINITY, 0), (ec_point(1, 0), 1)]
    assert is_member(system, INFINITY).member


def test_ec_audit_lists_the_identity_first():
    # (2, 4) and (2, -4) have order 4 on y^2 = x^3 + 4x: both double to
    # (0, 0), which doubles to O, and O doubles to itself, so both are overlaps.
    system = _ec_doubling(4, [(2, 4), (2, -4)])
    report = audit_exactness(system, 10)
    assert [r.point for r in report.overlaps] == [INFINITY, ec_point(0, 0)]
    assert fused_orbit_audit(system, 10) == brute_orbit_audit(system, 10)


# --- membership -------------------------------------------------------------


def test_member_digit_examples(digits01):
    result = is_member(digits01, IntPoint(101))
    assert result.member and not result.via_fallback
    assert result.path == (1, 0, 1)
    assert replay_certificate(digits01, result) == IntPoint(101)
    assert not is_member(digits01, IntPoint(12)).member


def test_member_fixed_point_certificate_empty():
    system = FractalSystem("int", (IntAffineMap(2, 1),), (IntPoint(-1),), "fixed")
    result = is_member(system, IntPoint(-1))
    assert result.member and result.path == ()


def test_member_branching_system(z_2x3x):
    bag = enumerate_system(z_2x3x, 10**4)
    members = {e.point.value for e in bag.entries}
    for m in list(range(1, 200)) + [2**5 * 3**4, 9999]:
        assert is_member(z_2x3x, IntPoint(m)).member == (m in members)


def test_member_agrees_with_enumeration_window(digits012):
    bag = enumerate_system(digits012, 10**4)
    members = {e.point.value for e in bag.entries}
    for m in range(-300, 10**4, 37):
        result = is_member(digits012, IntPoint(m))
        assert result.member == (m in members)
        if result.member:
            assert replay_certificate(digits012, result) == IntPoint(m)


def test_member_point_of_other_arity(q2_powers2):
    # (1,1,1) is no point of the plane; descent must not drop its last
    # coordinate and certify the seed (1,1).
    three = AffPoint((Fraction(1), Fraction(1), Fraction(1)))
    assert not is_member(q2_powers2, three).member
    assert not is_member(q2_powers2, AffPoint((Fraction(4), Fraction(16), Fraction(5)))).member


def diagonal_map(*terms):
    """(c_1 x1^e_1, ..., c_n xn^e_n) from (c, e) pairs."""
    n = len(terms)
    return PolyTupleMap(tuple(
        Polynomial(n, [(tuple(e if j == i else 0 for j in range(n)), Fraction(c))])
        for i, (c, e) in enumerate(terms)
    ))


def test_member_through_negative_parent():
    # -1 -> 1 under x^2, then 1 -> 3 under 3x^3: the descent from 3 and 1
    # must reach the negative parent -1 of 1.
    system = FractalSystem(
        "affq", (diagonal_map((1, 2)), diagonal_map((3, 3))), (AffPoint((Fraction(-1),)),), "neg"
    )
    bag = enumerate_system(system, 100)
    assert {e.point.coords[0] for e in bag.entries} == {-81, -3, -1, 1, 3, 9, 81}
    for entry in bag.entries:
        result = is_member(system, entry.point)
        assert result.member and replay_certificate(system, result) == entry.point
    assert is_member(system, AffPoint((Fraction(3),))).path == (0, 1)


def _diagonal_systems(coeffs, top):
    """Systems of 1 to 3 maps (c_1*x1^e_1, ...) on A^1 or A^2, c_i drawn from
    coeffs and e_i from {2, 3}, with 1 to 3 seeds of coordinates a/b,
    |a| <= top and 1 <= b <= top."""
    coords = st.builds(Fraction, st.integers(-top, top), st.integers(1, top))
    return st.integers(1, 2).flatmap(lambda n: st.builds(
        lambda maps, seeds: FractalSystem(
            "affq",
            tuple(diagonal_map(*terms) for terms in maps),
            tuple(AffPoint(tuple(seed)) for seed in seeds),
            "random",
        ),
        st.lists(
            st.lists(st.tuples(st.sampled_from(coeffs), st.integers(2, 3)), min_size=n, max_size=n),
            min_size=1, max_size=3,
        ),
        st.lists(st.lists(coords, min_size=n, max_size=n), min_size=1, max_size=3),
    ))


@settings(max_examples=60, deadline=None)
@given(_diagonal_systems([-3, -2, -1, 1, 2, 3], 3))
def test_member_agrees_with_bag_for_random_diagonal_systems(system):
    # Under x_i -> c*x_i^e with 1 <= |c| <= 3 and e >= 2 no local factor
    # max(1, |x_i|_v) of the height H(1 : x) falls, so no orbit point's height
    # drops under a map, even from rational seeds: the bag at a bound holds
    # every member up to that bound.  Exponents of at least 2 keep the descent
    # finite: the parents of x under c*x must be divided by c without end.
    n = len(system.seeds[0].coords)
    radius = 40 if n == 1 else 6
    space = SPACES["affq"]
    bag = enumerate_system(system, max(radius, *(space.size(space.payload(s)) for s in system.seeds)))
    members = {e.point for e in bag.entries}
    side = {Fraction(a, b) for a in range(-radius, radius + 1) for b in (1, 2, 3)}
    for coords in itertools.product(sorted(side), repeat=n):
        point = AffPoint(coords)
        if space.size(space.payload(point)) > radius:
            continue
        result = is_member(system, point)
        assert result.member == (point in members)
        if result.member:
            assert replay_certificate(system, result) == point


@settings(max_examples=60, deadline=None)
@given(_diagonal_systems([-16, -1, 1, 16, Fraction(1, 16), Fraction(-1, 4)], 2))
def test_images_of_members_are_members_where_heights_drop(system):
    # Heights can drop here: 16*(1/4)^2 = 1.  From the seed 1/2, the member 1
    # is reached only through 1/4, so no bag up to the heights of the query
    # and the seeds holds it.  The descent still certifies every image.
    space = SPACES["affq"]
    bag = enumerate_system(system, max(256, *(space.size(space.payload(s)) for s in system.seeds)))
    for entry in bag.entries:
        for map_ in system.maps:
            image = apply(map_, entry.point)
            result = is_member(system, image)
            assert result.member and replay_certificate(system, result) == image


def test_member_whose_certificate_passes_above_the_query():
    # Under g = (x1^2, 4*x2) the height of (1, 1/4) drops from 4 to that of
    # (1, 1).  The only path from the seed (1, 1/2) to (1, 1) runs through
    # (1, 1/4), so no bag up to the query's height holds (1, 1), while the
    # descent finds the certificate.
    f, g = diagonal_map((1, 2), (1, 2)), diagonal_map((1, 2), (4, 1))
    seed = AffPoint((Fraction(1), Fraction(1, 2)))
    system = FractalSystem("affq", (f, g), (seed,), "drop")
    assert validate_system(system) == []
    target = AffPoint((Fraction(1), Fraction(1)))
    assert not enumerate_system(system, 2).has_payload(SPACES["affq"].payload(target))
    result = is_member(system, target)
    assert result == (True, seed, (0, 1), False)
    assert replay_certificate(system, result) == target


def test_member_fallback_for_projective(p1_doubling):
    result = is_member(p1_doubling, ProjPoint((1, 16)))
    assert result.member and result.via_fallback
    assert not is_member(p1_doubling, ProjPoint((3, 1))).member


def test_member_fallback_same_with_any_bag(p1_full):
    queries = [ProjPoint(c) for c in ((1, 1), (2, 1), (1, 2), (16, 1), (1, 256), (3, 1),
                                      (1, 3), (2, 3), (1024, 1), (512, 1), (1, 1024))]
    fresh = enumerate_system(p1_full, 2**10)
    read = enumerate_system(p1_full, 2**10)
    assert len(read.entries) == len(read)
    answers = [is_member(p1_full, q).member for q in queries]
    assert [is_member(p1_full, q, fallback_bag=fresh).member for q in queries] == answers
    assert [is_member(p1_full, q, fallback_bag=read).member for q in queries] == answers
    assert 0 < sum(answers) < len(queries)


def test_member_fallback_truncated_bag_undecided(p1_full):
    truncated = enumerate_system(p1_full, 2**20, max_points=5)
    assert truncated.truncated
    assert is_member(p1_full, ProjPoint((1, 1)), fallback_bag=truncated).member
    message = r"\(1048576:1\) is not among the 5 points of a bag truncated below bound 1048576"
    with pytest.raises(UndecidedError, match=message):
        is_member(p1_full, ProjPoint((2**20, 1)), fallback_bag=truncated)
    assert is_member(p1_full, ProjPoint((2**20, 1))).member


def test_member_fallback_on_complete_bag_decides(p1_full):
    # p1-powers2-full has 21 points up to 2^10; a bag capped at exactly 21
    # holds them all, so a point missing from it is not a member.
    complete = enumerate_system(p1_full, 2**10, max_points=21)
    assert len(complete) == 21 and not complete.truncated
    assert not is_member(p1_full, ProjPoint((3, 1)), fallback_bag=complete).member


def _drop_systems():
    """The two systems whose members are reached only above the query: on
    P^1 (1:1) = f(g(2:1)) through (4:1), on affq 0 = g(f(1/2)) through 1/4."""
    x2, y2 = Polynomial(2, [((2, 0), 1)]), Polynomial(2, [((0, 2), 1)])
    p1 = FractalSystem("projq", (
        ProjHomogMap((x2, Polynomial(2, [((0, 2), 16)]))), ProjHomogMap((x2, y2)),
    ), (ProjPoint((2, 1)),), "p1-drop")
    square = Polynomial(1, [((2,), 1)])
    affq = FractalSystem("affq", (
        PolyTupleMap((square,)), PolyTupleMap((Polynomial(1, [((2,), 16), ((1,), -4)]),)),
    ), (AffPoint((Fraction(1, 2),)),), "affq-drop")
    return p1, affq


def test_affq_bag_order_is_point_order():
    # Payloads (den : num) sort unlike the rationals num / den they stand for.
    space = SPACES["affq"]
    bag = enumerate_system(_drop_systems()[1], 10**6)
    points = bag.points()
    assert [(space.size(space.payload(p)), p) for p in points] == sorted(
        (space.size(space.payload(p)), p) for p in points)
    assert points[:4] == [AffPoint((Fraction(c),)) for c in (0, Fraction(1, 2), 2, Fraction(1, 4))]
    assert [e.point for e in bag.entries] == points


def test_fallback_member_reached_above_the_query():
    p1, affq = _drop_systems()
    assert validate_system(p1) == validate_system(affq) == []
    assert [m._escape_height() for m in p1.maps] == [16, 1]
    for system, query in ((p1, ProjPoint((1, 1))), (affq, AffPoint((Fraction(0),)))):
        space = SPACES[system.space]
        assert not enumerate_system(system, 2).has_payload(space.payload(query))
        assert is_member(system, query) == (True, None, (), True)
        assert is_member(system, query, fallback_bag=enumerate_system(system, 2)).member
    # A miss is decided in the bag up to the escape height 16.
    assert is_member(p1, ProjPoint((3, 1))) == (False, None, (), True)


def test_escape_height_bounds_every_drop():
    # Brute force over P^1 up to height 60: a point that f does not raise
    # in height has height at most C_f.  The last two maps are affine ones
    # on their chart.
    maps = [ProjHomogMap((binary_form(f), binary_form(g))) for f, g in (
        ([1, 0, 0], [0, 0, 16]), ([1, 0, 3], [0, 2, 0]), ([16, 0, 1], [1, -4, 0]),
        ([1, 0, 0, 1], [0, 0, 4, 0]), ([2, 1, 0], [0, 1, 3]),
    )] + [ProjHomogMap(PolyTupleMap((parse_polynomial(f, 1),))._forms)
          for f in ("16*x1^2 - 4*x1", "x1^2/4 - x1/16")]
    for map_ in maps:
        cap, image = map_._escape_height(), map_.image_fn()
        assert cap is not None
        for a, b in itertools.product(range(-60, 61), range(61)):
            if math.gcd(a, b) == 1 and max(abs(a), b) > cap:
                assert max(map(abs, image((a, b)))) > max(abs(a), b), (map_, a, b)


def test_fallback_miss_without_escape_height_is_undecided():
    # x -> 3x + 1 has degree 1, so no escape height: a miss proves nothing.
    linear = FractalSystem("affq", (PolyTupleMap((parse_polynomial("3*x1 + 1", 1),)),),
                           (AffPoint((Fraction(0),)),), "linear")
    assert is_member(linear, AffPoint((Fraction(4),))).member
    message = r"\(5\) is not among the \d+ points of a bag with a map of no escape height"
    with pytest.raises(UndecidedError, match=message):
        is_member(linear, AffPoint((Fraction(5),)))
    # (x1^2, x1*x2 + x2) homogenizes to (z^2 : x1^2 : x1*x2 + x2*z), which
    # vanishes at (0 : 0 : 1) on the line at infinity.
    infinity = PolyTupleMap((parse_polynomial("x1^2", 2), parse_polynomial("x1*x2 + x2", 2)))
    assert infinity._escape_height() is None
    assert PolyTupleMap((parse_polynomial("x1^2 - x1/4", 1),))._escape_height() is not None


def _linear(coefficient, seeds):
    """{x -> coefficient*x} on the rational line, from the given seeds."""
    map_ = PolyTupleMap((parse_polynomial(f"{coefficient}*x1", 1),))
    return FractalSystem("affq", (map_,), tuple(AffPoint((Fraction(s),)) for s in seeds), "linear")


@pytest.mark.parametrize("coefficient, seed, query, member", [
    (-3, 0, 5, False), (-3, 0, Fraction(3, 2), False), (-3, 0, 1, False), (-3, 0, 4, False),
    (2, Fraction(1, 2), 5, False), (2, Fraction(1, 2), Fraction(3, 2), False),
    (2, Fraction(1, 2), 1, True), (2, Fraction(1, 2), 4, True),
])
def test_integer_linear_descent_ends_by_denominators(coefficient, seed, query, member):
    # Without the prune these walk 5/3, 5/9, ... (or 5/2, 5/4, ...) to the
    # depth limit and raise Undecided.
    system, point = _linear(coefficient, [seed]), AffPoint((Fraction(query),))
    result = is_member(system, point)
    assert result.member == member and not result.via_fallback
    if member:
        assert replay_certificate(system, result) == point


def _in_scaled_orbit(c, seeds, q):
    """The closed form: q = s*c^k for a seed s and some k >= 0."""
    if q == 0:
        return 0 in seeds
    for s in filter(None, seeds):
        power = 1
        while abs(s * power) <= abs(q):
            if s * power == q:
                return True
            power *= c
    return False


_SMALL_RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, -2, -3, -4, -5]), st.lists(_SMALL_RATIONALS, min_size=1,
       max_size=3), st.integers(0, 6), st.just(Fraction(1)) | _SMALL_RATIONALS)
def test_integer_linear_membership_matches_closed_form(c, seeds, k, factor):
    # Queries s*c^k, one of them scaled by a random rational, so that
    # members and near misses both turn up.
    system = _linear(c, seeds)
    point = AffPoint((seeds[0] * c**k * factor,))
    result = is_member(system, point)
    assert result.member == _in_scaled_orbit(c, seeds, point.coords[0])
    if result.member:
        assert replay_certificate(system, result) == point


def _forward_words(system, depth):
    """Every image of a seed under a word of at most ``depth`` maps, with no
    size pruning: an oracle that knows nothing of escape heights."""
    reached = set(system.seeds)
    frontier = list(reached)
    for _ in range(depth):
        frontier = [apply(m, p) for p in frontier for m in system.maps]
        reached.update(frontier)
    return reached


_POWERS4 = st.sampled_from([1, 4, 16])
_P1_SQUARES = st.builds(
    lambda maps, seed: FractalSystem("projq", tuple(maps), (ProjPoint(seed),), "squares"),
    st.lists(st.tuples(_POWERS4, _POWERS4).map(lambda c: ProjHomogMap(
        (binary_form([c[0], 0, 0]), binary_form([0, 0, c[1]])))), min_size=1, max_size=2),
    st.tuples(st.integers(-4, 4), st.integers(0, 4)).filter(lambda p: math.gcd(*p) == 1),
)
# x -> c2*x^2 + c1*x with c2 in {1, 4, 16, 1/4, 1/16} and c1 in {0, +-1, +-4, +-16}.
_A1_QUADRATICS = st.builds(
    lambda maps, seed: FractalSystem("affq", tuple(maps), (AffPoint((seed,)),), "quadratics"),
    st.lists(st.tuples(
        st.sampled_from([1, 4, 16, Fraction(1, 4), Fraction(1, 16)]),
        st.sampled_from([0, 1, -1, 4, -4, 16, -16]),
    ).map(lambda c: PolyTupleMap((Polynomial(1, [((2,), c[0]), ((1,), c[1])]),))),
        min_size=1, max_size=2),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4)),
)


@settings(max_examples=150)
@given(st.one_of(_P1_SQUARES, _A1_QUADRATICS))
@example(_drop_systems()[0])
@example(_drop_systems()[1])
def test_every_point_a_word_reaches_is_a_member(system):
    # Heights drop under these maps (16*(1/4)^2 = 1, (4 : 16) = (1 : 4)), so
    # a path may pass above its end; the fallback must still find it.
    for point in _forward_words(system, 3):
        result = is_member(system, point)
        assert result.member, point
        assert result.via_fallback or replay_certificate(system, result) == point


# --- exactness audit ---------------------------------------------------------


def test_audit_digits_clean(digits01):
    report = audit_exactness(digits01, 10**6)
    assert report.exact
    assert report.overlap_count == 0 and report.uncovered_count == 0
    assert report.seed_coverage[0].is_image  # 0 = 10*0


def test_audit_overlap_at_six(z_2x3x):
    report = audit_exactness(z_2x3x, 100)
    assert not report.exact
    overlap_points = {rec.point.value for rec in report.overlaps}
    assert 6 in overlap_points
    six = next(rec for rec in report.overlaps if rec.point.value == 6)
    witnesses = {(i, q.value) for i, q in six.witnesses}
    assert witnesses == {(0, 3), (1, 2)}


def brute_orbit_audit(system, bound):
    """Counts p = f_i(q) over the enumerated orbit with the point-level maps."""
    window = enumerate_system(system, bound).points()
    in_window = set(window)
    witnesses = {}
    for q in window:
        for i, map_ in enumerate(system.maps):
            image = apply(map_, q)
            if image in in_window:
                witnesses.setdefault(image, []).append((i, q))
    seeds = set(system.seeds)
    return {
        "total_points": len(window),
        "covered_count": len(witnesses),
        "overlaps": {p: sorted(w, key=str) for p, w in witnesses.items() if len(w) >= 2},
        "uncovered": sorted(
            (p for p in window if p not in witnesses and p not in seeds), key=str
        ),
        "seed_coverage": [(s, s in witnesses) for s in system.seeds],
    }


def fused_orbit_audit(system, bound):
    report = audit_exactness(system, bound)
    assert report.overlap_count == len(report.overlaps)  # nothing cut at max_listed
    return {
        "total_points": report.total_points,
        "covered_count": report.covered_count,
        "overlaps": {r.point: sorted(r.witnesses, key=str) for r in report.overlaps},
        "uncovered": sorted(report.uncovered, key=str),
        "seed_coverage": [tuple(c) for c in report.seed_coverage],
    }


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: e.name)
def test_orbit_audit_matches_brute_force(entry):
    system = load_corpus_system(entry.name)
    bound = min(entry.audit_bound, 2**10)
    expected = brute_orbit_audit(system, bound)
    assert fused_orbit_audit(system, bound) == expected
    assert bool(expected["overlaps"]) == (not entry.exact)


def test_orbit_audit_seed_hit_twice():
    # Seeds 1 and 2 with {2x, 3x-1}: 2 = 2*1 = 3*1-1, so the seed 2 is an
    # overlap, while the seed 1 is no image at all.
    system = FractalSystem(
        "int", (IntAffineMap(2, 0), IntAffineMap(3, -1)), (IntPoint(1), IntPoint(2)), "s"
    )
    report = audit_exactness(system, 200)
    assert fused_orbit_audit(system, 200) == brute_orbit_audit(system, 200)
    assert [(c.seed.value, c.is_image) for c in report.seed_coverage] == [(1, False), (2, True)]
    assert 2 in {r.point.value for r in report.overlaps}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from([-3, -2, 2, 3, 4]), st.integers(-6, 6)),
        min_size=1,
        max_size=3,
    ),
    st.lists(st.integers(-20, 20), min_size=1, max_size=3),
)
def test_orbit_audit_matches_brute_force_random(maps, seeds):
    system = FractalSystem(
        "int",
        tuple(IntAffineMap(a, b) for a, b in maps),
        tuple(IntPoint(s) for s in seeds),
        "random",
    )
    assert fused_orbit_audit(system, 500) == brute_orbit_audit(system, 500)


def test_audit_ambient_window_int(z_binary):
    # Z is a fractal with respect to {2x, 2x+1}: the whole window is covered.
    report = audit_exactness(z_binary, 10**3, window="ambient")
    assert report.exact


def test_audit_ambient_window_catches_bad_cover():
    mutated = FractalSystem(
        "int", (IntAffineMap(2, 0), IntAffineMap(5, 1)), (IntPoint(0),), "z-2x-5x1"
    )
    report = audit_exactness(mutated, 10**4, window="ambient")
    assert not report.exact
    # Uncovered are exactly the odd numbers not congruent to 1 mod 5:
    # 10^4 odds minus the 2000 covered ones.  Overlaps sit at 6 mod 10.
    assert report.uncovered_count == 8000
    assert report.overlap_count == 2000
    small = audit_exactness(mutated, 10, window="ambient")
    uncovered = {p.value for p in small.uncovered}
    assert 3 in uncovered  # 3 is neither 2q nor 5q+1


def test_audit_p1_window_not_a_fractal(p1_doubling):
    # The full rational projective line is self-similar but not a fractal:
    # most points (e.g. (3:1)) are not images under the doubling maps.
    report = audit_exactness(p1_doubling, 50, window="ambient")
    assert report.uncovered_count > 0
    uncovered = {p.coords for p in report.uncovered}
    assert (3, 1) in uncovered


# --- the ambient audit's certified source bounds on P^1 ---------------------


def binary_form(coeffs):
    """sum c_j x^(d-j) y^j for the coefficient list [c_0, ..., c_d]."""
    d = len(coeffs) - 1
    return Polynomial(2, [((d - j, j), c) for j, c in enumerate(coeffs)])


def resultant(f, g):
    """Res(F, G) of two coefficient lists of one degree d, as the
    determinant of their Sylvester matrix."""
    d = len(f) - 1
    rows = [
        [Fraction(0)] * i + [Fraction(c) for c in h] + [Fraction(0)] * (d - 1 - i)
        for h in (f, g)
        for i in range(d)
    ]
    det = Fraction(1)
    for col in range(2 * d):
        pivot = next((r for r in range(col, 2 * d) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, 2 * d):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def p1_window(bound):
    """Every canonical point (a:b) of P^1(Q) with max(|a|, |b|) <= bound."""
    return [
        (a, b)
        for a in range(bound + 1)
        for b in range(-bound, bound + 1)
        if math.gcd(a, b) == 1 and (a > 0 or b == 1)
    ]


# Pairs of binary forms of degree 2 or 3 with coefficients in [-5, 5] and
# Res(F, G) != 0.
_COEFFS = st.integers(2, 3).flatmap(
    lambda d: st.tuples(*[st.lists(st.integers(-5, 5), min_size=d + 1, max_size=d + 1)] * 2)
).filter(lambda coeffs: resultant(*coeffs) != 0)


def monomials(nvars, degree):
    """Exponent tuples of one degree in lexicographic order, largest first."""
    box = itertools.product(range(degree + 1), repeat=nvars)
    return sorted((e for e in box if sum(e) == degree), reverse=True)


def ternary_form(coeffs, degree):
    """A form on P^2 from its coefficients in the order of ``monomials``."""
    return Polynomial(3, list(zip(monomials(3, degree), coeffs)))


def _ternary(degree, coeffs=st.integers(-3, 3)):
    size = len(monomials(3, degree))
    return st.lists(coeffs, min_size=size, max_size=size).map(lambda c: ternary_form(c, degree))


# Triples of nonzero ternary forms of degree 1 to 3 with coefficients in [-5, 5].
_TRIPLES = st.integers(1, 3).flatmap(
    lambda d: st.tuples(*[_ternary(d, st.integers(-5, 5)).filter(bool)] * 3)
)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_COEFFS.map(lambda cs: tuple(map(binary_form, cs))), _TRIPLES))
def test_macaulay_solutions_solve_bezout(forms):
    # Every solution gives sum_j U_ij*F_j = x_i^D, D = (n+1)(d-1) + 1, with
    # U_ij of degree D - d listed form after form.
    nvars, d = len(forms), forms[0].total_degree()
    solutions = _macaulay_solutions(forms)
    if nvars == 2:
        assert solutions is not None  # _COEFFS draws Res(F, G) != 0
    assume(solutions is not None)
    top = nvars * (d - 1) + 1
    shifts = monomials(nvars, top - d)
    for i, solution in enumerate(solutions):
        total = Polynomial(nvars, [])
        for j, form in enumerate(forms):
            coeffs = solution[j * len(shifts):(j + 1) * len(shifts)]
            total = total + Polynomial(nvars, list(zip(shifts, coeffs))) * form
        power = tuple(top if k == i else 0 for k in range(nvars))
        assert total == Polynomial(nvars, [(power, 1)])


def _codes(forms):
    return [code for code, _ in ProjHomogMap(tuple(forms)).problems(None)]


def _nonzero_binary_form(degree):
    coeffs = st.lists(st.integers(-4, 4), min_size=degree + 1, max_size=degree + 1)
    return coeffs.filter(any).map(binary_form)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
        lambda ek: st.tuples(*map(_nonzero_binary_form, (ek[0], ek[1], ek[1])))
    )
)
def test_planted_common_factor_is_rejected(factors):
    # H*A : H*B with H linear or quadratic share the factor H.
    h, a, b = factors
    assert _codes((h * a, h * b)) == ["CommonZero"]


# Pairs of nonzero binary forms of degree 2 to 4 with small coefficients, so
# that shared roots such as (1:0), (0:1) or (1:-1) turn up often.
_ANY_PAIR = st.integers(2, 4).flatmap(
    lambda d: st.tuples(
        *[st.lists(st.integers(-2, 2), min_size=d + 1, max_size=d + 1).filter(any)] * 2
    )
)


@settings(max_examples=150, deadline=None)
@given(_ANY_PAIR)
def test_p1_forms_validate_exactly_when_resultant_is_nonzero(coeffs):
    forms = [binary_form(c) for c in coeffs]
    codes = _codes(forms)
    assert codes == ([] if resultant(*coeffs) != 0 else ["CommonZero"])
    if any(all(f.evaluate_int(q) == 0 for f in forms) for q in p1_window(10)):
        assert codes == ["CommonZero"]


@settings(max_examples=40, deadline=None)
@given(_COEFFS, st.integers(1, 200))
def test_source_bound_against_brute_force(coeffs, bound):
    map_ = ProjHomogMap(tuple(binary_form(c) for c in coeffs))
    cutoff = map_.source_bound(bound)
    image = map_.image_fn()
    for q in p1_window(bound):
        if max(map(abs, image(q))) <= bound:
            assert max(map(abs, q)) <= cutoff, (q, image(q))


def test_source_bound_tight_on_p1_doubling(p1_doubling):
    # The largest H(q) whose image has height <= 300, by brute force.
    reach = []
    for map_ in p1_doubling.maps:
        image = map_.image_fn()
        reach.append(max(max(q) for q in p1_window(300) if max(map(abs, image(q))) <= 300))
    assert [m.source_bound(300) for m in p1_doubling.maps] == reach == [17, 24]


# --- the exact morphism test on P^2 ------------------------------------------


def _combination(generators, degree):
    """Forms of a degree in the ideal of the generators: sum_k G_k*L_k with
    random G_k of the complementary degrees."""
    return st.tuples(*[_ternary(degree - g.total_degree()) for g in generators]).map(
        lambda cofactors: sum((c * g for c, g in zip(cofactors, generators)), Polynomial(3, []))
    )


def _line_generators(point):
    """Linear forms whose only common zero is the point: the 2x2 minors."""
    a, b, c = point
    return [Polynomial(3, [((1, 0, 0), b), ((0, 1, 0), -a)]),
            Polynomial(3, [((1, 0, 0), c), ((0, 0, 1), -a)]),
            Polynomial(3, [((0, 1, 0), c), ((0, 0, 1), -b)])]


_POINTS = st.tuples(*[st.integers(-4, 4)] * 3).filter(any)
_NON_SQUARES = st.integers(-10, 30).filter(lambda c: c < 0 or math.isqrt(c) ** 2 != c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda d: _POINTS.flatmap(lambda p: st.tuples(*[_combination(_line_generators(p), d)] * 3))
))
def test_planted_rational_zero_is_rejected(forms):
    assume(all(forms))
    assert _codes(forms) == ["CommonZero"]


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 3).flatmap(lambda d: _NON_SQUARES.flatmap(lambda c: st.tuples(*[
    _combination([Polynomial(3, [((2, 0, 0), 1), ((0, 2, 0), -c)]),
                  Polynomial(3, [((0, 0, 1), 1)])], d)] * 3))))
def test_planted_quadratic_zero_is_rejected(forms):
    # Forms in the ideal (x1^2 - c*x2^2, x3) share the zero (sqrt(c):1:0),
    # which no rational grid holds.
    assume(all(forms))
    assert _codes(forms) == ["CommonZero"]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(*[_ternary(d, st.integers(-2, 2))] * 3)))
def test_p2_triples_with_a_small_rational_zero_are_rejected(forms):
    assume(all(forms))
    box = itertools.product(range(-5, 6), repeat=3)
    if any(any(q) and all(f.evaluate_int(q) == 0 for f in forms) for q in box):
        assert _codes(forms) == ["CommonZero"]


@pytest.mark.parametrize("nvars, degree", [(2, 2), (2, 7), (3, 2), (3, 3), (3, 4), (4, 2)])
def test_diagonal_maps_validate(nvars, degree):
    forms = [Polynomial(nvars, [(tuple(degree if j == i else 0 for j in range(nvars)), c)])
             for i, c in enumerate((1, 2, 3, -5)[:nvars])]
    system = FractalSystem("projq", (ProjHomogMap(tuple(forms)),), (ProjPoint((1,) * nvars),))
    assert validate_system(system) == []


@settings(max_examples=20, deadline=None)
@given(st.tuples(*[_ternary(2)] * 3), st.integers(1, 12))
def test_p2_source_bound_against_brute_force(forms, bound):
    assume(all(forms) and not _codes(forms))
    map_ = ProjHomogMap(forms)
    cutoff, image = map_.source_bound(bound), map_.image_fn()
    for q in itertools.product(range(-bound, bound + 1), repeat=3):
        if math.gcd(*q) == 1 and max(map(abs, image(q))) <= bound:
            assert max(map(abs, q)) <= cutoff, (q, image(q))


def _diagonal(degree, nvars):
    return tuple(Polynomial(nvars, [(tuple(degree * (j == i) for j in range(nvars)), 1)])
                 for i in range(nvars))


def test_macaulay_matrix_past_the_limit_is_bound_too_large():
    # Every P^1 map the parser admits fits: (x^64 : y^64) has a 128 x 128
    # matrix.  (x^6 : y^6 : z^6) on P^2 has a 153 x 198 one.
    assert spaces._MACAULAY_LIMIT == 128 * 128
    assert _codes(_diagonal(64, 2)) == []
    system = FractalSystem("projq", (ProjHomogMap(_diagonal(6, 3)),), (ProjPoint((1, 1, 1)),))
    assert [v.code for v in validate_system(system)] == ["BoundTooLarge"]
    message = (f"^system fails validation: BoundTooLarge at map 0: its Macaulay matrix is "
               f"153 x 198, past the limit of {spaces._MACAULAY_LIMIT} entries$")
    with pytest.raises(ConfigError, match=message):
        enumerate_system(system, 10)


def test_exact_solve_past_its_limit_is_bound_too_large():
    # (c*x1^3 : x1^2*x2 : x1*x3^2) vanish on x1 = 0, so the elimination mod p
    # fails and the exact one decides.  Its 36 x 45 matrix costs 36^2 * 45
    # times the bits of c, which passes the limit from c = 2^171 on.
    per_bit = 36 * 36 * 45
    assert spaces._MACAULAY_EXACT_LIMIT // per_bit == 171
    for c, codes in ((2**170, ["CommonZero"]), (2**171, ["BoundTooLarge"])):
        forms = (Polynomial(3, [((3, 0, 0), c)]), Polynomial(3, [((2, 1, 0), 1)]),
                 Polynomial(3, [((1, 0, 2), 1)]))
        assert _codes(forms) == codes
    (message,) = [m for _, m in ProjHomogMap(forms).problems(None)]
    assert message == ("its Macaulay matrix is 36 x 45 with 172-bit entries, "
                       "past the limit for an exact solve")


def test_elimination_mod_p_decides_whatever_the_coefficients():
    # Random P^1 pairs of degree 64 with 4096-bit coefficients validate by
    # the elimination mod p alone; their exact solve would take minutes.
    rng = random.Random(7)
    for _ in range(2):
        forms = tuple(Polynomial(2, [((64 - k, k), rng.getrandbits(4096) - 2**4095)
                                     for k in range(65)]) for _ in range(2))
        assert _codes(forms) == []


def test_valid_map_whose_resultant_the_prime_divides():
    # Res(x^2, p*y^2 + x*y) = p^2: mod p both forms vanish at (0:1), so the
    # exact solve decides, and the map is valid.
    p = spaces._MACAULAY_PRIME
    forms = (Polynomial(2, [((2, 0), 1)]), Polynomial(2, [((0, 2), p), ((1, 1), 1)]))
    assert spaces._macaulay_solutions(forms, p) is None
    assert _codes(forms) == []
    assert _codes((forms[0], Polynomial(2, [((1, 1), 1)]))) == ["CommonZero"]


def test_source_bound_past_the_exact_limit_is_bound_too_large(monkeypatch, tmp_path):
    # A degree-64 P^1 pair with 512-bit coefficients validates by the
    # elimination mod p, but the exact solve behind its source bound would
    # run for minutes.  The audit names the map before any window pass.
    rng = random.Random(11)
    forms = tuple(Polynomial(2, [((64 - k, k), rng.getrandbits(512) | 1) for k in range(65)])
                  for _ in range(2))
    system = FractalSystem("projq", (ProjHomogMap(forms),), (ProjPoint((1, 1)),), "wide")
    start = time.perf_counter()
    assert validate_system(system) == []
    spaces.save_system(system, tmp_path / "wide.json")
    argv = ["--out-dir", str(tmp_path), "audit", str(tmp_path / "wide.json"), "--bound", "10",
            "--window", "ambient"]
    assert main(argv) == 3
    entry = SPACES["projq"]._replace(window=lambda bound, seeds: pytest.fail("window pass"))
    monkeypatch.setitem(SPACES, "projq", entry)
    monkeypatch.setitem(spaces._SPACE_OF_TYPE, ProjPoint, entry)
    message = (r"^map 0: its Macaulay matrix is 128 x 128 with 512-bit entries, "
               r"past the limit for an exact solve$")
    with pytest.raises(BoundTooLargeError, match=message):
        audit_exactness(system, 10, "ambient")
    assert time.perf_counter() - start < 5  # 1 s on a shared 2-vCPU VM


def brute_ambient_audit(system, window):
    """Unpruned: every map applied to every point of the window."""
    to_point = SPACES[system.space].to_point
    in_window = set(window)
    witnesses = {}
    for i, map_ in enumerate(system.maps):
        image = map_.image_fn()
        for q in window:
            p = image(q)
            if p in in_window:
                witnesses.setdefault(p, []).append((i, to_point(q)))
    return {
        "total_points": len(window),
        "covered_count": len(witnesses),
        "overlaps": {to_point(p): sorted(w) for p, w in witnesses.items() if len(w) >= 2},
        "uncovered": sorted(to_point(q) for q in window if q not in witnesses),
    }


def pruned_ambient_audit(system, bound):
    report = audit_exactness(system, bound, window="ambient", max_listed=10**6)
    assert report.overlap_count == len(report.overlaps)
    assert report.uncovered_count == len(report.uncovered)
    return {
        "total_points": report.total_points,
        "covered_count": report.covered_count,
        "overlaps": {r.point: sorted(r.witnesses) for r in report.overlaps},
        "uncovered": sorted(report.uncovered),
    }


@pytest.mark.parametrize("bound", [10, 50, 300])
@pytest.mark.parametrize("name", ["p1-doubling", "p1-powers2-full"])
def test_ambient_audit_matches_brute_force(name, bound):
    system = load_corpus_system(name)
    assert pruned_ambient_audit(system, bound) == brute_ambient_audit(system, p1_window(bound))


@settings(max_examples=25, deadline=None)
@given(st.lists(_COEFFS, min_size=1, max_size=2), st.sampled_from([10, 30, 60]))
def test_ambient_audit_matches_brute_force_random(maps, bound):
    system = FractalSystem(
        "projq",
        tuple(ProjHomogMap(tuple(binary_form(c) for c in coeffs)) for coeffs in maps),
        (ProjPoint((0, 1)),),
        "random",
    )
    assert pruned_ambient_audit(system, bound) == brute_ambient_audit(system, p1_window(bound))


def test_ambient_audit_image_calls(monkeypatch):
    calls = 0
    for map_kind in (IntAffineMap, GaussAffineMap, ProjHomogMap):

        def counting_image_fn(self, image_fn=map_kind.image_fn):
            image = image_fn(self)

            def counted(q):
                nonlocal calls
                calls += 1
                return image(q)

            return counted

        monkeypatch.setattr(map_kind, "image_fn", counting_image_fn)
    # Both passes over every window point with every map would make 438,368
    # calls on p1-doubling, 80,004 on z-2x3x and 25,706 on gauss-base (no
    # overlaps, so one pass).
    for name, bound, limit in [
        ("p1-doubling", 300, 2_500),
        ("z-2x3x", 10**4, 35_000),
        ("gauss-base", 4096, 14_000),
    ]:
        calls = 0
        report = audit_exactness(load_corpus_system(name), bound, window="ambient")
        assert report.overlap_count or name == "gauss-base"  # so the witness pass runs
        assert 0 < calls <= limit, name


def test_ambient_audit_memory(p1_doubling):
    # The window is streamed: listing its 109,592 points took 14.5 MiB.
    tracemalloc.start()
    try:
        audit_exactness(p1_doubling, 300, window="ambient")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# --- certified source bounds on Z and Z[i] ------------------------------------


def lattice_window(space, bound):
    """Every point of Z or Z[i] of size at most the bound, unordered."""
    side = range(-bound, bound + 1)
    if space == "int":
        return list(side)
    return [(a, b) for a in side for b in side if a * a + b * b <= bound]


_INT_MAPS = st.builds(
    IntAffineMap,
    st.integers(2, 6) | st.integers(-6, -2),
    st.integers(-30, 30).filter(bool),
)
_GAUSS = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).map(lambda p: GaussPoint(*p))
_GAUSS_MAPS = st.builds(
    GaussAffineMap,
    _GAUSS.filter(lambda a: gauss_norm(a) >= 2),
    _GAUSS.filter(any),
)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([("int", _INT_MAPS), ("gauss", _GAUSS_MAPS)]).flatmap(
        lambda kind: st.tuples(st.just(kind[0]), st.lists(kind[1], min_size=1, max_size=3))
    ),
    st.integers(0, 120),
)
def test_lattice_source_bounds_against_unpruned_audit(space_maps, bound):
    space, maps = space_maps
    seed = IntPoint(0) if space == "int" else GaussPoint(0, 0)
    system = FractalSystem(space, tuple(maps), (seed,), "random")
    window = lattice_window(space, bound)
    size = SPACES[space].size
    for map_ in maps:
        image, cutoff = map_.image_fn(), map_.source_bound(bound)
        assert all(size(q) <= cutoff for q in window if size(image(q)) <= bound)
    assert pruned_ambient_audit(system, bound) == brute_ambient_audit(system, window)


@settings(max_examples=200, deadline=None)
@given(_GAUSS_MAPS, st.integers(0, 10**6))
def test_gauss_source_bound_rounds_outward(map_, bound):
    # The next size breaks N(a)*n <= (sqrt(bound) + sqrt(N(b)))^2, the real
    # bound, which holds exactly when N(a)*n - bound - N(b) <= 2*sqrt(bound*N(b)).
    norm_a, norm_b = gauss_norm(map_.a), gauss_norm(map_.b)
    excess = norm_a * (map_.source_bound(bound) + 1) - bound - norm_b
    assert excess > 0 and excess**2 > 4 * bound * norm_b


def _least_exact_bound(space, a, digits):
    """The least B with |b| <= (|a| - 1)*B for every digit b on Z, and
    sqrt(N(b)) <= (sqrt(N(a)) - 1)*sqrt(B) on Z[i]: past it the preimage q of
    a window point a*q + b lies in the window too."""
    na, nbs = (abs(a), [abs(b) for b in digits]) if space == "int" else (
        gauss_norm(a), [gauss_norm(b) for b in digits])

    def fits(bound, nb):
        if space == "int":
            return (na - 1) * bound >= nb
        room = (na - 1) * bound - nb  # squares the Z[i] condition exactly
        return room >= 0 and 4 * nb * bound <= room * room

    return next(b for b in itertools.count() if all(fits(b, nb) for nb in nbs))


def _window_size(space, bound):
    """Closed forms: 2B + 1 integers, sum over |x| <= sqrt(B) of 2*isqrt(B - x^2) + 1."""
    if space == "int":
        return 2 * bound + 1
    r = math.isqrt(bound)
    return sum(2 * math.isqrt(bound - x * x) + 1 for x in range(-r, r + 1))


def _assert_digit_system_audits(space, a, digits, bounds, complete):
    """Kátai-Szabó: maps a*x + b_i whose digits b_i are distinct mod a meet
    nowhere in the ring, so no audit finds an overlap; when the digits are a
    complete residue system every point is a*q + b_i for exactly one (i, q),
    so the ambient audit is exact from the least exact bound on."""
    if space == "int":
        maps, seed = tuple(IntAffineMap(a, b) for b in digits), IntPoint(0)
    else:
        maps = tuple(GaussAffineMap(GaussPoint(*a), GaussPoint(*b)) for b in digits)
        seed = GaussPoint(0, 0)
    system = FractalSystem(space, maps, (seed,), "digits")
    for bound in bounds:
        for window in ("orbit", "ambient"):
            assert audit_exactness(system, bound, window).overlap_count == 0
    if complete:
        least = _least_exact_bound(space, a, digits)
        for bound in (least, least + 1) + tuple(b for b in bounds if b > least):
            report = audit_exactness(system, bound, "ambient")
            assert report.exact
            assert report.covered_count == report.total_points == _window_size(space, bound)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, -2, -3, -4, -5]).flatmap(lambda a: st.tuples(
    st.just(a), st.sets(st.integers(0, abs(a) - 1), min_size=1),
    st.lists(st.integers(-3, 3), min_size=abs(a), max_size=abs(a)))), st.integers(0, 200))
@example((-3, {0, 1, 2}, [2, 0, -3]), 50)
def test_digit_systems_on_z_against_katai_szabo(digits, bound):
    a, residues, shifts = digits
    digits = [r + a * t for r, t in zip(sorted(residues), shifts)]
    _assert_digit_system_audits("int", a, digits, (bound,), len(residues) == abs(a))


@pytest.mark.parametrize("a, digits, complete", [
    ((1, 1), [(0, 0), (1, 0)], True),  # gauss-base, exact from B = 6
    ((2, 0), [(0, 0), (1, 0), (0, 1), (1, 1)], True),
    ((1, 2), [(b, 0) for b in range(5)], True),
    ((2, 0), [(0, 0), (1, 1)], False),
])
def test_digit_systems_on_gauss_against_katai_szabo(a, digits, complete):
    _assert_digit_system_audits("gauss", a, digits, (1, 50, 300), complete)


def test_corpus_digit_systems_against_katai_szabo(z_binary, gauss_base, digits01):
    assert _least_exact_bound("gauss", (1, 1), [(0, 0), (1, 0)]) == 6
    for system, bound, points in ((z_binary, 1000, 2001), (gauss_base, 4096, 12853)):
        report = audit_exactness(system, bound, "ambient")
        assert report.exact and report.covered_count == report.total_points == points
    report = audit_exactness(digits01, 1000, "ambient")
    assert (report.covered_count, report.overlap_count) == (401, 0)


@pytest.mark.parametrize(
    "window, name, bound, points",
    [
        ("orbit", "z-2x3x", 10**6, 142),
        ("ambient", "z-binary", 70, 141),
        ("ambient", "gauss-base", 30, 97),
        ("ambient", "p1-doubling", 10, 128),
    ],
)
def test_audit_window_point_limit(monkeypatch, window, name, bound, points):
    system = load_corpus_system(name)
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_POINTS", points)
    assert audit_exactness(system, bound, window).total_points == points
    monkeypatch.setattr(enumeration, "DEFAULT_MAX_POINTS", points - 1)
    with pytest.raises(BoundTooLargeError, match=f"more than {points - 1} points"):
        audit_exactness(system, bound, window)


def test_audit_gauss_clean_small(gauss_base):
    report = audit_exactness(gauss_base, 2**12)
    assert report.exact


def test_audit_exact_corpus_projective(p1_doubling, p1_full):
    for system in (p1_doubling, p1_full):
        report = audit_exactness(system, 2**20)
        assert report.exact


def test_audit_exact_corpus_affine(q2_powers2):
    report = audit_exactness(q2_powers2, 2**12)
    assert report.exact


# --- intersection probe -------------------------------------------------------


def test_intersection_line_sum_six(q2_powers2):
    curve = parse_polynomial("x1 + x2 - 6", 2)
    probe = curve_intersection_probe(q2_powers2, curve, [16, 256, 4096])
    assert probe.counts == (2, 2, 2)
    assert probe.stabilized
    hits = {tuple(c for c in p.coords) for p in probe.hits_per_bound[-1]}
    assert hits == {(Fraction(2), Fraction(4)), (Fraction(4), Fraction(2))}


def test_intersection_diagonal_grows(q2_powers2):
    curve = parse_polynomial("x1 - x2", 2)
    probe = curve_intersection_probe(q2_powers2, curve, [16, 256, 4096])
    assert probe.counts[0] < probe.counts[1] < probe.counts[2]
    assert not probe.stabilized


def test_intersection_hyperbola(q2_powers2):
    # x1*x2 = 1 over this nonnegative-power orbit: only (1,1) qualifies,
    # pinned by the brute evaluation below.
    curve = parse_polynomial("x1*x2 - 1", 2)
    bag = enumerate_system(q2_powers2, 4096)
    brute = [
        e.point
        for e in bag.entries
        if e.point.coords[0] * e.point.coords[1] == 1
    ]
    assert [p.coords for p in brute] == [(Fraction(1), Fraction(1))]
    probe = curve_intersection_probe(q2_powers2, curve, [4, 256, 4096])
    assert probe.counts == (1, 1, 1)
    assert probe.stabilized


def test_intersection_requires_affine(z_binary):
    with pytest.raises(UnsupportedSpaceError):
        curve_intersection_probe(z_binary, parse_polynomial("x1", 1), [10])


# --- forms with a common zero -------------------------------------------------


def _form(*terms):
    return [{"coeff": c, "exponents": e} for c, e in terms]


# (x^2 - 16y^2 : xy - 4y^2) vanishes at (4:1): the forms share the factor
# x - 4y, so the system fails validation.
_ZERO_AT_4_1 = {
    "space": "projq",
    "label": "zero-at-4-1",
    "maps": [{"kind": "proj_homog", "forms": [
        _form(("1", [2, 0]), ("-16", [0, 2])),
        _form(("1", [1, 1]), ("-4", [0, 2])),
    ]}],
    "seeds": [["4", "1"]],
}

# (x1^2 - 16x2^2 : x1x2 - 4x2^2 : x3^2) vanishes only at (4:1:0), outside
# the box [-3, 3]^3, and (x1^2 - 2x2^2 : x3^2 : x3^2) only at (sqrt(2):1:0),
# which is not rational.
_ZERO_AT_4_1_0 = {
    "space": "projq",
    "label": "zero-at-4-1-0",
    "maps": [{"kind": "proj_homog", "forms": [
        _form(("1", [2, 0, 0]), ("-16", [0, 2, 0])),
        _form(("1", [1, 1, 0]), ("-4", [0, 2, 0])),
        _form(("1", [0, 0, 2])),
    ]}],
    "seeds": [["4", "1", "0"]],
}
_ZERO_AT_ROOT_2 = {
    **_ZERO_AT_4_1_0,
    "label": "zero-at-root-2",
    "maps": [{"kind": "proj_homog", "forms": [
        _form(("1", [2, 0, 0]), ("-2", [0, 2, 0])),
        _form(("1", [0, 0, 2])),
        _form(("1", [0, 0, 2])),
    ]}],
    "seeds": [["1", "1", "1"]],
}


def test_zero_image_names_map_and_point():
    # Validation is exact on P^2, so no valid system reaches (0:0:0); the
    # raw map still refuses to send (4:1:0) there.
    system = system_from_dict(_ZERO_AT_4_1_0)
    with pytest.raises(ZeroProjectivePointError):
        apply(system.maps[0], ProjPoint((4, 1, 0)))
    message = r"^system fails validation: CommonZero at map 0: "
    for system in (system, system_from_dict(_ZERO_AT_ROOT_2)):
        assert [(v.code, v.where, v.index) for v in validate_system(system)] == [
            ("CommonZero", "map", 0)
        ]
        with pytest.raises(ConfigError, match=message):
            enumerate_system(system, 100)
        with pytest.raises(ConfigError, match=message):
            audit_exactness(system, 100)


def test_forms_with_a_common_factor_get_no_cutoff(tmp_path, capsys):
    # ((x^2 + y^2) x : (x^2 + y^2) y) acts as the identity on P^1(Q), and
    # the forms of _ZERO_AT_4_1 share the factor x - 4y.  Res = 0 for both,
    # so neither is an endomorphism and neither reaches a source bound.
    identity = system_from_dict({
        "space": "projq",
        "label": "identity-times-x2-plus-y2",
        "maps": [{"kind": "proj_homog", "forms": [
            _form(("1", [3, 0]), ("1", [1, 2])),
            _form(("1", [2, 1]), ("1", [0, 3])),
        ]}],
        "seeds": [["1", "1"]],
    })
    message = r"^system fails validation: CommonZero at map 0: "
    for system in (identity, system_from_dict(_ZERO_AT_4_1)):
        assert [(v.code, v.where, v.index) for v in validate_system(system)] == [
            ("CommonZero", "map", 0)
        ]
        with pytest.raises(ConfigError, match=message):
            enumerate_system(system, 100)
        with pytest.raises(ConfigError, match=message):
            audit_exactness(system, 10, window="ambient")
    # dim gave {identity in disguise, (x^2 : y^2)} the dimension 0.788.
    squares = load_corpus_system("p1-doubling").maps[0]
    path = tmp_path / "identity.json"
    doc = system_to_dict(FractalSystem("projq", identity.maps + (squares,), identity.seeds))
    path.write_text(json.dumps(doc))
    assert main(["--out-dir", str(tmp_path), "dim", str(path)]) == 2
    err = capsys.readouterr().err
    assert "CommonZero at map 0" in err and "map 1" not in err
