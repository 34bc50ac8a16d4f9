"""Bounded forward-orbit enumeration, membership with certificates,
exactness audits of the fractal equation, and curve-intersection probes.

The enumerator is a breadth-first closure of the seeds under the system's
maps, pruning every image whose size exceeds the bound.  Internally it
works on light payloads (ints, integer tuples, ECPoints) rather than
wrapper objects, so bags of a few million points stay affordable; the
point objects, whose order every output keeps, are made lazily.  The
closure always terminates, whatever the maps: every space holds finitely
many points of size at most the bound (Northcott), the enumerator keeps
only those, and the visited set makes revisits impossible, so it expands
each such point at most once.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional

from .errors import (
    BoundTooLargeError,
    ConfigError,
    UndecidedError,
    UnsupportedMapKindError,
    UnsupportedSpaceError,
)
from .heights import SizeValue, _log
from .polynomials import Polynomial
from .spaces import (
    SPACES,
    AffPoint,
    FractalSystem,
    PolyTupleMap,
    Space,
    SpacePoint,
    _homogenized,
    apply,
    as_bound,
    has_other_arity,
    point_space,
    require_valid,
)

DEFAULT_MAX_POINTS = 10_000_000


class BagEntry(NamedTuple):
    point: SpacePoint
    size: SizeValue
    depth: int


class _Entries(Sequence):
    """Read-only view of sorted bag records; builds each entry when read.
    ``records`` are the sorted ``(size, payload, depth)`` records themselves."""

    def __init__(self, records: list, to_point):
        self.records, self._to_point = records, to_point

    def _entry(self, record) -> BagEntry:
        size, payload, depth = record
        return BagEntry(self._to_point(payload), SizeValue(size, _log(size)), depth)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(map(self._entry, self.records[index]))
        return self._entry(self.records[index])

    def __iter__(self):
        return map(self._entry, self.records)

    def __eq__(self, other):
        if not isinstance(other, (list, _Entries)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class PointBag:
    """Result of bounded enumeration: canonical, deduplicated points.

    The bag holds one ``(size, payload, depth)`` record per point, in
    discovery order, and never rewrites them.  ``entries`` and ``points``
    sort a copy by size, then payload under the key that the space's
    ``sort_key`` builds from the bound (point order), so a bag at a smaller
    bound is a prefix of the bag at a larger one.  Sizes and membership read
    the records and build no point.
    """

    def __init__(self, label, space, bound, size_kind, records, to_point, truncated):
        self.label = label
        self.space = space
        self.bound = bound
        self.size_kind = size_kind
        self.truncated = truncated
        self._items = records
        self._to_point = to_point
        key = SPACES[space].sort_key(bound)
        self._key = None if key is None else lambda r: (r[0], key(r[1]))

    def __len__(self):
        return len(self._items)

    def _sorted(self) -> list:
        return sorted(self._items, key=self._key)

    @property
    def entries(self) -> Sequence[BagEntry]:
        """The points in order; each ``BagEntry`` is built when it is read."""
        return _Entries(self._sorted(), self._to_point)

    def points(self) -> list[SpacePoint]:
        return [self._to_point(r[1]) for r in self._sorted()]

    def raw_sizes(self) -> list[int]:
        """Sizes in nondecreasing order."""
        return sorted([r[0] for r in self._items])

    def log_sizes(self) -> list[float]:
        return list(map(_log, self.raw_sizes()))

    def has_payload(self, payload) -> bool:
        """Whether the bag holds the point with this canonical payload."""
        return any(r[1] == payload for r in self._items)

    def max_log_bound(self) -> float:
        return _log(self.bound)


# ---------------------------------------------------------------------------
# Breadth-first closure on payloads
# ---------------------------------------------------------------------------


def _compile(system: FractalSystem, bound_int: int) -> tuple[Space, list, list]:
    """The validated system as its space entry, its seed payloads and one
    image closure per map, in map order."""
    require_valid(system)
    space = SPACES[system.space]
    seeds = [space.payload(s) for s in system.seeds]
    for payload in seeds:
        if space.size(payload) > bound_int:
            raise ConfigError(
                f"bound {bound_int} is below the size of seed {space.to_point(payload)}"
            )
    return space, seeds, [m.image_fn() for m in system.maps]


def _raw_orbit(
    compiled: tuple,
    bound_int: int,
    max_points: int,
    counts: Optional[dict] = None,
) -> tuple[list, bool]:
    """BFS closure on payloads: (size, payload, depth) records in discovery
    order; a generation that a cut may reach is expanded in point order.

    When a ``counts`` dict is supplied, every repeat hit is tallied there:
    an in-bound image that is already a seed or already discovered.  A
    non-seed point's first hit is its discovery and is not tallied, so its
    number of representations p = f_i(q) over the expanded points is
    ``1 + counts.get(p, 0)``; a seed's is ``counts.get(p, 0)``.  Because
    each window point is expanded exactly once, that is what the
    exactness audit needs, without a dict entry per point.
    """
    space, seeds, images = compiled
    size_fn = space.size
    frontier = list(dict.fromkeys(seeds))
    if len(frontier) > max_points:
        raise ConfigError(f"max_points {max_points} is below the {len(frontier)} distinct seeds")
    seen = set(frontier)
    records = [(size_fn(p), p, 0) for p in frontier]  # (size, payload, depth)

    depth = 0
    truncated = False
    map_count = len(images)
    order = space.sort_key(bound_int)
    while frontier and not truncated:
        depth += 1
        # Intra-generation order only matters when a truncation cut could
        # land in this generation; the final sort fixes the order otherwise.
        if len(records) + map_count * len(frontier) >= max_points:
            frontier.sort(key=order)
        next_frontier = []
        seen_add = seen.add
        rec_append = records.append
        next_append = next_frontier.append
        for payload in frontier:
            for image in images:
                child = image(payload)
                child_size = size_fn(child)
                if child_size > bound_int:
                    continue
                if child in seen:
                    if counts is not None:
                        counts[child] = counts.get(child, 0) + 1
                    continue
                if len(records) >= max_points:
                    truncated = True
                    break
                seen_add(child)
                rec_append((child_size, child, depth))
                next_append(child)
            if truncated:
                break
        frontier = next_frontier
    return records, truncated


def enumerate_system(
    system: FractalSystem,
    bound,
    max_points: int = DEFAULT_MAX_POINTS,
) -> PointBag:
    """Breadth-first closure of the seeds under the maps, to size <= bound.

    Output order is deterministic: sorted by (size, coordinate order), a
    sort the bag defers to its first ordered access.  When max_points is
    hit and one more point is found, the BFS stops there and the bag is
    flagged truncated.  Seeds count as points, so max_points below the
    number of distinct seeds raises ConfigError.
    """
    if max_points < 1:
        raise ConfigError(f"max_points must be at least 1, got {max_points}")
    bound_int = as_bound(bound)
    compiled = _compile(system, bound_int)
    records, truncated = _raw_orbit(compiled, bound_int, max_points)
    space = compiled[0]
    return PointBag(
        label=system.label,
        space=system.space,
        bound=bound_int,
        size_kind=space.size_kind,
        records=records,
        to_point=space.to_point,
        truncated=truncated,
    )


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------


class MembershipResult(NamedTuple):
    member: bool
    seed: Optional[SpacePoint]
    path: tuple[int, ...]  # map indices applied from the seed, in order
    via_fallback: bool


def is_member(
    system: FractalSystem,
    point: SpacePoint,
    depth_limit: int = 10_000,
    fallback_bag: Optional[PointBag] = None,
) -> MembershipResult:
    """Decide reachability of a point from the seeds, with a certificate.

    Uses backward descent through exact preimages when every map supports
    one.  Otherwise the decision falls back to an enumerated bag whose
    bound must cover the queried point (flagged in the result), and on a
    miss the maps' escape heights too, except on ec, where the bound stays
    the query's and its soundness is open.  A point missing from a truncated
    bag, or with a map that has no escape height, raises UndecidedError.
    """
    if depth_limit < 1:
        raise ConfigError(f"depth_limit must be at least 1, got {depth_limit}")
    space = point_space(point)
    if space.name != system.space:
        raise ConfigError("point and system live in different spaces")
    if has_other_arity(system.maps, point):
        raise ConfigError(f"{point} has {len(point.coords)} coordinates, unlike the maps")
    payload = space.canonical(space.payload(point))
    try:
        return _descend(system, space, payload, depth_limit)
    except UnsupportedMapKindError:
        bag = fallback_bag
        sizes = [space.size(payload), 1] + [space.size(space.payload(s)) for s in system.seeds]
        if bag is None or bag.bound < sizes[0]:
            bag = enumerate_system(system, max(sizes))
        member = bag.has_payload(payload)
        # Above its escape height a map raises sizes, so no path from a seed
        # to the query passes the largest of these sizes and escape heights.
        skip = member or bag.truncated or space.name == "ec"
        caps = [] if skip else [m._escape_height() for m in system.maps]
        if caps and None not in caps and max(sizes + caps) > bag.bound:
            bag = enumerate_system(system, max(sizes + caps))
            member = bag.has_payload(payload)
        if not member and (bag.truncated or None in caps):
            why = "truncated below" if bag.truncated else "with a map of no escape height, up to"
            raise UndecidedError(
                f"{space.to_point(payload)} is not among the {len(bag)} points of "
                f"a bag {why} bound {bag.bound}"
            )
        return MembershipResult(member, None, (), True)


def _descend(system: FractalSystem, space: Space, payload, depth_limit: int) -> MembershipResult:
    """Walks preimage payloads back from the query; only the certificate
    seed is wrapped as a point."""
    # Depth-first search through preimages.  ``links`` sends each seed to True
    # and each visited point to (child, map index), its step towards the query,
    # so one lookup tells a seed, a revisit and a new parent apart.  As the
    # visited set it ends the walk on Z and Z[i], where outside the basin
    # radius preimages strictly shrink and inside it only finitely many points
    # exist.  On A^n a parent can be larger than its child (x/3 under
    # x -> 3x), so the depth limit may end the walk, except when every map is
    # x -> c*x + d with integers c and d: then den(f(x)) divides den(x), so a
    # parent whose denominator (payload[0]) does not divide L, the lcm of the
    # seeds' denominators, is on no forward path from a seed.  The parents left
    # have bounded denominators and, as |c| >= 2, shrink towards |x| <= |d|.
    links = dict.fromkeys((space.payload(s) for s in system.seeds), True)
    if payload in links:
        return MembershipResult(True, space.to_point(payload), (), False)
    preimages = [m.preimage_fn() for m in system.maps]
    if all(isinstance(m, PolyTupleMap) and m.degree() == 1
           and all(c.has_integer_coefficients() for c in m.components) for m in system.maps):
        lcm = math.lcm(*(seed[0] for seed in links))
        preimages = [lambda p, f=f: tuple(q for q in f(p) if lcm % q[0] == 0) for f in preimages]
    links[payload] = None
    stack = [(payload, 0)]
    while stack:
        current, depth = stack.pop()
        if depth >= depth_limit:
            raise UndecidedError(
                f"membership descent hit depth limit {depth_limit} for {space.to_point(payload)}"
            )
        for i, preimage in enumerate(preimages):
            for parent in preimage(current):
                step = (current, i)
                link = links.setdefault(parent, step)
                if link is step:
                    stack.append((parent, depth + 1))
                elif link is True:
                    # Forward replay: map i from the seed, then the links.
                    path = [i]
                    while links[current]:
                        current, i = links[current]
                        path.append(i)
                    return MembershipResult(True, space.to_point(parent), tuple(path), False)
    return MembershipResult(False, None, (), False)


def replay_certificate(system: FractalSystem, result: MembershipResult) -> SpacePoint:
    """Apply the certificate path to its seed; must reproduce the query."""
    if not result.member or result.seed is None:
        raise ConfigError("no certificate to replay")
    current = result.seed
    for index in result.path:
        current = apply(system.maps[index], current)
    return current


# ---------------------------------------------------------------------------
# Exactness audit
# ---------------------------------------------------------------------------


class OverlapRecord(NamedTuple):
    point: SpacePoint
    witnesses: tuple[tuple[int, SpacePoint], ...]  # (map index, preimage)


class SeedCoverage(NamedTuple):
    seed: SpacePoint
    is_image: bool


@dataclass
class ExactnessReport:
    """Bounded-window audit of the fractal equation F = disjoint union f_i(F).

    A point is covered when it is the image of some window point; overlaps
    list points with at least two distinct (map, preimage) witnesses.  For
    an exact system both overlap and uncovered counts are zero.
    """

    bound: int
    window: str
    total_points: int
    covered_count: int
    overlap_count: int
    uncovered_count: int
    overlaps: list[OverlapRecord]
    uncovered: list[SpacePoint]
    seed_coverage: list[SeedCoverage]

    @property
    def exact(self) -> bool:
        return self.overlap_count == 0 and self.uncovered_count == 0


def audit_exactness(
    system: FractalSystem,
    bound,
    window: str = "orbit",
    max_listed: int = 1_000,
) -> ExactnessReport:
    """Count representations p = f_i(q) with q inside the window.

    window="orbit" audits the enumerated forward orbit (seeds excluded from
    the uncovered list; whether a seed is an image is reported separately).
    window="ambient" audits the whole ambient space up to the bound, which
    is how a self-similar but non-fractal cover is detected; it streams the
    window and applies each map only up to its source bound.  A window of
    more than DEFAULT_MAX_POINTS points raises BoundTooLargeError.
    """
    if window not in ("orbit", "ambient"):
        raise ConfigError(f"unknown audit window {window!r}")
    bound_int = as_bound(bound)
    compiled = _compile(system, bound_int)
    space, seeds, images = compiled
    too_large = BoundTooLargeError(
        f"the {window} window at bound {bound_int} has more than {DEFAULT_MAX_POINTS} points"
    )

    counts: dict = {}
    if window == "orbit":
        # Image counting happens inside the orbit BFS: each orbit point is
        # expanded exactly once, and an in-bound image of an orbit point is
        # itself in the orbit.  Every non-seed point is covered by its
        # discovery, so the BFS tallies only repeat hits (see _raw_orbit)
        # and nothing is uncovered.
        records, truncated = _raw_orbit(compiled, bound_int, DEFAULT_MAX_POINTS, counts=counts)
        if truncated:
            raise too_large
        payloads = [rec[1] for rec in records]

        def sources(i):
            return payloads

        total_points = len(payloads)
        seed_payloads = set(seeds)
        seeds_hit = sum(1 for s in seed_payloads if s in counts)
        covered_count = total_points - len(seed_payloads) + seeds_hit
        overlap_payloads = sorted(
            (p for p, c in counts.items() if c >= 2 or p not in seed_payloads),
            key=space.sort_key(bound_int),
        )
        uncovered_count = 0
        uncovered_payloads: list = []
        seed_cov = [SeedCoverage(space.to_point(s), s in counts) for s in seeds]
    else:
        if space.window is None:
            raise UnsupportedSpaceError(f"no ambient window for space {space.name!r}")
        cutoffs = []
        for i, map_ in enumerate(system.maps):
            try:
                cutoffs.append(min(bound_int, map_.source_bound(bound_int)))
            except BoundTooLargeError as exc:
                raise BoundTooLargeError(f"map {i}: {exc}") from None
        head = islice(space.window(bound_int, seeds), DEFAULT_MAX_POINTS + 1)
        total_points = sum(1 for _ in head)
        if total_points > DEFAULT_MAX_POINTS:
            raise too_large

        def sources(i):
            """Map i sends q into the window only if size(q) is at most its
            source bound: the window at that bound, in the same order."""
            return space.window(cutoffs[i], seeds)

        size = space.size
        for i, image in enumerate(images):
            for q in sources(i):
                p = image(q)
                if size(p) <= bound_int:
                    counts[p] = counts.get(p, 0) + 1
        covered_count = len(counts)
        overlap_payloads = sorted(
            (p for p, c in counts.items() if c >= 2), key=space.sort_key(bound_int)
        )
        uncovered_count = total_points - covered_count
        uncovered_payloads = heapq.nsmallest(
            max_listed, (p for p in space.window(bound_int, seeds) if p not in counts)
        )
        seed_cov = []

    # Map-major over the same sources, so witnesses come in map order.
    witnesses: dict = {p: [] for p in overlap_payloads[:max_listed]}
    if witnesses:
        for i, image in enumerate(images):
            for q in sources(i):
                p = image(q)
                if p in witnesses:
                    witnesses[p].append((i, space.to_point(q)))

    return ExactnessReport(
        bound=bound_int,
        window=window,
        total_points=total_points,
        covered_count=covered_count,
        overlap_count=len(overlap_payloads),
        uncovered_count=uncovered_count,
        overlaps=[OverlapRecord(space.to_point(p), tuple(w)) for p, w in witnesses.items()],
        uncovered=[space.to_point(p) for p in uncovered_payloads],
        seed_coverage=seed_cov,
    )


# ---------------------------------------------------------------------------
# Curve intersection probe
# ---------------------------------------------------------------------------


class IntersectionProbe(NamedTuple):
    bounds: tuple[int, ...]
    counts: tuple[int, ...]
    hits_per_bound: tuple[tuple[AffPoint, ...], ...]
    stabilized: bool


def curve_intersection_probe(
    system: FractalSystem,
    curve: Polynomial,
    bounds: Sequence,
) -> IntersectionProbe:
    """Exact intersections of the enumerated fractal with an affine curve.

    Zero testing evaluates the homogenized curve exactly at each integer payload;
    stabilization means the hit set did not change between the last two bounds.
    """
    if system.space != "affq":
        raise UnsupportedSpaceError("intersection probes run on affine rational systems")
    if not curve:
        raise ConfigError("curve polynomial is zero")
    bound_list = sorted(as_bound(b) for b in bounds)
    if not bound_list:
        raise ConfigError("need at least one bound")
    # Validation first, so a system with no maps is NoMaps; the arity check
    # before the enumeration, so a wrong curve fails at once at any bound.
    require_valid(system)
    if curve.nvars != system.maps[0].nvars():
        raise ConfigError(f"curve in {curve.nvars} variables, maps in {system.maps[0].nvars()}")
    bag = enumerate_system(system, bound_list[-1])
    (form,) = _homogenized((curve,), curve.total_degree())
    hits_all = [
        (size, bag._to_point(payload))
        for size, payload, _ in bag._sorted()
        if form.evaluate_int(payload) == 0
    ]
    per_bound = tuple(tuple(p for size, p in hits_all if size <= b) for b in bound_list)
    stabilized = len(bound_list) >= 2 and per_bound[-1] == per_bound[-2]
    return IntersectionProbe(tuple(bound_list), tuple(map(len, per_bound)), per_bound, stabilized)
