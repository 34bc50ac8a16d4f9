"""Bounded forward-orbit enumeration, membership with certificates,
exactness audits of the fractal equation, and curve-intersection probes.

The enumerator is a breadth-first closure of the seeds under the system's
maps, pruning every image whose size exceeds the bound.  Internally it
works on light payloads (ints, integer tuples, Fraction tuples) rather
than wrapper objects, so bags of a few million points stay affordable;
the rich point objects are materialized lazily.  Termination is
guaranteed for expanding systems: a bounded point's ancestors are
themselves bounded, and the visited set makes revisits impossible, so the
reachable bounded region is finite.
"""

from __future__ import annotations

import gc
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import (
    ConfigError,
    NonTerminatingError,
    UndecidedError,
    UnsupportedMapKindError,
    UnsupportedSpaceError,
)
from .heights import SizeValue, affine_height_raw, raw_size
from .polynomials import Polynomial
from .spaces import (
    AffPoint,
    FractalSystem,
    GaussPoint,
    IntPoint,
    ProjPoint,
    SpacePoint,
    apply,
    canonicalize,
    preimage,
    space_of_point,
    validate_system,
)

DEFAULT_MAX_POINTS = 10_000_000
DEPTH_GUARD = 10_000

_SIZE_KIND = {"int": "abs", "gauss": "norm", "affq": "height", "projq": "height"}


class BagEntry(NamedTuple):
    point: SpacePoint
    size: SizeValue
    depth: int


class PointBag:
    """Result of bounded enumeration: canonical, deduplicated points.

    The ordered views (``entries``, ``points``) list points by (size,
    coordinate order), so a bag at a smaller bound is a prefix of the bag
    at a larger one.  The bag keeps its payload records in discovery order
    and sorts them on the first ordered access; ``raw_sizes`` and
    ``log_sizes`` sort plain ints instead, so counting never pays for the
    full record sort.  The million-point bags
    keep their payload form internally; ``entries`` materializes the
    wrapped points on first access.
    """

    def __init__(self, label, space, bound, size_kind, records, to_point, truncated):
        self.label = label
        self.space = space
        self.bound = bound
        self.size_kind = size_kind
        self.truncated = truncated
        self._records = records  # [(payload, size, depth)], sorted with entries
        self._to_point = to_point
        self._entries: Optional[list[BagEntry]] = None

    def __len__(self):
        return len(self._records)

    @property
    def entries(self) -> list[BagEntry]:
        if self._entries is None:
            records = self._records
            to_point = self._to_point
            log = math.log
            gc.disable()
            try:
                records.sort(key=itemgetter(1, 0))
                self._entries = [
                    BagEntry(to_point(p), SizeValue(s, log(s) if s > 1 else 0.0), d)
                    for p, s, d in records
                ]
            finally:
                gc.enable()
        return self._entries

    def points(self) -> list[SpacePoint]:
        return [e.point for e in self.entries]

    def raw_sizes(self) -> list[int]:
        """Sizes in nondecreasing order (a linear pass once entries exist)."""
        return sorted([s for _, s, _ in self._records])

    def log_sizes(self) -> list[float]:
        log = math.log
        return [log(s) if s > 1 else 0.0 for s in self.raw_sizes()]

    def max_log_bound(self) -> float:
        return math.log(self.bound) if self.bound > 1 else 0.0


# ---------------------------------------------------------------------------
# Payload kernels
# ---------------------------------------------------------------------------


class _Kernel(NamedTuple):
    seeds: list
    images: Callable  # payload -> list of payloads, in map order
    size: Callable  # payload -> int
    to_point: Callable  # payload -> SpacePoint


def _kernel(system: FractalSystem) -> _Kernel:
    space = system.space
    if space == "int":
        coeffs = [(m.a, m.b) for m in system.maps]

        def images(v):
            return [a * v + b for a, b in coeffs]

        return _Kernel([s.value for s in system.seeds], images, abs, IntPoint)
    if space == "gauss":
        coeffs = [(m.a.re, m.a.im, m.b.re, m.b.im) for m in system.maps]

        def images(p):
            x, y = p
            return [
                (ar * x - ai * y + br, ar * y + ai * x + bi)
                for ar, ai, br, bi in coeffs
            ]

        return _Kernel(
            [(s.re, s.im) for s in system.seeds],
            images,
            lambda p: p[0] * p[0] + p[1] * p[1],
            lambda p: GaussPoint(*p),
        )
    if space == "projq":
        form_lists = [m.forms for m in system.maps]

        def images(coords):
            out = []
            for forms in form_lists:
                raw = tuple(f.evaluate_int(coords) for f in forms)
                g = math.gcd(*(abs(c) for c in raw))
                if g == 0:
                    raise NonTerminatingError("map sent a point to (0:...:0)")
                reduced = tuple(c // g for c in raw)
                lead = next(c for c in reduced if c)
                if lead < 0:
                    reduced = tuple(-c for c in reduced)
                out.append(reduced)
            return out

        return _Kernel(
            [s.coords for s in system.seeds],
            images,
            lambda coords: max(abs(c) for c in coords),
            ProjPoint,
        )
    if space == "affq":
        comp_lists = [m.components for m in system.maps]

        def images(coords):
            return [
                tuple(c.evaluate(coords) for c in comps) for comps in comp_lists
            ]

        return _Kernel(
            [s.coords for s in system.seeds],
            images,
            affine_height_raw,
            AffPoint,
        )
    raise UnsupportedSpaceError(
        f"enumeration is not supported on space {space!r}"
    )


def _check_seeds(kernel: _Kernel, bound_int: int) -> None:
    for payload in kernel.seeds:
        if kernel.size(payload) > bound_int:
            raise ConfigError(
                f"bound {bound_int} is below the size of seed {kernel.to_point(payload)}"
            )


def _validated_kernel(system: FractalSystem, bound_int: int) -> _Kernel:
    violations = validate_system(system)
    if violations:
        raise ConfigError(f"invalid system: {violations[0].message}")
    kernel = _kernel(system)
    _check_seeds(kernel, bound_int)
    return kernel


def _raw_orbit(
    system: FractalSystem,
    bound_int: int,
    max_points: int,
    counts: Optional[dict] = None,
) -> tuple[_Kernel, list, bool]:
    """BFS closure on payloads; records are (payload, size, depth) in
    discovery order.

    When a ``counts`` dict is supplied, every repeat hit is tallied there:
    an in-bound image that is already a seed or already discovered.  A
    non-seed point's first hit is its discovery and is not tallied, so its
    number of representations p = f_i(q) over the expanded points is
    ``1 + counts.get(p, 0)``; a seed's is ``counts.get(p, 0)``.  Because
    each window point is expanded exactly once, that is what the
    exactness audit needs, without a dict entry per point.
    """
    kernel = _validated_kernel(system, bound_int)
    seen = set()
    records = []  # (payload, size, depth)
    frontier = []
    for payload in kernel.seeds:
        if payload not in seen:
            seen.add(payload)
            records.append((payload, kernel.size(payload), 0))
            frontier.append(payload)

    depth = 0
    truncated = False
    images = kernel.images
    size_fn = kernel.size
    map_count = len(system.maps)
    while frontier and not truncated:
        depth += 1
        if depth > DEPTH_GUARD:
            raise NonTerminatingError(
                f"enumeration exceeded {DEPTH_GUARD} generations; system may not expand"
            )
        # Intra-generation order only matters when a truncation cut could
        # land in this generation; the final sort fixes the order otherwise.
        if len(records) + map_count * len(frontier) >= max_points:
            frontier.sort()
        next_frontier = []
        seen_add = seen.add
        rec_append = records.append
        next_append = next_frontier.append
        for payload in frontier:
            for child in images(payload):
                child_size = size_fn(child)
                if child_size > bound_int:
                    continue
                if child in seen:
                    if counts is not None:
                        counts[child] = counts.get(child, 0) + 1
                    continue
                seen_add(child)
                rec_append((child, child_size, depth))
                next_append(child)
                if len(records) >= max_points:
                    truncated = True
                    break
            if truncated:
                break
        frontier = next_frontier
    return kernel, records, truncated


def enumerate_system(
    system: FractalSystem,
    bound,
    max_points: int = DEFAULT_MAX_POINTS,
) -> PointBag:
    """Breadth-first closure of the seeds under the maps, to size <= bound.

    Output order is deterministic: sorted by (size, coordinate order), a
    sort the bag defers to its first ordered access.  When max_points is
    hit the BFS stops there and the bag is flagged truncated.
    """
    bound_int = int(bound)
    kernel, records, truncated = _raw_orbit(system, bound_int, max_points)
    return PointBag(
        label=system.label,
        space=system.space,
        bound=bound_int,
        size_kind=_SIZE_KIND[system.space],
        records=records,
        to_point=kernel.to_point,
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
    bound must cover the queried point (flagged in the result).
    """
    point = canonicalize(point)
    if space_of_point(point) != system.space:
        raise ConfigError("point and system live in different spaces")
    try:
        return _descend(system, point, depth_limit)
    except UnsupportedMapKindError:
        bag = fallback_bag
        if bag is None or bag.bound < raw_size(point):
            bound = max([raw_size(point), 1] + [raw_size(s) for s in system.seeds])
            bag = enumerate_system(system, bound)
        member = point in set(bag.points())
        return MembershipResult(member, None, (), True)


def _descend(system: FractalSystem, point: SpacePoint, depth_limit: int) -> MembershipResult:
    seeds = set(system.seeds)
    if point in seeds:
        return MembershipResult(True, point, (), False)
    # Depth-first search through preimages.  The visited set makes the walk
    # finite: outside the basin radius preimages strictly shrink, inside it
    # only finitely many points exist.
    stack = [(point, ())]
    visited = {point}
    while stack:
        current, back_path = stack.pop()
        if len(back_path) >= depth_limit:
            raise UndecidedError(
                f"membership descent hit depth limit {depth_limit} for {point}"
            )
        for i, map_ in enumerate(system.maps):
            parent = preimage(map_, current)
            if parent is None:
                continue
            parent = canonicalize(parent)
            if parent in seeds:
                # Forward replay: the descent step via map i comes first,
                # then the earlier backward steps in reverse order.
                forward = (i,) + tuple(reversed(back_path))
                return MembershipResult(True, parent, forward, False)
            if parent not in visited:
                visited.add(parent)
                stack.append((parent, back_path + (i,)))
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


def _ambient_window(system: FractalSystem, bound: int) -> list:
    space = system.space
    if space == "int":
        return list(range(-bound, bound + 1))
    if space == "gauss":
        r = math.isqrt(bound)
        return [
            (a, b)
            for a in range(-r, r + 1)
            for b in range(-r, r + 1)
            if a * a + b * b <= bound
        ]
    if space == "projq":
        n = len(system.seeds[0].coords)
        if n != 2:
            raise UnsupportedSpaceError("ambient window only for the projective line")
        window = [(0, 1), (1, 0)]
        for a in range(1, bound + 1):
            for b in range(1, bound + 1):
                if math.gcd(a, b) == 1:
                    window.append((a, b))
                    window.append((a, -b))
        return window
    raise UnsupportedSpaceError(f"no ambient window for space {space!r}")


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
    is how a self-similar but non-fractal cover is detected.
    """
    if window not in ("orbit", "ambient"):
        raise ConfigError(f"unknown audit window {window!r}")
    bound_int = int(bound)
    counts: dict = {}
    if window == "orbit":
        # Image counting happens inside the orbit BFS: each orbit point is
        # expanded exactly once, and an in-bound image of an orbit point is
        # itself in the orbit.  Every non-seed point is covered by its
        # discovery, so the BFS tallies only repeat hits (see _raw_orbit)
        # and nothing is uncovered.
        kernel, records, _ = _raw_orbit(
            system, bound_int, DEFAULT_MAX_POINTS, counts=counts
        )
        payloads = [rec[0] for rec in records]
        seed_payloads = set(kernel.seeds)
        seeds_hit = sum(1 for s in seed_payloads if s in counts)
        covered_count = len(payloads) - len(seed_payloads) + seeds_hit
        overlap_payloads = sorted(
            p for p, c in counts.items() if c >= 2 or p not in seed_payloads
        )
        uncovered_payloads: list = []
        seed_cov = [SeedCoverage(kernel.to_point(s), s in counts) for s in kernel.seeds]
    else:
        kernel = _validated_kernel(system, bound_int)
        payloads = _ambient_window(system, bound_int)
        in_window = set(payloads)
        images = kernel.images
        for q in payloads:
            for image in images(q):
                if image in in_window:
                    counts[image] = counts.get(image, 0) + 1
        covered_count = len(counts)
        overlap_payloads = sorted(p for p, c in counts.items() if c >= 2)
        uncovered_payloads = sorted(p for p in payloads if p not in counts)
        seed_cov = []

    witnesses: dict = {p: [] for p in overlap_payloads[:max_listed]}
    if witnesses:
        tracked = set(witnesses)
        images = kernel.images
        for q in payloads:
            for i, image in enumerate(images(q)):
                if image in tracked:
                    witnesses[image].append((i, kernel.to_point(q)))

    to_point = kernel.to_point
    overlaps = [
        OverlapRecord(to_point(p), tuple(sorted(witnesses[p], key=lambda w: w[0])))
        for p in overlap_payloads[:max_listed]
    ]
    return ExactnessReport(
        bound=bound_int,
        window=window,
        total_points=len(payloads),
        covered_count=covered_count,
        overlap_count=len(overlap_payloads),
        uncovered_count=len(uncovered_payloads),
        overlaps=overlaps,
        uncovered=[to_point(p) for p in uncovered_payloads[:max_listed]],
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

    Zero testing is exact rational evaluation; stabilization means the hit
    set did not change between the last two bounds.
    """
    if system.space != "affq":
        raise UnsupportedSpaceError("intersection probes run on affine rational systems")
    if not curve:
        raise ConfigError("curve polynomial is zero")
    bound_list = sorted(int(b) for b in bounds)
    if not bound_list:
        raise ConfigError("need at least one bound")
    bag = enumerate_system(system, bound_list[-1])
    hits_all = [
        (entry.size.raw, entry.point)
        for entry in bag.entries
        if curve.evaluate(entry.point.coords) == 0
    ]
    per_bound = []
    counts = []
    for b in bound_list:
        hits = tuple(p for size, p in hits_all if size <= b)
        per_bound.append(hits)
        counts.append(len(hits))
    stabilized = len(bound_list) >= 2 and per_bound[-1] == per_bound[-2]
    return IntersectionProbe(
        tuple(bound_list), tuple(counts), tuple(per_bound), stabilized
    )
