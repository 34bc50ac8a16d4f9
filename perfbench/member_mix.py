"""member-mix: shuffled ``is_member`` queries made in-process over seven
corpus systems, each answer checked against an enumerated ground-truth bag
and every certificate replayed.

The CLI answers one query per process and would only measure interpreter
start, so this workload calls the public library API.  Projective maps
have no preimage, so those queries take the enumeration fallback.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction

from common import (
    CORPUS,
    Sizes,
    SpanSummary,
    Tally,
    import_probe,
    layer_metrics,
    median,
    percentile,
)
from tracer import Tracer, instrument, peak_rss_mib

NAME = "member-mix"
EXPECTED_SPANS = (
    "enumeration.is_member.int",
    "enumeration.is_member.gauss",
    "enumeration.is_member.projq",
    "enumeration.is_member.affq",
    "enumeration.replay_certificate",
    "enumeration.enumerate_system",
)
INT_SYSTEMS = ("z-binary", "digits01", "digits012", "z-2x3x")
BLOCK = 3000  # queries per timed block
PINNED = False  # the gate is the enumerated ground truth, not pins.json
KNOWN_DEFECTS: dict = {}


@dataclass
class State:
    systems: dict  # corpus name -> FractalSystem
    queries: list  # (corpus name, point, truth)


def build_queries(seed: int, sizes: Sizes) -> State:
    from arithfractal import enumeration, spaces

    rng = random.Random(seed)
    systems = {}
    queries = []

    def orbit(name: str, bound: int) -> list:
        system = systems[name] = spaces.load_system(CORPUS / f"{name}.json")
        return enumeration.enumerate_system(system, bound).points()

    def add(name: str, drawn: list, members: list, k: int) -> None:
        truth = set(members)
        queries.extend((name, p, p in truth) for p in drawn + rng.choices(members, k=k))

    r = sizes.int_range
    for name in INT_SYSTEMS:
        members = orbit(name, r)
        drawn = [spaces.IntPoint(rng.randint(-r, r)) for _ in range(sizes.int_uniform)]
        add(name, drawn, members, sizes.int_members)

    members = orbit("gauss-base", sizes.gauss_norm)
    r = math.isqrt(sizes.gauss_norm)
    drawn = []
    while len(drawn) < sizes.gauss_uniform:
        x, y = rng.randint(-r, r), rng.randint(-r, r)
        if x * x + y * y <= sizes.gauss_norm:
            drawn.append(spaces.GaussPoint(x, y))
    add("gauss-base", drawn, members, sizes.gauss_members)

    members = orbit("p1-powers2-full", sizes.proj_height)
    drawn = []
    while len(drawn) < sizes.proj_random:
        a, b = rng.randint(1, sizes.proj_height), rng.randint(1, sizes.proj_height)
        if math.gcd(a, b) == 1:
            drawn.append(spaces.ProjPoint((a, rng.choice((b, -b)))))
    add("p1-powers2-full", drawn, members, sizes.proj_members)

    members = orbit("q2-powers2", sizes.aff_height)
    top = math.isqrt(math.isqrt(sizes.aff_height))  # keeps every height <= aff_height

    def rational() -> Fraction:
        return Fraction(rng.randint(1, top), rng.randint(1, top))

    drawn = [spaces.AffPoint((rational(), rational())) for _ in range(sizes.aff_random)]
    add("q2-powers2", drawn, members, sizes.aff_members)

    rng.shuffle(queries)
    return State(systems, queries)


def setup(seed: int, sizes: Sizes, pins: dict) -> State:
    import_probe()
    return build_queries(seed, sizes)


def membership_problems(system, point, truth: bool, result, replay) -> list:
    """The gate for one query: the answer equals the ground truth and a
    certificate, when there is one, replays to the query."""
    problems = []
    if result.member != truth:
        problems.append(f"answered {result.member}, ground truth {truth}")
    elif result.member and not result.via_fallback:
        if replay(system, result) != point:
            problems.append("certificate does not replay to the query")
    return problems


def query_pass(state: State, tally: Tally) -> list:
    """One pass over every query; returns per-query latencies in ns.

    The package's functions are looked up on each pass, so a traced pass
    sees the wrapped versions.
    """
    from arithfractal import enumeration

    is_member = enumeration.is_member
    replay = enumeration.replay_certificate
    clock = time.perf_counter_ns
    latencies = []
    for name, point, truth in state.queries:
        system = state.systems[name]
        start = clock()
        try:
            result = is_member(system, point)
        except Exception as exc:  # the gate counts any raise as a failure
            result = exc
        latencies.append(clock() - start)
        if isinstance(result, Exception):
            problems = [f"raised {type(result).__name__}: {result}"]
        else:
            problems = membership_problems(system, point, truth, result, replay)
        tally.record(f"is_member-{name}", problems)
    return latencies


def run(state: State, seconds: float, tally: Tally) -> dict:
    gc.collect()
    start = time.perf_counter()
    passes = [query_pass(state, tally)]
    while time.perf_counter() - start < seconds:
        passes.append(query_pass(state, tally))
    # Like the CLI workloads' per-operation medians: each block of queries
    # takes its median time over the passes, and wall_s sums the blocks.
    blocks = [
        [sum(lat[i : i + BLOCK]) for i in range(0, len(lat), BLOCK)] for lat in passes
    ]
    block_medians = [median(times) for times in zip(*blocks)]
    return {
        "wall_s": sum(block_medians) / 1e9,
        "peak_rss_mib": peak_rss_mib(),
        "pass_walls": [sum(lat) / 1e9 for lat in passes],
    }


def run_traced(state: State, tally: Tally):
    gc.collect()
    untraced = query_pass(state, tally)
    tracer = Tracer()
    restore = instrument(tracer)
    try:
        traced = query_pass(state, tally)
    finally:
        restore()
    summary = SpanSummary()
    summary.add(tracer.spans, "queries")
    metrics = layer_metrics(summary)
    latencies = sorted(untraced)
    wall = sum(untraced) / 1e9
    metrics.update(
        {
            "queries_per_s": len(untraced) / wall,
            "query_p50_us": percentile(latencies, 50) / 1e3,
            "query_p99_us": percentile(latencies, 99) / 1e3,
            "query_samples": len(latencies),
            "trace_overhead_s": sum(traced) / 1e9 - wall,
            "failed_frac": tally.failed / tally.attempted,
        }
    )
    return metrics, summary
