"""Engine shared by the workloads made of CLI subcommand runs: one child
process at a time, closed loop, a fresh ``--out-dir`` per run."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from common import (
    CliRun,
    SpanSummary,
    Tally,
    children_peak_rss_mib,
    median,
    rerun_check,
    run_cli,
    top_level_seconds,
)
from tracer import peak_rss_mib


@dataclass
class Op:
    name: str  # operation id, unique within the workload
    command: str  # the arithfractal subcommand, for the cli.<command> layer
    args: list
    check: Callable[[CliRun], list]  # correctness problems of a successful run


def run_pass(ops: list[Op], tally: Tally, traced: bool = False, keep: bool = False) -> list[CliRun]:
    runs = []
    for op in ops:
        run = run_cli(op.name, op.args, traced)
        problems = run.problems()
        if not problems:
            problems = op.check(run)
        tally.record(op.name, problems)
        if not keep:
            run.discard()
        runs.append(run)
    return runs


def measure(ops: list[Op], seconds: float, tally: Tally) -> dict:
    """Untraced passes for ``seconds``, then the rerun check on the first.

    Returns the end-to-end metrics that every CLI workload reports;
    ``wall_s`` sums each operation's median wall time over the passes.
    """
    start = time.perf_counter()
    first = run_pass(ops, tally, keep=True)
    passes = [first]
    while time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, tally))
    rerun_check(first, tally)
    for run in first:
        run.discard()
    op_medians = [median(runs[i].wall_s for runs in passes) for i in range(len(ops))]
    return {
        "wall_s": sum(op_medians),
        "peak_rss_mib": max(children_peak_rss_mib(), peak_rss_mib()),
        "pass_walls": [sum(run.wall_s for run in runs) for runs in passes],
    }


def measure_traced(ops: list[Op], tally: Tally) -> tuple[list, list, SpanSummary, dict]:
    """One untraced and one traced pass of the same operations, then the
    rerun check.  Returns both passes, the span summary and the cli-layer
    metrics (self time per subcommand, bytes written, tracing overhead)."""
    untraced = run_pass(ops, tally, keep=True)
    traced = run_pass(ops, tally, traced=True)
    rerun_check(untraced, tally)
    for run in untraced:
        run.discard()

    summary = SpanSummary()
    metrics: dict = {}
    for op, run in zip(ops, traced):
        summary.add(run.spans, op.name)
        key = f"cli.{op.command}.self_s"
        metrics[key] = metrics.get(key, 0.0) + run.wall_s - top_level_seconds(run.spans)
    metrics["cli.bytes_written"] = sum(run.written for run in untraced)
    metrics["trace_overhead_s"] = sum(r.wall_s for r in traced) - sum(r.wall_s for r in untraced)
    metrics["failed_frac"] = tally.failed / tally.attempted
    return untraced, traced, summary, metrics
