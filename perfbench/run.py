"""arithfractal benchmark.

    python3 perfbench/run.py --workload orbit-gauss --seed 1 --seconds 20 --trace 0

Runs one workload from the repository root (``all`` runs each workload in
a process of its own, one after the other), checks every
output against the correctness gate and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` makes one untraced and one traced pass of
the same inputs and reports the per-layer metrics.  The run's metadata
and, for traced runs, its spans are written under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

from common import (
    FULL, PINS_PATH, ROOT, SRC, TINY, TMP, WORK, Tally, median, require_program, sha256,
)

SETUP_REPEATS = 5
WORKLOADS = ("orbit-gauss", "member-mix", "exact-kernels")
SIZES = {"full": FULL, "tiny": TINY}


def metric_specs() -> tuple[dict, dict]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    return end_to_end, per_layer


def metadata(workload: str, seed: int, seconds: float, trace: int, sizes) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except OSError:
        sha = None
    sources = sorted(SRC.rglob("*.py"))
    return {
        "workload": workload,
        "pid": os.getpid(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "git_sha": sha,
        "src_sha256": sha256_of_files(sources),
        "src_lines": sum(len(p.read_text().splitlines()) for p in sources),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": dataclasses.asdict(sizes),
    }


def sha256_of_files(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(sha256(path).encode())
    return digest.hexdigest()


def run_workload(name: str, seed: int, seconds: float, trace: int, sizes=FULL):
    """Set up, measure and gate one workload.  Returns the result object,
    the run record (metadata, failures) and, for traced runs, the spans."""
    module = importlib.import_module(name.replace("-", "_"))
    end_to_end, per_layer = metric_specs()
    # Pinned outputs are made at full size only; smoke runs check the rest.
    pins = {}
    if sizes == FULL and module.PINNED:
        pins = json.loads(PINS_PATH.read_text()).get(name) if PINS_PATH.is_file() else None
        if not pins:
            raise SystemExit(f"perfbench: {name}: no pinned digests in {PINS_PATH.name}")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        state = None  # each set-up starts from the same heap
        gc.collect()
        start = time.perf_counter()
        state = module.setup(seed, sizes, pins)
        setup_times.append(time.perf_counter() - start)

    tally = Tally(known_defects=module.KNOWN_DEFECTS)
    spans_summary = None
    if trace:
        values, spans_summary = module.run_traced(state, tally)
        missing = [s for s in module.EXPECTED_SPANS if spans_summary.n(s) == 0]
        if missing:
            raise SystemExit(f"perfbench: {name}: expected spans missing: {', '.join(missing)}")
        specs = per_layer
    else:
        values = module.run(state, seconds, tally)
        values["setup_s"] = median(setup_times)
        specs = end_to_end
        absent = [m for m in specs if m not in values]
        if absent:
            raise SystemExit(f"perfbench: {name}: metrics not measured: {', '.join(absent)}")
    tally.report()
    # Per-layer metrics of layers a workload never calls read 0.
    metrics = {m: {"value": float(values.get(m, 0)), "unit": unit} for m, unit in specs.items()}
    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        "metadata": metadata(name, seed, seconds, trace, sizes),
        "setup_times_s": setup_times,
        "pass_walls_s": values.get("pass_walls"),
        "failures": tally.failures,
        "result": result,
    }
    return result, record, spans_summary


def run_each_in_own_process(args) -> int:
    """Run every workload in a child ``run.py``, so that no workload's
    peak RSS, heap or imports carry over into the next one's figures."""
    code = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        code = subprocess.run(cmd, cwd=ROOT).returncode or code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full",
                        help="tiny is the smoke-test size, with no pinned digests")
    args = parser.parse_args(argv)
    require_program()
    if args.workload == "all":
        sys.stdout.flush()
        return run_each_in_own_process(args)

    name = args.workload
    runs_dir = WORK / "runs"
    runs_dir.mkdir(parents=True, exist_ok=True)
    try:
        result, record, summary = run_workload(
            name, args.seed, args.seconds, args.trace, SIZES[args.size]
        )
        (runs_dir / f"{name}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        if args.trace:
            (runs_dir / f"{name}-spans.json").write_text(json.dumps(summary.lists) + "\n")
        print(json.dumps({"metadata": record["metadata"]}))
        print(json.dumps(result))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
