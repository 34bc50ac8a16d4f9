"""Shared pieces of the benchmark: locations, the CLI runner, the
correctness tally, artifact digests, the rerun check and span summaries."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median  # noqa: F401  (shared by the workloads)
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
WORK = ROOT / ".perfbench"
TMP = WORK / "tmp" / str(os.getpid())  # this process's CLI output dirs
PINS_PATH = HERE / "pins.json"

CHILD_TIMEOUT_S = 60
CHILD_ENV = {**os.environ, "PYTHONPATH": str(SRC)}


def require_program() -> None:
    """Exit nonzero when the package or its corpus is not beside the benchmark."""
    if not (SRC / "arithfractal" / "cli.py").is_file() or not CORPUS.is_dir():
        raise SystemExit(f"perfbench: no arithfractal source under {ROOT}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fresh_dir(kind: str) -> Path:
    path = TMP / f"{kind}-{uuid.uuid4().hex[:12]}"
    path.mkdir(parents=True)
    return path


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def children_peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


@dataclass
class Tally:
    """Operations attempted and the ones that failed the correctness gate.

    ``known_defects`` maps an operation to a pattern of its documented
    failure.  Such a failure still counts in ``failed``; it only keeps
    ``correct`` true when every problem of the operation matches the
    pattern, because it is then the program's baseline and not a
    regression.  Any other problem of that operation is a real failure.
    """

    known_defects: dict = field(default_factory=dict)  # op -> compiled regex
    attempted: int = 0
    failures: list = field(default_factory=list)  # (op, reason, excused)

    def record(self, op: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            pattern = self.known_defects.get(op)
            excused = pattern is not None and all(pattern.fullmatch(p) for p in problems)
            self.failures.append((op, "; ".join(problems), excused))

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return all(excused for _, _, excused in self.failures)

    def report(self) -> None:
        for op, reason, excused in dict.fromkeys(self.failures):
            known = " (known defect)" if excused else ""
            print(f"perfbench: FAILED {op}{known}: {reason}", file=sys.stderr)


@dataclass
class CliRun:
    op: str
    args: list
    out_dir: Path
    wall_s: float
    returncode: int
    stdout: str
    stderr: str
    written: int = 0  # bytes of every file the run left in out_dir
    spans: Optional[list] = None

    def problems(self) -> list[str]:
        found = []
        if self.returncode != 0:
            last = self.stderr.strip().splitlines()[-1:] or [""]
            found.append(f"exit code {self.returncode}: {last[0][:200]}")
        if "Traceback" in self.stderr:
            found.append("traceback on stderr")
        return found

    def discard(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)


def run_cli(op: str, args: list, traced: bool = False) -> CliRun:
    """Run ``arithfractal --out-dir <fresh> ARGS`` in a child process and
    time it from spawn to exit.  ``{out}`` in ARGS names the fresh output
    directory.  Traced runs go through traced_cli.py."""
    out_dir = fresh_dir(op)
    argv = ["--out-dir", str(out_dir), *(a.replace("{out}", str(out_dir)) for a in args)]
    if traced:
        spans_path = out_dir.parent / f"{out_dir.name}.spans.json"
        cmd = [sys.executable, str(HERE / "traced_cli.py"), str(spans_path), *argv]
    else:
        cmd = [sys.executable, "-m", "arithfractal", *argv]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    wall = time.perf_counter() - start
    run = CliRun(op, list(args), out_dir, wall, proc.returncode, proc.stdout, proc.stderr)
    run.written = sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file())
    if traced:
        if spans_path.exists():
            run.spans = json.loads(spans_path.read_text())
            spans_path.unlink()
        else:
            run.spans = []
    return run


def artifact_problems(out_dir: Path, expected: dict) -> list[str]:
    """Compare data artifacts against pinned sha256 digests."""
    found = []
    for name, digest in expected.items():
        path = out_dir / name
        if not path.is_file():
            found.append(f"missing artifact {name}")
        elif sha256(path) != digest:
            found.append(f"artifact {name} differs from its pinned digest")
    return found


def data_artifacts(run: CliRun) -> list[str]:
    """Data files a run wrote (CSV and JSON outputs, not manifests)."""
    return sorted(
        p.name
        for p in run.out_dir.iterdir()
        if p.is_file() and not p.name.endswith("_manifest.json")
    )


def rerun_check(runs: list[CliRun], tally: Tally) -> None:
    """Replay every manifest with ``arithfractal rerun`` and compare the
    data artifacts byte for byte with the original run's."""
    for run in runs:
        for manifest in sorted(run.out_dir.glob("*_manifest.json")):
            replay = run_cli(f"rerun-{run.op}", ["rerun", str(manifest)])
            problems = replay.problems()
            for name in data_artifacts(run):
                copy = replay.out_dir / name
                if not copy.is_file():
                    problems.append(f"rerun did not write {name}")
                elif copy.read_bytes() != (run.out_dir / name).read_bytes():
                    problems.append(f"rerun wrote a different {name}")
            tally.record(replay.op, problems)
            replay.discard()


# ---------------------------------------------------------------------------
# Statistics and span summaries
# ---------------------------------------------------------------------------


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an already sorted, nonempty list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


class SpanSummary:
    """Totals by span name over any number of span lists."""

    def __init__(self) -> None:
        self.seconds: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.attrs: dict[str, list] = {}
        self.nested: dict[tuple, int] = {}  # (parent name, child name) -> calls
        self.lists: list[tuple[str, list]] = []  # (operation, its spans), as recorded

    def add(self, spans: list, op: str = "") -> None:
        self.lists.append((op, spans))
        for name, start, end, parent, attrs in spans:
            self.seconds[name] = self.seconds.get(name, 0.0) + (end - start)
            self.calls[name] = self.calls.get(name, 0) + 1
            if attrs:
                self.attrs.setdefault(name, []).append(attrs)
            if parent >= 0:
                key = (spans[parent][0], name)
                self.nested[key] = self.nested.get(key, 0) + 1

    def s(self, name: str) -> float:
        return self.seconds.get(name, 0.0)

    def n(self, name: str) -> int:
        return self.calls.get(name, 0)

    def attr_sum(self, name: str, key: str):
        return sum(a[key] for a in self.attrs.get(name, ()))

    def attr_max(self, name: str, key: str):
        return max((a[key] for a in self.attrs.get(name, ())), default=0)


def top_level_seconds(spans: list) -> float:
    """Time of the spans directly under the root span (index 0)."""
    return sum(end - start for _, start, end, parent, _ in spans if parent == 0)


def import_probe() -> None:
    """Start an interpreter that imports the CLI module, as every CLI run
    does; part of each workload's set-up."""
    proc = subprocess.run(
        [sys.executable, "-c", "import arithfractal.cli"],
        cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: arithfractal does not import: {proc.stderr.strip()[-300:]}")


def layer_metrics(summary: SpanSummary) -> dict:
    """Per-layer metrics that come straight from span totals and attributes."""
    timed = (
        "spaces.load_system",
        "spaces.validate_system",
        "enumeration.enumerate_system",
        "enumeration.PointBag.entries",
        "enumeration.audit_exactness.orbit",
        "enumeration.audit_exactness.ambient",
        "enumeration.replay_certificate",
        "enumeration.curve_intersection_probe",
        "growth.counting_function",
        "growth.fit_growth_exponent",
        "growth.lemma_bound_check",
        "dimension.solve_dimension",
        "heights.projective_census.n1",
        "heights.projective_census.n2",
        "elliptic.neron_count",
        "approximation.approximants",
        "approximation.approximation_exponent_profile",
        "polynomials.parse_polynomial",
    )
    metrics = {f"{name}.s": summary.s(name) for name in timed}
    bag, orbit, ambient = (
        "enumeration.enumerate_system",
        "enumeration.audit_exactness.orbit",
        "enumeration.audit_exactness.ambient",
    )
    metrics[f"{bag}.points"] = summary.attr_max(bag, "points")
    metrics[f"{bag}.rss_mib"] = summary.attr_max(bag, "rss_mib")
    metrics["enumeration.PointBag.entries.rss_mib"] = summary.attr_max(
        "enumeration.PointBag.entries", "rss_mib"
    )
    metrics[f"{orbit}.covered"] = summary.attr_max(orbit, "covered")
    metrics[f"{orbit}.overlaps"] = summary.attr_max(orbit, "overlaps")
    metrics[f"{orbit}.rss_mib"] = summary.attr_max(orbit, "rss_mib")
    metrics[f"{ambient}.window_points"] = summary.attr_max(ambient, "window_points")
    metrics[f"{ambient}.uncovered"] = summary.attr_max(ambient, "uncovered")
    for n in (1, 2):
        name = f"heights.projective_census.n{n}"
        metrics[f"{name}.count"] = summary.attr_max(name, "count")
    fallback_enumerations = 0
    for space in ("int", "gauss", "projq", "affq"):
        name = f"enumeration.is_member.{space}"
        metrics[f"{name}.s"] = summary.s(name)
        metrics[f"{name}.queries"] = summary.n(name)
        metrics[f"{name}.fallbacks"] = summary.attr_sum(name, "fallback")
        fallback_enumerations += summary.nested.get((name, bag), 0)
    metrics["enumeration.is_member.fallback_enumerations"] = fallback_enumerations
    return metrics


@dataclass(frozen=True)
class Sizes:
    gauss_bound: int
    int_range: int  # integer queries are uniform in [-int_range, int_range]
    int_uniform: int  # per integer system
    int_members: int  # per integer system
    gauss_norm: int
    gauss_uniform: int
    gauss_members: int
    proj_height: int
    proj_random: int
    proj_members: int
    aff_height: int
    aff_random: int
    aff_members: int
    census_n1: int
    census_n2: int
    ambient_bound: int


FULL = Sizes(
    gauss_bound=2**18,
    int_range=10**5, int_uniform=24_000, int_members=6_000,
    gauss_norm=2**16, gauss_uniform=16_000, gauss_members=4_000,
    proj_height=2**20, proj_random=1_000, proj_members=1_000,
    aff_height=2**12, aff_random=1_000, aff_members=1_000,
    census_n1=3000, census_n2=100, ambient_bound=300,
)

# Smoke-test size: seconds per workload, no pinned digests.
TINY = Sizes(
    gauss_bound=2**10,
    int_range=10**3, int_uniform=150, int_members=50,
    gauss_norm=2**10, gauss_uniform=80, gauss_members=20,
    proj_height=2**10, proj_random=25, proj_members=25,
    aff_height=2**8, aff_random=25, aff_members=25,
    census_n1=100, census_n2=20, ambient_bound=30,
)
