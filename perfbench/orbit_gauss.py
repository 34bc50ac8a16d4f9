"""orbit-gauss: ``enumerate --out``, ``growth --fit --check-lemmas`` and
``audit`` on one seeded variant of the base-(1+i) digit system.

The seed picks a in {1+i, 1-i} and the digit b in {1, i, -1, -i} of the
maps {a z, a z + b}.  Every variant has the same size sequence and a clean
orbit audit, so the work is the same and only the coordinates differ.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from cli_workload import Op, measure, measure_traced
from common import WORK, CliRun, Sizes, Tally, artifact_problems, import_probe, layer_metrics

NAME = "orbit-gauss"
EXPECTED_SPANS = (
    "spaces.load_system",
    "spaces.validate_system",
    "enumeration.enumerate_system",
    "enumeration.PointBag.entries",
    "enumeration.audit_exactness.orbit",
    "growth.counting_function",
    "growth.fit_growth_exponent",
    "growth.lemma_bound_check",
    "dimension.solve_dimension",
)

PINNED = True
KNOWN_DEFECTS: dict = {}

_A = ((1, 1), (1, -1))
_B = ((1, 0), (0, 1), (-1, 0), (0, -1))
VARIANTS = tuple((a, b) for a in _A for b in _B)


def variant_document(index: int) -> dict:
    a, b = ([str(part) for part in z] for z in VARIANTS[index])
    return {
        "space": "gauss",
        "label": f"gauss-base-v{index}",
        "maps": [
            {"kind": "gauss_affine", "a": a, "b": ["0", "0"]},
            {"kind": "gauss_affine", "a": a, "b": b},
        ],
        "seeds": [["0", "0"]],
    }


def enumerated_count(run: CliRun):
    first = run.stdout.split(" ", 1)[0]
    return int(first) if first.isdigit() else None


@dataclass
class State:
    ops: list


def setup(seed: int, sizes: Sizes, pins: dict) -> State:
    """``pins`` is this workload's section of pins.json, keyed by bound and
    variant; an empty dict means no digest checks."""
    import_probe()
    variant = seed % len(VARIANTS)
    path = WORK / "inputs" / f"gauss-base-v{variant}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(variant_document(variant), indent=2) + "\n")
    bound = sizes.gauss_bound
    if pins:
        pins = pins.get(str(bound), {}).get(str(variant))
        if pins is None:
            raise SystemExit(f"perfbench: {NAME}: no pinned digests for variant {variant}")
    doc = str(path.relative_to(WORK.parent))

    def pinned(op: str):
        return lambda run: artifact_problems(run.out_dir, pins[op]) if pins else []

    def check_enumerate(run: CliRun) -> list:
        problems = pinned("enumerate")(run)
        count = enumerated_count(run)
        if "(truncated: False)" not in run.stdout:
            problems.append("enumeration truncated")
        if pins and count != pins["points"]:
            problems.append(f"{count} points, pinned {pins['points']}")
        return problems

    def check_audit(run: CliRun) -> list:
        problems = pinned("audit")(run)
        if "-> exact" not in run.stdout:
            problems.append("orbit audit is not exact")
        return problems

    bound_arg = str(bound)
    ops = [
        Op("enumerate", "enumerate",
           ["enumerate", doc, "--bound", bound_arg, "--out", "{out}/points.csv"], check_enumerate),
        Op("growth", "growth",
           ["growth", doc, "--bound", bound_arg, "--fit", "--check-lemmas", "sdim±0.05"],
           pinned("growth")),
        Op("audit", "audit", ["audit", doc, "--bound", bound_arg], check_audit),
    ]
    return State(ops)


def run(state: State, seconds: float, tally: Tally) -> dict:
    return measure(state.ops, seconds, tally)


def run_traced(state: State, tally: Tally):
    untraced, _, summary, metrics = measure_traced(state.ops, tally)
    walls = {run.op: run.wall_s for run in untraced}
    metrics.update(layer_metrics(summary))
    metrics["enumerate_s"] = walls["enumerate"]
    metrics["growth_s"] = walls["growth"]
    metrics["audit_s"] = walls["audit"]
    points = enumerated_count(untraced[0]) or 0
    metrics["points_per_s"] = points / walls["enumerate"]
    return metrics, summary
