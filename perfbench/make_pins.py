"""Regenerate pins.json, the correctness gate's expected values, from the
program as it is now.  Run it only on a commit whose outputs are known to
be right, since every later run is compared with what it records:

    python3 perfbench/make_pins.py

It records the sha256 of every data artifact (CSV and JSON outputs, not
manifests, which hold output paths) of orbit-gauss for each of its eight
variants and of exact-kernels, and the census counts.  The reference
canonical height is not made here: it is a published value, kept in
exact_kernels.py.
"""

from __future__ import annotations

import json
import shutil
import sys

import common
from common import FULL, PINS_PATH, data_artifacts, require_program, sha256


def digests(runs) -> dict:
    return {run.op: {n: sha256(run.out_dir / n) for n in data_artifacts(run)} for run in runs}


def main() -> int:
    require_program()
    import exact_kernels
    import orbit_gauss
    from cli_workload import run_pass

    variants = {}
    for variant in range(len(orbit_gauss.VARIANTS)):
        state = orbit_gauss.setup(variant, FULL, pins={})
        tally = common.Tally()
        runs = run_pass(state.ops, tally, keep=True)
        if tally.failed:
            raise SystemExit(f"variant {variant} fails: {tally.failures}")
        variants[str(variant)] = {"points": orbit_gauss.enumerated_count(runs[0]), **digests(runs)}
        for run in runs:
            run.discard()
        print(f"variant {variant}: {variants[str(variant)]['points']} points", file=sys.stderr)

    state = exact_kernels.setup(0, FULL, pins={})
    tally = common.Tally(known_defects=exact_kernels.KNOWN_DEFECTS)
    runs = run_pass(state.ops, tally, keep=True)
    if not tally.correct:
        raise SystemExit(f"exact-kernels fails: {tally.failures}")
    counts = {}
    for run in runs:
        if run.op.startswith("census-"):
            counts[run.op[len("census-"):]] = int(run.stdout.split(" = ")[1].split(";")[0])
    artifacts = {op: names for op, names in digests(runs).items() if names}
    for run in runs:
        run.discard()

    pins = {
        orbit_gauss.NAME: {str(FULL.gauss_bound): variants},
        exact_kernels.NAME: {
            "census": counts,
            "artifacts": artifacts,
        },
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(common.TMP, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
