"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.require_program()

import exact_kernels  # noqa: E402
import member_mix  # noqa: E402
import orbit_gauss  # noqa: E402
from cli_workload import run_pass  # noqa: E402
from run import WORKLOADS, run_workload  # noqa: E402

BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True, scope="module")
def remove_cli_output_dirs():
    yield
    shutil.rmtree(common.TMP, ignore_errors=True)


def units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[kind]}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert units("end_to_end")["setup_s"] == "s"


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric_with_its_unit(name, trace):
    result, record, _ = run_workload(name, seed=1, seconds=0, trace=trace, sizes=common.TINY)
    expected = units("per_layer" if trace else "end_to_end")
    assert {m: v["unit"] for m, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["correct"]
    failed_ops = {op for op, _, _ in record["failures"]}
    if name == "exact-kernels":
        assert failed_ops <= exact_kernels.KNOWN_DEFECTS.keys()
    else:
        assert not failed_ops


def test_flipped_artifact_byte_is_a_failure():
    state = orbit_gauss.setup(1, common.TINY, pins={})
    tally = common.Tally()
    [run] = run_pass(state.ops[:1], tally, keep=True)
    assert tally.failed == 0
    points = run.out_dir / "points.csv"
    digest = common.sha256(points)
    data = bytearray(points.read_bytes())
    data[len(data) // 2] ^= 0x01
    points.write_bytes(bytes(data))
    assert common.artifact_problems(run.out_dir, {"points.csv": digest})
    common.rerun_check([run], tally)
    run.discard()
    assert tally.failed == 1 and not tally.correct


def test_wrong_membership_answer_is_a_failure(monkeypatch):
    from arithfractal import enumeration

    state = member_mix.setup(1, common.TINY, pins={})
    honest = enumeration.is_member
    wrong_at = state.queries[0][1]

    def lying(system, point, *args, **kwargs):
        result = honest(system, point, *args, **kwargs)
        return result._replace(member=not result.member) if point == wrong_at else result

    monkeypatch.setattr(enumeration, "is_member", lying)
    tally = common.Tally()
    member_mix.query_pass(state, tally)
    wrong = sum(1 for _, p, _ in state.queries if p == wrong_at)
    assert tally.failed == wrong >= 1
    assert not tally.correct


def test_known_defects_still_count_as_failures():
    tally = common.Tally(known_defects=exact_kernels.KNOWN_DEFECTS)
    tally.record("height-P_1e-6", ["|h - reference| = 1.06e-05 > tol 1e-6"])
    tally.record("dim", [])
    assert (tally.attempted, tally.failed, tally.correct) == (2, 1, True)
    tally.record("census-n1", ["artifact census.csv differs from its pinned digest"])
    assert not tally.correct


@pytest.mark.parametrize(
    "op, problems",
    [
        ("height-P_1e-6", ["|h - reference| = 0.0102 > tol 1e-6"]),
        ("height-P_1e-6", ["exit code 1: ValueError: bad point", "traceback on stderr"]),
        ("height-2P_1e-10", ["no canonical height in the output"]),
        ("rerun-height-3P_1e-6", ["exit code 1: ZeroDivisionError", "traceback on stderr"]),
    ],
)
def test_known_defect_ops_fail_for_any_other_cause(op, problems):
    tally = common.Tally(known_defects=exact_kernels.KNOWN_DEFECTS)
    tally.record(op, problems)
    assert tally.failed == 1 and not tally.correct


def test_height_reference_error_is_far_below_every_tolerance():
    for _, _, tol, n in exact_kernels.HEIGHT_OPS:
        assert n * n * exact_kernels.REFERENCE_HEIGHT_ERROR <= float(tol) / 1e4


def test_all_runs_each_workload_in_its_own_process():
    def results(workload: str) -> dict:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload, "--size", "tiny",
             "--seconds", "0", "--trace", "0"],
            cwd=common.ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        lines = [json.loads(line) for line in proc.stdout.splitlines()]
        metadata = [line["metadata"] for line in lines[0::2]]
        return {m["workload"]: (m["pid"], r) for m, r in zip(metadata, lines[1::2])}

    together = results("all")
    assert list(together) == list(WORKLOADS)
    assert len({pid for pid, _ in together.values()}) == len(WORKLOADS)
    alone = results(WORKLOADS[-1])[WORKLOADS[-1]][1]["metrics"]["peak_rss_mib"]["value"]
    third = together[WORKLOADS[-1]][1]["metrics"]["peak_rss_mib"]["value"]
    assert abs(third - alone) <= 0.1 * alone
