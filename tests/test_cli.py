import json

import pytest

from arithfractal import enumerate_system, load_system
from arithfractal.cli import _write_csv, main
from arithfractal.corpus import corpus_path

Z_BINARY = str(corpus_path("z-binary"))
DIGITS01 = str(corpus_path("digits01"))
Q2 = str(corpus_path("q2-powers2"))
P1 = str(corpus_path("p1-doubling"))


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dim_z_binary(tmp_path, capsys):
    code, out, _ = run(["--out-dir", str(tmp_path), "dim", Z_BINARY], capsys)
    assert code == 0
    assert "s = 1" in out
    assert "sum(1/|a_i|) = 1" in out
    payload = json.loads((tmp_path / "dim.json").read_text())
    assert payload["s_at_most_one"] is True
    assert abs(float(payload["s"]) - 1.0) < 1e-10
    assert float(payload["residual"]) < 1e-12


def test_dim_convention_flag(tmp_path, capsys):
    gauss = str(corpus_path("gauss-base"))
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "dim", gauss, "--convention", "abs"], capsys
    )
    assert code == 0
    assert "convention: abs" in out
    payload = json.loads((tmp_path / "dim.json").read_text())
    assert abs(float(payload["s"]) - 2.0) < 1e-9


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(["--out-dir", str(tmp_path), "dim", "missing.json"], capsys)
    assert code == 2
    assert "MissingFile" in err


def test_enumerate_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "pts.csv"
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "enumerate", DIGITS01, "--bound", "1000",
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == "point,size,log_size,depth"
    assert len(lines) == 10  # header + 9 points
    assert lines[1].startswith("0,0,0,0")


@pytest.mark.parametrize(
    "name, bound",
    [("digits01", "1e6"), ("gauss-base", "4096"), ("p1-powers2-full", "4096"),
     ("q2-powers2", "256")],
)
def test_enumerate_csv_matches_fmt_rows(tmp_path, capsys, name, bound):
    # The streamed writer must give the bytes of the fmt()-per-cell rows.
    system_path = str(corpus_path(name))
    out_file = tmp_path / "pts.csv"
    code, _, _ = run(
        ["--out-dir", str(tmp_path), "enumerate", system_path, "--bound", bound,
         "--out", str(out_file)],
        capsys,
    )
    assert code == 0
    bag = enumerate_system(load_system(system_path), float(bound))
    rows = [[str(e.point), e.size.raw, e.size.log_size, e.depth] for e in bag.entries]
    expected = tmp_path / "expected.csv"
    _write_csv(expected, ["point", "size", "log_size", "depth"], rows)
    assert out_file.read_bytes() == expected.read_bytes()
    if name == "q2-powers2":
        assert '"(2,4)",' in out_file.read_text()  # affine points quote their commas


def test_member_certificate(tmp_path, capsys):
    code, out, _ = run(["--out-dir", str(tmp_path), "member", DIGITS01, "101"], capsys)
    assert code == 0
    assert "member" in out and "[1, 0, 1]" in out and "True" in out
    code, out, _ = run(["--out-dir", str(tmp_path), "member", DIGITS01, "12"], capsys)
    assert code == 0
    assert "not a member" in out


def test_audit_json(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "audit", DIGITS01, "--bound", "1e6"], capsys
    )
    assert code == 0
    payload = json.loads((tmp_path / "audit.json").read_text())
    assert payload["exact"] is True
    assert payload["overlap_count"] == 0 and payload["uncovered_count"] == 0


def test_growth_fit_and_lemmas(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "growth", DIGITS01, "--bound", "1e9",
         "--fit", "--check-lemmas", "sdim+-0.05"],
        capsys,
    )
    assert code == 0
    verdict = json.loads((tmp_path / "growth_verdict.json").read_text())
    assert abs(float(verdict["fit"]["exponent"]) - 0.301) < 0.03
    checks = {(c["direction"], c["expected"]): c["bounded"] for c in verdict["lemma_checks"]}
    assert checks[("upper", "bounded")] is True
    assert checks[("lower", "bounded")] is True
    assert checks[("upper", "unbounded")] is False
    body = (tmp_path / "growth.csv").read_text().splitlines()
    assert body[0].startswith("x,N,h_s=")


def test_growth_bad_lemma_gap_is_config_error(tmp_path, capsys):
    code, _, err = run(
        ["--out-dir", str(tmp_path), "growth", DIGITS01, "--bound", "1e3",
         "--check-lemmas", "sdim+-abc"],
        capsys,
    )
    assert code == 2
    assert "error[" in err and "sdim+-abc" in err


def test_census_csv(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "census", "--n", "1", "--bound", "100",
         "--compare-schanuel"],
        capsys,
    )
    assert code == 0
    rows = (tmp_path / "census.csv").read_text().splitlines()
    assert rows[0] == "bound,count,prediction,ratio"
    bound, count, prediction, ratio = rows[1].split(",")
    assert count == "12176"
    assert abs(float(ratio) - 1.0) < 0.05


def test_height_command(tmp_path, capsys):
    code, out, _ = run(["--out-dir", str(tmp_path), "height", "2:3"], capsys)
    assert code == 0
    assert "size: 3" in out
    code, out, _ = run(["--out-dir", str(tmp_path), "height", "3+4i"], capsys)
    assert code == 0
    assert "size: 25" in out


def test_approx_command(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "approx", P1, "--target", "0:1",
         "--delta", "0.9", "--C", "1", "--bound", str(2**20)],
        capsys,
    )
    assert code == 0
    assert "NOT stabilized" in out  # hits keep arriving at the critical value
    verdict = json.loads((tmp_path / "approx_verdict.json").read_text())
    assert abs(float(verdict["tail_exponent"]) - 1.0) < 0.02


def test_intersect_command(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "intersect", Q2, "--curve", "x1+x2-6",
         "--bounds", "16,256,4096"],
        capsys,
    )
    assert code == 0
    assert "stabilized: True" in out
    assert "(2,4)" in out and "(4,2)" in out


def test_ec_height_command(tmp_path, capsys):
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "--tol", "1e-3", "ec", "height",
         "--curve", "0,0,1,-1,0", "--point", "0,0"],
        capsys,
    )
    assert code == 0
    assert "canonical height: 0.051" in out


def test_ec_neron_command(tmp_path, capsys):
    h = 0.0511
    grid = ",".join(str(h * 2**t) for t in range(4, 13))
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "--tol", "1e-3", "ec", "neron",
         "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", grid],
        capsys,
    )
    assert code == 0
    assert "fitted exponent: 0.4" in out or "fitted exponent: 0.5" in out


def test_corpus_listing(capsys):
    code = main(["corpus"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("z-binary", "digits01", "p1-doubling", "ec-37a"):
        assert name in out


def test_manifest_rerun_byte_identical(tmp_path, capsys):
    first = tmp_path / "a"
    second = tmp_path / "b"
    code, _, _ = run(
        ["--out-dir", str(first), "growth", DIGITS01, "--bound", "1e6", "--fit"],
        capsys,
    )
    assert code == 0
    manifest = first / "growth_manifest.json"
    assert manifest.exists()
    # Replaying into a fresh directory rebases the outputs there.
    code, _, _ = run(["--out-dir", str(second), "rerun", str(manifest)], capsys)
    assert code == 0
    assert (second / "growth.csv").read_bytes() == (first / "growth.csv").read_bytes()
    assert (second / "growth_verdict.json").read_bytes() == (
        first / "growth_verdict.json"
    ).read_bytes()


def test_rerun_negative_point_value(tmp_path, capsys):
    # 3P = (-1,-1) on 37a: the replayed "--point" value starts with "-".
    first = tmp_path / "a"
    second = tmp_path / "b"
    argv = ["--tol", "1e-3", "ec", "height", "--curve", "0,0,1,-1,0", "--point=-1,-1"]
    code, out, _ = run(["--out-dir", str(first)] + argv, capsys)
    assert code == 0
    manifest = first / "ec_manifest.json"
    code, rerun_out, err = run(["--out-dir", str(second), "rerun", str(manifest)], capsys)
    assert code == 0, err
    assert rerun_out == out
    assert (second / "ec_manifest.json").read_bytes() == manifest.read_bytes()
