import argparse
import contextlib
import copy
import hashlib
import io
import json
import re
import shlex
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithfractal import enumerate_system, load_system
from arithfractal.cli import _write_csv, build_parser, main
from arithfractal.corpus import corpus_names, corpus_path

Z_BINARY = str(corpus_path("z-binary"))
GAUSS = str(corpus_path("gauss-base"))
DIGITS01 = str(corpus_path("digits01"))
Q2 = str(corpus_path("q2-powers2"))
P1 = str(corpus_path("p1-doubling"))
P1_FULL = str(corpus_path("p1-powers2-full"))


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


def _term(coeff, exponents):
    return {"coeff": coeff, "exponents": exponents}


# Documents written next to the output; every other name is a corpus system.
_CSV_DOCS = {
    # {x -> -2x, x -> -2x + 1} from 0 reaches the negative integers too.
    "negabinary": {"space": "int", "label": "negabinary", "seeds": ["0"], "maps": [
        {"kind": "int_affine", "a": "-2", "b": "0"},
        {"kind": "int_affine", "a": "-2", "b": "1"}]},
    # Odd powers and negative coefficients keep both signs in both coordinates.
    "affq-signed": {"space": "affq", "label": "affq-signed",
                    "seeds": [["-1/2", "2/3"], ["3/4", "-5/3"], ["-2", "1/3"]], "maps": [
        {"kind": "poly_tuple", "components": [[_term("-1", [3, 0])], [_term("1/2", [0, 3])]]},
        {"kind": "poly_tuple", "components": [
            [_term("1", [2, 0]), _term("-1", [1, 0])],
            [_term("-2", [0, 2]), _term("1", [0, 0])]]}]},
}


@pytest.mark.parametrize("name, bound, max_points", [
    pytest.param("digits01", "1e6", None, id="digits01-1e6"),
    pytest.param("gauss-base", "4096", None, id="gauss-base-4096"),
    pytest.param("p1-powers2-full", "4096", None, id="p1-powers2-full-4096"),
    pytest.param("q2-powers2", "256", None, id="q2-powers2-256"),
    pytest.param("ec-37a", "1e30", None, id="ec-37a-1e30"),
    pytest.param("z-2x3x", "1e12", None, id="z-2x3x-1e12"),
    pytest.param("negabinary", "1000", None, id="negabinary-1000"),
    # Generations 0-9 hold 512 points and generation 10 another 512: the cut
    # at 700 lands inside it.
    pytest.param("gauss-base", "4096", 700, id="gauss-base-4096-max700"),
    pytest.param("affq-signed", "1e12", None, id="affq-signed-1e12"),
])
def test_enumerate_csv_matches_fmt_rows(tmp_path, capsys, name, bound, max_points):
    # The streamed writer must give the bytes of the fmt()-per-cell rows.
    if name in _CSV_DOCS:
        system_path = tmp_path / f"{name}.json"
        system_path.write_text(json.dumps(_CSV_DOCS[name]))
    else:
        system_path = corpus_path(name)
    out_file = tmp_path / "pts.csv"
    cut = [] if max_points is None else ["--max-points", str(max_points)]
    code, out, _ = run(
        ["--out-dir", str(tmp_path), "enumerate", str(system_path), "--bound", bound,
         "--out", str(out_file)] + cut,
        capsys,
    )
    assert code == 0
    bag = enumerate_system(load_system(system_path), float(bound), max_points or 10**7)
    assert f"(truncated: {max_points is not None})" in out
    rows = [[str(e.point), e.size.raw, e.size.log_size, e.depth] for e in bag.entries]
    expected = tmp_path / "expected.csv"
    _write_csv(expected, ["point", "size", "log_size", "depth"], rows)
    assert out_file.read_bytes() == expected.read_bytes()
    text = out_file.read_text()
    if name == "q2-powers2":
        assert '"(2,4)",' in text  # affine points quote their commas
    elif name == "negabinary":
        assert "\n-2,2,0.693147180559945,2\n" in text
    elif name == "affq-signed":
        assert '\n"(-1/2,2/3)",' in text and '"(-2,1/3)",' in text
    elif name == "ec-37a":
        assert "\n\"(21/25,-69/125)\"," in text
    elif max_points is not None:
        assert len(bag) == max_points and max(e.depth for e in bag.entries) == 10


def test_member_certificate(tmp_path, capsys):
    code, out, _ = run(["--out-dir", str(tmp_path), "member", DIGITS01, "101"], capsys)
    assert code == 0
    assert "member" in out and "[1, 0, 1]" in out and "True" in out
    code, out, _ = run(["--out-dir", str(tmp_path), "member", DIGITS01, "12"], capsys)
    assert code == 0
    assert "not a member" in out


@pytest.mark.parametrize("system, point", [(Q2, "1/2"), (P1, "(1:2:3)")])
def test_member_query_of_other_arity_exits_2(tmp_path, capsys, system, point):
    code, out, err = run(["--out-dir", str(tmp_path), "member", system, point], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error[ConfigParse]: ") and "coordinates, unlike the maps" in err


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


def test_census_at_and_past_the_limit(tmp_path, capsys):
    code, out, _ = run(["--out-dir", str(tmp_path), "census", "--n", "4", "--bound", "1e7"], capsys)
    assert code == 0 and out.startswith("census(n=4, x=10000000.0) = ")
    argv = ["--out-dir", str(tmp_path / "past"), "census", "--n", "4", "--bound", "10000001"]
    code, out, err = run(argv, capsys)
    assert code == 3 and out == ""
    assert "BoundTooLarge" in err and "exceeds the limit 10000000" in err


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


@pytest.mark.parametrize("grid", ["1e60,1e61,1e62", "1e306,1e307,1e308"])
def test_ec_neron_on_huge_grid_values(tmp_path, capsys, grid):
    argv = ["--out-dir", str(tmp_path), "--tol", "1e-3", "ec", "neron",
            "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", grid]
    code, out, _ = run(argv, capsys)
    assert code == 0 and "fitted exponent: 0.5" in out
    assert len((tmp_path / "neron.csv").read_text().splitlines()) == 4


@pytest.mark.parametrize(
    "flags",
    [
        ["--check-lemmas", "sdim±400"],
        ["--check-lemmas", "sdim±3000"],
        ["--grid", "5,5,5,5", "--check-lemmas", "sdim±0.05"],
        ["--grid", "5,5,5,5", "--fit"],
    ],
)
def test_growth_checks_without_data_are_analysis_errors(tmp_path, capsys, flags):
    argv = ["growth", DIGITS01, "--bound", "1e9"] + flags
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err.startswith("error[InsufficientDataError.InsufficientData]: ")


def test_ec_37a_member_and_audit(tmp_path, capsys):
    ec = str(corpus_path("ec-37a"))
    for point, answer in (("1,0", "member (decided by enumeration fallback)"),
                          ("-1,-1", "not a member"), ("6,14", "not a member")):
        code, out, _ = run(["--out-dir", str(tmp_path), "member", ec, "--", point], capsys)
        assert code == 0 and out == f"{point}: {answer}\n"
    code, out, _ = run(["--out-dir", str(tmp_path), "audit", ec, "--bound", "1e100"], capsys)
    assert code == 0 and ": 7 points, 0 overlaps, 0 uncovered -> exact" in out
    argv = ["audit", ec, "--bound", "1e100", "--window", "ambient"]
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 3 and "UnsupportedSpace" in err


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


@pytest.mark.parametrize(
    "argv",
    [["member", str(corpus_path("gauss-base")), "--", "-1+2i"], ["height", "--", "-1+2i"]],
)
def test_rerun_negative_positional_point(tmp_path, capsys, argv):
    # A positional literal that starts with "-" is replayed after "--".
    first = tmp_path / "a"
    second = tmp_path / "b"
    code, out, _ = run(["--out-dir", str(first)] + argv, capsys)
    assert code == 0
    manifest = first / f"{argv[0]}_manifest.json"
    code, rerun_out, err = run(["--out-dir", str(second), "rerun", str(manifest)], capsys)
    assert code == 0, err
    assert rerun_out == out
    assert (second / manifest.name).read_bytes() == manifest.read_bytes()


# --- parse-layer and flag-value errors ---------------------------------------


def _int_doc(a, b=None):
    record = {"kind": "int_affine", "a": a}
    if b is not None:
        record["b"] = b
    return {"space": "int", "label": "bad", "maps": [record], "seeds": ["0"]}


_Q2_THREE_COORDS = {
    **json.loads(corpus_path("q2-powers2").read_text()),
    "seeds": [["1", "1", "1"]],
}
_EMPTY_FORMS = {
    "space": "projq",
    "label": "bad",
    "maps": [{"kind": "proj_homog", "forms": []}],
    "seeds": [["1", "2"]],
}
EC37A = str(corpus_path("ec-37a"))
_SINGULAR_CURVE = {
    **json.loads(corpus_path("ec-37a").read_text()),
    "curve": {"a1": "0", "a2": "0", "a3": "0", "a4": "0", "a6": "0"},
}


def _affq_doc(*components):
    """A one-map affq document; each component is a list of (coeff, exponents)."""
    records = [[{"coeff": c, "exponents": list(e)} for c, e in comp] for comp in components]
    seed = ["1"] * len(components)
    maps = [{"kind": "poly_tuple", "components": records}]
    return {"space": "affq", "label": "bad", "maps": maps, "seeds": [seed]}


_SHIFT = _affq_doc([("1", (1,)), ("1", (0,))])  # x -> x + 1
_LINEAR_P1 = {  # the (2x : y) map on P^1, of degree and weight 1
    "space": "projq", "label": "bad", "seeds": [["1", "1"]],
    "maps": [{"kind": "proj_homog", "forms": [[{"coeff": "2", "exponents": [1, 0]}],
                                              [{"coeff": "1", "exponents": [0, 1]}]]}],
}
_NO_SUBCOMMAND = {"artifact": "arithfractal", "parameters": {}, "outputs": []}
_ZERO_SEED = {
    **json.loads(corpus_path("p1-doubling").read_text()),
    "seeds": [["1", "2"], ["0", "0"]],
}


@pytest.mark.parametrize(
    "argv, doc",
    [
        (["member", DIGITS01, "abc"], None),
        (["height", "1:0:0:x"], None),
        (["height", "3+xi"], None),
        (["height", "1/0,2"], None),
        (["ec", "height", "--curve", "0,0,1,-1,x", "--point", "0,0"], None),
        (["approx", P1, "--target", "0:x", "--delta", "0.9", "--bound", "1000"], None),
        (["dim", "{doc}"], _int_doc("2")),  # int_affine record without b
        (["dim", "{doc}"], _int_doc("1e3", "0")),
        (["dim", "{doc}"], _EMPTY_FORMS),
        (["dim", "{doc}"], _Q2_THREE_COORDS),
        (["member", "{doc}", "1,1,1"], _Q2_THREE_COORDS),
        (["enumerate", DIGITS01, "--bound", "nan"], None),
        (["enumerate", DIGITS01, "--bound", "inf"], None),
        (["growth", DIGITS01, "--bound", "1e3", "--grid", "1,x"], None),
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", "a"], None),
        (["intersect", Q2, "--curve", "x1+x2-6", "--bounds", "1,x"], None),
        (["rerun", "{doc}"], _NO_SUBCOMMAND),
        (["height", "0:0"], None),
        (["member", P1, "0:0"], None),
        (["dim", "{doc}"], _ZERO_SEED),
        (["member", DIGITS01, "--", "--"], None),  # argparse hands over [] as the point
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", ""], None),
        (["growth", DIGITS01, "--bound", "100", "--grid", ""], None),
        (["growth", DIGITS01, "--bound", "100", "--grid", ","], None),
        (["growth", DIGITS01, "--bound", "100", "--grid", "", "--fit"], None),
        (["growth", DIGITS01, "--bound", "100", "--grid", "geometric:1"], None),
        (["growth", DIGITS01, "--bound", "100", "--grid", "geometric:0.5"], None),
        (["intersect", Q2, "--curve", "x1+x2-6", "--bounds", ""], None),
        (["intersect", Q2, "--curve", "not x1+x2-6", "--bounds", "16"], None),
        (["census", "--bound", "-5"], None),
        (["census", "--n", "0", "--bound", "10"], None),
        (["census", "--n", "5", "--bound", "10"], None),
        (["approx", P1, "--target", "0:1", "--delta", "nan", "--bound", "100"], None),
        (["approx", P1, "--target", "0:1", "--delta", "inf", "--bound", "100"], None),
        (["approx", P1, "--target", "0:1", "--delta", "0.9", "--C", "inf", "--bound", "100"], None),
        (["approx", P1, "--target", "0:1", "--delta", "0.9", "--C", "nan", "--bound", "100"], None),
        (["enumerate", DIGITS01, "--bound", "100", "--max-points", "0"], None),
        (["enumerate", DIGITS01, "--bound", "100", "--max-points", "-1"], None),
        (["member", DIGITS01, "101", "--depth-limit", "0"], None),
        (["member", DIGITS01, "101", "--depth-limit", "-1"], None),
        (["intersect", Q2, "--curve", "x1**99999999", "--bounds", "16"], None),
        (["intersect", Q2, "--curve", "(x1+x2)**3000", "--bounds", "16"], None),
        (["intersect", Q2, "--curve", "2**99999999", "--bounds", "16"], None),
        (["approx", P1, "--target", "0:0", "--delta", "0.9", "--bound", "100"], None),
        (["growth", DIGITS01, "--bound", "1e3", "--check-lemmas", "sdim±nan"], None),
        (["growth", DIGITS01, "--bound", "1e3", "--check-lemmas", "sdim±inf"], None),
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid=-1,1"], None),
        (["member", EC37A, "1,1"], None),  # off the curve
        (["ec", "height", "--curve", "0,0,1,-1,0", "--point", "1,1"], None),
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "1,1", "--grid", "1"], None),
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", "1",
          "--torsion", "1,1"], None),
        (["dim", "{doc}"], _SINGULAR_CURVE),
        (["ec", "height", "--curve", "0,0,0,0,0", "--point", "0,0"], None),
        (["enumerate", "{doc}", "--bound", "5000"], _SHIFT),
        (["enumerate", "{doc}", "--bound", "20000"], _SHIFT),
        (["dim", "{doc}"], _SHIFT),
        (["dim", "{doc}"], _affq_doc([("1/2", (1,))])),  # x -> x/2
        (["dim", "{doc}"], _affq_doc([("2", (1, 0))], [("3", (0, 1))])),  # (2x1, 3x2)
        (["dim", "{doc}"], _LINEAR_P1),
    ],
)
def test_malformed_input_is_config_error(tmp_path, capsys, argv, doc):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = [str(path) if a == "{doc}" else a for a in argv]
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert "error[ConfigParse]" in err


def test_torsion_on_the_curve_but_not_torsion_is_analysis_error(tmp_path, capsys):
    argv = ["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", "1",
            "--torsion", "1,0"]
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 3 and out == ""
    assert err.startswith("error[PointNotOnCurveError.PointNotOnCurve]: (1,0) supplied as torsion")


@pytest.mark.parametrize(
    "argv", [["dim", "{doc}"], ["growth", "{doc}", "--bound", "1000", "--check-lemmas", "sdim"]]
)
def test_weight_past_the_float_range_is_one_line(tmp_path, capsys, argv):
    # 10^400 * x expands, so the system validates, but its weight has no float.
    doc = _int_doc("1" + "0" * 400, "0")
    doc["maps"].append({"kind": "int_affine", "a": "3", "b": "1"})
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    argv = [str(path) if a == "{doc}" else a for a in argv]
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 3 and out == "" and err.count("\n") == 1
    assert err == "error[BoundTooLargeError.BoundTooLarge]: the weight of map 0 exceeds the float range\n"


def _intersect(curve):
    return ["intersect", Q2, "--curve", curve, "--bounds", "16"]


@pytest.mark.parametrize(
    "argv, says",
    [
        (["growth", DIGITS01, "--bound", "100", "--grid", ""], "--grid"),
        (["growth", DIGITS01, "--bound", "100", "--grid", "geometric:1"], "--grid geometric:"),
        (["intersect", Q2, "--curve", "x1+x2-6", "--bounds", ","], "--bounds"),
        (["ec", "neron", "--curve", "0,0,1,-1,0", "--gen", "0,0", "--grid", " "], "--grid"),
        (["enumerate", DIGITS01, "--bound", "100", "--max-points", "0"], "max_points"),
        (["member", DIGITS01, "101", "--depth-limit", "0"], "depth_limit"),
        (["approx", P1, "--target", "0:1", "--delta", "0.9", "--C", "inf", "--bound", "9"],
         "delta and C must be finite and positive"),
        (_intersect("1e400*x1"), "cannot use '1e400'"),
        (_intersect("x1 + True"), "cannot use 'True'"),
        (_intersect("~x1"), "cannot use '~x1'"),
        pytest.param(_intersect("+".join(["x1"] * 1200)), "nested too deeply", id="sum-1200"),
        (_intersect("x1**99999999"), "exponent and degree limit 64"),
        (_intersect("(((2**64)**64)**64)**64"), "coefficient limit of 4096 bits"),
        (["enumerate", P1_FULL, "--bound", "100", "--max-points", "1"], "max_points"),
        (["approx", P1, "--target", "0/1:0", "--delta", "0.9", "--bound", "9"], "'0/1:0'"),
        (["growth", DIGITS01, "--bound", "1e3", "--check-lemmas", "sdim±nan"], "'sdim±nan'"),
    ],
)
def test_bad_values_are_one_line_naming_the_input(tmp_path, capsys, argv, says):
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2 and out == "" and err.count("\n") == 1
    assert err.startswith("error[ConfigParse]: ") and says in err
    assert not list(tmp_path.iterdir())  # no table, verdict or manifest


@pytest.mark.parametrize(
    "argv, message",
    [
        (["growth", GAUSS, "--bound", "1e6", "--check-lemmas", "sdim±nan"],
         "--check-lemmas 'sdim±nan' (sdim±GAP) expects 1 finite number(s): 'nan'"),
        (["growth", GAUSS, "--bound", "1e6", "--check-lemmas", "sdim+-x"],
         "--check-lemmas 'sdim+-x' (sdim±GAP) expects 1 finite number(s): 'x'"),
        (["growth", GAUSS, "--bound", "1e6", "--grid", "geometric:1"],
         "--grid geometric: expects a factor above 1: 'geometric:1'"),
        (["growth", GAUSS, "--bound", "1e6", "--grid", "1,x"],
         "--grid expects one or more finite number(s): '1,x'"),
        (["approx", P1, "--target", "0/1:0", "--delta", "0.9", "--bound", "1e300"],
         "projective target must not be 0:0, got '0/1:0'"),
        (["approx", P1, "--target", "1:2:3", "--delta", "0.9", "--bound", "1e300"],
         "projective target must be a:b, got '1:2:3'"),
        (["approx", P1, "--target", "0:1", "--delta", "-1", "--bound", "1e300"],
         "delta and C must be finite and positive, got -1.0 and 1.0"),
    ],
)
def test_malformed_flags_fail_before_enumerating(tmp_path, capsys, monkeypatch, argv, message):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("enumerated before reading every flag")

    monkeypatch.setattr("arithfractal.cli.enumerate_system", no_enumeration)
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert (code, out, err) == (2, "", f"error[ConfigParse]: {message}\n")


# Every input of every subcommand: its flag (or positional dest), default,
# whether it is required, and its type.  The shared inputs are declared once,
# as parent parsers; this pins what each subcommand receives from them.
_PARSER_INPUTS = {
    "dim": {"convention": ("--convention", "norm", False, None),
            "system": ("system", None, True, None)},
    "enumerate": {"bound": ("--bound", None, True, float),
                  "max_points": ("--max-points", 10_000_000, False, int),
                  "out": ("--out", None, False, None), "system": ("system", None, True, None)},
    "member": {"depth_limit": ("--depth-limit", 10_000, False, int),
               "point": ("point", None, True, None), "system": ("system", None, True, None)},
    "audit": {"bound": ("--bound", None, True, float), "system": ("system", None, True, None),
              "window": ("--window", "orbit", False, None)},
    "growth": {"bound": ("--bound", None, True, float),
               "check_lemmas": ("--check-lemmas", "", False, None),
               "fit": ("--fit", False, False, None), "grid": ("--grid", "auto", False, None),
               "max_points": ("--max-points", 10_000_000, False, int),
               "out": ("--out", None, False, None), "system": ("system", None, True, None)},
    "census": {"bound": ("--bound", None, True, float),
               "compare_schanuel": ("--compare-schanuel", False, False, None),
               "n": ("--n", 1, False, int), "out": ("--out", None, False, None)},
    "height": {"point": ("point", None, True, None), "space": ("--space", None, False, None)},
    "approx": {"C": ("--C", 1.0, False, float), "bound": ("--bound", None, True, float),
               "delta": ("--delta", None, True, float),
               "max_points": ("--max-points", 10_000_000, False, int),
               "out": ("--out", None, False, None), "system": ("system", None, True, None),
               "target": ("--target", None, True, None)},
    "intersect": {"bounds": ("--bounds", None, True, None), "curve": ("--curve", None, True, None),
                  "out": ("--out", None, False, None), "system": ("system", None, True, None)},
    "ec height": {"curve": ("--curve", None, True, None), "point": ("--point", None, True, None)},
    "ec neron": {"curve": ("--curve", None, True, None), "gen": ("--gen", None, True, None),
                 "grid": ("--grid", None, True, None), "out": ("--out", None, False, None),
                 "torsion": ("--torsion", "", False, None)},
    "corpus": {"export": ("--export", None, False, None), "name": ("name", None, False, None)},
    "rerun": {"manifest": ("manifest", None, True, None)},
}


def _subcommand_inputs(parser, prefix=""):
    inputs = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, nested in action.choices.items():
                inputs.update(_subcommand_inputs(nested, f"{prefix} {name}".strip()))
        elif prefix and action.dest != "help":
            flag = action.option_strings[0] if action.option_strings else action.dest
            inputs.setdefault(prefix, {})[action.dest] = (
                flag, action.default, action.required, action.type)
    return inputs


def test_each_subcommand_keeps_its_inputs():
    assert _subcommand_inputs(build_parser()) == _PARSER_INPUTS


@pytest.mark.parametrize(
    "argv, says",
    [
        (["enumerate", DIGITS01], "enumerate: the following arguments are required: --bound"),
        (["enumerate", DIGITS01, "--bound", "abc"], "--bound: invalid float value: 'abc'"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["dim", DIGITS01, "--frobnicate"], "unrecognized arguments: --frobnicate"),
        (["audit", DIGITS01, "--bound", "10", "--window", "all"], "--window: invalid choice"),
        (["ec", "height", "--curve", "0,0,1,-1,0"], "required: --point"),
        (["ec", "height", "--curve", "0,0,1,-1,0", "--point", "0,0", "--grid", "1"],
         "unrecognized arguments: --grid 1"),
        (["approx"], "approx: the following arguments are required: system, --target, --delta, "
                     "--bound"),
    ],
)
def test_usage_errors_are_one_config_line(tmp_path, capsys, argv, says):
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 2
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error[ConfigParse]: arithfractal") and says in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["ec", "neron", "--help"])
    assert exc.value.code == 0
    assert "--gen" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "0", "-1", "inf", "abc"])
@pytest.mark.parametrize(
    "argv",
    [["dim", Z_BINARY], ["ec", "height", "--curve", "0,0,1,-1,0", "--point", "0,0"]],
)
def test_tol_must_be_finite_positive(tmp_path, capsys, tol, argv):
    code, _, err = run(["--out-dir", str(tmp_path), "--tol", tol] + argv, capsys)
    assert code == 2
    assert err.startswith("error[ConfigParse]: arithfractal: argument --tol: ")
    assert err.count("\n") == 1 and f"'{tol}'" in err
    assert not list(tmp_path.glob("*_manifest.json"))


def test_zero_projective_input_named(tmp_path, capsys):
    for argv in (["height", "0:0"], ["member", P1, "0:0"]):
        _, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
        assert "cannot read '0:0' as a point of 'projq'" in err
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_ZERO_SEED))
    _, _, err = run(["--out-dir", str(tmp_path), "dim", str(path)], capsys)
    assert "seed 1: all projective coordinates are zero" in err


def test_seed_arity_reported_as_bad_arity(tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(_Q2_THREE_COORDS))
    _, _, err = run(["--out-dir", str(tmp_path), "dim", str(path)], capsys)
    assert "BadArity at seed 0" in err


def test_rerun_of_census_manifest_with_threads(tmp_path, capsys):
    # Census manifests written while --threads existed record "threads": 1.
    first, second = tmp_path / "a", tmp_path / "b"
    code, _, _ = run(
        ["--out-dir", str(first), "census", "--n", "1", "--bound", "100",
         "--compare-schanuel"],
        capsys,
    )
    assert code == 0
    manifest = first / "census_manifest.json"
    old = json.loads(manifest.read_text())
    old["parameters"]["threads"] = 1
    manifest.write_text(json.dumps(old, indent=2, sort_keys=True) + "\n")
    code, _, err = run(["--out-dir", str(second), "rerun", str(manifest)], capsys)
    assert code == 0, err
    assert (second / "census.csv").read_bytes() == (first / "census.csv").read_bytes()


def test_zero_image_fails_validation(tmp_path, capsys):
    # (x1^2 - 16x2^2 : x1x2 - 4x2^2 : x3^2) vanishes only at (4:1:0), outside
    # [-3, 3]^3, and (x1^2 - 2x2^2 : x3^2 : x3^2) only at (sqrt(2):1:0), which
    # is not rational; both fail validation.  On P^1 the first two forms fail
    # too: they share the factor x1 - 4x2.
    forms = [
        [{"coeff": "1", "exponents": [2, 0, 0]}, {"coeff": "-16", "exponents": [0, 2, 0]}],
        [{"coeff": "1", "exponents": [1, 1, 0]}, {"coeff": "-4", "exponents": [0, 2, 0]}],
        [{"coeff": "1", "exponents": [0, 0, 2]}],
    ]
    plane = {
        "space": "projq",
        "label": "zero-at-4-1-0",
        "maps": [{"kind": "proj_homog", "forms": forms}],
        "seeds": [["4", "1", "0"]],
    }
    root_2 = {**plane, "label": "zero-at-root-2", "maps": [{"kind": "proj_homog", "forms": [
        [{"coeff": "1", "exponents": [2, 0, 0]}, {"coeff": "-2", "exponents": [0, 2, 0]}],
        forms[2],
        forms[2],
    ]}]}
    line = {
        "space": "projq",
        "label": "zero-at-4-1",
        "maps": [{"kind": "proj_homog", "forms": [
            [{**term, "exponents": term["exponents"][:2]} for term in form]
            for form in forms[:2]
        ]}],
        "seeds": [["4", "1"]],
    }
    path = tmp_path / "zero.json"
    for document, audit in ((plane, ["--bound", "100"]), (root_2, ["--bound", "100"]),
                            (line, ["--bound", "10", "--window", "ambient"])):
        path.write_text(json.dumps(document))
        for argv in (["enumerate", str(path), "--bound", "100"], ["audit", str(path)] + audit):
            code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
            assert code == 2
            assert "system fails validation: CommonZero at map 0: " in err


def test_ambient_window_past_point_limit_is_analysis_error(tmp_path, capsys):
    # Counting stops at the 10,000,001st of the window's 2*10^20 + 1 points.
    argv = ["audit", Z_BINARY, "--bound", "1e20", "--window", "ambient"]
    code, out, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 3 and out == ""
    assert "BoundTooLarge" in err and "more than 10000000 points" in err


# --- fuzzed documents and literals -------------------------------------------

_CORPUS_DOCS = [json.loads(corpus_path(n).read_text()) for n in corpus_names()]
_LITERALS = st.text(alphabet="0123456789-+/:,i() x", max_size=10)
_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 4),
    st.sampled_from(["", "x", "1e3", "1/0", "inf", "-2", "3/2", "0"]),
    st.lists(st.sampled_from(["0", "1", "2", "x"]), max_size=3),
    st.just({}),
)


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _mutate(doc, path, value):
    doc = copy.deepcopy(doc)
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    if value == "<delete>":
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _run_quiet(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_fuzzed_documents_and_literals_exit_cleanly(data):
    doc = data.draw(st.sampled_from(_CORPUS_DOCS))
    path = data.draw(st.sampled_from(list(_paths(doc))))
    value = data.draw(st.one_of(_VALUES, st.just("<delete>")))
    literal = data.draw(_LITERALS)
    with tempfile.TemporaryDirectory() as tmp:
        doc_path = Path(tmp) / "doc.json"
        doc_path.write_text(json.dumps(_mutate(doc, path, value)))
        for argv in (["dim", str(doc_path)],
                     ["member", str(doc_path), "--", literal],
                     ["height", "--", literal]):
            code, err = _run_quiet(["--out-dir", tmp] + argv)
            assert code in (0, 2, 3)
            if code:
                assert "error[" in err and "Traceback" not in err


# --- affq output pins --------------------------------------------------------


def _affq_doc_1d(label, maps, seeds):
    """A one-variable affq document; each map is a list of (coeff, exponent)."""
    maps = [{"kind": "poly_tuple",
             "components": [[{"coeff": c, "exponents": [e]} for c, e in terms]]}
            for terms in maps]
    return {"space": "affq", "label": label, "maps": maps, "seeds": [[s] for s in seeds]}


# {x -> x^2, x -> 16x^2 - 4x} from 1/2: heights drop (16*(1/4)^2 - 1 = 0).
_DROP = _affq_doc_1d("drop", [[("1", 2)], [("16", 2), ("-4", 1)]], ["1/2"])
# {x -> x^2, x -> x^4} from 1/2 and 2/3: every x^4 is also a square's square.
_OVERLAP = _affq_doc_1d("overlap", [[("1", 2)], [("1", 4)]], ["1/2", "2/3"])


@pytest.mark.parametrize("doc, argv, output, digest", [
    (None, ["enumerate", Q2, "--bound", "18446744073709551616"], "points.csv",
     "370bd525509ff89dddddc15efc81317ae7d9208c3aad1f1afb33ca8c4f2bff36"),
    (_DROP, ["enumerate", "{doc}", "--bound", "1e6"], "points.csv",
     "e56e983fd85d655259e23b7cf776cea50ed2bd0c37b7b6ddd9da5e66ce8333e6"),
    # 13 points after three generations; the cut lands inside the fourth.
    (_DROP, ["enumerate", "{doc}", "--bound", "1e6", "--max-points", "17"], "points.csv",
     "0c1b03d47cbbbc6a3d503789d72a66d93b8e715ca271fc82a3a236592e524f18"),
    (_OVERLAP, ["audit", "{doc}", "--bound", "1e40"], "audit.json",
     "28e6d0b200885ea3bd28519490e429bc4211eacac30edb136c042343394e943c"),
])
def test_affq_outputs_are_pinned(tmp_path, capsys, doc, argv, output, digest):
    # Orbit order is (size, coordinate order of the rationals), whatever form
    # the points take inside the enumerator; these digests pin that order.
    doc_path = tmp_path / "doc.json"
    doc_path.write_text(json.dumps(doc))
    argv = [a.replace("{doc}", str(doc_path)) for a in argv]
    if argv[0] == "enumerate":
        argv += ["--out", str(tmp_path / output)]
    code, _, err = run(["--out-dir", str(tmp_path)] + argv, capsys)
    assert code == 0, err
    assert hashlib.sha256((tmp_path / output).read_bytes()).hexdigest() == digest


# --- README ------------------------------------------------------------------

REPO = Path(__file__).resolve().parent.parent


def _readme_command_lines():
    section = (REPO / "README.md").read_text().split("## Command line", 1)[1]
    section = section.split("\n## ", 1)[0]
    blocks = re.findall(r"```sh\n(.*?)```", section, re.S)
    return [line for line in blocks[-1].splitlines() if line.startswith("arithfractal ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    shutil.copytree(REPO / "corpus", tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) > 10
    for line in lines:
        code = main(shlex.split(line, comments=True)[1:])
        assert code == 0, (line, capsys.readouterr().err)


# --- golden manifests ---------------------------------------------------------

# The recorded parameters of every README command line and of three replays
# whose literals start with "-"; None where the subcommand writes no manifest.
_GOLDEN_PARAMETERS = {
    "corpus": None,
    "corpus z-binary": None,
    "corpus --export corpus/": None,
    "dim corpus/z-binary.json": {
        "convention": "norm", "system": "corpus/z-binary.json", "tol": 1e-12,
    },
    "dim corpus/gauss-base.json --convention abs": {
        "convention": "abs", "system": "corpus/gauss-base.json", "tol": 1e-12,
    },
    "enumerate corpus/digits01.json --bound 1e6 --out points.csv": {
        "bound": 1000000.0, "max_points": 10000000, "out": "points.csv",
        "system": "corpus/digits01.json",
    },
    "member corpus/digits01.json 101": {
        "depth_limit": 10000, "point": "101", "system": "corpus/digits01.json",
    },
    "audit corpus/digits01.json --bound 1e6": {
        "bound": 1000000.0, "system": "corpus/digits01.json", "window": "orbit",
    },
    "audit corpus/p1-doubling.json --bound 50 --window ambient": {
        "bound": 50.0, "system": "corpus/p1-doubling.json", "window": "ambient",
    },
    "growth corpus/digits01.json --bound 1e9 --fit --check-lemmas 'sdim±0.05'": {
        "bound": 1000000000.0, "check_lemmas": "sdim±0.05", "fit": True, "grid": "auto",
        "max_points": 10000000, "out": "growth.csv", "system": "corpus/digits01.json",
        "tol": 1e-12,
    },
    "census --n 1 --bound 100 --compare-schanuel": {
        "bound": 100.0, "compare_schanuel": True, "n": 1, "out": "census.csv",
    },
    "height 2:3": {"point": "2:3", "space": "projq"},
    "height 3+4i": {"point": "3+4i", "space": "gauss"},
    "--tol 1e-3 ec height --curve 0,0,1,-1,0 --point 0,0": {
        "curve": "0,0,1,-1,0", "ec_command": "height", "point": "0,0", "tol": 0.001,
    },
    "approx corpus/p1-doubling.json --target 0:1 --delta 0.9 --C 1 --bound 1073741824": {
        "C": 1.0, "bound": 1073741824.0, "delta": 0.9, "max_points": 10000000,
        "out": "hits.csv", "system": "corpus/p1-doubling.json", "target": "0:1",
    },
    "intersect corpus/q2-powers2.json --curve x1+x2-6 --bounds 16,256,4096": {
        "bounds": "16,256,4096", "curve": "x1+x2-6", "out": "intersect.csv",
        "system": "corpus/q2-powers2.json",
    },
    "ec neron --curve 0,0,1,-1,0 --gen 0,0 --grid 0.8,1.6,3.2,6.4,12.8": {
        "curve": "0,0,1,-1,0", "ec_command": "neron", "gen": "0,0",
        "grid": "0.8,1.6,3.2,6.4,12.8", "out": "neron.csv", "tol": 1e-12, "torsion": "",
    },
    "--tol 1e-6 ec height --curve 0,0,1,-1,0 --point=-1,-1": {
        "curve": "0,0,1,-1,0", "ec_command": "height", "point": "-1,-1", "tol": 1e-06,
    },
    "member corpus/gauss-base.json -- -1+2i": {
        "depth_limit": 10000, "point": "-1+2i", "system": "corpus/gauss-base.json",
    },
    "height -- -1+2i": {"point": "-1+2i", "space": "gauss"},
}


def test_golden_covers_readme_lines():
    lines = {shlex.join(shlex.split(line, comments=True)[1:]) for line in _readme_command_lines()}
    assert lines <= set(_GOLDEN_PARAMETERS)


@pytest.mark.parametrize("command", list(_GOLDEN_PARAMETERS))
def test_golden_manifest_and_rerun(tmp_path, monkeypatch, capsys, command):
    shutil.copytree(REPO / "corpus", tmp_path / "corpus")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)) == 0, capsys.readouterr().err
    manifests = sorted(tmp_path.glob("*_manifest.json"))
    expected = _GOLDEN_PARAMETERS[command]
    if expected is None:
        assert manifests == []
        return
    (manifest,) = manifests
    recorded = json.loads(manifest.read_text())
    assert recorded["parameters"] == expected
    # The replay rebases "out" into its own directory and reproduces every
    # data file byte for byte.
    assert main(["--out-dir", "replay", "rerun", manifest.name]) == 0, capsys.readouterr().err
    replayed = json.loads((tmp_path / "replay" / manifest.name).read_text())
    if "out" in expected:
        expected = {**expected, "out": str(Path("replay") / Path(expected["out"]).name)}
    assert replayed["parameters"] == expected
    assert len(replayed["outputs"]) == len(recorded["outputs"])
    for name in recorded["outputs"]:
        replay_file = tmp_path / "replay" / Path(name).name
        assert replay_file.read_bytes() == (tmp_path / name).read_bytes(), name
