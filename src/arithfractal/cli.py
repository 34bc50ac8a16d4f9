"""Command-line entry point.

One subcommand per analysis, declared once in ``build_parser``: its
handler, positionals and flags.  Every run writes a manifest next to its
outputs recording the parsed parameters and artifact version, and a rerun
from that manifest reproduces byte-identical files.  Tables are
CSV, verdicts are JSON, and numbers are serialized with 15 significant
digits.

Exit codes: 0 success, 2 configuration or validation failure, 3 analysis
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path
from typing import Optional

from . import __version__
from .approximation import Target, approximants, approximation_exponent_profile, check_rate
from .corpus import CORPUS, corpus_path, export_corpus, load_corpus_system
from .dimension import (
    dimension_equation,
    evaluate_pressure,
    reciprocal_sum_audit,
    solve_dimension,
)
from .elliptic import Curve, canonical_height, neron_count
from .enumeration import (
    DEFAULT_MAX_POINTS,
    audit_exactness,
    curve_intersection_probe,
    enumerate_system,
    is_member,
    replay_certificate,
)
from .errors import ArithFractalError, ConfigError, PointNotOnCurveError
from .growth import counting_function, fit_growth_exponent, geometric_grid, lemma_bound_check
from .heights import _log, projective_census, schanuel_prediction, size_of
from .polynomials import parse_polynomial, parse_rational
from .spaces import (
    SPACES,
    FractalSystem,
    load_system,
    parse_point,
    require_valid,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_ANALYSIS = 3


def fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.15g}"
    return str(value)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([fmt(v) for v in row])


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# Namespace entries that are not subcommand parameters; --tol is recorded
# only by the subcommands declared with reads_tol.
_NOT_PARAMETERS = ("out_dir", "tol", "command", "handler", "reads_tol")


def _write_manifest(out_dir: Path, args: argparse.Namespace, outputs: list[str]) -> None:
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS and v is not None}
    if args.reads_tol:
        params["tol"] = args.tol
    manifest = {
        "artifact": "arithfractal",
        "version": __version__,
        "subcommand": args.command,
        "parameters": params,
        "outputs": outputs,
        "deterministic": True,
    }
    _write_json(out_dir / f"{args.command}_manifest.json", manifest)


def _out(args: argparse.Namespace, out_dir: Path, default: str) -> Path:
    """The --out file, else ``default`` in the output directory; the
    resolved path is what the manifest records."""
    out = Path(args.out) if args.out else out_dir / default
    args.out = str(out)
    return out


def _load(path_text: str) -> FractalSystem:
    path = Path(path_text)
    if not path.exists():
        raise ConfigError(f"MissingFile: {path}")
    return require_valid(load_system(path))


def _parse_curve(text: str) -> Curve:
    parts = [p for p in text.replace(";", ",").split(",") if p.strip()]
    if len(parts) != 5:
        raise ConfigError(f"curve must be a1,a2,a3,a4,a6: {text!r}")
    try:
        return Curve.from_coefficients([parse_rational(p) for p in parts])
    except PointNotOnCurveError as exc:
        raise ConfigError(f"curve {text!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_dim(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    spec = dimension_equation(system, args.convention)
    result = solve_dimension(spec, args.tol)
    print(f"system: {system.label or args.system}")
    print(f"convention: {spec.convention}")
    print(f"weights: [{', '.join(fmt(w) for w in spec.weights)}]")
    print(f"s = {fmt(result.s)}")
    print(f"residual = {fmt(result.residual)} (tol {fmt(args.tol)}, {result.iterations} iterations)")
    payload = {
        "label": system.label,
        "convention": spec.convention,
        "weights": [fmt(w) for w in spec.weights],
        "s": fmt(result.s),
        "residual": fmt(result.residual),
        "iterations": result.iterations,
    }
    if system.space == "int":
        audit = reciprocal_sum_audit(system, args.tol)
        ok = "holds" if audit.s_at_most_one else "violated"
        print(
            f"reciprocal audit: sum(1/|a_i|) = {audit.reciprocal_sum} "
            f"= {fmt(float(audit.reciprocal_sum))}; dimension bound s <= 1 {ok}"
        )
        payload["reciprocal_sum"] = str(audit.reciprocal_sum)
        payload["s_at_most_one"] = audit.s_at_most_one
    _write_json(out_dir / "dim.json", payload)
    return ["dim.json"]


def _point_rows(records, literal):
    """CSV rows of sorted (size, payload, depth) records, with the cells of
    fmt(): csv writes ints with str(), and a log size is a float.  The
    records come sorted by size, so each log is taken once per size."""
    last_size, log_text = None, ""
    for size, payload, depth in records:
        if size != last_size:
            last_size, log_text = size, f"{_log(size):.15g}"
        yield literal(payload), size, log_text, depth


def _cmd_enumerate(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    bag = enumerate_system(system, args.bound, args.max_points)
    out = _out(args, out_dir, "points.csv")
    # Streams the rows from the sorted records; builds no point or entry.
    with open(out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["point", "size", "log_size", "depth"])
        writer.writerows(_point_rows(bag.entries.records, SPACES[system.space].literal))
    print(f"{len(bag)} points up to size {bag.bound} (truncated: {bag.truncated})")
    print(f"wrote {out}")
    return [str(out)]


def _cmd_member(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    point = parse_point(args.point, system.space, system.curve)
    result = is_member(system, point, args.depth_limit)
    if result.member:
        if result.via_fallback:
            print(f"{args.point}: member (decided by enumeration fallback)")
        else:
            replay = replay_certificate(system, result)
            print(f"{args.point}: member")
            print(f"certificate: seed {result.seed}, map path {list(result.path)}")
            print(f"replay check: {replay} == {point}: {replay == point}")
    else:
        print(f"{args.point}: not a member")
    return []


def _cmd_audit(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    report = audit_exactness(system, args.bound, args.window, max_listed=50)
    payload = {
        "label": system.label,
        "bound": report.bound,
        "window": report.window,
        "total_points": report.total_points,
        "covered_count": report.covered_count,
        "overlap_count": report.overlap_count,
        "uncovered_count": report.uncovered_count,
        "exact": report.exact,
        "overlaps": [
            {
                "point": str(rec.point),
                "witnesses": [[i, str(q)] for i, q in rec.witnesses],
            }
            for rec in report.overlaps
        ],
        "uncovered_sample": [str(p) for p in report.uncovered],
        "seed_coverage": [
            {"seed": str(s.seed), "is_image": s.is_image} for s in report.seed_coverage
        ],
    }
    out = out_dir / "audit.json"
    _write_json(out, payload)
    print(
        f"audit[{report.window}] bound {report.bound}: {report.total_points} points, "
        f"{report.overlap_count} overlaps, {report.uncovered_count} uncovered "
        f"-> {'exact' if report.exact else 'NOT exact'}"
    )
    print(f"wrote {out}")
    return ["audit.json"]


def _numbers(text: str, flag: str, count: Optional[int] = None) -> list[float]:
    """The comma-separated finite numbers of a flag value: at least one, and
    ``count`` of them when given."""
    try:
        values = [float(p) for p in text.split(",") if p.strip()]
        if values and all(map(math.isfinite, values)) and count in (None, len(values)):
            return values
    except ValueError:
        pass
    raise ConfigError(f"{flag} expects {count or 'one or more'} finite number(s): {text!r}")


def _parse_grid(text: str):
    """The --grid text, read before any enumeration, as the function that
    builds a bag's grid: a comma-separated grid, "geometric:FACTOR", or
    "auto" (factor 10 on integer bags, 2 on the others)."""
    if text == "auto":
        factor = None
    elif text.startswith("geometric:"):
        (factor,) = _numbers(text.split(":", 1)[1], "--grid geometric:", 1)
        if factor <= 1:
            raise ConfigError(f"--grid geometric: expects a factor above 1: {text!r}")
    else:
        grid = _numbers(text, "--grid")
        return lambda bag: grid

    def geometric(bag) -> list[float]:
        ratio = factor or (10.0 if bag.size_kind == "abs" else 2.0)
        if bag.size_kind == "height":
            return geometric_grid(math.log(2), bag.max_log_bound(), ratio)
        return geometric_grid(4 if bag.size_kind == "norm" else ratio, bag.bound, ratio)

    return geometric


def _parse_lemma_gap(text: str) -> float:
    gap_text = text.replace("sdim", "").replace("±", "+-").strip()
    if not gap_text:
        return 0.05
    (gap,) = _numbers(gap_text.lstrip("+-"), f"--check-lemmas {text!r} (sdim±GAP)", 1)
    return gap


def _cmd_growth(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    grid_of = _parse_grid(args.grid)
    gap = _parse_lemma_gap(args.check_lemmas) if args.check_lemmas else None
    bag = enumerate_system(system, args.bound, args.max_points)
    table = counting_function(bag, grid_of(bag))
    verdict: dict = {"label": system.label, "size_kind": table.size_kind, "points": len(bag)}
    lemma_exponents: list[tuple[str, float, str]] = []
    if gap is not None:
        spec = dimension_equation(system)
        s_dim = solve_dimension(spec, args.tol).s
        lemma_exponents = [
            ("upper", s_dim + gap, "bounded"),
            ("lower", s_dim - gap, "bounded"),
            ("upper", s_dim - gap, "unbounded"),
        ]
        verdict["dimension"] = fmt(s_dim)
        checks = []
        for direction, s, expect in lemma_exponents:
            v = lemma_bound_check(table, s, direction)
            checks.append(
                {
                    "direction": direction,
                    "s": fmt(s),
                    "pressure": fmt(evaluate_pressure(spec, s)),
                    "bounded": v.bounded,
                    "expected": expect,
                    "tail_ratio": fmt(v.tail_ratio),
                    "tail_slope": fmt(v.monotone_tail_ratio),
                }
            )
        verdict["lemma_checks"] = checks
    if args.fit:
        fit = fit_growth_exponent(table)
        verdict["fit"] = {
            "exponent": fmt(fit.exponent),
            "intercept": fmt(fit.intercept),
            "rmse": fmt(fit.rmse),
            "window": [fmt(fit.window[0]), fmt(fit.window[1])],
            "points_used": fit.points_used,
        }
        print(f"fitted exponent: {fmt(fit.exponent)} (rmse {fmt(fit.rmse)})")

    probe_values = sorted({s for _, s, _ in lemma_exponents})
    header = ["x", "N"] + [f"h_s={fmt(s)}" for s in probe_values]
    rows = [
        [x, n] + [n * x**-s if x > 0 else "" for s in probe_values]
        for x, n in zip(table.grid, table.counts)
    ]
    out = _out(args, out_dir, "growth.csv")
    _write_csv(out, header, rows)
    _write_json(out_dir / "growth_verdict.json", verdict)
    print(json.dumps(verdict, indent=2, sort_keys=True))
    return [str(out), "growth_verdict.json"]


def _cmd_census(args, out_dir: Path) -> list[str]:
    count = projective_census(args.n, args.bound)
    row = [args.bound, count, "", ""]
    line = f"census(n={args.n}, x={args.bound}) = {count}"
    if args.compare_schanuel:
        prediction = schanuel_prediction(args.n, args.bound)
        row[2:] = [prediction, count / prediction]
        line += f"; prediction {fmt(prediction)}; ratio {fmt(row[3])}"
    print(line)
    out = _out(args, out_dir, "census.csv")
    _write_csv(out, ["bound", "count", "prediction", "ratio"], [row])
    return [str(out)]


def _infer_space(text: str) -> str:
    s = text.strip()
    if s.endswith("i") and not s.endswith("inf"):
        return "gauss"
    if ":" in s:
        return "projq"
    if "," in s:
        return "affq"
    return "int"


def _cmd_height(args, out_dir: Path) -> list[str]:
    args.space = args.space or _infer_space(args.point)
    point = parse_point(args.point, args.space)
    size = size_of(point)
    print(f"point: {point} (space {args.space})")
    print(f"size: {size.raw}")
    print(f"log size: {fmt(size.log_size)}")
    return []


def _cmd_approx(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    target = Target.parse(args.target, system.space)
    check_rate(args.delta, args.C)
    bag = enumerate_system(system, args.bound, args.max_points)
    result = approximants(bag, target, args.delta, args.C)
    profile = approximation_exponent_profile(bag, target)
    out = _out(args, out_dir, "hits.csv")
    rows = [
        [str(r.point), r.h, r.d, r.exponent if r.exponent is not None else ""]
        for r in result.hits
    ]
    _write_csv(out, ["point", "h", "d", "exponent"], rows)
    top_half_hits = sum(result.decile_counts[5:])
    stabilized = top_half_hits == 0
    print(f"{len(result.hits)} hits for d <= C*exp(-delta*h) (exact hits: {len(result.exact_hits)})")
    print(f"hit counts per height decile: {list(result.decile_counts)}")
    print(
        f"stabilization verdict: {'stabilized' if stabilized else 'NOT stabilized'} "
        f"({top_half_hits} hits in the top half of the height range)"
    )
    print(f"exponent profile: max {fmt(profile.max_exponent)}, tail {fmt(profile.tail_exponent)}")
    _write_json(
        out_dir / "approx_verdict.json",
        {
            "label": system.label,
            "target": args.target,
            "delta": args.delta,
            "C": args.C,
            "hits": len(result.hits),
            "decile_counts": list(result.decile_counts),
            "stabilized": stabilized,
            "max_exponent": fmt(profile.max_exponent),
            "tail_exponent": fmt(profile.tail_exponent),
        },
    )
    return [str(out), "approx_verdict.json"]


def _cmd_intersect(args, out_dir: Path) -> list[str]:
    system = _load(args.system)
    if system.space != "affq":
        raise ConfigError("intersect expects an affine rational system")
    nvars = system.maps[0].nvars()
    curve = parse_polynomial(args.curve, nvars)
    bounds = [int(b) for b in _numbers(args.bounds, "--bounds")]
    probe = curve_intersection_probe(system, curve, bounds)
    out = _out(args, out_dir, "intersect.csv")
    rows = [[b, c] for b, c in zip(probe.bounds, probe.counts)]
    _write_csv(out, ["bound", "count"], rows)
    final = ", ".join(str(p) for p in probe.hits_per_bound[-1]) or "(none)"
    print(f"curve: {curve}")
    print(f"counts per bound: {list(probe.counts)}")
    print(f"intersection at top bound: {final}")
    print(f"stabilized: {probe.stabilized}")
    return [str(out)]


def _cmd_ec_height(args, out_dir: Path) -> list[str]:
    curve = _parse_curve(args.curve)
    point = parse_point(args.point, "ec", curve)
    result = canonical_height(curve, point, args.tol)
    print(f"curve: {curve}")
    print(f"point: {point}")
    if result.torsion:
        print("torsion point: canonical height 0")
    else:
        print(f"canonical height: {fmt(result.value)} (after {result.doublings} doublings)")
    return []


def _cmd_ec_neron(args, out_dir: Path) -> list[str]:
    curve = _parse_curve(args.curve)
    generator = parse_point(args.gen, "ec", curve)
    torsion = [parse_point(c, "ec", curve) for c in args.torsion.split(";") if c.strip()]
    grid = _numbers(args.grid, "--grid")
    result = neron_count(curve, generator, torsion, grid, args.tol)
    out = _out(args, out_dir, "neron.csv")
    rows = [[x, n] for x, n in zip(result.table.grid, result.table.counts)]
    _write_csv(out, ["x", "count"], rows)
    print(f"generator height: {fmt(result.generator_height)}")
    print(f"fitted exponent: {fmt(result.fit.exponent)} (rmse {fmt(result.fit.rmse)})")
    print(
        f"spot-check max delta: {fmt(result.spot_check_max_delta)} "
        f"(bound {fmt(result.spot_check_bound)})"
    )
    return [str(out)]


def _cmd_corpus(args, out_dir: Path) -> None:
    if args.name:
        print(corpus_path(args.name))
        return
    if args.export:
        for path in export_corpus(args.export):
            print(f"wrote {path}")
        return
    header = f"{'name':<18} {'space':<6} {'maps':<4} {'dimension':<18} {'exact':<6} description"
    print(header)
    print("-" * len(header))
    for entry in CORPUS:
        system = load_corpus_system(entry.name)
        print(
            f"{entry.name:<18} {entry.space:<6} {len(system.maps):<4} "
            f"{fmt(entry.expected_dimension):<18} {'yes' if entry.exact else 'no':<6} "
            f"{entry.description}"
        )


def _replay_argv(parser: argparse.ArgumentParser, args: argparse.Namespace) -> list[str]:
    """The command line that the manifest ``args.manifest`` records, with
    its flags, commands and positionals placed as ``parser`` declares them."""
    manifest_path = Path(args.manifest)
    if not manifest_path.exists():
        raise ConfigError(f"MissingFile: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
        sub = str(manifest["subcommand"])
        params = dict(manifest["parameters"])
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"{manifest_path} is not a run manifest: {exc!r}") from None
    if sub == "rerun":
        raise ConfigError(f"{manifest_path} names rerun, which writes no manifest")
    # Census manifests written while the no-op --threads flag existed
    # record it; the flag is gone and never changed a result.
    params.pop("threads", None)
    if params.get("out"):
        # Rebase recorded output files into the rerun directory so a
        # replay never clobbers the original run.
        params["out"] = str(Path(args.out_dir) / Path(params["out"]).name)
    params.update(out_dir=args.out_dir, command=sub)
    argv, positionals = [], []
    level: Optional[argparse.ArgumentParser] = parser
    while level is not None:
        command, nested = None, None
        for action in level._actions:
            value = params.pop(action.dest, None)
            if value is None:
                continue
            if isinstance(action, argparse._SubParsersAction):
                command, nested = str(value), action.choices.get(str(value))
            elif not action.option_strings:
                positionals.append(str(value))
            elif value is not False and value != "":
                flag = action.option_strings[0]
                # --flag=value keeps a value such as "-1,-1" from reading as a flag.
                argv.append(flag if value is True else f"{flag}={value}")
        # A nested command follows its parent's flags and precedes its own.
        if command is not None:
            argv.append(command)
        level = nested
    if params:
        raise ConfigError(f"{manifest_path} records undeclared parameters {sorted(params)}")
    # After "--" a positional such as "-1+2i" cannot read as a flag either.
    return argv + ["--", *positionals] if positionals else argv


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error, one line, exit 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _tolerance(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # also false for nan
        raise argparse.ArgumentTypeError(f"expects a finite positive number: {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The one declaration of every subcommand: its handler, whether it
    reads the global --tol (and so records it), its positionals and flags;
    the inputs that subcommands share are parent parsers, declared once."""
    parser = _Parser(
        prog="arithfractal",
        description="Self-similar fractals in arithmetic: enumeration, dimension, heights.",
    )
    parser.add_argument("--out-dir", default=".", help="directory for outputs and manifests")
    parser.add_argument(
        "--tol", type=_tolerance, default=1e-12, help="numeric tolerance, finite and positive"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(*flags, **kwargs):
        p = argparse.ArgumentParser(add_help=False)
        p.add_argument(*flags, **kwargs)
        return p

    system = shared("system")
    bound = shared("--bound", type=float, required=True)
    max_points = shared("--max-points", type=int, default=DEFAULT_MAX_POINTS)
    out = shared("--out")

    def command(name, handler, help, *inputs, reads_tol=False, parent=sub):
        p = parent.add_parser(name, help=help, parents=inputs)
        p.set_defaults(handler=handler, reads_tol=reads_tol)
        return p

    p = command("dim", _cmd_dim, "solve the dimension equation of a system", system, reads_tol=True)
    p.add_argument("--convention", choices=("norm", "abs"), default="norm")

    command("enumerate", _cmd_enumerate, "enumerate the forward orbit up to a size bound",
            system, bound, max_points, out)

    p = command("member", _cmd_member, "decide membership with a certificate", system)
    p.add_argument("point")
    p.add_argument("--depth-limit", type=int, default=10_000)

    p = command("audit", _cmd_audit, "audit the fractal equation on a bounded window", system, bound)
    p.add_argument("--window", choices=("orbit", "ambient"), default="orbit")

    p = command("growth", _cmd_growth, "counting function, growth fit, lemma checks",
                system, bound, max_points, out, reads_tol=True)
    p.add_argument("--grid", default="auto")
    p.add_argument("--fit", action="store_true")
    p.add_argument("--check-lemmas", default="")

    p = command("census", _cmd_census, "exact count of projective rational points", bound, out)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--compare-schanuel", action="store_true")

    p = command("height", _cmd_height, "size and log height of a point")
    p.add_argument("point")
    p.add_argument("--space", choices=("int", "gauss", "affq", "projq"))

    # A parent as well, so a usage error lists system, --target, --delta, --bound.
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--target", required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--C", type=float, default=1.0)
    command("approx", _cmd_approx, "approximation records against a target",
            system, p, bound, max_points, out)

    p = command("intersect", _cmd_intersect, "exact curve intersection probe", system, out)
    p.add_argument("--curve", required=True)
    p.add_argument("--bounds", required=True)

    ec = sub.add_parser("ec", help="elliptic curve heights and counting")
    ec = ec.add_subparsers(dest="ec_command", required=True)
    p = command("height", _cmd_ec_height, "canonical height", reads_tol=True, parent=ec)
    p.add_argument("--curve", required=True)
    p.add_argument("--point", required=True)
    p = command("neron", _cmd_ec_neron, "rank-1 point count", out, reads_tol=True, parent=ec)
    p.add_argument("--curve", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--torsion", default="")

    p = command("corpus", _cmd_corpus, "list bundled systems or export them")
    p.add_argument("name", nargs="?", help="print the path of one bundled system")
    p.add_argument("--export", help="write all bundled systems to a directory")

    p = command("rerun", None, "re-execute a run from its manifest")
    p.add_argument("manifest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "rerun":
            args = parser.parse_args(_replay_argv(parser, args))
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        outputs = args.handler(args, out_dir)
        if outputs is not None:
            _write_manifest(out_dir, args, outputs)
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ArithFractalError as exc:
        print(f"error[{type(exc).__name__}.{exc.code}]: {exc}", file=sys.stderr)
        return EXIT_ANALYSIS
    return EXIT_OK


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
