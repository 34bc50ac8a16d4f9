"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and measured values.  Every tolerance is pinned here.
"""

import math
import resource
import time
from fractions import Fraction

from arithfractal import (
    FractalSystem,
    IntAffineMap,
    IntPoint,
    Target,
    WeightSpec,
    approximants,
    approximation_exponent_profile,
    audit_exactness,
    canonical_height,
    counting_function,
    curve_intersection_probe,
    dimension_equation,
    ec_mul,
    ec_point,
    enumerate_system,
    fit_growth_exponent,
    geometric_grid,
    height_growth_audit,
    reciprocal_sum_audit,
    is_member,
    lemma_bound_check,
    load_corpus_system,
    neron_count,
    parallelogram_defect,
    parse_polynomial,
    projective_census,
    replay_certificate,
    solve_dimension,
)
from arithfractal.corpus import CORPUS
from arithfractal.elliptic import Curve


class Criterion:
    def __init__(self, number, title, budget_seconds):
        self.number = number
        self.title = title
        self.budget = budget_seconds
        self.notes = []

    def note(self, text):
        self.notes.append(text)

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        detail = "; ".join(self.notes)
        # Linux reports ru_maxrss in KiB; the process peak so far, not this criterion's.
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"{status} criterion {self.number}: {self.title} "
              f"[{elapsed:.2f}s / {self.budget}s; peak RSS so far {peak_mib:.0f} MiB] {detail}")
        if exc_type is None:
            assert elapsed < self.budget, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{elapsed:.2f}s >= {self.budget}s"
            )
        return False


def test_criterion_1_dimension_exactness():
    with Criterion(1, "dimension exactness", 1.0) as c:
        z = solve_dimension(dimension_equation(load_corpus_system("z-binary"))).s
        assert abs(z - 1.0) < 1e-10
        d = solve_dimension(dimension_equation(load_corpus_system("digits01"))).s
        assert abs(d - math.log(2) / math.log(10)) < 1e-10
        golden = solve_dimension(WeightSpec((2.0, 4.0))).s
        expected = math.log((1 + math.sqrt(5)) / 2) / math.log(2)
        assert abs(golden - expected) < 1e-10
        c.note(f"s(z-binary)={z:.12f}, s(digits01)={d:.12f}, s([2,4])={golden:.12f}")


def test_criterion_2_representation_independence():
    with Criterion(2, "representation independence and monotonicity", 1.0) as c:
        digits01 = load_corpus_system("digits01")
        s_base = solve_dimension(dimension_equation(digits01)).s
        composed = FractalSystem(
            "int",
            tuple(
                IntAffineMap(100, 10 * outer.b + inner.b)
                for outer in digits01.maps
                for inner in digits01.maps
            ),
            digits01.seeds,
            "digits01-composed",
        )
        s_comp = solve_dimension(dimension_equation(composed)).s
        assert abs(s_base - s_comp) < 1e-10
        s_larger = solve_dimension(
            dimension_equation(load_corpus_system("digits012"))
        ).s
        assert s_base < s_larger - 1e-10
        c.note(f"|s-s_composed|={abs(s_base - s_comp):.2e}, "
               f"s(digits01)={s_base:.6f} < s(digits012)={s_larger:.6f}")


def test_criterion_3_reciprocal_bound_and_mutation_catch():
    with Criterion(3, "reciprocal-sum audit and inexact-cover detection", 10.0) as c:
        exact_int = [e for e in CORPUS if e.space == "int" and e.exact]
        for entry in exact_int:
            audit = reciprocal_sum_audit(load_corpus_system(entry.name))
            assert audit.s_at_most_one, entry.name
        boundary = reciprocal_sum_audit(load_corpus_system("z-binary"))
        assert boundary.reciprocal_sum == Fraction(1)
        assert boundary.reciprocal_sum >= 1
        mutated = FractalSystem(
            "int", (IntAffineMap(2, 0), IntAffineMap(5, 1)), (IntPoint(0),),
            "z-binary-mutated",
        )
        report = audit_exactness(mutated, 10**4, window="ambient")
        assert not report.exact
        assert report.uncovered_count > 0
        c.note(f"{len(exact_int)} exact integer systems have s <= 1; "
               f"z-binary sum=1; mutation: {report.uncovered_count} uncovered, "
               f"{report.overlap_count} overlaps in |m|<=1e4")


def test_criterion_4_counting_lemmas():
    with Criterion(4, "growth fit and counting-lemma bound checks", 10.0) as c:
        digits01 = load_corpus_system("digits01")
        bag = enumerate_system(digits01, 10**9)
        table = counting_function(bag, geometric_grid(10, 10**9, 10))
        fit = fit_growth_exponent(table)
        assert abs(fit.exponent - 0.301) < 0.03
        upper_hi = lemma_bound_check(table, 0.35, "upper")
        lower_lo = lemma_bound_check(table, 0.25, "lower")
        upper_lo = lemma_bound_check(table, 0.25, "upper")
        assert upper_hi.bounded
        assert lower_lo.bounded
        assert not upper_lo.bounded
        c.note(f"fit={fit.exponent:.4f}; upper@0.35 bounded, lower@0.25 bounded, "
               f"upper@0.25 unbounded (tail slope {upper_lo.monotone_tail_ratio:+.4f})")


def test_criterion_5_exactness_audits():
    with Criterion(5, "exactness audits", 30.0) as c:
        for name in ("digits01", "z-binary"):
            report = audit_exactness(load_corpus_system(name), 10**6)
            assert report.exact, name
            assert report.overlap_count == 0 and report.uncovered_count == 0
        overlap_report = audit_exactness(load_corpus_system("z-2x3x"), 100)
        assert any(rec.point.value == 6 for rec in overlap_report.overlaps)
        window = audit_exactness(
            load_corpus_system("p1-doubling"), 50, window="ambient"
        )
        assert window.uncovered_count > 0
        c.note(f"digits01 and z-binary clean at 1e6; {{2x,3x}} overlaps at 6; "
               f"P1 window has {window.uncovered_count} uncovered points")


def test_criterion_6_membership_oracle():
    with Criterion(6, "membership agrees with enumeration", 30.0) as c:
        bound = 10**5
        checked = 0
        replayed = 0
        for entry in CORPUS:
            if entry.space != "int":
                continue
            system = load_corpus_system(entry.name)
            bag = enumerate_system(system, bound)
            members = {e.point.value for e in bag.entries}
            for m in range(-bound, bound + 1):
                result = is_member(system, IntPoint(m))
                assert result.member == (m in members), (entry.name, m)
                checked += 1
                if result.member:
                    assert replay_certificate(system, result) == IntPoint(m)
                    replayed += 1
        c.note(f"{checked} membership queries, {replayed} certificates replayed")


def test_criterion_7_schanuel_desk_check():
    with Criterion(7, "Schanuel census check", 60.0) as c:
        n100 = projective_census(1, 100)
        ratio100 = n100 / 12158.5
        assert 0.95 <= ratio100 <= 1.05
        n1000 = projective_census(1, 1000)
        ratio1000 = n1000 / (12e6 / math.pi**2)
        assert 0.98 <= ratio1000 <= 1.02
        # independent gcd double loop at 200
        brute = 2 + 2 * sum(
            1
            for a in range(1, 201)
            for b in range(1, 201)
            if math.gcd(a, b) == 1
        )
        assert projective_census(1, 200) == brute
        c.note(f"N(100)={n100} ratio {ratio100:.4f}; N(1000)={n1000} "
               f"ratio {ratio1000:.4f}; x=200 cross-check equal")


def test_criterion_8_projective_heights():
    with Criterion(8, "projective growth and height residuals", 10.0) as c:
        system = load_corpus_system("p1-doubling")
        bag = enumerate_system(system, 2**30)
        table = counting_function(bag, geometric_grid(math.log(2), 30 * math.log(2), 2))
        fit = fit_growth_exponent(table)
        s = solve_dimension(WeightSpec((2.0, 2.0))).s
        assert abs(fit.exponent - 1.0) < 0.05
        assert abs(fit.exponent - s) < 0.05
        stats = height_growth_audit(system, bag)
        worst = max(per_map.max_abs_residual for per_map in stats)
        assert worst <= math.log(2) + 1e-9
        c.note(f"fit={fit.exponent:.6f} (dimension {s:.1f}); "
               f"max height residual {worst:.6f} <= log 2")


def test_criterion_9_gaussian_system():
    with Criterion(9, "Gaussian base-(1+i) system", 60.0) as c:
        system = load_corpus_system("gauss-base")
        bag = enumerate_system(system, 2**20)
        table = counting_function(bag, geometric_grid(4, 2**20, 2))
        fit = fit_growth_exponent(table)
        assert abs(fit.exponent - 1.0) < 0.05
        report = audit_exactness(system, 2**20)
        assert report.exact
        c.note(f"{len(bag)} points; fit={fit.exponent:.4f}; audit clean "
               f"(two residue classes mod (1+i))")


def test_criterion_10_elliptic_suite():
    with Criterion(10, "elliptic heights and Neron counting", 300.0) as c:
        curve = Curve.from_coefficients([0, 0, 1, -1, 0])
        gen = ec_point(0, 0)
        assert ec_mul(curve, 2, gen) == ec_point(1, 0)
        assert ec_mul(curve, 3, gen) == ec_point(-1, -1)
        height = canonical_height(curve, gen, tol=1e-3)
        assert height.doublings <= 12
        double_height = canonical_height(curve, ec_mul(curve, 2, gen), tol=1e-3)
        quad_delta = abs(double_height.value - 4 * height.value)
        assert quad_delta < 1e-2
        defect = parallelogram_defect(curve, gen, ec_mul(curve, 2, gen), tol=1e-3)
        assert defect < 1e-2
        grid = [height.value * 2**t for t in range(4, 13)]
        result = neron_count(curve, gen, [], grid)
        assert abs(result.fit.exponent - 0.5) < 0.05
        regulator = 0.0511114082399688  # 37a1, Cremona's tables and LMFDB 37.a1
        c.note(f"|h(P)-R|={abs(height.value - regulator):.1e} "
               f"({height.doublings} series terms); "
               f"|h(2P)-4h(P)|={quad_delta:.2e}; defect={defect:.2e}; "
               f"neron fit={result.fit.exponent:.4f}")


def test_criterion_11_approximation_harness():
    with Criterion(11, "approximation harness", 10.0) as c:
        system = load_corpus_system("p1-doubling")
        bag = enumerate_system(system, 2**30)
        critical = Target.parse("0:1", "projq")
        profile = approximation_exponent_profile(bag, critical)
        assert abs(profile.tail_exponent - 1.0) < 0.01
        hits_small = approximants(enumerate_system(system, 2**15), critical, 0.9, 1.0)
        hits_large = approximants(bag, critical, 0.9, 1.0)
        assert len(hits_large.hits) > len(hits_small.hits)
        ordinary = Target.parse("3:1", "projq")
        ordinary_hits = approximants(bag, ordinary, 0.5, 1.0)
        assert sum(ordinary_hits.decile_counts[5:]) == 0
        ordinary_profile = approximation_exponent_profile(bag, ordinary)
        assert ordinary_profile.tail_exponent < 0.05
        c.note(f"critical tail={profile.tail_exponent:.6f}, hits "
               f"{len(hits_small.hits)}->{len(hits_large.hits)}; ordinary tail="
               f"{ordinary_profile.tail_exponent:.6f}, top-half hits 0")


def test_criterion_12_intersection_probes():
    with Criterion(12, "intersection probes", 10.0) as c:
        system = load_corpus_system("q2-powers2")
        line = parse_polynomial("x1 + x2 - 6", 2)
        probe = curve_intersection_probe(system, line, [2**4, 2**8, 2**12])
        assert probe.stabilized
        hits = {tuple(coord for coord in p.coords) for p in probe.hits_per_bound[-1]}
        assert hits == {
            (Fraction(2), Fraction(4)),
            (Fraction(4), Fraction(2)),
        }
        diagonal = parse_polynomial("x1 - x2", 2)
        diag_probe = curve_intersection_probe(system, diagonal, [2**4, 2**8, 2**12])
        assert not diag_probe.stabilized
        c.note(f"line stabilizes at {{(2,4),(4,2)}} with counts {probe.counts}; "
               f"diagonal counts {diag_probe.counts} not stabilized")
