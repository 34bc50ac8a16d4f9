"""Pins the public API: the names that ``arithfractal`` exports and the
signature of each exported callable.

A change to either is a change of the library's interface, and has to
show up here as an edit of ``PUBLIC_API``.
"""

import inspect
import re
import types

import arithfractal

# name -> str(inspect.signature(value)); None for a value that is not
# callable or has no signature.  Annotations are strings, since every
# module uses postponed evaluation; ForwardRef('T') is written 'T'.
PUBLIC_API = {
    "AffPoint": "(coords: 'tuple[Fraction, ...]')",
    "ApproxRecord": (
        "(point: 'SpacePoint', h: 'float', d: 'float', exponent: 'Optional[float]', "
        "exact_hit: 'bool')"
    ),
    "ArithFractalError": None,
    "BagEntry": "(point: 'SpacePoint', size: 'SizeValue', depth: 'int')",
    "CORPUS": None,
    "CanonicalHeight": "(value: 'float', doublings: 'int', torsion: 'bool')",
    "CountTable": "(grid: 'tuple[float, ...]', counts: 'tuple[int, ...]', size_kind: 'str')",
    "Curve": (
        "(a1: 'Fraction', a2: 'Fraction', a3: 'Fraction', a4: 'Fraction', "
        "a6: 'Fraction') -> None"
    ),
    "DimensionResult": "(s: 'float', residual: 'float', iterations: 'int')",
    "ECPoint": "(x: 'Optional[Fraction]', y: 'Optional[Fraction]')",
    "ExactnessReport": (
        "(bound: 'int', window: 'str', total_points: 'int', covered_count: 'int', "
        "overlap_count: 'int', uncovered_count: 'int', "
        "overlaps: 'list[OverlapRecord]', uncovered: 'list[SpacePoint]', "
        "seed_coverage: 'list[SeedCoverage]') -> None"
    ),
    "FractalSystem": (
        "(space: 'str', maps: 'tuple[SimilarityMap, ...]', seeds: 'tuple[SpacePoint, "
        "...]', label: 'str' = '', curve: 'Optional[Curve]' = None) -> None"
    ),
    "GaussAffineMap": "(a: 'GaussPoint', b: 'GaussPoint') -> None",
    "GaussPoint": "(re: 'int', im: 'int')",
    "GrowthFit": (
        "(exponent: 'float', intercept: 'float', rmse: 'float', window: 'tuple[float, "
        "float]', points_used: 'int')"
    ),
    "INFINITY": None,
    "IntAffineMap": "(a: 'int', b: 'int') -> None",
    "IntPoint": "(value: 'int')",
    "MembershipResult": (
        "(member: 'bool', seed: 'Optional[SpacePoint]', path: 'tuple[int, ...]', "
        "via_fallback: 'bool')"
    ),
    "PointBag": '(label, space, bound, size_kind, records, to_point, truncated)',
    "PolyTupleMap": "(components: 'tuple[Polynomial, ...]') -> None",
    "Polynomial": "(nvars: 'int', terms: 'tuple[tuple[Exponents, Fraction], ...]') -> None",
    "ProjHomogMap": "(forms: 'tuple[Polynomial, ...]') -> None",
    "ProjPoint": "(coords: 'tuple[int, ...]')",
    "SizeValue": "(raw: 'int', log_size: 'float')",
    "Target": (
        "(projective: 'Optional[tuple[int, int]]' = None, "
        "line: 'Optional[Fraction]' = None, error: 'float' = 0.0) -> None"
    ),
    "WeightSpec": "(weights: 'tuple[float, ...]', convention: 'str' = 'norm')",
    "apply": "(map_: 'SimilarityMap', point: 'SpacePoint') -> 'SpacePoint'",
    "approximants": (
        "(bag: 'PointBag', target: 'Target', delta: 'float', "
        "C: 'float') -> 'ApproximantsResult'"
    ),
    "approximation_exponent_profile": "(bag: 'PointBag', target: 'Target') -> 'ExponentProfile'",
    "audit_exactness": (
        "(system: 'FractalSystem', bound, window: 'str' = 'orbit', "
        "max_listed: 'int' = 1000) -> 'ExactnessReport'"
    ),
    "canonical_height": (
        "(curve: 'Curve', point: 'ECPoint', tol: 'float' = 0.001, "
        "min_doublings: 'int' = 2, max_doublings: 'int' = 40) -> 'CanonicalHeight'"
    ),
    "canonicalize": "(point: 'SpacePoint') -> 'SpacePoint'",
    "chordal_distance": "(p, q) -> 'float'",
    "corpus_names": "() -> 'list[str]'",
    "corpus_path": "(name: 'str') -> 'Path'",
    "counting_function": (
        "(bag: 'PointBag', grid: 'Sequence[float]', "
        "use_log_sizes: 'Optional[bool]' = None) -> 'CountTable'"
    ),
    "curve_intersection_probe": (
        "(system: 'FractalSystem', curve: 'Polynomial', "
        "bounds: 'Sequence') -> 'IntersectionProbe'"
    ),
    "dimension_equation": "(system: 'FractalSystem', convention: 'str' = 'norm') -> 'WeightSpec'",
    "ec_add": "(curve: 'Curve', p: 'ECPoint', q: 'ECPoint') -> 'ECPoint'",
    "ec_mul": "(curve: 'Curve', n: 'int', point: 'ECPoint') -> 'ECPoint'",
    "ec_neg": "(curve: 'Curve', point: 'ECPoint') -> 'ECPoint'",
    "ec_point": "(x, y) -> 'ECPoint'",
    "enumerate_system": (
        "(system: 'FractalSystem', bound, max_points: 'int' = 10000000) -> 'PointBag'"
    ),
    "evaluate_pressure": "(spec: 'WeightSpec', s: 'float') -> 'float'",
    "export_corpus": "(directory) -> 'list[Path]'",
    "fit_growth_exponent": (
        "(table: 'CountTable', window: 'Optional[tuple[float, "
        "float]]' = None) -> 'GrowthFit'"
    ),
    "geometric_grid": "(start: 'float', stop: 'float', factor: 'float') -> 'list[float]'",
    "height_growth_audit": "(system: 'FractalSystem', bag) -> 'list[MapGrowthStats]'",
    "is_member": (
        "(system: 'FractalSystem', point: 'SpacePoint', depth_limit: 'int' = 10000, "
        "fallback_bag: 'Optional[PointBag]' = None) -> 'MembershipResult'"
    ),
    "is_torsion": "(curve: 'Curve', point: 'ECPoint') -> 'bool'",
    "lemma_bound_check": (
        "(table: 'CountTable', s: 'float', direction: 'str', ratio: 'float' = 2.0, "
        "slope_tol: 'float' = 0.02) -> 'BoundVerdict'"
    ),
    "load_corpus_system": "(name: 'str') -> 'FractalSystem'",
    "load_system": "(path) -> 'FractalSystem'",
    "map_weight": "(map_: 'SimilarityMap', convention: 'str' = 'norm') -> 'float'",
    "neron_count": (
        "(curve: 'Curve', generator: 'ECPoint', torsion_points: 'Sequence[ECPoint]', "
        "x_grid: 'Sequence[float]', tol: 'float' = 0.001, "
        "rng_seed: 'int' = 0) -> 'NeronCountResult'"
    ),
    "parallelogram_defect": (
        "(curve: 'Curve', p: 'ECPoint', q: 'ECPoint', tol: 'float' = 0.001) -> 'float'"
    ),
    "parse_point": "(text: 'str', space: 'str', curve: 'Optional[Curve]' = None) -> 'SpacePoint'",
    "parse_polynomial": "(text: 'str', nvars: 'int') -> 'Polynomial'",
    "preimage": "(map_: 'SimilarityMap', point: 'SpacePoint') -> 'Optional[SpacePoint]'",
    "projective_census": "(n: 'int', bound: 'float') -> 'int'",
    "raw_size": "(point: 'SpacePoint') -> 'int'",
    "reciprocal_sum_audit": "(system: 'FractalSystem', tol: 'float' = 1e-12) -> 'ReciprocalAudit'",
    "replay_certificate": "(system: 'FractalSystem', result: 'MembershipResult') -> 'SpacePoint'",
    "save_system": "(system: 'FractalSystem', path) -> 'None'",
    "schanuel_prediction": "(n: 'int', x: 'float') -> 'float'",
    "size_of": "(point: 'SpacePoint') -> 'SizeValue'",
    "solve_dimension": "(spec: 'WeightSpec', tol: 'float' = 1e-12) -> 'DimensionResult'",
    "system_from_dict": "(data: 'dict') -> 'FractalSystem'",
    "system_to_dict": "(system: 'FractalSystem') -> 'dict'",
    "t_module_weights": "(degrees: 'Sequence[int]', rank: 'int') -> 'WeightSpec'",
    "validate_system": "(system: 'FractalSystem') -> 'list[Violation]'",
}


def _signature(value):
    if not callable(value):
        return None
    try:
        text = str(inspect.signature(value))
    except ValueError:  # classes with a builtin constructor, e.g. exceptions
        return None
    return re.sub(r"ForwardRef\('([^']*)'\)", r"'\1'", text)


def test_public_names_are_pinned():
    public = {
        name
        for name, value in vars(arithfractal).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(PUBLIC_API)


def test_public_signatures_are_pinned():
    signatures = {name: _signature(getattr(arithfractal, name)) for name in PUBLIC_API}
    assert signatures == PUBLIC_API
