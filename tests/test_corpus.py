from pathlib import Path

import pytest

from arithfractal import (
    CORPUS,
    dimension_equation,
    load_corpus_system,
    solve_dimension,
    validate_system,
)
from arithfractal.corpus import corpus_entry, corpus_names, corpus_path
from arithfractal.errors import ConfigError

REPO_CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def test_registry_names_unique_and_loadable():
    names = corpus_names()
    assert len(names) == len(set(names))
    for name in names:
        system = load_corpus_system(name)
        assert system.label == name
        assert validate_system(system) == []


def test_unknown_name_rejected():
    with pytest.raises(ConfigError):
        corpus_entry("nope")


def test_expected_dimensions_match_solver():
    for entry in CORPUS:
        system = load_corpus_system(entry.name)
        result = solve_dimension(dimension_equation(system))
        assert result.s == pytest.approx(entry.expected_dimension, abs=1e-9), entry.name


def test_frozen_2x3x_dimension_against_bisection():
    # Independent oracle for 2^-s + 3^-s = 1.
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0**-mid + 3.0**-mid > 1:
            lo = mid
        else:
            hi = mid
    assert corpus_entry("z-2x3x").expected_dimension == pytest.approx(lo, abs=1e-12)


def test_repo_corpus_directory_in_sync():
    for entry in CORPUS:
        packaged = corpus_path(entry.name).read_text()
        exported = (REPO_CORPUS / f"{entry.name}.json").read_text()
        assert packaged == exported, f"corpus/{entry.name}.json is stale"


def test_every_space_is_represented():
    spaces = {entry.space for entry in CORPUS}
    assert spaces == {"int", "gauss", "affq", "projq", "ec"}
