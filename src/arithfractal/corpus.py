"""Registry of the bundled example systems.

This listing is the single source of expected values for the test suite:
each entry carries its space, expected dimension (under the default
norm-counting convention), and whether its forward orbit passes the
exactness audit.  The JSON documents live in corpus_data/ and are also
exported to the repository's corpus/ directory.
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError
from .spaces import FractalSystem, load_system


class CorpusEntry(NamedTuple):
    name: str
    space: str
    expected_dimension: float
    exact: bool  # whether the forward orbit passes the exactness audit
    audit_bound: int
    description: str


# z-2x3x has no closed-form dimension; the frozen value solves
# 2^-s + 3^-s = 1 and is cross-checked by an independent bisection in the
# test suite.
_DIM_2X3X = 0.7878849110258697

CORPUS: tuple[CorpusEntry, ...] = (
    CorpusEntry("z-binary", "int", 1.0, True, 10**6,
                "binary carry system {2x, 2x+1} generating the nonnegative integers"),
    CorpusEntry("digits01", "int", math.log(2) / math.log(10), True, 10**6,
                "decimal integers whose digits are 0 or 1"),
    CorpusEntry("digits012", "int", math.log(3) / math.log(10), True, 10**6,
                "decimal integers whose digits are 0, 1 or 2"),
    CorpusEntry("z-2x3x", "int", _DIM_2X3X, False, 10**2,
                "{2x, 3x} from seed 1: three-smooth numbers, overlapping at 6"),
    CorpusEntry("gauss-base", "gauss", 1.0, True, 2**20,
                "base (1+i) digit system {(1+i)z, (1+i)z+1} in the Gaussian integers"),
    CorpusEntry("p1-doubling", "projq", 1.0, True, 2**20,
                "powers of two on the projective line, converging to (0:1)"),
    CorpusEntry("p1-powers2-full", "projq", 1.0, True, 2**20,
                "two-sided powers of two on the projective line"),
    CorpusEntry("q2-powers2", "affq", 2.0, True, 2**12,
                "power-of-two grid {(2^i, 2^j)} in the affine rational plane"),
    CorpusEntry("ec-37a", "ec", 0.0, True, 10**100,
                "doubling map on the rank-1 curve y^2 + y = x^3 - x"),
)

_BY_NAME = {entry.name: entry for entry in CORPUS}


def corpus_names() -> list[str]:
    return [entry.name for entry in CORPUS]


def corpus_entry(name: str) -> CorpusEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ConfigError(f"no corpus system named {name!r}") from None


def corpus_path(name: str) -> Path:
    corpus_entry(name)
    ref = resources.files("arithfractal").joinpath(f"corpus_data/{name}.json")
    with resources.as_file(ref) as path:
        return Path(path)


def load_corpus_system(name: str) -> FractalSystem:
    return load_system(corpus_path(name))


def export_corpus(directory) -> list[Path]:
    """Copy every bundled system document into a directory."""
    out_dir = Path(directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    for entry in CORPUS:
        text = corpus_path(entry.name).read_text()
        target = out_dir / f"{entry.name}.json"
        target.write_text(text)
        written.append(target)
    return written
