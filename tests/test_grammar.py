"""Every source file parses with the grammar of the oldest supported Python.

pyproject.toml allows Python 3.10, so syntax added after it (``except*``,
type parameter lists, ...) must not appear in the package, its tests or
the benchmark harness, whatever interpreter runs this check.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "heights.py" for p in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
