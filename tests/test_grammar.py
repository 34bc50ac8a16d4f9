"""Every source file parses with the grammar of the oldest supported Python.

pyproject.toml allows Python 3.10, so syntax added after it (``except*``,
type parameter lists, ...) must not appear in the package, its tests or
the benchmark harness, whatever interpreter runs this check.  Every name
a package module imports is used there.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_as_python_3_10():
    paths = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    assert any(p.name == "heights.py" for p in paths)
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_package_modules_use_every_name_they_import():
    # No linter is a dependency, so this is the unused-import check; the
    # package's __init__.py imports only to re-export.
    paths = sorted(p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py")
    assert any(p.name == "enumeration.py" for p in paths)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(a.asname or a.name.partition(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert not imported - used, f"{path.name} imports unused {sorted(imported - used)}"
