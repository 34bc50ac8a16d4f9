"""Every source file parses with the grammar of the oldest supported Python.

pyproject.toml allows Python 3.10, so syntax added after it (``except*``,
type parameter lists, ...) must not appear in the package, its tests or
the benchmark harness, whatever interpreter runs this check.  Every name
a package module or a test module imports is used there, and every
function the package defines is named somewhere in the package or its tests.
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
    paths += sorted((ROOT / "tests").glob("*.py"))
    assert {"enumeration.py", "test_grammar.py"} <= {p.name for p in paths}
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


def test_package_functions_are_named_elsewhere():
    # No linter is a dependency, so this is the dead-code check: a function or
    # method that no call, reference or attribute in src/ or tests/ names is
    # dead.  Dunders are named by Python itself.
    paths = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    named = {node.id if isinstance(node, ast.Name) else node.attr
             for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, (ast.Name, ast.Attribute))}
    defined = {node.name for path, tree in trees.items() if "arithfractal" in path.parts
               for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    assert {"counting_function", "preimage_fn", "evaluate"} <= defined
    assert not defined - named, f"functions no code names: {sorted(defined - named)}"
